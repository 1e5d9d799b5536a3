"""Command-line harness: single solves, refinement studies, operator-order
checks and energy-stability experiments.

Subcommands
-----------
solve         march one problem and write the solution as CSV
convergence   refinement study over a list of mesh levels, with observed
              convergence orders in the trapezoid and max norms
caputo-order  measure the truncation order of the discrete Caputo
              operator against the quadrature oracle
stability     march homogeneous random initial data and check that the
              energy norm never exceeds its initial value

Exit codes: 0 success, 1 failed stability check, 2 usage error, 3 blow-up
when --fail-on-blowup is set.

Each subcommand accepts only the options it reads; any other option is
a usage error.  A JSON config file (``--config``) sets any option of the
chosen subcommand that takes a value (keys use underscores, ``T`` for
``--t``, e.g. ``{"gamma": 0.5, "levels": [20, 40, 80]}``).  Its values
become option strings ahead of the command line, so the parser checks
them like flags and explicit flags override them.  An unknown key, or a value
not of its option's JSON type (number, text, or list), is a usage error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .core import (DomainError, Grid, NodeSampler, Problem, SchemeParams,
                   check_steps, check_time, face_coefficients)
from .fractional import (ORACLE_TOL, OracleFailureError, caputo_oracle,
                         discrete_caputo)
from .manufactured import CATALOG, time_profile, time_profile_d1
from .norms import (UndefinedNormError, convergence_order, energy_weights,
                    norm_max, norm_trapezoid, sigma_threshold)
from .prng import uniform_symmetric
from .stepper import BlowUp, SingularSystemError, march

__all__ = [
    "UsageError",
    "StudyConfig",
    "StudyRow",
    "StudyReport",
    "run_convergence",
    "render_csv",
    "render_table",
    "run_solve",
    "run_caputo_order",
    "run_stability",
    "main",
]

# Rows whose error reaches this magnitude are treated as unstable when
# deciding whether a convergence order is meaningful.
_UNSTABLE_ERROR = 1e30

CSV_HEADER = "h,Nt,tau,err_full,co_full,err_max,co_max"
_COLUMNS = tuple(CSV_HEADER.split(","))


class UsageError(ValueError):
    """Bad configuration or flags; reported with exit code 2."""


def _check_problem(name: str) -> None:
    if name not in CATALOG:
        raise UsageError(f"problem: unknown name {name!r} "
                         f"(available: {', '.join(sorted(CATALOG))})")


def _fmt(v: float) -> str:
    """Six significant digits, scientific notation (``inf``, ``nan`` as is)."""
    return f"{v:.5e}"


# ---------------------------------------------------------------------------
# Convergence studies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StudyConfig:
    """Configuration of a refinement study, checked on construction."""

    gamma: float
    alpha: float
    beta: float
    sigma: float = 1.0
    T: float = 1.0
    levels: tuple[int, ...] = (20, 40, 80)
    coupling: str = "balanced"      # "balanced": tau**(2-gamma) ~ h**2
    tau: Optional[float] = None     # required for coupling == "fixed"
    norms: tuple[str, ...] = ("full", "max")
    problem: str = "mms-cubic"
    check_residuals: bool = False

    def __post_init__(self) -> None:
        _check_problem(self.problem)
        if len(self.levels) < 1 or any(n < 2 for n in self.levels):
            raise UsageError("levels: need mesh sizes with N >= 2")
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise UsageError("levels: must be strictly increasing")
        if self.coupling not in ("balanced", "fixed"):
            raise UsageError("coupling: must be 'balanced' or 'fixed'")
        if self.coupling == "fixed" and not (self.tau and self.tau > 0):
            raise UsageError("tau: fixed coupling needs a positive tau")
        if self.coupling != "fixed" and self.tau is not None:
            raise UsageError("tau: only fixed coupling takes a tau")
        bad = set(self.norms) - {"full", "max"}
        if bad or not self.norms:
            raise UsageError("norms: subset of {'full', 'max'}, nonempty")


@dataclass(frozen=True)
class StudyRow:
    """One refinement level of a study."""

    h: float
    Nt: int
    tau: float
    err_full: Optional[float]
    err_max: Optional[float]
    blew_up: bool
    max_residual: Optional[float] = None


@dataclass(frozen=True)
class StudyReport:
    """Study rows plus metadata; orders are derived from printed errors."""

    config: StudyConfig
    rows: tuple[StudyRow, ...]
    wall_time: float

    def cells(self) -> list[dict[str, str]]:
        """Formatted cells per row, with order columns filled in.

        Orders are recomputed from the *printed* error values so a reader
        can reproduce every order from the table itself.  An order cell
        stays empty on the first row, next to a blown-up or non-finite
        error, and next to errors of instability magnitude.
        """
        out: list[dict[str, str]] = []
        prev, prev_h, prev_bad = {}, 0.0, True
        for row in self.rows:
            errs = {"full": row.err_full, "max": row.err_max}
            cell = {
                "h": _fmt(row.h),
                "Nt": str(row.Nt),
                "tau": _fmt(row.tau),
                "err_full": "", "co_full": "",
                "err_max": "", "co_max": "",
            }
            bad = row.blew_up
            printed: dict[str, float] = {}
            for name in ("full", "max"):
                e = errs[name]
                if e is None:
                    continue
                text = _fmt(e)
                cell[f"err_{name}"] = text
                usable = math.isfinite(e) and 0.0 < e < _UNSTABLE_ERROR
                bad = bad or not usable
                if usable:
                    printed[name] = float(text)
                if usable and not row.blew_up and not prev_bad:
                    cell[f"co_{name}"] = _fmt(convergence_order(
                        prev[name], printed[name], prev_h, row.h))
            prev, prev_h, prev_bad = printed, row.h, bad
            out.append(cell)
        return out


def _study_grid(N: int, config: StudyConfig) -> Grid:
    if config.coupling == "balanced":
        return Grid.balanced(N, config.gamma, config.T)
    return Grid.with_step(N, config.tau, config.T)


class _ErrorNorms:
    """Per-level trapezoid and max error norms of a march; NaN maps to inf.

    Called with each ``(first level, block)`` of a march, it appends the
    norms of the block's levels to ``full`` and ``max``.
    """

    def __init__(self, problem: Problem, grid: Grid):
        self._exact, self._grid = NodeSampler(problem.exact, grid.x), grid
        self.full: list[float] = []
        self.max: list[float] = []

    def __call__(self, first: int, block: np.ndarray) -> None:
        times = np.arange(first, first + len(block)) * self._grid.tau
        with np.errstate(over="ignore", invalid="ignore"):
            z = block - self._exact.rows(times)
            full, mx = norm_trapezoid(z, self._grid.h), norm_max(z)
        self.full += np.where(np.isnan(full), np.inf, full).tolist()
        self.max += np.where(np.isnan(mx), np.inf, mx).tolist()


def run_convergence(config: StudyConfig) -> StudyReport:
    """Run a refinement study level by level.

    A level that blows up is reported in its row (error printed, order
    omitted) instead of aborting the study.
    """
    start = time.perf_counter()
    problem = CATALOG[config.problem](alpha=config.alpha, beta=config.beta,
                                      gamma=config.gamma, T=config.T)
    params = SchemeParams(config.sigma)
    rows = []
    for grid in [_study_grid(N, config) for N in config.levels]:
        errors = _ErrorNorms(problem, grid)
        outcome = march(problem, grid, params, errors,
                        check_residuals=config.check_residuals)
        residuals = outcome.per_step_residuals
        rows.append(StudyRow(
            h=grid.h, Nt=grid.Nt, tau=grid.tau,
            err_full=max(errors.full) if "full" in config.norms else None,
            err_max=max(errors.max) if "max" in config.norms else None,
            blew_up=outcome.blow_up is not None,
            max_residual=None if residuals is None else max(residuals),
        ))
        del outcome             # its history goes before the next level's
    return StudyReport(config=config, rows=tuple(rows),
                       wall_time=time.perf_counter() - start)


def render_csv(report: StudyReport) -> str:
    lines = [",".join(cell[k] for k in _COLUMNS) for cell in report.cells()]
    return "\n".join([CSV_HEADER] + lines) + "\n"


def render_table(report: StudyReport) -> str:
    cfg = report.config
    head = (f"gamma={cfg.gamma} alpha={cfg.alpha} beta={cfg.beta} "
            f"sigma={cfg.sigma} T={cfg.T} coupling={cfg.coupling}")
    cells = report.cells()
    widths = {c: max(len(c), max((len(r[c]) for r in cells), default=0))
              for c in _COLUMNS}
    lines = [head,
             "  ".join(c.ljust(widths[c]) for c in _COLUMNS),
             "  ".join("-" * widths[c] for c in _COLUMNS)]
    for cell in cells:
        lines.append("  ".join(cell[c].ljust(widths[c]) for c in _COLUMNS))
    for row in report.rows:
        if row.blew_up:
            lines.append(f"note: h={_fmt(row.h)} level blew up "
                         f"(instability regime)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Single solve
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolveResult:
    """A march's grid, last level, blow-up record and per-level errors."""

    grid: Grid
    final: np.ndarray
    blow_up: Optional[BlowUp]
    err_full: list[float]
    err_max: list[float]


def run_solve(problem_name: str, alpha: float, beta: float, gamma: float,
              T: float, N: int, Nt: Optional[int], sigma: float,
              sink: Optional[Callable[[Grid, int, np.ndarray], object]] = None
              ) -> SolveResult:
    """One march on the given or the balanced grid, with its errors.

    The levels are folded a block at a time as the march makes them (see
    ``stepper.march``): into the error norms and, if given, ``sink(grid,
    first level, block)``.  The result keeps a copy of the last level, not
    the march's history of every level.
    """
    _check_problem(problem_name)
    problem = CATALOG[problem_name](alpha=alpha, beta=beta, gamma=gamma, T=T)
    grid = (Grid(N=N, Nt=Nt, T=T) if Nt is not None
            else Grid.balanced(N, gamma, T))
    errors = _ErrorNorms(problem, grid)
    sinks = () if sink is None else (functools.partial(sink, grid),)
    outcome = march(problem, grid, SchemeParams(sigma), errors, *sinks)
    return SolveResult(grid=grid, final=outcome.history[-1].copy(),
                       blow_up=outcome.blow_up, err_full=errors.full,
                       err_max=errors.max)


def _final_lines(result: SolveResult) -> Iterator[str]:
    """CSV lines x,y of the last level."""
    yield "x,y\n"
    for x, y in zip(result.grid.x.tolist(), result.final.tolist()):
        yield f"{_fmt(x)},{_fmt(y)}\n"


def _history_lines(grid: Grid, first: int, block: np.ndarray
                   ) -> Iterator[str]:
    """CSV lines t,x,y of a block of levels, with the header at level 0."""
    if first == 0:
        yield "t,x,y\n"
    xs = [_fmt(x) for x in grid.x.tolist()]
    for n, level in enumerate(block.tolist(), first):
        t = _fmt(n * grid.tau)
        yield "".join([f"{t},{x},{_fmt(y)}\n" for x, y in zip(xs, level)])


# ---------------------------------------------------------------------------
# Truncation order of the discrete Caputo operator
# ---------------------------------------------------------------------------

# id -> (function, derivative); all smooth on [0, T].
ORDER_FUNCTIONS = {
    "cubic": (lambda t: t**3, lambda t: 3.0 * t**2),
    "poly": (time_profile, time_profile_d1),
    "exp": (math.exp, math.exp),
    "linear": (lambda t: t, lambda t: 1.0),
}


@dataclass(frozen=True)
class OrderRow:
    gamma: float
    tau: float
    error: float
    order: Optional[float]


@dataclass(frozen=True)
class OrderReport:
    function: str
    t_final: float
    rows: tuple[OrderRow, ...]

    def fitted_order(self, gamma: float) -> Optional[float]:
        """Pairwise order at the finest tau pair for one gamma."""
        orders = [r.order for r in self.rows
                  if r.gamma == gamma and r.order is not None]
        return orders[-1] if orders else None


def run_caputo_order(gammas: Sequence[float], taus: Sequence[float],
                     function: str, t_final: float = 1.0) -> OrderReport:
    """Error of the discrete operator against the quadrature oracle.

    For each gamma (no two alike) and each tau (each dividing t_final into
    a distinct number of at most MAX_STEPS steps, up to roundoff; t_final
    and each tau normal floats, see ``core.check_time``, and the test
    function not equal at t_final and 0) the test function is sampled on
    the time grid, the discrete operator is evaluated at
    t_final, and the difference to the oracle is tabulated together with
    the observed order between consecutive tau values.  An order is
    omitted where either error is within ``ORACLE_TOL``, the oracle's
    guaranteed accuracy: such an error is the oracle's and the rounding's,
    not the operator's (the L1 sum of a linear function is exact).
    """
    if function not in ORDER_FUNCTIONS:
        raise UsageError(f"function: unknown id {function!r} "
                         f"(available: {', '.join(sorted(ORDER_FUNCTIONS))})")
    if not gammas:
        raise UsageError("gammas: need at least one fractional order")
    if len(set(gammas)) < len(gammas):
        raise UsageError(f"gammas: must be distinct, got {gammas}")
    if not taus:
        raise UsageError("taus: need at least one time step")
    check_time("t: final time", t_final)
    v, v_prime = ORDER_FUNCTIONS[function]
    if t_final < 1.0 and v(t_final) == v(0.0):     # all finite below 1
        raise UsageError(f"t: {function!r} does not change over [0, t] at "
                         f"t={t_final}")
    steps_of: dict[float, int] = {}
    for tau in taus:
        check_time("taus: time step", tau)
        check_steps(t_final / tau)
        steps = steps_of[tau] = round(t_final / tau)
        if steps < 1 or abs(steps * tau - t_final) > 1e-9 * t_final:
            raise UsageError(f"tau: {tau} does not divide t_final={t_final}")
    if len(set(steps_of.values())) < len(taus):
        raise UsageError(f"taus: step counts must be distinct, got {taus}")
    rows = []
    for gamma in gammas:
        try:
            reference = caputo_oracle(v, v_prime, t_final, gamma)
        except (OverflowError, OracleFailureError) as exc:
            raise UsageError(f"t: the Caputo derivative of {function!r} at "
                             f"t={t_final} is out of the oracle's reach "
                             f"({exc})") from None
        prev_err = prev_tau = None
        for tau, steps in sorted(steps_of.items(), reverse=True):
            series = [v(s * t_final / steps) for s in range(steps + 1)]
            err = abs(discrete_caputo(series, gamma, t_final / steps)
                      - reference)
            order = None
            if prev_err is not None and min(err, prev_err) > ORACLE_TOL:
                order = convergence_order(prev_err, err, prev_tau, tau)
            rows.append(OrderRow(gamma=gamma, tau=t_final / steps,
                                 error=err, order=order))
            prev_err, prev_tau = err, tau
    return OrderReport(function=function, t_final=t_final, rows=tuple(rows))


def render_order_report(report: OrderReport) -> str:
    lines = [f"function={report.function} t_final={report.t_final}",
             "gamma,tau,error,order"]
    for r in report.rows:
        order = f"{r.order:.3f}" if r.order is not None else ""
        lines.append(f"{r.gamma},{_fmt(r.tau)},{_fmt(r.error)},{order}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Energy stability experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityReport:
    sigma: float
    threshold: float
    norms: tuple[float, ...]
    passed: bool


def run_stability(gamma: float, alpha: float, beta: float,
                  sigma_spec: str | float, N: int, Nt: int, T: float = 1.0,
                  seed: int = 1) -> StabilityReport:
    """March random homogeneous data and track the energy norm.

    The initial data are uniform on [-1, 1) from the documented
    splitmix64 stream, with the left endpoint overwritten to satisfy the
    value coupling u(0) = alpha*u(1) (required by the energy argument
    when sigma < 1; harmless otherwise).  ``sigma_spec`` is a float or
    the literal ``"threshold"``, which uses the stability bound clamped
    to [0, 1].

    Raises
    ------
    UndefinedNormError
        For mixed-sign (alpha, beta) regimes, where the energy norm does
        not exist and the experiment is meaningless.
    """
    problem = CATALOG["zero"](alpha=alpha, beta=beta, gamma=gamma, T=T)
    grid = Grid(N=N, Nt=Nt, T=T)
    face = face_coefficients(problem, grid)
    threshold = sigma_threshold(gamma, grid.h, grid.tau, problem.c2)
    sigma = (min(max(threshold, 0.0), 1.0) if sigma_spec == "threshold"
             else float(sigma_spec))

    # Raises UndefinedNormError before any work is done.
    weights = energy_weights(problem, grid, face)
    u0 = uniform_symmetric(seed, N + 1)
    u0[0] = alpha * u0[-1]
    blocks: list[np.ndarray] = []

    def fold(first: int, block: np.ndarray) -> None:
        with np.errstate(over="ignore"):  # a norm past the float range is inf
            blocks.append(weights.norms(block, grid.h))

    march(problem, grid, SchemeParams(sigma), fold, y0=u0)
    norms = np.concatenate(blocks)
    passed = bool(np.all(norms <= norms[0] * (1.0 + 1e-12)))
    return StabilityReport(sigma=sigma, threshold=threshold,
                           norms=tuple(norms.tolist()), passed=passed)


def render_stability(report: StabilityReport) -> str:
    # One format of all the rows: n and the norm as _fmt writes it.
    rows = ("%d,%.5e\n" * len(report.norms)) % tuple(
        itertools.chain.from_iterable(enumerate(report.norms)))
    return (f"sigma={report.sigma!r}\nthreshold={report.threshold!r}\n"
            f"n,energy_norm\n{rows}{'PASS' if report.passed else 'FAIL'}\n")


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------

def _list_of(kind):
    """Option type of a comma-separated list of ``kind`` values."""
    def parse(text: str) -> tuple:
        try:
            return tuple(kind(p.strip()) for p in text.split(",") if p.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"cannot parse {kind.__name__} list {text!r}") from None
    return parse


_ints, _floats, _names = _list_of(int), _list_of(float), _list_of(str)


def _sigma_spec(text: str) -> str | float:
    if text == "threshold":
        return text
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number or 'threshold', got {text!r}") from None


# Option types that take a config value (or, for the list types, each
# list item) as a JSON number, and those that take it as JSON text.
_NUMBER_TYPES = (int, float, _ints, _floats, _sigma_spec)
_TEXT_TYPES = (None, _ints, _floats, _names, _sigma_spec)
_LIST_TYPES = (_ints, _floats, _names)


# argparse reads a word as a negative number, not an option, only in the
# forms -2 and -0.5, so "--alpha -1e-3" would fail.  No option string of
# these parsers starts with "-" and a digit, so every such word is a value.
_NEGATIVE_NUMBER = re.compile(r"^-\.?\d")


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser,
                             dict[str, dict[str, argparse.Action]]]:
    """The parser, and per subcommand the options a config file may set.

    The switches ``--history`` and ``--fail-on-blowup`` are flags only.
    """
    parser = argparse.ArgumentParser(
        prog="fracheat",
        description="Nonlocal time-fractional diffusion solver and "
                    "study harness.")
    sub = parser.add_subparsers(dest="command", required=True)
    settable: dict[str, dict[str, argparse.Action]] = {}

    # Every subcommand takes --config, --t and --out, and the problem and
    # scheme options unless ``scheme`` is false; it adds what else it reads.
    def command(name: str, summary: str, scheme: bool = True,
                alpha: float = 1.0, beta: float = 1.0, sigma_type=float):
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p._negative_number_matcher = _NEGATIVE_NUMBER

        def option(*flags, **kwargs) -> None:
            action = p.add_argument(*flags, **kwargs)
            settable.setdefault(name, {})[action.dest] = action

        p.add_argument("--config", help="JSON file with option defaults")
        if scheme:
            option("--gamma", type=float, default=0.5)
            option("--alpha", type=float, default=alpha)
            option("--beta", type=float, default=beta)
            option("--sigma", type=sigma_type, default=1.0,
                   help="scheme weight in [0,1]; stability also "
                        "accepts 'threshold'")
        option("--t", dest="T", type=float, default=1.0, help="final time")
        option("--out", default=None, help="output file path")
        return p, option

    p_solve, option = command("solve", "march one problem")
    option("--problem", default="mms-cubic")
    option("--n", type=int, default=20, help="space subintervals")
    option("--nt", type=int, default=None,
           help="time steps (default: balanced coupling)")
    p_solve.add_argument("--history", action="store_true",
                         help="write all levels to --out (columns t,x,y)")
    p_solve.add_argument("--fail-on-blowup", action="store_true")

    p_study, option = command("convergence", "refinement study")
    option("--problem", default="mms-cubic")
    option("--levels", type=_ints, default=(20, 40, 80),
           help="comma list of N values, e.g. 20,40,80")
    option("--coupling", choices=("balanced", "fixed"), default="balanced")
    option("--tau", type=float, default=None,
           help="time step for fixed coupling")
    option("--norms", type=_names, default=("full", "max"),
           help="comma subset of full,max")
    option("--format", choices=("csv", "table"), default="csv")
    p_study.add_argument("--fail-on-blowup", action="store_true")

    _, option = command("caputo-order",
                        "truncation order of the memory operator",
                        scheme=False)
    option("--gammas", type=_floats, default=(0.3, 0.5, 0.9),
           help="comma list of fractional orders")
    option("--taus", type=_floats,
           default=(0.05, 0.025, 0.0125, 0.00625, 0.003125),
           help="comma list of time steps")
    option("--function", default="cubic", choices=sorted(ORDER_FUNCTIONS))

    _, option = command("stability", "energy decay experiment",
                        alpha=2.0, beta=3.0, sigma_type=_sigma_spec)
    option("--n", type=int, default=16)
    option("--nt", type=int, default=50)
    option("--seed", type=int, default=1)

    return parser, settable


def _config_argv(options: dict[str, argparse.Action], path: str) -> list[str]:
    """Option strings equivalent to a config file, for the parser.

    Each value must have the JSON type of its option; the parser then
    checks it exactly as it checks the flag.
    """
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:    # ValueError: bad JSON or UTF-8
        raise UsageError(f"config: cannot read {path!r}: {exc}")
    if not isinstance(cfg, dict):
        raise UsageError("config: expected a flat JSON object")
    argv = []
    for key, value in cfg.items():
        action = options.get(key)
        if action is None:
            raise UsageError(f"config: unknown option {key!r} "
                             f"(available: {', '.join(sorted(options))})")
        items = (value if isinstance(value, list)
                 and action.type in _LIST_TYPES else [value])
        for item in items:
            number = (isinstance(item, (int, float))
                      and not isinstance(item, bool))
            if not (number and action.type in _NUMBER_TYPES
                    or isinstance(item, str) and action.type in _TEXT_TYPES):
                raise UsageError(f"config: {key}: wrong-typed value {value!r}")
        argv.append(f"{action.option_strings[0]}="
                    f"{','.join(str(item) for item in items)}")
    return argv


def _emit(lines: Iterable[str], path: Optional[str], mode: str = "w") -> None:
    if not path:
        sys.stdout.writelines(lines)
        return
    try:
        with open(path, mode) as fh:
            fh.writelines(lines)
    except OSError as exc:
        raise UsageError(f"out: cannot write {path!r}: {exc}") from None


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, settable = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # Config options go right after the subcommand, so flags given
            # on the command line come later and win.
            at = argv.index(args.command) + 1
            cfg_argv = _config_argv(settable[args.command], args.config)
            args = parser.parse_args(argv[:at] + cfg_argv + argv[at:])
        # An unwritable --out is refused before any work, creating nothing.
        parent = os.path.dirname(os.path.abspath(args.out or "."))
        if args.out is not None and (not args.out or os.path.isdir(args.out)
                                     or not os.path.isdir(parent)
                                     or not os.access(parent, os.W_OK)):
            raise UsageError(f"out: cannot write {args.out!r}: empty, a "
                             f"directory, or not in a writable directory")
        return _COMMANDS[args.command](args)
    except (UsageError, DomainError, UndefinedNormError,
            SingularSystemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _main_solve(args: argparse.Namespace) -> int:
    if args.history and args.out is None:
        raise UsageError("history: writes every level to --out, which is "
                         "not given")

    def write_history(grid: Grid, first: int, block: np.ndarray) -> None:
        # Created with the first block: a refused march creates no file.
        _emit(_history_lines(grid, first, block), args.out,
              "w" if first == 0 else "a")

    result = run_solve(problem_name=args.problem, alpha=args.alpha,
                       beta=args.beta, gamma=args.gamma, T=args.T, N=args.n,
                       Nt=args.nt, sigma=args.sigma,
                       sink=write_history if args.history else None)
    if args.out and not args.history:
        _emit(_final_lines(result), args.out)
    print(f"err_full_final={_fmt(result.err_full[-1])}")
    print(f"err_max_final={_fmt(result.err_max[-1])}")
    print(f"err_full_peak={_fmt(max(result.err_full))}")
    print(f"err_max_peak={_fmt(max(result.err_max))}")
    if result.blow_up is not None:
        b = result.blow_up
        print(f"blow_up_level={b.level}")
        print(f"blow_up_norm={_fmt(b.norm)}")
        if args.fail_on_blowup:
            return 3
    return 0


def _main_convergence(args: argparse.Namespace) -> int:
    config = StudyConfig(gamma=args.gamma, alpha=args.alpha, beta=args.beta,
                         sigma=args.sigma, T=args.T, levels=args.levels,
                         coupling=args.coupling, tau=args.tau,
                         norms=args.norms, problem=args.problem)
    report = run_convergence(config)
    text = render_csv(report) if args.format == "csv" else render_table(report)
    _emit([text], args.out)
    if args.fail_on_blowup and any(r.blew_up for r in report.rows):
        return 3
    return 0


def _main_caputo_order(args: argparse.Namespace) -> int:
    report = run_caputo_order(gammas=args.gammas, taus=args.taus,
                              function=args.function, t_final=args.T)
    _emit([render_order_report(report)], args.out)
    return 0


def _main_stability(args: argparse.Namespace) -> int:
    report = run_stability(gamma=args.gamma, alpha=args.alpha,
                           beta=args.beta, sigma_spec=args.sigma, N=args.n,
                           Nt=args.nt, T=args.T, seed=args.seed)
    _emit([render_stability(report)], args.out)
    return 0 if report.passed else 1


_COMMANDS = {"solve": _main_solve, "convergence": _main_convergence,
             "caputo-order": _main_caputo_order, "stability": _main_stability}


if __name__ == "__main__":
    sys.exit(main())
