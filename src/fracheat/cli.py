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
import json
import math
import sys
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (DomainError, Grid, NodeSampler, Problem, SchemeParams,
                   check_steps, face_coefficients)
from .fractional import OracleFailureError, caputo_oracle, discrete_caputo
from .manufactured import CATALOG
from .norms import (
    UndefinedNormError,
    convergence_order,
    energy_norm,  # noqa: F401  (looked up here by benchmarks/spans.py)
    energy_weights,
    norm_max,
    norm_trapezoid,
    sigma_threshold,
)
from .prng import uniform_symmetric
from .stepper import SingularSystemError, SolveOutcome, march

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
    """Configuration of a refinement study."""

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

    def validate(self) -> None:
        _check_problem(self.problem)
        if len(self.levels) < 1 or any(n < 2 for n in self.levels):
            raise UsageError("levels: need mesh sizes with N >= 2")
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise UsageError("levels: must be strictly increasing")
        if self.coupling not in ("balanced", "fixed"):
            raise UsageError("coupling: must be 'balanced' or 'fixed'")
        if self.coupling == "fixed" and not (self.tau and self.tau > 0):
            raise UsageError("tau: fixed coupling needs a positive tau")
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
        prev: dict[str, Optional[float]] = {"full": None, "max": None}
        prev_h: Optional[float] = None
        prev_bad = True
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
            printed: dict[str, Optional[float]] = {"full": None, "max": None}
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
                if (usable and not row.blew_up and not prev_bad
                        and prev[name] is not None and prev_h is not None):
                    co = convergence_order(prev[name], float(text),
                                           prev_h, row.h)
                    cell[f"co_{name}"] = f"{co:.5e}"
            prev = printed
            prev_h = row.h
            prev_bad = bad
            out.append(cell)
        return out


def _study_grid(N: int, config: StudyConfig) -> Grid:
    if config.coupling == "balanced":
        return Grid.balanced(N, config.gamma, config.T)
    return Grid.with_step(N, config.tau, config.T)


def _error_history(outcome: SolveOutcome, problem: Problem,
                   grid: Grid) -> tuple[list[float], list[float]]:
    """Per-level trapezoid and max error norms; NaN maps to inf.

    Taken a block of at most 256 levels and about 2**16 entries at a time,
    so the temporaries stay small however long or wide the march.
    """
    exact = NodeSampler(problem.exact, grid.x)
    Y = outcome.history
    rows = max(1, min(256, 2**16 // Y.shape[1]))
    full, mx = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(0, len(Y), rows):
            block = Y[k:k + rows]
            z = block - exact.rows([n * grid.tau
                                    for n in range(k, k + len(block))])
            full += norm_trapezoid(z, grid.h).tolist()
            mx += norm_max(z).tolist()
    return ([math.inf if math.isnan(e) else e for e in full],
            [math.inf if math.isnan(e) else e for e in mx])


def run_convergence(config: StudyConfig) -> StudyReport:
    """Run a refinement study level by level.

    A level that blows up is reported in its row (error printed, order
    omitted) instead of aborting the study.
    """
    config.validate()
    start = time.perf_counter()
    problem = CATALOG[config.problem](alpha=config.alpha, beta=config.beta,
                                      gamma=config.gamma, T=config.T)
    if problem.exact is None:
        raise UsageError(f"problem: {config.problem!r} has no exact "
                         f"solution to measure errors against")
    params = SchemeParams(config.sigma)
    rows = []
    for grid in [_study_grid(N, config) for N in config.levels]:
        outcome = march(problem, grid, params,
                        check_residuals=config.check_residuals)
        full, mx = _error_history(outcome, problem, grid)
        res = outcome.per_step_residuals
        rows.append(StudyRow(
            h=grid.h, Nt=grid.Nt, tau=grid.tau,
            err_full=max(full) if "full" in config.norms else None,
            err_max=max(mx) if "max" in config.norms else None,
            blew_up=outcome.blow_up is not None,
            max_residual=max(res) if res else None,
        ))
    return StudyReport(config=config, rows=tuple(rows),
                       wall_time=time.perf_counter() - start)


def render_csv(report: StudyReport) -> str:
    lines = [CSV_HEADER]
    for cell in report.cells():
        lines.append(",".join(cell[k] for k in _COLUMNS))
    return "\n".join(lines) + "\n"


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
    grid: Grid
    outcome: SolveOutcome
    err_full_final: Optional[float]
    err_max_final: Optional[float]
    err_full_peak: Optional[float]
    err_max_peak: Optional[float]


def run_solve(problem_name: str, alpha: float, beta: float, gamma: float,
              T: float, N: int, Nt: Optional[int],
              sigma: float) -> SolveResult:
    """One march; error norms are filled in when an exact solution exists."""
    _check_problem(problem_name)
    problem = CATALOG[problem_name](alpha=alpha, beta=beta, gamma=gamma, T=T)
    grid = Grid(N=N, Nt=Nt, T=T) if Nt else Grid.balanced(N, gamma, T)
    outcome = march(problem, grid, SchemeParams(sigma))
    ef = em = pf = pm = None
    if problem.exact is not None:
        full, mx = _error_history(outcome, problem, grid)
        ef, em = full[-1], mx[-1]
        pf, pm = max(full), max(mx)
    return SolveResult(grid=grid, outcome=outcome,
                       err_full_final=ef, err_max_final=em,
                       err_full_peak=pf, err_max_peak=pm)


def _write_solution(result: SolveResult, path: str, with_history: bool) -> None:
    lines = []
    if with_history:
        lines.append("t,x,y")
        for n, level in enumerate(result.outcome.history):
            t = n * result.grid.tau
            for x, y in zip(result.grid.x, level):
                lines.append(f"{_fmt(t)},{_fmt(x)},{_fmt(y)}")
    else:
        lines.append("x,y")
        for x, y in zip(result.grid.x, result.outcome.history[-1]):
            lines.append(f"{_fmt(x)},{_fmt(y)}")
    _emit("\n".join(lines) + "\n", path)


# ---------------------------------------------------------------------------
# Truncation order of the discrete Caputo operator
# ---------------------------------------------------------------------------

# id -> (function, derivative); all smooth on [0, T].
ORDER_FUNCTIONS = {
    "cubic": (lambda t: t**3, lambda t: 3.0 * t**2),
    "poly": (lambda t: t**3 - t**2 + t + 1.0,
             lambda t: 3.0 * t**2 - 2.0 * t + 1.0),
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

    For each gamma and each tau (distinct values, each dividing t_final
    into at most MAX_STEPS steps up to roundoff) the test function is sampled
    on the time grid, the discrete operator is evaluated at t_final, and
    the difference to the oracle is tabulated together with the observed
    order between consecutive tau values.
    """
    if function not in ORDER_FUNCTIONS:
        raise UsageError(f"function: unknown id {function!r} "
                         f"(available: {', '.join(sorted(ORDER_FUNCTIONS))})")
    if not 0.0 < t_final < math.inf:
        raise UsageError(f"t: final time must be positive and finite, "
                         f"got {t_final}")
    for tau in taus:
        if not 0.0 < tau < math.inf:
            raise UsageError(f"taus: time steps must be positive and "
                             f"finite, got {tau}")
        check_steps(t_final / tau)
    if len(set(taus)) < len(taus):
        raise UsageError(f"taus: time steps must be distinct, got {taus}")
    v, v_prime = ORDER_FUNCTIONS[function]
    rows = []
    for gamma in gammas:
        try:
            reference = caputo_oracle(v, v_prime, t_final, gamma)
        except (OverflowError, OracleFailureError) as exc:
            raise UsageError(f"t: the Caputo derivative of {function!r} at "
                             f"t={t_final} is out of the oracle's reach "
                             f"({exc})") from None
        prev_err = prev_tau = None
        for tau in sorted(taus, reverse=True):
            steps = round(t_final / tau)
            if steps < 1 or abs(steps * tau - t_final) > 1e-9 * t_final:
                raise UsageError(f"tau: {tau} does not divide t_final={t_final}")
            series = [v(s * t_final / steps) for s in range(steps + 1)]
            err = abs(discrete_caputo(series, gamma, t_final / steps)
                      - reference)
            order = None
            if prev_err is not None and err > 0.0 and prev_err > 0.0:
                order = math.log(prev_err / err) / math.log(prev_tau / tau)
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
    if sigma_spec == "threshold":
        sigma = min(max(threshold, 0.0), 1.0)
    else:
        sigma = float(sigma_spec)

    # Raises UndefinedNormError before any work is done.
    weights = energy_weights(problem, grid, face)
    u0 = uniform_symmetric(seed, N + 1)
    u0[0] = alpha * u0[-1]
    outcome = march(problem, grid, SchemeParams(sigma), y0=u0)
    with np.errstate(over="ignore"):    # a norm past the float range is inf
        norms = tuple(weights.norms(outcome.history, grid.h).tolist())
    passed = all(v <= norms[0] * (1.0 + 1e-12) for v in norms)
    return StabilityReport(sigma=sigma, threshold=threshold,
                           norms=norms, passed=passed)


def render_stability(report: StabilityReport) -> str:
    lines = [f"sigma={report.sigma!r}",
             f"threshold={report.threshold!r}",
             "n,energy_norm"]
    for n, v in enumerate(report.norms):
        lines.append(f"{n},{_fmt(v)}")
    lines.append("PASS" if report.passed else "FAIL")
    return "\n".join(lines) + "\n"


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
        options = settable[name] = {}

        def option(*flags, **kwargs) -> None:
            action = p.add_argument(*flags, **kwargs)
            options[action.dest] = action

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
                         help="write all levels (columns t,x,y)")
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


def _emit(text: str, path: Optional[str]) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
        return _COMMANDS[args.command](args)
    except (UsageError, DomainError, UndefinedNormError,
            SingularSystemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _main_solve(args: argparse.Namespace) -> int:
    result = run_solve(problem_name=args.problem, alpha=args.alpha,
                       beta=args.beta, gamma=args.gamma, T=args.T, N=args.n,
                       Nt=args.nt, sigma=args.sigma)
    if args.out:
        _write_solution(result, args.out, args.history)
    if result.err_full_final is not None:
        print(f"err_full_final={_fmt(result.err_full_final)}")
        print(f"err_max_final={_fmt(result.err_max_final)}")
        print(f"err_full_peak={_fmt(result.err_full_peak)}")
        print(f"err_max_peak={_fmt(result.err_max_peak)}")
    if result.outcome.blow_up is not None:
        b = result.outcome.blow_up
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
    _emit(text, args.out)
    if args.fail_on_blowup and any(r.blew_up for r in report.rows):
        return 3
    return 0


def _main_caputo_order(args: argparse.Namespace) -> int:
    report = run_caputo_order(gammas=args.gammas, taus=args.taus,
                              function=args.function, t_final=args.T)
    _emit(render_order_report(report), args.out)
    return 0


def _main_stability(args: argparse.Namespace) -> int:
    report = run_stability(gamma=args.gamma, alpha=args.alpha,
                           beta=args.beta, sigma_spec=args.sigma, N=args.n,
                           Nt=args.nt, T=args.T, seed=args.seed)
    _emit(render_stability(report), args.out)
    return 0 if report.passed else 1


_COMMANDS = {"solve": _main_solve, "convergence": _main_convergence,
             "caputo-order": _main_caputo_order, "stability": _main_stability}


if __name__ == "__main__":
    sys.exit(main())
