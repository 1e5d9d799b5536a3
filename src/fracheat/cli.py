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

A JSON config file (``--config``) supplies defaults for any long option
of the chosen subcommand (keys use underscores, e.g. ``{"gamma": 0.5,
"levels": [20, 40, 80]}``); explicit flags override it.
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

from .core import DomainError, Grid, Problem, SchemeParams, face_coefficients
from .fractional import caputo_oracle, discrete_caputo
from .manufactured import CATALOG
from .norms import (
    UndefinedNormError,
    convergence_order,
    energy_norm,
    energy_weights,
    norm_max,
    norm_trapezoid,
    sigma_threshold,
)
from .prng import uniform_symmetric
from .stepper import SolveOutcome, march

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


class UsageError(ValueError):
    """Bad configuration or flags; reported with exit code 2."""


def _fmt(v: float) -> str:
    """Six significant digits, scientific notation."""
    if not math.isfinite(v):
        return "inf" if v > 0 else "-inf"
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
        if self.problem not in CATALOG:
            names = ", ".join(sorted(CATALOG))
            raise UsageError(f"problem: unknown name {self.problem!r} "
                             f"(available: {names})")
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
        if not 0.0 <= self.sigma <= 1.0:
            raise UsageError("sigma: must lie in [0, 1]")


@dataclass(frozen=True)
class StudyRow:
    """One refinement level of a study."""

    N: int
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
    Nt = int(np.ceil(config.T / config.tau))
    return Grid(N=N, Nt=Nt, T=config.T)


def _error_history(outcome: SolveOutcome, problem: Problem,
                   grid: Grid) -> tuple[list[float], list[float]]:
    """Per-level trapezoid and max error norms; non-finite maps to inf."""
    x = grid.x
    full, mx = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(len(outcome.history)):
            y = outcome.history[n]
            u = np.asarray(problem.exact(x, n * grid.tau), dtype=float)
            z = y - u
            if not np.all(np.isfinite(z)):
                full.append(float("inf"))
                mx.append(float("inf"))
                continue
            ef = norm_trapezoid(z, grid.h)
            em = norm_max(z)
            full.append(ef if math.isfinite(ef) else float("inf"))
            mx.append(em)
    return full, mx


def run_convergence(config: StudyConfig) -> StudyReport:
    """Run a refinement study level by level.

    A level that blows up is reported in its row (error printed, order
    omitted) instead of aborting the study.
    """
    config.validate()
    builder = CATALOG[config.problem]
    params = SchemeParams(config.sigma)
    start = time.perf_counter()
    rows = []
    for N in config.levels:
        problem = builder(alpha=config.alpha, beta=config.beta,
                          gamma=config.gamma, T=config.T)
        if problem.exact is None:
            raise UsageError(f"problem: {config.problem!r} has no exact "
                             f"solution to measure errors against")
        grid = _study_grid(N, config)
        outcome = march(problem, grid, params,
                        check_residuals=config.check_residuals)
        full, mx = _error_history(outcome, problem, grid)
        res = outcome.per_step_residuals
        rows.append(StudyRow(
            N=N, h=grid.h, Nt=grid.Nt, tau=grid.tau,
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
        lines.append(",".join(cell[k] for k in
                              ("h", "Nt", "tau", "err_full", "co_full",
                               "err_max", "co_max")))
    return "\n".join(lines) + "\n"


def render_table(report: StudyReport) -> str:
    cfg = report.config
    head = (f"gamma={cfg.gamma} alpha={cfg.alpha} beta={cfg.beta} "
            f"sigma={cfg.sigma} T={cfg.T} coupling={cfg.coupling}")
    cols = ("h", "Nt", "tau", "err_full", "co_full", "err_max", "co_max")
    cells = report.cells()
    widths = {c: max(len(c), max((len(r[c]) for r in cells), default=0))
              for c in cols}
    lines = [head,
             "  ".join(c.ljust(widths[c]) for c in cols),
             "  ".join("-" * widths[c] for c in cols)]
    for cell in cells:
        lines.append("  ".join(cell[c].ljust(widths[c]) for c in cols))
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
    problem: Problem
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
    if problem_name not in CATALOG:
        names = ", ".join(sorted(CATALOG))
        raise UsageError(f"problem: unknown name {problem_name!r} "
                         f"(available: {names})")
    problem = CATALOG[problem_name](alpha=alpha, beta=beta, gamma=gamma, T=T)
    grid = Grid(N=N, Nt=Nt, T=T) if Nt else Grid.balanced(N, gamma, T)
    outcome = march(problem, grid, SchemeParams(sigma))
    ef = em = pf = pm = None
    if problem.exact is not None:
        full, mx = _error_history(outcome, problem, grid)
        ef, em = full[-1], mx[-1]
        pf, pm = max(full), max(mx)
    return SolveResult(problem=problem, grid=grid, outcome=outcome,
                       err_full_final=ef, err_max_final=em,
                       err_full_peak=pf, err_max_peak=pm)


def _write_solution(result: SolveResult, path: str, with_history: bool) -> None:
    lines = []
    if with_history:
        lines.append("t,x,y")
        for n in range(len(result.outcome.history)):
            t = n * result.grid.tau
            for x, y in zip(result.grid.x, result.outcome.history[n]):
                lines.append(f"{_fmt(t)},{_fmt(x)},{_fmt(y)}")
    else:
        lines.append("x,y")
        final = result.outcome.history[len(result.outcome.history) - 1]
        for x, y in zip(result.grid.x, final):
            lines.append(f"{_fmt(x)},{_fmt(y)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


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

    For each gamma and each tau (which must divide t_final into an
    integer number of steps up to roundoff) the test function is sampled
    on the time grid, the discrete operator is evaluated at t_final, and
    the difference to the oracle is tabulated together with the observed
    order between consecutive tau values.
    """
    if function not in ORDER_FUNCTIONS:
        raise UsageError(f"function: unknown id {function!r} "
                         f"(available: {', '.join(sorted(ORDER_FUNCTIONS))})")
    v, v_prime = ORDER_FUNCTIONS[function]
    rows = []
    for gamma in gammas:
        reference = caputo_oracle(v, v_prime, t_final, gamma)
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


def _homogeneous_problem(alpha: float, beta: float, gamma: float,
                         T: float) -> Problem:
    return Problem(gamma=gamma, alpha=alpha, beta=beta,
                   k=lambda x: np.exp(x),
                   f=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
                   mu=lambda t: 0.0,
                   u0=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                   c1=1.0, c2=math.e)


def run_stability(gamma: float, alpha: float, beta: float, sigma_spec: str,
                  N: int, Nt: int, T: float = 1.0,
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
    problem = _homogeneous_problem(alpha, beta, gamma, T)
    grid = Grid(N=N, Nt=Nt, T=T)
    face = face_coefficients(problem, grid)
    threshold = sigma_threshold(gamma, grid.h, grid.tau, problem.c2)
    if sigma_spec == "threshold":
        sigma = min(max(threshold, 0.0), 1.0)
    else:
        sigma = float(sigma_spec)

    # Probe the regime before doing any work; raises UndefinedNormError.
    u0 = uniform_symmetric(seed, N + 1)
    u0[0] = alpha * u0[-1]
    energy_norm(u0, problem, grid, face)

    outcome = march(problem, grid, SchemeParams(sigma), y0=u0)
    weights = energy_weights(problem, grid, face)
    norms = tuple(weights.norm(level, grid.h)
                  for level in outcome.history.array())
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

def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise UsageError(f"cannot parse float list {text!r}") from exc


def _parse_ints(text) -> tuple[int, ...]:
    if isinstance(text, (list, tuple)):
        return tuple(int(v) for v in text)
    try:
        return tuple(int(p) for p in str(text).split(",") if p.strip())
    except ValueError as exc:
        raise UsageError(f"cannot parse integer list {text!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracheat",
        description="Nonlocal time-fractional diffusion solver and "
                    "study harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON file with option defaults")
        p.add_argument("--gamma", type=float, default=None)
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--beta", type=float, default=None)
        p.add_argument("--sigma", default=None,
                       help="scheme weight in [0,1]; stability also "
                            "accepts 'threshold'")
        p.add_argument("--t", dest="T", type=float, default=None,
                       help="final time")
        p.add_argument("--out", default=None, help="output file path")
        p.add_argument("--format", choices=("csv", "table"), default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--fail-on-blowup", action="store_true")

    p_solve = sub.add_parser("solve", help="march one problem")
    common(p_solve)
    p_solve.add_argument("--problem", default=None)
    p_solve.add_argument("--n", type=int, default=None,
                         help="space subintervals")
    p_solve.add_argument("--nt", type=int, default=None,
                         help="time steps (default: balanced coupling)")
    p_solve.add_argument("--history", action="store_true",
                         help="write all levels (columns t,x,y)")

    p_conv = sub.add_parser("convergence", help="refinement study")
    common(p_conv)
    p_conv.add_argument("--problem", default=None)
    p_conv.add_argument("--levels", default=None,
                        help="comma list of N values, e.g. 20,40,80")
    p_conv.add_argument("--coupling", choices=("balanced", "fixed"),
                        default=None)
    p_conv.add_argument("--tau", type=float, default=None,
                        help="time step for fixed coupling")
    p_conv.add_argument("--norms", default=None,
                        help="comma subset of full,max")

    p_ord = sub.add_parser("caputo-order",
                           help="truncation order of the memory operator")
    common(p_ord)
    p_ord.add_argument("--gammas", default=None,
                       help="comma list of fractional orders")
    p_ord.add_argument("--taus", default=None,
                       help="comma list of time steps")
    p_ord.add_argument("--function", default=None,
                       choices=sorted(ORDER_FUNCTIONS))

    p_stab = sub.add_parser("stability", help="energy decay experiment")
    common(p_stab)
    p_stab.add_argument("--n", type=int, default=None)
    p_stab.add_argument("--nt", type=int, default=None)

    return parser


def _load_config(args: argparse.Namespace) -> dict:
    if not getattr(args, "config", None):
        return {}
    try:
        with open(args.config) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"config: cannot read {args.config!r}: {exc}")
    if not isinstance(data, dict):
        raise UsageError("config: expected a flat JSON object")
    return data


def _opt(args: argparse.Namespace, cfg: dict, name: str, default=None):
    """Flag value if given, else config value, else default."""
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name in cfg:
        return cfg[name]
    return default


def _emit(text: str, path: Optional[str]) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command == "solve":
            return _main_solve(args, cfg)
        if args.command == "convergence":
            return _main_convergence(args, cfg)
        if args.command == "caputo-order":
            return _main_caputo_order(args, cfg)
        if args.command == "stability":
            return _main_stability(args, cfg)
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, DomainError, UndefinedNormError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _main_solve(args: argparse.Namespace, cfg: dict) -> int:
    nt = _opt(args, cfg, "nt")
    result = run_solve(
        problem_name=_opt(args, cfg, "problem", "mms-cubic"),
        alpha=float(_opt(args, cfg, "alpha", 1.0)),
        beta=float(_opt(args, cfg, "beta", 1.0)),
        gamma=float(_opt(args, cfg, "gamma", 0.5)),
        T=float(_opt(args, cfg, "T", 1.0)),
        N=int(_opt(args, cfg, "n", 20)),
        Nt=int(nt) if nt else None,
        sigma=float(_opt(args, cfg, "sigma", 1.0)),
    )
    out = _opt(args, cfg, "out")
    if out:
        _write_solution(result, out, args.history)
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


def _main_convergence(args: argparse.Namespace, cfg: dict) -> int:
    norms = _opt(args, cfg, "norms", ("full", "max"))
    if isinstance(norms, str):
        norms = tuple(p.strip() for p in norms.split(",") if p.strip())
    config = StudyConfig(
        gamma=float(_opt(args, cfg, "gamma", 0.5)),
        alpha=float(_opt(args, cfg, "alpha", 1.0)),
        beta=float(_opt(args, cfg, "beta", 1.0)),
        sigma=float(_opt(args, cfg, "sigma", 1.0)),
        T=float(_opt(args, cfg, "T", 1.0)),
        levels=_parse_ints(_opt(args, cfg, "levels", (20, 40, 80))),
        coupling=_opt(args, cfg, "coupling", "balanced"),
        tau=_opt(args, cfg, "tau"),
        norms=tuple(norms),
        problem=_opt(args, cfg, "problem", "mms-cubic"),
    )
    report = run_convergence(config)
    fmt = _opt(args, cfg, "format", "csv")
    text = render_csv(report) if fmt == "csv" else render_table(report)
    _emit(text, _opt(args, cfg, "out"))
    if args.fail_on_blowup and any(r.blew_up for r in report.rows):
        return 3
    return 0


def _main_caputo_order(args: argparse.Namespace, cfg: dict) -> int:
    gammas = _opt(args, cfg, "gammas", "0.3,0.5,0.9")
    taus = _opt(args, cfg, "taus", "0.05,0.025,0.0125,0.00625,0.003125")
    if isinstance(gammas, str):
        gammas = _parse_floats(gammas)
    if isinstance(taus, str):
        taus = _parse_floats(taus)
    report = run_caputo_order(
        gammas=gammas, taus=taus,
        function=_opt(args, cfg, "function", "cubic"),
        t_final=float(_opt(args, cfg, "T", 1.0)),
    )
    _emit(render_order_report(report), _opt(args, cfg, "out"))
    return 0


def _main_stability(args: argparse.Namespace, cfg: dict) -> int:
    report = run_stability(
        gamma=float(_opt(args, cfg, "gamma", 0.5)),
        alpha=float(_opt(args, cfg, "alpha", 2.0)),
        beta=float(_opt(args, cfg, "beta", 3.0)),
        sigma_spec=str(_opt(args, cfg, "sigma", "1.0")),
        N=int(_opt(args, cfg, "n", 16)),
        Nt=int(_opt(args, cfg, "nt", 50)),
        T=float(_opt(args, cfg, "T", 1.0)),
        seed=int(_opt(args, cfg, "seed", 1)),
    )
    _emit(render_stability(report), _opt(args, cfg, "out"))
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
