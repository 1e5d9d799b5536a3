"""Workload definitions of the fracheat benchmark.

Every workload drives the public ``fracheat`` command line in process
through ``fracheat.cli.main(argv)`` and checks every output it prints.
The command line is the interface that survives moves of the study
functions between modules, so the benchmark depends on nothing else of
the program apart from the builders it uses to size its problems.

One *op* is the unit the benchmark times.  An op is a short list of
command-line calls; each call is one *check* (exit code plus printed
output), and ``failed / attempted`` over the checks is the fail rate.

Spread seen while sizing the workloads on a shared 2-CPU machine
(Python 3.11, numpy 2.4, scipy 1.17, OpenBLAS pinned to one thread):
one march-n320 op ran 3.54-4.39 s back to back, and a 4-seed
stability-long pass ran 2.47-3.25 s.  Later sizing runs saw neighbours
on the host slow whole stretches of a run by 20-170%, so every call of
an op is bracketed by a reference march on the call's own mesh sizes
(``reference.py``) and the bounded time is the op time over the
reference time (see ``run.py``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

ERROR_TOL = 0.05      # relative tolerance on error norms (acceptance gate)
ORDER_TOL = 0.05      # absolute tolerance on observed orders (acceptance gate)


@dataclass(frozen=True)
class Call:
    """One command-line call and the check of what it printed.

    ``check(exit_code, stdout)`` returns a list of problems; an empty list
    means the call passed.  ``sizes`` lists the (N, Nt) meshes the call
    marches, which give the workload's node-step count.
    """

    argv: tuple[str, ...]
    check: Callable[[int, str], list[str]]
    sizes: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Op:
    calls: tuple[Call, ...]

    @property
    def node_steps(self) -> int:
        """Sum of (N+1)*Nt over the marches of the op."""
        return sum((n + 1) * nt for call in self.calls for n, nt in call.sizes)


@dataclass(frozen=True)
class Workload:
    """A named input set; ``ops(fc, seed)`` builds its ops after import.

    ``fc`` is the imported ``fracheat`` package namespace (see
    :func:`import_fracheat` in ``worker.py``); building the ops also
    builds each march's problem, grid and face coefficients, which is the
    set-up the workload pays before its first timed op.  ``ref_stride``
    is the stride of the reference march run around each call on the
    call's mesh sizes: every ``ref_stride``-th level is computed, which
    sets the reference's share of the run (a quarter to a half).
    """

    name: str
    why: str
    ops: Callable[[object, int], list[Op]]
    ref_stride: int
    min_ops: int = 3


# ---------------------------------------------------------------------------
# Output parsing and checks
# ---------------------------------------------------------------------------

def _close(got: float, want: float, rel: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= rel * abs(want)


def _key_values(stdout: str) -> dict[str, float]:
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            try:
                out[key.strip()] = float(value)
            except ValueError:
                pass
    return out


def check_solve(err_full_peak: float, err_max_peak: float):
    """Peak error norms printed by ``solve`` within ERROR_TOL of a reference."""

    def check(code: int, stdout: str) -> list[str]:
        if code != 0:
            return [f"exit code {code}, expected 0"]
        values = _key_values(stdout)
        problems = []
        for key, want in (("err_full_peak", err_full_peak),
                          ("err_max_peak", err_max_peak)):
            got = values.get(key)
            if got is None:
                problems.append(f"{key} not printed")
            elif not _close(got, want, ERROR_TOL):
                problems.append(f"{key}={got:.5e}, reference {want:.5e}")
        return problems

    return check


@dataclass(frozen=True)
class ReferenceStudy:
    """A reference error table of the paper (levels N = 20, 40, 80)."""

    key: str
    gamma: float
    alpha: float
    beta: float
    err_full: tuple[float, ...]
    co_full: tuple[float, ...]
    err_max: tuple[float, ...]
    co_max: tuple[float, ...]
    # err_max entries not compared (inconsistent source value).
    max_skip: tuple[int, ...] = field(default=())


REFERENCE_STUDIES = (
    ReferenceStudy("g0.5-a3-b2", 0.5, 3.0, 2.0,
                   (3.03169e-2, 7.61510e-3, 1.90780e-3), (1.993, 1.997),
                   (5.50676e-2, 1.38318e-2, 3.46463e-3), (1.993, 1.997)),
    ReferenceStudy("g0.5-a2-b5", 0.5, 2.0, 5.0,
                   (6.35368e-3, 1.56940e-3, 3.90276e-4), (2.017, 2.008),
                   (7.31523e-3, 1.80908e-3, 4.49971e-4), (2.016, 2.007)),
    ReferenceStudy("g0.5-a0.7-b0.1", 0.5, 0.7, 0.1,
                   (2.19544e-2, 5.50422e-3, 1.37776e-3), (1.996, 1.998),
                   (2.67764e-2, 6.71201e-3, 1.67992e-3), (1.996, 1.998)),
    ReferenceStudy("g0.2-a1.1-b1.1", 0.2, 1.1, 1.1,
                   (3.85126e-2, 9.65615e-3, 2.42041e-3), (1.995, 1.996),
                   (4.38852e-2, 1.10031e-2, 2.75763e-3), (1.996, 1.996)),
    # The paper prints 9.18862e-2 for the middle max-norm error, ten times
    # what its neighbours imply: a suspected transcription slip.
    ReferenceStudy("g0.2-a0.9-b0.9", 0.2, 0.9, 0.9,
                   (3.26779e-2, 8.19304e-3, 2.05366e-3), (1.996, 1.996),
                   (3.66507e-2, 9.18862e-2, 2.30287e-3), (1.996, 1.996),
                   max_skip=(1,)),
    ReferenceStudy("g0.8-a200-b100", 0.8, 200.0, 100.0,
                   (1.27484e0, 3.18346e-1, 7.95685e-2), (2.002, 2.000),
                   (2.14188e0, 5.35201e-1, 1.33790e-1), (2.001, 2.000)),
    ReferenceStudy("g0.8-a100-b200", 0.8, 100.0, 200.0,
                   (6.49129e-1, 1.62100e-1, 4.05159e-2), (2.002, 2.000),
                   (1.09160e0, 2.72769e-1, 6.81875e-2), (2.001, 2.000)),
)

# Mixed boundary parameters: the march blows up on the finer levels.
UNSTABLE_STUDY = dict(gamma=0.4, alpha=0.1, beta=10.0)

STUDY_LEVELS = (20, 40, 80)
CSV_HEADER = "h,Nt,tau,err_full,co_full,err_max,co_max"


def _csv_rows(stdout: str) -> Optional[list[dict[str, str]]]:
    lines = stdout.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return None
    keys = CSV_HEADER.split(",")
    rows = [dict(zip(keys, line.split(","))) for line in lines[1:]]
    if any(len(r) != len(keys) for r in rows):
        return None
    return rows


def check_study(ref: ReferenceStudy):
    """Study CSV against a reference table: errors and printed orders."""

    def check(code: int, stdout: str) -> list[str]:
        if code != 0:
            return [f"{ref.key}: exit code {code}, expected 0"]
        rows = _csv_rows(stdout)
        if rows is None or len(rows) != len(ref.err_full):
            return [f"{ref.key}: malformed study CSV"]
        problems = []
        for norm, errs, orders, skip in (
                ("full", ref.err_full, ref.co_full, ()),
                ("max", ref.err_max, ref.co_max, ref.max_skip)):
            for i, (row, want) in enumerate(zip(rows, errs)):
                if i in skip:
                    continue
                got = float(row[f"err_{norm}"] or "nan")
                if not _close(got, want, ERROR_TOL):
                    problems.append(f"{ref.key}: err_{norm}[{i}]={got:.5e}, "
                                    f"reference {want:.5e}")
            for i, (row, want) in enumerate(zip(rows[1:], orders)):
                got = float(row[f"co_{norm}"] or "nan")
                if not abs(got - want) <= ORDER_TOL:
                    problems.append(f"{ref.key}: co_{norm}[{i + 1}]={got}, "
                                    f"reference {want}")
        return problems

    return check


def check_blowup(code: int, stdout: str) -> list[str]:
    """The unstable study must report its blow-up with exit code 3."""
    if code != 3:
        return [f"unstable study: exit code {code}, expected 3"]
    if _csv_rows(stdout) is None:
        return ["unstable study: malformed study CSV"]
    return []


def check_stability(code: int, stdout: str) -> list[str]:
    lines = stdout.splitlines()
    if code != 0:
        return [f"stability: exit code {code}, expected 0"]
    if not lines or lines[-1] != "PASS":
        return ["stability: last line is not PASS"]
    return []


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _face_grid(fc, builder: str, alpha: float, beta: float, gamma: float,
               grid) -> tuple[int, int]:
    """Build a march's problem and face coefficients; return its mesh size."""
    problem = fc.CATALOG[builder](alpha=alpha, beta=beta, gamma=gamma, T=1.0)
    fc.face_coefficients(problem, grid)
    return grid.N, grid.Nt


def _solve_op(fc, n: int, nt: Optional[int], reference: tuple[float, float]) -> Op:
    alpha, beta, gamma = 3.0, 2.0, 0.5
    grid = fc.Grid(N=n, Nt=nt) if nt else fc.Grid.balanced(n, gamma)
    argv = ["solve", "--problem", "mms-cubic", "--alpha", "3", "--beta", "2",
            "--gamma", "0.5", "--sigma", "1", "--n", str(n)]
    if nt:
        argv += ["--nt", str(nt)]
    size = _face_grid(fc, "mms-cubic", alpha, beta, gamma, grid)
    return Op((Call(tuple(argv), check_solve(*reference), (size,)),))


# Paper errors at N=80 divided by 16: second order in h from N=80 to 320.
MARCH_N320_REFERENCE = (1.90780e-3 / 16.0, 3.46463e-3 / 16.0)


def march_n320_ops(fc, seed: int) -> list[Op]:
    # Deterministic input: the seed changes nothing.
    return [_solve_op(fc, 320, None, MARCH_N320_REFERENCE)]


def _study_call(fc, gamma: float, alpha: float, beta: float, check) -> Call:
    sizes = tuple(_face_grid(fc, "mms-cubic", alpha, beta, gamma,
                             fc.Grid.balanced(n, gamma))
                  for n in STUDY_LEVELS)
    argv = ("convergence", "--gamma", repr(gamma), "--alpha", repr(alpha),
            "--beta", repr(beta),
            "--levels", ",".join(str(n) for n in STUDY_LEVELS),
            "--fail-on-blowup")
    return Call(argv, check, sizes)


def studies_ops(fc, seed: int) -> list[Op]:
    # Deterministic input: the seed changes nothing.
    calls = [_study_call(fc, ref.gamma, ref.alpha, ref.beta, check_study(ref))
             for ref in REFERENCE_STUDIES]
    calls.append(_study_call(fc, UNSTABLE_STUDY["gamma"],
                             UNSTABLE_STUDY["alpha"], UNSTABLE_STUDY["beta"],
                             check_blowup))
    return [Op(tuple(calls))]


STABILITY_SEEDS_PER_RUN = 4
STABILITY_N, STABILITY_NT = 16, 4000


def stability_seeds(seed: int) -> list[int]:
    """The splitmix64 seeds of one run, derived from the benchmark seed."""
    rng = random.Random(seed)
    return [rng.randrange(1, 2**63) for _ in range(STABILITY_SEEDS_PER_RUN)]


def stability_long_ops(fc, seed: int) -> list[Op]:
    grid = fc.Grid(N=STABILITY_N, Nt=STABILITY_NT)
    # The command builds its own homogeneous problem with k = exp(x); the
    # catalog's zero problem has the same shape and cost.
    size = _face_grid(fc, "zero", 2.0, 3.0, 0.5, grid)
    return [Op((Call(("stability", "--alpha", "2", "--beta", "3",
                      "--gamma", "0.5", "--sigma", "threshold",
                      "--n", str(STABILITY_N), "--nt", str(STABILITY_NT),
                      "--seed", str(s)),
                     check_stability, (size,)),))
            for s in stability_seeds(seed)]


# Peak errors of the tiny solve, measured when the benchmark was added
# (Nt=10 is coarse, so the errors are large; any solver change that keeps
# the scheme keeps them within ERROR_TOL).
TINY_REFERENCE = (2.02935e-1, 3.61826e-1)


def tiny_ops(fc, seed: int) -> list[Op]:
    return [_solve_op(fc, 8, 10, TINY_REFERENCE)]


WORKLOADS = {w.name: w for w in (
    # North-star case: one balanced march at N=320 (Nt=2189), cost
    # dominated by the per-step solve.  Seed split: 49% solve_bordered,
    # 43% assembly including the memory sum.  Isolates the step solve
    # and the memory contraction at a long, wide history.
    Workload("march-n320",
             "north-star march at N=320, Nt=2189; dominated by the "
             "per-step bordered solve and the memory sum",
             march_n320_ops, ref_stride=2),
    # The seven reference studies plus the unstable one, 24 short
    # marches per op.  Per-march overhead weighs most here: problem
    # build, face coefficients, error norms at every level, CSV
    # rendering and the blow-up path; the memory term is small because
    # histories are short.  Seed split: 46% solve, 25% assembly, ~9%
    # norms and study code, 7% source sampling.
    Workload("studies",
             "acceptance convergence studies, 24 short marches; per-march "
             "overhead, error norms, CSV output and the blow-up path",
             studies_ops, ref_stride=4),
    # Energy-stability run at sigma=threshold (~0.61, so the explicit
    # part of the operator is live) with N=16 and Nt=4000: the long
    # memory dominates and the solve is small (assembly plus l1_weights
    # 53%, solve 25%, energy norm at every level 9%).  One op is one
    # splitmix64 seed; the only workload that marches several
    # right-hand sides on one operator.
    Workload("stability-long",
             "energy stability at sigma=threshold, N=16, Nt=4000; long "
             "memory sum dominates, energy norm at every level",
             stability_long_ops, ref_stride=1, min_ops=8),
    # Smoke case for the benchmark's own tests (N=8, Nt=10); not part of
    # the declared workloads.
    Workload("tiny", "smoke case N=8, Nt=10", tiny_ops,
             ref_stride=1, min_ops=1),
)}
