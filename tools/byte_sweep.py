"""Compare the output of two fracheat source trees, byte for byte.

    python3 tools/byte_sweep.py PARENT_SRC CHANGE_SRC
    python3 tools/byte_sweep.py --write-golden tests/golden/printed.json [SRC]

Each SRC argument is a ``src`` directory holding a ``fracheat`` package
(for example ``src`` of a ``git archive`` of the parent commit, and
``src`` of the working tree).  A change meant to keep every number the
program produces is checked in two ways:

* every call below runs once per tree, each in a fresh interpreter with
  that tree first on ``PYTHONPATH`` and BLAS pinned to one thread, and
  the exit code, stdout and the bytes of the ``--out`` file must agree.
  The calls are every command line of the benchmark (``benchmarks/``,
  seed 1) plus blow-up, table, fixed-coupling, ``--norms max``,
  reflected-stability, ``--history`` and ``caputo-order`` calls (for
  the functions cubic, exp, poly and linear), a stability run wide
  enough to span several norm blocks, a table with one norm next to
  unstable rows and a fully implicit (sigma = 1) stability run of
  random data, and two ``--history`` runs whose levels are written a
  block at a time as the march makes them (a blow-up inside the first
  block, and 301 levels in two blocks): 32 calls in all;
* the SHA-256 hashes of the level arrays of marches must agree, for
  gamma in {0.2, 0.4, 0.5, 0.8}, sigma in {1, 0.3, 0.5} and N in
  {20, 40, 80, 160} on balanced grids, plus two marches that blow up
  (one in its first block of 256 levels, one after it), one of random
  homogeneous data, one of plain-callback data whose source takes
  plain floats only, so it is sampled point by point, one of plain
  vectorised callbacks, sampled a data block at a time, one of the
  manufactured data with a mu that takes plain floats only, so it is
  sampled point by point, and one at sigma = 1 whose source is -0.0
  everywhere on a concave level 0, so right-hand sides meet signed
  zeros, and ten at N = 12 whose step counts (64, 65, 256, 257 and
  577, at sigma in {1, 0.5}) end on a block edge of the memory sum (64,
  577) or of the march's data blocks (256), or one step past it, and
  four of the smallest systems, N in {2, 3} (interiors of 1 and 2
  unknowns) at sigma in {1, 0.5} with Nt = 130,
  which crosses two block edges of the memory sum, and two at N = 1000
  (Nt = 140, sigma in {1, 0.5}), whose data blocks of 65 levels start
  inside the memory sum's blocks of 64, and two long marches whose far
  memory takes FFT pieces at several scales (N = 16, Nt = 4100 of random
  homogeneous data at the stability threshold, pieces of 512 to 2048
  levels; gamma = 0.9, N = 40, Nt = 2100 at sigma = 1, pieces of 512 and
  1024 levels), and three narrow enough for the block propagator
  (gamma = 0.9, N = 8, Nt = 2100 at sigma = 0.5, pieces of 512 levels;
  N = 2, Nt = 600 at sigma = 1; and N = 16, Nt = 500 at sigma = 0.2,
  which blows up at level 182), and twelve on each side of the march's
  two width cutoffs, at sigma in {1, 0.5}: 24, 25 and 26 nodes with Nt =
  416 (the propagator's cutoff of 25 nodes, with 16 levels per node or
  more) and 100, 101 and 102 nodes with Nt = 130 (the product's cutoff
  of 101 nodes): 89 marches in all.  The hash also covers the blow-up
  record and, for the blow-ups, one march that finishes, the block-edge
  marches, the smallest systems, the N = 1000 marches, the last two
  propagated ones and the cutoff marches, the per-step residuals.
  Each march is labelled bounded or growing: the 16 sigma = 0.3 marches
  of the gamma/N grid grow by 1e6 to 1e100 and the three blow-ups past
  1e100, and the N = 1000 march at sigma = 0.5, below that grid's
  stability threshold, grows from rounding; a growing march amplifies
  any rounding change, by up to about 1e7.

Each difference is printed on its own line; the exit code is 1 if there
is any difference and 0 if there is none.  The line says what moved: a
call that differs prints its exit codes, or its first changed lines (at
most 5 of each tree per stream, stdout or the ``--out`` file); a march
whose hash differs prints its label, which of its parts moved (levels,
blow-up record, residuals), its largest relative level difference, the
largest over its levels of max|y' - y| / max(|y|, |y'|), and its
largest relative residual difference, the largest over its steps of
|r' - r| / max(|r|, |r'|) (0 for a march run without residuals), from
the level and residual arrays that both trees save to a temporary
directory.  Two summary lines then give, for the bounded and for the
growing marches, how many moved and the largest relative level and
residual differences among them.  A tree against itself reports 0
differences.

``--write-golden FILE`` instead runs every call once, under SRC (the
repository's ``src`` by default), and writes the digests of its exit
code, stdout and ``--out`` bytes to FILE (:func:`printed_digests`), with
the numpy, scipy and machine they were made on (:func:`golden_config`);
the tier-1 test ``tests/test_golden.py`` runs the same calls in process
and compares, on that configuration only, since another numpy, BLAS or
CPU may round a printed value that is itself rounding-level differently.
A change that alters printed bytes on purpose rewrites the file and
lists each changed line in CHANGES.md.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import importlib.util
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# Calls beyond the benchmark's; "{out}" becomes a file path.
EXTRA_CALLS = (
    ("solve", "--alpha", "0.1", "--beta", "10", "--gamma", "0.4", "--n", "80",
     "--fail-on-blowup"),
    ("convergence", "--alpha", "0.1", "--beta", "10", "--gamma", "0.4",
     "--levels", "20,40,80", "--format", "table"),
    ("convergence", "--alpha", "3", "--beta", "2", "--levels", "10,20,40",
     "--format", "table", "--sigma", "0.5"),
    ("convergence", "--alpha", "2", "--beta", "5", "--coupling", "fixed",
     "--tau", "0.001", "--levels", "10,20,40"),
    ("convergence", "--alpha", "0.7", "--beta", "0.1", "--norms", "max",
     "--levels", "10,20,40", "--out", "{out}"),
    ("stability", "--alpha", "0.5", "--beta", "0.2", "--sigma", "threshold",
     "--n", "16", "--nt", "400", "--seed", "7"),
    ("stability", "--alpha", "2", "--beta", "3", "--sigma", "0.3",
     "--n", "12", "--nt", "300", "--out", "{out}"),
    ("solve", "--alpha", "3", "--beta", "2", "--n", "20", "--sigma", "0.3",
     "--out", "{out}", "--history"),
    ("solve", "--problem", "zero", "--n", "40", "--nt", "100", "--out",
     "{out}"),
    ("caputo-order",),
    ("caputo-order", "--function", "exp", "--gammas", "0.2,0.7",
     "--out", "{out}"),
    ("caputo-order", "--function", "poly"),
    ("caputo-order", "--function", "linear", "--gammas", "0.4,0.6"),
    ("stability", "--n", "300", "--nt", "600", "--sigma", "threshold"),
    ("convergence", "--alpha", "0.1", "--beta", "10", "--gamma", "0.4",
     "--levels", "20,40,80", "--norms", "full", "--format", "table"),
    ("stability", "--sigma", "1", "--n", "16", "--nt", "400", "--seed", "7"),
    ("solve", "--alpha", "0.1", "--beta", "10", "--gamma", "0.4", "--n", "80",
     "--out", "{out}", "--history"),
    ("solve", "--n", "8", "--nt", "300", "--out", "{out}", "--history"),
)

# Prints {key: [sha256 of the level array, blow-up level and norm, and
# residuals; the file in the folder sys.argv[1] that holds the levels;
# whether the march grows; the blow-up record; the file of the residuals,
# or None]}.
HASH_SCRIPT = """
import hashlib, json, math, sys
import numpy as np
from fracheat.core import Grid, Problem, SchemeParams
from fracheat.manufactured import build_manufactured, build_zero
from fracheat.norms import sigma_threshold
from fracheat.prng import uniform_symmetric
from fracheat.stepper import march

out = {}

def digest(key, outcome, growing=False):
    levels, residuals = f"{sys.argv[1]}/{len(out)}.npy", None
    np.save(levels, outcome.history)
    h = hashlib.sha256(outcome.history.tobytes())
    h.update(repr(outcome.blow_up).encode())
    if outcome.per_step_residuals is not None:
        residuals = f"{sys.argv[1]}/{len(out)}-residuals.npy"
        np.save(residuals, outcome.per_step_residuals)
        h.update(np.array(outcome.per_step_residuals).tobytes())
    out[key] = [h.hexdigest(), levels, growing, repr(outcome.blow_up),
                residuals]

for gamma in (0.2, 0.4, 0.5, 0.8):
    for sigma in (1.0, 0.3, 0.5):
        for N in (20, 40, 80, 160):
            outcome = march(build_manufactured(3.0, 2.0, gamma),
                            Grid.balanced(N, gamma), SchemeParams(sigma))
            digest(f"mms g={gamma} s={sigma} N={N}", outcome, sigma == 0.3)
digest("blow-up a=0.1 b=10 g=0.4 N=80", march(
    build_manufactured(0.1, 10.0, 0.4), Grid.balanced(80, 0.4),
    SchemeParams(1.0), check_residuals=True), True)
digest("blow-up past level 256 a=0.1 b=10 g=0.3 N=200", march(
    build_manufactured(0.1, 10.0, 0.3), Grid.balanced(200, 0.3),
    SchemeParams(1.0), check_residuals=True), True)
digest("residuals g=0.5 s=0.5 N=40", march(
    build_manufactured(3.0, 2.0, 0.5), Grid.balanced(40, 0.5),
    SchemeParams(0.5), check_residuals=True))
y0 = uniform_symmetric(5, 17)
y0[0] = 2.0 * y0[-1]
digest("random zero-data N=16 Nt=400 s=0.6", march(
    build_zero(2.0, 3.0, 0.5), Grid(N=16, Nt=400), SchemeParams(0.6), y0=y0))
# plain callbacks, f scalar-only: the march samples it point by point
digest("plain callbacks N=24 Nt=300 s=0.7", march(Problem(
    gamma=0.6, alpha=2.0, beta=3.0, k=np.exp,
    f=lambda x, t: math.sin(3.0 * x) * (1.0 + t), mu=lambda t: math.cos(t),
    u0=lambda x: np.cos(x), c1=1.0, c2=math.e),
    Grid(N=24, Nt=300), SchemeParams(0.7)))
# plain vectorised callbacks: the march samples f once per data block, as
# f(x[None, :], t[:, None]), and mu on the block's time array
digest("vectorised callbacks N=30 Nt=600 s=0.7", march(Problem(
    gamma=0.6, alpha=2.0, beta=3.0, k=np.exp,
    f=lambda x, t: np.sin(3.0 * x) * (1.0 + t**3), mu=lambda t: np.cos(t),
    u0=lambda x: np.cos(x), c1=1.0, c2=math.e),
    Grid(N=30, Nt=600), SchemeParams(0.7)))
# separable data with a scalar-only mu, which is sampled point by point
mms = build_manufactured(3.0, 2.0, 0.5)

def scalar_mu(t):
    if np.ndim(t):
        raise TypeError("a scalar time only")
    return mms.mu(t)

digest("scalar-only mu N=20 Nt=300 s=1", march(Problem(**{
    **vars(mms), "mu": scalar_mu}), Grid(N=20, Nt=300), SchemeParams(1.0)))
# sigma = 1 with a -0.0 source on a concave level 0
digest("negative-zero source N=12 Nt=300 s=1", march(Problem(
    gamma=0.5, alpha=1.0, beta=2.0, k=np.exp,
    f=lambda x, t: np.full_like(x, -0.0), mu=lambda t: 0.0,
    u0=lambda x: -x**2, c1=1.0, c2=math.e),
    Grid(N=12, Nt=300), SchemeParams(1.0)))
# marches that end on, and one step past, a block edge of the memory sum
# (64, 577) or of the march's data blocks (256 levels at N = 12)
for Nt in (64, 65, 256, 257, 577):
    for sigma in (1.0, 0.5):
        digest(f"block edge N=12 Nt={Nt} s={sigma}", march(
            build_manufactured(3.0, 2.0, 0.5), Grid(N=12, Nt=Nt),
            SchemeParams(sigma), check_residuals=True))
# the smallest interiors, 1 and 2 unknowns, across two memory blocks
for N in (2, 3):
    for sigma in (1.0, 0.5):
        digest(f"smallest N={N} Nt=130 s={sigma}", march(
            build_manufactured(3.0, 2.0, 0.5), Grid(N=N, Nt=130),
            SchemeParams(sigma), check_residuals=True))
# data blocks of 65 levels (N = 1000) against memory blocks of 64; sigma
# = 0.5 lies below this grid's stability threshold (0.63), and its growing
# modes move the march by 2e-12 for one ulp of u0 at one node
for sigma in (1.0, 0.5):
    digest(f"interleaved blocks N=1000 Nt=140 s={sigma}", march(
        build_manufactured(3.0, 2.0, 0.5), Grid(N=1000, Nt=140),
        SchemeParams(sigma), check_residuals=True), sigma < 1.0)
# long marches whose far memory takes FFT pieces at several scales
zero, grid = build_zero(2.0, 3.0, 0.5), Grid(N=16, Nt=4100)
y0 = uniform_symmetric(11, 17)
y0[0] = 2.0 * y0[-1]
digest("fft pieces random zero-data N=16 Nt=4100 s=threshold", march(
    zero, grid, SchemeParams(sigma_threshold(0.5, grid.h, grid.tau, zero.c2)),
    y0=y0))
digest("fft pieces mms g=0.9 N=40 Nt=2100 s=1", march(
    build_manufactured(3.0, 2.0, 0.9), Grid(N=40, Nt=2100), SchemeParams(1.0)))
# narrow marches that the block propagator makes: one whose blocks take far
# loads from FFT pieces, the smallest system, and one that blows up
digest("propagated fft pieces mms g=0.9 N=8 Nt=2100 s=0.5", march(
    build_manufactured(3.0, 2.0, 0.9), Grid(N=8, Nt=2100), SchemeParams(0.5)))
digest("propagated smallest N=2 Nt=600 s=1", march(
    build_manufactured(3.0, 2.0, 0.5), Grid(N=2, Nt=600), SchemeParams(1.0),
    check_residuals=True))
digest("propagated blow-up N=16 Nt=500 s=0.2", march(
    build_manufactured(3.0, 2.0, 0.5), Grid(N=16, Nt=500), SchemeParams(0.2),
    check_residuals=True), True)
# the widths on each side of the propagator's and the product's cutoffs
for W, Nt in ((24, 416), (25, 416), (26, 416), (100, 130), (101, 130),
              (102, 130)):
    for sigma in (1.0, 0.5):
        digest(f"cutoff W={W} Nt={Nt} s={sigma}", march(
            build_manufactured(3.0, 2.0, 0.5), Grid(N=W - 1, Nt=Nt),
            SchemeParams(sigma), check_residuals=True))
print(json.dumps(out))
"""


# A golden stream is digested in at most this many runs of consecutive
# lines, so that a mismatch can name the lines that moved.
GOLDEN_RUNS = 32


def benchmark_workloads() -> tuple[dict, SimpleNamespace]:
    """The benchmark's ``WORKLOADS`` and the ``fc`` namespace their ops take.

    ``benchmarks/workloads.py`` is read, not imported from ``sys.path``;
    the ``fracheat`` on ``sys.path`` sizes the ops.
    """
    import fracheat.cli
    import fracheat.core

    # registered before it runs: dataclasses look their module up by name
    spec = importlib.util.spec_from_file_location(
        "_sweep_workloads", ROOT / "benchmarks" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.WORKLOADS, SimpleNamespace(
        cli=fracheat.cli, CATALOG=fracheat.cli.CATALOG,
        Grid=fracheat.core.Grid,
        face_coefficients=fracheat.core.face_coefficients)


def sweep_calls() -> list[tuple[str, ...]]:
    """Every call of the sweep: each benchmark workload's command lines at
    seed 1, then ``EXTRA_CALLS``."""
    workloads, fc = benchmark_workloads()
    return [call.argv for workload in workloads.values()
            for op in workload.ops(fc, 1)
            for call in op.calls] + list(EXTRA_CALLS)


def golden_config() -> str:
    """The numpy, scipy and machine that golden digests hold for."""
    import scipy

    return (f"numpy {np.__version__}, scipy {scipy.__version__}, "
            f"{platform.machine()}")


def printed_runs(data: bytes) -> list[list]:
    """``[first line, digest]`` of each run of the lines of ``data``.

    The lines, ends included, fall into at most ``GOLDEN_RUNS`` runs of
    equal length (the last may be shorter); a digest is the first 16 hex
    digits of the SHA-256 of its run's bytes, so equal runs mean equal
    bytes.
    """
    lines = data.splitlines(keepends=True)
    size = max(1, -(-len(lines) // GOLDEN_RUNS))
    return [[i, hashlib.sha256(b"".join(lines[i:i + size])).hexdigest()[:16]]
            for i in range(0, len(lines), size)]


def printed_digests(code: int, stdout: str, out: bytes) -> dict:
    """The golden entry of one call: its exit code and its streams' runs."""
    return {"exit": code, "stdout": printed_runs(stdout.encode()),
            "out": printed_runs(out)}


def golden_mismatch(want: Optional[dict], code: int, stdout: str,
                    out: bytes) -> list[str]:
    """What of one call's printed bytes its golden entry ``want`` lacks.

    An empty list means they agree.  Otherwise the lines give the exit
    codes, or each changed stream's first changed runs and their lines
    now (at most five lines a stream).
    """
    if want is None:
        return ["  no golden entry: rewrite the file with --write-golden"]
    got, shown = printed_digests(code, stdout, out), []
    if got["exit"] != want["exit"]:
        shown.append(f"  exit code {want['exit']} -> {got['exit']}")
    for stream, data in (("stdout", stdout.encode()), ("out", out)):
        if got[stream] == want[stream]:
            continue
        lines, runs = data.decode(errors="replace").splitlines(), got[stream]
        ends = [first for first, _ in runs[1:]] + [len(lines)]
        rows = [f"  {stream} line {i + 1}: {lines[i]}"
                for run, end in zip(runs, ends) if run not in want[stream]
                for i in range(run[0], end)]
        shown += rows[:5] or [f"  {stream}: {len(lines)} lines now, "
                              f"fewer than the golden bytes held"]
        if len(rows) > 5:
            shown.append(f"  ({len(rows) - 5} more lines in changed "
                         f"runs of {stream})")
    return shown


def run(src: Path, args: list[str], cwd: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src.resolve()), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True)


def call_result(src: Path, argv: tuple[str, ...]) -> tuple[int, str, bytes]:
    """Exit code, stdout and ``--out`` bytes of one call in a fresh process."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.txt"
        argv = [str(out) if a == "{out}" else a for a in argv]
        proc = run(src, ["-m", "fracheat", *argv], tmp)
        return (proc.returncode, proc.stdout,
                out.read_bytes() if out.exists() else b"")


def changed_lines(a: str, b: str, limit: int = 5) -> list[str]:
    """The first ``limit`` lines of each text that the other lacks."""
    diff = list(difflib.unified_diff(a.splitlines(), b.splitlines(),
                                     lineterm="", n=0))[2:]   # no file names
    sides = [[line for line in diff if line[0] == sign] for sign in "-+"]
    shown = [f"  {line}" for side in sides for line in side[:limit]]
    hidden = sum(max(len(side) - limit, 0) for side in sides)
    return shown + ([f"  ({hidden} more changed lines)"] if hidden else [])


def level_hashes(src: Path, folder: Path) -> dict[str, list]:
    """{march: [hash, file of its levels in ``folder``, whether it grows,
    its blow-up record, file of its residuals or None]} under ``src``."""
    with tempfile.TemporaryDirectory() as tmp:
        proc = run(src, ["-c", HASH_SCRIPT, str(folder)], tmp)
    if proc.returncode != 0:
        sys.exit(f"error: level hashes failed under {src}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def level_difference(a: np.ndarray, b: np.ndarray) -> float:
    """Largest over the levels of max|b - a| / max(|a|, |b|).

    Entries that are equal, or NaN on both sides, differ by 0; level
    arrays of different shapes differ by inf.
    """
    if a.shape != b.shape:
        return float("inf")
    with np.errstate(invalid="ignore", over="ignore"):
        same = (a == b) | (np.isnan(a) & np.isnan(b))
        diff = np.where(same, 0.0, np.abs(b - a)).max(axis=1)
        top = np.maximum(np.abs(a), np.abs(b)).max(axis=1)
        relative = np.where(diff == 0.0, 0.0, diff / top)
    return float(relative.max())


def identical(a: Optional[np.ndarray], b: Optional[np.ndarray]) -> bool:
    """Whether two arrays, or None, have the same shape and bytes."""
    if a is None or b is None:
        return a is b
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", type=Path, metavar="SRC",
                        help="PARENT_SRC CHANGE_SRC, or the one SRC of "
                        "--write-golden (default: this repository's src)")
    parser.add_argument("--write-golden", type=Path, metavar="FILE",
                        help="write the digests of every call's printed "
                        "bytes under SRC to FILE, and compare nothing")
    args = parser.parse_args()
    if args.write_golden and len(args.trees) > 1:
        parser.error("--write-golden takes at most one SRC")
    if not args.write_golden and len(args.trees) != 2:
        parser.error("give PARENT_SRC and CHANGE_SRC")
    trees = args.trees or [ROOT / "src"]
    for src in trees:
        if not (src / "fracheat" / "cli.py").is_file():
            parser.error(f"no fracheat package under {src}")
    sys.path.insert(0, str(trees[-1]))
    calls = sweep_calls()
    if args.write_golden:
        entries = [json.dumps(" ".join(argv)) + ": " + json.dumps(
            printed_digests(*call_result(trees[0], argv))) for argv in calls]
        # one line a call, so that a rewrite's diff names the calls
        args.write_golden.write_text(
            f'{{"config": {json.dumps(golden_config())},\n"calls": {{\n'
            + ",\n".join(entries) + "\n}}\n")
        print(f"{len(calls)} calls written to {args.write_golden}")
        return 0

    differences = 0
    parent_src, change_src = trees
    for argv in calls:
        parent = call_result(parent_src, argv)
        change = call_result(change_src, argv)
        for what, a, b in zip(("exit code", "stdout", "--out bytes"),
                              parent, change):
            if a != b:
                differences += 1
                print(f"DIFF {what}: fracheat {' '.join(argv)}")
                if what == "exit code":
                    print(f"  {a} -> {b}")
                else:
                    if isinstance(a, bytes):
                        a, b = (t.decode(errors="replace") for t in (a, b))
                    print("\n".join(changed_lines(a, b)))
    with tempfile.TemporaryDirectory() as tmp:
        parent, change = (level_hashes(src, Path(tempfile.mkdtemp(dir=tmp)))
                          for src in trees)
        # label -> [marches, moved, largest relative level difference,
        # largest relative residual difference]
        groups = {"bounded": [0, 0, 0.0, 0.0], "growing": [0, 0, 0.0, 0.0]}
        for key, (digest, levels, growing, blow, residuals) in sorted(
                parent.items()):
            label = "growing" if growing else "bounded"
            group = groups[label]
            group[0] += 1
            if digest != change[key][0]:
                differences += 1
                _, levels2, _, blow2, residuals2 = change[key]
                a, b = np.load(levels), np.load(levels2)
                # the same marches check residuals under both trees
                ra, rb = (np.load(f)[:, None] if f else None
                          for f in (residuals, residuals2))
                moved = level_difference(a, b)
                moved_residuals = 0.0 if ra is None else level_difference(
                    ra, rb)
                group[1] += 1
                group[2] = max(group[2], moved)
                group[3] = max(group[3], moved_residuals)
                parts = [part for part, same in (
                    ("levels", identical(a, b)),
                    ("blow-up record", blow == blow2),
                    ("residuals", identical(ra, rb))) if not same]
                what = (f"level arrays of shapes {a.shape} and {b.shape}"
                        if a.shape != b.shape else
                        f"largest relative level difference {moved:.1e}")
                print(f"DIFF level hash: {key} ({label}; moved: "
                      f"{', '.join(parts)}; {what}, largest relative "
                      f"residual difference {moved_residuals:.1e})")
    for label, (count, moved, top, top_residuals) in groups.items():
        print(f"{label} marches: {moved} of {count} moved, largest relative "
              f"level difference {top:.1e}, largest relative residual "
              f"difference {top_residuals:.1e}")
    print(f"{len(calls)} calls, {len(parent)} level hashes: "
          f"{differences} difference(s)")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
