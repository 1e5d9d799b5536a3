"""Time the benchmark's ops under two fracheat source trees, in process.

    python3 tools/op_ab.py A_SRC B_SRC WORKLOAD [WORKLOAD ...]

Each SRC is a ``src`` directory holding a ``fracheat`` package; each
WORKLOAD is a name of ``benchmarks/workloads.py`` (read, never changed),
whose ops at seed 1 are the command lines timed.  A pair is two fresh
interpreters, one per tree, started one after the other, A first in even
pairs and B first in odd ones, ``PAIRS`` pairs per workload, each with
that tree first on ``PYTHONPATH`` and BLAS pinned to one thread.  Each
runs one untimed warm-up op, then ``OPS`` ops round-robin through
``fracheat.cli.main`` with stdout captured, checks what they printed as
the benchmark does, and reports its best op time (``time.perf_counter``).
No reference march runs, so the op time is not moved by what a reference
leaves in the heap, as the benchmark's ``op_per_ref`` can be.

Per workload the script prints each tree's median and quartiles of the
best op times over the pairs, how many pairs each tree won, and the
median of B over A.  The exit code is 1 if any op failed its check.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

from byte_sweep import benchmark_workloads, run

PAIRS = 10
OPS = 8


def child(workload: str) -> int:
    """Print ``{"best": seconds, "failed": count}`` of ``OPS`` timed ops."""
    workloads, fc = benchmark_workloads()
    plan = workloads[workload].ops(fc, 1)
    best, failed = float("inf"), 0
    for i in range(OPS + 1):                    # op 0 is the warm-up
        start, printed = time.perf_counter(), []
        for call in plan[i % len(plan)].calls:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                printed.append((fc.cli.main(list(call.argv)),
                                stdout.getvalue()))
        elapsed = time.perf_counter() - start
        for call, (code, out) in zip(plan[i % len(plan)].calls, printed):
            failed += bool(call.check(code, out))
        if i:
            best = min(best, elapsed)
    print(json.dumps({"best": best, "failed": failed}))
    return 0


def child_report(src: Path, workload: str) -> dict:
    """The child's report under ``src``, in a fresh interpreter."""
    with tempfile.TemporaryDirectory() as tmp:
        proc = run(src, [str(Path(__file__).resolve()), "--child", workload],
                   tmp)
    if proc.returncode != 0:
        sys.exit(f"error: {workload} under {src}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summary(times: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return (f"median {median * 1e3:.2f} ms (quartiles {q1 * 1e3:.2f}, "
            f"{q3 * 1e3:.2f})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--child", metavar="WORKLOAD", help=argparse.SUPPRESS)
    parser.add_argument("trees", nargs="*", metavar="SRC/WORKLOAD")
    args = parser.parse_args()
    if args.child:
        return child(args.child)
    if len(args.trees) < 3:
        parser.error("give A_SRC, B_SRC and at least one WORKLOAD")
    trees, names = [Path(t) for t in args.trees[:2]], args.trees[2:]
    for src in trees:
        if not (src / "fracheat" / "cli.py").is_file():
            parser.error(f"no fracheat package under {src}")
    failed = 0
    for name in names:
        times = ([], [])
        for pair in range(PAIRS):
            for side in ((0, 1) if pair % 2 == 0 else (1, 0)):
                report = child_report(trees[side], name)
                times[side].append(report["best"])
                failed += report["failed"]
        wins = sum(b < a for a, b in zip(*times))
        print(f"{name}: {PAIRS} pairs, best of {OPS} ops a process")
        for label, src, t in zip("AB", trees, times):
            print(f"  {label} {src}: {summary(t)}")
        print(f"  B faster in {wins} of {PAIRS} pairs, A in "
              f"{sum(a < b for a, b in zip(*times))}; median B/A "
              f"{statistics.median(b / a for a, b in zip(*times)):.3f}")
    if failed:
        print(f"{failed} op check(s) failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
