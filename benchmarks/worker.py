"""Measurement process: one workload in one fresh interpreter.

Started by ``run.py`` with the BLAS thread settings pinned; run by hand
as

    python3 benchmarks/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 [--setup-only]

Set-up time runs from the first statement of this file, before numpy or
fracheat are imported, to the point where the workload's problems, grids
and face coefficients are built.  After one untimed warm-up op, the ops
run back to back until ``--seconds`` have passed (and at least the
workload's minimum count).
Each command-line call of an untraced op is bracketed by the two halves
of the reference march (``reference.py``) on the call's mesh sizes,
timed on their own, so that op and reference see the same host load.  With ``--trace 1`` each
op runs untraced and then traced instead, so the tracing overhead is
measured on pairs of runs that see the same host load.

The last line of stdout is one JSON object for ``run.py``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = Path(__file__).resolve().parent / "out"


class MissingProgram(RuntimeError):
    """The checkout holds no fracheat sources to benchmark."""


def import_fracheat(src: Path = SRC) -> SimpleNamespace:
    """Import fracheat from the checkout's sources, never an installed copy."""
    if not (src / "fracheat" / "cli.py").is_file():
        raise MissingProgram(f"no fracheat sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import fracheat.cli
    import fracheat.core

    if not Path(fracheat.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise MissingProgram(f"fracheat imported from {fracheat.cli.__file__}, "
                             f"not from {src}")
    return SimpleNamespace(cli=fracheat.cli, CATALOG=fracheat.cli.CATALOG,
                           Grid=fracheat.core.Grid,
                           face_coefficients=fracheat.core.face_coefficients)


def _invoke(cli, argv) -> tuple[int, str]:
    """Run ``cli.main(argv)`` with stdout captured; a traceback is exit 1."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc(file=sys.stderr)
            code = 1
    return code, buf.getvalue()


def _time_reference(sizes, stride: int, start: int) -> float:
    """Wall time of every ``stride``-th reference level from ``start``."""
    begin = time.perf_counter()
    for n, nt in sizes:
        reference.reference_march(n, nt, stride, start)
    return time.perf_counter() - begin


def run_op(fc, op: workloads.Op, tracer=None, index: int = 0,
           ref_stride: int = 0):
    """Time one op; returns (seconds, reference seconds, problem lists).

    With ``ref_stride`` each call runs between the two halves of the
    reference march on the call's mesh sizes (every ``ref_stride``-th
    level, odd multiples before the call and even ones after); their
    time is the reference seconds, and it is not part of the op's.
    """
    root = tracer.begin_op(index) if tracer else None
    elapsed = ref_elapsed = 0.0
    results = []
    for call in op.calls:
        if ref_stride:
            ref_elapsed += _time_reference(call.sizes, 2 * ref_stride, 1)
        start = time.perf_counter()
        results.append(_invoke(fc.cli, call.argv))
        elapsed += time.perf_counter() - start
        if ref_stride:
            ref_elapsed += _time_reference(call.sizes, 2 * ref_stride,
                                           1 + ref_stride)
    if tracer:
        tracer.end_op(root)
    problems = []
    for call, (code, out) in zip(op.calls, results):
        try:
            problems.append(call.check(code, out))
        except (ValueError, KeyError, IndexError) as exc:
            problems.append([f"unparsable output: {exc!r}"])
    return elapsed, ref_elapsed, problems


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tally() -> dict:
    return {"times": [], "attempted": 0, "failed": 0, "notes": []}


def _record(tally: dict, elapsed, problems: list) -> bool:
    """Count an op's checks; keep its time (if any) only if all passed."""
    bad = [p for p in problems if p]
    tally["attempted"] += len(problems)
    tally["failed"] += len(bad)
    tally["notes"] = (tally["notes"] + [m for p in bad for m in p])[:10]
    if not bad and elapsed is not None:
        tally["times"].append(elapsed)
    return not bad


def measure(fc, ops, seconds: float, min_ops: int, tracer=None,
            ref_stride: int = 0) -> dict:
    """Run ops round-robin for ``seconds``; time only passing ops.

    Without a tracer but with ``ref_stride`` every call is bracketed by
    its reference march (see ``run_op``), and ``plain["ref_times"]``
    holds the reference time of each passing op, beside its op time in
    ``plain["times"]``; they follow one untimed warm-up op, whose checks
    count, and after which ``peak_rss_mb`` is read, so that it is the
    program's peak and not the reference's.  With a tracer every op runs twice in a row,
    untraced and then traced, so both runs of a pair see the same load
    on the host; the tracing overhead is the median over pairs of traced
    time / untraced time.  No round starts that the last one says would
    end past ``seconds``, once ``min_ops`` ops have run.
    """
    plain, traced, ratios = _tally(), _tally(), []
    plain["ref_times"] = []
    ref_stride = 0 if tracer is not None else ref_stride
    peak_rss_mb = None
    if ref_stride:
        _record(plain, None, run_op(fc, ops[0])[2])
        peak_rss_mb = _peak_rss_mb()
    deadline, last = time.perf_counter() + seconds, 0.0
    i = 0
    while i < min_ops or time.perf_counter() + last < deadline:
        round_start = time.perf_counter()
        op = ops[i % len(ops)]
        elapsed, ref, problems = run_op(fc, op, ref_stride=ref_stride)
        passed = _record(plain, elapsed, problems)
        if ref_stride and passed:
            plain["ref_times"].append(ref)
        if tracer is not None:
            tracer.install()
            try:
                traced_elapsed, _, problems = run_op(fc, op, tracer, i)
            finally:
                tracer.uninstall()
            if _record(traced, traced_elapsed, problems) and passed:
                ratios.append(traced_elapsed / elapsed)
        last = time.perf_counter() - round_start
        i += 1
    out = {"plain": plain, "peak_rss_mb": peak_rss_mb or _peak_rss_mb()}
    if tracer is not None:
        traced["layers"] = tracer.per_op()
        traced["absent"] = tracer.absent
        traced["overhead"] = statistics.median(ratios) if ratios else None
        out["traced"] = traced
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    try:
        fc = import_fracheat()
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ops = workload.ops(fc, args.seed)
    setup_s = time.perf_counter() - _START
    result = {"setup_s": setup_s,
              "node_steps": sum(op.node_steps for op in ops) / len(ops)}
    if not args.setup_only:
        import machine

        result["runtime"] = machine.runtime()
        tracer = spans.Tracer() if args.trace else None
        result.update(measure(fc, ops, args.seconds, workload.min_ops, tracer,
                              workload.ref_stride))
        if tracer is not None:
            SPAN_DIR.mkdir(exist_ok=True)
            path = SPAN_DIR / f"spans-{args.workload}.csv.gz"
            tracer.write(path)
            result["traced"]["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
