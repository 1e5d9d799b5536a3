"""fracheat benchmark: end-to-end metrics per workload and a traced layer split.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload march-n320 --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 \
        [--record benchmarks/trajectory/BENCH_<tag>.json]

Each workload runs in its own fresh process (``worker.py``) with the BLAS
and OpenMP thread counts pinned to one.  ``--trace 0`` reports the
end-to-end metrics:

    setup_s           median over several fresh processes of the time to
                      import fracheat.cli and build the workload's
                      problems, grids and face coefficients
    op_per_ref        total wall time of the run's passing ops divided by
                      the total wall time of the reference marches run
                      around each of their calls on the call's mesh sizes
                      (``reference.py``)
    peak_rss_mb       peak resident memory of the measuring process after
                      set-up and one warm-up op, before any reference
                      march has run

and prints beside them the wall times: the median op time ``op_s`` with
its quartiles and op count, the fastest op, ``node_steps_per_s`` (sum of
(N+1)*Nt over an op divided by the median op time) and the median
reference time.  The bounded time is relative to the reference because
this benchmark was sized on a shared host whose neighbours slow whole
stretches of ops by 20-170%: over five 30-s runs of a workload the
median op time spread (IQR over median) 0.11-0.41 and the fastest op
0.15-0.34, while over ten runs ``op_per_ref`` spread 0.018 (studies),
0.042 (march-n320) and 0.072 (stability-long).  On a quiet host the
reference time is constant, so ``op_per_ref`` then moves exactly as the
op time does.

The fail rate is ``failed / attempted`` in the result line (one check per
command-line call; a wrong exit code or output fails it), so it is not a
separate metric.  ``--trace 1`` runs every op untraced and then traced,
and reports the per-layer metrics of ``spans.py`` per op, the fastest
traced op, the tracing overhead (median over pairs of traced time over
untraced time) and the share of op time the layers account for.
``--workload all`` runs every declared workload both ways and prints one
table.  The last line of stdout is always one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import machine
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = ("march-n320", "studies", "stability-long")
SETUP_PROBES = 4          # set-up-only processes, plus the measuring one
TIME_LIMIT = 170.0        # seconds a single-workload run may take in all

UNITS = {"setup_s": "s", "op_per_ref": "ratio", "op_best_s": "s", "node_steps_per_s": "1/s", "ref_s": "s",
         "peak_rss_mb": "MB", "traced_op_best_s": "s",
         "trace_overhead": "ratio", "trace_coverage": "ratio"}


class RunError(RuntimeError):
    """A measuring process failed; no result is printed."""


def unit_of(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    return "s" if metric.endswith((".s", ".self_s")) else "count"


def _spawn(*args: str, deadline: float) -> dict:
    env = dict(os.environ, **machine.PINNED_ENV)
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=max(deadline - time.monotonic(), 1))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def _timing(times: list[float]) -> dict:
    """Best, median and quartiles of op times, and their count."""
    q1, q3 = ((times[0], times[0]) if len(times) < 2
              else statistics.quantiles(times, n=4)[::2])
    return {"best": min(times), "median": statistics.median(times),
            "q1": q1, "q3": q3, "ops": len(times)}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns metrics, counts and run details."""
    deadline = time.monotonic() + TIME_LIMIT
    common = ("--workload", name, "--seed", str(seed),
              "--seconds", repr(seconds))
    main = _spawn(*common, "--trace", str(int(trace)), deadline=deadline)
    runs = [main["plain"]] + ([main["traced"]] if trace else [])
    out = {"runtime": main["runtime"],
           "attempted": sum(r["attempted"] for r in runs),
           "failed": sum(r["failed"] for r in runs),
           "notes": [note for r in runs for note in r["notes"]]}
    if not all(r["times"] for r in runs):
        raise RunError(f"{name}: no op passed its checks: {out['notes']}")
    plain = _timing(main["plain"]["times"])
    if not trace:
        probes = [_spawn(*common, "--setup-only", deadline=deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        setup = probes + [main["setup_s"]]
        out["metrics"] = {
            "setup_s": statistics.median(setup),
            "op_per_ref": (sum(main["plain"]["times"])
                           / sum(main["plain"]["ref_times"])),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        out["detail"] = {
            "op_s": plain, "op_best_s": plain["best"],
            "node_steps_per_s": main["node_steps"] / plain["median"],
            "ref_s": statistics.median(main["plain"]["ref_times"]),
            "setup_samples": setup,
            "node_steps_per_op": main["node_steps"]}
        return out
    traced = _timing(main["traced"]["times"])
    layers = main["traced"]["layers"]
    metrics = {name: layers[name] for name in spans.layer_metric_names()}
    metrics["traced_op_best_s"] = traced["best"]
    metrics["trace_overhead"] = main["traced"]["overhead"]
    metrics["trace_coverage"] = layers["coverage"]
    out["metrics"] = metrics
    out["detail"] = {"op_s": plain, "traced_op_s": traced,
                     "absent_layers": main["traced"]["absent"],
                     "spans_file": main["traced"]["spans_file"]}
    return out


def _print_metrics(title: str, result: dict) -> None:
    print(f"# {title}")
    for name, value in result["metrics"].items():
        print(f"{name:<40} {value:>14.6g} {unit_of(name)}")
    detail = result["detail"]
    for key in ("op_best_s", "node_steps_per_s", "ref_s"):
        if key in detail:
            print(f"{key:<40} {detail[key]:>14.6g} {unit_of(key)}  (wall)")
    for key in ("op_s", "traced_op_s"):
        if key in detail:
            t = detail[key]
            print(f"{key:<40} {t['median']:>14.6g} s  median of {t['ops']} "
                  f"ops (q1 {t['q1']:.6g}, q3 {t['q3']:.6g})")
    rate = result["failed"] / result["attempted"]
    print(f"{'fail_rate':<40} {rate:>14.6g} ratio  "
          f"({result['failed']} of {result['attempted']} checks)")
    if detail.get("absent_layers"):
        print(f"absent layers: {', '.join(detail['absent_layers'])}")
    for note in result["notes"]:
        print(f"failed check: {note}")


def _result_line(results: dict[str, dict], prefix: bool) -> str:
    metrics = {}
    for name, result in results.items():
        for metric, value in result["metrics"].items():
            key = f"{name}.{metric}" if prefix else metric
            metrics[key] = {"value": value, "unit": unit_of(metric)}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    return json.dumps({"correct": failed == 0 and attempted > 0,
                       "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help=f"one of {', '.join(workloads.WORKLOADS)}, "
                             f"or 'all' for {', '.join(DECLARED)}")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=None,
                        help="with --workload all: write the results here")
    args = parser.parse_args(argv)
    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "fracheat" / "cli.py").is_file():
        print(f"error: no fracheat sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    host = machine.host(ROOT)
    print(f"# machine {json.dumps(host)}")
    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
            print(f"# runtime {json.dumps(result['runtime'])}")
            _print_metrics(f"{args.workload} seed={args.seed} "
                           f"trace={args.trace}", result)
            print(_result_line({args.workload: result}, prefix=False))
            return 0
        results, record = {}, {}
        for name in DECLARED:
            plain = run_workload(name, args.seed, args.seconds, False)
            traced = run_workload(name, args.seed, args.seconds, True)
            _print_metrics(f"{name} seed={args.seed} untraced", plain)
            _print_metrics(f"{name} seed={args.seed} traced per op", traced)
            results[name] = plain
            results[f"{name}.traced"] = traced
            record[name] = {
                "why": workloads.WORKLOADS[name].why,
                "end_to_end": plain["metrics"], "detail": plain["detail"],
                "per_layer": traced["metrics"],
                "traced_detail": traced["detail"],
                "attempted": plain["attempted"] + traced["attempted"],
                "failed": plain["failed"] + traced["failed"],
            }
    except (RunError, subprocess.TimeoutExpired, KeyError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.record:
        args.record.parent.mkdir(parents=True, exist_ok=True)
        args.record.write_text(json.dumps(
            {"machine": host, "runtime": plain["runtime"], "seed": args.seed,
             "seconds": args.seconds, "workloads": record}, indent=1) + "\n")
    print(_result_line(results, prefix=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
