"""Span tracing of the fracheat layers from outside the package.

Each public function of a layer is wrapped under the name its caller
looks it up by (for example ``march`` calls ``solve_bordered`` through
the ``fracheat.stepper`` module namespace, so that is where the wrapper
goes).  A span holds the layer name, start, end, parent span and op id;
spans are kept in memory and written out when the run ends.  A layer's
self time is its span's duration minus the durations of its child spans
(the program is single-threaded, so children never overlap).

A wrapped name that no longer exists is reported as an absent layer
instead of failing, so refactors that move or rename a function do not
break the benchmark; the layer's metrics then read zero.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Layer:
    """A layer name and the (module, attribute) names its callers use.

    An attribute ending in ``[*]`` names a dict whose values are wrapped
    (the problem catalog).  ``counter(result)`` optionally returns a count
    that is summed, per op, under the metric name ``counter_name``.
    """

    name: str
    targets: tuple[tuple[str, str], ...]
    counter_name: Optional[str] = None
    counter: Optional[Callable[[object], int]] = None

    @property
    def metric_names(self) -> list[str]:
        names = [f"{self.name}.{field}" for field in ("s", "self_s", "calls")]
        if self.counter_name:
            names.append(self.counter_name)
        return names


LAYERS = (
    Layer("cli.main", (("fracheat.cli", "main"),)),
    Layer("cli.study", (("fracheat.cli", "run_solve"),
                        ("fracheat.cli", "run_convergence"),
                        ("fracheat.cli", "run_stability"))),
    Layer("manufactured.build", (("fracheat.cli", "CATALOG[*]"),)),
    Layer("prng.uniform_symmetric", (("fracheat.cli", "uniform_symmetric"),)),
    Layer("stepper.march", (("fracheat.cli", "march"),),
          "stepper.blow_ups", lambda outcome: int(outcome.blow_up is not None)),
    Layer("stepper.assemble_step", (("fracheat.stepper", "assemble_step"),)),
    Layer("stepper.solve_bordered", (("fracheat.stepper", "solve_bordered"),)),
    Layer("fractional.l1_weights", (("fracheat.stepper", "l1_weights"),),
          "fractional.l1_weights.terms", lambda weights: len(weights.c)),
    Layer("core.sample_space_time",
          (("fracheat.stepper", "sample_space_time"),)),
    Layer("core.sample_space", (("fracheat.stepper", "sample_space"),
                                ("fracheat.core", "sample_space"))),
    Layer("core.face_coefficients",
          (("fracheat.stepper", "face_coefficients"),
           ("fracheat.cli", "face_coefficients"))),
    Layer("norms.energy_norm", (("fracheat.cli", "energy_norm"),)),
    Layer("norms.error", (("fracheat.cli", "norm_trapezoid"),
                          ("fracheat.cli", "norm_max"))),
)

ROOT = "op"


def layer_metric_names() -> list[str]:
    """Every per-layer metric the tracer reports, in table order."""
    return [name for layer in LAYERS for name in layer.metric_names]


class Tracer:
    """Collects spans and counts for the ops run while it is installed."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self.op = -1
        self._stack = [-1]
        self._undo: list[Callable[[], None]] = []

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        name, counter = layer.name, layer.counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if counter is not None:
                try:
                    self.counts[layer.counter_name] += counter(result)
                except (AttributeError, TypeError):
                    pass
            return result

        return traced

    def install(self) -> None:
        """Wrap every target of every layer; record missing layers as absent."""
        self.absent = []
        for layer in LAYERS:
            found = False
            for module_name, attr in layer.targets:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                if attr.endswith("[*]"):
                    table = getattr(module, attr[:-3], None)
                    if not isinstance(table, dict):
                        continue
                    for key, fn in list(table.items()):
                        table[key] = self._wrap(layer, fn)
                        self._undo.append(
                            functools.partial(table.__setitem__, key, fn))
                    found = True
                    continue
                fn = getattr(module, attr, None)
                if not callable(fn):
                    continue
                setattr(module, attr, self._wrap(layer, fn))
                self._undo.append(functools.partial(setattr, module, attr, fn))
                found = True
            if not found:
                self.absent.append(layer.name)

    def uninstall(self) -> None:
        """Restore every wrapped name."""
        while self._undo:
            self._undo.pop()()

    def begin_op(self, op: int) -> int:
        """Open the root span of an op; returns its index for ``end_op``."""
        self.op = op
        idx = len(self.spans)
        self.spans.append((ROOT, time.perf_counter(), None, -1, op))
        self._stack.append(idx)
        return idx

    def end_op(self, idx: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, _, parent, op = self.spans[idx]
        self.spans[idx] = (name, start, end, parent, op)

    def per_op(self) -> dict[str, float]:
        """Per-layer totals divided by the number of traced ops.

        Returns ``<layer>.s``, ``.self_s`` and ``.calls`` for every layer,
        the counters, and ``coverage``: the share of root-span (op) time
        that the layers' self times account for.
        """
        self_time = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                self_time[parent] -= end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), own in zip(self.spans, self_time):
            totals[f"{name}.s"] += end - start
            totals[f"{name}.self_s"] += own
            totals[f"{name}.calls"] += 1
        totals.update(self.counts)
        n_ops = max(totals[f"{ROOT}.calls"], 1)
        out = {name: totals[name] / n_ops for name in layer_metric_names()}
        root = totals[f"{ROOT}.s"]
        out["coverage"] = (root - totals[f"{ROOT}.self_s"]) / root if root else 0.0
        return out

    def write(self, path) -> None:
        """Write every span as gzip'd CSV: op,span,parent,name,start,end."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op,span,parent,name,start_s,end_s\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{op},{i},{parent},{name},{start!r},{end!r}\n")
