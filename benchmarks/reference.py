"""The benchmark's fixed reference march, which gauges the host's speed.

The host this benchmark was sized on is shared: neighbours slow whole
stretches of a run by 20-170%, so an op's wall time says as much about
the neighbours as about fracheat.  After every command-line call of a
timed op the worker runs this reference march on the call's mesh
sizes, half before the call and half after; it belongs to the benchmark and never changes.  The bounded
time ``op_per_ref`` is the run's total op time divided by its total
reference time.  A slowdown of the host stretches both and cancels; a
change to fracheat moves only the op.  On a quiet host the reference
time is a constant, so ``op_per_ref`` is then the op time in units of
that constant.

The reference does what a march spends its time on, in plain numpy and
Python: the L1 weights of the step, the memory contraction over the
whole history (``np.diff`` then a weighted sum) and two scalar Thomas
sweeps.  Running it on a workload's own mesh sizes gives it the same
mix of interpreter work and history traffic as the op it gauges.
"""

from __future__ import annotations

import numpy as np

GAMMA = 0.5


def reference_march(n: int, nt: int, stride: int = 1, start: int = 1) -> float:
    """March a fixed diffusion-like problem on an (n+1) x (nt+1) history.

    Every ``stride``-th level from ``start`` on is computed, against a
    history already full to that level, so a stride shortens the run
    without shrinking its working set.  Returns a checksum so the work
    cannot be skipped.
    """
    x = np.linspace(0.0, 1.0, n + 1)
    hist = np.sin(np.pi * x) * np.linspace(1.0, 0.5, nt + 1)[:, None]
    diag = np.full(n, 4.0)
    off = np.full(n, -1.0)
    total = 0.0
    for k in range(start, nt + 1, stride):
        c = np.diff(np.arange(k + 1.0) ** (1.0 - GAMMA))
        load = c[:-1] @ np.diff(hist[:k], axis=0) if k > 1 else hist[0]
        rhs = load[1:] + c[-1]
        for _ in range(2):
            w = np.empty(n - 1)
            g = np.empty(n)
            piv = diag[0]
            g[0] = rhs[0] / piv
            w[0] = off[0] / piv
            for i in range(1, n):
                piv = diag[i] - off[i - 1] * w[i - 1]
                g[i] = (rhs[i] - off[i - 1] * g[i - 1]) / piv
                if i < n - 1:
                    w[i] = off[i] / piv
            for i in range(n - 2, -1, -1):
                g[i] -= w[i] * g[i + 1]
            rhs = g
        total += float(g[0])
    return total
