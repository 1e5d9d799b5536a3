"""Shared pytest set-up: a deterministic, bounded hypothesis profile.

Property tests draw the same examples on every run (``derandomize``), keep
no example database, and run a fixed number of examples, so the suite's
outcome and duration do not depend on earlier runs or on the host.  The
``run_fresh`` fixture runs code in a new interpreter, for what one import
leaves in ``sys.modules``; ``per_level_errors`` is the reference of the
command line's error fold.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import fracheat

settings.register_profile("fracheat", derandomize=True, deadline=None,
                          max_examples=60, database=None)
settings.load_profile("fracheat")


@pytest.fixture
def run_fresh():
    """Run Python source in a fresh interpreter that imports this fracheat."""
    src = str(Path(fracheat.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(code: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)

    return run


def _per_level_errors(history, problem, grid):
    """Final and peak error norms of a history, one level at a time.

    The exact solution is the callback at the levels' time array, as the
    blocked fold samples it; NaN maps to inf.  Returned as the fold keeps
    them: the norms at the last level, then their maxima over the levels,
    each keyed "full" (trapezoid) and "max".
    """
    x, h = grid.x, grid.h
    t = np.arange(len(history)) * grid.tau
    full, mx = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        exact = np.asarray(problem.exact(x[None, :], t[:, None]), dtype=float)
        for y, u in zip(history, exact):
            z = y - u
            full.append(float(np.sqrt(0.5 * h * (z[0] ** 2 + z[-1] ** 2)
                                      + h * np.sum(z[1:-1] ** 2))))
            mx.append(float(np.max(np.abs(z))))
    full = [math.inf if math.isnan(e) else e for e in full]
    mx = [math.inf if math.isnan(e) else e for e in mx]
    return ({"full": full[-1], "max": mx[-1]},
            {"full": max(full), "max": max(mx)})


@pytest.fixture
def per_level_errors():
    """The per-level reference of the error fold (:func:`_per_level_errors`)."""
    return _per_level_errors
