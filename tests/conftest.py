"""Shared pytest set-up: a deterministic, bounded hypothesis profile.

Property tests draw the same examples on every run (``derandomize``), keep
no example database, and run a fixed number of examples, so the suite's
outcome and duration do not depend on earlier runs or on the host.  The
``run_fresh`` fixture runs code in a new interpreter, for what one import
leaves in ``sys.modules``.
"""

import os
import subprocess
import sys
from pathlib import Path

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
