"""Names the benchmark under ``benchmarks/`` looks up in the package.

The benchmark's tracer wraps functions by the name their caller uses
(``LAYERS`` in ``benchmarks/spans.py``), and its worker imports the
command line, the catalog, ``Grid`` and ``face_coefficients`` to build
the workloads (``benchmarks/worker.py``).  A refactor that drops or
renames one of these names blinds a traced layer or breaks the
benchmark's set-up, so exactly these names are pinned here, the
catalog's by the last test.  The commands call ``march`` through
``fracheat.cli``, one plain call per march that returns its outcome, so
the tracer's ``stepper.march`` layer times each whole march and its
``stepper.blow_ups`` counter reads the outcome's blow-up record.
"""

import importlib

import pytest

from fracheat.cli import CATALOG
from fracheat.core import Problem

LOOKED_UP = {
    "fracheat.cli": ("main", "run_solve", "run_convergence", "run_stability",
                     "march", "uniform_symmetric", "face_coefficients",
                     "norm_trapezoid", "norm_max"),
    "fracheat.stepper": ("assemble_step", "solve_bordered", "l1_weights",
                         "sample_space", "sample_space_time",
                         "face_coefficients"),
    "fracheat.core": ("Grid", "face_coefficients", "sample_space"),
}


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in LOOKED_UP.items() for name in names])
def test_benchmark_names_are_callable(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))


def test_catalog_is_a_dict_of_builders_taking_benchmark_keywords():
    assert isinstance(CATALOG, dict) and CATALOG
    for builder in CATALOG.values():
        assert isinstance(builder(alpha=2.0, beta=3.0, gamma=0.5, T=1.0),
                          Problem)
