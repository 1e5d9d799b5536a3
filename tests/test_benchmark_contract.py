"""Names the benchmark under ``benchmarks/`` looks up in the package.

The benchmark's tracer wraps functions by the name their caller uses
(``benchmarks/spans.py``) and its workloads build problems through the
catalog (``benchmarks/workloads.py``).  A refactor that drops or renames
one of these names blinds a traced layer or breaks the benchmark's
set-up, so the names are pinned here.  The per-step calls of a march
(the memory load and push, the right-hand side and the factored solve)
are pinned too, as the layers a tracer of the march wraps.
"""

import importlib

import pytest

from fracheat.cli import CATALOG
from fracheat.core import Problem

LOOKED_UP = {
    "fracheat.cli": ("main", "run_solve", "run_convergence", "run_stability",
                     "march", "uniform_symmetric", "face_coefficients",
                     "energy_norm", "norm_trapezoid", "norm_max"),
    "fracheat.stepper": ("assemble_step", "solve_bordered", "l1_weights",
                         "sample_space", "sample_space_time",
                         "face_coefficients", "_step_rhs"),
    "fracheat.core": ("Grid", "face_coefficients", "sample_space"),
}

# Methods a march calls every step, which a tracer wraps on the class.
METHODS = {"fracheat.stepper": (("L1Memory", "load"), ("L1Memory", "push"),
                                ("StepOperator", "solve"))}


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in LOOKED_UP.items() for name in names])
def test_benchmark_names_are_callable(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))


@pytest.mark.parametrize("module, owner, name", [
    (module, owner, name) for module, pairs in METHODS.items()
    for owner, name in pairs])
def test_step_methods_are_callable(module, owner, name):
    cls = getattr(importlib.import_module(module), owner, None)
    assert callable(getattr(cls, name, None))


def test_catalog_is_a_dict_of_builders_taking_benchmark_keywords():
    assert isinstance(CATALOG, dict) and CATALOG
    for builder in CATALOG.values():
        assert isinstance(builder(alpha=2.0, beta=3.0, gamma=0.5, T=1.0),
                          Problem)
