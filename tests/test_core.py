import math

import numpy as np
import pytest

from fracheat.core import (
    MAX_LEVEL_ENTRIES,
    MAX_NODES,
    MAX_STEPS,
    BoundsViolationError,
    DomainError,
    Grid,
    Problem,
    SchemeParams,
    check_time,
    face_coefficients,
    sample_space,
)
from fracheat.fractional import caputo_oracle, l1_weights
from fracheat.manufactured import build_manufactured


def test_grid_products_are_exact():
    for N in (2, 7, 20, 49, 160):
        g = Grid(N=N, Nt=13, T=1.0)
        assert abs(g.h * N - 1.0) <= 1e-14
        assert abs(g.tau * g.Nt - g.T) <= 1e-14 * g.T
        assert abs(g.x[-1] - 1.0) <= 1e-14


def test_grid_rejects_degenerate_meshes():
    with pytest.raises(DomainError):
        Grid(N=1, Nt=4)
    with pytest.raises(DomainError):
        Grid(N=4, Nt=0)
    with pytest.raises(DomainError):
        Grid(N=4, Nt=4, T=0.0)


@pytest.mark.parametrize("kwargs", [
    dict(N=2.5, Nt=3), dict(N=4.0, Nt=3), dict(N=4, Nt=3.5),
    dict(N=True, Nt=3), dict(N=4, Nt=True), dict(N="4", Nt=3),
    dict(N=4, Nt=3, T=math.inf), dict(N=4, Nt=3, T=math.nan),
    dict(N=4, Nt=3, T=1e-320), dict(N=4, Nt=1000, T=1e-305),
], ids=["N-frac", "N-float", "Nt-frac", "N-bool", "Nt-bool", "N-str",
        "T-inf", "T-nan", "T-subnormal", "tau-subnormal"])
def test_grid_accepts_only_integer_counts_and_finite_time(kwargs):
    with pytest.raises(DomainError):
        Grid(**kwargs)


def test_smallest_normal_time_and_step_are_accepted():
    tiny = np.finfo(float).tiny
    check_time("t", tiny)
    assert Grid(N=4, Nt=1, T=tiny).tau == tiny
    with pytest.raises(DomainError, match="time step tau"):
        Grid(N=4, Nt=2, T=tiny)


def test_grid_accepts_numpy_integers():
    g = Grid(N=np.int64(4), Nt=np.int32(3))
    assert g.x[-1] == 1.0


@pytest.mark.parametrize("N, T", [(0, 1.0), (1, 1.0), (2.5, 1.0),
                                  (8, math.inf), (8, math.nan), (8, -1.0)])
def test_balanced_grid_rejects_bad_mesh_input(N, T):
    with pytest.raises(DomainError):
        Grid.balanced(N, 0.5, T)


@pytest.mark.parametrize("build", [
    lambda: Grid(N=4, Nt=MAX_STEPS + 1),
    lambda: Grid(N=4, Nt=10**20),
    lambda: Grid.with_step(4, 1e-300),
    lambda: Grid.with_step(4, 1e-300, T=1e300),
    lambda: Grid.balanced(4, 0.5, T=1e300),
], ids=["Nt", "Nt-huge", "tiny-tau", "overflowing-ratio", "balanced-long-T"])
def test_grids_refuse_more_than_max_steps(build):
    with pytest.raises(DomainError, match="limit"):
        build()


@pytest.mark.parametrize("build", [
    lambda: Grid(N=MAX_NODES + 1, Nt=3),
    lambda: Grid(N=10**20, Nt=5),
    lambda: Grid.with_step(10**20, 0.5),
    lambda: Grid.balanced(MAX_NODES + 1, 0.5),
], ids=["N", "N-huge", "with-step", "balanced"])
def test_grids_refuse_more_than_max_nodes(build):
    with pytest.raises(DomainError, match="space intervals exceed the limit"):
        build()


def test_grid_accepts_max_nodes():
    assert Grid(N=MAX_NODES, Nt=1).N == MAX_NODES


def test_grid_accepts_a_level_array_at_the_entry_limit():
    # 2**14 * 2**14 entries; building a Grid allocates no level array.
    side = 2**14
    assert side * side == MAX_LEVEL_ENTRIES
    assert Grid(N=side - 1, Nt=side - 1).Nt == side - 1
    grid = Grid.balanced(1280, 0.8)     # the longest planned study
    assert (grid.N + 1) * (grid.Nt + 1) <= MAX_LEVEL_ENTRIES


@pytest.mark.parametrize("build", [
    lambda: Grid(N=2**14 - 1, Nt=2**14),
    lambda: Grid(N=MAX_NODES, Nt=MAX_STEPS),
    lambda: Grid.with_step(10**5, 1e-6),
    lambda: Grid.balanced(20000, 0.5),
], ids=["one-row-past", "both-limits", "with-step", "balanced"])
def test_grids_refuse_level_arrays_past_the_entry_limit(build):
    with pytest.raises(DomainError, match="level entries exceed the limit"):
        build()


def test_grid_with_step_rounds_the_step_count_up():
    g = Grid.with_step(4, 0.3)
    assert g.Nt == 4 and g.tau <= 0.3
    assert Grid.with_step(4, 1.0 / MAX_STEPS).Nt == MAX_STEPS


@pytest.mark.parametrize("tau", [math.inf, math.nan, 0.0, -0.5, 1e-320])
def test_grid_with_step_checks_tau_before_counting_steps(tau):
    with pytest.raises(DomainError, match="tau: time step must be positive"):
        Grid.with_step(4, tau)


def test_balanced_grid_keeps_tau_below_balancing_value():
    for gamma in (0.2, 0.5, 0.8):
        for N in (20, 40, 80):
            g = Grid.balanced(N, gamma)
            assert g.tau <= g.h ** (2.0 / (2.0 - gamma)) * (1 + 1e-12)


def test_problem_rejects_bad_parameters():
    kwargs = dict(k=lambda x: 1.0, f=lambda x, t: 0.0, mu=lambda t: 0.0,
                  u0=lambda x: 0.0, c1=1.0, c2=1.0)
    with pytest.raises(DomainError):
        Problem(gamma=0.5, alpha=1.0, beta=-1.0, **kwargs)
    with pytest.raises(DomainError):
        Problem(gamma=0.5, alpha=0.0, beta=1.0, **kwargs)
    with pytest.raises(DomainError):
        Problem(gamma=1.0, alpha=1.0, beta=1.0, **kwargs)
    with pytest.raises(DomainError):
        Problem(gamma=0.5, alpha=1.0, beta=1.0,
                **{**kwargs, "c1": 2.0, "c2": 1.0})


@pytest.mark.parametrize("alpha, beta", [(math.inf, 1.0), (1.0, math.inf),
                                         (-math.inf, -1.0), (math.inf, math.inf),
                                         (math.nan, 1.0), (1e200, 1e200),
                                         (-1e155, -1e154)])
def test_problem_rejects_non_finite_boundary_parameters(alpha, beta):
    with pytest.raises(DomainError):
        build_manufactured(alpha, beta, 0.5)


@pytest.mark.parametrize("gamma", [0.0, 1.0, -0.5, math.nan])
@pytest.mark.parametrize("use", [
    lambda gamma: build_manufactured(2.0, 3.0, gamma),
    lambda gamma: Grid.balanced(8, gamma),
    lambda gamma: l1_weights(3, gamma, 0.1),
    lambda gamma: caputo_oracle(math.exp, math.exp, 1.0, gamma),
], ids=["problem", "balanced-grid", "l1-weights", "oracle"])
def test_fractional_order_has_one_range_check(use, gamma):
    with pytest.raises(DomainError, match=r"^gamma must lie in \(0, 1\)"):
        use(gamma)


def test_scheme_params_range():
    SchemeParams(0.0)
    SchemeParams(1.0)
    with pytest.raises(DomainError):
        SchemeParams(1.5)
    with pytest.raises(DomainError):
        SchemeParams(-0.1)


def test_face_coefficients_exponential_two_cells():
    problem = build_manufactured(3.0, 2.0, 0.5)
    a = face_coefficients(problem, Grid(N=2, Nt=1))
    assert a == pytest.approx([math.exp(0.25), math.exp(0.75)], rel=1e-15)


def test_face_coefficients_constant_k():
    problem = Problem(gamma=0.5, alpha=1.0, beta=1.0,
                      k=lambda x: 1.0, f=lambda x, t: 0.0, mu=lambda t: 0.0,
                      u0=lambda x: 0.0, c1=1.0, c2=1.0)
    a = face_coefficients(problem, Grid(N=9, Nt=1))
    assert np.all(a == 1.0)


def test_face_coefficients_interior_sample():
    # k = exp, N = 20: the tenth face sits at x = 0.475.
    problem = build_manufactured(3.0, 2.0, 0.5)
    a = face_coefficients(problem, Grid(N=20, Nt=1))
    assert a[9] == pytest.approx(math.exp(0.475), rel=1e-15)
    assert np.all(a >= problem.c1) and np.all(a <= problem.c2)


def test_face_coefficients_bounds_violation_names_index():
    problem = Problem(gamma=0.5, alpha=1.0, beta=1.0,
                      k=lambda x: np.exp(x), f=lambda x, t: 0.0,
                      mu=lambda t: 0.0, u0=lambda x: 0.0, c1=1.0, c2=1.5)
    with pytest.raises(BoundsViolationError, match="a_"):
        face_coefficients(problem, Grid(N=10, Nt=1))


def test_sample_space_falls_back_to_pointwise_callbacks():
    def scalar_only(x):
        if hasattr(x, "__len__"):
            raise TypeError("no arrays here")
        return x * 2.0

    x = np.linspace(0.0, 1.0, 5)
    assert np.allclose(sample_space(scalar_only, x), 2.0 * x)
