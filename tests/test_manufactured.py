import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracheat.cli import _ErrorNorms
from fracheat.core import (DomainError, Grid, NodeSampler, SchemeParams,
                           Separable, sample_space)
from fracheat.fractional import caputo_oracle
from fracheat.manufactured import (
    CATALOG,
    CompatibilityError,
    build_manufactured,
    build_zero,
    caputo_time_profile,
    space_profile,
    space_profile_d1,
    space_profile_d2,
    time_profile,
    time_profile_d1,
    verify_compatibility,
)
from fracheat.stepper import block_levels, march, march_blocks


def test_space_profile_endpoint_identities():
    for alpha in (-2.0, 0.3, 1.0, 3.0, 200.0):
        assert space_profile(alpha, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert space_profile(alpha, 0.0) == alpha


def test_exact_solution_satisfies_value_coupling():
    problem = build_manufactured(3.0, 2.0, 0.5)
    for t in (0.0, 0.4, 1.0):
        assert problem.exact(0.0, t) == pytest.approx(
            3.0 * problem.exact(1.0, t), rel=1e-14)


def test_initial_condition_equals_spatial_profile():
    problem = build_manufactured(0.7, 0.1, 0.5)
    x = np.linspace(0, 1, 11)
    assert np.allclose(problem.u0(x), space_profile(0.7, x), rtol=1e-15)
    assert np.allclose(problem.exact(x, 0.0), space_profile(0.7, x),
                       rtol=1e-15)


def test_boundary_slopes():
    alpha = 1.3
    for t in (0.2, 0.9):
        assert space_profile_d1(alpha, 0.0) * time_profile(t) == pytest.approx(
            alpha * time_profile(t), rel=1e-14)
        assert space_profile_d1(alpha, 1.0) * time_profile(t) == pytest.approx(
            (3.0 - 6.0 * alpha) * time_profile(t), rel=1e-14)


def test_memory_profile_vanishes_at_start():
    for gamma in (0.1, 0.5, 0.9):
        assert caputo_time_profile(gamma, 0.0) == 0.0


def test_memory_profile_matches_quadrature_oracle():
    got = caputo_oracle(time_profile, time_profile_d1, 0.7, 0.5)
    assert abs(got - caputo_time_profile(0.5, 0.7)) <= 1e-9


def test_memory_profile_approaches_classical_derivative():
    for t in (0.25, 0.6, 1.0):
        assert abs(caputo_time_profile(0.999, t)
                   - time_profile_d1(t)) <= 1e-2


def test_builder_rejects_bad_parameters():
    with pytest.raises(DomainError):
        build_manufactured(1.0, -1.0, 0.5)
    with pytest.raises(DomainError):
        build_manufactured(1.0, 1.0, 1.2)


# The largest T whose time factors and mu, for alpha=0.5 and beta=0.1,
# stay finite a few ulps past T; t**3 overflows from about 5.6438e102 on.
_LARGEST_T = 5.643803094122356e+102


@pytest.mark.parametrize("T", [1e110, math.nextafter(_LARGEST_T, math.inf),
                               -1e110, math.inf, math.nan])
def test_builder_refuses_a_final_time_its_time_factors_cannot_reach(T):
    with pytest.raises(DomainError, match="T"):
        build_manufactured(0.5, 0.1, 0.5, T=T)


def test_largest_final_time_marches_to_its_last_level():
    # With Nt=305, Nt*(T/Nt) rounds past T; the error norms of the last
    # level still evaluate the time factors there.
    problem = build_manufactured(0.5, 0.1, 0.5, T=_LARGEST_T)
    grid = Grid(N=2, Nt=305, T=_LARGEST_T)
    assert grid.Nt * grid.tau > grid.T
    errors = _ErrorNorms(problem, grid)
    march_blocks(problem, grid, SchemeParams(0.0), errors)
    outcome = march(problem, grid, SchemeParams(0.0))
    assert len(errors.full) == len(errors.max) == len(outcome.history)


@pytest.mark.parametrize("alpha,beta,gamma", [(3.0, 2.0, 0.5),
                                              (0.7, 0.1, 0.5)])
def test_compatibility_passes_for_reference_configs(alpha, beta, gamma):
    report = verify_compatibility(build_manufactured(alpha, beta, gamma),
                                  Grid(N=20, Nt=10))
    assert report.max_pde_residual <= 1e-8
    assert report.max_value_residual <= 1e-12
    assert report.max_flux_residual <= 1e-12


def test_compatibility_catches_perturbed_source():
    problem = build_manufactured(3.0, 2.0, 0.5)
    broken = dataclasses.replace(problem,
                                 f=lambda x, t: problem.f(x, t) + 1.0)
    with pytest.raises(CompatibilityError, match="pde-residual"):
        verify_compatibility(broken, Grid(N=20, Nt=10))


def test_compatibility_catches_perturbed_datum():
    problem = build_manufactured(3.0, 2.0, 0.5)
    broken = dataclasses.replace(problem, mu=lambda t: problem.mu(t) + 1e-6)
    with pytest.raises(CompatibilityError, match="flux-coupling"):
        verify_compatibility(broken, Grid(N=20, Nt=10))


def test_degenerate_homogeneous_datum_configuration():
    # beta = e(3-6*alpha)/alpha makes mu vanish identically.
    alpha = 0.3
    beta = math.e * (3.0 - 6.0 * alpha) / alpha
    problem = build_manufactured(alpha, beta, 0.5)
    for t in np.linspace(0.0, 1.0, 7):
        assert abs(problem.mu(t)) <= 1e-12
    verify_compatibility(problem, Grid(N=10, Nt=4))
    outcome = march(problem, Grid.balanced(10, 0.5), SchemeParams(1.0))
    assert outcome.blow_up is None


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_every_catalog_problem_has_an_exact_solution(name):
    # The command line measures errors of every catalog problem against
    # its exact solution, which must start from the initial condition.
    problem = CATALOG[name](alpha=2.0, beta=5.0, gamma=0.5, T=1.0)
    assert problem.exact is not None
    x = np.linspace(0.0, 1.0, 11)
    assert np.allclose(sample_space(lambda xs: problem.exact(xs, 0.0), x),
                       sample_space(problem.u0, x), rtol=1e-15, atol=0.0)


def test_catalog_exposes_named_builders():
    assert set(CATALOG) == {"mms-cubic", "zero"}
    manufactured = CATALOG["mms-cubic"](alpha=2.0, beta=5.0, gamma=0.5, T=1.0)
    assert manufactured.exact is not None
    zero = CATALOG["zero"](alpha=1.0, beta=1.0, gamma=0.5, T=1.0)
    assert zero.exact(0.5, 0.5) == 0.0
    assert build_zero().mu(0.3) == 0.0


# ---------------------------------------------------------------------------
# separable data against the closed-form callbacks
# ---------------------------------------------------------------------------

def callback_source(alpha, gamma):
    """The manufactured source as one plain callback, in closed form."""
    def f(x, t):
        return (space_profile(alpha, x) * caputo_time_profile(gamma, t)
                - np.exp(x) * (space_profile_d1(alpha, x)
                               + space_profile_d2(alpha, x))
                * time_profile(t))
    return f


def callback_exact(alpha):
    return lambda x, t: space_profile(alpha, x) * time_profile(t)


def same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@given(alpha=st.floats(0.01, 300.0) | st.floats(-300.0, -0.01),
       gamma=st.floats(0.05, 0.95), N=st.integers(2, 300),
       times=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=6),
       node=st.integers(0, 300))
def test_separable_data_sample_as_their_callbacks_bit_for_bit(
        alpha, gamma, N, times, node):
    # The sampler evaluates each time factor once on the time array, so
    # its rows are the callback's on the same time array, as are the
    # plain callback's rows and the data called on the same arrays; a call
    # at one scalar time may differ by rounding (numpy's array ** is not
    # Python's scalar **), but the data and the callback agree there too.
    problem = build_manufactured(alpha, alpha, gamma)
    x, t = Grid(N=N, Nt=1).x, np.array(times)
    xi = float(x[node % x.size])
    for data, callback in ((problem.f, callback_source(alpha, gamma)),
                           (problem.exact, callback_exact(alpha))):
        want = callback(x[None, :], t[:, None])
        assert same_bits(NodeSampler(data, x).rows(t), want)
        assert same_bits(NodeSampler(callback, x).rows(t), want)
        assert same_bits(data(x[None, :], t[:, None]), want)
        for tj in times:
            assert same_bits(data(xi, tj), callback(xi, tj))


def test_data_without_terms_sample_to_one_shared_zero_array():
    zero = build_zero()
    sampler = NodeSampler(zero.f, Grid(N=6, Nt=1).x)
    assert same_bits(sampler.rows([0.1, 0.2]), np.zeros((2, 7)))
    assert same_bits(sampler.rows([0.7]), np.zeros((1, 7)))
    assert same_bits(zero.f(np.linspace(0.0, 1.0, 4), 0.3), np.zeros(4))


def test_plain_callbacks_sample_as_the_per_point_loop_bit_for_bit():
    def scalar_only(x, t):
        if np.ndim(x):
            raise TypeError("no arrays here")
        return math.sin(3.0 * x) * (1.0 + t)

    def vectorised(x, t):
        return x * x * (1.0 + t) - 2.0 * x

    x, times = Grid(N=12, Nt=1).x, [0.0, 0.35, 1.0]
    for func in (vectorised, scalar_only, lambda x, t: 0.0):
        rows = NodeSampler(func, x).rows(times)
        for j, t in enumerate(times):
            assert same_bits(rows[j], [float(func(float(xi), t)) for xi in x])
    assert same_bits(NodeSampler(vectorised, x).rows(times),
                     [vectorised(x, t) for t in times])


@pytest.mark.parametrize("alpha, beta, gamma, sigma, grid", [
    (3.0, 2.0, 0.5, 1.0, Grid.balanced(20, 0.5)),
    (0.7, 0.1, 0.5, 0.3, Grid(N=30, Nt=50)),
    (2.0, 5.0, 0.8, 0.6, Grid(N=16, Nt=150)),
    (0.1, 10.0, 0.4, 1.0, Grid.balanced(80, 0.4)),
], ids=["implicit", "sigma-0.3", "sigma-0.6", "blow-up"])
def test_march_on_separable_data_matches_plain_callbacks(alpha, beta, gamma,
                                                         sigma, grid):
    problem = build_manufactured(alpha, beta, gamma)
    plain = dataclasses.replace(problem, f=callback_source(alpha, gamma),
                                exact=callback_exact(alpha))
    params = SchemeParams(sigma)
    terms, callbacks = march(problem, grid, params), march(plain, grid, params)
    assert terms.history.tobytes() == callbacks.history.tobytes()
    assert terms.blow_up == callbacks.blow_up
    assert (terms.blow_up is not None) == (alpha == 0.1)
    errors = [_ErrorNorms(problem, grid), _ErrorNorms(plain, grid)]
    errors[0](0, terms.history)
    errors[1](0, callbacks.history)
    assert ((errors[0].full, errors[0].max)
            == (errors[1].full, errors[1].max))


def counting(func, shapes):
    """``func`` of one variable, appending the shape of each argument."""
    def counted(t):
        shapes.append(np.shape(t))
        return func(t)
    return counted


@pytest.mark.parametrize("name", ["mms-cubic", "zero"])
def test_a_march_samples_each_time_factor_and_mu_once_per_data_block(name):
    # A march samples its data a block of block_levels(N+1) times at a
    # time: each time factor of a separable source, and mu, is one call on
    # the block's time array, and each time factor of the exact solution
    # one call per block of levels that the error norms fold.  The zero
    # problem's mu is vectorised for that: mapped once per level, it
    # added about 5 ms to a 13 ms stability op (N=16, Nt=4000).
    problem = CATALOG[name](alpha=3.0, beta=2.0, gamma=0.5)
    shapes = {}

    def counted(data, key):
        return Separable(tuple((s, counting(q, shapes.setdefault(
            f"{key}{i}", []))) for i, (s, q) in enumerate(data.terms)))

    problem = dataclasses.replace(
        problem, f=counted(problem.f, "f"), exact=counted(problem.exact, "u"),
        mu=counting(problem.mu, shapes.setdefault("mu", [])))
    grid = Grid(N=20, Nt=600)
    rows = block_levels(grid.N + 1)
    assert (rows, grid.Nt - 2 * rows) == (256, 88)
    blow = march_blocks(problem, grid, SchemeParams(1.0),
                        _ErrorNorms(problem, grid))
    assert blow is None
    assert len(shapes) == {"mms-cubic": 4, "zero": 1}[name]
    for key, calls in shapes.items():
        assert calls == ([(257,), (256,), (88,)] if key.startswith("u") else
                         [(256,), (256,), (88,)]), key
