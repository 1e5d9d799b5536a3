import math

import numpy as np
import pytest

from fracheat.core import DomainError, Grid, face_coefficients
from fracheat.manufactured import build_manufactured, build_zero
from fracheat.norms import (
    UndefinedNormError,
    convergence_order,
    energy_norm,
    energy_weights,
    norm_max,
    norm_trapezoid,
    sigma_threshold,
)

# Value of the stability bound at gamma=0.5, h=1/20, tau=h**(4/3), c2=e,
# frozen after first computation as a regression constant.
THRESHOLD_REGRESSION = 0.6291896648792096


def test_trapezoid_norm_examples():
    assert norm_trapezoid(np.zeros(11), 0.1) == 0.0
    for N in (4, 10, 33):
        assert norm_trapezoid(np.ones(N + 1), 1.0 / N) == pytest.approx(1.0,
                                                                        rel=1e-14)


def test_max_norm_examples():
    assert norm_max(np.zeros(3)) == 0.0
    assert norm_max([-3.0, 1.0]) == 3.0


def test_norms_scale_linearly():
    rng = np.random.default_rng(8)
    y = rng.normal(size=13)
    h = 1.0 / 12
    for a in (2.5, 7.0):
        assert norm_trapezoid(a * y, h) == pytest.approx(a * norm_trapezoid(y, h),
                                                         rel=1e-13)
        assert norm_max(a * y) == pytest.approx(a * norm_max(y), rel=1e-13)


def test_energy_weights_profile_shape():
    problem = build_manufactured(2.0, 3.0, 0.5)
    grid = Grid(N=8, Nt=2)
    face = face_coefficients(problem, grid)
    w = energy_weights(problem, grid, face)
    assert not w.reflected
    assert w.p1_sq[-1] == 0.0
    assert np.all(np.diff(w.p1_sq) < 0)  # strictly decreasing toward the end
    assert w.delta1 >= 0.0
    assert w.gamma1 == pytest.approx((2.0 * 3.0 + 1.0) / (2.0 * 4.0), rel=1e-14)


def test_energy_weights_reject_mixed_regimes():
    grid = Grid(N=8, Nt=2)
    for a, b in ((0.1, 10.0), (3.0, 2.0), (0.5, 0.9)):
        problem = build_manufactured(a, b, 0.5)
        face = face_coefficients(problem, grid)
        with pytest.raises(UndefinedNormError):
            energy_weights(problem, grid, face)
        with pytest.raises(UndefinedNormError):
            energy_norm(np.zeros(9), problem, grid, face)


def test_energy_norm_zero_vector():
    problem = build_manufactured(2.0, 5.0, 0.5)
    grid = Grid(N=6, Nt=2)
    face = face_coefficients(problem, grid)
    assert energy_norm(np.zeros(7), problem, grid, face) == 0.0


def test_energy_norm_equal_parameters_drops_weighted_term():
    # alpha = beta makes delta1 vanish; only the endpoint term remains.
    problem = build_manufactured(1.5, 1.5, 0.5)
    grid = Grid(N=10, Nt=2)
    face = face_coefficients(problem, grid)
    rng = np.random.default_rng(3)
    y = rng.normal(size=11)
    got = energy_norm(y, problem, grid, face)
    gamma1 = (1.5 * 1.5 + 1.0) / (2.0 * 1.5**2)
    expect = math.sqrt(grid.h * np.sum(y[1:-1] ** 2)
                       + gamma1 * y[0] ** 2 * grid.h)
    assert got == pytest.approx(expect, rel=1e-13)


def test_energy_norm_unit_parameters_reduce_to_plain_form():
    problem = build_manufactured(1.0, 1.0, 0.5)
    grid = Grid(N=7, Nt=2)
    face = face_coefficients(problem, grid)
    y = np.linspace(-1.0, 2.0, 8)
    got = energy_norm(y, problem, grid, face)
    expect = math.sqrt(grid.h * np.sum(y[1:-1] ** 2) + y[0] ** 2 * grid.h)
    assert got == pytest.approx(expect, rel=1e-13)


def test_reflected_evaluation_matches_closed_form():
    # (alpha, beta) = (1/2, 1/5) sits in the reflected regime; on vectors
    # satisfying the value coupling the reflected-path evaluation equals
    # the closed form written in the original orientation.
    problem = build_manufactured(0.5, 0.2, 0.5)
    grid = Grid(N=8, Nt=2)
    face = face_coefficients(problem, grid)
    w = energy_weights(problem, grid, face)
    assert w.reflected
    h = grid.h
    rng = np.random.default_rng(14)
    for _ in range(100):
        y = rng.uniform(-1, 1, 9)
        y[0] = problem.alpha * y[-1]
        direct = energy_norm(y, problem, grid, face)
        interior = y[1:-1]
        reflected_weight = w.p1_sq[1:-1][::-1]   # weight at coordinate 1-x
        closed = math.sqrt(
            h * np.sum(interior**2)
            + w.delta1 * h * np.sum(reflected_weight * interior**2)
            + w.gamma1 * y[0] ** 2 * h / problem.alpha**2)
        assert direct == pytest.approx(closed, rel=1e-13)


@pytest.mark.parametrize("alpha, beta", [(2.0, 3.0), (0.5, 0.2)],
                         ids=["direct", "reflected"])
@pytest.mark.parametrize("N", [2, 16, 129, 1000])
def test_row_norms_equal_level_by_level_sums(alpha, beta, N):
    # One pass over a level array gives, bit for bit, the norms that the
    # level-by-level sums give; the printed stability output relies on it.
    problem = build_manufactured(alpha, beta, 0.5)
    grid = Grid(N=N, Nt=2)
    w = energy_weights(problem, grid, face_coefficients(problem, grid))
    h = grid.h
    levels = np.random.default_rng(N).uniform(-1, 1, (40, N + 1))
    expected = []
    for y in levels:
        v = y[::-1] if w.reflected else y
        interior = v[1:-1]
        expected.append(math.sqrt(
            h * np.sum(interior**2)
            + w.delta1 * h * np.sum(w.p1_sq[1:-1] * interior**2)
            + w.gamma1 * v[0] ** 2 * h))
    assert w.norms(levels, h).tolist() == expected


@pytest.mark.parametrize("alpha, beta", [(1e-160, 1e-160), (-1e-155, -1e-160)])
def test_energy_weights_that_overflow_are_refused(alpha, beta):
    # Both are in the reflected regime, where the weights use 1/alpha.
    problem = build_zero(alpha, beta, 0.5)
    grid = Grid(N=8, Nt=2)
    with pytest.raises(DomainError, match="not finite"):
        energy_weights(problem, grid, face_coefficients(problem, grid))


def test_energy_norm_equivalent_to_trapezoid_norm():
    # Frozen regression bands for the ratio over N in {8,16,32,64}.
    bounds = {(2.0, 3.0): (0.85, 1.25), (0.7, 0.1): (1.45, 2.55)}
    for (a, b), (lo, hi) in bounds.items():
        rng = np.random.default_rng(123)
        problem = build_manufactured(a, b, 0.5)
        for N in (8, 16, 32, 64):
            grid = Grid(N=N, Nt=2)
            face = face_coefficients(problem, grid)
            for _ in range(200):
                y = rng.uniform(-1, 1, N + 1)
                ratio = (energy_norm(y, problem, grid, face)
                         / norm_trapezoid(y, grid.h))
                assert lo <= ratio <= hi


def test_sigma_threshold_frozen_value():
    got = sigma_threshold(0.5, 1.0 / 20, (1.0 / 20) ** (4.0 / 3.0), math.e)
    assert got == pytest.approx(THRESHOLD_REGRESSION, rel=1e-14)


def test_sigma_threshold_classical_limit():
    for h, tau, c2 in ((0.05, 0.01, 2.0), (0.1, 0.004, 1.0)):
        got = sigma_threshold(1.0, h, tau, c2)
        assert abs(got - (0.5 - h * h / (4.0 * c2 * tau))) <= 1e-10


def test_sigma_threshold_approaches_leading_term_from_below():
    gamma, tau, c2 = 0.5, 0.01, math.e
    lead = 1.0 / (3.0 - 2.0 ** (1 - gamma))
    prev = -np.inf
    for h in (0.2, 0.1, 0.05, 0.01, 0.001):
        got = sigma_threshold(gamma, h, tau, c2)
        assert got < lead
        assert got > prev
        prev = got
    assert lead - sigma_threshold(gamma, 1e-8, tau, c2) < 1e-12


def test_convergence_order_examples():
    assert convergence_order(4.0 * math.e, math.e, 0.2, 0.1) == pytest.approx(
        2.0, rel=1e-14)
    with pytest.raises(DomainError):
        convergence_order(0.0, 1.0, 0.2, 0.1)
    with pytest.raises(DomainError):
        convergence_order(1.0, 0.5, 0.1, 0.2)


def test_norms_of_a_level_array_equal_each_level_bit_for_bit():
    rng = np.random.default_rng(3)
    levels = (rng.standard_normal((37, 321))
              * 10.0 ** rng.integers(-8, 8, (37, 1)))
    levels[5, 7] = math.inf
    levels[9, 0] = math.nan
    h = 1.0 / 320
    full, mx = norm_trapezoid(levels, h), norm_max(levels)
    assert full.shape == mx.shape == (37,)
    assert full.tobytes() == np.array(
        [norm_trapezoid(y, h) for y in levels]).tobytes()
    assert mx.tobytes() == np.array([norm_max(y) for y in levels]).tobytes()
    assert isinstance(norm_trapezoid(levels[0], h), float)
    assert isinstance(norm_max(levels[0]), float)
