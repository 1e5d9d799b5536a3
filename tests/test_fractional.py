import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracheat.core import DimensionError, DomainError
from fracheat.fractional import (
    OracleFailureError,
    _power_increments,
    caputo_oracle,
    discrete_caputo,
    energy_identity_remainders,
    l1_weights,
    split_implicit,
)


LAST_BELOW_ONE = float(np.nextafter(1.0, 0.0))


def caputo_monomial(m: int, t: float, gamma: float) -> float:
    """Closed-form Caputo derivative of t**m (independent check value)."""
    return (math.gamma(m + 1) / math.gamma(m + 1 - gamma)) * t ** (m - gamma)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def test_first_weight_is_tau_power_over_gamma_function():
    w = l1_weights(0, 0.5, 0.01)
    assert w.c.shape == (1,)
    # 0.01**-0.5 / G(1.5) with G(1.5) = sqrt(pi)/2
    assert w.c[0] == pytest.approx(10.0 / (math.sqrt(math.pi) / 2.0), rel=1e-14)


def test_weights_positive_increasing_and_telescoping():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(0, 60))
        gamma = rng.uniform(0.05, 0.95)
        tau = 10 ** rng.uniform(-3, 0)
        w = l1_weights(n, gamma, tau)
        assert np.all(w.c > 0)
        assert np.all(np.diff(w.c) > 0)
        assert w.c[-1] == pytest.approx(tau**-gamma / math.gamma(2 - gamma),
                                        rel=1e-14)
        total = float(np.sum(w.c) * tau)
        expect = ((n + 1) * tau) ** (1 - gamma) / math.gamma(2 - gamma)
        assert total == pytest.approx(expect, rel=1e-13)


@given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       st.integers(3, 20_000), st.floats(1e-9, 1.0))
@example(LAST_BELOW_ONE, 20_000, 1e-9)
@example(1.0 - 1e-12, 20_000, 1e-9)
@example(1.0 - 1e-13, 20_000, 1e-6)
def test_weight_differences_past_the_newest_are_exact(gamma, Nt, tau):
    # The memory's level form (stepper.L1Memory) weighs the levels by
    # d_k = c_k - c_{k+1}, c_k the weight of lag k (c[-1 - k] of the
    # newest-last array).  For k >= 1 the weights lie within a factor 2
    # of each other, so d_k is exact (Sterbenz) and adding c_{k+1} back
    # gives c_k.  The weights keep that bound for every gamma up to the
    # largest double below 1, where a difference of the powers of
    # t**(1-gamma) broke it from 1 - gamma <= 1e-12 on.
    c = l1_weights(Nt - 1, gamma, tau).c[::-1]
    assert np.array_equal((c[1:-1] - c[2:]) + c[2:], c[1:-1])


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       st.integers(1, 40_000), st.floats(1e-9, 1.0),
       st.lists(st.integers(0, 40_000), max_size=10))
@example(0.5, 2_189, 1.0 / 2_189, [1_000])
@example(0.9, 35_878, 1.0 / 35_878, [20_000])
@example(LAST_BELOW_ONE, 20_000, 1e-9, [])
def test_power_increments_match_forty_digit_values(gamma, Nt, tau, picks):
    # Each increment (j+1)*tau and j*tau raised to 1-gamma, against mpmath
    # at 40 digits, is within 2e-15 relative (at most 6.7e-16 in a scan of
    # gamma from 1e-9 to the largest double below 1).  The difference of
    # the two powers was off by 4.7e-13 at gamma = 0.5, Nt = 2,189, by
    # 3.6e-11 at gamma = 0.9, Nt = 35,878, and by orders of magnitude near
    # gamma = 1.
    inc = _power_increments(Nt - 1, gamma, tau)
    with mpmath.workdps(40):
        e, step = 1 - mpmath.mpf(gamma), mpmath.mpf(tau)
        for j in {0, Nt // 2, Nt - 1, *(p % Nt for p in picks)}:
            want = ((j + 1) * step) ** e - (j * step) ** e
            assert abs(mpmath.mpf(inc[j]) - want) <= 2e-15 * want, j


def test_weights_reject_bad_order():
    with pytest.raises(DomainError):
        l1_weights(3, 1.0, 0.1)
    with pytest.raises(DomainError):
        l1_weights(3, 0.0, 0.1)
    with pytest.raises(DomainError):
        l1_weights(-1, 0.5, 0.1)


@pytest.mark.parametrize("tau", [0.0, -0.1, 1e-310, math.inf, math.nan])
def test_weights_reject_a_step_that_is_not_a_normal_positive_float(tau):
    with pytest.raises(DomainError, match="time step"):
        l1_weights(3, 0.5, tau)


def test_history_coefficient_positivity():
    # -t_{k+1}^{1-g} + 2 t_k^{1-g} - t_{k-1}^{1-g} > 0 backs the decay proof.
    for gamma in (0.1, 0.5, 0.9):
        k = np.arange(1, 201, dtype=float)
        p = 1.0 - gamma
        vals = -((k + 1) ** p) + 2.0 * k**p - (k - 1) ** p
        assert np.all(vals > 0)


# ---------------------------------------------------------------------------
# discrete operator
# ---------------------------------------------------------------------------

def test_constant_series_has_zero_derivative():
    assert discrete_caputo([4.2] * 7, 0.3, 0.05) == 0.0


def test_linear_series_is_reproduced_exactly():
    # For y(t) = t the operator telescopes to the exact derivative.
    for gamma in (0.2, 0.5, 0.8):
        for steps in (1, 4, 17):
            tau = 1.0 / steps
            series = np.arange(steps + 1) * tau
            got = discrete_caputo(series, gamma, tau)
            t = steps * tau
            expect = t ** (1 - gamma) / math.gamma(2 - gamma)
            assert got == pytest.approx(expect, rel=1e-13)


def test_operator_is_linear():
    rng = np.random.default_rng(2)
    for _ in range(30):
        m = int(rng.integers(2, 40))
        gamma = rng.uniform(0.05, 0.95)
        tau = 10 ** rng.uniform(-2, 0)
        u = rng.normal(size=m)
        w = rng.normal(size=m)
        a, b = rng.normal(size=2)
        lhs = discrete_caputo(a * u + b * w, gamma, tau)
        rhs = (a * discrete_caputo(u, gamma, tau)
               + b * discrete_caputo(w, gamma, tau))
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) / scale <= 1e-13


def test_truncation_error_decays_at_order_two_minus_gamma():
    gamma = 0.5
    errors = []
    taus = [1.0 / 40, 1.0 / 80, 1.0 / 160]
    for tau in taus:
        steps = round(1.0 / tau)
        series = (np.arange(steps + 1) * tau) ** 3
        got = discrete_caputo(series, gamma, tau)
        errors.append(abs(got - caputo_monomial(3, 1.0, gamma)))
    order = math.log(errors[-2] / errors[-1]) / math.log(taus[-2] / taus[-1])
    assert order == pytest.approx(2.0 - gamma, abs=0.1)


# ---------------------------------------------------------------------------
# implicit split
# ---------------------------------------------------------------------------

def test_split_single_level():
    c_new, load = split_implicit([1.5], 0.4, 0.02)
    assert c_new == pytest.approx(0.02**-0.4 / math.gamma(1.6), rel=1e-14)
    assert load == pytest.approx(-c_new * 1.5, rel=1e-14)


def test_split_constant_series_reconstructs_zero():
    c_new, load = split_implicit([2.0] * 6, 0.3, 0.1)
    assert c_new * 2.0 + load == pytest.approx(0.0, abs=1e-12)


def test_split_matches_full_evaluation():
    rng = np.random.default_rng(9)
    for _ in range(40):
        m = int(rng.integers(1, 30))
        gamma = rng.uniform(0.05, 0.95)
        tau = 10 ** rng.uniform(-2, 0)
        series = rng.normal(size=m)
        y_next = rng.normal()
        c_new, load = split_implicit(series, gamma, tau)
        full = discrete_caputo(np.append(series, y_next), gamma, tau)
        scale = max(abs(full), 1.0)
        assert abs(c_new * y_next + load - full) / scale <= 1e-13


def test_split_of_level_rows_matches_the_split_at_each_node():
    levels = np.random.default_rng(4).normal(size=(7, 5))
    c_new, load = split_implicit(levels, 0.4, 0.05)
    assert load.shape == (5,)
    for i in range(5):
        c_i, load_i = split_implicit(levels[:, i], 0.4, 0.05)
        assert c_i == c_new
        assert load_i == pytest.approx(load[i], rel=1e-14, abs=1e-14)


@pytest.mark.parametrize("series", [[], np.zeros((0, 3)), np.zeros((2, 2, 2))],
                         ids=["empty", "no-rows", "3-D"])
def test_split_rejects_series_without_levels(series):
    with pytest.raises(DimensionError):
        split_implicit(series, 0.5, 0.1)


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------

def test_oracle_of_constant_vanishes():
    assert caputo_oracle(lambda t: 1.0, lambda t: 0.0, 0.8, 0.5) == 0.0


@pytest.mark.parametrize("gamma", [0.3, 0.5, 0.9])
@pytest.mark.parametrize("t", [0.3, 1.0])
def test_oracle_matches_monomial_closed_forms(gamma, t):
    got1 = caputo_oracle(lambda s: s, lambda s: 1.0, t, gamma)
    assert abs(got1 - caputo_monomial(1, t, gamma)) <= 1e-10
    got3 = caputo_oracle(lambda s: s**3, lambda s: 3 * s**2, t, gamma)
    assert abs(got3 - caputo_monomial(3, t, gamma)) <= 1e-10


def test_oracle_reports_unreachable_tolerance():
    # At t = 1e6 the integrand reaches 3e12, far past the oracle's 1e-10.
    with pytest.raises(OracleFailureError) as info:
        caputo_oracle(lambda s: s**3, lambda s: 3 * s**2, 1e6, 0.5)
    assert info.value.achieved > 1e-10


def test_oracle_requires_positive_time():
    for t in (0.0, 1e-310, math.inf):
        with pytest.raises(DomainError):
            caputo_oracle(lambda s: s, lambda s: 1.0, t, 0.5)


# ---------------------------------------------------------------------------
# energy identity remainders
# ---------------------------------------------------------------------------

def _identity_residuals(y, nu, tau):
    d = discrete_caputo(y, nu, tau)
    d2 = discrete_caputo(np.asarray(y) ** 2, nu, tau)
    g2 = math.gamma(2 - nu)
    two = 2.0 ** (1 - nu)
    j1, j2 = energy_identity_remainders(y, nu, tau)
    quad1 = tau**nu * g2 / 2.0 * d * d
    quad2 = tau**nu * g2 / (2.0 * (2.0 - two)) * d * d
    r1 = y[-1] * d - 0.5 * d2 - quad1 - j1
    r2 = y[-2] * d - 0.5 * d2 + quad2 - j2
    s1 = max(abs(y[-1] * d), abs(0.5 * d2), abs(quad1), abs(j1), 1.0)
    s2 = max(abs(y[-2] * d), abs(0.5 * d2), abs(quad2), abs(j2), 1.0)
    return r1 / s1, r2 / s2, j1, j2


def test_remainders_vanish_for_constant_series():
    j1, j2 = energy_identity_remainders([3.0] * 9, 0.4, 0.05)
    assert j1 == 0.0
    assert j2 == 0.0


def test_first_remainder_is_empty_sum_for_two_levels():
    j1, j2 = energy_identity_remainders([1.0, -2.0], 0.6, 0.1)
    assert j1 == 0.0
    assert j2 > 0.0


def test_identities_hold_on_random_series():
    rng = np.random.default_rng(17)
    for _ in range(200):
        m = int(rng.integers(2, 51))
        nu = rng.uniform(0.05, 0.95)
        tau = 10 ** rng.uniform(-3, 0)
        y = rng.uniform(-1, 1, m)
        r1, r2, j1, j2 = _identity_residuals(y, nu, tau)
        assert abs(r1) <= 1e-12
        assert abs(r2) <= 1e-12
        assert j1 >= -1e-13
        assert j2 >= -1e-13


def test_six_level_identity_example():
    rng = np.random.default_rng(123)
    y = rng.uniform(-1, 1, 6)
    r1, r2, j1, j2 = _identity_residuals(y, 0.3, 0.07)
    assert abs(r1) <= 1e-12
    assert abs(r2) <= 1e-12
    assert j1 >= 0.0 and j2 >= 0.0
