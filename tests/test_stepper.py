import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fracheat.core import (
    DimensionError,
    DomainError,
    Grid,
    Problem,
    SchemeParams,
    face_coefficients,
    sample_space,
)
from fracheat.fractional import discrete_caputo, l1_weights, split_implicit
from fracheat.manufactured import build_manufactured, build_zero
from fracheat.norms import norm_max, norm_trapezoid, sigma_threshold
from fracheat.stepper import (
    _BLOCK,
    _SPAN,
    BLOWUP_LIMIT,
    AssemblyError,
    L1Memory,
    SingularSystemError,
    StepSystem,
    assemble_step,
    march,
    solve_bordered,
    solve_dense_oracle,
    step_residual,
)


def random_system(rng, N):
    """Diagonally dominant bordered system with the step-system layout."""
    lower = np.zeros(N - 1)
    lower[1:] = rng.uniform(-1.0, 0.0, N - 2)
    upper = rng.uniform(-1.0, 0.0, N - 1)
    diag = rng.uniform(2.5, 4.0, N - 1)
    return StepSystem(
        lower=lower, diag=diag, upper=upper,
        corner=rng.uniform(-1.0, 0.0),
        last_row=(rng.uniform(-1.0, 0.0), rng.uniform(-1.0, 0.0),
                  rng.uniform(2.5, 4.0)),
        rhs=rng.uniform(-1.0, 1.0, N),
    )


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def test_two_cell_first_row_hand_expansion():
    # sigma = 1, first step: the single interior row must read
    # (c_new + (a1+a2)/h^2) y_1 - (a2/h^2) y_2 - (a1/h^2) alpha y_2
    #   = f(x_1, tau) + c_new y_1^0.
    problem = build_manufactured(3.0, 2.0, 0.5)
    grid = Grid(N=2, Nt=4)
    face = face_coefficients(problem, grid)
    levels = sample_space(problem.u0, grid.x)[None, :]
    system = assemble_step(problem, grid, SchemeParams(1.0), levels)
    h2 = grid.h**2
    c_new = grid.tau**-0.5 / math.gamma(1.5)
    assert system.diag[0] == pytest.approx(c_new + (face[0] + face[1]) / h2,
                                           rel=1e-14)
    assert system.upper[0] == pytest.approx(-face[1] / h2, rel=1e-14)
    assert system.corner == pytest.approx(-3.0 * face[0] / h2, rel=1e-14)
    expected_rhs = problem.f(grid.x[1], grid.tau) + c_new * levels[0][1]
    assert system.rhs[0] == pytest.approx(expected_rhs, rel=1e-14)


def test_homogeneous_problem_has_zero_rhs():
    problem = build_zero(alpha=1.0, beta=1.0, gamma=0.5)
    grid = Grid(N=8, Nt=3)
    levels = np.zeros((1, 9))
    for sigma in (0.0, 0.5, 1.0):
        system = assemble_step(problem, grid, SchemeParams(sigma), levels)
        assert np.all(system.rhs == 0.0)


def test_single_step_residual_is_tiny():
    problem = build_manufactured(3.0, 2.0, 0.5)
    grid = Grid.balanced(20, 0.5)
    levels = sample_space(problem.u0, grid.x)[None, :]
    system = assemble_step(problem, grid, SchemeParams(1.0), levels)
    sol = solve_bordered(system)
    assert step_residual(system, sol) <= 1e-12


def test_assemble_step_rejects_malformed_level_arrays():
    problem = build_manufactured(3.0, 2.0, 0.5)
    grid = Grid(N=4, Nt=3)
    for levels in (np.zeros((2, 4)), np.zeros((2, 6)), np.zeros(5),
                   np.zeros((1, 1, 5)), np.zeros((0, 5))):
        with pytest.raises(DimensionError):
            assemble_step(problem, grid, SchemeParams(1.0), levels)


def test_march_rejects_initial_level_of_wrong_length():
    grid = Grid(N=4, Nt=3)
    for y0 in (np.zeros(4), np.zeros(6), np.zeros((1, 5))):
        with pytest.raises(DimensionError):
            march(build_zero(), grid, SchemeParams(1.0), y0=y0)


def test_zero_diagonal_is_rejected():
    with pytest.raises(AssemblyError):
        StepSystem(lower=np.zeros(2), diag=np.array([1.0, 0.0]),
                   upper=np.zeros(2), corner=0.0,
                   last_row=(0.0, 0.0, 1.0), rhs=np.zeros(3))


# ---------------------------------------------------------------------------
# linear solvers
# ---------------------------------------------------------------------------

def test_decoupled_rows_behave_diagonally():
    # With sigma = 0 the new level has no spatial coupling: every interior
    # unknown is rhs/diag and the flux row closes y_N alone.
    problem = build_manufactured(2.0, 5.0, 0.5)
    grid = Grid(N=6, Nt=5)
    levels = sample_space(problem.u0, grid.x)[None, :]
    system = assemble_step(problem, grid, SchemeParams(0.0), levels)
    assert np.all(system.lower == 0.0)
    assert np.all(system.upper == 0.0)
    assert system.corner == 0.0
    sol = solve_bordered(system)
    assert np.allclose(sol[:-1], system.rhs[:-1] / system.diag, rtol=1e-14)
    assert sol[-1] == pytest.approx(system.rhs[-1] / system.last_row[2],
                                    rel=1e-14)


def test_two_cell_reduced_closure():
    system = StepSystem(lower=np.zeros(1), diag=np.array([2.0]),
                        upper=np.array([0.0]), corner=0.0,
                        last_row=(0.0, 0.0, 4.0),
                        rhs=np.array([3.0, 8.0]))
    sol = solve_bordered(system)
    assert sol == pytest.approx([1.5, 2.0], rel=1e-15)
    assert solve_dense_oracle(system) == pytest.approx([1.5, 2.0], rel=1e-12)


def test_dense_oracle_on_upper_triangular_instance():
    # lower band and border row reduced to the diagonal: back-substitution.
    system = StepSystem(lower=np.zeros(3),
                        diag=np.array([2.0, 4.0, 5.0]),
                        upper=np.array([-1.0, -2.0, -1.0]),
                        corner=0.0,
                        last_row=(0.0, 0.0, 2.0),
                        rhs=np.array([1.0, 2.0, 3.0, 4.0]))
    got = solve_dense_oracle(system)
    y4 = 4.0 / 2.0
    y3 = (3.0 + y4) / 5.0
    y2 = (2.0 + 2.0 * y3) / 4.0
    y1 = (1.0 + y2) / 2.0
    assert got == pytest.approx([y1, y2, y3, y4], rel=1e-13)
    assert solve_bordered(system) == pytest.approx(got, rel=1e-12)


def test_bordered_matches_dense_oracle_on_random_systems():
    rng = np.random.default_rng(31)
    for _ in range(100):
        N = int(rng.choice([4, 8, 16]))
        system = random_system(rng, N)
        fast = solve_bordered(system)
        dense = solve_dense_oracle(system)
        scale = max(float(np.max(np.abs(dense))), 1e-30)
        assert np.max(np.abs(fast - dense)) / scale <= 1e-11
        assert step_residual(system, fast) <= 1e-12


@st.composite
def bordered_systems(draw):
    """Strictly diagonally dominant bordered systems, N in [2, 64].

    Every row has at most two off-diagonal entries in [-1, 1] and a
    diagonal in [2.5, 4], so the system and its closure are regular.
    """
    N = draw(st.integers(2, 64))
    off, dominant = st.floats(-1.0, 1.0), st.floats(2.5, 4.0)

    def array(n, elements):
        return draw(hnp.arrays(float, n, elements=elements))

    lower = np.zeros(N - 1)
    lower[1:] = array(N - 2, off)
    return StepSystem(lower=lower, diag=array(N - 1, dominant),
                      upper=array(N - 1, off), corner=draw(off),
                      last_row=(draw(off), draw(off), draw(dominant)),
                      rhs=array(N, off))


@given(bordered_systems())
def test_bordered_matches_dense_oracle_property(system):
    fast = solve_bordered(system)
    dense = solve_dense_oracle(system)
    scale = max(float(np.max(np.abs(dense))), 1e-30)
    assert np.max(np.abs(fast - dense)) / scale <= 1e-11


def test_singular_closure_is_reported():
    # Both rows encode y_1 - y_2: the closure pivot vanishes exactly.
    system = StepSystem(lower=np.zeros(1), diag=np.array([1.0]),
                        upper=np.array([-1.0]), corner=0.0,
                        last_row=(0.0, 1.0, -1.0),
                        rhs=np.array([0.0, 1.0]))
    with pytest.raises(SingularSystemError):
        solve_bordered(system)
    with pytest.raises(SingularSystemError):
        solve_dense_oracle(system)


def test_roundoff_closure_pivot_is_singular():
    # Rows (0.1, 0.3) and (0.3, 0.9) are proportional, but the computed
    # closure pivot 0.9 - 0.3*(0.3/0.1) is 2.2e-16, not zero.
    system = StepSystem(lower=np.zeros(1), diag=np.array([0.1]),
                        upper=np.array([0.3]), corner=0.0,
                        last_row=(0.0, 0.3, 0.9),
                        rhs=np.array([1.0, 2.0]))
    with pytest.raises(SingularSystemError, match="row 2"):
        solve_bordered(system)


def test_nan_closure_pivot_is_singular():
    # A NaN pivot fails every comparison; it must not pass as regular.
    system = StepSystem(lower=np.zeros(1), diag=np.array([1.0]),
                        upper=np.array([0.5]), corner=0.0,
                        last_row=(0.0, 1.0, math.nan),
                        rhs=np.array([1.0, 2.0]))
    with pytest.raises(SingularSystemError, match="pivot nan"):
        solve_bordered(system)


def test_nan_level_stops_the_march_with_an_infinite_norm():
    # The source turns NaN from t = 0.6 on, which poisons level 6.
    problem = Problem(gamma=0.5, alpha=1.0, beta=1.0,
                      k=np.ones_like,
                      f=lambda x, t: np.full_like(x, math.nan if t > 0.55
                                                  else 0.0),
                      mu=lambda t: 0.0, u0=np.zeros_like, c1=1.0, c2=1.0)
    outcome = march(problem, Grid(N=4, Nt=10), SchemeParams(1.0))
    assert outcome.blow_up is not None
    assert outcome.blow_up.level == 6 and outcome.blow_up.norm == math.inf
    assert np.isnan(outcome.history[-1]).any()
    assert np.all(outcome.history[:-1] == 0.0)


@pytest.mark.parametrize("alpha, beta, sigma", [(1e154, 1e154, 1.0),
                                               (1e154, 1e154, 0.0),
                                               (1e-154, 1e307, 1.0)])
def test_overflowing_operator_is_refused_before_any_step(alpha, beta, sigma):
    problem = build_zero(alpha=alpha, beta=beta, gamma=0.5)
    with pytest.raises(DomainError, match="step operator overflows"):
        march(problem, Grid(N=8, Nt=20), SchemeParams(sigma))


def test_overflowing_step_is_a_blow_up_not_a_warning():
    # The operator is finite, but y_0 = alpha*y_N overflows at level 1.
    problem = build_manufactured(1e154, 1e-154, 0.5)
    outcome = march(problem, Grid(N=4, Nt=5), SchemeParams(0.0))
    assert outcome.blow_up is not None
    assert outcome.blow_up.level == 1 and outcome.blow_up.norm == math.inf


def test_tiny_scaled_system_is_not_singular():
    # The closure pivot of this well-conditioned system is ~1e-305; the
    # check is relative to the row scale, so the scale alone never trips it.
    rng = np.random.default_rng(5)
    unit = random_system(rng, 8)
    tiny = StepSystem(lower=unit.lower * 1e-305, diag=unit.diag * 1e-305,
                      upper=unit.upper * 1e-305, corner=unit.corner * 1e-305,
                      last_row=tuple(b * 1e-305 for b in unit.last_row),
                      rhs=unit.rhs * 1e-305)
    expected = solve_bordered(unit)
    assert solve_bordered(tiny) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# marching
# ---------------------------------------------------------------------------

def replay_against_oracle(problem, grid, params, outcome):
    """Redo every level of a march with assemble_step + the dense solve.

    Each level is recomputed from the march's own earlier levels and must
    match to 1e-12 relative to its max norm.  Returns the first level
    whose oracle value exceeds the blow-up limit, or None.
    """
    Y = outcome.history
    for n in range(len(Y) - 1):
        system = assemble_step(problem, grid, params, Y[:n + 1])
        sol = solve_dense_oracle(system)
        level = np.concatenate(([problem.alpha * sol[-1]], sol))
        top = float(np.max(np.abs(level)))
        if top > BLOWUP_LIMIT:
            return n + 1
        assert np.max(np.abs(level - Y[n + 1])) <= 1e-12 * top, n
    return None


@pytest.mark.parametrize("grid", [Grid.balanced(20, 0.5), Grid(N=2, Nt=12),
                                  Grid(N=3, Nt=12),
                                  Grid(N=12, Nt=3 * _BLOCK + 5)],
                         ids=["N20", "N2", "N3", "three-blocks"])
def test_factored_march_matches_per_step_oracle(grid):
    problem = build_manufactured(3.0, 2.0, 0.5)
    params = SchemeParams(1.0)
    outcome = march(problem, grid, params)
    assert outcome.blow_up is None
    assert replay_against_oracle(problem, grid, params, outcome) is None


def test_factored_march_matches_oracle_with_explicit_part():
    # Random homogeneous data at sigma = threshold (~0.63): the explicit
    # (1 - sigma) part of the operator is live in every right-hand side.
    problem = build_zero(alpha=2.0, beta=3.0, gamma=0.5)
    grid = Grid(N=16, Nt=60)
    sigma = sigma_threshold(0.5, grid.h, grid.tau, problem.c2)
    assert 0.5 < sigma < 1.0
    y0 = np.random.default_rng(8).uniform(-1.0, 1.0, grid.N + 1)
    y0[0] = problem.alpha * y0[-1]
    params = SchemeParams(sigma)
    outcome = march(problem, grid, params, y0=y0)
    assert outcome.blow_up is None
    assert replay_against_oracle(problem, grid, params, outcome) is None


def test_factored_march_blows_up_at_the_oracle_level():
    problem = build_manufactured(0.1, 10.0, 0.4)
    grid = Grid.balanced(80, 0.4)
    params = SchemeParams(1.0)
    outcome = march(problem, grid, params)
    assert outcome.blow_up is not None
    assert replay_against_oracle(problem, grid, params,
                                 outcome) == outcome.blow_up.level


def test_cached_memory_weights_are_contiguous_tails():
    gamma, tau, Nt = 0.3, 0.01, 40
    memory = L1Memory(gamma, tau, Nt, width=5)
    for n in (0, 1, 17, Nt - 1):
        w = memory.weights(n)
        assert w.flags.c_contiguous
        assert np.array_equal(w, l1_weights(n, gamma, tau).c)


def blocked_load_error(gamma, tau, Nt, width, seed):
    """Worst error of L1Memory.load against the unblocked contraction.

    Random levels are pushed one by one; at every level the load must
    equal ``weights(n)[:-1] @ inc[:n] - c_new*y^n`` to 1e-13 relative to
    the sum of the magnitudes of its terms.
    """
    rng = np.random.default_rng(seed)
    memory = L1Memory(gamma, tau, Nt, width)
    inc = np.empty((Nt, width))
    y = rng.uniform(-1.0, 1.0, width)
    worst = 0.0
    for n in range(Nt):
        w = memory.weights(n)[:-1]
        expected = w @ inc[:n] - memory.c_new * y
        scale = np.abs(w) @ np.abs(inc[:n]) + memory.c_new * np.abs(y)
        worst = max(worst, float(np.max(np.abs(memory.load(y) - expected)
                                        / scale)))
        new = y + rng.uniform(-1.0, 1.0, width)
        inc[n] = new - y
        memory.push(new, y)
        y = new
    return worst


@pytest.mark.parametrize("Nt", [_BLOCK - 1, _BLOCK, _BLOCK + 1,
                                2 * _BLOCK + 7, _SPAN + 2 * _BLOCK + 7],
                         ids=["below-block", "one-block", "block-plus-one",
                              "partial-last-block", "several-spans"])
def test_blocked_load_matches_unblocked_contraction(Nt):
    assert blocked_load_error(0.5, 0.01, Nt, 9, seed=Nt) <= 1e-13


@given(st.integers(1, 3 * _BLOCK + 10), st.integers(1, 24),
       st.floats(0.05, 0.95), st.floats(1e-4, 1.0), st.integers(0, 2**16))
def test_blocked_load_matches_unblocked_contraction_property(Nt, width, gamma,
                                                             tau, seed):
    assert blocked_load_error(gamma, tau, Nt, width, seed) <= 1e-13


def test_zero_data_stays_zero():
    outcome = march(build_zero(), Grid(N=8, Nt=6), SchemeParams(1.0))
    assert outcome.blow_up is None
    assert np.all(outcome.history == 0.0)


def test_compatible_constant_is_preserved():
    # alpha = 1 makes a constant satisfy both couplings; the march must
    # hold it to roundoff.
    problem = Problem(gamma=0.5, alpha=1.0, beta=2.0,
                      k=lambda x: np.exp(x),
                      f=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
                      mu=lambda t: 0.0,
                      u0=lambda x: np.full_like(np.asarray(x, dtype=float), 3.5),
                      c1=1.0, c2=math.e)
    outcome = march(problem, Grid(N=16, Nt=20), SchemeParams(1.0))
    assert outcome.blow_up is None
    assert np.max(np.abs(outcome.history - 3.5)) <= 1e-12 * 3.5


def test_march_levels_satisfy_value_coupling():
    problem = build_manufactured(3.0, 2.0, 0.5)
    grid = Grid.balanced(10, 0.5)
    outcome = march(problem, grid, SchemeParams(1.0))
    Y = outcome.history
    assert np.allclose(Y[1:, 0], 3.0 * Y[1:, -1], rtol=1e-13, atol=1e-13)


def test_memory_split_is_consistent_along_the_march():
    problem = build_manufactured(2.0, 5.0, 0.5)
    grid = Grid.balanced(10, 0.5)
    outcome = march(problem, grid, SchemeParams(1.0))
    Y = outcome.history
    for n in range(1, len(outcome.history)):
        for i in (0, grid.N // 2, grid.N):
            c_new, load = split_implicit(Y[:n, i], problem.gamma, grid.tau)
            full = discrete_caputo(Y[: n + 1, i], problem.gamma, grid.tau)
            scale = max(abs(full), 1.0)
            assert abs(c_new * Y[n, i] + load - full) / scale <= 1e-12


def test_march_residuals_stay_small():
    problem = build_manufactured(0.7, 0.1, 0.5)
    grid = Grid.balanced(20, 0.5)
    outcome = march(problem, grid, SchemeParams(1.0), check_residuals=True)
    assert outcome.per_step_residuals is not None
    assert len(outcome.per_step_residuals) == grid.Nt
    assert max(outcome.per_step_residuals) <= 1e-11


def test_march_reproduces_reference_error_magnitude():
    # gamma=0.5, alpha=3, beta=2 at h=1/20 under balanced coupling.
    problem = build_manufactured(3.0, 2.0, 0.5)
    grid = Grid.balanced(20, 0.5)
    outcome = march(problem, grid, SchemeParams(1.0))
    errs = []
    for n in range(len(outcome.history)):
        u = problem.exact(grid.x, n * grid.tau)
        errs.append(norm_trapezoid(outcome.history[n] - u, grid.h))
    assert max(errs) == pytest.approx(3.03169e-2, rel=0.05)


def test_unstable_regime_is_reported_not_raised():
    # (alpha, beta) on opposite sides of 1 destabilises refinement.
    problem = build_manufactured(0.1, 10.0, 0.4)
    grid = Grid.balanced(40, 0.4)
    outcome = march(problem, grid, SchemeParams(1.0))
    errs = [norm_max(outcome.history[n] - problem.exact(grid.x, n * grid.tau))
            for n in range(len(outcome.history))]
    assert max(errs) >= 1e30
    # One more halving drives the magnitudes past the sentinel.
    grid = Grid.balanced(80, 0.4)
    outcome = march(problem, grid, SchemeParams(1.0))
    assert outcome.blow_up is not None
    assert outcome.blow_up.norm >= 1e30
    assert outcome.blow_up.level == len(outcome.history) - 1
    assert len(outcome.history) <= grid.Nt + 1
