import math
import re
import tracemalloc

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
    BlowUp,
    L1Memory,
    SingularSystemError,
    StepOperator,
    StepSystem,
    _step_rhs,
    assemble_step,
    block_levels,
    build_step,
    march,
    march_blocks,
    solve_bordered,
    solve_dense_oracle,
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


def product_columns(op):
    """The matrix of ``op`` from its product, one unit vector per column."""
    return np.column_stack([op @ e for e in np.eye(op.diag.size + 1)])


def placed_matrix(op):
    """The matrix of ``op`` placed cell by cell, independently of its product.

    Entries that share a cell are summed: at N=2 the corner meets the
    upper band, and the flux row's b1 meets b_{N-1}.
    """
    m = op.diag.size
    A = np.zeros((m + 1, m + 1))
    A[:m, :m] = np.diag(op.diag) + np.diag(op.lower[1:], -1)
    A[:m, 1:] += np.diag(op.upper)
    A[0, m] += op.corner
    np.add.at(A[m], [0, m - 1, m], op.last_row)
    return A


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


def loop_rhs(problem, grid, sigma, n, yn, load):
    """The right-hand side node by node, in the documented operation order.

    The source is sampled by one vectorised call, as a march samples it;
    the rest is Python float arithmetic on one node at a time.  At
    sigma = 1 the scheme has no explicit part, and no explicit term is
    added: adding 0.0*second would turn a -0.0 into +0.0 where second >= 0.
    """
    face = [float(a) for a in face_coefficients(problem, grid)]
    h, beta, N = grid.h, problem.beta, grid.N
    t = (n + sigma) * grid.tau
    phi = [float(v) for v in problem.f(grid.x, t)]
    y, q = [float(v) for v in yn], [float(v) for v in load]
    h2, rhs = h * h, []
    for i in range(1, N):
        a_l, a_r = face[i - 1], face[i]
        second = (a_r * y[i + 1] - (a_l + a_r) * y[i] + a_l * y[i - 1]) / h2
        rhs.append(phi[i] - q[i] if sigma == 1.0
                   else phi[i] - q[i] + (1.0 - sigma) * second)
    flux = (2.0 / h * problem.mu(t) + phi[N] + beta * phi[0]
            - beta * q[0] - q[N])
    if sigma != 1.0:
        flux = (flux
                - (1.0 - sigma) * 2.0 * face[-1] / h2 * (y[N] - y[N - 1])
                + (1.0 - sigma) * 2.0 * beta * face[0] / h2 * (y[1] - y[0]))
    rhs.append(flux)
    return np.array(rhs)


NEGATIVE_ZERO_SOURCE = Problem(gamma=0.5, alpha=1.0, beta=2.0, k=np.exp,
                               f=lambda x, t: np.full_like(x, -0.0),
                               mu=lambda t: 0.0, u0=np.zeros_like,
                               c1=1.0, c2=math.e)


@pytest.mark.parametrize("sigma", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("problem, bend", [
    (build_manufactured(3.0, 2.0, 0.5), None),
    (build_manufactured(-2.0, -3.0, 0.4), None),
    (NEGATIVE_ZERO_SOURCE, 1.0), (NEGATIVE_ZERO_SOURCE, -1.0)],
    ids=["alpha-positive", "alpha-negative", "negative-zero",
         "negative-zero-concave"])
def test_step_rhs_matches_a_per_node_loop_bit_for_bit(problem, bend, sigma):
    grid = Grid(N=12, Nt=10)
    rng = np.random.default_rng(12)
    yn = rng.uniform(-1.0, 1.0, grid.N + 1)
    if problem is NEGATIVE_ZERO_SOURCE:
        # phi - load is -0.0 at every node.  The level is convex (second
        # difference > 0) or concave (< 0): at sigma = 1 a term 0.0*second
        # would give +0.0 on the first and -0.0 on the second.
        load = np.zeros(grid.N + 1)
        yn = bend * np.linspace(0.0, 1.0, grid.N + 1) ** 2
    else:
        load = rng.uniform(-1.0, 1.0, grid.N + 1)
    step = build_step(problem, grid, sigma, c_new=3.7)
    t = (4 + sigma) * grid.tau
    # The right-hand side is written into the caller's buffer, which
    # starts as NaN so that an entry left unwritten shows.
    buf = np.full(grid.N, np.nan)
    got = _step_rhs(step, yn, load, problem.f(grid.x, t), problem.mu(t), buf)
    assert got is buf
    assert buf.tobytes() == loop_rhs(problem, grid, sigma, 4, yn,
                                     load).tobytes()
    if problem is NEGATIVE_ZERO_SOURCE and sigma == 1.0:
        # no explicit term is added, so -0.0 stays -0.0 whatever the bend
        assert np.signbit(buf[:-1]).all() and not buf[:-1].any()


@st.composite
def step_rhs_cases(draw):
    """A step with a random level and load.

    The problem is manufactured, alpha and beta of one sign (either), or
    NEGATIVE_ZERO_SOURCE; sigma is exactly 1 or in [0, 1); some entries
    of the level and the load are +0.0 or -0.0.
    """
    N = draw(st.integers(2, 40))
    sigma = draw(st.one_of(st.just(1.0),
                           st.floats(0.0, 1.0, exclude_max=True)))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    problem = draw(st.one_of(
        st.builds(build_manufactured, st.floats(0.1, 4.0).map(sign.__mul__),
                  st.floats(0.1, 4.0).map(sign.__mul__),
                  st.floats(0.1, 0.9)),
        st.just(NEGATIVE_ZERO_SOURCE)))
    entry = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, -0.0]))
    yn, load = (draw(hnp.arrays(float, N + 1, elements=entry))
                for _ in range(2))
    return problem, Grid(N=N, Nt=10), sigma, yn, load


@given(step_rhs_cases())
def test_step_rhs_matches_a_per_node_loop_property(case):
    problem, grid, sigma, yn, load = case
    step = build_step(problem, grid, sigma, c_new=3.7)
    t = (4 + sigma) * grid.tau
    got = _step_rhs(step, yn, load, problem.f(grid.x, t), problem.mu(t),
                    np.full(grid.N, np.nan))
    assert got.tobytes() == loop_rhs(problem, grid, sigma, 4, yn,
                                     load).tobytes()


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
    assert system.residual(system.rhs, sol) <= 1e-12


def test_assemble_step_rejects_malformed_level_arrays():
    problem = build_manufactured(3.0, 2.0, 0.5)
    grid = Grid(N=4, Nt=3)
    for levels in (np.zeros((2, 4)), np.zeros((2, 6)), np.zeros(5),
                   np.zeros((1, 1, 5)), np.zeros((0, 5))):
        with pytest.raises(DimensionError):
            assemble_step(problem, grid, SchemeParams(1.0), levels)


def assert_refused_with_no_fold(error, match, *args, **kwargs):
    """``march_blocks(*args, record, **kwargs)`` raises, and calls no fold."""
    calls = []

    def record(first, block):
        calls.append(first)

    with pytest.raises(error, match=match):
        march_blocks(*args, record, **kwargs)
    assert calls == []


def test_march_rejects_initial_level_of_wrong_length():
    grid = Grid(N=4, Nt=3)
    for y0 in (np.zeros(4), np.zeros(6), np.zeros((1, 5))):
        with pytest.raises(DimensionError):
            march(build_zero(), grid, SchemeParams(1.0), y0=y0)
        assert_refused_with_no_fold(DimensionError, "y0 has shape",
                                    build_zero(), grid, SchemeParams(1.0),
                                    y0=y0)


def test_zero_diagonal_entry_is_solved_by_pivoting():
    # The banded factorisation pivots, so a zero on the diagonal of a
    # nonsingular interior block is no obstacle.
    system = StepSystem(lower=np.array([0.0, 1.0, 1.0]),
                        diag=np.array([0.0, 2.0, 3.0]),
                        upper=np.array([1.0, 1.0, 0.5]), corner=0.5,
                        last_row=(-1.0, -1.0, 4.0),
                        rhs=np.array([1.0, -2.0, 3.0, 0.5]))
    assert np.allclose(solve_bordered(system), solve_dense_oracle(system),
                       rtol=1e-14, atol=1e-15)


def test_all_zero_interior_row_is_singular():
    system = StepSystem(lower=np.zeros(2), diag=np.array([1.0, 0.0]),
                        upper=np.zeros(2), corner=0.0,
                        last_row=(0.0, 0.0, 1.0), rhs=np.zeros(3))
    with pytest.raises(SingularSystemError, match="interior row 2"):
        solve_bordered(system)


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


def test_dense_form_of_the_smallest_systems():
    # N=2: one interior row; the corner shares column y_2 with the upper
    # band, and the flux row's b1 and b_{N-1} share column y_1.
    # The product's columns, one unit vector each, give the matrix.
    two = StepOperator(lower=np.zeros(1), diag=np.array([2.0]),
                       upper=np.array([-1.0]), corner=-0.5,
                       last_row=(-0.25, -0.75, 3.0))
    assert np.array_equal(product_columns(two), [[2.0, -1.5],
                                                 [-1.0, 3.0]])
    three = StepOperator(lower=np.array([9.0, -2.0]),
                         diag=np.array([4.0, 5.0]),
                         upper=np.array([-1.0, -3.0]), corner=-0.5,
                         last_row=(-0.25, -0.75, 6.0))
    assert np.array_equal(product_columns(three), [[4.0, -1.0, -0.5],
                                                   [-2.0, 5.0, -3.0],
                                                   [-0.25, -0.75, 6.0]])


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
        assert system.residual(system.rhs, fast) <= 1e-12


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


@given(bordered_systems())
def test_solve_into_a_buffer_matches_and_keeps_the_rhs(system):
    # The march solves into its new level and then reads the rhs again
    # for the residual, so the rhs must come back as it went in.  The
    # buffer starts as NaN, so an entry left unwritten shows.
    rhs = system.rhs.copy()
    buf = np.full(rhs.size, np.nan)
    assert system.solve(rhs, buf) is buf
    assert rhs.tobytes() == system.rhs.tobytes()
    assert buf.tobytes() == solve_bordered(system).tobytes()
    dense = solve_dense_oracle(system)
    scale = max(float(np.max(np.abs(dense))), 1e-30)
    assert np.max(np.abs(buf - dense)) / scale <= 1e-11


@st.composite
def residual_cases(draw):
    """Operators with N in [2, 12], entries of both signs, and a (rhs, sol)."""
    N = draw(st.integers(2, 12))
    entry = st.floats(-4.0, 4.0)

    def array(n):
        return draw(hnp.arrays(float, n, elements=entry))

    lower = np.zeros(N - 1)
    lower[1:] = array(N - 2)
    op = StepOperator(lower=lower, diag=array(N - 1), upper=array(N - 1),
                      corner=draw(entry),
                      last_row=(draw(entry), draw(entry), draw(entry)))
    return op, array(N), array(N)


@given(residual_cases())
def test_residual_matches_the_dense_formula(case):
    # The residual is already relative to the row scale.  The banded and
    # the dense product sum a row's terms in different orders, which
    # moves it by a few ulps of that scale: 1e-15 bounds the difference.
    op, rhs, sol = case
    A = placed_matrix(op)
    assert np.array_equal(product_columns(op), A)
    scale = np.abs(A) @ np.abs(sol) + np.abs(rhs)
    want = float(np.max(np.abs(A @ sol - rhs) / np.maximum(scale, 1e-300)))
    assert abs(op.residual(rhs, sol) - want) <= 1e-15


def test_residual_sums_shared_cells_before_their_magnitude():
    # N=2 with mixed signs: the corner and the upper band share cell
    # (1, 2), and b1 and b_{N-1} share cell (2, 1).  The row scale takes
    # |-1.0 + 0.75| and |0.5 - 0.25|, not the sums of the magnitudes.
    op = StepOperator(lower=np.zeros(1), diag=np.array([2.0]),
                      upper=np.array([-1.0]), corner=0.75,
                      last_row=(0.5, -0.25, 3.0))
    sol, rhs = np.array([1.0, 1.0]), np.array([0.0, 0.0])
    # rows: 2 - 0.25 = 1.75 over 2.25, and 0.25 + 3 = 3.25 over 3.25
    assert op.residual(rhs, sol) == 1.0
    sol = np.array([1.0, -1.0])
    # rows: 2 + 0.25 over 2.25, and 0.25 - 3 over 3.25
    assert op.residual(rhs, sol) == pytest.approx(1.0, rel=1e-15)
    rhs = np.array([2.25, 0.0])
    assert op.residual(rhs, sol) == pytest.approx(2.75 / 3.25, rel=1e-15)


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


@pytest.mark.parametrize("value", [math.nan, math.inf, 1e200])
def test_a_bad_initial_level_is_reported_at_level_0(value):
    # Level 0 is checked before the first step, which is then not taken:
    # the march refuses it rather than return an outcome of no steps.
    grid = Grid(N=4, Nt=10)
    y0 = np.zeros(grid.N + 1)
    y0[2] = value
    norm = value if math.isfinite(value) else math.inf
    message = f"initial level: max norm {norm} is not finite or exceeds 1e+100"
    with pytest.raises(DomainError, match=re.escape(message)):
        march(build_zero(alpha=1.0, beta=1.0, gamma=0.5), grid,
              SchemeParams(1.0), y0=y0, check_residuals=True)
    assert_refused_with_no_fold(DomainError, re.escape(message),
                                build_zero(alpha=1.0, beta=1.0, gamma=0.5),
                                grid, SchemeParams(1.0), y0=y0,
                                check_residuals=True)


@pytest.mark.parametrize("alpha, beta, sigma", [(1e154, 1e154, 1.0),
                                               (1e154, 1e154, 0.0),
                                               (1e-154, 1e307, 1.0)])
def test_overflowing_operator_is_refused_before_any_step(alpha, beta, sigma):
    problem = build_zero(alpha=alpha, beta=beta, gamma=0.5)
    with pytest.raises(DomainError, match="step operator overflows"):
        march(problem, Grid(N=8, Nt=20), SchemeParams(sigma))
    assert_refused_with_no_fold(DomainError, "step operator overflows",
                                problem, Grid(N=8, Nt=20),
                                SchemeParams(sigma))


def test_overflowing_step_is_a_blow_up_not_a_warning():
    # The operator is finite, but y_0 = alpha*y_N overflows at level 1.
    # Level 0 is zero: the sampled u0 scales with alpha and is past the
    # limit itself (see the next test).
    problem = build_manufactured(1e154, 1e-154, 0.5)
    grid = Grid(N=4, Nt=5)
    outcome = march(problem, grid, SchemeParams(0.0), y0=np.zeros(grid.N + 1))
    assert outcome.blow_up is not None
    assert outcome.blow_up.level == 1 and outcome.blow_up.norm == math.inf


def test_a_sampled_initial_level_past_the_limit_stops_at_level_0():
    problem = build_manufactured(1e154, 1e-154, 0.5)
    with pytest.raises(DomainError,
                       match=r"initial level: max norm 1\.375e\+154 "):
        march(problem, Grid(N=4, Nt=5), SchemeParams(0.0))


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
    whose oracle value exceeds the blow-up limit or is not finite, or None.
    """
    Y = outcome.history
    for n in range(len(Y) - 1):
        system = assemble_step(problem, grid, params, Y[:n + 1])
        sol = solve_dense_oracle(system)
        level = np.concatenate(([problem.alpha * sol[-1]], sol))
        top = float(np.max(np.abs(level)))
        if not top <= BLOWUP_LIMIT:     # also true for NaN
            return n + 1
        assert np.max(np.abs(level - Y[n + 1])) <= 1e-12 * top, n
    return None


@pytest.mark.parametrize("grid", [Grid.balanced(20, 0.5), Grid(N=2, Nt=12),
                                  Grid(N=3, Nt=12),
                                  Grid(N=12, Nt=3 * _BLOCK + 5),
                                  Grid(N=12, Nt=300)],
                         ids=["N20", "N2", "N3", "three-blocks",
                              "two-data-blocks"])
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


def source_turning(value, level, grid):
    """Zero data whose source turns to ``value`` at level ``level``.

    The switch lies between the data times of levels ``level - 1`` and
    ``level`` of a march at sigma=1.
    """
    start = (level - 0.5) * grid.tau
    return Problem(gamma=0.5, alpha=1.0, beta=1.0, k=np.ones_like,
                   f=lambda x, t: np.full_like(x, value if t > start else 0.0),
                   mu=lambda t: 0.0, u0=np.zeros_like, c1=1.0, c2=1.0)


@pytest.mark.parametrize("where, value", [
    ("first", 1e200), ("last", 1e200), ("first", math.nan),
    ("second-first", 1e200), ("second-last", math.nan)])
def test_block_guard_stops_where_a_per_level_guard_does(where, value):
    # The guard reads a block of levels at once; the march still reports
    # the first bad level, its norm and nothing it computed after it.
    rows = block_levels(5)
    grid = Grid(N=4, Nt=3 * rows)
    level = {"first": 1, "last": rows, "second-first": rows + 1,
             "second-last": 2 * rows}[where]
    problem, params = source_turning(value, level, grid), SchemeParams(1.0)
    outcome = march(problem, grid, params, check_residuals=True)
    blow = outcome.blow_up
    assert blow is not None and blow.level == level
    assert len(outcome.history) == level + 1
    assert len(outcome.per_step_residuals) == level
    top = float(np.max(np.abs(outcome.history[-1])))
    assert blow.norm == (math.inf if math.isnan(top) else top) > BLOWUP_LIMIT
    assert np.all(np.abs(outcome.history[:-1]) <= BLOWUP_LIMIT)
    assert replay_against_oracle(problem, grid, params, outcome) == level


def test_cached_memory_weights_are_contiguous_tails(monkeypatch):
    # Every weight array the load multiplies by is C-contiguous: a
    # reversed view makes the product about 30 times slower.  The near
    # weights of level n+1 are ``l1_weights(n % _BLOCK, ...).c[:-1]``; the
    # far weights, at the first level of each later block, are copied.
    gamma, tau, Nt, width = 0.3, 0.01, 2 * _BLOCK + 5, 5
    memory = L1Memory(gamma, tau, Nt, width)
    seen, matmul = [], np.matmul

    def spy(a, b, *args, **kwargs):
        seen.append((a.flags.c_contiguous, a.ndim, a.copy()))
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    levels = np.arange(Nt)[:, None] + np.zeros(width)   # increments of 1
    buf = np.empty(width)
    for n in range(Nt):
        del seen[:]
        memory.load(levels[:n + 1], n, buf)
        assert len(seen) >= (n > 0)
        assert all(contiguous for contiguous, _, _ in seen)
        near = [w for _, ndim, w in seen if ndim == 1]
        j = n % _BLOCK
        if n > 0:
            assert np.array_equal(near, [l1_weights(j, gamma, tau).c[:-1]])
        far = [w for _, ndim, w in seen if ndim == 2]
        assert len(far) == (n >= _BLOCK and j == 0)


def blocked_load_error(gamma, tau, Nt, width, seed):
    """Worst error of L1Memory.load against the unblocked contraction.

    The levels are a random walk, loaded in order; at every level the
    load, written into a caller's buffer, must equal
    ``c[:-1] @ inc[:n] - c_new*y^n`` with ``c = l1_weights(n, gamma,
    tau).c``, the independent weights, and the increments taken here, to
    1e-13 relative to the sum of the magnitudes of its terms.
    """
    rng = np.random.default_rng(seed)
    memory = L1Memory(gamma, tau, Nt, width)
    levels = np.cumsum(rng.uniform(-1.0, 1.0, (Nt, width)), axis=0)
    inc = np.diff(levels, axis=0)
    worst = 0.0
    for n in range(Nt):
        c = l1_weights(n, gamma, tau).c
        assert c[-1] == memory.c_new
        w = c[:-1]
        expected = w @ inc[:n] - memory.c_new * levels[n]
        scale = np.abs(w) @ np.abs(inc[:n]) + memory.c_new * np.abs(levels[n])
        buf = np.full(width, np.nan)
        got = memory.load(levels[:n + 1], n, buf)     # reads no later level
        assert got is buf
        worst = max(worst, float(np.max(np.abs(got - expected) / scale)))
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


@pytest.mark.parametrize("imports", [
    "import fracheat.stepper, scipy.linalg.lapack\n",
    # the stepper reuses the loaded extension and looks for no file
    "import scipy.linalg.lapack\n"
    "scipy.__file__ = '/nonexistent/__init__.py'\n"
    "import fracheat.stepper\n"], ids=["fracheat-first", "scipy-first"])
def test_the_solve_calls_the_wrappers_scipy_linalg_exports(imports,
                                                          run_fresh):
    # The stepper loads scipy's LAPACK extension without scipy.linalg; in
    # either import order both must hold the very same wrapper objects.
    done = run_fresh(
        "import sys\n" + imports +
        "from fracheat import stepper\n"
        "from scipy.linalg import lapack\n"
        "assert stepper.lapack.dgbtrf is lapack.dgbtrf\n"
        "assert stepper.lapack.dgbtrs is lapack.dgbtrs\n"
        "assert stepper.lapack is sys.modules['scipy.linalg._flapack']\n")
    assert done.returncode == 0, done.stderr


def test_a_missing_lapack_extension_names_the_folder_and_scipy(
        tmp_path, run_fresh):
    done = run_fresh(
        "import scipy\n"
        f"scipy.__file__ = {str(tmp_path / '__init__.py')!r}\n"
        "try:\n"
        "    import fracheat.stepper\n"
        "except ImportError as exc:\n"
        "    print(exc)\n")
    assert done.returncode == 0, done.stderr
    import scipy
    assert done.stdout.strip() == (
        f"no LAPACK extension _flapack in {tmp_path / 'linalg'} "
        f"(scipy {scipy.__version__})")


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


def test_residual_checked_march_stays_in_linear_memory():
    # A dense N x N copy of the matrix would take 128 MB here.
    problem = build_manufactured(3.0, 2.0, 0.5)
    grid = Grid(N=4000, Nt=2)
    tracemalloc.start()
    try:
        outcome = march(problem, grid, SchemeParams(1.0),
                        check_residuals=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(outcome.per_step_residuals) <= 1e-11
    assert peak < 8e6


def test_data_blocks_hold_at_most_256_levels_and_about_2_16_entries():
    # A level of 2**16 entries or more is sampled one level at a time.
    assert [block_levels(w) for w in (200_001, 2**16, 321, 17)] == [1, 1,
                                                                    204, 256]


@given(st.sampled_from([4, 300]), st.integers(0, 2), st.integers(-1, 2),
       st.sampled_from([1.0, 0.5]), st.booleans(), st.data())
def test_march_blocks_concatenate_to_the_march_history(N, blocks, offset,
                                                       sigma, unstable, data):
    # Nt ends on, one level before or past a data-block edge; the blocks
    # come from one (rows+2)-row buffer, the history from march's array.
    rows = block_levels(N + 1)
    grid = Grid(N=N, Nt=max(1, blocks * rows + offset))
    problem = build_manufactured(3.0, 2.0, 0.5)
    if unstable:
        problem = source_turning(data.draw(st.sampled_from([1e200, math.nan])),
                                 data.draw(st.integers(1, grid.Nt)), grid)
    params = SchemeParams(sigma)
    firsts, kept = [], []

    def keep(first, block):
        assert block.base.shape == (rows + 2, N + 1)
        firsts.append(first)
        kept.append(block.copy())     # the next block overwrites the buffer

    blow, residuals = march_blocks(problem, grid, params, keep,
                                   check_residuals=True)
    outcome = march(problem, grid, params, check_residuals=True)
    assert np.concatenate(kept).tobytes() == outcome.history.tobytes()
    assert firsts == [0] + list(np.cumsum([len(b) for b in kept])[:-1])
    assert 1 <= len(kept[0]) <= rows + 1
    assert all(1 <= len(b) <= rows for b in kept[1:])
    assert blow == outcome.blow_up and (blow is None or unstable)
    assert (np.array(residuals).tobytes()
            == np.array(outcome.per_step_residuals).tobytes())


def test_folds_run_in_order_under_the_callers_error_state():
    # 601 levels of 5 nodes are three data blocks: 257, 256 and 88 levels.
    problem, grid = build_manufactured(3.0, 2.0, 0.5), Grid(N=4, Nt=600)
    calls = []

    def fold(name):
        def record(first, block):
            calls.append((name, first, len(block), np.geterr()))
        return record

    with np.errstate(all="raise"):
        caller = np.geterr()
        blow, residuals = march_blocks(problem, grid, SchemeParams(1.0),
                                       fold("a"), fold("b"))
    assert (blow, residuals) == (None, None)
    assert [c[:3] for c in calls] == [
        (name, first, size) for first, size in ((0, 257), (257, 256),
                                                (513, 88))
        for name in "ab"]
    # The march ignores overflow and invalid values; its folds do not.
    assert all(c[3] == caller for c in calls)

    # A fold that raises ends the march: no fold is called after it.
    calls.clear()

    def fail_second(first, block):
        calls.append(("fail", first))
        if first > 0:
            raise KeyError("second block")

    with pytest.raises(KeyError, match="second block"):
        march_blocks(problem, grid, SchemeParams(1.0), fail_second,
                     lambda first, block: calls.append(("after", first)))
    assert calls == [("fail", 0), ("after", 0), ("fail", 257)]


def test_wide_march_samples_its_data_in_small_blocks():
    # The levels and the memory's increments take 12.8 MB each; a block of
    # 64 levels of f, with its temporaries, would add about 30 MB.  The far
    # loads of the second memory block are one 16 x 20,001 array (2.6 MB);
    # a product temporary beside them would take the peak to 33.7 MB.
    problem = build_manufactured(3.0, 2.0, 0.5)
    grid = Grid(N=20_000, Nt=80)
    tracemalloc.start()
    try:
        outcome = march(problem, grid, SchemeParams(1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome.blow_up is None
    assert peak < 33.5e6


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
