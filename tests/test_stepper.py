import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fracheat import stepper
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
    lapack,
    march,
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
    the rest is Python float arithmetic on one node at a time: r = phi - q
    first, then the stencil scaled by (1-sigma)/h^2 before it meets the
    level.  At sigma = 1 the scheme has no explicit part, and no explicit
    term is added: adding 0.0*stencil would turn a -0.0 into +0.0.
    """
    face = [float(a) for a in face_coefficients(problem, grid)]
    h, beta, N = grid.h, problem.beta, grid.N
    t = (n + sigma) * grid.tau
    phi = [float(v) for v in problem.f(grid.x, t)]
    y, q = [float(v) for v in yn], [float(v) for v in load]
    r = [p - q_i for p, q_i in zip(phi, q)]
    h2, rhs = h * h, []
    scale = (1.0 - sigma) / h2
    for i in range(1, N):
        a_l, a_r = face[i - 1], face[i]
        b0, b1, b2 = a_l * scale, -(a_l + a_r) * scale, a_r * scale
        rhs.append(r[i] if sigma == 1.0
                   else r[i] + (b0 * y[i - 1] + b1 * y[i] + b2 * y[i + 1]))
    flux = 2.0 / h * problem.mu(t) + r[N] + beta * r[0]
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
    got = _step_rhs(step, yn, problem.f(grid.x, t) - load, problem.mu(t), buf)
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
    got = _step_rhs(step, yn, problem.f(grid.x, t) - load, problem.mu(t),
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
    """``march(*args, record, **kwargs)`` raises, and calls no fold."""
    calls = []

    def record(first, block):
        calls.append(first)

    with pytest.raises(error, match=match):
        march(*args, record, **kwargs)
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


@given(bordered_systems(), st.integers(1, 5))
def test_many_right_hand_sides_are_one_solve(system, k):
    # The block propagator solves its 2N+3 columns in one call of the
    # bound solve: the rhs comes back as it went in, and each column of
    # the solution is the single solve's and the dense oracle's.
    rhs = np.column_stack([system.rhs * (j + 1.0) - j for j in range(k)])
    kept, out = rhs.copy(), np.full_like(rhs, np.nan)
    assert system.solve(rhs, out) is out
    assert rhs.tobytes() == kept.tobytes()
    dense = solve_dense_oracle(dataclasses.replace(system, rhs=rhs))
    for j in range(k):
        one = system.solve(rhs[:, j].copy(), np.empty(len(rhs)))
        scale = max(float(np.max(np.abs(dense[:, j]))), 1e-30)
        assert np.max(np.abs(out[:, j] - one)) <= 1e-13 * scale
        assert np.max(np.abs(out[:, j] - dense[:, j])) <= 1e-11 * scale


@st.composite
def symmetric_systems(draw):
    """Step systems that :func:`build_step` makes, N in [2, 64].

    The faces are positive, in [0.5, 2]; sigma is in [0, 1] and c_new in
    [1, 1e4] (c_new = tau^-gamma/Gamma(2-gamma) >= 1 for tau <= 1);
    alpha and beta have one sign, in [0.1, 4] in magnitude.  So the
    interior block is symmetric positive definite, and at sigma > 0 its
    condition number reaches about 3e4.
    """
    N = draw(st.integers(2, 64))
    grid = Grid(N=N, Nt=10)
    faces = draw(hnp.arrays(float, N, elements=st.floats(0.5, 2.0)))
    at = (np.arange(1, N + 1) - 0.5) * grid.h      # where the faces lie
    sign = draw(st.sampled_from([-1.0, 1.0]))
    alpha, beta = (sign * draw(st.floats(0.1, 4.0)) for _ in range(2))
    problem = Problem(gamma=0.5, alpha=alpha, beta=beta,
                      k=lambda x: np.interp(x, at, faces),
                      f=lambda x, t: np.zeros_like(x), mu=lambda t: 0.0,
                      u0=np.zeros_like, c1=0.5, c2=2.0)
    operator = build_step(problem, grid, draw(st.floats(0.0, 1.0)),
                          c_new=draw(st.floats(1.0, 1e4))).operator
    return StepSystem(**vars(operator), rhs=draw(hnp.arrays(
        float, N, elements=st.floats(-1.0, 1.0))))


def band_lu_solve(system):
    """``solve_bordered`` of a copy of ``system`` whose dpttrf always fails.

    The copy's interior block then takes band LU, as an indefinite one
    does.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lapack, "dpttrf", lambda d, e: (d, e, 1))
        return solve_bordered(dataclasses.replace(system))


@given(symmetric_systems())
def test_symmetric_systems_match_the_oracle_and_band_lu(system):
    # LDL^T (dpttrf/dpttrs) and band LU with pivoting (dgbtrf/dgbtrs) are
    # both backward stable here, so they differ by rounding: 1e-12 of the
    # solution's max norm bounds it (at most 2e-13 in 3,000 random draws
    # and 1,152 systems at the corners of these ranges).
    fast = solve_bordered(system)
    dense = solve_dense_oracle(system)
    scale = max(float(np.max(np.abs(dense))), 1e-30)
    assert np.max(np.abs(fast - dense)) / scale <= 1e-11
    assert np.max(np.abs(fast - band_lu_solve(system))) / scale <= 1e-12


@pytest.mark.parametrize("N", [2, 3, 4, 80])
def test_the_scheme_step_binds_ldlt_from_two_interior_rows(N):
    # build_step makes the interior block symmetric bit for bit; with two
    # rows or more it takes dpttrs.  N=2 has one interior row, which
    # scipy's dpttrf wrapper refuses, so it takes band LU.
    problem = build_manufactured(3.0, 2.0, 0.5)
    operator = build_step(problem, Grid(N=N, Nt=10), 0.5, c_new=3.7).operator
    assert np.array_equal(operator.lower[1:], operator.upper[:-1])
    solve = operator._factors[0]
    assert solve.func is (lapack.dgbtrs if N == 2 else lapack.dpttrs)


@pytest.mark.parametrize("N", [2, 3, 80])
def test_the_bound_solve_writes_a_row_of_levels_in_place(N):
    # The step body solves into the interior of its level's row of the
    # history with overwrite_b=1 and reads no result, so the bound dpttrs
    # (N >= 3) or dgbtrs (N = 2) must write T^{-1} b over b itself.
    problem = build_manufactured(3.0, 2.0, 0.5)
    operator = build_step(problem, Grid(N=N, Nt=10), 0.5, c_new=3.7).operator
    solve = operator._factors[0]
    levels = np.random.default_rng(N).uniform(-1.0, 1.0, (3, N + 1))
    expected, _ = solve(levels[1, 1:-1].copy())
    b = levels[1, 1:-1]
    x, info = solve(b, overwrite_b=1)
    assert info == 0 and np.shares_memory(x, levels)
    assert levels[1, 1:-1].tobytes() == expected.tobytes()


def test_symmetric_indefinite_interior_falls_back_to_band_lu():
    # A negative diagonal entry: dpttrf stops at it (info > 0), and the
    # band LU with pivoting solves the regular system.
    system = StepSystem(lower=np.array([0.0, -1.0, -1.0, -1.0]),
                        diag=np.array([4.0, -3.0, 4.0, 4.0]),
                        upper=np.array([-1.0, -1.0, -1.0, -0.5]), corner=-0.5,
                        last_row=(-1.0, -1.0, 4.0),
                        rhs=np.array([1.0, -2.0, 3.0, 0.5, 1.0]))
    assert lapack.dpttrf(system.diag, system.upper[:-1])[2] > 0
    fast = solve_bordered(system)
    assert system._factors[0].func is lapack.dgbtrs
    dense = solve_dense_oracle(system)
    assert np.max(np.abs(fast - dense)) / np.max(np.abs(dense)) <= 1e-11


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


@st.composite
def stacked_step_cases(draw):
    """A step as in step_rhs_cases with 1-4 stacked rows of each input.

    The levels, loads, flux data and candidate solutions hold entries of
    both signs, some +0.0 or -0.0; N starts at 2.
    """
    problem, grid, sigma, _, _ = draw(step_rhs_cases())
    k, W = draw(st.integers(1, 4)), grid.N + 1
    entry = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, -0.0]))
    yn, r, sol = (draw(hnp.arrays(float, (k, W), elements=entry))
                  for _ in range(3))
    mu = draw(hnp.arrays(float, k, elements=entry))
    return build_step(problem, grid, sigma, c_new=3.7), yn, r, mu, sol[:, 1:]


@given(stacked_step_cases())
def test_stacked_step_calls_equal_per_row_calls_bit_for_bit(case):
    # The replay of a history and the solution map call _step_rhs, the
    # operator's product and its residual once on a stack of rows; each
    # row gets the bits of a call on that row alone.
    step, yn, r, mu, sol = case
    k, N = sol.shape
    rhs = _step_rhs(step, yn, r, mu, np.full((k, N), np.nan))
    assert rhs.tobytes() == np.array([
        _step_rhs(step, y, q, m, np.full(N, np.nan))
        for y, q, m in zip(yn, r, mu.tolist())]).tobytes()
    op = step.operator
    assert (op @ sol).tobytes() == np.array([op @ s for s in sol]).tobytes()
    assert op.residual(rhs, sol).tobytes() == np.array([
        op.residual(b, s) for b, s in zip(rhs, sol)]).tobytes()


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
                                grid, SchemeParams(1.0), y0=y0)


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

def replay_against_oracle(problem, grid, params, Y):
    """Redo every level of a march's history with assemble_step + dense LU.

    Each level's system is assembled from the march's own earlier levels;
    the matrix is the same at every level, so the dense LU solve takes
    the right-hand sides of all of them at once.  Each level must match
    to 1e-12 relative to its max norm.  Returns the first level whose
    oracle value exceeds the blow-up limit or is not finite, or None.
    """
    systems = [assemble_step(problem, grid, params, Y[:n + 1])
               for n in range(len(Y) - 1)]
    assert all(np.array_equal(s.diag, systems[0].diag) for s in systems)
    rhs = np.column_stack([s.rhs for s in systems])
    sols = solve_dense_oracle(dataclasses.replace(systems[0], rhs=rhs)).T
    for n, sol in enumerate(sols):
        level = np.concatenate(([problem.alpha * sol[-1]], sol))
        top = float(np.max(np.abs(level)))
        if not top <= BLOWUP_LIMIT:     # also true for NaN
            return n + 1
        assert np.max(np.abs(level - Y[n + 1])) <= 1e-12 * top, n
    return None


@pytest.mark.parametrize("grid", [Grid.balanced(20, 0.5), Grid(N=2, Nt=12),
                                  Grid(N=3, Nt=12),
                                  Grid(N=12, Nt=3 * _BLOCK + 5),
                                  Grid(N=12, Nt=300), Grid(N=300, Nt=230)],
                         ids=["N20", "N2", "N3", "three-blocks",
                              "two-data-blocks", "interleaved-blocks"])
def test_factored_march_matches_per_step_oracle(grid):
    problem = build_manufactured(3.0, 2.0, 0.5)
    params = SchemeParams(1.0)
    outcome = march(problem, grid, params)
    assert outcome.blow_up is None
    Y = outcome.history
    assert replay_against_oracle(problem, grid, params, Y) is None


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
    Y = outcome.history
    assert replay_against_oracle(problem, grid, params, Y) is None


def test_factored_march_blows_up_at_the_oracle_level():
    problem = build_manufactured(0.1, 10.0, 0.4)
    grid = Grid.balanced(80, 0.4)
    params = SchemeParams(1.0)
    outcome = march(problem, grid, params)
    assert outcome.blow_up is not None
    assert replay_against_oracle(problem, grid, params,
                                 outcome.history) == outcome.blow_up.level


@st.composite
def random_marches(draw):
    """A march of random data past a memory-block and a data-block edge.

    N is in [2, 40], sigma exactly 1 or in [0, 1), and Nt is one data
    block (256 levels at these widths) plus 1 to 80 levels, so the march
    crosses the memory blocks at 64/65, 128, 192 and 256 and one data
    block.  Level 0, the source at every data time and mu are random,
    with about one entry in five +0.0 or -0.0, or in some marches all
    +0.0 or -0.0, so that signs of zero reach the levels.  The final time
    is halved until sigma is at least the energy-stability threshold, so
    the march makes every level and its explicit part is about as large
    as its implicit one.
    """
    N = draw(st.integers(2, 40))
    sigma = draw(st.one_of(st.just(1.0),
                           st.floats(0.0, 1.0, exclude_max=True)))
    gamma = draw(st.floats(0.2, 0.9))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    alpha, beta = (sign * draw(st.floats(0.1, 4.0)) for _ in range(2))
    Nt = block_levels(N + 1) + draw(st.integers(1, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 0.0]))

    def signed_zeros(values):
        values *= scale
        values[rng.random(values.shape) < 0.1] = 0.0
        values[rng.random(values.shape) < 0.1] = -0.0
        return values

    T = 1.0
    while sigma_threshold(gamma, 1.0 / N, T / Nt, math.e) > sigma:
        T /= 2.0
    grid = Grid(N=N, Nt=Nt, T=T)
    times = [(n + sigma) * grid.tau for n in range(Nt)]    # as the march
    source = dict(zip(times, signed_zeros(rng.uniform(-2.0, 2.0,
                                                      (Nt, N + 1)))))
    mu = dict(zip(times, signed_zeros(rng.uniform(-2.0, 2.0, Nt)).tolist()))
    problem = Problem(gamma=gamma, alpha=alpha, beta=beta, k=np.exp,
                      f=lambda x, t: source[t], mu=mu.__getitem__,
                      u0=np.zeros_like, c1=1.0, c2=math.e)
    y0 = signed_zeros(rng.uniform(-1.0, 1.0, N + 1))
    return problem, grid, SchemeParams(sigma), y0, source, mu


@given(random_marches())
def test_every_march_level_matches_the_independent_step(case):
    # The march's step body sums the memory over the levels (L1Memory's
    # level form), folds the source into the far loads and solves in
    # place.  Each level it makes must be the level that assemble_step
    # (the increment form of split_implicit, and _step_rhs) and the dense
    # LU solve make from the levels before it, to 1e-12 of the level's
    # max norm (at most 1.3e-14 over these draws).  The blocks the folds
    # get as they are made are the history's final bytes.
    problem, grid, params, y0, source, mu = case
    blocks = []
    Y = march(problem, grid, params,
              lambda first, block: blocks.append(block.copy()), y0=y0).history
    assert len(Y) == grid.Nt + 1
    assert np.concatenate(blocks).tobytes() == Y.tobytes()
    assert replay_against_oracle(problem, grid, params, Y) is None


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
    Y = outcome.history
    assert replay_against_oracle(problem, grid, params, Y) == level


# ---------------------------------------------------------------------------
# the fused forms of the step
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha, beta", [(3.0, 2.0), (-2.0, -3.0)],
                         ids=["positive", "negative"])
@pytest.mark.parametrize("sigma", [1.0, 0.61, 0.0])
@pytest.mark.parametrize("N", [2, 3, 12, 150])
def test_a_banded_level_is_the_step_rhs_and_solve_byte_for_byte(N, sigma,
                                                                alpha, beta):
    # The banded loop fuses _step_rhs and StepOperator.solve.  From level
    # 0 the near memory sum is empty, so r is the load in the level's row;
    # level 2's r adds the near sum over level 1.  Each level is the solve
    # of _step_rhs's right-hand side, lifted by y_0 = alpha*y_N, byte for
    # byte.  N=2 takes band LU, the others LDL^T.
    problem, grid = build_manufactured(alpha, beta, 0.5), Grid(N=N, Nt=10)
    memory = L1Memory(problem.gamma, grid.tau, grid.Nt, N + 1)
    step = build_step(problem, grid, sigma, memory.c_new)
    rng = np.random.default_rng(N)
    H = memory.history
    H[0] = rng.uniform(-1.0, 1.0, N + 1)
    loads = rng.uniform(-1.0, 1.0, (2, N + 1))
    mu = rng.uniform(-1.0, 1.0, 2)
    H[1:3] = loads                  # as march leaves them
    advance, _ = stepper._banded_body(step, memory, alpha)
    advance(0, mu)
    for n, r in enumerate([loads[0], memory._d[-1:].dot(H[1:2]) + loads[1]]):
        level = np.empty(N + 1)
        step.operator.solve(_step_rhs(step, H[n], r, mu[n], np.empty(N)),
                            level[1:])
        level[0] = alpha * level[-1]
        assert level.tobytes() == H[n + 1].tobytes(), n


@pytest.mark.parametrize("sigma", [1.0, 0.5, 0.0])
@pytest.mark.parametrize("N", [2, 3, 20, 100])
def test_the_solution_map_is_the_step_rhs_and_solve_byte_for_byte(N, sigma):
    # The map's columns are one stacked _step_rhs of the unit inputs, the
    # calls r = e_j, mu = 1 and y^n = e_j one at a time, and the map is one
    # multi-column solve of them (a single-column dpttrs may differ in its
    # last bits), lifted by y_0 = alpha*y_N, byte for byte.  At sigma = 1
    # the columns of y^n are zero and are not solved for.
    problem, grid = build_manufactured(3.0, 2.0, 0.5), Grid(N=N, Nt=10)
    step, W = build_step(problem, grid, sigma, c_new=3.7), N + 1
    zero, units = np.zeros(W), np.eye(W)
    cols = np.column_stack(
        [_step_rhs(step, zero, e, 0.0, np.empty(N)) for e in units]
        + [_step_rhs(step, zero, zero, 1.0, np.empty(N))]
        + [_step_rhs(step, e, zero, 0.0, np.empty(N)) for e in units])
    k = W + 1 if sigma == 1.0 else 2 * W + 1
    assert not cols[:, k:].any()
    A = np.zeros((W, 2 * W + 1))
    step.operator.solve(cols[:, :k], A[1:, :k])
    A[0] = problem.alpha * A[-1]
    assert stepper._solution_map(step, problem.alpha).tobytes() == A.tobytes()


@pytest.mark.parametrize("sigma", [1.0, 0.5])
@pytest.mark.parametrize("N", [2, 3, 20, 100])
def test_a_product_level_is_the_solution_map_of_load_plus_near_sum(N, sigma):
    # The product body makes a level in two BLAS calls: the near product
    # takes the load in the level's row with a unit weight after d_0, and
    # the solution map multiplies (r, mu, y^n).  Each level equals
    # _solution_map(step, alpha) @ (row + near, mu, y^n), the near sum
    # d @ levels added to the load apart, to rounding of the terms.
    problem, grid = build_manufactured(3.0, 2.0, 0.5), Grid(N=N, Nt=10)
    memory = L1Memory(problem.gamma, grid.tau, grid.Nt, N + 1)
    step = build_step(problem, grid, sigma, memory.c_new)
    rng = np.random.default_rng(N)
    H, d, W = memory.history, memory._d, N + 1
    H[0] = rng.uniform(-1.0, 1.0, W)
    loads = rng.uniform(-1.0, 1.0, (6, W))
    mu = rng.uniform(-1.0, 1.0, 6)
    H[1:7] = loads                  # as march leaves them
    advance, B = stepper._step_body(step, memory, problem.alpha)
    assert B == _BLOCK
    advance(0, mu)
    A = stepper._solution_map(step, problem.alpha)
    for n in range(6):
        near = d[d.size - n:].dot(H[1:n + 1])
        x = np.concatenate((loads[n] + near, [mu[n]], H[n]))
        scale = np.abs(A) @ np.abs(x) + np.abs(A[:, :W]) @ (
            np.abs(d[d.size - n:]) @ np.abs(H[1:n + 1]))
        assert np.all(np.abs(A @ x - H[n + 1]) <= 1e-14 * scale), n


# ---------------------------------------------------------------------------
# the block propagator of narrow marches
# ---------------------------------------------------------------------------

def record_bodies(mp, bound):
    """Append to ``bound`` the body (``"block"``, ``"step"``, ``"banded"``)
    that each march binds, while ``mp`` holds."""
    for name in ("block", "step", "banded"):
        body = getattr(stepper, f"_{name}_body")
        mp.setattr(stepper, f"_{name}_body",
                   lambda *args, name=name, body=body: (
                       bound.append(name), body(*args))[1])
    return bound


@pytest.fixture
def bodies(monkeypatch):
    """The bodies the marches of a test bind (see :func:`record_bodies`)."""
    return record_bodies(monkeypatch, [])


def stepped_march(*args, **kwargs):
    """``march`` on the banded path, the oracle: both width cutoffs at 0."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stepper, "_PROPAGATE_WIDTH", 0)
        mp.setattr(stepper, "_PRODUCT_WIDTH", 0)
        return march(*args, **kwargs)


def smooth_march(draw, N, Nt):
    """A march of smooth data on N intervals and Nt steps, drawn by ``draw``.

    sigma is 0, the stability threshold, in (0, 1) or 1, and alpha and
    beta both lie in [0.1, 1] or in [1, 200]; the data are smooth in x and
    t/T.  The final time is halved until sigma is at least the threshold.
    """
    gamma = draw(st.floats(0.1, 0.9))
    low, high = draw(st.sampled_from([(0.1, 1.0), (1.0, 200.0)]))
    alpha, beta = draw(st.floats(low, high)), draw(st.floats(low, high))
    sigma = draw(st.one_of(st.sampled_from([0.0, 1.0, "threshold"]),
                           st.floats(0.0, 1.0)))
    T = 1.0
    if sigma == "threshold":
        sigma = min(max(sigma_threshold(gamma, 1.0 / N, T / Nt, math.e), 0.0),
                    1.0)
    while sigma_threshold(gamma, 1.0 / N, T / Nt, math.e) > sigma:
        T /= 2.0
    problem = Problem(gamma=gamma, alpha=alpha, beta=beta, k=np.exp,
                      f=lambda x, t: np.sin(3.0 * x) * (1.0 + t / T),
                      mu=lambda t: math.cos(t / T), u0=np.cos, c1=1.0,
                      c2=math.e)
    return problem, Grid(N=N, Nt=Nt, T=T), SchemeParams(sigma)


@st.composite
def narrow_marches(draw):
    """A march that takes the block propagator, and whether pieces come early.

    The width runs from 3 (N=2, whose one-row interior takes band LU) to
    the cutoff, and Nt from the fewest levels the propagator takes, 16
    per node, to 40 past the first data block of 256 levels, so the march
    crosses blocks of 16 levels and memory blocks of 64 and ends inside a
    block or on its edge; the data are :func:`smooth_march`'s.  With
    ``early`` the piece floor is lowered to one memory block, so FFT
    pieces of 64 levels and more feed the far loads of the blocks.
    """
    N = draw(st.integers(2, stepper._PROPAGATE_WIDTH - 1))
    fewest = stepper._PROPAGATE * (N + 1)
    Nt = draw(st.integers(fewest, max(fewest, 256) + 40))
    return (*smooth_march(draw, N, Nt), draw(st.booleans()))


@st.composite
def moderate_marches(draw):
    """A march that makes a level per product, when the propagator is off.

    The width runs from 3 to the product's cutoff, N=2 (band LU) and N=3
    (the smallest LDL^T interior) drawn on their own too, and Nt from 1
    to 40 past the first data block of 256 levels, so the march crosses
    memory blocks of 64; the data are :func:`smooth_march`'s.
    """
    N = draw(st.one_of(st.sampled_from([2, 3]),
                       st.integers(2, stepper._PRODUCT_WIDTH - 1)))
    return smooth_march(draw, N, draw(st.integers(1, 296)))


@settings(max_examples=30)
@given(narrow_marches())
def test_propagated_march_matches_the_stepped_march_and_the_oracle(case):
    # Every level the propagator makes is the banded path's level and the
    # level that assemble_step and the dense LU solve make from the levels
    # before it, each to 1e-12 of the level's max norm; every step's
    # residual against its own system stays at rounding level.
    problem, grid, params, early = case
    with pytest.MonkeyPatch.context() as mp:
        if early:
            mp.setattr(stepper, "_PIECE_MIN", _BLOCK)
            mp.setattr(stepper, "_PIECE_GROWTH", 0)
        bound = record_bodies(mp, [])
        outcome = march(problem, grid, params, check_residuals=True)
        assert bound == ["block"]
        stepped = stepped_march(problem, grid, params)
    Y, Z = outcome.history, stepped.history
    assert outcome.blow_up is None and stepped.blow_up is None
    top = np.max(np.abs(Z), axis=1)
    assert np.all(np.max(np.abs(Y - Z), axis=1) <= 1e-12 * top)
    assert replay_against_oracle(problem, grid, params, Y) is None
    assert max(outcome.per_step_residuals) <= 1e-11


@settings(max_examples=30)
@given(moderate_marches())
def test_product_march_matches_the_banded_march_and_the_oracle(case):
    # Every level that one product by the step's solution map makes is the
    # banded march's level and the level that assemble_step and the dense
    # LU solve make from the levels before it, each to 1e-12 of the level's
    # max norm; every step's residual stays at rounding level.
    problem, grid, params = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stepper, "_PROPAGATE_WIDTH", 0)
        bound = record_bodies(mp, [])
        outcome = march(problem, grid, params, check_residuals=True)
        assert bound == ["step"]
    stepped = stepped_march(problem, grid, params)
    Y, Z = outcome.history, stepped.history
    assert outcome.blow_up is None and stepped.blow_up is None
    top = np.max(np.abs(Z), axis=1)
    assert np.all(np.max(np.abs(Y - Z), axis=1) <= 1e-12 * top)
    assert replay_against_oracle(problem, grid, params, Y) is None
    assert max(outcome.per_step_residuals) <= 1e-11


def test_an_overflowing_solution_map_leaves_the_march_to_banded_solves(
        bodies):
    # Faces of 1e307 on 4 intervals at sigma = 0: the operator is finite,
    # but the explicit part of the step, 2*a_N/h^2 in the flux row,
    # overflows, so the solution map is not finite.  The march takes banded
    # solves, byte for byte the banded march, to the same blow-up.
    problem = dataclasses.replace(build_zero(), k=lambda x: np.full_like(
        x, 1e307), c1=1e307, c2=1e307)
    grid, params = Grid(N=4, Nt=20), SchemeParams(0.0)
    step = build_step(problem, grid, params.sigma, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(stepper._solution_map(step,
                                                     problem.alpha)).all()
    y0 = np.array([1.0, 0.5, -0.5, 0.25, 1.0])
    outcome = march(problem, grid, params, y0=y0)
    assert bodies == ["step", "banded"]
    stepped = stepped_march(problem, grid, params, y0=y0)
    assert outcome.blow_up == stepped.blow_up is not None
    assert outcome.history.tobytes() == stepped.history.tobytes()


@pytest.mark.parametrize("sigma, level", [(0.0, 54), (0.2, 182)])
def test_a_growing_propagated_march_blows_up_where_the_stepped_one_does(
        bodies, sigma, level):
    problem, grid = build_manufactured(3.0, 2.0, 0.5), Grid(N=16, Nt=500)
    outcome = march(problem, grid, SchemeParams(sigma), check_residuals=True)
    stepped = stepped_march(problem, grid, SchemeParams(sigma))
    assert bodies == ["block", "banded"]
    assert outcome.blow_up.level == stepped.blow_up.level == level
    assert outcome.blow_up.norm == pytest.approx(stepped.blow_up.norm,
                                                 rel=1e-6)
    assert len(outcome.per_step_residuals) == level
    assert len(outcome.history) == level + 1


def test_an_overflowing_propagator_leaves_the_march_to_the_stepped_path(
        bodies):
    # Faces of 1e30 at sigma = 0 grow a level about 1e33-fold per step:
    # the block's Green's function overflows, and the march takes banded
    # solves, byte for byte the banded march, to the same blow-up.
    problem = dataclasses.replace(build_zero(), k=lambda x: np.full_like(
        x, 1e30), c1=1e30, c2=1e30)
    grid, params = Grid(N=4, Nt=80), SchemeParams(0.0)
    y0 = np.array([1.0, 0.5, -0.5, 0.25, 1.0])
    outcome = march(problem, grid, params, y0=y0)
    assert bodies == ["block", "banded"]
    stepped = stepped_march(problem, grid, params, y0=y0)
    assert outcome.blow_up == stepped.blow_up and outcome.blow_up.level < 16
    assert outcome.history.tobytes() == stepped.history.tobytes()


def test_residuals_of_a_propagated_march_see_a_corrupted_level():
    # The residuals replay a finished history against right-hand sides
    # formed from its own levels.  With level 18 changed, step 17 (its
    # solution) and every later step (whose memory reads it, from 1e-4
    # down to 5e-10 at the last) show it; steps 0..16 do not read it.
    problem, grid = build_manufactured(3.0, 2.0, 0.5), Grid(N=8, Nt=300)
    params = SchemeParams(0.5)
    clean = march(problem, grid, params, check_residuals=True)
    assert max(clean.per_step_residuals) <= 1e-11
    Y = clean.history.copy()
    Y[18, 3] += 1e-3
    res = np.array(stepper._step_residuals(problem, grid, params, Y))
    assert res[:17].tobytes() == np.array(
        clean.per_step_residuals[:17]).tobytes()
    assert min(res[17:]) > 1e-10


@pytest.mark.parametrize("sigma", [1.0, 0.5])
def test_the_replay_is_the_residual_of_each_assembled_step(sigma):
    # The replay takes the weights and the increments once, from the last
    # step's; each step's residual is exactly that of the system that
    # assemble_step builds anew from the levels before it.
    problem, grid = build_manufactured(3.0, 2.0, 0.5), Grid(N=12, Nt=150)
    params = SchemeParams(sigma)
    outcome = march(problem, grid, params, check_residuals=True)
    Y = outcome.history
    systems = [assemble_step(problem, grid, params, Y[:n + 1])
               for n in range(grid.Nt)]
    assert outcome.per_step_residuals == [
        s.residual(s.rhs, Y[n + 1, 1:]) for n, s in enumerate(systems)]


@pytest.mark.parametrize("N, Nt, sigma, body, bound", [
    (60, 200, 0.5, "step", 1e-10), (16, 600, 0.5, "block", 1e-10),
    (300, 300, 1.0, "banded", 1e-11)])
def test_residuals_see_wrong_far_loads(monkeypatch, bodies, N, Nt, sigma,
                                       body, bound):
    # The far loads are the memory's alone: it writes them into the rows
    # of the levels they load, and the march adds the source to them there
    # for the body.  Scaled by 1 + 1e-6 in place, they move the levels,
    # and the replay, whose loads share no code with L1Memory, shows it on
    # every body (worst residual 2.2e-9, 4.6e-8 and 5.4e-11).
    problem, grid = build_manufactured(3.0, 2.0, 0.5), Grid(N=N, Nt=Nt)
    params = SchemeParams(sigma)
    clean = march(problem, grid, params, check_residuals=True)
    assert max(clean.per_step_residuals) <= 1e-11
    far_loads = L1Memory._far_loads

    def wrong_far_loads(memory, n0, rows=_BLOCK):
        far_loads(memory, n0, rows)
        memory.history[n0 + 1:n0 + 1 + rows] *= 1 + 1e-6

    monkeypatch.setattr(L1Memory, "_far_loads", wrong_far_loads)
    res = march(problem, grid, params, check_residuals=True).per_step_residuals
    assert bodies == [body, body]
    assert max(res) > bound


@pytest.mark.parametrize("sigma", [1.0, 0.5])
def test_residuals_see_a_wrong_fft_piece(monkeypatch, made_pieces, sigma):
    # With the floor lowered to one block, the piece made at level 192
    # adds the terms of the levels [128, 192) to the far loads of levels
    # 193..256.  With what it adds scaled by 1 + 1e-6, the steps that make
    # those levels show it (above 4e-10), and no other step does.
    monkeypatch.setattr(stepper, "_PIECE_MIN", _BLOCK)
    monkeypatch.setattr(stepper, "_PIECE_GROWTH", 0)
    add_piece = L1Memory._add_piece

    def wrong_piece(memory, L):
        rows = memory.history[L + 1:L + 1 + (L & -L)]
        before = rows.copy()
        add_piece(memory, L)
        if L == 192:
            rows[:] = before + (rows - before) * (1 + 1e-6)

    monkeypatch.setattr(L1Memory, "_add_piece", wrong_piece)
    problem, params = build_manufactured(3.0, 2.0, 0.5), SchemeParams(sigma)
    res = np.array(march(problem, Grid(N=12, Nt=300), params,
                         check_residuals=True).per_step_residuals)
    assert made_pieces == [64, 128, 192]
    assert min(res[192:256]) > 1e-11
    assert max(res[:192]) <= 1e-11 and max(res[256:]) <= 1e-11


def test_stepped_residuals_see_a_wrong_fused_right_hand_side(monkeypatch):
    # Both stepped bodies fuse their own right-hand side: the banded one in
    # its loop, the product one in its solution map.  Bound to a step
    # whose flux weight is off by 1e-6, each makes levels that its own
    # right-hand side accepts; the residuals, replayed against the oracle
    # right-hand side of a step built anew, show every step whose old
    # level has a flux.
    problem, grid = build_manufactured(3.0, 2.0, 0.5), Grid(N=60, Nt=200)
    params = SchemeParams(0.5)
    for clean in (march(problem, grid, params, check_residuals=True),
                  stepped_march(problem, grid, params, check_residuals=True)):
        assert max(clean.per_step_residuals) <= 1e-11
    for name in ("_step_body", "_banded_body"):
        monkeypatch.setattr(stepper, name, lambda step, *args, body=getattr(
            stepper, name): body(dataclasses.replace(
                step, flux_N=step.flux_N * (1 + 1e-6)), *args))
    for width in (stepper._PRODUCT_WIDTH, 0):
        monkeypatch.setattr(stepper, "_PRODUCT_WIDTH", width)
        res = march(problem, grid, params,
                    check_residuals=True).per_step_residuals
        assert len(res) == grid.Nt and min(res[1:]) > 1e-10


@pytest.mark.parametrize("N, Nt, rows, body", [
    (300, 500, _BLOCK, "banded"), (60, 600, _BLOCK, "step"),
    (16, 600, stepper._PROPAGATE, "block")],
    ids=["straddled", "aligned", "propagated"])
def test_each_body_block_takes_its_far_loads_once(monkeypatch, bodies, N,
                                                  Nt, rows, body):
    # At N=300 the data blocks of 217 levels start inside the memory blocks
    # of 64, at N=60 they hold four whole ones, and at N=16 the propagated
    # blocks of 16 levels: every march takes a block's far loads exactly
    # once, at its first level, for the body's rows.  An FFT piece is made
    # only when the far loads are taken at its level.
    calls, far_loads = [], L1Memory._far_loads

    def spy(memory, n0, count=_BLOCK):
        calls.append((n0, count))
        far_loads(memory, n0, count)

    monkeypatch.setattr(L1Memory, "_far_loads", spy)
    outcome = march(build_manufactured(3.0, 2.0, 0.5), Grid(N=N, Nt=Nt),
                    SchemeParams(1.0))
    assert outcome.blow_up is None
    assert bodies == [body]
    assert calls == [(n0, rows) for n0 in range(0, Nt, rows)]


@pytest.mark.parametrize("cutoff, offset, body", [
    pytest.param("_PROPAGATE_WIDTH", offset, body, id=f"{offset}-{body}")
    for offset, body in [(-1, "block"), (0, "block"), (1, "step")]] + [
    pytest.param("_PRODUCT_WIDTH", offset, body,
                 id=f"product{offset:+d}-{body}")
    for offset, body in [(-1, "step"), (0, "step"), (1, "banded")]])
def test_the_width_cutoff_picks_the_path(bodies, cutoff, offset, body):
    # Widths up to the propagator's cutoff take it when the march has at
    # least 16 levels per node, and make a level per product otherwise, up
    # to the product's cutoff; wider marches take banded solves.
    width = getattr(stepper, cutoff) + offset
    fewest = stepper._PROPAGATE * width
    problem = build_manufactured(3.0, 2.0, 0.5)
    march(problem, Grid(N=width - 1, Nt=fewest), SchemeParams(1.0))
    march(problem, Grid(N=width - 1, Nt=fewest - 1), SchemeParams(1.0))
    assert bodies == [body, "step" if body == "block" else body]


def test_cached_memory_weights_are_contiguous_tails(monkeypatch):
    # Every weight array the far loads multiply by is C-contiguous: a
    # reversed view makes the product about 30 times slower.  The near
    # weights of level n+1, on the levels from the block's first (from 1
    # in the first block) to n, are a contiguous tail of the memory's
    # differences, as the step body takes them, and equal those of
    # ``l1_weights(n, ...).c``.
    gamma, tau, Nt, width = 0.3, 0.01, 2 * _BLOCK + 5, 5
    memory = L1Memory(gamma, tau, Nt, width)
    memory.history[:] = np.arange(Nt + 1.0)[:, None]     # increments of 1
    seen, matmul = [], np.matmul

    def spy(a, b, *args, **kwargs):
        seen.append(a.flags.c_contiguous)
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    for n0 in range(0, Nt, _BLOCK):
        del seen[:]
        memory._far_loads(n0)
        assert seen and all(seen)
    d = memory._d
    for n in range(Nt):
        lo = max(n - n % _BLOCK, 1)
        near = d[d.size - 1 - n + lo:]
        assert near.flags.c_contiguous
        assert np.array_equal(near,
                              np.diff(l1_weights(n, gamma, tau).c)[lo - 1:])


def blocked_load_error(gamma, tau, Nt, width, seed):
    """Worst error of the blocked far loads against the unblocked contraction.

    The levels are a random walk, written into the memory's history in
    order, as the march does; at every level n the load, the far row that
    ``_far_loads`` wrote into n's row of the history at the first level of
    n's block (copied before the levels overwrite it) plus a plain
    contraction of the near levels with the independent weights ``c =
    l1_weights(n, gamma, tau).c``, must equal the increment form
    ``c[:-1] @ inc[:n] - c_new*y^n``, with the increments taken here, to
    1e-13 relative to the sum of the magnitudes of the terms of both
    forms.  The history's rows past n hold NaN, so far loads that read
    them would show.
    """
    rng = np.random.default_rng(seed)
    memory = L1Memory(gamma, tau, Nt, width)
    memory.history[:] = np.nan
    levels = np.cumsum(rng.uniform(-1.0, 1.0, (Nt, width)), axis=0)
    inc = np.diff(levels, axis=0)
    worst = 0.0
    for n in range(Nt):
        c = l1_weights(n, gamma, tau).c
        assert c[-1] == memory.c_new
        w = c[:-1]
        expected = w @ inc[:n] - memory.c_new * levels[n]
        scale = (np.abs(w) @ np.abs(inc[:n])
                 + memory.c_new * np.abs(levels[n])      # increment form
                 + np.abs(np.diff(c)) @ np.abs(levels[1:n + 1])
                 + c[0] * np.abs(levels[0]))             # level form
        memory.history[n] = levels[n]
        j = n % _BLOCK
        if j == 0:
            memory._far_loads(n)
            far = memory.history[n + 1:n + 1 + _BLOCK].copy()
        lo = max(n - j, 1)
        got = -(far[j] + np.diff(c)[lo - 1:] @ levels[lo:n + 1])
        # np.maximum, not max: a NaN error must not be passed over
        worst = np.maximum(worst, np.max(np.abs(got - expected) / scale))
    return float(worst)


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


def far_rows_error(gamma, tau, Nt, width, seed, floor=None):
    """Worst error of the far loads against the plain product, and pieces.

    The levels are a random walk, written into the memory's history a
    block at a time, as the march makes them; at the first level n0 of
    every block the far loads that ``_far_loads`` writes into the block's
    rows of the history must equal ``W @ history[:n0]`` (level 0
    alone in the first block), W row j holding the weights of level
    n0+j+1 from the independent ``l1_weights``: c_n on level 0, d_{n-l}
    on level l.  A level 0 taken into an FFT piece would be weighed by d,
    not c.  The error is relative to the summed magnitudes of the terms,
    as in ``blocked_load_error``.  The rows past n0 start as NaN, so a
    piece that read a level before it is made, or added to a row no piece
    assigned, would show.  ``floor`` replaces the memory's piece floor.
    Returns the error and the levels at which pieces were made.
    """
    rng = np.random.default_rng(seed)
    memory = L1Memory(gamma, tau, Nt, width)
    if floor is not None:
        memory._floor = floor
    memory.history[:] = np.nan
    levels = np.cumsum(rng.uniform(-1.0, 1.0, (Nt, width)), axis=0)
    c = l1_weights(Nt - 1, gamma, tau).c[::-1]      # c_k in c[k]
    d = c[:-1] - c[1:]
    worst, pieces, add_piece = 0.0, [], memory._add_piece
    memory._add_piece = lambda L: (pieces.append(L), add_piece(L))
    for n0 in range(0, Nt, _BLOCK):
        memory.history[:n0 + 1] = levels[:n0 + 1]
        memory._far_loads(n0)
        far = memory.history[n0 + 1:n0 + 1 + _BLOCK]
        n = np.arange(n0, n0 + len(far))[:, None]
        W = np.column_stack((c[n], d[n - np.arange(1, max(n0, 1))]))
        expected = W @ levels[:max(n0, 1)]
        scale = np.abs(W) @ np.abs(levels[:max(n0, 1)])
        worst = np.maximum(worst, np.max(np.abs(far - expected) / scale))
    return float(worst), pieces


@st.composite
def piece_edges(draw):
    """(Nt, width, floor): Nt at 2S-1, 2S or 2S+1 for a scale S, or one
    level short of or at the floor of a piece's levels in the march.  The
    floor is lowered to one or two blocks, or is the memory's own (None),
    512 levels up to 64 nodes and 516.0 at 65."""
    width = draw(st.integers(3, 65))
    floor = draw(st.sampled_from([_BLOCK, 2 * _BLOCK, None]))
    edge = math.ceil(floor or max(stepper._PIECE_MIN,
                                  stepper._PIECE_GROWTH * math.sqrt(width)))
    S = (floor or stepper._PIECE_MIN) << draw(st.integers(0, 2))
    if draw(st.booleans()):
        Nt = 2 * S + draw(st.integers(-1, 1))
    else:                       # the piece made at level S or 3S
        Nt = S * draw(st.sampled_from([1, 3])) + edge + draw(st.integers(-1, 0))
    return Nt, width, floor


@settings(max_examples=30)
@given(piece_edges(), st.floats(0.05, 0.95), st.floats(1e-4, 1.0),
       st.integers(0, 2**16))
def test_far_loads_with_fft_pieces_match_the_plain_product(edge, gamma, tau,
                                                            seed):
    Nt, width, floor = edge
    assert far_rows_error(gamma, tau, Nt, width, seed, floor)[0] <= 1e-13


@pytest.mark.parametrize("Nt, pieces", [(2048 + 1146, []),
                                        (2048 + 1147, [2048])])
def test_a_wide_grid_takes_a_piece_from_its_floor(Nt, pieces):
    # At 321 nodes the floor is 64*sqrt(321) = 1146.6 levels: the piece
    # of scale 2048 is taken once 1147 of its levels lie in the march.
    worst, made = far_rows_error(0.5, 0.01, Nt, 321, seed=Nt)
    assert made == pieces
    assert worst <= 1e-13


@pytest.fixture
def made_pieces(monkeypatch):
    """The levels at which the marches of a test make FFT pieces."""
    made, add_piece = [], L1Memory._add_piece
    monkeypatch.setattr(L1Memory, "_add_piece", lambda self, L: (
        made.append(L), add_piece(self, L)))
    return made


def test_a_march_with_no_piece_is_the_march_without_the_fft(monkeypatch,
                                                             made_pieces):
    # The N=320 march of 2,189 steps takes no piece: its far loads are
    # the blocked product alone, byte for byte.
    problem, grid = build_manufactured(3.0, 2.0, 0.5), Grid.balanced(320, 0.5)
    params = SchemeParams(1.0)
    Y = march(problem, grid, params).history
    assert made_pieces == []
    monkeypatch.setattr(stepper, "_PIECE_MIN", math.inf)
    assert march(problem, grid, params).history.tobytes() == Y.tobytes()


@pytest.mark.parametrize("grid, sigma", [
    (Grid(N=12, Nt=300), 1.0), (Grid(N=12, Nt=300), 0.5),
    (Grid(N=300, Nt=230), 1.0)],
    ids=["sigma-1", "sigma-0.5", "interleaved-blocks"])
def test_march_with_pieces_at_every_scale_matches_per_step_oracle(
        monkeypatch, made_pieces, grid, sigma):
    # With the floor lowered to one block, pieces of scales 64, 128 and
    # 256 are made; at N=300 the data blocks of 218 levels start inside
    # memory blocks, so the source is added to far loads that pieces made.
    monkeypatch.setattr(stepper, "_PIECE_MIN", _BLOCK)
    monkeypatch.setattr(stepper, "_PIECE_GROWTH", 0)
    problem, params = build_manufactured(3.0, 2.0, 0.5), SchemeParams(sigma)
    outcome = march(problem, grid, params)
    assert made_pieces == [L for L in (64, 128, 192, 256)
                           if L + _BLOCK <= grid.Nt]
    assert outcome.blow_up is None
    assert replay_against_oracle(problem, grid, params, outcome.history) is None


def test_long_march_with_pieces_allocates_little_beyond_its_history(
        made_pieces):
    # The N=16 stability march of 4,000 steps makes FFT pieces of scales
    # 512 to 2048, over column chunks: it allocates at most about 1 MB
    # beyond its 0.54 MB level history.  A piece copied whole, as the
    # transform of all its columns at once, would add several times that
    # on wide grids.
    problem, grid = build_zero(2.0, 3.0, 0.5), Grid(N=16, Nt=4000)
    y0 = np.random.default_rng(4).uniform(-1.0, 1.0, grid.N + 1)
    y0[0] = problem.alpha * y0[-1]
    sigma = sigma_threshold(0.5, grid.h, grid.tau, problem.c2)
    march(problem, grid, SchemeParams(sigma), y0=y0)    # numpy.fft loaded
    tracemalloc.start()
    try:
        outcome = march(problem, grid, SchemeParams(sigma), y0=y0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome.blow_up is None
    assert sorted(set(made_pieces)) == [512, 1024, 1536, 2048, 2560, 3072]
    assert peak - outcome.history.nbytes < 1.0e6


def test_the_first_piece_loads_numpy_fft(run_fresh):
    # numpy 2 loads numpy.fft on first use: a march with no piece (at
    # N=8, 488 levels follow the 512-level piece) leaves it unloaded.
    done = run_fresh(
        "import sys\n"
        "import numpy\n"
        "eager = 'numpy.fft' in sys.modules\n"
        "from fracheat.core import Grid, SchemeParams\n"
        "from fracheat.manufactured import build_manufactured\n"
        "from fracheat.stepper import march\n"
        "problem = build_manufactured(3.0, 2.0, 0.9)\n"
        "march(problem, Grid(N=8, Nt=1000), SchemeParams(1.0))\n"
        "assert eager or 'numpy.fft' not in sys.modules\n"
        "march(problem, Grid(N=8, Nt=1024), SchemeParams(1.0))\n"
        "assert 'numpy.fft' in sys.modules\n")
    assert done.returncode == 0, done.stderr


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
        "assert stepper.lapack.dpttrf is lapack.dpttrf\n"
        "assert stepper.lapack.dpttrs is lapack.dpttrs\n"
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


def test_march_levels_satisfy_value_coupling(bodies):
    # The banded and the propagated bodies set y_0 = alpha*y_N, so their
    # levels hold it bit for bit.  A product level takes y_0 from row 0 of
    # the solution map, alpha times its row N, so it holds to rounding: a
    # few ulps, on most levels.
    problem = build_manufactured(3.0, 2.0, 0.5)
    for sigma in (1.0, 0.5):
        for run, N in ((stepped_march, 60), (march, 60), (march, 16)):
            Y = run(problem, Grid(N=N, Nt=600), SchemeParams(sigma)).history
            if bodies[-1] == "step":
                assert np.allclose(Y[1:, 0], 3.0 * Y[1:, -1], rtol=1e-13,
                                   atol=1e-13)
            else:
                assert np.array_equal(Y[1:, 0], 3.0 * Y[1:, -1])
    assert bodies == ["banded", "step", "block"] * 2


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
    # are views of the memory's history, which the same call returns, with
    # one residual per step when it checks them.
    rows = block_levels(N + 1)
    grid = Grid(N=N, Nt=max(1, blocks * rows + offset))
    problem = build_manufactured(3.0, 2.0, 0.5)
    if unstable:
        problem = source_turning(data.draw(st.sampled_from([1e200, math.nan])),
                                 data.draw(st.integers(1, grid.Nt)), grid)
    params, check = SchemeParams(sigma), data.draw(st.booleans())
    firsts, kept = [], []

    def keep(first, block):
        assert block.base.shape == (grid.Nt + 1, N + 1)   # the history
        firsts.append(first)
        kept.append(block.copy())

    outcome = march(problem, grid, params, keep, check_residuals=check)
    assert np.concatenate(kept).tobytes() == outcome.history.tobytes()
    assert firsts == [0] + list(np.cumsum([len(b) for b in kept])[:-1])
    assert 1 <= len(kept[0]) <= rows + 1
    assert all(1 <= len(b) <= rows for b in kept[1:])
    assert outcome.blow_up is None or unstable
    residuals = outcome.per_step_residuals
    assert (residuals is None if not check
            else len(residuals) == len(outcome.history) - 1)


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
        outcome = march(problem, grid, SchemeParams(1.0), fold("a"),
                        fold("b"))
    assert outcome.blow_up is None
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
        march(problem, grid, SchemeParams(1.0), fail_second,
              lambda first, block: calls.append(("after", first)))
    assert calls == [("fail", 0), ("after", 0), ("fail", 257)]


def test_wide_march_samples_its_data_in_small_blocks():
    # The level history takes 13.0 MB; a block of 64 levels of f, with its
    # temporaries, would add about 30 MB.  The far loads are written into
    # the history's rows, so they take no memory of their own: the march
    # peaks at 17.9 MB (28.8 MB when they were a 64 x 20,001 array apart).
    problem = build_manufactured(3.0, 2.0, 0.5)
    grid = Grid(N=20_000, Nt=80)
    tracemalloc.start()
    try:
        outcome = march(problem, grid, SchemeParams(1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome.blow_up is None
    assert peak < 22e6


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
