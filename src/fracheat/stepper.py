"""Per-step assembly and time marching of the weighted difference scheme.

Each time step solves a linear system for the new level.  After the
value coupling y_0 = alpha*y_N eliminates the left endpoint, the system
over y_1..y_N is tridiagonal except for a corner coefficient on y_N in
the first row and the last row (the discretised flux coupling), which
touches columns 1, N-1 and N.  It is solved in O(N) by superposition:
banded LAPACK factors the tridiagonal interior block, and a scalar
closure of the flux row gives y_N.

The scheme has constant coefficients in time, so what depends only on x
is done once per march: :class:`StepOperator` builds and factors the
matrix, :class:`L1Memory` takes its L1 weights from one evaluation and
sums the memory exactly, blocked over levels, and a
:class:`~fracheat.core.NodeSampler` holds the source on the nodes, so
separable data (:class:`~fracheat.core.Separable`) have their space
factors sampled once and each step evaluates only the time factors.  A
step then costs its right-hand side, the memory load and one banded
back-substitution, and writes its level in place into one
``(Nt+1, N+1)`` array.

:func:`assemble_step` is the one-shot form of a step, recomputing the
memory term from a level array; a dense LU solve of the same system
is kept as a test oracle, and the march can optionally record the
relative residual of every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import lapack

from .core import (
    DimensionError,
    DomainError,
    Grid,
    NodeSampler,
    Problem,
    SchemeParams,
    face_coefficients,
    sample_space,
    sample_space_time,  # noqa: F401  (looked up here by benchmarks/spans.py)
)
from .fractional import l1_weights, split_implicit

__all__ = [
    "AssemblyError",
    "SingularSystemError",
    "StepOperator",
    "StepSystem",
    "L1Memory",
    "BlowUp",
    "SolveOutcome",
    "BLOWUP_LIMIT",
    "assemble_step",
    "solve_bordered",
    "solve_dense_oracle",
    "step_residual",
    "march",
]

# A level whose max norm exceeds this (or contains non-finite entries)
# stops the march; instabilities are reported, not crashed on.
BLOWUP_LIMIT = 1e100

# The closure pivot is treated as zero when it is within this many ulps
# of the terms it was computed from.
_CLOSURE_ULPS = 64.0

# Levels per block of the memory sum (see L1Memory): the far part of a
# block's loads is a product of a _BLOCK-row weight slice with the
# increment history, taken _SPAN increments at a time.  A _SPAN-wide
# slice of the weights (256 KB) and of a history 321 nodes wide (1.3 MB)
# fit a 2 MB L2 cache together, and the copied slice does not grow with Nt.
_BLOCK = 64
_SPAN = 512


class AssemblyError(ValueError):
    """The assembled system is structurally unusable (zero diagonal)."""


class SingularSystemError(RuntimeError):
    """The linear system has no usable pivot."""


@dataclass(frozen=True)
class StepOperator:
    """Matrix of one time step over the unknowns y_1..y_N.

    ``lower``, ``diag``, ``upper`` hold the bands of the N-1 interior
    rows (``lower[0]`` is unused; ``upper[-1]`` couples the last interior
    row to y_N).  ``corner`` is the extra y_N coefficient in the first
    row produced by eliminating y_0 = alpha*y_N.  ``last_row`` holds the
    flux-row coefficients on columns y_1, y_{N-1}, y_N.

    The matrix is factored on the first :meth:`solve` and the factors
    are reused by every later one.
    """

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    corner: float
    last_row: tuple[float, float, float]

    def __post_init__(self) -> None:
        if np.any(self.diag == 0.0):
            i = int(np.where(self.diag == 0.0)[0][0])
            raise AssemblyError(f"zero diagonal in interior row {i + 1}")

    @cached_property
    def _factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """LU of the interior block T, v = T^{-1} g and the closure pivot.

        g collects the border couplings of the interior rows to y_N (the
        corner plus the natural last band entry).  The flux row then
        closes the scalar equation denom*y_N = rhs_N - b1*u_0 - bNm1*u_{m-1}
        with u = T^{-1} rhs, and the interior follows as u - y_N*v.
        """
        m = self.diag.size
        ab = np.zeros((4, m))           # dgbtrf layout, kl = ku = 1
        ab[1, 1:] = self.upper[:-1]
        ab[2] = self.diag
        ab[3, :-1] = self.lower[1:]
        lu, piv, info = lapack.dgbtrf(ab, 1, 1)
        if info > 0:
            raise SingularSystemError(
                f"zero pivot in interior row {info} of the banded factorisation"
            )
        g = np.zeros(m)
        g[0] += self.corner
        g[m - 1] += self.upper[m - 1]
        v, _ = lapack.dgbtrs(lu, 1, 1, g, piv)

        b1, bNm1, bN = self.last_row
        with np.errstate(over="ignore", invalid="ignore"):
            denom = bN - b1 * v[0] - bNm1 * v[m - 1]
            scale = abs(bN) + abs(b1 * v[0]) + abs(bNm1 * v[m - 1])
        # Written so that a NaN or infinite pivot counts as singular too.
        if not abs(denom) > _CLOSURE_ULPS * np.finfo(float).eps * scale:
            raise SingularSystemError(
                f"flux-row closure (row {m + 1}) is singular "
                f"(pivot {denom:.3e}, row scale {scale:.3e})"
            )
        return lu, piv, v, float(denom)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve the system for one right-hand side of length N."""
        lu, piv, v, denom = self._factors
        m = v.size
        u, _ = lapack.dgbtrs(lu, 1, 1, rhs[:m], piv)
        b1, bNm1, _ = self.last_row
        yN = (rhs[m] - b1 * u[0] - bNm1 * u[m - 1]) / denom
        sol = np.empty(m + 1)
        sol[:m] = u - yN * v
        sol[m] = yN
        return sol

    def with_rhs(self, rhs: np.ndarray) -> "StepSystem":
        """The step system of this matrix and a right-hand side."""
        return StepSystem(lower=self.lower, diag=self.diag, upper=self.upper,
                          corner=self.corner, last_row=self.last_row, rhs=rhs)


@dataclass(frozen=True)
class StepSystem(StepOperator):
    """Linear system of one time step: a :class:`StepOperator` plus its load.

    ``rhs`` has length N with the flux-row load in its final entry.
    """

    rhs: np.ndarray


@dataclass(frozen=True)
class BlowUp:
    """Record of a level that is non-finite (norm inf) or too large."""

    level: int
    norm: float


@dataclass(frozen=True)
class SolveOutcome:
    """Result of a march: its levels, optional blow-up, optional residuals.

    ``history`` holds the levels produced, row n holding level n; after a
    blow-up its last row is the offending level.
    """

    history: np.ndarray
    blow_up: Optional[BlowUp] = None
    per_step_residuals: Optional[list[float]] = None


class L1Memory:
    """Discrete Caputo memory of a march with ``Nt`` steps.

    At level n+1 the operator sum_{s<=n} c[s]*(y^{s+1} - y^s), whose
    newest weight is c[n] = c_new, splits as c_new*y^{n+1} + load with

        load = sum_{s<n} c[s]*(y^{s+1} - y^s) - c_new*y^n.

    The weights of every level are tails of one array, computed once and
    kept newest-last and contiguous: a reversed view would make the
    contraction an order of magnitude slower.  Increments are stored as
    each level is produced (:meth:`push`).

    The sum is exact and blocked over levels.  At the first level n0 of
    each block of ``_BLOCK`` levels, the *far* part of the next loads,
    the terms of every increment older than n0, is the matrix product
    ``W @ inc[:n0]`` whose row j holds the weights of level n0+j+1 on
    those increments.  W is a Toeplitz slice of the weights: its rows
    overlap in memory, and BLAS takes no such view without a slow
    fallback, so W is copied C-contiguous once per block, ``_SPAN``
    columns at a time.  Each step then adds only its *near* part, the
    at most ``_BLOCK - 1`` increments since n0.  The history of
    increments is thus streamed from memory once per block instead of
    once per level.  The first block has no far part, so marches of at most
    ``_BLOCK`` steps sum exactly as one contraction per level does;
    later loads differ from it by rounding only.
    """

    def __init__(self, gamma: float, tau: float, Nt: int, width: int):
        self._c = l1_weights(Nt - 1, gamma, tau).c
        self.c_new = float(self._c[-1])
        self._inc = np.empty((Nt, width))
        self._far = np.empty((0, width))
        self._count = 0

    def weights(self, n: int) -> np.ndarray:
        """The L1 weights of level n+1, equal to ``l1_weights(n, ...).c``."""
        return self._c[self._c.size - 1 - n:]

    def load(self, yn: np.ndarray) -> np.ndarray:
        """Memory load of the next level, given the newest level y^n."""
        n = self._count
        if n == 0:
            return -self.c_new * yn
        j = n % _BLOCK
        if j == 0:
            self._far = self._far_loads(n)
        total = self.weights(j)[:-1] @ self._inc[n - j:n]
        if n >= _BLOCK:
            total += self._far[j]
        return total - self.c_new * yn

    def _far_loads(self, n0: int) -> np.ndarray:
        """Far parts of the loads of the block starting at level n0.

        Row j is ``weights(n0 + j)[:n0] @ inc[:n0]``, for the levels of
        the block that the march can reach.  The weight slice is copied
        ``_SPAN`` increments at a time, so the copy stays small however
        long the march is.
        """
        last = self._c.size - 1
        rows = min(_BLOCK, last + 1 - n0)
        top = last - n0 + 1 - rows
        far = np.zeros((rows, self._inc.shape[1]))
        for k in range(0, n0, _SPAN):
            m = min(_SPAN, n0 - k)
            windows = sliding_window_view(self._c[:last], m)
            W = np.ascontiguousarray(windows[top + k:top + k + rows][::-1])
            far += W @ self._inc[k:k + m]
        return far

    def push(self, new: np.ndarray, old: np.ndarray) -> None:
        """Record the increment of a newly produced level."""
        np.subtract(new, old, out=self._inc[self._count])
        self._count += 1


def _step_operator(problem: Problem, grid: Grid, sigma: float,
                   face: np.ndarray, c_new: float) -> StepOperator:
    """Matrix of a step; ``c_new`` weighs the new level in the memory term.

    Interior rows encode c_new*y_i - sigma*(a*y_xbar)_{x,i}; the flux row
    encodes beta*D(y)_0 + D(y)_N + (2/h)*sigma*(a_N*y_xbar_N - beta*a_1*y_x_0)
    with y_0 = alpha*y_N.
    """
    N, h = grid.N, grid.h
    alpha, beta = problem.alpha, problem.beta
    h2 = h * h
    a_left = face[:-1]            # a_i   for rows i = 1..N-1
    a_right = face[1:]            # a_i+1
    lower = np.zeros(N - 1)
    a1, aN = face[0], face[-1]
    with np.errstate(over="ignore", invalid="ignore"):   # checked below
        lower[1:] = -sigma * a_left[1:] / h2
        diag = c_new + sigma * (a_left + a_right) / h2
        upper = -sigma * a_right / h2
        corner = -sigma * alpha * face[0] / h2
        b1 = -sigma * 2.0 * beta * a1 / h2
        bNm1 = -sigma * 2.0 * aN / h2
        bN = (c_new * (1.0 + alpha * beta)
              + sigma * 2.0 * aN / h2
              + sigma * 2.0 * beta * a1 * alpha / h2)
    if not np.isfinite(np.concatenate(
            (lower, diag, upper, [corner, b1, bNm1, bN]))).all():
        raise DomainError(f"the step operator overflows for alpha={alpha}, "
                          f"beta={beta}, sigma={sigma} on {N} intervals")
    return StepOperator(lower=lower, diag=diag, upper=upper, corner=corner,
                        last_row=(b1, bNm1, bN))


def _step_rhs(problem: Problem, grid: Grid, sigma: float, face: np.ndarray,
              source: NodeSampler, n: int, yn: np.ndarray,
              load: np.ndarray) -> np.ndarray:
    """Right-hand side of the step from level n (``yn``) to level n+1.

    ``source`` samples ``problem.f`` on the nodes of ``grid``; a march
    builds it once, so separable data cost only their time factors.

    Interior rows carry f(x_i, t_n + sigma*tau) + (1-sigma)*(a*y_xbar)_{x,i}^n
    - load_i, where ``load`` is the memory load at every node; the flux row
    carries (2/h)*mu + phi_N + beta*phi_0, the memory loads of both
    endpoints and the explicit part of both fluxes.
    """
    h, beta = grid.h, problem.beta
    h2 = h * h
    t_sigma = (n + sigma) * grid.tau
    phi = source.at(t_sigma)
    a_left = face[:-1]
    a_right = face[1:]
    rhs = np.empty(grid.N)
    second = (a_right * yn[2:] - (a_left + a_right) * yn[1:-1]
              + a_left * yn[:-2]) / h2
    rhs[:-1] = phi[1:-1] - load[1:-1] + (1.0 - sigma) * second

    a1, aN = face[0], face[-1]
    rhs[-1] = (2.0 / h * problem.mu(t_sigma) + phi[-1] + beta * phi[0]
               - beta * load[0] - load[-1]
               - (1.0 - sigma) * 2.0 * aN / h2 * (yn[-1] - yn[-2])
               + (1.0 - sigma) * 2.0 * beta * a1 / h2 * (yn[1] - yn[0]))
    return rhs


def assemble_step(problem: Problem, grid: Grid, params: SchemeParams,
                  levels, face: np.ndarray | None = None) -> StepSystem:
    """Assemble the linear system advancing a level array by one level.

    ``levels`` has shape ``(n+1, N+1)``, row s holding level s; the
    system produces level n+1.  Interior rows encode

        c_new*y_i - sigma*(a*y_xbar)_{x,i} =
            f(x_i, t_n + sigma*tau) + (1-sigma)*(a*y_xbar)_{x,i}^n - load_i

    where (c_new, load) split the discrete Caputo operator at the new
    level; the last row encodes the flux coupling with the memory terms
    of both endpoints split the same way.  The memory load is recomputed
    here from all the levels by :func:`split_implicit`, independently of
    :class:`L1Memory`.
    """
    Y = np.asarray(levels, dtype=float)
    if Y.ndim != 2 or Y.shape[0] < 1 or Y.shape[1] != grid.N + 1:
        raise DimensionError(
            f"levels have shape {Y.shape}, expected (n+1, {grid.N + 1})"
        )
    n = Y.shape[0] - 1
    if face is None:
        face = face_coefficients(problem, grid)
    c_new, load = split_implicit(Y, problem.gamma, grid.tau)
    operator = _step_operator(problem, grid, params.sigma, face, c_new)
    source = NodeSampler(problem.f, grid.x)
    return operator.with_rhs(
        _step_rhs(problem, grid, params.sigma, face, source, n, Y[n], load))


def solve_bordered(system: StepSystem) -> np.ndarray:
    """Solve the step system in O(N) by superposition (see StepOperator).

    Raises
    ------
    SingularSystemError
        If the interior block has an exactly zero pivot, or the closure
        pivot is at roundoff level relative to the terms it is built from.
    """
    return system.solve(system.rhs)


def _dense_matrix(system: StepOperator) -> np.ndarray:
    N = system.diag.size + 1
    A = np.zeros((N, N))
    for j in range(N - 1):
        if j > 0:
            A[j, j - 1] += system.lower[j]
        A[j, j] += system.diag[j]
        A[j, j + 1] += system.upper[j]
    A[0, N - 1] += system.corner
    b1, bNm1, bN = system.last_row
    A[N - 1, 0] += b1
    A[N - 1, N - 2] += bNm1
    A[N - 1, N - 1] += bN
    return A


def solve_dense_oracle(system: StepSystem) -> np.ndarray:
    """Dense LU solve (partial pivoting) of the full step system.

    Reference path for :func:`solve_bordered`; O(N^3), tests only.
    """
    A = _dense_matrix(system)
    try:
        return np.linalg.solve(A, system.rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"dense solve failed: {exc}") from exc


def step_residual(system: StepSystem, sol: np.ndarray) -> float:
    """Max residual of a candidate solution, relative to row scale."""
    A = _dense_matrix(system)
    r = A @ sol - system.rhs
    scale = np.abs(A) @ np.abs(sol) + np.abs(system.rhs)
    return float(np.max(np.abs(r) / np.maximum(scale, 1e-300)))


def march(problem: Problem, grid: Grid, params: SchemeParams,
          y0=None, check_residuals: bool = False) -> SolveOutcome:
    """March the scheme from the initial condition to the final time.

    Level 0 samples ``problem.u0`` on the grid (or takes ``y0`` verbatim
    when supplied, as the stability experiments do with random data).
    The step matrix is built and factored once, before the first load
    (an overflowing matrix raises DomainError, a singular one
    SingularSystemError); each later level costs its right-hand side, the
    memory load and one banded solve, with y_0 recovered from the value
    coupling, and is written in place into the level array.  A level
    that is non-finite (also after an overflow) or exceeds
    ``BLOWUP_LIMIT`` in max norm stops the march and is recorded in the
    outcome instead of raising.
    """
    face = face_coefficients(problem, grid)
    x = grid.x
    Y = np.empty((grid.Nt + 1, grid.N + 1))
    if y0 is None:
        Y[0] = sample_space(problem.u0, x)
    else:
        first = np.asarray(y0, dtype=float)
        if first.shape != (grid.N + 1,):
            raise DimensionError(
                f"y0 has shape {first.shape}, expected ({grid.N + 1},)"
            )
        Y[0] = first
    residuals: Optional[list[float]] = [] if check_residuals else None
    blow: Optional[BlowUp] = None

    sigma = params.sigma
    memory = L1Memory(problem.gamma, grid.tau, grid.Nt, grid.N + 1)
    operator = _step_operator(problem, grid, sigma, face, memory.c_new)
    operator._factors           # factor and check the closure before any load
    source = NodeSampler(problem.f, x)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(grid.Nt):
            yn, level = Y[n], Y[n + 1]
            rhs = _step_rhs(problem, grid, sigma, face, source, n, yn,
                            memory.load(yn))
            level[1:] = operator.solve(rhs)
            level[0] = problem.alpha * level[-1]
            if residuals is not None:
                residuals.append(step_residual(operator.with_rhs(rhs),
                                               level[1:]))
            top = float(np.max(np.abs(level)))
            if not top <= BLOWUP_LIMIT:     # also true for inf and NaN
                blow = BlowUp(level=n + 1,
                              norm=np.inf if np.isnan(top) else top)
                break
            memory.push(level, yn)

    levels = Y[:blow.level + 1] if blow else Y
    return SolveOutcome(history=levels, blow_up=blow,
                        per_step_residuals=residuals)
