"""Per-step assembly and time marching of the weighted difference scheme.

Each time step solves a linear system for the new level.  After the
value coupling y_0 = alpha*y_N eliminates the left endpoint, the system
over y_1..y_N is tridiagonal except for a corner coefficient on y_N in
the first row and the last row (the discretised flux coupling), which
touches columns 1, N-1 and N.  It is solved in O(N) by superposition:
banded LAPACK factors the tridiagonal interior block, and a scalar
closure of the flux row gives y_N.  The two LAPACK routines come from
scipy's extension module, loaded without the ``scipy.linalg`` package.

The scheme has constant coefficients in time, so a march derives its
:class:`Step` once (:func:`build_step`): the matrix of the new level
(:class:`StepOperator`, factored on first use), the explicit part of the
same operator on the old level, and the source on the nodes
(:class:`~fracheat.core.NodeSampler`, which samples the space factors of
:class:`~fracheat.core.Separable` data once).  The march samples f and mu a
block of levels at a time (:func:`block_levels`), and :class:`L1Memory`
takes its L1 weights from one evaluation and sums the memory exactly,
blocked over levels.  A step then applies the record to its right-hand
side, adds the memory load, does one banded back-substitution and writes
its level in place into a buffer of one block of levels.  The march owns
its per-step buffers (the load goes into the row of the level being
produced, the right-hand side into one buffer per march), and it checks for
blow-up once per data block, dropping any levels it computed past one.

:func:`march_blocks` is the march: one call that hands each block of
levels, as it is made and checked, to the caller's folds (error and
energy norms, a CSV writer), so the levels are read a block at a time
and no array of every level exists.  :func:`march` has it make the
levels in place in one ``(Nt+2, N+1)`` array instead, for the callers
that want the whole history.

:func:`assemble_step` is the one-shot form of a step, recomputing the
memory term from a level array into buffers of its own; a dense LU solve
of the same system is kept as a test oracle, and the march can
optionally record the relative residual of every step.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from types import ModuleType
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (DimensionError, DomainError, Grid, NodeSampler, Problem,
                   SchemeParams, face_coefficients, sample_space)
from .fractional import l1_weights, split_implicit
from .norms import norm_max


def _load_lapack() -> ModuleType:
    """scipy's LAPACK extension ``scipy.linalg._flapack``, loaded on its own.

    ``scipy.linalg.lapack`` re-exports these wrappers, but importing it
    runs the ``scipy.linalg`` package first, which pulls in numpy.testing,
    numpy.f2py and numpy.random and costs more than an N=320 march.  The
    extension file is loaded under its real name instead, so a later
    ``import scipy.linalg`` finds it in ``sys.modules`` and exports the
    very same function objects (the package then lacks a ``_flapack``
    attribute; scipy reaches the module only through ``from`` imports).
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    import scipy

    folder = Path(scipy.__file__).parent / "linalg"
    spec = importlib.machinery.FileFinder(str(folder), (
        importlib.machinery.ExtensionFileLoader,
        importlib.machinery.EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        raise ImportError(f"no LAPACK extension _flapack in {folder} "
                          f"(scipy {scipy.__version__})", name=name)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


lapack = _load_lapack()

__all__ = [
    "SingularSystemError",
    "StepOperator",
    "StepSystem",
    "Step",
    "L1Memory",
    "BlowUp",
    "SolveOutcome",
    "BLOWUP_LIMIT",
    "assemble_step",
    "block_levels",
    "build_step",
    "solve_bordered",
    "solve_dense_oracle",
    "march_blocks",
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


def block_levels(width: int) -> int:
    """Levels per block of ``width``-entry levels: <= 256, ~2**16 entries."""
    return max(1, min(256, 2**16 // width))


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

    The bands are the matrix's one form: it is factored on the first
    :meth:`solve` and the factors are reused by every later one, and
    ``op @ y`` multiplies by it in O(N).
    """

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    corner: float
    last_row: tuple[float, float, float]

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
        g = (self @ np.append(np.zeros(m), 1.0))[:m]     # column y_N
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

    def solve(self, rhs: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Solve the system for one right-hand side of length N.

        The solution is written into ``out``; ``rhs`` is left as it is.
        """
        lu, piv, v, denom = self._factors
        m = v.size
        u, _ = lapack.dgbtrs(lu, 1, 1, rhs[:m], piv)    # a copy of rhs[:m]
        b1, bNm1, _ = self.last_row
        yN = (rhs.item(m) - b1 * u.item(0) - bNm1 * u.item(m - 1)) / denom
        np.subtract(u, yN * v, out[:m])
        out[m] = yN
        return out

    def __matmul__(self, y: np.ndarray) -> np.ndarray:
        """The product A @ y for a vector y of length N, in O(N)."""
        out = self.diag * y[:-1] + self.upper * y[1:]
        out[1:] += self.lower[1:] * y[:-2]
        out[0] += self.corner * y[-1]
        return np.append(out, np.dot(self.last_row, y[[0, -2, -1]]))

    @cached_property
    def _cells(self) -> tuple[StepOperator, StepOperator]:
        """The matrix with each cell held once, and its entrywise |A|.

        At N=2 the corner shares a cell with the upper band, and b1 one
        with b_{N-1}: :meth:`residual` sums each pair, as a dense copy
        does, before it multiplies or takes magnitudes.
        """
        upper, corner, (b1, bNm1, bN) = self.upper, self.corner, self.last_row
        if self.diag.size == 1:
            upper, corner, b1, bNm1 = upper + corner, 0.0, 0.0, b1 + bNm1
        cells = (self.lower, self.diag, upper, corner, (b1, bNm1, bN))
        return (StepOperator(*cells),
                StepOperator(*(np.abs(c) for c in cells)))

    def residual(self, rhs: np.ndarray, sol: np.ndarray) -> float:
        """Max residual of a candidate solution, relative to row scale."""
        cells, magnitude = self._cells
        r = cells @ sol - rhs
        scale = magnitude @ np.abs(sol) + np.abs(rhs)
        return float(np.max(np.abs(r) / np.maximum(scale, 1e-300)))


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
    contraction an order of magnitude slower.  :meth:`load` is the one
    call per step: the loads come in order, n = 0, 1, ..., and each
    records the increment of the level produced since the previous one.

    The sum is exact and blocked over levels.  At the first level n0 of
    each block of ``_BLOCK`` levels, the *far* part of the next loads,
    the terms of every increment older than n0, is the matrix product
    ``W @ inc[:n0]`` whose row j holds the weights of level n0+j+1 on
    those increments.  W is a Toeplitz slice of the weights: its rows
    overlap in memory, and BLAS takes no such view without a slow
    fallback, so W is copied C-contiguous once per block, ``_SPAN``
    columns at a time, from a window view of the weights built once.
    Each step then adds only its *near* part, the at most ``_BLOCK - 1``
    increments since n0.  The history of increments is thus streamed
    from memory once per block instead of once per level.  The first
    block has no far part, so marches of at most ``_BLOCK`` steps sum
    exactly as one contraction per level does; later loads differ from
    it by rounding only.
    """

    def __init__(self, gamma: float, tau: float, Nt: int, width: int):
        self._c = l1_weights(Nt - 1, gamma, tau).c
        self.c_new = float(self._c[-1])
        # Row i is c[i:i + _SPAN].  The zero padding gives the last, shorter
        # span of a block its rows too; it reads only their first columns,
        # which lie inside c[:-1].
        self._windows = sliding_window_view(
            np.append(self._c[:-1], np.zeros(_SPAN)), _SPAN)
        self._inc = np.empty((Nt, width))

    def load(self, levels: np.ndarray, n: int, out: np.ndarray) -> np.ndarray:
        """Memory load of level n+1, into ``out``.

        ``levels`` ends with level n, after level n-1 when n > 0: the march
        passes the two rows of its block buffer, and any array of the
        levels 0..n will do.  The increment y^n - y^{n-1} is recorded
        first, and the row of the next increment is scratch.
        """
        yn = levels[-1]
        if n == 0:
            return np.multiply(-self.c_new, yn, out)
        np.subtract(yn, levels[-2], out=self._inc[n - 1])
        j = n % _BLOCK
        if j == 0:
            self._far = self._far_loads(n)
        # self._c[-1 - j:-1] is l1_weights(j, ...).c[:-1], the near weights
        total = np.matmul(self._c[-1 - j:-1], self._inc[n - j:n], out)
        if n >= _BLOCK:
            total += self._far[j]
        return np.subtract(total, np.multiply(self.c_new, yn, self._inc[n]),
                           total)

    def _far_loads(self, n0: int) -> np.ndarray:
        """Far parts of the loads of the block starting at level n0.

        Row j is ``l1_weights(n0 + j, ...).c[:n0] @ inc[:n0]``, for the
        levels of the block that the march can reach.  The weight slice is
        copied ``_SPAN`` increments at a time, so the copy stays small
        however long the march is.  Each span's product goes into the
        increment rows of the block, which no load has recorded yet, and
        is added into zeros: starting from the product would keep a -0.0
        that ``0.0 + p`` turns into +0.0.
        """
        last = self._c.size - 1
        rows = min(_BLOCK, last + 1 - n0)
        top = last - n0 + 1 - rows
        far = np.zeros((rows, self._inc.shape[1]))
        product = self._inc[n0:n0 + rows]
        for k in range(0, n0, _SPAN):
            m = min(_SPAN, n0 - k)
            W = np.ascontiguousarray(
                self._windows[top + k:top + k + rows, :m][::-1])
            far += np.matmul(W, self._inc[k:k + m], out=product)
        return far


@dataclass(frozen=True)
class Step:
    """What every step of a march shares, built once by :func:`build_step`.

    The scheme's spatial operator, the conservative second difference
    (a*y_xbar)_x with the flux row, weighs the new level by sigma, in
    ``operator``, and the old level by ``explicit`` = 1-sigma, through
    the face coefficients ``a_left`` (a_i of rows i = 1..N-1), ``a_mid``
    (a_i + a_{i+1}) and ``a_right`` (a_{i+1}), ``h2`` = h*h and the flux
    weights ``flux_N`` = (1-sigma)*2*a_N/h^2 and ``flux_1`` =
    (1-sigma)*2*beta*a_1/h^2.  At sigma = 1 (``explicit`` == 0) the
    right-hand side reads none of the explicit fields (see
    :func:`_step_rhs`).  ``source`` samples f on the nodes, so separable
    data cost only their time factors; the march samples it.
    """

    operator: StepOperator
    a_left: np.ndarray
    a_mid: np.ndarray
    a_right: np.ndarray
    h2: float
    explicit: float
    two_by_h: float
    flux_N: float
    flux_1: float
    beta: float
    source: NodeSampler


def build_step(problem: Problem, grid: Grid, sigma: float,
               c_new: float) -> Step:
    """The step of a march; ``c_new`` weighs the new level in the memory term.

    Matrix interior rows encode c_new*y_i - sigma*(a*y_xbar)_{x,i}; the
    flux row encodes beta*D(y)_0 + D(y)_N + (2/h)*sigma*(a_N*y_xbar_N -
    beta*a_1*y_x_0) with y_0 = alpha*y_N.  An overflowing matrix raises
    DomainError.
    """
    face = face_coefficients(problem, grid)
    N, h, alpha, beta = grid.N, grid.h, problem.alpha, problem.beta
    h2 = h * h
    a_left, a_right, a1, aN = face[:-1], face[1:], face[0], face[-1]
    a_mid = a_left + a_right
    lower = np.zeros(N - 1)
    with np.errstate(over="ignore", invalid="ignore"):   # checked below
        lower[1:] = -sigma * a_left[1:] / h2
        diag = c_new + sigma * a_mid / h2
        upper = -sigma * a_right / h2
        corner = -sigma * alpha * a1 / h2
        b1 = -sigma * 2.0 * beta * a1 / h2
        bNm1 = -sigma * 2.0 * aN / h2
        bN = (c_new * (1.0 + alpha * beta)
              + sigma * 2.0 * aN / h2
              + sigma * 2.0 * beta * a1 * alpha / h2)
        flux_N = (1.0 - sigma) * 2.0 * aN / h2
        flux_1 = (1.0 - sigma) * 2.0 * beta * a1 / h2
    if not np.isfinite(np.concatenate(
            (lower, diag, upper, [corner, b1, bNm1, bN]))).all():
        raise DomainError(f"the step operator overflows for alpha={alpha}, "
                          f"beta={beta}, sigma={sigma} on {N} intervals")
    operator = StepOperator(lower=lower, diag=diag, upper=upper,
                            corner=corner, last_row=(b1, bNm1, bN))
    return Step(operator=operator, a_left=a_left, a_mid=a_mid,
                a_right=a_right, h2=h2, explicit=1.0 - sigma,
                two_by_h=2.0 / h, flux_N=flux_N, flux_1=flux_1, beta=beta,
                source=NodeSampler(problem.f, grid.x))


def _step_rhs(step: Step, yn: np.ndarray, load: np.ndarray,
              phi: np.ndarray, mu: float, out: np.ndarray) -> np.ndarray:
    """Right-hand side of the step from level n (``yn``) to level n+1.

    Interior rows carry phi_i + (1-sigma)*(a*y_xbar)_{x,i}^n - load_i, with
    phi = f(x, t_n + sigma*tau) and the memory ``load`` at every node; the
    flux row carries (2/h)*mu(t_n + sigma*tau) + phi_N + beta*phi_0, the
    memory loads of both endpoints and the explicit part of both fluxes.
    It is written into ``out`` (length N) and returned.

    The interior is evaluated as ((a_r*y_{i+1} - a_m*y_i) + a_l*y_{i-1})
    / h^2, then (phi_i - load_i) + (1-sigma)*that, one operation at a time.
    At sigma = 1 the scheme has no explicit part, so none is formed: the
    interior is phi_i - load_i and the flux row ends with its loads.
    """
    flux = (step.two_by_h * mu + phi.item(-1) + step.beta * phi.item(0)
            - step.beta * load.item(0) - load.item(-1))
    if step.explicit == 0.0:
        np.subtract(phi[1:-1], load[1:-1], out[:-1])
        out[-1] = flux
        return out
    inner, tmp = out[:-1], np.empty(yn.size - 2)
    np.multiply(step.a_right, yn[2:], inner)
    np.subtract(inner, np.multiply(step.a_mid, yn[1:-1], tmp), inner)
    np.add(inner, np.multiply(step.a_left, yn[:-2], tmp), inner)
    np.divide(inner, step.h2, inner)
    np.multiply(step.explicit, inner, inner)
    np.add(np.subtract(phi[1:-1], load[1:-1], tmp), inner, inner)
    out[-1] = (flux - step.flux_N * (yn.item(-1) - yn.item(-2))
               + step.flux_1 * (yn.item(1) - yn.item(0)))
    return out


def assemble_step(problem: Problem, grid: Grid, params: SchemeParams,
                  levels) -> StepSystem:
    """Assemble the linear system advancing a level array by one level.

    ``levels`` has shape ``(n+1, N+1)``, row s holding level s; the
    system produces level n+1 and is built as a march builds it, except
    that the memory split (c_new, load) is recomputed from all the levels
    by :func:`split_implicit`, independently of :class:`L1Memory`.
    """
    Y = np.asarray(levels, dtype=float)
    if Y.ndim != 2 or Y.shape[0] < 1 or Y.shape[1] != grid.N + 1:
        raise DimensionError(
            f"levels have shape {Y.shape}, expected (n+1, {grid.N + 1})"
        )
    n = Y.shape[0] - 1
    c_new, load = split_implicit(Y, problem.gamma, grid.tau)
    step = build_step(problem, grid, params.sigma, c_new)
    t = (n + params.sigma) * grid.tau
    return StepSystem(**vars(step.operator), rhs=_step_rhs(
        step, Y[n], load, step.source.rows([t])[0], problem.mu(t),
        np.empty(grid.N)))


def solve_bordered(system: StepSystem) -> np.ndarray:
    """Solve the step system in O(N) by superposition (see StepOperator).

    Raises SingularSystemError if the interior block has an exactly zero
    pivot, or the closure pivot is at roundoff level relative to its terms.
    """
    return system.solve(system.rhs, np.empty(system.rhs.size))


def solve_dense_oracle(system: StepSystem) -> np.ndarray:
    """Dense LU solve (partial pivoting) of the full step system.

    Reference path for :func:`solve_bordered`; O(N^3), tests only.
    """
    A = np.column_stack([system @ e for e in np.eye(system.rhs.size)])
    try:
        return np.linalg.solve(A, system.rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"dense solve failed: {exc}") from exc


def march_blocks(problem: Problem, grid: Grid, params: SchemeParams,
                 *folds: Callable[[int, np.ndarray], object], y0=None,
                 check_residuals: bool = False,
                 out: Optional[np.ndarray] = None
                 ) -> tuple[Optional[BlowUp], Optional[list[float]]]:
    """March the scheme, calling each ``fold(first level, block)`` in turn.

    Level 0 samples ``problem.u0`` on the grid, or is ``y0`` verbatim (the
    stability experiments pass random data).  The call first builds the
    step and factors its matrix (an overflowing one raises DomainError,
    a singular one SingularSystemError) and checks level 0 (a bad one
    raises DomainError), so a refused march calls no fold.  Each step
    then costs its right-hand side, one :meth:`L1Memory.load` and one
    banded solve, with y_0 from the value coupling.

    A data block (``block_levels``) is made in a window whose rows 0 and 1
    hold the levels n0-1 and n0: one buffer of ``block_levels + 2`` rows
    that carries its two newest levels to the top after each block, or
    the rows of ``out`` (``(Nt+2, N+1)``, level n in row n+1) from row n0
    on.  The load of a new level goes into its row, which the solve then
    overwrites, and the right-hand side into one N-entry buffer.  Once
    the guard has read a block, the folds get it in the order given,
    under the caller's numpy error state; the first also holds level 0.
    Without ``out`` the next block overwrites it, so a fold that keeps
    levels copies them.

    A level that is non-finite (also after an overflow) or exceeds
    ``BLOWUP_LIMIT`` in max norm ends the march and its block; the levels
    and residuals computed past it are dropped, as a check after every
    level would.  The call returns ``(blow_up, per_step_residuals)``:
    the :class:`BlowUp` or None, and with ``check_residuals`` the relative
    residual of every step taken (else None).
    """
    memory = L1Memory(problem.gamma, grid.tau, grid.Nt, grid.N + 1)
    step = build_step(problem, grid, params.sigma, memory.c_new)
    step.operator._factors      # factor and check the closure before any load
    rows = block_levels(grid.N + 1)
    win = np.empty((rows + 2, grid.N + 1)) if out is None else out
    if y0 is None:
        win[1] = sample_space(problem.u0, grid.x)
    elif np.shape(y0) != (grid.N + 1,):
        raise DimensionError(f"y0 has shape {np.shape(y0)}, "
                             f"expected ({grid.N + 1},)")
    else:
        win[1] = y0
    blow = _first_blow_up(win[1:2], 0)
    if blow is not None:
        raise DomainError(f"initial level: max norm {blow.norm} is not "
                          f"finite or exceeds {BLOWUP_LIMIT}")
    residuals: Optional[list[float]] = [] if check_residuals else None
    sigma, tau, alpha = params.sigma, grid.tau, problem.alpha
    solve, rhs = step.operator.solve, np.empty(grid.N)
    for n0 in range(0, grid.Nt, rows):
        # The folds run outside the error state, so they see the caller's.
        with np.errstate(over="ignore", invalid="ignore"):
            # f and mu at t_n + sigma*tau for the levels of the block
            times = [(n + sigma) * tau for n in range(n0, grid.Nt)[:rows]]
            phi, mu = step.source.rows(times), list(map(problem.mu, times))
            for j, n in enumerate(range(n0, n0 + len(times))):
                level = win[j + 2]
                # the load goes into the level row, which the solve overwrites
                _step_rhs(step, win[j + 1],
                          memory.load(win[j:j + 2], n, level), phi[j], mu[j],
                          rhs)
                solve(rhs, level[1:])
                level[0] = alpha * level.item(-1)
                if residuals is not None:
                    residuals.append(step.operator.residual(rhs, level[1:]))
            made = len(times)
            blow = _first_blow_up(win[2:2 + made], n0 + 1)
        if blow is not None:        # drop what the block computed past it
            made = blow.level - n0
            if residuals is not None:
                del residuals[blow.level:]
        first, block = ((0, win[1:2 + made]) if n0 == 0
                        else (n0 + 1, win[2:2 + made]))
        for fold in folds:
            fold(first, block)
        if blow is not None:
            break
        if out is None:
            win[:2] = win[made:made + 2]
        else:
            win = out[n0 + made:]
    return blow, residuals


def march(problem: Problem, grid: Grid, params: SchemeParams,
          y0=None, check_residuals: bool = False) -> SolveOutcome:
    """March the scheme from the initial condition to the final time.

    :func:`march_blocks` (which documents the march, its refusals and its
    blow-up guard) makes the levels in place in one ``(Nt+2, N+1)`` array,
    whose first row is scratch; the outcome's history holds the rows
    produced after it.
    """
    levels = np.empty((grid.Nt + 2, grid.N + 1))
    blow, residuals = march_blocks(problem, grid, params, y0=y0,
                                   check_residuals=check_residuals, out=levels)
    last = grid.Nt if blow is None else blow.level
    return SolveOutcome(history=levels[1:last + 2], blow_up=blow,
                        per_step_residuals=residuals)


def _first_blow_up(levels: np.ndarray, first: int) -> Optional[BlowUp]:
    """The first of consecutive ``levels`` (level ``first`` on) that blows up.

    A level blows up when it is non-finite (its norm is then inf) or its
    max norm exceeds ``BLOWUP_LIMIT``.
    """
    top = norm_max(levels)
    bad = ~(top <= BLOWUP_LIMIT)        # also true for NaN
    if not bad.any():
        return None
    i = int(bad.argmax())
    norm = float(top[i])
    return BlowUp(level=first + i, norm=np.inf if np.isnan(norm) else norm)
