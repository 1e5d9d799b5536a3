"""Per-step assembly and time marching of the weighted difference scheme.

Each time step solves a linear system for the new level.  After the
value coupling y_0 = alpha*y_N eliminates the left endpoint, the system
over y_1..y_N is tridiagonal except for a corner coefficient on y_N in
the first row and the last row (the discretised flux coupling), which
touches columns 1, N-1 and N.  It is solved in O(N) by a scalar closure
of the flux row, which gives y_N first, and one tridiagonal solve of the
interior, which LAPACK writes in place.  The scheme's spatial operator
is self-adjoint and positive, so the interior block of every step it
builds is symmetric positive definite and takes LDL^T without pivoting
(``dpttrf``/``dpttrs``); any other block takes band LU with partial
pivoting (``dgbtrf``/``dgbtrs``).  The LAPACK routines come from scipy's
extension module, loaded without the ``scipy.linalg`` package.

The scheme has constant coefficients in time, so a march derives its
:class:`Step` once (:func:`build_step`): the matrix of the new level
(:class:`StepOperator`, factored on first use) and the explicit part of
the same operator on the old level.  The march samples f and mu a block
of levels at a time (:func:`block_levels`, a power of two that holds
whole blocks of the body), one call each on the block's time array
(:func:`_step_data`).  :class:`L1Memory`
takes its L1 weights from one evaluation, holds the march's one level
history and sums the memory exactly over the levels themselves
(summation by parts), blocked over levels, the old levels' far part by
dyadic FFT pieces on long marches.  It writes a block's far loads once
per block into the history rows of the levels they load, and the march
adds their source there; a body bound once per march makes the levels of
a block over their loads in one of three ways, chosen by the width at
the measured crossovers of their march times (see ``_PROPAGATE_WIDTH``):
on wide marches, such as N=320, a banded solve at a time
(:func:`_banded_body`: a product of the memory weights with the block's
levels, one addition, the closure and one in-place tridiagonal solve
into the level's row); on moderate ones, whose steps are mostly call
overhead, two BLAS calls at a time, a near product that takes the load
with a unit weight and one product by the step's affine solution map
(:func:`_step_body`, :func:`_solution_map`); and on narrow ones
``_PROPAGATE`` at a time by the step's discrete Green's function
(:func:`_block_body`).  The march checks for blow-up once per data
block, dropping any levels it computed past one.

:func:`march` is the march: one call that hands each block of levels,
as it is made and checked, to the caller's folds (error and energy
norms, a CSV writer) as views of the history's rows, and returns the
history with its blow-up record (:class:`SolveOutcome`).

:func:`assemble_step` is the one-shot form of a step, recomputing the
memory term from a level array by the increment form, independently of
:class:`L1Memory`; a dense LU solve of the same system is kept as a test
oracle.  The march makes levels only: with ``check_residuals`` it
replays the finished history through the same oracle right-hand side,
every step in one stacked call, and records the relative residual of
every step (:func:`_step_residuals`).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass
from functools import cached_property, partial
from pathlib import Path
from types import ModuleType
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (DimensionError, DomainError, Grid, Problem, SchemeParams,
                   face_coefficients, sample_space, sample_space_time)
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
    "march",
]

# A level whose max norm exceeds this (or contains non-finite entries)
# stops the march; instabilities are reported, not crashed on.
BLOWUP_LIMIT = 1e100

# The closure pivot is treated as zero when it is within this many ulps
# of the terms it was computed from.
_CLOSURE_ULPS = 64.0

# Levels per block of the memory sum (see L1Memory): the far part of a
# block's loads is a product of a _BLOCK-row weight slice with the level
# history, taken _SPAN levels at a time and summed in the block's rows of
# the history.  A _SPAN-wide slice of the weights (256 KB) and of a
# history 321 nodes wide (1.3 MB) fit a 2 MB L2 cache together, and the
# copied slice does not grow with Nt.
_BLOCK = 64
_SPAN = 512

# An FFT piece of the memory sum (see L1Memory) is taken only for at least
# max(_PIECE_MIN, _PIECE_GROWTH*sqrt(width)) levels: below, GEMM is faster.
_PIECE_MIN = 512
_PIECE_GROWTH = 64

# A march of at most _PROPAGATE_WIDTH nodes and _PROPAGATE levels per node
# or more makes _PROPAGATE levels per GEMM (_block_body); any other of at
# most _PRODUCT_WIDTH nodes makes a level per product (_step_body), and a
# wider one a level per banded solve (_banded_body).  Both widths are the
# measured crossovers of the bodies' march times (one BLAS thread): the
# propagator wins up to about 25 nodes and the product up to about 101,
# where its O(N^2) flops per level and its set-up catch up with the calls
# of the banded solve.
_PROPAGATE = 16
_PROPAGATE_WIDTH = 25
_PRODUCT_WIDTH = 101


def block_levels(width: int) -> int:
    """Levels per block of ``width``-entry levels: a power of two, at most
    256 and, unless one level is more, at most 2**16 entries."""
    return 1 << min(8, max(0, (2**16 // width).bit_length() - 1))


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
    ``op @ y`` multiplies by it in O(N).  Which factorisation the
    interior block takes is :attr:`_factors`' choice alone: LDL^T when it
    is symmetric positive definite, as at every step of the scheme, and
    band LU otherwise.
    """

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    corner: float
    last_row: tuple[float, float, float]

    @cached_property
    def _factors(self) -> tuple[Callable[..., tuple[np.ndarray, int]],
                                np.ndarray, float]:
        """The solve with the interior block T, the closure row z, its pivot.

        A symmetric T of at least two rows (``lower[1:]`` equal to
        ``upper[:-1]``, as :func:`build_step` makes them) is factored as
        LDL^T by ``dpttrf``, which succeeds exactly when T is positive
        definite: the scheme's T = c_new*I - sigma*Lambda_h is, with
        positive faces and c_new > 0, and LDL^T without pivoting is
        backward stable there.  Any other T takes band LU with partial
        pivoting (``dgbtrf``): a non-symmetric system, a symmetric one
        that dpttrf finds indefinite, and the one-row interior of N=2,
        which scipy's dpttrf wrapper refuses.  The solve, ``solve(b) ->
        (T^{-1} b, info)``, is the bound ``dpttrs`` or ``dgbtrs``; with
        ``overwrite_b=1`` it writes T^{-1} b over a contiguous b.

        The flux row reads the interior u = T^{-1}(rhs - y_N*g), g the
        column of y_N in the interior rows (the corner and the last band
        entry), as b1*u_0 + bNm1*u_{m-1} = z.(rhs - y_N*g) with z =
        T^{-T}(b1*e_0 + bNm1*e_{m-1}) (dgbtrs with ``trans=1``; T^{-T} =
        T^{-1} for LDL^T).  So y_N closes first, denom*y_N = rhs_N - z.rhs
        with denom = bN - z.g, and the interior is one solve of rhs - y_N*g.
        """
        m = self.diag.size
        solve = None
        b1, bNm1, bN = self.last_row
        row = np.zeros(m)                   # the flux row on the interior
        np.add.at(row, [0, m - 1], [b1, bNm1])
        if m > 1 and np.array_equal(self.lower[1:], self.upper[:-1]):
            d, e, info = lapack.dpttrf(self.diag, self.upper[:-1])
            if info == 0:
                solve = partial(lapack.dpttrs, d, e)
                z, _ = solve(row)
        if solve is None:
            ab = np.zeros((4, m))           # dgbtrf layout, kl = ku = 1
            ab[1, 1:] = self.upper[:-1]
            ab[2] = self.diag
            ab[3, :-1] = self.lower[1:]
            lu, piv, info = lapack.dgbtrf(ab, 1, 1)
            if info > 0:
                raise SingularSystemError(f"zero pivot in interior row {info} "
                                          f"of the banded factorisation")
            solve = partial(lapack.dgbtrs, lu, 1, 1, ipiv=piv)
            z, _ = solve(row, trans=1)
        g = (self @ np.append(np.zeros(m), 1.0))[:m]     # column y_N
        with np.errstate(over="ignore", invalid="ignore"):
            denom = bN - z.dot(g)
            scale = abs(bN) + np.abs(z).dot(np.abs(g))
        # Written so that a NaN or infinite pivot counts as singular too.
        if not abs(denom) > _CLOSURE_ULPS * np.finfo(float).eps * scale:
            raise SingularSystemError(
                f"flux-row closure (row {m + 1}) is singular "
                f"(pivot {denom:.3e}, row scale {scale:.3e})"
            )
        return solve, z, float(denom)

    def solve(self, rhs: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Solve the system for a right-hand side of length N, or k ``(N, k)``.

        The solution is written into ``out``; ``rhs`` is left as it is.
        """
        solve, z, denom = self._factors
        m = z.size
        u = out[:m]
        u[:] = rhs[:m]
        yN = (rhs[m] - z.dot(u)) / denom
        u[0] -= self.corner * yN
        u[m - 1] -= self.upper.item(-1) * yN
        u[:] = solve(u, overwrite_b=1)[0]       # in place if u is contiguous
        out[m] = yN
        return out

    def __matmul__(self, y: np.ndarray) -> np.ndarray:
        """The product A @ y in O(N), y of length N or a stack of such rows.

        Each row of a stack takes the same operations as a single row, so
        the two give the same bits; the flux row is (b1*y_1 + b_{N-1}*y_{N-1})
        + b_N*y_N.
        """
        b1, bNm1, bN = self.last_row
        out = self.diag * y[..., :-1] + self.upper * y[..., 1:]
        out[..., 1:] += self.lower[1:] * y[..., :-2]
        out[..., 0] += self.corner * y[..., -1]
        flux = (b1 * y[..., 0] + bNm1 * y[..., -2]) + bN * y[..., -1]
        return np.concatenate((out, np.expand_dims(flux, -1)), axis=-1)

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

    def residual(self, rhs: np.ndarray, sol: np.ndarray) -> float | np.ndarray:
        """Max residual of a candidate solution, relative to row scale.

        Stacks of right-hand sides and solutions (along the last axis) give
        each row's residual, bit for bit as one row at a time.
        """
        cells, magnitude = self._cells
        r = cells @ sol - rhs
        scale = magnitude @ np.abs(sol) + np.abs(rhs)
        return np.max(np.abs(r) / np.maximum(scale, 1e-300), axis=-1)


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
    """Discrete Caputo memory of a march with ``Nt`` steps, in level form.

    With c_k the weight of the increment of lag k (c_0 = c_new), the
    operator at level n+1, sum_{s<=n} c_{n-s}*(y^{s+1} - y^s), splits as
    c_new*y^{n+1} + load.  Summation by parts writes the load over the
    levels themselves:

        load = -sum_{l=1..n} d_{n-l}*y^l - c_n*y^0,    d_k = c_k - c_{k+1}.

    The weights of every level are tails of one array, computed once and
    kept newest-last and contiguous (a reversed view would make the
    contraction an order of magnitude slower), and d is their difference.
    For k >= 1, c_{k+1} <= c_k <= 2*c_{k+1}, so d_k is exact (Sterbenz)
    and the load is, in exact arithmetic, the increment form's on the
    same weights.

    The memory holds the march's one level history, ``history`` (row l
    holds level l; ``(Nt+1, width)``), in which the far loads are summed:
    those of the levels after n0 read the rows before n0 and are written
    into the rows of the levels they load, which the march completes with
    the source and the body overwrites with the levels.

    The sum is exact and blocked over levels.  At the first level n0 of
    each block of ``_BLOCK`` levels (fewer where the march's data blocks
    hold fewer), the *far* part of the next loads,
    the terms of every level older than n0 (of level 0 alone in the first
    block), is taken at once and written into the history rows of the
    levels it loads; each step then adds only its *near* part, the at
    most ``_BLOCK`` levels from n0 (from 1 in the first block) to n, so
    the history is streamed once per block, not once per level.  The far
    part is a Toeplitz convolution in time: dyadic pieces, exact FFT
    convolutions (Hairer, Lubich and Schlichte 1985), give the terms of
    the levels [0, P), and the product ``W @ history[P:n0]``, O(Nt^2*width)
    per march, those of [P, n0); P = 0 without a piece.  Row j of W holds
    the weights of level n0+j+1, a Toeplitz slice of d (c on level 0): its
    rows overlap in memory, and BLAS takes no such view without a slow
    fallback, so W is copied C-contiguous once per block, ``_SPAN``
    columns at a time, from a window view of d.  A piece is taken when at
    least ``max(_PIECE_MIN, _PIECE_GROWTH*sqrt(width))`` of its levels lie
    in the march, where numpy's FFT was measured to beat the product: the
    N=16 stability run of 4,000 steps takes pieces from 512 levels on, an
    N=320 march of 2,189 steps none (the floor, 1,147 levels at 321 nodes,
    exceeds its 1,024-level piece; 141 levels follow its 2,048-level one).
    """

    def __init__(self, gamma: float, tau: float, Nt: int, width: int):
        self._c = l1_weights(Nt - 1, gamma, tau).c
        self.c_new = float(self._c[-1])
        self._d = self._c[1:] - self._c[:-1]        # d_k in self._d[-1 - k]
        # Row i is [0, d, 0...][i:i + _SPAN].  The leading zero gives the
        # last row of a block's level-0 column, which W takes from c; the
        # trailing ones give the last, shorter span of a block its rows too,
        # and it reads only their first columns, which lie inside d.
        self._windows = sliding_window_view(
            np.concatenate(([0.0], self._d, np.zeros(_SPAN))), _SPAN)
        self.history = np.empty((Nt + 1, width))
        self._floor = max(_PIECE_MIN, _PIECE_GROWTH * width**0.5)
        self._spectra: dict[int, np.ndarray] = {}

    def _far_loads(self, n0: int, rows: int = _BLOCK) -> None:
        """Write the far parts of minus the loads of the levels after n0.

        Row j of the history after n0 becomes ``sum_{l < max(n0, 1)}
        w_l*y^l`` for level n0+j+1, with w_0 = c_{n0+j} and w_l =
        d_{n0+j-l}, for the ``rows`` levels of the block that the march can
        reach.  The piece that ends at n0, if taken, is made first; then
        the product takes the levels without a piece, a span at a time: the
        first span of a block with no piece (P = 0) is written into the
        rows, and every other is made in ``part`` and added to them.
        """
        H, last = self.history, self._c.size
        rows = min(rows, last - n0)
        top = last - n0 - rows
        # The pieces of the block are the set bits S of n0, highest first,
        # each made at level P+S, up to the first with fewer than the floor
        # of its levels, P+S+1 to P+2S, in the march: they cover [0, P).
        P = 0
        for S in [1 << k for k in range(n0.bit_length()) if n0 >> k & 1][::-1]:
            if min(S, last - P - S) < self._floor:
                break
            P += S
        if P == n0 > 0:
            self._add_piece(n0)
            return
        # The spans added to the rows are made in part, taken once before
        # their weights: a fresh product per span made the studies op 3-5%
        # slower in process.
        far = H[n0 + 1:n0 + 1 + rows]
        part = np.empty_like(far) if P or n0 > _SPAN else None
        for k in range(P, max(n0, 1), _SPAN):
            m = min(_SPAN, max(n0, 1) - k)
            W = np.array(self._windows[top + k:top + k + rows, :m][::-1],
                         order="C")
            if k == 0:
                W[:, 0] = self._c[top:top + rows][::-1]
                np.matmul(W, H[:m], out=far)
            else:
                far += np.matmul(W, H[k:k + m], out=part)

    def _add_piece(self, L: int) -> None:
        """Add the terms of the levels [L-S, L) to the rows of levels L+1..L+S.

        S is L's largest power-of-two factor.  The lags run over 1..2S-1, so
        one circular convolution of length 2S is exact; it is taken over
        column chunks of about 2**14 entries.  Its kernel is d_k from lag
        _BLOCK (the FFT's rounding scales with its largest weight), and the
        lags below are one product with a triangle of weights.  The first
        piece (L = S) assigns the rows, with level 0's c_n*y^0; later add.
        """
        from numpy import fft       # not loaded by ``import numpy`` itself

        H, S, last = self.history, L & -L, self._c.size
        first, end = max(L - S, 1), min(L + S, last)
        spectrum = self._spectra.get(S)
        if spectrum is None:                        # d_k in self._d[-1 - k]
            kernel = self._d[::-1][:2 * S].copy()
            kernel[:_BLOCK] = 0.0
            spectrum = self._spectra[S] = fft.rfft(kernel, 2 * S)[:, None]
        targets = H[L + 1:end + 1]
        if L == S:
            np.multiply.outer(self._c[last - end:last - L][::-1], H[0],
                              out=targets)
        cols = max(1, 2**13 // S)
        for c in range(0, H.shape[1], cols):
            spectra = fft.rfft(H[first:L, c:c + cols], 2 * S, axis=0)
            spectra *= spectrum
            targets[:, c:c + cols] += fft.irfft(spectra, 2 * S, axis=0)[
                L - first:end - first]
        rows = min(_BLOCK, end - L)
        W = np.triu(self._windows[last - rows - _BLOCK:last - _BLOCK, :_BLOCK]
                    [::-1], 1)
        targets[:rows] += W @ H[L - _BLOCK:L]


@dataclass(frozen=True)
class Step:
    """What every step of a march shares, built once by :func:`build_step`.

    The scheme's spatial operator, the conservative second difference
    (a*y_xbar)_x with the flux row, weighs the new level by sigma, in
    ``operator``, and the old level by ``explicit`` = 1-sigma, through
    the stencil ``bands``, the ``(3, N-1)`` rows (a_i, -(a_i + a_{i+1}),
    a_{i+1}) of rows i = 1..N-1 times (1-sigma)/h^2, and the flux weights
    ``flux_N`` = (1-sigma)*2*a_N/h^2 and ``flux_1`` = (1-sigma)*2*beta*a_1/h^2.
    The stencil is stated here once: :func:`_step_rhs`, the banded loop
    and the solution map all read it.  At sigma = 1 (``explicit`` == 0)
    the right-hand side reads none of the explicit fields.
    """

    operator: StepOperator
    bands: np.ndarray
    explicit: float
    two_by_h: float
    flux_N: float
    flux_1: float
    beta: float


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
        bands = np.stack((a_left, -a_mid, a_right))
        bands *= (1.0 - sigma) / h2
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
    return Step(operator=operator, bands=bands, explicit=1.0 - sigma,
                two_by_h=2.0 / h, flux_N=flux_N, flux_1=flux_1, beta=beta)


def _step_rhs(step: Step, yn: np.ndarray, r: np.ndarray,
              mu: float | np.ndarray, out: np.ndarray) -> np.ndarray:
    """Right-hand side of the step from level n (``yn``) to level n+1.

    ``r`` is the source f(x, t_n + sigma*tau) minus the memory load at
    every node, as every body forms it.  Interior rows carry r_i +
    (1-sigma)*(a*y_xbar)_{x,i}^n; the flux row carries (2/h)*mu(t_n +
    sigma*tau) + r_N + beta*r_0 and the explicit part of both fluxes.  It
    is written into ``out`` (length N) and returned.  Stacks of rows (the
    last axis; ``mu`` one value per row) take the same operations row by
    row, so they give the same bits as one step at a time.

    The interior is evaluated with the pre-scaled ``bands`` b as r_i +
    ((b0*y_{i-1} + b1*y_i) + b2*y_{i+1}), and the flux row as its data minus
    the flux_N term plus the flux_1 term, in the banded loop's order
    (:func:`_banded_body`).  At sigma = 1 the scheme has no explicit part,
    so none is formed: the interior is r_i, signed zeros and all.
    """
    out[..., :-1] = r[..., 1:-1]
    out[..., -1] = step.two_by_h * mu + r[..., -1] + step.beta * r[..., 0]
    if step.explicit != 0.0:
        b0, b1, b2 = step.bands
        out[..., :-1] += ((b0 * yn[..., :-2] + b1 * yn[..., 1:-1])
                          + b2 * yn[..., 2:])
        out[..., -1] -= step.flux_N * (yn[..., -1] - yn[..., -2])
        out[..., -1] += step.flux_1 * (yn[..., 1] - yn[..., 0])
    return out


def _step_data(problem: Problem, grid: Grid, sigma: float, first: int,
               stop: int) -> tuple[np.ndarray, np.ndarray]:
    """f on the nodes and mu, at t_n + sigma*tau for the steps first..stop-1.

    The times are one array expression and each datum one call on them
    (:func:`~fracheat.core.sample_space_time`, :func:`sample_space`), so
    the march, :func:`assemble_step` and the replay of a history give a
    step the same data bits.
    """
    times = (np.arange(first, stop) + sigma) * grid.tau
    return (sample_space_time(problem.f, grid.x, times),
            sample_space(problem.mu, times))


def assemble_step(problem: Problem, grid: Grid, params: SchemeParams,
                  levels) -> StepSystem:
    """Assemble the linear system advancing a level array by one level.

    ``levels`` has shape ``(n+1, N+1)``, row s holding level s; the
    system produces level n+1 and is built as a march builds it, except
    that its right-hand side is an oracle: the memory load is the
    increment form's (:func:`split_implicit`) over all the levels,
    independently of :class:`L1Memory`, and :func:`_step_rhs` forms the
    rest from the data of :func:`_step_data`.
    """
    Y = np.asarray(levels, dtype=float)
    if Y.ndim != 2 or Y.shape[0] < 1 or Y.shape[1] != grid.N + 1:
        raise DimensionError(f"levels have shape {Y.shape}, "
                             f"expected (n+1, {grid.N + 1})")
    c_new, load = split_implicit(Y, problem.gamma, grid.tau)
    step = build_step(problem, grid, params.sigma, c_new)
    n = len(Y) - 1
    phi, mu = _step_data(problem, grid, params.sigma, n, n + 1)
    return StepSystem(**vars(step.operator), rhs=_step_rhs(
        step, Y[-1], phi[0] - load, mu.item(0), np.empty(grid.N)))


def solve_bordered(system: StepSystem) -> np.ndarray:
    """Solve the step system in O(N) by superposition (see StepOperator).

    Raises SingularSystemError if the interior block has an exactly zero
    pivot, or the closure pivot is at roundoff level relative to its terms.
    """
    return system.solve(system.rhs, np.empty(system.rhs.size))


def solve_dense_oracle(system: StepSystem) -> np.ndarray:
    """Dense LU solve (partial pivoting) of the full step system.

    Reference path for :func:`solve_bordered`; O(N^3), tests only.  An
    ``(N, k)`` rhs holds k right-hand sides, solved with one factorisation.
    """
    A = (system @ np.eye(len(system.rhs))).T
    try:
        return np.linalg.solve(A, system.rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"dense solve failed: {exc}") from exc


def _solution_map(step: Step, alpha: float) -> np.ndarray:
    """The step as one affine map: y^{n+1} = A @ (r, mu, y^n).

    r is the source minus the memory load on the N+1 nodes, mu the flux
    data and y^n the old level.  The ``(N+1, 2N+3)`` matrix A is one
    :meth:`StepOperator.solve` of the right-hand sides that :func:`_step_rhs`
    makes of the unit vectors, one stacked call, lifted by the row y_0 =
    alpha*y_N on top.  At sigma = 1 the columns of y^n are zero and are
    not solved for.
    """
    W = step.operator.diag.size + 2
    k = 2 * W + 1 if step.explicit else W + 1
    E = np.eye(k, 2 * W + 1)            # the load r, mu, then level n
    cols = _step_rhs(step, E[:, W + 1:], E[:, :W], E[:, W],
                     np.empty((k, W - 1)))
    A = np.zeros((W, 2 * W + 1))
    step.operator.solve(cols.T, A[1:, :k])
    A[0] = alpha * A[-1]
    return A


def _banded_body(step: Step, memory: L1Memory, alpha: float) -> tuple[
        Callable[[int, np.ndarray], None], int]:
    """A memory block's levels a banded solve at a time: ``(advance, _BLOCK)``.

    Bound once per march, ``advance(n0, mu)`` makes the levels after n0,
    one per entry of the flux data ``mu``, all of one body block of at most
    ``_BLOCK`` levels, in the memory's history, from the levels before them: as
    :func:`march` leaves them, each level's row holds its load, the
    source plus the far memory.  So phi - load is one near product, from
    the block's first level, and one addition; at sigma < 1 the explicit
    part is one multiply of ``step.bands`` by a ``(3, N-1)`` window of
    level n and one sum.  The closure gives y_N (see
    :attr:`StepOperator._factors`), the border entries take their y_N
    share, and ``dpttrs`` or ``dgbtrs`` solves in place.  The loop is
    :func:`_step_rhs` and :meth:`StepOperator.solve` fused: they give the
    same level byte for byte.
    """
    solve, z, denom = step.operator._factors
    m = z.size
    corner, edge = float(step.operator.corner), step.operator.upper.item(-1)
    H, d = memory.history, memory._d
    top = d.size - 1
    two_by_h, beta = step.two_by_h, step.beta
    explicit, flux_N, flux_1 = step.explicit != 0.0, step.flux_N, step.flux_1
    add, zdot = np.add, z.dot
    stack = np.empty((4, m + 2))    # band products; near sum, phi - load
    products, near, summands = stack[:3, 1:-1], stack[3], stack[:, 1:-1]
    if explicit:
        taps, bands = sliding_window_view(H, m, axis=1), step.bands
        multiply, total = np.multiply, np.add.reduce

    def advance(n0: int, mu: np.ndarray) -> None:
        lo = max(n0, 1)
        for n, mu_n in zip(range(n0, n0 + len(mu)), mu.tolist()):
            level = H[n + 1]
            r = near if explicit else level
            d[top - n + lo:].dot(H[lo:n + 1], near)
            add(near, level, r)
            flux = two_by_h * mu_n + r.item(-1) + beta * r.item(0)
            g = level[1:-1]
            if explicit:
                yn = H[n]
                multiply(bands, taps[n], products)
                total(summands, axis=0, out=g)
                flux = (flux - flux_N * (yn.item(-1) - yn.item(-2))
                        + flux_1 * (yn.item(1) - yn.item(0)))
            yN = (flux - zdot(g)) / denom
            g[0] = g.item(0) - corner * yN
            g[m - 1] = g.item(m - 1) - edge * yN
            solve(g, overwrite_b=1)             # in place: g is contiguous
            level[-1] = yN
            level[0] = alpha * yN

    return advance, _BLOCK


def _step_body(step: Step, memory: L1Memory, alpha: float) -> tuple[
        Callable[[int, np.ndarray], None], int]:
    """A memory block's levels a product at a time: ``(advance, _BLOCK)``.

    As in :func:`_banded_body`, each level's row of the history holds its
    load when ``advance(n0, mu)`` starts.  A level is two BLAS calls: the
    near product, from the block's first level, takes the load too, with a
    unit weight after d_0, and writes r = phi - load into a buffer; mu
    (and at sigma < 1 level n) is written beside it, and one GEMV by the
    step's :func:`_solution_map` (its first N+2 columns at sigma = 1,
    which read no level) writes the level over its load.  A map that
    overflows leaves the march to :func:`_banded_body`.

    The map's row 0 is alpha times its row N, so y_0 = alpha*y_N holds to
    rounding only, a few ulps on most levels; the banded and propagated
    bodies set y_0 from y_N, so their levels hold it bit for bit.  Exact
    coupling would cost one more product per level (a GEMV of rows 1..N
    and the lift).
    """
    A = _solution_map(step, alpha)
    if not np.isfinite(A).all():
        return _banded_body(step, memory, alpha)
    H, weights = memory.history, np.append(memory._d, 1.0)
    W, top = H.shape[1], weights.size - 2
    explicit = step.explicit != 0.0
    if not explicit:
        A = A[:, :W + 1].copy()
    buf = np.empty(A.shape[1])          # r, mu, then level n at sigma < 1
    r, old = buf[:W], buf[W + 1:]
    dot = np.dot

    def advance(n0: int, mu: np.ndarray) -> None:
        lo = max(n0, 1)
        for n, mu_n in zip(range(n0, n0 + len(mu)), mu.tolist()):
            weights[top - n + lo:].dot(H[lo:n + 2], r)
            buf[W] = mu_n
            if explicit:
                old[:] = H[n]
            dot(A, buf, H[n + 1])

    return advance, _BLOCK


def _block_body(step: Step, memory: L1Memory, alpha: float) -> tuple[
        Callable[[int, np.ndarray], None], int]:
    """As :func:`_step_body`, but a GEMM per block: ``(advance, _PROPAGATE)``.

    A step is affine, y^{n+1} = A_r*r + a_mu*mu + A_y*y^n (the columns of
    :func:`_solution_map`), r the source minus the memory load (A_y = 0 at
    sigma = 1).  The levels of a block after b0 solve a lower
    block-triangular Toeplitz system in the weights d_k, whose inverse (Lu,
    Pang and Sun 2015) is R_0 = I, R_k = A_r*S_{k-1} + A_y*R_{k-1}, S_k =
    sum_{i<=k} d_i*R_{k-i}.  With F_i the source plus the far loads of
    level b0+i+1 (which its row of the history holds as ``advance(b0,
    mu)`` starts), level b0+k+1 is one GEMM, sum_{i<=k} R_{k-i}*(A_r*F_i +
    a_mu*mu_i), plus one GEMV, Q_k*y^{b0} with Q_k = S_k*A_r + R_k*A_y
    (R_k*A_y first, where level 0 keeps c_n in the far loads).  A Green's
    function that overflows leaves the march to :func:`_banded_body`.
    """
    H, B, d = memory.history, _PROPAGATE, memory._d
    W = H.shape[1]
    A = _solution_map(step, alpha)
    taps = np.concatenate((np.zeros(B), d))[-B:]     # d_{B-1}..d_0
    Z, C = np.empty((2, B, W, 2 * W + 1))     # R_k*A and S_k*A
    Z[0] = A
    for k in range(B):
        np.dot(taps[B - 1 - k:], Z[:k + 1].reshape(k + 1, -1),
               C[k].reshape(-1))
        if k + 1 < B:
            Z[k + 1] = A[:, :W] @ C[k] + (
                A[:, W + 1:] @ Z[k] if step.explicit else 0.0)
    K = Z[::-1, :, :W + 1].transpose(0, 2, 1).reshape(B * (W + 1), W)
    Q = np.stack((Z[..., W + 1:], C[..., :W] + Z[..., W + 1:])).transpose(
        0, 3, 1, 2).reshape(2, W, B * W)
    if not (np.isfinite(K).all() and np.isfinite(Q).all()):
        return _banded_body(step, memory, alpha)
    U = np.zeros((2 * B - 1, W + 1))    # B-1 rows of zeros, then (F_i, mu_i)
    F, toeplitz = U[B - 1:], sliding_window_view(U.ravel(), B * (W + 1))

    def advance(b0: int, mu: np.ndarray) -> None:
        q = len(mu)
        X = H[b0 + 1:b0 + 1 + q]
        F[:q, :W], F[:q, W] = X, mu
        np.matmul(toeplitz[:q * (W + 1):W + 1].copy(), K, out=X)
        X += (H[b0] @ Q[min(b0, 1)])[:q * W].reshape(q, W)
        X[:, 0] = alpha * X[:, -1]

    return advance, B


def march(problem: Problem, grid: Grid, params: SchemeParams,
          *folds: Callable[[int, np.ndarray], object], y0=None,
          check_residuals: bool = False) -> SolveOutcome:
    """March the scheme, calling each ``fold(first level, block)`` in turn.

    Level 0 samples ``problem.u0`` on the grid, or is ``y0`` verbatim (the
    stability experiments pass random data).  The call first builds the
    step and factors its matrix (an overflowing one raises DomainError,
    a singular one SingularSystemError) and checks level 0 (a bad one
    raises DomainError), so a refused march calls no fold.  The width
    picks the body (see ``_PROPAGATE_WIDTH``): ``_PROPAGATE`` levels per
    GEMM (:func:`_block_body`), a level per product by the step's solution
    map (:func:`_step_body`) or, as at N=320, a banded solve per level
    (:func:`_banded_body`, the oracle of both and their fallback when
    their matrices overflow).

    The levels are made in the memory's history (:class:`L1Memory`), one
    ``(Nt+1, N+1)`` array with level n in row n.  f and mu are sampled a
    data block (``block_levels``) at a time, one call each on the block's
    times (:func:`_step_data`).  The data blocks are powers of
    two, so the body's blocks nest in them: ``_BLOCK`` levels stepped,
    ``_PROPAGATE`` propagated, or the data block's size where that is
    smaller (marches wider than 1,024 nodes).  As a body block starts, the
    memory writes its far loads once into the history rows of the levels
    they load (:meth:`L1Memory._far_loads`); the call adds the source rows
    to them in place and hands the body its levels' mu, so it keeps
    nothing between blocks but the history.  Once the guard has read a
    data block, the folds get it, a view of the history's rows, in the
    order given, under the caller's numpy error state; the first also
    holds level 0.  A fold that changes the levels changes the march.

    A level that is non-finite (also after an overflow) or exceeds
    ``BLOWUP_LIMIT`` in max norm ends the march and its block; the levels
    computed past it are dropped, as a check after every level would.
    The outcome's history holds the rows produced, after a blow-up the
    offending level last.  The march checks no residual: with
    ``check_residuals`` the finished history is replayed against the
    oracle right-hand side (:func:`_step_residuals`), O(Nt^2*N) per march.
    """
    memory = L1Memory(problem.gamma, grid.tau, grid.Nt, grid.N + 1)
    step = build_step(problem, grid, params.sigma, memory.c_new)
    step.operator._factors      # factor and check the closure before any load
    rows = block_levels(grid.N + 1)
    levels = memory.history
    if y0 is not None and np.shape(y0) != (grid.N + 1,):
        raise DimensionError(f"y0 has shape {np.shape(y0)}, "
                             f"expected ({grid.N + 1},)")
    levels[0] = sample_space(problem.u0, grid.x) if y0 is None else y0
    blow = _first_blow_up(levels[:1], 0)
    if blow is not None:
        raise DomainError(f"initial level: max norm {blow.norm} is not "
                          f"finite or exceeds {BLOWUP_LIMIT}")
    sigma, W = params.sigma, grid.N + 1
    body = (_block_body if W <= min(_PROPAGATE_WIDTH, grid.Nt // _PROPAGATE)
            else _step_body if W <= _PRODUCT_WIDTH else _banded_body)
    with np.errstate(over="ignore", invalid="ignore"):    # see _block_body
        advance, B = body(step, memory, problem.alpha)
    B = min(B, rows)
    for n0 in range(0, grid.Nt, rows):
        # The folds run outside the error state, so they see the caller's.
        with np.errstate(over="ignore", invalid="ignore"):
            made = min(rows, grid.Nt - n0)
            phi, mu = _step_data(problem, grid, sigma, n0, n0 + made)
            for s in range(n0, n0 + made, B):
                memory._far_loads(s, B)
                stop = min(s + B, n0 + made)
                loads = levels[s + 1:stop + 1]
                np.add(loads, phi[s - n0:stop - n0], out=loads)
                advance(s, mu[s - n0:stop - n0])
            blow = _first_blow_up(levels[n0 + 1:n0 + 1 + made], n0 + 1)
        if blow is not None:        # drop what the block computed past it
            made = blow.level - n0
        first = 0 if n0 == 0 else n0 + 1
        for fold in folds:
            fold(first, levels[first:n0 + 1 + made])
        if blow is not None:
            levels = levels[:blow.level + 1]
            break
    return SolveOutcome(levels, blow, _step_residuals(
        problem, grid, params, levels) if check_residuals else None)


def _step_residuals(problem: Problem, grid: Grid, params: SchemeParams,
                    levels: np.ndarray) -> list[float]:
    """The relative residual of every step of a finished history.

    ``levels`` holds the levels 0..last of a march (after a blow-up, the
    bad level last).  The residual of step n is that of level n+1 in the
    march's matrix against the right-hand side that :func:`assemble_step`
    makes of the levels 0..n, which reads nothing of :class:`L1Memory`: a
    wrong far load, FFT piece or fused right-hand side shows in it as a
    wrong solve does.  The step, the data (one :func:`_step_data` call),
    the weights and the increments are taken once; the load of step n is
    :func:`split_implicit`'s, one product of the tail of the last step's
    weights with the increments, O(n*N); one stacked :func:`_step_rhs`
    and :meth:`StepOperator.residual` then give each assembled step's bits.
    """
    c = l1_weights(grid.Nt - 1, problem.gamma, grid.tau).c
    step = build_step(problem, grid, params.sigma, float(c[-1]))
    old = levels[:-1]
    with np.errstate(over="ignore", invalid="ignore"):
        phi, mu = _step_data(problem, grid, params.sigma, 0, len(old))
        diffs, loads = np.diff(levels, axis=0), np.empty(old.shape)
        for n in range(len(old)):
            np.matmul(c[-n - 1:-1], diffs[:n], out=loads[n])
        loads -= c[-1] * old
        rhs = _step_rhs(step, old, np.subtract(phi, loads, out=loads), mu,
                        np.empty((len(old), grid.N)))
        return step.operator.residual(rhs, levels[1:, 1:]).tolist()


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
