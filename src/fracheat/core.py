"""Domain types shared by every part of the solver.

A problem on the unit interval couples a fractional-in-time diffusion
operator with two-parameter nonlocal boundary conditions: the solution
value at the left end is tied to the value at the right end through the
parameter ``alpha``, and the boundary fluxes are tied through ``beta``
plus a time-dependent datum ``mu``.  This module holds the mesh, the
problem data and the scheme weight; the numerics live in
:mod:`fracheat.fractional`, :mod:`fracheat.stepper` and
:mod:`fracheat.norms`.

All types are immutable after construction and safe to share between
threads by value.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "DomainError",
    "DimensionError",
    "BoundsViolationError",
    "MAX_NODES",
    "MAX_STEPS",
    "MAX_LEVEL_ENTRIES",
    "check_gamma",
    "check_steps",
    "check_time",
    "Grid",
    "Problem",
    "SchemeParams",
    "face_coefficients",
    "sample_space",
    "sample_space_time",
]


class DomainError(ValueError):
    """A parameter lies outside its admissible range."""


class DimensionError(ValueError):
    """Vector lengths do not agree."""


class BoundsViolationError(ValueError):
    """A sampled diffusivity value escapes the declared [c1, c2] range."""


# Most time steps a grid or a series may have, and most space intervals
# a grid may have: far above any study (the longest planned, N=1280 at
# gamma=0.8, takes about 151,000 steps), and low enough that a longer or
# wider march is refused before its levels are allocated.
MAX_STEPS = MAX_NODES = 10**6
# Most entries (N+1)*(Nt+1) of a grid's level array (2 GiB of float64),
# above the 193 million of that study.
MAX_LEVEL_ENTRIES = 2**28


def check_gamma(gamma: float) -> None:
    """Reject a fractional order outside the open interval (0, 1)."""
    if not 0.0 < gamma < 1.0:
        raise DomainError(f"gamma must lie in (0, 1), got {gamma}")


def check_steps(steps: float) -> None:
    """Reject a number of time steps above MAX_STEPS, or NaN."""
    if not steps <= MAX_STEPS:
        raise DomainError(f"{steps} time steps exceed the limit of "
                          f"{MAX_STEPS}")


def check_time(name: str, value: float) -> None:
    """Reject a time or time step that is not positive, finite and normal.

    A subnormal value (below ``np.finfo(float).tiny``) has lost digits
    already, so the grid and the weights built from it mean nothing.
    """
    if not np.finfo(float).tiny <= value < math.inf:
        raise DomainError(f"{name} must be positive, finite and at least "
                          f"{np.finfo(float).tiny}, got {value}")


@dataclass(frozen=True)
class Grid:
    """Uniform space-time mesh on [0, 1] x [0, T].

    Parameters
    ----------
    N : int
        Number of space subintervals (2 <= N <= MAX_NODES); mesh width
        ``h = 1/N``.
    Nt : int
        Number of time steps (1 <= Nt <= MAX_STEPS); step ``tau = T/Nt``.
        At most MAX_LEVEL_ENTRIES entries ``(N+1)*(Nt+1)`` in all.
    T : float
        Final time, positive and finite; T and tau are normal floats.
    """

    N: int
    Nt: int
    T: float = 1.0

    def __post_init__(self) -> None:
        for name, least in (("N", 2), ("Nt", 1)):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                    or value < least):
                raise DomainError(f"{name} must be an integer >= {least}, "
                                  f"got {value!r}")
        if self.N > MAX_NODES:
            raise DomainError(f"{self.N} space intervals exceed the limit of "
                              f"{MAX_NODES}")
        check_steps(self.Nt)
        if (self.N + 1) * (self.Nt + 1) > MAX_LEVEL_ENTRIES:
            raise DomainError(f"{self.N + 1}*{self.Nt + 1} level entries "
                              f"exceed the limit of {MAX_LEVEL_ENTRIES}")
        check_time("final time T", self.T)
        check_time("time step tau", self.tau)

    @property
    def h(self) -> float:
        return 1.0 / self.N

    @property
    def tau(self) -> float:
        return self.T / self.Nt

    @property
    def x(self) -> np.ndarray:
        """Space nodes x_i = i*h, i = 0..N."""
        return np.arange(self.N + 1) * self.h

    @classmethod
    def with_step(cls, N: int, tau: float, T: float = 1.0) -> "Grid":
        """Grid of the fewest steps of at most ``tau``: Nt = ceil(T/tau)."""
        cls(N=N, Nt=1, T=T)             # checks N and T before use
        check_time("tau: time step", tau)
        steps = T / tau
        check_steps(steps)
        return cls(N=N, Nt=int(np.ceil(steps)), T=T)

    @classmethod
    def balanced(cls, N: int, gamma: float, T: float = 1.0) -> "Grid":
        """Grid whose time step balances the two truncation terms.

        Picks the largest tau with ``tau**(2-gamma) <= h**2``, rounded so
        that ``Nt*tau = T`` exactly: ``Nt = ceil(T / h**(2/(2-gamma)))``.
        Rounding up keeps tau at or below the balancing value, so the
        combined error bound is preserved.
        """
        check_gamma(gamma)
        h = cls(N=N, Nt=1, T=T).h       # checks N and T before use
        return cls.with_step(N, h ** (2.0 / (2.0 - gamma)), T)


@dataclass(frozen=True)
class Problem:
    """Data of the nonlocal boundary value problem.

    The unknown u(x, t) satisfies a diffusion equation with a Caputo
    time derivative of order ``gamma`` and diffusivity ``k(x)``, subject
    to the value coupling ``u(0,t) = alpha*u(1,t)``, the flux coupling
    ``k(1)*u_x(1,t) = beta*k(0)*u_x(0,t) + mu(t)`` and the initial
    condition ``u(x,0) = u0(x)``.

    Parameters
    ----------
    gamma : float
        Fractional order of the time derivative, in (0, 1).
    alpha, beta : float
        Boundary coupling parameters, finite with ``alpha*beta`` positive
        and finite.
    k : callable
        Diffusivity ``k(x)`` on [0, 1].
    f : callable
        Source term ``f(x, t)``, sampled a block of times at a time (see
        :func:`sample_space_time`).
    mu : callable
        Flux boundary datum ``mu(t)``, called once on a block's time array
        when it takes arrays (see :func:`sample_space`).
    u0 : callable
        Initial condition ``u0(x)``.
    c1, c2 : float
        Declared bounds ``0 < c1 <= k(x) <= c2``; verified against the
        grid samples when face coefficients are built.
    exact : callable, optional
        Reference solution ``u(x, t)`` used by error reports, sampled a
        block of levels at a time as ``f`` is.
    """

    gamma: float
    alpha: float
    beta: float
    k: Callable
    f: Callable
    mu: Callable
    u0: Callable
    c1: float
    c2: float
    exact: Optional[Callable] = None

    def __post_init__(self) -> None:
        check_gamma(self.gamma)
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise DomainError(f"boundary parameters must be finite, "
                              f"got alpha={self.alpha}, beta={self.beta}")
        if not 0.0 < self.alpha * self.beta < math.inf:
            raise DomainError(
                f"boundary parameters must satisfy 0 < alpha*beta < inf, "
                f"got alpha={self.alpha}, beta={self.beta}"
            )
        if not 0.0 < self.c1 <= self.c2:
            raise DomainError(f"need 0 < c1 <= c2, got c1={self.c1}, c2={self.c2}")


@dataclass(frozen=True)
class SchemeParams:
    """Weight of the two-level scheme: sigma=1 fully implicit, 0 explicit."""

    sigma: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.sigma <= 1.0:
            raise DomainError(f"sigma must lie in [0, 1], got {self.sigma}")


def sample_space(func: Callable, x: np.ndarray) -> np.ndarray:
    """Evaluate a scalar function of one variable on an array of points.

    The points are space nodes or times.  Tries a single vectorised call
    first and falls back to per-point evaluation for callbacks written
    against plain floats, or whose result lacks the points' shape.
    """
    try:
        out = np.asarray(func(x), dtype=float)
        if out.shape == x.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.array([float(func(float(xi))) for xi in x])


def sample_space_time(func: Callable, x: np.ndarray, times) -> np.ndarray:
    """A function of (x, t) on the nodes ``x``, row j at time ``times[j]``.

    One call ``func(x[None, :], t[:, None])`` samples every time at once;
    a result of any other shape than ``(len(t), x.size)``, or a callback
    that refuses arrays, is sampled one time at a time through
    :func:`sample_space`, which falls back to one call per point.  Either
    way the rows are the same bits as the callback evaluated on the same
    time array; a call at one scalar time may differ by rounding.
    """
    times = np.asarray(times, dtype=float)
    try:
        out = np.asarray(func(x[None, :], times[:, None]), dtype=float)
        if out.shape == (times.size, x.size):
            return out
    except (TypeError, ValueError):
        pass
    return np.array([sample_space(lambda xs: func(xs, t), x)
                     for t in times.tolist()])


def face_coefficients(problem: Problem, grid: Grid) -> np.ndarray:
    """Diffusivity sampled at the cell faces, a_i = k(x_i - h/2).

    Returns the length-N vector (a_1, ..., a_N) used by the conservative
    second-difference operator, and verifies each sample against the
    problem's declared [c1, c2] bounds (with a small roundoff slack).

    Raises
    ------
    BoundsViolationError
        If any a_i falls outside [c1, c2], naming the offending index.
    """
    h = grid.h
    faces = (np.arange(1, grid.N + 1) - 0.5) * h
    a = sample_space(problem.k, faces)
    slack = 1e-12 * max(1.0, abs(problem.c2))
    bad = np.where((a < problem.c1 - slack) | (a > problem.c2 + slack))[0]
    if bad.size:
        i = int(bad[0]) + 1
        raise BoundsViolationError(
            f"face coefficient a_{i} = {a[bad[0]]} outside "
            f"[{problem.c1}, {problem.c2}]"
        )
    return a
