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
    "check_gamma",
    "check_steps",
    "Grid",
    "NodeSampler",
    "Problem",
    "SchemeParams",
    "Separable",
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


def check_gamma(gamma: float) -> None:
    """Reject a fractional order outside the open interval (0, 1)."""
    if not 0.0 < gamma < 1.0:
        raise DomainError(f"gamma must lie in (0, 1), got {gamma}")


def check_steps(steps: float) -> None:
    """Reject a number of time steps above MAX_STEPS, or NaN."""
    if not steps <= MAX_STEPS:
        raise DomainError(f"{steps} time steps exceed the limit of "
                          f"{MAX_STEPS}")


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
    T : float
        Final time, positive and finite.
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
        if not (self.T > 0 and math.isfinite(self.T)):
            raise DomainError(f"final time must be positive and finite, "
                              f"got T={self.T}")

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
        Source term ``f(x, t)``; a :class:`Separable` has its space
        factors sampled once per march.
    mu : callable
        Flux boundary datum ``mu(t)``.
    u0 : callable
        Initial condition ``u0(x)``.
    c1, c2 : float
        Declared bounds ``0 < c1 <= k(x) <= c2``; verified against the
        grid samples when face coefficients are built.
    exact : callable, optional
        Reference solution ``u(x, t)`` used by error reports; a
        :class:`Separable` is evaluated a block of levels at a time.
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
    """Evaluate a scalar function of x on an array of nodes.

    Same as :func:`sample_space_time` with the time argument ignored.
    """
    return sample_space_time(lambda xs, _: func(xs), x, None)


def sample_space_time(func: Callable, x: np.ndarray, t: float) -> np.ndarray:
    """Evaluate f(x, t) on an array of space nodes at one time.

    Tries a single vectorised call first and falls back to per-point
    evaluation for callbacks written against plain floats.
    """
    try:
        out = np.asarray(func(x, t), dtype=float)
        if out.shape == x.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.array([float(func(float(xi), t)) for xi in x])


def _term_sum(terms, zero):
    """Sum of the arrays ``terms`` in order, or ``zero`` if there are none."""
    value = zero
    for k, term in enumerate(terms):
        value = value + term if k else term
    return value


@dataclass(frozen=True)
class Separable:
    """Function of (x, t) stated as a short sum of space x time terms.

    ``terms`` holds pairs (s_k, q_k); the value is s_1(x)*q_1(t) +
    s_2(x)*q_2(t) + ..., summed in term order, and zero without terms.
    """

    terms: tuple[tuple[Callable, Callable], ...] = ()

    def __call__(self, x, t):
        return _term_sum((s(x) * q(t) for s, q in self.terms),
                         np.zeros_like(np.asarray(x, dtype=float)))


class NodeSampler:
    """A function of (x, t) on fixed nodes, at one time or a block of times.

    A :class:`Separable` has its space factors sampled once, here; each
    time then costs one multiply and one add per term, with the time
    factor a Python scalar, as in a pointwise call, and data without
    terms give one shared zero array.  Other callbacks go through
    :func:`sample_space_time` at every time.
    """

    def __init__(self, func: Callable, x: np.ndarray):
        self._func, self._x = func, x
        self._factors = ([(sample_space(s, x), q) for s, q in func.terms]
                         if isinstance(func, Separable) else None)
        self._zero = np.zeros_like(x, dtype=float)

    def at(self, t: float) -> np.ndarray:
        """Values at time t."""
        if self._factors is None:
            return sample_space_time(self._func, self._x, t)
        return _term_sum((s * q(t) for s, q in self._factors), self._zero)

    def rows(self, times) -> np.ndarray:
        """Values at several times, row j holding time ``times[j]``."""
        if self._factors is None:
            return np.array([self.at(t) for t in times])
        return _term_sum((s * np.array([q(t) for t in times])[:, None]
                          for s, q in self._factors),
                         np.zeros((len(times), self._x.size)))


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
