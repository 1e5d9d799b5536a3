"""Manufactured test problems with a known exact solution.

The family is a separable product u(x,t) = S(x)*Q(t) with

    S(x) = (1-3*alpha)*x**3 + alpha*x**2 + alpha*x + alpha
    Q(t) = t**3 - t**2 + t + 1

and diffusivity k(x) = exp(x).  By construction S(0) = alpha*S(1), so u
satisfies the value coupling for every alpha, and the flux datum mu is
derived so the flux coupling holds as well.  The source f is derived
from the equation using the closed-form Caputo derivative of Q, which
for order gamma is

    D(Q)(t) = 6*t**(3-gamma)/G(4-gamma) - 2*t**(2-gamma)/G(3-gamma)
              + t**(1-gamma)/G(2-gamma).

``verify_compatibility`` re-checks all of that numerically (quadrature
for the memory term) so a derivation slip cannot silently corrupt the
convergence studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, Grid, Problem, check_time
from .fractional import caputo_oracle

__all__ = [
    "CompatibilityError",
    "CompatibilityReport",
    "space_profile",
    "space_profile_d1",
    "space_profile_d2",
    "time_profile",
    "time_profile_d1",
    "caputo_time_profile",
    "build_manufactured",
    "verify_compatibility",
    "build_zero",
    "CATALOG",
]


class CompatibilityError(ValueError):
    """A manufactured problem fails one of its defining identities."""


def space_profile(alpha: float, x):
    return (1.0 - 3.0 * alpha) * x**3 + alpha * x**2 + alpha * x + alpha


def space_profile_d1(alpha: float, x):
    return 3.0 * (1.0 - 3.0 * alpha) * x**2 + 2.0 * alpha * x + alpha


def space_profile_d2(alpha: float, x):
    return 6.0 * (1.0 - 3.0 * alpha) * x + 2.0 * alpha


def time_profile(t):
    return t**3 - t**2 + t + 1.0


def time_profile_d1(t):
    return 3.0 * t**2 - 2.0 * t + 1.0


def caputo_time_profile(gamma: float, t):
    """Closed-form Caputo derivative of the cubic time profile."""
    e3, e2, e1 = 3.0 - gamma, 2.0 - gamma, 1.0 - gamma
    g4, g3, g2 = math.gamma(4.0 - gamma), math.gamma(e3), math.gamma(e2)
    return 6.0 * t ** e3 / g4 - 2.0 * t ** e2 / g3 + t ** e1 / g2


def build_manufactured(alpha: float, beta: float, gamma: float,
                       T: float = 1.0) -> Problem:
    """Manufactured problem for given boundary parameters and order.

    The source and boundary datum are derived so that S(x)*Q(t) solves
    the problem exactly; k(x) = exp(x) gives c1 = 1, c2 = e.  Source and
    exact solution are plain callbacks of (x, t):
    f = S*D(Q) + (-E)*Q with E(x) = exp(x)*(S'(x) + S''(x)), and u = S*Q.
    """
    mu_factor = math.e * (3.0 - 6.0 * alpha) - beta * alpha

    def S(x):
        return space_profile(alpha, x)

    def minus_E(x):
        return -(np.exp(x) * (space_profile_d1(alpha, x)
                              + space_profile_d2(alpha, x)))

    def f(x, t):
        return (S(x) * caputo_time_profile(gamma, t)
                + minus_E(x) * time_profile(t))

    def exact(x, t):
        return S(x) * time_profile(t)

    def mu(t):
        return mu_factor * time_profile(t)

    problem = Problem(gamma=gamma, alpha=alpha, beta=beta, k=np.exp, f=f,
                      mu=mu, u0=S, c1=1.0, c2=math.e, exact=exact)
    # The time factors grow like T**3, which overflows above T = 5.6e102.
    # Such a T is refused before any march, checked a few ulps past T,
    # where the time n*tau of the last level may round to.
    check_time("final time T", T)
    t = np.array([T * (1.0 + 2.0**-50)])
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite([time_profile(t), caputo_time_profile(gamma, t),
                            mu(t)]).all():
            raise DomainError(f"the time factors or mu overflow at the final "
                              f"time T={T} (alpha={alpha}, beta={beta})")
    # Below T = 1.1e-16 the exact solution rounds to its value at 0.
    if time_profile(T) == time_profile(0.0):
        raise DomainError(f"the time profile does not change over [0, T] "
                          f"at the final time T={T}")
    return problem


@dataclass(frozen=True)
class CompatibilityReport:
    """Largest residuals seen while re-checking a manufactured problem."""

    max_pde_residual: float
    max_value_residual: float
    max_flux_residual: float


# Points, seed and tolerances of verify_compatibility.
_SAMPLES, _SEED, _PDE_TOL, _BC_TOL = 50, 20260810, 1e-8, 1e-12


def verify_compatibility(problem: Problem, grid: Grid) -> CompatibilityReport:
    """Numerically re-check the identities defining a manufactured problem.

    At _SAMPLES random (x, t) points the memory term of the exact
    solution is evaluated by quadrature and compared against the source
    plus diffusion term; both boundary couplings are checked at the same
    times.  Final time is taken from ``grid``.  The tolerances apply
    relative to the magnitude of the identity's terms (so they are
    absolute for order-one data but do not demand sub-ulp cancellation
    when alpha or beta reach the hundreds).

    Raises
    ------
    CompatibilityError
        Naming the first identity whose residual exceeds its tolerance.
    """
    rng = np.random.default_rng(_SEED)
    alpha, beta, gamma = problem.alpha, problem.beta, problem.gamma
    xs = rng.uniform(0.0, 1.0, _SAMPLES)
    # Keep t away from 0 where the memory term of the check itself vanishes.
    ts = rng.uniform(0.01 * grid.T, grid.T, _SAMPLES)

    max_pde = 0.0
    for x, t in zip(xs, ts):
        mem = space_profile(alpha, x) * caputo_oracle(
            time_profile, time_profile_d1, t, gamma)
        diffusion = (math.exp(x)
                     * (space_profile_d1(alpha, x) + space_profile_d2(alpha, x))
                     * time_profile(t))
        scale = max(1.0, abs(mem), abs(diffusion))
        res = abs(mem - diffusion - problem.f(x, t)) / scale
        max_pde = max(max_pde, res)
        if res > _PDE_TOL:
            raise CompatibilityError(
                f"pde-residual {res:.3e} > {_PDE_TOL:.1e} at x={x}, t={t}"
            )

    max_value = 0.0
    max_flux = 0.0
    for t in ts:
        left = problem.exact(0.0, t)
        right = alpha * problem.exact(1.0, t)
        value = abs(left - right) / max(1.0, abs(left), abs(right))
        out_flux = math.e * space_profile_d1(alpha, 1.0) * time_profile(t)
        in_flux = beta * space_profile_d1(alpha, 0.0) * time_profile(t)
        flux = (abs(out_flux - in_flux - problem.mu(t))
                / max(1.0, abs(out_flux), abs(in_flux), abs(problem.mu(t))))
        max_value = max(max_value, value)
        max_flux = max(max_flux, flux)
        if value > _BC_TOL:
            raise CompatibilityError(
                f"value-coupling residual {value:.3e} > {_BC_TOL:.1e} at t={t}"
            )
        if flux > _BC_TOL:
            raise CompatibilityError(
                f"flux-coupling residual {flux:.3e} > {_BC_TOL:.1e} at t={t}"
            )

    return CompatibilityReport(max_pde_residual=max_pde,
                               max_value_residual=max_value,
                               max_flux_residual=max_flux)


def build_zero(alpha: float = 1.0, beta: float = 1.0, gamma: float = 0.5,
               T: float = 1.0) -> Problem:
    """Fully homogeneous problem; the zero function is its exact solution.

    Source and exact solution give zeros of the shape their arguments
    broadcast to, and mu zeros of its argument's shape, so a march samples
    each once per block of times.

    k(x) = exp(x) with c1 = 1, c2 = e, as in the manufactured family.
    """
    def zero(x, t):
        return np.zeros(np.broadcast(x, t).shape)

    return Problem(gamma=gamma, alpha=alpha, beta=beta, k=np.exp, f=zero,
                   mu=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
                   u0=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                   c1=1.0, c2=math.e, exact=zero)


# Named problems addressable from the command line.  Builders share the
# signature (alpha, beta, gamma, T).
CATALOG = {
    "mms-cubic": build_manufactured,
    "zero": build_zero,
}
