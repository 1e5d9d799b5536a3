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

from .core import Grid, Problem, Separable
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
    return (6.0 * t ** (3.0 - gamma) / math.gamma(4.0 - gamma)
            - 2.0 * t ** (2.0 - gamma) / math.gamma(3.0 - gamma)
            + t ** (1.0 - gamma) / math.gamma(2.0 - gamma))


def build_manufactured(alpha: float, beta: float, gamma: float,
                       T: float = 1.0) -> Problem:
    """Manufactured problem for given boundary parameters and order.

    The source and boundary datum are derived so that S(x)*Q(t) solves
    the problem exactly; k(x) = exp(x) gives c1 = 1, c2 = e.  Source and
    exact solution are :class:`~fracheat.core.Separable`:
    f = S*D(Q) + (-E)*Q with E(x) = exp(x)*(S'(x) + S''(x)), and u = S*Q.
    """
    mu_factor = math.e * (3.0 - 6.0 * alpha) - beta * alpha

    def S(x):
        return space_profile(alpha, x)

    def minus_E(x):
        return -(np.exp(x) * (space_profile_d1(alpha, x)
                              + space_profile_d2(alpha, x)))

    def DQ(t):
        return caputo_time_profile(gamma, t)

    def mu(t):
        return mu_factor * time_profile(t)

    return Problem(gamma=gamma, alpha=alpha, beta=beta,
                   k=np.exp, f=Separable(((S, DQ), (minus_E, time_profile))),
                   mu=mu, u0=S, c1=1.0, c2=math.e,
                   exact=Separable(((S, time_profile),)))


@dataclass(frozen=True)
class CompatibilityReport:
    """Largest residuals seen while re-checking a manufactured problem."""

    samples: int
    max_pde_residual: float
    max_value_residual: float
    max_flux_residual: float


def verify_compatibility(problem: Problem, grid: Grid,
                         samples: int = 50, seed: int = 20260810,
                         pde_tol: float = 1e-8,
                         bc_tol: float = 1e-12) -> CompatibilityReport:
    """Numerically re-check the identities defining a manufactured problem.

    At ``samples`` random (x, t) points the memory term of the exact
    solution is evaluated by quadrature and compared against the source
    plus diffusion term; both boundary couplings are checked at the same
    times.  Final time is taken from ``grid``.  Tolerances apply relative
    to the magnitude of the identity's terms (so they are absolute for
    order-one data but do not demand sub-ulp cancellation when alpha or
    beta reach the hundreds).

    Raises
    ------
    CompatibilityError
        Naming the first identity whose residual exceeds its tolerance.
    """
    rng = np.random.default_rng(seed)
    alpha, beta, gamma = problem.alpha, problem.beta, problem.gamma
    xs = rng.uniform(0.0, 1.0, samples)
    # Keep t away from 0 where the memory term of the check itself vanishes.
    ts = rng.uniform(0.01 * grid.T, grid.T, samples)

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
        if res > pde_tol:
            raise CompatibilityError(
                f"pde-residual {res:.3e} > {pde_tol:.1e} at x={x}, t={t}"
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
        if value > bc_tol:
            raise CompatibilityError(
                f"value-coupling residual {value:.3e} > {bc_tol:.1e} at t={t}"
            )
        if flux > bc_tol:
            raise CompatibilityError(
                f"flux-coupling residual {flux:.3e} > {bc_tol:.1e} at t={t}"
            )

    return CompatibilityReport(samples=samples,
                               max_pde_residual=max_pde,
                               max_value_residual=max_value,
                               max_flux_residual=max_flux)


def build_zero(alpha: float = 1.0, beta: float = 1.0, gamma: float = 0.5,
               T: float = 1.0) -> Problem:
    """Fully homogeneous problem; the zero function is its exact solution.

    Source and exact solution are separable with no terms, so a march
    spends nothing on the source.

    k(x) = exp(x) with c1 = 1, c2 = e, as in the manufactured family.
    """
    return Problem(gamma=gamma, alpha=alpha, beta=beta,
                   k=np.exp, f=Separable(), mu=lambda t: 0.0,
                   u0=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                   c1=1.0, c2=math.e, exact=Separable())


# Named problems addressable from the command line.  Builders share the
# signature (alpha, beta, gamma, T).
CATALOG = {
    "mms-cubic": build_manufactured,
    "zero": build_zero,
}
