"""Discrete Caputo derivative of order gamma in (0, 1) and its oracles.

The discrete operator replaces the time derivative inside the Caputo
memory integral by first differences on the uniform time grid, which
turns the derivative at t_{n+1} into a weighted sum of the increments
y^{s+1} - y^s with weights built from increments of t**(1-gamma).  For
three-times differentiable functions the truncation error decays like
tau**(2-gamma).

Alongside the operator this module provides:

* ``split_implicit`` - the rearrangement used by implicit time stepping,
  isolating the coefficient of the newest (unknown) level;
* ``caputo_oracle`` - a high-accuracy quadrature of the continuous Caputo
  integral, used to measure the truncation error of the discrete operator;
* ``energy_identity_remainders`` - the nonnegative remainders J1, J2 in
  the exact identities that expand y^{n+1}*D(y) and y^n*D(y) in terms of
  D(y^2) and D(y)^2, the backbone of the discrete energy estimates.

Every function here is pure and safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DimensionError, DomainError, check_gamma, check_time

__all__ = [
    "OracleFailureError",
    "L1Weights",
    "l1_weights",
    "discrete_caputo",
    "split_implicit",
    "ORACLE_TOL",
    "caputo_oracle",
    "energy_identity_remainders",
]


class OracleFailureError(RuntimeError):
    """The quadrature oracle could not reach its accuracy bound."""

    def __init__(self, message: str, achieved: float):
        super().__init__(message)
        self.achieved = achieved


def _power_increments(n: int, gamma: float, tau: float) -> np.ndarray:
    """Increments t_{j+1}**(1-gamma) - t_j**(1-gamma) for j = 0..n.

    The first is t_1**(1-gamma) itself.  Each later one is taken as
    t_j**(1-gamma)*expm1((1-gamma)*log1p(1/j)), which loses nothing to
    cancellation: it stays within a few ulps, where the difference of the
    two powers loses digits as t_j grows and as gamma nears 1.
    """
    e = 1.0 - gamma
    j = np.arange(n + 1, dtype=float)
    inc = (np.maximum(j, 1.0) * tau) ** e
    inc[1:] *= np.expm1(e * np.log1p(1.0 / j[1:]))
    return inc


@dataclass(frozen=True)
class L1Weights:
    """Increment weights of the discrete Caputo operator at level n+1.

    ``c[s]`` multiplies the increment y^{s+1} - y^s for s = 0..n:

        c[s] = (t_{n-s+1}**(1-gamma) - t_{n-s}**(1-gamma)) / (tau*G(2-gamma))

    The weights are positive, increase with s (the newest increment is
    weighted the most) and telescope:

        sum_s c[s]*tau = t_{n+1}**(1-gamma) / G(2-gamma).
    """

    c: np.ndarray


def l1_weights(n: int, gamma: float, tau: float) -> L1Weights:
    """Weights of the discrete Caputo derivative at time level n+1.

    Parameters
    ----------
    n : int
        Index of the newest known level; the operator acts at t_{n+1}.
    gamma : float
        Fractional order, in (0, 1).
    tau : float
        Time step, positive, finite and normal (see ``core.check_time``).
    """
    if n < 0:
        raise DomainError(f"time index must be nonnegative, got {n}")
    check_gamma(gamma)
    check_time("time step", tau)
    inc = _power_increments(n, gamma, tau)
    # inc[j] belongs to increment index s = n - j.
    c = inc[::-1] / (tau * math.gamma(2.0 - gamma))
    return L1Weights(c=c)


def discrete_caputo(series, gamma: float, tau: float) -> float:
    """Discrete Caputo derivative of a scalar series at its last level.

    ``series`` holds y^0..y^{n+1}; the value returned is

        sum_{s=0}^{n} (t_{n-s+1}**(1-g) - t_{n-s}**(1-g))
                      * (y^{s+1} - y^s) / (tau*G(2-g)).

    Exact for linear-in-time series; order 2-gamma for smooth ones.
    """
    y = np.asarray(series, dtype=float)
    if y.ndim != 1 or y.size < 2:
        raise DimensionError("series must be 1-D with at least two levels")
    w = l1_weights(y.size - 2, gamma, tau)
    return float(w.c @ np.diff(y))


def split_implicit(series, gamma: float,
                   tau: float) -> tuple[float, float | np.ndarray]:
    """Split the operator at the next level into c_new*y_next + load.

    ``series`` holds the known levels y^0..y^n along axis 0, each level
    one value or one row of values.  Returns ``(c_new, load)`` with
    ``c_new = tau**(-gamma)/G(2-gamma)`` such that for every y_next

        discrete_caputo(series + [y_next]) == c_new*y_next + load,

    taken value by value; ``load`` is a float for a 1-D series and a row
    for a 2-D one.  It depends only on the known history, so an implicit
    step can move it to the right-hand side.
    """
    y = np.asarray(series, dtype=float)
    if y.ndim not in (1, 2) or y.shape[0] < 1:
        raise DimensionError("series must hold a level or more, 1-D or 2-D")
    w = l1_weights(y.shape[0] - 1, gamma, tau)
    c_new = float(w.c[-1])
    load = w.c[:-1] @ np.diff(y, axis=0) - c_new * y[-1]
    return c_new, load


# Absolute accuracy that caputo_oracle guarantees, or else raises.
ORACLE_TOL = 1e-10


def caputo_oracle(v, v_prime, t: float, gamma: float) -> float:
    """Continuous Caputo derivative of a smooth function by quadrature.

    Evaluates (1/G(1-gamma)) * integral_0^t v'(eta) (t-eta)**(-gamma) deta
    after the substitution s = (t-eta)**(1-gamma), which removes the
    endpoint singularity:

        value = (1/G(2-gamma)) * integral_0^{t**(1-gamma)}
                                  v'(t - s**(1/(1-gamma))) ds.

    The transformed integrand is evaluated with adaptive Gauss-Kronrod
    quadrature to absolute accuracy ``ORACLE_TOL`` (1e-10).

    Raises
    ------
    OracleFailureError
        If the quadrature error estimate exceeds ``ORACLE_TOL``; the
        achieved accuracy is attached to the exception.
    """
    # Imported here: scipy.integrate, with the scipy.linalg package it
    # pulls in, takes about 0.6 s and 47 MB to load, and no march or
    # study needs it.
    from scipy.integrate import quad

    check_gamma(gamma)
    check_time("oracle time t", t)
    p = 1.0 / (1.0 - gamma)
    s_max = t ** (1.0 - gamma)

    def integrand(s: float) -> float:
        return v_prime(t - s**p)

    scale = math.gamma(2.0 - gamma)
    # full_output silences quad's IntegrationWarning, which would only repeat
    # the error raised below; unlike a warnings filter it is thread-safe.
    val, err = quad(integrand, 0.0, s_max, epsabs=ORACLE_TOL * scale * 0.1,
                    epsrel=1e-13, limit=400, full_output=1)[:2]
    achieved = err / scale
    if achieved > ORACLE_TOL:
        raise OracleFailureError(f"Caputo quadrature reached {achieved:.3e}, "
                                 f"wanted {ORACLE_TOL:.3e}", achieved)
    return val / scale


def energy_identity_remainders(series, nu: float, tau: float) -> tuple[float, float]:
    """Nonnegative remainders of the discrete product identities.

    For a scalar series y^0..y^{n+1} and D = discrete Caputo of order nu
    at the last level, the following hold exactly:

        y^{n+1}*D(y) = (1/2)*D(y^2) + (tau**nu*G(2-nu)/2)*D(y)**2 + J1
        y^{n}  *D(y) = (1/2)*D(y^2)
                       - (tau**nu*G(2-nu)/(2*(2-2**(1-nu))))*D(y)**2 + J2

    with J1, J2 >= 0.  Both are built from the partial weighted increment
    sums zeta^{k+1} = sum_{s<=k} (t_{n-s+1}**(1-nu) - t_{n-s}**(1-nu)) * y_t^s;
    sums with an empty index range are zero.  J1 is a bracket-weighted sum
    of squared partial sums; J2 replaces the final bracket term by the
    square of zeta^{n+1} + (2-2**(1-nu))/(2**(1-nu)-1) * zeta^n (the two
    agree because the last bracket closes against the weight of the
    newest increment), which keeps both remainders manifestly
    nonnegative.

    Returns ``(J1, J2)``.
    """
    y = np.asarray(series, dtype=float)
    if y.ndim != 1 or y.size < 2:
        raise DimensionError("series must be 1-D with at least two levels")
    check_gamma(nu)
    n = y.size - 2
    g2 = math.gamma(2.0 - nu)
    two = 2.0 ** (1.0 - nu)

    inc = _power_increments(n, nu, tau)
    w = inc[::-1]                       # w[s] = t_{n-s+1}^{1-nu} - t_{n-s}^{1-nu}
    yt = np.diff(y) / tau
    zeta = np.concatenate(([0.0], np.cumsum(w * yt)))   # zeta[k], k = 0..n+1

    # J1: k = 0..n-1 with bracket 1/w[k] - 1/w[k+1] >= 0.
    brackets = 1.0 / w[:-1] - 1.0 / w[1:]               # index k = 0..n-1
    sq = zeta[1:n + 1] ** 2                             # zeta^{k+1}, k = 0..n-1
    j1 = tau / (2.0 * g2) * float(brackets @ sq) if n >= 1 else 0.0

    # J2: leading square plus the same bracket sum truncated at k = n-2.
    lead = (tau**nu * (two - 1.0) / (2.0 * g2 * (2.0 - two))
            * (zeta[n + 1] + (2.0 - two) / (two - 1.0) * zeta[n]) ** 2)
    j2 = lead
    if n >= 2:
        j2 += tau / (2.0 * g2) * float(brackets[: n - 1] @ sq[: n - 1])
    return float(j1), float(j2)
