"""Discrete norms, the energy norm of the stability estimate, and orders.

Two mesh norms are used by the study harness: the trapezoid-weighted
full-grid L2 norm used for error tables, and the max norm.  The energy
norm adds to the interior L2 norm (endpoints excluded) a weighted
interior term and a weighted left-endpoint term; it is
the quantity that the scheme keeps nonincreasing for homogeneous data
when sigma is at or above the stability threshold.

The energy norm is defined only in the two sign-consistent parameter
regimes (|beta| >= |alpha| >= 1 or |beta| <= |alpha| <= 1, with
alpha*beta > 0).  In the second regime it is evaluated through the
reflection x -> 1-x, which maps the problem onto the first regime with
parameters (1/alpha, 1/beta) and reversed face coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, Grid, Problem

__all__ = [
    "UndefinedNormError",
    "EnergyWeights",
    "energy_weights",
    "norm_trapezoid",
    "norm_max",
    "energy_norm",
    "sigma_threshold",
    "convergence_order",
]


class UndefinedNormError(ValueError):
    """The energy norm is not defined for mixed-sign (alpha, beta) regimes."""


def norm_trapezoid(y, h: float) -> float | np.ndarray:
    """Full-grid L2 norm with half-weighted endpoints.

    sqrt(0.5*h*y_0**2 + 0.5*h*y_N**2 + sum_{i=1}^{N-1} y_i**2 * h); this
    is the trapezoid rule applied to y**2 and the norm reported in the
    error tables.  Taken along the last axis: a float for one level, an
    array for a level array, each row summed as it would be alone.
    """
    v = np.asarray(y, dtype=float)
    norm = np.sqrt(0.5 * h * (v[..., 0] ** 2 + v[..., -1] ** 2)
                   + h * np.sum(v[..., 1:-1] ** 2, axis=-1))
    return float(norm) if norm.ndim == 0 else norm


def norm_max(y) -> float | np.ndarray:
    """Max norm over all nodes, along the last axis like norm_trapezoid."""
    norm = np.max(np.abs(np.asarray(y, dtype=float)), axis=-1)
    return float(norm) if norm.ndim == 0 else norm


@dataclass(frozen=True)
class EnergyWeights:
    """Weights of the energy norm, after reflection if one was needed.

    ``p1_sq[i] = sum_{s=i}^{N-1} h / a_{s+1}`` (and ``p1_sq[N] = 0``) is
    the discrete analogue of the integral of 1/k from x_i to 1 for the
    effective (possibly reflected) face coefficients; ``delta1`` and
    ``gamma1`` are evaluated at the effective parameters.  ``reflected``
    is true in the regime |beta| <= |alpha| <= 1, whose norm is taken of
    the reversed level.
    """

    p1_sq: np.ndarray
    delta1: float
    gamma1: float
    reflected: bool

    def norms(self, levels, h: float) -> np.ndarray:
        """Energy norm of each row of a level array, in one pass.

        The sums run along the last axis, which for a row of a
        C-contiguous array is the contiguous one, so each row sums in
        the same order as the level would on its own.
        """
        v = np.asarray(levels, dtype=float)
        if self.reflected:
            v = v[..., ::-1]
        interior = v[..., 1:-1]
        return np.sqrt(h * np.sum(interior**2, axis=-1)
                       + self.delta1 * h
                       * np.sum(self.p1_sq[1:-1] * interior**2, axis=-1)
                       + self.gamma1 * v[..., 0] ** 2 * h)


def _direct_weights(alpha: float, beta: float, face: np.ndarray, h: float,
                    reflected: bool) -> EnergyWeights:
    p1_sq = np.zeros(face.size + 1)
    p1_sq[:-1] = h * np.cumsum(1.0 / face[::-1])[::-1]
    delta1 = (beta / alpha - 1.0) / p1_sq[0]
    try:
        gamma1 = (alpha * beta + 1.0) / (2.0 * alpha**2)
    except OverflowError:               # alpha**2 beyond the float range
        gamma1 = math.inf
    return EnergyWeights(p1_sq=p1_sq, delta1=delta1, gamma1=gamma1,
                         reflected=reflected)


def energy_weights(problem: Problem, grid: Grid, face: np.ndarray) -> EnergyWeights:
    """Build the energy-norm weights for a problem bound to a grid.

    Raises
    ------
    UndefinedNormError
        If (beta/alpha - 1) and (alpha**2 - 1) have opposite signs; the
        energy norm is only defined in the two sign-consistent regimes.
    DomainError
        If the weights overflow, for parameters of extreme magnitude.
    """
    a, b = problem.alpha, problem.beta
    ratio = b / a - 1.0
    square = a * a - 1.0
    if ratio >= 0.0 and square >= 0.0:
        weights = _direct_weights(a, b, np.asarray(face, float), grid.h,
                                  reflected=False)
    elif ratio <= 0.0 and square <= 0.0:
        weights = _direct_weights(1.0 / a, 1.0 / b,
                                  np.asarray(face, float)[::-1], grid.h,
                                  reflected=True)
    else:
        raise UndefinedNormError(
            f"energy norm undefined for alpha={a}, beta={b}: "
            f"(beta/alpha - 1) and (alpha**2 - 1) have opposite signs"
        )
    if not (math.isfinite(weights.delta1) and math.isfinite(weights.gamma1)):
        raise DomainError(f"energy norm weights are not finite for "
                          f"alpha={a}, beta={b}")
    return weights


def energy_norm(y, problem: Problem, grid: Grid, face: np.ndarray) -> float:
    """Energy norm of one time level.

    In the direct regime (|beta| >= |alpha| >= 1):

        ||y||**2 = sum_i y_i**2 h + delta1 * sum_i p1_sq_i y_i**2 h
                   + gamma1 * y_0**2 h          (interior sums)

    with delta1 = (beta/alpha - 1)/p1_sq_0 and
    gamma1 = (alpha*beta + 1)/(2*alpha**2).  In the reflected regime the
    same formula is applied to the reversed vector with reversed face
    coefficients and parameters (1/alpha, 1/beta).  To evaluate many
    levels, build the weights once with :func:`energy_weights` and call
    their :meth:`EnergyWeights.norms`.
    """
    return float(energy_weights(problem, grid, face).norms(y, grid.h))


def sigma_threshold(gamma: float, h: float, tau: float, c2: float) -> float:
    """Lower bound on sigma sufficient for energy-norm stability.

        1/(3 - 2**(1-gamma))
          - h**2 * (2 - 2**(1-gamma))
            / (2*c2*tau**gamma*(3 - 2**(1-gamma))*G(2-gamma))

    Defined for gamma in (0, 1]; at gamma = 1 it reduces to the classical
    diffusion bound 1/2 - h**2/(4*c2*tau).
    """
    if not 0.0 < gamma <= 1.0:
        raise DomainError(f"gamma must lie in (0, 1], got {gamma}")
    two = 2.0 ** (1.0 - gamma)
    lead = 1.0 / (3.0 - two)
    correction = (h * h * (2.0 - two)
                  / (2.0 * c2 * tau**gamma * (3.0 - two)
                     * math.gamma(2.0 - gamma)))
    return lead - correction


def convergence_order(norm_coarse: float, norm_fine: float,
                      h_coarse: float, h_fine: float) -> float:
    """Observed order: log(norm_coarse/norm_fine) / log(h_coarse/h_fine)."""
    if not (norm_coarse > 0.0 and norm_fine > 0.0):
        raise DomainError("convergence order needs strictly positive norms")
    if not h_coarse > h_fine > 0.0:
        raise DomainError(
            f"need h_coarse > h_fine > 0, got {h_coarse}, {h_fine}"
        )
    return math.log(norm_coarse / norm_fine) / math.log(h_coarse / h_fine)
