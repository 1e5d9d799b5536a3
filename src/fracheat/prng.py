"""Reproducible random data for the stability experiments.

The generator identity is part of the tool's interface: given the same
64-bit seed, any reimplementation must produce the same initial data.
The stream is splitmix64; with all arithmetic modulo 2**64, step i is

    state = state + 0x9E3779B97F4A7C15
    z = state
    z = (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z XOR (z >> 27)) * 0x94D049BB133111EB
    output_i = z XOR (z >> 31)

and a sample in [-1, 1) is 2*((output >> 11) * 2**-53) - 1, i.e. the top
53 bits scaled to [0, 1) then mapped affinely.
"""

from __future__ import annotations

import numpy as np

from .core import DomainError

__all__ = ["splitmix64", "uniform_symmetric"]

_MASK = (1 << 64) - 1


def splitmix64(seed: int, count: int) -> list[int]:
    """First ``count`` raw 64-bit outputs of splitmix64 for ``seed``.

    A seed outside [0, 2**64) would alias its residue, so it is refused.
    """
    if not 0 <= seed <= _MASK:
        raise DomainError(f"seed: must be in [0, 2**64), got {seed}")
    state = seed
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        out.append(z ^ (z >> 31))
    return out


def uniform_symmetric(seed: int, count: int) -> np.ndarray:
    """``count`` doubles uniform on [-1, 1), reproducible across platforms."""
    raw = splitmix64(seed, count)
    u01 = np.array([(z >> 11) * 2.0**-53 for z in raw])
    return 2.0 * u01 - 1.0
