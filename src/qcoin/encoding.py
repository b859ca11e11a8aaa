"""Outcome-string conventions shared by the Markov, quantum and circuit layers.

A length-M outcome string is written "x1x2...xM" with the first outcome
leftmost.  Its time-bin index is sum_k x_k * 2^(k-1), i.e. the first
outcome is the least-significant bit of the bin index.
"""

import functools

import numpy as np

from .errors import InvalidParameter


def all_bitstrings(steps: int) -> list[str]:
    """All 2**steps outcome strings in lexicographic order."""
    return [format(i, f"0{steps}b") for i in range(2**steps)]


@functools.lru_cache(maxsize=None)
def lexicographic_bins(steps: int) -> np.ndarray:
    """Bin indices of `all_bitstrings(steps)`, in the same (lexicographic) order; read-only."""
    order = np.zeros(1, dtype=np.intp)
    for _ in range(steps):
        order = np.concatenate([2 * order, 2 * order + 1])
    order.flags.writeable = False
    return order


def index_to_bits(index: int, steps: int) -> str:
    if not 0 <= index < 2**steps:
        raise InvalidParameter(f"bin index {index} out of range for {steps} steps")
    return "".join("1" if index >> k & 1 else "0" for k in range(steps))
