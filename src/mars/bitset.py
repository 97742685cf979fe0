"""Row-set arithmetic on arbitrary-width Python ints (bit n == row n).

Coverage sets are kept as plain integers: AND/OR/XOR and ``int.bit_count``
run at C speed on whole machine words, which keeps the inner search loop
cheap at both toy scale (N < 100) and desk scale (N ~ 10^5).
"""

from __future__ import annotations

import numpy as np

_WORD = 0xFFFFFFFFFFFFFFFF


def mask_from_bools(flags: np.ndarray) -> int:
    """Pack a boolean vector into a bitmask with bit n set iff flags[n]."""
    packed = np.packbits(np.ascontiguousarray(flags, dtype=bool), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def indices(mask: int) -> list[int]:
    """Sorted list of set-bit positions."""
    out: list[int] = []
    base = 0
    while mask:
        word = mask & _WORD
        while word:
            low = word & -word
            out.append(base + low.bit_length() - 1)
            word ^= low
        mask >>= 64
        base += 64
    return out


def kth_set_bit(mask: int, k: int) -> int:
    """Position of the k-th (0-based) set bit of ``mask``: the lowest p whose
    prefix ``mask & ((2 << p) - 1)`` holds more than k set bits, bisected."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if k >= mask.bit_count():
        raise ValueError("k exceeds the number of set bits")
    lo, hi = 0, mask.bit_length() - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if (mask & ((2 << mid) - 1)).bit_count() > k:
            hi = mid
        else:
            lo = mid + 1
    return lo
