"""Bitmask helpers checked against plain Python loops over the flags."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mars.bitset import indices, kth_set_bit, mask_from_bools

# bits on both sides of the 64-bit word boundaries
EDGE_BITS = (0, 1, 63, 64, 65, 127, 128, 129)

flag_lists = st.lists(st.booleans(), max_size=300) | st.lists(
    st.sampled_from(EDGE_BITS), unique=True
).map(lambda bits: [n in bits for n in range(max(bits, default=-1) + 1)])


@given(flag_lists)
@example([])
@example([False] * 130)
@example([n in (63, 64, 127, 128) for n in range(129)])
@example([n in (0, 19_999) for n in range(20_000)])  # a training set's width
def test_bitset_helpers_match_loops(flags):
    mask = mask_from_bools(np.array(flags, dtype=bool))
    expected = [n for n, f in enumerate(flags) if f]
    assert mask == sum(1 << n for n in expected)
    assert indices(mask) == expected
    assert [kth_set_bit(mask, k) for k in range(len(expected))] == expected
    with pytest.raises(ValueError, match="exceeds"):
        kth_set_bit(mask, len(expected))
    with pytest.raises(ValueError, match="non-negative"):
        kth_set_bit(mask, -1)
