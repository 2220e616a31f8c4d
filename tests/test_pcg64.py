"""The Python-int port of numpy's default_rng stream, with numpy as the oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smalldivlab._pcg64 import Generator
from smalldivlab.cli import _random_decay_modes

# (low, high) with high exclusive: the port's whole domain of 2 to 2^32 - 1
# values, from its smallest range to its largest, thm1's draws, a small odd
# range, and one that rejects about half its draws (2^31 + 1 values)
RANGES = [
    (0, 2),
    (-12, 13),
    (0, 3),
    (0, 2**31 + 1),
    (-(2**31 - 1), 2**31),
]
UNIFORMS = [(0.1, 1.0), (0.0, 2.0 * math.pi), (-3.5, 1e300)]

calls = st.lists(
    st.one_of(
        st.tuples(st.just("integers"), st.sampled_from(RANGES)),
        st.tuples(st.just("uniform"), st.sampled_from(UNIFORMS)),
    ),
    min_size=1,
    max_size=60,
)


def _draws(rng, sequence):
    return [getattr(rng, name)(*bounds) for name, bounds in sequence]


def _numpy_draws(seed, sequence):
    """numpy's draws as Python scalars: integers gives an np.int64"""
    return [getattr(x, "item", lambda: x)() for x in _draws(np.random.default_rng(seed), sequence)]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**200), sequence=calls)
def test_stream_matches_numpy_default_rng(seed, sequence):
    got = _draws(Generator(seed), sequence)
    assert got == _numpy_draws(seed, sequence)
    assert [type(x) for x in got] == [int if name == "integers" else float for name, _ in sequence]


@pytest.mark.parametrize("seed", [0, 1, 7, 2**31 - 1, 2**32, 2**40 + 5, 2**64 - 1, 2**201 - 17])
def test_every_boundary_range_in_a_row_matches_numpy(seed):
    sequence = [("integers", r) for r in RANGES for _ in range(40)]
    sequence += [("uniform", u) for u in UNIFORMS for _ in range(40)]
    sequence += sequence[::-1]
    assert _draws(Generator(seed), sequence) == _numpy_draws(seed, sequence)


def test_next32_keeps_the_high_half_and_next64_leaves_it():
    rng, ref = Generator(3), Generator(3)
    word = ref.next64()
    assert rng.next32() == word & 0xFFFFFFFF
    # a next64 (or a uniform) between the halves neither uses nor clears it
    assert rng.next64() == ref.next64()
    ref.uniform(0.0, 1.0)
    rng.uniform(0.0, 1.0)
    assert rng.next32() == word >> 32
    assert rng.next32() == ref.next64() & 0xFFFFFFFF


@pytest.mark.parametrize("seed", [-1, -(2**70)])
def test_negative_seed_is_rejected_as_numpy_does(seed):
    with pytest.raises(ValueError, match="non-negative"):
        np.random.default_rng(seed)
    with pytest.raises(ValueError, match="non-negative integer"):
        Generator(seed)


@pytest.mark.parametrize("low, high", [(0, 0), (5, 2), (0, 2**63 + 2), (-(2**63) - 1, 0)])
def test_integers_rejects_empty_and_out_of_int64_ranges(low, high):
    with pytest.raises(ValueError):
        np.random.default_rng(0).integers(low, high)
    with pytest.raises(ValueError, match=r"integers needs 2 <= high - low < 2\^32"):
        Generator(0).integers(low, high)


@pytest.mark.parametrize("low, high", [(3, 4), (0, 2**32), (0, 2**32 + 1), (-(2**63), 2**63)])
def test_integers_refuses_ranges_that_numpy_draws_another_way(low, high):
    # numpy returns low for one value, draws a whole next32 for 2^32 values
    # and 64-bit words past that; the port's Lemire loop on next32 would
    # spin forever past 2^32 values, so it refuses each before drawing
    rng, ref = Generator(0), Generator(0)
    with pytest.raises(ValueError, match=r"integers needs 2 <= high - low < 2\^32"):
        rng.integers(low, high)
    assert rng.next64() == ref.next64()


class _NumpyDraws:
    """A numpy Generator cast to Python scalars, as thm1 drew its maps
    before the port."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def integers(self, low, high):
        return int(self._rng.integers(low, high))

    def uniform(self, low, high):
        return float(self._rng.uniform(low, high))


def test_thm1_maps_equal_those_of_a_numpy_generator():
    for seed in range(50):
        got = _random_decay_modes(Generator(seed), 1.0)
        want = _random_decay_modes(_NumpyDraws(seed), 1.0)
        assert list(got.entries.items()) == list(want.entries.items())
