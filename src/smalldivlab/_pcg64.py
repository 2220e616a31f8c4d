"""numpy's ``default_rng(seed)`` stream in Python integers.

``thm1`` draws its random maps from this stream, so ``--seed s`` gives the
maps that ``default_rng(s)`` gives, without importing numpy's ``random``
subpackage (about 6 MB of resident memory).  Only the two calls ``thm1``
makes are reproduced, bit for bit:

- ``SeedSequence(seed).generate_state(4, uint64)``: the pool hashing of
  numpy's ``bit_generator.pyx``, on 32-bit words;
- PCG64 (XSL-RR 128/64; O'Neill 2014) seeded with ``init = w0 2^64 + w1``
  and ``seq = w2 2^64 + w3``, with numpy's buffer of one 32-bit half-word;
- ``Generator.integers(low, high)`` for int64 (Lemire's bounded integers,
  ACM TOMACS 2019) and ``Generator.uniform(low, high)``.
"""

from __future__ import annotations

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_M128 = (1 << 128) - 1
_INT64 = 1 << 63  # int64 holds [-2^63, 2^63)

# SeedSequence constants
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16

_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _seed_words(seed: int) -> list:
    """The seed as little-endian 32-bit words; 0 is one word."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    words = [seed & _M32]
    seed >>= 32
    while seed:
        words.append(seed & _M32)
        seed >>= 32
    return words


def _pool(seed: int) -> list:
    """SeedSequence's entropy pool of four 32-bit words."""
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value ^= const
        const = (const * _MULT_A) & _M32
        value = (value * const) & _M32
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return r ^ (r >> _XSHIFT)

    entropy = _seed_words(seed)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _state_words(seed: int) -> list:
    """``generate_state(4, uint64)``: eight 32-bit draws, paired low-first."""
    const = _INIT_B
    halves = []
    for word in _pool(seed) * 2:
        word ^= const
        const = (const * _MULT_B) & _M32
        word = (word * const) & _M32
        halves.append(word ^ (word >> _XSHIFT))
    return [halves[i] | halves[i + 1] << 32 for i in range(0, 8, 2)]


class Generator:
    """numpy's ``default_rng(seed)`` for ``integers`` and ``uniform``."""

    def __init__(self, seed: int):
        w0, w1, w2, w3 = _state_words(seed)
        self._inc = (((w2 << 64 | w3) << 1) | 1) & _M128
        self._state = 0
        self._step()
        self._state = (self._state + (w0 << 64 | w1)) & _M128
        self._step()
        self._half = None  # the high half of the last 64-bit draw next32 split

    def _step(self) -> None:
        self._state = (self._state * _PCG_MULT + self._inc) & _M128

    def next64(self) -> int:
        """Step, then the XSL-RR output of the new state."""
        self._step()
        s = self._state
        x = ((s >> 64) ^ s) & _M64
        rot = s >> 122
        return ((x >> rot) | (x << (64 - rot))) & _M64

    def next32(self) -> int:
        """The low half of a next64, then its kept high half."""
        if self._half is not None:
            half, self._half = self._half, None
            return half
        x = self.next64()
        self._half = x >> 32
        return x & _M32

    def integers(self, low: int, high: int) -> int:
        """A uniform int64 in [low, high), as ``Generator.integers``."""
        if not -_INT64 <= low < high <= _INT64:
            raise ValueError(f"integers needs -2^63 <= low < high <= 2^63, got [{low}, {high})")
        rng = high - 1 - low  # the inclusive range
        if rng == 0:
            return low
        if rng == _M32:
            return low + self.next32()
        if rng == _M64:
            return low + self.next64()
        bits, draw = (32, self.next32) if rng < _M32 else (64, self.next64)
        mask = (1 << bits) - 1
        excl = rng + 1
        m = draw() * excl
        if m & mask < excl:
            threshold = (mask - rng) % excl
            while m & mask < threshold:
                m = draw() * excl
        return low + (m >> bits)

    def uniform(self, low: float, high: float) -> float:
        """``low + (high - low) u`` with u the 53-bit double of one next64."""
        return low + (high - low) * ((self.next64() >> 11) * (1.0 / 9007199254740992.0))
