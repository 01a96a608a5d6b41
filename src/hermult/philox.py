"""Philox4x64-10 counter-based random stream in pure Python.

Salmon, Moraes, Dror and Shaw, "Parallel random numbers: as easy as 1, 2,
3", SC '11.  The stream gives the draws of numpy's
`Generator(Philox(key=[key0, key1]))` bit for bit: the same 64-bit words,
the same 32-bit halves, the same float and bounded-integer transforms.
"""

from __future__ import annotations

from .errors import DomainError

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1

# Round multipliers and Weyl key increments of Philox4x64.
_M0 = 0xD2E7470EE14C6C93
_M1 = 0xCA5A826395121157
_W0 = 0x9E3779B97F4A7C15
_W1 = 0xBB67AE8584CAA73B
_ROUNDS = 10


def _philox_block(counter: int, key0: int, key1: int) -> tuple[int, int, int, int]:
    """Ten Philox4x64 rounds on the 256-bit counter, low word first."""
    c0 = counter & _MASK64
    c1 = (counter >> 64) & _MASK64
    c2 = (counter >> 128) & _MASK64
    c3 = counter >> 192
    for _ in range(_ROUNDS):
        p0 = _M0 * c0
        p1 = _M1 * c2
        c0, c1, c2, c3 = (
            (p1 >> 64) ^ c1 ^ key0, p1 & _MASK64, (p0 >> 64) ^ c3 ^ key1, p0 & _MASK64
        )
        key0 = (key0 + _W0) & _MASK64
        key1 = (key1 + _W1) & _MASK64
    return c0, c1, c2, c3


class PhiloxStream:
    """Philox4x64-10 stream with numpy's `Generator` draws, bit for bit.

    The counter starts at 0 and is incremented before each block; a block's
    four 64-bit words are handed out in order.  32-bit draws split one
    64-bit word, low half first, and keep the high half for the next 32-bit
    draw, as numpy's bit generator does.  `size` is None, an int or
    (rows, cols); the result is a number, a list or a list of rows."""

    __slots__ = ("_key0", "_key1", "_counter", "_block", "_pos", "_half")

    def __init__(self, key0: int, key1: int):
        if not (0 <= key0 <= _MASK64 and 0 <= key1 <= _MASK64):
            raise DomainError("Philox key words must lie in [0, 2**64)")
        self._key0 = key0
        self._key1 = key1
        self._counter = 0
        self._block = (0, 0, 0, 0)
        self._pos = 4
        self._half: int | None = None

    def _next64(self) -> int:
        if self._pos == 4:
            self._counter += 1
            self._block = _philox_block(self._counter, self._key0, self._key1)
            self._pos = 0
        word = self._block[self._pos]
        self._pos += 1
        return word

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._next64()
        self._half = word >> 32
        return word & _MASK32

    def _below(self, span: int) -> int:
        """Uniform int in [0, span), 2 <= span <= 2**32: Lemire's
        multiply-and-reject on 32-bit draws."""
        if span == 1 << 32:
            return self._next32()
        m = self._next32() * span
        if m & _MASK32 < span:
            threshold = (1 << 32) % span
            while m & _MASK32 < threshold:
                m = self._next32() * span
        return m >> 32

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        """Floats low + (high - low) * u with u = (word >> 11) * 2**-53."""
        low = float(low)
        width = float(high) - low
        return _shaped(lambda: low + width * ((self._next64() >> 11) * 2.0**-53), size)

    def integers(self, low: int, high: int, size=None):
        """Ints in [low, high); a span of 1 takes no draw."""
        span = high - low
        if span < 1:
            raise DomainError(f"integers needs low < high, got [{low}, {high})")
        if span > 1 << 32:
            raise DomainError(f"integers span {span} exceeds 2**32")
        if span == 1:
            return _shaped(lambda: low, size)
        return _shaped(lambda: low + self._below(span), size)


def _shaped(draw, size):
    if size is None:
        return draw()
    if isinstance(size, int):
        return [draw() for _ in range(size)]
    rows, cols = size
    return [[draw() for _ in range(cols)] for _ in range(rows)]
