"""Multi-index values, enumeration, factorials and index-tuple expansion.

A multi-index is an ordered tuple of naturals.  The canonical total order
used everywhere (enumeration output, serialization, term tables) is graded
then descending-lexicographic: lower total degree first, ties broken by the
lexicographically largest parts tuple first, so for arity 2 and degree 2
the order is (2,0), (1,1), (0,2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, total_ordering
from typing import Iterable, Iterator

from .errors import DomainError, InvalidArityError, SizeLimitError

# Eager enumeration of index tuples is rejected beyond this total degree;
# the tuple count |k|!/k! grows factorially.
MAX_INDEX_TUPLE_DEGREE = 12


@total_ordering
@dataclass(frozen=True)
class MultiIndex:
    """Immutable multi-index; parts are naturals, arity = len(parts) >= 1."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.parts, tuple):
            object.__setattr__(self, "parts", tuple(self.parts))
        if len(self.parts) < 1:
            raise InvalidArityError("multi-index arity must be >= 1")
        for p in self.parts:
            if not isinstance(p, int) or isinstance(p, bool) or p < 0:
                raise DomainError(f"multi-index parts must be naturals, got {p!r}")

    @classmethod
    def of(cls, value: "MultiIndex | Iterable[int]") -> "MultiIndex":
        if isinstance(value, MultiIndex):
            return value
        parts = []
        for v in value:
            try:
                i = int(v)
            except (OverflowError, ValueError):  # inf, NaN, or text that is no integer
                i = None
            if i != v or isinstance(v, bool):
                raise DomainError(f"multi-index parts must be naturals, got {v!r}")
            parts.append(i)
        return cls(tuple(parts))

    @property
    def arity(self) -> int:
        return len(self.parts)

    def degree(self) -> int:
        return sum(self.parts)

    def sort_key(self) -> tuple:
        return (self.degree(), tuple(-p for p in self.parts))

    def __lt__(self, other: "MultiIndex") -> bool:
        return self.sort_key() < other.sort_key()

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def to_list(self) -> list[int]:
        return list(self.parts)


def enumerate_fixed_degree(arity: int, degree: int) -> list[MultiIndex]:
    """All multi-indices of the given arity and total degree, graded
    descending-lex order, no duplicates.  Each call returns a new list of
    shared (immutable) indices."""
    if arity < 1:
        raise InvalidArityError(f"arity must be >= 1, got {arity}")
    if degree < 0:
        raise DomainError(f"degree must be >= 0, got {degree}")
    return list(_fixed_degree(arity, degree))


@lru_cache(maxsize=256)
def _fixed_degree(arity: int, degree: int) -> tuple[MultiIndex, ...]:
    def rec(m: int, d: int):
        if m == 1:
            yield (d,)
            return
        for first in range(d, -1, -1):
            for rest in rec(m - 1, d - first):
                yield (first,) + rest

    return tuple(MultiIndex(parts) for parts in rec(arity, degree))


def raising_plan(targets: Iterable[Iterable[int]], pattern=None) -> list:
    """levels[d], d = 0..the top degree: every index k of degree d that the
    targets (indices of one arity) reach, in canonical order, as
    (k, i, k - e_i, ((c, l, k - e_i - e_l), ...)).  i is k's rightmost
    positive coordinate and l runs ascending over each l with
    c = (k - e_i)_l > 0 and pattern[i][l] nonzero (every l if pattern is
    None).  Level 0 is empty: the zero index is the recurrence's base."""
    targets = [tuple(k) for k in targets]
    top = max(map(sum, targets), default=0)
    if pattern is None:
        n = len(targets[0]) if targets else 0
        pattern = [(1,) * n] * n
    steps = [{} for _ in range(top + 1)]
    for k in targets:
        steps[sum(k)][k] = None
    for d in range(top, 0, -1):
        for k in steps[d]:
            i = len(k) - 1
            while k[i] == 0:
                i -= 1
            low = k[:i] + (k[i] - 1,) + k[i + 1 :]
            twice = []
            for l, keep in enumerate(pattern[i]):
                c = low[l]
                if keep and c:
                    lower = low[:l] + (c - 1,) + low[l + 1 :]
                    twice.append((c, l, lower))
                    steps[d - 2][lower] = None
            steps[d - 1][low] = None
            steps[d][k] = (k, i, low, tuple(twice))
    # Each k is listed once, so its entries sort by k alone.
    return [[]] + [sorted(level.values(), reverse=True) for level in steps[1:]]


def mi_factorial(k: MultiIndex | Iterable[int]) -> int:
    """Product of part factorials; empty product is 1."""
    k = MultiIndex.of(k)
    return math.prod(math.factorial(p) for p in k.parts)


def index_tuples(k: MultiIndex | Iterable[int]) -> list[tuple[int, ...]]:
    """All distinct slot tuples in [0, arity)^degree whose occurrence counts
    equal k, in ascending lexicographic order.

    Slots are 0-based coordinate indices.  The result has exactly
    degree! / k! elements and is materialized eagerly, so degrees above
    MAX_INDEX_TUPLE_DEGREE are rejected.  The coefficient engine does not
    use it; the tests sum the paper's contraction tensor over it, as the
    reference for the paper's form of the coefficients.
    """
    k = MultiIndex.of(k)
    degree = k.degree()
    if degree > MAX_INDEX_TUPLE_DEGREE:
        raise SizeLimitError(
            f"index tuple expansion capped at degree {MAX_INDEX_TUPLE_DEGREE}, "
            f"got {degree}"
        )
    counts = list(k.parts)
    out: list[tuple[int, ...]] = []
    cur: list[int] = []

    def rec() -> None:
        if len(cur) == degree:
            out.append(tuple(cur))
            return
        for slot in range(len(counts)):
            if counts[slot]:
                counts[slot] -= 1
                cur.append(slot)
                rec()
                cur.pop()
                counts[slot] += 1

    rec()
    return out


def ascending_tuple(k: MultiIndex | Iterable[int]) -> tuple[int, ...]:
    """The weakly increasing slot tuple with occurrence counts k, 0-based.

    This is the single tuple selected by the columnwise Kronecker power of
    the identity matrix at index k.
    """
    k = MultiIndex.of(k)
    out: list[int] = []
    for slot, count in enumerate(k.parts):
        out.extend([slot] * count)
    return tuple(out)


def q_support(total_degree: int) -> list[int]:
    """Degrees [K, K-2, ...] down to 0 or 1, matching the parity of K."""
    if total_degree < 0:
        raise DomainError(f"degree must be >= 0, got {total_degree}")
    return list(range(total_degree, -1, -2))
