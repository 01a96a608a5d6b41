import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermult.errors import DomainError, InvalidArityError, SizeLimitError
from hermult.multiindex import (
    MultiIndex,
    ascending_tuple,
    enumerate_fixed_degree,
    index_tuples,
    mi_factorial,
    q_support,
    raising_plan,
)


def parts(mis):
    return [m.parts for m in mis]


def test_enumerate_fixed_degree_small():
    assert parts(enumerate_fixed_degree(2, 2)) == [(2, 0), (1, 1), (0, 2)]
    assert parts(enumerate_fixed_degree(1, 3)) == [(3,)]
    assert parts(enumerate_fixed_degree(3, 0)) == [(0, 0, 0)]


def test_enumerate_returns_a_fresh_list_each_call():
    first = enumerate_fixed_degree(2, 3)
    first.clear()
    again = enumerate_fixed_degree(2, 3)
    assert parts(again) == [(3, 0), (2, 1), (1, 2), (0, 3)]
    assert again is not enumerate_fixed_degree(2, 3)


def test_enumerate_rejects_zero_arity():
    with pytest.raises(InvalidArityError):
        enumerate_fixed_degree(0, 2)


def test_enumeration_is_sorted_and_duplicate_free():
    for arity in range(1, 5):
        for degree in range(0, 6):
            out = enumerate_fixed_degree(arity, degree)
            assert len(set(out)) == len(out)
            assert out == sorted(out)
            assert all(k.degree() == degree for k in out)


@given(st.integers(1, 5), st.integers(0, 7))
@settings(max_examples=60, deadline=None)
def test_enumeration_count_is_stars_and_bars(arity, degree):
    out = enumerate_fixed_degree(arity, degree)
    assert len(out) == math.comb(degree + arity - 1, arity - 1)


def test_mi_factorial():
    assert mi_factorial((2, 0, 3)) == 12
    assert mi_factorial((0, 0)) == 1
    assert mi_factorial((1, 1)) == 1


def test_index_tuples_small():
    assert index_tuples((1, 1)) == [(0, 1), (1, 0)]
    assert index_tuples((2, 0)) == [(0, 0)]
    assert index_tuples((0, 0)) == [()]


def test_index_tuples_occurrence_counts():
    for arity in range(1, 4):
        for degree in range(0, 5):
            for k in enumerate_fixed_degree(arity, degree):
                for tup in index_tuples(k):
                    counts = Counter(tup)
                    assert tuple(counts.get(i, 0) for i in range(arity)) == k.parts


def test_index_tuple_count_times_factorial_is_degree_factorial():
    for arity in range(1, 5):
        for degree in range(0, 9):
            for k in enumerate_fixed_degree(arity, degree):
                assert len(index_tuples(k)) * mi_factorial(k) == math.factorial(
                    degree
                )


def test_index_tuples_degree_cap():
    with pytest.raises(SizeLimitError):
        index_tuples((13,))


def test_ascending_tuple():
    assert ascending_tuple((2, 0, 1)) == (0, 0, 2)
    assert ascending_tuple((0, 0)) == ()
    for k in enumerate_fixed_degree(3, 4):
        assert ascending_tuple(k) in index_tuples(k)


def test_q_support():
    assert q_support(5) == [5, 3, 1]
    assert q_support(4) == [4, 2, 0]
    assert q_support(0) == [0]


def test_multiindex_validation():
    with pytest.raises(InvalidArityError):
        MultiIndex(())
    with pytest.raises(DomainError):
        MultiIndex((1, -1))
    with pytest.raises(DomainError):
        MultiIndex.of((1.5, 2))  # type: ignore[arg-type]
    with pytest.raises(DomainError):
        MultiIndex.of([True])
    with pytest.raises(DomainError):
        MultiIndex.of((1, False))
    for bad in (math.inf, math.nan, "x"):
        with pytest.raises(DomainError):
            MultiIndex.of((1, bad))


def test_multiindex_ordering_is_graded_then_descending_lex():
    a = MultiIndex((2, 0))
    b = MultiIndex((1, 1))
    c = MultiIndex((0, 2))
    d = MultiIndex((1, 0))
    assert d < a < b < c
    assert sorted([c, a, b]) == [a, b, c]


def lowered(k, j):
    return k[:j] + (k[j] - 1,) + k[j + 1 :]


def assert_plan_rule(levels, targets, pattern):
    """Each entry of levels lowers the rightmost positive coordinate i of
    its k and reads k - e_i and the k - e_i - e_l that the pattern keeps,
    l ascending; the plan lists exactly the targets and what they read,
    each level in canonical order."""
    n = len(targets[0])
    assert len(levels) == max(map(sum, targets)) + 1
    assert levels[0] == []
    listed, reached = set(), {t for t in targets if sum(t)}
    for d, level in enumerate(levels):
        ks = [k for k, _, _, _ in level]
        assert all(sum(k) == d for k in ks)
        assert ks == sorted(set(ks), key=MultiIndex)
        for k, i, low, twice in level:
            assert k[i] > 0 and not any(k[i + 1 :])
            assert low == lowered(k, i)
            keep = [l for l in range(n) if low[l] and (pattern is None or pattern[i][l])]
            assert twice == tuple((low[l], l, lowered(low, l)) for l in keep)
            reached.update(r for r in (low, *(lower for _, _, lower in twice)) if sum(r))
        listed.update(ks)
    assert listed == reached


def test_raising_plan_under_the_dense_pattern_lists_every_lower_index():
    # Every index of degree D reaches every index below it, so its dense
    # plan lists each degree as enumerate_fixed_degree does.
    for n in range(1, 5):
        for cap in range(6):
            targets = parts(enumerate_fixed_degree(n, cap))
            levels = raising_plan(targets)
            assert_plan_rule(levels, targets, None)
            for d in range(1, cap + 1):
                assert [k for k, _, _, _ in levels[d]] == parts(enumerate_fixed_degree(n, d))


def test_raising_plan_honours_the_zero_pattern():
    rng = random.Random(3011)
    for n in range(1, 5):
        for _ in range(25):
            pattern = [[rng.choice([0, 0.0, -0.0, 1, 0.5]) for _ in range(n)] for _ in range(n)]
            targets = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(1, 3))]
            if not any(map(sum, targets)):
                continue
            levels = raising_plan(targets, pattern)
            assert_plan_rule(levels, targets, pattern)
            assert raising_plan(map(MultiIndex, targets), pattern) == levels
    # An all-zero pattern reads only k - e_i, one index per degree.
    levels = raising_plan([(2, 1)], [[0, 0], [0, 0]])
    assert [[k for k, _, _, _ in level] for level in levels] == [
        [], [(1, 0)], [(2, 0)], [(2, 1)]
    ]
    assert all(twice == () for level in levels for _, _, _, twice in level)


def test_raising_plan_of_degree_zero_is_its_empty_base_level():
    assert raising_plan([(0, 0, 0)]) == [[]]
    assert raising_plan(enumerate_fixed_degree(2, 0), [[1, 1], [1, 1]]) == [[]]
    # A degree-0 target among others adds nothing.
    assert raising_plan([(0, 0), (1, 1)]) == raising_plan([(1, 1)])
