import math
import random
from fractions import Fraction

import pytest

from hermult.errors import DimensionMismatchError, DomainError, SizeLimitError
from hermult import hermite
from hermult.hermite import (
    MAX_DEGREE,
    MAX_GF_DEGREE,
    PHYSICISTS,
    PROBABILISTS,
    HermiteFamily,
    gf_partial_sum,
    hermite_multi,
    hermite_multi_batch,
    hermite_multi_product,
    hermite_uni,
    hermite_uni_grid,
)
from hermult.multiindex import enumerate_fixed_degree, mi_factorial
from hermult.polyoracle import SymbolicHermiteFamily, rational_matrix
from hermult.tensorlin import DenseMatrix, DenseVector, spd_factorize
from hermult.verify import trial_rng
from matrices import gram_plus_identity
from polyvalue import poly_value


def spd(rows):
    return spd_factorize(DenseMatrix.from_rows(rows))


def identity_spd(n):
    return spd_factorize(DenseMatrix.identity(n))


def test_univariate_base_values():
    assert hermite_uni(PROBABILISTS, 0, 12.3) == 1
    assert hermite_uni(PROBABILISTS, 2, 2.0) == 3.0
    assert hermite_uni(PHYSICISTS, 2, 1.0) == 2.0
    assert hermite_uni(PROBABILISTS, 3, 2.0) == 2.0  # x^3 - 3x at 2
    assert hermite_uni(PHYSICISTS, 3, 0.5) == -5.0  # 8x^3 - 12x at 1/2


def test_univariate_matches_symbolic_construction():
    he = SymbolicHermiteFamily(rational_matrix([[1]]))
    h = SymbolicHermiteFamily(rational_matrix([[2]]))
    for k in range(9):
        for x in (Fraction(-3, 2), Fraction(0), Fraction(2), Fraction(7, 3)):
            assert hermite_uni(PROBABILISTS, k, x) == poly_value(he.poly((k,)), [x])
            assert hermite_uni(PHYSICISTS, k, x) == poly_value(h.poly((k,)), [x])


def test_family_consistency():
    scaled_one = HermiteFamily.scaled(1.0)
    scaled_half = HermiteFamily.scaled(0.5)
    for k in range(13):
        for x in (-2.5, -1.0, 0.0, 0.3, 1.7):
            he = hermite_uni(PROBABILISTS, k, x)
            h = hermite_uni(PHYSICISTS, k, x)
            assert hermite_uni(scaled_one, k, x) == pytest.approx(
                he, rel=1e-12, abs=1e-12
            )
            assert hermite_uni(scaled_half, k, x) == pytest.approx(
                h, rel=1e-12, abs=1e-12
            )


@pytest.mark.parametrize(
    "family", [PROBABILISTS, PHYSICISTS, HermiteFamily.scaled(Fraction(3, 2))]
)
def test_all_degrees_match_single_degree(family):
    for x in (0.0, -1.7, 2.25, 3, Fraction(-5, 3)):
        values = hermite_uni_grid(family, 12, (x,))[0]
        assert len(values) == 13
        for k, v in enumerate(values):
            assert v == hermite_uni(family, k, x)
            if not isinstance(x, float):
                assert isinstance(v, (int, Fraction))


def test_all_degrees_match_symbolic_construction():
    he = SymbolicHermiteFamily(rational_matrix([[1]]))
    h = SymbolicHermiteFamily(rational_matrix([[2]]))
    x = Fraction(-7, 4)
    for family, sym in ((PROBABILISTS, he), (PHYSICISTS, h)):
        values = hermite_uni_grid(family, 8, (x,))[0]
        assert values == [poly_value(sym.poly((k,)), [x]) for k in range(9)]


def uni_reference(b, k, x):
    """p_{j+1} = b*x*p_j - j*b*p_{j-1} at one point, written out: the
    single-point recurrence the grid and hermite_uni must reproduce."""
    prev, cur = 0, 1
    for j in range(k):
        prev, cur = cur, b * x * cur - j * b * prev
    return cur


@pytest.mark.parametrize(
    "family, b",
    [(PROBABILISTS, 1), (PHYSICISTS, 2), (HermiteFamily.scaled(0.7), 1.0 / 0.7)],
)
def test_grid_pass_matches_single_points(family, b):
    # The grid gives each point's own values, bit for bit and type for
    # type: those of hermite_uni and of the written-out recurrence.  A
    # one-shot iterator of the points gives the same rows as the list.
    rng = trial_rng(1919, 0)
    points = [0.0, -0.0, 3, Fraction(-5, 3)] + list(rng.uniform(-3.0, 3.0, size=21))
    for k in range(13):
        grid = hermite_uni_grid(family, k, points)
        assert len(grid) == len(points)
        assert repr(hermite_uni_grid(family, k, iter(points))) == repr(grid)
        for x, values in zip(points, grid):
            assert repr(values) == repr([hermite_uni(family, j, x) for j in range(k + 1)])
            assert repr(values) == repr([uni_reference(b, j, x) for j in range(k + 1)])
    assert hermite_uni_grid(family, 3, []) == []


def test_grid_pass_errors_match_single_point():
    for k, xs, error in (
        (-1, [0.0], DomainError),
        (MAX_DEGREE + 1, [0.0], SizeLimitError),
        (3, [0.5, float("nan")], DomainError),
    ):
        with pytest.raises(error):
            hermite_uni_grid(PROBABILISTS, k, xs)


@pytest.mark.parametrize(
    "k, x, error",
    [
        (-1, 0.0, DomainError),
        (MAX_DEGREE + 1, 0.0, SizeLimitError),
        (3, float("nan"), DomainError),
        (3, float("inf"), DomainError),
    ],
)
def test_all_degrees_errors_match_single_degree(k, x, error):
    with pytest.raises(error):
        hermite_uni_grid(PROBABILISTS, k, (x,))[0]
    with pytest.raises(error):
        hermite_uni(PROBABILISTS, k, x)


def test_univariate_domain_and_size_errors():
    with pytest.raises(DomainError):
        hermite_uni(PROBABILISTS, 2, float("nan"))
    with pytest.raises(DomainError):
        hermite_uni(PROBABILISTS, -1, 0.0)
    with pytest.raises(SizeLimitError):
        hermite_uni(PROBABILISTS, 61, 0.0)
    with pytest.raises(DomainError):
        HermiteFamily.scaled(0.0)
    with pytest.raises(DomainError):
        HermiteFamily.scaled(-1.0)


def test_family_inverse_variance_is_set_and_checked_once():
    # Each family carries its inverse variance b, in its own field: the int
    # 1 and 2, a Fraction for an exact sigma_sq, 1.0 / sigma_sq for a float.
    # b stays out of equality, hashing and repr.
    for family, b in (
        (PROBABILISTS, 1),
        (PHYSICISTS, 2),
        (HermiteFamily.scaled(2), Fraction(1, 2)),
        (HermiteFamily.scaled(Fraction(3, 2)), Fraction(2, 3)),
        (HermiteFamily.scaled(0.7), 1.0 / 0.7),
    ):
        assert type(family.inverse_variance) is type(b) and family.inverse_variance == b
    scaled = HermiteFamily.scaled(0.7)
    assert repr(scaled) == "HermiteFamily(kind='scaled', sigma_sq=0.7)"
    assert scaled == HermiteFamily("scaled", 0.7) and hash(scaled) == hash(("scaled", 0.7))
    # A family whose b is not a finite positive number is refused when it
    # is built: 1.0 / 1e-320 is inf, 1.0 / inf is 0.0.
    for bad in (1e-320, math.inf, math.nan, 0, -0.0, Fraction(-1, 2), True, "2", None):
        with pytest.raises(DomainError):
            HermiteFamily.scaled(bad)
    with pytest.raises(DomainError):
        HermiteFamily("laguerre")


def test_fixed_families_refuse_a_sigma_sq():
    # The probabilists' and physicists' b is fixed, so a sigma_sq given to
    # them is refused rather than ignored; the constants and every scaled
    # family are built as before.
    for kind in ("probabilists", "physicists"):
        for s2 in (5, 1, 0.5, Fraction(1, 2)):
            with pytest.raises(DomainError):
                HermiteFamily(kind, sigma_sq=s2)
    assert HermiteFamily("probabilists") == PROBABILISTS
    assert HermiteFamily("physicists") == PHYSICISTS
    assert HermiteFamily.scaled(5).inverse_variance == Fraction(1, 5)


def test_multi_base_cases():
    sig = spd([[2.0, 0.5], [0.5, 1.0]])
    x = DenseVector.from_entries([0.7, -0.4])
    assert hermite_multi((0, 0), x, sig) == 1
    binv = sig.inverse()
    for i in range(2):
        expected = binv.matvec(x).entries[i]
        assert hermite_multi(
            tuple(1 if j == i else 0 for j in range(2)), x, sig
        ) == pytest.approx(expected, rel=1e-14)


def test_multi_identity_covariance_factors():
    a, b = 0.7, -1.3
    val = hermite_multi((1, 2), DenseVector.from_entries([a, b]), identity_spd(2))
    assert val == pytest.approx(a * (b * b - 1), rel=1e-14)


def test_multi_product_form():
    assert hermite_multi_product(
        (1, 1), DenseVector.from_entries([2.0, -3.0]), PROBABILISTS
    ) == pytest.approx(-6.0)
    assert hermite_multi_product(
        (0, 0, 0), DenseVector.from_entries([1.0, 2.0, 3.0]), PHYSICISTS
    ) == 1
    assert hermite_multi_product(
        (2, 1), DenseVector.from_entries([1.0, 3.0]), PROBABILISTS
    ) == pytest.approx(0.0)


def test_multi_equals_product_at_identity():
    for trial in range(25):
        rng = trial_rng(5, trial)
        n = int(rng.integers(1, 5))
        degree = int(rng.integers(0, 7))
        ks = enumerate_fixed_degree(n, degree)
        k = ks[int(rng.integers(0, len(ks)))]
        x = DenseVector.from_entries(rng.uniform(-2, 2, size=n))
        lhs = hermite_multi(k, x, identity_spd(n))
        rhs = hermite_multi_product(k, x, PROBABILISTS)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))


def test_multi_equals_product_at_scaled_identity():
    # A scaled family is the isotropic covariance s2 * I: exact at rational
    # s2 and points, to rounding at float ones.
    for trial in range(25):
        rng = trial_rng(6, trial)
        n = int(rng.integers(1, 4))
        ks = enumerate_fixed_degree(n, int(rng.integers(0, 7)))
        k = ks[int(rng.integers(0, len(ks)))]
        s2 = Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 5)))
        x = [Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 4))) for _ in range(n)]
        sigma = spd_factorize(DenseMatrix.identity(n).scale(s2))
        exact = hermite_multi(k, DenseVector.from_entries(x), sigma)
        assert hermite_multi_product(
            k, DenseVector.from_entries(x), HermiteFamily.scaled(s2)
        ) == exact
        xf = DenseVector.from_entries([float(v) for v in x])
        lhs = hermite_multi(k, xf, spd_factorize(DenseMatrix.identity(n).scale(float(s2))))
        rhs = hermite_multi_product(k, xf, HermiteFamily.scaled(float(s2)))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))


def test_multi_matches_symbolic_at_rational_points():
    for n, sigma_rows in (
        (1, [[Fraction(4, 3)]]),
        (2, [[2, 1], [1, 3]]),
        (3, [[3, 1, 0], [1, 2, 1], [0, 1, 4]]),
    ):
        sig = spd_factorize(rational_matrix(sigma_rows))
        family = SymbolicHermiteFamily(sig.inverse())
        for degree in range(0, 5):
            for k in enumerate_fixed_degree(n, degree):
                for pt in range(3):
                    rng = trial_rng(17, 1000 * n + 10 * degree + pt)
                    xs = [
                        Fraction(int(a), int(b))
                        for a, b in zip(
                            rng.integers(-3, 4, size=n), rng.integers(1, 4, size=n)
                        )
                    ]
                    x = DenseVector.from_entries(xs)
                    assert hermite_multi(k, x, sig) == poly_value(family.poly(k), xs)


def test_multi_order_independence():
    # raising coordinates in the opposite order must give the same values
    def eval_leftmost_first(parts, bx, b, memo):
        if parts in memo:
            return memo[parts]
        i = 0
        while parts[i] == 0:
            i += 1
        low = parts[:i] + (parts[i] - 1,) + parts[i + 1 :]
        acc = bx[i] * eval_leftmost_first(low, bx, b, memo)
        for j, c in enumerate(low):
            if c:
                twice = low[:j] + (low[j] - 1,) + low[j + 1 :]
                acc -= c * b[i][j] * eval_leftmost_first(twice, bx, b, memo)
        memo[parts] = acc
        return acc

    sig = spd_factorize(rational_matrix([[2, 1], [1, 3]]))
    binv = sig.inverse()
    xs = [Fraction(1, 2), Fraction(-2, 3)]
    x = DenseVector.from_entries(xs)
    bx = binv.matvec(x).entries
    for degree in range(0, 6):
        for k in enumerate_fixed_degree(2, degree):
            memo = {(0, 0): Fraction(1)}
            alt = eval_leftmost_first(k.parts, bx, binv.data, memo)
            assert hermite_multi(k, x, sig) == alt


def test_multi_batch_matches_single():
    sig = spd([[2.0, 0.3], [0.3, 1.5]])
    x = DenseVector.from_entries([0.4, -0.9])
    ks = [k for d in range(5) for k in enumerate_fixed_degree(2, d)]
    batch = hermite_multi_batch(ks, x, sig)
    for k, v in zip(ks, batch):
        assert v == hermite_multi(k, x, sig)


def test_multi_dimension_errors():
    sig = identity_spd(2)
    with pytest.raises(DimensionMismatchError):
        hermite_multi((1, 1, 0), DenseVector.from_entries([1.0, 2.0]), sig)
    with pytest.raises(DimensionMismatchError):
        hermite_multi_product((1,), DenseVector.from_entries([1.0, 2.0]), PROBABILISTS)


def tuple_keyed_raise_value(parts, bx, b_rows, memo):
    """hermite._raise_value as it was with its memo keyed by index tuples:
    the reference for the bits and types of the coded memo."""
    val = memo.get(parts)
    if val is not None:
        return val
    i = len(parts) - 1
    while parts[i] == 0:
        i -= 1
    lowered = parts[:i] + (parts[i] - 1,) + parts[i + 1 :]
    acc = bx[i] * tuple_keyed_raise_value(lowered, bx, b_rows, memo)
    row = b_rows[i]
    for j, c in enumerate(lowered):
        if c:
            twice = lowered[:j] + (lowered[j] - 1,) + lowered[j + 1 :]
            acc = acc - c * row[j] * tuple_keyed_raise_value(twice, bx, b_rows, memo)
    memo[parts] = acc
    return acc


def tuple_keyed_batch(ks, x, sigma):
    binv = sigma.inverse()
    bx, b_rows = binv.matvec(x).entries, binv.data
    memo = {(0,) * x.dim: 1}
    return [tuple_keyed_raise_value(tuple(k), bx, b_rows, memo) for k in ks]


def assert_same_bits(ks, x, sigma):
    got = hermite_multi_batch(ks, x, sigma)
    want = tuple_keyed_batch(ks, x, sigma)
    assert [(type(v), repr(v)) for v in got] == [(type(v), repr(v)) for v in want], ks
    return got


def random_composition(rng, n, degree):
    parts = [0] * n
    for _ in range(degree):
        parts[rng.randrange(n)] += 1
    return tuple(parts)


def test_coded_memo_matches_the_tuple_keyed_memo():
    rng = random.Random(4201)
    draws = {
        "float": lambda: rng.uniform(-2.0, 2.0),
        "int": lambda: rng.randint(-3, 3),
        "fraction": lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
    }
    # Coordinate j of a point takes the (j mod len)-th kind of its list.
    point_kinds = [["float"], ["int"], ["fraction"], ["fraction", "int"], ["int", "float", "fraction"]]

    for n in range(1, 5):
        float_rows = [[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(n)]
        int_rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        for rows in (float_rows, int_rows):
            sig = spd_factorize(gram_plus_identity(DenseMatrix.from_rows(rows)))
            for kinds in point_kinds:
                xs = [draws[kinds[j % len(kinds)]]() for j in range(n)]
                if kinds == ["float"]:
                    xs[rng.randrange(n)] = -0.0
                ks = [(0,) * n]
                ks += [random_composition(rng, n, rng.randint(1, 20)) for _ in range(12)]
                ks.append(random_composition(rng, n, 20))
                values = assert_same_bits(ks, DenseVector.from_entries(xs), sig)
                # H_0 is the int 1 in either field.
                assert type(values[0]) is int and values[0] == 1


def test_coded_memo_reads_shuffled_and_repeated_indices():
    rng = random.Random(4202)
    sig = spd([[2.0, 0.3, -0.2], [0.3, 1.5, 0.1], [-0.2, 0.1, 1.2]])
    x = DenseVector.from_entries([0.4, -0.9, 1.3])
    ks = [k.parts for d in range(7) for k in enumerate_fixed_degree(3, d)]
    ks = ks + rng.sample(ks, 20)
    rng.shuffle(ks)
    assert_same_bits(ks, x, sig)


@pytest.mark.parametrize("exact", [False, True])
def test_coded_memo_at_the_top_digit(exact):
    # A part of MAX_DEGREE is the radix's top digit.
    x1 = DenseVector.from_entries([Fraction(3, 2)] if exact else [0.8])
    sig1 = spd([[2]] if exact else [[1.7]])
    top1 = assert_same_bits([(MAX_DEGREE,)], x1, sig1)
    x2 = DenseVector.from_entries([Fraction(1, 2), Fraction(-2, 3)] if exact else [0.4, -0.7])
    sig2 = spd([[2, 1], [1, 3]] if exact else [[2.0, 0.4], [0.4, 1.3]])
    top2 = assert_same_bits([(MAX_DEGREE, 0), (0, MAX_DEGREE)], x2, sig2)
    assert {type(v) for v in top1 + top2} == {Fraction if exact else float}


def test_coded_memo_refuses_a_part_past_the_top_digit():
    # In radix MAX_DEGREE + 1, (0, MAX_DEGREE + 1) has the code of (1, 0):
    # the degree check must refuse it before its code is formed, even with
    # (1, 0) in the memo.
    sig = spd([[2.0, 0.5], [0.5, 1.0]])
    x = DenseVector.from_entries([0.7, -0.4])
    for bad in [(0, MAX_DEGREE + 1), (MAX_DEGREE + 1, 0)]:
        for ks in ([bad], [(1, 0), bad], [(1, 0), (0, 1), bad, (1, 0)]):
            with pytest.raises(SizeLimitError) as err:
                hermite_multi_batch(ks, x, sig)
            assert str(err.value) == f"total degree {MAX_DEGREE + 1} exceeds cap {MAX_DEGREE}"
        with pytest.raises(SizeLimitError):
            hermite_multi(bad, x, sig)


def test_batch_refuses_a_wrong_arity_at_that_index():
    sig = spd([[2.0, 0.5], [0.5, 1.0]])
    x = DenseVector.from_entries([0.7, -0.4])
    read = []

    def indices():
        for k in [(1, 0), (2, 1), (1, 0, 0), (0, 1)]:
            read.append(k)
            yield k

    with pytest.raises(DimensionMismatchError) as err:
        hermite_multi_batch(indices(), x, sig)
    assert str(err.value) == "index arity 3 does not match point dim 2"
    assert read == [(1, 0), (2, 1), (1, 0, 0)]
    # Arity is checked before degree.
    with pytest.raises(DimensionMismatchError):
        hermite_multi_batch([(1, 0), (0, 0, MAX_DEGREE + 1)], x, sig)


def test_gf_partial_sum_base_cases():
    # With no k != 0 term left (cap 0, or every t entry +-0.0) the sum is
    # the k = 0 term alone: the double 1.0 for float inputs, the Fraction 1
    # for exact ones.
    sig = spd([[2.0, 0.5], [0.5, 1.0]])
    x = DenseVector.from_entries([0.3, -0.8])
    for t, cap in (([0.1, 0.2], 0), ([0.0, 0.0], 7), ([-0.0, 0.0], 7)):
        got = gf_partial_sum(DenseVector.from_entries(t), x, sig, cap)
        assert type(got) is float and got == 1.0
    exact_sig = spd([[2, Fraction(1, 2)], [Fraction(1, 2), 1]])
    exact_x = DenseVector.from_entries([Fraction(3, 10), Fraction(-4, 5)])
    for t, cap in (([Fraction(1, 10), 2], 0), ([0, Fraction(0)], 7)):
        got = gf_partial_sum(DenseVector.from_entries(t), exact_x, exact_sig, cap)
        assert type(got) is Fraction and got == 1
    # An exact t over a float point is a float sum too.
    got = gf_partial_sum(DenseVector.from_entries([0, 0]), x, sig, 7)
    assert type(got) is float and got == 1.0


def test_gf_degree_one_identity_covariance():
    t = DenseVector.from_entries([0.05, -0.03])
    x = DenseVector.from_entries([0.6, 0.9])
    val = gf_partial_sum(t, x, identity_spd(2), 1)
    assert val == pytest.approx(1.0 + t.dot(x), rel=1e-15)


def test_gf_approximates_exponential():
    for trial in range(20):
        rng = trial_rng(23, trial)
        n = int(rng.integers(1, 4))
        q = DenseMatrix.from_rows(rng.uniform(-2, 2, size=(n, n)))
        sig = spd_factorize(gram_plus_identity(q))
        t = DenseVector.from_entries(
            [0.1 / math.sqrt(n) * v for v in rng.uniform(-1, 1, size=n)]
        )
        x = DenseVector.from_entries(
            [1.0 / math.sqrt(n) * v for v in rng.uniform(-1, 1, size=n)]
        )
        inv = sig.inverse()
        target = math.exp(t.dot(inv.matvec(x)) - 0.5 * t.dot(inv.matvec(t)))
        assert abs(gf_partial_sum(t, x, sig, 10) - target) <= 1e-10


def test_gf_partial_sum_stays_exact():
    sig = spd_factorize(rational_matrix([[2, Fraction(1, 2)], [Fraction(1, 2), 1]]))
    t = DenseVector.from_entries([Fraction(1, 10), Fraction(-1, 7)])
    x = DenseVector.from_entries([Fraction(3, 10), Fraction(-4, 5)])
    direct = Fraction(0)
    for d in range(7):
        for k in enumerate_fixed_degree(2, d):
            tk = t.entries[0] ** k.parts[0] * t.entries[1] ** k.parts[1]
            direct += Fraction(1, mi_factorial(k)) * tk * hermite_multi(k, x, sig)
    # The second call reads the index list cached by the first.
    for _ in range(2):
        val = gf_partial_sum(t, x, sig, 6)
        assert isinstance(val, Fraction)
        assert val == direct


def test_gf_caps_and_dims():
    sig = identity_spd(2)
    t = DenseVector.from_entries([0.1, 0.1])
    with pytest.raises(SizeLimitError):
        gf_partial_sum(t, t, sig, 13)
    with pytest.raises(DimensionMismatchError):
        gf_partial_sum(DenseVector.from_entries([0.1]), t, sig, 3)


def _gf_reference(t, x, sigma, cap):
    """gf_partial_sum as a plain sum in the sweep's order: ascending
    degree, then enumeration order, each term float(1/k!) * t^k * H_k (or
    the Fraction 1/k! when t^k is exact), terms with t^k == 0 skipped.  A
    float input makes the sum a float even when only the k = 0 term is
    left."""
    ks = [k for d in range(cap + 1) for k in enumerate_fixed_degree(x.dim, d)]
    # One memo for every index: each value is _raise_value's recursion.
    values = hermite_multi_batch(ks, x, sigma)
    total = 0
    for k, hk in zip(ks, values):
        tk = 1
        for ti, c in zip(t.entries, k.parts):
            if c:
                tk = tk * ti**c
        if tk == 0:
            continue
        inv = Fraction(1, mi_factorial(k))
        total = total + (float(inv) if isinstance(tk, float) else inv) * tk * hk
    entries = t.entries + x.entries + sum(sigma.matrix.data, ())
    return float(total) if any(isinstance(v, float) for v in entries) else total


def test_gf_partial_sum_matches_plain_sum_bit_for_bit():
    rng = random.Random(2702)

    def spd_rows(n, draw):
        q = DenseMatrix.from_rows([[draw() for _ in range(n)] for _ in range(n)])
        return gram_plus_identity(q)

    for n in range(1, 5):
        for cap in range(13):
            sig = spd_factorize(spd_rows(n, lambda: rng.uniform(-2.0, 2.0)))
            exact_sig = spd_factorize(
                spd_rows(n, lambda: Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
            )
            for zeros in (0, 1, n):
                # |t| up to 2.5 keeps a last-bit change in any high-degree
                # term visible in the sum; 0.0 and -0.0 terms are skipped.
                t = [2.5 * rng.uniform(-1.0, 1.0) for _ in range(n)]
                exact_t = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
                for j in rng.sample(range(n), min(zeros, n)):
                    t[j] = rng.choice([0.0, -0.0])
                    exact_t[j] = Fraction(0)
                x = [rng.uniform(-1.0, 1.0) for _ in range(n)]
                exact_x = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                cases = [(t, x, sig), (exact_t, x, sig)]
                if n < 4 or cap <= 8:
                    # Rational sweeps at n = 4 and high caps only cost time.
                    cases += [(t, exact_x, exact_sig), (exact_t, exact_x, exact_sig)]
                for tv, xv, s in cases:
                    tv, xv = DenseVector.from_entries(tv), DenseVector.from_entries(xv)
                    got = gf_partial_sum(tv, xv, s, cap)
                    want = _gf_reference(tv, xv, s, cap)
                    assert type(got) is type(want), (n, cap, zeros)
                    assert repr(got) == repr(want), (n, cap, zeros)


def gf_table_reference(n, degree_cap):
    """_gf_table as it was built before it read raising_plan: every index
    of degree 1..cap in enumeration order, each lowering its rightmost
    positive coordinate and reading every j."""
    position = {(0,) * n: 0}
    out = []
    for d in range(1, degree_cap + 1):
        for k in enumerate_fixed_degree(n, d):
            parts = k.parts
            position[parts] = len(out) + 1
            i = max(j for j, c in enumerate(parts) if c)
            low = parts[:i] + (parts[i] - 1,) + parts[i + 1 :]
            base = i * n * degree_cap - 1
            twice = tuple(
                (base + j * degree_cap + c, position[low[:j] + (c - 1,) + low[j + 1 :]])
                for j, c in enumerate(low)
                if c
            )
            prefix = position[parts[:i] + (0,) + parts[i + 1 :]]
            inv = Fraction(1, mi_factorial(k))
            power = i * degree_cap + parts[i] - 1
            out.append((i, position[low], twice, prefix, power, inv, float(inv)))
    return tuple(out)


def test_gf_table_matches_the_enumeration_built_table():
    for n in range(1, 5):
        for cap in range(MAX_GF_DEGREE + 1):
            table = hermite._gf_table(n, cap)
            want = gf_table_reference(n, cap)
            assert [(e, [type(v) for v in e]) for e in table] == [
                (e, [type(v) for v in e]) for e in want
            ], (n, cap)
    assert hermite._gf_table(3, 0) == ()
