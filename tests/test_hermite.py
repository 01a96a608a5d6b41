import math
from fractions import Fraction

import pytest

from hermult.errors import DimensionMismatchError, DomainError, SizeLimitError
from hermult.hermite import (
    MAX_DEGREE,
    PHYSICISTS,
    PROBABILISTS,
    HermiteFamily,
    gf_partial_sum,
    hermite_multi,
    hermite_multi_batch,
    hermite_multi_product,
    hermite_uni,
    hermite_uni_all,
    hermite_uni_grid,
)
from hermult.multiindex import enumerate_fixed_degree, mi_factorial
from hermult.polyoracle import SymbolicHermiteFamily, rational_matrix
from hermult.tensorlin import DenseMatrix, DenseVector, spd_factorize
from hermult.verify import trial_rng
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
        values = hermite_uni_all(family, 12, x)
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
        values = hermite_uni_all(family, 8, x)
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
    # type: those of hermite_uni and of the written-out recurrence.
    rng = trial_rng(1919, 0)
    points = [0.0, -0.0, 3, Fraction(-5, 3)] + list(rng.uniform(-3.0, 3.0, size=21))
    for k in range(13):
        grid = hermite_uni_grid(family, k, points)
        assert len(grid) == len(points)
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
        hermite_uni_all(PROBABILISTS, k, x)
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


def test_gf_partial_sum_base_cases():
    sig = spd([[2.0, 0.5], [0.5, 1.0]])
    x = DenseVector.from_entries([0.3, -0.8])
    assert gf_partial_sum(DenseVector.from_entries([0.1, 0.2]), x, sig, 0) == 1
    assert gf_partial_sum(DenseVector.from_entries([0.0, 0.0]), x, sig, 7) == 1.0


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
        sig = spd_factorize(q.transpose().matmul(q).add(DenseMatrix.identity(n)))
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
