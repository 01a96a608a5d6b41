import math
import operator
import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermult.errors import (
    DimensionMismatchError,
    DomainError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    SingularMatrixError,
    SizeLimitError,
)
from hermult.multiindex import enumerate_fixed_degree
from hermult.tensorlin import (
    DenseMatrix,
    DenseVector,
    check_symmetric_rows,
    colwise_kron_power,
    covariance,
    entrywise_rows,
    invert_matrix,
    kron_power,
    left_sum,
    spd_factorize,
    _kron_entries,
)
from hermult.verify import trial_rng
from matrices import gram_plus_identity, matrix_sum


def vec2(*entries):
    return DenseVector.from_entries(entries)


def kron(a, b):
    """Kronecker product of two vectors by the kernel the powers run on."""
    return DenseVector(_kron_entries(a.entries, b.entries))


def vec(m):
    """Columnwise vectorization: columns stacked top to bottom."""
    return DenseVector(
        tuple(m.data[i][j] for j in range(m.cols) for i in range(m.rows))
    )


def test_left_sum_adds_left_to_right_from_int_zero():
    # A compensated sum would give 1.0 here; the left fold loses the 1.0.
    assert left_sum([1e16, 1.0, -1e16]) == 0.0
    assert left_sum([]) == 0 and type(left_sum([])) is int
    assert left_sum([3, -4, 5]) == 4 and type(left_sum([3, -4, 5])) is int
    total = left_sum([Fraction(1, 3), Fraction(1, 6)])
    assert total == Fraction(1, 2) and type(total) is Fraction
    rng = random.Random(2112)
    for size in (1, 2, 3, 7, 40, 300):
        xs = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-8, 8) for _ in range(size)]
        want = reduce(operator.add, xs, 0)
        assert left_sum(xs).hex() == want.hex()
        assert left_sum(iter(xs)).hex() == want.hex()


def test_kron_vectors():
    assert kron(vec2(1, 2), vec2(3, 4)).entries == (3, 4, 6, 8)
    assert kron(vec2(1), vec2(5, 6)).entries == (5, 6)
    e1 = vec2(1, 0)
    e2 = vec2(0, 1)
    assert kron(e1, e2).entries == (0, 1, 0, 0)


def test_kron_power():
    a, b = 2.0, -3.0
    assert kron_power(vec2(a, b), 2).entries == (a * a, a * b, b * a, b * b)
    assert kron_power(vec2(7, 9), 0).entries == (1,)
    assert kron_power(vec2(0, 1), 2).entries == (0, 0, 0, 1)
    with pytest.raises(DomainError):
        kron_power(vec2(1, 2), -1)


def test_kron_power_chains():
    v = vec2(Fraction(1, 2), Fraction(-2, 3), Fraction(3))
    for p in range(4):
        assert kron_power(v, p + 1) == kron(kron_power(v, p), v)


def test_kron_associativity_up_to_flat_reshape():
    a = vec2(1, 2)
    b = vec2(3, 4, 5)
    c = vec2(-1, 6)
    assert kron(kron(a, b), c) == kron(a, kron(b, c))


def test_colwise_kron_power():
    a = DenseMatrix.from_rows([[1, 2], [3, 4]])
    assert colwise_kron_power(a, (1, 1)) == kron(vec2(1, 3), vec2(2, 4))
    eye = DenseMatrix.identity(2)
    assert colwise_kron_power(eye, (1, 1)).entries == (0, 1, 0, 0)
    assert colwise_kron_power(a, (0, 0)).entries == (1,)


def _power_ref(v: tuple, p: int) -> tuple:
    out = (1,)
    for _ in range(p):
        out = tuple(x * y for x in out for y in v)
    return out


def _colwise_ref(rows: list, q) -> tuple:
    out = (1,)
    for j, power in enumerate(q.parts):
        if power:
            column = _power_ref(tuple(row[j] for row in rows), power)
            out = tuple(x * y for x in out for y in column)
    return out


# Signed zero, subnormals and entries whose products overflow to inf.
FLOAT_EDGES = (-0.0, 0.0, 5e-324, -2.5e-310, 1e300, -1e300)

KINDS = ["fraction", "int", "float", "mixed", "float-fraction", "float-edge"]


def _scalar(rng, kind):
    """One entry of the given kind; exact kinds are zero a fifth of the time."""
    if kind == "mixed":
        kind = rng.choice(("int", "fraction"))
    elif kind == "float-fraction":
        kind = rng.choice(("float", "fraction"))
    if kind == "float":
        return rng.uniform(-2.0, 2.0)
    if kind == "float-edge":
        return rng.choice(FLOAT_EDGES + (rng.uniform(-2.0, 2.0),))
    v = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    if rng.random() < 0.2:
        v = Fraction(0)
    # Fractions of denominator 1 stay Fractions, as in the Fraction field.
    return v if kind == "fraction" else int(v)


@pytest.mark.parametrize("kind", KINDS)
def test_kron_and_dot_match_plain_products(kind):
    # Every kind runs the plain products, so values and entry types must be
    # those of the reference loops; kron_power must equal colwise_kron_power
    # of the one-column matrix.
    rng = random.Random(f"kron-{kind}")
    for _ in range(60):
        dim = rng.randint(1, 4)
        v = [_scalar(rng, kind) for _ in range(dim)]
        w = [_scalar(rng, kind) for _ in range(dim)]
        p = rng.randint(0, 4)
        got = kron_power(DenseVector(tuple(v)), p)
        assert repr(got.entries) == repr(_power_ref(tuple(v), p))
        column = DenseMatrix.from_rows([[x] for x in v])
        assert repr(got.entries) == repr(colwise_kron_power(column, (p,)).entries)
        got = DenseVector(tuple(v)).dot(DenseVector(tuple(w)))
        assert repr(got) == repr(reduce(operator.add, (x * y for x, y in zip(v, w)), 0))
        rows = [[_scalar(rng, kind) for _ in range(rng.randint(1, 3))]]
        rows += [[_scalar(rng, kind) for _ in rows[0]] for _ in range(rng.randint(0, 2))]
        a = DenseMatrix.from_rows(rows)
        for q in enumerate_fixed_degree(a.cols, rng.randint(0, 3)):
            got = colwise_kron_power(a, q)
            assert repr(got.entries) == repr(_colwise_ref(rows, q))


# Reference loops: the generator formulas the DenseMatrix methods ran
# before they were written over row-tuple kernels.  Each sum folds left
# from the int 0, as left_sum does: builtin sum compensates float sums
# from Python 3.12 on.


def _ref_transpose(a):
    return tuple(tuple(a[i][j] for i in range(len(a))) for j in range(len(a[0])))


def _ref_matmul(a, b):
    return tuple(
        tuple(
            reduce(operator.add, (a[i][k] * b[k][j] for k in range(len(b))), 0)
            for j in range(len(b[0]))
        )
        for i in range(len(a))
    )


def _ref_matvec(a, v):
    return tuple(reduce(operator.add, (row[k] * v[k] for k in range(len(v))), 0) for row in a)


def _ref_elementwise(op, a, b):
    return tuple(tuple(op(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _ref_scale(c, a):
    return tuple(tuple(c * v for v in row) for row in a)


def _ref_is_exact(a):
    return all(
        isinstance(v, (int, Fraction)) and not isinstance(v, bool) for row in a for v in row
    )


def _ref_cleared(a):
    d = math.lcm(*[v.denominator for row in a for v in row])
    return tuple(tuple(v.numerator * (d // v.denominator) for v in row) for row in a), d


def _ref_symmetry_error(a, rtol=1e-12):
    """(error class name, message) that the symmetry check raised, or None."""
    exact = _ref_is_exact(a)
    tol = 0 if exact else rtol * max(abs(v) for row in a for v in row)
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            x, y = a[i][j], a[j][i]
            if x != y and (exact or not abs(x - y) <= tol):
                return "NotSymmetricError", f"entries ({i},{j}) and ({j},{i}) differ: {x} vs {y}"
    return None


def _symmetry_error(m):
    try:
        check_symmetric_rows(m.data, m.is_exact())
    except NotSymmetricError as exc:
        return type(exc).__name__, str(exc)
    return None


class _Int(int):
    pass


class _Frac(Fraction):
    pass


@pytest.mark.parametrize("kind", KINDS)
def test_matrix_kernels_match_reference_loops(kind):
    # Every entry must keep the bits (floats) or the type and value (exact
    # scalars) of the reference loops, so entries are compared by repr.
    # Operands of every kind, Fractions only included, run the same kernels.
    rng = random.Random(f"kernels-{kind}")

    def rows(r, c):
        return tuple(tuple(_scalar(rng, kind) for _ in range(c)) for _ in range(r))

    for _ in range(60):
        r, c, p = (rng.randint(1, 4) for _ in range(3))
        a, b, a2 = rows(r, c), rows(c, p), rows(r, c)
        v, w = rows(1, c)[0], rows(1, c)[0]
        ma, mb, ma2 = DenseMatrix(r, c, a), DenseMatrix(c, p, b), DenseMatrix(r, c, a2)
        scalar = _scalar(rng, kind)
        assert repr(ma.transpose().data) == repr(_ref_transpose(a))
        assert repr(ma.matmul(mb).data) == repr(_ref_matmul(a, b))
        assert repr(ma.matvec(DenseVector(v)).entries) == repr(_ref_matvec(a, v))
        want = reduce(operator.add, (x * y for x, y in zip(v, w)), 0)
        assert repr(DenseVector(v).dot(DenseVector(w))) == repr(want)
        want = _ref_elementwise(operator.add, a, a2)
        assert repr(entrywise_rows(operator.add, a, a2)) == repr(want)
        want = _ref_elementwise(operator.sub, a, a2)
        assert repr(entrywise_rows(operator.sub, ma.data, ma2.data)) == repr(want)
        assert repr(ma.scale(scalar).data) == repr(_ref_scale(scalar, a))
        assert ma.is_exact() is _ref_is_exact(a)
        if _ref_is_exact(a):
            assert repr(ma.cleared_rows()) == repr(_ref_cleared(a))
        sq = rows(r, r)
        if rng.random() < 0.5:
            sq = tuple(tuple(sq[min(i, j)][max(i, j)] for j in range(r)) for i in range(r))
        assert _symmetry_error(DenseMatrix(r, r, sq)) == _ref_symmetry_error(sq)


def test_is_exact_takes_bools_and_subclasses_one_by_one():
    rng = random.Random("is-exact")
    odd = (True, False, _Int(3), _Frac(1, 2), 2.5, Fraction(1, 3), 4)
    for _ in range(200):
        r, c = rng.randint(1, 3), rng.randint(1, 3)
        data = tuple(tuple(rng.choice(odd) for _ in range(c)) for _ in range(r))
        assert DenseMatrix(r, c, data).is_exact() is _ref_is_exact(data)
    assert DenseMatrix(1, 2, ((_Int(1), _Frac(1, 2)),)).is_exact() is True
    assert DenseMatrix(1, 2, ((1, True),)).is_exact() is False


def test_is_exact_answers_a_float_first_entry_and_scans_the_rest():
    # A float first entry answers at once; after an exact first entry a
    # later float or bool still makes the matrix inexact.
    third = Fraction(1, 3)
    assert DenseMatrix(2, 2, ((0.5, third), (2, 3))).is_exact() is False
    assert DenseMatrix(2, 2, ((-0.0, 1), (2, 3))).is_exact() is False
    assert DenseMatrix(2, 2, ((third, 1), (2, 0.5))).is_exact() is False
    assert DenseMatrix(2, 2, ((third, 1), (True, 3))).is_exact() is False
    assert DenseMatrix(2, 2, ((3, third), (Fraction(-2), 0))).is_exact() is True
    assert DenseMatrix(1, 1, ((third,),)).is_exact() is True


def test_exact_kron_of_degree_zero_is_int_one():
    v = DenseVector((Fraction(1, 2), Fraction(3)))
    assert repr(kron_power(v, 0).entries) == "(1,)"
    a = DenseMatrix.from_rows([[Fraction(1, 2), Fraction(0)], [Fraction(2), Fraction(-1, 3)]])
    assert repr(colwise_kron_power(a, (0, 0)).entries) == "(1,)"
    assert repr(kron_power(v, 1).entries) == repr((Fraction(1, 2), Fraction(3)))


def test_colwise_arity_mismatch():
    a = DenseMatrix.from_rows([[1, 2], [3, 4]])
    with pytest.raises(DimensionMismatchError):
        colwise_kron_power(a, (1, 1, 1))


def test_tensor_size_cap():
    v = DenseVector.from_entries([1.0] * 100)
    with pytest.raises(SizeLimitError):
        kron_power(v, 4)


def test_vec_quadratic_form_identity():
    m = DenseMatrix.from_rows([[2.0, -0.5], [-0.5, 1.5]])
    t = vec2(0.3, -1.2)
    lhs = vec(m).dot(kron_power(t, 2))
    rhs = t.dot(m.matvec(t))
    assert lhs == pytest.approx(rhs, rel=1e-14)


def flat_index(slots, n):
    """Flat position of a 0-based slot tuple in an order-len(slots) tensor
    over [0, n)."""
    f = 0
    for s in slots:
        f = f * n + s
    return f


def test_flat_index_matches_kron_layout():
    n = 3
    cols = [DenseVector.from_entries([1 if i == j else 0 for i in range(n)]) for j in range(n)]
    for slots in [(0,), (2,), (0, 1), (2, 1), (1, 0, 2)]:
        v = DenseVector((1,))
        for s in slots:
            v = kron(v, cols[s])
        assert v.entries[flat_index(slots, n)] == 1
        assert sum(v.entries) == 1


def test_spd_factorize_inverses():
    eye = spd_factorize(DenseMatrix.identity(3))
    assert eye.inverse().data == DenseMatrix.identity(3).data
    scaled = spd_factorize(DenseMatrix.from_rows([[4.0, 0.0], [0.0, 4.0]]))
    assert scaled.inverse().data[0][0] == pytest.approx(0.25)
    diag = spd_factorize(DenseMatrix.from_rows([[1.0, 0.0], [0.0, 4.0]]))
    inv = diag.inverse()
    assert inv.data[0][0] == pytest.approx(1.0)
    assert inv.data[1][1] == pytest.approx(0.25)


def test_spd_rejects_asymmetric_and_indefinite():
    with pytest.raises(NotSymmetricError):
        spd_factorize(DenseMatrix.from_rows([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(NotPositiveDefiniteError):
        spd_factorize(DenseMatrix.from_rows([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(DimensionMismatchError):
        spd_factorize(DenseMatrix.from_rows([[1.0, 0.0]]))


def rank_one_covariance(scale, b):
    """Lambda^T Upsilon Lambda for Lambda = [[0.1, b]], Upsilon = [[scale]]:
    a 2x2 covariance of rank 1, whose second pivot is rounding error."""
    a = 0.1
    return DenseMatrix.from_rows(
        [[scale * a * a, scale * a * b], [scale * a * b, scale * b * b]]
    )


@pytest.mark.parametrize("scale, b", [(1e-6, 3 / 7), (1.0, 1 / 7), (1e6, 1 / 7)])
def test_spd_refuses_singular_to_working_precision(scale, b):
    # Rounding leaves both pivots of these rank-one matrices positive, so
    # only n * eps * max|S| * max|S^-1| >= 1 refuses them, at every scale.
    with pytest.raises(NotPositiveDefiniteError, match="singular to working precision"):
        spd_factorize(rank_one_covariance(scale, b))
    # A well-conditioned covariance at the same scale passes, far below 1.
    s = DenseMatrix.from_rows([[2.0 * scale, 0.5 * scale], [0.5 * scale, scale]])
    inv = spd_factorize(s).inverse().data
    size = 2 * 2.0**-52 * (2.0 * scale) * max(abs(v) for row in inv for v in row)
    assert size < 1e-14
    assert inv[0][0] == pytest.approx(1 / (1.75 * scale), rel=1e-14)
    # Exact covariances keep the exact rule: a singular one is refused by
    # its zero pivot.
    with pytest.raises(NotPositiveDefiniteError, match="non-positive pivot"):
        spd_factorize(DenseMatrix.from_rows([[1, 2], [2, 4]]))


def test_spd_inverse_exact_in_rational_field():
    s = DenseMatrix.from_rows(
        [[Fraction(5), Fraction(2)], [Fraction(2), Fraction(3)]]
    )
    spd = spd_factorize(s)
    prod = s.matmul(spd.inverse())
    assert prod.data == DenseMatrix.identity(2).data


def test_spd_inverse_float_roundtrip():
    for trial in range(20):
        rng = trial_rng(31, trial)
        n = int(rng.integers(1, 5))
        q = DenseMatrix.from_rows(rng.uniform(-2, 2, size=(n, n)))
        s = gram_plus_identity(q)
        spd = spd_factorize(s)
        prod = s.matmul(spd.inverse())
        for i in range(n):
            for j in range(n):
                assert prod.data[i][j] == pytest.approx(
                    1.0 if i == j else 0.0, abs=1e-10
                )


def test_invert_matrix_exact_and_singular():
    m = DenseMatrix.from_rows([[1, 2], [3, 4]])
    inv = invert_matrix(m)
    assert m.matmul(inv).data == DenseMatrix.identity(2).data
    with pytest.raises(SingularMatrixError):
        invert_matrix(DenseMatrix.from_rows([[1, 2], [2, 4]]))


def gauss_jordan_reference(m):
    """Gauss-Jordan with partial pivoting on Fractions."""
    n = m.rows
    a = [[Fraction(v) for v in row] for row in m.data]
    aug = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[piv][col] == 0:
            raise SingularMatrixError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        aug[col], aug[piv] = aug[piv], aug[col]
        d = a[col][col]
        a[col] = [v / d for v in a[col]]
        aug[col] = [v / d for v in aug[col]]
        for r in range(n):
            f = a[r][col]
            if r != col and f != 0:
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return tuple(tuple(row) for row in aug)


def seeded_square(rng, n, kind):
    """An n x n matrix: p/q Fractions with a zero leading pivot, an
    indefinite symmetric one, Fraction(float) entries, a singular one whose
    leading (n-1) x (n-1) block is diagonally dominant and whose last column
    is a combination of the others, or floats."""
    if kind == "float":
        return DenseMatrix.from_rows(rng.uniform(-2, 2, size=(n, n)))

    def entry():
        if kind == "from-float":
            return Fraction(float(rng.uniform(-2, 2)))
        return Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))

    rows = [[entry() for _ in range(n)] for _ in range(n)]
    if kind == "zero-pivot":
        rows[0][0] = Fraction(0)
    elif kind == "indefinite":
        rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        rows[0][0] = -abs(rows[0][0]) - 1
        rows[-1][-1] = abs(rows[-1][-1]) + 1
    elif kind == "singular":
        mix = [entry() for _ in range(n - 1)]
        for i, row in enumerate(rows):
            if i < n - 1:
                row[i] = sum(abs(v) for v in row[: n - 1]) + 1
            row[-1] = sum(c * v for c, v in zip(mix, row))
    return DenseMatrix.from_rows(rows)


def test_covariance_rule_in_each_field():
    # Float: symmetric positive definite, through spd_factorize.
    flt = DenseMatrix.from_rows([[2.0, 0.5], [0.5, 1.0]])
    assert covariance(flt).inverse().data == spd_factorize(flt).inverse().data
    with pytest.raises(NotPositiveDefiniteError):
        covariance(DenseMatrix.from_rows([[1.0, 2.0], [2.0, 1.0]]))
    # Exact: symmetric and invertible is enough.
    indefinite = DenseMatrix.from_rows([[1, Fraction(1, 2)], [Fraction(1, 2), -3]])
    cov = covariance(indefinite)
    assert cov.matrix is indefinite
    assert cov.inverse().data == invert_matrix(indefinite).data
    with pytest.raises(NotPositiveDefiniteError):
        spd_factorize(indefinite)
    with pytest.raises(SingularMatrixError):
        covariance(DenseMatrix.from_rows([[1, 2], [2, 4]]))
    # Symmetry is checked first, in both fields.
    for rows in ([[1.0, 2.0], [0.0, 1.0]], [[1, 2], [0, 1]], [[0, 1], [0, 0]]):
        with pytest.raises(NotSymmetricError):
            covariance(DenseMatrix.from_rows(rows))


def test_exact_inverse_matches_fraction_gauss_jordan():
    kinds = ("zero-pivot", "indefinite", "from-float", "singular", "float")
    for trial in range(100):
        rng = trial_rng(404, trial)
        kind = kinds[trial % 5]
        n = 1 + (trial // 5) % 5
        if kind in ("zero-pivot", "singular"):
            n = 2 + (trial // 5) % 4
        m = seeded_square(rng, n, kind)
        if kind == "singular":
            # The leading n-1 columns are independent: the rank loss shows
            # only when the last column is reached.
            gauss_jordan_reference(DenseMatrix.from_rows([r[:-1] for r in m.data[:-1]]))
            with pytest.raises(SingularMatrixError):
                gauss_jordan_reference(m)
            with pytest.raises(SingularMatrixError):
                invert_matrix(m)
            continue
        if kind == "float":
            # Float matrices invert through SpdMatrix.inverse, not here.
            with pytest.raises(DomainError):
                invert_matrix(m)
            continue
        expected = gauss_jordan_reference(m)
        got = invert_matrix(m).data
        assert got == expected
        assert all(type(v) is Fraction for row in got for v in row)
        assert m.matmul(invert_matrix(m)).data == DenseMatrix.identity(n).data


@pytest.mark.parametrize("kind", ["fraction", "int", "mixed"])
def test_exact_covariance_inverse_matches_gauss_jordan_by_repr(kind):
    # covariance checks an exact input once and inverts it on its rows; the
    # inverse holds Fractions of the reference's values, zeros included.
    rng = random.Random(f"covariance-{kind}")
    inverted = 0
    for _ in range(80):
        n = rng.randint(1, 4)
        upper = [[_scalar(rng, kind) for _ in range(n)] for _ in range(n)]
        sym = DenseMatrix.from_rows(
            [[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        )
        try:
            expected = gauss_jordan_reference(sym)
        except SingularMatrixError:
            with pytest.raises(SingularMatrixError, match="^matrix is singular$"):
                covariance(sym)
            continue
        assert repr(covariance(sym).inverse().data) == repr(expected)
        inverted += 1
    assert inverted >= 40


small_fraction = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)


@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_power_of_mapped_vector_equals_selector_contraction(rows, cols, data):
    entries = data.draw(
        st.lists(small_fraction, min_size=rows * cols, max_size=rows * cols)
    )
    b_entries = data.draw(st.lists(small_fraction, min_size=rows, max_size=rows))
    a = DenseMatrix.from_rows(
        [entries[r * cols : (r + 1) * cols] for r in range(rows)]
    )
    b = DenseVector.from_entries(b_entries)
    degree = data.draw(st.integers(0, 4))
    ks = enumerate_fixed_degree(cols, degree)
    k = data.draw(st.sampled_from(ks))
    atb = a.transpose().matvec(b)
    lhs = Fraction(1)
    for v, e in zip(atb.entries, k.parts):
        lhs *= v**e
    rhs = colwise_kron_power(a, k).dot(kron_power(b, degree))
    assert lhs == rhs


def test_power_of_mapped_vector_float_tolerance():
    for trial in range(30):
        rng = trial_rng(77, trial)
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(1, 5))
        a = DenseMatrix.from_rows(rng.uniform(-2, 2, size=(rows, cols)))
        b = DenseVector.from_entries(rng.uniform(-2, 2, size=rows))
        degree = int(rng.integers(0, 5))
        for k in enumerate_fixed_degree(cols, degree):
            atb = a.transpose().matvec(b)
            lhs = 1.0
            for v, e in zip(atb.entries, k.parts):
                lhs *= v**e
            rhs = colwise_kron_power(a, k).dot(kron_power(b, degree))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


def test_selector_vectors_orthonormal():
    for n in (1, 2, 3):
        for degree in range(0, 5):
            ks = enumerate_fixed_degree(n, degree)
            eye = DenseMatrix.identity(n)
            sel = [colwise_kron_power(eye, k) for k in ks]
            for i in range(len(sel)):
                for j in range(len(sel)):
                    assert sel[i].dot(sel[j]) == (1 if i == j else 0)


def test_matrix_shape_errors():
    a = DenseMatrix.from_rows([[1, 2], [3, 4]])
    with pytest.raises(DimensionMismatchError):
        a.matmul(DenseMatrix.from_rows([[1, 2, 3]]))
    with pytest.raises(DimensionMismatchError):
        a.matvec(DenseVector.from_entries([1, 2, 3]))
    with pytest.raises(DimensionMismatchError):
        DenseMatrix.from_rows([])
    assert math.isfinite(sum(DenseVector(a.data[0]).entries))


@pytest.mark.parametrize("s", [1e-6, 1.0, 1e6])
def test_float_symmetry_rule_does_not_depend_on_scale(s):
    # A relative asymmetry of 1e-7 is refused at every scale, and an exactly
    # symmetric matrix is accepted at every scale.
    with pytest.raises(NotSymmetricError):
        covariance(DenseMatrix.from_rows([[2 * s, s * (1 + 1e-7)], [s, 2 * s]]))
    cov = covariance(DenseMatrix.from_rows([[2 * s, s], [s, 2 * s]]))
    assert cov.inverse().data[0][0] == pytest.approx(2 / (3 * s))


def _spd_inverse_reference(s):
    """spd_factorize's solve with every inner sum a left_sum over a
    generator, kept to pin the bits of the factorisation's float path."""
    n = s.rows
    exact = s.is_exact()
    a = [[Fraction(v) if exact else float(v) for v in row] for row in s.data]
    low = [[0] * n for _ in range(n)]
    diag = [0] * n
    for j in range(n):
        pivot = a[j][j] - left_sum(low[j][k] * low[j][k] * diag[k] for k in range(j))
        if not pivot > 0:
            raise NotPositiveDefiniteError(f"non-positive pivot {pivot!r} at index {j}")
        diag[j] = pivot
        low[j][j] = 1
        for i in range(j + 1, n):
            v = a[i][j] - left_sum(low[i][k] * low[j][k] * diag[k] for k in range(j))
            low[i][j] = v / pivot
    cols = range(n)
    x = [[1 if i == c else 0 for c in cols] for i in cols]
    for i in range(n):
        x[i] = [x[i][c] - left_sum(low[i][j] * x[j][c] for j in range(i)) for c in cols]
    x = [[v / d for v in row] for row, d in zip(x, diag)]
    for i in range(n - 1, -1, -1):
        back = range(i + 1, n)
        x[i] = [x[i][c] - left_sum(low[j][i] * x[j][c] for j in back) for c in cols]
    if not exact:
        size = n * 2.0**-52 * max(abs(v) for row in a for v in row)
        size *= max(abs(v) for row in x for v in row)
        if not size < 1:
            raise NotPositiveDefiniteError(
                f"covariance is singular to working precision: "
                f"n*eps*max|S|*max|S^-1| = {size:.3g} >= 1"
            )
    return tuple(tuple(row) for row in x)


def _spd_outcome(solve, s):
    try:
        return solve(s)
    except NotPositiveDefiniteError as err:
        return str(err)


def test_spd_factorize_matches_generator_sums_bit_for_bit():
    rng = random.Random(2701)
    refused = set()
    for trial in range(400):
        n = rng.randint(1, 5)
        kind = trial % 4
        q = [[rng.uniform(-2.0, 2.0) for _ in range(n)] for _ in range(n)]
        if kind == 3:
            # Fraction entries; the shift below makes some indefinite.
            q = [
                [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(n)
            ]
        # Q^T Q + shift * I: positive definite for shift 1, maybe not else.
        shift = rng.choice([1, 0, -1]) if kind >= 2 else 1
        s = DenseMatrix.from_rows(q).transpose().matmul(DenseMatrix.from_rows(q))
        s = matrix_sum(s, DenseMatrix.identity(n).scale(shift))
        if kind == 1:
            s = s.scale(10.0 ** rng.choice([-6, 6]))
        if kind == 2 and n > 1 and rng.random() < 0.5:
            # Rank one: singular to working precision, at three scales.
            s = rank_one_covariance(10.0 ** rng.choice([-6, 0, 6]), rng.uniform(-1.0, 1.0))
        want = _spd_outcome(_spd_inverse_reference, s)
        got = _spd_outcome(lambda m: spd_factorize(m).inverse().data, s)
        if isinstance(want, str):
            refused.add(want.split(" ")[0])
            assert got == want
            continue
        assert repr(got) == repr(want)
        assert [type(v) for row in got for v in row] == [type(v) for row in want for v in row]
    # Both refusals were met: a non-positive pivot, and a float matrix
    # singular to working precision.
    assert refused == {"non-positive", "covariance"}
