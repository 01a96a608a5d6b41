import math
import random
from fractions import Fraction

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
    colwise_kron_power,
    covariance,
    invert_matrix,
    kron,
    kron_power,
    spd_factorize,
    vec,
)
from hermult.verify import trial_rng


def vec2(*entries):
    return DenseVector.from_entries(entries)


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


def _scalar(rng, kind):
    """One entry of the given kind; exact kinds are zero a fifth of the time."""
    if kind == "mixed":
        kind = rng.choice(("int", "fraction"))
    elif kind == "float-fraction":
        kind = rng.choice(("float", "fraction"))
    if kind == "float":
        return rng.uniform(-2.0, 2.0)
    v = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    if rng.random() < 0.2:
        v = Fraction(0)
    # Fractions of denominator 1 stay Fractions, as in the Fraction field.
    return v if kind == "fraction" else int(v)


@pytest.mark.parametrize("kind", ["fraction", "int", "float", "mixed", "float-fraction"])
def test_kron_and_dot_match_plain_products(kind):
    # Vectors of Fractions run on cleared integers; values and entry types
    # must be those of the plain products, which every other kind still runs.
    rng = random.Random(f"kron-{kind}")
    for _ in range(60):
        dim = rng.randint(1, 4)
        v = [_scalar(rng, kind) for _ in range(dim)]
        w = [_scalar(rng, kind) for _ in range(dim)]
        p = rng.randint(0, 4)
        got = kron_power(DenseVector(tuple(v)), p)
        assert repr(got.entries) == repr(_power_ref(tuple(v), p))
        got = DenseVector(tuple(v)).dot(DenseVector(tuple(w)))
        assert repr(got) == repr(sum(x * y for x, y in zip(v, w)))
        rows = [[_scalar(rng, kind) for _ in range(rng.randint(1, 3))]]
        rows += [[_scalar(rng, kind) for _ in rows[0]] for _ in range(rng.randint(0, 2))]
        a = DenseMatrix.from_rows(rows)
        for q in enumerate_fixed_degree(a.cols, rng.randint(0, 3)):
            got = colwise_kron_power(a, q)
            assert repr(got.entries) == repr(_colwise_ref(rows, q))


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


def test_vec_column_stacking():
    m = DenseMatrix.from_rows([[1, 2], [3, 4]])
    assert vec(m).entries == (1, 3, 2, 4)
    z = DenseMatrix.from_rows([[0, 0], [0, 0]])
    assert vec(z).entries == (0, 0, 0, 0)


def test_vec_quadratic_form_identity():
    m = DenseMatrix.from_rows([[2.0, -0.5], [-0.5, 1.5]])
    t = vec2(0.3, -1.2)
    lhs = vec(m).dot(kron(t, t))
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
        q = DenseMatrix.from_rows(rng.uniform(-2, 2, size=(n, n)).tolist())
        s = q.transpose().matmul(q).add(DenseMatrix.identity(n))
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
        return DenseMatrix.from_rows(rng.uniform(-2, 2, size=(n, n)).tolist())

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
        a = DenseMatrix.from_rows(rng.uniform(-2, 2, size=(rows, cols)).tolist())
        b = DenseVector.from_entries(rng.uniform(-2, 2, size=rows).tolist())
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
