import math
import operator
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermult import coeffs
from hermult.coeffs import CoeffVariant
from hermult.errors import (
    DimensionMismatchError,
    DomainError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    SingularMatrixError,
    SizeLimitError,
)
from hermult.multiindex import enumerate_fixed_degree
from hermult.polyoracle import (
    MAX_DECIMAL_EXPONENT,
    MAX_RATIONAL_DIGITS,
    _RADIX,
    MPoly,
    SymbolicHermiteFamily,
    _decode,
    _nested,
    as_rational,
    oracle_compare,
    rational_matrix,
)
from hermult.tensorlin import (
    DenseMatrix,
    check_symmetric_rows,
    covariance,
    invert_matrix,
    spd_factorize,
)
from hermult.verify import trial_rng
from matrices import gram_plus_identity


def x(arity, i):
    return MPoly(arity, {tuple(int(j == i) for j in range(arity)): 1})


def const(arity, c):
    return MPoly(arity, {(0,) * arity: c})


def test_mpoly_cancellation_and_product():
    p = x(1, 0)
    assert p.sub(p).is_zero()
    assert p.add(const(1, 2)).sub(p) == const(1, 2)
    prod = x(1, 0).add(const(1, 1)).mul(x(1, 0).add(const(1, -1)))
    assert prod == MPoly(1, {(2,): 1, (0,): -1})
    assert MPoly(1, {(1,): 0}).is_zero()


def test_mpoly_compose_linear():
    swap = rational_matrix([[0, 1], [1, 0]])
    p = x(2, 0).mul(x(2, 1))  # y0*y1
    assert p.compose_linear(swap) == MPoly(2, {(1, 1): 1})
    widen = rational_matrix([[1, 1]])
    sq = MPoly(1, {(2,): 1})
    assert sq.compose_linear(widen) == MPoly(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    zero_map = rational_matrix([[0, 0]])
    p2 = MPoly(1, {(2,): 1, (0,): 5})
    assert p2.compose_linear(zero_map) == const(2, 5)


def test_mpoly_arity_checks():
    with pytest.raises(DimensionMismatchError):
        x(1, 0).add(x(2, 0))
    with pytest.raises(DimensionMismatchError):
        x(1, 0).mul(x(2, 0))
    with pytest.raises(DimensionMismatchError):
        MPoly(1, {(1,): 1}).compose_linear(rational_matrix([[1], [1]]))


def test_as_rational_refuses_floats():
    assert as_rational("3/7") == Fraction(3, 7)
    assert as_rational(4) == 4
    with pytest.raises(DomainError):
        as_rational(0.5)


def test_as_rational_bounds_strings():
    assert as_rational("3/4") == Fraction(3, 4)
    assert as_rational("-2.5e-1") == Fraction(-1, 4)
    assert as_rational("1e3") == 1000
    assert as_rational(f"1e-{MAX_DECIMAL_EXPONENT}") == Fraction(1, 10**MAX_DECIMAL_EXPONENT)
    assert as_rational("7" * MAX_RATIONAL_DIGITS) == int("7" * MAX_RATIONAL_DIGITS)
    for bad in (
        "1e200000",
        f"1e{MAX_DECIMAL_EXPONENT + 1}",
        f"2.5E-{MAX_DECIMAL_EXPONENT + 1}",
        "7" * (MAX_RATIONAL_DIGITS + 1),
        "1/" + "3" * MAX_RATIONAL_DIGITS,
        "3 / 4",
        "3/ 4",
        "1_000",
        "1e1_0",
    ):
        with pytest.raises(DomainError):
            as_rational(bad)


small_poly = st.builds(
    lambda terms: MPoly(
        2, {mono: c for mono, c in terms}
    ),
    st.lists(
        st.tuples(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            st.fractions(min_value=-5, max_value=5, max_denominator=6),
        ),
        max_size=5,
    ),
)


@given(small_poly, small_poly, small_poly)
@settings(max_examples=60, deadline=None)
def test_mpoly_ring_axioms(p, q, r):
    assert p.add(q) == q.add(p)
    assert p.add(q).add(r) == p.add(q.add(r))
    assert p.mul(q) == q.mul(p)
    assert p.mul(q).mul(r) == p.mul(q.mul(r))
    assert p.mul(q.add(r)) == p.mul(q).add(p.mul(r))


def test_hermite_symbolic_base_cases():
    assert SymbolicHermiteFamily(rational_matrix([[1]])).poly((0,)) == const(1, 1)
    assert SymbolicHermiteFamily(rational_matrix([[1]])).poly((2,)) == MPoly(
        1, {(2,): 1, (0,): -1}
    )
    eye2 = rational_matrix([[1, 0], [0, 1]])
    assert SymbolicHermiteFamily(eye2).poly((1, 1)) == MPoly(2, {(1, 1): 1})


def test_hermite_symbolic_product_structure_at_identity():
    for n in (2, 3):
        eye = rational_matrix(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        )
        one = rational_matrix([[1]])
        for degree in range(0, 7):
            for k in enumerate_fixed_degree(n, degree):
                expected = const(n, 1)
                for i, ki in enumerate(k.parts):
                    embed = DenseMatrix(
                        1, n,
                        ((tuple(Fraction(1 if j == i else 0) for j in range(n))),),
                    )
                    expected = expected.mul(
                        SymbolicHermiteFamily(one).poly((ki,)).compose_linear(embed)
                    )
                assert SymbolicHermiteFamily(eye).poly(k) == expected


def test_hermite_symbolic_total_degree_and_leading_pattern():
    b = rational_matrix([[2, 1], [1, 3]])
    fam = SymbolicHermiteFamily(b)
    for degree in range(0, 6):
        for k in enumerate_fixed_degree(2, degree):
            p = fam.poly(k)
            assert max(sum(m) for m in p.terms) == degree
            # leading part equals the expansion of (Bx)^k
            lead = const(2, 1)
            rows = [
                MPoly(2, {(1, 0): Fraction(2), (0, 1): Fraction(1)}),
                MPoly(2, {(1, 0): Fraction(1), (0, 1): Fraction(3)}),
            ]
            for i, ki in enumerate(k.parts):
                for _ in range(ki):
                    lead = lead.mul(rows[i])
            top = {m: c for m, c in p.terms.items() if sum(m) == degree}
            assert top == lead.terms


def test_hermite_symbolic_validation():
    from hermult.errors import NotSymmetricError

    one = SymbolicHermiteFamily(rational_matrix([[1]]))
    with pytest.raises(SizeLimitError):
        one.poly((coeffs.MAX_EXPANSION_DEGREE + 1,))
    with pytest.raises(DomainError):
        SymbolicHermiteFamily(DenseMatrix.from_rows([[1.0]])).poly((1,))
    with pytest.raises(DimensionMismatchError):
        one.poly((1, 1))
    with pytest.raises(NotSymmetricError):
        SymbolicHermiteFamily(rational_matrix([[1, 2], [0, 1]])).poly((1, 1))


def test_oracle_identity_map_single_term():
    from hermult.tensorlin import invert_matrix

    sigma = rational_matrix([[2, 1], [1, 3]])
    eye_lam = rational_matrix([[1, 0], [0, 1]])
    sigma_inv = invert_matrix(sigma)
    for k in [(1, 0), (1, 1), (2, 1)]:
        res = oracle_compare(k, eye_lam, sigma, sigma)
        assert res.equal
        # the whole right-hand side collapses to the single term (k, 1)
        assert res.rhs == SymbolicHermiteFamily(sigma_inv).poly(k)


def test_oracle_permutation_counterexample():
    lam = rational_matrix([[0, 1], [1, 0]])
    eye = rational_matrix([[1, 0], [0, 1]])
    sym = oracle_compare((1, 1), lam, eye, eye, CoeffVariant.SYMMETRIZED)
    lit = oracle_compare((1, 1), lam, eye, eye, CoeffVariant.PAPER_LITERAL)
    assert sym.equal
    assert not lit.equal
    assert lit.diff == MPoly(2, {(1, 1): 1})
    assert lit.rhs.is_zero()


def test_oracle_takes_a_variant_by_its_value_string():
    lam = rational_matrix([[0, 1], [1, 0]])
    eye = rational_matrix([[1, 0], [0, 1]])
    for variant in CoeffVariant:
        want = oracle_compare((1, 1), lam, eye, eye, variant)
        assert oracle_compare((1, 1), lam, eye, eye, variant.value) == want
    assert not oracle_compare((1, 1), lam, eye, eye, "paper-literal").equal
    with pytest.raises(ValueError):
        oracle_compare((1, 1), lam, eye, eye, "bogus")


def test_oracle_variants_agree_for_single_row():
    lam = rational_matrix([[Fraction(1, 2)], [Fraction(-2, 3)]])
    sigma = rational_matrix([[Fraction(3, 2)]])
    ups = rational_matrix([[2, 1], [1, 2]])
    for k in [(0,), (1,), (2,), (3,)]:
        a = oracle_compare(k, lam, sigma, ups, CoeffVariant.SYMMETRIZED)
        b = oracle_compare(k, lam, sigma, ups, CoeffVariant.PAPER_LITERAL)
        assert a.equal and b.equal
        assert a.rhs == b.rhs


def test_oracle_randomized_rational_instances():
    trial = 0
    for n in (1, 2):
        for m in (1, 2, 3):
            for degree in range(0, 4):
                for k in enumerate_fixed_degree(n, degree):
                    rng = trial_rng(99, trial)
                    trial += 1
                    lam = DenseMatrix.from_rows(
                        [
                            [
                                Fraction(int(a), int(b))
                                for a, b in zip(
                                    rng.integers(-2, 3, size=n),
                                    rng.integers(1, 3, size=n),
                                )
                            ]
                            for _ in range(m)
                        ]
                    )
                    def rat_spd(dim):
                        q = DenseMatrix.from_rows(
                            [[int(v) for v in row] for row in rng.integers(-2, 3, size=(dim, dim))]
                        )
                        return gram_plus_identity(q)
                    res = oracle_compare(k, lam, rat_spd(n), rat_spd(m))
                    assert res.equal


def test_oracle_accepts_indefinite_symmetric_covariances():
    # positive definiteness is not needed for the algebra, only symmetry
    # and invertibility
    sig = rational_matrix([[1, 2], [2, 1]])  # det = -3
    ups = rational_matrix([[2, 0], [0, 3]])
    lam = rational_matrix([[Fraction(1, 2), 1], [0, Fraction(2, 3)]])
    for k in [(1, 0), (1, 1), (2, 1), (2, 2)]:
        assert oracle_compare(k, lam, sig, ups).equal


def test_oracle_rejects_bad_inputs():
    eye = rational_matrix([[1, 0], [0, 1]])
    lam = rational_matrix([[1, 0], [0, 1]])
    with pytest.raises(SingularMatrixError):
        oracle_compare((1, 1), lam, rational_matrix([[1, 1], [1, 1]]), eye)
    with pytest.raises(SizeLimitError):
        oracle_compare((coeffs.MAX_EXPANSION_DEGREE + 1, 0), lam, eye, eye)
    with pytest.raises(DomainError):
        oracle_compare((1, 1), DenseMatrix.from_rows([[1.0, 0.0], [0.0, 1.0]]), eye, eye)



_ASYM = rational_matrix([[2, Fraction(1, 2)], [1, 3]])
_SINGULAR = rational_matrix([["1/2", 1], [1, 2]])
_FLOAT = DenseMatrix.from_rows([[1.0, 2.0], [2.0, 1.0]])
_FLOAT_ASYM = DenseMatrix.from_rows([[1.0, 2.0], [2.5, 1.0]])
_EYE = rational_matrix([[1, 0], [0, 1]])
_LAM = rational_matrix([[1, "1/2"], [0, 2]])

# Each refused input, with the error class and message it raised before
# exactness and symmetry were tested once per input.
REFUSALS = {
    "covariance-asym": (
        lambda: covariance(_ASYM), NotSymmetricError,
        "entries (0,1) and (1,0) differ: 1/2 vs 1",
    ),
    "covariance-singular": (
        lambda: covariance(_SINGULAR), SingularMatrixError, "matrix is singular",
    ),
    "covariance-float-indefinite": (
        lambda: covariance(_FLOAT), NotPositiveDefiniteError,
        "non-positive pivot -3.0 at index 1",
    ),
    "covariance-float-asym": (
        lambda: covariance(_FLOAT_ASYM), NotSymmetricError,
        "entries (0,1) and (1,0) differ: 2.0 vs 2.5",
    ),
    "covariance-nonsquare": (
        lambda: covariance(rational_matrix([[1, 2]])), DimensionMismatchError,
        "symmetry check on a non-square matrix",
    ),
    "invert-float": (
        lambda: invert_matrix(_FLOAT), DomainError,
        "invert_matrix requires exact rational entries",
    ),
    "invert-singular": (
        lambda: invert_matrix(_SINGULAR), SingularMatrixError, "matrix is singular",
    ),
    "invert-nonsquare": (
        lambda: invert_matrix(rational_matrix([[1, 2]])), DimensionMismatchError,
        "inverse of a non-square matrix",
    ),
    "check-symmetric-asym": (
        lambda: check_symmetric_rows(_ASYM.data, _ASYM.is_exact()), NotSymmetricError,
        "entries (0,1) and (1,0) differ: 1/2 vs 1",
    ),
    "spd-asym": (
        lambda: spd_factorize(_ASYM), NotSymmetricError,
        "entries (0,1) and (1,0) differ: 1/2 vs 1",
    ),
    "family-float": (
        lambda: SymbolicHermiteFamily(_FLOAT), DomainError,
        "symbolic construction requires exact rational entries",
    ),
    "family-asym": (
        lambda: SymbolicHermiteFamily(_ASYM), NotSymmetricError,
        "entries (0,1) and (1,0) differ: 1/2 vs 1",
    ),
    "oracle-float": (
        lambda: oracle_compare((1, 1), _LAM, _FLOAT, _EYE), DomainError,
        "oracle comparison requires exact rational inputs",
    ),
    "oracle-asym": (
        lambda: oracle_compare((1, 1), _LAM, _ASYM, _EYE), NotSymmetricError,
        "entries (0,1) and (1,0) differ: 1/2 vs 1",
    ),
    "oracle-singular": (
        lambda: oracle_compare((1, 1), _LAM, _EYE, _SINGULAR), SingularMatrixError,
        "matrix is singular",
    ),
    "map-asym": (
        lambda: coeffs.transformed_map_from_inverses(_LAM, _ASYM, _EYE), NotSymmetricError,
        "entries (0,1) and (1,0) differ: 1/2 vs 1",
    ),
    "map-float-asym": (
        lambda: coeffs.transformed_map_from_inverses(_LAM, _FLOAT_ASYM, _EYE),
        NotSymmetricError, "entries (0,1) and (1,0) differ: 2.0 vs 2.5",
    ),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refused_inputs_keep_error_class_and_message(name):
    call, error, message = REFUSALS[name]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message

# Reference: the oracle as a rational build, term by term in Fraction
# arithmetic with no denominator clearing: the differentiation recursion in
# B = Sigma^-1, substitution by chained products of cached row-form powers,
# and the right side summed as T[k,q] * H_q one term at a time.


def _ref_add(a, b, scale=1):
    out = dict(a)
    for mono, c in b.items():
        out[mono] = out.get(mono, Fraction(0)) + scale * c
    return {mono: c for mono, c in out.items() if c}


def _ref_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(x + y for x, y in zip(ma, mb))
            out[mono] = out.get(mono, Fraction(0)) + ca * cb
    return {mono: c for mono, c in out.items() if c}


def _ref_row_forms(mat):
    return [
        {
            tuple(1 if c == j else 0 for c in range(mat.cols)): Fraction(v)
            for j, v in enumerate(row)
            if v
        }
        for row in mat.data
    ]


def _ref_hermite(parts, rows, memo):
    got = memo.get(parts)
    if got is not None:
        return got
    if not any(parts):
        return {parts: Fraction(1)}
    i = max(j for j, p in enumerate(parts) if p)
    prev = _ref_hermite(parts[:i] + (parts[i] - 1,) + parts[i + 1 :], rows, memo)
    deriv = {
        mono[:i] + (mono[i] - 1,) + mono[i + 1 :]: mono[i] * c
        for mono, c in prev.items()
        if mono[i]
    }
    res = _ref_add(_ref_mul(rows[i], prev), deriv, -1)
    memo[parts] = res
    return res


def _ref_compose(terms, lin):
    forms = _ref_row_forms(lin)
    one = {(0,) * lin.cols: Fraction(1)}
    powers = {}

    def power(r, e):
        if (r, e) not in powers:
            powers[r, e] = one if e == 0 else _ref_mul(power(r, e - 1), forms[r])
        return powers[r, e]

    res = {}
    for mono, c in terms.items():
        term = {(0,) * lin.cols: c}
        for r, e in enumerate(mono):
            if e:
                term = _ref_mul(term, power(r, e))
        res = _ref_add(res, term)
    return res


def _ref_oracle(k, lam, sigma, upsilon, variant):
    sigma_inv = invert_matrix(sigma)
    upsilon_inv = invert_matrix(upsilon)
    lhs = _ref_compose(
        _ref_hermite(tuple(k), _ref_row_forms(sigma_inv), {}), lam.transpose()
    )
    tmap = coeffs.transformed_map_from_inverses(lam, sigma_inv, upsilon)
    basis_rows, memo = _ref_row_forms(upsilon_inv), {}
    rhs = {}
    for term in coeffs.expand_from_map(k, tmap, variant):
        rhs = _ref_add(rhs, _ref_hermite(term.q.parts, basis_rows, memo), term.coeff)
    diff = _ref_add(lhs, rhs, -1)
    m = upsilon.rows
    return not diff, MPoly(m, lhs), MPoly(m, rhs), MPoly(m, diff)



@pytest.mark.parametrize("kind", ["fraction", "int", "mixed"])
def test_symbolic_family_terms_match_rational_reference(kind):
    """scaled_terms gives d^|k| H_k with int coefficients and den = d^|k|,
    d the lcm of the entry denominators of b, for every mix of entry
    types; the reference builds H_k in Fractions and clears by itself."""
    rng = random.Random(f"family-{kind}")
    for _ in range(24):
        n = rng.randint(1, 4)

        def entry():
            v = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            return int(v) if kind == "int" or (kind == "mixed" and rng.random() < 0.5) else v

        upper = [[entry() for _ in range(n)] for _ in range(n)]
        b = DenseMatrix.from_rows(
            [[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        )
        d = math.lcm(*[v.denominator for row in b.data for v in row])
        family, forms, memo = SymbolicHermiteFamily(b), _ref_row_forms(b), {}
        for k in enumerate_fixed_degree(n, rng.randint(0, 4)):
            terms, den = family.scaled_terms(k)
            scale = d ** k.degree()
            want = {
                mono: c * scale for mono, c in _ref_hermite(k.parts, forms, memo).items()
            }
            assert all(c.denominator == 1 for c in want.values())
            got = {_decode(code, n, _RADIX): c for code, c in terms.items()}
            assert repr(sorted(got.items())) == repr(
                sorted((mono, int(c)) for mono, c in want.items())
            )
            assert repr(den) == repr(scale)

def _frac(rng, num, max_den):
    return Fraction(rng.randint(-num, num), rng.randint(1, max_den))


def _dominant_spd(rng, dim):
    # Strict diagonal dominance with a positive diagonal makes it SPD.
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i):
            rows[i][j] = rows[j][i] = _frac(rng, 2, 5)
    for i in range(dim):
        off = sum(abs(v) for v in rows[i])
        rows[i][i] = math.ceil(off) + Fraction(rng.randint(1, 4), rng.randint(2, 5))
    return DenseMatrix.from_rows(rows)


def _indefinite(rng, dim):
    # Symmetric and invertible, with a negative and (for dim >= 2) a
    # positive eigenvalue: a negative pivot, then a dominant block.
    while True:
        rows = [[Fraction(0)] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i + 1):
                rows[i][j] = rows[j][i] = _frac(rng, 3, 4)
        rows[0][0] = -1 - abs(rows[0][0])
        if dim > 1:
            rows[1][1] = sum(abs(v) for v in rows[1]) + 1
        mat = DenseMatrix.from_rows(rows)
        try:
            invert_matrix(mat)
        except SingularMatrixError:
            continue
        return mat


def _reference_case(i):
    rng = random.Random(4040 + i)
    n, m = rng.randint(1, 3), rng.randint(1, 3)
    k = rng.choice(enumerate_fixed_degree(n, rng.randint(0, 5)))
    kind = i % 4
    max_den = 5 if kind in (1, 3) else 2
    lam_rows = [[_frac(rng, 2, max_den) for _ in range(n)] for _ in range(m)]
    if kind in (1, 3):
        lam_rows[rng.randrange(m)] = [0] * n
    lam = DenseMatrix.from_rows(lam_rows)
    sigma = _indefinite(rng, n) if kind in (2, 3) else _dominant_spd(rng, n)
    return k, lam, sigma, _dominant_spd(rng, m)


def test_oracle_matches_rational_reference():
    compared = unequal = 0
    for i in range(160):
        case = _reference_case(i)
        for variant in CoeffVariant:
            res = oracle_compare(*case, variant)
            equal, lhs, rhs, diff = _ref_oracle(*case, variant)
            assert res.equal == equal
            assert (res.lhs, res.rhs, res.diff) == (lhs, rhs, diff)
            assert [p.to_json_obj() for p in (res.lhs, res.rhs, res.diff)] == [
                p.to_json_obj() for p in (lhs, rhs, diff)
            ]
            compared += 1
            unequal += not equal
    assert compared == 320
    # The paper-literal variant is unequal on some multi-part k, so the
    # nonzero diff path is compared too.
    assert unequal > 0


# Reference: the oracle's integer build as it ran with exponent tuples for
# monomial keys, before monomials were coded as ints.  The same cleared
# denominators, recursion, prefix-cached substitution and right-side sum.


def _tuple_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(map(operator.add, ma, mb))
            s = out.get(mono, 0) + ca * cb
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
    return out


def _tuple_add_into(out, terms, scale=1):
    for mono, c in terms.items():
        s = out.get(mono, 0) + scale * c
        if s:
            out[mono] = s
        else:
            out.pop(mono, None)


def _tuple_forms(rows, arity):
    return [
        {tuple(1 if c == j else 0 for c in range(arity)): v for j, v in enumerate(row) if v}
        for row in rows
    ]


def _tuple_compose(terms, forms, arity):
    one = {(0,) * arity: 1}
    powers = [[one] for _ in forms]
    prefix = {}
    out = {}
    for mono, c in terms.items():
        prod = one
        for j in range(1, len(mono) + 1):
            key = mono[:j]
            got = prefix.get(key)
            if got is None:
                e = mono[j - 1]
                if e:
                    pw = powers[j - 1]
                    while len(pw) <= e:
                        pw.append(_tuple_mul(pw[-1], forms[j - 1]))
                    got = _tuple_mul(prod, pw[e])
                else:
                    got = prod
                prefix[key] = got
            prod = got
        _tuple_add_into(out, prod, c)
    return out


class _TupleFamily:
    def __init__(self, b):
        rows, self.den = b.cleared_rows()
        self.rows = _tuple_forms(rows, b.rows)
        self.memo = {(0,) * b.rows: {(0,) * b.rows: 1}}

    def scaled_terms(self, parts):
        return self._raise(tuple(parts)), self.den ** sum(parts)

    def _raise(self, parts):
        got = self.memo.get(parts)
        if got is not None:
            return got
        i = max(j for j, p in enumerate(parts) if p)
        prev = self._raise(parts[:i] + (parts[i] - 1,) + parts[i + 1 :])
        res = _tuple_mul(self.rows[i], prev)
        deriv = {
            mono[:i] + (mono[i] - 1,) + mono[i + 1 :]: mono[i] * c
            for mono, c in prev.items()
            if mono[i]
        }
        _tuple_add_into(res, deriv, -self.den)
        self.memo[parts] = res
        return res


def test_scaled_terms_match_the_tuple_chain():
    """scaled_terms, one nested pass per index, equals the memoised tuple
    chain for every index up to a degree per arity: the engine cap for
    n <= 2, and below it for n = 3, 4 (every index up to the cap would take
    minutes there), with seeded indices at the cap.  Each call returns a
    dict of its own, so mutating one leaves a later call unchanged."""
    rng = random.Random(3131)
    cap = coeffs.MAX_EXPANSION_DEGREE
    for n, full in ((1, cap), (2, cap), (3, 8), (4, 6)):
        for _ in range(2):
            upper = [[_frac(rng, 3, 3) for _ in range(n)] for _ in range(n)]
            b = DenseMatrix.from_rows(
                [[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
            )
            family, reference = SymbolicHermiteFamily(b), _TupleFamily(b)
            ks = [k for d in range(full + 1) for k in enumerate_fixed_degree(n, d)]
            if full < cap:
                ks += rng.sample(enumerate_fixed_degree(n, cap), 2)
            for k in ks:
                terms, den = family.scaled_terms(k)
                want, want_den = reference.scaled_terms(k.parts)
                assert den == want_den
                assert {_decode(code, n, _RADIX): c for code, c in terms.items()} == want
            for k in (ks[0], ks[-1]):
                first, _ = family.scaled_terms(k)
                kept = dict(first)
                first.clear()
                first[1] = 99
                assert family.scaled_terms(k)[0] == kept


def _tuple_over(arity, terms, den):
    return MPoly(arity, {mono: Fraction(c, den) for mono, c in terms.items()})


def _tuple_oracle(k, lam, sigma, upsilon, variant):
    sigma_inv, upsilon_inv = invert_matrix(sigma), invert_matrix(upsilon)
    m, degree = upsilon.rows, sum(k)
    p, p_den = _TupleFamily(sigma_inv).scaled_terms(k)
    lam_t, e = lam.transpose().cleared_rows()
    lhs = _tuple_compose(
        {a: c * e ** (degree - sum(a)) for a, c in p.items()},
        _tuple_forms(lam_t, m),
        m,
    )
    lhs_den = p_den * e**degree
    tmap = coeffs.transformed_map_from_inverses(lam, sigma_inv, upsilon)
    basis = _TupleFamily(upsilon_inv)
    weighted = []
    for term in coeffs.expand_from_map(k, tmap, variant):
        h, h_den = basis.scaled_terms(term.q.parts)
        c = term.coeff
        weighted.append((Fraction(c.numerator, c.denominator * h_den), h))
    rhs_den = math.lcm(*(w.denominator for w, _ in weighted))
    rhs = {}
    for w, h in weighted:
        _tuple_add_into(rhs, h, w.numerator * (rhs_den // w.denominator))
    den = math.lcm(lhs_den, rhs_den)
    diff = {mono: c * (den // lhs_den) for mono, c in lhs.items()}
    _tuple_add_into(diff, rhs, -(den // rhs_den))
    return (
        not diff,
        _tuple_over(m, lhs, lhs_den),
        _tuple_over(m, rhs, rhs_den),
        _tuple_over(m, diff, den),
    )


def _assert_matches_tuple_oracle(case, variant):
    res = oracle_compare(*case, variant)
    equal, lhs, rhs, diff = _tuple_oracle(*case, variant)
    assert res.equal is equal
    for got, want in ((res.lhs, lhs), (res.rhs, rhs), (res.diff, diff)):
        assert got.arity == want.arity
        assert got.sorted_terms() == want.sorted_terms()
    return res


def _tuple_case(rng, n, m, degree, zero_row):
    k = rng.choice(enumerate_fixed_degree(n, degree)).parts
    lam_rows = [[_frac(rng, 2, 3) for _ in range(n)] for _ in range(m)]
    if zero_row:
        lam_rows[rng.randrange(m)] = [0] * n
    sigma = _indefinite(rng, n) if rng.random() < 0.25 else _dominant_spd(rng, n)
    return k, DenseMatrix.from_rows(lam_rows), sigma, _dominant_spd(rng, m)


# Largest |k| the tuple reference is compared at; it is slow above this.
TUPLE_REFERENCE_DEGREE = 6


def test_oracle_codes_match_tuple_reference():
    rng = random.Random(5151)
    unequal = 0
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            for degree in range(TUPLE_REFERENCE_DEGREE + 1):
                for zero_row in (False, True):
                    case = _tuple_case(rng, n, m, degree, zero_row)
                    for variant in CoeffVariant:
                        res = _assert_matches_tuple_oracle(case, variant)
                        unequal += not res.equal
    assert unequal > 0


def test_oracle_codes_with_colliding_prefixes():
    # A dense Sigma^-1 puts both y0^3 and y1^3 in H_k for |k| = 3: the
    # first digit of (3, 0) and both digits of (0, 3) spell the same 3,
    # so a substitution that keys partial products by that number alone
    # goes wrong.
    sigma = rational_matrix([[2, 1], [1, 3]])
    lam = rational_matrix([[Fraction(1, 2), -1], [0, 0], [1, Fraction(2, 3)]])
    ups = rational_matrix([[2, 1, 0], [1, 2, 0], [0, 0, 1]])
    for k in [(3, 0), (2, 1), (1, 2), (3, 1), (2, 2)]:
        terms = SymbolicHermiteFamily(invert_matrix(sigma)).poly(k).terms
        assert (3, 0) in terms or (4, 0) in terms
        assert (0, 3) in terms or (0, 4) in terms
        for variant in CoeffVariant:
            _assert_matches_tuple_oracle((k, lam, sigma, ups), variant)
    p = MPoly(2, {(3, 0): 1, (0, 3): 2, (1, 2): Fraction(1, 3)})
    lin = rational_matrix([[1, 2, 0], [Fraction(-1, 2), 0, 3]])
    want = _tuple_compose(p.terms, _tuple_forms(lin.data, 3), 3)
    assert p.compose_linear(lin) == MPoly(3, want)


def test_mpoly_products_above_oracle_radix():
    x9 = MPoly(1, {(9,): 1})
    assert x9.mul(x9) == MPoly(1, {(18,): 1})
    rng = random.Random(77)
    for _ in range(40):
        arity = rng.randint(1, 3)
        a, b = (
            MPoly(arity, {
                tuple(rng.randint(0, 12) for _ in range(arity)): _frac(rng, 3, 4)
                for _ in range(rng.randint(0, 4))
            })
            for _ in range(2)
        )
        assert a.mul(b) == MPoly(arity, _tuple_mul(a.terms, b.terms))
        cols = rng.randint(1, 3)
        lin = DenseMatrix.from_rows(
            [[_frac(rng, 2, 3) for _ in range(cols)] for _ in range(arity)]
        )
        want = _tuple_compose(a.terms, _tuple_forms(lin.data, cols), cols)
        assert a.compose_linear(lin) == MPoly(cols, want)


def _per_q_sum(family, weights):
    """sum_q weights[q] * scaled_terms(q), one q at a time: the right
    side's sum as the oracle built it before the nested pass."""
    out = {}
    for code, w in weights.items():
        terms, _ = family.scaled_terms(_decode(code, family.arity, _RADIX))
        for mono, c in terms.items():
            out[mono] = out.get(mono, 0) + w * c
    return {mono: c for mono, c in out.items() if c}


def _code(parts):
    code = 0
    for e in parts:
        code = code * _RADIX + e
    return code


def test_nested_pass_matches_per_q_sum():
    rng = random.Random(2929)
    for trial in range(40):
        arity = rng.randint(1, 4)
        upper = [[_frac(rng, 3, 3) for _ in range(arity)] for _ in range(arity)]
        b = DenseMatrix.from_rows(
            [[upper[min(i, j)][max(i, j)] for j in range(arity)] for i in range(arity)]
        )
        family = SymbolicHermiteFamily(b)
        weights = {}
        for _ in range(rng.randint(1, 12)):
            k = rng.choice(enumerate_fixed_degree(arity, rng.randint(0, 6)))
            weights[_code(k.parts)] = rng.choice([-3, -1, 0, 0, 1, 2, 5])
        got = _nested(weights, family._rows, family._den)
        assert got == _per_q_sum(family, weights)
        assert all(got.values())
    # p_3 = x^3 - 3x and p_1 = x for b = 1: weights 1 and 3 cancel the x
    # term, weight 0 on q = 2 leaves a zero sum below a nonzero one.
    family = SymbolicHermiteFamily(DenseMatrix.from_rows([[1]]))
    weights = {3: 1, 2: 0, 1: 3}
    assert _nested(weights, family._rows, family._den) == {3: 1}
    assert _per_q_sum(family, weights) == {3: 1}
    # A lone q = 0 is its weight; no weights sum to the zero polynomial.
    family = SymbolicHermiteFamily(rational_matrix([[2, 1], [1, "1/3"]]))
    assert _nested({0: 7}, family._rows, family._den) == {0: 7}
    assert _nested({}, family._rows, family._den) == {}
    assert _nested({0: 0}, family._rows, family._den) == {}


def test_compose_linear_edge_shapes_match_tuple_reference():
    zero_rows = lambda r, c: DenseMatrix.from_rows([[0] * c for _ in range(r)])
    p2 = MPoly(2, {(2, 1): 3, (0, 0): 5, (1, 0): -1, (0, 3): Fraction(1, 2)})
    p3 = MPoly(3, {(1, 1, 1): 2, (0, 2, 0): Fraction(-1, 3), (0, 0, 0): 4})
    cases = [
        # zero forms keep only the constant term
        (p2, zero_rows(2, 3)),
        (MPoly(2, {(1, 1): 1}), zero_rows(2, 2)),
        # fewer and more new variables than old ones
        (p3, rational_matrix([[1], ["-1/2"], [3]])),
        (p2, rational_matrix([[1, 0, "2/3", -1], [0, 2, 0, "1/5"]])),
        # arity 1 on both sides, and one variable into three
        (MPoly(1, {(4,): 1, (1,): 2}), rational_matrix([["-2/3"]])),
        (MPoly(1, {(5,): -1, (0,): 1}), rational_matrix([[1, "1/2", -2]])),
        # constants and the zero polynomial
        (MPoly(3, {(0, 0, 0): Fraction(7, 2)}), rational_matrix([[1, 2], [3, 4], [5, 6]])),
        (MPoly(2), rational_matrix([[1, 2], [3, 4]])),
    ]
    for p, lin in cases:
        want = _tuple_compose(p.terms, _tuple_forms(lin.data, lin.cols), lin.cols)
        got = p.compose_linear(lin)
        assert got.arity == lin.cols
        assert got == MPoly(lin.cols, want)
    assert cases[0][0].compose_linear(cases[0][1]) == MPoly(3, {(0, 0, 0): 5})
    assert cases[1][0].compose_linear(cases[1][1]).is_zero()


def test_oracle_visits_only_the_indices_it_needs():
    # k = (20, 0, ..., 0) with a diagonal Sigma at n = 10: H_k is
    # univariate, so both sides need a chain of 21 codes, not the
    # C(30, 10) codes of degree <= 20 in ten variables.
    n = 10
    k = (20,) + (0,) * (n - 1)
    sigma = DenseMatrix.from_rows(
        [[Fraction(i + 2, 3) if i == j else 0 for j in range(n)] for i in range(n)]
    )
    lam = DenseMatrix.from_rows([[Fraction(1 + i % 3, 2) for i in range(n)]])
    ups = rational_matrix([["5/2"]])
    started = time.perf_counter()
    res = oracle_compare(k, lam, sigma, ups, CoeffVariant.SYMMETRIZED)
    elapsed = time.perf_counter() - started
    assert res.equal
    assert len(res.lhs.terms) == 11
    assert elapsed < 1.0


def test_mpoly_serialization_is_canonically_sorted():
    p = MPoly(2, {(0, 2): Fraction(1, 3), (2, 0): 2, (0, 0): -1})
    obj = p.to_json_obj()
    assert obj == [
        {"mono": [0, 0], "coeff": "-1"},
        {"mono": [2, 0], "coeff": "2"},
        {"mono": [0, 2], "coeff": "1/3"},
    ]
