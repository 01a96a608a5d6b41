import math
import operator
import random
from fractions import Fraction

import pytest

from hermult import coeffs
from hermult.coeffs import (
    CoeffVariant,
    ExpansionTerm,
    TransformedMap,
    coeff_from_map,
    coeff_general,
    coeff_univariate,
    coeff_vec_phys,
    coeff_vec_prob,
    coeff_vec_table,
    evaluate_expansion,
    expand_from_map,
    expand_general,
    transformed_map,
    transformed_map_from_inverses,
)
from hermult.errors import (
    DimensionMismatchError,
    DomainError,
    HermultError,
    NotSymmetricError,
    ParityError,
    SizeLimitError,
)
from hermult.hermite import PHYSICISTS, PROBABILISTS, HermiteFamily, hermite_multi
from hermult.multiindex import (
    MultiIndex,
    ascending_tuple,
    enumerate_fixed_degree,
    index_tuples,
    mi_factorial,
    q_support,
    raising_plan,
)
from hermult.polyoracle import rational_matrix
from hermult.tensorlin import (
    DenseMatrix,
    DenseVector,
    check_symmetric_rows,
    covariance,
    entrywise_rows,
    fraction_rows,
    matmul_rows,
    scale_rows,
    spd_factorize,
    transpose_rows,
)
from hermult.verify import inner_product_error, trial_rng
from matrices import gram_plus_identity, matrix_difference, matrix_sum

EYE1 = spd_factorize(DenseMatrix.identity(1))
EYE2 = spd_factorize(DenseMatrix.identity(2))


def spd(rows):
    return spd_factorize(DenseMatrix.from_rows(rows))


def terms_dict(terms):
    return {t.q.parts: t.coeff for t in terms}


def tuple_sum_coeff(k, q, tmap, variant):
    """The paper's form of T[k,q]: k!/(2^i q! i!) times the contraction
    tensor A^{(.)q} (x) vec(M)^{(x)i}, summed over the slot tuples of k
    (symmetrized) or read at the ascending tuple (paper-literal)."""
    k, q = MultiIndex.of(k), MultiIndex.of(q)
    i = (k.degree() - q.degree()) // 2
    split = q.degree()
    if variant is CoeffVariant.SYMMETRIZED:
        tuples = index_tuples(k)
    else:
        tuples = [ascending_tuple(k)]
    total = 0
    for e in tuples:
        prod = 1
        for slot, col in zip(e, ascending_tuple(q)):
            prod *= tmap.A.data[slot][col]
        for p in range(split, split + 2 * i, 2):
            prod *= tmap.M.data[e[p + 1]][e[p]]
        total += prod
    pref = Fraction(mi_factorial(k), 2**i * mi_factorial(q) * math.factorial(i))
    return pref * total


def test_transformed_map_identity_covariances():
    lam = rational_matrix([[1, 2], [0, 1]])
    tm = transformed_map(lam, EYE2, EYE2)
    assert tm.A.data == lam.transpose().data
    expected_m = matrix_difference(lam.transpose().matmul(lam), DenseMatrix.identity(2))
    assert tm.M.data == expected_m.data


def test_transformed_map_isotropic_scaling():
    lam = rational_matrix([[1, 2], [0, 1]])
    s2 = Fraction(4)
    sig = spd_factorize(DenseMatrix.identity(2).scale(s2))
    ups = spd_factorize(DenseMatrix.identity(2).scale(s2))
    tm = transformed_map(lam, sig, ups)
    assert tm.A.data == lam.transpose().data
    base = matrix_difference(lam.transpose().matmul(lam), DenseMatrix.identity(2))
    assert tm.M.data == base.scale(Fraction(1, 4)).data


def test_transformed_map_measure_preserving_is_zero():
    sigma = rational_matrix([[2, 1], [1, 3]])
    lam = rational_matrix([[1, 0], [0, 1]])
    tm = transformed_map(lam, spd_factorize(sigma), spd_factorize(sigma))
    assert tm.A.data == DenseMatrix.identity(2).data
    assert all(v == 0 for row in tm.M.data for v in row)


def test_transformed_map_dimension_error():
    lam = rational_matrix([[1, 2, 3]])
    with pytest.raises(DimensionMismatchError):
        transformed_map(lam, EYE2, EYE1)


def test_map_refuses_non_square_covariance_inverses_in_both_fields():
    # The row kernels check no shapes (a product zips its operands), so a
    # Sigma^-1 that is not n x n or an Upsilon that is not m x m must be
    # refused, naming the shapes, before any product runs.
    bad = (
        ([[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1]], "Sigma^-1 2x3 and Upsilon 2x2"),
        ([[1], [0]], [[1, 0], [0, 1]], "Sigma^-1 2x1 and Upsilon 2x2"),
        ([[1, 0], [0, 1]], [[1], [0]], "Sigma^-1 2x2 and Upsilon 2x1"),
        ([[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0]], "Sigma^-1 2x2 and Upsilon 2x3"),
    )
    for field in (int, Fraction, float):
        lam = DenseMatrix.from_rows([[field(1), field(2)], [field(0), field(1)]])
        for sigma_inv, upsilon, shapes in bad:
            sigma_inv, upsilon = (
                DenseMatrix.from_rows([[field(v) for v in row] for row in rows])
                for rows in (sigma_inv, upsilon)
            )
            with pytest.raises(DimensionMismatchError) as info:
                transformed_map_from_inverses(lam, sigma_inv, upsilon)
            assert str(info.value) == f"map shape 2x2 inconsistent with {shapes}"


def test_exact_map_refuses_an_asymmetric_sigma_inverse():
    # This Sigma^-1 is not symmetric, yet M = A Lambda Sigma^-1 - Sigma^-1
    # is, so only a check of Sigma^-1 itself refuses it.
    sigma_inv = [[1, 1], [-2, -1]]
    lam, upsilon = [[-1, 1], [0, 1]], [[0, -1], [-1, 0]]
    for field in (int, Fraction):
        rows = [[[field(v) for v in row] for row in m] for m in (lam, sigma_inv, upsilon)]
        with pytest.raises(NotSymmetricError):
            transformed_map_from_inverses(*map(DenseMatrix.from_rows, rows))
    with pytest.raises(NotSymmetricError):
        transformed_map_from_inverses(
            DenseMatrix.from_rows(lam),
            DenseMatrix.from_rows(sigma_inv).scale(0.5),
            DenseMatrix.from_rows(upsilon),
        )


def test_coeff_general_permutation_counterexample():
    lam = rational_matrix([[0, 1], [1, 0]])
    sym = coeff_general((1, 1), (1, 1), lam, EYE2, EYE2, CoeffVariant.SYMMETRIZED)
    lit = coeff_general((1, 1), (1, 1), lam, EYE2, EYE2, CoeffVariant.PAPER_LITERAL)
    assert sym == 1
    assert lit == 0
    for q in [(2, 0), (0, 2), (0, 0)]:
        assert coeff_general((1, 1), q, lam, EYE2, EYE2) == 0


def test_coeff_general_wide_map_values():
    lam = rational_matrix([[1, 2]])  # one point coordinate, two left coordinates
    sig = EYE2
    ups = EYE1
    assert coeff_general((1, 1), (2,), lam, sig, ups) == 2
    assert coeff_general((1, 1), (0,), lam, sig, ups) == 2


def test_expand_identity_map_single_term():
    sigma = rational_matrix([[2, 1], [1, 3]])
    lam = rational_matrix([[1, 0], [0, 1]])
    sig = spd_factorize(sigma)
    for k in [(0, 0), (1, 0), (2, 1), (2, 2)]:
        terms = expand_general(k, lam, sig, sig)
        assert terms_dict(terms) == {tuple(k): 1}


def test_expand_permutation_map_single_term():
    lam = rational_matrix([[0, 1], [1, 0]])
    terms = expand_general((1, 1), lam, EYE2, EYE2)
    assert terms_dict(terms) == {(1, 1): 1}


def test_expand_sum_split_example():
    lam = rational_matrix([[1], [1]])
    terms = expand_general((2,), lam, EYE1, EYE2)
    assert [(t.q.parts, t.coeff) for t in terms] == [
        ((2, 0), 1),
        ((1, 1), 2),
        ((0, 2), 1),
        ((0, 0), 1),
    ]


def test_expand_measure_preserving_keeps_top_degree_only():
    # orthogonal (non-identity) map: quadratic part vanishes, so only
    # degree-|k| terms survive, though generally more than one
    c, s = Fraction(3, 5), Fraction(4, 5)
    lam = DenseMatrix.from_rows([[c, -s], [s, c]])
    terms = expand_general((2, 1), lam, EYE2, EYE2)
    assert terms
    assert all(t.q.degree() == 3 for t in terms)


def test_expand_parity_completeness():
    for trial in range(10):
        rng = trial_rng(41, trial)
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        ks = enumerate_fixed_degree(n, int(rng.integers(0, 6)))
        k = ks[int(rng.integers(0, len(ks)))]
        lam = DenseMatrix.from_rows(rng.uniform(-2, 2, size=(m, n)))
        q_mat = DenseMatrix.from_rows(rng.uniform(-2, 2, size=(n, n)))
        u_mat = DenseMatrix.from_rows(rng.uniform(-2, 2, size=(m, m)))
        sig = spd_factorize(gram_plus_identity(q_mat))
        ups = spd_factorize(gram_plus_identity(u_mat))
        for t in expand_general(k, lam, sig, ups):
            assert t.q.degree() <= k.degree()
            assert (k.degree() - t.q.degree()) % 2 == 0


def test_coeff_parity_and_size_errors():
    lam = rational_matrix([[1, 0], [0, 1]])
    with pytest.raises(ParityError):
        coeff_general((1, 1), (1, 0), lam, EYE2, EYE2)
    with pytest.raises(ParityError):
        coeff_general((1, 0), (1, 1), lam, EYE2, EYE2)
    with pytest.raises(DimensionMismatchError):
        coeff_general((1, 1), (1, 1, 0), lam, EYE2, EYE2)
    big = MultiIndex((21, 0))
    with pytest.raises(SizeLimitError):
        coeff_general(big, (21, 0), lam, EYE2, EYE2)


def test_readers_refuse_a_map_whose_m_is_not_n_by_n():
    a = DenseMatrix.from_rows([[1, 2], [3, 4]])
    for rows in ([[1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 0]]):
        for mm in (DenseMatrix.from_rows(rows), DenseMatrix.from_rows(rows).scale(0.5)):
            tmap = TransformedMap(A=a, M=mm)
            for variant in CoeffVariant:
                with pytest.raises(DimensionMismatchError):
                    expand_from_map((2, 1), tmap, variant)
                with pytest.raises(DimensionMismatchError):
                    coeff_from_map((2, 1), (1, 0), tmap, variant)


def test_readers_take_a_variant_by_its_value_string():
    # (1, 1) under the swap map: the ascending slot tuple alone drops the
    # one term of the symmetrized expansion.
    tmap = transformed_map(rational_matrix([[0, 1], [1, 0]]), EYE2, EYE2)
    for variant in CoeffVariant:
        want = expand_from_map((1, 1), tmap, variant)
        assert expand_from_map((1, 1), tmap, variant.value) == want
        assert coeff_from_map((1, 1), (1, 1), tmap, variant.value) == (
            coeff_from_map((1, 1), (1, 1), tmap, variant)
        )
    assert coeff_from_map((1, 1), (1, 1), tmap, "paper-literal") == 0
    assert coeff_from_map((1, 1), (1, 1), tmap, "symmetrized") == 1
    for bad in ("bogus", "PAPER_LITERAL", None):
        with pytest.raises(ValueError):
            expand_from_map((1, 1), tmap, bad)
        with pytest.raises(ValueError):
            coeff_from_map((1, 1), (1, 1), tmap, bad)


def test_coeff_isotropic_orthonormal_columns_kill_corrections():
    # map columns orthonormal means the quadratic part vanishes
    c, s = Fraction(3, 5), Fraction(4, 5)
    lam = DenseMatrix.from_rows([[c], [s]])
    assert coeff_general((3,), (1, 0), lam, EYE1, EYE2) == 0
    assert coeff_general((2,), (0, 0), lam, EYE1, EYE2) == 0


def test_coeff_isotropic_univariate_value():
    lam = rational_matrix([[2]])
    # one-variable cubic: expansion of the scaled argument
    assert coeff_general((3,), (1,), lam, EYE1, EYE1) == 18


def test_coeff_vec_prob_values():
    lam = DenseVector.from_entries([Fraction(3, 5), Fraction(4, 5)])
    assert coeff_vec_prob(2, (1, 1), lam) == Fraction(24, 25)
    assert coeff_vec_prob(4, (1, 1), lam) == 0  # unit norm kills i >= 1
    ones = DenseVector.from_entries([1, 1])
    assert coeff_vec_prob(2, (0, 0), ones) == 1


def test_coeff_vec_phys_values():
    ones = DenseVector.from_entries([1, 1])
    assert coeff_vec_phys(2, (0, 0), ones) == 2
    assert coeff_vec_phys(2, (1, 1), ones) == 2
    lam = DenseVector.from_entries([Fraction(1, 2), Fraction(1, 3)])
    q = MultiIndex((1, 1))
    assert coeff_vec_phys(2, q, lam) == Fraction(2) * Fraction(1, 2) * Fraction(1, 3)


def test_coeff_vec_parity_error():
    lam = DenseVector.from_entries([1, 1])
    with pytest.raises(ParityError):
        coeff_vec_prob(2, (1, 0), lam)
    with pytest.raises(ParityError):
        coeff_vec_phys(1, (1, 1), lam)


def test_coeff_univariate_values():
    assert coeff_univariate(3, 0, 2, PROBABILISTS) == 8
    assert coeff_univariate(3, 1, 2, PROBABILISTS) == 18
    assert coeff_univariate(5, 0, 1, PROBABILISTS) == 1
    assert coeff_univariate(5, 1, 1, PROBABILISTS) == 0
    lam = Fraction(7, 3)
    assert coeff_univariate(2, 1, lam, PHYSICISTS) == 2 * (lam * lam - 1)
    with pytest.raises(DomainError):
        coeff_univariate(3, 2, 1.0)
    with pytest.raises(DomainError):
        coeff_univariate(3, 0, 1.0, family=PHYSICISTS.scaled(2.0))


def test_closed_forms_match_uncached_formula():
    # The prefactor k!/(w^i q! i!) is cached with its float twin; every
    # value, float bits and exact types included, must equal the formula
    # evaluated afresh, for float, int and Fraction arguments.
    rng = random.Random(41)
    draws = (
        lambda: rng.uniform(-2.0, 2.0),
        lambda: rng.randint(-3, 3),
        lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
    )
    for draw in draws:
        for _ in range(40):
            k = rng.randint(0, 12)
            m = rng.randint(1, 3)
            lam = [draw() for _ in range(m)]
            for w, fn in ((2, coeff_vec_prob), (1, coeff_vec_phys)):
                for d in q_support(k):
                    for q in enumerate_fixed_degree(m, d):
                        i = (k - d) // 2
                        pref = Fraction(math.factorial(k), w**i * mi_factorial(q) * math.factorial(i))
                        lam_q = 1
                        for lj, qj in zip(lam, q.parts):
                            if qj:
                                lam_q = lam_q * lj**qj
                        if isinstance(lam_q, float):
                            pref = float(pref)
                        norm_sq = sum(lj * lj for lj in lam)
                        want = pref * lam_q * (norm_sq - 1) ** i
                        got = fn(k, q, DenseVector.from_entries(lam))
                        assert repr(got) == repr(want), (k, q, lam)
            for family, w in ((PROBABILISTS, 2), (PHYSICISTS, 1)):
                for i in range(k // 2 + 1):
                    pref = Fraction(
                        math.factorial(k), w**i * math.factorial(i) * math.factorial(k - 2 * i)
                    )
                    spread = (lam[0] * lam[0] - 1) ** i
                    if isinstance(spread, float):
                        pref = float(pref)
                    want = pref * spread * lam[0] ** (k - 2 * i)
                    got = coeff_univariate(k, i, lam[0], family)
                    assert repr(got) == repr(want), (k, i, lam[0])


def test_closed_forms_stay_exact_beyond_float_range():
    # At k = 400 the prefactor k!/(w^i q! i!) is beyond float range for
    # most q, yet an exact operand has an exact coefficient; a float
    # operand still raises the OverflowError of Fraction * float.  The
    # float call comes first, so the exact table reads the plan it left.
    k, lam = 400, Fraction(1, 2)

    def formula(q, w):
        i = (k - sum(q)) // 2
        pref = Fraction(math.factorial(k), w**i * mi_factorial(q) * math.factorial(i))
        return pref * lam ** sum(q) * (lam * lam - 1) ** i

    with pytest.raises(OverflowError):
        coeff_univariate(k, 200, 0.5)
    with pytest.raises(OverflowError):
        coeff_vec_table(k, DenseVector.from_entries([0.5]), PROBABILISTS)
    got = coeff_univariate(k, 200, lam)
    assert type(got) is Fraction and got == formula((0,), 2)
    got = coeff_vec_prob(k, (0,), DenseVector.from_entries([lam]))
    assert type(got) is Fraction and got == formula((0,), 2)
    for family, w in ((PROBABILISTS, 2), (PHYSICISTS, 1)):
        table = coeff_vec_table(k, DenseVector.from_entries([lam]), family)
        want = [((d,), formula((d,), w)) for d in q_support(k)]
        assert [(t.q.parts, t.coeff) for t in table] == want
        assert all(type(t.coeff) is Fraction for t in table)


def vec_coeff_reference(k, q, lam, pair_weight):
    """One inner-product coefficient, each power taken afresh: the
    per-entry formula that the one-pass table replaces."""
    i = (k - q.degree()) // 2
    pref = Fraction(math.factorial(k), pair_weight**i * mi_factorial(q) * math.factorial(i))
    lam_q = 1
    for lj, qj in zip(lam, q.parts):
        if qj:
            lam_q = lam_q * lj**qj
    norm_sq = sum(lj * lj for lj in lam)
    if isinstance(lam_q, float):
        pref = float(pref)
    return pref * lam_q * (norm_sq - 1) ** i


def test_vec_table_matches_per_entry_formula():
    # The table takes each power once for all q; every entry keeps the bits
    # and type of the per-entry formula, and the table keeps exactly its
    # nonzero entries, in order.
    rng = random.Random(1919)
    draws = (
        lambda: rng.choice([rng.uniform(-2.0, 2.0), 0.0, -0.0]),
        lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
        lambda: rng.choice([rng.randint(-2, 2), Fraction(rng.randint(-4, 4), 3)]),
    )
    for draw in draws:
        for _ in range(30):
            k, m = rng.randint(0, 8), rng.randint(1, 3)
            lam = [draw() for _ in range(m)]
            lam_v = DenseVector.from_entries(lam)
            for family, w, fn in (
                (PROBABILISTS, 2, coeff_vec_prob),
                (PHYSICISTS, 1, coeff_vec_phys),
            ):
                want = []
                for d in q_support(k):
                    for q in enumerate_fixed_degree(m, d):
                        c = vec_coeff_reference(k, q, lam, w)
                        assert repr(fn(k, q, lam_v)) == repr(c), (k, q, lam)
                        if c != 0:
                            want.append((q, c))
                got = [(t.q, t.coeff) for t in coeff_vec_table(k, lam_v, family)]
                assert repr(got) == repr(want), (k, lam)
    with pytest.raises(DomainError):
        coeff_vec_table(-1, DenseVector.from_entries([1.0]), PROBABILISTS)


def vec_coeff_left_fold(k, parts, lam, pair_weight):
    """One inner-product coefficient from the per-q formula with its folds
    spelt out: |lam|^2 left to right from the int 0, lam_q over j ascending
    from the int 1, the float prefactor when lam_q is a float."""
    i = (k - sum(parts)) // 2
    pref = Fraction(
        math.factorial(k), pair_weight**i * mi_factorial(parts) * math.factorial(i)
    )
    norm_sq = 0
    for lj in lam:
        norm_sq = norm_sq + lj * lj
    lam_q = 1
    for lj, qj in zip(lam, parts):
        if qj:
            lam_q = lam_q * lj**qj
    if isinstance(lam_q, float):
        return float(pref) * lam_q * (norm_sq - 1) ** i
    return pref * lam_q * (norm_sq - 1) ** i


def _unit(v):
    """v scaled to unit length in floats: |v|^2 - 1 is 0.0 or a few ulps."""
    norm = math.sqrt(sum(x * x for x in v))
    return [x / norm for x in v]


def test_vec_readers_match_left_fold_bit_for_bit():
    # Both readers of the closed forms, the table and the single-q
    # functions, against the per-q formula for m <= 5 and k <= 12: a float
    # keeps its repr (so the sign of a zero and every last bit), an exact
    # value its value and type.  Float draws include entries 0.0 and -0.0
    # and vectors whose |lam|^2 - 1 cancels to 0.0 or a few ulps.
    rng = random.Random(2828)

    def floats(m):
        pick = rng.randint(0, 3)
        if pick == 0:
            return [rng.choice([rng.uniform(-2.0, 2.0), 0.0, -0.0]) for _ in range(m)]
        if pick == 1:
            return _unit([rng.uniform(-2.0, 2.0) for _ in range(m)])
        if pick == 2:  # one +-1 entry, the rest signed zeros: |lam|^2 - 1 == 0.0
            lam = [rng.choice([0.0, -0.0]) for _ in range(m)]
            lam[rng.randrange(m)] = rng.choice([1.0, -1.0])
            return lam
        return [rng.choice([0.6, -0.6, 0.8, -0.8]) for _ in range(m)]

    def fractions(m):
        return [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)]

    def ints(m):
        return [rng.randint(-2, 2) for _ in range(m)]

    def mixed(m):
        draws = (
            lambda: rng.randint(-2, 2),
            lambda: Fraction(rng.randint(-4, 4), 3),
            lambda: rng.uniform(-2.0, 2.0),
        )
        return [rng.choice(draws)() for _ in range(m)]

    kinds = (floats, floats, fractions, ints, mixed)
    for m in range(1, 6):
        for k in range(13):
            qs = [q for d in q_support(k) for q in enumerate_fixed_degree(m, d)]
            # Every kind of vector and every q at small shapes; one kind in
            # turn and a sample of the q at large ones.
            for draw in kinds if len(qs) <= 300 else (kinds[(m + k) % 5],):
                lam = draw(m)
                lam_v = DenseVector.from_entries(lam)
                singles = qs if len(qs) <= 60 else rng.sample(qs, 60)
                for family, w, fn in (
                    (PROBABILISTS, 2, coeff_vec_prob),
                    (PHYSICISTS, 1, coeff_vec_phys),
                ):
                    want = [(q, vec_coeff_left_fold(k, q.parts, lam, w)) for q in qs]
                    got = [(t.q, t.coeff) for t in coeff_vec_table(k, lam_v, family)]
                    assert repr(got) == repr([(q, c) for q, c in want if c != 0]), (k, lam)
                    assert [type(c) for _, c in got] == [type(c) for _, c in want if c != 0]
                    for q in singles:
                        c = fn(k, q, lam_v)
                        ref = vec_coeff_left_fold(k, q.parts, lam, w)
                        assert type(c) is type(ref) and repr(c) == repr(ref), (k, q, lam)


def test_vec_plan_depends_on_shape_alone():
    # One cached plan per (k, m, pair weight) serves every vector of that
    # dimension, float or exact; the cache is bounded.
    assert coeffs._vec_plan.cache_info().maxsize is not None
    for k, m in ((5, 2), (8, 3)):
        floats = DenseVector.from_entries([0.3 * (j + 1) for j in range(m)])
        exact = DenseVector.from_entries([Fraction(j - 1, 3) for j in range(m)])
        coeff_vec_table(k, floats, PHYSICISTS)
        plan = coeffs._vec_plan(k, m, 1)
        before = coeffs._vec_plan.cache_info()
        coeff_vec_table(k, exact, PHYSICISTS)
        after = coeffs._vec_plan.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        assert coeffs._vec_plan(k, m, 1) is plan
        assert coeffs._vec_plan(k, m, 2) is not plan


def test_closed_forms_refuse_other_families():
    # The closed forms k!/(w^i q! i!) have a pair weight w only for the
    # probabilists' (2) and physicists' (1) families; a scaled family is
    # refused rather than checked against either formula.
    scaled = HermiteFamily.scaled(2.0)
    with pytest.raises(DomainError):
        inner_product_error(scaled, 4, [1.5, 0.5], [0.3, -0.4])
    with pytest.raises(DomainError):
        coeff_vec_table(4, DenseVector.from_entries([1.5, 0.5]), scaled)
    with pytest.raises(DomainError):
        coeff_univariate(4, 1, 1.5, scaled)


def literal_coeff_reference(k, q, pairs, rows, den):
    """The literal product with a Fraction prefactor: the value and type
    that the Fraction arithmetic of the product gives."""
    a_rows, m_rows = rows
    e = ascending_tuple(k)
    prod = 1
    for slot, col in zip(e, ascending_tuple(q)):
        prod = prod * a_rows[slot][col]
    split = q.degree()
    for p in range(split, split + 2 * pairs, 2):
        prod = prod * m_rows[e[p + 1]][e[p]]
    pref = Fraction(
        mi_factorial(k), (1 << pairs) * mi_factorial(q) * math.factorial(pairs) * den
    )
    return pref * prod


def test_literal_coeff_matches_fraction_formula():
    # One Fraction per exact coefficient, the float prefactor for a float
    # product: values and types stay those of the Fraction formula, k = 0
    # included (a Fraction(1) even on a float map).
    rng = random.Random(1920)
    draws = {
        "float": lambda: rng.uniform(-2.0, 2.0),
        "int": lambda: rng.randint(-3, 3),
        "fraction": lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
        "mixed": lambda: rng.choice([rng.randint(-3, 3), Fraction(rng.randint(-4, 4), 3)]),
        "float-mixed": lambda: rng.choice([rng.uniform(-2.0, 2.0), Fraction(1, 3), 2]),
    }
    types = set()
    for kind, draw in draws.items():
        for _ in range(20):
            n, m = rng.randint(1, 3), rng.randint(1, 3)
            a_rows = tuple(tuple(draw() for _ in range(m)) for _ in range(n))
            upper = [[draw() for _ in range(n)] for _ in range(n)]
            m_rows = tuple(tuple(upper[min(i, j)][max(i, j)] for j in range(n)) for i in range(n))
            den = rng.choice([1, 6]) if kind == "int" else 1
            for d in range(5):
                for k in enumerate_fixed_degree(n, d):
                    for dq in q_support(d):
                        for q in enumerate_fixed_degree(m, dq):
                            pairs = (d - dq) // 2
                            got = coeffs._literal_coeff(k, q, pairs, (a_rows, m_rows), den)
                            want = literal_coeff_reference(k, q, pairs, (a_rows, m_rows), den)
                            assert repr(got) == repr(want), (kind, k, q)
                            types.add(type(got))
    assert types == {float, Fraction}
    zero = MultiIndex((0,))
    assert repr(coeffs._literal_coeff(zero, zero, 0, (((0.5,),), ((0.25,),)), 1)) == "Fraction(1, 1)"


def test_built_map_gives_the_rebuilt_maps_table():
    # A map built on int rows and the same map rebuilt from its Fraction
    # matrices give the same table, value and type, in both variants.
    for trial in range(40):
        rng = trial_rng(1921, trial)
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        lam = random_rational(rng, m, n)
        if m >= 2 and trial % 2:
            rows = [list(row) for row in lam.data]
            rows[int(rng.integers(0, m))] = [Fraction(0)] * n
            lam = DenseMatrix.from_rows(rows)
        sigma_inv = random_rational_spd(rng, n).inverse()
        upsilon = random_rational_spd(rng, m).matrix
        tmap = transformed_map_from_inverses(lam, sigma_inv, upsilon)
        rebuilt = TransformedMap(A=DenseMatrix.from_rows(tmap.A.data), M=DenseMatrix.from_rows(tmap.M.data))
        assert rebuilt == tmap and repr(rebuilt) == repr(tmap)
        k = [int(rng.integers(0, 4)) for _ in range(n)]
        if trial % 3 == 0:
            k = [0] * n
            k[int(rng.integers(0, n))] = int(rng.integers(0, 7))
        for variant in CoeffVariant:
            want = expand_from_map(k, rebuilt, variant)
            assert repr(expand_from_map(k, tmap, variant)) == repr(want)
            for t in want[:3]:
                assert repr(coeff_from_map(k, t.q, tmap, variant)) == repr(t.coeff)


def test_coeff_univariate_zero_argument_collapses_to_constant_term():
    from hermult.hermite import hermite_uni

    for k in (2, 4, 6, 8):
        half = k // 2
        expected = Fraction(
            (-1) ** half * math.factorial(k), 2**half * math.factorial(half)
        )
        assert coeff_univariate(k, half, Fraction(0), PROBABILISTS) == expected
        assert expected == hermite_uni(PROBABILISTS, k, Fraction(0))
        for i in range(half):
            assert coeff_univariate(k, i, Fraction(0), PROBABILISTS) == 0


def test_univariate_chain_matches_vector_and_general():
    for k in range(0, 13):
        for lam in (Fraction(-2), Fraction(-1, 2), Fraction(0), Fraction(1), Fraction(2)):
            lam_vec = DenseVector.from_entries([lam])
            lam_mat = DenseMatrix.from_rows([[lam]])
            half = spd_factorize(DenseMatrix.from_rows([[Fraction(1, 2)]]))
            for i in range(k // 2 + 1):
                q = MultiIndex((k - 2 * i,))
                uni_p = coeff_univariate(k, i, lam, PROBABILISTS)
                uni_h = coeff_univariate(k, i, lam, PHYSICISTS)
                assert uni_p == coeff_vec_prob(k, q, lam_vec)
                assert uni_h == coeff_vec_phys(k, q, lam_vec)
                assert uni_p == coeff_general((k,), q, lam_mat, EYE1, EYE1)
                assert uni_h == coeff_general((k,), q, lam_mat, half, half)


def test_variant_agreement_for_single_left_coordinate():
    lam = rational_matrix([[Fraction(1, 2)], [Fraction(2, 3)], [Fraction(-1)]])
    ups = spd_factorize(DenseMatrix.identity(3))
    for k in [(0,), (1,), (2,), (3,), (4,)]:
        for d in q_support(k[0]):
            for q in enumerate_fixed_degree(3, d):
                a = coeff_general(k, q, lam, EYE1, ups, CoeffVariant.SYMMETRIZED)
                b = coeff_general(k, q, lam, EYE1, ups, CoeffVariant.PAPER_LITERAL)
                assert a == b


def random_rational(rng, rows, cols):
    def entry():
        return Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))

    return DenseMatrix.from_rows([[entry() for _ in range(cols)] for _ in range(rows)])


def random_rational_spd(rng, dim):
    q = random_rational(rng, dim, dim)
    return spd_factorize(gram_plus_identity(q))


def test_recurrence_matches_tuple_sum_reference():
    several_parts = 0
    for trial in range(36):
        rng = trial_rng(2024, trial)
        n, m = 1 + trial % 3, 1 + (trial // 3) % 3
        parts = [1, 1] + [0] * (n - 2) if n >= 2 else [0]
        for _ in range(int(rng.integers(0, 7 - sum(parts)))):
            parts[int(rng.integers(0, n))] += 1
        k = MultiIndex(tuple(parts))
        several_parts += sum(1 for c in parts if c) >= 2
        lam = random_rational(rng, m, n)
        sig, ups = random_rational_spd(rng, n), random_rational_spd(rng, m)
        s2 = Fraction(int(rng.integers(1, 5)), int(rng.integers(1, 4)))
        iso_sig = spd_factorize(DenseMatrix.identity(n).scale(s2))
        iso_ups = spd_factorize(DenseMatrix.identity(m).scale(s2))
        tmap = transformed_map(lam, sig, ups)
        iso_map = transformed_map(lam, iso_sig, iso_ups)
        for variant in CoeffVariant:
            expected = {}
            for d in q_support(k.degree()):
                for q in enumerate_fixed_degree(m, d):
                    ref = tuple_sum_coeff(k, q, tmap, variant)
                    assert coeff_general(k, q, lam, sig, ups, variant) == ref
                    iso_ref = tuple_sum_coeff(k, q, iso_map, variant)
                    iso = coeff_general(k, q, lam, iso_sig, iso_ups, variant)
                    assert iso == iso_ref
                    if ref:
                        expected[q.parts] = ref
            assert terms_dict(expand_general(k, lam, sig, ups, variant)) == expected
    assert several_parts >= 24


def raise_coeff_reference(k, q, pairs, a_rows, m_rows, memo):
    """The memoized top-down recursion that the bottom-up table replaced,
    kept as a reference for the table's exact expressions."""
    val = memo.get((k, q))
    if val is not None:
        return val
    i = len(k) - 1
    while k[i] == 0:
        i -= 1
    lowered = k[:i] + (k[i] - 1,) + k[i + 1 :]
    acc = 0
    for j, a in enumerate(a_rows[i]):
        if a and q[j]:
            fewer = q[:j] + (q[j] - 1,) + q[j + 1 :]
            acc = acc + a * raise_coeff_reference(
                lowered, fewer, pairs, a_rows, m_rows, memo
            )
    if pairs:
        for j, mv in enumerate(m_rows[i]):
            c = lowered[j]
            if mv and c:
                twice = lowered[:j] + (c - 1,) + lowered[j + 1 :]
                acc = acc + c * mv * raise_coeff_reference(
                    twice, q, pairs - 1, a_rows, m_rows, memo
                )
    memo[(k, q)] = acc
    return acc


def numpy_trial_rng(seed, trial):
    """numpy's Generator on trial_rng's key: the same draws, and `choice`."""
    import numpy as np

    return np.random.Generator(np.random.Philox(key=[seed, trial]))


def sparse_map(rng, n, m, exact):
    """A TransformedMap with about one in six A and M entries set to exact
    zero (-0.0 too in float mode), M symmetric.  About a third of the maps
    with m >= 2 come from a Lambda with a zero row under diagonal
    covariances, so a whole column of A is zero."""
    def entry():
        if exact:
            value = Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
        else:
            value = float(rng.uniform(-2, 2))
        return 0 * value if rng.uniform() < 0.15 else value

    def diagonal(dim):
        return spd(
            [[abs(entry()) + 1 if i == j else 0 for j in range(dim)] for i in range(dim)]
        )

    if m >= 2 and int(rng.integers(0, 3)) == 0:
        lam = [[entry() for _ in range(n)] for _ in range(m)]
        zero = int(rng.integers(0, m))
        lam[zero] = [0 * v for v in lam[zero]]
        tmap = transformed_map(DenseMatrix.from_rows(lam), diagonal(n), diagonal(m))
        assert not any(row[zero] for row in tmap.A.data)
        return tmap
    a = DenseMatrix.from_rows([[entry() for _ in range(m)] for _ in range(n)])
    upper = [[entry() for _ in range(n)] for _ in range(n)]
    mm = DenseMatrix.from_rows(
        [[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    )
    return TransformedMap(A=a, M=mm)


def assert_coeff_contract(got, want, exact):
    """A float map's coefficient has the reference's repr; an exact map's
    has its value, and is a Fraction unless it is zero."""
    if exact:
        assert got == want and (type(got) is Fraction or got == 0), (got, want)
    else:
        assert repr(got) == repr(want)


def test_coeff_table_matches_recursion_reference():
    checked_from_map = 0
    for trial in range(48):
        rng = numpy_trial_rng(515, trial)
        exact = trial % 2 == 1
        n, m = 2 + trial % 3, 1 + (trial // 3) % 4
        cap = {2: 10, 3: 8, 4: 6}[n] if exact else 10
        parts = [1, 1] + [0] * (n - 2)
        for _ in range(int(rng.integers(0, cap - 1))):
            parts[int(rng.integers(0, n))] += 1
        k = MultiIndex(tuple(parts))
        tmap = sparse_map(rng, n, m, exact)
        memo = {((0,) * n, (0,) * m): 1}
        reference = [
            (q, raise_coeff_reference(
                k.parts, q.parts, (k.degree() - d) // 2, tmap.A.data, tmap.M.data, memo
            ))
            for d in q_support(k.degree())
            for q in enumerate_fixed_degree(m, d)
        ]
        terms = expand_from_map(k, tmap)
        assert [t.q for t in terms] == [q for q, c in reference if c != 0]
        for t, c in zip(terms, (c for _, c in reference if c != 0)):
            assert_coeff_contract(t.coeff, c, exact)
        kept = {t.q for t in terms}
        assert [q for q, _ in reference if q not in kept] == [
            q for q, c in reference if c == 0
        ]
        # One table per call: every q at |k| <= 6, a seeded sample above.
        picks = range(len(reference))
        if k.degree() > 6 and len(reference) > 8:
            picks = rng.choice(len(reference), size=8, replace=False).tolist()
        for at in picks:
            q, c = reference[at]
            assert_coeff_contract(coeff_from_map(k, q, tmap), c, exact)
            checked_from_map += 1
    assert checked_from_map >= 300


def test_sweep_plan_follows_the_zero_pattern_of_m():
    # The plan for k skips zero entries of M, so one k on a sparse M and on
    # a dense M needs two plans; both orders guard against a plan reused
    # across the two.  Under the sparse M no pull reaches T[(2,2), 0], which
    # stays the int 0; the dense M pulls into it.
    a = DenseMatrix.from_rows([[0.6, -1.1], [0.3, 0.9]])
    sparse = TransformedMap(A=a, M=DenseMatrix.from_rows([[0.5, 0.0], [0.0, 0.0]]))
    dense = TransformedMap(A=a, M=DenseMatrix.from_rows([[0.5, -0.25], [-0.25, 0.75]]))
    for order in ((sparse, dense), (dense, sparse)):
        for tmap in order:
            for k in ((2, 2), (3, 2)):
                memo = {((0, 0), (0, 0)): 1}
                for d in q_support(sum(k)):
                    for q in enumerate_fixed_degree(2, d):
                        expected = raise_coeff_reference(
                            k, q.parts, (sum(k) - d) // 2, a.data, tmap.M.data, memo
                        )
                        assert repr(coeff_from_map(k, q, tmap)) == repr(expected)
    assert repr(coeff_from_map((2, 2), (0, 0), sparse)) == "0"

    # The plan is cached under (k, M's zero pattern).  An exact map and a
    # float map of one pattern share it, in either order; an M that differs
    # from the dense one in one symmetric off-diagonal pair alone needs its
    # own, and there no pull reaches T[e_i + e_l, 0], which stays the int 0;
    # so does an M that differs in one diagonal entry alone.  Every read
    # keeps the reference's value and type with the cache warm.
    def check_reads(tmap, ks, exact):
        n, m = tmap.A.rows, tmap.A.cols
        for k in ks:
            memo = {((0,) * n, (0,) * m): 1}
            reference = [
                (q, raise_coeff_reference(
                    k, q.parts, (sum(k) - d) // 2, tmap.A.data, tmap.M.data, memo
                ))
                for d in q_support(sum(k))
                for q in enumerate_fixed_degree(m, d)
            ]
            for q, c in reference:
                assert_coeff_contract(coeff_from_map(k, q, tmap), c, exact)
            want = [(q, c) for q, c in reference if c != 0]
            terms = expand_from_map(k, tmap)
            assert [t.q for t in terms] == [q for q, _ in want]
            for t, (_, c) in zip(terms, want):
                assert_coeff_contract(t.coeff, c, exact)

    def exact_twin(matrix):
        return DenseMatrix.from_rows([[Fraction(repr(v)) for v in row] for row in matrix.data])

    assert coeffs._sweep_levels.cache_info().maxsize is not None
    for tmap in (sparse, dense):
        twin = TransformedMap(A=exact_twin(tmap.A), M=exact_twin(tmap.M))
        pair = ((tmap, False), (twin, True))
        for (first, first_exact), (second, second_exact) in (pair, pair[::-1]):
            coeffs._sweep_levels.cache_clear()
            check_reads(first, ((2, 2), (3, 2)), first_exact)
            misses = coeffs._sweep_levels.cache_info().misses
            check_reads(second, ((2, 2), (3, 2)), second_exact)
            assert coeffs._sweep_levels.cache_info().misses == misses

    a3 = DenseMatrix.from_rows([[0.6, -1.1], [0.3, 0.9], [-0.7, 0.2]])
    m3 = [[0.5, -0.25, 0.4], [-0.25, 0.75, -0.6], [0.4, -0.6, 0.3]]
    dense3 = TransformedMap(A=a3, M=DenseMatrix.from_rows(m3))
    ks3 = ((1, 1, 0), (1, 0, 1), (0, 1, 1), (2, 1, 2))
    for i, l, zero in ((0, 1, 0.0), (0, 2, 0.0), (1, 2, -0.0), (0, 0, 0.0), (2, 2, 0.0)):
        rows = [list(row) for row in m3]
        rows[i][l] = rows[l][i] = zero
        holed = TransformedMap(A=a3, M=DenseMatrix.from_rows(rows))
        for order in ((dense3, holed), (holed, dense3)):
            coeffs._sweep_levels.cache_clear()
            for tmap in order:
                check_reads(tmap, ks3, False)
        if i != l:
            unit = tuple(int(j in (i, l)) for j in range(3))
            assert repr(coeff_from_map(unit, (0, 0), holed)) == "0"
            assert repr(coeff_from_map(unit, (0, 0), dense3)) != "0"


def sweep_plan_reference(k, m_rows):
    """The coefficient sweep's plan as coeffs built it before it read
    raising_plan: steps[d] maps each needed k' of degree d to
    (i, k' - e_i, [(c, l, k' - e_i - e_l), ...]), in the order reached."""
    top = sum(k)
    steps = [{} for _ in range(top + 1)]
    steps[top][k] = None
    for d in range(top, 0, -1):
        for kp in steps[d]:
            i = len(kp) - 1
            while kp[i] == 0:
                i -= 1
            low = kp[:i] + (kp[i] - 1,) + kp[i + 1 :]
            twice = []
            for l, mv in enumerate(m_rows[i]):
                c = low[l]
                if mv and c:
                    lower = low[:l] + (c - 1,) + low[l + 1 :]
                    twice.append((c, l, lower))
                    steps[d - 2][lower] = None
            steps[d - 1][low] = None
            steps[d][kp] = (i, low, twice)
    return steps


def test_raising_plan_of_one_k_matches_the_sweep_plan_reference():
    # raising_plan sorts each level into canonical order; the reference
    # keeps the order reached, so the levels compare as dicts.
    rng = random.Random(3012)
    for n in range(1, 5):
        for trial in range(12):
            dense = trial % 2
            m_rows = [[0.0] * n for _ in range(n)]
            for i in range(n):
                for l in range(i, n):
                    if dense or rng.random() < 0.3:
                        m_rows[i][l] = m_rows[l][i] = rng.choice([-1.5, 0.25, 2.0, -0.0])
            k = tuple(rng.randint(0, 5) for _ in range(n))
            levels = raising_plan([k], m_rows)
            steps = sweep_plan_reference(k, m_rows)
            assert len(levels) == len(steps)
            for d in range(1, len(steps)):
                got = {kp: (i, low, list(twice)) for kp, i, low, twice in levels[d]}
                assert got == steps[d], (k, d)


def fraction_table_reference(k, a_rows, m_rows):
    """The bottom-up sweep as it ran directly on the map's own entries
    before exact maps were cleared to integers: the same pulls in the same
    order, so entry types (int or Fraction) follow the same rules."""
    top = sum(k)
    steps = [{} for _ in range(top + 1)]
    steps[top][k] = None
    for d in range(top, 0, -1):
        for kp in steps[d]:
            i = max(j for j, c in enumerate(kp) if c)
            low = kp[:i] + (kp[i] - 1,) + kp[i + 1 :]
            twice = []
            for l, mv in enumerate(m_rows[i]):
                if mv and low[l]:
                    lower = low[:l] + (low[l] - 1,) + low[l + 1 :]
                    twice.append((low[l] * mv, lower))
                    steps[d - 2][lower] = None
            steps[d - 1][low] = None
            steps[d][kp] = (i, low, twice)
    m = len(a_rows[0])
    below, prev = {}, {(0,) * len(k): {(0,) * m: 1}}
    for d in range(1, top + 1):
        cur = {}
        for kp, (i, low, twice) in steps[d].items():
            t = {}
            for dq in range(d, -1, -2):
                for q in enumerate_fixed_degree(m, dq):
                    q = q.parts
                    acc = 0
                    for j, a in enumerate(a_rows[i]):
                        if a and q[j]:
                            acc = acc + a * prev[low][q[:j] + (q[j] - 1,) + q[j + 1 :]]
                    if dq < d:
                        for cm, lower in twice:
                            acc = acc + cm * below[lower][q]
                    t[q] = acc
            cur[kp] = t
        below, prev = prev, cur
    return prev[k]


def expand_reference(k, tmap, variant):
    """(q, T[k,q]) for every q, zeros included, computed on the map's own
    entries: the Fraction sweep, or the literal product at the ascending
    slot tuple times a Fraction prefactor."""
    top = k.degree()
    literal = variant is CoeffVariant.PAPER_LITERAL or sum(1 for c in k.parts if c) <= 1
    table = None if literal else fraction_table_reference(k.parts, tmap.A.data, tmap.M.data)
    out = []
    for d in q_support(top):
        pairs = (top - d) // 2
        for q in enumerate_fixed_degree(tmap.A.cols, d):
            if table is not None:
                out.append((q, table[q.parts]))
                continue
            e = ascending_tuple(k)
            prod = 1
            for slot, col in zip(e, ascending_tuple(q)):
                prod = prod * tmap.A.data[slot][col]
            for p in range(d, d + 2 * pairs, 2):
                prod = prod * tmap.M.data[e[p + 1]][e[p]]
            pref = Fraction(
                mi_factorial(k), 2**pairs * mi_factorial(q) * math.factorial(pairs)
            )
            out.append((q, pref * prod))
    return out


def typed_map(rng, n, m, kind):
    """An exact map whose entries are all Fractions p/q ("fraction"), all
    Fraction(float) ("float"), all ints ("int") or a mix of ints and
    Fractions ("mixed"); about one entry in six is an exact zero and M is
    symmetric.  A third of the fraction and float maps with m >= 2 come
    from a Lambda with a zero row under full covariances instead."""
    def entry():
        if kind == "float":
            value = Fraction(float(rng.uniform(-2, 2)))
        elif kind == "int" or (kind == "mixed" and rng.uniform() < 0.5):
            value = int(rng.integers(-4, 5))
        else:
            value = Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
        return 0 * value if rng.uniform() < 0.15 else value

    def covariance(dim):
        q = DenseMatrix.from_rows([[entry() for _ in range(dim)] for _ in range(dim)])
        return spd_factorize(gram_plus_identity(q))

    if kind in ("fraction", "float") and m >= 2 and int(rng.integers(0, 3)) == 0:
        lam = [[entry() for _ in range(n)] for _ in range(m)]
        zero = int(rng.integers(0, m))
        lam[zero] = [0 * v for v in lam[zero]]
        tmap = transformed_map(DenseMatrix.from_rows(lam), covariance(n), covariance(m))
        assert all(type(v) is Fraction for row in tmap.A.data for v in row)
        return tmap
    a = DenseMatrix.from_rows([[entry() for _ in range(m)] for _ in range(n)])
    upper = [[entry() for _ in range(n)] for _ in range(n)]
    mm = DenseMatrix.from_rows(
        [[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    )
    return TransformedMap(A=a, M=mm)


def test_integer_sweep_matches_fraction_reference():
    """Exact maps are swept on their cleared integers; every coefficient
    keeps the value that the sweep on the map's own entries gives, and is
    a Fraction unless it is zero.  The sweep on the own entries is the
    table itself, checked against the reference in value and type, exact
    zeros included."""
    kinds = ("fraction", "float", "int", "mixed")
    zero_types = set()
    compared = 0
    for trial in range(64):
        rng = numpy_trial_rng(616, trial)
        kind = kinds[trial % 4]
        n, m = 1 + (trial // 4) % 4, 1 + (trial // 16) % 4
        cap = {1: 10, 2: 10, 3: 8, 4: 6}[n] - (2 if kind == "float" and n > 1 else 0)
        parts = [1, 1] + [0] * (n - 2) if n >= 2 else [1]
        for _ in range(int(rng.integers(0, cap - sum(parts) + 1))):
            parts[int(rng.integers(0, n))] += 1
        k = MultiIndex(tuple(parts))
        tmap = typed_map(rng, n, m, kind)
        own = coeffs._coeff_table(k.parts, tmap.A.data, tmap.M.data)
        want = fraction_table_reference(k.parts, tmap.A.data, tmap.M.data)
        # The table lists every q of the parity of |k| in ascending degree,
        # then canonical order.
        top = k.degree()
        layout = [q.parts for d in range(top % 2, top + 1, 2) for q in enumerate_fixed_degree(m, d)]
        assert [(c, type(c)) for c in own] == [(want[q], type(want[q])) for q in layout]
        for variant in CoeffVariant:
            reference = expand_reference(k, tmap, variant)
            terms = expand_from_map(k, tmap, variant)
            assert [(t.q, t.coeff, type(t.coeff)) for t in terms] == [
                (q, c, Fraction) for q, c in reference if c != 0
            ]
            picks = range(len(reference))
            if k.degree() > 6 and len(reference) > 8:
                zeros = [at for at, (_, c) in enumerate(reference) if c == 0]
                picks = zeros[:8] + rng.choice(len(reference), size=8).tolist()
            for at in picks:
                q, c = reference[at]
                assert_coeff_contract(coeff_from_map(k, q, tmap, variant), c, True)
                if c == 0 and kind in ("fraction", "float"):
                    zero_types.add(type(c))
                compared += 1
    assert zero_types == {int, Fraction}
    assert compared >= 1500


def assert_q_positions(m, top):
    """_q_level numbers the q of each degree of top's parity from 0 up, in
    ascending degree, then canonical order: the flat layout, which
    _q_layout lists one entry per position."""
    degrees = range(top % 2, top + 1, 2)
    layout = [q for d in degrees for q in enumerate_fixed_degree(m, d)]
    assert [pq for d in degrees for pq in coeffs._q_level(m, d)] == list(enumerate(layout))
    assert len(coeffs._q_layout(m, top)) == len(layout)


def assert_flat_table(k, a_rows, m_rows, exact):
    """k's table lists T[k, q] for every q of the parity of |k| in ascending
    degree, then canonical order.  Float entries keep the recursion
    reference's repr, exact ones the Fraction reference's value and type
    (an int 0 where no pull reaches).  When k has two nonzero parts or more
    the readers read that table: expand_from_map in its own order, and
    coeff_from_map at the first and last q of each degree."""
    tmap = TransformedMap(A=DenseMatrix.from_rows(a_rows), M=DenseMatrix.from_rows(m_rows))
    a, mm = tmap.A.data, tmap.M.data
    n, m, top = len(k), len(a[0]), sum(k)
    layout = [q for d in range(top % 2, top + 1, 2) for q in enumerate_fixed_degree(m, d)]
    assert_q_positions(m, top)
    table = coeffs._coeff_table(k, a, mm)
    if exact:
        ref = fraction_table_reference(k, a, mm)
        want = [ref[q.parts] for q in layout]
        assert [(c, type(c)) for c in table] == [(c, type(c)) for c in want]
    else:
        memo = {((0,) * n, (0,) * m): 1}
        want = [
            raise_coeff_reference(k, q.parts, (top - q.degree()) // 2, a, mm, memo)
            for q in layout
        ]
        assert [repr(c) for c in table] == [repr(c) for c in want]
    if sum(1 for c in k if c) < 2:
        return
    by_q = dict(zip(layout, want))
    expected = [(q, by_q[q]) for d in q_support(top) for q in enumerate_fixed_degree(m, d)]
    terms = expand_from_map(k, tmap)
    assert [t.q for t in terms] == [q for q, c in expected if c != 0]
    for t, c in zip(terms, (c for _, c in expected if c != 0)):
        assert_coeff_contract(t.coeff, c, exact)
    for d in q_support(top):
        for q in {enumerate_fixed_degree(m, d)[0], enumerate_fixed_degree(m, d)[-1]}:
            assert_coeff_contract(coeff_from_map(k, q, tmap), by_q[q], exact)


def test_flat_table_edge_cases():
    for m in range(1, 5):
        for top in range(coeffs.MAX_EXPANSION_DEGREE + 1):
            assert_q_positions(m, top)
    half, third = Fraction(1, 2), Fraction(-1, 3)
    a22 = [[Fraction(3, 4), Fraction(-5, 4)], [Fraction(1, 3), Fraction(2)]]
    m22 = [[half, third], [third, Fraction(5, 4)]]
    cases = [
        ((0, 0), a22, m22),  # k = 0: the table is T[0, 0] = 1 alone
        ((0, 1), [[half, third, 2], [Fraction(7, 5), 0, -1]], m22),  # |k| = 1
        ((7,), [[half, Fraction(-3, 2)]], [[Fraction(3, 4)]]),  # n = 1
        ((3, 2), [[Fraction(5, 4)], [third]], m22),  # m = 1
        ((3, 3), a22, [[0, 0], [0, 0]]),  # M = 0: no M pulls
        ((3, 2), [[half, 0, third], [Fraction(6, 5), 0, 1]], m22),  # a zero column of A
        ((2, 3), [[half, 0], [0, third]], [[0, half], [half, 0]]),  # sparse A and M
    ]
    for k, a, mm in cases:
        assert_flat_table(k, a, mm, True)
        assert_flat_table(k, [[float(v) for v in row] for row in a], [[float(v) for v in row] for row in mm], False)
    # Signed float zeros in A and M are skipped like any zero.
    assert_flat_table((2, 3), [[-0.0, 0.75], [-1.5, -0.0]], [[-0.0, 0.5], [0.5, -0.0]], False)
    assert_flat_table((1, 2), [[-0.0, -0.0], [0.25, -0.0]], [[-0.0, -0.0], [-0.0, -0.0]], False)
    # |k| at the cap, n = m = 2.
    top = coeffs.MAX_EXPANSION_DEGREE
    k = (top // 2 + 1, top // 2 - 1)
    assert_flat_table(k, a22, m22, True)
    assert_flat_table(k, [[0.6, -1.1], [0.3, 0.9]], [[0.5, -0.25], [-0.25, 0.75]], False)


def test_exact_transformed_map_matches_fraction_products():
    """(A, M) from integer products equal the products of the given
    matrices in value, for every mix of exact entry types, and every entry
    is a Fraction."""
    kinds = ("fraction", "float", "int", "mixed")
    for trial in range(48):
        rng = trial_rng(626, trial)
        n, m = 1 + trial % 3, 1 + (trial // 3) % 3
        lam, sigma_inv, upsilon = (
            typed_map(rng, rows, cols, kinds[(trial + shift) % 4]).A
            for rows, cols, shift in ((m, n, 0), (n, n, trial // 9), (m, m, trial // 5))
        )
        sigma_inv = matrix_sum(sigma_inv, sigma_inv.transpose())
        upsilon = matrix_sum(upsilon, upsilon.transpose())
        a = sigma_inv.matmul(lam.transpose()).matmul(upsilon)
        mm = matrix_difference(a.matmul(lam).matmul(sigma_inv), sigma_inv)
        tmap = transformed_map_from_inverses(lam, sigma_inv, upsilon)
        for got, want in ((tmap.A, a), (tmap.M, mm)):
            assert [(v, type(v)) for row in got.data for v in row] == [
                (v, Fraction) for row in want.data for v in row
            ]


def _products_reference(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _clear_reference(a):
    d = math.lcm(*[v.denominator for row in a for v in row])
    return [[v.numerator * (d // v.denominator) for v in row] for row in a], d


def map_reference(lam, sigma_inv, upsilon):
    """(A rows, M rows) of exact Sigma^-1, Lambda and Upsilon by the
    formulas transformed_map_from_inverses ran on DenseMatrix products:
    A = A_hat.scale(Fraction(1, s e u)) and
    M = M_hat.scale(Fraction(1, s^2 e^2 u)) over the cleared integers."""
    (sm, s), (lm, e), (um, u) = map(_clear_reference, (sigma_inv, lam, upsilon))
    a_hat = _products_reference(_products_reference(sm, [list(c) for c in zip(*lm)]), um)
    p_hat = _products_reference(_products_reference(a_hat, lm), sm)
    m_hat = [[x - s * e * e * u * y for x, y in zip(pr, sr)] for pr, sr in zip(p_hat, sm)]
    return (
        [[Fraction(1, s * e * u) * v for v in row] for row in a_hat],
        [[Fraction(1, s * s * e * e * u) * v for v in row] for row in m_hat],
    )


def test_exact_map_and_table_keep_values_and_types():
    """(A, M) built on int rows, and the tables read from them, equal the
    DenseMatrix formulas entry by entry in repr: every entry of an exact
    map is a Fraction (zeros are Fraction(0)), whether the inputs hold
    Fractions, ints or both."""
    kinds = ("fraction", "int", "mixed")
    rng = random.Random(1818)
    for trial in range(72):
        kind = kinds[trial % 3]
        n, m = rng.randint(1, 4), rng.randint(1, 4)

        def entry():
            v = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
                return int(v)
            return v

        def symmetric(dim):
            upper = [[entry() for _ in range(dim)] for _ in range(dim)]
            return [[upper[min(i, j)][max(i, j)] for j in range(dim)] for i in range(dim)]

        lam = [[entry() for _ in range(n)] for _ in range(m)]
        if m >= 2 and trial % 2:
            lam[rng.randrange(m)] = [0 * v for v in lam[0]]
        sigma_inv, upsilon = symmetric(n), symmetric(m)
        tmap = transformed_map_from_inverses(
            DenseMatrix.from_rows(lam), DenseMatrix.from_rows(sigma_inv), DenseMatrix.from_rows(upsilon)
        )
        a, mm = map_reference(lam, sigma_inv, upsilon)
        assert repr(tmap.A.data) == repr(tuple(map(tuple, a)))
        assert repr(tmap.M.data) == repr(tuple(map(tuple, mm)))
        assert all(type(v) is Fraction for row in tmap.A.data + tmap.M.data for v in row)
        ref_map = TransformedMap(A=DenseMatrix.from_rows(a), M=DenseMatrix.from_rows(mm))
        k = MultiIndex(tuple(rng.randint(0, 3) for _ in range(n)))
        for variant in CoeffVariant:
            got = [(t.q, t.coeff) for t in expand_from_map(k, tmap, variant)]
            want = [(q, c) for q, c in expand_reference(k, ref_map, variant) if c != 0]
            assert repr(got) == repr(want)


def two_route_map_reference(lam, sigma_inv, upsilon):
    """(A, M) as transformed_map_from_inverses built them in two bodies:
    an exact map on the int row kernels, any other through DenseMatrix
    products, refused by check_symmetric(m, rtol), which checked m exactly
    when every entry of m was exact and term by term otherwise."""
    if lam.rows != upsilon.rows or lam.cols != sigma_inv.rows:
        raise DimensionMismatchError("map shape")
    if sigma_inv.is_exact() and lam.is_exact() and upsilon.is_exact():
        (sm, s), (lm, e), (um, u) = (
            sigma_inv.cleared_rows(), lam.cleared_rows(), upsilon.cleared_rows()
        )
        a_hat = matmul_rows(matmul_rows(sm, transpose_rows(lm)), um)
        p_hat = matmul_rows(matmul_rows(a_hat, lm), sm)
        m_hat = entrywise_rows(operator.sub, p_hat, scale_rows(s * e * e * u, sm))
        check_symmetric_rows(m_hat, True)
        check_symmetric_rows(sm, True)
        n, m = lam.cols, lam.rows
        return TransformedMap(
            A=DenseMatrix(n, m, fraction_rows(a_hat, s * e * u)),
            M=DenseMatrix(n, n, fraction_rows(m_hat, s * s * e * e * u)),
        )
    a = sigma_inv.matmul(lam.transpose()).matmul(upsilon)
    p = a.matmul(lam).matmul(sigma_inv)
    for checked in (p, sigma_inv):
        check_symmetric_rows(checked.data, checked.is_exact(), coeffs.MAP_SYMMETRY_RTOL)
    return TransformedMap(A=a, M=matrix_difference(p, sigma_inv))


def _map_outcome(build, lam, sigma_inv, upsilon):
    """A and M entry by entry in (repr, type), or the refusal's class and
    message."""
    try:
        tmap = build(lam, sigma_inv, upsilon)
    except HermultError as exc:
        return type(exc), str(exc)
    return [
        (mat.rows, mat.cols, [(repr(v), type(v)) for row in mat.data for v in row])
        for mat in (tmap.A, tmap.M)
    ]


def _drawn_entry(rng, kind):
    if kind == "mixed":
        kind = rng.choice(("float", "fraction", "int", "bool"))
    if kind == "float":
        return rng.choice((0.0, -0.0)) if rng.random() < 0.15 else rng.uniform(-2, 2)
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "int":
        return rng.randint(-4, 4)
    return Fraction(rng.randint(-4, 4), rng.randint(1, 4))


def test_one_body_map_matches_the_two_route_reference():
    """The one-body builder gives the bits, values and entry types of the
    two routes it replaced, and their refusals by class and message, on
    float, Fraction, int and mixed maps (bools among the mixed entries),
    with signed zeros, zero rows of Lambda, an M that is rounding error
    alone (Sigma = Lambda^T Upsilon Lambda), and asymmetric P, Sigma^-1
    and M_hat, some within the float tolerance."""
    rng = random.Random(3303)
    kinds = ("float", "fraction", "int", "mixed")

    def drawn(rows, cols, kind, symmetric=False):
        out = [[_drawn_entry(rng, kind) for _ in range(cols)] for _ in range(rows)]
        if symmetric:
            out = [[out[min(i, j)][max(i, j)] for j in range(cols)] for i in range(rows)]
        return out

    cases = [
        # Exact: M_hat is symmetric, Sigma^-1 is not.
        ([[-1, 1], [0, 1]], [[1, 1], [-2, -1]], [[0, -1], [-1, 0]]),
        # An exact Sigma^-1 in a float map, asymmetric by 1e-11 relative:
        # P passes its term-by-term check and Sigma^-1 is checked exactly.
        ([[1.0, 0.0], [0.0, 1.0]], [[10**11, 1], [2, 10**11]], [[1, 0], [0, 1]]),
        # Bools and ints: P is all ints, so it is checked exactly.
        ([[True, False], [False, True]], [[10**11, 1], [2, 10**11]], [[1, 0], [0, 1]]),
    ]
    for trial in range(1500):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        if trial % 2:
            kl = ks = ku = kinds[trial // 2 % 4]
        else:
            kl, ks, ku = (rng.choice(kinds) for _ in range(3))
        lam = drawn(m, n, kl)
        if m >= 2 and rng.random() < 0.25:
            lam[rng.randrange(m)] = [-0.0 if type(v) is float else 0 * v for v in lam[0]]
        if trial % 5 == 0 and m >= n and kl == ku and kl in ("float", "fraction"):
            # Sigma = Lambda^T Upsilon Lambda makes M zero up to rounding.
            for i in range(n):
                lam[i][i] = lam[i][i] + 5
            q = DenseMatrix.from_rows(drawn(m, m, ku))
            upsilon = gram_plus_identity(q)
            lam_m = DenseMatrix.from_rows(lam)
            sigma = lam_m.transpose().matmul(upsilon).matmul(lam_m)
            sigma = DenseMatrix.from_rows(
                [[(sigma.data[i][j] + sigma.data[j][i]) / 2 for j in range(n)] for i in range(n)]
            )
            cases.append((lam, covariance(sigma).inverse().data, upsilon.data))
            continue
        sigma_inv = drawn(n, n, ks, symmetric=rng.random() < 0.8)
        upsilon = drawn(m, m, ku, symmetric=rng.random() < 0.8)
        if m >= 2 and ku == "float" and rng.random() < 0.3:
            # Skew one symmetric pair of a float Upsilon by a relative 1e-7
            # (refused) or 1e-13 (within the tolerance).
            upsilon[0][1] = upsilon[1][0] * (1 + rng.choice((1e-7, 1e-13)))
        cases.append((lam, sigma_inv, upsilon))
    refused = kept = 0
    for rows in cases:
        mats = [DenseMatrix.from_rows(r) for r in rows]
        want = _map_outcome(two_route_map_reference, *mats)
        fresh = [DenseMatrix.from_rows(r) for r in rows]
        assert _map_outcome(transformed_map_from_inverses, *fresh) == want, rows
        refused += isinstance(want, tuple)
        kept += isinstance(want, list)
    assert refused > 200 and kept > 800


def test_expansion_term_fields_hash_and_repr():
    q = MultiIndex((1, 0))
    term = ExpansionTerm(q=q, coeff=0.5)
    assert (term.q, term.coeff) == (q, 0.5)
    assert term == ExpansionTerm(q, 0.5) == (q, 0.5)
    assert hash(term) == hash(ExpansionTerm(MultiIndex((1, 0)), 0.5)) == hash((q, 0.5))
    assert repr(term) == "ExpansionTerm(q=MultiIndex(parts=(1, 0)), coeff=0.5)"
    assert term != ExpansionTerm(q, Fraction(1, 3))
    # A term is a tuple (q, coeff): it unpacks and indexes, and is immutable.
    assert isinstance(term, tuple) and len(term) == 2 and term[1] == 0.5
    q_out, coeff_out = term
    assert (q_out, coeff_out) == (q, 0.5)
    with pytest.raises(AttributeError):
        term.coeff = 1.0


def test_zero_suppression_in_float_mode():
    lam = DenseMatrix.from_rows([[0.0, 1.0], [1.0, 0.0]])
    terms = expand_general((1, 1), lam, EYE2, EYE2)
    assert terms_dict(terms) == {(1, 1): 1}


def test_evaluate_expansion_matches_direct_sum():
    rng = trial_rng(13, 0)
    lam = DenseMatrix.from_rows(rng.uniform(-2, 2, size=(2, 2)))
    q_mat = DenseMatrix.from_rows(rng.uniform(-2, 2, size=(2, 2)))
    sig = spd_factorize(gram_plus_identity(q_mat))
    ups = EYE2
    x = DenseVector.from_entries(rng.uniform(-2, 2, size=2))
    terms = expand_general((2, 1), lam, sig, ups)
    direct = sum(t.coeff * hermite_multi(t.q, x, ups) for t in terms)
    assert evaluate_expansion(terms, x, ups) == pytest.approx(direct, rel=1e-15)


@pytest.mark.parametrize("s", [1e-6, 1.0, 1e6])
def test_map_symmetry_rule_does_not_depend_on_scale(s):
    # Sigma^-1 = I/s and Lambda = I give M = Upsilon/s^2 - I/s: an Upsilon
    # asymmetric by 1e-7 relative leaves M asymmetric by that much at every
    # scale, and M must be refused; a symmetric Upsilon gives a symmetric M.
    inv = DenseMatrix.from_rows([[1 / s, 0.0], [0.0, 1 / s]])
    eye = DenseMatrix.identity(2)
    skewed = DenseMatrix.from_rows([[2 * s, s * (1 + 1e-7)], [s, 2 * s]])
    with pytest.raises(NotSymmetricError):
        transformed_map_from_inverses(eye, inv, skewed)
    m = transformed_map_from_inverses(eye, inv, matrix_sum(skewed.transpose(), skewed)).M
    assert m.data[0][1] == m.data[1][0]
    # Lambda = 0 gives M = -Sigma^-1, so an asymmetric Sigma^-1 alone is refused.
    zero = DenseMatrix.from_rows([[0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(NotSymmetricError):
        transformed_map_from_inverses(zero, skewed.scale(1 / s**2), eye)
    # Sigma = Lambda^T Upsilon Lambda makes M zero, so the float M is
    # rounding error alone, with no scale of its own; it is accepted.
    lam = DenseMatrix.from_rows([[0.7, -0.3], [0.25, 1.1]])
    upsilon = DenseMatrix.from_rows([[2 * s, 0.5 * s], [0.5 * s, s]])
    sigma = lam.transpose().matmul(upsilon).matmul(lam)
    sigma = DenseMatrix.from_rows(
        [[(sigma.data[i][j] + sigma.data[j][i]) / 2 for j in range(2)] for i in range(2)]
    )
    m = transformed_map(lam, spd_factorize(sigma), spd_factorize(upsilon)).M
    assert max(abs(v) for row in m.data for v in row) <= 1e-12 / s
