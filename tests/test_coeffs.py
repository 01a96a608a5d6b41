import math
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
    NotSymmetricError,
    ParityError,
    SizeLimitError,
)
from hermult.hermite import PHYSICISTS, PROBABILISTS, hermite_multi
from hermult.multiindex import (
    MultiIndex,
    ascending_tuple,
    enumerate_fixed_degree,
    index_tuples,
    mi_factorial,
    q_support,
)
from hermult.polyoracle import rational_matrix
from hermult.tensorlin import DenseMatrix, DenseVector, cleared, spd_factorize
from hermult.verify import trial_rng

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
    expected_m = lam.transpose().matmul(lam).sub(DenseMatrix.identity(2))
    assert tm.M.data == expected_m.data


def test_transformed_map_isotropic_scaling():
    lam = rational_matrix([[1, 2], [0, 1]])
    s2 = Fraction(4)
    sig = spd_factorize(DenseMatrix.identity(2).scale(s2))
    ups = spd_factorize(DenseMatrix.identity(2).scale(s2))
    tm = transformed_map(lam, sig, ups)
    assert tm.A.data == lam.transpose().data
    base = lam.transpose().matmul(lam).sub(DenseMatrix.identity(2))
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
        sig = spd_factorize(q_mat.transpose().matmul(q_mat).add(DenseMatrix.identity(n)))
        ups = spd_factorize(u_mat.transpose().matmul(u_mat).add(DenseMatrix.identity(m)))
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
    # The table takes each power once for all q, and a Fraction lam runs on
    # its int rows; every entry keeps the bits and type of the per-entry
    # formula, and the table keeps exactly its nonzero entries, in order.
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
            for w, fn in ((2, coeff_vec_prob), (1, coeff_vec_phys)):
                want = []
                for d in q_support(k):
                    for q in enumerate_fixed_degree(m, d):
                        c = vec_coeff_reference(k, q, lam, w)
                        assert repr(fn(k, q, lam_v)) == repr(c), (k, q, lam)
                        if c != 0:
                            want.append((q, c))
                got = [(t.q, t.coeff) for t in coeff_vec_table(k, lam_v, w)]
                assert repr(got) == repr(want), (k, lam)
    with pytest.raises(DomainError):
        coeff_vec_table(-1, DenseVector.from_entries([1.0]), 2)


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
    return spd_factorize(q.transpose().matmul(q).add(DenseMatrix.identity(dim)))


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
        assert [(t.q, repr(t.coeff)) for t in terms] == [
            (q, repr(c)) for q, c in reference if c != 0
        ]
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
            assert repr(coeff_from_map(k, q, tmap)) == repr(c)
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
        return spd_factorize(q.transpose().matmul(q).add(DenseMatrix.identity(dim)))

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
    """Exact maps are cleared to integers inside coeffs; every coefficient
    must keep the value and the type (int or Fraction) that the sweep on
    the map's own entries gives, exact zeros from coeff_from_map included."""
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
        for variant in CoeffVariant:
            reference = expand_reference(k, tmap, variant)
            terms = expand_from_map(k, tmap, variant)
            assert [(t.q, t.coeff, type(t.coeff)) for t in terms] == [
                (q, c, type(c)) for q, c in reference if c != 0
            ]
            picks = range(len(reference))
            if k.degree() > 6 and len(reference) > 8:
                zeros = [at for at, (_, c) in enumerate(reference) if c == 0]
                picks = zeros[:8] + rng.choice(len(reference), size=8).tolist()
            for at in picks:
                q, c = reference[at]
                got = coeff_from_map(k, q, tmap, variant)
                assert (got, type(got)) == (c, type(c))
                if c == 0 and kind in ("fraction", "float"):
                    zero_types.add(type(c))
                compared += 1
    assert zero_types == {int, Fraction}
    assert compared >= 1500


def test_exact_transformed_map_matches_fraction_products():
    """(A, M) from integer products equal the products of the given
    matrices in value and entry type, for every mix of entry types."""
    kinds = ("fraction", "float", "int", "mixed")
    for trial in range(48):
        rng = trial_rng(626, trial)
        n, m = 1 + trial % 3, 1 + (trial // 3) % 3
        lam, sigma_inv, upsilon = (
            typed_map(rng, rows, cols, kinds[(trial + shift) % 4]).A
            for rows, cols, shift in ((m, n, 0), (n, n, trial // 9), (m, m, trial // 5))
        )
        sigma_inv = sigma_inv.add(sigma_inv.transpose())
        upsilon = upsilon.add(upsilon.transpose())
        a = sigma_inv.matmul(lam.transpose()).matmul(upsilon)
        mm = a.matmul(lam).matmul(sigma_inv).sub(sigma_inv)
        tmap = transformed_map_from_inverses(lam, sigma_inv, upsilon)
        for got, want in ((tmap.A, a), (tmap.M, mm)):
            assert [(v, type(v)) for row in got.data for v in row] == [
                (v, type(v)) for row in want.data for v in row
            ]


def _products_reference(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _clear_reference(a):
    d = math.lcm(*[v.denominator for row in a for v in row])
    return [[v.numerator * (d // v.denominator) for v in row] for row in a], d


def map_reference(lam, sigma_inv, upsilon):
    """(A rows, M rows) by the formulas transformed_map_from_inverses ran on
    DenseMatrix products: on a Fraction Sigma^-1 with exact Lambda and
    Upsilon, A = A_hat.scale(Fraction(1, s e u)) and
    M = M_hat.scale(Fraction(1, s^2 e^2 u)) over the cleared integers,
    else the products of the given entries."""
    lam_t = [list(col) for col in zip(*lam)]
    if all(type(v) is Fraction for row in sigma_inv for v in row):
        (sm, s), (lm, e), (um, u) = map(_clear_reference, (sigma_inv, lam, upsilon))
        a_hat = _products_reference(_products_reference(sm, [list(c) for c in zip(*lm)]), um)
        p_hat = _products_reference(_products_reference(a_hat, lm), sm)
        m_hat = [[x - s * e * e * u * y for x, y in zip(pr, sr)] for pr, sr in zip(p_hat, sm)]
        return (
            [[Fraction(1, s * e * u) * v for v in row] for row in a_hat],
            [[Fraction(1, s * s * e * e * u) * v for v in row] for row in m_hat],
        )
    a = _products_reference(_products_reference(sigma_inv, lam_t), upsilon)
    p = _products_reference(_products_reference(a, lam), sigma_inv)
    return a, [[x - y for x, y in zip(pr, sr)] for pr, sr in zip(p, sigma_inv)]


def test_exact_map_and_table_keep_values_and_types():
    """(A, M) built on int rows, and the tables read from them, equal the
    DenseMatrix formulas entry by entry in repr: every entry of a Fraction
    map is a Fraction (zeros are Fraction(0)), and int and mixed inputs run
    the plain products."""
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
        if kind == "fraction":
            assert all(type(v) is Fraction for row in tmap.A.data + tmap.M.data for v in row)
        ref_map = TransformedMap(A=DenseMatrix.from_rows(a), M=DenseMatrix.from_rows(mm))
        k = MultiIndex(tuple(rng.randint(0, 3) for _ in range(n)))
        for variant in CoeffVariant:
            got = [(t.q, t.coeff) for t in expand_from_map(k, tmap, variant)]
            want = [(q, c) for q, c in expand_reference(k, ref_map, variant) if c != 0]
            assert repr(got) == repr(want)


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
    sig = spd_factorize(q_mat.transpose().matmul(q_mat).add(DenseMatrix.identity(2)))
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
    m = transformed_map_from_inverses(eye, inv, skewed.transpose().add(skewed)).M
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
