"""The four benchmark workloads: seeded inputs, one timed operation, and
the output check for each.

Inputs come from stdlib `random.Random`, never numpy, so that the cost of
importing numpy shows in hermult's own set-up time.  Every workload runs in
cycles: one cycle is a fixed mix of input shapes with fresh seeded values,
so the work per cycle barely depends on the seed and a run always measures
whole cycles.  Program functions are looked up on their module at call time
(`coeffs.expand_general`, not a local alias), so the tracer's rebinding
reaches them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from hermult import cli, coeffs, hermite, polyoracle, tensorlin

# Guarded relative identity error above which a float check fails; the
# default tolerance of `hermult verify --suite main`.
IDENTITY_TOL = 1e-8

# Check points per expand-large table.
CHECK_POINTS = 3

# Covariance scale exponents s of the scale probe lie in [-SCALE_EXP,
# SCALE_EXP].
SCALE_EXP = 6.0

# expand-large cycle: one table per shape (parts are shuffled per op).  The
# shapes span n=2 with |k| 8-12, n=3 with |k| 6-10 and n=4 with |k| 4-8; at
# the seed commit one table takes about 5 ms to 0.8 s, and only (3,3,3) is
# near the top of that, so no single op sets the length of a run.
EXPAND_SHAPES = (
    (4, 4), (5, 4), (5, 5), (6, 5), (6, 6),
    (2, 2, 2), (3, 2, 2), (3, 3, 2), (3, 3, 3), (7, 2, 1),
    (1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 1, 1), (2, 2, 2, 1), (5, 2, 1, 0),
)

# eval-points tables, built once in set-up: n=m=2 with |k| 10 and n=m=3
# with |k| 6-8.  Tables of one term count form groups of 6, 3, 3 and 4, so
# that p50 and p90 fall inside a group rather than on the edge between two.
EVAL_SHAPES = (
    (5, 5), (6, 4), (7, 3), (8, 2), (9, 1), (10, 0),
    (2, 2, 2), (3, 2, 1), (4, 1, 1),
    (3, 2, 2), (4, 2, 1), (5, 1, 1),
    (3, 3, 2), (4, 2, 2), (4, 3, 1), (6, 1, 1),
)

VERIFY_SUITES = ("main", "gf", "kron", "selector", "univariate")

# Scale probe: small tables, every one with a scaled covariance.  The seed
# commit drops terms by a cut that depends on covariance scale, which fails
# the identity check on about a quarter of these; the probe reports that
# share outside the timed workloads (see `scale_probe`).
PROBE_SHAPES = (
    (2, 2), (3, 2), (3, 3), (4, 3), (4, 4), (5, 4),
    (2, 2, 1), (2, 2, 2), (3, 2, 2), (3, 3, 1),
    (1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 1, 1), (3, 1, 1, 1), (2, 2, 2, 0), (4, 1, 1, 0),
)

# oracle-exact cycle: every (n, m, |k|); |k| = 5 is MAX_ORACLE_DEGREE.
ORACLE_SHAPES = tuple(
    (n, m, d) for n in (1, 2, 3) for m in (1, 2, 3) for d in (3, 4, 5)
)


# ---------------------------------------------------------------- inputs


def cycle_rng(seed: int, stream: str, index: int) -> random.Random:
    """Independent stream per (seed, purpose, cycle index)."""
    return random.Random(f"{seed}:{stream}:{index}")


def uniform_rows(rng: random.Random, rows: int, cols: int) -> list[list[float]]:
    return [[rng.uniform(-2.0, 2.0) for _ in range(cols)] for _ in range(rows)]


def spd_rows(rng: random.Random, dim: int, scale_exp: float | None = None) -> list[list[float]]:
    """Q^T Q + I with Q uniform in (-2, 2), times 10**scale_exp if given."""
    q = uniform_rows(rng, dim, dim)
    f = 1.0 if scale_exp is None else 10.0**scale_exp
    return [
        [
            f * (sum(q[r][i] * q[r][j] for r in range(dim)) + (1.0 if i == j else 0.0))
            for j in range(dim)
        ]
        for i in range(dim)
    ]


def integer_spd_rows(rng: random.Random, dim: int) -> list[list[int]]:
    """Integer Q^T Q + I with Q entries in [-2, 2]."""
    q = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)]
    return [
        [sum(q[r][i] * q[r][j] for r in range(dim)) + (i == j) for j in range(dim)]
        for i in range(dim)
    ]


def stratum_midpoints(count: int) -> list[float]:
    """Midpoints of `count` equal-width strata of [-SCALE_EXP, SCALE_EXP],
    ascending."""
    width = 2.0 * SCALE_EXP / count
    return [-SCALE_EXP + width * (j + 0.5) for j in range(count)]


def scale_plan(count: int) -> list[tuple]:
    """(Sigma, Upsilon) scale exponents for `count` problems; None means
    unscaled.  Problem j scales Sigma, Upsilon or both by j mod 3, and the
    exponents of each role are the stratum midpoints of its problems, so
    the plan is the same for every seed and only the matrices vary.
    """
    roles = [j % 3 for j in range(count)]
    plan: list[list] = [[None, None] for _ in range(count)]
    for col, wanted in ((0, (0, 2)), (1, (1, 2))):
        slots = [j for j, r in enumerate(roles) if r in wanted]
        for j, s in zip(slots, stratum_midpoints(len(slots))):
            plan[j][col] = s
    return [tuple(p) for p in plan]


def shuffled(rng: random.Random, parts) -> tuple[int, ...]:
    parts = list(parts)
    rng.shuffle(parts)
    return tuple(parts)


def random_composition(rng: random.Random, arity: int, degree: int) -> tuple[int, ...]:
    parts = [0] * arity
    for _ in range(degree):
        parts[rng.randrange(arity)] += 1
    return tuple(parts)


# ---------------------------------------------------------------- checks


def guarded_rel_err(lhs: float, rhs: float, abs_term_sum: float) -> float:
    """|lhs - rhs| over max(1, |lhs|, sum of |terms|), the denominator that
    `hermult.verify` uses for the main identity."""
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs_term_sum)


def identity_error(problem: "FloatProblem", terms, x: list[float], lhs=None, rhs=None) -> float:
    """Guarded relative error of H_k(Lambda^T x; Sigma) = sum T[k,q] H_q(x;
    Upsilon) at one point.  `lhs`/`rhs` are the program's own values when
    it already computed them; the term magnitudes are always recomputed."""
    xv = tensorlin.DenseVector.from_entries(x)
    if lhs is None:
        lhs = hermite.hermite_multi(problem.k, problem.lam_t.matvec(xv), problem.sigma)
    values = hermite.hermite_multi_batch([t.q for t in terms], xv, problem.upsilon)
    contribs = [t.coeff * h for t, h in zip(terms, values)]
    if rhs is None:
        rhs = math.fsum(contribs)
    return guarded_rel_err(lhs, rhs, sum(abs(c) for c in contribs))


def table_error(problem: "FloatProblem", terms, points: list[list[float]]) -> float:
    """Worst identity error of one expansion table over the check points."""
    return max(identity_error(problem, terms, x) for x in points)


def check_passes(err: float) -> bool:
    return err <= IDENTITY_TOL  # NaN fails


# ---------------------------------------------------------------- problems


@dataclass
class FloatProblem:
    """One float expansion problem with its factorised covariances."""

    k: tuple[int, ...]
    lam: object
    lam_t: object
    sigma: object
    upsilon: object
    points: list[list[float]]


def float_problem_inputs(rng: random.Random, k, scales=(None, None)) -> dict:
    n = m = len(k)
    return {
        "k": tuple(k),
        "Lambda": uniform_rows(rng, m, n),
        "Sigma": spd_rows(rng, n, scales[0]),
        "Upsilon": spd_rows(rng, m, scales[1]),
        "points": [[rng.uniform(-2.0, 2.0) for _ in range(m)] for _ in range(CHECK_POINTS)],
    }


def build_float_problem(inputs: dict) -> FloatProblem:
    """Program state for one problem: the matrices and both factorisations."""
    lam = tensorlin.DenseMatrix.from_rows(inputs["Lambda"])
    return FloatProblem(
        k=inputs["k"],
        lam=lam,
        lam_t=lam.transpose(),
        sigma=tensorlin.spd_factorize(tensorlin.DenseMatrix.from_rows(inputs["Sigma"])),
        upsilon=tensorlin.spd_factorize(tensorlin.DenseMatrix.from_rows(inputs["Upsilon"])),
        points=inputs["points"],
    )


def expand_and_dump(problem: FloatProblem):
    """What `hermult expand` does after parsing its spec: the table, then
    its JSON text."""
    terms = coeffs.expand_general(problem.k, problem.lam, problem.sigma, problem.upsilon)
    text = cli.dumps(
        {
            "k": list(problem.k),
            "variant": coeffs.CoeffVariant.SYMMETRIZED.value,
            "terms": [{"q": t.q.to_list(), "coeff": float(t.coeff)} for t in terms],
        }
    )
    return terms, text


# ---------------------------------------------------------------- workloads


@dataclass
class Case:
    """One op's input."""

    payload: object


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def setup_inputs(self):
        """Inputs for set-up (benchmark time, excluded from setup_s)."""
        return None

    def setup(self, inputs) -> None:
        """Build the reusable program state (counted in setup_s)."""

    def cycle(self, index: int) -> list[Case]:
        raise NotImplementedError

    def run(self, case: Case):
        raise NotImplementedError

    def check(self, case: Case, out) -> bool:
        raise NotImplementedError


class ExpandLarge(Workload):
    name = "expand-large"

    def cycle(self, index):
        rng = cycle_rng(self.seed, self.name, index)
        return [
            Case(build_float_problem(float_problem_inputs(rng, shuffled(rng, shape))))
            for shape in EXPAND_SHAPES
        ]

    def run(self, case):
        return expand_and_dump(case.payload)

    def check(self, case, out):
        terms, text = out
        if len(json.loads(text)["terms"]) != len(terms):
            return False
        return check_passes(table_error(case.payload, terms, case.payload.points))


class VerifySuites(Workload):
    name = "verify-suites"

    def cycle(self, index):
        rng = cycle_rng(self.seed, self.name, index)
        return [Case((suite, rng.randrange(2**31))) for suite in VERIFY_SUITES]

    def run(self, case):
        suite, seed = case.payload
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["verify", "--suite", suite, "--seed", str(seed)])
        return code, buf.getvalue()

    def check(self, case, out):
        code, text = out
        return code == 0 and json.loads(text)["report"]["failures"] == 0


class EvalPoints(Workload):
    name = "eval-points"

    def setup_inputs(self):
        rng = cycle_rng(self.seed, self.name, -1)
        return [float_problem_inputs(rng, shuffled(rng, shape)) for shape in EVAL_SHAPES]

    def setup(self, inputs):
        self.tables = []
        for spec in inputs:
            problem = build_float_problem(spec)
            terms = coeffs.expand_general(problem.k, problem.lam, problem.sigma, problem.upsilon)
            self.tables.append((problem, terms))

    def cycle(self, index):
        rng = cycle_rng(self.seed, self.name, index)
        cases = []
        for problem, terms in self.tables:
            x = [rng.uniform(-2.0, 2.0) for _ in range(problem.upsilon.dim)]
            cases.append(Case((problem, terms, x, tensorlin.DenseVector.from_entries(x))))
        return cases

    def run(self, case):
        problem, terms, _, xv = case.payload
        lhs = hermite.hermite_multi(problem.k, problem.lam_t.matvec(xv), problem.sigma)
        rhs = coeffs.evaluate_expansion(terms, xv, problem.upsilon)
        return lhs, rhs

    def check(self, case, out):
        problem, terms, x, _ = case.payload
        lhs, rhs = out
        return check_passes(identity_error(problem, terms, x, lhs, rhs))


class OracleExact(Workload):
    name = "oracle-exact"

    def cycle(self, index):
        rng = cycle_rng(self.seed, self.name, index)
        cases = []
        for n, m, d in ORACLE_SHAPES:
            lam = polyoracle.rational_matrix(
                [[Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)] for _ in range(m)]
            )
            sigma = polyoracle.rational_matrix(integer_spd_rows(rng, n))
            upsilon = polyoracle.rational_matrix(integer_spd_rows(rng, m))
            cases.append(Case((random_composition(rng, n, d), lam, sigma, upsilon)))
        return cases

    def run(self, case):
        return polyoracle.oracle_compare(*case.payload)

    def check(self, case, out):
        return out.equal is True


WORKLOADS = {w.name: w for w in (ExpandLarge, VerifySuites, EvalPoints, OracleExact)}


# ---------------------------------------------------------------- controls


def paper_literal_control() -> bool:
    """True when the documented counterexample k=(1,1), Lambda=[[0,1],[1,0]]
    compares unequal under the paper-literal variant, as it must."""
    eye = polyoracle.rational_matrix([[1, 0], [0, 1]])
    swap = polyoracle.rational_matrix([[0, 1], [1, 0]])
    result = polyoracle.oracle_compare(
        (1, 1), swap, eye, eye, coeffs.CoeffVariant.PAPER_LITERAL
    )
    return not result.equal


PERTURB_REL = 1e-6


def perturbed_table_control(seed: int) -> bool:
    """True when the float check rejects a correct table in which one
    coefficient (the largest contribution at the first check point) is
    off by a relative PERTURB_REL."""
    rng = cycle_rng(seed, "control", 0)
    problem = build_float_problem(float_problem_inputs(rng, (3, 2)))
    terms = coeffs.expand_general(problem.k, problem.lam, problem.sigma, problem.upsilon)
    xv = tensorlin.DenseVector.from_entries(problem.points[0])
    values = hermite.hermite_multi_batch([t.q for t in terms], xv, problem.upsilon)
    worst = max(range(len(terms)), key=lambda i: abs(terms[i].coeff * values[i]))
    bad = list(terms)
    bad[worst] = coeffs.ExpansionTerm(bad[worst].q, bad[worst].coeff * (1 + PERTURB_REL))
    return not check_passes(table_error(problem, bad, problem.points))


# ---------------------------------------------------------------- scale probe


def scale_probe(seed: int) -> tuple[int, int]:
    """(tables failing the identity check, tables) over PROBE_SHAPES with
    scaled covariances (see `scale_plan`).

    The timed workloads use unscaled covariances only, on which every op
    passes; this probe keeps the scale-dependent term dropping in view.
    """
    rng = cycle_rng(seed, "scale-probe", 0)
    failed = 0
    for shape, scales in zip(PROBE_SHAPES, scale_plan(len(PROBE_SHAPES))):
        problem = build_float_problem(float_problem_inputs(rng, shuffled(rng, shape), scales))
        terms = coeffs.expand_general(problem.k, problem.lam, problem.sigma, problem.upsilon)
        failed += not check_passes(table_error(problem, terms, problem.points))
    return failed, len(PROBE_SHAPES)
