import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
from collections import OrderedDict, namedtuple
from fractions import Fraction
from itertools import chain
from pathlib import Path

import pytest

import hermult
from hermult import DenseMatrix, DenseVector, cli, coeffs, spd_factorize
from hermult.cli import dumps, load_problem_spec, main
from hermult.errors import DomainError
from hermult.polyoracle import SymbolicHermiteFamily, oracle_compare
from hermult.tensorlin import invert_matrix
from polyvalue import poly_value

# The child runs the package these tests import, installed or not.
CLI_ENV = dict(os.environ, PYTHONPATH=str(Path(hermult.__file__).resolve().parent.parent))


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "hermult", *args],
        capture_output=True,
        text=True,
        env=CLI_ENV,
    )


@pytest.fixture
def identity_spec(tmp_path):
    path = tmp_path / "id.json"
    path.write_text(
        json.dumps(
            {
                "k": [2, 1],
                "Lambda": [[1.0, 0.0], [0.0, 1.0]],
                "Sigma": [[2.0, 0.5], [0.5, 1.0]],
                "Upsilon": [[2.0, 0.5], [0.5, 1.0]],
            }
        )
    )
    return str(path)


@pytest.fixture
def permutation_spec(tmp_path):
    path = tmp_path / "perm.json"
    path.write_text(
        json.dumps(
            {
                "k": [1, 1],
                "Lambda": [[0, 1], [1, 0]],
                "Sigma": [[1, 0], [0, 1]],
                "Upsilon": [[1, 0], [0, 1]],
                "rational": True,
            }
        )
    )
    return str(path)


@pytest.fixture
def generic_spec(tmp_path):
    path = tmp_path / "gen.json"
    path.write_text(
        json.dumps(
            {
                "k": [2, 1],
                "Lambda": [[0.7, -0.3], [0.25, 1.1]],
                "Sigma": [[2.0, 0.5], [0.5, 1.0]],
                "Upsilon": [[1.5, -0.25], [-0.25, 2.0]],
            }
        )
    )
    return str(path)


def test_expand_identity_single_unit_term(identity_spec):
    r = run_cli("expand", "--spec", identity_spec)
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["k"] == [2, 1]
    assert out["variant"] == "symmetrized"
    assert out["terms"] == [{"q": [2, 1], "coeff": 1}]


def test_expand_rational_output(permutation_spec):
    r = run_cli("expand", "--spec", permutation_spec)
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["terms"] == [{"q": [1, 1], "coeff": "1"}]
    lit = run_cli("expand", "--spec", permutation_spec, "--variant", "paper-literal")
    assert json.loads(lit.stdout)["terms"] == []


def test_expand_csv_schema(generic_spec):
    r = run_cli("expand", "--spec", generic_spec, "--format", "csv")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0] == "q_1,q_2,coeff"
    assert len(lines) > 1
    for line in lines[1:]:
        q1, q2, coeff = line.split(",")
        int(q1), int(q2), float(coeff)
    assert r.stdout.endswith("\n")


def test_expand_rejects_bad_inputs(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    r = run_cli("expand", "--spec", str(bad))
    assert r.returncode == 2
    assert r.stdout == ""
    assert len(r.stderr.strip().splitlines()) == 1

    notspd = tmp_path / "notspd.json"
    notspd.write_text(
        json.dumps(
            {
                "k": [1, 1],
                "Lambda": [[1.0, 0.0], [0.0, 1.0]],
                "Sigma": [[1.0, 2.0], [2.0, 1.0]],
                "Upsilon": [[1.0, 0.0], [0.0, 1.0]],
            }
        )
    )
    r = run_cli("expand", "--spec", str(notspd))
    assert r.returncode == 2
    assert "error:" in r.stderr

    mism = tmp_path / "mism.json"
    mism.write_text(
        json.dumps(
            {
                "k": [1, 1, 0],
                "Lambda": [[1.0, 0.0], [0.0, 1.0]],
                "Sigma": [[1.0, 0.0], [0.0, 1.0]],
                "Upsilon": [[1.0, 0.0], [0.0, 1.0]],
            }
        )
    )
    r = run_cli("expand", "--spec", str(mism))
    assert r.returncode == 2


def test_eval_family_values():
    r = run_cli("eval", "--family", "he", "--k", "2,1", "--at", "1.0,3.0")
    assert r.returncode == 0
    assert json.loads(r.stdout)["value"] == 0
    r = run_cli("eval", "--family", "h", "--k", "2", "--at", "1.0")
    assert json.loads(r.stdout)["value"] == 2
    r = run_cli("eval", "--family", "scaled:0.5", "--k", "2", "--at", "1.0")
    assert json.loads(r.stdout)["value"] == 2


def test_eval_point_with_negative_first_coordinate(capsys):
    expected = '{"family":"he","k":[2,1],"x":[-0.5,1],"value":-0.75}\n'
    for at in (["--at", "-0.5,1"], ["--at=-0.5,1"]):
        assert main(["eval", "--family", "he", "--k", "2,1", *at]) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (expected, "")
    r = run_cli("eval", "--family", "he", "--k", "2,1", "--at", "-0.5,1")
    assert (r.returncode, r.stdout) == (0, expected)


def test_eval_general_family(generic_spec):
    r = run_cli(
        "eval", "--family", "general", "--k", "2,1", "--at", "0.3,-0.4",
        "--spec", generic_spec,
    )
    assert r.returncode == 0
    spec = load_problem_spec(generic_spec)
    from hermult import hermite_multi

    expected = hermite_multi(
        (2, 1), DenseVector.from_entries([0.3, -0.4]), spd_factorize(spec.sigma)
    )
    assert json.loads(r.stdout)["value"] == expected


def test_expand_eval_round_trip_bit_exact(generic_spec, tmp_path):
    exp_path = tmp_path / "exp.json"
    r = run_cli("expand", "--spec", generic_spec)
    exp_path.write_text(r.stdout)
    point = "0.37,-1.42"
    ev = run_cli(
        "eval", "--expansion", str(exp_path), "--spec", generic_spec, "--at", point
    )
    assert ev.returncode == 0
    cli_value = json.loads(ev.stdout)["value"]

    spec = load_problem_spec(generic_spec)
    sig = spd_factorize(spec.sigma)
    ups = spd_factorize(spec.upsilon)
    terms = coeffs.expand_general(spec.k, spec.lam, sig, ups)
    x = DenseVector.from_entries([0.37, -1.42])
    assert cli_value == coeffs.evaluate_expansion(terms, x, ups)


def test_repeated_runs_byte_identical(generic_spec):
    a = run_cli("verify", "--suite", "main", "--seed", "7", "--trials", "40")
    b = run_cli("verify", "--suite", "main", "--seed", "7", "--trials", "40")
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0
    c = run_cli("expand", "--spec", generic_spec)
    d = run_cli("expand", "--spec", generic_spec)
    assert c.stdout == d.stdout


def test_verify_suites_exit_codes():
    ok = run_cli("verify", "--suite", "univariate", "--seed", "3", "--trials", "25")
    assert ok.returncode == 0
    out = json.loads(ok.stdout)
    assert out["suite"] == "univariate"
    assert out["report"]["failures"] == 0

    bad = run_cli(
        "verify", "--suite", "main", "--seed", "7", "--trials", "15",
        "--variant", "paper-literal",
    )
    assert bad.returncode == 1
    assert json.loads(bad.stdout)["report"]["failures"] > 0


def test_verify_all_aggregates():
    r = run_cli("verify", "--suite", "all", "--seed", "1", "--trials", "10")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert set(out["reports"].keys()) == {
        "main", "gf", "kron", "selector", "univariate",
    }
    for rep in out["reports"].values():
        assert rep["failures"] == 0


# sha256 of the stdout of `hermult verify --suite all --seed S` (default
# trials), recorded before the generating-function sweep, the integer
# Kronecker path and the per-shape caches: a speed change to any suite must
# leave its report byte for byte as it was.
VERIFY_ALL_STDOUT_SHA256 = {
    1: "b3fd5657ab11b9d2c34df1b4286a4538c5d1c4ce6532b370efdebc68470c7051",
    7: "084909d1087f21f20e8999e9fbaaf2a27657a17faaa75bdac9b482eb5eea7301",
    42: "f32f86d25e6b4dd443f8a04b4d49002ae44f452a441f45430b0d445ba9aa92e6",
    123: "c3e8a11d0b6034267583cc6dbf367cafad977c9e780041b01bd942d971f8a187",
    # 2**63 - 1: the largest seed the numpy-keyed stream took exactly.
    2**63 - 1: "e0877d9eb9ddbcb2ebaba0206a851e65c9c7856119293768c0485c2d9423be26",
}

# `hermult verify --suite kron --seed 3 --trials 2000`: many long streams.
VERIFY_KRON_LONG_STDOUT_SHA256 = (
    "e1faa27631cb44cce0954c69981fc57bb53be43e61e9d06c898fd104f564f273"
)

# `hermult verify --suite S --seed 5 --trials 1000`: the two suites whose
# trials run a float SPD factorisation and the gf suite's partial sum, and
# the univariate suite's closed forms, inner-product tables and exact
# coefficient chain.  Each was recorded before its suite's path was made
# cheaper.
VERIFY_LONG_STDOUT_SHA256 = {
    "gf": "46e135f41521a74e7e0c58f89369f8fddacff9ae1a3738a510f15b51882089e4",
    "main": "3ee324bb00f93dd12027628a159c39b10c625ae4d8dc26a260dd22717277bfda",
    "univariate": "598e9edd63170befbfc7c797c05850e6613d3dbe308e58fc16bb598ba99fa4e9",
}

# paper-literal fails its documented counterexample checks, so it exits 1.
VERIFY_ALL_PAPER_LITERAL_STDOUT_SHA256 = {
    1: "8c84cca3ba9c7f52d39c9cb33bb1374b10f51860c23532b7cb0e25fe24110f42",
}


@pytest.mark.parametrize("seed", sorted(VERIFY_ALL_STDOUT_SHA256))
def test_verify_all_output_is_pinned(seed):
    r = run_cli("verify", "--suite", "all", "--seed", str(seed))
    assert r.returncode == 0
    digest = hashlib.sha256(r.stdout.encode()).hexdigest()
    assert digest == VERIFY_ALL_STDOUT_SHA256[seed]


def test_verify_kron_long_run_output_is_pinned():
    r = run_cli("verify", "--suite", "kron", "--seed", "3", "--trials", "2000")
    assert r.returncode == 0
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == VERIFY_KRON_LONG_STDOUT_SHA256


@pytest.mark.parametrize("suite", sorted(VERIFY_LONG_STDOUT_SHA256))
def test_verify_long_run_output_is_pinned(suite):
    r = run_cli("verify", "--suite", suite, "--seed", "5", "--trials", "1000")
    assert r.returncode == 0
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == VERIFY_LONG_STDOUT_SHA256[suite]


@pytest.mark.parametrize("seed", sorted(VERIFY_ALL_PAPER_LITERAL_STDOUT_SHA256))
def test_verify_all_paper_literal_output_is_pinned(seed):
    r = run_cli(
        "verify", "--suite", "all", "--seed", str(seed), "--variant", "paper-literal"
    )
    assert r.returncode == 1
    digest = hashlib.sha256(r.stdout.encode()).hexdigest()
    assert digest == VERIFY_ALL_PAPER_LITERAL_STDOUT_SHA256[seed]


def test_oracle_compare_cli(permutation_spec):
    lit = run_cli(
        "oracle-compare", "--spec", permutation_spec, "--variant", "paper-literal"
    )
    assert lit.returncode == 1
    out = json.loads(lit.stdout)
    assert out["equal"] is False
    assert out["diff"] == [{"mono": [1, 1], "coeff": "1"}]

    sym = run_cli("oracle-compare", "--spec", permutation_spec)
    assert sym.returncode == 0
    assert json.loads(sym.stdout)["equal"] is True


# A float problem with Sigma = I and Upsilon = v v^T + 1e-9 I, each column
# of Lambda orthogonal to v: P = A Lambda Sigma^-1 is about 6e-10, and its
# rounding asymmetry exceeds 1e-10 relative.  Both covariances are valid.
NEAR_RANK_ONE_SPEC = {
    "k": [2, 1],
    "Lambda": [[0.7200000000000001, 0.48], [-0.63, -0.42]],
    "Sigma": [[1.0, 0.0], [0.0, 1.0]],
    "Upsilon": [
        [0.49000000099999996, 0.5599999999999999],
        [0.5599999999999999, 0.6400000010000001],
    ],
}


def test_expand_accepts_covariances_whose_products_are_tiny(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(NEAR_RANK_ONE_SPEC))
    r = run_cli("expand", "--spec", str(path))
    assert (r.returncode, r.stderr) == (0, "")
    # Its exact twin, each float written as its Fraction, passes the oracle.
    twin = {
        key: value if key == "k" else [[str(Fraction(v)) for v in row] for row in value]
        for key, value in NEAR_RANK_ONE_SPEC.items()
    }
    path.write_text(json.dumps(dict(twin, rational=True)))
    r = run_cli("oracle-compare", "--spec", str(path))
    assert r.returncode == 0
    assert json.loads(r.stdout)["equal"] is True


ORACLE_COMPARE_STDOUT = {
    "paper-literal": (
        1,
        '{"equal":false,"k":[1,1],"variant":"paper-literal",'
        '"lhs":[{"mono":[1,1],"coeff":"1"}],"rhs":[],'
        '"diff":[{"mono":[1,1],"coeff":"1"}]}\n',
    ),
    "symmetrized": (
        0,
        '{"equal":true,"k":[1,1],"variant":"symmetrized",'
        '"lhs":[{"mono":[1,1],"coeff":"1"}],'
        '"rhs":[{"mono":[1,1],"coeff":"1"}],"diff":[]}\n',
    ),
}


@pytest.mark.parametrize("variant", sorted(ORACLE_COMPARE_STDOUT))
def test_oracle_compare_cli_output_is_pinned(permutation_spec, variant):
    code, stdout = ORACLE_COMPARE_STDOUT[variant]
    r = run_cli("oracle-compare", "--spec", permutation_spec, "--variant", variant)
    assert r.returncode == code
    assert r.stdout == stdout


# Rational specs for oracle-compare beside the permutation spec pinned
# above, and the exit code and stdout sha256 under each variant, recorded
# before the oracle keyed its monomials by int codes (dense-4 before both
# sides were summed in nested form): a speed change to the oracle must
# leave its report byte for byte as it was.
ORACLE_SPECS = {
    "indefinite": {
        "k": [2, 1], "Lambda": [[1, 0], [0, 1]],
        "Sigma": [[1, 2], [2, 1]], "Upsilon": [[2, 0], [0, 3]],
    },
    "zero-row": {
        "k": [2, 2, 2],
        "Lambda": [["1/2", -1, "2/3"], [0, 0, 0], [1, "-1/3", 2]],
        "Sigma": [[3, 1, 0], [1, 2, "1/2"], [0, "1/2", 2]],
        "Upsilon": [[2, 1, 0], [1, 3, 1], [0, 1, 2]],
    },
    "decimal": {
        "k": [3, 2],
        "Lambda": [["-2.5e-1", 1], [2, "0.5"], ["1e0", "3/4"]],
        "Sigma": [[2, "1/3"], ["1/3", 1]],
        "Upsilon": [["1.5", 0, "0.25"], [0, 2, 0], ["0.25", 0, 1]],
    },
    "dense-4": {
        "k": [3, 2, 2, 1],
        "Lambda": [["1/2", -1, 0, "2/3"], [0, 0, 0, 0], [1, "1/3", -2, "1/2"], ["-3/4", 2, 1, "1/5"]],
        "Sigma": [[3, 1, "1/2", "1/3"], [1, 4, "-1/2", 1], ["1/2", "-1/2", 3, "1/4"], ["1/3", 1, "1/4", 2]],
        "Upsilon": [[2, "1/2", 0, 0], ["1/2", 3, 1, 0], [0, 1, 2, "1/3"], [0, 0, "1/3", 1]],
    },
}
ORACLE_STDOUT_SHA256 = {
    ("indefinite", "symmetrized"): (0, "c87d3747d4e1626d329d6738df0f08e6abda61527db2c478f783012f29ed5177"),
    ("indefinite", "paper-literal"): (1, "1b82059769771cb48290e2cc0f7cdc29f8ba6126c6273ae703e26b1e8243c23e"),
    ("zero-row", "symmetrized"): (0, "6fc225d7b2e5bfeb7d617de9207f39bb9b3c2d0f87ff4cf7087778061cfaa12e"),
    ("zero-row", "paper-literal"): (1, "7d924b6b0fd8d4e85167dd2f55a1e934852df6d0202c0c9a468ec5b233c9b5a2"),
    ("decimal", "symmetrized"): (0, "950b02c56a8dd967aef271c4dd0837e066c8cfcbe10e99978ed3e353ad08323e"),
    ("decimal", "paper-literal"): (1, "9ebc2b7020f9e13b6937558837c5a24def520479a498164679ff5d16ac6d4781"),
    ("dense-4", "symmetrized"): (0, "c7693b77579ef93827af18f6a31d0f3d21f9208184899e8e1c225576f4d9989a"),
    ("dense-4", "paper-literal"): (1, "6a92e1da147426c3eac2a631c1bd3e5e8383877b1a9a0b03b685aae4cfb3afd1"),
}


@pytest.mark.parametrize("name, variant", sorted(ORACLE_STDOUT_SHA256))
def test_oracle_compare_output_sha256_is_pinned(tmp_path, name, variant):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(ORACLE_SPECS[name], rational=True)))
    code, digest = ORACLE_STDOUT_SHA256[name, variant]
    r = run_cli("oracle-compare", "--spec", str(path), "--variant", variant)
    assert r.returncode == code
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest


# stdout sha256 of `hermult expand` on the same rational specs, under each
# variant and format, recorded while the exact table was still rescaled to
# Fractions in a pass of its own: the one-pass rescale must leave every
# table byte for byte as it was.
EXPAND_STDOUT_SHA256 = {
    ("decimal", "paper-literal", "csv"): "ae28f90f8356fa7336b99058ea307d212185f0b7a377713bb755009174f2bba4",
    ("decimal", "paper-literal", "json"): "45ced07ed752aa75ba1163e7ed6221f91e8a510b9bc5b7607abb5b3e52068656",
    ("decimal", "symmetrized", "csv"): "3f4a8d45ae2f34e65e31eef309e9ae894181f537b04c14ff7c4b9cd05fb84bb6",
    ("decimal", "symmetrized", "json"): "2f38df56156686205fbcbb8d72fe55573da24710054f607d7a072d7ea5009778",
    ("indefinite", "paper-literal", "csv"): "691215a2ad55237d6f56c493242272814a0649e5a718f7ed8a0306d5c9c25309",
    ("indefinite", "paper-literal", "json"): "f87ecd2e6b8336c7fc7541c897c297e25d639f3e5fc62336d59d1e0c7ac05a01",
    ("indefinite", "symmetrized", "csv"): "d4f19ac108c2918c3bdaeffed2bd6670f8ebf35caca7ea1f27ad1a9fa69ed207",
    ("indefinite", "symmetrized", "json"): "f6cf0e4e4d236328c1d9262c135a139c447a0102208ee3f6d8fa2c45d9a4ba19",
    ("zero-row", "paper-literal", "csv"): "78ba17f826819afb79142c1daffdddff938d746a95b24769b2c8ea5df0faad7d",
    ("zero-row", "paper-literal", "json"): "0211de423af2c103c373c90d4d0d04e1d40597e66e9c9294f648b9781a4d565c",
    ("zero-row", "symmetrized", "csv"): "3a413b40da60c2b6759aa83a27124802d03237101767c5f73d9b0ba5fa16203d",
    ("zero-row", "symmetrized", "json"): "a7102a816f98660dea5b72f4b53cfef99408b05700e2267101294c874bdddb7e",
}


@pytest.mark.parametrize("name, variant, fmt", sorted(EXPAND_STDOUT_SHA256))
def test_expand_output_sha256_is_pinned(tmp_path, capsys, name, variant, fmt):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(ORACLE_SPECS[name], rational=True)))
    code = main(["expand", "--spec", str(path), "--variant", variant, "--format", fmt])
    assert code == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == EXPAND_STDOUT_SHA256[name, variant, fmt]


def float_spec(seed, k):
    """A seeded float spec with n = m = len(k): Lambda entries in [-1, 1],
    covariances with diagonal in [1.5, 2.5] and off-diagonal entries in
    [-0.3, 0.3], so positive definite; every entry has three decimals."""
    rng = random.Random(seed)
    dim = len(k)

    def entry(lo, hi):
        return round(rng.uniform(lo, hi), 3)

    def cov():
        rows = [[0.0] * dim for _ in range(dim)]
        for i in range(dim):
            rows[i][i] = entry(1.5, 2.5)
            for j in range(i):
                rows[i][j] = rows[j][i] = entry(-0.3, 0.3)
        return rows

    lam = [[entry(-1, 1) for _ in range(dim)] for _ in range(dim)]
    return {"k": list(k), "Lambda": lam, "Sigma": cov(), "Upsilon": cov()}


FLOAT_SPECS = {"n3-k333": (13, (3, 3, 3)), "n4-k0125": (14, (0, 1, 2, 5))}

# stdout sha256 of `hermult expand` on the seeded float specs, recorded
# before the sweep plan was cached and the emitter wrote leaves inline: the
# float sweep and the float emitter must leave every byte as it was.
FLOAT_EXPAND_STDOUT_SHA256 = {
    ("n3-k333", "paper-literal", "csv"): "6e918046071aaf4a55cc145f23cdead2306f016d2e6aa728270b39959348e2f4",
    ("n3-k333", "paper-literal", "json"): "be0a819f1eb99392009bf7b2aff9efac184736f3a99ae51059963898d13d39ba",
    ("n3-k333", "symmetrized", "csv"): "c072c68f8165f29ad78e682e10694889731fcf702e5e8b0152b0e93ab0e73b85",
    ("n3-k333", "symmetrized", "json"): "138ce48a42ec14549670d013b64289af421d15e1f89481878b27e11e68117abe",
    ("n4-k0125", "paper-literal", "csv"): "beb7336755ad87934b07c7553dcb6befe82d298ab4997606a837af717a7a6eb8",
    ("n4-k0125", "paper-literal", "json"): "9e0d02325c95b71d1902a5deb0cf8f8d25f012e6077328094fec2cbf5e5e18d9",
    ("n4-k0125", "symmetrized", "csv"): "ff0c9a35a870392ad5d2e87a47e8f8b01f177a2e3aaf8941694a410ef8c9968b",
    ("n4-k0125", "symmetrized", "json"): "1086cc0eae9912fc206b5fb95ce579f09415758137d838aea89002064a3d3a93",
}


@pytest.mark.parametrize("name, variant, fmt", sorted(FLOAT_EXPAND_STDOUT_SHA256))
def test_float_expand_output_sha256_is_pinned(tmp_path, capsys, name, variant, fmt):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(float_spec(*FLOAT_SPECS[name])))
    code = main(["expand", "--spec", str(path), "--variant", variant, "--format", fmt])
    assert code == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == FLOAT_EXPAND_STDOUT_SHA256[name, variant, fmt]


# Specs of the `eval --family general` pins below: a seeded float spec and a
# rational oracle spec.
def eval_spec(name):
    if name == "decimal":
        return dict(ORACLE_SPECS["decimal"], rational=True)
    return float_spec(*FLOAT_SPECS[name])


# stdout sha256 of `hermult eval` on each family, keyed by (family, spec,
# k, point), recorded while each module still kept its own table of the
# families' inverse variances: reading b from the family must leave every
# evaluated byte as it was.
EVAL_STDOUT_SHA256 = {
    ('he', None, '2,1', '0.37,-1.42'): "8f304ad76da539aab1f7ecd1d8ac26f09e4e6390e880fd9becf1890252721399",
    ('he', None, '5', '-0.0'): "840e320d0bc874621ba3f5b38ff2e62118def707bbe4b5f0bd12a33471386cda",
    ('he', None, '3,0,4', '1.5,-0.25,2'): "b8ef964a142d70145c229bc62ac4b1730dbd9c5a3088f582a4d62f6badd52f85",
    ('h', None, '2,1', '0.37,-1.42'): "9659d673c88bf2d957b1c740d575242758fafab901f850757b6931d3dfa302db",
    ('h', None, '5', '-0.0'): "ae23bd5136b704bcc75d04b7c9356e5679e5e70d6d54d08974f581ba4d36a244",
    ('h', None, '3,0,4', '1.5,-0.25,2'): "55bad98e4f838787cf8422b17275c51e40721f0342f80b3277d301bcb08bbe82",
    ('scaled:0.7', None, '2,1', '0.37,-1.42'): "46cf091535c43411fa4e3594c6167ec589df0e108cb98c6b3abd2daf0dbd967e",
    ('scaled:0.7', None, '5', '-0.0'): "728d9d79b44f8f21216bf84ae2ac0471d71d512b5dbe3a16cf7de6ce218cc641",
    ('scaled:0.7', None, '3,0,4', '1.5,-0.25,2'): "69bff2ba0fc511e225c97fd091a61d7bdfb0dd322d2c21635287b509263eca83",
    ('general', 'n3-k333', '3,3,3', '0.37,-1.42,0.5'): "1e06494f232347be99dfdc6051568af771296084fa4756cf411c5ae7d87da27b",
    ('general', 'n3-k333', '2,0,1', '-0.0,1,0.25'): "7a29e516980ca46e6d25b07eca2dc5b34d3d9d44572b6e7a690b0a7a9cc14c1c",
    ('general', 'decimal', '3,2', '1/3,-2'): "51a64ce5d3fa7e61b250819410c9aa0e078aa0a60ca5e65d7c2f4a7c4786f32f",
    ('general', 'decimal', '1,1', '-0.0,0.5'): "24c117e7a7f86b346584e253954d91d6f144c073e78f84750364f022f0e489e8",
}


def eval_args(tmp_path, family, spec, k, at):
    args = ["eval", "--family", family, "--k", k, "--at", at]
    if spec is not None:
        path = tmp_path / f"{spec}-eval.json"
        path.write_text(json.dumps(eval_spec(spec)))
        args += ["--spec", str(path)]
    return args


@pytest.mark.parametrize("family, spec, k, at", sorted(EVAL_STDOUT_SHA256))
def test_eval_output_sha256_is_pinned(tmp_path, capsys, family, spec, k, at):
    assert main(eval_args(tmp_path, family, spec, k, at)) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == EVAL_STDOUT_SHA256[family, spec, k, at]


def other_interpreters():
    """python3.10 to python3.14 on PATH, but the running minor version,
    that answer --version: a pyenv shim of a version that is not selected
    exits non-zero, so it counts as absent."""
    found = []
    for minor in range(10, 15):
        exe = shutil.which(f"python3.{minor}")
        if minor != sys.version_info.minor and exe is not None:
            if subprocess.run([exe, "--version"], capture_output=True).returncode == 0:
                found.append(exe)
    return found


def test_float_pins_hold_on_other_interpreters(tmp_path):
    # Every float sum adds left to right from 0 on every Python (builtin
    # sum compensates float sums from 3.12 on), so other interpreters must
    # print the same pinned bytes.  Rational strings are read by the
    # package's own grammar, not by Fraction's, which has changed between
    # versions, so rational tables match too and "3 / 4" exits 2 everywhere.
    interpreters = other_interpreters()
    if not interpreters:
        pytest.skip("no other python3.10 to python3.14 on PATH")
    cases = [
        (("verify", "--suite", "all", "--seed", str(seed)), VERIFY_ALL_STDOUT_SHA256[seed])
        for seed in (1, 7)
    ]
    for (name, variant, fmt), digest in sorted(FLOAT_EXPAND_STDOUT_SHA256.items()):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(float_spec(*FLOAT_SPECS[name])))
        cases.append((("expand", "--spec", str(path), "--variant", variant, "--format", fmt), digest))
    for (name, variant, fmt), digest in sorted(EXPAND_STDOUT_SHA256.items()):
        path = tmp_path / f"{name}-rational.json"
        path.write_text(json.dumps(dict(ORACLE_SPECS[name], rational=True)))
        cases.append((("expand", "--spec", str(path), "--variant", variant, "--format", fmt), digest))
    for key, digest in sorted(EVAL_STDOUT_SHA256.items()):
        cases.append((eval_args(tmp_path, *key), digest))
    spaced = tmp_path / "spaced.json"
    spec = dict(ORACLE_SPECS["indefinite"], rational=True, Sigma=[["3 / 4", 0], [0, 1]])
    spaced.write_text(json.dumps(spec))
    refused = ("expand", "--spec", str(spaced))
    mismatched = []
    for exe in interpreters:
        for args, digest in cases:
            r = subprocess.run([exe, "-m", "hermult", *args], capture_output=True, text=True, env=CLI_ENV)
            if r.returncode != 0 or hashlib.sha256(r.stdout.encode()).hexdigest() != digest:
                mismatched.append((exe, *args))
        r = subprocess.run([exe, "-m", "hermult", *refused], capture_output=True, text=True, env=CLI_ENV)
        if r.returncode != 2 or r.stdout:
            mismatched.append((exe, *refused))
    assert mismatched == []


@pytest.mark.parametrize("command", ["expand", "oracle-compare"])
def test_rational_entries_are_bounded_before_parsing(tmp_path, capsys, command):
    spec = dict(ORACLE_SPECS["indefinite"], rational=True)
    path = tmp_path / "spec.json"
    # A huge decimal exponent is refused before Fraction expands it.
    path.write_text(json.dumps(dict(spec, Sigma=[["1e200000", 0], [0, 1]])))
    assert main([command, "--spec", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "exponent" in captured.err
    assert len(captured.err.splitlines()) == 1
    # Ordinary fractions, decimals and exponents still parse.
    path.write_text(json.dumps(dict(spec, Sigma=[["3/4", "-2.5e-1"], ["-2.5e-1", "1e3"]])))
    assert main([command, "--spec", str(path)]) == 0
    capsys.readouterr()


def test_oracle_compare_rejects_float_spec(generic_spec):
    r = run_cli("oracle-compare", "--spec", generic_spec)
    assert r.returncode == 2


# The rational permutation spec with one field made malformed: a zero
# denominator, a flag that is not a JSON boolean, booleans as index parts,
# a Lambda that is not an array of rows, a float entry in a rational spec,
# a "p/q" string in a float spec, and an Upsilon or Lambda of the wrong
# shape.  (A Sigma whose size does not match k is in
# test_expand_rejects_bad_inputs.)
MALFORMED_SPEC_FIELDS = [
    {"Sigma": [["1/0", 0], [0, 1]]},
    {"rational": "false"},
    {"k": [True, False]},
    {"Lambda": [0, 1]},
    {"Sigma": [[1.5, 0], [0, 1]]},
    {"rational": False, "Sigma": [["1/2", 0], [0, 1]]},
    {"Upsilon": [[1, 0]]},
    {"Lambda": [[0, 1, 0], [1, 0, 0]]},
]


@pytest.mark.parametrize("command", ["expand", "oracle-compare"])
@pytest.mark.parametrize(
    "fields",
    MALFORMED_SPEC_FIELDS,
    ids=["zero-denominator", "flag-string", "bool-k", "flat-lambda",
         "float-in-rational", "fraction-in-float", "upsilon-1x2", "lambda-2x3"],
)
def test_malformed_spec_is_an_input_error(tmp_path, capsys, command, fields):
    spec = {
        "k": [1, 1],
        "Lambda": [[0, 1], [1, 0]],
        "Sigma": [[1, 0], [0, 1]],
        "Upsilon": [[1, 0], [0, 1]],
        "rational": True,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(spec, **fields)))
    assert_one_line_input_error(capsys, main([command, "--spec", str(path)]))


@pytest.mark.parametrize("command", ["expand", "oracle-compare"])
@pytest.mark.parametrize(
    "content",
    [[{"k": [1]}], {"k": [1], "Lambda": [[1]], "Sigma": [[1]]}],
    ids=["json-array", "no-upsilon"],
)
def test_spec_file_that_is_not_a_spec_is_an_input_error(tmp_path, capsys, command, content):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(content))
    assert_one_line_input_error(capsys, main([command, "--spec", str(path)]))


def assert_one_line_input_error(capsys, code):
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("suite", ["main", "gf", "kron", "selector", "univariate", "all"])
@pytest.mark.parametrize("flag", [("--tol", "-1"), ("--seed", "-1"), ("--trials", "0")])
def test_verify_rejects_bad_trial_flags(capsys, suite, flag):
    assert main(["verify", "--suite", suite, *flag]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_expand_refuses_non_finite_coefficients(tmp_path, capsys, fmt):
    # |k| = 6 powers of 1e120 overflow: both formats exit 2 and print nothing.
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "k": [3, 3], "Lambda": [[1e120, 0.5], [0.25, 1e120]],
        "Sigma": [[1.0, 0.0], [0.0, 1.0]], "Upsilon": [[1.0, 0.0], [0.0, 1.0]],
    }))
    code = main(["expand", "--spec", str(path), "--format", fmt])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: result is beyond float range\n"


@pytest.mark.parametrize(
    "args",
    [
        ["eval", "--family", "he", "--k", "3", "--at", "1e200"],
        ["eval", "--family", "scaled:1e-300", "--k", "2", "--at", "1"],
        ["expand", "--format", "json"],
        ["expand", "--format", "csv"],
    ],
    ids=["eval-he", "eval-scaled", "expand-json", "expand-csv"],
)
def test_results_beyond_float_range_name_the_range(tmp_path, capsys, args):
    # Every float input is finite, so a non-finite result has overflowed:
    # its one error line says so, not that the writer cannot write it.
    if args[0] == "expand":
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"k": [3], "Lambda": [[1e120]], "Sigma": [[1.0]], "Upsilon": [[1.0]]}))
        args = [*args, "--spec", str(path)]
    code = main(args)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", "error: result is beyond float range\n")


# JSON holds integers of any size and reads 1e400 as inf: a float spec entry
# or expansion coefficient beyond float range, and an infinite index part,
# are input errors.
HUGE = 10**400


@pytest.mark.parametrize(
    "k, lam",
    [("[1, 1]", f"[[{HUGE}, 0], [0, 1]]"), ("[1, 1e400]", "[[1, 0], [0, 1]]")],
    ids=["lambda-int", "k-inf"],
)
def test_spec_entries_beyond_float_range_are_input_errors(tmp_path, capsys, k, lam):
    path = tmp_path / "spec.json"
    path.write_text(f'{{"k": {k}, "Lambda": {lam}, "Sigma": [[1, 0], [0, 1]], "Upsilon": [[1, 0], [0, 1]]}}')
    assert_one_line_input_error(capsys, main(["expand", "--spec", str(path)]))


def test_expansion_coefficient_beyond_float_range_is_an_input_error(
    tmp_path, capsys, monkeypatch, generic_spec
):
    # A coefficient beyond float range, a non-finite one, a term without its
    # q or coeff, terms that are not a list, a k that is not a list of
    # naturals and a variant that is no CoeffVariant value are each refused
    # in one line that names the field, before anything is evaluated.
    def evaluated(*args):
        raise AssertionError("a refused table was evaluated")

    monkeypatch.setattr(coeffs, "evaluate_expansion", evaluated)
    cases = [
        (json.dumps({"k": [2, 1], "terms": [{"q": [1, 0], "coeff": HUGE}]}), "float range"),
        ('{"k": [2, 1], "terms": [{"q": [1, 0], "coeff": 1e400}]}', "'coeff'"),
        ('{"k": [2, 1], "terms": [{"q": [1, 0], "coeff": NaN}]}', "'coeff'"),
        ('{"k": [2, 1], "terms": [{"q": [1, 0]}]}', "'coeff'"),
        ('{"k": [2, 1], "terms": [{"coeff": 0.5}]}', "'q'"),
        ('{"k": [2, 1], "terms": {"q": [1, 0], "coeff": 0.5}}', "'terms'"),
        ("[]", "'terms'"),
        ('{"k": NaN, "terms": []}', "'k'"),
        ('{"k": {"x": 1}, "terms": []}', "'k'"),
        ('{"k": [2, -1], "terms": []}', "'k'"),
        ('{"k": [], "terms": []}', "'k'"),
        ('{"variant": "zzz", "terms": []}', "'variant'"),
        ('{"variant": ["symmetrized"], "terms": []}', "'variant'"),
    ]
    path = tmp_path / "exp.json"
    argv = ["eval", "--expansion", str(path), "--spec", generic_spec, "--at", "0.5,1"]
    for text, field in cases:
        path.write_text(text)
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), text
        assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
        assert field in captured.err, text


def test_eval_expansion_echoes_a_valid_header(tmp_path, capsys, generic_spec):
    # Absent fields print null; a table written by expand keeps its own.
    path = tmp_path / "exp.json"
    argv = ["eval", "--expansion", str(path), "--spec", generic_spec, "--at", "0.5,1"]
    path.write_text('{"terms": [{"q": [1, 0], "coeff": 0.5}]}')
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["k"], out["variant"]) == (None, None)
    assert main(["expand", "--spec", generic_spec, "--variant", "paper-literal"]) == 0
    path.write_text(capsys.readouterr().out)
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["k"], out["variant"]) == ([2, 1], "paper-literal")


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--k", "2,1"],
        ["expand", "--bogus"],
        ["expand", "--spec", "spec.json", "--bogus"],
        ["eval", "--family", "he", "--k", "2,1", "--a", "-0.5,1"],
        ["verify", "--suite", "nope"],
        [],
        ["nope"],
        ["eval", "--family", "nope", "--k", "1", "--at", "0"],
        ["eval", "--expansion", "exp.json", "--at", "0"],
        ["eval", "--at", "0"],
        ["eval", "--family", "general", "--k", "1", "--at", "0"],
        ["eval", "--k", "1", "--at", ","],
    ],
    ids=["missing-at", "missing-spec", "unknown-flag", "abbreviated-at",
         "bad-choice", "no-command", "unknown-command", "unknown-family",
         "expansion-without-spec", "missing-k", "general-without-spec",
         "empty-point"],
)
def test_usage_errors_are_one_line(capsys, argv):
    assert_one_line_input_error(capsys, main(argv))


# `eval` reads a float (--at, scaled:S) by the decimal form of a rational
# string and a part of --k as ASCII digits, with whitespace only around
# them; the family checks its inverse variance when it is built.  Each of
# these exits 2 with one error line before anything is evaluated.
EVAL_REFUSED = {
    "underscore-point": ("--at", "1_000,"),
    "arabic-indic-point": ("--at", "\u0661"),
    "fullwidth-point": ("--at", "\uff11"),
    "underscore-exponent": ("--at", "1e1_0"),
    "inf-point": ("--at", "inf"),
    "nan-point": ("--at", "nan"),
    "infinity-point": ("--at", "-Infinity"),
    "overflowing-point": ("--at", "1e400"),
    "underscore-variance": ("--family", "scaled:1_0"),
    "arabic-indic-variance": ("--family", "scaled:\u0661"),
    "inf-variance": ("--family", "scaled:inf"),
    "subnormal-variance": ("--family", "scaled:1e-320"),
    "signed-k": ("--k", "+1"),
    "arabic-indic-k": ("--k", "\u0661"),
    "underscore-k": ("--k", "1_0"),
}


@pytest.mark.parametrize("name", sorted(EVAL_REFUSED))
def test_eval_reads_numbers_by_one_ascii_grammar(capsys, name):
    flags = {"--family": "he", "--k": "1", "--at": "1"}
    flag, value = EVAL_REFUSED[name]
    flags[flag] = value
    assert_one_line_input_error(capsys, main(["eval", *chain.from_iterable(flags.items())]))


def test_eval_reads_decimal_floats_and_ascii_naturals(capsys):
    argv = ["eval", "--family", "scaled: 0.5", "--k", " 0,1 ,0,0", "--at", " 1.5 ,.5,5.,+1E+1"]
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["k"], out["x"], out["value"]) == ([0, 1, 0, 0], [1.5, 0.5, 5.0, 10.0], 1.0)


# Each field of --at is a number, read as a float or, under a rational spec,
# as a rational; an empty field exits 2 with one error line.
EMPTY_FIELD_POINTS = [("1,,2", "1,1"), ("1,", "2"), (",1", "2"), ("", "2"), (" , ", "1,1")]


@pytest.mark.parametrize("rational", [False, True], ids=["float", "rational"])
@pytest.mark.parametrize("at, k", EMPTY_FIELD_POINTS)
def test_eval_refuses_an_empty_point_field(tmp_path, capsys, rational, at, k):
    argv = ["eval", "--k", k, f"--at={at}"]
    if rational:
        n = len(k.split(","))
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(
            {"k": [0] * n, "Lambda": eye, "Sigma": eye, "Upsilon": eye, "rational": True}
        ))
        argv += ["--family", "general", "--spec", str(path)]
    assert_one_line_input_error(capsys, main(argv))


@pytest.mark.parametrize("argv", [["--help"], ["eval", "--help"]])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: hermult")


def test_rational_mode_needs_symmetry_only(tmp_path):
    # indefinite but symmetric and invertible: fine in rational mode,
    # rejected in float mode (which demands positive definiteness)
    base = {
        "k": [1, 1],
        "Lambda": [[1, 0], [0, 1]],
        "Sigma": [[1, 2], [2, 1]],
        "Upsilon": [[2, 0], [0, 3]],
    }
    rat = tmp_path / "rat.json"
    rat.write_text(json.dumps(dict(base, rational=True)))
    r = run_cli("expand", "--spec", str(rat))
    assert r.returncode == 0
    flt = tmp_path / "flt.json"
    flt.write_text(
        json.dumps(
            {k: ([[float(v) for v in row] for row in val] if k != "k" else val)
             for k, val in base.items()}
        )
    )
    r = run_cli("expand", "--spec", str(flt))
    assert r.returncode == 2


# Rational specs whose Upsilon is not symmetric, or singular: `expand`
# must refuse them as `oracle-compare` does.
BAD_RATIONAL_COVARIANCE_SPECS = {
    "asymmetric-upsilon": {
        "k": [2, 1], "Lambda": [[1, 0], [0, 0]],
        "Sigma": [[1, 0], [0, 1]], "Upsilon": [[1, 1], [0, 1]],
    },
    "singular-upsilon": {
        "k": [2, 0], "Lambda": [[1, 0], [0, 1]],
        "Sigma": [[1, 0], [0, 1]], "Upsilon": [[0, 0], [0, 0]],
    },
}


@pytest.mark.parametrize("command", ["expand", "oracle-compare"])
@pytest.mark.parametrize("name", sorted(BAD_RATIONAL_COVARIANCE_SPECS))
def test_rational_covariances_are_checked(tmp_path, capsys, command, name):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(BAD_RATIONAL_COVARIANCE_SPECS[name], rational=True)))
    code = main([command, "--spec", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert len(captured.err.splitlines()) == 1


def test_eval_expansion_with_indefinite_rational_upsilon(tmp_path, capsys):
    # Upsilon is symmetric and invertible but indefinite: `eval --expansion`
    # takes it as `expand` does, and the right side it evaluates equals the
    # oracle's left side.
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "k": [2, 1], "Lambda": [[1, 0], [0, 1]], "Sigma": [[2, 0], [0, 3]],
        "Upsilon": [[1, 2], [2, 1]], "rational": True,
    }))
    assert main(["expand", "--spec", str(path)]) == 0
    expansion = tmp_path / "exp.json"
    expansion.write_text(capsys.readouterr().out)
    spec = load_problem_spec(str(path))
    lhs = oracle_compare(spec.k, spec.lam, spec.sigma, spec.upsilon).lhs
    for point in ("1,2", "-1/2,3", "0,0", "7/3,-5"):
        code = main(["eval", "--expansion", str(expansion), "--spec", str(path), f"--at={point}"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        value = json.loads(captured.out)["value"]
        assert Fraction(value) == poly_value(lhs, point.split(","))
        if point == "1,2":
            assert value == "-1/6"


def test_eval_general_family_is_exact_for_rational_spec(tmp_path, capsys):
    # A rational spec's point parses exactly and its value prints as "p/q",
    # with Sigma (indefinite here) read through its exact inverse.
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(ORACLE_SPECS["indefinite"], rational=True)))
    sigma = load_problem_spec(str(path)).sigma
    # k = 0 is the recurrence's int 1, which prints as "1" too.
    for k, point in (("2,1", "1/2,2"), ("1,3", "-3,5/7"), ("0,2", "1,1"), ("0,0", "1,1")):
        code = main(["eval", "--family", "general", "--k", k, f"--at={point}", "--spec", str(path)])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        out = json.loads(captured.out)
        assert out["x"] == [str(Fraction(v)) for v in point.split(",")]
        family = SymbolicHermiteFamily(invert_matrix(sigma))
        expected = family.poly([int(v) for v in k.split(",")])
        assert isinstance(out["value"], str)
        assert Fraction(out["value"]) == poly_value(expected, point.split(","))


def test_eval_of_an_empty_rational_expansion_prints_an_exact_zero(tmp_path, capsys):
    # A zero map sends k = (1, 0) to no terms; the empty sum is the int 0,
    # and a rational spec prints it as "0" as it prints every exact value.
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "k": [1, 0], "Lambda": [[0, 0], [0, 0]], "Sigma": [[1, 0], [0, 1]],
        "Upsilon": [[2, 1], [1, 2]], "rational": True,
    }))
    assert main(["expand", "--spec", str(path)]) == 0
    captured = capsys.readouterr().out
    assert json.loads(captured)["terms"] == []
    expansion = tmp_path / "exp.json"
    expansion.write_text(captured)
    code = main(["eval", "--expansion", str(expansion), "--spec", str(path), "--at=1/2,1"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert json.loads(captured.out)["value"] == "0"


def test_main_entry_in_process(capsys, identity_spec):
    code = main(["expand", "--spec", identity_spec])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["terms"] == [{"q": [2, 1], "coeff": 1}]


def test_dumps_formats():
    s = dumps({"a": 0.1, "b": [1, None, True], "c": "x"})
    assert s == '{"a":0.10000000000000001,"b":[1,null,true],"c":"x"}'
    assert json.loads(s)["a"] == 0.1
    doc = {
        "flags": [True, False, None],
        "exact": Fraction(-7, 3),
        "floats": [-0.0, 5e-324, 1e300],
        "big": 123456789012345678901234567890,
        "pair": (1, 2.5),
        "nested": {1: {2: [], "\u00e9": {}}},
        "text": '\u00e9\u20ac "q" \\ \n\t\x01',
    }
    assert dumps(doc) == (
        '{"flags":[true,false,null],"exact":"-7/3",'
        '"floats":[-0,4.9406564584124654e-324,1.0000000000000001e+300],'
        '"big":123456789012345678901234567890,"pair":[1,2.5],'
        '"nested":{"1":{"2":[],"\\u00e9":{}}},'
        '"text":"\\u00e9\\u20ac \\"q\\" \\\\ \\n\\t\\u0001"}'
    )
    assert dumps(doc["text"]) == json.dumps(doc["text"])

    class Real(float):
        pass

    assert dumps([Real(0.1), Real(-0.0)]) == "[0.10000000000000001,-0]"
    for bad in (math.nan, math.inf, -math.inf, Real(math.inf), {1, 2}, object()):
        with pytest.raises(DomainError):
            dumps({"v": [bad]})


# sha256 over `dumps` of 640 seeded float expand documents (below),
# recorded with the recursive writer before lists of uniform rows took a
# table path: that path must leave every byte as it was.
SEEDED_EXPAND_DUMPS_SHA256 = "bdf41f34be17c054594ea23c08bddb2d93da7e990e0e9dbe28de27457a146916"


def seeded_expand_documents(count=640, seed=23):
    """The documents `hermult expand` writes for `count` seeded float specs
    at n = m = 2..4 and |k| <= 12, both variants in turn."""
    rng = random.Random(seed)
    variants = [v.value for v in coeffs.CoeffVariant]
    for i in range(count):
        n = 2 + i % 3
        degree = rng.randint(1, 12)
        cuts = sorted(rng.randint(0, degree) for _ in range(n - 1))
        k = [b - a for a, b in zip([0, *cuts], [*cuts, degree])]
        spec = float_spec(rng.randrange(2**31), k)
        variant = variants[i % 2]
        sigma, upsilon = (
            spd_factorize(DenseMatrix.from_rows(spec[name])) for name in ("Sigma", "Upsilon")
        )
        lam = DenseMatrix.from_rows(spec["Lambda"])
        terms = coeffs.expand_general(k, lam, sigma, upsilon, coeffs.CoeffVariant(variant))
        yield {
            "k": k,
            "variant": variant,
            "terms": [{"q": t.q.to_list(), "coeff": float(t.coeff)} for t in terms],
        }


def test_seeded_expand_documents_are_pinned():
    h = hashlib.sha256()
    for doc in seeded_expand_documents():
        h.update(dumps(doc).encode() + b"\n")
    assert h.hexdigest() == SEEDED_EXPAND_DUMPS_SHA256


def reference_dumps(obj):
    """The JSON text `dumps` writes, one value at a time."""
    if obj is None or isinstance(obj, bool):
        return json.dumps(obj)
    if isinstance(obj, Fraction):
        return json.dumps(str(obj))
    if isinstance(obj, int):
        return repr(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise DomainError(f"cannot serialize non-finite number {obj!r}")
        return format(float(obj), ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(map(reference_dumps, obj)) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(json.dumps(str(k)) + ":" + reference_dumps(v) for k, v in obj.items()) + "}"
    raise DomainError(f"cannot serialize {type(obj).__name__}")


class Tag(str):
    def __str__(self):
        return "tag"


class Real(float):
    pass


class Count(int):
    def __repr__(self):
        return "7"


class Ratio(Fraction):
    def __str__(self):
        return "ratio"


class Rows(list):
    pass


Pair = namedtuple("Pair", "first second")


# Lists of dicts that the table path writes (True) or leaves to the general
# writer (False); each must read as reference_dumps writes it.
TABLE_CASES = [
    (True, [{"q": [2, 0], "coeff": 0.1}, {"q": [1, 1], "coeff": -0.0}, {"q": [0, 2], "coeff": 5e-324}]),
    (True, [{"mono": [3], "coeff": "-7/3"}, {"mono": [1], "coeff": "1"}]),
    (True, [{"q": [10**30, -1], "coeff": Fraction(-7, 3)}, {"q": [0, 0], "coeff": Fraction(2)}]),
    (True, [{"%d": 1e300, "é€": "x%sy \"q\" \\ \n\x01"}, {"%d": -1.5, "é€": ""}]),
    (True, [{}, {}]),
    (True, [{"q": []}, {"q": []}]),
    (True, ({"a": 1}, {"a": 2})),
    (False, [{"a": 1, "b": 2}, {"b": 2, "a": 1}]),
    (False, [{}, {"a": 1}]),
    (False, [{1: 2}, {1: 3}]),
    (False, [{1: 0}, {True: 0}]),
    (False, [{"a": 0}, {Tag("a"): 0}]),
    (False, [{"a": True}, {"a": False}]),
    (False, [{"a": None}, {"a": None}]),
    (False, [{"a": 1}, {"a": 1.5}]),
    (False, [{"a": 0.5}, {"a": Real(0.1)}]),
    (False, [{"a": 1}, {"a": Count(3)}]),
    (False, [{"q": [1]}, {"q": [1, 2]}]),
    (False, [{"q": [[1]]}, {"q": [[2]]}]),
    (False, [{"q": [True]}, {"q": [1]}]),
    (False, [{"q": [0.5]}, {"q": [1.5]}]),
    (False, [{"q": (1, 2)}, {"q": (3, 4)}]),
    (False, [{"a": {"b": 1}}, {"a": {"b": 2}}]),
    (False, [{"a": 1}, [1]]),
    (True, Rows([{"q": [1], "coeff": 0.5}, {"q": [0], "coeff": -1.5}])),
    (True, Pair({"a": "x"}, {"a": "y"})),
    (False, [OrderedDict(a=1, b=[2]), OrderedDict(a=3, b=[4])]),
    (False, [{"a": Rows([1, 2])}, {"a": Rows([3, 4])}]),
    (False, [{"a": Pair(1, 2.5)}, {"a": Pair("x", None)}]),
    (False, [{"a": Ratio(1, 3)}, {"a": Ratio(-2)}]),
    (False, [{"a": Fraction(1, 3)}, {"a": Ratio(1, 3)}]),
]


@pytest.mark.parametrize("tabled, rows", TABLE_CASES)
def test_table_path_writes_the_general_writers_bytes(tabled, rows):
    assert (cli._table_text(rows) is not None) == tabled
    assert dumps(rows) == reference_dumps(rows)
    assert dumps({"terms": rows}) == reference_dumps({"terms": rows})


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_table_path_leaves_non_finite_floats_to_the_general_writer(bad):
    rows = [{"q": [1], "coeff": 0.5}, {"q": [0], "coeff": bad}]
    with pytest.raises(DomainError) as exc:
        dumps(rows)
    assert str(exc.value) == f"cannot serialize non-finite number {bad!r}"


# The child loads hermult, runs verify, expand and oracle-compare
# in-process, and prints every module it then holds.
IMPORT_GUARD_CHILD = """
import contextlib, io, json, sys
from hermult import cli
runs = [["verify", "--suite", "all", "--seed", "1"]]
for path in sys.argv[1:]:
    runs += [["expand", "--spec", path], ["oracle-compare", "--spec", path]]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)
print(*sys.modules)
"""


def test_commands_load_only_the_standard_library(tmp_path):
    # pyproject lists no runtime dependency: every module the commands load
    # beyond a bare interpreter's (which holds whatever site loads) must be
    # in the standard library or in hermult.
    paths = []
    specs = [dict(spec, rational=True) for spec in ORACLE_SPECS.values()]
    specs += [float_spec(*args) for args in FLOAT_SPECS.values()]
    for i, spec in enumerate(specs):
        path = tmp_path / f"spec{i}.json"
        path.write_text(json.dumps(spec))
        paths.append(str(path))

    def modules(*argv):
        r = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=CLI_ENV)
        assert r.returncode == 0, r.stderr
        return set(r.stdout.split())

    bare = modules("-c", "import sys; print(*sys.modules)")
    loaded = modules("-c", IMPORT_GUARD_CHILD, *paths)
    assert "hermult.polyoracle" in loaded and "hermult.verify" in loaded
    foreign = sorted(
        name
        for name in loaded - bare
        if name.partition(".")[0] not in sys.stdlib_module_names | {"hermult"}
    )
    assert foreign == []


def test_singular_float_covariance_exits_2(tmp_path):
    # Sigma = Lambda^T Upsilon Lambda with n = 2 > m = 1 has rank 1; its
    # pivots stay positive by rounding, and it is refused as singular to
    # working precision with one error line.
    a, b = 0.1, 1 / 7
    path = tmp_path / "singular.json"
    path.write_text(
        json.dumps(
            {
                "k": [1, 1],
                "Lambda": [[a, b]],
                "Sigma": [[a * a, a * b], [a * b, b * b]],
                "Upsilon": [[1.0]],
            }
        )
    )
    proc = run_cli("expand", "--spec", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: covariance is singular to working precision")


def test_parser_is_built_once_and_dispatch_reads_the_module(monkeypatch, capsys):
    assert cli.build_parser() is cli.build_parser()
    seen = []

    def handler(args):
        seen.append(args.at)
        return "handled", 0

    monkeypatch.setattr(cli, "_cmd_eval", handler)
    assert main(["eval", "--family", "he", "--k", "2", "--at", "0.5"]) == 0
    assert capsys.readouterr().out == "handled\n"
    assert seen == ["0.5"]
    monkeypatch.undo()
    # A usage error leaves the shared parser as it was.
    assert main(["eval", "--family", "he", "--k", "2"]) == 2
    assert main(["eval", "--family", "he", "--k", "2", "--at", "0.5"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == -0.75


def test_writer_is_resolved_once_per_type():
    class Count(int):
        def __repr__(self):
            return "seven"

    class Odd:
        pass

    assert Count not in cli._WRITE
    assert dumps([Count(3), True]) == "[seven,true]"
    assert cli._WRITE[Count] is cli._WRITE[int]
    for _ in range(2):
        with pytest.raises(DomainError, match="cannot serialize Odd"):
            dumps({"v": Odd()})
    assert Odd not in cli._WRITE


# A file nested past the recursion limit makes `json.load` raise
# RecursionError; each command that reads JSON reports it as an input error.
@pytest.mark.parametrize("command", ["expand", "oracle-compare", "eval-spec", "eval-expansion"])
def test_json_nested_past_the_recursion_limit_is_an_input_error(
    tmp_path, capsys, generic_spec, command
):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    argv = {
        "expand": ["expand", "--spec", str(deep)],
        "oracle-compare": ["oracle-compare", "--spec", str(deep)],
        "eval-spec": ["eval", "--family", "general", "--k", "1,1", "--spec", str(deep), "--at", "0,0"],
        "eval-expansion": ["eval", "--expansion", str(deep), "--spec", generic_spec, "--at", "0,0"],
    }[command]
    assert_one_line_input_error(capsys, main(argv))
