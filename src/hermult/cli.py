"""Command-line front end: expansion tables, evaluation, verification
suites, and exact oracle comparison.

All configuration is explicit flags (no environment variables), output is
UTF-8 with newline-terminated records, and floats are emitted with 17
significant digits, so every number but -0.0 parses back to the exact
double; -0.0 prints as `-0`, which `json.loads` reads as the int 0.  Each
command returns its text and exit code, and `main` writes that text, so
stdout has one write site.

`dumps` writes a value by `_WRITE`, one writer for each of None, bool, int,
float, str, Fraction, list, tuple and dict: a subclass writes as the first
type in its MRO that the table names, and any other type is refused.  The
list writer writes a list of flat dicts, such as an expansion table's rows,
with one `%` format when every row is an exact `dict` with the first row's
exact `str` keys in its order, and each column holds one exact type: finite
`float`, `int`, `Fraction`, `str`, or equal-length `list`s of exact `int`s.
The bytes are the per-value writers': `"%.17g" % x` and `format(x, ".17g")`
both call `PyOS_double_to_string(x, "g", 17, 0)`, `%d` of an exact int is its
`repr`, `%s` of an exact Fraction its `str`, and keys and strings share one
encoder.  Any other list is written value by value, errors included.

Exit codes: 0 success, 1 verification/comparison failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from . import coeffs, polyoracle, verify
from .coeffs import CoeffVariant, ExpansionTerm
from .errors import DimensionMismatchError, DomainError, HermultError
from .hermite import (
    FAMILIES_BY_NAME,
    HermiteFamily,
    hermite_multi,
    hermite_multi_product,
)
from .multiindex import MultiIndex
from .tensorlin import DenseMatrix, DenseVector, covariance


# The encoder json.dumps applies to a str under its default ensure_ascii.
_encode_str = json.encoder.encode_basestring_ascii


def dumps(obj) -> str:
    """Deterministic JSON with floats at 17 significant digits."""
    return _emit(obj)


def _emit(obj) -> str:
    # The writer of the first type in obj's MRO that _WRITE names, so a
    # subclass writes as its base.
    for t in type(obj).__mro__:
        write = _WRITE.get(t)
        if write is not None:
            return write(obj)
    raise DomainError(f"cannot serialize {type(obj).__name__}")


def _float_text(obj) -> str:
    if not math.isfinite(obj):
        raise DomainError(f"cannot serialize non-finite number {obj!r}")
    return "%.17g" % obj


# Table-path cells by a column's one exact type (int lists: one %d per entry).
_CELL = {float: "%.17g", int: "%d", Fraction: '"%s"', str: "%s"}


def _table_text(rows) -> str | None:
    """A list of flat dicts as text (see the module docstring), or None."""
    if set(map(type, rows)) != {dict} or not set(map(type, chain.from_iterable(rows))) <= {str}:
        return None
    keys = tuple(rows[0])
    if list(map(tuple, rows)).count(keys) != len(rows):
        return None
    cells, columns = [], []
    for key, col in zip(keys, zip(*map(dict.values, rows))):
        kinds = set(map(type, col))
        kind = kinds.pop() if len(kinds) == 1 else None
        int_lists = kind is list and set(map(type, chain.from_iterable(col))) <= {int}
        if int_lists and len(set(map(len, col))) == 1:
            cell = "[" + ",".join(["%d"] * len(col[0])) + "]"
            columns += zip(*col)
        elif kind in _CELL and (kind is not float or all(map(math.isfinite, col))):
            cell = _CELL[kind]
            columns.append(map(_encode_str, col) if kind is str else col)
        else:
            return None
        cells.append(_encode_str(key).replace("%", "%%") + ":" + cell)
    row = "{" + ",".join(cells) + "}"
    return ("[" + ",".join([row] * len(rows)) + "]") % tuple(chain.from_iterable(zip(*columns)))


def _items_text(obj) -> str:
    text = obj and type(obj[0]) is dict and _table_text(obj)
    return text or "[" + ",".join(map(_emit, obj)) + "]"


def _dict_text(obj) -> str:
    return "{" + ",".join([_encode_str(str(k)) + ":" + _emit(v) for k, v in obj.items()]) + "}"


# Each writable type and its writer; _emit reads it.
_WRITE = {
    type(None): lambda v: "null",
    bool: lambda v: "true" if v else "false",
    int: repr,
    float: _float_text,
    str: _encode_str,
    Fraction: lambda v: _encode_str(str(v)),
    list: _items_text,
    tuple: _items_text,
    dict: _dict_text,
}


def _scalar_out(v, rational: bool):
    """A Fraction (emitted as "p/q") for a rational input, else a float: an
    exact value may be the int 1 of H_0 or the int 0 of an empty sum.  Every
    float input is finite, so a float result that is not has overflowed."""
    v = Fraction(v) if rational else float(v)
    if not (rational or math.isfinite(v)):
        raise DomainError("result is beyond float range")
    return v


@dataclass(frozen=True)
class ProblemSpec:
    """One expansion problem as read from a JSON spec file."""

    k: MultiIndex
    lam: DenseMatrix
    sigma: DenseMatrix
    upsilon: DenseMatrix
    rational: bool


def _parse_entry(v, rational: bool):
    if rational:
        if isinstance(v, bool) or isinstance(v, float):
            raise DomainError(
                f"rational spec entries must be integers or 'p/q' strings, got {v!r}"
            )
        return polyoracle.as_rational(v)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise DomainError(f"numeric entry expected, got {v!r}")
    try:
        return float(v)
    except OverflowError:
        raise DomainError("integer entry is beyond float range") from None


def _parse_matrix(obj, name: str, rational: bool) -> DenseMatrix:
    if (
        not isinstance(obj, list)
        or not obj
        or not all(isinstance(row, list) and row for row in obj)
    ):
        raise DomainError(f"{name} must be a non-empty array of row arrays")
    return DenseMatrix.from_rows(
        [[_parse_entry(v, rational) for v in row] for row in obj]
    )


def load_problem_spec(path: str) -> ProblemSpec:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise DomainError("spec file must contain a JSON object")
    for field in ("k", "Lambda", "Sigma", "Upsilon"):
        if field not in raw:
            raise DomainError(f"spec file missing field {field!r}")
    rational = raw.get("rational", False)
    if not isinstance(rational, bool):
        raise DomainError(
            f"spec field 'rational' must be true or false, got {rational!r}"
        )
    k = MultiIndex.of(raw["k"])
    lam = _parse_matrix(raw["Lambda"], "Lambda", rational)
    sigma = _parse_matrix(raw["Sigma"], "Sigma", rational)
    upsilon = _parse_matrix(raw["Upsilon"], "Upsilon", rational)
    n, m = k.arity, upsilon.rows
    if sigma.rows != sigma.cols or sigma.rows != n:
        raise DimensionMismatchError(
            f"Sigma must be {n}x{n} to match k, got {sigma.rows}x{sigma.cols}"
        )
    if upsilon.rows != upsilon.cols:
        raise DimensionMismatchError("Upsilon must be square")
    if lam.rows != m or lam.cols != n:
        raise DimensionMismatchError(
            f"Lambda must be {m}x{n}, got {lam.rows}x{lam.cols}"
        )
    return ProblemSpec(k=k, lam=lam, sigma=sigma, upsilon=upsilon, rational=rational)


def _cmd_expand(args) -> tuple[str, int]:
    spec = load_problem_spec(args.spec)
    variant = CoeffVariant(args.variant)
    terms = coeffs.expand_general(
        spec.k, spec.lam, covariance(spec.sigma), covariance(spec.upsilon), variant
    )
    if args.format == "csv":
        m = spec.upsilon.rows
        header = ",".join([f"q_{j + 1}" for j in range(m)] + ["coeff"])
        lines = [header]
        for t in terms:
            coeff = str(t.coeff) if spec.rational else _float_text(_scalar_out(t.coeff, False))
            lines.append(",".join([str(p) for p in t.q.parts] + [coeff]))
        return "\n".join(lines), 0
    obj = {
        "k": spec.k.to_list(),
        "variant": variant.value,
        "terms": [
            {"q": t.q.to_list(), "coeff": _scalar_out(t.coeff, spec.rational)}
            for t in terms
        ],
    }
    return dumps(obj), 0


def _parse_terms(raw, rational: bool) -> list[ExpansionTerm]:
    """The terms of an `expand` JSON table, each with a finite coefficient."""
    if not isinstance(raw, list):
        raise DomainError("expansion field 'terms' must be a list")
    terms = []
    for t in raw:
        for field in ("q", "coeff"):
            if not isinstance(t, dict) or field not in t:
                raise DomainError(f"expansion term missing field {field!r}")
        coeff = _parse_entry(t["coeff"], rational)
        if isinstance(coeff, float) and not math.isfinite(coeff):
            raise DomainError(f"expansion field 'coeff' is not finite: {coeff!r}")
        terms.append(ExpansionTerm(MultiIndex.of(t["q"]), coeff))
    return terms


def _parse_header(raw: dict) -> tuple:
    """The `k` and `variant` of an `expand` JSON table, each None if absent."""
    k, variant = raw.get("k"), raw.get("variant")
    if k is not None:
        try:
            k = MultiIndex.of(k).to_list()
        except (HermultError, TypeError):
            raise DomainError(
                f"expansion field 'k' must be a list of naturals, got {k!r}"
            ) from None
    choices = _VARIANT["choices"]
    if variant is not None and variant not in choices:
        raise DomainError(
            f"expansion field 'variant' must be one of {', '.join(choices)}, got {variant!r}"
        )
    return k, variant


# `eval` reads a float by the decimal form of a rational string, and a part
# of --k as ASCII digits, with whitespace only around either.
_FLOAT = re.compile(rf"\s*{polyoracle.DECIMAL}\s*")
_NATURAL = re.compile(r"\s*[0-9]+\s*")


def _parse_float(token: str) -> float:
    value = float(token) if _FLOAT.fullmatch(token) else math.nan
    if not math.isfinite(value):
        raise DomainError(f"not a finite decimal number: {token!r}")
    return value


def _parse_point(token: str, rational: bool) -> list:
    read = polyoracle.as_rational if rational else _parse_float
    return [read(v) for v in token.split(",")]


def _parse_family(token: str) -> HermiteFamily:
    if token.startswith("scaled:"):
        return HermiteFamily.scaled(_parse_float(token.split(":", 1)[1]))
    if token not in FAMILIES_BY_NAME:
        raise DomainError(f"unknown family {token!r}")
    return FAMILIES_BY_NAME[token]


def _cmd_eval(args) -> tuple[str, int]:
    if args.expansion:
        if not args.spec:
            raise DomainError("--expansion also requires --spec for the covariance")
        spec = load_problem_spec(args.spec)
        x = _parse_point(args.at, rational=spec.rational)
        xv = DenseVector.from_entries(x)
        with open(args.expansion, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        terms = _parse_terms(raw.get("terms") if isinstance(raw, dict) else None, spec.rational)
        k, variant = _parse_header(raw)
        value = coeffs.evaluate_expansion(terms, xv, covariance(spec.upsilon))
        obj = {
            "k": k,
            "variant": variant,
            "x": x,
            "value": _scalar_out(value, spec.rational),
        }
        return dumps(obj), 0
    if not args.k:
        raise DomainError("--k is required unless --expansion is given")
    parts = args.k.split(",")
    if not all(map(_NATURAL.fullmatch, parts)):
        raise DomainError(f"--k must be naturals of ASCII digits, got {args.k!r}")
    k = MultiIndex.of(map(int, parts))
    if args.family == "general":
        if not args.spec:
            raise DomainError("family 'general' requires --spec for the covariance")
        spec = load_problem_spec(args.spec)
        rational = spec.rational
        x = _parse_point(args.at, rational=rational)
        value = hermite_multi(k, DenseVector.from_entries(x), covariance(spec.sigma))
    else:
        rational = False
        x = _parse_point(args.at, rational=rational)
        value = hermite_multi_product(
            k, DenseVector.from_entries(x), _parse_family(args.family)
        )
    obj = {"family": args.family, "k": k.to_list(), "x": x, "value": _scalar_out(value, rational)}
    return dumps(obj), 0


def _run_suite(name: str, args) -> verify.VerifyReport:
    run, default_tol = verify.SUITES[name]
    tol = default_tol if args.tol is None else args.tol
    # Built for the selector suite too, which draws no trials, so that every
    # suite rejects the same bad --seed, --trials and --tol.
    cfg = verify.TrialConfig(seed=args.seed, trials=args.trials, tol_rel=tol)
    return run(cfg, CoeffVariant(args.variant))


def _cmd_verify(args) -> tuple[str, int]:
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    reports = {name: _run_suite(name, args) for name in names}
    if args.suite == "all":
        obj = {
            "suite": "all",
            "reports": {k: r.to_json_obj() for k, r in reports.items()},
        }
    else:
        obj = {"suite": args.suite, "report": reports[args.suite].to_json_obj()}
    return dumps(obj), 1 if any(r.failures for r in reports.values()) else 0


def _cmd_oracle_compare(args) -> tuple[str, int]:
    spec = load_problem_spec(args.spec)
    result = polyoracle.oracle_compare(
        spec.k, spec.lam, spec.sigma, spec.upsilon, CoeffVariant(args.variant)
    )
    obj = {
        "equal": result.equal,
        "k": spec.k.to_list(),
        "variant": args.variant,
        "lhs": result.lhs.to_json_obj(),
        "rhs": result.rhs.to_json_obj(),
        "diff": result.diff.to_json_obj(),
    }
    return dumps(obj), 0 if result.equal else 1


class _Parser(argparse.ArgumentParser):
    """Usage errors raise, so `main` reports them in one line; the
    subcommand parsers are made of this class too."""

    def error(self, message):
        raise DomainError(message)


# The --variant flag of expand, verify and oracle-compare.
_VARIANT = {"choices": [v.value for v in CoeffVariant], "default": CoeffVariant.SYMMETRIZED.value}


def _add_spec_and_variant(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", required=True, help="JSON problem spec file")
    p.add_argument("--variant", **_VARIANT)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hermult",
        description=(
            "Expansion coefficients, evaluation, and verification for "
            "multivariate Hermite polynomials under linear maps."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", help="expansion table for one spec file")
    _add_spec_and_variant(p_expand)
    p_expand.add_argument("--format", choices=["json", "csv"], default="json")
    p_expand.set_defaults(func=_cmd_expand)

    p_eval = sub.add_parser("eval", help="evaluate a polynomial or an expansion")
    p_eval.add_argument(
        "--family",
        default="he",
        help="he | h | scaled:SIGMA_SQ | general (general needs --spec)",
    )
    p_eval.add_argument("--k", help="comma-separated multi-index, e.g. 2,1")
    p_eval.add_argument("--at", required=True, help="comma-separated point")
    p_eval.add_argument("--spec", help="JSON problem spec file")
    p_eval.add_argument(
        "--expansion",
        help="JSON output of `expand`; evaluates its right-hand side at --at",
    )
    p_eval.set_defaults(func=_cmd_eval)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument(
        "--suite",
        choices=[*verify.SUITES, "all"],
        required=True,
    )
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.add_argument("--tol", type=float, default=None)
    p_verify.add_argument("--variant", **_VARIANT)
    p_verify.set_defaults(func=_cmd_verify)

    p_oracle = sub.add_parser(
        "oracle-compare",
        help="exact symbolic comparison of both sides of one expansion",
    )
    _add_spec_and_variant(p_oracle)
    p_oracle.set_defaults(func=_cmd_oracle_compare)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a point such as -0.5,1 for an option; joined to its
    # flag it can only be the value.
    i = argv.index("--at") if "--at" in argv[:-1] else -1
    if i >= 0 and not argv[i + 1].startswith("--"):
        argv[i : i + 2] = [f"--at={argv[i + 1]}"]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        text, code = args.func(args)
        sys.stdout.write(text + "\n")
        return code
    except (HermultError, OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
