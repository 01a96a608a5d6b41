"""Command-line front end: expansion tables, evaluation, verification
suites, and exact oracle comparison.

All configuration is explicit flags (no environment variables), output is
UTF-8 with newline-terminated records, and floats are emitted with 17
significant digits so that every number round-trips bit-for-bit.

Exit codes: 0 success, 1 verification/comparison failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import coeffs, polyoracle, verify
from .coeffs import CoeffVariant, ExpansionTerm
from .errors import DimensionMismatchError, DomainError, HermultError
from .hermite import (
    PHYSICISTS,
    PROBABILISTS,
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
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)


def _emit(obj, out: list[str]) -> None:
    # Exact types first: the isinstance chain below pays an ABC check for
    # Fraction on every number.
    t = type(obj)
    if t is float:
        _emit_float(obj, out)
    elif t is int:
        out.append(repr(obj))
    elif t is str:
        out.append(_encode_str(obj))
    elif t is list:
        _emit_items(obj, out)
    elif t is dict:
        _emit_dict(obj, out)
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, Fraction):
        out.append(_encode_str(str(obj)))
    elif isinstance(obj, int):
        out.append(repr(obj))
    elif isinstance(obj, float):
        _emit_float(obj, out)
    elif isinstance(obj, str):
        out.append(_encode_str(obj))
    elif isinstance(obj, (list, tuple)):
        _emit_items(obj, out)
    elif isinstance(obj, dict):
        _emit_dict(obj, out)
    else:
        raise DomainError(f"cannot serialize {type(obj).__name__}")


def _emit_float(obj, out: list[str]) -> None:
    if not math.isfinite(obj):
        raise DomainError(f"cannot serialize non-finite number {obj!r}")
    out.append(format(obj, ".17g"))


def _emit_items(obj, out: list[str]) -> None:
    out.append("[")
    for i, v in enumerate(obj):
        if i:
            out.append(",")
        _emit(v, out)
    out.append("]")


def _emit_dict(obj, out: list[str]) -> None:
    out.append("{")
    for i, (k, v) in enumerate(obj.items()):
        if i:
            out.append(",")
        out.append(_encode_str(str(k)))
        out.append(":")
        _emit(v, out)
    out.append("}")


def _scalar_out(v):
    """Fractions pass through (emitted as "p/q"); everything else to float."""
    return v if isinstance(v, Fraction) else float(v)


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
    return float(v)


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


def _variant(token: str) -> CoeffVariant:
    return CoeffVariant(token)


def _cmd_expand(args) -> int:
    spec = load_problem_spec(args.spec)
    variant = _variant(args.variant)
    terms = coeffs.expand_general(
        spec.k, spec.lam, covariance(spec.sigma), covariance(spec.upsilon), variant
    )
    if args.format == "csv":
        m = spec.upsilon.rows
        header = ",".join([f"q_{j + 1}" for j in range(m)] + ["coeff"])
        lines = [header]
        for t in terms:
            coeff = str(t.coeff) if spec.rational else format(float(t.coeff), ".17g")
            lines.append(",".join([str(p) for p in t.q.parts] + [coeff]))
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        obj = {
            "k": spec.k.to_list(),
            "variant": variant.value,
            "terms": [
                {
                    "q": t.q.to_list(),
                    "coeff": Fraction(t.coeff) if spec.rational else float(t.coeff),
                }
                for t in terms
            ],
        }
        sys.stdout.write(dumps(obj) + "\n")
    return 0


def _parse_point(token: str, rational: bool) -> list:
    vals = [v.strip() for v in token.split(",") if v.strip()]
    if not vals:
        raise DomainError("empty evaluation point")
    if rational:
        return [polyoracle.as_rational(v) for v in vals]
    return [float(v) for v in vals]


def _parse_family(token: str) -> HermiteFamily:
    if token == "he":
        return PROBABILISTS
    if token == "h":
        return PHYSICISTS
    if token.startswith("scaled:"):
        return HermiteFamily.scaled(float(token.split(":", 1)[1]))
    raise DomainError(f"unknown family {token!r}")


def _cmd_eval(args) -> int:
    if args.expansion:
        if not args.spec:
            raise DomainError("--expansion also requires --spec for the covariance")
        spec = load_problem_spec(args.spec)
        x = _parse_point(args.at, rational=spec.rational)
        xv = DenseVector.from_entries(x)
        with open(args.expansion, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        terms = [
            ExpansionTerm(MultiIndex.of(t["q"]), _parse_entry(t["coeff"], spec.rational))
            for t in raw["terms"]
        ]
        value = coeffs.evaluate_expansion(terms, xv, covariance(spec.upsilon))
        obj = {
            "k": raw.get("k"),
            "variant": raw.get("variant"),
            "x": x,
            "value": _scalar_out(value),
        }
        sys.stdout.write(dumps(obj) + "\n")
        return 0
    if not args.k:
        raise DomainError("--k is required unless --expansion is given")
    k = MultiIndex.of(int(v) for v in args.k.split(","))
    if args.family == "general":
        if not args.spec:
            raise DomainError("family 'general' requires --spec for the covariance")
        spec = load_problem_spec(args.spec)
        x = _parse_point(args.at, rational=spec.rational)
        value = hermite_multi(k, DenseVector.from_entries(x), covariance(spec.sigma))
    else:
        x = _parse_point(args.at, rational=False)
        value = hermite_multi_product(
            k, DenseVector.from_entries(x), _parse_family(args.family)
        )
    obj = {"family": args.family, "k": k.to_list(), "x": x, "value": _scalar_out(value)}
    sys.stdout.write(dumps(obj) + "\n")
    return 0


def _run_suite(name: str, args) -> verify.VerifyReport:
    run, default_tol = verify.SUITES[name]
    tol = default_tol if args.tol is None else args.tol
    # Built for the selector suite too, which draws no trials, so that every
    # suite rejects the same bad --seed, --trials and --tol.
    cfg = verify.TrialConfig(seed=args.seed, trials=args.trials, tol_rel=tol)
    return run(cfg, _variant(args.variant))


def _cmd_verify(args) -> int:
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    reports = {name: _run_suite(name, args) for name in names}
    if args.suite == "all":
        obj = {
            "suite": "all",
            "reports": {k: r.to_json_obj() for k, r in reports.items()},
        }
    else:
        obj = {"suite": args.suite, "report": reports[args.suite].to_json_obj()}
    sys.stdout.write(dumps(obj) + "\n")
    return 1 if any(r.failures for r in reports.values()) else 0


def _cmd_oracle_compare(args) -> int:
    spec = load_problem_spec(args.spec)
    result = polyoracle.oracle_compare(
        spec.k, spec.lam, spec.sigma, spec.upsilon, _variant(args.variant)
    )
    obj = {
        "equal": result.equal,
        "k": spec.k.to_list(),
        "variant": args.variant,
        "lhs": result.lhs.to_json_obj(),
        "rhs": result.rhs.to_json_obj(),
        "diff": result.diff.to_json_obj(),
    }
    sys.stdout.write(dumps(obj) + "\n")
    return 0 if result.equal else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermult",
        description=(
            "Expansion coefficients, evaluation, and verification for "
            "multivariate Hermite polynomials under linear maps."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", help="expansion table for one spec file")
    p_expand.add_argument("--spec", required=True, help="JSON problem spec file")
    p_expand.add_argument(
        "--variant",
        choices=["symmetrized", "paper-literal"],
        default="symmetrized",
    )
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
    p_verify.add_argument(
        "--variant",
        choices=["symmetrized", "paper-literal"],
        default="symmetrized",
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_oracle = sub.add_parser(
        "oracle-compare",
        help="exact symbolic comparison of both sides of one expansion",
    )
    p_oracle.add_argument("--spec", required=True, help="JSON problem spec file")
    p_oracle.add_argument(
        "--variant",
        choices=["symmetrized", "paper-literal"],
        default="symmetrized",
    )
    p_oracle.set_defaults(func=_cmd_oracle_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except HermultError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
