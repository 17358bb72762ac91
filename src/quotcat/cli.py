"""Command line interface.

Subcommands: generate, verify, cotorsion, fraction.  Exit codes: 0 when all
clauses pass, 1 on a theorem-clause failure, 2 on usage or data errors
(including malformed category files and budgets, and inputs too large to
build in memory), 3 when no clause failed but some ran out of budget.
Budgets come from an optional JSON config file (QUOTCAT_CONFIG or --config)
overridden by flags.

Fraction expression grammar (prefix notation, whitespace separated):

    stmt := 'equal?' frac frac | 'compose' frac frac | 'invert' mor
          | 'cokernel' frac | 'kernel' frac | frac
    frac := '[' mor ',' mor ']'          (denominator first, then numerator)
    mor  := SRC ':' DST ':' INDEX        (basis element of the quotient)
          | 'id' ':' OBJ
          | 'zero' ':' SRC ':' DST
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .catfile import load_category, parse_object_spec, resolve_object_name, save_category
from .clustergen import build_cluster_category
from .errors import (
    BoundsExceeded,
    GenerationError,
    MissingSuspension,
    NoCokernel,
    NoKernel,
    NotRegular,
    QuotcatError,
    ShapeError,
)
from .linalg import GF, QQ
from .localization import (
    Fraction,
    compose_fractions,
    fractions_equal,
    invert_regular,
    localised_cokernel,
    localised_kernel,
)
from .preabelian import Budget
from .quotient import build_quotient
from .verify import run_cotorsion, run_verification

EXIT_OK = 0
EXIT_CLAUSE_FAIL = 1
EXIT_USAGE = 2
EXIT_BOUNDS = 3


def _load_budget(args) -> Budget:
    data = {}
    path = getattr(args, "config", None) or os.environ.get("QUOTCAT_CONFIG")
    if path:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ShapeError(f"budget config {path} must hold a JSON object")
        data.update(config)
    for key in ("seed", "retries", "grid_cap", "scan_pairs_cap"):
        val = getattr(args, key, None)
        if val is not None:
            data[key] = val
    return Budget.from_dict(data)


def _field_from_arg(name: str):
    if name in ("Q", "QQ", "q"):
        return QQ
    m = re.fullmatch(r"[Ff]p?([0-9]+)", name)
    if not m:
        raise ShapeError(f"unknown field {name!r}; use Q or F<p>")
    return GF(int(m.group(1)))


def _object_set(P, spec: str) -> set[int]:
    """The indecomposables named in 'P1+P2' (or comma-separated), aliases accepted."""
    return parse_object_spec(P, spec).support()


def cmd_generate(args) -> int:
    field = _field_from_arg(args.field)
    P = build_cluster_category(args.n, args.orientation, field)
    save_category(P, args.out)
    print(f"wrote {args.out}: {P.n} indecomposables over {args.field}")
    return EXIT_OK


def cmd_verify(args) -> int:
    budget = _load_budget(args)
    P = load_category(args.category)
    if (args.T is None) == (args.subcat is None):
        print("error: pass exactly one of --T or --subcat", file=sys.stderr)
        return EXIT_USAGE
    if args.T is not None:
        T = parse_object_spec(P, args.T)
        report = run_verification(P, t_spec=T, budget=budget)
    else:
        report = run_verification(P, subcat=_object_set(P, args.subcat), budget=budget)
    text = json.dumps(report, indent=1, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return {"pass": EXIT_OK, "bounds-exceeded": EXIT_BOUNDS}.get(report["overall"], EXIT_CLAUSE_FAIL)


def cmd_cotorsion(args) -> int:
    P = load_category(args.category)
    # --V "" is V = 0, as in the cotorsion pair (C, 0)
    V = None if args.V is None else set() if args.V == "" else _object_set(P, args.V)
    report = run_cotorsion(P, _object_set(P, args.U), V)
    print(json.dumps(report, indent=1, sort_keys=True))
    return EXIT_OK if report["overall"] == "pass" else EXIT_CLAUSE_FAIL


# -- the fraction expression evaluator ---------------------------------------


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items = [
            (m.start(), m.group(0)) for m in re.finditer(r"\[|\]|,|[^\s\[\],]+", text)
        ]
        self.pos = 0

    def peek(self):
        return self.items[self.pos][1] if self.pos < len(self.items) else None

    def next(self):
        if self.pos >= len(self.items):
            raise ShapeError(f"unexpected end of expression at position {len(self.text)}")
        tok = self.items[self.pos]
        self.pos += 1
        return tok

    def expect(self, want: str):
        off, tok = self.next()
        if tok != want:
            raise ShapeError(f"expected {want!r} at position {off}, found {tok!r}")
        return tok

    def expect_end(self):
        if self.pos < len(self.items):
            off, tok = self.items[self.pos]
            raise ShapeError(f"unexpected {tok!r} at position {off} after a complete expression")


def _parse_morphism(Q, tokens: _Tokens):
    off, tok = tokens.next()
    parts = tok.split(":")
    try:
        if parts[0] == "id" and len(parts) == 2:
            return Q.identity(Q.single(resolve_object_name(Q, parts[1])))
        if parts[0] == "zero" and len(parts) == 3:
            return Q.zero_morphism(
                Q.single(resolve_object_name(Q, parts[1])),
                Q.single(resolve_object_name(Q, parts[2])),
            )
        if len(parts) == 3:
            i = resolve_object_name(Q, parts[0])
            j = resolve_object_name(Q, parts[1])
            if not re.fullmatch(r"[0-9]+", parts[2]):
                raise ShapeError(f"basis index {parts[2]!r} is not a non-negative integer")
            a = int(parts[2])
            if not (0 <= a < Q.hom_dim(i, j)):
                raise ShapeError(f"basis index {a} out of range for ({parts[0]}, {parts[1]})")
            return Q.basis_morphism(i, j, a)
    except ShapeError as e:
        raise ShapeError(f"at position {off}: {e}") from None
    raise ShapeError(f"cannot parse morphism {tok!r} at position {off}")


def _parse_fraction(Q, tokens: _Tokens) -> Fraction:
    tokens.expect("[")
    if tokens.peek() == "id":
        # bare id: the identity on the numerator's source
        tokens.next()
        tokens.expect(",")
        num = _parse_morphism(Q, tokens)
        tokens.expect("]")
        return Fraction(Q, Q.identity(num.source), num)
    denom = _parse_morphism(Q, tokens)
    tokens.expect(",")
    num = _parse_morphism(Q, tokens)
    tokens.expect("]")
    return Fraction(Q, denom, num)


def _show_morphism(Q, m) -> str:
    coeffs = ",".join(Q.field.fmt(x) for x in m.to_vector())
    return f"({Q.obj_name(m.source)} -> {Q.obj_name(m.target)}: [{coeffs}])"


def _show_fraction(Q, F: Fraction) -> str:
    return (
        f"[{Q.obj_name(F.source)} <= {Q.obj_name(F.aux)} => {Q.obj_name(F.target)};"
        f" denom {_show_morphism(Q, F.denom)}, num {_show_morphism(Q, F.num)}]"
    )


# the forms whose arguments are fractions, and how many each takes
_FRACTION_FORMS = {"equal?": 2, "compose": 2, "cokernel": 1, "kernel": 1}


def evaluate_fraction_expression(Q, text: str, budget: Budget) -> str:
    """The printed value of one expression.  The whole text is parsed
    first, so a token left after a complete expression is refused before
    the expression is evaluated."""
    tokens = _Tokens(text)
    head = tokens.peek()
    if head == "invert":
        tokens.next()
        args = [_parse_morphism(Q, tokens)]
    elif head in _FRACTION_FORMS:
        tokens.next()
        args = [_parse_fraction(Q, tokens) for _ in range(_FRACTION_FORMS[head])]
    else:
        args = [_parse_fraction(Q, tokens)]
    tokens.expect_end()
    if head == "equal?":
        return "true" if fractions_equal(Q, *args, budget) else "false"
    if head == "compose":
        return _show_fraction(Q, compose_fractions(Q, *args, budget))
    if head == "invert":
        return _show_fraction(Q, invert_regular(Q, *args))
    if head == "cokernel":
        return _show_fraction(Q, localised_cokernel(Q, *args, budget))
    if head == "kernel":
        return _show_fraction(Q, localised_kernel(Q, *args, budget))
    return _show_fraction(Q, *args)


# exit codes from least to most severe: the worst over all expressions wins
_SEVERITY = [EXIT_OK, EXIT_BOUNDS, EXIT_CLAUSE_FAIL, EXIT_USAGE]


def cmd_fraction(args) -> int:
    budget = _load_budget(args)
    P = load_category(args.category)
    T = parse_object_spec(P, args.T)
    Q = build_quotient(P, T).presentation
    status = EXIT_OK
    for expr in args.expressions:
        try:
            print(evaluate_fraction_expression(Q, expr, budget))
        except (BoundsExceeded, ShapeError, NotRegular, NoKernel, NoCokernel, MemoryError) as e:
            status = max(status, _failure(e), key=_SEVERITY.index)
    return status


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="quotcat", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a type-A cluster category file")
    g.add_argument("n", type=_int_arg)
    g.add_argument("out")
    g.add_argument("--orientation", default=None, help="string of < and > of length n-1")
    g.add_argument("--field", default="Q", help="Q (default) or F<p>")
    g.set_defaults(fn=cmd_generate)

    v = sub.add_parser("verify", help="run all theorem clauses for one T")
    v.add_argument("category")
    v.add_argument("--T", default=None, help="object spec, e.g. P1+P2+P3")
    v.add_argument("--subcat", default=None, help="explicit subcategory to quotient by")
    v.add_argument("--out", default=None, help="also write the report here")
    _budget_flags(v)
    v.set_defaults(fn=cmd_verify)

    c = sub.add_parser("cotorsion", help="check cotorsion clauses (a) and (b)")
    c.add_argument("category")
    c.add_argument("U", help="object spec for U, e.g. P2+P3+SP3")
    c.add_argument("--V", default=None, help='explicit V, "" for V = 0 (default: the perp of U)')
    c.set_defaults(fn=cmd_cotorsion)

    f = sub.add_parser("fraction", help="evaluate fraction expressions over C/X_T")
    f.add_argument("category")
    f.add_argument("T", help="object spec for the rigid T")
    f.add_argument("expressions", nargs="+")
    _budget_flags(f)
    f.set_defaults(fn=cmd_fraction)
    return ap


def _int_arg(text: str) -> int:
    """int(text) for ASCII text only, since int() also reads the digits of
    other scripts; argparse reports a refusal as it does for type=int."""
    try:
        return int(text.encode("ascii"))
    except ValueError:  # UnicodeEncodeError included
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _budget_flags(p):
    p.add_argument("--config", default=None, help="budget config JSON (or QUOTCAT_CONFIG)")
    p.add_argument("--seed", type=_int_arg, default=None)
    p.add_argument("--retries", type=_int_arg, default=None)
    p.add_argument("--grid-cap", dest="grid_cap", type=_int_arg, default=None)
    p.add_argument("--scan-pairs-cap", dest="scan_pairs_cap", type=_int_arg, default=None)


def _failure(e: Exception) -> int:
    """Print e as one stderr line and return its exit code: 3 when out of
    budget, 2 for usage and data errors and for an input too large to build
    in memory, 1 for any other library error."""
    if isinstance(e, BoundsExceeded):
        print(f"bounds exceeded: {e}", file=sys.stderr)
        return EXIT_BOUNDS
    if isinstance(e, MemoryError):
        print("error: out of memory: the input is too large to build", file=sys.stderr)
        return EXIT_USAGE
    print(f"error: {e}", file=sys.stderr)
    usage = (GenerationError, ShapeError, MissingSuspension, OSError, ValueError)
    return EXIT_USAGE if isinstance(e, usage) else EXIT_CLAUSE_FAIL


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (QuotcatError, OSError, ValueError, MemoryError) as e:
        return _failure(e)


if __name__ == "__main__":
    sys.exit(main())
