"""Command-line frontend.

Subcommands: count, reduce, transform, reconstruct, dickson, hverify,
table, selftest.  Output is a human-readable line per result by default,
or one JSON object per line with --json.  Exit codes: 0 success/verified,
1 usage error, 2 size bound exceeded, 3 falsification (a formula/oracle
mismatch or a failed theorem verification).

Polynomial arguments use the ascending coefficient-list format ("1,0,1",
extension-field coefficients as "[a0 a1]"); pass --human to supply the
"x^2+1" form instead (it is also auto-detected).  Fields are named "p" or
"p^k".  The environment variable QTK_SIZE_BOUND overrides the default
degree bound of the hverify subcommand.

All arithmetic lives in the library modules; this module only parses
arguments and formats results.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from . import counting, errors, hfactor
from .gf import element_from_text, field_from_name, least_nonsquare
from .moebius import expr_parse, reduce_canonical, classify_sigma
from .poly import Polynomial, parse_poly
from .transform import DicksonParams, dickson, reconstruct, transform

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SIZE_BOUND = 2
EXIT_MISMATCH = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _emit(obj: dict, json_mode: bool):
    if json_mode:
        print(json.dumps(obj, sort_keys=True))
    else:
        print("  ".join(f"{k}={_plain(v)}" for k, v in obj.items()))


def _plain(v):
    if isinstance(v, dict):
        if "coeffs" in v:  # polynomial: coefficient list plus human annotation
            return f"{v['coeffs']} ({v.get('human', '')})"
        return json.dumps(v, sort_keys=True)
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(str(_plain(x)) for x in v) + "]"
    return v


def _parse_poly_arg(spec, text: str, human: bool) -> Polynomial:
    if human:
        from .poly import _parse_human
        return _parse_human(spec, text)
    return parse_poly(spec, text)


def _parse_expr_arg(spec, text: str | None):
    if text is None:
        raise _UsageError("this command needs --expr")
    return expr_parse(spec, text)


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="qtk", description=__doc__.splitlines()[0])
    parser.add_argument("--json", action="store_true",
                        help="emit one JSON object per line")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_common(p, expr=False, f_arg=False, sigma=False, n=False):
        p.add_argument("--field", required=True, help='field, e.g. "3" or "3^2"')
        p.add_argument("--human", action="store_true",
                       help="parse polynomial arguments in x^2+1 form")
        if n:
            p.add_argument("--n", type=int, required=True)
        if expr:
            p.add_argument("--expr", help='rational expression "g / h"')
        if sigma:
            p.add_argument("--sigma", help="nonzero field element")
        if f_arg:
            p.add_argument("--f", required=True, help="input polynomial")

    p = sub.add_parser("count", help="closed-form counts, optionally vs oracle")
    add_common(p, expr=True, sigma=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--variant", required=True,
                   choices=list(counting.VARIANTS))
    p.add_argument("--oracle", action="store_true",
                   help="recompute by brute force and compare")

    p = sub.add_parser("reduce", help="canonical reduction of an expression")
    add_common(p, expr=True)

    p = sub.add_parser("transform", help="apply the quadratic transformation")
    add_common(p, expr=True, f_arg=True)
    p.add_argument("--monic", action="store_true")

    p = sub.add_parser("reconstruct", help="invert the sigma-form transformation")
    add_common(p)
    p.add_argument("--sigma", required=True, help="nonzero field element")
    p.add_argument("--F", required=True, dest="big_f", help="invariant polynomial")

    p = sub.add_parser("dickson", help="Dickson polynomial of the first kind")
    add_common(p, n=True)
    p.add_argument("--a", required=True, help="parameter a")

    p = sub.add_parser("hverify", help="verify the factorization of H")
    add_common(p, expr=True, sigma=True, n=True)
    p.add_argument("--size-bound", type=int, default=None)

    p = sub.add_parser("table", help="count grid over fields and degrees")
    p.add_argument("--fields", default="2,3,4,5,7,8,9",
                   help="comma-separated field names")
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--variant", default="carlitz", choices=["carlitz", "sigma"])
    p.add_argument("--oracle", action="store_true")

    p = sub.add_parser("selftest", help="quick formula-vs-oracle sweep")
    p.add_argument("--seed", type=int, default=0)
    return parser


def cmd_count(args, json_mode: bool) -> int:
    spec = field_from_name(args.field)
    sigma = element_from_text(spec, args.sigma) if args.sigma else None
    expr = _parse_expr_arg(spec, args.expr) if args.expr else None
    query = counting.CountQuery(spec, args.n, args.variant, sigma=sigma, expr=expr)
    res = counting.evaluate(query)
    out = {"cmd": "count", "field": spec.name, "n": args.n,
           "variant": args.variant, "value": res.value, "epsilon": res.epsilon,
           "delta": res.delta, "branch": res.formula_branch}
    status = _oracle_verdict(out, query, res.value) if args.oracle else EXIT_OK
    _emit(out, json_mode)
    return status


def _oracle_verdict(out: dict, query: counting.CountQuery, value: int) -> int:
    """Add the oracle count and its verdict to out; EXIT_MISMATCH if they differ."""
    oracle = counting.brute_count(query)
    out.update(oracle=oracle, verdict="MATCH" if oracle == value else "MISMATCH")
    return EXIT_OK if oracle == value else EXIT_MISMATCH


def cmd_reduce(args, json_mode: bool) -> int:
    spec = field_from_name(args.field)
    r = _parse_expr_arg(spec, args.expr)
    form, trail = reduce_canonical(r)
    cls = classify_sigma(r)
    out = {"cmd": "reduce", "field": spec.name, "expr": r.to_text(),
           "kind": form.kind.value,
           "sigma": form.sigma.to_text() if form.sigma is not None else None,
           "class": cls.value,
           "trail": [s.to_text() for s in trail.steps],
           "end": trail.end.to_text()}
    _emit(out, json_mode)
    return EXIT_OK


def cmd_transform(args, json_mode: bool) -> int:
    spec = field_from_name(args.field)
    f = _parse_poly_arg(spec, args.f, args.human)
    r = _parse_expr_arg(spec, args.expr)
    t = transform(f, r, monic=args.monic)
    out = {"cmd": "transform", "field": spec.name, "f": f.to_json_dict(),
           "expr": r.to_text(), "result": t.result.to_json_dict(),
           "degree_dropped": t.degree_dropped, "monic": args.monic}
    _emit(out, json_mode)
    return EXIT_OK


def cmd_reconstruct(args, json_mode: bool) -> int:
    spec = field_from_name(args.field)
    big_f = _parse_poly_arg(spec, args.big_f, args.human)
    sigma = element_from_text(spec, args.sigma)
    f = reconstruct(big_f, sigma)
    out = {"cmd": "reconstruct", "field": spec.name, "F": big_f.to_json_dict(),
           "sigma": sigma.to_text(), "f": f.to_json_dict()}
    _emit(out, json_mode)
    return EXIT_OK


def cmd_dickson(args, json_mode: bool) -> int:
    spec = field_from_name(args.field)
    a = element_from_text(spec, args.a)
    d = dickson(DicksonParams(args.n, a))
    out = {"cmd": "dickson", "field": spec.name, "n": args.n,
           "a": a.to_text(), "result": d.to_json_dict()}
    _emit(out, json_mode)
    return EXIT_OK


def cmd_hverify(args, json_mode: bool) -> int:
    spec = field_from_name(args.field)
    if args.expr:
        r = _parse_expr_arg(spec, args.expr)
        report = hfactor.verify_meyn_generalized(r, args.n, args.size_bound)
    elif args.sigma:
        sigma = element_from_text(spec, args.sigma)
        report = hfactor.verify_meyn_product(sigma, args.n, args.size_bound)
    else:
        raise _UsageError("hverify needs --expr or --sigma")
    _emit(report.to_json_dict() if json_mode else
          {"cmd": "hverify", "field": spec.name, "n": args.n,
           "factors": len(report.factors), "degrees": report.degree_multiset(),
           "checks": len(report.checks), "ok": report.ok}, json_mode)
    return EXIT_OK


def cmd_table(args, json_mode: bool) -> int:
    if args.n_max < 1:
        raise errors.InvalidArgument("--n-max must be >= 1")
    status = EXIT_OK
    for name in args.fields.split(","):
        spec = field_from_name(name.strip())
        for n in range(1, args.n_max + 1):
            if counting.VARIANTS[args.variant].needs is None:
                sigmas = [None]
            else:
                sigmas = [spec.one] if spec.p == 2 else [spec.one, least_nonsquare(spec)]
            queries = [counting.CountQuery(spec, n, args.variant, sigma=s) for s in sigmas]
            for query in queries:
                res = counting.evaluate(query)
                out = {"cmd": "table", "field": spec.name, "n": n,
                       "variant": query.variant, "value": res.value,
                       "epsilon": res.epsilon, "branch": res.formula_branch}
                if query.sigma is not None:
                    out["sigma"] = query.sigma.to_text()
                if args.oracle:
                    status = _oracle_verdict(out, query, res.value) or status
                _emit(out, json_mode)
    return status


def cmd_selftest(args, json_mode: bool) -> int:
    rng = random.Random(args.seed)
    status = EXIT_OK
    for name in ("2", "3", "2^2", "5"):
        spec = field_from_name(name)
        for n in (1, 2):
            query = counting.CountQuery(spec, n, "carlitz")
            value = counting.evaluate(query).value
            oracle = counting.brute_count(query)
            ok = value == oracle
            if not ok:
                status = EXIT_MISMATCH
            _emit({"cmd": "selftest", "check": "carlitz-vs-oracle",
                   "field": spec.name, "n": n, "value": value,
                   "oracle": oracle, "ok": ok}, json_mode)
    for name in ("3", "5"):
        spec = field_from_name(name)
        sigma = least_nonsquare(spec)
        try:
            report = hfactor.verify_meyn_product(sigma, 2)
            ok = report.ok
        except errors.MismatchFound:
            ok = False
        if not ok:
            status = EXIT_MISMATCH
        _emit({"cmd": "selftest", "check": "hverify",
               "field": spec.name, "n": 2, "ok": ok}, json_mode)
    # randomized reduction replays with the fixed seed
    from .moebius import QuadRationalExpr
    spec = field_from_name("5")
    replay_ok = True
    for _ in range(20):
        while True:
            try:
                g = Polynomial(spec, [rng.randrange(5) for _ in range(3)])
                h = Polynomial(spec, [rng.randrange(5) for _ in range(3)])
                r = QuadRationalExpr(g, h)
                break
            except errors.Error:
                continue
        _, trail = reduce_canonical(r)
        if trail.replay() != trail.end:
            replay_ok = False
    if not replay_ok:
        status = EXIT_MISMATCH
    _emit({"cmd": "selftest", "check": "reduction-replay", "field": "5",
           "count": 20, "ok": replay_ok}, json_mode)
    return status


_COMMANDS = {
    "count": cmd_count,
    "reduce": cmd_reduce,
    "transform": cmd_transform,
    "reconstruct": cmd_reconstruct,
    "dickson": cmd_dickson,
    "hverify": cmd_hverify,
    "table": cmd_table,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.cmd](args, args.json)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except errors.SizeBoundExceeded as exc:
        print(f"size bound exceeded: {exc}", file=sys.stderr)
        return EXIT_SIZE_BOUND
    except (errors.MismatchFound, errors.IdentityViolated) as exc:
        print(f"FALSIFIED: {exc}", file=sys.stderr)
        if getattr(exc, "report", None) is not None:
            print(json.dumps(exc.report.to_json_dict(), sort_keys=True),
                  file=sys.stderr)
        return EXIT_MISMATCH
    except errors.Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
