"""Seeded inputs for the three workloads and the checks on their outputs.

Inputs are made here, as the text a CLI user would type, and filtered before
any timing to inputs the program documents as valid: ``expr_parse`` accepts
the expression, and in characteristic 2 not both of g1, h1 are zero.  The
program only ever receives the text, so a failed item measures the program,
not the generator.

Why these workloads:

* ``hverify`` certifies H factorizations at deg H 65..730: long division
  and multiplication at degree 250..730 dominate, and most of the time is
  spent over extension fields.
* ``oracle`` recomputes counts by brute force: thousands of polynomials of
  degree <= 6, so per-call overhead, ``transform`` and ``is_irreducible``
  dominate, and repeated (field, n) pairs enumerate the same inputs again.
* ``enum`` enumerates irreducibles over prime fields: ``is_irreducible``
  where most candidates exit at the first gcd, with no extension-field
  arithmetic, no transform and no large-degree division.
"""

from __future__ import annotations

import json
import random
import re

from qtk import errors
from qtk.gf import element_from_text, field_from_name
from qtk.moebius import expr_parse

WORKLOADS = ("hverify", "oracle", "enum")

#: hverify items (field, n, input): a seeded expression, or a seeded square
#: or nonsquare sigma for the special form (x^2 + sigma)/x.
HVERIFY_ITEMS = (("7", 3, "nonsquare"), ("3", 6, "expr"), ("4", 4, "expr"),
                 ("8", 2, "square"), ("16", 2, "expr"))

#: oracle grid: every (field, n) with n in (2, 3) and at most 343 candidate
#: inputs, two expressions each, plus a square and (odd q) a nonsquare sigma
#: at n = 2.
ORACLE_FIELDS = ("2", "3", "4", "5", "7", "8", "9")
ORACLE_NS = (2, 3)
ORACLE_MAX_CANDIDATES = 343

#: enum items (p, d): 2048, 2187 and 2401 candidates.
ENUM_ITEMS = ((2, 11), (3, 7), (7, 4))

_EXPR_SHAPES = ((2, 0), (2, 1), (2, 2), (1, 2), (0, 2))


def _element_text(spec, rng, nonzero=False) -> str:
    while True:
        coords = [rng.randrange(spec.p) for _ in range(spec.k)]
        if any(coords) or not nonzero:
            break
    if spec.k == 1:
        return str(coords[0])
    return "[" + " ".join(map(str, coords)) + "]"


def _poly_text(spec, degree: int, rng) -> str:
    coeffs = [_element_text(spec, rng) for _ in range(degree)]
    coeffs.append(_element_text(spec, rng, nonzero=True))
    return ",".join(coeffs)


def random_expr_text(spec, rng) -> str:
    """A seeded "g / h" the program documents as valid input."""
    while True:
        dg, dh = rng.choice(_EXPR_SHAPES)
        text = f"{_poly_text(spec, dg, rng)} / {_poly_text(spec, dh, rng)}"
        try:
            r = expr_parse(spec, text)
        except errors.Error:
            continue
        if spec.p == 2 and r.g.coeff(1).is_zero() and r.h.coeff(1).is_zero():
            continue
        return text


def sigma_text(spec, rng, square: bool) -> str:
    """A seeded nonzero sigma that is a square, or a nonsquare (odd q only)."""
    while True:
        text = _element_text(spec, rng, nonzero=True)
        if element_from_text(spec, text).is_square() == square:
            return text


def _cli(item_id: str, check: str, argv: list[str], **extra) -> dict:
    return {"id": item_id, "kind": "cli", "check": check, "argv": argv, **extra}


def make_items(workload: str, seed: int) -> list[dict]:
    """The workload's item list for a seed; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    items: list[dict] = []
    if workload == "hverify":
        for field, n, kind in HVERIFY_ITEMS:
            spec = field_from_name(field)
            if kind == "expr":
                arg = ["--expr", random_expr_text(spec, rng)]
            else:
                arg = ["--sigma", sigma_text(spec, rng, kind == "square")]
            items.append(_cli(f"hverify/{field}/{n}/{kind}", "hverify",
                              ["--json", "hverify", "--field", field,
                               "--n", str(n)] + arg, q=spec.q, n=n))
    elif workload == "oracle":
        for field in ORACLE_FIELDS:
            spec = field_from_name(field)
            for n in ORACLE_NS:
                if spec.q ** n > ORACLE_MAX_CANDIDATES:
                    continue
                base = ["--json", "count", "--field", field, "--n", str(n),
                        "--oracle"]
                for i in range(2):
                    items.append(_cli(
                        f"oracle/{field}/{n}/expr{i}", "oracle",
                        base + ["--variant", "ahmadi",
                                "--expr", random_expr_text(spec, rng)]))
            base = ["--json", "count", "--field", field, "--n", "2",
                    "--oracle", "--variant", "sigma"]
            for kind in ("square",) if spec.p == 2 else ("square", "nonsquare"):
                items.append(_cli(
                    f"oracle/{field}/2/{kind}", "oracle",
                    base + ["--sigma", sigma_text(spec, rng, kind == "square")]))
    elif workload == "enum":
        # Each (p, d) is fixed by its candidate count; the seed sets the order.
        order = list(ENUM_ITEMS)
        rng.shuffle(order)
        items = [{"id": f"enum/{p}/{d}", "kind": "enum", "p": p, "d": d}
                 for p, d in order]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return items


def item_fields(items: list[dict]) -> list[str]:
    """Names of the fields the items use, for construction during set-up."""
    names = []
    for item in items:
        if item["kind"] == "enum":
            name = str(item["p"])
        else:
            name = item["argv"][item["argv"].index("--field") + 1]
        if name not in names:
            names.append(name)
    return names


# -- output checks ---------------------------------------------------------------

_TOKENS = re.compile(r"\[[^\]]*\]|[^,\s]+")


def _degree(coeff_text: str) -> int:
    return len(_TOKENS.findall(coeff_text)) - 1


def mobius(n: int) -> int:
    out, m, d = 1, n, 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            out = -out
        d += 1
    return -out if m > 1 else out


def necklace(q: int, d: int) -> int:
    """Number of monic irreducibles of degree d over GF(q)."""
    return sum(mobius(e) * q ** (d // e)
               for e in range(1, d + 1) if d % e == 0) // d


def check_hverify(item: dict, text: str) -> str | None:
    """None when the report is whole and consistent, else the reason."""
    lines = text.splitlines()
    if len(lines) != 1:
        return f"expected one JSON line, got {len(lines)}"
    rep = json.loads(lines[0])
    if rep.get("ok") is not True or not all(c["ok"] for c in rep["checks"]):
        return "report not ok"
    q, n = item["q"], item["n"]
    deg_h, deg_core = _degree(rep["h"]["coeffs"]), _degree(rep["h_core"]["coeffs"])
    a_zero = not re.search(r"[1-9]", rep["abc"][0])
    if deg_h != q ** n + (0 if a_zero else 1):
        return f"deg H = {deg_h} for q^n = {q ** n}"
    fixed = deg_h - deg_core
    if not 0 <= fixed <= 2:
        return f"fixed part of degree {fixed}"
    degrees = [f["degree"] for f in rep["factors"]]
    if sum(degrees) != deg_h - fixed:
        return f"factor degrees sum to {sum(degrees)}, not {deg_h} - {fixed}"
    if rep["factor_count"] != len(degrees):
        return "factor_count disagrees with the factor list"
    if any((2 * n) % d or n % d == 0 for d in degrees):
        return "a factor degree does not divide 2n or divides n"
    for f in rep["factors"]:
        if _degree(f["factor"]["coeffs"]) != f["degree"]:
            return "a factor's coefficients disagree with its degree"
    return None


def check_oracle(item: dict, text: str) -> str | None:
    lines = text.splitlines()
    if len(lines) != 1:
        return f"expected one JSON line, got {len(lines)}"
    out = json.loads(lines[0])
    if out.get("verdict") != "MATCH" or out.get("oracle") != out.get("value"):
        return f"verdict {out.get('verdict')!r}"
    return None


def check_enum(item: dict, polys) -> str | None:
    p, d = item["p"], item["d"]
    expected = necklace(p, d)
    if len(polys) != expected:
        return f"{len(polys)} irreducibles, necklace formula gives {expected}"
    prev = None
    for f in polys:
        if f.degree != d or not f.is_monic():
            return f"{f.to_text()} is not monic of degree {d}"
        # documented order: coefficient tuples ascending from the constant term
        key = tuple(int(c) for c in f.coeffs[:d])
        if prev is not None and key <= prev:
            return f"{f.to_text()} out of order"
        prev = key
    return None


CHECKS = {"hverify": check_hverify, "oracle": check_oracle}
