"""Golden output bytes of ``qtk --json`` for ``hverify``, ``transform`` and
``reconstruct``.

``cli_golden.json`` holds, for each argv, the exit code and the sha256 of
the ``--json`` stdout.  It was written by :func:`golden_rows` while
``poly.compose_fraction`` was still a Horner loop of polynomial products,
so it pins the substitution-matrix version to the loop's bytes.  The argvs
are fixed in the file; :func:`golden_argvs` is how they were drawn, and

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \\
        import test_cli_golden as t; t.write_golden()"

rewrites the file from the current code.
"""

import hashlib
import json
import random
from pathlib import Path

from conftest import random_expr, random_poly
from test_cli import run_cli

from qtk import field_make
from qtk.gf import FieldElement, least_nonsquare
from qtk.moebius import expr_parse
from qtk.transform import transform

GOLDEN = Path(__file__).with_name("cli_golden.json")
#: hverify inputs (p, k, n), all with q^n <= 256.
HVERIFY = [(2, 1, 5), (2, 1, 8), (3, 1, 3), (3, 1, 5), (2, 2, 2), (2, 2, 4),
           (5, 1, 2), (5, 1, 3), (7, 1, 2), (2, 3, 2), (3, 2, 2), (2, 4, 2)]
#: transform fields: GF(3), GF(4), GF(16), GF(2^10).
TRANSFORM = [(3, 1), (2, 2), (2, 4), (2, 10)]
#: Degrees of the transformed f, straddling multiples of 3, 8, 16 and 32.
DEGREES = [0, 1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 15, 16, 17, 24, 31, 32, 33,
           48, 50, 63, 64, 65, 97, 99, 100]
RECONSTRUCT = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2)]
#: Degrees of f; reconstruct reads F = x^n f(x + sigma/x) of degree 2n.
HALF_DEGREES = [1, 2, 3, 5, 8, 13, 20]


def _nonzero(spec, rng):
    return FieldElement(spec, rng.randrange(1, spec.q))


def golden_argvs():
    """The fixed argv list, drawn from one seeded generator."""
    rng = random.Random(20261018)
    argvs = []
    for p, k, n in HVERIFY:
        F = field_make(p, k)
        base = ["--json", "hverify", "--field", F.name, "--n", str(n)]
        square = _nonzero(F, rng) ** 2
        argvs.append(base + ["--sigma", square.to_text()])
        if p != 2:
            argvs.append(base + ["--sigma", least_nonsquare(F).to_text()])
        argvs.append(base + ["--expr", random_expr(F, rng).to_text()])
    for p, k in TRANSFORM:
        F = field_make(p, k)
        for d in DEGREES:
            f = random_poly(F, d, rng, monic=rng.random() < 0.5)
            expr = "1,0,1 / 0,1" if d % 2 else random_expr(F, rng).to_text()
            argvs.append(["--json", "transform", "--field", F.name, "--f",
                          f.to_text(), "--expr", expr]
                         + (["--monic"] if d % 3 == 0 else []))
    for p, k in RECONSTRUCT:
        F = field_make(p, k)
        for d in HALF_DEGREES:
            sigma = _nonzero(F, rng)
            r = expr_parse(F, f"{sigma.to_text()},0,1 / 0,1")
            big_f = transform(random_poly(F, d, rng), r).result
            argvs.append(["--json", "reconstruct", "--field", F.name,
                          "--sigma", sigma.to_text(), "--F", big_f.to_text()])
        # not sigma-self-reciprocal: a refusal with its own exit code
        argvs.append(["--json", "reconstruct", "--field", F.name,
                      "--sigma", "1", "--F", random_poly(F, 6, rng).to_text()])
    return argvs


def golden_rows(argvs):
    rows = []
    for argv in argvs:
        code, out = run_cli(*argv)
        rows.append({"argv": argv, "code": code,
                     "sha256": hashlib.sha256(out.encode()).hexdigest()})
    return rows


def write_golden():
    rows = golden_rows(golden_argvs())
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")


def test_cli_output_matches_the_golden_digests():
    expected = json.loads(GOLDEN.read_text())
    assert golden_rows([row["argv"] for row in expected]) == expected


def test_golden_file_covers_each_command():
    expected = json.loads(GOLDEN.read_text())
    cmds = [row["argv"][1] for row in expected]
    assert {c: cmds.count(c) for c in set(cmds)} == {
        "hverify": 30, "transform": 104, "reconstruct": 48}
    assert max(len(row["argv"][row["argv"].index("--F") + 1].split(","))
               for row in expected if row["argv"][1] == "reconstruct") == 41
