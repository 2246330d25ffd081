"""Golden output of ``qtk reduce``, in text and ``--json`` form.

``reduce_golden.json`` was written by :func:`reduce_rows` while the trail
still had one class per step kind and was replayed step by step, so it pins
the single step type and its text to the bytes of the four classes.  The
expressions are fixed in the file; :func:`golden_cases` is how they were
drawn.
"""

import json
import random
from pathlib import Path

from conftest import random_expr
from test_cli import run_cli

from qtk import field_make

GOLDEN = Path(__file__).with_name("reduce_golden.json")
FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]
#: Hand-picked: the x^2 class in characteristic 2, the x^2-like shape that
#: needs the pre-affine escape in odd characteristic, an expression that is
#: already canonical, and one with a quadratic denominator.
FIXED = ["1,0,1 / 0,0,1", "0,0,1 / 1", "1,0,1 / 0,1", "1,1,1 / 0,1",
         "0,1,1 / 1,0,1", "1,1 / 0,0,1"]
RANDOM_PER_FIELD = 12


def golden_cases():
    """(field name, expression text) pairs: FIXED plus seeded random ones."""
    rng = random.Random(20261018)
    cases = []
    for p, k in FIELDS:
        F = field_make(p, k)
        texts = [t for t in FIXED if k == 1]
        texts += [random_expr(F, rng).to_text() for _ in range(RANDOM_PER_FIELD)]
        cases += [(F.name, t) for t in texts]
    return cases


def reduce_rows(cases):
    rows = []
    for field, text in cases:
        row = {"field": field, "expr": text}
        for key, flags in (("text", ()), ("json", ("--json",))):
            code, out = run_cli(*flags, "reduce", "--field", field, "--expr", text)
            row[key] = [code, out]
        rows.append(row)
    return rows


def test_reduce_output_matches_the_golden_file():
    expected = json.loads(GOLDEN.read_text())
    cases = [(row["field"], row["expr"]) for row in expected]
    assert reduce_rows(cases) == expected


def test_golden_file_covers_every_step_kind():
    kinds = set()
    for row in json.loads(GOLDEN.read_text()):
        code, out = row["json"]
        if code:  # an expression that is invalid over this field
            continue
        for step in json.loads(out)["trail"]:
            kinds.add(step.split()[0])
    assert kinds == {"pre-affine", "pre-inversion", "post-affine", "post-inversion"}
