"""Golden table of every count variant's (value, epsilon, delta, branch).

``count_golden.json`` was written by :func:`count_rows` while each variant
still had its own copy of the divisor sum and its own square-class test, so
it pins the merged formula to the outputs of the four separate ones.  It
also holds the irreducible-list cache checks.
"""

import json
from pathlib import Path

import pytest

from qtk import errors, field_make
from qtk.counting import (count_ahmadi, count_carlitz, count_corollary,
                          count_linear_inputs, count_sigma)
from qtk.gf import least_nonsquare
from qtk.moebius import expr_parse
from qtk.poly import enumerate_monic_irreducible, monic_irreducibles

GOLDEN = Path(__file__).with_name("count_golden.json")
FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]
N_MAX = 8
#: Fixed expressions for ahmadi and linear; "1,0,1 / 0,0,1" and "0,0,1 / 1"
#: are the degenerate x^2 class in characteristic 2.
EXPRS = ["1,0,1 / 0,1", "1,1,1 / 0,1", "1,0,1 / 1,1,1", "0,1,1 / 1,0,1",
         "0,1,1 / 1,2,0", "0,1,0 / 1,0,2", "1,0,1 / 0,0,1", "0,0,1 / 1",
         "1,1 / 0,0,1"]


def _row(label, fn, *args):
    try:
        r = fn(*args)
    except errors.Error as exc:
        return [label, type(exc).__name__]
    return [label, r.value, r.epsilon, r.delta, r.formula_branch]


def count_rows():
    rows = []
    for p, k in FIELDS:
        F = field_make(p, k)
        sigmas = [F.one] if p == 2 else [F.one, least_nonsquare(F)]
        exprs = list(EXPRS)
        if p != 2:
            exprs.append(f"{least_nonsquare(F).to_text()},0,1 / 0,1")
        for n in range(1, N_MAX + 1):
            rows.append(_row(f"carlitz {F.name} {n}", count_carlitz, F, n))
            for s in sigmas:
                tag = f"{F.name} {n} {s.to_text()}"
                rows.append(_row(f"sigma {tag}", count_sigma, F, n, s))
                rows.append(_row(f"corollary {tag}", count_corollary, F, n, s))
        for text in exprs:
            try:
                r = expr_parse(F, text)
            except errors.Error:
                continue
            rows.append(_row(f"linear {F.name} {text}", count_linear_inputs, F, r))
            for n in range(2, N_MAX + 1):
                rows.append(_row(f"ahmadi {F.name} {n} {text}", count_ahmadi, F, n, r))
    return rows


def test_counts_match_the_golden_table():
    expected = json.loads(GOLDEN.read_text())
    assert count_rows() == expected


@pytest.mark.parametrize("p, k, d", [(2, 1, 5), (3, 1, 3), (2, 2, 2), (3, 2, 2)])
def test_irreducible_list_is_cached(p, k, d):
    F = field_make(p, k)
    first = monic_irreducibles(F, d)
    assert tuple(first) == tuple(enumerate_monic_irreducible(F, d))
    assert monic_irreducibles(F, d) is first
