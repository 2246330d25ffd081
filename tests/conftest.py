import os
import random
from pathlib import Path

import pytest

import qtk
from qtk import errors, field_make
from qtk.moebius import MoebiusMap, QuadRationalExpr
from qtk.poly import Polynomial

FIELD_GRID = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


def subprocess_env():
    """The environment with this qtk's source directory first on PYTHONPATH."""
    src = str(Path(qtk.__file__).resolve().parent.parent)
    rest = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + rest if rest else ""))


@pytest.fixture(scope="session")
def fields():
    """The standard field grid {2, 3, 4, 5, 7, 8, 9} keyed by cardinality."""
    return {p ** k: field_make(p, k) for p, k in FIELD_GRID}


@pytest.fixture
def rng():
    return random.Random(20240915)


def random_element(spec, rng):
    return spec.element(tuple(rng.randrange(spec.p) for _ in range(spec.k)))


def random_poly(spec, degree, rng, monic=False):
    """Random polynomial of exactly the given degree."""
    coeffs = [random_element(spec, rng) for _ in range(degree)]
    if monic:
        coeffs.append(spec.one)
    else:
        lead = random_element(spec, rng)
        while lead.is_zero():
            lead = random_element(spec, rng)
        coeffs.append(lead)
    return Polynomial(spec, coeffs)


def random_expr(spec, rng):
    """Random valid quadratic rational expression."""
    while True:
        dg, dh = rng.choice([(2, 0), (2, 1), (2, 2), (1, 2), (0, 2)])
        try:
            return QuadRationalExpr(random_poly(spec, dg, rng),
                                    random_poly(spec, dh, rng))
        except errors.Error:
            continue


def random_moebius(spec, rng):
    while True:
        try:
            return MoebiusMap(*(random_element(spec, rng) for _ in range(4)))
        except errors.Error:
            continue
