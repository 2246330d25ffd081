"""Prime-field irreducibility and factorization against sympy, an independent
implementation; skipped where sympy is not installed."""

import pytest

from conftest import random_poly
from qtk import field_make
from qtk.poly import Polynomial, factorize, is_irreducible

sympy = pytest.importorskip("sympy")


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_factorization_and_irreducibility_match_sympy(p, rng):
    spec = field_make(p)
    x = sympy.Symbol("x")
    for _ in range(40):
        f = random_poly(spec, rng.randrange(1, 10), rng)
        ours = factorize(f, int(f.degree))
        unit, factors = sympy.Poly(
            [int(c) for c in reversed(f.coeffs)], x, modulus=p).factor_list()
        theirs = sorted(
            (Polynomial(spec, [int(c) for c in reversed(g.all_coeffs())])
             .monic().sort_key(), e) for g, e in factors)
        assert sorted((g.sort_key(), e) for g, e in ours) == theirs, f.to_human()
        assert int(unit) % p == int(ours.unit)
        assert is_irreducible(f) == (len(theirs) == 1 and theirs[0][1] == 1)
