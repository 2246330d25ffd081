"""Acceptance suite: one test per criterion, every check exact (zero tolerance).

Run with output visible:  pytest -s tests/test_acceptance.py
Each criterion prints one PASS line when all of its checks succeed.
"""

import random

import pytest

from conftest import random_expr, random_poly
from qtk import errors, field_make
from qtk.counting import (CountQuery, brute_count, count_ahmadi,
                          count_carlitz, count_linear_inputs, count_sigma)
from qtk.gf import is_square, least_nonsquare
from qtk.hfactor import (h_squarefree_witness, hspec_from_expr,
                         verify_meyn_generalized, verify_meyn_product)
from qtk.higher import (ORDER3, ORDER4, is_invariant_order3,
                        is_invariant_order4, kernel, reconstruct_higher,
                        transform_order3, transform_order4)
from qtk.intmath import divisors
from qtk.moebius import (CanonicalKind, SigmaClass, classify_sigma,
                         expr_parse, reduce_canonical, sigma_form)
from qtk.poly import Polynomial
from qtk.transform import reconstruct, transform

GRID_Q = (2, 3, 4, 5, 7, 8, 9)
SEED = 20240915


@pytest.fixture(scope="module")
def grid():
    return {q: field_make(*pk) for q, pk in
            zip(GRID_Q, ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)))}


def _sigma_reps(spec):
    if spec.p == 2:
        return [spec.one]
    return [spec.one, least_nonsquare(spec)]


def _grid_points(grid):
    for q, spec in grid.items():
        for n in (1, 2, 3):
            yield spec, n
        if q <= 3:
            yield spec, 4


def test_c1_carlitz_grid(grid):
    checked = 0
    for spec, n in _grid_points(grid):
        formula = count_carlitz(spec, n).value
        oracle = brute_count(CountQuery(spec, n, "carlitz"))
        assert formula == oracle, (spec, n, formula, oracle)
        checked += 1
    print(f"\nACCEPTANCE 1 (Carlitz grid, {checked} points): PASS")


def test_c2_sigma_grid(grid):
    checked = 0
    saw_eps = set()
    for spec, n in _grid_points(grid):
        if spec.p == 2:
            continue
        for sigma in _sigma_reps(spec):
            res = count_sigma(spec, n, sigma)
            oracle = brute_count(CountQuery(spec, n, "sigma", sigma=sigma))
            assert res.value == oracle, (spec, n, sigma, res.value, oracle)
            if n == 1:
                saw_eps.add(res.epsilon)
            checked += 1
    assert saw_eps == {1, -1}  # the n = 1 epsilon split is exercised
    print(f"\nACCEPTANCE 2 (sigma grid, {checked} points): PASS")


def test_c3_ahmadi_class_independence(grid):
    rng = random.Random(SEED)
    checked = 0
    for q, spec in grid.items():
        for n in (2, 3):
            expected = count_carlitz(spec, n).value
            for _ in range(20):
                r = random_expr(spec, rng)
                res = count_ahmadi(spec, n, r)
                if spec.p == 2 and classify_sigma(r) is SigmaClass.X_SQUARED:
                    assert res.value == 0
                else:
                    assert res.value == expected, (spec, n, r)
                oracle = brute_count(CountQuery(spec, n, "ahmadi", expr=r))
                assert res.value == oracle, (spec, n, r)
                checked += 1
        if spec.p == 2:
            # the degenerate inputs give zero on both routes
            r = expr_parse(spec, "1,0,1 / 0,0,1")
            for n in (2, 3):
                assert count_ahmadi(spec, n, r).value == 0
                assert brute_count(CountQuery(spec, n, "ahmadi", expr=r)) == 0
    print(f"\nACCEPTANCE 3 (class independence, {checked} expressions): PASS")


def test_c4_linear_inputs(grid):
    rng = random.Random(SEED + 4)
    checked = 0
    for q, spec in grid.items():
        done = 0
        while done < 20:
            r = random_expr(spec, rng)
            try:
                value = count_linear_inputs(spec, r).value
            except errors.Char2Degenerate:
                continue
            oracle = brute_count(CountQuery(spec, 1, "linear", expr=r))
            assert value == oracle, (spec, r, value, oracle)
            done += 1
            checked += 1
    print(f"\nACCEPTANCE 4 (linear inputs, {checked} expressions): PASS")


def test_c5_h_factorization(grid):
    rng = random.Random(SEED + 5)
    verified = 0
    for q, spec in grid.items():
        n = 1
        while q ** n + 1 <= 1025:
            for sigma in _sigma_reps(spec):
                report = verify_meyn_product(sigma, n, size_bound=1025)
                assert report.ok
                for m in report.factors:
                    assert (2 * n) % m.degree == 0 and n % m.degree != 0
                verified += 1
            done = 0
            while done < 10:
                r = random_expr(spec, rng)
                if spec.p == 2 and r.g.coeff(1).is_zero() \
                        and r.h.coeff(1).is_zero():
                    continue
                report = verify_meyn_generalized(r, n, size_bound=1025)
                assert report.ok
                for m in report.factors:
                    assert (2 * n) % m.degree == 0 and n % m.degree != 0
                hs = hspec_from_expr(r, n)
                assert h_squarefree_witness(hs, 1025) == hs.discriminant()
                done += 1
                verified += 1
            n += 1
    print(f"\nACCEPTANCE 5 (H factorization, {verified} verifications): PASS")


def test_c6_reconstruction_roundtrip(grid):
    rng = random.Random(SEED + 6)
    checked = 0
    for q in (3, 5, 7, 9):
        spec = grid[q]
        for sigma in _sigma_reps(spec):
            for _ in range(100):
                f = random_poly(spec, rng.randrange(1, 7), rng, monic=True)
                image = transform(f, sigma_form(sigma)).result
                assert reconstruct(image, sigma) == f
                checked += 1
    for q in (2, 4):
        spec = grid[q]
        sigmas = [e for e in spec.elements() if not e.is_zero()][:2]
        for sigma in sigmas:
            for _ in range(100):
                f = random_poly(spec, rng.randrange(1, 7), rng, monic=True)
                image = transform(f, sigma_form(sigma)).result
                assert reconstruct(image, sigma) == f
                checked += 1
    print(f"\nACCEPTANCE 6 (reconstruction roundtrips, {checked}): PASS")


def test_c7_reduction_soundness(grid):
    rng = random.Random(SEED + 7)
    per_field = 500 // len(grid) + 1
    checked = 0
    for spec in grid.values():
        for _ in range(per_field):
            r = random_expr(spec, rng)
            form, trail = reduce_canonical(r)
            assert trail.replay() == trail.end
            cls = classify_sigma(r)
            if form.kind is CanonicalKind.X_SQUARED:
                assert cls is SigmaClass.X_SQUARED
            elif is_square(form.sigma):
                assert cls is SigmaClass.SQUARE
            else:
                assert cls is SigmaClass.NONSQUARE
            checked += 1
    assert checked >= 500
    print(f"\nACCEPTANCE 7 (reduction soundness, {checked} expressions): PASS")


def test_c8_higher_order(grid):
    rng = random.Random(SEED + 8)
    checked = 0
    for spec in grid.values():
        reps = 200 // len(grid) + 1
        for _ in range(reps):
            f = random_poly(spec, rng.randrange(1, 5), rng, monic=True)
            image = transform_order3(f).result
            assert is_invariant_order3(image)
            assert reconstruct_higher(image, ORDER3) == f
            checked += 1
            if spec.p != 2:
                image = transform_order4(f).result
                assert is_invariant_order4(image)
                assert reconstruct_higher(image, ORDER4) == f
                checked += 1
        # kernel identity: the cubic core is itself invariant
        assert is_invariant_order3(kernel(spec, ORDER3).g)
        if spec.p != 2:
            # core equals the sum of the iterates of 1/(2-2x)
            x, one = Polynomial.x(spec), Polynomial.one(spec)
            fracs = [(x, one),
                     (one, Polynomial(spec, [2, -2])),
                     (Polynomial(spec, [1, -1]), Polynomial(spec, [1, -2])),
                     (Polynomial(spec, [-1, 2]), Polynomial(spec, [0, 2]))]
            num, den = Polynomial.zero(spec), one
            for fn, fd in fracs:
                num = num * fd + fn * den
                den = den * fd
            ker = kernel(spec, ORDER4)
            assert num * ker.h == ker.g * den
    print(f"\nACCEPTANCE 8 (higher-order roundtrips, {checked}): PASS")


def test_c9_degree_identity(grid):
    checked = 0
    for q, spec in grid.items():
        for sigma in _sigma_reps(spec):
            eps = 0 if spec.p == 2 else (1 if is_square(sigma) else -1)
            for n in (1, 2, 3, 4):
                lhs = sum((2 * n // d) * count_sigma(spec, n // d, sigma).value
                          for d in divisors(n) if d % 2)
                assert lhs == q ** n - eps ** n, (spec, sigma, n)
                checked += 1
    print(f"\nACCEPTANCE 9 (degree identity, {checked} points): PASS")
