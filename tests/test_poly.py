import math
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import random_poly, subprocess_env
from qtk import errors, field_make, poly
from qtk.counting import moebius_mu
from qtk.gf import FieldElement, embed
from qtk.intmath import divisors, power, prime_factors
from qtk.poly import (NEG_INF, Polynomial, compose_fraction, ddf,
                      enumerate_monic_irreducible, factorize, gcd,
                      is_irreducible, monic_irreducibles, parse_poly, pow_mod)


def P(spec, text):
    return parse_poly(spec, text)


def test_arith_examples():
    F2, F3, F5 = field_make(2), field_make(3), field_make(5)
    assert P(F2, "x+1") * P(F2, "x+1") == P(F2, "x^2+1")
    q, r = divmod(P(F3, "x^4+2"), P(F3, "x^2+2"))
    assert (q, r) == (P(F3, "x^2+1"), Polynomial.zero(F3))
    assert P(F5, "x+2") * P(F5, "x+3") == P(F5, "x^2+1")


def test_zero_degree_marker():
    F3 = field_make(3)
    z = Polynomial.zero(F3)
    assert z.degree == NEG_INF
    assert z.degree < 0
    assert P(F3, "2").degree == 0


def test_divrem_roundtrip_randomized(fields, rng):
    for spec in fields.values():
        for _ in range(25):
            a = random_poly(spec, rng.randrange(0, 9), rng)
            b = random_poly(spec, rng.randrange(0, 6), rng)
            if b.is_zero():
                continue
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.is_zero() or r.degree < b.degree
    with pytest.raises(errors.DivisionByZero):
        divmod(P(fields[3], "x"), Polynomial.zero(fields[3]))


def test_division_by_a_monomial_matches_long_division(rng):
    # c * x^k has a zero body, so the division is a shift of the dividend
    for spec in (field_make(5), field_make(2, 4)):
        nonzero = [e for e in spec.elements() if not e.is_zero()]
        for k in range(4):
            for c in (spec.one, rng.choice(nonzero)):
                b = Polynomial.monomial(spec, k).scale(c)
                for _ in range(6):
                    a = random_poly(spec, rng.randrange(0, 9), rng)
                    q, r = divmod(a, b)
                    want = reference.poly_divmod(
                        spec, [e.coords for e in a.coeffs], [e.coords for e in b.coeffs])
                    assert ([e.coords for e in q.coeffs],
                            [e.coords for e in r.coeffs]) == want
                    assert a % b == r


def test_product_matches_sequential(fields, rng):
    # odd counts carry a factor up a level unpaired
    for q in (3, 4, 9):
        spec = fields[q]
        one = Polynomial.one(spec)
        for count in (1, 2, 3, 5, 8):
            leaves = [random_poly(spec, rng.randrange(1, 5), rng, monic=True)
                      for _ in range(count)]
            product = one
            for d in leaves:
                product = product * d
            assert poly._product(leaves, one) == product
            assert poly._product(iter(leaves), one) == product
        assert poly._product([], one) == one


def test_gcd_examples():
    F2, F3 = field_make(2), field_make(3)
    assert gcd(P(F3, "x^2+2"), P(F3, "x^2+2")) == P(F3, "x^2+2")
    assert gcd(P(F2, "x^3+1"), P(F2, "x^2+1")) == P(F2, "x+1")
    f = P(F3, "2*x^2+1")
    assert gcd(Polynomial.zero(F3), f) == f.monic()
    with pytest.raises(errors.BothZero):
        gcd(Polynomial.zero(F3), Polynomial.zero(F3))


def test_derivative_examples():
    F2, F3, F5 = field_make(2), field_make(3), field_make(5)
    assert P(F2, "x^2+x+1").derivative() == Polynomial.one(F2)
    assert P(F3, "x^3+x").derivative() == Polynomial.one(F3)
    assert P(F5, "x^2+3*x+4").derivative() == P(F5, "2*x+3")


def test_eval():
    F3, F9 = field_make(3), field_make(3, 2)
    p = P(F3, "x^2+1")
    assert p(F3.one) == F3.element(2)
    # at the generator of GF(9) (a root of the modulus x^2+1): value is 0
    assert p(F9.gen()).is_zero()
    assert Polynomial.zero(F3)(F3.element(2)).is_zero()


@pytest.mark.parametrize("src, dst", [((2, 8), (2, 16)), ((3, 1), (3, 4))])
def test_polynomial_embed_matches_per_element_embed(src, dst):
    # every source element once, as the coefficients of one polynomial
    S, T = field_make(*src), field_make(*dst)
    f = Polynomial(S, list(S.elements()))
    assert f.embed(T).owner is T
    assert f.embed(T).coeffs == tuple(embed(c, T) for c in f.coeffs)
    assert f.embed(S) is f and Polynomial.zero(S).embed(T).is_zero()
    with pytest.raises(errors.NoEmbedding):
        f.embed(field_make(5))


def test_pow_mod():
    F3 = field_make(3)
    m = P(F3, "x^2+1")
    x = Polynomial.x(F3)
    assert pow_mod(x, 4, m) == Polynomial.one(F3)
    assert pow_mod(x, 1, m) == x
    assert pow_mod(x, 0, m) == Polynomial.one(F3)
    with pytest.raises(errors.ZeroModulus):
        pow_mod(x, 2, P(F3, "2"))
    # big-integer exponents must be exact
    assert pow_mod(x, 3 ** 40 + 1, m) == pow_mod(x, (3 ** 40 + 1) % 4, m)


def test_pow_mod_starts_from_the_first_set_bit(monkeypatch):
    # x^(2^j) takes j squarings and no product with the constant 1, on
    # packed residues (GF(2), degrees 4 and 65) and on index vectors (GF(9))
    F2, F9 = field_make(2), field_make(3, 2)
    products = []
    mulmod = poly._Divisor.mulmod
    monkeypatch.setattr(poly._Divisor, "mulmod", lambda *a: products.append(a) or mulmod(*a))
    for f in (P(F2, "x^4+x+1"), P(F2, "x^65+x+1"), P(F9, "x^5+x+1")):
        x = Polynomial.x(f.owner)
        for j in range(8):
            products.clear()
            assert pow_mod(x, 2 ** j, f) == x ** (2 ** j) % f
            assert len(products) == j


#: (field, divisor degree, slot bytes or None for index vectors) of the
#: residue tests: every slot width, at small degrees and above degree 64
RESIDUE_CASES = [((2, 1), 11, 1), ((7, 1), 4, 2), ((1021, 1), 6, 4), ((1048573, 1), 9, 8),
                 ((3, 2), 5, None), ((2, 1), 70, 1), ((1048573, 1), 70, 8)]


def test_pow_mod_on_residues_of_a_prepared_divisor(rng):
    # with a _Divisor for mod, pow_mod maps residues in the divisor's form to
    # residues (RESIDUE_CASES); each result stores to the row of the stacked
    # pow_mod (the row kernel, no _Divisor) and to the _a of the polynomial
    # pow_mod; exponents below 1 are refused
    for (p, k), m, width in RESIDUE_CASES:
        spec = field_make(p, k)
        for f in (random_poly(spec, m, rng, monic=True), random_poly(spec, m, rng)):
            div = poly._Divisor(spec, f._a)
            assert (None if div.dt is None else div.dt.itemsize) == width, (spec, m)
            zs = [Polynomial.x(spec), random_poly(spec, m - 1, rng),
                  random_poly(spec, 2 * m + 3, rng), f * random_poly(spec, 2, rng)]
            for e in (1, 2, spec.q, rng.randrange(3, 2 ** 40)):
                for z, want in zip(zs, pow_mod(zs, e, [f] * len(zs))):
                    r = pow_mod(div.load(z._a), e, div)
                    assert div.store(r).tolist() == want._a.tolist() == pow_mod(z, e, f)._a.tolist(), \
                        (spec, f, z, e)
            for e in (0, -1):
                with pytest.raises(errors.InvalidArgument):
                    pow_mod(div.load(Polynomial.x(spec)._a), e, div)


def test_gcd_on_residues_of_a_prepared_divisor(rng):
    # with a _Divisor for its second argument, gcd maps a residue in the
    # divisor's form (RESIDUE_CASES) to the monic gcd in the same form; the
    # stacked gcd (the row kernel, no Euclid) is the reference, the zero
    # residue gives the divisor made monic, and a planted common factor
    # divides the gcd
    for (p, k), m, width in RESIDUE_CASES:
        spec = field_make(p, k)
        g = random_poly(spec, 2, rng, monic=True)
        for f in (random_poly(spec, m, rng, monic=True), random_poly(spec, m, rng),
                  g * random_poly(spec, m - 2, rng)):
            div = poly._Divisor(spec, f._a)
            assert (None if div.dt is None else div.dt.itemsize) == width, (spec, m)
            for z in (Polynomial.zero(spec), Polynomial.x(spec), random_poly(spec, m - 1, rng),
                      random_poly(spec, 2 * m + 3, rng) % f, g * random_poly(spec, m - 3, rng)):
                r = gcd(div.load(z._a), div)
                assert isinstance(r, int) == (width is not None), (spec, f, z)
                want = list(gcd([z], [f]))[0]
                assert div.store(r).tolist() == want._a.tolist() == gcd(z, f)._a.tolist(), \
                    (spec, f, z)
                if z.is_zero():
                    assert want == f.monic()
                if (f % g).is_zero() and (z % g).is_zero():
                    assert (want % g).is_zero() and want.degree >= 2, (spec, f, z)


@pytest.mark.parametrize("p, k", [(3, 1), (7, 1), (1021, 1), (1048573, 1), (3, 2), (2, 4)])
def test_frobenius_step_on_residues_matches_pow_mod(p, k, rng):
    # s steps of div.times_q, Q from _frobenius_rows, are the stacked
    # pow_mod(z, q^s, f) (the row kernel, no _Divisor) on random residues:
    # packed over GF(p), index vectors over GF(9) and GF(16), at degrees up
    # to 70
    spec = field_make(p, k)
    for m in (2, 6, 9, 70):
        f = random_poly(spec, m, rng, monic=m % 2 == 0)
        div = poly._Divisor(spec, f._a)
        assert (div.dt is None) == (k > 1), (spec, m)
        one, x = (div.load(np.array(c, dtype=np.int64)) for c in ([spec.unit], [0, spec.unit]))
        Q = poly._frobenius_rows(one, pow_mod(x, spec.q, div), m, div.mulmod)
        zs = [random_poly(spec, m - 1, rng) for _ in range(4)] + [Polynomial.zero(spec), f]
        rs = [div.load(z._a) for z in zs]
        for steps in (1, 2, 3):
            rs = [div.times_q(r, Q) for r in rs]
            want = pow_mod(zs, spec.q ** steps, [f] * len(zs))
            assert [div.store(r).tolist() for r in rs] == [w._a.tolist() for w in want], \
                (spec, f, steps)


@pytest.mark.parametrize("p, k", [(3, 1), (1021, 1), (1048573, 1), (3, 2), (2, 4)])
def test_frobenius_rows_agree_across_residue_forms(p, k, rng):
    # for one monic f, the Q built on the residues of its _Divisor (packed
    # over GF(p), index vectors over GF(9) and GF(16)) and on a one-row stack
    # has the rows x^(iq) mod f of the stacked pow_mod of the rows x^i; on
    # the stack, z Q by _times_q is z^q mod f
    spec = field_make(p, k)
    for m in (2, 5, 9, 70):
        f = random_poly(spec, m, rng, monic=True)
        want = [r._a.tolist() for r in pow_mod([Polynomial.monomial(spec, i) for i in range(m)],
                                               spec.q, [f] * m)]
        div = poly._Divisor(spec, f._a)
        assert (div.dt is None) == (k > 1), (spec, m)
        one, x = (div.load(np.array(c, dtype=np.int64)) for c in ([spec.unit], [0, spec.unit]))
        Q = poly._frobenius_rows(one, pow_mod(x, spec.q, div), m, div.mulmod)
        got = [div.store(r) for r in Q] if div.dt is not None else map(poly._trim, Q)
        assert [r.tolist() for r in got] == want, (spec, m, div.dt)
        F = poly._Stack(spec, f._a[np.newaxis])
        neg = spec.mul_vec(F.A[:, :-1], spec.raw_neg(spec.unit))
        one, x = np.eye(2, m, dtype=np.int64)[:, np.newaxis] * spec.unit
        Q = poly._frobenius_rows(one, pow_mod(poly._Stack(spec, x), spec.q, F).A, m,
                                 lambda u, v: poly._rows_mulmod(spec, u, v, neg))
        assert Q.shape == (1, m, m)
        assert [poly._trim(r).tolist() for r in Q[0]] == want, (spec, m)
        z = random_poly(spec, m - 1, rng)
        Z = np.zeros((1, m), dtype=np.int64)
        Z[0, :len(z._a)] = z._a
        assert poly._Stack(spec, poly._times_q(spec, Z, Q))[0] == pow_mod(z, spec.q, f), (spec, m)


def test_power_counts_its_products():
    # from the lowest set bit up: bit_length - 1 squares and popcount - 1
    # other products, so x^(2^j) costs j; e = 0 is None with no product, and
    # each caller supplies its own 1
    products = []

    def mul(a, b):
        products.append((a, b))
        return a * b
    for e in range(70):
        products.clear()
        if e == 0:
            assert power(3, e, mul) is None and not products
            continue
        assert power(3, e, mul) == 3 ** e
        assert len(products) == e.bit_length() - 1 + bin(e).count("1") - 1
    for j in range(8):
        products.clear()
        assert power(3, 2 ** j, mul) == 3 ** 2 ** j and len(products) == j
    F2, F3 = field_make(2), field_make(3)
    f = P(F3, "x^2+2*x+2")
    assert f ** 0 == Polynomial.one(F3) and f ** 1 is f and f ** 3 == f * f * f
    assert pow_mod(f, 0, P(F3, "x^3+2")) == Polynomial.one(F3)
    u = np.array([1, 2, 1], dtype=np.int64)
    assert F2.inv_vec(u[[0, 2]]).tolist() == [1, 1]  # p - 2 = 0: u itself
    assert F3.inv_vec(u).tolist() == [1, 2, 1]


#: Per p, the seeds s at which random_poly(GF(p), m, random.Random(s),
#: monic=True) is irreducible for m = 63, 64, 65 (found by search).
IRREDUCIBLE_SEEDS = {2: (71, 47, 112), 3: (187, 173, 11), 7: (23, 90, 64),
                     1021: (147, 144, 30), 1048573: (21, 81, 62)}


def row_divmod(a, f):
    """(quotient, remainder) of a by f from the row kernel's _rows_reduce
    on the one-row stack of f made monic; no _Divisor is involved."""
    spec, lead = f.owner, f.leading
    neg = spec.mul_vec(f.monic()._a[:-1], spec.raw_neg(spec.unit))
    R, Q = poly._rows_reduce(spec, a._a[np.newaxis], neg[np.newaxis])
    return (Polynomial._wrap(spec, poly._trim(Q[0])).scale(lead.inverse()),
            Polynomial._wrap(spec, poly._trim(R[0])))


def test_packed_arithmetic_matches_the_row_kernel(rng):
    # divmod, pow_mod, gcd and scalar is_irreducible over GF(p), on packed
    # integers in slots of 1 (p = 2), 2 (p = 3, 7), 4 (p = 1021) and 8
    # (p = 1048573) bytes, against the row kernel (_rows_reduce and the
    # stacked pow_mod, gcd and Rabin test) at divisor degrees 63, 64, 65 and
    # 130 (Rabin's test at 63 to 65): monic and non-monic divisors, one with a
    # known common factor, zero remainders, dividends longer than 2m - 1,
    # every coefficient p - 1 (the largest slot sums), and one irreducible
    # per degree 63 to 65, so that Rabin's test runs all its Frobenius steps
    for p in (2, 3, 7, 1021, 1048573):
        spec = field_make(p)
        irreducible = [random_poly(spec, m, random.Random(seed), monic=True)
                       for m, seed in zip((63, 64, 65), IRREDUCIBLE_SEEDS[p])]
        cases = [(f, [random_poly(spec, 2 * int(f.degree), rng), random_poly(spec, 5, rng) * f])
                 for f in irreducible]
        for m in (63, 64, 65, 130):
            g = random_poly(spec, rng.randrange(1, 6), rng)
            for f in (random_poly(spec, m, rng, monic=True), random_poly(spec, m, rng),
                      g * random_poly(spec, m - int(g.degree), rng)):
                dividends = [random_poly(spec, n, rng) for n in (m - 1, m, 2 * m - 1, 3 * m)]
                dividends += [random_poly(spec, 5, rng) * f, g * random_poly(spec, m + 2, rng),
                              Polynomial.zero(spec)]
                cases.append((f, dividends))
            cases.append((Polynomial(spec, [p - 1] * m + [1]),
                          [Polynomial(spec, [p - 1] * n) for n in (m, 2 * m)]))
        assert {poly._Divisor(spec, f._a).dt.itemsize for f, _ in cases} == \
            {2: {1, 2}, 3: {2}, 7: {2}, 1021: {4}, 1048573: {8}}[p], spec
        for m in (63, 64, 65, 130):
            # every (divisor, dividend) pair of degree m as one stack
            mods, rows = zip(*[(f, a) for f, dividends in cases if f.degree == m
                               for a in dividends])
            assert [divmod(a, f) for f, a in zip(mods, rows)] == list(map(row_divmod, rows, mods))
            assert list(map(gcd, rows, mods)) == list(gcd(rows, mods)), (spec, m)
            e = rng.randrange(2, 2 ** 12)
            assert [pow_mod(a, e, f) for f, a in zip(mods, rows)] == \
                list(pow_mod(rows, e, mods)), (spec, m, e)
            if m < 130:
                rabin = [f for f, _ in cases if f.degree == m]
                assert [is_irreducible(f) for f in rabin] == is_irreducible(rabin), (spec, m)
        for f in irreducible:  # certified by factorize, independently of Rabin's test
            m = int(f.degree)
            assert is_irreducible(f) and [(g.degree, e) for g, e in factorize(f, m)] == [(m, 1)], f


def test_a_prime_field_divisor_without_a_slot_keeps_index_vectors(monkeypatch, rng):
    # _slot_dtype finds no slot past 8 bytes (as for a divisor of degree
    # above about 8.4 million at p near 2^20); a GF(p) _Divisor then keeps
    # index vectors, and its division, pow_mod, gcd, Q, z Q, z - x and Rabin
    # verdicts are those of the packed divisor
    assert poly._slot_dtype(2 ** 64 - 1).itemsize == 8
    assert poly._slot_dtype(2 ** 64) is None
    cases = []
    for p in (2, 1021, 1048573):
        spec = field_make(p)
        seeded = random_poly(spec, 65, random.Random(IRREDUCIBLE_SEEDS[p][2]), monic=True)
        for f in (seeded, random_poly(spec, 65, rng), Polynomial(spec, [p - 1] * 66)):
            cases.append((f, [random_poly(spec, n, rng) for n in (30, 64, 140)]
                          + [random_poly(spec, 3, rng) * f, Polynomial(spec, [p - 1] * 131)]))

    def results():
        out = []
        for f, dividends in cases:
            spec, div = f.owner, poly._Divisor(f.owner, f._a)
            one, x = (div.load(np.array(c, dtype=np.int64)) for c in ([spec.unit], [0, spec.unit]))
            Q = poly._frobenius_rows(one, pow_mod(x, spec.q, div), 65, div.mulmod)
            residues = [div.load(a._a) for a in dividends]
            out.append((div.dt is None, is_irreducible(f),
                        [poly._trim(div.store(r)).tolist() for r in Q],
                        [(divmod(a, f), gcd(a, f), pow_mod(a, 1000, f)) for a in dividends],
                        [div.store(v).tolist() for r in residues
                         for v in (div.times_q(r, Q), div.minus_x(r), div.gcd(r))]))
        return out
    packed = results()
    assert not any(r[0] for r in packed) and all(r[1] for r in packed[::3])
    monkeypatch.setattr(poly, "_slot_dtype", lambda bound: None)
    fallback = results()
    assert all(r[0] for r in fallback)
    assert [r[1:] for r in fallback] == [r[1:] for r in packed]


def test_packed_division_of_long_dividends_matches_arrays(rng):
    # dividends of 2,000 to 4,096 coefficients cross many reduction windows,
    # against the row kernel's _rows_reduce; every coefficient p - 1 gives
    # the largest slot sums
    for p, n, m in ((2, 4096, 1), (3, 4096, 2), (7, 2000, 16), (1021, 2000, 16),
                    (1048573, 2500, 64), (5, 3000, 40), (3, 4096, 300), (4093, 4096, 1000)):
        spec = field_make(p)
        f = random_poly(spec, m, rng)
        for a in (random_poly(spec, n - 1, rng), Polynomial(spec, [p - 1] * n),
                  f * random_poly(spec, n - 1 - m, rng)):
            q, r = divmod(a, f)
            assert int(a.degree) >= 1999 and r.degree < f.degree
            assert (q, r) == row_divmod(a, f), (spec, m)
        assert r.is_zero()


@pytest.mark.parametrize("p, n", [(1021, 500), (3, 2000), (4093, 4000)])
def test_pow_mod_by_a_binomial_matches_its_closed_form(p, n, rng):
    # f = c((x + b)^n - a) gives (x + b)^n = a mod f, so (x + b)^e mod f is
    # a^(e // n) (x + b)^(e % n), of degree below n: packed pow_mod in slots
    # of 4, 2 and 8 bytes against products that divide nothing
    spec = field_make(p)
    a, b, c = (spec.element(rng.randrange(1, p)) for _ in range(3))
    y = Polynomial(spec, [b, 1])
    f = (y ** n - Polynomial(spec, [a])).scale(c)
    exponents = [n - 1, n, 2 * n + 3, rng.randrange(n, 4 * n)] + [p ** 2] * (n <= 512)
    for e in exponents:
        assert pow_mod(y, e, f) == (y ** (e % n)).scale(a ** (e // n)), (spec, e)


@pytest.mark.parametrize("p", [1021, 1048573])
def test_rabin_at_degree_128_matches_the_binomial_criterion(p):
    # for p = 1 mod 4, x^128 - a is irreducible over GF(p) iff a is not a
    # square (Lidl & Niederreiter, *Finite Fields*, Theorem 3.75), and so is
    # the dense (x + 1)^128 - a: scalar Rabin on packed residues and the
    # stacked test against that criterion
    spec = field_make(p)
    nonsquare = next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)
    y = Polynomial(spec, [1, 1])
    rows = [y ** 128 - Polynomial(spec, [a]) for a in (nonsquare, 4)]
    assert [is_irreducible(f) for f in rows] == is_irreducible(rows) == [True, False]


@pytest.mark.parametrize("p, width", [(7, 2), (257, 4), (1048573, 8)])
def test_remainder_slots_reduce_alike_on_integers_and_numpy(monkeypatch, p, width, rng):
    # _reduce_packed reduces a remainder of at most _LOOP_SLOTS slots wider
    # than 8 bits on Python integers and a longer one through numpy: divmod,
    # pow_mod, gcd and scalar is_irreducible agree with the switch at 0 (numpy
    # always) and at 64 (integers always), at divisor degrees on both sides of
    # it, on irreducible divisors (every Frobenius step of Rabin's test runs)
    # and with every coefficient p - 1 (the largest slot sums)
    spec, L = field_make(p), poly._LOOP_SLOTS
    cases, rabin = [], []
    for m in (4, L, L + 1, 2 * L):
        f = random_poly(spec, m, rng, monic=True)
        while not is_irreducible(f):
            f = random_poly(spec, m, rng, monic=True)
        rabin += [f, random_poly(spec, m, rng), f * random_poly(spec, 1, rng, monic=True)]
        assert poly._Divisor(spec, f._a).dt.itemsize == width
        for f in (f, random_poly(spec, m, rng), Polynomial(spec, [p - 1] * m + [1])):
            dividends = [random_poly(spec, n, rng) for n in (m - 1, m + 1, 2 * m - 1, 3 * m)]
            dividends += [Polynomial(spec, [p - 1] * n) for n in (m, 2 * m)]
            cases.append((f, dividends, rng.randrange(2, 2 ** 12)))

    def results():
        return ([(divmod(a, f), gcd(a, f), pow_mod(a, e, f))
                 for f, dividends, e in cases for a in dividends]
                + [is_irreducible(f) for f in rabin])
    default = results()
    assert default[-len(rabin)::3] == [True] * 4
    for slots in (0, 64):
        monkeypatch.setattr(poly, "_LOOP_SLOTS", slots)
        assert results() == default, slots


def test_rabin_matches_the_sieve_at_wide_slots():
    # over GF(257), 4-byte slots, seeded monic quadratics: Rabin's verdict is
    # membership in the sieve's list, which runs no division; the 2-byte case,
    # GF(7) at d = 4, is the whole list in test_sieve_agrees_with_rabin
    spec = field_make(257)
    sieved = set(monic_irreducibles(spec, 2))
    sample = [Polynomial(spec, [u % 257, u // 257, 1])
              for u in random.Random(25).sample(range(257 ** 2), 1500)]
    verdicts = [is_irreducible(f) for f in sample]
    assert verdicts == [f in sieved for f in sample]
    assert 0 < sum(verdicts) < len(sample)


def test_irreducibility_examples():
    F2, F3 = field_make(2), field_make(3)
    assert is_irreducible(P(F2, "x^2+x+1"))
    assert not is_irreducible(P(F2, "x^2+1"))
    assert is_irreducible(P(F3, "x^2+1"))
    with pytest.raises(errors.DegreeZero):
        is_irreducible(P(F3, "2"))


def counted(monkeypatch, *names):
    """Replace each poly.<name> by a wrapper that counts its calls."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def wrapper(*args, _name=name, _inner=getattr(poly, name)):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(poly, name, wrapper)
    return calls


def test_a_prime_field_root_rejects_before_rabin(monkeypatch):
    # GF(7), d = 4: 7*(4+1) <= bitlen(7)*4^2, so the root test runs first
    F7 = field_make(7)
    f = P(F7, "x+4") * P(F7, "x^3+3*x+2")  # the root 3
    calls = counted(monkeypatch, "pow_mod", "gcd")
    assert not is_irreducible(f)
    assert calls == {"pow_mod": 0, "gcd": 0}


def test_large_prime_quadratics_go_straight_to_rabin(monkeypatch):
    # GF(1021), d = 2: 1021*(2+1) > bitlen(1021)*2^2, so no root test
    F = field_make(1021)
    def refuse(f):
        raise AssertionError("the root test ran above its bound")
    monkeypatch.setattr(poly, "_has_prime_root", refuse)
    calls = counted(monkeypatch, "pow_mod")
    assert not is_irreducible(P(F, "x+1020") * P(F, "x+1019"))
    assert calls["pow_mod"] > 0
    calls["pow_mod"] = 0
    assert is_irreducible(P(F, "x^2+1019"))  # 2 is a non-square: 1021 = 5 mod 8
    assert calls["pow_mod"] > 0


def test_roots_outside_the_prime_field_reach_rabin(monkeypatch):
    # over GF(4) = GF(2)(w): (x^2+x+1)(x+w)^2 has the roots w and w^2 only,
    # so the GF(2) root test passes it on and Rabin finds it reducible
    F4 = field_make(2, 2)
    w = F4.element((0, 1))
    f = P(F4, "x^2+x+1") * Polynomial(F4, [w * w, 0, 1])
    assert not poly._has_prime_root(f)
    calls = counted(monkeypatch, "pow_mod")
    assert not is_irreducible(f)
    assert calls["pow_mod"] > 0


def test_scalar_rabin_makes_one_pow_mod_call_over_q_above_two(monkeypatch):
    # over q > 2 the first Frobenius step is the one pow_mod call (row 1 of
    # Q) and every later step is z Q, packed over GF(p) or on index vectors
    # (GF(9), GF(16)); over GF(2), or when one Q would exceed
    # _FROBENIUS_ENTRIES, each step is one pow_mod call; every f is
    # irreducible, so the test runs all d steps
    seeded = [random_poly(field_make(p), m, random.Random(IRREDUCIBLE_SEEDS[p][m - 63]),
                          monic=True) for p, m in ((1021, 64), (1021, 65), (2, 65))]
    cases = [(monic_irreducibles(field_make(*field), d)[0], calls)
             for field, d, calls in (((3, 1), 7, 1), ((7, 1), 4, 1), ((3, 2), 4, 1),
                                     ((2, 4), 3, 1), ((2, 1), 12, 12))]
    cases += [(seeded[0], 1), (seeded[1], 1), (seeded[2], 65)]
    for f, want in cases:
        calls = counted(monkeypatch, "pow_mod")
        assert is_irreducible(f)
        assert calls["pow_mod"] == want, (f.owner, f.degree)
    monkeypatch.setattr(poly, "_FROBENIUS_ENTRIES", 15)  # below GF(9)'s d^2 k = 32
    calls = counted(monkeypatch, "pow_mod")
    assert is_irreducible(monic_irreducibles(field_make(3, 2), 4)[0])
    assert calls["pow_mod"] == 4
    # a candidate that the first gcd rejects builds no Q: GF(1021) quadratics
    # skip the root test, and gcd(x^q - x, f) finds the linear factors
    built = counted(monkeypatch, "_frobenius_rows")
    F = field_make(1021)
    assert not is_irreducible(P(F, "x+1020") * P(F, "x+1019"))
    assert built["_frobenius_rows"] == 0


def test_stacked_rabin_builds_q_only_for_rows_a_second_step_needs(monkeypatch, rng):
    # prime degree 5 over GF(3): with a linear factor in every row, the first
    # gcd, gcd(x^q - x, F), rejects them all and no Q is built; with
    # irreducible rows among them, one Q is built, for those rows only
    spec = field_make(3)
    linear = [P(spec, "x+1") * random_poly(spec, 4, rng, monic=True) for _ in range(6)]
    irreducible = list(monic_irreducibles(spec, 5))[:3]
    sizes, build = [], poly._frobenius_rows
    monkeypatch.setattr(poly, "_frobenius_rows",
                        lambda one, xq, *rest: sizes.append(len(xq)) or build(one, xq, *rest))
    assert is_irreducible(linear) == [False] * 6
    assert sizes == []
    assert is_irreducible(linear + irreducible) == [False] * 6 + [True] * 3
    assert sizes == [3]


def test_irreducibility_exhaustive_small(fields):
    # one sweep over all monic polynomials of degree <= 6 for q <= 5:
    # is_irreducible must agree with trial division by the sieved
    # irreducibles of degree <= deg/2, and the number of irreducibles of
    # each degree must match (1/d) sum mu(e) q^(d/e)
    # each (q, d) is also one stacked call, which must give the same list
    from qtk.poly import enumerate_monic
    for q in (2, 3, 4, 5):
        spec = fields[q]
        for d in range(1, 7):
            small = [phi for dd in range(1, d // 2 + 1)
                     for phi in monic_irreducibles(spec, dd)]
            candidates = list(enumerate_monic(spec, d))
            verdicts = []
            for f in candidates:
                oracle = not any((f % phi).is_zero() for phi in small)
                verdict = is_irreducible(f)
                assert verdict == oracle, f.to_human()
                verdicts.append(verdict)
            assert is_irreducible(candidates) == verdicts, (q, d)
            expected = sum(moebius_mu(e) * q ** (d // e)
                           for e in divisors(d)) // d
            assert sum(verdicts) == expected, (q, d, sum(verdicts), expected)


def test_irreducibility_on_stack_edge_cases():
    F3, F9 = field_make(3), field_make(3, 2)
    assert is_irreducible([]) == []
    assert is_irreducible([P(F3, "x^2+1")]) == [True]
    assert is_irreducible((P(F3, "x"), P(F3, "2*x+1"))) == [True, True]
    # 2x^2+2 = 2(x^2+1) and 2x^2+1 = 2(x+1)(x+2)
    rows = [P(F3, "2*x^2+2"), P(F3, "2*x^2+1"), P(F3, "x^2+1")]
    assert is_irreducible(rows) == [is_irreducible(f) for f in rows] == [True, False, True]
    with pytest.raises(errors.DegreeZero):
        is_irreducible([P(F3, "x^2+1"), P(F3, "2")])
    with pytest.raises(errors.DegreeZero):
        is_irreducible([Polynomial.zero(F3)])
    with pytest.raises(errors.FieldMismatch):
        is_irreducible([P(F3, "x^2+1"), P(F9, "x^2+1")])
    with pytest.raises(errors.InvalidArgument):
        is_irreducible([P(F3, "x^2+1"), P(F3, "x^3+2*x+1")])


def test_irreducibility_on_a_stack_runs_in_blocks(monkeypatch):
    spec = field_make(3)
    candidates = list(poly.enumerate_monic(spec, 4))
    verdicts = [is_irreducible(f) for f in candidates]
    blocks = []
    rabin_rows = poly._rabin_rows
    monkeypatch.setattr(poly, "_SIEVE_ROWS", 7)
    monkeypatch.setattr(poly, "_rabin_rows", lambda F: blocks.append(len(F)) or rabin_rows(F))
    assert is_irreducible(candidates) == verdicts
    assert blocks == [7] * 11 + [4]
    # a block's Frobenius matrices hold at most _FROBENIUS_ENTRIES
    # coordinates, d^2 k = 16 per row here: with Q a block makes one stacked
    # pow_mod call; below one row's Q the blocks run without it
    for entries, sizes in ((80, [5] * 16 + [1]), (15, [7] * 11 + [4])):
        blocks.clear()
        monkeypatch.setattr(poly, "_FROBENIUS_ENTRIES", entries)
        calls = counted(monkeypatch, "pow_mod")
        assert is_irreducible(candidates) == verdicts
        assert blocks == sizes
        assert (calls["pow_mod"] == len(blocks)) == (entries == 80), calls


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.one_of(
           st.tuples(st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2), (7, 2), (2, 3), (5, 1)]),
                     st.integers(1, 8)),
           # single calls on packed integers at degrees 63 to 66
           st.tuples(st.just((2, 1)), st.sampled_from(range(63, 67)))),
       st.data())
def test_stacked_rabin_matches_single_calls(case, data):
    field, d = case
    spec = field_make(*field)
    coeff = st.integers(0, spec.q - 1)
    rows = [Polynomial._wrap(spec, np.array(
                data.draw(st.lists(coeff, min_size=d, max_size=d))
                + [data.draw(st.integers(1, spec.q - 1))], dtype=np.int64))
            for _ in range(data.draw(st.integers(1, 12)))]
    assert is_irreducible(rows) == [is_irreducible(f) for f in rows]


#: The largest space sieved here: `monic_irreducibles` caches every list it
#: builds for the life of the test process, so larger spaces would hold their
#: memory for the rest of the test run.
SIEVE_LIMIT = 2 ** 18


def known_irreducible(spec, e, rng):
    """A random monic irreducible of degree e from the sieve, or one over
    GF(p) taken into spec when gcd(e, k) = 1 (it stays irreducible); None
    when neither space is within SIEVE_LIMIT."""
    for source in (spec, field_make(spec.p)):
        if source.q ** e <= SIEVE_LIMIT and (source is spec or math.gcd(e, spec.k) == 1):
            return rng.choice(monic_irreducibles(source, e)).embed(spec)
    return None


def partitions(d, parts, largest=None):
    """The partitions of d into at most `parts` parts of at most `largest`,
    largest part first."""
    if d == 0:
        yield ()
    elif parts:
        for first in range(min(d, largest or d), 0, -1):
            for rest in partitions(d - first, parts - 1, first):
                yield (first,) + rest


@pytest.mark.parametrize("p, k, degrees", [(3, 1, (8, 9, 10, 12)), (2, 2, (8, 9, 10, 12)),
                                           (3, 2, (8, 9, 10, 12)), (2, 1, (12,))])
def test_frobenius_matrix_rabin_agrees_with_the_sieve(monkeypatch, p, k, degrees, rng):
    # stacks that mix rows a gcd rejects first, rows a later gcd rejects,
    # rows only the last Frobenius step rejects, and irreducible rows, each
    # built from sieved factors of known degrees; q = 2 runs without Q
    spec = field_make(p, k)
    sizes = []
    gcd = poly.gcd
    monkeypatch.setattr(poly, "gcd", lambda a, b: (
        sizes.append(len(b)) if isinstance(b, poly._Stack) else None) or gcd(a, b))
    for d in degrees:
        steps = sorted({d // r for r in prime_factors(d)})
        # route: the first gcd step that rejects a row, len(steps) for the
        # last Frobenius step, len(steps) + 1 for an irreducible row
        routes = {}
        for shape in partitions(d, 4):
            route = next((i for i, t in enumerate(steps) if any(t % e == 0 for e in shape)),
                         len(steps) + (shape == (d,)))
            factors = [known_irreducible(spec, e, rng) for e in shape]
            if None not in factors and len(routes.setdefault(route, [])) < 4:
                routes[route].append(poly._product(factors, Polynomial.one(spec)))
        while len(routes.setdefault(len(steps) + 1, [])) < 2:  # irreducible rows
            f = random_poly(spec, d, rng, monic=True)
            if is_irreducible(f):
                routes[len(steps) + 1].append(f)
        assert sorted(routes) == list(range(len(steps) + 2)), (spec, d, sorted(routes))
        rows = [(route, f) for route, fs in routes.items() for f in fs]
        rng.shuffle(rows)
        sizes.clear()
        verdicts = is_irreducible([f.scale(rng.randrange(1, spec.p)) for _, f in rows])
        expected = [route > len(steps) for route, _ in rows]
        assert verdicts == expected == [is_irreducible(f) for _, f in rows], (spec, d)
        # each gcd sees the rows that no earlier gcd rejected
        assert sizes[:len(steps)] == [sum(route >= i for route, _ in rows)
                                      for i in range(len(steps))], (spec, d)
        if spec.q ** d <= SIEVE_LIMIT:
            sieved = set(monic_irreducibles(spec, d))
            assert [f in sieved for _, f in rows] == expected, (spec, d)


def test_pow_mod_and_gcd_on_stacks_match_single_calls(fields, rng):
    for q in (2, 4, 5, 9):
        spec = fields[q]
        for D in (1, 2, 3, 5):
            mods = [random_poly(spec, D, rng) for _ in range(12)]
            bases = [random_poly(spec, rng.randrange(0, 2 * D + 2), rng)
                     for _ in range(11)] + [Polynomial.zero(spec)]
            for i in range(0, 12, 3) if D > 1 else ():  # rows with a common factor
                g = random_poly(spec, rng.randrange(1, D), rng, monic=True)
                mods[i] = g * random_poly(spec, D - int(g.degree), rng)
                bases[i] = g * random_poly(spec, rng.randrange(0, 3), rng)
            assert list(gcd(bases, mods)) == [gcd(a, m) for a, m in zip(bases, mods)]
            for e in (0, 1, 2, q, q ** 3 + 7):
                assert list(pow_mod(bases, e, mods)) \
                    == [pow_mod(a, e, m) for a, m in zip(bases, mods)], (spec, D, e)
    F3 = fields[3]
    with pytest.raises(errors.ZeroModulus):
        pow_mod([P(F3, "x")], 2, [P(F3, "2")])
    with pytest.raises(errors.InvalidArgument):
        pow_mod([P(F3, "x"), P(F3, "x")], 2, [P(F3, "x^2+1")])
    with pytest.raises(errors.FieldMismatch):
        gcd([P(fields[9], "x")], [P(F3, "x^2+1")])


def test_argument_range_errors_derive_from_the_error_base():
    # callers catch errors.Error, so a range check raises a subclass of it
    F3 = field_make(3)
    x, mod = P(F3, "x"), P(F3, "x^2+1")
    for call in (lambda: x ** -1, lambda: pow_mod(x, -1, mod),
                 lambda: pow_mod([x], -1, [mod])):
        with pytest.raises(errors.Error):
            call()


def necklace_count(q, d):
    return sum(moebius_mu(e) * q ** (d // e) for e in divisors(d)) // d


@pytest.mark.parametrize("p, k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                  (2, 3), (3, 2), (2, 4), (5, 2)])
def test_sieve_agrees_with_rabin(p, k):
    F = field_make(p, k)
    d = 1
    while F.q ** d <= 2 ** 12:
        sieved = monic_irreducibles(F, d)
        assert tuple(sieved) == tuple(enumerate_monic_irreducible(F, d)), (F, d)
        assert len(sieved) == necklace_count(F.q, d), (F, d)
        d += 1
    with pytest.raises(ValueError):
        monic_irreducibles(F, 0)


def test_cached_sieve_is_read_only():
    # monic_irreducibles hands out its cached array, so an in-place kernel
    # step on it, or on a row read from it, must raise, not rewrite the cache
    sieved = monic_irreducibles(field_make(5), 2)
    with pytest.raises(ValueError):
        sieved.A[0, 0] = 1
    with pytest.raises(ValueError):
        sieved[0]._a[0] = 1
    assert tuple(sieved) == tuple(enumerate_monic_irreducible(field_make(5), 2))


def test_sieve_refuses_large_spaces():
    with pytest.raises(errors.SizeBoundExceeded):
        monic_irreducibles(field_make(5), 40)


def test_sieve_runs_no_rabin_test(monkeypatch):
    def refuse(f):
        raise AssertionError("the sieve called is_irreducible")
    monkeypatch.setattr(poly, "is_irreducible", refuse)
    monic_irreducibles.cache_clear()
    try:
        for p, k, d in [(2, 1, 9), (3, 1, 5), (2, 2, 4), (3, 2, 3)]:
            assert len(monic_irreducibles(field_make(p, k), d)) \
                == necklace_count(p ** k, d)
    finally:
        monic_irreducibles.cache_clear()


#: The child's own peak RSS in kB.  Its ru_maxrss would start at the peak of
#: the process that spawned it, here the test runner.
CHILD_PEAK_KB = "open('/proc/self/status').read().split('VmHWM:')[1].split()[0]"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_sieve_memory_and_time_at_the_bound():
    # 2^20 candidates, the largest space the bound admits, in blocks
    code = ("import time\nfrom qtk import field_make\n"
            "from qtk.poly import monic_irreducibles\nt = time.perf_counter()\n"
            "n = len(monic_irreducibles(field_make(2), 20))\n"
            f"print(n, time.perf_counter() - t, {CHILD_PEAK_KB})\n")
    proc = subprocess.run([sys.executable, "-c", code], env=subprocess_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    count, seconds, peak_kb = proc.stdout.split()
    assert int(count) == 52377 == necklace_count(2, 20)
    assert float(seconds) < 20
    assert int(peak_kb) < 200 * 1024


def test_compose_fraction_with_constant_denominator(fields, rng):
    # den = 1 and other constants against the running-power Horner of the
    # reference arithmetic, over the field grid plus GF(16)
    for spec in [*fields.values(), field_make(2, 4)]:
        for trial in range(12):
            f = random_poly(spec, rng.randrange(9), rng)
            num = random_poly(spec, rng.randrange(3), rng)
            den = Polynomial.one(spec) if trial % 3 == 0 else random_poly(spec, 0, rng)
            expected = reference.poly_compose_fraction(
                spec, *([c.coords for c in g.coeffs] for g in (f, num, den)))
            got = compose_fraction(f, num, den)
            assert [c.coords for c in got.coeffs] == expected, (spec, f, num, den)


def test_compose_fraction_across_digits(fields, rng):
    # every degree up to three digits and two coefficients past them, with
    # num and den of degree 0..2 or zero, against the running-power Horner
    # of the reference arithmetic; GF(2^10) has 3-coefficient digits and
    # GF(1048573) the largest products the digit matmul sums
    shapes = [(a, b) for a in (None, 0, 1, 2) for b in (None, 0, 1, 2)]
    extra = [field_make(2, 4), field_make(2, 10), field_make(1048573)]
    for spec in [*fields.values(), *extra]:
        B = max(1, poly._DIGIT_COORDS // spec.k)
        for d in range(3 * B + 3):
            f = random_poly(spec, d, rng)
            num, den = (Polynomial.zero(spec) if e is None else random_poly(spec, e, rng)
                        for e in shapes[(d + spec.q) % len(shapes)])
            expected = reference.poly_compose_fraction(
                spec, *([c.coords for c in g.coeffs] for g in (f, num, den)))
            got = compose_fraction(f, num, den)
            assert [c.coords for c in got.coeffs] == expected, (spec, f, num, den)
    info = poly._substitution.cache_info()
    assert info.maxsize == 256 and info.currsize <= 256
    S = poly._substitution(spec, num, den, B - 1)
    assert not S.flags.writeable
    with pytest.raises(ValueError):
        S[0, 0] = 1


def test_compose_fraction_on_stacks_across_digits(fields, rng):
    # a stack of one degree is one result per row, each the single call's
    # (which the test above pins to the reference), for every degree up to
    # three digits and num, den of degree 0..2 or zero; GF(2^11) has
    # 2-coefficient digits
    shapes = [(a, b) for a in (None, 0, 1, 2) for b in (None, 0, 1, 2)]
    for spec in [*fields.values(), field_make(2, 4), field_make(2, 11)]:
        B = max(1, poly._DIGIT_COORDS // spec.k)
        for d in range(0, 3 * B + 3, max(1, B // 4)):
            rows = [random_poly(spec, d, rng) for _ in range(4)]
            num, den = (Polynomial.zero(spec) if e is None else random_poly(spec, e, rng)
                        for e in shapes[(d + spec.q) % len(shapes)])
            stacked = compose_fraction(rows, num, den)
            assert len(stacked) == len(rows)
            assert list(stacked) == [compose_fraction(f, num, den) for f in rows], (spec, d)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
@pytest.mark.parametrize("p, k, n, points", [(2, 8, 1000, (2, 16)),
                                             (3, 1, 2000, (3, 12)),
                                             (3, 1, 16000, (3, 12))])
def test_large_transform_memory_and_time(p, k, n, points):
    # many digits in one direct call; the result is checked at 32 points of
    # an extension field against h(xi)^n * f(g(xi)/h(xi)), at 4 for n = 16000
    # (each point is a Horner pass on field elements); n = 16000 keeps the
    # Horner quadratic: its products must leave out the trailing zero padding
    spec = field_make(p, k)
    rng = random.Random(n)
    f = Polynomial._wrap(spec, np.array([rng.randrange(spec.q) for _ in range(n)]
                                        + [spec.unit], dtype=np.int64))
    code = ("import sys, time\nfrom qtk import field_make\n"
            "from qtk.moebius import expr_parse\nfrom qtk.poly import parse_poly\n"
            "from qtk.transform import transform\nF = field_make(*map(int, sys.argv[1:3]))\n"
            "f = parse_poly(F, sys.argv[3])\nt = time.perf_counter()\n"
            "out = transform(f, expr_parse(F, '1,0,1 / 0,1')).result\n"
            f"print(time.perf_counter() - t, {CHILD_PEAK_KB}, out.to_text())\n")
    proc = subprocess.run([sys.executable, "-c", code, str(p), str(k), f.to_text()],
                          env=subprocess_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    seconds, peak_kb, text = proc.stdout.split(" ", 2)
    assert float(seconds) < 20
    assert int(peak_kb) < 200 * 1024
    out = parse_poly(spec, text)
    assert out.degree == 2 * n
    E = field_make(*points)
    f, out = f.embed(E), out.embed(E)
    for xi in (FieldElement(E, rng.randrange(1, E.q)) for _ in range(32 if n <= 2000 else 4)):
        assert out(xi) == xi ** n * f((xi * xi + E.one) / xi)


def test_enumeration_order_and_examples():
    F2, F3 = field_make(2), field_make(3)
    assert [f.to_human() for f in enumerate_monic_irreducible(F2, 2)] \
        == ["x^2+x+1"]
    assert [f.to_human() for f in enumerate_monic_irreducible(F3, 1)] \
        == ["x", "x+1", "x+2"]
    assert len(list(enumerate_monic_irreducible(F2, 3))) == 2
    with pytest.raises(errors.SizeBoundExceeded):
        next(enumerate_monic_irreducible(field_make(5), 40))


def test_factorize_examples():
    F2, F3, F5 = field_make(2), field_make(3), field_make(5)
    fac = factorize(P(F3, "x^4+2"), 2)
    assert {(f.to_human(), m) for f, m in fac} \
        == {("x+1", 1), ("x+2", 1), ("x^2+1", 1)}
    fac = factorize(P(F2, "x^2+x+1"), 2)
    assert [(f.to_human(), m) for f, m in fac] == [("x^2+x+1", 1)]
    fac = factorize(P(F5, "x^2"), 5)
    assert [(f.to_human(), m) for f, m in fac] == [("x", 2)]
    with pytest.raises(errors.BoundTooSmall):
        factorize(P(F3, "x^2+1"), 1)


def test_factorize_product_roundtrip(fields, rng):
    for spec in fields.values():
        for _ in range(10):
            f = random_poly(spec, rng.randrange(1, 7), rng)
            fac = factorize(f, int(f.degree))
            assert fac.product() == f
            assert fac.unit == f.leading
            for phi, _ in fac:
                assert phi.is_monic() and is_irreducible(phi)


def _random_irreducible(spec, degree, rng):
    while True:
        g = random_poly(spec, degree, rng, monic=True)
        if is_irreducible(g):
            return g


def _pairs(fac):
    return [(g.sort_key(), m) for g, m in fac]


def test_factorize_square_beyond_the_sieve(rng):
    # 8^7 > 2^20 candidates of degree 7: no irreducible list exists for g
    F8 = field_make(2, 3)
    g = _random_irreducible(F8, 7, rng)
    assert ddf(g * g) == {7: g}
    assert _pairs(factorize(g * g, 7)) == [(g.sort_key(), 2)]


def test_factorize_two_quadratics_over_gf65536(rng):
    F = field_make(2, 16)
    g1 = _random_irreducible(F, 2, rng)
    g2 = _random_irreducible(F, 2, rng)
    while g2 == g1:
        g2 = _random_irreducible(F, 2, rng)
    fac = factorize((g1 * g2).scale(F.gen()), 2)
    assert fac.unit == F.gen()
    assert _pairs(fac) == sorted([(g1.sort_key(), 1), (g2.sort_key(), 1)])


def test_factorize_the_last_two_linears_over_gf65536():
    F = field_make(2, 16)
    lin = [Polynomial(F, [-F.element(F.coords(u)), F.one])
           for u in (F.q - 1, F.q - 2)]
    fac = factorize(lin[0] * lin[1], 1)
    assert _pairs(fac) == sorted((g.sort_key(), 1) for g in lin)


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2)])
def test_factorize_and_ddf_match_trial_division(p, k, rng):
    # extension fields, with squares and cubes: both the trace split (q even)
    # and the power split (q odd) run
    spec = field_make(p, k)
    quads = set()
    while len(quads) < 3:
        quads.add(_random_irreducible(spec, 2, rng))
    g1, g2, g3 = sorted(quads, key=Polynomial.sort_key)
    cases = [g1 * g2 ** 2 * g3 ** 3]  # one degree-2 layer of three factors
    for _ in range(8):
        cases.append(random_poly(spec, rng.randrange(1, 6), rng)
                     * random_poly(spec, rng.randrange(1, 3), rng, monic=True) ** 2
                     * random_poly(spec, 1, rng, monic=True) ** 3)
    for f in cases:
        ref = reference.factorize_trial(f, int(f.degree))
        fac = factorize(f, int(f.degree))
        assert fac.unit == ref.unit and _pairs(fac) == _pairs(ref)
        layers = {}
        for g, _ in ref:
            layers[int(g.degree)] = layers.get(int(g.degree), Polynomial.one(spec)) * g
        assert ddf(f.monic()) == layers


def test_fermat_for_extensions(fields):
    # x^(q^n) = x mod f for every irreducible f of degree n
    for q in (2, 3, 4, 5):
        spec = fields[q]
        for n in range(1, 5):
            if q ** n > 700:
                continue
            for f in enumerate_monic_irreducible(spec, n):
                x = Polynomial.x(spec)
                assert pow_mod(x, q ** n, f) == x % f


def test_text_formats():
    F3, F9 = field_make(3), field_make(3, 2)
    p = P(F3, "1,2,0,1")
    assert p.to_human() == "x^3+2*x+1"
    assert parse_poly(F3, p.to_human()) == p
    assert parse_poly(F3, p.to_text()) == p
    ext = Polynomial(F9, [F9.element((1, 2)), F9.one])
    assert parse_poly(F9, ext.to_text()) == ext
    assert parse_poly(F9, ext.to_human()) == ext
    assert parse_poly(F3, "x^2-1") == P(F3, "x^2+2")
    assert Polynomial.zero(F3).to_text() == "0"
    assert parse_poly(F3, "0").is_zero()


def test_scale_and_monic():
    F5 = field_make(5)
    p = P(F5, "2*x^2+4")
    assert p.monic() == P(F5, "x^2+2")
    assert p.scale(F5.element(3)) == P(F5, "x^2+2")
    with pytest.raises(errors.FieldMismatch):
        P(F5, "x") + P(field_make(3), "x")
