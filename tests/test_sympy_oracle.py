"""Prime-field irreducibility, factorization and hverify certificates against
sympy, an independent implementation; skipped where sympy is not installed."""

import functools
import json
import operator

import pytest

from conftest import random_poly
from qtk import cli, field_make, poly
from qtk.poly import Polynomial, factorize, gcd, is_irreducible, pow_mod

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


@pytest.mark.parametrize("p, degrees", [(2, (3, 20, 63)), (3, (5, 40)), (7, (4, 30)),
                                        (1021, (6, 50)), (1048573, (9, 64)),
                                        (5, (70,))])
def test_gcd_matches_sympy_on_a_planted_common_factor(p, degrees, rng):
    # gcd(g*u, g*v) against sympy's gcd at the larger degrees n given: the
    # packed Euclid in slots of 1 (p = 2; p = 3 at n = 5), 2 (p = 3 at n = 40;
    # p = 7; p = 5), 4 (p = 1021) and 8 (p = 1048573) bytes; then a divisor
    # with every coefficient p - 1 and
    # a quotient of ones, whose first division adds up to n // 2 + 1 products
    # (p - 1)^2 to a slot, the largest sums
    spec = field_make(p)
    x = sympy.Symbol("x")

    def check(a, b):
        theirs = sympy.Poly([int(c) for c in reversed(a.coeffs)], x, modulus=p).gcd(
            sympy.Poly([int(c) for c in reversed(b.coeffs)], x, modulus=p)).monic()
        ours = gcd(a, b)
        assert ours == Polynomial(spec, [int(c) % p for c in reversed(theirs.all_coeffs())])
        return ours
    for n in degrees:
        for _ in range(6):
            g = random_poly(spec, rng.randrange(1, n), rng)
            u = random_poly(spec, n - int(g.degree), rng)
            v = random_poly(spec, rng.randrange(0, n - int(g.degree) + 1), rng)
            assert (check(g * u, g * v) % g.monic()).is_zero()
        b = Polynomial(spec, [p - 1] * (n // 2 + 1))
        check(b * Polynomial(spec, [1] * (n - n // 2 + 1)) + random_poly(spec, n // 2 - 1, rng), b)


@pytest.mark.parametrize("p, n, width", [(2, 65, 1), (1048573, 65, 8), (1021, 512, 4),
                                         (3, 2048, 2), (4093, 4096, 8)])
def test_packed_division_and_gcd_above_degree_64_match_sympy(p, n, width, rng):
    # divmod by a non-monic divisor of degree n and by one with every
    # coefficient p - 1, gcd(g*u, g*v) with deg g*u = n, and (n <= 512)
    # x^(2n+3) mod f, on residues packed in slots of `width` bytes, against
    # sympy's dense GF(p) arithmetic; the other operands are short, so its
    # pure-Python division stays cheap
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_div, gf_gcd, gf_pow_mod
    spec = field_make(p)

    def theirs(f):  # coefficients from the leading one down
        return [int(c) for c in reversed(f.coeffs)]

    def ours(c):
        return Polynomial(spec, c[::-1])
    for f in (random_poly(spec, n, rng), Polynomial(spec, [p - 1] * (n + 1))):
        assert poly._Divisor(spec, f._a).dt.itemsize == width
        for a in (random_poly(spec, n + 30, rng), Polynomial(spec, [p - 1] * (n + 31))):
            assert divmod(a, f) == tuple(map(ours, gf_div(theirs(a), theirs(f), p, ZZ))), (a, f)
        if n <= 512:
            want = gf_pow_mod([1, 0], 2 * n + 3, theirs(f), p, ZZ)
            assert pow_mod(Polynomial.x(spec), 2 * n + 3, f) == ours(want)
    g = random_poly(spec, 10, rng)
    u, v = random_poly(spec, n - 10, rng), random_poly(spec, 30, rng)
    assert gcd(g * u, g * v) == ours(gf_gcd(theirs(g * u), theirs(g * v), p, ZZ))


@pytest.mark.parametrize("d", [2, 3])
def test_irreducibility_at_eight_byte_slots_matches_sympy(d, rng):
    # GF(1048573) packs residues in 8-byte slots, and at d <= 3 Rabin's test
    # runs without the root test, with remainders of d slots
    p = 1048573
    spec = field_make(p)
    x = sympy.Symbol("x")
    verdicts = []
    for _ in range(30):
        f = random_poly(spec, d, rng, monic=True)
        theirs = sympy.Poly([int(c) for c in reversed(f.coeffs)], x, modulus=p).is_irreducible
        verdicts.append(is_irreducible(f))
        assert verdicts[-1] == theirs, f.to_human()
    assert 0 < sum(verdicts) < len(verdicts)


#: hverify argvs over prime fields with odd n, so that n/1 is odd and the
#: degree-1 layer (the pencil) is among the factors
HVERIFY_ARGVS = [
    ["--field", "5", "--n", "3", "--sigma", "2"],
    ["--field", "13", "--n", "1", "--expr", "1,2,1 / 3,0,1"],
    ["--field", "3", "--n", "5", "--expr", "1,0,1 / 1,1"],
    ["--field", "7", "--n", "3", "--expr", "2,1,1 / 0,1"],
]


@pytest.mark.parametrize("argv", HVERIFY_ARGVS)
def test_hverify_certificate_replays_in_sympy(argv, capsys):
    # the --json report alone, re-checked with sympy's arithmetic: the
    # factors multiply to the core, the core divides H, the factors are
    # distinct irreducibles and exactly sympy's own factorization of the
    # core, and each factor with a source f is the monic h^m f(g/h)
    assert cli.main(["--json", "hverify", *argv]) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    p = int(report["field"])
    x = sympy.Symbol("x")

    def poly(text):
        return sympy.Poly([int(c) for c in reversed(text.split(","))], x, modulus=p)

    def key(f):
        return tuple(int(c) % p for c in f.all_coeffs())
    H, core = poly(report["h"]["coeffs"]), poly(report["h_core"]["coeffs"])
    g, h = (poly(text) for text in report["expr"].split("/"))
    factors = [poly(m["factor"]["coeffs"]) for m in report["factors"]]
    assert key(functools.reduce(operator.mul, factors)) == key(core)
    assert H.rem(core).is_zero
    assert all(F.is_irreducible and F.is_monic for F in factors)
    assert len({key(F) for F in factors}) == len(factors)
    assert sorted(F.degree() for F in factors) == sorted(report["degree_multiset"])
    _, theirs = core.factor_list()
    assert all(e == 1 for _, e in theirs)
    assert sorted(key(F.monic()) for F, _ in theirs) == sorted(map(key, factors))
    sources = 0
    for m, F in zip(report["factors"], factors):
        if m["f"] is None:
            assert m["source_kind"] == "pencil-endpoint" and key(F) == key(h.monic())
            continue
        f = poly(m["f"]["coeffs"])
        coeffs, deg = f.all_coeffs()[::-1], f.degree()
        image = sum((c * g ** i * h ** (deg - i) for i, c in enumerate(coeffs)),
                    sympy.Poly(0, x, modulus=p))
        assert key(image.monic()) == key(F)
        if m["alpha"] is not None:
            assert key(f) == key(poly(f"{-int(m['alpha'])},1"))
        sources += 1
    assert any(m["source_kind"] == "pencil" for m in report["factors"])
    assert sources
