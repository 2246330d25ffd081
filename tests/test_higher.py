import pytest

import reference
from conftest import random_moebius, random_poly
from qtk import errors, field_make
from qtk.higher import (ORDER3, ORDER4, TRANSLATION, is_invariant, kernel,
                        orbit_kernel, reconstruct_higher)
from qtk.moebius import MoebiusMap
from qtk.poly import Polynomial, parse_poly
from qtk.transform import solve_kernel, transform


def P(spec, text):
    return parse_poly(spec, text)


def image(f, order):
    return transform(f, kernel(f.owner, order)).result


def invariant(F, order):
    return is_invariant(F, kernel(F.owner, order))


def test_kernel_shapes():
    F5 = field_make(5)
    k3 = kernel(F5, ORDER3)
    assert k3.g == P(F5, "1,2,0,1")  # x^3 - 3x + 1
    assert k3.h == P(F5, "0,4,1")      # x(x-1)
    k4 = kernel(F5, ORDER4)
    assert k4.g == P(F5, "1,2,2,0,1")  # x^4 - 3x^2 + 2x - 1/4
    kt = kernel(F5, TRANSLATION)
    assert kt.g == P(F5, "0,4,0,0,0,1")  # x^5 - x
    with pytest.raises(errors.Char2Unsupported):
        kernel(field_make(2), ORDER4)


def test_order3_kernel_identity():
    # the core numerator itself satisfies (x-1)^3 F(1/(1-x)) = F
    for spec in (field_make(7), field_make(5), field_make(2), field_make(3, 2)):
        assert invariant(kernel(spec, ORDER3).g, ORDER3)
    F7 = field_make(7)
    assert not invariant(P(F7, "0,0,0,1"), ORDER3)  # x^3
    with pytest.raises(errors.DegreeNotMultiple):
        invariant(P(F7, "x^2+1"), ORDER3)


#: each kernel's Moebius map [a b; c d], scalar and degree block
KERNEL_IDENTITIES = {
    ORDER3: ((0, 1, -1, 1), -1, 3),
    ORDER4: ((0, 1, -2, 2), -4, 4),
    TRANSLATION: ((1, 1, 0, 1), 1, 1),
}


def _paper_identity(spec, F, order):
    """The paper's invariance identity for F, on coordinate tuples:
    (x-1)^(3n) F(-1/(x-1)) = F, (-1/4)^n (2-2x)^(4n) F(1/(2-2x)) = F, or
    F(x+1) = F."""
    one, two, four, minus_one, minus_two = (
        reference.const(spec, v) for v in (1, 2, 4, -1, -2))
    f = [e.coords for e in F.coeffs]
    if order == ORDER3:
        lhs = reference.poly_compose_fraction(spec, f, [minus_one], [minus_one, one])
    elif order == ORDER4:
        lhs = reference.poly_compose_fraction(spec, f, [one], [two, minus_two])
        factor = reference.mul(spec, minus_one, reference.inv(spec, four))
        for _ in range((len(f) - 1) // 4):
            lhs = reference.poly_mul(spec, lhs, [factor])
    else:
        lhs = reference.poly_compose_fraction(spec, f, [one, one], [one])
    return lhs == f


def test_is_invariant_matches_the_paper_identity(fields, rng):
    # images (invariant) and random monic F of the right degree (mostly not)
    for spec in fields.values():
        for order, (abcd, scalar, block) in KERNEL_IDENTITIES.items():
            if order == ORDER4 and spec.p == 2:
                continue
            ker = kernel(spec, order)
            assert ker.map == MoebiusMap.from_ints(spec, *abcd)
            assert (ker.scalar, ker.block) == (spec.element(scalar), block)
            step = int(ker.g.degree)
            seen = set()
            for _ in range(6):
                f = random_poly(spec, rng.randrange(1, 4), rng, monic=True)
                F = transform(f, ker).result
                assert is_invariant(F, ker) and _paper_identity(spec, F, order)
                F = random_poly(spec, step * rng.randrange(1, 4), rng, monic=True)
                got = is_invariant(F, ker)
                assert got == _paper_identity(spec, F, order)
                seen.add(got)
            assert False in seen


def test_orbit_kernel_of_random_maps(fields, rng):
    # any A != identity: its order, and a kernel whose images are A-invariant
    # and solve back, while random polynomials of the image degrees are not
    for spec in fields.values():
        identity = MoebiusMap.identity(spec)
        for _ in range(8):
            a = random_moebius(spec, rng)
            if a == identity:
                continue
            powers = a.powers()
            D = len(powers)
            assert D == spec.p or (spec.q - 1) % D == 0 or (spec.q + 1) % D == 0
            assert a @ powers[-1] == identity
            ker = orbit_kernel(a)
            assert ker.map == a
            assert ker.g.is_monic() and ker.g.degree == D
            assert ker.h.is_monic() and ker.h.degree < D
            seen = set()
            for _ in range(4):
                f = random_poly(spec, rng.randrange(1, 4), rng, monic=True)
                F = transform(f, ker).result
                assert a.fixes(F, ker.scalar, ker.block)
                assert solve_kernel(F, ker.g, ker.h) == f
                F = random_poly(spec, D * rng.randrange(1, 3), rng, monic=True)
                seen.add(a.fixes(F, ker.scalar, ker.block))
            assert False in seen, (spec, a)


def test_transform_order3_examples():
    F5 = field_make(5)
    assert image(Polynomial.x(F5), ORDER3) == P(F5, "1,2,0,1")
    assert image(P(F5, "1,1"), ORDER3) == P(F5, "x^3+x^2+x+1")
    t = transform(P(F5, "3"), kernel(F5, ORDER3))
    assert t.result == P(F5, "3") and not t.degree_dropped


def test_transform_order4_example():
    F5 = field_make(5)
    assert image(Polynomial.x(F5), ORDER4) == P(F5, "1,2,2,0,1")


def test_translation_examples():
    F2, F3 = field_make(2), field_make(3)
    assert invariant(P(F2, "0,1,1"), TRANSLATION)  # x^2 + x
    assert not invariant(Polynomial.x(F3), TRANSLATION)
    assert image(Polynomial.x(F3), TRANSLATION) == P(F3, "0,2,0,1")
    assert reconstruct_higher(P(F2, "0,1,1"), TRANSLATION) == Polynomial.x(F2)


def test_forward_invariance_randomized(fields, rng):
    for spec in fields.values():
        for _ in range(20):
            f = random_poly(spec, rng.randrange(1, 5), rng, monic=True)
            assert invariant(image(f, ORDER3), ORDER3)
            assert invariant(image(f, TRANSLATION), TRANSLATION)
            if spec.p != 2:
                assert invariant(image(f, ORDER4), ORDER4)


def test_reconstruct_roundtrips(fields, rng):
    for q in (3, 5, 7, 9):
        spec = fields[q]
        for _ in range(25):
            f = random_poly(spec, rng.randrange(1, 5), rng, monic=True)
            assert reconstruct_higher(image(f, ORDER3), ORDER3) == f
            assert reconstruct_higher(image(f, ORDER4), ORDER4) == f
            assert reconstruct_higher(image(f, TRANSLATION), TRANSLATION) == f
    for q in (2, 4):
        spec = fields[q]
        for _ in range(15):
            f = random_poly(spec, rng.randrange(1, 5), rng, monic=True)
            assert reconstruct_higher(image(f, ORDER3), ORDER3) == f
            assert reconstruct_higher(image(f, TRANSLATION), TRANSLATION) == f


def test_reconstruct_examples():
    F7 = field_make(7)
    assert reconstruct_higher(P(F7, "1,4,0,1"), ORDER3) == Polynomial.x(F7)
    got = reconstruct_higher(image(P(F7, "x^2+1"), ORDER3), ORDER3)
    assert got == P(F7, "x^2+1")
    F5 = field_make(5)
    got = reconstruct_higher(image(P(F5, "x+2"), ORDER4), ORDER4)
    assert got == P(F5, "x+2")
    with pytest.raises(errors.NotInvariant):
        reconstruct_higher(P(F7, "0,0,0,1"), ORDER3)


def test_order4_iterate_sum(fields):
    # the order-4 core equals x + 1/(2-2x) + (1-x)/(1-2x) + (2x-1)/(2x)
    for q in (3, 5, 7, 9):
        spec = fields[q]
        x, one = Polynomial.x(spec), Polynomial.one(spec)
        fracs = [(x, one),
                 (one, Polynomial(spec, [2, -2])),
                 (Polynomial(spec, [1, -1]) , Polynomial(spec, [1, -2])),
                 (Polynomial(spec, [-1, 2]), Polynomial(spec, [0, 2]))]
        num, den = Polynomial.zero(spec), one
        for fn, fd in fracs:
            num = num * fd + fn * den
            den = den * fd
        ker = kernel(spec, ORDER4)
        assert num * ker.h == ker.g * den


def test_order3_symmetric_function_identity(fields):
    # in y^3 - e1 y^2 + e2 y - e3 over the three iterates, e2 - e1 = -3
    for spec in fields.values():
        ker = kernel(spec, ORDER3)
        x, one = Polynomial.x(spec), Polynomial.one(spec)
        its = [(x, one),
               (one, Polynomial(spec, [1, -1])),
               (Polynomial(spec, [-1, 1]), x)]
        e2n, e2d = Polynomial.zero(spec), one
        for i, j in ((0, 1), (0, 2), (1, 2)):
            pn, pd = its[i][0] * its[j][0], its[i][1] * its[j][1]
            e2n = e2n * pd + pn * e2d
            e2d = e2d * pd
        lhs = e2n * ker.h - ker.g * e2d
        assert lhs == ker.h.scale(spec.element(-3)) * e2d


def test_char3_order3_conjugate_to_translation():
    # search PGL(2, 3) for m with m o (1/(1-x)) o m^(-1) = x + 1
    F3 = field_make(3)
    t = MoebiusMap.from_ints(F3, 0, 1, -1, 1)
    shift = MoebiusMap.from_ints(F3, 1, 1, 0, 1)
    witnesses = []
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    try:
                        m = MoebiusMap.from_ints(F3, a, b, c, d)
                    except errors.Error:
                        continue
                    if m @ t @ m.inverse() == shift:
                        witnesses.append(m)
    assert witnesses, "no conjugating element found"


@pytest.mark.parametrize("order", [2, 5, "dilation"])
def test_unknown_order_is_refused(order):
    F5 = field_make(5)
    with pytest.raises(errors.Error, match="unknown kernel order"):
        kernel(F5, order)
    with pytest.raises(errors.Error, match="unknown kernel order"):
        reconstruct_higher(P(F5, "1,0,1"), order)
