import pytest

from conftest import random_expr, random_moebius
from qtk import errors, field_make
from qtk.gf import is_square
from qtk.moebius import (CanonicalKind, MoebiusMap, QuadRationalExpr,
                         SigmaClass, apply_post, apply_pre, classify_sigma,
                         expr_parse, moebius_compose, moebius_parse,
                         normalized_sigma, reduce_canonical, sigma_form)
from qtk.poly import Polynomial, parse_poly


def test_compose_identity_and_involution():
    F5 = field_make(5)
    m = MoebiusMap.from_ints(F5, 1, 2, 3, 2)
    ident = MoebiusMap.identity(F5)
    inv = MoebiusMap.inversion(F5)
    assert moebius_compose(m, ident) == m
    assert moebius_compose(inv, inv) == ident
    assert m @ m.inverse() == ident


def test_cayley_composition():
    # (2x+2)/(-x+1) after x^2 after (x-1)/(x+1) equals x + 1/x
    F5 = field_make(5)
    r = expr_parse(F5, "0,0,1 / 1")
    r = apply_pre(r, MoebiusMap.from_ints(F5, 1, -1, 1, 1))
    r = apply_post(r, MoebiusMap.from_ints(F5, 2, 2, -1, 1))
    assert r == sigma_form(F5.one)


def test_apply_pre_examples():
    F3 = field_make(3)
    r = expr_parse(F3, "0,0,1 / 1")
    shifted = apply_pre(r, MoebiusMap.affine(F3.one, F3.one))
    assert shifted == expr_parse(F3, "1,2,1 / 1")
    r2 = expr_parse(F3, "1,0,1 / 0,1")
    assert apply_pre(r2, MoebiusMap.inversion(F3)) == r2
    assert apply_pre(r2, MoebiusMap.identity(F3)) == r2


def test_apply_post_examples():
    F3 = field_make(3)
    # subtracting the numerator's linear coefficient lands on x + sigma/x
    r = expr_parse(F3, "2,1,1 / 0,1")
    out = apply_post(r, MoebiusMap.affine(F3.one, -F3.one))
    assert out == sigma_form(F3.element(2))
    rsq = expr_parse(F3, "0,0,1 / 1")
    assert apply_post(rsq, MoebiusMap.inversion(F3)) == expr_parse(F3, "1 / 0,0,1")
    assert apply_post(rsq, MoebiusMap.identity(F3)) == rsq


def test_expr_construction_rejects_degenerate():
    F3 = field_make(3)
    with pytest.raises(errors.Error):
        QuadRationalExpr(parse_poly(F3, "x^2+2*x+1"), parse_poly(F3, "x+1"))
    with pytest.raises(errors.Error):
        QuadRationalExpr(parse_poly(F3, "x+1"), parse_poly(F3, "x"))
    with pytest.raises(errors.Error):
        QuadRationalExpr(parse_poly(F3, "x^2"), Polynomial.zero(F3))


def test_abc_nonsingular_for_valid_exprs(fields, rng):
    for spec in fields.values():
        for _ in range(20):
            r = random_expr(spec, rng)
            a, b, c = r.abc
            assert not (b * b - a * c).is_zero()


def test_reduce_x_squared_odd_char():
    F3 = field_make(3)
    form, trail = reduce_canonical(expr_parse(F3, "0,0,1 / 1"))
    assert form.kind is CanonicalKind.X_PLUS_SIGMA_OVER_X
    assert is_square(form.sigma)
    assert trail.replay() == trail.end


def test_reduce_already_canonical():
    F5 = field_make(5)
    form, trail = reduce_canonical(expr_parse(F5, "1,0,1 / 0,1"))
    assert form.sigma == F5.one
    assert trail.steps == ()


def test_reduce_char2_x_squared():
    F2 = field_make(2)
    form, trail = reduce_canonical(expr_parse(F2, "1,0,1 / 0,0,1"))
    assert form.kind is CanonicalKind.X_SQUARED
    assert trail.replay() == trail.end
    assert trail.end == expr_parse(F2, "0,0,1 / 1")


def test_classify_examples():
    F2, F3 = field_make(2), field_make(3)
    assert classify_sigma(expr_parse(F3, "1,0,1 / 0,1")) is SigmaClass.SQUARE
    assert classify_sigma(expr_parse(F3, "1,0,2 / 0,1")) is SigmaClass.NONSQUARE
    assert classify_sigma(expr_parse(F2, "1,0,1 / 1,1,1")) is SigmaClass.SQUARE
    assert classify_sigma(expr_parse(F2, "1,0,1 / 0,0,1")) is SigmaClass.X_SQUARED
    # the biquadratic shape in odd characteristic needs the shift escape
    assert classify_sigma(expr_parse(F3, "0,0,1 / 1")) is SigmaClass.SQUARE


def test_wronskian_is_the_fixed_point_quadratic(fields, rng):
    # why the class is the square class of b^2 - ac: g'h - gh' = ax^2 - 2bx + c
    for spec in fields.values():
        for _ in range(25):
            r = random_expr(spec, rng)
            a, b, c = r.abc
            w = r.g.derivative() * r.h - r.g * r.h.derivative()
            assert w == Polynomial(spec, [c, -(b + b), a])
            assert r.discriminant() == b * b - a * c


def test_trail_replay_randomized(fields, rng):
    for spec in fields.values():
        for _ in range(25):
            r = random_expr(spec, rng)
            form, trail = reduce_canonical(r)
            assert trail.start == r
            assert trail.replay() == trail.end
            if form.kind is CanonicalKind.X_PLUS_SIGMA_OVER_X:
                assert trail.end == sigma_form(form.sigma)


def test_trail_folds_into_two_composite_maps(fields, rng):
    for spec in fields.values():
        for _ in range(40):
            form, trail = reduce_canonical(random_expr(spec, rng))
            M, N = trail.composite("pre"), trail.composite("post")
            assert apply_post(apply_pre(trail.start, M), N) == trail.end \
                == trail.replay()


def test_classify_agrees_with_reduction(fields, rng):
    for spec in fields.values():
        for _ in range(25):
            r = random_expr(spec, rng)
            form, _ = reduce_canonical(r)
            cls = classify_sigma(r)
            if form.kind is CanonicalKind.X_SQUARED:
                assert cls is SigmaClass.X_SQUARED
            elif is_square(form.sigma):
                assert cls is SigmaClass.SQUARE
            else:
                assert cls is SigmaClass.NONSQUARE


def test_char2_nondegenerate_always_sigma_form(fields, rng):
    for q in (2, 4, 8):
        spec = fields[q]
        for _ in range(30):
            r = random_expr(spec, rng)
            if r.g.coeff(1).is_zero() and r.h.coeff(1).is_zero():
                continue
            form, _ = reduce_canonical(r)
            assert form.kind is CanonicalKind.X_PLUS_SIGMA_OVER_X


def test_class_invariant_under_composition(fields, rng):
    for spec in fields.values():
        for _ in range(15):
            r = random_expr(spec, rng)
            m = random_moebius(spec, rng)
            cls = classify_sigma(r)
            assert classify_sigma(apply_pre(r, m)) is cls
            assert classify_sigma(apply_post(r, m)) is cls


def test_normalized_sigma():
    F3 = field_make(3)
    assert normalized_sigma(expr_parse(F3, "1,0,1 / 0,1")) == F3.one
    assert normalized_sigma(expr_parse(F3, "1,0,2 / 0,1")) == F3.element(2)
    assert normalized_sigma(SigmaClass.SQUARE, F3) == F3.one


def test_moebius_text_roundtrip():
    F9 = field_make(3, 2)
    m = MoebiusMap(F9.element((1, 2)), F9.one, F9.zero, F9.element((0, 1)))
    assert moebius_parse(F9, m.to_text()) == m
    F5 = field_make(5)
    assert moebius_parse(F5, "[0 1; 1 0]") == MoebiusMap.inversion(F5)


def test_order3_iterates_compose_to_identity(fields):
    # x, 1/(1-x), (x-1)/x form a 3-cycle in the Moebius group
    for spec in fields.values():
        m = MoebiusMap.from_ints(spec, 0, 1, -1, 1)
        assert m @ m @ m == MoebiusMap.identity(spec)
        assert m @ m == m.inverse()
