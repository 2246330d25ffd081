import pytest

import reference
from conftest import random_expr
from qtk import errors, field_make
from qtk.counting import count_sigma
from qtk.gf import least_nonsquare
from qtk.hfactor import (HSpec, _image_irreducible, _split_h,
                         _squarefree_combo, build_h, hspec_from_expr,
                         permitted_source_degrees, verify_meyn_generalized,
                         verify_meyn_product)
from qtk.moebius import expr_parse, sigma_form
from qtk.poly import Polynomial, enumerate_monic, is_irreducible, parse_poly
from qtk.transform import fixed_point_quadratic


def _check(report, name):
    return next(c for c in report.checks if c.name == name)


def test_cross_product_examples():
    F3 = field_make(3)
    a, b, c = expr_parse(F3, "1,0,1 / 0,1").abc
    assert (a, b, c) == (F3.one, F3.zero, F3.element(2))  # (1, 0, -1)
    a, b, c = expr_parse(F3, "2,0,1 / 0,1").abc
    assert (a, b, c) == (F3.one, F3.zero, F3.element(1))  # (1, 0, -2)
    a, b, c = expr_parse(F3, "0,0,1 / 1").abc
    assert (a, b, c) == (F3.zero, F3.element(2), F3.zero)  # (0, -1, 0)
    assert not (b * b - a * c).is_zero()


def test_hspec_validation():
    F3, F2 = field_make(3), field_make(2)
    with pytest.raises(errors.SingularTriple):
        HSpec(1, F3.one, F3.one, F3.one)
    with pytest.raises(errors.Char2Degenerate):
        HSpec(1, F2.zero, F2.one, F2.zero)
    with pytest.raises(errors.SizeBoundExceeded):
        build_h(HSpec(9, F3.one, F3.zero, F3.element(2)))


def test_build_h_meyn_examples():
    # (x^(q^n+1) - sigma) / gcd(x^2 - sigma, x^(q^n-1) - 1) for (x^2 + sigma)/x
    def core(sigma, n):
        _, _, h_core, exact = _split_h(hspec_from_expr(sigma_form(sigma), n), None)
        assert exact
        return h_core

    F3, F2 = field_make(3), field_make(2)
    assert core(F3.one, 1) == parse_poly(F3, "x^2+1")
    # nonsquare sigma with n odd: nothing divides out
    assert core(F3.element(2), 1) == parse_poly(F3, "x^4+1")
    assert core(F2.one, 1) == parse_poly(F2, "x^2+x+1")
    assert core(F3.one, 2) == parse_poly(F3, "1,0,1,0,1,0,1,0,1")


def test_build_h_dense_form():
    F3 = field_make(3)
    spec = hspec_from_expr(expr_parse(F3, "1,0,1 / 0,1"), 1)
    assert build_h(spec) == parse_poly(F3, "x^4+2")  # x^4 - 1
    spec = hspec_from_expr(expr_parse(F3, "0,0,1 / 1"), 1)
    # (a, b, c) = (0, -1, 0): H = x^3 + x
    assert build_h(spec) == parse_poly(F3, "x^3+x")


def test_squarefree_witness():
    F3 = field_make(3)
    hs = hspec_from_expr(expr_parse(F3, "1,0,1 / 0,1"), 1)
    assert _squarefree_combo(hs, build_h(hs)) == Polynomial.one(F3)
    hs = hspec_from_expr(expr_parse(F3, "0,0,1 / 1"), 1)
    assert _squarefree_combo(hs, build_h(hs)) == Polynomial.one(F3)  # b^2 - ac = 1


def test_squarefree_witness_randomized(fields, rng):
    for spec in fields.values():
        for n in (1, 2):
            if spec.q ** n + 1 > 130:
                continue
            for _ in range(8):
                r = random_expr(spec, rng)
                if spec.p == 2 and r.g.coeff(1).is_zero() \
                        and r.h.coeff(1).is_zero():
                    continue
                hs = hspec_from_expr(r, n)
                assert _squarefree_combo(hs, build_h(hs)) \
                    == Polynomial(spec, [hs.discriminant()])


def test_corrupted_h_fails_the_squarefree_witness_check(monkeypatch):
    # H + x^2 breaks (ax-b)H' - aH = b^2 - ac: the report records the failed
    # check, with the nonconstant combination as its detail
    import qtk.hfactor as hfactor
    real = hfactor.build_h
    monkeypatch.setattr(hfactor, "build_h", lambda spec, bound=None:
                        real(spec, bound) + Polynomial.monomial(spec.owner, 2))
    F3 = field_make(3)
    with pytest.raises(errors.MismatchFound) as exc:
        verify_meyn_product(F3.element(2), 2)
    witness = _check(exc.value.report, "squarefree-witness")
    assert witness.ok is False
    combo = _squarefree_combo(hspec_from_expr(sigma_form(F3.element(2)), 2),
                              exc.value.report.h)
    assert combo.degree > 0 and witness.detail == combo.to_text()


def test_fixed_point_quadratic_char2():
    F4 = field_make(2, 2)
    gen = F4.gen()
    # -2b vanishes: a x^2 + c
    assert fixed_point_quadratic(F4.one, F4.one, gen) \
        == Polynomial(F4, [gen, F4.zero, F4.one])


def test_product_degree_summary():
    # deg H / (fixed part) = q^n - eps^n, as the degree-identity check reports
    F3, F2 = field_make(3), field_make(2)
    for spec, text, n, degree, eps in ((F3, "1,0,1 / 0,1", 1, 2, 1),
                                       (F3, "1,0,2 / 0,1", 1, 4, -1),
                                       (F2, "1,1,1 / 0,1", 1, 2, 0),
                                       (F3, "0,0,1 / 1", 2, 8, 1)):
        check = _check(verify_meyn_generalized(expr_parse(spec, text), n),
                       "degree-identity")
        assert check.ok
        assert check.detail == f"deg = {degree}, q^n - eps^n = {degree}, eps = {eps}"


def test_permitted_source_degrees():
    assert permitted_source_degrees(1) == [1]
    assert permitted_source_degrees(2) == [2]
    assert permitted_source_degrees(6) == [2, 6]
    assert permitted_source_degrees(10) == [2, 10]
    assert permitted_source_degrees(12) == [4, 12]


def test_image_irreducible_agrees_with_generic(fields):
    # the fast image test must agree with the general criterion on every
    # monic quadratic and every transform image at small sizes
    for q in (2, 3, 5):
        spec = fields[q]
        for F in enumerate_monic(spec, 2):
            if F.coeff(0).is_zero() and F.coeff(1).is_zero():
                continue  # x^2: covered by squarefree screen anyway
            assert _image_irreducible(F, 1) == is_irreducible(F)
        r = sigma_form(spec.one)
        from qtk.poly import enumerate_monic_irreducible
        from qtk.transform import transform
        for m in (2, 3):
            for f in enumerate_monic_irreducible(spec, m):
                F = transform(f, r, monic=True).result
                assert _image_irreducible(F, m) == is_irreducible(F)


def test_verify_meyn_product_examples():
    F3, F2 = field_make(3), field_make(2)
    rep = verify_meyn_product(F3.one, 1)
    assert rep.ok
    assert [m.factor.to_human() for m in rep.factors] == ["x^2+1"]
    rep = verify_meyn_product(F2.one, 2)
    assert [m.factor.to_human() for m in rep.factors] == ["x^4+x^3+x^2+x+1"]
    rep = verify_meyn_product(F3.element(2), 1)
    assert len(rep.factors) == 2
    assert len(rep.factors) == count_sigma(F3, 1, F3.element(2)).value
    assert rep.h_core == parse_poly(F3, "x^4+1")


def test_verify_factor_counts_match_formula(fields):
    # the number of top-degree factors equals the closed-form count
    for q in (2, 3, 4, 5):
        spec = fields[q]
        sigmas = [spec.one] if spec.p == 2 \
            else [spec.one, least_nonsquare(spec)]
        for sigma in sigmas:
            for n in (1, 2, 3):
                if spec.q ** n + 1 > 260:
                    continue
                rep = verify_meyn_product(sigma, n)
                top = sum(1 for m in rep.factors if m.degree == 2 * n)
                assert top == count_sigma(spec, n, sigma).value


def test_verify_against_trial_division(fields):
    # full agreement with the reference trial-division factorizer, which does
    # not run the distinct-degree factorization behind the ddf-layers check
    for q, n, sigma_val in ((2, 2, 1), (3, 1, 1), (3, 1, 2), (3, 2, 1), (2, 3, 1)):
        spec = fields[q]
        sigma = spec.element(sigma_val)
        rep = verify_meyn_product(sigma, n)
        fac = reference.factorize_trial(rep.h_core, 2 * n)
        assert sorted(f.sort_key() for f, mult in fac for _ in range(mult)) \
            == sorted(m.factor.sort_key() for m in rep.factors)


def test_verify_pencil_endpoint_case():
    # over GF(3) with R = x/(x^2+1) the only quadratic factor of H is h itself
    F3 = field_make(3)
    rep = verify_meyn_generalized(expr_parse(F3, "0,1 / 1,0,1"), 1)
    assert rep.ok
    assert [(m.factor.to_human(), m.source_kind) for m in rep.factors] \
        == [("x^2+1", "pencil-endpoint")]
    # same expression at odd n > 1 keeps the endpoint layer plus images
    rep = verify_meyn_generalized(expr_parse(F3, "0,1 / 1,0,1"), 3)
    assert rep.ok
    kinds = {m.source_kind for m in rep.factors}
    assert kinds == {"pencil-endpoint", "transform"}


def test_verify_generalized_specializes_to_product():
    F3 = field_make(3)
    rep_g = verify_meyn_generalized(expr_parse(F3, "1,0,1 / 0,1"), 1)
    rep_p = verify_meyn_product(F3.one, 1)
    assert [m.factor for m in rep_g.factors] == [m.factor for m in rep_p.factors]


def test_verify_generalized_randomized(fields, rng):
    for q in (2, 3, 4, 5):
        spec = fields[q]
        for n in (1, 2, 3):
            if spec.q ** n + 1 > 260:
                continue
            for _ in range(4):
                r = random_expr(spec, rng)
                if spec.p == 2 and r.g.coeff(1).is_zero() \
                        and r.h.coeff(1).is_zero():
                    continue
                rep = verify_meyn_generalized(r, n)
                assert rep.ok
                for m in rep.factors:
                    assert (2 * n) % m.degree == 0 and n % m.degree != 0
                    if m.degree >= 4:
                        assert m.reconstructed_f == m.f


def test_verify_char2_spec_example():
    F2 = field_make(2)
    rep = verify_meyn_generalized(expr_parse(F2, "1,1,1 / 0,1,1"), 2)
    assert rep.ok and rep.degree_multiset() == [4]


def test_verify_char2_degenerate_rejected():
    F2 = field_make(2)
    with pytest.raises(errors.Char2Degenerate):
        verify_meyn_generalized(expr_parse(F2, "1,0,1 / 0,0,1"), 2)


def test_size_bound():
    F3 = field_make(3)
    with pytest.raises(errors.SizeBoundExceeded):
        verify_meyn_product(F3.one, 2, size_bound=9)


def test_report_json_shape():
    F3 = field_make(3)
    rep = verify_meyn_product(F3.one, 2)
    d = rep.to_json_dict()
    assert d["ok"] is True
    assert d["field"] == "3"
    assert d["factor_count"] == 2
    assert {c["name"] for c in d["checks"]} >= {
        "squarefree-witness", "degree-identity", "product-identity",
        "frobenius-closure", "reconstruction-roundtrip"}
    assert all(c["ok"] for c in d["checks"])


def test_zero_sigma_is_refused():
    F3 = field_make(3)
    with pytest.raises(errors.ZeroSigma):
        sigma_form(F3.zero)
    with pytest.raises(errors.ZeroSigma):
        verify_meyn_product(F3.zero, 2)
