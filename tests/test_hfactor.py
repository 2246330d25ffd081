from math import gcd

import pytest

import reference
from conftest import random_expr
from qtk import errors, field_make
from qtk.counting import count_sigma
from qtk.gf import least_nonsquare
from qtk.hfactor import (_DDF_DEGREE_LIMIT, _split_h, _squarefree_combo,
                         build_h, permitted_source_degrees,
                         verify_meyn_generalized, verify_meyn_product)
from qtk.higher import ORDER3, ORDER4, TRANSLATION, kernel
from qtk.intmath import divisors, factorization
from qtk.moebius import expr_parse, sigma_form
from qtk.poly import Polynomial, is_irreducible, monic_irreducibles, parse_poly
from qtk.transform import (fixed_point_quadratic, irreducible_images,
                           irreducible_pencil)


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


def test_h_size_and_degree_refused():
    # the triple is r.abc, nonsingular for every QuadRationalExpr;
    # SingularTriple and Char2Degenerate are tested in test_transform.py and
    # test_verify_char2_degenerate_rejected
    F3 = field_make(3)
    r = expr_parse(F3, "1,0,1 / 0,1")
    with pytest.raises(errors.SizeBoundExceeded):
        build_h(r, 9)
    for n in (0, -1):
        with pytest.raises(errors.InvalidArgument, match="n must be >= 1"):
            build_h(r, n)
        with pytest.raises(errors.InvalidArgument, match="n must be >= 1"):
            verify_meyn_generalized(r, n)


def test_build_h_meyn_examples():
    # (x^(q^n+1) - sigma) / gcd(x^2 - sigma, x^(q^n-1) - 1) for (x^2 + sigma)/x
    def core(sigma, n):
        _, _, h_core, exact = _split_h(sigma_form(sigma), n, None)
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
    assert build_h(expr_parse(F3, "1,0,1 / 0,1"), 1) == parse_poly(F3, "x^4+2")  # x^4 - 1
    # (a, b, c) = (0, -1, 0): H = x^3 + x
    assert build_h(expr_parse(F3, "0,0,1 / 1"), 1) == parse_poly(F3, "x^3+x")


def test_squarefree_witness():
    F3 = field_make(3)
    r = expr_parse(F3, "1,0,1 / 0,1")
    assert _squarefree_combo(r, build_h(r, 1)) == Polynomial.one(F3)
    r = expr_parse(F3, "0,0,1 / 1")
    assert _squarefree_combo(r, build_h(r, 1)) == Polynomial.one(F3)  # b^2 - ac = 1


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
                assert _squarefree_combo(r, build_h(r, n)) \
                    == Polynomial(spec, [r.discriminant()])


def test_corrupted_h_fails_the_squarefree_witness_check(monkeypatch):
    # H + x^2 breaks (ax-b)H' - aH = b^2 - ac: the report records the failed
    # check, with the nonconstant combination as its detail
    import qtk.hfactor as hfactor
    real = hfactor.build_h
    monkeypatch.setattr(hfactor, "build_h", lambda r, n, bound=None:
                        real(r, n, bound) + Polynomial.monomial(r.owner, 2))
    F3 = field_make(3)
    with pytest.raises(errors.MismatchFound) as exc:
        verify_meyn_product(F3.element(2), 2)
    witness = _check(exc.value.report, "squarefree-witness")
    assert witness.ok is False
    combo = _squarefree_combo(sigma_form(F3.element(2)), exc.value.report.h)
    assert combo.degree > 0 and witness.detail == combo.to_text()


#: every row of a report in order, as a sigma with a core of degree at most
#: the ddf limit gets them
_ROWS = ["squarefree-witness", "fixed-part-divides", "degree-identity",
         "factor-degrees", "factors-distinct", "sigma-self-reciprocal",
         "factors-invariant", "factors-divide-core", "product-identity",
         "degree-bookkeeping", "frobenius-closure", "ddf-layers",
         "reconstruction-roundtrip"]


def test_passing_reports_list_the_rows_that_apply_in_order():
    # an expression has no sigma-self-reciprocal row, and a core above the
    # ddf limit (GF(7), n = 3, sigma a nonsquare: degree 7^3 + 1) no ddf-layers row
    F3, F5, F7 = field_make(3), field_make(5), field_make(7)
    cases = [
        (verify_meyn_product(F5.element(2), 2), 24, _ROWS),
        (verify_meyn_generalized(expr_parse(F3, "1,0,1 / 0,1"), 1), 2,
         [name for name in _ROWS if name != "sigma-self-reciprocal"]),
        (verify_meyn_product(least_nonsquare(F7), 3), 344,
         [name for name in _ROWS if name != "ddf-layers"]),
    ]
    assert 24 <= _DDF_DEGREE_LIMIT < 344
    for report, core_degree, names in cases:
        assert report.ok and report.h_core.degree == core_degree
        assert [c.name for c in report.checks] == names


def test_passing_report_details():
    # GF(5), sigma = 2, n = 2: a fixed part of degree 2 and six quartics
    report = verify_meyn_product(field_make(5).element(2), 2)
    assert {c.name: c.detail for c in report.checks if c.detail} == {
        "squarefree-witness": "2",
        "fixed-part-divides": "deg fixed part = 2",
        "degree-identity": "deg = 24, q^n - eps^n = 24, eps = -1",
        "factor-degrees": "multiset [4, 4, 4, 4, 4, 4]",
        "factors-distinct": "6 factors",
        "product-identity": "scalar = 1",
        "degree-bookkeeping": "24 + 2 = 26"}


def _verify_with_matches(monkeypatch, edit):
    # GF(5), sigma = 2, n = 2: the core is the product of six quartics;
    # `edit` rewrites the enumerated match list before the checks see it
    import qtk.hfactor as hfactor
    real = hfactor._enumerate_image_factors
    monkeypatch.setattr(hfactor, "_enumerate_image_factors",
                        lambda r, n: edit(real(r, n)))
    with pytest.raises(errors.MismatchFound) as exc:
        verify_meyn_product(field_make(5).element(2), 2)
    report = exc.value.report
    assert [c.name for c in report.checks] == _ROWS
    return report


def _failed(report):
    return {c.name for c in report.failures()}


def test_missing_factor_fails_the_product_but_not_the_divisibility(monkeypatch):
    # five of the six factors: every one divides the core, their product
    # (over an odd leaf count) is not the core
    report = _verify_with_matches(monkeypatch, lambda ms: ms[:2] + ms[3:])
    assert _failed(report) == {"product-identity", "degree-bookkeeping", "ddf-layers"}


def test_foreign_factor_fails_the_divisibility(monkeypatch):
    # one factor swapped for an irreducible quartic that does not divide the core
    from qtk.hfactor import FactorMatch
    from qtk.poly import monic_irreducibles

    def swap(ms):
        own = {m.factor for m in ms}
        alien = next(phi for phi in monic_irreducibles(field_make(5), 4)
                     if phi not in own)
        return ms[:1] + [FactorMatch(alien, 4, "transform", f=ms[1].f)] + ms[2:]

    report = _verify_with_matches(monkeypatch, swap)
    assert _failed(report) == {"sigma-self-reciprocal", "factors-invariant",
                               "factors-divide-core", "product-identity",
                               "ddf-layers", "reconstruction-roundtrip"}
    # the alien is not sigma-self-reciprocal, so only it lacks a recovered input
    alien = report.factors[1].factor
    assert _check(report, "reconstruction-roundtrip").detail \
        == f"transported factor {alien.to_human()} not invariant"
    assert [m.reconstructed_f for m in report.factors] \
        == [None if i == 1 else m.f for i, m in enumerate(report.factors)]


def test_duplicate_factor_fails_the_layer_divisibility(monkeypatch):
    # one factor listed twice: its square divides no squarefree core, so the
    # layer product fails to divide it although every single factor does
    report = _verify_with_matches(monkeypatch, lambda ms: ms[:2] + ms[1:])
    assert _failed(report) == {"factors-distinct", "factors-divide-core",
                               "product-identity", "degree-bookkeeping",
                               "ddf-layers"}


def test_wrong_input_fails_only_the_roundtrip(monkeypatch):
    # one transform match keeps its factor but gets another irreducible
    # quadratic as its input: the factor checks pass, and the input
    # recovered from the factor differs from the recorded one
    from dataclasses import replace

    edited = []

    def swap(ms):
        other = next(phi for phi in monic_irreducibles(field_make(5), 2)
                     if phi != ms[1].f)
        edited[:] = ms[:1] + [replace(ms[1], f=other)] + ms[2:]
        return edited

    report = _verify_with_matches(monkeypatch, swap)
    assert _failed(report) == {"reconstruction-roundtrip"}
    assert _check(report, "reconstruction-roundtrip").detail \
        == f"recovered input for {edited[1].factor.to_human()} does not reproduce it"
    assert [m.f for m in report.factors] == [m.f for m in edited]
    assert [m.reconstructed_f for m in report.factors] \
        == [None if i == 1 else m.f for i, m in enumerate(edited)]


def test_wrong_pencil_label_fails_the_roundtrip(monkeypatch, capsys):
    # the labels alpha read as x + alpha: the factor checks see the same
    # factors, and only the stacked transform of the pencil's f's notices
    import json

    import qtk.hfactor as hfactor
    from qtk import cli
    real = hfactor.irreducible_pencil
    monkeypatch.setattr(hfactor, "irreducible_pencil", lambda r: [
        (alpha if alpha is None else -alpha, F) for alpha, F in real(r)])
    argv = ["--json", "hverify", "--field", "13", "--n", "1", "--expr", "1,2,1 / 3,0,1"]
    assert cli.main(argv) == cli.EXIT_MISMATCH
    report = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert [c["name"] for c in report["checks"] if not c["ok"]] == ["reconstruction-roundtrip"]
    monkeypatch.undo()
    assert cli.main(argv) == 0


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


def _reference_image(f, r):
    """The monic image h^(deg f) * f(g/h) by the reference arithmetic."""
    spec = f.owner
    image = reference.poly_compose_fraction(
        spec, *([c.coords for c in p.coeffs] for p in (f, r.g, r.h)))
    return Polynomial(spec, reference.poly_monic(spec, image))


def test_irreducible_images_and_pencil_agree_with_scalar_filter(fields, rng):
    # the shared stacked filter against one reference substitution and one
    # scalar Rabin test per input; an expression with deg h = 2 makes the
    # image of x - g_2/h_2 drop degree, and that image must be left out
    for q in (2, 3, 4, 5, 9):
        spec = fields[q]
        r = random_expr(spec, rng)
        while r.h.degree != 2:
            r = random_expr(spec, rng)
        assert any(_reference_image(f, r).degree < 2 for f in monic_irreducibles(spec, 1))
        kernels = [kernel(spec, order) for order in (ORDER3, ORDER4, TRANSLATION)
                   if not (order == ORDER4 and spec.p == 2)]
        for expr in (sigma_form(spec.one), r, *kernels):
            d = max(int(expr.g.degree), int(expr.h.degree))
            for m in (1, 2, 3):
                expected = [(f, F) for f in monic_irreducibles(spec, m)
                            if (F := _reference_image(f, expr)).degree
                            == d * m and is_irreducible(F)]
                assert irreducible_images(expr, m) == expected, (spec, expr, m)
        for expr in (sigma_form(spec.one), r):
            pencil = [(alpha, cand.monic()) for alpha in spec.elements()
                      if (cand := expr.g - expr.h.scale(alpha)).degree == 2]
            pencil += [(None, expr.h.monic())] if expr.h.degree == 2 else []
            assert irreducible_pencil(expr) \
                == [(label, F) for label, F in pencil if is_irreducible(F)]
    # g/h = x^2 in characteristic 2: every image and every pencil member is a square
    squared = expr_parse(fields[2], "0,0,1 / 1")
    assert irreducible_pencil(squared) == []
    assert all(irreducible_images(squared, m) == [] for m in (1, 2, 3))


def _mobius(d):
    exponents = factorization(d).values()
    return 0 if any(e > 1 for e in exponents) else (-1) ** len(exponents)


def _orbit_count(spec, a, n):
    """N_A(n) = phi(D)/(D n) * sum over d | n with gcd(d, D) = 1 of
    mu(d) * (q^(n/d) - eps^(n/d)), for A of order D with 1 + eps fixed points
    on the projective line over GF(q)."""
    D = len(a.powers())
    fixed = [x for x in spec.elements()
             if not (a.c * x + a.d).is_zero() and a(x) == x]
    eps = len(fixed) + a.c.is_zero() - 1  # infinity is fixed when c = 0
    total = sum(_mobius(d) * (spec.q ** (n // d) - eps ** (n // d))
                for d in divisors(n) if gcd(d, D) == 1)
    phi = sum(1 for k in range(1, D + 1) if gcd(k, D) == 1)
    assert phi * total % (D * n) == 0
    return phi * total // (D * n)


def test_named_kernel_image_counts_match_the_orbit_count(fields):
    # the irreducible full-degree images of degree-m irreducibles, counted
    # against the closed form N_A(m) for the kernel's map A
    for spec in fields.values():
        for order in (ORDER3, ORDER4, TRANSLATION):
            if order == ORDER4 and spec.p == 2:
                continue
            ker = kernel(spec, order)
            for m in range(1, 10):
                if spec.q ** m > 1000:
                    break
                assert len(irreducible_images(ker, m)) \
                    == _orbit_count(spec, ker.map, m), (spec, order, m)


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
