import itertools
import random

import numpy as np
import pytest

import reference
from conftest import random_expr, random_moebius, random_poly
from qtk import errors, field_make
from qtk.gf import embed
from qtk.higher import ORDER3, ORDER4, TRANSLATION, HigherKernel, is_invariant, kernel
from qtk.moebius import MoebiusMap, QuadRationalExpr, apply_post, apply_pre, \
    expr_parse, reduce_canonical, sigma_form
from qtk.poly import (Polynomial, compose_fraction, enumerate_monic,
                      enumerate_monic_irreducible, gcd, is_irreducible,
                      monic_irreducibles, parse_poly, pow_mod)
from qtk.transform import (DicksonParams, dickson, irreducible_image_count,
                           is_invariant_generalized, is_sigma_self_reciprocal,
                           reconstruct, reconstruct_dickson_sum,
                           roots_orbit_check, solve_kernel, transform,
                           transport_back, transport_forward)


def P(spec, text):
    return parse_poly(spec, text)


def test_transform_examples():
    F3 = field_make(3)
    t = transform(P(F3, "x^2+1"), expr_parse(F3, "1,0,1 / 0,1"), monic=True)
    assert t.result == P(F3, "x^4+1") and not t.degree_dropped
    t = transform(Polynomial.x(F3), expr_parse(F3, "1 / 0,0,1"))
    assert t.result == Polynomial.one(F3) and t.degree_dropped
    # drop happens exactly when g2 = alpha * h2 for f = x - alpha
    r = expr_parse(F3, "2,0,1 / 2,1,1")
    t = transform(P(F3, "x+2"), r)  # alpha = 1 = g2/h2
    assert t.degree_dropped
    with pytest.raises(errors.ZeroPolynomial):
        transform(Polynomial.zero(F3), r)


def test_transform_multiplicative(fields, rng):
    for spec in fields.values():
        for _ in range(15):
            r = random_expr(spec, rng)
            f1 = random_poly(spec, rng.randrange(1, 4), rng)
            f2 = random_poly(spec, rng.randrange(1, 4), rng)
            t1 = transform(f1, r)
            t2 = transform(f2, r)
            t12 = transform(f1 * f2, r)
            if t1.degree_dropped or t2.degree_dropped:
                continue
            assert t12.result.monic() == (t1.result * t2.result).monic()


def test_sigma_self_reciprocal_examples():
    F3 = field_make(3)
    assert is_sigma_self_reciprocal(P(F3, "x^4+1"), F3.one)
    assert is_sigma_self_reciprocal(P(F3, "x^2+2"), F3.element(2))
    assert not is_sigma_self_reciprocal(P(F3, "x^2+x+2"), F3.one)
    with pytest.raises(errors.OddDegree):
        is_sigma_self_reciprocal(P(F3, "x^3+1"), F3.one)
    with pytest.raises(errors.ZeroSigma):
        is_sigma_self_reciprocal(P(F3, "x^2+1"), F3.zero)


def test_sigma_self_reciprocal_is_the_substitution_identity(fields, rng):
    # the coefficient test must agree with x^(2n) F(sigma/x) == sigma^n F(x)
    from qtk.poly import compose_fraction
    for spec in fields.values():
        nonzero = [e for e in spec.elements() if not e.is_zero()]
        for _ in range(20):
            F = random_poly(spec, rng.choice([2, 4, 6]), rng)
            sigma = rng.choice(nonzero)
            n = int(F.degree) // 2
            lhs = compose_fraction(F.reciprocal(), Polynomial.x(spec),
                                   Polynomial.one(spec))
            # x^(2n) F(sigma/x) = sum b_k sigma^k x^(2n-k)
            subst = Polynomial(spec, [F.coeff(2 * n - i) * sigma ** (2 * n - i)
                                      for i in range(2 * n + 1)])
            rhs = F.scale(sigma ** n)
            assert is_sigma_self_reciprocal(F, sigma) == (subst == rhs)


def test_lemma_invariance_equivalence_exhaustive(fields):
    # the invariant monic F of degree 2n are exactly the images of the q^n
    # monic f of degree n, and reconstruct inverts each one; exhaustive for
    # q <= 5 and 2n <= 8, the candidates tested in stacks of 4096
    from qtk.gf import least_nonsquare
    for q in (2, 3, 4, 5):
        spec = fields[q]
        sigmas = [spec.one] if spec.p == 2 \
            else [spec.one, least_nonsquare(spec)]
        for sigma in sigmas:
            r = sigma_form(sigma)
            for d in (2, 4, 6, 8):
                candidates, invariant = enumerate_monic(spec, d), set()
                while stack := list(itertools.islice(candidates, 4096)):
                    invariant |= {F for F, ok in zip(
                        stack, is_sigma_self_reciprocal(stack, sigma)) if ok}
                images = {transform(f, r).result
                          for f in enumerate_monic(spec, d // 2)}
                assert invariant == images
                for F in invariant:
                    f = reconstruct(F, sigma)
                    assert transform(f, r).result == F
            # the predicate failing means no pre-image exists
            bad = P(spec, "x^2+x") + Polynomial.one(spec).scale(sigma)
            if not is_sigma_self_reciprocal(bad, sigma):
                with pytest.raises(errors.NotInvariant):
                    reconstruct(bad, sigma)


def test_generalized_invariance_examples():
    F3 = field_make(3)
    a, b, c = F3.one, F3.zero, -F3.one
    assert is_invariant_generalized(P(F3, "x^2+1"), a, b, c)
    assert not is_invariant_generalized(P(F3, "x^2+x+2"), a, b, c)
    with pytest.raises(errors.SingularTriple):
        is_invariant_generalized(P(F3, "x^2+1"), F3.one, F3.one, F3.one)
    F2 = field_make(2)
    with pytest.raises(errors.Char2Degenerate):
        is_invariant_generalized(P(F2, "x^2+1"), F2.zero, F2.one, F2.zero)


def test_generalized_invariance_reduces_to_sigma_form(fields, rng):
    # (a, b, c) = (1, 0, -sigma) recovers the sigma test
    for spec in fields.values():
        nonzero = [e for e in spec.elements() if not e.is_zero()]
        for _ in range(15):
            F = random_poly(spec, rng.choice([2, 4]), rng)
            sigma = rng.choice(nonzero)
            assert is_invariant_generalized(F, spec.one, spec.zero, -sigma) \
                == is_sigma_self_reciprocal(F, sigma)


def test_transform_images_are_invariant(fields, rng):
    # forward direction: f_R is invariant under the triple of R
    for spec in fields.values():
        for _ in range(15):
            r = random_expr(spec, rng)
            if spec.p == 2 and r.g.coeff(1).is_zero() and r.h.coeff(1).is_zero():
                continue
            f = random_poly(spec, rng.randrange(1, 4), rng)
            t = transform(f, r)
            if t.degree_dropped:
                continue
            a, b, c = r.abc
            assert is_invariant_generalized(t.result, a, b, c)


def _coords(F):
    return [e.coords for e in F.coeffs]


def test_one_transform_and_one_identity_for_every_kernel(fields, rng):
    # expressions and higher kernels alike: the image is the reference
    # substitution, it satisfies its kernel's identity, and the degree drops
    # below d * deg f exactly when deg h = d and f(g_d/h_d) = 0
    drops = set()
    for spec in fields.values():
        kernels = [kernel(spec, order) for order in (ORDER3, ORDER4, TRANSLATION)
                   if order != ORDER4 or spec.p != 2]
        for _ in range(12):
            r = rng.choice(kernels + [random_expr(spec, rng)] * len(kernels))
            d = max(r.g.degree, r.h.degree)
            f = random_poly(spec, rng.randrange(1, 4), rng)
            if r.h.degree == d and rng.random() < 0.5:
                f = f * Polynomial(spec, [-(r.g.coeff(d) / r.h.coeff(d)), spec.one])
            t = transform(f, r)
            image = reference.poly_compose_fraction(
                spec, _coords(f), _coords(r.g), _coords(r.h))
            assert _coords(t.result) == image
            criterion = False
            if r.h.degree == d:
                alpha = reference.mul(spec, r.g.coeff(d).coords,
                                      reference.inv(spec, r.h.coeff(d).coords))
                value = (0,) * spec.k
                for co in reversed(_coords(f)):
                    value = reference.add(spec, reference.mul(spec, value, alpha), co)
                criterion = not any(value)
            assert t.degree_dropped == criterion == (len(image) - 1 < d * f.degree)
            drops.add(t.degree_dropped)
            if isinstance(r, HigherKernel):
                assert is_invariant(t.result, r)
            elif not t.degree_dropped and not (
                    spec.p == 2 and r.g.coeff(1).is_zero() and r.h.coeff(1).is_zero()):
                assert is_invariant_generalized(t.result, *r.abc)
    assert drops == {True, False}


def test_generalized_invariance_is_the_paper_identity(fields, rng):
    # (ax-b)^(2n) F((bx-c)/(ax-b)) = (b^2-ac)^n F on coordinate tuples, for
    # images (mostly invariant) and random F (mostly not)
    for spec in fields.values():
        seen = set()
        zero = (0,) * spec.k
        for _ in range(10):
            r = random_expr(spec, rng)
            if spec.p == 2 and r.g.coeff(1).is_zero() and r.h.coeff(1).is_zero():
                continue
            A, B, C = (e.coords for e in r.abc)
            disc = reference.sub(spec, reference.mul(spec, B, B), reference.mul(spec, A, C))
            for F in (transform(random_poly(spec, rng.randrange(1, 4), rng), r).result,
                      random_poly(spec, 2 * rng.randrange(1, 4), rng)):
                if F.degree % 2:
                    continue
                lhs = reference.poly_compose_fraction(
                    spec, _coords(F), [reference.sub(spec, zero, C), B],
                    [reference.sub(spec, zero, B), A])
                rhs = _coords(F)
                for _ in range(F.degree // 2):
                    rhs = reference.poly_mul(spec, rhs, [disc])
                got = is_invariant_generalized(F, *r.abc)
                assert got == (lhs == rhs)
                seen.add(got)
        assert seen == {True, False}


def test_roots_orbit_examples():
    F3 = field_make(3)
    a, b, c = F3.one, F3.zero, -F3.one
    assert roots_orbit_check(P(F3, "x^2+1"), a, b, c)
    assert not roots_orbit_check(P(F3, "x^2+x+2"), a, b, c)
    assert roots_orbit_check(P(F3, "x^4+2*x^2+1"), a, b, c)  # (x^2+1)^2
    with pytest.raises(errors.NotCoprime):
        roots_orbit_check(P(F3, "x^2+2"), a, b, c)  # x^2 - 1 shares roots


def test_roots_orbit_agrees_with_identity(fields, rng):
    for q in (2, 3, 4, 5, 9):
        spec = fields[q]
        nonzero = [e for e in spec.elements() if not e.is_zero()]
        for _ in range(8):
            F = random_poly(spec, rng.choice([2, 4]), rng)
            while True:
                a, b, c = (rng.choice(list(spec.elements())) for _ in range(3))
                if not (b * b - a * c).is_zero() \
                        and not (spec.p == 2 and a.is_zero() and c.is_zero()):
                    break
            fixed = Polynomial(spec, [c, -(b + b), a])
            from qtk.poly import gcd as pgcd
            if fixed.degree >= 1 and pgcd(F, fixed).degree > 0:
                continue
            assert roots_orbit_check(F, a, b, c) == is_invariant_generalized(F, a, b, c)
    # the degree-10 image of an irreducible quintic over GF(4) under
    # (x^2+1)/x, irreducible itself: its splitting field is GF(2^20)
    F4 = fields[4]
    r = QuadRationalExpr(P(F4, "x^2+1"), Polynomial.x(F4))
    F = next(t.result for t in (transform(f, r) for f in monic_irreducibles(F4, 5))
             if is_irreducible(t.result))
    assert F.degree == 10
    assert roots_orbit_check(F, *r.abc) and is_invariant_generalized(F, *r.abc)


def test_dickson_examples():
    F7 = field_make(7)
    assert dickson(DicksonParams(1, F7.one)) == Polynomial.x(F7)
    a = F7.element(3)
    assert dickson(DicksonParams(2, a)) == P(F7, "x^2+1")  # y^2 - 6
    assert dickson(DicksonParams(3, F7.one)) == P(F7, "x^3+4*x")  # y^3 - 3y
    assert dickson(DicksonParams(0, F7.one)) == P(F7, "2")
    F2 = field_make(2)
    assert dickson(DicksonParams(0, F2.one)).is_zero()  # constant 2 vanishes


def test_dickson_functional_equation(fields):
    # D_n(t + a/t, a) = t^n + (a/t)^n over GF(q^2)
    for q, ext in ((2, (2, 2)), (3, (3, 2)), (4, (2, 4)), (5, (5, 2))):
        spec = fields[q]
        big = field_make(*ext)
        for a in spec.elements():
            if a.is_zero():
                continue
            a_big = embed(a, big)
            for n in range(7):
                D = dickson(DicksonParams(n, a))
                for t in big.elements():
                    if t.is_zero():
                        continue
                    assert D(t + a_big / t) == t ** n + (a_big / t) ** n


def test_dickson_lucas_binomials_match_exact_integers(fields):
    # the binomials reduced mod p by Lucas' theorem against the exact-integer
    # loop, past p^2 and p^3 so that multi-digit base-p expansions occur
    for q in (2, 3, 4, 5, 7, 9):
        spec = fields[q]
        for a in {spec.one, list(spec.elements())[-1]}:
            for n in range(120):
                assert dickson(DicksonParams(n, a)) \
                    == reference.dickson_exact(DicksonParams(n, a))


def test_reconstruct_examples():
    F3 = field_make(3)
    assert reconstruct(P(F3, "x^4+1"), F3.one) == P(F3, "x^2+1")
    assert reconstruct(P(F3, "x^2+2"), F3.element(2)) == Polynomial.x(F3)
    with pytest.raises(errors.NotInvariant):
        reconstruct(P(F3, "x^2+x+2"), F3.one)


def test_reconstruct_roundtrip(fields, rng):
    for spec in fields.values():
        nonzero = [e for e in spec.elements() if not e.is_zero()]
        for _ in range(25):
            sigma = rng.choice(nonzero)
            f = random_poly(spec, rng.randrange(1, 7), rng, monic=True)
            F = transform(f, sigma_form(sigma)).result
            assert reconstruct(F, sigma) == f
            assert reconstruct_dickson_sum(F, sigma) == f


def test_reconstruct_solvers_agree_in_odd_char(fields, rng):
    for q in (3, 5, 7, 9):
        spec = fields[q]
        nonzero = [e for e in spec.elements() if not e.is_zero()]
        for _ in range(20):
            sigma = rng.choice(nonzero)
            f = random_poly(spec, rng.randrange(1, 6), rng)
            F = transform(f, sigma_form(sigma)).result
            want = reference.reconstruct_closed_form(
                spec, [c.coords for c in F.coeffs], sigma.coords)
            assert [c.coords for c in reconstruct(F, sigma).coeffs] == want


def test_solve_kernel_failure_paths():
    F3 = field_make(3)
    core, weight = P(F3, "x^2+1"), Polynomial.x(F3)
    with pytest.raises(errors.NoSolution):
        solve_kernel(P(F3, "x^2+x+2"), core, weight)
    # weight 1 divides exactly, so the final residual has to catch this one
    with pytest.raises(errors.NoSolution):
        solve_kernel(P(F3, "x^3+x^2"), P(F3, "x^3+2*x"), Polynomial.one(F3))
    with pytest.raises(errors.DegreeNotMultiple):
        solve_kernel(P(F3, "x^3+1"), core, weight)


def test_irreducibility_transport_exhaustive(fields):
    # an irreducible image forces an irreducible input (degree > 1)
    for q in (2, 3):
        spec = fields[q]
        exprs = [expr_parse(spec, "1,0,1 / 0,1"),
                 expr_parse(spec, "1,1,1 / 0,1,1" if q == 2 else "2,1,1 / 1,1")]
        for r in exprs:
            for n in (2, 3):
                for f in enumerate_monic(spec, n):
                    t = transform(f, r, monic=True)
                    if t.degree_dropped:
                        continue
                    if is_irreducible(t.result):
                        assert is_irreducible(f)


def test_transport_roundtrip(fields, rng):
    for spec in fields.values():
        for _ in range(10):
            r = random_expr(spec, rng)
            if spec.p == 2 and r.g.coeff(1).is_zero() and r.h.coeff(1).is_zero():
                continue
            form, trail = reduce_canonical(r)
            for f in itertools.islice(enumerate_monic_irreducible(spec, 2), 4):
                F = transform(f, r, monic=True).result
                if not is_irreducible(F):
                    continue
                F_star = transport_forward(F, trail)
                assert is_sigma_self_reciprocal(F_star, form.sigma)
                f_star = reconstruct(F_star, form.sigma)
                assert transport_back(f_star, trail).monic() == f


def test_composite_transports_match_the_stepwise_reference(fields, rng):
    # one substitution by M (or N) per transport gives the same monic results
    # as one substitution or reversal per trail step
    compared = 0
    for spec in fields.values():
        for _ in range(6):
            r = random_expr(spec, rng)
            if spec.p == 2 and r.g.coeff(1).is_zero() and r.h.coeff(1).is_zero():
                continue
            form, trail = reduce_canonical(r)
            for n in (2, 3):
                for f in itertools.islice(enumerate_monic_irreducible(spec, n), 5):
                    F = transform(f, r, monic=True).result
                    if not is_irreducible(F):
                        continue
                    F_star = transport_forward(F, trail)
                    assert [c.coords for c in F_star.coeffs] \
                        == reference.transport_forward_stepwise(F, trail)
                    f_star = reconstruct(F_star, form.sigma)
                    back = reference.poly_monic(
                        spec, reference.transport_back_stepwise(f_star, trail))
                    assert [c.coords for c in transport_back(f_star, trail).monic().coeffs] \
                        == back
                    compared += 1
    assert compared >= 50


def test_image_count_builds_polynomials_only_for_counted_pairs(monkeypatch):
    # the sieve's stack, its images and their Rabin verdicts stay arrays from
    # the sieve to the count: a few Polynomials for r and the powers of g and
    # h, none per counted pair, per candidate or per lower-degree irreducible
    spec = field_make(13)
    wrap, calls = Polynomial._wrap.__func__, []

    def counted(cls, owner, a):
        calls.append(1)
        return wrap(cls, owner, a)
    monic_irreducibles.cache_clear()
    monkeypatch.setattr(Polynomial, "_wrap", classmethod(counted))
    count = irreducible_image_count(sigma_form(spec.one), 3)
    monkeypatch.undo()
    lower = sum(len(monic_irreducibles(spec, i)) for i in (1, 2))
    assert count == 364 and lower == 91
    assert len(calls) <= 16, len(calls)


def test_count_preserving_bijections():
    F3 = field_make(3)
    r = expr_parse(F3, "1,0,1 / 0,1")
    m = MoebiusMap.affine(F3.one, F3.one)
    assert irreducible_image_count(r, 2) == irreducible_image_count(apply_pre(r, m), 2)
    F2 = field_make(2)
    r2 = expr_parse(F2, "1,1,1 / 0,1")
    inv = MoebiusMap.inversion(F2)
    assert irreducible_image_count(r2, 2) \
        == irreducible_image_count(apply_post(r2, inv), 2)


def test_count_preserving_randomized(fields, rng):
    for q in (2, 3, 4, 5):
        spec = fields[q]
        for _ in range(5):
            r = random_expr(spec, rng)
            m = random_moebius(spec, rng)
            side = rng.choice(["pre", "post"])
            r2 = apply_pre(r, m) if side == "pre" else apply_post(r, m)
            assert irreducible_image_count(r, 2) == irreducible_image_count(r2, 2)


# -- stacks ----------------------------------------------------------------------------

#: GF(2, 3, 4, 5, 9, 16), and GF(2^11), whose digits hold two coefficients,
#: so that there every row of degree >= 2 spans several digits
STACK_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (2, 4), (2, 11)]


def _agree(stacked, single, rows):
    """Row i of the stacked call is the single call on row i."""
    stacked = list(stacked)
    assert stacked == [single(f) for f in rows]
    return stacked


@pytest.mark.parametrize("p, k", STACK_FIELDS)
def test_substitution_stacks_match_single_calls_and_the_references(p, k):
    spec = field_make(p, k)
    rng = random.Random(100 * p + k)
    one, zero = spec.one, spec.zero
    nonzero = [e for e in itertools.islice(spec.elements(), 64) if not e.is_zero()]
    # images under R = g/h with deg h = 2; row 2 vanishes at g_2/h_2, so
    # its image drops degree
    r = random_expr(spec, rng)
    while r.h.degree != 2 or (p == 2 and r.g.coeff(1).is_zero() and r.h.coeff(1).is_zero()):
        r = random_expr(spec, rng)
    root = Polynomial(spec, [-(r.g.coeff(2) / r.h.coeff(2)), one])
    for n in (1, 2, 3, 5):
        rows = [random_poly(spec, n, rng) for _ in range(5)]
        rows[2] = root * random_poly(spec, n - 1, rng)
        images = _agree(compose_fraction(rows, r.g, r.h),
                        lambda f: compose_fraction(f, r.g, r.h), rows)
        for f, F in zip(rows, images):
            assert _coords(F) == reference.poly_compose_fraction(
                spec, _coords(f), _coords(r.g), _coords(r.h))
        for monic in (False, True):
            stacked = transform(rows, r, monic=monic)
            singles = [transform(f, r, monic=monic) for f in rows]
            assert list(stacked.result) == [t.result for t in singles]
            assert stacked.degree_dropped.tolist() == [t.degree_dropped for t in singles]
            assert stacked.degree_dropped[2]
    # invariance: sigma-form images with a non-invariant row in the middle
    sigma = rng.choice(nonzero)
    for m in (1, 2, 3):
        F = list(transform([random_poly(spec, m, rng, monic=True) for _ in range(4)],
                           sigma_form(sigma)).result)
        F.insert(2, F[0] + Polynomial.one(spec))
        want = [True, True, False, True, True]
        assert _agree(is_sigma_self_reciprocal(F, sigma),
                      lambda G: is_sigma_self_reciprocal(G, sigma), F) == want
        assert _agree(is_invariant_generalized(F, one, zero, -sigma),
                      lambda G: is_invariant_generalized(G, one, zero, -sigma), F) == want
        involution = MoebiusMap(zero, sigma, one, zero)  # x -> sigma/x, normalized
        scalar = -involution.det()
        assert _agree(involution.fixes(F, scalar, 2),
                      lambda G: involution.fixes(G, scalar, 2), F) == want
        # the same row is outside the kernel image: reconstruct and the bare
        # kernel solve mark it, the single calls raise
        core = Polynomial(spec, [sigma, zero, one])
        for solve, error in ((lambda G: reconstruct(G, sigma), errors.NotInvariant),
                             (lambda G: solve_kernel(G, core, Polynomial.x(spec)),
                              errors.NoSolution)):
            with pytest.raises(error):
                solve(F[2])
            found = solve(F)
            assert found[2] is None
            assert found[:2] + found[3:] == [solve(G) for G in F[:2] + F[3:]]
        if p % 2:
            for G, f in zip(F, reconstruct(F, sigma)):
                if f is not None:
                    assert _coords(f) == reference.reconstruct_closed_form(
                        spec, _coords(G), sigma.coords)
    # a higher kernel, whose weight is not a monomial
    ker = kernel(spec, ORDER3)
    F = list(transform([random_poly(spec, 2, rng) for _ in range(4)], ker).result)
    F.insert(1, F[0] + Polynomial.one(spec))
    assert _agree(is_invariant(F, ker), lambda G: is_invariant(G, ker), F) \
        == [True, False, True, True, True]
    found = solve_kernel(F, ker.g, ker.h)
    assert found[1] is None
    assert found[:1] + found[2:] == [solve_kernel(G, ker.g, ker.h) for G in F[:1] + F[2:]]
    # trail transports of irreducible images against the stepwise reference
    form, trail = reduce_canonical(r)
    transported = 0
    for m in (2, 3):
        fs = [random_poly(spec, m, rng, monic=True) for _ in range(30)]
        fs = [f for f, ok in zip(fs, is_irreducible(fs)) if ok]
        images = transform(fs, r, monic=True)
        F = list(images.result.take(~images.degree_dropped))
        F = [G for G, ok in zip(F, is_irreducible(F)) if ok][:4]
        if not F:
            continue
        F_star = _agree(transport_forward(F, trail),
                        lambda G: transport_forward(G, trail), F)
        for G, G_star in zip(F, F_star):
            assert _coords(G_star) == reference.transport_forward_stepwise(G, trail)
        f_star = _agree(reconstruct(F_star, form.sigma),
                        lambda G: reconstruct(G, form.sigma), F_star)
        back = _agree(transport_back(f_star, trail),
                      lambda f: transport_back(f, trail), f_star)
        for f, b in zip(f_star, back):  # the same up to a scalar
            assert _coords(b.monic()) == reference.poly_monic(
                spec, reference.transport_back_stepwise(f, trail))
        transported += len(F)
    assert transported


def test_substitution_stacks_edge_cases():
    F3, F9 = field_make(3), field_make(3, 2)
    one, zero, sigma = F3.one, F3.zero, F3.element(2)
    r = expr_parse(F3, "2,1,1 / 1,1")
    form, trail = reduce_canonical(r)
    assert trail.composite("pre") != MoebiusMap.identity(F3)
    core, x = P(F3, "x^2+2"), Polynomial.x(F3)
    calls = {
        "compose_fraction": lambda F: compose_fraction(F, r.g, r.h),
        "transform": lambda F: transform(F, r).result,
        "fixes": lambda F: MoebiusMap(zero, sigma, one, zero).fixes(F, one, 2),
        "is_invariant_generalized": lambda F: is_invariant_generalized(F, one, zero, -sigma),
        "is_sigma_self_reciprocal": lambda F: is_sigma_self_reciprocal(F, sigma),
        "solve_kernel": lambda F: solve_kernel(F, core, x),
        "reconstruct": lambda F: reconstruct(F, sigma),
        "transport_forward": lambda F: transport_forward(F, trail),
        "transport_back": lambda F: transport_back(F, trail),
    }
    F = transform(P(F3, "x^2+1"), sigma_form(sigma)).result
    # a stacked transform's mask: an empty boolean array for no rows, and
    # entry i the single call's flag on row i
    assert transform([], r).degree_dropped.shape == (0,)
    assert transform([F], r).degree_dropped.tolist() == [transform(F, r).degree_dropped]
    for name, call in calls.items():
        assert list(call([])) == [], name
        assert list(call([F])) == [call(F)], name
        with pytest.raises(errors.InvalidArgument):
            call([F, F * F])
        with pytest.raises(errors.FieldMismatch):
            call([F, P(F9, "x^4+1")])


@pytest.mark.parametrize("p,k", [(5, 1), (3, 2)])
def test_single_and_stacked_calls_leave_their_inputs_unchanged(p, k):
    # a single polynomial enters the row kernels as a one-row view of its own
    # array, so an in-place step there (such as solve_kernel's peel without
    # its copy) would rewrite the caller's polynomial
    spec = field_make(p, k)
    rng = random.Random(p * k)
    one, zero, sigma = spec.one, spec.zero, spec.element(2)
    r = expr_parse(spec, "2,1,1 / 1,1")
    _, trail = reduce_canonical(r)
    ker = kernel(spec, ORDER3)
    assert np.count_nonzero(ker.h._a) > 1  # a weight that is not a monomial
    fs = [random_poly(spec, 3, rng, monic=True) for _ in range(3)]
    sig = [transform(f, sigma_form(sigma)).result for f in fs]
    orbit = [transform(f, ker).result for f in fs]
    images = [transform(f, r, monic=True).result for f in fs]
    mods = [random_poly(spec, 3, rng) for _ in range(3)]
    bases = [random_poly(spec, 5, rng) for _ in range(3)]
    involution = MoebiusMap(zero, sigma, one, zero)
    calls = [
        (lambda F: transform(F, r), fs),
        (lambda F: transform(F, r, monic=True), fs),
        (lambda F: compose_fraction(F, r.g, r.h), fs),
        (lambda F: is_sigma_self_reciprocal(F, sigma), sig),
        (lambda F: is_invariant_generalized(F, one, zero, -sigma), sig),
        (lambda F: involution.fixes(F, -involution.det(), 2), sig),
        (lambda F: ker.map.fixes(F, ker.scalar, ker.block), orbit),
        (lambda F: reconstruct(F, sigma), sig),
        (lambda F: solve_kernel(F, ker.g, ker.h), orbit),
        (lambda F: transport_forward(F, trail), images),
        (lambda F: transport_back(F, trail), fs),
        (lambda b, m: pow_mod(b, spec.q ** 2 + 3, m), bases, mods),
        (lambda b, m: gcd(b, m), bases, mods),
        (lambda m: is_irreducible(m), mods),
    ]
    fixed = [r.g, r.h, ker.g, ker.h]
    for call, *stacks in calls:
        for args in ([s[0] for s in stacks], stacks):
            inputs = fixed + [g for a in args for g in (a if isinstance(a, list) else [a])]
            before = [Polynomial._wrap(spec, g._a.copy()) for g in inputs]
            call(*args)
            for g, b in zip(inputs, before):
                assert g._a.tobytes() == b._a.tobytes() and hash(g) == hash(b)
