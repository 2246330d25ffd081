"""The transformation f -> f_R = h^(deg f) * f(g/h) and its invariance theory.

:func:`transform` is the one forward map, for a quadratic rational
expression R = g/h and for the kernels of :mod:`qtk.higher` alike.  Each
image is fixed, up to a constant scalar, by a Moebius map A with R o A = R;
:meth:`qtk.moebius.MoebiusMap.fixes` is the one test of that identity.  For
quadratic R, invariant polynomials have three equivalent descriptions:

* the coefficient identity b_(n-k) = b_(n+k) * sigma^k for the special
  form R = (x^2+sigma)/x (:func:`is_sigma_self_reciprocal`);
* the general polynomial identity
  (ax-b)^(2n) * F((bx-c)/(ax-b)) = (b^2-ac)^n * F(x)
  (:func:`is_invariant_generalized`);
* closure of the root multiset under the involution
  xi -> (b*xi-c)/(a*xi-b) in a splitting field (:func:`roots_orbit_check`),
  whose roots are the linear factors found by :func:`qtk.poly.factorize`
  there.

:func:`solve_kernel` inverts every transformation of the form
F = weight^n * f(core/weight), in every characteristic, by one triangular
solve from the top coefficient down; :func:`reconstruct` is that solve for
the sigma form (core x^2 + sigma over weight x), and the higher-order
kernels in :mod:`qtk.higher` use it too.  :func:`reconstruct_dickson_sum`
is the independent cross-check through Dickson polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, lcm

from . import errors
from .gf import FieldElement, FieldSpec, embed, field_make
from .moebius import POST, PRE, MoebiusMap, QuadRationalExpr, ReductionTrail
from .poly import (Polynomial, compose_fraction, ddf, factorize, gcd,
                   is_irreducible, monic_irreducibles)


@dataclass(frozen=True)
class TransformResult:
    result: Polynomial
    degree_dropped: bool
    normalized_monic: bool


def transform(f: Polynomial, r, monic: bool = False) -> TransformResult:
    """f_R = h^(deg f) * f(g/h), expanded, for an expression or a kernel r = g/h.

    With d = max(deg g, deg h), the degree drops below d*deg f exactly when
    deg h = d and f vanishes at g_d/h_d (the value of R at infinity); the
    flag records that.  With monic=True the result is scaled monic.
    """
    if f.is_zero():
        raise errors.ZeroPolynomial("transform of the zero polynomial")
    f._check_owner(r.g)
    out = compose_fraction(f, r.g, r.h)
    d = max(int(r.g.degree), int(r.h.degree))
    dropped = out.degree < d * int(f.degree)
    expected_drop = r.h.degree == d and f(r.g.coeff(d) / r.h.coeff(d)).is_zero()
    errors.require(dropped == expected_drop, "degree-drop criterion out of sync")
    if monic:
        out = out.monic()
    return TransformResult(out, dropped, monic)


def is_sigma_self_reciprocal(F: Polynomial, sigma: FieldElement) -> bool:
    """Whether x^(2n) * F(sigma/x) = sigma^n * F(x), deg F = 2n.

    Equivalent to the coefficient conditions b_(n-k) = b_(n+k) * sigma^k
    for 0 < k <= n, which is what gets checked.
    """
    if sigma.is_zero():
        raise errors.ZeroSigma("sigma must be nonzero")
    if F.is_zero():
        raise errors.ZeroPolynomial("zero polynomial")
    d = int(F.degree)
    if d % 2:
        raise errors.OddDegree(f"degree {d} is odd")
    n = d // 2
    spow = sigma.owner.one
    for k in range(1, n + 1):
        spow = spow * sigma
        if F.coeff(n - k) != F.coeff(n + k) * spow:
            return False
    return True


def _validate_triple(spec: FieldSpec, a, b, c):
    if (b * b - a * c).is_zero():
        raise errors.SingularTriple("b^2 - ac = 0")
    if spec.p == 2 and a.is_zero() and c.is_zero():
        raise errors.Char2Degenerate("a and c both zero in characteristic 2")


def fixed_point_quadratic(a: FieldElement, b: FieldElement,
                          c: FieldElement) -> Polynomial:
    """a*x^2 - 2bx + c, whose roots are the fixed points of the involution.

    In characteristic 2 the middle term vanishes and this is a*x^2 + c.
    """
    return Polynomial(a.owner, [c, -(b + b), a])


def is_invariant_generalized(F: Polynomial, a: FieldElement, b: FieldElement,
                             c: FieldElement) -> bool:
    """Whether (ax-b)^(2n) * F((bx-c)/(ax-b)) = (b^2-ac)^n * F(x).

    That is the map x -> (bx-c)/(ax-b) fixing F with block 2 and scalar
    -det, which is (b^2-ac)/e^2 for the entry e the map is normalized by.
    """
    _validate_triple(F.owner, a, b, c)
    if F.is_zero():
        raise errors.ZeroPolynomial("zero polynomial")
    if int(F.degree) % 2:
        raise errors.OddDegree(f"degree {F.degree} is odd")
    involution = MoebiusMap(b, -c, a, -b)
    return involution.fixes(F, -involution.det(), 2)


def roots_orbit_check(F: Polynomial, a: FieldElement, b: FieldElement,
                      c: FieldElement) -> bool:
    """Root-multiset closure under xi -> (b*xi-c)/(a*xi-b) in a splitting field.

    Requires F coprime with the fixed-point quadratic ax^2 - 2bx + c.  The
    splitting field GF(q^m) is built explicitly, m the lcm of the layer
    degrees of :func:`ddf`, so the field size bound applies; the roots and
    their multiplicities are the linear factors of F there.
    """
    spec = F.owner
    _validate_triple(spec, a, b, c)
    if F.is_zero() or F.degree < 1:
        raise errors.ZeroPolynomial("need a nonconstant polynomial")
    if int(F.degree) % 2:
        raise errors.OddDegree(f"degree {F.degree} is odd")
    fixed = fixed_point_quadratic(a, b, c)
    if not fixed.is_zero() and fixed.degree >= 1 and gcd(F, fixed).degree > 0:
        raise errors.NotCoprime("F shares a factor with the fixed-point quadratic")
    big = field_make(spec.p, spec.k * lcm(*ddf(F.monic())))
    FF = Polynomial(big, [embed(co, big) for co in F.coeffs])
    aa, bb, cc = embed(a, big), embed(b, big), embed(c, big)
    roots = {-phi.coeff(0): mult
             for phi, mult in factorize(FF, int(F.degree)) if phi.degree == 1}
    errors.require(sum(roots.values()) == int(F.degree), "not split in the chosen field")
    for xi, mult in roots.items():
        den = aa * xi - bb
        if den.is_zero():
            return False
        eta = (bb * xi - cc) / den
        if roots.get(eta) != mult:
            return False
    return True


# -- Dickson polynomials -----------------------------------------------------------


@dataclass(frozen=True)
class DicksonParams:
    n: int
    a: FieldElement


def dickson(params: DicksonParams) -> Polynomial:
    """Dickson polynomial of the first kind D_n(y, a).

    Satisfies D_n(t + a/t, a) = t^n + (a/t)^n.  The binomial products are
    integers computed exactly and only then reduced mod p (the textbook
    quotient n/(n-i) can hit zero divisors if evaluated modularly):
    n/(n-i) * C(n-i, i) = C(n-i, i) + C(n-i-1, i-1).
    """
    n, a = params.n, params.a
    if n < 0:
        raise errors.InvalidArgument("Dickson degree must be >= 0")
    spec = a.owner
    if n == 0:
        return Polynomial(spec, [spec.element(2)])
    coeffs = [spec.zero] * (n + 1)
    apow = spec.one
    for i in range(n // 2 + 1):
        t = comb(n - i, i) + (comb(n - i - 1, i - 1) if i >= 1 else 0)
        if i % 2:
            t = -t
        coeffs[n - 2 * i] = spec.element(t) * apow
        apow = apow * a
    return Polynomial(spec, coeffs)


# -- reconstruction -----------------------------------------------------------------


def solve_kernel(F: Polynomial, core: Polynomial, weight: Polynomial) -> Polynomial:
    """The f with weight^n * f(core/weight) = F, where n = deg F / deg core.

    core and weight are monic with deg weight < deg core.  With
    R_n = F and R_j = sum_(i<=j) f_i * core^i * weight^(j-i), the top term
    of R_j is f_j * core^j, and R_j - f_j * core^j = weight * R_(j-1): each
    f_j is the coefficient of x^(j * deg core) in R_j, and the f_j peel off
    from the top down by exact division by weight.  A nonzero remainder or
    residual raises NoSolution, and the result is checked by substituting
    it again.
    """
    F._check_owner(core)
    F._check_owner(weight)
    if F.is_zero():
        raise errors.ZeroPolynomial("zero polynomial")
    errors.require(core.is_monic() and weight.is_monic() and weight.degree < core.degree,
                   "kernel needs monic core and weight, deg weight < deg core")
    cdeg = int(core.degree)
    d = int(F.degree)
    if d % cdeg:
        raise errors.DegreeNotMultiple(f"degree {d} is not a multiple of {cdeg}")
    n = d // cdeg
    powers = [Polynomial.one(F.owner), core]
    for _ in range(n - 1):
        powers.append(powers[-1] * core)
    coeffs = []
    residual = F
    for j in range(n, -1, -1):
        c = residual.coeff(cdeg * j)
        coeffs.append(c)
        if not c.is_zero():
            residual = residual - powers[j].scale(c)
        if j:
            residual, rem = divmod(residual, weight)
            if not rem.is_zero():
                raise errors.NoSolution("F is not in the image of the kernel")
    if not residual.is_zero():
        raise errors.NoSolution("F is not in the image of the kernel")
    f = Polynomial(F.owner, coeffs[::-1])
    errors.require(compose_fraction(f, core, weight) == F,
                   "recovered input does not reproduce F")
    return f


def reconstruct(F: Polynomial, sigma: FieldElement) -> Polynomial:
    """The unique f with F = x^n * f(x + sigma/x), for invariant F of degree 2n:
    the kernel solve with core x^2 + sigma over weight x."""
    if not is_sigma_self_reciprocal(F, sigma):
        raise errors.NotInvariant("F is not sigma-self-reciprocal")
    spec = F.owner
    return solve_kernel(F, Polynomial(spec, [sigma, spec.zero, spec.one]),
                        Polynomial.x(spec))


def reconstruct_dickson_sum(F: Polynomial, sigma: FieldElement) -> Polynomial:
    """f = b_n + sum_k b_(n+k) * D_k(y, sigma): the Dickson-sum route.

    Characteristic-free; kept as an independent cross-check of
    :func:`reconstruct`.
    """
    if not is_sigma_self_reciprocal(F, sigma):
        raise errors.NotInvariant("F is not sigma-self-reciprocal")
    spec = F.owner
    n = int(F.degree) // 2
    out = Polynomial(spec, [F.coeff(n)])
    for k in range(1, n + 1):
        out = out + dickson(DicksonParams(k, sigma)).scale(F.coeff(n + k))
    return out


# -- trail transport -----------------------------------------------------------------


def transport_forward(F: Polynomial, trail: ReductionTrail) -> Polynomial:
    """Carry a transformed image along a reduction trail.

    If F is (a scalar multiple of) f_R for the trail's start expression,
    the result is the monic image for the trail's end expression
    N o R o M: F with M substituted.  The post-composition map N does not
    change the image.  F is returned unchanged when M is the identity.
    """
    m = trail.composite(PRE)
    if m == MoebiusMap.identity(F.owner):
        return F
    return compose_fraction(F, *m.fraction()).monic()


def transport_back(f: Polynomial, trail: ReductionTrail) -> Polynomial:
    """Carry a source polynomial back along a reduction trail.

    Inverse bookkeeping of :func:`transport_forward` on the f side: f with
    the post-composition map N substituted (f itself when N is the
    identity); M does not change f.  The result is correct up to a nonzero
    scalar.  Sound for irreducible f of degree >= 2, where the substitution
    preserves the degree.
    """
    return compose_fraction(f, *trail.composite(POST).fraction())


# -- enumeration helpers ---------------------------------------------------------------


def irreducible_image_count(r: QuadRationalExpr, n: int) -> int:
    """Number of monic irreducible f of degree n whose image f_R is irreducible."""
    spec = r.owner
    count = 0
    for f in monic_irreducibles(spec, n):
        t = transform(f, r, monic=True)
        if t.result.degree == 2 * n and is_irreducible(t.result):
            count += 1
    return count


def linear_input_images(r: QuadRationalExpr):
    """The pencil of quadratics spanned by g and h, as (label, monic quadratic).

    Labels: a field element alpha for g - alpha*h (the image of x - alpha),
    or None for the h endpoint of the pencil.  Every monic quadratic linear
    combination of g and h appears exactly once.
    """
    spec = r.owner
    for alpha in spec.elements():
        cand = r.g - r.h.scale(alpha)
        if cand.degree == 2:
            yield alpha, cand.monic()
    if r.h.degree == 2:
        yield None, r.h.monic()
