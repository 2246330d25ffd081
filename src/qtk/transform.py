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

The substitutions (:func:`transform`, the two invariance tests,
:func:`solve_kernel`, :func:`reconstruct` and the trail transports) also take
a stack, a sequence of polynomials of one degree over one field, and give one
result per row from one pass of numpy steps over all rows; a single
polynomial is the one-row stack.  A row on which the single call raises
NotInvariant or NoSolution comes back as None.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm

import numpy as np

from . import errors
from .gf import SIZE_BOUND, FieldElement, FieldSpec, embed, field_make
from .moebius import POST, PRE, MoebiusMap, QuadRationalExpr, ReductionTrail
from .poly import (_SIEVE_ROWS, Polynomial, _rows_reduce, _Stack, _as_rows,
                   compose_fraction, ddf, factorize, gcd, is_irreducible,
                   monic_irreducibles)


@dataclass(frozen=True)
class TransformResult:
    result: Polynomial | _Stack
    degree_dropped: bool | np.ndarray


def transform(f, r, monic: bool = False):
    """f_R = h^(deg f) * f(g/h), expanded, for an expression or a kernel r = g/h.

    With d = max(deg g, deg h), the degree drops below d*deg f exactly when
    deg h = d and f vanishes at g_d/h_d (the value of R at infinity); the
    flag records that.  With monic=True the result is scaled monic.  f may
    also be a stack of one degree: the result then holds the stack of the
    images, from one substitution of all rows, and the array of the flags.
    """
    S, single = _as_rows(f)
    if S is None:
        return TransformResult([], np.zeros(0, dtype=bool))
    spec, n = S.owner, S.A.shape[1] - 1
    out = compose_fraction(S, r.g, r.h)
    d = max(int(r.g.degree), int(r.h.degree))
    dropped = ~out.A[:, d * n:].any(axis=1)
    expected_drop = False
    if r.h.degree == d:  # each row at alpha = g_d/h_d: sum of f_j * alpha^j
        alpha = (r.g.coeff(d) / r.h.coeff(d)).value
        powers = np.array([spec.raw_pow(alpha, j) for j in range(n + 1)], dtype=np.int64)
        expected_drop = spec.sum_vec(spec.mul_vec(S.A, powers), 1) == 0
    errors.require((dropped == expected_drop).all(), "degree-drop criterion out of sync")
    out = out.monic() if monic else out
    return TransformResult(out[0], bool(dropped[0])) if single else TransformResult(out, dropped)


def is_sigma_self_reciprocal(F, sigma: FieldElement):
    """Whether x^(2n) * F(sigma/x) = sigma^n * F(x), deg F = 2n.

    Equivalent to the coefficient conditions b_(n-k) = b_(n+k) * sigma^k
    for 0 < k <= n, which is what gets checked.  F may also be a stack of
    one degree: the result is then one bool per row.
    """
    if sigma.is_zero():
        raise errors.ZeroSigma("sigma must be nonzero")
    S, single = _as_rows(F)
    if S is None:
        return []
    spec, d = S.owner, S.A.shape[1] - 1
    if sigma.owner is not spec:
        raise errors.FieldMismatch("sigma from a different field")
    if d % 2:
        raise errors.OddDegree(f"degree {d} is odd")
    n = d // 2
    spow = np.fromiter(itertools.accumulate([sigma.value] * n, spec.raw_mul), np.int64, n)
    ok = (S.A[:, :n][:, ::-1] == spec.mul_vec(S.A[:, n + 1:], spow)).all(axis=1)
    return bool(ok[0]) if single else ok.tolist()


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


def is_invariant_generalized(F, a: FieldElement, b: FieldElement, c: FieldElement):
    """Whether (ax-b)^(2n) * F((bx-c)/(ax-b)) = (b^2-ac)^n * F(x).

    That is the map x -> (bx-c)/(ax-b) fixing F with block 2 and scalar
    -det, which is (b^2-ac)/e^2 for the entry e the map is normalized by.
    F may also be a stack of one degree: the result is then one bool per row.
    """
    _validate_triple(a.owner, a, b, c)
    S, single = _as_rows(F)
    if S is None:
        return []
    if (S.A.shape[1] - 1) % 2:
        raise errors.OddDegree(f"degree {S.A.shape[1] - 1} is odd")
    involution = MoebiusMap(b, -c, a, -b)
    return involution.fixes(F if single else S, -involution.det(), 2)


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
    FF = F.embed(big)
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

    Satisfies D_n(t + a/t, a) = t^n + (a/t)^n.  The coefficient of
    y^(n-2i) is (-a)^i * n/(n-i) * C(n-i, i), and the textbook quotient
    n/(n-i) can hit zero divisors mod p, so it is taken as the integer
    identity n/(n-i) * C(n-i, i) = C(n-i, i) + C(n-i-1, i-1).  Each
    binomial is reduced mod p by Lucas' theorem, never formed exactly.  A
    degree above 2^20, the field size bound, is refused.
    """
    n, a = params.n, params.a
    if n < 0:
        raise errors.InvalidArgument("Dickson degree must be >= 0")
    if n > SIZE_BOUND:
        raise errors.SizeBoundExceeded(f"Dickson degree {n} exceeds 2^20")
    spec = a.owner
    if n == 0:
        return Polynomial(spec, [spec.element(2)])
    binom = _binomial_mod(spec.p, n)
    coeffs = [spec.zero] * (n + 1)
    apow = spec.one
    for i in range(n // 2 + 1):
        t = binom(n - i, i) + (binom(n - i - 1, i - 1) if i >= 1 else 0)
        if i % 2:
            t = -t
        coeffs[n - 2 * i] = spec.element(t) * apow
        apow = apow * a
    return Polynomial(spec, coeffs)


def _binomial_mod(p: int, top: int):
    """(u, v) -> C(u, v) mod the prime p for 0 <= v, u <= top, by Lucas'
    theorem: the product of C(u_j, v_j) over the base-p digits, each from
    factorials mod p of the digits up to min(top, p - 1)."""
    fact = [1]
    for j in range(1, min(top, p - 1) + 1):
        fact.append(fact[-1] * j % p)
    inv_fact = [pow(f, -1, p) for f in fact]

    def binom(u: int, v: int) -> int:
        out = 1
        while v:
            u, uj = divmod(u, p)
            v, vj = divmod(v, p)
            if vj > uj:
                return 0
            out = out * fact[uj] * inv_fact[vj] * inv_fact[uj - vj] % p
        return out
    return binom


# -- reconstruction -----------------------------------------------------------------


def solve_kernel(F, core: Polynomial, weight: Polynomial):
    """The f with weight^n * f(core/weight) = F, where n = deg F / deg core.

    core and weight are monic with deg weight < deg core.  With
    R_n = F and R_j = sum_(i<=j) f_i * core^i * weight^(j-i), the top term
    of R_j is f_j * core^j, and R_j - f_j * core^j = weight * R_(j-1): each
    f_j is the coefficient of x^(j * deg core) in R_j, and the f_j peel off
    from the top down by exact division by weight.  A nonzero remainder or
    residual raises NoSolution, and the result is checked by substituting
    it again.

    F may also be a stack of one degree: every row peels in the same numpy
    steps, and the result is one f per row, None for a row outside the image.
    """
    S, single = _as_rows(F)
    if S is None:
        return []
    S._check_owner(core)
    S._check_owner(weight)
    errors.require(core.is_monic() and weight.is_monic() and weight.degree < core.degree,
                   "kernel needs monic core and weight, deg weight < deg core")
    spec = S.owner
    cdeg, e, d = int(core.degree), int(weight.degree), S.A.shape[1] - 1
    if d % cdeg:
        raise errors.DegreeNotMultiple(f"degree {d} is not a multiple of {cdeg}")
    n = d // cdeg
    minus = spec.raw_neg(spec.unit)
    negs = [spec.mul_vec(P._a, minus) for P in itertools.accumulate(  # -core^j
        [core] * n, Polynomial.__mul__, initial=Polynomial.one(spec))]
    body = spec.mul_vec(weight._a[:-1], minus)  # -(weight - x^e)
    R = S.A.copy()  # the peel writes in place
    coeffs, bad = np.zeros((len(S), n + 1), dtype=np.int64), np.zeros(len(S), bool)
    for j, P in zip(range(n, -1, -1), negs[::-1]):
        coeffs[:, j] = R[:, cdeg * j]
        R[:, :len(P)] = spec.addmul_vec(R[:, :len(P)], P, coeffs[:, j:j + 1])
        if j:  # exact division by weight; a monomial weight x^e is a shift
            rem, R = (_rows_reduce(spec, R, body[np.newaxis]) if body.any()
                      else (R[:, :e], R[:, e:]))
            bad |= rem.any(axis=1)
    bad |= R.any(axis=1)
    if single and bad[0]:
        raise errors.NoSolution("F is not in the image of the kernel")
    f = _Stack(spec, coeffs)  # every row of degree n: f_n = lead F
    same = (compose_fraction(f, core, weight).A == S.A).all(axis=1)
    errors.require(same[~bad].all(), "recovered input does not reproduce F")
    out = [None if miss else row for row, miss in zip(f, bad.tolist())]
    return out[0] if single else out


def reconstruct(F, sigma: FieldElement):
    """The unique f with F = x^n * f(x + sigma/x), for invariant F of degree 2n:
    the kernel solve with core x^2 + sigma over weight x.  F may also be a
    stack of one degree: the result is then one f per row, None for a row
    that is not sigma-self-reciprocal (exactly the rows outside the image)."""
    if is_sigma_self_reciprocal(F, sigma) is False:  # a stack's such rows: None below
        raise errors.NotInvariant("F is not sigma-self-reciprocal")
    return solve_kernel(F, Polynomial(sigma.owner, [sigma, 0, 1]), Polynomial.x(sigma.owner))


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


def transport_forward(F, trail: ReductionTrail):
    """Carry a transformed image along a reduction trail.

    If F is (a scalar multiple of) f_R for the trail's start expression,
    the result is the monic image for the trail's end expression
    N o R o M: F with M substituted.  The post-composition map N does not
    change the image.  F is returned unchanged when M is the identity.  F
    may also be a stack of one degree, carried by one substitution.
    """
    m = trail.composite(PRE)
    if m == MoebiusMap.identity(trail.start.owner):
        return F
    out = compose_fraction(F, *m.fraction())
    return out if isinstance(out, list) else out.monic()


def transport_back(f, trail: ReductionTrail):
    """Carry a source polynomial back along a reduction trail.

    Inverse bookkeeping of :func:`transport_forward` on the f side: f with
    the post-composition map N substituted (f itself when N is the
    identity); M does not change f.  The result is correct up to a nonzero
    scalar.  Sound for irreducible f of degree >= 2, where the substitution
    preserves the degree.  f may also be a stack of one degree, carried by
    one substitution.
    """
    return compose_fraction(f, *trail.composite(POST).fraction())


# -- enumeration helpers ---------------------------------------------------------------


def _kept_stacks(r, m: int) -> tuple[_Stack, _Stack]:
    """The stacks of f and F for :func:`irreducible_images`: the inputs are
    transformed and tested in blocks of _SIEVE_ROWS rows, so that only one
    block of images is held at a time besides the kept ones."""
    spec = r.g.owner
    inputs = monic_irreducibles(spec, m)
    kept_f, kept_F = [], []
    for start in range(0, len(inputs), _SIEVE_ROWS):
        f = inputs.take(slice(start, start + _SIEVE_ROWS))
        images = transform(f, r, monic=True)
        full = ~images.degree_dropped
        f, F = f.take(full), images.result.take(full)
        kept = np.array(is_irreducible(F), dtype=bool)
        kept_f.append(f.A[kept])
        kept_F.append(F.A[kept])
    return _Stack(spec, np.concatenate(kept_f)), _Stack(spec, np.concatenate(kept_F))


def irreducible_images(r, m: int) -> list[tuple[Polynomial, Polynomial]]:
    """The (f, F) pairs, f the monic irreducibles of degree m in enumeration
    order, whose monic image F = f_R under an expression or a kernel
    r = g/h has full degree d*m, d = max(deg g, deg h), and is irreducible;
    only the pairs kept leave the stacks as polynomials."""
    return list(zip(*_kept_stacks(r, m)))


def irreducible_image_count(r: QuadRationalExpr, n: int) -> int:
    """Number of monic irreducible f of degree n whose image f_R is irreducible
    of full degree 2n, counted on the stacks."""
    return len(_kept_stacks(r, n)[0])


def irreducible_pencil(
        r: QuadRationalExpr) -> list[tuple[FieldElement | None, Polynomial]]:
    """The irreducible quadratics of the pencil spanned by g and h, as
    (label, monic quadratic), in the order of the labels.

    Labels: a field element alpha for g - alpha*h, the image of x - alpha
    (the degree-1 layer of :func:`irreducible_images`), or None for the h
    endpoint.  Every monic quadratic in the pencil is tested exactly once.
    """
    pencil = sorted(((-f.coeff(0), F) for f, F in irreducible_images(r, 1)),
                    key=lambda pair: pair[0].value)
    if r.h.degree == 2 and is_irreducible(r.h):
        pencil.append((None, r.h.monic()))
    return pencil
