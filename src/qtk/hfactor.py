"""Construction and verified factorization of H(x) = a*x^(q^n+1) - b*(x^(q^n)+x) + c.

For a quadratic rational expression R = g/h with involution triple
(a, b, c), the irreducible polynomials arising as images f_R of permitted
degree are exactly the irreducible factors of H beyond the fixed-point
part.  The verifiers here certify that statement on concrete inputs from
two independent directions:

* the transform side enumerates every candidate image (including, for the
  degree-2 layer, the whole pencil of quadratics spanned by g and h) and
  multiplies them together;
* the factor side pins down H independently: the derivative identity
  (ax-b)H' - aH = b^2 - ac shows H is squarefree, the Frobenius closure
  x^(q^(2n)) = x (mod H) confines factor degrees to divisors of 2n, and
  the product comparison then certifies the enumerated images are the
  complete factorization; for small H a gcd-based degree decomposition is
  cross-checked layer by layer as well.

Each factor of degree >= 4 is also re-derived from the factor alone, by
transporting it along the canonical-reduction trail, inverting the special
form there, and transporting back; the result must reproduce the factor.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from . import errors
from .gf import FieldElement, FieldSpec, parse_int, square_class
from .intmath import divisors
from .moebius import (CanonicalKind, QuadRationalExpr, SigmaClass,
                      classify_sigma, reduce_canonical, sigma_form)
from .poly import Polynomial, ddf, gcd, monic_irreducibles, pow_mod
from .transform import (_validate_triple, is_invariant_generalized,
                        is_sigma_self_reciprocal, linear_input_images,
                        reconstruct, transform, transport_back,
                        transport_forward)

#: Default cap on q^n + 1 (the degree of H) for the verify operations.
DEFAULT_SIZE_BOUND = 4096

#: Run the distinct-degree factorization check only below this degree.
_DDF_DEGREE_LIMIT = 320


def resolve_size_bound(explicit: int | None = None) -> int:
    """Explicit argument, else the QTK_SIZE_BOUND environment variable, else default."""
    if explicit is not None:
        return explicit
    env = os.environ.get("QTK_SIZE_BOUND")
    return parse_int(env, "QTK_SIZE_BOUND") if env else DEFAULT_SIZE_BOUND


@dataclass(frozen=True)
class HSpec:
    """Parameters of one H polynomial: the degree exponent n and the triple."""

    n: int
    a: FieldElement
    b: FieldElement
    c: FieldElement

    def __post_init__(self):
        if self.n < 1:
            raise errors.InvalidArgument("n must be >= 1")
        spec = self.a.owner
        if self.b.owner is not spec or self.c.owner is not spec:
            raise errors.FieldMismatch("triple entries from different fields")
        _validate_triple(spec, self.a, self.b, self.c)

    @property
    def owner(self) -> FieldSpec:
        return self.a.owner

    def discriminant(self) -> FieldElement:
        return self.b * self.b - self.a * self.c


def hspec_from_expr(r: QuadRationalExpr, n: int) -> HSpec:
    return HSpec(n, *r.abc)


def build_h(spec: HSpec, size_bound: int | None = None) -> Polynomial:
    """The dense polynomial a*x^(q^n+1) - b*(x^(q^n) + x) + c."""
    fs = spec.owner
    qn = fs.q ** spec.n
    if qn + 1 > resolve_size_bound(size_bound):
        raise errors.SizeBoundExceeded(f"degree {qn + 1} exceeds the size bound")
    zero = fs.zero
    coeffs = [zero] * (qn + 2)
    coeffs[0] = spec.c
    coeffs[1] = -spec.b
    coeffs[qn] = coeffs[qn] - spec.b
    coeffs[qn + 1] = spec.a
    return Polynomial(fs, coeffs)


def fixed_point_quadratic(spec: HSpec) -> Polynomial:
    """a*x^2 - 2bx + c, whose roots are the fixed points of the involution.

    In characteristic 2 the middle term vanishes and this is a*x^2 + c.
    """
    fs = spec.owner
    return Polynomial(fs, [spec.c, -(spec.b + spec.b), spec.a])


def _fixed_part(spec: HSpec) -> Polynomial:
    """gcd(a*x^2 - 2bx + c, x^(q^n) - x): the part of H carried by fixed points
    and base-field roots."""
    fs = spec.owner
    fixq = fixed_point_quadratic(spec)
    if fixq.degree < 1:
        return Polynomial.one(fs)
    z = pow_mod(Polynomial.x(fs), fs.q ** spec.n, fixq)
    return gcd(fixq, z - Polynomial.x(fs))


def _split_h(spec: HSpec, size_bound: int | None):
    """(H, fixed part, H // fixed part, whether the division is exact)."""
    h = build_h(spec, size_bound)
    fixed = _fixed_part(spec)
    core, rem = divmod(h, fixed)
    return h, fixed, core, rem.is_zero()


def build_h_meyn(sigma: FieldElement, n: int, size_bound: int | None = None) -> Polynomial:
    """(x^(q^n+1) - sigma) / gcd(x^2 - sigma, x^(q^n-1) - 1), the normalized H
    for the special form (x^2 + sigma)/x."""
    _, _, core, exact = _split_h(hspec_from_expr(sigma_form(sigma), n), size_bound)
    errors.require(exact, "fixed-point part does not divide H")
    return core


def h_squarefree_witness(spec: HSpec, size_bound: int | None = None) -> FieldElement:
    """Compute (ax - b)*H' - a*H and check it is the constant b^2 - ac.

    A nonzero constant here means H has only simple roots and hence distinct
    irreducible factors.
    """
    combo = _squarefree_combo(spec, build_h(spec, size_bound))
    if combo != Polynomial(spec.owner, [spec.discriminant()]):
        raise errors.IdentityViolated(
            f"(ax-b)H' - aH = {combo.to_human()} != b^2-ac")
    return spec.discriminant()


def _squarefree_combo(spec: HSpec, h: Polynomial) -> Polynomial:
    """(ax - b)*H' - a*H, the constant b^2 - ac when H is built correctly."""
    return Polynomial(spec.owner, [-spec.b, spec.a]) * h.derivative() - h.scale(spec.a)


def product_degree_summary(r: QuadRationalExpr, n: int,
                           size_bound: int | None = None) -> tuple[int, int]:
    """Degree of H divided by its fixed-point part, computed directly and as
    q^n - epsilon^n; returns (degree, epsilon) or raises on disagreement."""
    spec = hspec_from_expr(r, n)
    fs = spec.owner
    _, _, core, exact = _split_h(spec, size_bound)
    if not exact:
        raise errors.MismatchFound("fixed-point part does not divide H")
    eps = square_class(spec.discriminant())
    degree = int(core.degree)
    if degree != fs.q ** n - eps ** n:
        raise errors.MismatchFound(
            f"deg H/(fixed part) = {degree} != q^n - eps^n = {fs.q ** n - eps ** n}")
    return degree, eps


# -- verification ---------------------------------------------------------------


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class FactorMatch:
    """One irreducible factor of H together with its pre-image."""

    factor: Polynomial
    degree: int
    #: "transform" for h^(deg f) f(g/h); "pencil" for g - alpha*h;
    #: "pencil-endpoint" for h itself (constant pre-image layer).
    source_kind: str
    f: Polynomial | None = None
    alpha: FieldElement | None = None
    reconstructed_f: Polynomial | None = None


@dataclass
class HVerifyReport:
    """Structured outcome of one H-factorization verification."""

    field_name: str
    n: int
    abc: tuple[FieldElement, FieldElement, FieldElement]
    expr: QuadRationalExpr
    h: Polynomial
    h_core: Polynomial
    scalar: FieldElement
    factors: tuple[FactorMatch, ...] = ()
    checks: tuple[CheckOutcome, ...] = ()

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def degree_multiset(self) -> list[int]:
        return sorted(m.degree for m in self.factors)

    def failures(self) -> list[CheckOutcome]:
        return [c for c in self.checks if not c.ok]

    def to_json_dict(self) -> dict:
        def pjson(p: Polynomial) -> dict:
            return {"coeffs": p.to_text(), "human": p.to_human()}

        return {
            "field": self.field_name,
            "n": self.n,
            "abc": [e.to_text() for e in self.abc],
            "expr": self.expr.to_text(),
            "h": pjson(self.h),
            "h_core": pjson(self.h_core),
            "scalar": self.scalar.to_text(),
            "degree_multiset": self.degree_multiset(),
            "factor_count": len(self.factors),
            "factors": [
                {
                    "factor": pjson(m.factor),
                    "degree": m.degree,
                    "source_kind": m.source_kind,
                    "f": pjson(m.f) if m.f is not None else None,
                    "alpha": m.alpha.to_text() if m.alpha is not None else None,
                    "reconstructed_f": (pjson(m.reconstructed_f)
                                        if m.reconstructed_f is not None else None),
                }
                for m in self.factors
            ],
            "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail}
                       for c in self.checks],
            "ok": self.ok,
        }


def _image_irreducible(F: Polynomial, m: int) -> bool:
    """Irreducibility of a degree-2m image of an irreducible degree-m input.

    Any root xi of such an image generates an extension containing the
    degree-m field of the corresponding root of f, so every irreducible
    factor has degree m or 2m.  The image is therefore irreducible exactly
    when it is squarefree (not the square of a degree-m factor) and
    x^(q^m) is not congruent to x modulo F.  (Checked against the generic
    criterion in the test suite.)
    """
    errors.require(F.degree == 2 * m, f"image of degree {F.degree}, not {2 * m}")
    fs = F.owner
    deriv = F.derivative()
    if deriv.is_zero() or gcd(F, deriv).degree > 0:
        return False
    x = Polynomial.x(fs)
    return pow_mod(x, fs.q ** m, F) != x


def permitted_source_degrees(n: int) -> list[int]:
    """Degrees m of inputs whose images can divide H: m | n with n/m odd."""
    return [m for m in divisors(n) if (n // m) % 2 == 1]


def _enumerate_image_factors(r: QuadRationalExpr, n: int) -> list[FactorMatch]:
    fs = r.owner
    out: list[FactorMatch] = []
    for m in permitted_source_degrees(n):
        if m == 1:
            for alpha, cand in linear_input_images(r):
                if not _image_irreducible(cand, 1):
                    continue
                if alpha is None:
                    out.append(FactorMatch(cand, 2, "pencil-endpoint"))
                else:
                    f = Polynomial(fs, [-alpha, fs.one])
                    out.append(FactorMatch(cand, 2, "pencil", f=f, alpha=alpha))
        else:
            for f in monic_irreducibles(fs, m):
                t = transform(f, r, monic=True)
                errors.require(not t.degree_dropped, "image lost degree")
                if _image_irreducible(t.result, m):
                    out.append(FactorMatch(t.result, 2 * m, "transform", f=f))
    out.sort(key=lambda mt: (mt.degree, mt.factor.sort_key()))
    return out


def _verify_engine(r: QuadRationalExpr, n: int, size_bound: int | None,
                   sigma: FieldElement | None) -> HVerifyReport:
    fs = r.owner
    bound = resolve_size_bound(size_bound)
    if fs.q ** n + 1 > bound:
        raise errors.SizeBoundExceeded(
            f"q^n + 1 = {fs.q ** n + 1} exceeds the size bound {bound}")
    if classify_sigma(r) is SigmaClass.X_SQUARED:
        raise errors.Char2Degenerate(
            "characteristic 2 with g and h both even: no irreducible images")
    hspec = hspec_from_expr(r, n)
    a, b, c = hspec.a, hspec.b, hspec.c
    checks: list[CheckOutcome] = []

    h_full, fixed, h_core, exact = _split_h(hspec, bound)
    combo = _squarefree_combo(hspec, h_full)
    checks.append(CheckOutcome(
        "squarefree-witness", combo == Polynomial(fs, [hspec.discriminant()]),
        combo.to_text()))

    checks.append(CheckOutcome(
        "fixed-part-divides", exact, f"deg fixed part = {fixed.degree}"))
    h_core_monic = h_core.monic()
    scalar = h_core.leading

    eps = square_class(hspec.discriminant())
    expected_deg = fs.q ** n - eps ** n
    checks.append(CheckOutcome(
        "degree-identity", int(h_core.degree) == expected_deg,
        f"deg = {int(h_core.degree)}, q^n - eps^n = {expected_deg}, eps = {eps}"))

    matches = _enumerate_image_factors(r, n)

    degrees_ok = all(
        (2 * n) % m.degree == 0 and n % m.degree != 0 for m in matches)
    checks.append(CheckOutcome(
        "factor-degrees", degrees_ok, f"multiset {sorted(m.degree for m in matches)}"))

    distinct = len({m.factor for m in matches}) == len(matches)
    checks.append(CheckOutcome("factors-distinct", distinct, f"{len(matches)} factors"))

    if sigma is not None:
        srim_ok = all(is_sigma_self_reciprocal(m.factor, sigma) for m in matches)
        checks.append(CheckOutcome("sigma-self-reciprocal", srim_ok, ""))
    invariant_ok = all(
        is_invariant_generalized(m.factor, a, b, c) for m in matches)
    checks.append(CheckOutcome("factors-invariant", invariant_ok, ""))

    divide_ok = all((h_core_monic % m.factor).is_zero() for m in matches)
    checks.append(CheckOutcome("factors-divide-core", divide_ok, ""))

    product = Polynomial.one(fs)
    for m in matches:
        product = product * m.factor
    checks.append(CheckOutcome(
        "product-identity", product == h_core_monic,
        f"scalar = {scalar.to_text()}"))

    bookkeeping = sum(m.degree for m in matches) + int(fixed.degree) \
        == int(h_full.degree)
    checks.append(CheckOutcome(
        "degree-bookkeeping", bookkeeping,
        f"{sum(m.degree for m in matches)} + {int(fixed.degree)} "
        f"= {int(h_full.degree)}"))

    if h_core_monic.degree >= 1:
        z = pow_mod(Polynomial.x(fs), fs.q ** (2 * n), h_core_monic)
        closure_ok = z == Polynomial.x(fs) % h_core_monic
    else:
        closure_ok = True
    checks.append(CheckOutcome("frobenius-closure", closure_ok, ""))

    if 1 <= h_core_monic.degree <= _DDF_DEGREE_LIMIT:
        layers: dict[int, Polynomial] = {}
        for m in matches:
            layers[m.degree] = layers.get(m.degree, Polynomial.one(fs)) * m.factor
        checks.append(CheckOutcome("ddf-layers", ddf(h_core_monic) == layers, ""))

    # re-derive each large factor from the factor alone via the reduction trail
    matches = _attach_reconstructions(r, matches, checks)

    report = HVerifyReport(
        field_name=fs.name, n=n, abc=(a, b, c), expr=r, h=h_full,
        h_core=h_core_monic, scalar=scalar, factors=tuple(matches),
        checks=tuple(checks))
    if not report.ok:
        names = ", ".join(c.name for c in report.failures())
        raise errors.MismatchFound(f"verification failed: {names}", report)
    return report


def _attach_reconstructions(r: QuadRationalExpr, matches: list[FactorMatch],
                            checks: list[CheckOutcome]) -> list[FactorMatch]:
    form, trail = reduce_canonical(r)
    errors.require(form.kind is CanonicalKind.X_PLUS_SIGMA_OVER_X, "reduced to x^2")
    sigma_star = form.sigma
    out: list[FactorMatch] = []
    ok = True
    detail = ""
    for m in matches:
        if m.degree == 2:
            # degree-2 factors live in the pencil; the pencil label is the
            # recovery (the canonical-trail route is reserved for n >= 2,
            # where the reciprocal bookkeeping is degree-preserving)
            out.append(FactorMatch(m.factor, m.degree, m.source_kind,
                                   f=m.f, alpha=m.alpha, reconstructed_f=m.f))
            continue
        try:
            f_star = reconstruct(transport_forward(m.factor, trail), sigma_star)
        except (errors.NotInvariant, errors.NoSolution):
            ok = False
            detail = f"transported factor {m.factor.to_human()} not invariant"
            out.append(m)
            continue
        f_back = transport_back(f_star, trail).monic()
        image = transform(f_back, r, monic=True).result
        if image != m.factor or f_back != m.f:
            ok = False
            detail = f"recovered input for {m.factor.to_human()} does not reproduce it"
            out.append(m)
            continue
        out.append(FactorMatch(m.factor, m.degree, m.source_kind,
                               f=m.f, alpha=m.alpha, reconstructed_f=f_back))
    checks.append(CheckOutcome("reconstruction-roundtrip", ok, detail))
    return out


def verify_meyn_product(sigma: FieldElement, n: int,
                        size_bound: int | None = None) -> HVerifyReport:
    """Verify the factorization of the normalized H for R = (x^2 + sigma)/x:
    its factors are exactly the sigma-self-reciprocal irreducibles of degree
    dividing 2n but not n."""
    return _verify_engine(sigma_form(sigma), n, size_bound, sigma)


def verify_meyn_generalized(r: QuadRationalExpr, n: int,
                            size_bound: int | None = None) -> HVerifyReport:
    """Verify the factorization of H built from an arbitrary expression: every
    nonlinear factor beyond the fixed-point part is a transform image of
    permitted degree, and conversely."""
    return _verify_engine(r, n, size_bound, None)
