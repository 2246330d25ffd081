"""Construction and verified factorization of H(x) = a*x^(q^n+1) - b*(x^(q^n)+x) + c.

For a quadratic rational expression R = g/h with involution triple
(a, b, c), the irreducible polynomials arising as images f_R of permitted
degree are exactly the irreducible factors of H beyond the fixed-point
part.  The verifiers here certify that statement on concrete inputs from
two independent directions:

* the transform side enumerates every candidate image (including, for the
  degree-2 layer, the whole pencil of quadratics spanned by g and h) and
  keeps the irreducible ones of full degree by one stacked Rabin test per
  input degree, the routines of the count oracle (never H);
* the factor side pins down H independently: the derivative identity
  (ax-b)H' - aH = b^2 - ac shows H is squarefree, the Frobenius closure
  x^(q^(2n)) = x (mod H) confines factor degrees to divisors of 2n, and
  the product comparison then certifies the enumerated images are the
  complete factorization; for small H a gcd-based degree decomposition is
  cross-checked layer by layer as well.  The images are grouped by degree
  into layers; each layer's balanced product must divide the core and the
  product of the layer products must equal it.  Distinct monic irreducibles
  are coprime, so a layer product divides the core exactly when each of its
  factors does, once the factors are known to be distinct.

Each factor of degree >= 4 is also re-derived from the factor alone along
the canonical-reduction trail (transport, invert the special form, transport
back) and must be reproduced; a pencil factor must be the image of its
label's x - alpha.  The invariance checks and this roundtrip take the
factors of one degree as one stack, so each runs once per factor degree.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from . import errors
from .gf import FieldElement, parse_int, square_class
from .intmath import divisors
from .moebius import (CanonicalKind, QuadRationalExpr, SigmaClass,
                      classify_sigma, reduce_canonical, sigma_form)
from .poly import Polynomial, _product, ddf, gcd, pow_mod
from .transform import (fixed_point_quadratic, irreducible_images,
                        irreducible_pencil, is_invariant_generalized,
                        is_sigma_self_reciprocal, reconstruct, transform,
                        transport_back, transport_forward)

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


def _bounded_qn(q: int, n: int, size_bound: int | None = None) -> int:
    """q^n, refusing n < 1 and a degree q^n + 1 of H beyond the size bound.

    Since q >= 2, n >= the bit length of the bound already refuses, so q^n is
    computed only for n below that bit length.
    """
    bound = resolve_size_bound(size_bound)
    if n < 1:
        raise errors.InvalidArgument("n must be >= 1")
    if n >= bound.bit_length() or q ** n + 1 > bound:
        raise errors.SizeBoundExceeded(
            f"q^n + 1 with q = {q}, n = {n} exceeds the size bound {bound}")
    return q ** n


def build_h(r: QuadRationalExpr, n: int, size_bound: int | None = None) -> Polynomial:
    """The dense polynomial a*x^(q^n+1) - b*(x^(q^n) + x) + c, (a, b, c) = r.abc."""
    fs = r.owner
    a, b, c = r.abc
    qn = _bounded_qn(fs.q, n, size_bound)
    coeffs = [fs.zero] * (qn + 2)
    coeffs[0] = c
    coeffs[1] = -b
    coeffs[qn] = coeffs[qn] - b
    coeffs[qn + 1] = a
    return Polynomial(fs, coeffs)


def _fixed_part(r: QuadRationalExpr, n: int) -> Polynomial:
    """gcd(a*x^2 - 2bx + c, x^(q^n) - x): the part of H carried by fixed points
    and base-field roots."""
    fs = r.owner
    fixq = fixed_point_quadratic(*r.abc)
    if fixq.degree < 1:
        return Polynomial.one(fs)
    z = pow_mod(Polynomial.x(fs), fs.q ** n, fixq)
    return gcd(fixq, z - Polynomial.x(fs))


def _split_h(r: QuadRationalExpr, n: int, size_bound: int | None):
    """(H, fixed part, H // fixed part, whether the division is exact)."""
    h = build_h(r, n, size_bound)
    fixed = _fixed_part(r, n)
    core, rem = divmod(h, fixed)
    return h, fixed, core, rem.is_zero()


def _squarefree_combo(r: QuadRationalExpr, h: Polynomial) -> Polynomial:
    """(ax - b)*H' - a*H, the constant b^2 - ac when H is built correctly."""
    a, b, _ = r.abc
    return Polynomial(r.owner, [-b, a]) * h.derivative() - h.scale(a)


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

    n: int
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
        return {
            "field": self.expr.owner.name,
            "n": self.n,
            "abc": [e.to_text() for e in self.expr.abc],
            "expr": self.expr.to_text(),
            "h": self.h.to_json_dict(),
            "h_core": self.h_core.to_json_dict(),
            "scalar": self.scalar.to_text(),
            "degree_multiset": self.degree_multiset(),
            "factor_count": len(self.factors),
            "factors": [
                {
                    "factor": m.factor.to_json_dict(),
                    "degree": m.degree,
                    "source_kind": m.source_kind,
                    "f": m.f.to_json_dict() if m.f is not None else None,
                    "alpha": m.alpha.to_text() if m.alpha is not None else None,
                    "reconstructed_f": (m.reconstructed_f.to_json_dict()
                                        if m.reconstructed_f is not None else None),
                }
                for m in self.factors
            ],
            "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail}
                       for c in self.checks],
            "ok": self.ok,
        }


def permitted_source_degrees(n: int) -> list[int]:
    """Degrees m of inputs whose images can divide H: m | n with n/m odd."""
    return [m for m in divisors(n) if (n // m) % 2 == 1]


def _enumerate_image_factors(r: QuadRationalExpr, n: int) -> list[FactorMatch]:
    fs = r.owner
    out: list[FactorMatch] = []
    for m in permitted_source_degrees(n):
        if m > 1:
            out += [FactorMatch(F, 2 * m, "transform", f=f)
                    for f, F in irreducible_images(r, m)]
            continue
        for alpha, cand in irreducible_pencil(r):
            if alpha is None:
                out.append(FactorMatch(cand, 2, "pencil-endpoint"))
            else:
                f = Polynomial(fs, [-alpha, fs.one])
                out.append(FactorMatch(cand, 2, "pencil", f=f, alpha=alpha))
    out.sort(key=lambda mt: (mt.degree, mt.factor.sort_key()))
    return out


def _verify_engine(r: QuadRationalExpr, n: int, size_bound: int | None,
                   sigma: FieldElement | None) -> HVerifyReport:
    fs = r.owner
    qn = _bounded_qn(fs.q, n, size_bound)
    if classify_sigma(r) is SigmaClass.X_SQUARED:
        raise errors.Char2Degenerate(
            "characteristic 2 with g and h both even: no irreducible images")
    a, b, c = r.abc
    disc = r.discriminant()
    checks: list[CheckOutcome] = []

    h_full, fixed, h_core, exact = _split_h(r, n, size_bound)
    combo = _squarefree_combo(r, h_full)
    checks.append(CheckOutcome(
        "squarefree-witness", combo == Polynomial(fs, [disc]), combo.to_text()))

    checks.append(CheckOutcome(
        "fixed-part-divides", exact, f"deg fixed part = {fixed.degree}"))
    h_core_monic = h_core.monic()
    scalar = h_core.leading

    eps = square_class(disc)
    expected_deg = qn - eps ** n
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

    # the layer table: the matches of each factor degree, in sorted order;
    # every later check takes one stack or one product per layer
    layers: dict[int, list[FactorMatch]] = {}
    for m in matches:
        layers.setdefault(m.degree, []).append(m)
    stacks = [[m.factor for m in layer] for layer in layers.values()]
    if sigma is not None:
        srim_ok = all(all(is_sigma_self_reciprocal(F, sigma)) for F in stacks)
        checks.append(CheckOutcome("sigma-self-reciprocal", srim_ok, ""))
    invariant_ok = all(all(is_invariant_generalized(F, a, b, c)) for F in stacks)
    checks.append(CheckOutcome("factors-invariant", invariant_ok, ""))

    # distinct monic irreducibles are coprime, so a layer's product divides
    # the core exactly when each of its factors does
    one = Polynomial.one(fs)
    layer_products = {d: _product(F, one) for d, F in zip(layers, stacks)}
    divide_ok = all((h_core_monic % p).is_zero() for p in layer_products.values())
    checks.append(CheckOutcome("factors-divide-core", divide_ok, ""))

    product = _product(layer_products.values(), one)
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
        checks.append(CheckOutcome("ddf-layers", ddf(h_core_monic) == layer_products, ""))

    # re-derive each large factor from the factor alone via the reduction trail
    matches = _attach_reconstructions(r, layers, checks)

    report = HVerifyReport(
        n=n, expr=r, h=h_full, h_core=h_core_monic, scalar=scalar,
        factors=tuple(matches), checks=tuple(checks))
    if not report.ok:
        names = ", ".join(c.name for c in report.failures())
        raise errors.MismatchFound(f"verification failed: {names}", report)
    return report


def _attach_reconstructions(r: QuadRationalExpr, layers: dict[int, list[FactorMatch]],
                            checks: list[CheckOutcome]) -> list[FactorMatch]:
    form, trail = reduce_canonical(r)
    errors.require(form.kind is CanonicalKind.X_PLUS_SIGMA_OVER_X, "reduced to x^2")
    out: list[FactorMatch] = []
    failures: list[str] = []
    for degree, run in layers.items():
        if degree == 2:
            # each pencil label's x - alpha must map to its factor, h has no f
            # (the trail route below needs degree-preserving bookkeeping: n >= 2)
            images = iter(transform([m.f for m in run if m.f is not None], r, monic=True).result)
            for m in run:
                ok = m.f is None or next(images) == m.factor
                if not ok:
                    failures.append(f"pencil input for {m.factor.to_human()} does not reproduce it")
                out.append(replace(m, reconstructed_f=m.f) if ok else m)
            continue
        # one stacked transport, solve, transport back and transform per degree
        f_stars = reconstruct(transport_forward([m.factor for m in run], trail), form.sigma)
        solved = [f for f in f_stars if f is not None]
        backs = transport_back(solved, trail).monic() if solved else []
        recovered = iter(zip(backs, transform(backs, r, monic=True).result))
        for m, f_star in zip(run, f_stars):
            if f_star is None:
                failures.append(f"transported factor {m.factor.to_human()} not invariant")
                out.append(m)
                continue
            f_back, image = next(recovered)
            if image != m.factor or f_back != m.f:
                failures.append(f"recovered input for {m.factor.to_human()} does not reproduce it")
                out.append(m)
                continue
            out.append(replace(m, reconstructed_f=f_back))
    checks.append(CheckOutcome("reconstruction-roundtrip", not failures,
                               failures[-1] if failures else ""))
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
