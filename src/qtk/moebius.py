"""Moebius transformations over GF(q) and canonical reduction of quadratic
rational expressions.

A quadratic rational expression R(x) = g(x)/h(x) (g, h coprime with
max(deg g, deg h) = 2) can be brought, by pre- and post-composition with
invertible maps x -> (ax+b)/(cx+d), to the form x + sigma/x for some
nonzero sigma, or to x^2 in characteristic two.  :func:`reduce_canonical`
performs that reduction constructively and returns a replayable trail of
the affine/inversion steps used, so the reduction itself is machine
checkable.  :func:`classify_sigma` computes the invariant that labels the
equivalence class (the square class of b^2 - ac, that of the discriminant
of g'h - gh' = ax^2 - 2bx + c) without running the full reduction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

from . import errors
from .gf import FieldElement, FieldSpec, square_class
from .poly import Polynomial, _as_rows, compose_fraction, gcd, parse_poly


class MoebiusMap:
    """Element of PGL(2, q): x -> (ax+b)/(cx+d) with ad - bc != 0.

    The matrix is normalized so its first nonzero entry (in a, b, c, d
    order) is 1, making the representation unique within its class.
    """

    __slots__ = ("owner", "a", "b", "c", "d")

    def __init__(self, a: FieldElement, b: FieldElement, c: FieldElement, d: FieldElement):
        owner = a.owner
        for e in (b, c, d):
            if e.owner is not owner:
                raise errors.FieldMismatch("matrix entries from different fields")
        if (a * d - b * c).is_zero():
            raise errors.Error("singular matrix does not define a Moebius map")
        for e in (a, b, c, d):
            if not e.is_zero():
                s = e.inverse()
                break
        self.owner = owner
        self.a, self.b, self.c, self.d = a * s, b * s, c * s, d * s

    @classmethod
    def from_ints(cls, spec: FieldSpec, a, b, c, d) -> "MoebiusMap":
        return cls(spec.element(a), spec.element(b), spec.element(c), spec.element(d))

    @classmethod
    def identity(cls, spec: FieldSpec) -> "MoebiusMap":
        return cls.from_ints(spec, 1, 0, 0, 1)

    @classmethod
    def inversion(cls, spec: FieldSpec) -> "MoebiusMap":
        """x -> 1/x."""
        return cls.from_ints(spec, 0, 1, 1, 0)

    @classmethod
    def affine(cls, alpha: FieldElement, beta: FieldElement) -> "MoebiusMap":
        """x -> alpha*x + beta with alpha != 0."""
        if alpha.is_zero():
            raise errors.Error("affine map needs alpha != 0")
        spec = alpha.owner
        return cls(alpha, beta, spec.zero, spec.one)

    def fraction(self) -> tuple[Polynomial, Polynomial]:
        """The numerator ax + b and the denominator cx + d."""
        spec = self.owner
        return Polynomial(spec, [self.b, self.a]), Polynomial(spec, [self.d, self.c])

    def det(self) -> FieldElement:
        return self.a * self.d - self.b * self.c

    def fixes(self, F, scalar: FieldElement, block: int):
        """Whether den^(deg F) * F(num/den) = scalar^(deg F / block) * F(x) for
        this map num/den: the invariance identity of every kernel.  deg F
        must be a multiple of the block.  F may also be a stack of one
        degree: the result is then one bool per row, from one substitution."""
        S, single = _as_rows(F)
        if S is None:
            return []
        spec, d = S.owner, S.A.shape[1] - 1
        if d % block:
            raise errors.DegreeNotMultiple(f"degree {d} is not a multiple of {block}")
        image = compose_fraction(S, *self.fraction()).A  # width d + 1: num, den are linear
        scaled = spec.mul_vec(S.A, (scalar ** (d // block)).value)
        ok = (image == scaled).all(axis=1)
        return bool(ok[0]) if single else ok.tolist()

    def inverse(self) -> "MoebiusMap":
        return MoebiusMap(self.d, -self.b, -self.c, self.a)

    def powers(self) -> list["MoebiusMap"]:
        """A^0, ..., A^(D-1) for the order D of this map A: D is p or divides
        q - 1 or q + 1, so at most q + 1 compositions."""
        out = [MoebiusMap.identity(self.owner)]
        while (cur := self @ out[-1]) != out[0]:
            out.append(cur)
        return out

    def __matmul__(self, other: "MoebiusMap") -> "MoebiusMap":
        return moebius_compose(self, other)

    def __call__(self, x: FieldElement) -> FieldElement:
        den = self.c * x + self.d
        if den.is_zero():
            raise errors.DivisionByZero("Moebius map evaluated at its pole")
        return (self.a * x + self.b) / den

    def __eq__(self, other):
        return (isinstance(other, MoebiusMap)
                and self.owner is other.owner
                and (self.a, self.b, self.c, self.d)
                == (other.a, other.b, other.c, other.d))

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def to_text(self) -> str:
        parts = [e.to_text() for e in (self.a, self.b, self.c, self.d)]
        return f"[{parts[0]} {parts[1]}; {parts[2]} {parts[3]}]"

    def __repr__(self):
        return f"MoebiusMap({self.owner!r}, {self.to_text()})"


def moebius_compose(m1: MoebiusMap, m2: MoebiusMap) -> MoebiusMap:
    """The composition m1 o m2 (m2 applied first): the matrix product."""
    if m1.owner is not m2.owner:
        raise errors.FieldMismatch("maps over different fields")
    return MoebiusMap(
        m1.a * m2.a + m1.b * m2.c,
        m1.a * m2.b + m1.b * m2.d,
        m1.c * m2.a + m1.d * m2.c,
        m1.c * m2.b + m1.d * m2.d,
    )


class QuadRationalExpr:
    """Coprime pair (g, h) with max(deg g, deg h) = 2, scalar-normalized.

    Normalization: h monic when deg h >= 1, otherwise g monic.  Construction
    rejects degenerate pairs (non-coprime or max degree != 2); equivalently
    the cross-product triple satisfies b^2 - ac != 0.
    """

    __slots__ = ("g", "h")

    def __init__(self, g: Polynomial, h: Polynomial):
        g._check_owner(h)
        if g.is_zero() or h.is_zero():
            raise errors.Error("g and h must both be nonzero")
        if max(g.degree, h.degree) != 2:
            raise errors.Error("max(deg g, deg h) must be 2")
        if gcd(g, h).degree != 0:
            raise errors.Error("g and h must be coprime")
        s = (h.leading if h.degree >= 1 else g.leading).inverse()
        self.g = g.scale(s)
        self.h = h.scale(s)

    @property
    def owner(self) -> FieldSpec:
        return self.g.owner

    def g_triple(self) -> tuple[FieldElement, FieldElement, FieldElement]:
        return (self.g.coeff(0), self.g.coeff(1), self.g.coeff(2))

    def h_triple(self) -> tuple[FieldElement, FieldElement, FieldElement]:
        return (self.h.coeff(0), self.h.coeff(1), self.h.coeff(2))

    @property
    def abc(self) -> tuple[FieldElement, FieldElement, FieldElement]:
        """The involution triple (a, b, c): cross product of the coefficient
        triples of h and g.  Nonsingular (b^2 - ac != 0) for every valid pair."""
        g0, g1, g2 = self.g_triple()
        h0, h1, h2 = self.h_triple()
        return (g2 * h1 - g1 * h2, g0 * h2 - g2 * h0, g1 * h0 - g0 * h1)

    def discriminant(self) -> FieldElement:
        """b^2 - ac; g'h - gh' = ax^2 - 2bx + c has discriminant 4(b^2 - ac),
        so this carries its square class."""
        a, b, c = self.abc
        return b * b - a * c

    def __eq__(self, other):
        return (isinstance(other, QuadRationalExpr)
                and self.g == other.g and self.h == other.h)

    def __hash__(self):
        return hash((self.g, self.h))

    def to_text(self) -> str:
        return f"{self.g.to_text()} / {self.h.to_text()}"

    def __repr__(self):
        return f"QuadRationalExpr({self.g.to_human()} / {self.h.to_human()})"


def expr_parse(spec: FieldSpec, text: str) -> QuadRationalExpr:
    """Parse "g / h" with each side in either polynomial format."""
    if "/" not in text:
        raise errors.Error(f"rational expression needs 'g / h', got {text!r}")
    g_text, h_text = text.split("/", 1)
    return QuadRationalExpr(parse_poly(spec, g_text), parse_poly(spec, h_text))


def sigma_form(sigma: FieldElement) -> QuadRationalExpr:
    """The expression (x^2 + sigma)/x."""
    if sigma.is_zero():
        raise errors.ZeroSigma("sigma must be nonzero")
    spec = sigma.owner
    return QuadRationalExpr(
        Polynomial(spec, [sigma, spec.zero, spec.one]), Polynomial.x(spec))


def apply_pre(r: QuadRationalExpr, m: MoebiusMap) -> QuadRationalExpr:
    """R o m: substitute m into the expression."""
    if m.owner is not r.owner:
        raise errors.FieldMismatch("map and expression over different fields")
    num, den = m.fraction()

    def subst(p: Polynomial) -> Polynomial:
        # den^2 * p(num/den), whatever the degree of p
        return compose_fraction(p, num, den) * den ** (2 - int(p.degree))

    return QuadRationalExpr(subst(r.g), subst(r.h))


def apply_post(r: QuadRationalExpr, m: MoebiusMap) -> QuadRationalExpr:
    """m(R): act on the value of the expression."""
    if m.owner is not r.owner:
        raise errors.FieldMismatch("map and expression over different fields")
    new_g = r.g.scale(m.a) + r.h.scale(m.b)
    new_h = r.g.scale(m.c) + r.h.scale(m.d)
    return QuadRationalExpr(new_g, new_h)


# -- reduction trail -------------------------------------------------------------

PRE, POST = "pre", "post"


@dataclass(frozen=True)
class Step:
    """One reduction step: a map substituted into R ("pre", R o m) or acting
    on its value ("post", m o R).  Trails use affine maps and the inversion."""

    side: str
    map: MoebiusMap

    def apply(self, r: QuadRationalExpr) -> QuadRationalExpr:
        return (apply_pre if self.side == PRE else apply_post)(r, self.map)

    def to_text(self) -> str:
        m = self.map
        if m.c.is_zero():
            return f"{self.side}-affine {(m.a / m.d).to_text()} {(m.b / m.d).to_text()}"
        errors.require(m == MoebiusMap.inversion(m.owner),
                       "trail step is neither affine nor the inversion")
        return f"{self.side}-inversion"


@dataclass(frozen=True)
class ReductionTrail:
    """Ordered record of the reduction steps from `start` to `end`.

    The pre- and post-steps fold into two maps, M = composite("pre") and
    N = composite("post"), with end == N o start o M.
    """

    start: QuadRationalExpr
    steps: tuple[Step, ...]
    end: QuadRationalExpr

    def replay(self) -> QuadRationalExpr:
        cur = self.start
        for step in self.steps:
            cur = step.apply(cur)
        return cur

    def composite(self, side: str) -> MoebiusMap:
        """The composite of one side's maps, numbered in step order:
        M = m1 @ m2 @ ... for the pre-steps, N = ... @ n2 @ n1 for the post."""
        return self._composites[side]

    @cached_property
    def _composites(self) -> dict[str, MoebiusMap]:
        out = dict.fromkeys((PRE, POST), MoebiusMap.identity(self.start.owner))
        for step in self.steps:
            m = out[step.side]
            out[step.side] = m @ step.map if step.side == PRE else step.map @ m
        return out


class CanonicalKind(enum.Enum):
    X_PLUS_SIGMA_OVER_X = "x+sigma/x"
    X_SQUARED = "x^2"


@dataclass(frozen=True)
class CanonicalForm:
    kind: CanonicalKind
    sigma: FieldElement | None = None


class SigmaClass(enum.Enum):
    """Equivalence class of a quadratic rational expression."""
    SQUARE = "square"
    NONSQUARE = "nonsquare"
    X_SQUARED = "x-squared"


def reduce_canonical(r: QuadRationalExpr) -> tuple[CanonicalForm, ReductionTrail]:
    """Bring r to x + sigma/x (or x^2 in characteristic 2) constructively.

    The returned trail records the exact affine/inversion steps, and
    replaying the trail from `r` reproduces the canonical expression
    bit for bit.
    """
    spec = r.owner
    one, zero = spec.one, spec.zero
    affine, inversion = MoebiusMap.affine, MoebiusMap.inversion(spec)
    identity = MoebiusMap.identity(spec)
    steps: list[Step] = []
    cur = r

    def push(side: str, m: MoebiusMap):
        nonlocal cur
        if m == identity:
            return
        steps.append(Step(side, m))
        cur = steps[-1].apply(cur)

    g0, g1, g2 = cur.g_triple()
    h0, h1, h2 = cur.h_triple()
    special = (g2 * h1 == g1 * h2) and (g1 * h0 == g0 * h1)
    if special and spec.p == 2:
        # both g and h lie in K[x^2]; the class of x^2
        if not h2.is_zero():
            push(POST, affine(one, -(g2 / h2)))
            push(POST, inversion)
        g0, g1, g2 = cur.g_triple()
        h0, _, _ = cur.h_triple()
        # now cur = (g2*x^2 + g0)/h0 with h constant
        push(POST, affine(h0 / g2, -(g0 / g2)))
        done = cur.g == Polynomial.monomial(spec, 2) and cur.h == Polynomial.one(spec)
        errors.require(done, "reduction did not end at x^2")
        return (CanonicalForm(CanonicalKind.X_SQUARED),
                ReductionTrail(r, tuple(steps), cur))
    if special:
        push(PRE, affine(one, one))  # escape the x^2-like shape

    g0, g1, g2 = cur.g_triple()
    h0, h1, h2 = cur.h_triple()
    if g2 * h1 == g1 * h2:
        push(PRE, inversion)
        g0, g1, g2 = cur.g_triple()
        h0, h1, h2 = cur.h_triple()
    # now g2*h1 != g1*h2; remove the quadratic denominator term
    if not h2.is_zero():
        push(POST, affine(one, -(g2 / h2)))
        push(POST, inversion)
    # cur = (a2 x^2 + a1 x + a0)/(b1 x + b0) with a2, b1 != 0
    b0, b1, _ = cur.h_triple()
    push(PRE, affine(one, -(b0 / b1)))
    a2 = cur.g.coeff(2)
    b1 = cur.h.coeff(1)
    push(POST, affine(b1 / a2, zero))
    # cur = (x^2 + c1 x + c0)/x; subtract the linear term of the numerator
    push(POST, affine(one, -cur.g.coeff(1)))
    sigma = cur.g.coeff(0)
    errors.require(not sigma.is_zero() and cur == sigma_form(sigma),
                   "reduction did not end at (x^2 + sigma)/x")
    return (CanonicalForm(CanonicalKind.X_PLUS_SIGMA_OVER_X, sigma),
            ReductionTrail(r, tuple(steps), cur))


def classify_sigma(r: QuadRationalExpr) -> SigmaClass:
    """Class label of r without running the reduction.

    Characteristic 2: X_SQUARED exactly when g' = h' = 0, otherwise SQUARE
    (every element is a square).  Odd characteristic: the square class of
    the discriminant of g'h - gh' = ax^2 - 2bx + c, which is that of b^2 - ac.
    """
    if r.owner.p == 2 and r.g.coeff(1).is_zero() and r.h.coeff(1).is_zero():
        return SigmaClass.X_SQUARED
    disc = r.discriminant()
    errors.require(not disc.is_zero(), "b^2 - ac vanishes for a valid expression")
    return SigmaClass.NONSQUARE if square_class(disc) < 0 else SigmaClass.SQUARE
