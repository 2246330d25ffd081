"""Dense univariate polynomials over GF(p^k).

A polynomial is a tuple of coefficients in ascending degree with no trailing
zeros; the zero polynomial has no coefficients and its degree is the
distinguished marker :data:`NEG_INF` (never the integer -1, so accidental
arithmetic on it fails loudly in comparisons rather than silently).

Internally each coefficient is a raw coordinate tuple, and the hot
operations (multiplication, division, modular exponentiation) run on a
(k x n) integer matrix through numpy, which keeps degree-1000 work from
the H-polynomial verifiers fast while staying exact: everything is int64
residue arithmetic, never floating point.

Two text formats are accepted everywhere:
  (a) ascending coefficient list: "1,0,2" or "[1 0],[0 1]" for extensions;
  (b) human form: "x^2+2*x+1".
Emission uses form (a) plus a human-form annotation.
"""

from __future__ import annotations

import itertools
import re

import numpy as np

from . import errors, intmath
from .gf import FieldElement, FieldSpec, element_from_text

#: Degree of the zero polynomial.
NEG_INF = float("-inf")


class Polynomial:
    """Immutable dense polynomial over a fixed :class:`FieldSpec`."""

    __slots__ = ("owner", "_c", "_mat", "_hash")

    def __init__(self, owner: FieldSpec, coeffs=()):
        """Build from an iterable of coefficients (ints, tuples, or elements)."""
        raw = []
        for c in coeffs:
            if isinstance(c, FieldElement):
                if c.owner is not owner:
                    raise errors.FieldMismatch("coefficient from a different field")
                raw.append(c.coords)
            else:
                raw.append(owner.element(c).coords)
        while raw and not any(raw[-1]):
            raw.pop()
        self.owner = owner
        self._c = tuple(raw)
        self._mat = None
        self._hash = None

    @classmethod
    def _from_raw(cls, owner: FieldSpec, raw) -> "Polynomial":
        # raw: list of coordinate tuples, ascending degree, may carry trailing zeros
        self = cls.__new__(cls)
        raw = list(raw)
        while raw and not any(raw[-1]):
            raw.pop()
        self.owner = owner
        self._c = tuple(raw)
        self._mat = None
        self._hash = None
        return self

    @classmethod
    def _from_mat(cls, owner: FieldSpec, mat) -> "Polynomial":
        return cls._from_raw(owner, [tuple(int(v) for v in col) for col in mat.T])

    @classmethod
    def zero(cls, owner: FieldSpec) -> "Polynomial":
        return cls._from_raw(owner, [])

    @classmethod
    def one(cls, owner: FieldSpec) -> "Polynomial":
        return cls._from_raw(owner, [owner.one.coords])

    @classmethod
    def x(cls, owner: FieldSpec) -> "Polynomial":
        return cls._from_raw(owner, [owner.zero.coords, owner.one.coords])

    @classmethod
    def monomial(cls, owner: FieldSpec, degree: int, coeff=1) -> "Polynomial":
        c = owner.element(coeff)
        return cls._from_raw(owner, [owner.zero.coords] * degree + [c.coords])

    # -- structure -----------------------------------------------------------

    @property
    def degree(self):
        """Degree, or NEG_INF for the zero polynomial."""
        return len(self._c) - 1 if self._c else NEG_INF

    def is_zero(self) -> bool:
        return not self._c

    @property
    def coeffs(self) -> tuple[FieldElement, ...]:
        return tuple(FieldElement(self.owner, c) for c in self._c)

    def coeff(self, i: int) -> FieldElement:
        """Coefficient of x^i (zero beyond the degree)."""
        if 0 <= i < len(self._c):
            return FieldElement(self.owner, self._c[i])
        return self.owner.zero

    @property
    def leading(self) -> FieldElement:
        if not self._c:
            raise errors.ZeroPolynomial("zero polynomial has no leading coefficient")
        return FieldElement(self.owner, self._c[-1])

    def is_monic(self) -> bool:
        return bool(self._c) and self._c[-1] == self.owner.one.coords

    def matrix(self):
        """(k x n) int64 coordinate matrix; cached, treat as read-only."""
        if self._mat is None:
            k = self.owner.k
            if not self._c:
                self._mat = np.zeros((k, 0), dtype=np.int64)
            else:
                self._mat = np.array(self._c, dtype=np.int64).T.copy()
        return self._mat

    # -- ring operations -------------------------------------------------------

    def _check_owner(self, other: "Polynomial"):
        if not isinstance(other, Polynomial):
            raise TypeError(f"expected Polynomial, got {type(other).__name__}")
        if other.owner is not self.owner:
            raise errors.FieldMismatch("polynomials over different fields")

    def __add__(self, other):
        self._check_owner(other)
        spec = self.owner
        a, b = self._c, other._c
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = spec.raw_add(out[i], c)
        return Polynomial._from_raw(spec, out)

    def __sub__(self, other):
        self._check_owner(other)
        spec = self.owner
        n = max(len(self._c), len(other._c))
        zero = spec.zero.coords
        out = []
        for i in range(n):
            u = self._c[i] if i < len(self._c) else zero
            v = other._c[i] if i < len(other._c) else zero
            out.append(spec.raw_sub(u, v))
        return Polynomial._from_raw(spec, out)

    def __neg__(self):
        spec = self.owner
        return Polynomial._from_raw(spec, [spec.raw_neg(c) for c in self._c])

    def __mul__(self, other):
        if isinstance(other, (FieldElement, int)):
            return self.scale(other)
        self._check_owner(other)
        if self.is_zero() or other.is_zero():
            return Polynomial.zero(self.owner)
        return Polynomial._from_mat(
            self.owner, _kmul(self.owner, self.matrix(), other.matrix()))

    def __rmul__(self, other):
        if isinstance(other, (FieldElement, int)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "Polynomial":
        """Multiply by a scalar."""
        spec = self.owner
        c = spec.element(c)
        if c.is_zero():
            return Polynomial.zero(spec)
        return Polynomial._from_raw(spec, [spec.raw_mul(u, c.coords) for u in self._c])

    def __divmod__(self, other):
        self._check_owner(other)
        if other.is_zero():
            raise errors.DivisionByZero("polynomial division by zero")
        if self.is_zero() or len(self._c) < len(other._c):
            return Polynomial.zero(self.owner), self
        q, r = _kdivmod(self.owner, self.matrix(), other.matrix())
        return (Polynomial._from_mat(self.owner, q),
                Polynomial._from_mat(self.owner, r))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.one(self.owner)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def monic(self) -> "Polynomial":
        """The unique monic scalar multiple."""
        if self.is_zero():
            raise errors.ZeroPolynomial("cannot normalize the zero polynomial")
        if self.is_monic():
            return self
        return self.scale(self.leading.inverse())

    def derivative(self) -> "Polynomial":
        """Formal derivative; note x^p differentiates to zero in characteristic p."""
        spec = self.owner
        out = []
        for i in range(1, len(self._c)):
            mult = spec.element(i)
            out.append(spec.raw_mul(self._c[i], mult.coords))
        return Polynomial._from_raw(spec, out)

    def reciprocal(self) -> "Polynomial":
        """x^deg * f(1/x): the coefficient sequence reversed."""
        if self.is_zero():
            return self
        return Polynomial._from_raw(self.owner, list(reversed(self._c)))

    def compose(self, other: "Polynomial") -> "Polynomial":
        """f(other(x)) by Horner."""
        self._check_owner(other)
        spec = self.owner
        acc = Polynomial.zero(spec)
        for c in reversed(self._c):
            acc = acc * other + Polynomial._from_raw(spec, [c])
        return acc

    def __call__(self, a: FieldElement) -> FieldElement:
        """Evaluate at a point of the base field or an extension of it."""
        from .gf import embed
        if not isinstance(a, FieldElement):
            raise TypeError("evaluation point must be a field element")
        if a.owner is self.owner:
            coeffs = self.coeffs
        elif a.owner.p == self.owner.p and a.owner.k % self.owner.k == 0:
            coeffs = tuple(embed(c, a.owner) for c in self.coeffs)
        else:
            raise errors.FieldMismatch(
                "evaluation point is not in the coefficient field or an extension")
        acc = a.owner.zero
        for c in reversed(coeffs):
            acc = acc * a + c
        return acc

    # -- comparison / hashing --------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Polynomial)
                and self.owner is other.owner
                and self._c == other._c)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.owner.p, self.owner.k, self._c))
        return self._hash

    def sort_key(self):
        """Deterministic ordering key: degree, then coefficients from constant up."""
        return (len(self._c), self._c)

    # -- text ------------------------------------------------------------------

    def to_text(self) -> str:
        """Form (a): ascending coefficient list."""
        if not self._c:
            return "0"
        return ",".join(
            FieldElement(self.owner, c).to_text() for c in self._c)

    def to_human(self) -> str:
        """Form (b): "x^2+2*x+1" with coefficients as residues."""
        if not self._c:
            return "0"
        k = self.owner.k
        terms = []
        for i in range(len(self._c) - 1, -1, -1):
            c = self._c[i]
            if not any(c):
                continue
            ctext = FieldElement(self.owner, c).to_text()
            is_unit = (c == self.owner.one.coords)
            if i == 0:
                terms.append(ctext)
            else:
                xpart = "x" if i == 1 else f"x^{i}"
                if is_unit and k == 1:
                    terms.append(xpart)
                else:
                    terms.append(f"{ctext}*{xpart}")
        return "+".join(terms)

    def __str__(self):
        return self.to_human()

    def __repr__(self):
        return f"Polynomial({self.owner!r}, \"{self.to_text()}\")"

    def is_irreducible(self) -> bool:
        return is_irreducible(self)


# -- numpy kernels -------------------------------------------------------------


def _ktrim(mat):
    n = mat.shape[1]
    while n > 0 and not mat[:, n - 1].any():
        n -= 1
    return mat[:, :n]


def _kmul(spec: FieldSpec, A, B):
    """Product of two nonzero coefficient matrices, reduced mod p and modulus."""
    p, k = spec.p, spec.k
    if k == 1:
        return (np.convolve(A[0], B[0]) % p)[np.newaxis, :]
    n = A.shape[1] + B.shape[1] - 1
    acc = np.zeros((2 * k - 1, n), dtype=np.int64)
    for i in range(k):
        if not A[i].any():
            continue
        for j in range(k):
            if B[j].any():
                acc[i + j] += np.convolve(A[i], B[j])
    # fold the generator powers y^k .. y^(2k-2) back into the basis
    for m in range(2 * k - 2, k - 1, -1):
        row = acc[m] % p
        if row.any():
            red = spec._red[m - k]
            for t in range(k):
                if red[t]:
                    acc[t] += red[t] * row
    return acc[:k] % p


def _mulmat(spec: FieldSpec, coords):
    """k x k matrix of multiplication by the element with these coordinates."""
    k = spec.k
    out = np.zeros((k, k), dtype=np.int64)
    col = list(coords)
    out[:, 0] = col
    for j in range(1, k):
        top = col[k - 1]
        col = [0] + col[: k - 1]
        if top:
            red = spec._red[0]  # y^k row
            col = [(col[i] + top * red[i]) % spec.p for i in range(k)]
        out[:, j] = col
    return out


def _kdivmod(spec: FieldSpec, A, B, want_quotient: bool = True):
    """Long division of coefficient matrices; B nonzero."""
    p, k = spec.p, spec.k
    B = _ktrim(B)
    m = B.shape[1]
    lead = tuple(int(v) for v in B[:, m - 1])
    lead_inv = spec.raw_inv(lead)
    if lead != spec.one.coords:
        if k == 1:
            Bm = (B * lead_inv[0]) % p
        else:
            Bm = (_mulmat(spec, lead_inv) @ B) % p
    else:
        Bm = B
    R = A % p
    n = R.shape[1]
    if n < m:
        return np.zeros((k, 0), dtype=np.int64), _ktrim(R)
    Q = np.zeros((k, n - m + 1), dtype=np.int64) if want_quotient else None
    if k == 1:
        r = R[0].copy()
        b = Bm[0, : m - 1]
        for i in range(n - 1, m - 2, -1):
            c = r[i]
            if c:
                if want_quotient:
                    Q[0, i - m + 1] = c
                if m > 1:
                    r[i - m + 1: i] = (r[i - m + 1: i] - c * b) % p
                r[i] = 0
        R = r[np.newaxis, :]
    else:
        R = R.copy()
        body = Bm[:, : m - 1]
        for i in range(n - 1, m - 2, -1):
            c = R[:, i]
            if c.any():
                if want_quotient:
                    Q[:, i - m + 1] = c
                if m > 1:
                    Mc = _mulmat(spec, tuple(int(v) for v in c))
                    R[:, i - m + 1: i] = (R[:, i - m + 1: i] - Mc @ body) % p
                R[:, i] = 0
    if not want_quotient:
        return None, _ktrim(R)
    # division was by the monic form; rescale the quotient
    if lead != spec.one.coords:
        if k == 1:
            Q = (Q * lead_inv[0]) % p
        else:
            Q = (_mulmat(spec, lead_inv) @ Q) % p
    return _ktrim(Q), _ktrim(R)


def _kmod(spec, A, B):
    return _kdivmod(spec, A, B, want_quotient=False)[1]


def _kgcd(spec, A, B):
    A, B = _ktrim(A), _ktrim(B)
    while B.shape[1]:
        A, B = B, _kmod(spec, A, B)
    return A


# -- ring-level functions --------------------------------------------------------


def gcd(p1: Polynomial, p2: Polynomial) -> Polynomial:
    """Monic greatest common divisor."""
    p1._check_owner(p2)
    if p1.is_zero() and p2.is_zero():
        raise errors.BothZero("gcd(0, 0) is undefined")
    if p1.is_zero():
        return p2.monic()
    if p2.is_zero():
        return p1.monic()
    g = Polynomial._from_mat(p1.owner, _kgcd(p1.owner, p1.matrix(), p2.matrix()))
    return g.monic()


def pow_mod(base: Polynomial, e: int, mod: Polynomial) -> Polynomial:
    """base^e mod `mod` by square-and-multiply; e is an arbitrary-size integer."""
    base._check_owner(mod)
    if mod.is_zero() or mod.degree < 1:
        raise errors.ZeroModulus("modulus must have degree >= 1")
    if e < 0:
        raise ValueError("negative exponent")
    spec = base.owner
    M = mod.matrix()
    r = Polynomial.one(spec).matrix()
    b = _kmod(spec, base.matrix(), M)
    while e:
        if e & 1:
            if r.shape[1] and b.shape[1]:
                r = _kmod(spec, _kmul(spec, r, b), M)
            else:
                r = np.zeros((spec.k, 0), dtype=np.int64)
        e >>= 1
        if e and b.shape[1]:
            b = _kmod(spec, _kmul(spec, b, b), M)
    return Polynomial._from_mat(spec, r)


def _frobenius_step(z: Polynomial, steps: int, mod: Polynomial) -> Polynomial:
    """z^(q^steps) mod `mod`."""
    q = z.owner.q
    for _ in range(steps):
        z = pow_mod(z, q, mod)
    return z


def is_irreducible(f: Polynomial) -> bool:
    """Rabin's irreducibility criterion.

    f of degree n is irreducible over GF(q) iff x^(q^n) = x (mod f) and,
    for each prime r dividing n, gcd(x^(q^(n/r)) - x, f) = 1.
    """
    d = f.degree
    if f.is_zero() or d < 1:
        raise errors.DegreeZero("irreducibility needs degree >= 1")
    if d == 1:
        return True
    spec = f.owner
    x = Polynomial.x(spec)
    z = x % f
    cur = 0
    for t in sorted({d // r for r in intmath.prime_factors(d)}):
        z = _frobenius_step(z, t - cur, f)
        cur = t
        if gcd(z - x, f).degree > 0:
            return False
    z = _frobenius_step(z, d - cur, f)
    return z == x % f


def enumerate_monic(spec: FieldSpec, d: int, limit: int | None = None):
    """All monic polynomials of degree d, coefficient-lexicographic ascending
    from the constant term."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    bound = SIZE_BOUND_ENUM if limit is None else limit
    if spec.q ** d > bound:
        raise errors.SizeBoundExceeded(
            f"enumeration space {spec.q}^{d} exceeds the bound {bound}")
    one = spec.one.coords
    lower = [e.coords for e in spec.elements()]
    for tail in itertools.product(lower, repeat=d):
        yield Polynomial._from_raw(spec, list(tail) + [one])


#: Guard on enumeration spaces (candidate count).
SIZE_BOUND_ENUM = 2 ** 20


def enumerate_monic_irreducible(spec: FieldSpec, d: int, limit: int | None = None):
    """Monic irreducibles of degree d in the same deterministic order."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    for f in enumerate_monic(spec, d, limit):
        if is_irreducible(f):
            yield f


class Factorization:
    """Complete factorization: unit * product(factor^multiplicity)."""

    __slots__ = ("unit", "factors")

    def __init__(self, unit: FieldElement, factors):
        self.unit = unit
        self.factors = tuple(sorted(factors, key=lambda t: t[0].sort_key()))

    def __iter__(self):
        return iter(self.factors)

    def __len__(self):
        return len(self.factors)

    def product(self) -> Polynomial:
        spec = self.unit.owner
        out = Polynomial.one(spec).scale(self.unit)
        for f, m in self.factors:
            out = out * f ** m
        return out

    def degrees(self) -> list[int]:
        out = []
        for f, m in self.factors:
            out.extend([int(f.degree)] * m)
        return sorted(out)

    def __repr__(self):
        inner = ", ".join(f"({f.to_human()})^{m}" for f, m in self.factors)
        return f"Factorization({self.unit.to_text()}; {inner})"


def factorize(f: Polynomial, bound: int) -> Factorization:
    """Complete monic factorization by trial division.

    Divides by monic irreducibles in enumeration order, degree by degree up
    to `bound`.  Once the cofactor's degree drops below twice the current
    trial degree it must itself be irreducible and is recorded directly.
    Raises BoundTooSmall if a cofactor of degree > bound would remain, i.e.
    the precondition that all factors have degree <= bound was violated.
    """
    if f.is_zero():
        raise errors.ZeroPolynomial("cannot factor the zero polynomial")
    spec = f.owner
    unit = f.leading
    work = f.monic()
    out: list[tuple[Polynomial, int]] = []
    d = 1
    while work.degree > 0:
        if work.degree < 2 * d:
            # all remaining factors exceed d-1, so the cofactor is irreducible
            if work.degree > bound:
                raise errors.BoundTooSmall(
                    f"irreducible cofactor of degree {work.degree} exceeds bound {bound}")
            out.append((work, 1))
            break
        if d > bound:
            raise errors.BoundTooSmall(
                f"cofactor of degree {work.degree} remains after trial division to {bound}")
        for phi in enumerate_monic_irreducible(spec, d):
            mult = 0
            while True:
                q, r = divmod(work, phi)
                if not r.is_zero():
                    break
                work = q
                mult += 1
            if mult:
                out.append((phi, mult))
            if work.degree < 2 * d:
                break
        d += 1
    return Factorization(unit, out)


def compose_fraction(f: Polynomial, num: Polynomial, den: Polynomial) -> Polynomial:
    """den^deg(f) * f(num/den), the denominator-cleared fractional substitution."""
    f._check_owner(num)
    f._check_owner(den)
    if f.is_zero():
        return f
    spec = f.owner
    cs = f.coeffs
    acc = Polynomial._from_raw(spec, [cs[-1].coords])
    dpow = Polynomial.one(spec)
    for i in range(len(cs) - 2, -1, -1):
        dpow = dpow * den
        acc = acc * num + dpow.scale(cs[i])
    return acc


# -- parsing ---------------------------------------------------------------------

_HUMAN_TERM = re.compile(
    r"^(?:(?P<coeff>\[[^\]]*\]|\d+)\*?)?(?P<x>x(?:\^(?P<exp>\d+))?)?$")
_BRACKET = re.compile(r"\[[^\]]*\]")


def parse_poly(spec: FieldSpec, text: str) -> Polynomial:
    """Parse either text format (coefficient list or human form)."""
    text = text.strip()
    if not text:
        raise errors.Error("empty polynomial text")
    if "x" in text:
        return _parse_human(spec, text)
    return _parse_coeff_list(spec, text)


def _parse_coeff_list(spec: FieldSpec, text: str) -> Polynomial:
    tokens = re.findall(r"\[[^\]]*\]|[^,\s]+", text)
    if not tokens:
        raise errors.Error(f"cannot parse polynomial: {text!r}")
    return Polynomial(spec, [element_from_text(spec, t) for t in tokens])


def _parse_human(spec: FieldSpec, text: str) -> Polynomial:
    # protect the spaces inside bracketed coordinate tuples
    protected = _BRACKET.findall(text)
    for i, b in enumerate(protected):
        text = text.replace(b, f"\x00{i}\x00", 1)
    text = text.replace(" ", "").replace("-", "+-")
    for i, b in enumerate(protected):
        text = text.replace(f"\x00{i}\x00", b, 1)
    if text.startswith("+"):
        text = text[1:]
    coeffs: dict[int, FieldElement] = {}
    for part in text.split("+"):
        if not part:
            raise errors.Error(f"cannot parse polynomial term in {text!r}")
        negate = part.startswith("-")
        if negate:
            part = part[1:]
        m = _HUMAN_TERM.match(part)
        if not m or (m.group("coeff") is None and m.group("x") is None):
            raise errors.Error(f"cannot parse polynomial term {part!r}")
        c = (spec.one if m.group("coeff") is None
             else element_from_text(spec, m.group("coeff")))
        if m.group("x") is None:
            e = 0
        else:
            e = 1 if m.group("exp") is None else int(m.group("exp"))
        if negate:
            c = -c
        coeffs[e] = coeffs.get(e, spec.zero) + c
    deg = max(coeffs)
    return Polynomial(spec, [coeffs.get(i, spec.zero) for i in range(deg + 1)])
