"""Exact arithmetic in small finite fields GF(p^k).

Elements are stored in the polynomial basis: an element of GF(p^k) is a
tuple of k residues mod p, ascending powers of the generator.  The modulus
defining GF(p^k) is the *canonical* one: the lexicographically least monic
irreducible of degree k over GF(p), comparing coefficient tuples from the
constant term upward.  Two fields built with the same (p, k) are therefore
the same object (construction is cached), and results are reproducible
without external polynomial tables.

Fields are refused above q = 2**20; this is a desk-scale exact toolkit,
not a cryptographic library.
"""

from __future__ import annotations

import functools
import itertools

from . import errors, intmath

#: Largest permitted field cardinality.
SIZE_BOUND = 2 ** 20


def field_make(p: int, k: int = 1) -> "FieldSpec":
    """Construct (or fetch the cached) field GF(p^k) with the canonical modulus."""
    return _field_make(int(p), int(k))


@functools.lru_cache(maxsize=None)
def _field_make(p: int, k: int) -> "FieldSpec":
    if not intmath.is_prime(p):
        raise errors.NotPrime(f"{p} is not prime")
    if k < 1:
        raise errors.Error(f"extension degree must be a positive integer, got {k}")
    if p ** k > SIZE_BOUND:
        raise errors.SizeBoundExceeded(f"refusing field of size {p}^{k} > 2^20")
    if k == 1:
        modulus = (0, 1)  # the polynomial x
    else:
        modulus = _canonical_modulus(p, k)
    return FieldSpec(p, k, modulus)


def field_from_name(name: str) -> "FieldSpec":
    """Parse field notation "p" or "p^k", e.g. "3" or "3^2".

    A bare prime power such as "9" is also accepted and resolved to its
    unique (p, k).
    """
    text = name.strip()
    if "^" in text:
        p_str, k_str = text.split("^", 1)
        return field_make(int(p_str), int(k_str))
    q = int(text)
    if intmath.is_prime(q):
        return field_make(q)
    factors = intmath.factorization(q)
    if len(factors) == 1:
        [(p, k)] = factors.items()
        return field_make(p, k)
    raise errors.NotPrime(f"{q} is not a prime power")


def _canonical_modulus(p: int, k: int) -> tuple[int, ...]:
    # First monic irreducible of degree k over GF(p) in constant-first
    # lexicographic order; found with the same enumeration the polynomial
    # module exposes, over the prime field.
    from . import poly  # deferred: poly imports this module

    prime_field = field_make(p, 1)
    first = next(poly.enumerate_monic_irreducible(prime_field, k))
    return tuple(c.coords[0] for c in first.coeffs)


class FieldSpec:
    """The field GF(p^k): carries the modulus and raw coordinate arithmetic.

    Do not instantiate directly; use :func:`field_make` so that equal (p, k)
    yield the identical object.
    """

    __slots__ = ("p", "k", "q", "modulus", "_red", "_zero", "_one")

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p = p
        self.k = k
        self.q = p ** k
        self.modulus = modulus
        self._red = self._reduction_rows()
        self._zero = FieldElement(self, (0,) * k)
        self._one = FieldElement(self, (1,) + (0,) * (k - 1))

    def _reduction_rows(self) -> tuple[tuple[int, ...], ...]:
        # _red[m - k] = coordinates of y^m for m in [k, 2k-2].
        p, k = self.p, self.k
        if k == 1:
            return ()
        rows = []
        cur = [(-c) % p for c in self.modulus[:k]]  # y^k
        rows.append(tuple(cur))
        for _ in range(k - 2):
            top = cur[k - 1]
            cur = [0] + cur[: k - 1]
            if top:
                cur = [(cur[i] + top * rows[0][i]) % p for i in range(k)]
            rows.append(tuple(cur))
        return tuple(rows)

    # -- raw coordinate-tuple arithmetic ------------------------------------

    def raw_add(self, u, v):
        p = self.p
        return tuple((a + b) % p for a, b in zip(u, v))

    def raw_sub(self, u, v):
        p = self.p
        return tuple((a - b) % p for a, b in zip(u, v))

    def raw_neg(self, u):
        p = self.p
        return tuple((-a) % p for a in u)

    def raw_mul(self, u, v):
        p, k = self.p, self.k
        if k == 1:
            return ((u[0] * v[0]) % p,)
        conv = [0] * (2 * k - 1)
        for i, a in enumerate(u):
            if a:
                for j, b in enumerate(v):
                    conv[i + j] += a * b
        red = self._red
        for m in range(2 * k - 2, k - 1, -1):
            c = conv[m] % p
            if c:
                row = red[m - k]
                for i in range(k):
                    conv[i] += c * row[i]
        return tuple(conv[i] % p for i in range(k))

    def raw_pow(self, u, e: int):
        if e < 0:
            return self.raw_pow(self.raw_inv(u), -e)
        result = self._one.coords
        base = u
        while e:
            if e & 1:
                result = self.raw_mul(result, base)
            base = self.raw_mul(base, base)
            e >>= 1
        return result

    def raw_inv(self, u):
        if not any(u):
            raise errors.DivisionByZero("inverse of zero")
        # Fermat: u^(q-2); q <= 2^20 keeps this cheap.
        return self.raw_pow(u, self.q - 2)

    # -- element construction ------------------------------------------------

    def element(self, value) -> "FieldElement":
        """Build an element from an int (prime-subfield value), tuple, or element."""
        if isinstance(value, FieldElement):
            if value.owner is not self:
                raise errors.FieldMismatch("element belongs to a different field")
            return value
        if isinstance(value, int):
            return FieldElement(self, (value % self.p,) + (0,) * (self.k - 1))
        coords = tuple(int(c) % self.p for c in value)
        if len(coords) != self.k:
            raise errors.Error(f"need {self.k} coordinates, got {len(coords)}")
        return FieldElement(self, coords)

    @property
    def zero(self) -> "FieldElement":
        return self._zero

    @property
    def one(self) -> "FieldElement":
        return self._one

    def gen(self) -> "FieldElement":
        """The polynomial-basis generator (the class of y); equals 1 when k = 1."""
        if self.k == 1:
            return self._one
        return FieldElement(self, (0, 1) + (0,) * (self.k - 2))

    def elements(self):
        """Yield all q elements in canonical (coordinate-lexicographic) order."""
        for coords in itertools.product(range(self.p), repeat=self.k):
            yield FieldElement(self, coords)

    @property
    def name(self) -> str:
        return str(self.p) if self.k == 1 else f"{self.p}^{self.k}"

    def __repr__(self):
        return f"GF({self.name})"

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FieldSpec) and (self.p, self.k) == (other.p, other.k)
        )

    def __hash__(self):
        return hash((FieldSpec, self.p, self.k))


class FieldElement:
    """Immutable element of a :class:`FieldSpec` in the polynomial basis."""

    __slots__ = ("owner", "coords")

    def __init__(self, owner: FieldSpec, coords: tuple[int, ...]):
        self.owner = owner
        self.coords = coords

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.owner is not self.owner:
                raise errors.FieldMismatch(
                    f"cannot combine {self.owner!r} and {other.owner!r} elements")
            return other
        if isinstance(other, int):
            return self.owner.element(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.owner, self.owner.raw_add(self.coords, other.coords))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.owner, self.owner.raw_sub(self.coords, other.coords))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.owner, self.owner.raw_sub(other.coords, self.coords))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.owner, self.owner.raw_mul(self.coords, other.coords))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __neg__(self):
        return FieldElement(self.owner, self.owner.raw_neg(self.coords))

    def __pow__(self, e: int):
        return FieldElement(self.owner, self.owner.raw_pow(self.coords, e))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.owner, self.owner.raw_inv(self.coords))

    def is_zero(self) -> bool:
        return not any(self.coords)

    def is_one(self) -> bool:
        return self.coords == self.owner._one.coords

    def __bool__(self):
        return any(self.coords)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.owner.element(other)
        return (isinstance(other, FieldElement)
                and self.owner is other.owner
                and self.coords == other.coords)

    def __hash__(self):
        return hash((self.owner.p, self.owner.k, self.coords))

    def __int__(self):
        if self.owner.k != 1:
            raise TypeError("only prime-field elements convert to int")
        return self.coords[0]

    def to_text(self) -> str:
        """Prime fields: "2"; extension fields: "[a0 a1 ...]"."""
        if self.owner.k == 1:
            return str(self.coords[0])
        return "[" + " ".join(str(c) for c in self.coords) + "]"

    def __repr__(self):
        return f"{self.owner!r}({self.to_text()})"

    def is_square(self) -> bool:
        return is_square(self)


def element_from_text(spec: FieldSpec, text: str) -> FieldElement:
    """Parse "2" (prime subfield value) or "[a0 a1 ...]"."""
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise errors.Error(f"unterminated coordinate tuple: {text!r}")
        return spec.element(tuple(int(t) for t in text[1:-1].split()))
    return spec.element(int(text))


def is_square(s: FieldElement) -> bool:
    """Whether nonzero s is a square in its field.

    In characteristic 2 squaring is a bijection, so every element qualifies;
    for odd q this is the Euler criterion s^((q-1)/2) = 1.
    """
    if s.is_zero():
        raise errors.ZeroInput("square test of zero")
    if s.owner.p == 2:
        return True
    return (s ** ((s.owner.q - 1) // 2)).is_one()


def least_nonsquare(spec: FieldSpec) -> FieldElement:
    """The first nonsquare in canonical element order (odd characteristic)."""
    if spec.p == 2:
        raise errors.Error("every element of a characteristic-2 field is a square")
    for e in spec.elements():
        if not e.is_zero() and not is_square(e):
            return e
    raise AssertionError("odd field without a nonsquare")


@functools.lru_cache(maxsize=None)
def _embedding_matrix(source: FieldSpec, target: FieldSpec) -> tuple[tuple[int, ...], ...]:
    # Rows: coordinates in `target` of xi^i for i < source.k, where xi is the
    # least root (canonical element order) of the source modulus in target.
    consts = [target.element(c) for c in source.modulus]
    root = None
    for cand in target.elements():
        acc = target.zero
        for c in reversed(consts):
            acc = acc * cand + c
        if acc.is_zero():
            root = cand
            break
    if root is None:
        raise AssertionError("source modulus has no root in target field")
    rows = []
    power = target.one
    for _ in range(source.k):
        rows.append(power.coords)
        power = power * root
    return tuple(rows)


def embed(e: FieldElement, target: FieldSpec) -> FieldElement:
    """Image of e under the fixed embedding of its field into `target`.

    The embedding is the ring homomorphism fixing GF(p) that sends the
    source generator to the least root of the source modulus in `target`.
    """
    source = e.owner
    if source is target:
        return e
    if source.p != target.p or target.k % source.k != 0:
        raise errors.NoEmbedding(
            f"no embedding of {source!r} into {target!r}")
    rows = _embedding_matrix(source, target)
    p = target.p
    out = [0] * target.k
    for a, row in zip(e.coords, rows):
        if a:
            for j, b in enumerate(row):
                out[j] = (out[j] + a * b) % p
    return FieldElement(target, tuple(out))
