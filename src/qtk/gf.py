"""Exact arithmetic in small finite fields GF(p^k).

An element is one integer, its index in the canonical element order: the
element a0 + a1*y + ... + a_(k-1)*y^(k-1) (polynomial basis, ascending powers
of the generator y, residues mod p) has index a0*p^(k-1) + ... + a_(k-1), so
indices sort as coordinate tuples do; over a prime field it is the residue.
Prime fields multiply residues and invert with ``pow(u, -1, p)``; extension
fields multiply and invert through exp/log tables of a primitive element,
built on first use (4 bytes per entry each: 8 MB at q = 2^20).  Index arrays
add by one rule (:meth:`FieldSpec.addmul_vec`, :meth:`FieldSpec.sum_vec`):
residues mod p for k = 1 (acc + a*c < 2^40), XOR for p = 2 (the coordinates
are the bits), else on the coordinates, from a table of the q elements built
on first use (int8 for p < 128, else int16: at most q*k bytes, 20 MB at 2^20).

The modulus defining GF(p^k) is the *canonical* one: the lexicographically
least monic irreducible of degree k over GF(p), comparing coefficient tuples
from the constant term upward.  Two fields built with the same (p, k) are
therefore the same object (construction is cached), and results are
reproducible without external polynomial tables.

Fields are refused above q = 2**20; this is a desk-scale exact toolkit,
not a cryptographic library.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

import numpy as np

from . import errors, intmath

#: Largest permitted field cardinality.
SIZE_BOUND = 2 ** 20


def field_make(p: int, k: int = 1) -> "FieldSpec":
    """Construct (or fetch the cached) field GF(p^k) with the canonical modulus."""
    return _field_make(int(p), int(k))


@functools.lru_cache(maxsize=None)
def _field_make(p: int, k: int) -> "FieldSpec":
    # refused by size before is_prime's trial division and before p ** k
    if p > SIZE_BOUND:
        raise errors.SizeBoundExceeded(f"refusing field of size {p}^{k} > 2^20")
    if not intmath.is_prime(p):
        raise errors.NotPrime(f"{p} is not prime")
    if k < 1:
        raise errors.Error(f"extension degree must be a positive integer, got {k}")
    if k >= SIZE_BOUND.bit_length() or p ** k > SIZE_BOUND:
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
        return field_make(parse_int(p_str, "field"), parse_int(k_str, "field"))
    q = parse_int(text, "field")
    if q < 2:
        raise errors.NotPrime(f"{q} is not a prime power")
    if q > SIZE_BOUND:  # before the trial division of factorization
        raise errors.SizeBoundExceeded(f"refusing field of size {q} > 2^20")
    factors = intmath.factorization(q)
    if len(factors) == 1:
        [(p, k)] = factors.items()
        return field_make(p, k)
    raise errors.NotPrime(f"{q} is not a prime power")


def parse_int(text: str, what: str) -> int:
    """int(text), refusing anything else with InvalidArgument."""
    try:
        return int(text)
    except ValueError:
        raise errors.InvalidArgument(f"{what} must be an integer, got {text!r}") from None


def _canonical_modulus(p: int, k: int) -> tuple[int, ...]:
    # First monic irreducible of degree k over GF(p) in constant-first
    # lexicographic order.  Candidates with constant term 0 are divisible by
    # x, so the scan starts at constant term 1; the order is unchanged.
    from . import poly  # deferred: poly imports this module

    prime_field = field_make(p, 1)
    tails = itertools.product(range(1, p), *[range(p)] * (k - 1))
    return next(t + (1,) for t in tails
                if poly.is_irreducible(poly.Polynomial(prime_field, t + (1,))))


class FieldSpec:
    """The field GF(p^k): carries the modulus and the element arithmetic.

    Do not instantiate directly; use :func:`field_make` so that equal (p, k)
    yield the identical object.
    """

    __slots__ = ("p", "k", "q", "modulus", "unit", "_pw", "_pwl", "_ymat",
                 "_red", "_bytemod", "_tables", "_coords", "zero", "one")

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p = p
        self.k = k
        self.q = p ** k
        self.modulus = modulus
        #: index of the element 1
        self.unit = p ** (k - 1)
        self._pwl = [p ** (k - 1 - j) for j in range(k)]
        self._pw = np.array(self._pwl, dtype=np.int64)
        # _ymat row j: coordinates of y^(j+1); _red row i: those of y^(k+i)
        ymod = [(-c) % p for c in modulus[:k]]
        self._ymat = np.vstack([np.eye(k, dtype=np.int64)[1:], [ymod]])
        self._red = self._matrix(ymod)[:k - 1]
        self._bytemod = bytes(i % p for i in range(256))  # a bytes.translate table
        self._tables = self._coords = None
        self.zero = FieldElement(self, 0)
        self.one = FieldElement(self, self.unit)

    # -- coordinates -----------------------------------------------------------

    def coords(self, u: int) -> tuple[int, ...]:
        """Coordinate tuple (a0, ..., a_(k-1)) of the element with index u."""
        return tuple(u // w % self.p for w in self._pwl)

    def index(self, coords) -> int:
        """Index of the element with these coordinates (reduced mod p)."""
        p = self.p
        return sum(c % p * w for c, w in zip(coords, self._pwl))

    def to_coords(self, a):
        """Coordinates of an index array, on a new last axis of length k (int64)."""
        if self.k == 1:
            return a[..., np.newaxis]
        if self._coords is None:
            u = np.arange(self.q, dtype=np.int64)[:, np.newaxis]
            self._coords = (u // self._pw % self.p).astype(np.int8 if self.p < 128 else np.int16)
        return np.take(self._coords, a, axis=0).astype(np.int64)

    def from_coords(self, m):
        """Indices of an int64 coordinate array (last axis of length k, entries
        in [0, p)), by Horner over the k columns (numpy's int64 matmul has no BLAS)."""
        out = m[..., 0]
        for j in range(1, self.k):
            out = out * self.p + m[..., j]
        return out

    # -- element arithmetic on indices -------------------------------------------

    def raw_add(self, u: int, v: int) -> int:
        return sum((u // w + v // w) % self.p * w for w in self._pwl)

    def raw_sub(self, u: int, v: int) -> int:
        return sum((u // w - v // w) % self.p * w for w in self._pwl)

    def raw_neg(self, u: int) -> int:
        return sum(-(u // w) % self.p * w for w in self._pwl)

    def raw_mul(self, u: int, v: int) -> int:
        if self.k == 1:
            return u * v % self.p
        if not (u and v):
            return 0
        exp, log = (self._tables or self._build_tables())[2:]
        return exp[(log[u] + log[v]) % (self.q - 1)]

    def raw_inv(self, u: int) -> int:
        if not u:
            raise errors.DivisionByZero("inverse of zero")
        if self.k == 1:
            return pow(u, -1, self.p)
        exp, log = (self._tables or self._build_tables())[2:]
        return exp[-log[u] % (self.q - 1)]

    def inv_vec(self, u):
        """raw_inv on an array of nonzero indices: by the tables, or u^(p-2)."""
        if self.k > 1:
            exp, log = (self._tables or self._build_tables())[:2]
            return exp[-log[u] % (self.q - 1)].astype(np.int64)
        inv = intmath.power(u, self.p - 2, self.mul_vec)
        return u if inv is None else inv  # p = 2: u is 1

    def raw_pow(self, u: int, e: int) -> int:
        if not u:
            if e < 0:
                raise errors.DivisionByZero("inverse of zero")
            return 0 if e else self.unit
        if self.k == 1:
            return pow(u, e, self.p)
        exp, log = (self._tables or self._build_tables())[2:]
        return exp[log[u] * e % (self.q - 1)]

    def mul_vec(self, a, c):
        """The index array a times c, entrywise: c is one element index or an
        index array that broadcasts against a (one multiplier per row)."""
        if self.k == 1:
            return a * c % self.p
        exp, log = (self._tables or self._build_tables())[:2]
        out = exp[(log[a] + log[c]) % (self.q - 1)].astype(np.int64)
        out[(a == 0) | (c == 0)] = 0
        return out

    def addmul_vec(self, acc, a, c):
        """acc + a*c entrywise on index arrays, c as in :meth:`mul_vec`."""
        if self.k == 1:
            return (acc + a * c) % self.p
        if self.p == 2:
            return acc ^ self.mul_vec(a, c)
        return self.from_coords((self.to_coords(acc) + self.to_coords(self.mul_vec(a, c)))
                                % self.p)

    def sum_vec(self, a, axis: int):
        """The sum of the index array a along `axis` (>= 0)."""
        if self.k == 1:
            return a.sum(axis=axis) % self.p
        if self.p == 2:
            return np.bitwise_xor.reduce(a, axis=axis)
        return self.from_coords(self.to_coords(a).sum(axis=axis) % self.p)

    def _matrix(self, coords):
        """k x k matrix of multiplication by an element: row j is it times y^j."""
        rows = [np.array(coords, dtype=np.int64)]
        for _ in range(self.k - 1):
            rows.append(rows[-1] @ self._ymat % self.p)
        return np.array(rows)

    def _build_tables(self):
        # g is the first element in canonical order whose multiplication
        # matrix has order q - 1.  Its powers come in blocks: g^0..g^(L-1) by
        # doubling, then each next block is the last one times g^L.
        p, k, order = self.p, self.k, self.q - 1

        def mpow(m, e):  # e >= 1
            return intmath.power(m, e, lambda a, b: a @ b % p)

        ident = np.eye(k, dtype=np.int64)
        primes = intmath.prime_factors(order)
        candidates = (self._matrix(self.coords(u)) for u in range(1, self.q))
        gmat = next(m for m in candidates
                    if not any((mpow(m, order // r) == ident).all() for r in primes))
        size = math.isqrt(order) + 1
        block, step = ident[:1], gmat
        while len(block) < size:
            block = np.vstack([block, block @ step % p])
            step = step @ step % p
        block = block[:size]
        giant = mpow(gmat, size)
        exp = np.empty(order, dtype=np.int32)
        for start in range(0, order, size):
            n = min(size, order - start)
            exp[start:start + n] = block[:n] @ self._pw
            block = block @ giant % p
        log = np.zeros(self.q, dtype=np.int32)
        log[exp] = np.arange(order, dtype=np.int32)
        # exp[i] = g^i, log its inverse (log[0] = 0), and memoryviews of both
        # that index to Python ints for the scalar methods
        self._tables = (exp, log, memoryview(exp), memoryview(log))
        return self._tables

    # -- element construction ------------------------------------------------

    def element(self, value) -> "FieldElement":
        """Build an element from an integer (prime-subfield value), a coordinate
        sequence, or an element."""
        if isinstance(value, FieldElement):
            if value.owner is not self:
                raise errors.FieldMismatch("element belongs to a different field")
            return value
        try:
            return FieldElement(self, operator.index(value) % self.p * self.unit)
        except TypeError:
            pass
        coords = tuple(int(c) for c in value)
        if len(coords) != self.k:
            raise errors.Error(f"need {self.k} coordinates, got {len(coords)}")
        return FieldElement(self, self.index(coords))

    def gen(self) -> "FieldElement":
        """The polynomial-basis generator (the class of y); equals 1 when k = 1."""
        if self.k == 1:
            return self.one
        return FieldElement(self, self.unit // self.p)

    def elements(self):
        """Yield all q elements in canonical (coordinate-lexicographic) order."""
        for u in range(self.q):
            yield FieldElement(self, u)

    def element_text(self, u: int) -> str:
        """Prime fields: "2"; extension fields: "[a0 a1 ...]"."""
        if self.k == 1:
            return str(u)
        return "[" + " ".join(map(str, self.coords(u))) + "]"

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


def _operator(method: str, swap: bool = False):
    # FieldSpec.<method> on the two indices, looked up at call time as a
    # method call would be
    def op(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        u, v = (other.value, self.value) if swap else (self.value, other.value)
        return FieldElement(self.owner, getattr(self.owner, method)(u, v))
    return op


class FieldElement:
    """Immutable element of a :class:`FieldSpec`, held as its index."""

    __slots__ = ("owner", "value")

    def __init__(self, owner: FieldSpec, value: int):
        self.owner = owner
        self.value = value

    @property
    def coords(self) -> tuple[int, ...]:
        return self.owner.coords(self.value)

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.owner is not self.owner:
                raise errors.FieldMismatch(
                    f"cannot combine {self.owner!r} and {other.owner!r} elements")
            return other
        if isinstance(other, int):
            return self.owner.element(other)
        return NotImplemented

    __add__ = __radd__ = _operator("raw_add")
    __sub__ = _operator("raw_sub")
    __rsub__ = _operator("raw_sub", swap=True)
    __mul__ = __rmul__ = _operator("raw_mul")

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
        return FieldElement(self.owner, self.owner.raw_neg(self.value))

    def __pow__(self, e: int):
        return FieldElement(self.owner, self.owner.raw_pow(self.value, e))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.owner, self.owner.raw_inv(self.value))

    def is_zero(self) -> bool:
        return not self.value

    def is_one(self) -> bool:
        return self.value == self.owner.unit

    def __bool__(self):
        return bool(self.value)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.owner.element(other)
        return (isinstance(other, FieldElement)
                and self.owner is other.owner
                and self.value == other.value)

    def __hash__(self):
        return hash((self.owner.p, self.owner.k, self.value))

    def __int__(self):
        if self.owner.k != 1:
            raise TypeError("only prime-field elements convert to int")
        return self.value

    def to_text(self) -> str:
        """Prime fields: "2"; extension fields: "[a0 a1 ...]"."""
        return self.owner.element_text(self.value)

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
        coords = text[1:-1].split()
        return spec.element(tuple(parse_int(t, "coordinate") for t in coords))
    return spec.element(parse_int(text, "element"))


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


def square_class(s: FieldElement) -> int:
    """epsilon of nonzero s: 0 in characteristic 2, otherwise +1 for a square
    and -1 for a nonsquare."""
    square = is_square(s)
    return 0 if s.owner.p == 2 else (1 if square else -1)


def least_nonsquare(spec: FieldSpec) -> FieldElement:
    """The first nonsquare in canonical element order (odd characteristic)."""
    if spec.p == 2:
        raise errors.Error("every element of a characteristic-2 field is a square")
    for e in spec.elements():
        if not e.is_zero() and not is_square(e):
            return e
    raise errors.IdentityViolated("odd field without a nonsquare")


@functools.lru_cache(maxsize=None)
def _embedding_powers(source: FieldSpec, target: FieldSpec) -> tuple[FieldElement, ...]:
    # xi^i in `target` for i < source.k, where xi is the least root (canonical
    # element order) of the source modulus in target, read off its linear factors
    from . import poly  # deferred: poly imports this module

    roots = [(-phi.coeff(0)).value for phi, _ in poly.factorize(
        poly.Polynomial(target, source.modulus), source.k) if phi.degree == 1]
    errors.require(roots, "source modulus has no root in target field")
    root = FieldElement(target, min(roots))
    powers = [target.one]
    for _ in range(source.k - 1):
        powers.append(powers[-1] * root)
    return tuple(powers)


def embed(e: FieldElement, target: FieldSpec) -> FieldElement:
    """Image of e under the fixed embedding of its field into `target`: the
    constant polynomial e through :meth:`qtk.poly.Polynomial.embed`."""
    from .poly import Polynomial  # deferred: poly imports this module

    return Polynomial(e.owner, [e]).embed(target).coeff(0)
