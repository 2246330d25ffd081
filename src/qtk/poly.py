"""Dense univariate polynomials over GF(p^k).

A polynomial holds one int64 numpy array: the element indices (see
:mod:`qtk.gf`) of its coefficients in ascending degree, with no trailing
zeros; coefficient elements and text are built only when asked for.  The zero
polynomial has no coefficients and its degree is the distinguished marker
:data:`NEG_INF` (never the integer -1, so accidental arithmetic on it fails
loudly in comparisons rather than silently).

Multiplication, division and modular exponentiation run on these arrays
through numpy, exactly: int64 residue arithmetic, never floating point.  Over
GF(p) a product is one ``np.convolve``; over GF(p^k) it is one Python integer
product (Kronecker substitution).  Coordinate j of coefficient i fills slot
i*(2k-1)+j, the product's slots hold the coordinates of y^0..y^(2k-2), and
y^k..y^(2k-2) fold back into the basis.  A slot sums at most k * (shorter
length) * (p-1)^2 terms and is the narrowest of 1, 2, 4 or 8 bytes holding
that, so none carries; k * (shorter length + 1) * (p-1)^2 < 2^63 is checked
before every product.  Every other sum goes on indices through
:meth:`FieldSpec.addmul_vec` or :meth:`FieldSpec.sum_vec`, so none accumulates.

Over GF(p), division by a divisor of degree m, and with it scalar
:func:`pow_mod` and :func:`gcd`, runs on packed Python integers instead:
coefficient i fills bits [i*w, (i+1)*w), w the narrowest of 8, 16, 32 or 64
holding 2m(p-1)^2 + p (the product's rule).  A product of residues puts at
most m(p-1)^2 in a slot and a dividend less than p; division adds at most m
products of two residues, so no slot carries, and then reduces each
remainder slot mod p: 8-bit slots by bytes.translate, up to _LOOP_SLOTS = 8
wider ones one by one on the Python integer (about 0.2 us per slot), more by
one numpy % (about 2 us at any length; even at 9 slots).  A dividend goes in
windows, the remainder so far over the next m + 32 coefficients, so a
quotient step costs O(m), not O(dividend length).  Scalar :func:`gcd` runs
Euclid on the residues of one _Divisor of its operand of larger degree m,
in the one slot width this rule gives m (a remainder slot gets at most m
quotient additions of at most (p-1)^2 on top of a value below p, so none
carries).  A divisor whose bound has no 64-bit slot (m above about 8.4
million at p near 2^20) keeps index vectors, as over GF(p^k).

:func:`compose_fraction` cuts f into digits of B = max(1, 32 // k)
coefficients, maps each by one int64 matmul ((r+1)*k <= 32 terms of at most
(p-1)^2, guarded like a product) with a read-only GF(p) matrix of
:func:`_substitution`, and joins them by Horner in x^B: memory O(deg f).  Its
LRU cache keeps 256 matrices, each at most 32 x 32*max(deg num, deg den, 1).
It also takes a stack of one degree: each digit is then one (N, (r+1)*k) @ S
product for all rows, and each Horner product one product of the rows laid
end to end; a single polynomial is the one-row stack of the same loop.

:func:`factorize` splits the distinct-degree layers of :func:`ddf` by
Cantor-Zassenhaus (von zur Gathen & Gerhard, *Modern Computer Algebra*,
ch. 14); Rabin's test and the irreducible sieve stand apart from it.

Scalar :func:`is_irreducible` of degree d >= 2 first evaluates f at
0, 1, ..., p-1 by Horner on Python integers, one coordinate column at a time
(a prime-field point scales each coordinate alike), and rejects f at its
first root.  Most random candidates have one, so most of the enumeration
never reaches Rabin's Frobenius steps.  The test runs only while its
p*k*(d+1) multiply-adds are at most the bitlen(q)*d^2 of one Frobenius step;
GF(1021) quadratics go straight to Rabin.  Rabin works on the residues of
one _Divisor of f from x to the verdict: z - x, the gcd with f and z == x
are residue operations, and the Frobenius steps follow the Q rule below.
The stacked test has no root test.  Its callers pass kernel images
F = h^n f(g/h), g and h coprime, and when f is monic irreducible of degree
n >= 2, F has no root in GF(q): F(a) = 0 with h(a) != 0 would make g(a)/h(a)
a root of f, and h(a) = 0 gives g(a) != 0, so F(a) = g(a)^n != 0.  Only the
images of the q linear f (the pencil) can have roots.

A *stack* is a sequence of polynomials over one field, held as one (N, L)
int64 array of element indices (:class:`_Stack`): row i is the _a of
polynomial i padded with zeros, and a single polynomial is the one-row view
of its own _a.  :func:`pow_mod` and :func:`gcd` take stacks as rowwise
operations modulo a stack of one degree D >= 1, and :func:`is_irreducible`
takes a stack of one degree: all run the row kernel with the moduli scaled
monic once.  A product and a reduction modulo the N monic rows each loop over
the D positions, one step vectorized over the rows; a gcd is a fixed 2D - 1
divsteps with no branch per row.  A single polynomial's pow_mod, gcd or Rabin
test never enters the row kernel: at N = 1 it is several times slower than
the scalar code.  The stacked Rabin test serves the filter behind
:func:`qtk.transform.irreducible_images`, whose candidates stay one stack
from :func:`monic_irreducibles` to the verdict, for the count oracle and the
transform side of the H verifier.  z -> z^q is GF(q)-linear, so z^q mod F is
z Q, row i of Q being x^(iq) mod F (Berlekamp's Q matrix: Knuth, TAOCP vol. 2,
4.6.2; von zur Gathen & Shoup 1992).  The scalar and the stacked test share
one schedule (_rabin_schedule).  The first Frobenius step is one pow_mod,
x^q.  For q > 2 that is row 1 of Q, and when a second step is due, d - 2
products by x^q build the other rows, only for the rows that the gcds left,
so a candidate that the first gcd rejects never pays for them; every later
step is one product z Q: its d terms added by sum_vec, or for a packed
residue summed on the integer, at most d(p-1)^2 in a slot (within the slot
rule above), then each slot mod p.  A block takes at most
_FROBENIUS_ENTRIES / (d^2 k) rows, which bounds Q and z Q; a degree whose
one Q would exceed it (d > 512 over GF(p)) runs without Q.
So does GF(2): a step there is one squaring, which Q only slows.

Two text formats are accepted everywhere:
  (a) ascending coefficient list: "1,0,2" or "[1 0],[0 1]" for extensions;
  (b) human form: "x^2+2*x+1".
Emission uses form (a) plus a human-form annotation.
"""

from __future__ import annotations

import functools
import itertools
import random
import re

import numpy as np

from . import errors, intmath
from .gf import SIZE_BOUND, FieldElement, FieldSpec, _embedding_powers, element_from_text

#: Degree of the zero polynomial.
NEG_INF = float("-inf")

_EMPTY = np.zeros(0, dtype=np.int64)


class Polynomial:
    """Immutable dense polynomial over a fixed :class:`FieldSpec`."""

    __slots__ = ("owner", "_a", "_hash")

    def __init__(self, owner: FieldSpec, coeffs=()):
        """Build from coefficients: elements, integers or coordinate sequences."""
        values = []
        for c in coeffs:
            if isinstance(c, FieldElement):
                if c.owner is not owner:
                    raise errors.FieldMismatch("coefficient from a different field")
                values.append(c.value)
            else:
                values.append(owner.element(c).value)
        self.owner = owner
        self._a = _trim(np.array(values, dtype=np.int64))
        self._hash = None

    @classmethod
    def _wrap(cls, owner: FieldSpec, a) -> "Polynomial":
        # a: int64 index vector without trailing zeros; taken, not copied
        self = cls.__new__(cls)
        self.owner = owner
        self._a = a
        self._hash = None
        return self

    @classmethod
    def zero(cls, owner: FieldSpec) -> "Polynomial":
        return cls._wrap(owner, _EMPTY)

    @classmethod
    def one(cls, owner: FieldSpec) -> "Polynomial":
        return cls.monomial(owner, 0)

    @classmethod
    def x(cls, owner: FieldSpec) -> "Polynomial":
        return cls.monomial(owner, 1)

    @classmethod
    def monomial(cls, owner: FieldSpec, degree: int, coeff=1) -> "Polynomial":
        a = np.zeros(degree + 1, dtype=np.int64)
        a[degree] = owner.element(coeff).value
        return cls._wrap(owner, _trim(a))

    # -- structure -----------------------------------------------------------

    @property
    def degree(self):
        """Degree, or NEG_INF for the zero polynomial."""
        return len(self._a) - 1 if len(self._a) else NEG_INF

    def is_zero(self) -> bool:
        return not len(self._a)

    @property
    def coeffs(self) -> tuple[FieldElement, ...]:
        owner = self.owner
        return tuple(FieldElement(owner, u) for u in self._a.tolist())

    def coeff(self, i: int) -> FieldElement:
        """Coefficient of x^i (zero beyond the degree)."""
        if 0 <= i < len(self._a):
            return FieldElement(self.owner, int(self._a[i]))
        return self.owner.zero

    @property
    def leading(self) -> FieldElement:
        if not len(self._a):
            raise errors.ZeroPolynomial("zero polynomial has no leading coefficient")
        return FieldElement(self.owner, int(self._a[-1]))

    def is_monic(self) -> bool:
        return len(self._a) > 0 and int(self._a[-1]) == self.owner.unit

    # -- ring operations -------------------------------------------------------

    def _check_owner(self, other: "Polynomial"):
        if not isinstance(other, Polynomial):
            raise TypeError(f"expected Polynomial, got {type(other).__name__}")
        if other.owner is not self.owner:
            raise errors.FieldMismatch("polynomials over different fields")

    def _combine(self, other, c: int) -> "Polynomial":
        # self + c * other, c an element index
        self._check_owner(other)
        spec = self.owner
        a, b = self._a, other._a
        C = np.concatenate([a, np.zeros(max(0, len(b) - len(a)), dtype=np.int64)])
        C[:len(b)] = spec.addmul_vec(C[:len(b)], b, c)
        return Polynomial._wrap(spec, _trim(C))

    def __add__(self, other):
        return self._combine(other, self.owner.unit)

    def __sub__(self, other):
        return self._combine(other, self.owner.raw_neg(self.owner.unit))

    def __neg__(self):
        return Polynomial.zero(self.owner) - self

    def __mul__(self, other):
        if isinstance(other, (FieldElement, int)):
            return self.scale(other)
        self._check_owner(other)
        if self.is_zero() or other.is_zero():
            return Polynomial.zero(self.owner)
        return Polynomial._wrap(self.owner, _kmul(self.owner, self._a, other._a))

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
        return Polynomial._wrap(spec, spec.mul_vec(self._a, c.value))

    def __divmod__(self, other):
        self._check_owner(other)
        if other.is_zero():
            raise errors.DivisionByZero("polynomial division by zero")
        q, r = _Divisor(self.owner, other._a).divmod(self._a)
        return Polynomial._wrap(self.owner, q), Polynomial._wrap(self.owner, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, e: int):
        if e < 0:
            raise errors.InvalidArgument("negative polynomial power")
        result = intmath.power(self, e, Polynomial.__mul__)
        return Polynomial.one(self.owner) if result is None else result

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
        mult = np.arange(1, len(self._a), dtype=np.int64) % spec.p * spec.unit
        return Polynomial._wrap(spec, _trim(spec.mul_vec(self._a[1:], mult)))

    def reciprocal(self) -> "Polynomial":
        """x^deg * f(1/x): the coefficient sequence reversed."""
        return Polynomial._wrap(self.owner, _trim(self._a[::-1].copy()))

    def embed(self, target: FieldSpec) -> "Polynomial":
        """The same polynomial over an extension field, under the ring
        homomorphism fixing GF(p) that sends the source generator to the least
        root of the source modulus in `target`: one GF(p) matrix product whose
        rows are the target coordinates of the powers of that root."""
        source = self.owner
        if target is source:
            return self
        if source.p != target.p or target.k % source.k:
            raise errors.NoEmbedding(f"no embedding of {source!r} into {target!r}")
        M = np.array([target.coords(w.value) for w in _embedding_powers(source, target)],
                     dtype=np.int64)
        return Polynomial._wrap(target, target.from_coords(
            source.to_coords(self._a) @ M % target.p))

    def __call__(self, a: FieldElement) -> FieldElement:
        """Evaluate at a point of the base field or an extension of it."""
        if not isinstance(a, FieldElement):
            raise TypeError("evaluation point must be a field element")
        if a.owner.p != self.owner.p or a.owner.k % self.owner.k:
            raise errors.FieldMismatch(
                "evaluation point is not in the coefficient field or an extension")
        acc = a.owner.zero
        for c in reversed(self.embed(a.owner).coeffs):
            acc = acc * a + c
        return acc

    # -- comparison / hashing --------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Polynomial)
                and self.owner is other.owner
                and len(self._a) == len(other._a)
                and self._a.tobytes() == other._a.tobytes())

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.owner.p, self.owner.k, self._a.tobytes()))
        return self._hash

    def sort_key(self):
        """Deterministic ordering key: degree, then coefficients from constant up
        (in canonical element order)."""
        return (len(self._a), tuple(self._a.tolist()))

    # -- text ------------------------------------------------------------------

    def to_text(self) -> str:
        """Form (a): ascending coefficient list."""
        if not len(self._a):
            return "0"
        return ",".join(map(self.owner.element_text, self._a.tolist()))

    def to_json_dict(self) -> dict:
        """Form (a) with form (b) alongside, as the CLI's output carries it."""
        return {"coeffs": self.to_text(), "human": self.to_human()}

    def to_human(self) -> str:
        """Form (b): "x^2+2*x+1" with coefficients as residues."""
        if not len(self._a):
            return "0"
        spec = self.owner
        terms = []
        for i, u in reversed(list(enumerate(self._a.tolist()))):
            if not u:
                continue
            ctext = spec.element_text(u)
            if i == 0:
                terms.append(ctext)
            else:
                xpart = "x" if i == 1 else f"x^{i}"
                if u == spec.unit and spec.k == 1:
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


# -- numpy kernels on index vectors ----------------------------------------------


def _trim(a):
    """a without its trailing zeros."""
    if not len(a) or a[-1]:
        return a
    nz = np.flatnonzero(a)
    return a[:nz[-1] + 1] if len(nz) else _EMPTY


def _check_headroom(spec: FieldSpec, terms: int):
    """Refuse a product whose convolution sums could leave int64."""
    if spec.k * (terms + 1) * (spec.p - 1) ** 2 >= 2 ** 63:
        raise errors.SizeBoundExceeded(
            f"a product of {terms} terms over {spec!r} could overflow int64")


@functools.lru_cache(maxsize=256)
def _slot_dtype(bound: int):
    """The narrowest of 1, 2, 4 or 8 little-endian unsigned bytes holding
    `bound`, or None past 8 bytes."""
    return next((np.dtype(f"<u{w}") for w in (1, 2, 4, 8) if bound < 1 << 8 * w), None)


def _kmul(spec: FieldSpec, a, b):
    """Product of two nonzero index vectors."""
    p, k = spec.p, spec.k
    _check_headroom(spec, min(len(a), len(b)))
    if k == 1:
        return np.convolve(a, b) % p
    # Kronecker substitution; slots and their width as in the module docstring
    s, n = 2 * k - 1, len(a) + len(b) - 1
    dt = _slot_dtype(k * min(len(a), len(b)) * (p - 1) ** 2)
    def pack(v):
        S = np.zeros((len(v), s), dtype=dt)
        S[:, :k] = spec.to_coords(v)
        return int.from_bytes(S.tobytes(), "little")
    x = pack(a)
    prod = x * (x if b is a else pack(b))
    acc = np.frombuffer(prod.to_bytes(n * s * dt.itemsize, "little"),
                        dtype=dt).reshape(n, s).astype(np.int64)
    # fold y^k .. y^(2k-2) back into the basis
    C = (acc[:, :k] + (acc[:, k:] % p) @ spec._red) % p
    return spec.from_coords(C)


def _pack(a, dt):
    """The index vector a packed in slots of dtype dt (module docstring)."""
    return int.from_bytes(a.astype(dt).tobytes(), "little")


def _unpack(r, dt):
    """The packed r as a trimmed index vector: whole slots up to the top nonzero one."""
    size = dt.itemsize
    return np.frombuffer(r.to_bytes(size * -(-r.bit_length() // (8 * size)), "little"),
                         dt).astype(np.int64)


def _reduce_packed(spec: FieldSpec, dt, A, B, m: int, inv, want_quotient: bool = False):
    """(quotient coefficients from the top or None, reduced residue) of the
    packed A modulo the packed B of degree m, inv the inverse of its lead
    (None for 1): from A's top slot i down to m, A += c * x^(i-m) * B with
    c = -(slot i) * inv mod p; then each remainder slot mod p."""
    p, w, inv = spec.p, 8 * dt.itemsize, inv or 1
    Q, mask, top = [] if want_quotient else None, (1 << w) - 1, m * w
    for s in range((A.bit_length() - 1) // w * w, top - 1, -w):
        c = -(A >> s & mask) * inv % p
        if c:
            A += c * B << (s - top)
        if want_quotient:
            Q.append(-c % p)
    if w > 8 and m <= _LOOP_SLOTS:
        r = 0
        for s in range(0, top, w):
            r |= (A >> s & mask) % p << s
        return Q, r
    R = (A & ((1 << top) - 1)).to_bytes(m * w // 8, "little")
    R = R.translate(spec._bytemod) if w == 8 else np.frombuffer(R, dt) % p
    return Q, int.from_bytes(R, "little")


class _Divisor:
    """A nonzero divisor prepared for repeated long division.  Over GF(p),
    residues are Python integers packed in slots of dtype dt, the divisor in
    `packed` (module docstring); over GF(p^k), or with no slot for the bound,
    index vectors (dt None), the divisor then in `neg`, the negated body of
    its monic multiple."""

    __slots__ = ("spec", "inv", "m", "dt", "packed", "neg")

    def __init__(self, spec: FieldSpec, b):
        self.spec, self.m = spec, len(b) - 1
        lead = int(b[-1])
        self.inv = None if lead == spec.unit else spec.raw_inv(lead)
        self.dt = _slot_dtype(2 * self.m * (spec.p - 1) ** 2 + spec.p) if spec.k == 1 else None
        if self.dt is not None:
            self.packed = _pack(b, self.dt)
        else:
            self.neg = spec.mul_vec(b[:-1], spec.raw_neg(self.inv or spec.unit))

    def load(self, a):
        """The index vector a as a reduced residue in this divisor's form."""
        if self.dt is None:
            return self.divmod(a, want_quotient=False)[1]
        return _pack(a, self.dt) if len(a) <= self.m else self._long(a)[1]

    def store(self, r):
        """A residue in this divisor's form as a trimmed index vector."""
        return r if self.dt is None else _unpack(r, self.dt)

    def mulmod(self, a, b):
        """The reduced product of two residues in this divisor's form."""
        if self.dt is not None:
            return _reduce_packed(self.spec, self.dt, a * b, self.packed, self.m, self.inv)[1]
        return self.load(_kmul(self.spec, a, b)) if len(a) and len(b) else _EMPTY

    def same(self, a, b) -> bool:
        """Whether two residues in this divisor's form are equal."""
        return a == b if self.dt is not None else np.array_equal(a, b)

    def minus_x(self, r):
        """The residue r - x (m >= 2): coefficient 1 drops by one."""
        if self.dt is None:
            return _trim(_minus_x(self.spec, r))
        w = 8 * self.dt.itemsize  # slot 1 drops by one mod p
        s = r >> w & (1 << w) - 1
        return r + ((s - 1) % self.spec.p - s << w)

    def times_q(self, z, Q):
        """The residue z^q as z Q, Q from :func:`_frobenius_rows`; packed, the
        sum of z_i x^(iq), at most m(p-1)^2 a slot, then each slot mod p."""
        if self.dt is None:
            return _trim(_times_q(self.spec, z, Q))
        w, s = 8 * self.dt.itemsize, 0
        mask = (1 << w) - 1
        for i, row in enumerate(Q):
            s += row * (z >> i * w & mask)
        return _reduce_packed(self.spec, self.dt, s, self.packed, self.m, self.inv)[1]

    def gcd(self, r):
        """The monic gcd of the residue r with the divisor, as a residue of this
        form (the monic divisor for r = 0): Euclid on packed remainders (module
        docstring) or on index vectors."""
        spec = self.spec
        if self.dt is None:
            a = np.append(spec.mul_vec(self.neg, spec.raw_neg(spec.unit)), spec.unit)
            while len(r):
                a, r = r, _Divisor(spec, r).divmod(a, want_quotient=False)[1]
            return a if a[-1] == spec.unit else spec.mul_vec(a, spec.raw_inv(int(a[-1])))
        w, a = 8 * self.dt.itemsize, self.packed
        while r:
            m = (r.bit_length() - 1) // w
            inv = None if (lead := r >> m * w) == 1 else spec.raw_inv(lead)
            a, r = r, _reduce_packed(spec, self.dt, a, r, m, inv)[1]
        m = (a.bit_length() - 1) // w
        if not m:  # a nonzero constant
            return 1
        # times the inverse of the lead: each slot below (p-1)^2, then mod p
        lead = a >> m * w
        return a if lead == 1 else _reduce_packed(
            spec, self.dt, spec.raw_inv(lead) * a, a, m + 1, None)[1]

    def _long(self, a, want_quotient: bool = False):
        """_reduce_packed of the index vector a in windows (module docstring) from
        the remainder 0: one quotient digit per slot, less the top m phantom ones."""
        Q, r, step, w = [], 0, self.m + 32, 8 * self.dt.itemsize
        for j in range(len(a), 0, -step):
            i = max(0, j - step)
            q, r = _reduce_packed(self.spec, self.dt, r << (j - i) * w | _pack(a[i:j], self.dt),
                                  self.packed, self.m, self.inv, want_quotient)
            if want_quotient:
                Q += [0] * (j - i - len(q)) + q
        return Q[self.m:] if want_quotient else None, r

    def divmod(self, a, want_quotient: bool = True):
        """(quotient, remainder) index vectors; the quotient is None unless wanted."""
        spec, m, n = self.spec, self.m, len(a)
        if n <= m:
            return (_EMPTY if want_quotient else None), a
        if self.dt is not None:
            Q, r = self._long(a, want_quotient)
            return (np.array(Q[::-1], dtype=np.int64) if want_quotient else None), self.store(r)
        # one addmul_vec per quotient step, whose coefficient c stays at i; by
        # c * x^m the division is a shift, which a nonzero neg[0] rules out
        # without the scan (it would cost a share of the gcd and Rabin loops)
        R = a.copy()
        if (m and self.neg[0]) or self.neg.any():
            for i in range(n - 1, m - 1, -1):
                if c := int(R[i]):
                    R[i - m:i] = spec.addmul_vec(R[i - m:i], self.neg, c)
        Q = R[m:] if self.inv is None or not want_quotient else spec.mul_vec(R[m:], self.inv)
        return (Q if want_quotient else None), _trim(R[:m])


# -- ring-level functions --------------------------------------------------------


def gcd(p1, p2):
    """Monic greatest common divisor, by Euclid on the residues of one
    _Divisor of the operand of larger degree, packed over GF(p) (module docstring).

    With p2 a :class:`_Divisor`, p1 is a residue in its form, and the result
    is the monic gcd as a residue of the same form (the monic divisor for
    p1 = 0).  Also rowwise on stacks (module docstring): p2 a sequence of
    polynomials of one degree D >= 1, p1 a sequence of as many polynomials;
    the result is the sequence of the monic gcds."""
    if isinstance(p2, _Divisor):
        return p2.gcd(p1)
    if not isinstance(p1, Polynomial):
        F, _, A = _operands(p1, p2, errors.DegreeZero)
        return _Stack(F.owner, _rows_gcd(F.owner, A, F.A))
    p1._check_owner(p2)
    if p1.is_zero() and p2.is_zero():
        raise errors.BothZero("gcd(0, 0) is undefined")
    a, b = sorted((p1._a, p2._a), key=len)
    div = _Divisor(p1.owner, b)
    return Polynomial._wrap(p1.owner, div.store(div.gcd(div.load(a))))


def pow_mod(base, e: int, mod):
    """base^e mod `mod` by :func:`qtk.intmath.power`; e is an arbitrary-size integer.

    Also rowwise on stacks (module docstring): mod a sequence of polynomials
    of one degree D >= 1, base a sequence of as many polynomials.  With mod a
    :class:`_Divisor` and e >= 1, base is a residue in its form (a packed integer
    or an index vector), and so is the result, intmath.power(base, e, mod.mulmod)."""
    if isinstance(mod, _Divisor):
        if e < 1:
            raise errors.InvalidArgument("a residue power needs an exponent >= 1")
        return intmath.power(base, e, mod.mulmod)
    if not isinstance(base, Polynomial):
        return _pow_mod_rows(base, e, mod)
    base._check_owner(mod)
    if mod.degree < 1:
        raise errors.ZeroModulus("modulus must have degree >= 1")
    if e < 0:
        raise errors.InvalidArgument("negative exponent")
    spec = base.owner
    div = _Divisor(spec, mod._a)
    r = intmath.power(div.load(base._a), e, div.mulmod)
    return Polynomial.one(spec) if r is None else Polynomial._wrap(spec, div.store(r))


# -- the row kernel: one operation on a stack of polynomials ----------------------


class _Stack:
    """N polynomials over one field as one (N, L) int64 array A of element
    indices: row i is the _a of polynomial i, padded with zeros.  To a caller
    it is the sequence of those polynomials."""

    __slots__ = ("owner", "A")

    def __init__(self, owner: FieldSpec, A):
        self.owner = owner
        self.A = A

    def __len__(self):
        return len(self.A)

    def __getitem__(self, i: int) -> Polynomial:
        return Polynomial._wrap(self.owner, _trim(self.A[i]))

    def __iter__(self):
        return map(self.__getitem__, range(len(self.A)))

    _check_owner = Polynomial._check_owner  # reads only .owner

    def take(self, rows) -> "_Stack":
        return _Stack(self.owner, self.A[rows])

    def monic(self) -> "_Stack":
        """Each row scaled by the inverse of its leading coefficient."""
        spec, A = self.owner, self.A
        top = A.shape[1] - 1 - np.argmax(A[:, ::-1] != 0, axis=1)
        lead = A[np.arange(len(A)), top, np.newaxis]
        return _Stack(spec, spec.mul_vec(A, spec.inv_vec(lead)))


def _as_rows(f):
    """(S, single): a nonzero polynomial (single, as a one-row view of its _a)
    or a sequence of polynomials of one degree over one field as a _Stack S,
    None for no rows."""
    if isinstance(f, Polynomial):
        if f.is_zero():
            raise errors.ZeroPolynomial("zero polynomial")
        return _Stack(f.owner, f._a[np.newaxis]), True
    S = _stack(f) if len(f) else None
    if S is not None and not S.A[:, -1].all():
        raise errors.InvalidArgument("the rows of a stack need one degree and no zero row")
    return S, False


def _stack(rows) -> _Stack:
    """A nonempty sequence of polynomials over one field as a _Stack."""
    if isinstance(rows, _Stack):
        return rows
    rows = list(rows)
    if not rows:
        raise errors.InvalidArgument("empty stack of polynomials")
    first = rows[0]
    if not isinstance(first, Polynomial):
        raise TypeError(f"expected Polynomial, got {type(first).__name__}")
    for f in rows:
        first._check_owner(f)
    A = np.zeros((len(rows), max(1, *(len(f._a) for f in rows))), dtype=np.int64)
    for row, f in zip(A, rows):
        row[:len(f._a)] = f._a
    return _Stack(first.owner, A)


def _monic_rows(rows, error) -> _Stack:
    """The rows scaled monic, as (N, D+1): they must share one degree D >= 1
    (else `error`, or InvalidArgument when the degrees differ)."""
    S = _stack(rows)
    if not S.A[:, 1:].any(axis=1).all():
        raise error("every row needs degree >= 1")
    S = _as_rows(S)[0]
    return S if (S.A[:, -1] == S.owner.unit).all() else S.monic()


def _operands(a, mod, error):
    """(F, neg, A) for a rowwise operation: F the rows of `mod` by
    :func:`_monic_rows`, neg the (N, D) indices of their negated bodies, and
    A the rows of `a` reduced modulo them, as (N, D)."""
    F = _monic_rows(mod, error)
    A = _stack(a)
    if A.owner is not F.owner:
        raise errors.FieldMismatch("stacks over different fields")
    if len(A) != len(F):
        raise errors.InvalidArgument("stacks of different lengths")
    spec = F.owner
    neg = spec.mul_vec(F.A[:, :-1], spec.raw_neg(spec.unit))
    return F, neg, _rows_reduce(spec, A.A, neg)[0]


def _rows_reduce(spec: FieldSpec, R, neg):
    """The rows of the index array R ((N, L)) divided by the monic rows with
    negated bodies neg ((N, D)), as (remainder (N, D), quotient (N, L-D)):
    one step per position i from the top, each adding c * neg at the D
    positions below it; c, the quotient's x^(i-D) coefficient, stays at i."""
    N, L = R.shape
    D = neg.shape[1]
    R = np.concatenate([R, np.zeros((N, max(0, D - L)), dtype=np.int64)], axis=1)
    for i in range(L - 1, D - 1, -1):
        R[:, i - D:i] = spec.addmul_vec(R[:, i - D:i], neg, R[:, i:i + 1])
    return R[:, :D], R[:, D:]


def _rows_mulmod(spec: FieldSpec, A, B, neg):
    """A * B modulo the monic rows with negated bodies neg, for residues A and
    B ((N, D)): one addmul_vec per position of A, then :func:`_rows_reduce`."""
    N, D = A.shape
    P = np.zeros((N, 2 * D - 1), dtype=np.int64)
    for i in range(D):
        P[:, i:i + D] = spec.addmul_vec(P[:, i:i + D], B, A[:, i:i + 1])
    return _rows_reduce(spec, P, neg)[0]


def _rows_gcd(spec: FieldSpec, A, F):
    """The monic gcd of each residue row of A ((N, D)) with its monic row of
    F ((N, D+1)), as (N, D+1): 2D - 1 divsteps on the reversed rows,
    f = x^D F(1/x) and g = x^(D-1) A(1/x), with no per-row branch; then
    deg gcd = delta / 2 and gcd = x^deg f(1/x) / f(0) (Bernstein & Yang, "Fast
    constant-time gcd computation and modular inversion", 2019, Theorem 6.2)."""
    N, D = len(F), F.shape[1] - 1
    f = F[:, ::-1]
    g = np.zeros_like(f)
    g[:, :D] = A[:, ::-1]
    delta = np.ones(N, dtype=np.int64)
    minus = spec.raw_neg(spec.unit)
    for _ in range(2 * D - 1):
        swap = (delta > 0) & (g[:, 0] != 0)
        h = spec.addmul_vec(spec.mul_vec(g, f[:, :1]), f, spec.mul_vec(g[:, :1], minus))
        f = np.where(swap[:, np.newaxis], g, f)
        delta = np.where(swap, 1 - delta, 1 + delta)
        g = np.zeros_like(g)
        g[:, :D] = h[:, 1:]
    top = delta[:, np.newaxis] // 2 - np.arange(D + 1)
    G = np.where(top >= 0, np.take_along_axis(f, np.maximum(top, 0), axis=1), 0)
    return spec.mul_vec(G, spec.inv_vec(f[:, :1]))


def _pow_mod_rows(base, e: int, mod) -> _Stack:
    """pow_mod on stacks: square-and-multiply with every row at once."""
    if e < 0:
        raise errors.InvalidArgument("negative exponent")
    F, neg, b = _operands(base, mod, errors.ZeroModulus)
    spec = F.owner
    r = intmath.power(b, e, lambda u, v: _rows_mulmod(spec, u, v, neg))
    if r is None:
        r = np.zeros_like(b)
        r[:, 0] = spec.unit
    return _Stack(spec, r)


def _product(factors, one: Polynomial) -> Polynomial:
    """The product of `factors` (`one` for none), multiplied pairwise, level
    by level, so both operands of a product have about the same degree (the
    root of the subproduct tree of von zur Gathen & Gerhard, *Modern
    Computer Algebra*, ch. 10)."""
    level = list(factors)
    while len(level) > 1:
        level = [level[i] * level[i + 1] if i + 1 < len(level) else level[i]
                 for i in range(0, len(level), 2)]
    return level[0] if level else one


def _rabin_schedule(spec: FieldSpec, d: int):
    """(steps, fit) of Rabin's test at degree d: the gcd steps d/r for the
    primes r of d from the largest, then d; and how many rows' Q fit in
    _FROBENIUS_ENTRIES coordinates (0 over GF(2); a step is z Q iff fit > 0)."""
    return ([d // r for r in reversed(intmath.prime_factors(d))] + [d],
            _FROBENIUS_ENTRIES // (d * d * spec.k) if spec.q > 2 else 0)


def _frobenius_rows(one, xq, d: int, mulmod):
    """Berlekamp's Q from its rows 0 and 1, the residues of 1 and x^q: row i
    is x^(iq) = (x^q)^i, i < d, by mulmod.  A list of packed residues, or one
    index array, (d, d) for index vectors and (N, d, d) for (N, d) rows x^q."""
    rows = itertools.chain([one], itertools.accumulate([xq] * (d - 1), mulmod))
    if isinstance(xq, int):
        return list(rows)
    Q = np.zeros(xq.shape[:-1] + (d, d), dtype=np.int64)
    for i, r in enumerate(rows):
        Q[..., i, :r.shape[-1]] = r
    return Q


def _times_q(spec: FieldSpec, z, Q):
    """z Q on index arrays: a residue z by the first len(z) rows of its Q
    ((d, d)), or residue rows ((N, d)) by theirs ((N, d, d))."""
    return spec.sum_vec(spec.mul_vec(Q[..., :z.shape[-1], :], z[..., np.newaxis]), z.ndim - 1)


def _minus_x(spec: FieldSpec, z):
    """z - x on index arrays, a residue or residue rows, at least two
    coefficients wide: index - unit, mod q, lowers coordinate 0 by 1."""
    v = np.zeros(z.shape[:-1] + (max(z.shape[-1], 2),), dtype=np.int64)
    v[..., :z.shape[-1]] = z
    v[..., 1] = (v[..., 1] - spec.unit) % spec.q
    return v


def is_irreducible(f):
    """Rabin's irreducibility criterion.

    f of degree n is irreducible over GF(q) iff x^(q^n) = x (mod f) and,
    for each prime r dividing n, gcd(x^(q^(n/r)) - x, f) = 1.  A single f
    of degree n >= 2 with a root in GF(p) is rejected before these steps,
    which run on the residues of one _Divisor of f, the gcds and the final
    comparison included; over q > 2 every Frobenius step after the first is
    z Q (module docstring).

    f may also be a stack of nonzero polynomials of one degree over one field,
    a _Stack as it is.  The result is then one bool per row, in order ([] for
    no rows), from the same steps on all rows at once, in blocks of at most
    _SIEVE_ROWS rows, fewer when their Q would not fit (module docstring).
    """
    if not isinstance(f, Polynomial):
        if not len(f):
            return []
        F = _monic_rows(f, errors.DegreeZero)
        rows = min(_SIEVE_ROWS, _rabin_schedule(F.owner, F.A.shape[1] - 1)[1]) or _SIEVE_ROWS
        return [v for start in range(0, len(F), rows)
                for v in _rabin_rows(F.take(slice(start, start + rows)))]
    d = f.degree
    if f.is_zero() or d < 1:
        raise errors.DegreeZero("irreducibility needs degree >= 1")
    if d == 1:
        return True
    spec = f.owner
    # the root test, while it costs no more than one Frobenius step
    if (spec.p * spec.k * (d + 1) <= spec.q.bit_length() * d * d
            and _has_prime_root(f)):
        return False
    div = _Divisor(spec, f._a)
    one, x = (div.load(np.array(c, dtype=np.int64)) for c in ([spec.unit], [0, spec.unit]))
    steps, fit = _rabin_schedule(spec, d)
    z, Q, cur = pow_mod(x, spec.q, div), None, 1  # the first step: row 1 of Q
    for t in steps:
        if fit and Q is None and t > cur:  # a second step is due
            Q = _frobenius_rows(one, z, d, div.mulmod)
        for _ in range(t - cur):
            z = pow_mod(z, spec.q, div) if Q is None else div.times_q(z, Q)
        cur = t
        if t < d and not div.same(gcd(div.minus_x(z), div), one):
            return False
    return div.same(z, x)


def _has_prime_root(f: Polynomial) -> bool:
    """Whether f vanishes at some a in GF(p), by Horner on Python integers:
    a times a coefficient scales each of its coordinates, so f(a) = 0 iff
    every coordinate column, as a polynomial over GF(p), vanishes at a."""
    spec = f.owner
    p = spec.p
    columns = spec.to_coords(f._a[::-1]).T.tolist()  # leading coefficient first
    for a in range(p):
        for column in columns:
            acc = 0
            for c in column:
                acc = (acc * a + c) % p
            if acc:
                break
        else:
            return True
    return False


def _rabin_rows(F: _Stack) -> list[bool]:
    """Rabin's test on monic rows of one degree d, all at once, by the steps
    of :func:`_rabin_schedule` as in the scalar test, with one gcd call per
    prime of d; a row leaves the stack, and Q, once a step rejects it."""
    spec, N, d = F.owner, len(F), F.A.shape[1] - 1
    if d == 1:
        return [True] * N
    steps, fit = _rabin_schedule(spec, d)
    one, x = np.eye(2, d, dtype=np.int64) * spec.unit
    z = pow_mod(_Stack(spec, np.tile(x, (N, 1))), spec.q, F).A  # the first step: row 1 of Q
    Q, cur, out, alive = None, 1, np.zeros(N, dtype=bool), np.arange(N)
    for t in steps:
        if fit and Q is None and t > cur:  # a second step is due
            neg = spec.mul_vec(F.A[:, :-1], spec.raw_neg(spec.unit))
            Q = _frobenius_rows(one, z, d, lambda u, v: _rows_mulmod(spec, u, v, neg))
        for _ in range(t - cur):
            z = pow_mod(_Stack(spec, z), spec.q, F).A if Q is None else _times_q(spec, z, Q)
        cur = t
        keep = ((z == x).all(axis=1) if t == d
                else ~gcd(_Stack(spec, _minus_x(spec, z)), F).A[:, 1:].any(axis=1))
        alive, z, F = alive[keep], z[keep], F.take(keep)
        Q = Q if Q is None else Q[keep]
        if not len(alive):
            break
    out[alive] = True
    return out.tolist()


def _check_space(spec: FieldSpec, d: int, least: int):
    """Refuse a degree below `least` or more than SIZE_BOUND_ENUM candidates."""
    if d < least:  # ValueError by name: the benchmark self-test matches it
        raise ValueError(f"degree must be >= {least}")
    if spec.q ** d > SIZE_BOUND_ENUM:
        raise errors.SizeBoundExceeded(
            f"enumeration space {spec.q}^{d} exceeds the bound {SIZE_BOUND_ENUM}")


def enumerate_monic(spec: FieldSpec, d: int):
    """All monic polynomials of degree d, coefficient-lexicographic ascending
    from the constant term."""
    _check_space(spec, d, 0)
    lead = (spec.unit,)
    for tail in itertools.product(range(spec.q), repeat=d):
        yield Polynomial._wrap(spec, np.array(tail + lead, dtype=np.int64))


#: Guard on enumeration spaces (candidate count).
SIZE_BOUND_ENUM = 2 ** 20

#: Most remainder slots wider than 8 bits reduced on Python integers (module docstring).
_LOOP_SLOTS = 8

#: Cofactors per sieve block (at most 2^14 x 20 int64: q^d <= 2^20 gives d*k <= 20).
_SIEVE_ROWS = 2 ** 14

#: Coordinates of the Frobenius matrices in one block of the stacked Rabin test.
_FROBENIUS_ENTRIES = 2 ** 18

#: Coordinates per digit of :func:`compose_fraction` (at least one coefficient).
_DIGIT_COORDS = 32


def enumerate_monic_irreducible(spec: FieldSpec, d: int):
    """Monic irreducibles of degree d in the same order, one Rabin test each."""
    _check_space(spec, d, 1)
    for f in enumerate_monic(spec, d):
        if is_irreducible(f):
            yield f


@functools.lru_cache(maxsize=None)
def monic_irreducibles(spec: FieldSpec, d: int) -> _Stack:
    """The monic irreducibles of degree d in enumeration order, as one
    read-only stack, found once per (field, degree) by a sieve: each phi * g,
    phi monic irreducible of degree i <= d/2 and g monic of degree d - i (g in
    blocks), is struck out.  Candidate u has the tail c_0..c_(d-1) with
    u = sum c_j q^(d-1-j), the order of :func:`enumerate_monic`: the base-p
    number of its d*k tail coordinates."""
    _check_space(spec, d, 1)
    p, k, q = spec.p, spec.k, spec.q
    composite = np.zeros(q ** d, dtype=bool)
    weights = p ** np.arange(d * k - 1, -1, -1, dtype=np.int64)
    for i in range(1, d // 2 + 1):
        e = d - i
        # phi * (x^e + g) = x^e phi + x^i g + sum over t < i of phi_t x^t g
        factors = [(spec.to_coords(phi[:-1]),
                    [(t, c if k == 1 else spec._matrix(spec.coords(c)))
                     for t, c in enumerate(phi[:-1].tolist()) if c])
                   for phi in monic_irreducibles(spec, i).A]
        for start in range(0, q ** e, _SIEVE_ROWS):
            v = np.arange(start, min(start + _SIEVE_ROWS, q ** e), dtype=np.int64)
            G = (v[:, np.newaxis] // weights[i * k:] % p).reshape(len(v), e, k)
            for body, terms in factors:
                P = np.zeros((len(v), d, k), dtype=np.int64)
                P[:, e:] = body
                P[:, i:] += G
                for t, m in terms:
                    P[:, t:t + e] += G * m if k == 1 else G @ m
                composite[(P % p).reshape(len(v), d * k) @ weights] = True
    tails = np.flatnonzero(~composite)[:, np.newaxis]
    C = np.hstack([tails // weights[k - 1::k] % q, np.full_like(tails, spec.unit)])
    C.flags.writeable = False  # the cache hands out this array itself
    return _Stack(spec, C)


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

    def __repr__(self):
        inner = ", ".join(f"({f.to_human()})^{m}" for f, m in self.factors)
        return f"Factorization({self.unit.to_text()}; {inner})"


def ddf(f: Polynomial) -> dict[int, Polynomial]:
    """{d: product of the distinct irreducible factors of degree d} for a
    monic f with any multiplicities.  With z = x^(q^d) mod the cofactor w,
    layer d is gcd(w, z - x), divided out of w with its multiplicities; once
    deg w < 2(d+1), what is left is irreducible."""
    errors.require(f.is_monic(), "ddf needs a monic polynomial")
    spec = f.owner
    x = Polynomial.x(spec)
    out: dict[int, Polynomial] = {}
    w, z, d = f, x, 0
    while w.degree >= 2 * (d + 1):
        d += 1
        z = pow_mod(z, spec.q, w)
        layer = gcd(w, z - x)
        if layer.degree > 0:
            out[d] = layer
            while (g := gcd(w, layer)).degree > 0:
                w = w // g
    if w.degree > 0:
        out[int(w.degree)] = w
    return out


def _edf(f: Polynomial, d: int, rng) -> list[Polynomial]:
    """The factors of f, a product of distinct monic irreducibles of degree d:
    f splits at gcd(f, a^((q^d-1)/2) - 1) for odd q, and at the gcd with the
    trace a + a^2 + ... + a^(2^(kd-1)) for q = 2^k (a random, deg a < deg f)."""
    n = int(f.degree)
    if n == d:
        return [f]
    spec = f.owner
    while True:
        a = Polynomial._wrap(spec, _trim(np.array(
            [rng.randrange(spec.q) for _ in range(n)], dtype=np.int64)))
        if spec.p == 2:
            t = s = a
            for _ in range(spec.k * d - 1):
                t = t * t % f
                s = s + t
        else:
            s = pow_mod(a, (spec.q ** d - 1) // 2, f) - Polynomial.one(spec)
        g = gcd(f, s)
        if 0 < g.degree < n:
            return _edf(g, d, rng) + _edf(f // g, d, rng)


def factorize(f: Polynomial, bound: int) -> Factorization:
    """Complete monic factorization: :func:`ddf`, :func:`_edf` on each layer
    (seeded, so the run repeats; the output is sorted anyway), then the
    multiplicities by exact division.

    Raises BoundTooSmall if an irreducible factor has degree > bound, i.e.
    the precondition that all factors have degree <= bound was violated.
    """
    if f.is_zero():
        raise errors.ZeroPolynomial("cannot factor the zero polynomial")
    work = f.monic()
    layers = ddf(work)
    top = max(layers, default=0)
    if top > bound:
        raise errors.BoundTooSmall(
            f"irreducible factor of degree {top} exceeds bound {bound}")
    rng = random.Random(0)
    out: list[tuple[Polynomial, int]] = []
    for d, layer in layers.items():
        for phi in _edf(layer, d, rng):
            mult = 0
            while (work % phi).is_zero():
                work, mult = work // phi, mult + 1
            out.append((phi, mult))
    return Factorization(f.leading, out)


@functools.lru_cache(maxsize=256)
def _substitution(spec: FieldSpec, num: Polynomial, den: Polynomial, r: int):
    """The matrix S with coords(den^r * g(num/den)) = coords(g) @ S mod p for
    every g of degree <= r (coords: the coefficient coordinates, flattened).
    Row block i holds num^i * den^(r-i) times y^0..y^(k-1)."""
    k, one = spec.k, Polynomial.one(spec)
    _check_headroom(spec, r + 1)
    S = np.zeros((r + 1, k, r * max(0, num.degree, den.degree) + 1, k), dtype=np.int64)
    nums, dens = ([one, *itertools.accumulate([g] * r, Polynomial.__mul__)]
                  for g in (num, den))
    for i in range(r + 1):
        a = (nums[i] * dens[r - i])._a
        S[i, 0, :len(a)] = spec.to_coords(a)
    for j in range(1, k):
        S[:, j] = S[:, j - 1] @ spec._ymat % spec.p
    S.flags.writeable = False
    return S.reshape((r + 1) * k, -1)


def compose_fraction(f, num: Polynomial, den: Polynomial):
    """den^deg(f) * f(num/den), digit by digit (module docstring): the one
    change of variable in qtk, behind Moebius maps, the quadratic
    transformation and the higher-order kernels (den = 1 for a polynomial).

    f may also be a stack of one degree n: the result is then the stack of
    the rows' images, each of width n * max(deg num, deg den, 0) + 1."""
    if isinstance(f, Polynomial) and f.is_zero():
        f._check_owner(num)
        f._check_owner(den)
        return f
    S, single = _as_rows(f)
    if S is None:
        return []
    S._check_owner(num)
    S._check_owner(den)
    spec, (N, L), k = S.owner, S.A.shape, S.owner.k
    B = max(1, _DIGIT_COORDS // k)
    C = spec.to_coords(S.A)

    def image(start, r):  # den^r * (each row's digit of degree <= r at start)(num/den)
        v = C[:, start:start + r + 1].reshape(N, -1) @ _substitution(spec, num, den, r)
        return spec.from_coords(v.reshape(N, -1, k) % spec.p)

    top = (L - 1) // B * B
    acc = image(top, L - 1 - top)
    if top:
        num_b, den_b, dpow = num ** B, den ** B, den ** (L - top)
        for start in range(top - B, -1, -B):
            low = image(start, B - 1)
            width = max(acc.shape[1] + len(num_b._a), low.shape[1] + len(dpow._a)) - 1
            acc = spec.sum_vec(np.stack([_rows_times(spec, acc, num_b._a, width),
                                         _rows_times(spec, low, dpow._a, width)]), 0)
            if start:
                dpow = dpow * den_b
    return Polynomial._wrap(spec, _trim(acc[0])) if single else _Stack(spec, acc)


def _rows_times(spec: FieldSpec, A, b, width: int):
    """Each row of the index array A times the index vector b, as (N, width):
    one product of the rows laid end to end, width (>= each product) apart,
    without the zeros after the last row (O(width len(b)) work for nothing)."""
    P = np.zeros((len(A), width), dtype=np.int64)
    if len(b):
        P[:, :A.shape[1]] = A
        v = _kmul(spec, P.ravel()[:P.size - width + A.shape[1]], b)
        P.ravel()[:len(v)] = v
    return P


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
    if not all(t.strip() for t in _BRACKET.sub("0", text).split(",")):
        raise errors.Error(f"empty coefficient in {text!r}")
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
            # refused by length first, so int() never converts a long digit run
            exp = (m.group("exp") or "1").lstrip("0") or "0"
            if len(exp) > len(str(SIZE_BOUND)) or int(exp) > SIZE_BOUND:
                raise errors.SizeBoundExceeded(
                    f"an exponent exceeds the size bound {SIZE_BOUND}")
            e = int(exp)
        if negate:
            c = -c
        coeffs[e] = coeffs.get(e, spec.zero) + c
    deg = max(coeffs)
    return Polynomial(spec, [coeffs.get(i, spec.zero) for i in range(deg + 1)])
