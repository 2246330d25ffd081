"""Invariance under Moebius maps of finite order; order 3, order 4 and
translation in characteristic p are the named ones.

A kernel is a record g/h, like a quadratic rational expression, whose
images F = h^n * f(g/h) under :func:`qtk.transform.transform` are exactly
the polynomials with den^(deg F) * F(A(x)) = scalar^(deg F / block) * F(x)
for a Moebius map A = num/den.  :func:`orbit_kernel` derives it from A of
order D: g/h is the orbit trace sum_(i<D) A^i(x) in lowest terms, or the
orbit norm prod_(i<D) A^i(x) when the trace is constant, at O(D) cost
(translation has D = p).  The named maps give:

* order 3, A = 1/(1-x), scalar -1, block 3:
  F = x^n (x-1)^n f((x^3-3x+1)/(x(x-1)));
* order 4, A = 1/(2-2x), scalar -4, block 4 (characteristic != 2):
  F = x^n (x-1)^n (x-1/2)^n f((x^4-3x^2+2x-1/4)/(x(x-1)(x-1/2)));
* translation, A = x+1, scalar 1, block 1 (characteristic p):
  F = f(x^p - x).

:func:`is_invariant` tests it through :meth:`qtk.moebius.MoebiusMap.fixes`,
the identity behind the quadratic case too; recovery of f from F is
:func:`qtk.transform.solve_kernel`, the same triangular solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from . import errors
from .gf import FieldElement, FieldSpec
from .moebius import MoebiusMap
from .poly import Polynomial, compose_fraction
from .transform import solve_kernel

ORDER3 = 3
ORDER4 = 4
TRANSLATION = "translation"

#: the named maps [a b; c d]: 1/(1-x), 1/(2-2x) and x+1
MAPS = {ORDER3: (0, 1, -1, 1), ORDER4: (0, 1, -2, 2), TRANSLATION: (1, 1, 0, 1)}


@dataclass(frozen=True)
class HigherKernel:
    """A fixed invariance kernel: the core g over the weight h, and the
    Moebius map, scalar and degree block of its invariance identity."""

    g: Polynomial
    h: Polynomial
    map: MoebiusMap
    scalar: FieldElement
    block: int


def orbit_kernel(a: MoebiusMap) -> HigherKernel:
    """The kernel of the map A of order D: its orbit trace, or its orbit norm
    when the trace is constant, as a monic core over a monic weight.  The
    scalar is den^D * h(A(x)) / h(x), checked to be constant; the block is D,
    or 1 for a constant weight.  Costs O(D) compositions and products."""
    one = Polynomial.one(a.owner)
    terms = [m.fraction() for m in a.powers()]
    num, den = Polynomial.zero(a.owner), one
    # the orbit trace, in lowest terms: each pole A^(-i)(inf), 0 < i < D, is simple
    for tn, td in terms:
        num, den = num * td + tn * den, den * td
    if max(num.degree, den.degree) < 1:  # A fixes infinity: every term is affine
        num, den = prod((tn for tn, _ in terms), start=one), one
    g, h = num.monic(), den.monic()
    a_num, a_den = a.fraction()
    image = compose_fraction(h, a_num, a_den) * a_den ** (len(terms) - int(h.degree))
    scalar = image.leading
    errors.require(image == h.scale(scalar), "orbit weight is not fixed up to a scalar")
    return HigherKernel(g, h, a, scalar, len(terms) if h.degree > 0 else 1)


def kernel(spec: FieldSpec, order) -> HigherKernel:
    """The kernel of the named map of the given order over the given field."""
    if order not in MAPS:
        raise errors.Error(f"unknown kernel order {order!r}")
    if order == ORDER4 and spec.p == 2:
        raise errors.Char2Unsupported("order 4 needs characteristic != 2")
    return orbit_kernel(MoebiusMap.from_ints(spec, *MAPS[order]))


def is_invariant(F: Polynomial, ker: HigherKernel) -> bool:
    """Whether den^(deg F) * F(A(x)) = scalar^(deg F / block) * F(x) for the
    kernel's map A = num/den; deg F must be a multiple of the block."""
    return ker.map.fixes(F, ker.scalar, ker.block)


def reconstruct_higher(F: Polynomial, order) -> Polynomial:
    """The f with transform(f) = F, for invariant F: the kernel solve of
    :func:`qtk.transform.solve_kernel`."""
    ker = kernel(F.owner, order)
    if not is_invariant(F, ker):
        raise errors.NotInvariant(f"input is not order-{order} invariant")
    return solve_kernel(F, ker.g, ker.h)
