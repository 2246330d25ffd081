"""Invariance under Moebius transformations of order 3 and 4, and under
translation in characteristic p.

Each kernel is a record g/h, like a quadratic rational expression, whose
images F = h^n * f(g/h) under :func:`qtk.transform.transform` are exactly
the polynomials invariant under a Moebius map A, in the sense
den^(deg F) * F(A(x)) = scalar^(deg F / block) * F(x) (den the denominator
of A):

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

from . import errors
from .gf import FieldElement, FieldSpec
from .moebius import MoebiusMap
from .poly import Polynomial
from .transform import TransformResult, solve_kernel, transform

ORDER3 = 3
ORDER4 = 4
TRANSLATION = "translation"


@dataclass(frozen=True)
class HigherKernel:
    """A fixed invariance kernel: the core g over the weight h, and the
    Moebius map, scalar and degree block of its invariance identity."""

    g: Polynomial
    h: Polynomial
    map: MoebiusMap
    scalar: FieldElement
    block: int
    #: order 3 in characteristic 3 degenerates: the map is conjugate to x -> x+1.
    translation_conjugate: bool = False


def kernel(spec: FieldSpec, order) -> HigherKernel:
    """The kernel for the given order over the given field."""
    x = Polynomial.x(spec)
    one = Polynomial.one(spec)
    if order == ORDER3:
        weight = x * (x - one)  # x(x-1)
        num = Polynomial(spec, [1, -3, 0, 1])  # x^3 - 3x + 1
        a = MoebiusMap.from_ints(spec, 0, 1, -1, 1)  # 1/(1-x)
        return HigherKernel(num, weight, a, spec.element(-1), 3,
                            translation_conjugate=(spec.p == 3))
    if order == ORDER4:
        if spec.p == 2:
            raise errors.Char2Unsupported("order 4 needs characteristic != 2")
        half = spec.element(2).inverse()
        quarter = half * half
        weight = x * (x - one) * (x - Polynomial(spec, [half]))
        num = Polynomial(spec, [-quarter, spec.element(2), spec.element(-3),
                                spec.zero, spec.one])  # x^4 - 3x^2 + 2x - 1/4
        a = MoebiusMap.from_ints(spec, 0, 1, -2, 2)  # 1/(2-2x)
        return HigherKernel(num, weight, a, spec.element(-4), 4)
    if order == TRANSLATION:
        num = Polynomial.monomial(spec, spec.p) - x  # x^p - x
        a = MoebiusMap.from_ints(spec, 1, 1, 0, 1)  # x+1
        return HigherKernel(num, one, a, spec.one, 1)
    raise errors.Error(f"unknown kernel order {order!r}")


def transform_order3(f: Polynomial) -> TransformResult:
    """x^n (x-1)^n * f(core), n = deg f."""
    return transform(f, kernel(f.owner, ORDER3))


def transform_order4(f: Polynomial) -> TransformResult:
    """x^n (x-1)^n (x-1/2)^n * f(core), n = deg f; characteristic != 2."""
    return transform(f, kernel(f.owner, ORDER4))


def transform_translation(f: Polynomial) -> TransformResult:
    """f(x^p - x)."""
    return transform(f, kernel(f.owner, TRANSLATION))


def is_invariant(F: Polynomial, ker: HigherKernel) -> bool:
    """Whether den^(deg F) * F(A(x)) = scalar^(deg F / block) * F(x) for the
    kernel's map A = num/den; deg F must be a multiple of the block."""
    return ker.map.fixes(F, ker.scalar, ker.block)


def is_invariant_order3(F: Polynomial) -> bool:
    """Whether (x-1)^(3n) * F(1/(1-x)) = F(x), deg F = 3n."""
    return is_invariant(F, kernel(F.owner, ORDER3))


def is_invariant_order4(F: Polynomial) -> bool:
    """Whether (-1/4)^n * (2-2x)^(4n) * F(1/(2-2x)) = F(x), deg F = 4n."""
    return is_invariant(F, kernel(F.owner, ORDER4))


def is_invariant_translation(F: Polynomial) -> bool:
    """Whether F(x+1) = F(x)."""
    return is_invariant(F, kernel(F.owner, TRANSLATION))


def reconstruct_higher(F: Polynomial, order) -> Polynomial:
    """The f with transform(f) = F, for invariant F: the kernel solve of
    :func:`qtk.transform.solve_kernel`."""
    ker = kernel(F.owner, order)
    if not is_invariant(F, ker):
        raise errors.NotInvariant(f"input is not order-{order} invariant")
    return solve_kernel(F, ker.g, ker.h)
