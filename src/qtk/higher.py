"""Invariance under Moebius transformations of order 3 and 4, and under
translation in characteristic p.

Each case pairs a fixed kernel with an invariance predicate and a
transformation whose images are exactly the invariant polynomials:

* order 3, x -> 1/(1-x):  F = x^n (x-1)^n f((x^3-3x+1)/(x(x-1)))
  invariant iff (x-1)^(3n) F(1/(1-x)) = F;
* order 4, x -> 1/(2-2x) (characteristic != 2):
  F = x^n (x-1)^n (x-1/2)^n f((x^4-3x^2+2x-1/4)/(x(x-1)(x-1/2)))
  invariant iff (-1/4)^n (2-2x)^(4n) F(1/(2-2x)) = F;
* translation x -> x+1 in characteristic p:  F = f(x^p - x)
  invariant iff F(x+1) = F(x).

Recovery of f from F is a triangular coefficient solve: the term
f_j * core^j * weight^(n-j) is monic of degree (order-1)*n + j, so the
coefficients peel off from the top down.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from . import errors
from .gf import FieldSpec
from .poly import Polynomial, compose_fraction
from .transform import TransformResult

ORDER3 = 3
ORDER4 = 4
TRANSLATION = "translation"


@dataclass(frozen=True)
class HigherKernel:
    """A fixed invariance kernel: the core numerator over the weight cofactor,
    and the predicate that recognizes its images."""

    order: int | str
    weight: Polynomial
    core_num: Polynomial
    invariant: Callable[[Polynomial], bool]
    #: order 3 in characteristic 3 degenerates: the map is conjugate to x -> x+1.
    translation_conjugate: bool = False


def kernel(spec: FieldSpec, order) -> HigherKernel:
    """The kernel for the given order over the given field."""
    x = Polynomial.x(spec)
    one = Polynomial.one(spec)
    if order == ORDER3:
        weight = x * (x - one)  # x(x-1)
        num = Polynomial(spec, [1, -3, 0, 1])  # x^3 - 3x + 1
        return HigherKernel(ORDER3, weight, num, is_invariant_order3,
                            translation_conjugate=(spec.p == 3))
    if order == ORDER4:
        if spec.p == 2:
            raise errors.Char2Unsupported("order 4 needs characteristic != 2")
        half = spec.element(2).inverse()
        quarter = half * half
        weight = x * (x - one) * (x - Polynomial(spec, [half]))
        num = Polynomial(spec, [-quarter, spec.element(2), spec.element(-3),
                                spec.zero, spec.one])  # x^4 - 3x^2 + 2x - 1/4
        return HigherKernel(ORDER4, weight, num, is_invariant_order4)
    if order == TRANSLATION:
        num = Polynomial.monomial(spec, spec.p) - x  # x^p - x
        return HigherKernel(TRANSLATION, one, num, is_invariant_translation)
    raise errors.Error(f"unknown kernel order {order!r}")


def _kernel_transform(f: Polynomial, ker: HigherKernel) -> TransformResult:
    if f.is_zero():
        raise errors.ZeroPolynomial("transform of the zero polynomial")
    acc = compose_fraction(f, ker.core_num, ker.weight)
    full = int(ker.core_num.degree) * int(f.degree)
    return TransformResult(acc, acc.degree < full, False)


def transform_order3(f: Polynomial) -> TransformResult:
    """x^n (x-1)^n * f(core), n = deg f."""
    return _kernel_transform(f, kernel(f.owner, ORDER3))


def transform_order4(f: Polynomial) -> TransformResult:
    """x^n (x-1)^n (x-1/2)^n * f(core), n = deg f; characteristic != 2."""
    return _kernel_transform(f, kernel(f.owner, ORDER4))


def transform_translation(f: Polynomial) -> TransformResult:
    """f(x^p - x)."""
    return _kernel_transform(f, kernel(f.owner, TRANSLATION))


def is_invariant_order3(F: Polynomial) -> bool:
    """Whether (x-1)^(3n) * F(1/(1-x)) = F(x), deg F = 3n."""
    if F.is_zero():
        raise errors.ZeroPolynomial("zero polynomial")
    d = int(F.degree)
    if d % 3:
        raise errors.DegreeNotMultiple(f"degree {d} is not a multiple of 3")
    spec = F.owner
    one_minus_x = Polynomial(spec, [1, -1])
    lhs = compose_fraction(F, Polynomial.one(spec), one_minus_x)
    if d % 2:  # (x-1)^(3n) = (-1)^(3n) (1-x)^(3n)
        lhs = -lhs
    return lhs == F


def is_invariant_order4(F: Polynomial) -> bool:
    """Whether (-1/4)^n * (2-2x)^(4n) * F(1/(2-2x)) = F(x), deg F = 4n."""
    if F.is_zero():
        raise errors.ZeroPolynomial("zero polynomial")
    spec = F.owner
    if spec.p == 2:
        raise errors.Char2Unsupported("order 4 needs characteristic != 2")
    d = int(F.degree)
    if d % 4:
        raise errors.DegreeNotMultiple(f"degree {d} is not a multiple of 4")
    n = d // 4
    den = Polynomial(spec, [2, -2])  # 2 - 2x
    lhs = compose_fraction(F, Polynomial.one(spec), den)
    factor = (-(spec.element(4).inverse())) ** n
    return lhs.scale(factor) == F


def is_invariant_translation(F: Polynomial) -> bool:
    """Whether F(x+1) = F(x)."""
    if F.is_zero():
        raise errors.ZeroPolynomial("zero polynomial")
    spec = F.owner
    return compose_fraction(F, Polynomial(spec, [1, 1]), Polynomial.one(spec)) == F


def reconstruct_higher(F: Polynomial, order) -> Polynomial:
    """The f with transform(f) = F, for invariant F.

    Solves the triangular coefficient system from the top degree down; a
    nonzero residual (impossible when the predicate holds) raises
    NoSolution.
    """
    spec = F.owner
    ker = kernel(spec, order)
    if not ker.invariant(F):
        raise errors.NotInvariant(f"input is not order-{order} invariant")
    step = int(ker.core_num.degree)  # 3, 4, or p
    d = int(F.degree) if not F.is_zero() else 0
    if F.is_zero() or d % step:
        raise errors.DegreeNotMultiple(f"degree {d} is not a multiple of {step}")
    n = d // step
    wdeg = int(ker.weight.degree)
    residual = F
    coeffs = [spec.zero] * (n + 1)
    for j in range(n, -1, -1):
        # f_j * core^j * weight^(n-j) is monic of degree  wdeg*n + j*(step-wdeg)
        lead_deg = wdeg * n + j * (step - wdeg)
        coeffs[j] = residual.coeff(lead_deg)
        term = (ker.core_num ** j) * (ker.weight ** (n - j))
        residual = residual - term.scale(coeffs[j])
    if not residual.is_zero():
        raise errors.NoSolution("invariant polynomial escaped the image space")
    f = Polynomial(spec, coeffs)
    errors.require(_kernel_transform(f, ker).result == F,
                   "recovered input does not reproduce F")
    return f
