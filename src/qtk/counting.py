"""Closed-form counts of irreducible polynomials arising through quadratic
transformations, with brute-force oracles.

Every count is one formula in q, n and a square class epsilon:

    (sum over odd d | n of mu(d) * q^(n/d) - delta) / (2n),

where delta = sum over odd d | n of mu(d) * epsilon^(n/d), the same divisor
sum at epsilon: epsilon^n when n is a power of two, and 0 otherwise.
epsilon is 0 for q even and +1/-1 for q odd by the square class of sigma,
or of b^2 - ac for an expression g/h with involution triple (a, b, c).  The
division is integer-exact and checked so.  The counts, one row each of
:data:`VARIANTS`:

* ``count_carlitz``: monic irreducible self-reciprocal polynomials of
  degree 2n over GF(q) (sigma = 1).
* ``count_sigma``: monic irreducible F of degree 2n with
  x^(2n) F(sigma/x) = sigma^n F(x).
* ``count_ahmadi``: monic irreducible f of degree n > 1 with irreducible
  image under a fixed quadratic transformation; equal to the Carlitz count
  except in the degenerate even-characteristic case, independently of the
  expression.
* ``count_linear_inputs``: irreducible monic quadratics among the linear
  combinations of g and h (the formula at n = 1).
* ``count_corollary``: the sigma count, reporting delta itself.

``brute_count`` recomputes any of these by exhaustive enumeration and is
the oracle the test suite pins every formula against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from . import errors
from .gf import FieldElement, FieldSpec, square_class
from .intmath import divisors, factorization
from .moebius import QuadRationalExpr, SigmaClass, classify_sigma, sigma_form
from .transform import irreducible_image_count, irreducible_pencil


def moebius_mu(d: int) -> int:
    """The number-theoretic Moebius function, by trial factorization."""
    if d < 1:
        raise errors.InvalidArgument("mu is defined on positive integers")
    mu = 1
    for _, e in factorization(d).items():
        if e > 1:
            return 0
        mu = -mu
    return mu


@dataclass(frozen=True)
class CountQuery:
    """A counting problem instance; `variant` selects the formula."""
    field: FieldSpec
    n: int
    variant: str  # a key of VARIANTS
    sigma: FieldElement | None = None
    expr: QuadRationalExpr | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise errors.Error(f"unknown count variant {self.variant!r}")
        if self.n < 1:  # the linear count reads no n, so the query checks it
            raise errors.InvalidArgument("n must be >= 1")
        needs = VARIANTS[self.variant].needs
        if needs and getattr(self, needs) is None:
            raise errors.InvalidArgument(f"the {self.variant} count needs {needs}")


@dataclass(frozen=True)
class CountResult:
    value: int
    epsilon: int
    delta: int
    formula_branch: str


#: Counts are printed in decimal, and Python refuses to convert an int of more
#: decimal digits than this to text (sys.get_int_max_str_digits).
_MAX_DIGITS = 4300


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise errors.IdentityViolated(f"count formula produced non-integer {num}/{den}")
    return q


def _count(q: int, n: int, eps: int) -> tuple[int, int]:
    """(value, delta): value = (sum over odd d | n of mu(d) q^(n/d) - delta) / (2n),
    with delta = sum over odd d | n of mu(d) eps^(n/d).

    A q^n of more than _MAX_DIGITS decimal digits is refused; n * log10(q)
    decides that up to one digit, and q^n is computed only for that last digit.
    """
    if n * math.log10(q) >= _MAX_DIGITS + 1 or q ** n >= 10 ** _MAX_DIGITS:
        raise errors.SizeBoundExceeded(
            f"q^n with q = {q}, n = {n} has more than {_MAX_DIGITS} decimal digits")
    total = delta = 0
    for d in divisors(n):
        if d % 2:
            mu = moebius_mu(d)
            total += mu * q ** (n // d)
            delta += mu * eps ** (n // d)
    return _exact_div(total - delta, 2 * n), delta


def _count_result(q: int, n: int, eps: int) -> CountResult:
    # the carlitz/sigma/ahmadi report: delta folded into the value
    value, delta = _count(q, n, eps)
    return CountResult(value, eps, 0, "odd-q-power-of-2" if delta else "mobius-sum")


def count_carlitz(field: FieldSpec, n: int) -> CountResult:
    """Number of self-reciprocal irreducible monic polynomials of degree 2n."""
    return count_sigma(field, n, field.one)


def _sigma_epsilon(field: FieldSpec, n: int, sigma: FieldElement) -> int:
    """Check a sigma query; its epsilon is 0 for q even, else +1/-1 by the
    square class of sigma."""
    if sigma.is_zero():
        raise errors.ZeroSigma("sigma must be nonzero")
    if sigma.owner is not field:
        raise errors.FieldMismatch("sigma not in the stated field")
    if n < 1:
        raise errors.InvalidArgument("n must be >= 1")
    return square_class(sigma)


def count_sigma(field: FieldSpec, n: int, sigma: FieldElement) -> CountResult:
    """Number of sigma-self-reciprocal irreducible monic polynomials of degree 2n.

    n = 1 counts as a power of two, which is where the epsilon = -1 case
    (sigma a nonsquare) departs from the Carlitz value.
    """
    return _count_result(field.q, n, _sigma_epsilon(field, n, sigma))


def count_ahmadi(field: FieldSpec, n: int, expr: QuadRationalExpr) -> CountResult:
    """Number of monic irreducible f of degree n > 1 with f_R irreducible.

    Independent of the expression except for the degenerate even-q case
    (both derivatives zero), which contributes nothing.
    """
    if n <= 1:
        raise errors.RequiresNGreaterThan1("this count requires n > 1")
    if expr.owner is not field:
        raise errors.FieldMismatch("expression not over the stated field")
    if classify_sigma(expr) is SigmaClass.X_SQUARED:
        return CountResult(0, 0, 0, "even-degenerate")
    return _count_result(field.q, n, square_class(expr.discriminant()))


def count_linear_inputs(field: FieldSpec, expr: QuadRationalExpr) -> CountResult:
    """Number of irreducible monic quadratics spanned by g and h.

    The n = 1 count: q/2 for q even; (q - 1)/2 or (q + 1)/2 for q odd
    according to whether g'h - gh' splits over GF(q), that is whether
    b^2 - ac is a square.
    """
    if expr.owner is not field:
        raise errors.FieldMismatch("expression not over the stated field")
    if classify_sigma(expr) is SigmaClass.X_SQUARED:
        raise errors.Char2Degenerate("g' = h' = 0: no irreducible combination exists")
    eps = square_class(expr.discriminant())
    branch = {0: "even", 1: "split", -1: "nonsplit"}[eps]
    return CountResult(_count(field.q, 1, eps)[0], eps, 0, branch)


def count_corollary(field: FieldSpec, n: int, sigma: FieldElement) -> CountResult:
    """The sigma count as a single divisor sum with correction delta.

    delta is 1 for q odd with n > 1 a power of two; +1/-1 for q odd, n = 1,
    sigma a square/nonsquare; 0 otherwise.
    """
    eps = _sigma_epsilon(field, n, sigma)
    value, delta = _count(field.q, n, eps)
    if not delta:
        branch = "otherwise"
    elif n > 1:
        branch = "odd-q-power-of-2"
    else:
        branch = "odd-q-n1-square" if delta > 0 else "odd-q-n1-nonsquare"
    return CountResult(value, eps, delta, branch)


@dataclass(frozen=True)
class _Variant:
    needs: str | None  # the CountQuery field the count reads besides field and n
    formula: Callable[[CountQuery], CountResult]
    oracle_expr: Callable[[CountQuery], QuadRationalExpr] | None  # None: the pencil


#: Every count variant by name, in the order the CLI offers them.
VARIANTS = {
    "carlitz": _Variant(None, lambda q: count_carlitz(q.field, q.n),
                        lambda q: sigma_form(q.field.one)),
    "sigma": _Variant("sigma", lambda q: count_sigma(q.field, q.n, q.sigma),
                      lambda q: sigma_form(q.sigma)),
    "ahmadi": _Variant("expr", lambda q: count_ahmadi(q.field, q.n, q.expr),
                       lambda q: q.expr),
    "linear": _Variant("expr", lambda q: count_linear_inputs(q.field, q.expr), None),
    "corollary": _Variant("sigma", lambda q: count_corollary(q.field, q.n, q.sigma),
                          lambda q: sigma_form(q.sigma)),
}


def evaluate(query: CountQuery) -> CountResult:
    """Dispatch a query to the matching formula."""
    return VARIANTS[query.variant].formula(query)


def brute_count(query: CountQuery) -> int:
    """Recompute a count by exhaustive enumeration (the independent oracle).

    For the transform variants: enumerate monic irreducible f of degree n,
    apply the transformation, normalize monic, test irreducibility and full
    degree.  For the linear variant: test every monic quadratic in the
    pencil spanned by g and h.
    """
    oracle_expr = VARIANTS[query.variant].oracle_expr
    if oracle_expr is None:
        return len(irreducible_pencil(query.expr))
    return irreducible_image_count(oracle_expr(query), query.n)
