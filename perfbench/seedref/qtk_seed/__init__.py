"""qtk: exact finite-field toolkit for quadratic transformations of polynomials."""

from .errors import Error
from .gf import FieldElement, FieldSpec, embed, field_from_name, field_make, is_square
from .poly import NEG_INF, Polynomial, factorize, gcd, is_irreducible, pow_mod

__version__ = "0.1.0"

__all__ = [
    "Error",
    "FieldElement",
    "FieldSpec",
    "NEG_INF",
    "Polynomial",
    "embed",
    "factorize",
    "field_from_name",
    "field_make",
    "gcd",
    "is_irreducible",
    "is_square",
    "pow_mod",
    "__version__",
]
