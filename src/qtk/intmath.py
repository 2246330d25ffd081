"""Small integer-arithmetic helpers (primality, divisors, powers)."""

from . import errors


def power(x, e: int, mul):
    """x^e for e >= 0 by square-and-multiply with the product `mul`, from the
    lowest set bit of e up: no product with a 1 and no square past the top
    bit, so x^(2^j) costs j products.  None for e = 0; the caller has the 1."""
    r = None
    while e:
        if e & 1:
            r = x if r is None else mul(r, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return r


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test; fine for n up to ~2**40."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1, ascending."""
    return list(factorization(n))


def factorization(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise errors.InvalidArgument("n must be positive")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]
