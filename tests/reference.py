"""Reference arithmetic on coordinate tuples, independent of qtk's kernels.

An element of GF(p^k) is a tuple of k residues (ascending powers of the
generator y); a polynomial is a list of such tuples in ascending degree.
Products convolve the coordinates and fold y^k .. y^(2k-2) back with the
field's modulus, inverses come from Fermat's little theorem, and division is
per-coefficient long division.  Slow and plain on purpose: the differential
tests hold the table-driven field arithmetic and the numpy kernels to it.
"""

import functools
from math import comb


@functools.lru_cache(maxsize=None)
def _reduction_rows(spec):
    # rows[m - k] = coordinates of y^m for m in [k, 2k-2]
    p, k = spec.p, spec.k
    rows = []
    cur = [(-c) % p for c in spec.modulus[:k]]  # y^k
    for _ in range(k - 1):
        rows.append(tuple(cur))
        top = cur[k - 1]
        cur = [0] + cur[:k - 1]
        cur = [(cur[i] + top * rows[0][i]) % p for i in range(k)]
    return tuple(rows)


def mul(spec, u, v):
    p, k = spec.p, spec.k
    conv = [0] * (2 * k - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            conv[i + j] += a * b
    rows = _reduction_rows(spec)
    for m in range(2 * k - 2, k - 1, -1):
        c = conv[m] % p
        for i in range(k):
            conv[i] += c * rows[m - k][i]
    return tuple(conv[i] % p for i in range(k))


def add(spec, u, v):
    return tuple((a + b) % spec.p for a, b in zip(u, v))


def sub(spec, u, v):
    return tuple((a - b) % spec.p for a, b in zip(u, v))


def inv(spec, u):
    # Fermat: u^(q-2)
    result, base, e = (1,) + (0,) * (spec.k - 1), u, spec.q - 2
    while e:
        if e & 1:
            result = mul(spec, result, base)
        base = mul(spec, base, base)
        e >>= 1
    return result


def _trim(coeffs):
    while coeffs and not any(coeffs[-1]):
        coeffs.pop()
    return coeffs


def poly_mul(spec, a, b):
    if spec.k == 1:  # residues: one schoolbook convolution, reduced at the end
        out = [0] * max(len(a) + len(b) - 1, 0)
        for i, (u,) in enumerate(a):
            for j, (v,) in enumerate(b):
                out[i + j] += u * v
        return _trim([(c % spec.p,) for c in out])
    zero = (0,) * spec.k
    out = [zero] * max(len(a) + len(b) - 1, 0)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] = add(spec, out[i + j], mul(spec, u, v))
    return _trim(out)


def poly_divmod(spec, a, b):
    """Long division one quotient coefficient at a time; b nonzero."""
    zero = (0,) * spec.k
    rem = list(a)
    lead_inv = inv(spec, b[-1])
    quot = [zero] * max(len(a) - len(b) + 1, 0)
    for i in range(len(a) - len(b), -1, -1):
        c = mul(spec, rem[i + len(b) - 1], lead_inv)
        quot[i] = c
        for j, v in enumerate(b):
            rem[i + j] = sub(spec, rem[i + j], mul(spec, c, v))
    return _trim(quot), _trim(rem)


def poly_add(spec, a, b):
    zero = (0,) * spec.k
    n = max(len(a), len(b))
    a, b = list(a) + [zero] * (n - len(a)), list(b) + [zero] * (n - len(b))
    return _trim([add(spec, u, v) for u, v in zip(a, b)])


def poly_monic(spec, a):
    lead_inv = inv(spec, a[-1])
    return [mul(spec, u, lead_inv) for u in a]


def poly_compose_fraction(spec, f, num, den):
    """den^n * f(num/den) for f of degree n, by Horner with a running power
    of den: sum of c_i * num^i * den^(n-i)."""
    acc = [f[-1]]
    dpow = [spec.one.coords]
    for c in reversed(f[:-1]):
        dpow = poly_mul(spec, dpow, den)
        acc = poly_add(spec, poly_mul(spec, acc, num), poly_mul(spec, dpow, [c]))
    return acc


def const(spec, v):
    """The coordinates of the integer v in GF(p^k)."""
    return (v % spec.p,) + (0,) * (spec.k - 1)


def reconstruct_closed_form(spec, F, sigma):
    """The f with F = x^n * f(x + sigma/x) for sigma-self-reciprocal F of
    degree 2n, odd characteristic only, by the Dickson closed form

      f_j = sum_i (2i+j)/(i+j) * C(i+j, i) * (-sigma)^i * b_(n+2i+j),

    where the integer (2i+j)/(i+j) * C(i+j, i) = C(i+j, i) + C(i+j-1, i-1)
    is formed exactly before reduction mod p, and the i = j = 0 term is b_n.
    """
    zero = (0,) * spec.k
    n = (len(F) - 1) // 2
    minus_sigma = sub(spec, zero, sigma)
    out = []
    for j in range(n + 1):
        acc, spow = zero, const(spec, 1)
        for i in range((n - j) // 2 + 1):
            t = comb(i + j, i) + (comb(i + j - 1, i - 1) if i else 0)
            term = mul(spec, mul(spec, const(spec, t), spow), F[n + 2 * i + j])
            acc = add(spec, acc, term)
            spow = mul(spec, spow, minus_sigma)
        out.append(acc)
    return _trim(out)


def dickson_exact(params):
    """D_n(y, a) with each n/(n-i) * C(n-i, i) = C(n-i, i) + C(n-i-1, i-1)
    formed as an exact integer and only then reduced mod p: the loop the
    Lucas-theorem binomials in qtk.transform.dickson replaced."""
    from qtk.poly import Polynomial

    n, a = params.n, params.a
    spec = a.owner
    if n == 0:
        return Polynomial(spec, [spec.element(2)])
    coeffs = [spec.zero] * (n + 1)
    apow = spec.one
    for i in range(n // 2 + 1):
        t = comb(n - i, i) + (comb(n - i - 1, i - 1) if i >= 1 else 0)
        if i % 2:
            t = -t
        coeffs[n - 2 * i] = spec.element(t) * apow
        apow = apow * a
    return Polynomial(spec, coeffs)


# -- step-by-step trail transport ------------------------------------------------
#
# The transports as they ran before a trail folded into two composite maps:
# one substitution or reversal per step.  An affine step x -> alpha*x + beta
# is stored as the normalized map [1 beta/alpha; 0 1/alpha], so
# alpha = a/d and beta = b/d; every other trail step is the inversion.


def _step_transport(spec, f, step):
    """f under one trail step: Horner substitution of alpha*x + beta for an
    affine step, the reversed coefficients for the inversion."""
    m = step.map
    if any(m.c.coords):
        return _trim(list(reversed(f)))
    d_inv = inv(spec, m.d.coords)
    lin = [mul(spec, m.b.coords, d_inv), mul(spec, m.a.coords, d_inv)]
    acc = []
    for c in reversed(f):
        acc = poly_add(spec, poly_mul(spec, acc, lin), [c])
    return acc


def transport_forward_stepwise(F, trail):
    """The image carried along the pre-steps in order, made monic after each."""
    spec = F.owner
    f = [c.coords for c in F.coeffs]
    for step in trail.steps:
        if step.side == "pre":
            f = poly_monic(spec, _step_transport(spec, f, step))
    return f


def transport_back_stepwise(f, trail):
    """The source polynomial carried back along the post-steps, last first."""
    spec = f.owner
    out = [c.coords for c in f.coeffs]
    for step in reversed(trail.steps):
        if step.side == "post":
            out = _step_transport(spec, out, step)
    return out


# -- factor finding by exhaustion ------------------------------------------------
#
# Independent of the distinct-degree route: the factorizer divides by the
# sieve's monic irreducible lists, and the embedding root comes from
# evaluating the source modulus at every element of the target.


def factorize_trial(f, bound):
    """The Factorization of f by trial division by the monic irreducibles of
    degree 1, 2, ... up to `bound`, each as often as it divides.  Once the
    cofactor's degree is below twice the trial degree, it is irreducible."""
    from qtk import errors
    from qtk.poly import Factorization, monic_irreducibles

    work = f.monic()
    out = []
    d = 1
    while work.degree > 0:
        if work.degree < 2 * d:
            if work.degree > bound:
                raise errors.BoundTooSmall(f"cofactor of degree {work.degree}")
            out.append((work, 1))
            break
        if d > bound:
            raise errors.BoundTooSmall(f"cofactor of degree {work.degree}")
        for phi in monic_irreducibles(f.owner, d):
            mult = 0
            while (work % phi).is_zero():
                work, mult = work // phi, mult + 1
            if mult:
                out.append((phi, mult))
            if work.degree < 2 * d:
                break
        d += 1
    return Factorization(f.leading, out)


def least_root_powers(source, target):
    """Coordinates of xi^i for i < source.k, xi the least element (by index)
    of `target` at which the source modulus vanishes."""
    for u in range(target.q):
        xi = target.coords(u)
        acc = (0,) * target.k
        for c in reversed(source.modulus):
            acc = add(target, mul(target, acc, xi), const(target, c))
        if not any(acc):
            break
    else:
        raise ValueError("source modulus has no root in target")
    powers = [const(target, 1)]
    for _ in range(source.k - 1):
        powers.append(mul(target, powers[-1], xi))
    return powers


# -- divisor-sum inversion -------------------------------------------------------


class MissingDivisorValue(Exception):
    """Divisor-sum inversion queried a value that was not supplied."""


def moebius_invert_odd(f_values):
    """Invert f(n) = sum over odd d | n of g(n/d).

    Returns g(n) = sum over odd d | n of mu(d) * f(n/d) for every key n of
    the input; all divisor values f(n/d) must be present.
    """
    from qtk.counting import moebius_mu
    from qtk.intmath import divisors

    out = {}
    for n in f_values:
        total = 0
        for d in divisors(n):
            if d % 2 == 0:
                continue
            if n // d not in f_values:
                raise MissingDivisorValue(f"need f({n // d}) to invert at n={n}")
            total += moebius_mu(d) * f_values[n // d]
        out[n] = total
    return out
