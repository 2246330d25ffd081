"""The table-driven field arithmetic and the numpy polynomial kernels against
the coordinate-tuple references in reference.py, plus the storage format,
integer inputs, the int64 headroom guard and the canonical modulus scan.  The
packed extension-field product is also checked against the k^2-convolution
loop it replaced and by evaluation, at sizes the pure-Python reference cannot
reach."""

import itertools
import subprocess
import sys

import numpy as np
import pytest

import reference
from conftest import random_element, random_poly, subprocess_env
from qtk import errors, field_make, poly
from qtk.poly import Polynomial, enumerate_monic, is_irreducible

#: Every field with q <= 16.
UP_TO_16 = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1),
            (13, 1), (2, 4)]


#: (p, k, len a, len b, slot width in bytes) for the packed product
PACKED_CASES = [(2, 4, 730, 730, 2), (7, 2, 730, 730, 2), (31, 4, 400, 400, 4),
                (1021, 2, 2100, 2100, 8), (2, 2, 730, 3, 1), (2, 4, 730, 1, 1),
                (3, 5, 1, 1, 1)]


def coords(f):
    return [c.coords for c in f.coeffs]


def loop_kmul(spec, a, b):
    """The product as k^2 convolutions of coordinate rows, folded by y^k."""
    p, k = spec.p, spec.k
    A, B = spec.to_coords(a).T, spec.to_coords(b).T
    acc = np.zeros((2 * k - 1, len(a) + len(b) - 1), dtype=np.int64)
    for i, j in itertools.product(range(k), repeat=2):
        acc[i + j] += np.convolve(A[i], B[j])
    return spec.from_coords(((acc[:k] + spec._red.T @ (acc[k:] % p)) % p).T)


@pytest.mark.parametrize("p,k", UP_TO_16)
def test_table_mul_and_inv_match_reference_exhaustively(p, k):
    spec = field_make(p, k)
    els = list(spec.elements())
    for x, y in itertools.product(els, repeat=2):
        assert (x * y).coords == reference.mul(spec, x.coords, y.coords)
    for x in els[1:]:
        assert x.inverse().coords == reference.inv(spec, x.coords)


@pytest.mark.parametrize("p,k", [(2, 10), (3, 6)])
def test_table_mul_and_inv_match_reference_on_random_pairs(p, k, rng):
    spec = field_make(p, k)
    for _ in range(500):
        u = tuple(rng.randrange(p) for _ in range(k))
        v = tuple(rng.randrange(p) for _ in range(k))
        x, y = spec.element(u), spec.element(v)
        assert (x * y).coords == reference.mul(spec, u, v)
        assert (x + y).coords == reference.add(spec, u, v)
        if any(u):
            assert x.inverse().coords == reference.inv(spec, u)
            assert (x ** -3).coords == reference.inv(spec, (x * x * x).coords)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3),
                                 (3, 2), (2, 4)])
def test_product_and_divmod_match_reference(p, k, rng):
    spec = field_make(p, k)
    for _ in range(30):
        a = random_poly(spec, rng.randrange(0, 40), rng)
        b = random_poly(spec, rng.randrange(0, 12), rng, monic=rng.random() < 0.5)
        assert coords(a * b) == reference.poly_mul(spec, coords(a), coords(b))
        qt, r = divmod(a, b)
        ref_q, ref_r = reference.poly_divmod(spec, coords(a), coords(b))
        assert (coords(qt), coords(r)) == (ref_q, ref_r)
        assert coords(a + b) == reference._trim(
            [reference.add(spec, u, v) for u, v in itertools.zip_longest(
                coords(a), coords(b), fillvalue=(0,) * spec.k)])


@pytest.mark.parametrize("p,k", UP_TO_16 + [(7, 2), (3, 5), (2, 10)])
def test_packed_product_matches_reference(p, k, rng):
    spec = field_make(p, k)
    for _ in range(12):
        a = random_poly(spec, rng.randrange(40), rng)
        b = random_poly(spec, rng.randrange(40), rng)
        assert coords(a * b) == reference.poly_mul(spec, coords(a), coords(b))
        assert coords(a * a) == reference.poly_mul(spec, coords(a), coords(a))


@pytest.mark.parametrize("p,k,la,lb,width", PACKED_CASES)
def test_packed_product_matches_loop_and_evaluation(p, k, la, lb, width, rng):
    # a product slot sums at most k * min(len) * (p-1)^2 terms
    bound = k * min(la, lb) * (p - 1) ** 2
    assert next(w for w in (1, 2, 4, 8) if bound < 1 << 8 * w) == width
    spec = field_make(p, k)
    a, b = random_poly(spec, la - 1, rng), random_poly(spec, lb - 1, rng)
    ab = a * b
    assert ab._a.tolist() == loop_kmul(spec, a._a, b._a).tolist()
    assert (b * a) == ab
    assert (a * a)._a.tolist() == loop_kmul(spec, a._a, a._a).tolist()
    for _ in range(5):
        x = random_element(spec, rng)
        assert ab(x) == a(x) * b(x)


def test_packed_cases_cover_every_slot_width():
    assert {case[-1] for case in PACKED_CASES} == {1, 2, 4, 8}


@pytest.mark.parametrize("p,k", UP_TO_16)
def test_mul_vec_matches_raw_mul_including_zero(p, k):
    spec = field_make(p, k)
    a = np.arange(spec.q, dtype=np.int64)
    for c in range(spec.q):
        assert spec.mul_vec(a, c).tolist() == [spec.raw_mul(u, c) for u in range(spec.q)]


def test_polynomial_holds_one_index_array():
    F9 = field_make(3, 2)
    f = Polynomial(F9, [F9.element((1, 2)), F9.zero, F9.one])
    assert f.__slots__ == ("owner", "_a", "_hash")
    assert f._a.dtype == np.int64 and f._a.ndim == 1
    # index = a0 * p + a1: canonical order, with 1 at index p^(k-1)
    assert f._a.tolist() == [5, 0, 3]
    assert sorted(F9.elements(), key=lambda e: e.value) == list(F9.elements())


def test_numpy_integers_are_accepted():
    F5, F9 = field_make(5), field_make(3, 2)
    assert Polynomial(F5, [np.int64(1), np.int32(7)]) == Polynomial(F5, [1, 2])
    assert F9.element(np.int64(2)) == F9.element(2)
    assert F9.element((np.int64(1), np.int8(2))) == F9.element((1, 2))


def test_int64_headroom_guard():
    big = field_make(1048573)  # the largest prime below 2^20
    poly._check_headroom(big, 2 ** 22)
    with pytest.raises(errors.SizeBoundExceeded):
        poly._check_headroom(big, 2 ** 24)
    f = Polynomial(big, [big.p - 1] * 50)
    assert (f * f).coeff(0) == big.one


def test_canonical_modulus_matches_a_full_scan():
    # the scan skips constant term 0; the full scan must find the same modulus
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61):
        prime = field_make(p)
        k = 2
        while p ** k <= 2 ** 12:
            first = next(f for f in enumerate_monic(prime, k) if is_irreducible(f))
            assert field_make(p, k).modulus == tuple(int(c) for c in first.coeffs)
            k += 1


def test_largest_field_builds_in_seconds():
    code = ("import time\nfrom qtk import field_make\nt = time.perf_counter()\n"
            "F = field_make(2, 20)\ng = F.gen()\nassert (g * g.inverse()).is_one()\n"
            "print(time.perf_counter() - t)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=subprocess_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 10
