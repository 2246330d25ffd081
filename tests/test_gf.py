import functools
import itertools

import numpy as np
import pytest

import reference
from qtk import errors, field_make, gf
from qtk.gf import (_embedding_powers, element_from_text, embed,
                    field_from_name, is_square, least_nonsquare)

SMALL = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2), (2, 4), (7, 2)]


def test_field_make_examples():
    assert field_make(2, 1).modulus == (0, 1)  # the polynomial x
    # least monic irreducible quadratic over GF(3), constant-first order
    assert field_make(3, 2).modulus == (1, 0, 1)  # x^2 + 1
    assert field_make(2, 2).modulus == (1, 1, 1)  # x^2 + x + 1
    with pytest.raises(errors.NotPrime):
        field_make(4, 1)
    with pytest.raises(errors.SizeBoundExceeded):
        field_make(2, 21)


def test_field_interning():
    assert field_make(3, 2) is field_make(3, 2)
    assert field_make(3) is field_make(3, 1)
    assert field_from_name("3^2") is field_make(3, 2)
    assert field_from_name("5") is field_make(5)


def test_field_from_name_accepts_prime_powers():
    assert field_from_name("9") is field_make(3, 2)
    assert field_from_name("8") is field_make(2, 3)
    with pytest.raises(errors.NotPrime):
        field_from_name("6")


def test_simple_arithmetic():
    F3 = field_make(3)
    assert (F3.element(2) * F3.element(2)) == F3.one
    F5 = field_make(5)
    assert F5.element(2).inverse() == F5.element(3)
    F9 = field_make(3, 2)
    for e in F9.elements():
        if not e.is_zero():
            assert (e ** 8).is_one()  # multiplicative group order q - 1


@pytest.mark.parametrize("p,k", [pk for pk in SMALL if pk[0] ** pk[1] <= 49])
def test_field_axioms_exhaustive(p, k):
    spec = field_make(p, k)
    els = list(spec.elements())
    assert len(els) == spec.q
    for x in els:
        assert x + spec.zero == x
        assert x * spec.one == x
        assert (x + (-x)).is_zero()
        if not x.is_zero():
            assert (x * x.inverse()).is_one()
    for x, y in itertools.product(els, repeat=2):
        assert x + y == y + x
        assert x * y == y * x
    # triples in full below q = 10, on a fixed slice for the larger fields
    tri = els if spec.q <= 9 else els[::4]
    for x, y, z in itertools.product(tri, repeat=3):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (5, 1), (7, 1), (2, 3)])
def test_frobenius_is_additive(p, k):
    spec = field_make(p, k)
    els = list(spec.elements())
    for x, y in itertools.product(els, repeat=2):
        assert (x + y) ** p == x ** p + y ** p


@pytest.mark.parametrize("p,k", [pk for pk in SMALL if pk[0] ** pk[1] <= 49])
def test_is_square_matches_exhaustive(p, k):
    spec = field_make(p, k)
    squares = {t * t for t in spec.elements() if not t.is_zero()}
    for e in spec.elements():
        if e.is_zero():
            with pytest.raises(errors.ZeroInput):
                is_square(e)
        else:
            assert is_square(e) == (e in squares)


def test_is_square_examples():
    assert not is_square(field_make(3).element(2))
    assert is_square(field_make(5).element(4))
    F4 = field_make(2, 2)
    assert all(is_square(e) for e in F4.elements() if not e.is_zero())


def test_least_nonsquare():
    assert least_nonsquare(field_make(3)) == field_make(3).element(2)
    assert least_nonsquare(field_make(5)) == field_make(5).element(2)
    F9 = field_make(3, 2)
    s = least_nonsquare(F9)
    assert not is_square(s)
    with pytest.raises(errors.Error):
        least_nonsquare(field_make(2, 2))


def test_embed_examples():
    F3, F9 = field_make(3), field_make(3, 2)
    assert embed(F3.element(2), F9) == F9.element((2, 0))
    F2, F8 = field_make(2), field_make(2, 3)
    assert embed(F2.one, F8).is_one()
    with pytest.raises(errors.NoEmbedding):
        embed(F9.one, field_make(3, 3))


EMBED_PAIRS = [((2, 1), (2, 2)), ((2, 2), (2, 4)), ((3, 1), (3, 2)),
               ((3, 2), (3, 4)), ((5, 1), (5, 2))]


@pytest.mark.parametrize("src,dst", EMBED_PAIRS)
def test_embed_is_homomorphism(src, dst):
    s, t = field_make(*src), field_make(*dst)
    els = list(s.elements())
    for x, y in itertools.product(els, repeat=2):
        assert embed(x + y, t) == embed(x, t) + embed(y, t)
        assert embed(x * y, t) == embed(x, t) * embed(y, t)
    assert embed(s.one, t).is_one()


@pytest.mark.parametrize("src,dst", EMBED_PAIRS + [((2, 2), (2, 6)), ((3, 2), (3, 6))])
def test_embedding_sends_the_generator_to_the_least_root(src, dst):
    s, t = field_make(*src), field_make(*dst)
    assert [e.coords for e in _embedding_powers(s, t)] \
        == reference.least_root_powers(s, t)


@pytest.mark.parametrize("p, k", [(2, 1), (7, 1), (3, 2), (2, 4), (2, 11)])
def test_inv_vec_matches_raw_inv(p, k):
    # every nonzero element, as a vector and as a column (one per row)
    spec = field_make(p, k)
    u = np.arange(1, spec.q, dtype=np.int64)
    want = [spec.raw_inv(v) for v in range(1, spec.q)]
    assert spec.inv_vec(u).tolist() == want
    assert spec.inv_vec(u[:, np.newaxis]).ravel().tolist() == want


#: Residues (k = 1), XOR (p = 2), the sum table (odd p, q <= 1024; sum_vec
#: on the coordinate table with int8 entries), and at p = 131 the coordinate
#: table with int16 entries.
ADD_FIELDS = [(2, 1), (7, 1), (2, 2), (3, 2), (2, 5), (3, 3), (131, 2)]


@pytest.mark.parametrize("p, k", ADD_FIELDS)
def test_addmul_and_sum_match_raw_add_and_raw_mul(p, k):
    # every a against every c (a seeded sample of c for GF(131^2)), c per
    # row and as one scalar, on top of a random accumulator; sums along
    # either axis of the accumulator
    spec = field_make(p, k)
    gen = np.random.default_rng(p * 100 + k)
    a = np.arange(spec.q, dtype=np.int64)
    assert spec.to_coords(a).tolist() == [list(spec.coords(u)) for u in a.tolist()]
    cs = a if spec.q <= 32 else np.array([0, 1, spec.unit, spec.q - 1,
                                          *gen.integers(spec.q, size=4)])
    acc = gen.integers(spec.q, size=(len(cs), spec.q))
    want = [[spec.raw_add(s, spec.raw_mul(u, c)) for s, u in zip(row, a.tolist())]
            for row, c in zip(acc.tolist(), cs.tolist())]
    assert spec.addmul_vec(acc, a, cs[:, np.newaxis]).tolist() == want
    for row, c, w in zip(acc, cs.tolist(), want):
        assert spec.addmul_vec(row, a, c).tolist() == w
    for axis, lines in ((0, acc.T), (1, acc)):
        assert spec.sum_vec(acc, axis).tolist() \
            == [functools.reduce(spec.raw_add, v, 0) for v in lines.tolist()]


@pytest.mark.parametrize("p, k", [(2, 2), (3, 2), (2, 10), (31, 2)])
def test_square_tables_match_raw_mul_and_raw_add_on_every_pair(p, k):
    # q <= _TABLE_BOUND (GF(2^10) and GF(31^2) = 961 at the bound): the
    # product table on every (a, c), with c broadcast as an (N, 1) column and
    # as one scalar, zero on both sides; the sum table (odd p) on every
    # (acc, b) through addmul_vec(acc, b, 1), then under a multiplier
    spec = field_make(p, k)
    q = spec.q
    assert q <= gf._TABLE_BOUND
    u = np.arange(q, dtype=np.int64)
    products = [[spec.raw_mul(a, c) for a in range(q)] for c in range(q)]
    out = spec.mul_vec(np.tile(u, (q, 1)), u[:, np.newaxis])
    assert out.dtype == np.int64 and out.tolist() == products
    for c in (0, spec.unit, q - 1, q // 3):
        assert spec.mul_vec(u, c).tolist() == products[c]
    if p == 2:
        assert spec._square[1] is None  # XOR adds
        return
    sums = spec.addmul_vec(u[:, np.newaxis], u, spec.unit)
    assert sums.dtype == np.int64
    assert sums.tolist() == [[spec.raw_add(s, b) for b in range(q)] for s in range(q)]
    c = q - 2
    assert spec.addmul_vec(u[::-1], u, c).tolist() \
        == [spec.raw_add(s, b) for s, b in zip(range(q - 1, -1, -1), products[c])]


@pytest.mark.parametrize("p, k", [(2, 11), (37, 2)])
def test_products_above_the_table_bound_use_the_doubled_exp_table(p, k):
    # exp has 2(q - 1) entries, so exp[log a + log c] needs no modulo; every a
    # against a sample of c (zero, one, the last index, seeded others) equals
    # the product by c's multiplication matrix, without the tables; inverses
    # and powers read the first q - 1 entries
    spec = field_make(p, k)
    q = spec.q
    assert q > gf._TABLE_BOUND
    exp = (spec._tables or spec._build_tables())[0]
    assert len(exp) == 2 * (q - 1) and (exp[q - 1:] == exp[:q - 1]).all()
    u = np.arange(q, dtype=np.int64)
    coords = spec.to_coords(u)
    cs = np.array([0, spec.unit, q - 1, *np.random.default_rng(q).integers(q, size=5)])
    want = [spec.from_coords(coords @ spec._matrix(spec.coords(c)) % p).tolist()
            for c in cs.tolist()]
    assert spec.mul_vec(np.tile(u, (len(cs), 1)), cs[:, np.newaxis]).tolist() == want
    for c, w in zip(cs.tolist(), want):
        assert spec.mul_vec(u, c).tolist() == w
        assert [spec.raw_mul(a, c) for a in range(q)] == w
    assert spec._square is None
    nonzero = u[1:]
    assert (spec.mul_vec(nonzero, spec.inv_vec(nonzero)) == spec.unit).all()
    for e in (q - 2, q - 1, q, 3 * q + 1):
        power = functools.reduce(spec.raw_mul, [cs[-1].item()] * (e % (q - 1)), spec.unit)
        assert spec.raw_pow(cs[-1].item(), e) == power


def test_field_make_builds_no_table():
    # the exp/log and q x q tables come with the first call that needs them,
    # not with the field (the body of field_make, past its cache)
    spec = gf._field_make.__wrapped__(3, 2)
    assert spec._tables is None and spec._square is None
    spec.raw_mul(spec.unit, spec.unit)
    assert spec._tables is not None and spec._square is None
    spec.mul_vec(np.arange(spec.q), spec.unit)
    prod, add = spec._square
    assert prod.dtype == add.dtype == np.int16 and prod.shape == add.shape == (spec.q ** 2,)


@pytest.mark.parametrize("p, k", [(2, 2), (3, 2), (7, 3), (3, 5), (2, 20)])
def test_from_coords_matches_the_weighted_sum(p, k):
    # Horner over the k coordinate columns gives the index sum of
    # coordinate j times p^(k-1-j), on arrays of one, two and three axes
    spec = field_make(p, k)
    gen = np.random.default_rng(p * 100 + k)
    weights = p ** np.arange(k - 1, -1, -1, dtype=np.int64)
    for shape in ((k,), (7, k), (50, 10, k)):
        m = gen.integers(p, size=shape)
        assert spec.from_coords(m).tolist() == (m @ weights).tolist(), shape
    u = gen.integers(spec.q, size=(5, 9))
    assert spec.from_coords(spec.to_coords(u)).tolist() == u.tolist()


def test_field_mismatch_and_zero_division():
    F3, F5 = field_make(3), field_make(5)
    with pytest.raises(errors.FieldMismatch):
        F3.one + F5.one
    with pytest.raises(errors.DivisionByZero):
        F3.zero.inverse()


def test_element_text_roundtrip():
    F9 = field_make(3, 2)
    e = F9.element((1, 2))
    assert element_from_text(F9, e.to_text()) == e
    F5 = field_make(5)
    assert element_from_text(F5, "7") == F5.element(2)
