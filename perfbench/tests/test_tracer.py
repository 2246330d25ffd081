"""Self-time attribution and wrapper installation."""

import itertools

import pytest

from tracer import Tracer, installed


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    # is_irreducible [0, 10] -> pow_mod [1, 3], pow_mod [4, 5], gcd [6, 9]
    # and gcd -> divmod [7, 8]
    tr = Tracer(clock=fake_clock(0, 1, 3, 4, 5, 6, 7, 8, 9, 10))
    outer = tr.open("poly.is_irreducible")
    for name in ("poly.pow_mod", "poly.pow_mod"):
        tr.close(tr.open(name))
    g = tr.open("poly.gcd")
    tr.close(tr.open("poly.divmod"))
    tr.close(g)
    tr.close(outer)
    stats = tr.stats()
    assert stats["poly.is_irreducible"]["self_s"] == 10 - (2 + 1 + 3)
    assert stats["poly.pow_mod"]["self_s"] == 3
    assert stats["poly.gcd"]["self_s"] == 3 - 1
    assert stats["poly.divmod"]["self_s"] == 1
    assert tr.spans[g][3] == outer and tr.spans[g + 1][3] == g


def test_verify_self_time_excludes_timed_children():
    from qtk import field_make, hfactor

    spec = field_make(3)
    tr = Tracer()
    with installed(tr):
        report = hfactor.verify_meyn_product(spec.element(2), 2)
    assert report.ok
    stats = tr.stats()
    verify = stats["hfactor.verify_meyn_product"]
    assert verify["calls"] == 1 and stats["poly.divmod"]["calls"] > 0
    root = next(i for i, s in enumerate(tr.spans)
                if s[0] == "hfactor.verify_meyn_product")
    children = sum(s[2] - s[1] for s in tr.spans if s[3] == root)
    total = tr.spans[root][2] - tr.spans[root][1]
    assert verify["self_s"] == pytest.approx(total - children)
    # divisions issued by the engine itself are direct children of verify
    assert any(s[0] == "poly.divmod" and s[3] == root for s in tr.spans)


def test_is_irreducible_spans_nest_pow_mod():
    from qtk import field_make, poly

    spec = field_make(2)
    f = poly.Polynomial(spec, [1, 1, 0, 0, 1])  # x^4 + x + 1
    tr = Tracer()
    with installed(tr):
        assert poly.is_irreducible(f)
    stats = tr.stats()
    assert stats["poly.is_irreducible"]["calls"] == 1
    assert stats["poly.is_irreducible"]["true"] == 1
    assert stats["poly.pow_mod"]["calls"] == 4  # x^(q^d) by single q-steps
    assert stats["poly.pow_mod"]["bits"] == 4 * (2).bit_length()
    root = next(i for i, s in enumerate(tr.spans) if s[0] == "poly.is_irreducible")
    assert all(s[3] == root for s in tr.spans if s[0] == "poly.pow_mod")


def test_wrappers_bound_where_names_are_held_and_restored():
    import qtk
    from qtk import hfactor, moebius, poly, transform
    from qtk.gf import FieldSpec

    originals = (poly.pow_mod, hfactor.pow_mod, transform.gcd, moebius.gcd,
                 qtk.is_irreducible, poly.Polynomial.__dict__["__mul__"],
                 FieldSpec.__dict__["raw_mul"])
    tr = Tracer()
    with installed(tr):
        assert hfactor.pow_mod is poly.pow_mod is not originals[0]
        assert transform.gcd is moebius.gcd is poly.gcd is not originals[2]
        assert qtk.is_irreducible is poly.is_irreducible
        assert poly.Polynomial.__dict__["__mul__"] is not originals[5]
    restored = (poly.pow_mod, hfactor.pow_mod, transform.gcd, moebius.gcd,
                qtk.is_irreducible, poly.Polynomial.__dict__["__mul__"],
                FieldSpec.__dict__["raw_mul"])
    assert all(a is b for a, b in zip(originals, restored))


def test_generator_spans_cover_each_resumption():
    from qtk import field_make, poly

    tr = Tracer()
    with installed(tr):
        found = list(itertools.islice(
            poly.enumerate_monic_irreducible(field_make(2), 3), 5))
    stats = tr.stats()
    assert len(found) == 2
    assert stats["poly.enumerate_monic_irreducible"]["calls"] == 1
    assert stats["poly.is_irreducible"]["calls"] == 8
    assert not tr.stack


def test_raised_counts_exceptions_and_reraises():
    from qtk import errors, field_make, poly

    zero = poly.Polynomial.zero(field_make(3))
    tr = Tracer()
    with installed(tr), pytest.raises(errors.BothZero):
        poly.gcd(zero, zero)
    assert tr.raised == {"poly.gcd": 1}
    assert not tr.stack
