import subprocess
import sys

import pytest

import qtk
import reference
from conftest import random_expr, subprocess_env
from qtk import errors
from qtk.counting import (CountQuery, brute_count, count_ahmadi,
                          count_carlitz, count_corollary, count_linear_inputs,
                          count_sigma, evaluate, moebius_mu)
from qtk.gf import is_square, least_nonsquare
from qtk.intmath import divisors
from qtk.moebius import expr_parse


def test_moebius_mu():
    assert moebius_mu(1) == 1
    assert moebius_mu(6) == 1
    assert moebius_mu(12) == 0
    assert [moebius_mu(d) for d in (2, 3, 5, 30)] == [-1, -1, -1, -1]
    with pytest.raises(ValueError):
        moebius_mu(0)


def test_moebius_invert_odd():
    # f(n) = sum over odd d | n of g(n/d): inversion recovers g
    g = {n: 3 * n + 7 for n in range(1, 19)}
    f = {n: sum(g[n // d] for d in divisors(n) if d % 2) for n in g}
    assert reference.moebius_invert_odd(f) == g
    assert reference.moebius_invert_odd({1: 5}) == {1: 5}
    with pytest.raises(reference.MissingDivisorValue):
        reference.moebius_invert_odd({6: 2})


def test_invert_recovers_sigma_count_from_degrees(fields):
    # q^n - eps^n = sum over odd d|n of (2n/d) SRIM(2n/d); inversion gives
    # back 2n * SRIM(2n)
    for q in (2, 3, 5, 9):
        spec = fields[q]
        sigma = spec.one if q % 2 == 0 else least_nonsquare(spec)
        eps = 0 if q % 2 == 0 else -1
        f = {n: q ** n - eps ** n for n in range(1, 9)}
        g = reference.moebius_invert_odd(f)
        for n in range(1, 9):
            assert g[n] == 2 * n * count_sigma(spec, n, sigma).value


def test_carlitz_examples(fields):
    assert count_carlitz(fields[2], 1).value == 1
    assert count_carlitz(fields[3], 2).value == 2
    assert count_carlitz(fields[2], 3).value == 1
    assert count_carlitz(fields[3], 2).formula_branch == "odd-q-power-of-2"
    assert count_carlitz(fields[2], 2).formula_branch == "mobius-sum"


def test_carlitz_count_near_the_digit_limit(fields):
    # 2^14000 has 4215 decimal digits, 2^15000 has 4516: past the 4300 that
    # Python converts to text, so that count is refused
    # 14000 = 2^4 * 5^3 * 7: the odd squarefree divisors are 1, 5, 7, 35
    total = 2 ** 14000 - 2 ** 2800 - 2 ** 2000 + 2 ** 400
    assert total % 28000 == 0
    assert count_carlitz(fields[2], 14000).value == total // 28000
    with pytest.raises(errors.SizeBoundExceeded):
        count_carlitz(fields[2], 15000)


def test_sigma_examples(fields):
    F3 = fields[3]
    r = count_sigma(F3, 1, F3.element(2))
    assert (r.value, r.epsilon) == (2, -1)
    r = count_sigma(F3, 1, F3.one)
    assert (r.value, r.epsilon) == (1, 1)
    r = count_sigma(fields[2], 2, fields[2].one)
    assert (r.value, r.epsilon) == (1, 0)
    with pytest.raises(errors.ZeroSigma):
        count_sigma(F3, 1, F3.zero)


def test_ahmadi_examples(fields):
    F2, F3 = fields[2], fields[3]
    assert count_ahmadi(F2, 2, expr_parse(F2, "1,0,1 / 0,0,1")).value == 0
    assert count_ahmadi(F3, 2, expr_parse(F3, "1,0,1 / 0,1")).value == 2
    assert count_ahmadi(F2, 3, expr_parse(F2, "1,0,1 / 0,1")).value == 1
    with pytest.raises(errors.RequiresNGreaterThan1):
        count_ahmadi(F3, 1, expr_parse(F3, "1,0,1 / 0,1"))


def test_linear_examples(fields):
    F3, F4 = fields[3], fields[4]
    assert count_linear_inputs(F3, expr_parse(F3, "1,0,1 / 0,1")).value == 1
    assert count_linear_inputs(F3, expr_parse(F3, "1,0,2 / 0,1")).value == 2
    assert count_linear_inputs(F4, expr_parse(F4, "[1 0],[1 1],[1 0] / 0,1")).value == 2
    # the pencil endpoint h itself can be the only irreducible member
    assert count_linear_inputs(F3, expr_parse(F3, "0,1 / 1,0,1")).value == 1
    with pytest.raises(errors.Char2Degenerate):
        count_linear_inputs(fields[2], expr_parse(fields[2], "1,0,1 / 0,0,1"))


def test_corollary_examples(fields):
    F3, F2 = fields[3], fields[2]
    r = count_corollary(F3, 1, F3.one)
    assert (r.value, r.delta) == (1, 1)
    r = count_corollary(F3, 1, F3.element(2))
    assert (r.value, r.delta) == (2, -1)
    r = count_corollary(F2, 2, F2.one)
    assert (r.value, r.delta) == (1, 0)


def test_corollary_equals_sigma(fields):
    for spec in fields.values():
        sigmas = [spec.one] if spec.p == 2 \
            else [spec.one, least_nonsquare(spec)]
        for sigma in sigmas:
            for n in range(1, 7):
                assert count_corollary(spec, n, sigma).value \
                    == count_sigma(spec, n, sigma).value


def test_formula_vs_oracle_grid(fields):
    for q, spec in fields.items():
        for n in (1, 2, 3, 4):
            if q ** n > 700:
                continue
            assert count_carlitz(spec, n).value \
                == brute_count(CountQuery(spec, n, "carlitz"))
            sigmas = [spec.one] if spec.p == 2 \
                else [spec.one, least_nonsquare(spec)]
            for sigma in sigmas:
                q_ = CountQuery(spec, n, "sigma", sigma=sigma)
                assert count_sigma(spec, n, sigma).value == brute_count(q_)


def test_ahmadi_class_independent(fields, rng):
    for q in (2, 3, 4, 5):
        spec = fields[q]
        baseline = {n: count_carlitz(spec, n).value for n in (2, 3)}
        for _ in range(6):
            r = random_expr(spec, rng)
            for n in (2, 3):
                res = count_ahmadi(spec, n, r)
                if res.formula_branch == "even-degenerate":
                    assert res.value == 0
                else:
                    assert res.value == baseline[n]
                assert res.value == brute_count(
                    CountQuery(spec, n, "ahmadi", expr=r))


def test_linear_vs_oracle_randomized(fields, rng):
    for spec in fields.values():
        for _ in range(10):
            r = random_expr(spec, rng)
            query = CountQuery(spec, 1, "linear", expr=r)
            try:
                value = count_linear_inputs(spec, r).value
            except errors.Char2Degenerate:
                continue
            assert value == brute_count(query)


def test_degree_identity(fields):
    # sum over odd d | n of (2n/d) * SRIM_sigma(2n/d, q) = q^n - eps^n
    for q, spec in fields.items():
        sigmas = [spec.one] if spec.p == 2 \
            else [spec.one, least_nonsquare(spec)]
        for sigma in sigmas:
            eps = 0 if spec.p == 2 else (1 if is_square(sigma) else -1)
            for n in range(1, 7):
                lhs = sum((2 * n // d) * count_sigma(spec, n // d, sigma).value
                          for d in divisors(n) if d % 2)
                assert lhs == q ** n - eps ** n


def test_evaluate_dispatch(fields):
    F3 = fields[3]
    assert evaluate(CountQuery(F3, 2, "carlitz")).value == 2
    with pytest.raises(errors.Error):
        evaluate(CountQuery(F3, 2, "nonsense"))


def test_exact_div_refuses_a_remainder_under_python_O():
    # the check must survive -O, which strips every assert
    code = ("from qtk import counting, errors\n"
            "try:\n    print(counting._exact_div(7, 2))\n"
            "except errors.IdentityViolated:\n    print('raised')\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=subprocess_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.strip() == "raised", proc.stderr


def test_query_without_its_parameter_is_refused():
    spec = qtk.field_make(3)
    with pytest.raises(errors.InvalidArgument):
        CountQuery(spec, 2, "sigma")
    with pytest.raises(errors.InvalidArgument):
        CountQuery(spec, 2, "ahmadi")
