import contextlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import subprocess_env
from qtk import cli, errors, field_make
from qtk.counting import count_carlitz


def run_cli(*args):
    """In-process invocation capturing stdout lines."""
    import contextlib
    import io
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(args))
    return code, buf.getvalue()


def test_count_human_and_json():
    code, out = run_cli("count", "--field", "3", "--n", "2", "--variant", "carlitz")
    assert code == 0 and "value=2" in out
    code, out = run_cli("--json", "count", "--field", "3", "--n", "2",
                        "--variant", "carlitz")
    payload = json.loads(out)
    assert payload["value"] == 2 and payload["branch"] == "odd-q-power-of-2"


def test_one_parser_serves_json_plain_and_usage_errors_in_turn():
    # the parser is built once per process: no call may leave state behind
    assert cli.build_parser() is cli.build_parser()
    argv = ("count", "--field", "3", "--n", "2", "--variant", "carlitz")
    code, out = run_cli("--json", *argv)
    assert code == 0 and json.loads(out)["value"] == 2
    code, out = run_cli(*argv)
    assert code == 0 and out.startswith("cmd=count  ") and "value=2" in out
    code, out = run_cli(*argv[:3])
    assert code == cli.EXIT_USAGE and out == ""


def test_count_oracle_match():
    code, out = run_cli("count", "--field", "3", "--n", "1", "--variant", "sigma",
                        "--sigma", "2", "--oracle")
    assert code == 0 and "verdict=MATCH" in out and "value=2" in out


def test_count_ahmadi_degenerate():
    code, out = run_cli("count", "--field", "2", "--n", "2", "--variant",
                        "ahmadi", "--expr", "1,0,1 / 0,0,1")
    assert code == 0 and "value=0" in out


def test_reduce():
    code, out = run_cli("--json", "reduce", "--field", "3", "--expr", "0,0,1 / 1")
    payload = json.loads(out)
    assert payload["kind"] == "x+sigma/x"
    assert payload["class"] == "square"
    assert payload["end"] == "1,0,1 / 0,1"
    code, out = run_cli("--json", "reduce", "--field", "2",
                        "--expr", "1,0,1 / 0,0,1")
    assert json.loads(out)["kind"] == "x^2"
    code, out = run_cli("--json", "reduce", "--field", "5",
                        "--expr", "1,0,1 / 0,1")
    assert json.loads(out)["trail"] == []


def test_transform_and_reconstruct():
    code, out = run_cli("--json", "transform", "--field", "3", "--f", "1,0,1",
                        "--expr", "1,0,1 / 0,1")
    payload = json.loads(out)
    assert payload["result"]["coeffs"] == "1,0,0,0,1"
    code, out = run_cli("--json", "reconstruct", "--field", "3",
                        "--F", "1,0,0,0,1", "--sigma", "1")
    assert json.loads(out)["f"]["coeffs"] == "1,0,1"


def test_human_flag():
    code, out = run_cli("--json", "transform", "--field", "3", "--human",
                        "--f", "x^2+1", "--expr", "1,0,1 / 0,1")
    assert json.loads(out)["result"]["human"] == "x^4+1"


def test_dickson():
    code, out = run_cli("--json", "dickson", "--field", "7", "--n", "3", "--a", "1")
    assert json.loads(out)["result"]["coeffs"] == "0,4,0,1"  # y^3 - 3y


def test_hverify():
    code, out = run_cli("hverify", "--field", "3", "--n", "2",
                        "--expr", "1,0,1 / 0,1")
    assert code == 0 and "ok=True" in out
    code, out = run_cli("--json", "hverify", "--field", "3", "--n", "1",
                        "--sigma", "2")
    payload = json.loads(out)
    assert payload["ok"] and payload["factor_count"] == 2


def test_table():
    code, out = run_cli("--json", "table", "--fields", "2,3", "--n-max", "2")
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 4
    assert {(l["field"], l["n"]): l["value"] for l in lines} == {
        ("2", 1): 1, ("2", 2): 1, ("3", 1): 1, ("3", 2): 2}


def test_selftest_passes():
    code, out = run_cli("--json", "selftest")
    assert code == 0
    assert all(json.loads(line)["ok"] for line in out.strip().splitlines())


def test_json_output_is_deterministic():
    args = ("--json", "table", "--fields", "2,3,4", "--n-max", "3", "--variant",
            "sigma")
    _, out1 = run_cli(*args)
    _, out2 = run_cli(*args)
    assert out1 == out2
    golden_first = ('{"branch": "mobius-sum", "cmd": "table", "epsilon": 0, '
                    '"field": "2", "n": 1, "sigma": "1", "value": 1, '
                    '"variant": "sigma"}')
    assert out1.splitlines()[0] == golden_first


def test_exit_codes():
    code, _ = run_cli("count", "--field", "6", "--variant", "carlitz")
    assert code == cli.EXIT_USAGE  # 6 is not a prime power
    code, _ = run_cli("hverify", "--field", "3", "--n", "9", "--sigma", "1",
                      "--size-bound", "10")
    assert code == cli.EXIT_SIZE_BOUND
    code, _ = run_cli("hverify", "--field", "3", "--n", "1")
    assert code == cli.EXIT_USAGE  # needs --expr or --sigma


def test_mismatch_exit_code(monkeypatch):
    # force a formula/oracle disagreement to exercise the falsification path
    import qtk.counting as counting
    real = counting.brute_count
    monkeypatch.setattr(counting, "brute_count", lambda q: real(q) + 1)
    code, out = run_cli("count", "--field", "3", "--n", "2",
                        "--variant", "carlitz", "--oracle")
    assert code == cli.EXIT_MISMATCH and "MISMATCH" in out


def test_identity_violation_exits_3_with_one_stderr_line(monkeypatch, capsys):
    def broken(F, sigma):
        errors.require(False, "recovered input does not reproduce F")

    monkeypatch.setattr(cli, "reconstruct", broken)
    code = cli.main(["reconstruct", "--field", "5", "--sigma", "1", "--F", "1,0,1"])
    assert code == cli.EXIT_MISMATCH
    assert capsys.readouterr().err.splitlines() == [
        "FALSIFIED: recovered input does not reproduce F"]


def test_size_bound_env(monkeypatch):
    monkeypatch.setenv("QTK_SIZE_BOUND", "10")
    code, _ = run_cli("hverify", "--field", "3", "--n", "9", "--sigma", "1")
    assert code == cli.EXIT_SIZE_BOUND


def test_cli_matches_library():
    # the CLI is a thin adapter: values agree with direct library calls
    from qtk.moebius import expr_parse, reduce_canonical
    from qtk.transform import DicksonParams, dickson
    spec = field_make(3)
    _, out = run_cli("--json", "count", "--field", "3", "--n", "3",
                     "--variant", "carlitz")
    assert json.loads(out)["value"] == count_carlitz(spec, 3).value
    _, out = run_cli("--json", "reduce", "--field", "3", "--expr", "2,1,1 / 0,1")
    form, trail = reduce_canonical(expr_parse(spec, "2,1,1 / 0,1"))
    payload = json.loads(out)
    assert payload["sigma"] == form.sigma.to_text()
    assert payload["trail"] == [s.to_text() for s in trail.steps]
    _, out = run_cli("--json", "dickson", "--field", "3", "--n", "5", "--a", "2")
    assert json.loads(out)["result"]["coeffs"] \
        == dickson(DicksonParams(5, spec.element(2))).to_text()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qtk", "count", "--field", "2", "--n", "1",
         "--variant", "carlitz"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and "value=1" in proc.stdout


def run_reporting_vmhwm(*argv: str):
    """The CLI on argv in a child process that prints its own high-water mark
    (VmHWM, kB) as the last word of stderr: its ru_maxrss would start at the
    peak of the process that spawned it, here the test runner."""
    code = ("import sys\nfrom qtk import cli\nstatus = cli.main(sys.argv[1:])\n"
            "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0],"
            " file=sys.stderr)\nsys.exit(status)\n")
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          env=subprocess_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout), int(proc.stderr.split()[-1])


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_count_oracle_memory_at_image_degree_twenty():
    # the stacked Rabin test holds d^2 Frobenius matrix entries per row
    # (d = 20 here), in blocks: the child's peak RSS stays within 10% of the
    # 49 MB it took with square-and-multiply Frobenius steps
    out, peak = run_reporting_vmhwm("--json", "count", "--field", "3", "--n", "10",
                                    "--oracle", "--variant", "carlitz")
    assert out["verdict"] == "MATCH"
    assert peak < 1.1 * 49 * 1024


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_count_oracle_memory_over_gf_32():
    # the 261,888 monic irreducible quartics over GF(32) are transformed and
    # tested in blocks of _SIEVE_ROWS rows: 74-75 MB, where one transform of
    # all of them peaked at 314 MB
    out, peak = run_reporting_vmhwm("--json", "count", "--field", "32", "--n", "4",
                                    "--oracle", "--variant", "carlitz")
    assert out["verdict"] == "MATCH"
    assert peak < 1.3 * 75 * 1024


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_hverify_memory_over_gf_2_11():
    # the degree-2049 H over GF(2^11) is divided by one addmul_vec per
    # quotient step: one divisor multiple kept per quotient coefficient would
    # be 2,047 x 2,048 x 11 int64 entries (369 MB)
    out, peak = run_reporting_vmhwm("--json", "hverify", "--field", "2048", "--n", "1",
                                    "--sigma", "[0 1 0 0 0 0 0 0 0 0 0]")
    assert out["ok"] is True
    assert peak < 100 * 1024


@pytest.mark.parametrize("env,argv", [
    ({}, ["count", "--field", "3", "--n", "0", "--variant", "carlitz"]),
    ({}, ["dickson", "--field", "3", "--n", "-1", "--a", "1"]),
    ({}, ["count", "--field", "3", "--n", "2", "--variant", "sigma"]),
    ({"QTK_SIZE_BOUND": "abc"}, ["hverify", "--field", "3", "--n", "2", "--sigma", "1"]),
    ({}, ["count", "--field", "abc", "--variant", "carlitz"]),
    ({}, ["count", "--field", "3", "--n", "2", "--variant", "ahmadi"]),
    ({}, ["count", "--field", "0", "--n", "2", "--variant", "carlitz"]),
    ({}, ["count", "--field", "-3", "--n", "2", "--variant", "carlitz"]),
    ({}, ["count", "--field", "3", "--n", "0", "--variant", "linear", "--expr", "1,0,1 / 0,1"]),
    ({}, ["count", "--field", "3", "--n", "-5", "--variant", "linear", "--expr", "1,0,1 / 0,1"]),
    ({}, ["count", "--field", "3", "--n", "0", "--variant", "linear", "--expr", "1,0,1 / 0,1",
          "--oracle"]),
    ({}, ["table", "--fields", "3", "--n-max", "0"]),
    ({}, ["table", "--fields", "3", "--n-max", "-1"]),
    ({}, ["transform", "--field", "3", "--f", "1,,1", "--expr", "1,0,1 / 0,1"]),
    ({}, ["transform", "--field", "3", "--f", ",1", "--expr", "1,0,1 / 0,1"]),
])
def test_bad_input_exits_with_one_stderr_line(monkeypatch, capsys, env, argv):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    assert cli.main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    field = argv[argv.index("--field") + 1] if "--field" in argv else None
    if field in ("0", "-3"):  # the message names the field, not --n
        assert f"{field} is not a prime power" in err


@pytest.mark.parametrize("argv", [
    ["hverify", "--field", "3", "--n", "9100", "--sigma", "1"],
    ["hverify", "--field", "3", "--n", "99999999999", "--sigma", "1"],
    ["hverify", "--field", "3", "--n", "2", "--sigma", "1", "--size-bound", "9"],
    # refused for size before the characteristic-2 degenerate case is seen
    ["hverify", "--field", "2", "--n", "13", "--expr", "1,0,1 / 0,0,1"],
    ["count", "--field", "2", "--n", "15000", "--variant", "carlitz"],
    ["count", "--field", "3", "--n", "1000000000", "--variant", "carlitz"],
    ["dickson", "--field", "3", "--n", "2000000", "--a", "1"],
    ["transform", "--field", "3", "--f", "x^99999999999", "--expr", "1,0,1 / 0,1"],
    ["transform", "--field", "3", "--f", "x^" + "9" * 5000, "--expr", "1,0,1 / 0,1"],
    # refused before trial division (2^61 - 1) and before forming p ** k
    ["count", "--field", "2305843009213693951", "--n", "2", "--variant", "carlitz"],
    ["count", "--field", "3^99999999", "--n", "2", "--variant", "carlitz"],
])
def test_oversized_input_exits_2_with_one_stderr_line(capsys, argv):
    assert cli.main(argv) == cli.EXIT_SIZE_BOUND
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


_FUZZ_VALUES = {
    "--field": st.sampled_from(["2", "3", "4", "5", "7", "8", "9", "3^2", "6", "0", "x"]),
    "--n": st.integers(-1, 3).map(str),
    "--n-max": st.integers(-1, 2).map(str),
    "--fields": st.sampled_from(["2", "3,4", "5", "9", "2,x"]),
    "--variant": st.sampled_from(["carlitz", "sigma", "ahmadi", "linear",
                                  "corollary", "bogus"]),
    "--sigma": st.sampled_from(["0", "1", "2", "3", "[0 1]", "[1 1]", "[1", "x", ""]),
    "--a": st.sampled_from(["0", "1", "2", "[0 1]", "y"]),
    "--expr": st.sampled_from(["1,0,1 / 0,1", "0,0,1 / 1", "1,1,1 / 0,0,1",
                               "x^2+1 / x", "2,1 / 1,0,1", "1 / 1", "0 / 0,1",
                               "[0 1],0,1 / 0,1", "/", "1,0,1"]),
    "--f": st.sampled_from(["1,0,1", "x^2+1", "0", "2", "1,1", "[1 1],1", "x^", ","]),
    "--F": st.sampled_from(["1,0,0,0,1", "1,0,1", "0", "x^4+1", "1,2"]),
    "--size-bound": st.sampled_from(["10", "100", "-1", "abc"]),
}

#: Options each subcommand needs, then the flags it takes; the fuzzer leaves
#: a needed option out now and then, and adds a stray one.
_FUZZ_COMMANDS = {
    "count": (["--field", "--n", "--variant"], ["--oracle"]),
    "reduce": (["--field", "--expr"], []),
    "transform": (["--field", "--f", "--expr"], ["--monic", "--human"]),
    "reconstruct": (["--field", "--F", "--sigma"], ["--human"]),
    "dickson": (["--field", "--n", "--a"], []),
    "hverify": (["--field", "--n", "--expr"], []),
    "table": (["--fields", "--n-max"], ["--oracle"]),
    "bogus": ([], []),
}


@st.composite
def _argv(draw):
    cmd = draw(st.sampled_from(sorted(_FUZZ_COMMANDS)))
    needed, flags = _FUZZ_COMMANDS[cmd]
    options = [opt for opt in needed if draw(st.integers(0, 9))]
    options += draw(st.lists(st.sampled_from(sorted(_FUZZ_VALUES)), max_size=1))
    argv = ["--json", cmd] if draw(st.booleans()) else [cmd]
    for opt in options:
        argv += [opt, draw(_FUZZ_VALUES[opt])]
    return argv + draw(st.lists(st.sampled_from(flags or ["--human"]), max_size=1))


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_argv())
def test_cli_fuzz_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue()
