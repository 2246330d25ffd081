"""Failure counting, digest checks, output checks and the metric list."""

import json
from pathlib import Path

import run
import workloads
from worker import run_item

BENCH = Path(__file__).resolve().parent.parent


def _item(item_id, error=None, sha="a"):
    return {"id": item_id, "seconds": 0.1, "cpu_seconds": 0.1,
            "sha256": sha, "error": error}


def test_every_failure_kind_counts_against_error_rate():
    items = [
        # exit code 1: not a prime power
        {"id": "usage", "kind": "cli", "check": "oracle",
         "argv": ["--json", "count", "--field", "6", "--n", "2",
                  "--variant", "carlitz"]},
        # an exception: enumeration needs degree >= 1
        {"id": "raises", "kind": "enum", "p": 2, "d": 0},
        # exit 0 but the output check fails: no oracle verdict
        {"id": "check", "kind": "cli", "check": "oracle",
         "argv": ["--json", "count", "--field", "3", "--n", "2",
                  "--variant", "carlitz"]},
        {"id": "good", "kind": "cli", "check": "oracle",
         "argv": ["--json", "count", "--field", "3", "--n", "2",
                  "--variant", "carlitz", "--oracle"]},
    ]
    results = [run_item(item) for item in items]
    assert results[0]["error"].startswith("exit code 1")
    assert results[1]["error"].startswith("ValueError")
    assert results[2]["error"].startswith("verdict")
    assert results[3]["error"] is None and results[3]["sha256"]
    assert run.tally([{"items": results}]) == (4, 3, 0.75)


def test_paired_item_fails_when_bytes_differ_from_seed_copy(monkeypatch):
    import worker

    item = {"id": "e", "kind": "enum", "p": 2, "d": 3}
    real = worker.run_item

    def skewed(item, package="qtk", tracer=None):
        result = real(item, "qtk", tracer)
        if package == "qtk_seed":
            result["sha256"] = "0" * 64
        return result

    monkeypatch.setattr(worker, "run_item", skewed)
    for reference_first in (True, False):
        result = worker.run_paired(item, reference_first)
        assert result["error"] == "output bytes differ from the frozen seed copy's"
        assert result["ref_seconds"] > 0


def test_digest_mismatches_fail_items():
    passes = [{"items": [_item("x", sha="1"), _item("y", sha="2")]},
              {"items": [_item("x", sha="1"), _item("y", sha="3")]}]
    run.apply_digest_checks(passes, None)
    assert run.tally(passes) == (4, 1, 0.25)
    assert passes[1]["items"][1]["error"] == "output bytes differ from the first pass"

    passes = [{"items": [_item("x", sha="1"), _item("y", error="boom")]}]
    run.apply_digest_checks(passes, {"x": "9", "y": "2"})
    assert passes[0]["items"][0]["error"] == "output digest differs from the pinned one"
    assert passes[0]["items"][1]["error"] == "boom"
    assert run.tally(passes) == (2, 2, 1.0)


def test_necklace_counts():
    assert [workloads.necklace(2, d) for d in range(1, 9)] == \
        [2, 1, 2, 3, 6, 9, 18, 30]
    assert workloads.necklace(3, 8) == 810


def test_enum_check_rejects_wrong_order_and_count():
    from qtk import field_make
    from qtk.poly import enumerate_monic_irreducible

    item = {"id": "e", "kind": "enum", "p": 3, "d": 3}
    polys = list(enumerate_monic_irreducible(field_make(3), 3))
    assert workloads.check_enum(item, polys) is None
    assert "out of order" in workloads.check_enum(item, polys[::-1])
    assert "necklace" in workloads.check_enum(item, polys[1:])


def test_inputs_are_seeded_and_valid():
    for workload in workloads.WORKLOADS:
        a = workloads.make_items(workload, 7)
        assert a == workloads.make_items(workload, 7)
    texts = [i["argv"] for i in workloads.make_items("hverify", 7)]
    assert texts != [i["argv"] for i in workloads.make_items("hverify", 8)]


def test_metric_lists_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_pins_cover_every_item_of_the_default_seed():
    pinned = json.loads((BENCH / "pinned.json").read_text())
    for workload in workloads.WORKLOADS:
        ids = [i["id"] for i in workloads.make_items(workload, pinned["seed"])]
        assert list(pinned["workloads"][workload]["items"]) == ids
