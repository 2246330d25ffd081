"""Each workload on a tiny item list, plain, traced and paired with the
frozen seed copy, in fresh workers.

Also the benchmark's self-test: every layer records calls on each workload
predictions.json lists for it, and tracing leaves the output bytes alone.
"""

import json
import random
from pathlib import Path

import pytest

import run
import workloads
from qtk.gf import field_from_name

BENCH = Path(__file__).resolve().parent.parent


def tiny_items(workload):
    rng = random.Random(0)

    def expr(field):
        return workloads.random_expr_text(field_from_name(field), rng)

    def cli(check, argv, **extra):
        return {"id": " ".join(argv), "kind": "cli", "check": check,
                "argv": ["--json"] + argv, **extra}

    if workload == "hverify":
        return [cli("hverify", ["hverify", "--field", "3", "--n", "2",
                                "--expr", expr("3")], q=3, n=2),
                cli("hverify", ["hverify", "--field", "4", "--n", "2",
                                "--sigma", "[0 1]"], q=4, n=2)]
    if workload == "oracle":
        return [cli("oracle", ["count", "--field", "4", "--n", "2", "--oracle",
                               "--variant", "ahmadi", "--expr", expr("4")]),
                cli("oracle", ["count", "--field", "3", "--n", "2", "--oracle",
                               "--variant", "sigma", "--sigma", "2"])]
    return [{"id": f"enum/{p}/{d}", "kind": "enum", "p": p, "d": d}
            for p, d in ((2, 6), (3, 3))]


@pytest.fixture(scope="module")
def passes():
    out = {}
    for workload in workloads.WORKLOADS:
        items = tiny_items(workload)
        fields = workloads.item_fields(items)
        out[workload] = [run.run_pass(items, fields, kind, timeout=120)
                         for kind in ("plain", "traced", "paired")]
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_passes_its_checks(passes, workload):
    plain, traced, paired = passes[workload]
    run.apply_digest_checks([plain, traced, paired], None)
    assert run.tally([plain, traced, paired])[1:] == (0, 0.0)
    assert run.workload_digest(plain) == run.workload_digest(traced)
    assert plain["setup_s"] > 0 and plain["peak_rss_mb"] > 0
    assert plain["wall_s"] > 0 and paired["ref_wall_s"] > 0


def test_every_predicted_layer_records_calls(passes):
    table = json.loads((BENCH / "predictions.json").read_text())
    missing = []
    for row in table["rows"]:
        assert set(row["metrics"]) <= set(run.LAYER_STATS[row["layer"]])
        for workload in row["workloads"]:
            metrics = run.layer_metrics(passes[workload][1]["layers"])
            if not metrics[f"{row['layer']}.calls"] > 0:
                missing.append((row["layer"], workload))
    assert missing == []
