"""qtk benchmark: run one seeded workload against the checkout's ``src/qtk``.

    python3 perfbench/run.py --workload hverify --seed 1 --seconds 30 --trace 0

Load model: a closed loop with one caller.  A run is a series of passes over
the workload's fixed item list; each pass runs in a fresh interpreter
(``worker.py``) and the next starts only after the previous one has ended.
Passes start while the time measured so far plus one more pass fits in
``--seconds`` (at least ``MIN_PASSES``).

With ``--trace 0`` every pass pairs each item with the frozen seed copy in
``seedref/`` (see ``worker.py``), and the last stdout line reports the
end-to-end metrics.
With ``--trace 1`` passes alternate untraced and traced; the traced ones
wrap qtk's public functions from outside and the line reports the
per-layer metrics plus the tracing overhead.  Details of every pass,
per-item times and provenance go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
PINNED = HERE / "pinned.json"

#: Passes per run at least: paired, or plain and traced together.
MIN_PASSES, MIN_TRACE_PASSES = 3, 4
#: Set-up-only fresh start-ups before each untraced pass.  setup_s is the
#: fastest start-up of the run: the median drifts with the host's speed
#: (it moved 20-25% between two sets of ten runs), the minimum of ~20
#: start-ups about a third as much.
SETUP_PROBES = 5
#: A run must end within 180 s whatever --seconds says.
RUN_DEADLINE_S = 170.0

END_TO_END = {
    "wall_vs_seed": "ratio", "setup_s": "s", "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

#: Per-layer metrics: layer -> stats reported.  ``hfactor.verify`` sums the
#: two public verify entry points.
LAYER_STATS = {
    "gf.raw_mul": ("calls",),
    "gf.raw_inv": ("calls",),
    "poly.mul": ("calls", "self_s", "out_coeffs"),
    "poly.divmod": ("calls", "self_s", "quot_coeffs"),
    "poly.pow_mod": ("calls", "self_s", "bits"),
    "poly.gcd": ("calls", "self_s"),
    "poly.is_irreducible": ("calls", "self_s", "true_frac"),
    "poly.compose_fraction": ("calls", "self_s"),
    "transform.transform": ("calls", "self_s"),
    "transform.is_invariant_generalized": ("calls", "self_s"),
    "transform.reconstruct": ("calls", "self_s"),
    "transform.irreducible_image_count": ("calls", "self_s"),
    "moebius.reduce_canonical": ("calls", "self_s"),
    "counting.brute_count": ("calls", "self_s"),
    "hfactor.verify": ("calls", "self_s"),
    "cli.main": ("calls", "self_s"),
}
LAYER_GROUPS = {
    "hfactor.verify": ("hfactor.verify_meyn_product",
                       "hfactor.verify_meyn_generalized"),
}
STAT_UNITS = {"self_s": "s", "true_frac": "ratio"}


def per_layer_units() -> dict[str, str]:
    units = {f"{layer}.{stat}": STAT_UNITS.get(stat, "count")
             for layer, stats in LAYER_STATS.items() for stat in stats}
    units.update({"wrappers.raised": "count", "trace_overhead": "ratio",
                  "trace_overhead.base_wall_s": "s"})
    return units


def layer_metrics(stats: dict[str, dict]) -> dict[str, float]:
    """Per-layer metric values from one traced pass's per-name stats."""
    out: dict[str, float] = {}
    for layer, wanted in LAYER_STATS.items():
        merged: dict[str, float] = {}
        for name in LAYER_GROUPS.get(layer, (layer,)):
            for key, value in stats.get(name, {}).items():
                merged[key] = merged.get(key, 0) + value
        for stat in wanted:
            if stat == "true_frac":
                calls = merged.get("calls", 0)
                value = merged.get("true", 0) / calls if calls else 0.0
            else:
                value = merged.get(stat, 0.0 if stat.endswith("_s") else 0)
            out[f"{layer}.{stat}"] = value
    out["wrappers.raised"] = sum(s.get("raised", 0) for s in stats.values())
    return out


def tally(passes: list[dict]) -> tuple[int, int, float]:
    """(attempted, failed, error_rate) over every item of every pass.

    An item fails on an exception, a nonzero exit code, a failed output
    check, an output digest other than the pinned one, or output bytes
    that differ from the frozen seed copy's or from the first pass's.
    """
    items = [item for p in passes for item in p["items"]]
    failed = sum(1 for item in items if item["error"])
    return len(items), failed, failed / len(items) if items else 1.0


def apply_digest_checks(passes: list[dict], pinned: dict[str, str] | None) -> None:
    """Mark items whose output bytes differ from the pin or from pass 1."""
    first = {item["id"]: item["sha256"] for item in passes[0]["items"]}
    for p in passes:
        for item in p["items"]:
            if item["error"]:
                continue
            if pinned is not None and item["sha256"] != pinned.get(item["id"]):
                item["error"] = "output digest differs from the pinned one"
            elif item["sha256"] != first[item["id"]]:
                item["error"] = "output bytes differ from the first pass"


def workload_digest(pass_result: dict) -> str:
    hexes = "".join(item["sha256"] or "-" for item in pass_result["items"])
    return hashlib.sha256(hexes.encode()).hexdigest()


def run_pass(items: list[dict], fields: list[str], kind: str, timeout: float,
             spans_path: Path | None = None, pass_index: int = 0) -> dict:
    """One pass in a fresh interpreter; a crash or timeout fails every item.

    ``kind`` is "plain", "traced" or "paired" (each item also run on the
    frozen seed copy).
    """
    request = {"root": str(ROOT), "fields": fields, "items": items,
               "trace": kind == "traced", "reference": kind == "paired",
               "pass_index": pass_index,
               "spans_path": str(spans_path) if spans_path else None}
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                              input=json.dumps(request), capture_output=True,
                              text=True, timeout=timeout, cwd=ROOT)
        reason = (None if proc.returncode == 0
                  else f"worker exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    except subprocess.TimeoutExpired:
        reason = f"pass timed out after {timeout:.0f} s"
    if reason is None:
        result = json.loads(proc.stdout.splitlines()[-1])
    else:
        result = {"setup_s": None, "setup_cpu_s": None, "peak_rss_mb": None,
                  "items": [{"id": item["id"], "seconds": None,
                             "cpu_seconds": None, "sha256": None,
                             "error": reason} for item in items]}
    result["kind"] = kind
    result["process_s"] = time.perf_counter() - start
    for key, total in (("seconds", "wall_s"), ("cpu_seconds", "cpu_s"),
                       ("ref_seconds", "ref_wall_s")):
        result[total] = sum(item.get(key) or 0.0 for item in result["items"])
    return result


def setup_probe(fields: list[str]) -> float | None:
    """Seconds from a fresh interpreter to ready, or None if it failed."""
    request = {"root": str(ROOT), "fields": fields, "setup_only": True}
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                              input=json.dumps(request), capture_output=True,
                              text=True, timeout=60, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def pass_kind(trace: bool, index: int) -> str:
    if trace:
        return "traced" if index % 2 else "plain"
    return "paired"


def wall_vs_seed(passes: list[dict]) -> float:
    """Time-weighted mean over items of each item's median qtk/seed ratio.

    Per-item medians over the passes drop the odd pair whose two runs saw
    different host speeds; the weights are the seed copy's median times.
    """
    ratios: dict[str, list[float]] = {}
    ref: dict[str, list[float]] = {}
    for p in passes:
        for item in p["items"]:
            if item["error"] is None:
                ratios.setdefault(item["id"], []).append(
                    item["seconds"] / item["ref_seconds"])
                ref.setdefault(item["id"], []).append(item["ref_seconds"])
    weights = {key: statistics.median(times) for key, times in ref.items()}
    return sum(w * statistics.median(ratios[key]) for key, w in weights.items()) \
        / sum(weights.values())


def provenance() -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qtk").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_commit": commit,
            "src_sha256": src.hexdigest(), "machine": platform.machine()}


def main(argv=None) -> int:
    pinned = json.loads(PINNED.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=pinned["seed"])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qtk" / "__init__.py").is_file():
        print(f"no qtk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    items = workloads.make_items(args.workload, args.seed)
    fields = workloads.item_fields(items)
    pin = pinned["workloads"].get(args.workload) if args.seed == pinned["seed"] else None
    pins = pin["items"] if pin else None
    min_passes = MIN_TRACE_PASSES if args.trace else MIN_PASSES

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    started = time.perf_counter()
    passes: list[dict] = []
    setups: list[float] = []
    while True:
        elapsed = time.perf_counter() - started
        kind = pass_kind(args.trace, len(passes))
        if passes:
            same = [p["process_s"] for p in passes if p["kind"] == kind]
            typical = statistics.median(same) if same else 2 * passes[-1]["process_s"]
            if len(passes) >= min_passes and elapsed + typical > args.seconds:
                break
            if elapsed + typical > RUN_DEADLINE_S - 10:
                break
        if not args.trace:
            setups += [t for t in (setup_probe(fields) for _ in range(SETUP_PROBES))
                       if t is not None]
        spans = (OUT_DIR / f"{tag}-pass{len(passes)}.spans.jsonl"
                 if kind == "traced" else None)
        passes.append(run_pass(items, fields, kind,
                               max(5.0, RUN_DEADLINE_S - elapsed), spans,
                               len(passes)))
    apply_digest_checks(passes, pins)
    attempted, failed, error_rate = tally(passes)

    # A pass whose worker crashed has failed all its items; it gives no times.
    done = {kind: [p for p in passes if p["kind"] == kind and p["setup_s"] is not None]
            for kind in ("plain", "traced", "paired")}
    units = per_layer_units() if args.trace else END_TO_END
    metrics = dict.fromkeys(units, 0.0)
    if args.trace and done["plain"] and done["traced"]:
        layer_runs = [layer_metrics(p["layers"]) for p in done["traced"]]
        for name in layer_runs[0]:
            metrics[name] = statistics.median(run[name] for run in layer_runs)
        base = statistics.median(p["wall_s"] for p in done["plain"])
        metrics["trace_overhead"] = statistics.median(
            p["wall_s"] for p in done["traced"]) / base
        metrics["trace_overhead.base_wall_s"] = base
    elif not args.trace and failed < attempted:
        metrics["wall_vs_seed"] = wall_vs_seed(done["paired"])
        metrics["setup_s"] = min(setups + [p["setup_s"] for p in done["paired"]])
        metrics["peak_rss_mb"] = statistics.median(
            p["peak_rss_mb"] for p in done["paired"])
        metrics["success_rate"] = 1.0 - error_rate

    prov = provenance()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": prov,
        "attempted": attempted, "failed": failed, "error_rate": error_rate,
        "digest": workload_digest(passes[0]),
        "pinned_digest": pin["digest"] if pin else None,
        "metrics": metrics, "setup_probes_s": setups,
        "trace_overhead_base": ("median wall_s of the untraced passes of this run"
                                if args.trace else None),
        "passes": passes,
    }
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1))

    for p in passes:
        print(f"pass {p['kind']} wall_s={p['wall_s']:.4f} cpu_s={p['cpu_s']:.4f} "
              f"ref_wall_s={p['ref_wall_s']:.4f} setup_s={p['setup_s']} "
              f"peak_rss_mb={p['peak_rss_mb']}")
    for p in passes:
        for item in p["items"]:
            if item["error"]:
                print(f"FAILED {item['id']}: {item['error']}")
    print(f"provenance {json.dumps(prov, sort_keys=True)}")
    print(f"digest {record['digest']} pinned {record['pinned_digest']} "
          f"error_rate {error_rate:.4f} ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
