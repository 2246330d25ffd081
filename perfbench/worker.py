"""One pass over a workload's item list, in a fresh interpreter.

Reads a JSON request on stdin, imports qtk from the checkout's ``src``,
runs every item in order (one caller, each item sent after the previous
one returns), checks each output and prints one JSON result line.

A fresh interpreter per pass means the process-level caches of qtk start
cold, as they do for a CLI user, and fill during the pass, as they do in
the test suite.

With ``reference`` set, every item also runs on ``qtk_seed``, the frozen
copy of qtk in ``seedref/``, right before or after the checkout's qtk
(alternating).  The host's CPU speed drifts by up to ~1.7x over minutes,
but two runs of an item a moment apart see the same speed, so the ratio of
the two times is steady where either time alone is not.  The reference's
output bytes must also equal the checkout's.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer, installed

HERE = Path(__file__).resolve().parent


def run_item(item: dict, package: str = "qtk", tracer: Tracer | None = None) -> dict:
    """Run one item on ``package``; time the program call only, then check."""
    import workloads

    cli = importlib.import_module(f"{package}.cli")
    gf = importlib.import_module(f"{package}.gf")
    poly = importlib.import_module(f"{package}.poly")
    out = io.StringIO()
    result = {"id": item["id"], "seconds": None, "cpu_seconds": None,
              "sha256": None, "error": None}
    span = tracer.span("item") if tracer else contextlib.nullcontext()
    if tracer:
        tracer.item = item["id"]
    cpu_start, start = time.process_time(), time.perf_counter()
    try:
        with span:
            if item["kind"] == "cli":
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()) as err:
                    code = cli.main(list(item["argv"]))
                payload = out.getvalue()
            else:
                spec = gf.field_make(item["p"])
                payload = list(poly.enumerate_monic_irreducible(spec, item["d"]))
                code = 0
    except Exception:
        result["seconds"] = time.perf_counter() - start
        result["cpu_seconds"] = time.process_time() - cpu_start
        result["error"] = traceback.format_exc(limit=-3).strip().splitlines()[-1]
        return result
    result["seconds"] = time.perf_counter() - start
    result["cpu_seconds"] = time.process_time() - cpu_start
    if code != 0:
        result["error"] = f"exit code {code}: {err.getvalue().strip()[:200]}"
        return result
    if item["kind"] == "enum":
        reason = workloads.check_enum(item, payload)
        payload = "\n".join(f.to_text() for f in payload) + "\n"
    else:
        reason = workloads.CHECKS[item["check"]](item, payload)
    result["sha256"] = hashlib.sha256(payload.encode()).hexdigest()
    result["error"] = reason
    return result


def run_paired(item: dict, reference_first: bool) -> dict:
    """Run an item on qtk and on qtk_seed back to back."""
    if reference_first:
        ref = run_item(item, "qtk_seed")
        result = run_item(item, "qtk")
    else:
        result = run_item(item, "qtk")
        ref = run_item(item, "qtk_seed")
    result["ref_seconds"] = ref["seconds"]
    if result["error"] is None:
        if ref["error"]:
            result["error"] = f"frozen seed copy failed: {ref['error']}"
        elif ref["sha256"] != result["sha256"]:
            result["error"] = "output bytes differ from the frozen seed copy's"
    return result


def main() -> int:
    request = json.load(sys.stdin)
    src = Path(request["root"]) / "src"
    sys.path.insert(0, str(src))

    cpu_start, start = time.process_time(), time.perf_counter()
    import qtk
    from qtk import cli, gf, poly  # noqa: F401  (imported as a CLI user would)
    for name in request["fields"]:
        gf.field_from_name(name)
    setup_s = time.perf_counter() - start
    setup_cpu_s = time.process_time() - cpu_start
    if Path(qtk.__file__).resolve().parent.parent != src.resolve():
        print(f"qtk imported from {qtk.__file__}, not {src}", file=sys.stderr)
        return 2
    if request.get("setup_only"):
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = Tracer() if request["trace"] else None
    if request["reference"]:
        sys.path.insert(0, str(HERE / "seedref"))
        from qtk_seed import cli as _, gf as seed_gf  # noqa: F401
        for name in request["fields"]:
            seed_gf.field_from_name(name)
        # which copy runs first alternates by item and by pass
        items = [run_paired(item, (i + request["pass_index"]) % 2 == 0)
                 for i, item in enumerate(request["items"])]
    else:
        with installed(tracer) if tracer else contextlib.nullcontext():
            items = [run_item(item, "qtk", tracer) for item in request["items"]]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    answer = {"setup_s": setup_s, "setup_cpu_s": setup_cpu_s,
              "peak_rss_mb": peak_rss_mb, "items": items}
    if tracer:
        answer["layers"] = tracer.stats()
        if request.get("spans_path"):
            with open(request["spans_path"], "w") as fh:
                for name, t0, t1, parent, item in tracer.spans:
                    fh.write(json.dumps([name, t0, t1, parent, item]) + "\n")
    print(json.dumps(answer))
    return 0


if __name__ == "__main__":
    sys.exit(main())
