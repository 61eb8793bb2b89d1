"""One benchmark iteration in a fresh interpreter.

Every user invocation of formlap pays cold caches and a cold mesh
build, so run.py starts this script once per iteration.  It imports
what the workload needs (the set-up), marks the moment of the first
call into formlap, runs the workload to its verdict, and writes one
JSON result file.  With --probe it stops after the set-up; with
--trace it installs the span tracer first.

    python3 perfbench/child.py --workload NAME --seed N --size full \
        --workdir DIR --result FILE [--probe] [--trace SPANS_FILE]

formlap must be importable (run.py puts src/ on PYTHONPATH).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--trace", type=Path, default=None)
    args = ap.parse_args()

    if "FORMLAP_CACHE_DIR" in os.environ:
        print("FORMLAP_CACHE_DIR must be unset: the benchmark measures cold runs",
              file=sys.stderr)
        return 2

    import workloads

    workloads.setup_imports(args.workload)
    tracer = None
    if args.trace is not None:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    runner = workloads.RUNNERS[args.workload]
    cfg = workloads.SIZES[args.workload][args.size]

    ready = time.time()
    result: dict = {"ready": ready}
    if not args.probe:
        args.workdir.mkdir(parents=True, exist_ok=True)
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        if tracer is None:
            checks, outputs, accuracy = runner(args.seed, cfg, args.workdir)
        else:
            checks, outputs, accuracy = tracer.root(runner, args.seed, cfg, args.workdir)
        run_s = time.perf_counter() - t0
        cpu_s = _cpu_s() - cpu0

        result.update(run_s=run_s, cpu_s=cpu_s, checks=checks, accuracy=accuracy)
        # the first report (verify, or the torus oracle) has a deterministic payload
        from formlap.cli import report_payload_bytes

        if outputs[0].exists():
            result["payload_sha256"] = hashlib.sha256(
                report_payload_bytes(outputs[0])).hexdigest()
        report_bytes = sum(p.stat().st_size for p in outputs if p.exists())
        if tracer is not None:
            result["layers"] = tracer.layer_metrics(report_bytes)
            result["run_id"] = tracer.run_id
            result["spans"] = len(tracer.spans)
            tracer.write_spans(args.trace)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
