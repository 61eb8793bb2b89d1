#!/usr/bin/env python3
"""formlap benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload verify-grid --seed 1 --seconds 10 --trace 0

Run from the root of a formlap checkout; formlap is imported from its
src/ tree, nothing is installed.  The load is closed-loop with one
client: each iteration is a fresh interpreter (perfbench/child.py)
that pays cold caches like a user invocation does, and the next one
starts when the previous has its verdict.  A run starts iterations
until --seconds have passed, so it makes at least one and overruns
the window by at most one iteration.

--trace 0 prints the end-to-end metrics (medians over the iterations,
set-up time also over set-up-only probes).  --trace 1 makes one
untraced iteration, then one traced iteration, and prints the
per-layer metrics plus trace_overhead, the traced run_s over the
untraced one.

Every iteration's verdict is checked; the last line of standard output
is one JSON object with the keys correct, attempted, failed and
metrics, where attempted and failed count verdict checks.  The line
before it holds the provenance, the per-iteration figures, the
accuracy values and the report payload digests.  Exit code 0 when a
result was printed, 2 on a usage error or when there is no formlap
source tree, 1 when no iteration produced a result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_METRICS

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"

WORKLOADS = ("verify-grid", "oracles")
E2E_METRICS = [("run_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
BLAS_THREADS = 1        # one BLAS thread: steadier on a shared machine, and <= nproc
SETUP_PROBES = 5
RUN_BUDGET_S = 170.0    # a run must end within 180 s


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("FORMLAP_CACHE_DIR", None)      # every run is cold
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(env: dict[str, str], workload: str, seed: int, size: str, workdir: Path,
          timeout: float, probe: bool = False, spans: Path | None = None) -> dict:
    """Run one child to completion; its result, or {"error": ...}."""
    workdir.mkdir(parents=True, exist_ok=True)
    result_path = workdir / "result.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(CHILD), "--workload", workload, "--seed", str(seed),
           "--size", size, "--workdir", str(workdir / "out"), "--result", str(result_path)]
    if probe:
        cmd.append("--probe")
    if spans is not None:
        cmd += ["--trace", str(spans)]
    spawned = time.time()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr)
    try:
        rc = proc.wait(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s", "wall": time.perf_counter() - t0}
    finally:
        if proc.poll() is None:     # timed out or interrupted: never leave it running
            proc.kill()
            proc.wait()
    wall = time.perf_counter() - t0
    if rc != 0 or not result_path.exists():
        return {"error": f"child exited with code {rc}", "wall": wall}
    result = json.loads(result_path.read_text())
    result["setup_s"] = result.pop("ready") - spawned
    result["wall"] = wall
    shutil.rmtree(workdir / "out", ignore_errors=True)
    return result


def provenance(root: Path, seed: int) -> dict:
    git: dict = {"sha": None, "dirty": None}
    if (root / ".git").exists() and shutil.which("git"):
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, check=False)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=root,
                                capture_output=True, text=True, check=False)
        if sha.returncode == 0:
            git = {"sha": sha.stdout.strip(), "dirty": bool(status.stdout.strip())}
    else:
        git["note"] = "not a git checkout"
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass

    def version(pkg: str) -> str | None:
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    nproc = len(os.sched_getaffinity(0))
    if BLAS_THREADS > nproc:
        raise SystemExit(f"BLAS thread count {BLAS_THREADS} exceeds nproc {nproc}")
    return {
        "git": git,
        "nproc": nproc,
        "cpu_model": cpu_model,
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((root / "src").rglob("*.py"))),
        "formlap_cache_dir": "unset in every iteration",
        "formlap_cache_dir_set_by_caller": "FORMLAP_CACHE_DIR" in os.environ,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: the smallest size of the workload (harness self-test)")
    args = ap.parse_args(argv)
    # on SIGTERM unwind through the finally blocks, which stop the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "formlap" / "cli.py").is_file():
        print("perfbench: no formlap source tree at ./src/formlap; run from a checkout root",
              file=sys.stderr)
        return 2
    start = time.monotonic()
    env = child_env(root)
    build = root / ".bench_build"
    workdir = build / f"perfbench-{os.getpid()}"
    prov = provenance(root, args.seed)

    def remaining() -> float:
        return RUN_BUDGET_S - (time.monotonic() - start)

    try:
        probes = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probe = spawn(env, args.workload, args.seed, args.size, workdir,
                              remaining(), probe=True)
                if "error" not in probe:
                    probes.append(probe["setup_s"])
        iterations = []
        window = time.monotonic()
        while True:
            it = spawn(env, args.workload, args.seed, args.size, workdir, remaining())
            iterations.append(it)
            if (args.trace or time.monotonic() - window >= args.seconds
                    or it["wall"] > remaining()):
                break
        traced = None
        if args.trace:
            spans = build / "perfbench-traces" / f"{args.workload}-seed{args.seed}.json"
            spans.parent.mkdir(parents=True, exist_ok=True)
            traced = spawn(env, args.workload, args.seed, args.size, workdir, remaining(),
                           spans=spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    done = [it for it in iterations if "error" not in it]
    verdicts = []
    for it in iterations + ([traced] if traced is not None else []):
        if "error" in it:
            verdicts.append(("iteration_completed", False, it["error"]))
        else:
            verdicts.extend(tuple(c) for c in it["checks"])
    attempted = len(verdicts)
    failed = [v for v in verdicts if not v[1]]

    if not done or (args.trace and "error" in traced):
        for name, _, detail in failed:
            print(f"perfbench: {name}: {detail}", file=sys.stderr)
        print("perfbench: no iteration produced a result", file=sys.stderr)
        return 1

    if args.trace:
        layers = dict(traced["layers"])
        layers["trace_overhead"] = traced["run_s"] / statistics.median(
            it["run_s"] for it in done)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in LAYER_METRICS}
    else:
        values = {
            "run_s": statistics.median(it["run_s"] for it in done),
            "cpu_s": statistics.median(it["cpu_s"] for it in done),
            "setup_s": statistics.median(probes + [it["setup_s"] for it in done]),
            "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in done),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_METRICS}

    accuracy: dict[str, dict] = {"fail_frac": {"value": len(failed) / attempted, "unit": "ratio"}}
    for key in sorted({k for it in done for k in it["accuracy"]}):
        seen = [it["accuracy"][key] for it in done if it["accuracy"].get(key) is not None]
        accuracy[key] = {"value": max(seen, default=None), "unit": "ratio"}
    detail = {
        "workload": args.workload,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, one client, one fresh interpreter per iteration",
        "provenance": prov,
        "setup_probes_s": probes,
        "iterations": [{k: it.get(k) for k in ("run_s", "cpu_s", "setup_s", "peak_rss_mb",
                                               "wall", "payload_sha256", "error")}
                       for it in iterations],
        "verdict_failures": [list(v) for v in failed],
        "accuracy": accuracy,
        "payload_sha256": sorted({it["payload_sha256"] for it in done if "payload_sha256" in it}),
    }
    if traced is not None:
        detail["traced"] = {"run_id": traced["run_id"], "spans": traced["spans"],
                           "run_s": traced["run_s"]}
    for name, _, info in failed:
        print(f"perfbench: verdict check failed: {name}: {info}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
