#!/usr/bin/env python3
"""Real-time TPC-W benchmark of record for SharedDB.

Builds perfbench/ (Release) into .bench_build/, runs one workload in a fresh
process against a live server, and prints every metric with its unit and
sample count; the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones. --workload all runs every workload in turn
(each in its own process) and exits non-zero if any check fails.

    python3 perfbench/run.py --workload browse --seed 1 --seconds 20 --trace 0

Workload settings (rates, scale, latency limit, ladder) live in
perfbench/workloads.json; NOTES.md explains them.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
BINARY = BUILD_DIR / "tpcw_bench"
RUN_TIMEOUT_S = 170

# Shares of --seconds given to each measured phase. The untraced run's
# ladder share is split evenly over its bisection probes. The traced run has
# no ladder but measures the peak rate twice (traced, then untraced as the
# reference for the tracing overhead).
LIGHT_SHARE, PEAK_SHARE, LADDER_SHARE = 0.30, 0.50, 0.20
TRACED_LIGHT_SHARE, TRACED_PEAK_SHARE = 0.25, 0.375


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once and builds incrementally; a failed build exits 3."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    out = sys.stderr
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        rc = subprocess.call(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=Release"], stdout=out, stderr=out)
        if rc != 0:
            log("perfbench: cmake configure failed")
            sys.exit(3)
    jobs = str(os.cpu_count() or 1)
    rc = subprocess.call(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                         stdout=out, stderr=out)
    if rc != 0 or not BINARY.exists():
        log("perfbench: build failed")
        sys.exit(3)


def source_revision():
    """git sha when the tree is a git checkout, else a hash of src/."""
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def bench_args(name, wl, seed, seconds, trace, work_dir):
    args = {
        "workload": name, "seed": seed, "trace": int(trace),
        "transport": wl["transport"], "mix": wl["mix"],
        "items": wl["items"], "ebs": wl["ebs"],
        "light-rate": wl["light_rate"], "peak-rate": wl["peak_rate"],
        "light-s": seconds * (TRACED_LIGHT_SHARE if trace else LIGHT_SHARE),
        "peak-s": seconds * (TRACED_PEAK_SHARE if trace else PEAK_SHARE),
        "ladder-s": seconds * LADDER_SHARE,
        "ladder-base": wl["ladder_base"],
        "limit-ms": wl["limit_ms"], "setup-reps": wl["setup_reps"],
        "wal-replay-check": int(wl["wal_replay_check"]),
        "work-dir": str(work_dir),
    }
    cmd = [str(BINARY)]
    for k, v in args.items():
        cmd += ["--" + k, str(v)]
    return cmd


def run_workload(name, wl, seed, seconds, trace):
    """Runs one workload in a fresh process; returns its parsed result."""
    work_dir = BUILD_ROOT / "work" / f"{name}.{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        proc = subprocess.run(bench_args(name, wl, seed, seconds, trace, work_dir),
                              cwd=str(ROOT), stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
        spans = work_dir / f"{name}.spans.csv"
        if spans.exists():
            traces = BUILD_ROOT / "traces"
            traces.mkdir(exist_ok=True)
            shutil.move(str(spans), str(traces / spans.name))
    except subprocess.TimeoutExpired:
        log(f"perfbench: {name} did not finish within {RUN_TIMEOUT_S} s")
        return None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if not lines:
        log(f"perfbench: {name} exited {proc.returncode} without a result")
        return None
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    return result


def print_result(name, result, wanted, meta):
    print(f"== {name}")
    for k, v in meta.items():
        print(f"   meta {k}: {v}")
    for k, v in result["meta"].items():
        print(f"   meta {k}: {v}")
    for c in result["checks"]:
        print(f"   check {c['name']}: {'ok' if c['ok'] else 'FAIL'} ({c['detail']})")
    for k, m in result["metrics"].items():
        mark = "*" if k in wanted else " "
        n = f"  (n={m['n']})" if m["n"] else ""
        print(f" {mark} {k} = {m['value']:.6g} {m['unit']}{n}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = json.loads((BENCH_DIR / "workloads.json").read_text())
    seconds = a.seconds if a.seconds is not None else spec["run_seconds"]
    names = list(workloads) if a.workload == "all" else [a.workload]
    for n in names:
        if n not in workloads:
            log(f"perfbench: unknown workload '{n}'")
            sys.exit(2)
    key = "per_layer" if a.trace else "end_to_end"
    wanted = {m["name"]: m for m in spec[key]}

    build()
    meta = {"cpu_model": cpu_model(), "nproc": os.cpu_count(),
            "revision": source_revision(), "seconds": seconds}
    ok = True
    final = None
    for n in names:
        result = run_workload(n, workloads[n], a.seed, seconds, a.trace)
        if result is None:
            sys.exit(1)
        print_result(n, result, wanted, meta)
        missing = [k for k in wanted if k not in result["metrics"]]
        wrong_unit = [k for k in wanted if k not in missing and
                      result["metrics"][k]["unit"] != wanted[k]["unit"]]
        if missing or wrong_unit:
            log(f"perfbench: {n} did not report {missing}, wrong units {wrong_unit}")
            sys.exit(1)
        ok = ok and result["correct"] and result["exit_code"] == 0
        final = {
            "correct": bool(result["correct"] and result["exit_code"] == 0),
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": result["metrics"][k]["value"],
                            "unit": result["metrics"][k]["unit"]} for k in wanted},
        }
    if len(names) == 1:
        print(json.dumps(final))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
