#!/usr/bin/env python3
"""Whole-process benchmark of the FTGM simulator.

    python3 perfbench/run.py --workload ring512|bulk64|soak64 --seed N \
        --seconds S --trace 0|1

Run from the repository root. Builds the benchmark package (perfbench/,
which compiles ../src) under $CARGO_TARGET_DIR or .bench_build, then runs
the workload as separate processes, one cluster each, back to back for
about --seconds (at least MIN_PROCESSES). Each process checks every
delivery and the oracle's invariants; every process of a run must report
the same delivery digest and work counts, since the seed fixes the run.

The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}. With --trace 0 the metrics are the end-to-end ones
(medians over the processes); with --trace 1 they are the per-layer ones,
from one extra process of the traced binary, which also writes its spans
as Chrome trace-event JSON (see NOTES.md). Exits 1 when the build or any
check fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ring512", "bulk64", "soak64")
MIN_PROCESSES = 3
RUN_LIMIT_S = 170         # a run, build excluded, never takes longer


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configure (once) and build both binaries; returns the build dir."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            raise RuntimeError("build failed: " + " ".join(cmd))
    return out


def run_process(binary, workload, seed, extra=(), timeout=RUN_LIMIT_S):
    """One workload process; returns its JSON result line as a dict."""
    cmd = [binary, "--workload", workload, "--seed", str(seed)] + list(extra)
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError("%s timed out after %.0f s" % (workload, timeout))
    lines = r.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(r.stderr[-4000:])
        raise RuntimeError("%s exited %d without a result" % (workload, r.returncode))
    res = json.loads(lines[-1])
    if r.returncode != 0 and not res.get("error"):
        res["error"] = "exit code %d: %s" % (r.returncode, r.stderr.strip()[-500:])
    return res


def check(results):
    """First failed check across the processes of one run, or ''."""
    for res in results:
        if res["error"]:
            return res["error"]
        if res["delivered"] != res["posted"]:
            return "delivered %d of %d" % (res["delivered"], res["posted"])
    first = results[0]
    for res in results[1:]:
        for key in ("digest", "counts", "posted"):
            if res[key] != first[key]:
                return "same seed, different %s: %r vs %r" % (key, first[key], res[key])
    return ""


def median(results, fn):
    return statistics.median(fn(r) for r in results)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        out = build()
    except (RuntimeError, OSError) as e:
        log(str(e))
        return 1
    binary = os.path.join(out, "perfbench")

    t0 = time.monotonic()

    def left():
        return RUN_LIMIT_S - (time.monotonic() - t0)

    results = []
    try:
        # Start another process while it is expected to end within
        # --seconds, judged by the mean duration so far.
        while len(results) < MIN_PROCESSES or (
                (time.monotonic() - t0) * (len(results) + 1) / len(results)
                <= args.seconds):
            results.append(run_process(binary, args.workload, args.seed,
                                       timeout=left()))
            if results[-1]["error"]:
                break
        traced = None
        if args.trace == 1 and not results[-1]["error"]:
            os.makedirs(os.path.join(out, "traces"), exist_ok=True)
            trace_path = os.path.join(out, "traces", "%s-seed%d.json" %
                                      (args.workload, args.seed))
            traced = run_process(os.path.join(out, "perfbench_traced"),
                                 args.workload, args.seed,
                                 ["--trace-out", trace_path], timeout=left())
            log("trace written to " + trace_path)
    except (RuntimeError, OSError, ValueError) as e:
        log(str(e))
        return 1

    error = check(results + ([traced] if traced else []))
    if error:
        log("%s seed %d FAILED: %s" % (args.workload, args.seed, error))
    attempted = sum(r["posted"] for r in results)
    delivered = sum(r["delivered"] for r in results)
    if args.trace == 0:
        metrics = {
            "setup_s": (median(results, lambda r: r["setup_s"]), "s"),
            "wall_s": (median(results, lambda r: r["wall_s"]), "s"),
            "sim_per_wall": (median(results, lambda r: r["virt_s"] / r["window_s"]), "s/s"),
            "peak_rss_mb": (median(results, lambda r: r["peak_rss_mb"]), "MB"),
            "delivered_frac": (delivered / max(1, attempted), "ratio"),
        }
    elif traced is not None:
        metrics = {k: (v["value"], v["unit"]) for k, v in traced["layers"].items()}
        untraced_wall = median(results, lambda r: r["wall_s"])
        metrics["trace.overhead_frac"] = (traced["wall_s"] / untraced_wall - 1, "ratio")
    else:
        metrics = {}
    log("%s seed %d: %d processes, wall_s %s" % (
        args.workload, args.seed, len(results),
        " ".join("%.3f" % r["wall_s"] for r in results)))
    print(json.dumps({
        "correct": not error,
        "attempted": attempted,
        "failed": attempted - delivered,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if error else 0


if __name__ == "__main__":
    sys.exit(main())
