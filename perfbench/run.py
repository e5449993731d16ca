#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the benchmark program (perfbench/src)
and trace-validate from source (CMake, into $CARGO_TARGET_DIR or
.bench_build),
runs one workload and prints, as the last line of stdout, one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1 they
are its per-layer metrics, the layer timings taken as self times from the
run's Chrome trace after trace-validate has accepted it.

Extra flags for the benchmark's own tests: --smoke (tiny inputs),
--expected FILE (reference values instead of perfbench/expected.txt),
--tamper-oracle (serving oracle claims wrong points-to answers).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Benchmark-side span name -> per-layer timing metric (median self time
# per iteration, set-up round or swap, in seconds).
SPAN_METRICS = {
    "workload.gen": "workload.gen_s",
    "ir.cha": "ir.cha_s",
    "pta.ci": "pta.ci_s",
    "core.fpg": "core.fpg_s",
    "core.automata": "core.automata_s",
    "pta.cs": "pta.cs_s",
    "clients": "clients.s",
    "serve.snapshot_build": "serve.snapshot_build_s",
    "serve.snapshot_encode": "serve.snapshot_encode_s",
    "serve.decode": "serve.decode_s",
    "serve.engine_build": "serve.engine_build_s",
    "bench.setup": "trace.setup_self_s",
    "bench.iteration": "trace.iteration_self_s",
}
BENCH_SPANS = set(SPAN_METRICS) | {"net.reply", "net.swap"}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures once, then builds incrementally. Returns the bin dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("error: library sources (src/) not found next to perfbench/")
        sys.exit(2)
    os.makedirs(build_dir, exist_ok=True)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            log("error: cmake configure failed")
            sys.exit(2)
    jobs = str(max(1, os.cpu_count() or 1))
    rc = subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                         "--target", "perfbench", "trace-validate"],
                        stdout=sys.stderr).returncode
    if rc != 0:
        log("error: build failed")
        sys.exit(2)
    return build_dir


def self_times(trace_path):
    """Median self time per benchmark span name, over span ids.

    Self time is a span's duration minus the part of it covered by its
    direct child benchmark spans on the same lane. Spans recorded inside
    the library are not layer boundaries and are ignored here."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    lanes = defaultdict(list)
    for e in events:
        if e.get("ph") == "X" and e["name"] in BENCH_SPANS:
            lanes[e["tid"]].append(e)
    per_id = defaultdict(lambda: defaultdict(float))
    for spans in lanes.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []
        selfs = []
        for e in spans:
            while stack and stack[-1][0]["ts"] + stack[-1][0]["dur"] <= e["ts"]:
                stack.pop()
            rec = [e, e["dur"]]
            if stack:
                stack[-1][1] -= e["dur"]
            stack.append(rec)
            selfs.append(rec)
        for e, self_us in selfs:
            span_id = e.get("args", {}).get("id", 0)
            per_id[e["name"]][span_id] += max(0.0, self_us) / 1e6
    return {name: statistics.median(ids.values())
            for name, ids in per_id.items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--expected",
                    default=os.path.join(HERE, "expected.txt"))
    ap.add_argument("--tamper-oracle", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
        "perfbench")
    bin_dir = build(build_dir)
    work_dir = os.path.join(build_dir, "work")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)

    cmd = [os.path.join(bin_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--expected", args.expected]
    if args.smoke:
        cmd.append("--smoke")
    if args.tamper_oracle:
        cmd.append("--tamper-oracle")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=175)
    if proc.returncode != 0:
        log("error: perfbench exited with", proc.returncode)
        sys.exit(1)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = result["metrics"]

    if args.trace:
        trace = os.path.join(work_dir, "trace.json")
        check = subprocess.run([os.path.join(bin_dir, "trace-validate"),
                                trace], stdout=subprocess.PIPE, text=True)
        log("trace-validate:", check.stdout.strip() or "failed")
        if check.returncode != 0:
            result["correct"] = False
            result["failed"] += 1
        times = self_times(trace)
        for span, name in SPAN_METRICS.items():
            metrics[name] = {"value": times.get(span, 0.0), "unit": "s"}
        with open(trace) as f:
            n_events = sum(1 for e in json.load(f)["traceEvents"]
                           if e.get("ph") == "X")
        metrics["trace.events"] = {"value": n_events, "unit": "count"}

    out = {}
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log("error: metric", m["name"], "missing or with another unit")
            sys.exit(1)
        out[m["name"]] = got
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": out}))


if __name__ == "__main__":
    main()
