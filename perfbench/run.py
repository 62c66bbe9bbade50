#!/usr/bin/env python3
"""Builds the library and the benchmark from source, then runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload gemm_dense --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
current directory. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; with --trace 0 the metrics
are the end_to_end metrics of BENCHMARK.json, with --trace 1 its per_layer
metrics. The result line is printed only when it carries exactly those
metrics.

    python3 perfbench/run.py --check-counts --workload W --seed N --seconds S

runs the traced workload twice at one seed and fails if any count that must
repeat exactly (data movement, linking, simulator bytes, and the closed-loop
PlanCache counts) differs between the two runs.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("gemm_dense", "tensor_chain", "serving_mix")
# Seconds one measured run may take once the benchmark is built.
RUN_TIMEOUT_S = 170

# Per-layer counts that are fixed by the compiled artifacts and the seeded
# schedule, so two traced runs at one seed must agree on them exactly.
EXACT_COUNTS = (
    "region.gathered_bytes", "region.elided_bytes", "region.writeback_bytes",
    "region.writeback_elided_bytes", "region.moved_bytes",
    "region.gather_replay_bytes", "compiled_program.elided_gather_bytes",
    "compiled_program.direct_deps", "compiled_program.barrier_deps",
    "compiled_plan.footprint_bytes", "simulator.comm_bytes",
    "governor.degraded", "governor.shed",
)
CLOSED_LOOP_EXACT_COUNTS = (
    "plan_cache.hits", "plan_cache.misses", "plan_cache.program_hits",
    "plan_cache.program_misses",
)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures and builds perfbench; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "Tensor.h")):
        fail("library sources not found under " + os.path.join(ROOT, "src"))
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(tool + " not found")
    out = build_dir()
    cfg = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(out, "CMakeCache.txt")):
        cfg += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (cfg, ["cmake", "--build", out, "-j", jobs]):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_once(binary, args):
    """Runs the benchmark binary; returns (stdout lines, parsed result)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("DISTAL_")}
    env["DISTAL_NUM_THREADS"] = str(os.cpu_count() or 1)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail("benchmark exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail("metrics differ from BENCHMARK.json: missing %s, unexpected %s, "
             "unit mismatch %s" % (
                 sorted(set(want) - set(got)), sorted(set(got) - set(want)),
                 sorted(k for k in want if k in got and got[k] != want[k])))
    return lines, result


def check_counts(binary, args):
    args.trace = 1
    names = EXACT_COUNTS + (CLOSED_LOOP_EXACT_COUNTS
                            if args.workload != "serving_mix" else ())
    _, first = run_once(binary, args)
    _, second = run_once(binary, args)
    bad = [n for n in names if first["metrics"][n]["value"] !=
           second["metrics"][n]["value"]]
    for n in names:
        print("%-40s %18.17g %18.17g%s" % (
            n, first["metrics"][n]["value"], second["metrics"][n]["value"],
            "  DIFFERS" if n in bad else ""))
    if bad:
        fail("counts that must repeat exactly differ: " + ", ".join(bad))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--check-counts", action="store_true")
    args = p.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    binary = build()
    if args.check_counts:
        check_counts(binary, args)
        return
    started = time.monotonic()
    lines, _ = run_once(binary, args)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print("run took %.1f s" % (time.monotonic() - started))
    print(lines[-1])


if __name__ == "__main__":
    main()
