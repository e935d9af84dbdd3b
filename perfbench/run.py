#!/usr/bin/env python3
"""The repo benchmark: builds segidx from source and runs one workload.

    python3 perfbench/run.py --workload search_hot|ingest_disk|serve_mixed \
        --seed N --seconds S --trace 0|1

Run it from the root of the repository. It configures and builds the
benchmark package (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, runs the workload, and prints one JSON
object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end list of BENCHMARK.json;
with --trace 1 they are its per_layer list, and the run also writes its
spans to <build>/traces/. A human-readable table of every metric the
workload measured, with sample counts, goes to stderr. The exit code is
non-zero when the build fails, a run fails, or a correctness check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import trace_summary  # noqa: E402

WORKLOADS = ("search_hot", "ingest_disk", "serve_mixed")
RUN_TIMEOUT_S = 170
BUILD_JOBS = str(min(os.cpu_count() or 1, 4))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark; output goes to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", BUILD_JOBS,
                    "--target", "segidx_perfbench"],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "segidx_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.abspath(os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    # A private directory for the run's index files.
    os.makedirs(os.path.join(build_dir, "work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-",
                               dir=os.path.join(build_dir, "work"))
    trace_path = os.path.join(build_dir, "traces",
                              f"{args.workload}-seed{args.seed}.spans")
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds:g}", f"--trace={args.trace}",
           f"--workdir={workdir}"]
    if args.trace:
        cmd.append(f"--trace-out={trace_path}")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"{args.workload} exited with {proc.returncode} and no report")
        return 1
    report = json.loads(lines[-1])
    measured = report["metrics"]

    if args.trace:
        rows = trace_summary.summarize(trace_summary.load(trace_path))
        trace_summary.print_summary(trace_path, rows, out=sys.stderr)
        nodes = measured["rtree.nodes_per_search"]["value"]
        for name, (value, unit) in trace_summary.derived_metrics(
                rows, nodes).items():
            measured[name] = {"value": value, "unit": unit, "samples": 0,
                          "chunks": 0}

    for name, got in measured.items():
        samples = f"n={got['samples']}" if got["samples"] else ""
        if got["chunks"]:
            samples += f" in {got['chunks']} chunks"
        log(f"  {name:<36} {got['value']:>16.4f} {got['unit']:<6} {samples}")
    metrics = {}
    missing = []
    for m in wanted:
        got = measured.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    for err in report.get("errors", []):
        log(f"correctness: {err}")
    if missing:
        log(f"metrics missing or with the wrong unit: {', '.join(missing)}")
        return 1

    correct = bool(report["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct,
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
