#!/usr/bin/env python3
"""Exact-repeat check for the single-thread workloads.

    python3 perfbench/repeat_check.py [--seed N] [--seconds S]

Runs search_hot and ingest_disk twice with one seed and once with
another. The counts below must be identical between the two same-seed
runs: they depend only on the generated inputs, never on timing. The
other seed must change the inputs (the input fingerprint each run
reports). Exits non-zero on any difference, or if a run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

EXACT = (
    "rtree.nodes_per_search",
    "rtree.nodes_per_insert",
    "rtree.splits_per_1k_inserts",
    "storage.write_amp",
    "storage.checkpoints_per_insert",
    "space_amp",
    "srtree.cuts_per_insert",
    "srtree.spanning_placed_per_insert",
    "srtree.demotions",
    "srtree.promotions",
    "skeleton.coalesced_nodes",
)
WORKLOADS = ("search_hot", "ingest_disk")


def report(binary, workdir, workload, seed, seconds):
    proc = subprocess.run(
        [binary, f"--workload={workload}", f"--seed={seed}",
         f"--seconds={seconds:g}", "--trace=0", f"--workdir={workdir}"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=run.RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=1)
    args = parser.parse_args()
    root = os.path.dirname(HERE)
    build_dir = os.path.abspath(os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    binary = run.build(build_dir)
    workdir = os.path.join(build_dir, "work")

    ok = True
    for workload in WORKLOADS:
        a = report(binary, workdir, workload, args.seed, args.seconds)
        b = report(binary, workdir, workload, args.seed, args.seconds)
        c = report(binary, workdir, workload, args.seed + 1, args.seconds)
        for name in EXACT:
            va = a["metrics"][name]["value"]
            vb = b["metrics"][name]["value"]
            vc = c["metrics"][name]["value"]
            same = va == vb
            ok &= same
            print(f"{workload:<12} {name:<36} {va:>16.6f} "
                  f"{'repeats' if same else f'DIFFERS ({vb:.6f})':<24} "
                  f"other seed {vc:.6f}")
        fresh = a["fingerprint"] != c["fingerprint"]
        repeat = a["fingerprint"] == b["fingerprint"]
        ok &= fresh and repeat
        print(f"{workload:<12} inputs: same seed "
              f"{'same' if repeat else 'DIFFERENT'}, other seed "
              f"{'different' if fresh else 'SAME'}")
    print("exact-repeat check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
