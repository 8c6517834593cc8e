#!/usr/bin/env python3
"""Seed checks for perfbench.

Runs every workload traced, twice with one seed and once with a held-out
seed. The two same-seed runs must report identical counts. The held-out
run must report an error_rate of 0; its shape assertions hold when it
exits with code 0.

Run from the repository root:

    python3 perfbench/check_seeds.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 1
HELD_OUT = 9001
SECONDS = 2
WORKLOADS = ["scan-join-mem", "recover-best-mem", "resume-disk"]
# Counts that must repeat exactly for a seed.
COUNTS = [
    "stored_kb_per_query",
    "search.configs_explored",
    "search.materialized_ops",
    "engine.node_retries",
    "engine.stages_skipped",
    "store.puts",
    "store.fsyncs",
    "store.gets",
    "store.read_kb",
]


def run(workload, seed):
    cmd = [
        "cargo", "run", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"), "--",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(SECONDS), "--trace", "1",
    ]
    p = subprocess.run(cmd, capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    return result, {k: v["value"] for k, v in result["metrics"].items()}


def main():
    problems = []
    for w in WORKLOADS:
        _, a = run(w, SEED)
        _, b = run(w, SEED)
        for k in COUNTS:
            if a[k] != b[k]:
                problems.append(f"{w}: {k} differs between two runs of seed {SEED}: {a[k]} vs {b[k]}")
        held, h = run(w, HELD_OUT)
        if not held["correct"] or h["error_rate"] != 0:
            problems.append(f"{w}: held-out seed {HELD_OUT} has error_rate {h['error_rate']}")
        print(f"{w}: " + ", ".join(f"{k}={a[k]:g}" for k in COUNTS))
    for p in problems:
        print(p, file=sys.stderr)
    if problems:
        sys.exit(1)
    print(f"seed checks passed (seed {SEED} twice, held-out seed {HELD_OUT})")


if __name__ == "__main__":
    main()
