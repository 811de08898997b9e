#!/usr/bin/env python3
"""Benchmark of record for the LVF2 paper flow: one workload, one seed.

    python3 perfbench/run.py --workload libchar --seed 1 --seconds 30 --trace 0

Builds the benchmark package (perfbench/Cargo.toml) from source, runs one
workload, checks the metric names against BENCHMARK.json, writes the result
with its provenance under perfbench/out/results/, and prints the result as
the last line of standard output:

    {"correct": true, "attempted": 26, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones. The exit code is 0 when every correctness check passed, 1
when one failed, and 2 when the benchmark could not run (no result line).
See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def output(cmd, cwd=ROOT):
    """Stdout of `cmd`, or None when it cannot run."""
    try:
        r = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def provenance(args):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = os.environ.get("LVF2_COMMIT")
    if not commit and os.path.isdir(os.path.join(ROOT, ".git")):
        commit = output(["git", "rev-parse", "HEAD"])
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "machine": platform.machine(),
        "commit": commit or "unknown",
        "rustc": output(["rustc", "--version"]) or "unknown",
    }


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join("perfbench", "Cargo.toml")]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        log(f"cannot run cargo: {e}")
        return None
    if r.returncode != 0:
        log("build failed")
        return None
    return os.path.join(ROOT, target, "release", "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["libchar", "ssta_graph", "serve_mix"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    p.add_argument("--results-dir", default=os.path.join("perfbench", "out", "results"),
                   help="where the result with its provenance is written")
    args = p.parse_args()

    binary = build()
    if binary is None:
        return 2
    prov = provenance(args)
    print("provenance: " + json.dumps(prov, sort_keys=True), flush=True)

    cmd = [binary, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join("perfbench", "out")]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"workload did not finish within {RUN_TIMEOUT_S} s")
        return 2
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(r.stdout)
        log(f"benchmark exited with {r.returncode} and no result")
        return 2
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(args.trace)
    if got != want or set(result) != {"correct", "attempted", "failed", "metrics"}:
        log(f"result does not match BENCHMARK.json: got {sorted(got)}, want {sorted(want)}")
        return 2

    os.makedirs(os.path.join(ROOT, args.results_dir), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(ROOT, args.results_dir, name), "w") as f:
        json.dump({"provenance": prov, "result": result}, f, indent=1, sort_keys=True)
        f.write("\n")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
