#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds the `perfbench` package (a workspace of its own
that depends on the repository's crates by path) into `$CARGO_TARGET_DIR`, or `.bench_build`
when that is unset, then runs one workload:

* `--trace 0` runs the untraced binary for `--seconds` and reports the end-to-end metrics;
* `--trace 1` runs the untraced binary for half the time and the traced one for the other
  half, reports the per-layer metrics and derives `trace.overhead_frac` from the two.

The last line of standard output is the result: `correct`, `attempted`, `failed` and
`metrics`, with the names and units `BENCHMARK.json` lists. The line before it holds the run
metadata. The exit code is 0 only when every output was verified correct.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The first build of a checkout compiles the runtime; later runs only check it is current.
BUILD_TIMEOUT_S = 850
# A run must end within 180 s of its build; binaries still running by then are stopped.
RUN_BUDGET_S = 170
# Sources whose contents identify the build when the checkout is not a git repository.
SOURCE_DIRS = ("crates", "src", "vendor", "perfbench")
SOURCE_FILES = ("Cargo.toml", "Cargo.lock", "BENCHMARK.json")


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    return parser.parse_args()


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    """Builds both binaries and returns their paths."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--bins",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "perfbench-traced")


def run_binary(binary, workload, seed, seconds, trace, deadline):
    """Runs one binary, stopping it at `deadline`, and returns its parsed result line."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", trace]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{os.path.basename(binary)} did not finish within {RUN_BUDGET_S} s of the build")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{os.path.basename(binary)} printed no result (exit code {done.returncode})")
    result = json.loads(lines[-1])
    if done.returncode != 0 and result.get("correct", False):
        fail(f"{os.path.basename(binary)} exited with code {done.returncode}")
    return result


def source_revision():
    """The git revision when there is one, and a digest of the sources either way."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        git = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git = None
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, f) for f in SOURCE_FILES]
    for top in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target" and not d.startswith("."))
            paths.extend(os.path.join(dirpath, f) for f in filenames)
    for path in sorted(paths):
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return git, digest.hexdigest()


def check_metrics(metrics, listed):
    """The printed metrics must be exactly the listed ones, in order, with their units."""
    printed = [(name, m["unit"]) for name, m in metrics.items()]
    wanted = [(m["name"], m["unit"]) for m in listed]
    if printed != wanted:
        fail(f"printed metrics {printed} differ from BENCHMARK.json {wanted}")
    for name, m in metrics.items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            fail(f"metric {name} has no finite value: {m['value']}")


def main():
    args = parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload}")
    if args.seconds < 2:
        fail("--seconds must be at least 2")
    plain, traced = build()
    deadline = time.monotonic() + RUN_BUDGET_S

    if args.trace == "0":
        untraced = run_binary(plain, args.workload, args.seed, args.seconds, "0", deadline)
        runs = [untraced]
        metrics = untraced["metrics"]
        listed = bench["end_to_end"]
    else:
        half = args.seconds / 2
        untraced = run_binary(plain, args.workload, args.seed, half, "0", deadline)
        layered = run_binary(traced, args.workload, args.seed, half, "1", deadline)
        runs = [untraced, layered]
        metrics = dict(layered["metrics"])
        overhead = layered["meta"]["headline_p50_ms"] / untraced["meta"]["headline_p50_ms"] - 1
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "fraction"}
        listed = bench["per_layer"]
    check_metrics(metrics, listed)

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = all(r["correct"] for r in runs) and failed == 0
    git, digest = source_revision()
    meta = dict(runs[-1]["meta"], git_revision=git, source_sha256=digest,
                failed_frac=failed / attempted,
                untraced_headline_p50_ms=untraced["meta"]["headline_p50_ms"])
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
