#!/usr/bin/env python3
"""Slot benchmark entry point: build perfbench/ from source, run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The first call configures and builds the
resmon libraries and the benchmark into $CARGO_TARGET_DIR (default
.bench_build); later calls only re-check the build. The workload runs in a
fresh process, so peak memory and set-up time never bleed between
workloads. Its stdout is passed through; the last line is one JSON object
with the keys correct, attempted, failed and metrics.

On top of the binary's own output checks, this script keeps the forecast
digest of every (binary, workload, seed, slots) it has run in
<build>/digests.json and fails the run when a repeat disagrees: traced and
untraced runs of one seed must produce bit-identical forecasts.

An extra --nodes N after the four flags above is passed to the binary; the
benchmark's own tests use it to shrink the fleet.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
TARGETS = ["perfbench_slot", "perfbench_selftest"]


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(out_dir):
    """Configure and build the benchmark (a no-op when up to date); build
    logs go to stderr only when a step fails."""
    for cmd in (["cmake", "-S", HERE, "-B", out_dir],
                ["cmake", "--build", out_dir, "-j", "4", "--target"] + TARGETS):
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"build step timed out: {' '.join(cmd)}")
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail(f"build step failed: {' '.join(cmd)}")


def binary_id(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def check_digest(out_dir, key, digest):
    """True when `digest` matches every earlier run under `key`."""
    path = os.path.join(out_dir, "digests.json")
    seen = {}
    if os.path.exists(path):
        with open(path) as f:
            seen = json.load(f)
    if key in seen:
        return seen[key] == digest
    seen[key] = digest
    with open(path + ".tmp", "w") as f:
        json.dump(seen, f, indent=1, sort_keys=True)
    os.replace(path + ".tmp", path)
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args, extra = parser.parse_known_args()

    out_dir = build_dir()
    build(out_dir)
    binary = os.path.join(out_dir, "perfbench_slot")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace] + extra
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail(f"{args.workload} exited with {proc.returncode} and no result")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    digest = next((l.split()[1] for l in lines if l.startswith("forecast_digest")),
                  None)
    key = ":".join([binary_id(binary), args.workload, str(args.seed),
                    str(args.seconds)] + extra)
    if digest is None or not check_digest(out_dir, key, digest):
        print(f"forecast digest {digest} differs from an earlier run of {key}")
        result["correct"] = False
    print(json.dumps(result))
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
