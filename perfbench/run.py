#!/usr/bin/env python3
"""Builds the Optique benchmark runner from source and runs one workload.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The runner is a Rust package of its own
(perfbench/Cargo.toml) with path dependencies on the repository's crates;
it builds offline into $CARGO_TARGET_DIR (default: .bench_build). Each
workload runs in its own process, so peak RSS is per workload. The last
line of standard output is the workload's JSON result; its metric names
and units are checked against BENCHMARK.json before it is printed.

`--workload all` runs every workload from BENCHMARK.json in turn, each in
its own process, and prints each report. The exit code is nonzero on a
build failure, a wrong answer, a drifted workload property or a result
that does not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")


def run_timeout(seconds):
    """A workload run sets up, measures for `seconds`, then checks its
    answers; the single-node replay of stream_tasks takes about as long as
    the measured window. Three windows plus a minute covers all of it."""
    return 3 * seconds + 60


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_manifest():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed ({done.returncode})")
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "release", "perfbench")


def check_result(line, manifest, trace):
    """The result line must carry exactly the metrics BENCHMARK.json
    declares for this mode, with the declared units."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not a JSON result"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    declared = manifest["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        return f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, units {wrong}"
    return None


def run_one(binary, manifest, workload, seed, seconds, trace):
    cmd = [
        binary,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "1" if trace else "0",
    ]
    timeout = run_timeout(seconds)
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {timeout} s")
    lines = done.stdout.rstrip("\n").split("\n")
    problem = check_result(lines[-1], manifest, trace) if lines and lines[-1] else "no output"
    if problem:
        # Print the report for diagnosis but never a result line.
        sys.stdout.write("\n".join(f"# {l}" for l in lines) + "\n")
        fail(f"{workload}: {problem} (exit {done.returncode})")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    manifest = load_manifest()
    names = [w["name"] for w in manifest["workloads"]]
    if args.workload != "all" and args.workload not in names:
        fail(f"unknown workload {args.workload}; expected one of {names} or all")
    seconds = args.seconds or manifest["run_seconds"]
    binary = build()
    workloads = names if args.workload == "all" else [args.workload]
    codes = [
        run_one(binary, manifest, w, args.seed, seconds, bool(args.trace)) for w in workloads
    ]
    if any(codes):
        fail(f"workload(s) failed: {[w for w, c in zip(workloads, codes) if c]}")


if __name__ == "__main__":
    main()
