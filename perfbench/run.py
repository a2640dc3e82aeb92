#!/usr/bin/env python3
"""Build and run the SWW serving-stack benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload pageload --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 25 --trace 0

The first call builds `perfbench` (an optimised build of the benchmark
package and the sww crates it uses) into $CARGO_TARGET_DIR, by default
`.bench_build` in the repository root; build output goes to stderr. One
workload prints the benchmark's report, whose last line is the JSON result.
`--workload all` runs the three workloads in turn and ends with one JSON
object whose metric names carry the workload as a prefix.

The exit status is non-zero when the build fails, an output check fails,
the benchmark exits non-zero, or a run outlives RUN_TIMEOUT_S plus twice
`--seconds`.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["pageload", "hotfetch", "coldcrawl"]
# A run that has not finished RUN_TIMEOUT_S plus twice its timed phase
# after it started has hung (a lane that fails before the start barrier
# leaves the others waiting): kill it and fail. Set-ups, checks and the
# traced run's extra work stay well within that margin.
RUN_TIMEOUT_S = 120


def build():
    """Build the benchmark; return the path of its executable."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(done.returncode)
    return os.path.join(ROOT, target, "release", "perfbench")


def host_env():
    """Host fingerprint and commit, handed to the benchmark's metadata."""
    env = dict(os.environ)

    def first_line(cmd, **kw):
        try:
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, **kw)
        except OSError:
            return None
        return out.stdout.strip().splitlines()[0] if out.returncode == 0 and out.stdout.strip() else None

    env["PERFBENCH_RUSTC"] = first_line(["rustc", "-V"]) or "unknown"
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    env["PERFBENCH_COMMIT"] = first_line(["git", "rev-parse", "HEAD"], env=git_env) or "unknown (not a git checkout)"
    return env


def run_one(exe, env, workload, seed, seconds, trace):
    """Run one workload; return (exit code, parsed JSON result or None)."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    limit = RUN_TIMEOUT_S + 2 * seconds
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=limit)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} seed {seed} still running after {limit} s; killed",
              file=sys.stderr)
        return 1, None
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return done.returncode, result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    a = p.parse_args()

    exe = build()
    env = host_env()
    seconds = int(a.seconds) if a.seconds == int(a.seconds) else a.seconds

    if a.workload != "all":
        code, _ = run_one(exe, env, a.workload, a.seed, seconds, a.trace)
        sys.exit(code)

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for w in WORKLOADS:
        print(f"== {w}")
        code, result = run_one(exe, env, w, a.seed, seconds, a.trace)
        worst = worst or code
        if result is None:
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{w}.{name}"] = m
    print(json.dumps(combined))
    sys.exit(worst or (0 if combined["correct"] else 1))


if __name__ == "__main__":
    main()
