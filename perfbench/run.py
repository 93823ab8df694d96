#!/usr/bin/env python3
"""The gkx end-to-end benchmark.

    python3 perfbench/run.py --workload serving|analytic|churn --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout. The first run builds the driver
and the library from source into .bench_build/perfbench (CMake,
RelWithDebInfo); later runs reuse the build. The driver checks every
answer; a wrong one makes this script exit 1.

Output: a human-readable report, then as the last line one JSON object
with `correct`, `attempted`, `failed` and `metrics` — the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1.

Test-only flags, passed to the driver: --scale smoke (tiny inputs) and
--inject-fault (perturbs answers, so the correctness gates must fail).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
WORKLOADS = ("serving", "analytic", "churn")
DRIVER_TIMEOUT_S = 170

sys.path.insert(0, HERE)
import summarise  # noqa: E402


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and builds; both are quick no-ops once the build is up
    to date. The compiler output goes to a log; its tail is shown on
    failure."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "-j", jobs]]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                fail(f"build failed: {' '.join(cmd)}\n{tail}")


def metric_specs():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def git_rev():
    try:
        # The ceiling keeps git from searching above the checkout.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10, env=env)
        return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--inject-fault", action="store_true")
    args = parser.parse_args()

    end_to_end, per_layer = metric_specs()
    build()

    work = os.path.join(ROOT, ".bench_build", "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    spans_path = os.path.join(ROOT, ".bench_build", f"spans-{args.workload}.json")
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--scale", args.scale]
    if args.trace:
        cmd += ["--trace-out", spans_path]
    if args.inject_fault:
        cmd.append("--inject-fault")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(work, ignore_errors=True)
        fail(f"driver did not finish within {DRIVER_TIMEOUT_S} s")
    shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"driver exited {proc.returncode} without a result")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"driver exited {proc.returncode}; unreadable result: {lines[-1][:200]}")

    if args.trace:
        # Kept beside the span dump so summarise.py can re-read both.
        with open(spans_path[:-len(".json")] + ".result.json", "w") as f:
            f.write(lines[-1] + "\n")
        spans = summarise.load_spans(spans_path)
        values = summarise.summarise(spans, args.workload, result["layer"])
        wanted = per_layer
    else:
        values = result["end_to_end"]
        wanted = end_to_end
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"driver did not report {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = bool(result["correct"]) and proc.returncode == 0

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  git {git_rev()}")
    for name, value in sorted(result["config"].items()):
        print(f"  config  {name} = {value}")
    print(f"  schedule_digest {result['schedule_digest']}")
    for name, value in sorted(result["deterministic"].items()):
        print(f"  deterministic  {name} = {value}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  failed_frac = {failed / attempted if attempted else 0.0!r}  "
          f"({failed} of {attempted})")
    for error in result["errors"]:
        print(f"  GATE FAILED: {error}")
    if args.trace:
        print(summarise.format_table(summarise.span_table(spans)))
    for name, metric in metrics.items():
        print(f"  {name:36} {metric['value']!r} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
