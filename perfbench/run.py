#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (which compiles the engine from src/) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset,
runs one workload, prints every metric with its unit, and prints as the last
line one JSON object with the metrics BENCHMARK.json names for the mode:
its end_to_end metrics with --trace 0, its per_layer metrics with --trace 1.
A traced run also writes a Chrome trace-event file beside the build.

Exits non-zero without a result line when the build fails, and with one
(correct: false) when the benchmark finds a wrong result.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# Run time left for the binary once it is built; the whole run must end
# within 180 s.
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures and builds lmfao_perfbench; returns its path."""
    configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        try:
            subprocess.run(["ninja", "--version"], check=True,
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            configure += ["-G", "Ninja"]
        except (OSError, subprocess.CalledProcessError):
            pass
    jobs = str(min(4, os.cpu_count() or 1))
    # Keep the compiler's temporary files inside the build tree.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.abspath(tmp))
    for cmd in (configure,
                ["cmake", "--build", build_dir, "--target", "lmfao_perfbench",
                 "-j", jobs]):
        # Build chatter goes to stderr: the last stdout line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "lmfao_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit("perfbench: unknown workload " + args.workload)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, "perfbench")
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_path = os.path.join(
            build_dir, "trace-%s-%d.json" % (args.workload, args.seed))
        cmd += ["--trace-out", trace_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)

    measured = {}
    verdict = None
    for line in proc.stdout.splitlines():
        parts = line.split(" ", 1)
        if parts[0] == "METRIC":
            name, value, unit = parts[1].split(" ")
            measured[name] = (float(value), unit)
        elif parts[0] == "NOTE":
            print("#", parts[1])
        elif parts[0] == "RESULT":
            status, attempted, failed = parts[1].split(" ")
            verdict = (status == "correct", int(attempted), int(failed))
    if verdict is None:
        sys.exit("perfbench: the benchmark exited %d without a result"
                 % proc.returncode)

    metrics = {}
    for m in wanted:
        name = m["name"]
        if name in measured:
            value, unit = measured[name]
            if unit != m["unit"]:
                sys.exit("perfbench: %s measured in %s, BENCHMARK.json says %s"
                         % (name, unit, m["unit"]))
        elif args.trace:
            # A layer this workload does not exercise.
            value = 0.0
        else:
            sys.exit("perfbench: end-to-end metric %s not measured" % name)
        metrics[name] = {"value": value, "unit": m["unit"]}
        print("%-32s %14.6g %s" % (name, value, m["unit"]))
    if args.trace:
        print("# trace written to", trace_path)

    correct, attempted, failed = verdict
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
