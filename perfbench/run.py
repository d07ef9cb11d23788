#!/usr/bin/env python3
"""Build and run the hddm repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first call configures and builds
perfbench/ (the hddm libraries plus perfbench.cpp, Release) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls only
re-run the incremental build. The program's last stdout line is checked
against BENCHMARK.json (the end_to_end metrics with --trace 0, the per_layer
metrics with --trace 1) and printed as this script's last line.

Exits non-zero without printing a result when the source tree is missing,
the build fails, or the program fails, times out or reports malformed output.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr, so stdout stays clean."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout)
    if proc.returncode != 0:
        fail(f"command failed ({proc.returncode}): {' '.join(cmd)}")


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        fail(f"no hddm source tree next to {HERE}")
    target_dir = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target_dir), "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"], 300)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs], 850)
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = build()
    workdir = os.path.join(build_dir, f"run-{os.getpid()}")
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        if os.path.isdir(workdir):
            for name in os.listdir(workdir):
                os.remove(os.path.join(workdir, name))
            os.rmdir(workdir)
    if proc.returncode != 0:
        fail(f"perfbench exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("perfbench printed no result")

    for error in raw.get("errors", []):
        print(f"perfbench: {args.workload}: {error}", file=sys.stderr)
    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} missing or not in {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(f"perfbench: {args.workload} seed {args.seed} ran {time.monotonic() - started:.1f} s",
          file=sys.stderr)
    print(json.dumps({"correct": bool(raw["correct"]), "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]), "metrics": metrics}))


if __name__ == "__main__":
    main()
