#!/usr/bin/env python3
"""Compare two checkouts on the repository benchmark in alternating pairs.

    perfbench_pairs.py --parent DIR --change DIR --workload W --pairs N
                       --seconds S --seed-base K [--trace 0|1] [--build-root DIR]

Runs `python3 perfbench/run.py` (the benchmark BENCHMARK.json declares) in the
two source checkouts, one after the other, N times. Pair i runs seed K + i
on both sides, and the side that runs first alternates from pair to pair, so
a drift of the host's speed lands on both sides alike. Each side builds under
its own CARGO_TARGET_DIR: <build-root>/parent and <build-root>/change, or the
checkout's own .bench_build when --build-root is not given.

For every metric the runs report, it prints the median of each side, the
ratio change / parent, the number of pairs in which the change was better
(the direction BENCHMARK.json gives) and the parent's interquartile range,
the noise a median difference has to exceed.

Warns when exactly one of the two checkouts is a git checkout: the build
bakes `git rev-parse --short=12 HEAD` (or "unknown") into SnapshotMeta::git_sha,
so snapshot_bytes then differs by 5 B with identical surpluses.

Exits 1 when a run fails or reports `correct: false` or a failed operation.
With --trace 1 it also exits 1 unless the deterministic per-layer counts and
euler_error of each pair are equal on both sides: a change that claims to
keep the solve's bits must show the same counts.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
# Per-layer metrics that depend only on the solve, not on timing: equal on
# both sides of a bit-preserving change.
DETERMINISTIC = ("solve_iterations", "grid_points", "point_solves", "newton_iterations",
                 "newton_failures", "warm_start_points", "gathers", "gather_requests",
                 "gradient_gathers", "euler_error")


def run_side(checkout, target_dir, args, seed):
    """One perfbench/run.py run; returns its parsed result line."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"), "--workload",
           args.workload, "--seed", str(seed), "--seconds", repr(args.seconds), "--trace",
           str(args.trace)]
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"perfbench_pairs: {checkout}: run.py exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def in_git_checkout(checkout):
    """Whether a build of `checkout` records a SHA rather than "unknown"
    (src/benchlib/CMakeLists.txt runs the same command)."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=checkout,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return False
    return proc.returncode == 0 and proc.stdout.strip() != ""


def better_direction(checkouts):
    """Metric name -> 'lower' or 'higher', from the checkouts' BENCHMARK.json."""
    better = {}
    for checkout in checkouts:
        with open(os.path.join(checkout, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for m in spec.get("end_to_end", []) + spec.get("per_layer", []):
            better.setdefault(m["name"], m.get("better", "lower"))
    return better


def quartile_range(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[2] - q[0]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build-root", help="CARGO_TARGET_DIR parent for both sides")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    targets = {side: (os.path.join(os.path.abspath(args.build_root), side) if args.build_root
                      else os.path.join(checkouts[side], ".bench_build"))
               for side in SIDES}
    better = better_direction(checkouts.values())
    in_git = {side: in_git_checkout(checkouts[side]) for side in SIDES}
    provenance_warning = None
    if in_git["parent"] != in_git["change"]:
        git_side = "parent" if in_git["parent"] else "change"
        provenance_warning = (
            f"warning: only the {git_side} is a git checkout, so SnapshotMeta::git_sha is a "
            "12-character SHA on one side and \"unknown\" on the other: snapshot_bytes differs "
            "by 5 B even with identical surpluses; compare two checkouts of the same kind")
        print(f"perfbench_pairs: {provenance_warning}", file=sys.stderr)

    results = {side: [] for side in SIDES}
    failures = []
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {}
        for side in order:
            pair[side] = run_side(checkouts[side], targets[side], args, seed)
            results[side].append(pair[side])
            if not pair[side]["correct"] or pair[side]["failed"] != 0:
                failures.append(f"pair {i} (seed {seed}) {side}: correct={pair[side]['correct']}"
                                f" failed={pair[side]['failed']}")
        if args.trace:
            for name in DETERMINISTIC:
                values = [pair[side]["metrics"].get(name, {}).get("value") for side in SIDES]
                if values[0] != values[1]:
                    failures.append(f"pair {i} (seed {seed}) {name}: parent {values[0]!r}"
                                    f" != change {values[1]!r}")
        first = next(iter(pair["parent"]["metrics"]))
        print(f"pair {i + 1}/{args.pairs} seed {seed} ({order[0]} first): {first} "
              f"parent {pair['parent']['metrics'][first]['value']:.6g} "
              f"change {pair['change']['metrics'][first]['value']:.6g}", file=sys.stderr)

    print(f"{args.workload}: {args.pairs} pairs, --seconds {args.seconds:g}, "
          f"--trace {args.trace}, seeds {args.seed_base}..{args.seed_base + args.pairs - 1}")
    print(f"{'metric':<20} {'unit':<6} {'parent':>12} {'change':>12} {'ratio':>8} "
          f"{'better':>7} {'parent IQR':>11}")
    for name, meta in results["parent"][0]["metrics"].items():
        series = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        med = {side: statistics.median(series[side]) for side in SIDES}
        lower = better.get(name, "lower") == "lower"
        improved = sum(1 for p, c in zip(series["parent"], series["change"])
                       if (c < p if lower else c > p))
        ratio = med["change"] / med["parent"] if med["parent"] else float("nan")
        print(f"{name:<20} {meta['unit']:<6} {med['parent']:>12.6g} {med['change']:>12.6g} "
              f"{ratio:>8.4f} {improved:>3}/{args.pairs:<3} "
              f"{quartile_range(series['parent']):>11.4g}")

    if provenance_warning:
        print(f"perfbench_pairs: {provenance_warning}", file=sys.stderr)
    for failure in failures:
        print(f"perfbench_pairs: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
