#!/usr/bin/env python3
"""Interleaved A/B runs of the serving benchmark between two revisions.

    python3 tools/ab.py BASE CHANGE [--workloads chat,long_prefill]
                        [--seeds 321-330] [--seconds 12] [--trace 0]
                        [--same-counts]

Checks each revision out into its own git worktree under a temporary
directory, builds it through its own servbench/run.py, and runs every
workload over the seed list. A seed is one pair: both sides run it,
the first side alternating from pair to pair, so a slow spell of the
host lands on both sides alike. The worktrees are removed on exit.

For each workload and metric (BENCHMARK.json's end_to_end list, or
its per_layer list with --trace 1) it prints both sides' medians and
quartiles, the change in the medians, whether that change exceeds the
base side's interquartile range, and the pairs the change won (ties
count for neither side). It also prints each side's median voluntary
context switches per run, from getrusage(RUSAGE_CHILDREN) deltas (so
they include run.py's no-op rebuild), and the `counts` keys that
differ between the two sides for each seed.

Exits nonzero when a build or run fails, or when a run reports
"correct": false or a "failed" count above 0. With --same-counts, a
change that claims identical work, it also exits nonzero when any
seed's `counts` lines differ. Standard library only; it never touches
the network.
"""

import argparse
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("chat", "long_decode", "long_prefill")
SIDES = ("base", "change")


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def parse_seeds(text):
    """'1-5,9' -> [1, 2, 3, 4, 5, 9]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def build(tree):
    """Build servbench in @p tree through its run.py's build()."""
    subprocess.run([sys.executable, "-c", "import run; run.build()"],
                   cwd=tree / "servbench", stdout=sys.stderr, check=True)


def run_once(tree, workload, seed, seconds, trace):
    """One servbench run; returns (counts, result, voluntary switches)."""
    cmd = [sys.executable, str(tree / "servbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_nvcsw
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    nvcsw = resource.getrusage(resource.RUSAGE_CHILDREN).ru_nvcsw - before
    counts, result = None, None
    for line in proc.stdout.splitlines():
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            continue
        if "counts" in obj:
            counts = obj["counts"]
        elif "correct" in obj:
            result = obj
    if proc.returncode != 0 or result is None:
        sys.stderr.write(proc.stderr[-2000:])
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    return counts, result, nvcsw


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def fmt(x):
    return f"{x:.0f}" if abs(x) >= 1000 else f"{x:.4g}"


def report(workload, seeds, runs, metrics):
    """Print one workload's table; runs[side] lists per-seed tuples.
    Returns whether every seed's `counts` lines were identical."""
    print(f"\n== {workload}: {len(seeds)} pairs, seeds "
          f"{','.join(map(str, seeds))}")
    print(f"{'metric':<28}{'base median [q1-q3]':>32}"
          f"{'change median [q1-q3]':>32}{'delta':>9}"
          f"{'>IQR':>6}{'won':>7}")
    for m in metrics:
        name = m["name"]
        vals = {s: [r[1]["metrics"][name]["value"] for r in runs[s]]
                for s in SIDES if all(name in r[1]["metrics"]
                                      for r in runs[s])}
        if len(vals) < 2:
            continue
        med = {s: statistics.median(vals[s]) for s in SIDES}
        q = {s: quartiles(vals[s]) for s in SIDES}
        higher = m["better"] == "higher"
        won = sum((c > b) if higher else (c < b)
                  for b, c in zip(vals["base"], vals["change"]))
        delta = ((med["change"] - med["base"]) / med["base"] * 100
                 if med["base"] else 0.0)
        beyond = abs(med["change"] - med["base"]) > q["base"][1] - q["base"][0]
        cols = [f"{fmt(med[s])} [{fmt(q[s][0])}-{fmt(q[s][1])}]"
                for s in SIDES]
        print(f"{name:<28}{cols[0]:>32}{cols[1]:>32}{delta:>+8.1f}%"
              f"{'yes' if beyond else 'no':>6}{won:>4}/{len(seeds)}")
    ctx = {s: statistics.median(r[2] for r in runs[s]) for s in SIDES}
    print(f"voluntary context switches per run (median): "
          f"base {ctx['base']:.0f}, change {ctx['change']:.0f}")
    same = True
    for i, seed in enumerate(seeds):
        b, c = runs["base"][i][0] or {}, runs["change"][i][0] or {}
        diff = [f"{k} {b.get(k)} -> {c.get(k)}"
                for k in sorted(set(b) | set(c)) if b.get(k) != c.get(k)]
        same &= not diff
        print(f"counts seed {seed}: "
              f"{'; '.join(diff) if diff else 'identical'}")
    return same


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="git revision of the base side")
    ap.add_argument("change", help="git revision of the change side")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="1-5",
                    help="pairs to run, e.g. 321-330 or 1,7")
    ap.add_argument("--seconds", type=int, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--same-counts", action="store_true",
                    help="fail when any seed's counts lines differ")
    args = ap.parse_args()

    seeds = parse_seeds(args.seeds)
    workloads = args.workloads.split(",")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end" if args.trace == 0 else "per_layer"]
    revs = {s: git("rev-parse", "--verify", r + "^{commit}")
            for s, r in zip(SIDES, (args.base, args.change))}

    # A terminated run still removes its worktrees (the finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    tmp = Path(tempfile.mkdtemp(prefix="pade-ab-"))
    trees = {}
    ok = True
    try:
        for side in SIDES:
            trees[side] = tmp / side
            git("worktree", "add", "--detach", str(trees[side]),
                revs[side])
            print(f"{side}: {revs[side][:12]} in {trees[side]}",
                  flush=True)
            build(trees[side])
        for workload in workloads:
            runs = {s: [] for s in SIDES}
            for i, seed in enumerate(seeds):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for side in order:
                    counts, result, nvcsw = run_once(
                        trees[side], workload, seed, args.seconds,
                        args.trace)
                    runs[side].append((counts, result, nvcsw))
                    bad = (not result.get("correct", False) or
                           result.get("failed", 0) > 0)
                    ok &= not bad
                    print(f"  {workload} seed {seed} {side}: "
                          f"correct {result.get('correct')} failed "
                          f"{result.get('failed')}", flush=True)
            if not report(workload, seeds, runs, metrics) and \
                    args.same_counts:
                print(f"ab: {workload} counts differ under --same-counts",
                      file=sys.stderr)
                ok = False
    except (RuntimeError, subprocess.CalledProcessError) as err:
        print(f"ab: {err}", file=sys.stderr)
        ok = False
    finally:
        for tree in trees.values():
            subprocess.run(["git", "worktree", "remove", "--force",
                            str(tree)], cwd=ROOT, capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT,
                       capture_output=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
