#!/usr/bin/env python3
"""Compare a parent checkout with a change checkout on the benchmark.

    python3 perfbench/compare.py --parent ../mdp-parent --change . \
        [--held-out]

For every workload it runs 10 alternating run pairs (even pairs run the
parent first, odd pairs the change first), each pair on its own seed,
then prints one row per end-to-end metric with each side's median
and quartiles, the pairs the change won, and a verdict:

  win         the change won >= 9/10 of the pairs (ties count for
              neither) and the medians differ by more than the parent's
              own spread (the distance between its quartiles);
  regression  the change's median is worse than the parent's by more
              than the metric's bound in BENCHMARK.json;
  unresolved  either side's spread (IQR / median) exceeds the bound,
              unless every change run beat every parent run;
  same        none of the above: no worse than the bound allows.

A win does not count when the change fails more operations.  Finally
one traced run per side on the default seed compares every per-layer
count exactly (unit "count" or "ratio"); the host times are shown side
by side.  Both checkouts must hold the same benchmark files.

Exits 1 when any metric is a regression or unresolved, when the change
fails more operations than the parent, or when a per-layer count
differs; 0 otherwise.
"""

import argparse
import filecmp
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True  # leave the checkout as it was
sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402  (the benchmark itself: seeds, names)

EXACT_UNITS = ("count", "ratio")
PAIRS = 10  # the guide's minimum for a claim


def same_benchmark(a, b):
    """True when both checkouts hold the same benchmark files."""
    def walk(root):
        out = {}
        for p in sorted((root / "perfbench").rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                out[p.relative_to(root)] = p
        return out
    fa, fb = walk(a), walk(b)
    if set(fa) != set(fb):
        return False
    if any(not filecmp.cmp(fa[k], fb[k], shallow=False) for k in fa):
        return False
    return filecmp.cmp(a / "BENCHMARK.json", b / "BENCHMARK.json",
                       shallow=False)


def run_once(checkout, workload, seed, seconds, trace):
    env = {k: v for k, v in os.environ.items()}
    env["CARGO_TARGET_DIR"] = str(checkout / ".bench_build")
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, env=env, text=True,
                          stdout=subprocess.PIPE)
    if proc.returncode != 0:
        sys.exit(f"compare: {checkout}: {workload} seed {seed} "
                 f"exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], statistics.median(xs), q[2]


def verdict(spec, par, chg):
    lower = spec["better"] == "lower"

    def better(c, p):
        return c < p if lower else c > p

    wins = sum(better(c, p) for p, c in zip(par, chg))
    p1, pm, p3 = quartiles(par)
    c1, cm, c3 = quartiles(chg)
    bound = spec["bound"]
    spread = max((p3 - p1) / pm if pm else 0.0,
                 (c3 - c1) / cm if cm else 0.0)
    worse = (cm - pm) / pm if lower else (pm - cm) / pm
    dominated = (max(chg) < min(par)) if lower else (min(chg) > max(par))
    if wins >= 0.9 * len(par) and abs(cm - pm) > (p3 - p1) and \
            better(cm, pm):
        v = "win"
    elif spread > bound and not dominated:
        v = "unresolved"
    elif worse > bound:
        v = "regression"
    else:
        v = "same"
    return wins, (p1, pm, p3), (c1, cm, c3), v


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    ap.add_argument("--held-out", action="store_true",
                    help=f"use seeds from {bench.HELD_OUT_SEED} on, which "
                         "no tuning used")
    args = ap.parse_args()
    parent, change = args.parent.resolve(), args.change.resolve()
    if not same_benchmark(parent, change):
        sys.exit("compare: the two checkouts hold different benchmark "
                 "files; measure both with identical benchmark code")

    spec = json.loads((change / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    base = bench.HELD_OUT_SEED if args.held_out else bench.DEFAULT_SEED
    status = 0

    for w in bench.WORKLOADS:
        runs = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = (("parent", parent), ("change", change))
            if i % 2:
                order = order[::-1]
            for side, root in order:
                runs[side].append(run_once(root, w, base + i, seconds, 0))
        failed = {s: sum(r["failed"] for r in runs[s]) for s in runs}
        if failed["change"] > failed["parent"]:
            status = 1
        print(f"\n== {w}: {PAIRS} pairs, seeds {base}..."
              f"{base + PAIRS - 1}; failed operations parent "
              f"{failed['parent']}, change {failed['change']}")
        print(f"  {'metric':<14} {'parent q1/med/q3':>32} "
              f"{'change q1/med/q3':>32} {'wins':>6}  verdict")
        for name, m in e2e.items():
            par = [r["metrics"][name]["value"] for r in runs["parent"]]
            chg = [r["metrics"][name]["value"] for r in runs["change"]]
            wins, pq, cq, v = verdict(m, par, chg)
            if v == "win" and failed["change"] > failed["parent"]:
                v = "not a win: more operations failed"
            if v in ("regression", "unresolved"):
                status = 1
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(f"  {name:<14} {fmt.format(*pq):>32} "
                  f"{fmt.format(*cq):>32} {wins:>3}/{len(par):<2}  {v}")

        tp = run_once(parent, w, bench.DEFAULT_SEED, seconds, 1)["metrics"]
        tc = run_once(change, w, bench.DEFAULT_SEED, seconds, 1)["metrics"]
        diffs = [k for k in tp if tp[k]["unit"] in EXACT_UNITS and
                 tp[k]["value"] != tc.get(k, {}).get("value")]
        print(f"  per-layer counts: "
              + ("identical" if not diffs else "DIFFER: " + ", ".join(
                  f"{k} {tp[k]['value']} -> {tc[k]['value']}"
                  for k in diffs)))
        if diffs:
            status = 1
        for k in tp:
            if tp[k]["unit"] not in EXACT_UNITS:
                print(f"    {k:<30} {tp[k]['value']:12.6g} -> "
                      f"{tc[k]['value']:12.6g} {tp[k]['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
