#!/usr/bin/env python3
"""Repository benchmark: host time of the simulator's parameter sweeps.

Run from the repository root:

    python3 perfbench/run.py --workload ms_dense --seed 1 --seconds 30 --trace 0

Builds perfbench_driver (CMake, into $CARGO_TARGET_DIR or .bench_build),
runs one workload in one process for about --seconds seconds, verifies
every operation, prints each metric by name with its unit, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics; --trace 1 is a separate
traced run that reports the per-layer metrics from spans and counts.
See README.md in this directory for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests"

WORKLOADS = ("ms_dense", "ms_manycore", "ooo_window", "serve_sweep")
# Digests are recorded for the default seed.  The held-out seed was
# used by no tuning of this benchmark; check claims on it too.
DEFAULT_SEED = 1
HELD_OUT_SEED = 4099
# Cells that are model run calls; window studies commit no ops.
MODEL_CELLS = ("multiscalar", "ooo")
# The host reference kernel's 10th-percentile time on the host this
# benchmark was tuned on (a 4-vCPU Xeon VM, 2.1 GHz); see
# hostReferenceSeconds() in driver.cc.  Host times are reported at
# this reference speed.
REFERENCE_MS = 2.0
# Units of host times and host rates, which that speed scales.
TIME_UNITS = ("s", "ms", "us", "ns/cycle")
RATE_UNITS = ("Mop/s", "req/s")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def refuse_inherited_knobs():
    """The benchmark measures the default program at its own size."""
    knobs = sorted(k for k in os.environ if k.startswith("MDP_"))
    if knobs:
        fail("refusing to run with inherited simulator knobs set: "
             + ", ".join(knobs) + " (unset them)")


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build_driver(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    bdir = out / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    if not (bdir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir)]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed", 1)
    cmd = ["cmake", "--build", str(bdir), "--target", "perfbench_driver",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed", 1)
    return bdir / "perfbench_driver"


def run_driver(exe, args, trace_path):
    cmd = [str(exe), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds)]
    if trace_path:
        cmd += ["--trace-out", str(trace_path)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + 150)
    except subprocess.TimeoutExpired:
        fail("driver timed out", 1)
    if proc.returncode != 0:
        fail(f"driver exited with code {proc.returncode}", 1)
    recs = [json.loads(line) for line in proc.stdout.splitlines()
            if line.startswith("{")]
    if not recs or recs[-1].get("t") != "end":
        fail("driver output incomplete", 1)
    return recs


# ------------------------------------------------------------ statistics

def median(xs):
    return statistics.median(xs) if xs else 0.0


def percentile(xs, q):
    """Linear-interpolated percentile, q in [0, 100]."""
    if not xs:
        return 0.0
    s = sorted(xs)
    k = (len(s) - 1) * q / 100.0
    lo = int(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def ratio(a, b):
    return a / b if b else 0.0


# ---------------------------------------------------------- verification

def digest_file(workload, seed):
    return DIGESTS / f"{workload}.seed{seed}.tsv"


def verify(recs, workload, seed):
    """Count attempted and failed operations.

    A cell fails when the driver's own checks fail, when its digest
    differs between passes of this run, or when it differs from the
    digest recorded for this seed.  A recorded cell the run never
    produced counts as attempted and failed.
    """
    cells = [r for r in recs if r["t"] == "cell"]
    first = {}
    for c in cells:
        first.setdefault(c["id"], c["digest"])
    recorded = {}
    path = digest_file(workload, seed)
    if path.is_file():
        for line in path.read_text().splitlines():
            cid, dig = line.split("\t")
            recorded[cid] = dig
    failed = 0
    reasons = defaultdict(set)
    for c in cells:
        why = c["why"]
        if not why and c["digest"] != first[c["id"]]:
            why = "digest differs between passes"
        if not why and recorded and recorded.get(c["id"]) != c["digest"]:
            why = "digest differs from recorded"
        if why:
            failed += 1
            reasons[why].add(c["id"])
    missing = sorted(set(recorded) - set(first))
    if missing:
        reasons["recorded cell not run"].update(missing)
    for why, ids in sorted(reasons.items()):
        shown = ", ".join(sorted(ids)[:5]) + (", ..." if len(ids) > 5
                                              else "")
        print(f"failed: {why}: {len(ids)} cell(s): {shown}")
    return len(cells) + len(missing), failed + len(missing), bool(recorded)


def record_digests(recs, workload, seed):
    DIGESTS.mkdir(exist_ok=True)
    lines = [f"{c['id']}\t{c['digest']}" for c in recs
             if c["t"] == "cell" and c["pass"] == 0]
    digest_file(workload, seed).write_text("\n".join(lines) + "\n")
    print(f"recorded {len(lines)} digests")


# ------------------------------------------------------------- metrics

def best_of_passes(records, key="ms"):
    """Each id's fastest value over the run's passes.

    Every pass repeats identical work, and on a shared host interference
    only ever adds time, so an id's fastest pass is its least disturbed
    measurement.  Medians over passes keep the host's slow phases, which
    last seconds and move by 20-30%.
    """
    best = {}
    for r in records:
        v = r[key]
        best[r["id"]] = min(best.get(r["id"], v), v)
    return best


def end_to_end(recs, workload):
    setups = [r["s"] for r in recs if r["t"] == "setup"]
    passes = [r for r in recs if r["t"] == "pass"]
    cells = [r for r in recs if r["t"] == "cell"]
    batches = [r for r in recs if r["t"] == "batch"]
    end = recs[-1]
    serve = workload == "serve_sweep"

    model = [c for c in cells if c["model"] in MODEL_CELLS]
    cell_ms = best_of_passes(model)
    batch_ms = best_of_passes(batches)
    batch_cpu_ms = best_of_passes(batches, "cpu_ms")
    ops = sum(c["ops"] for c in model if c["pass"] == 0)
    if serve:
        run_ms = sum(best_of_passes(batches, "run_ms").values())
    else:
        run_ms = sum(cell_ms.values())
    sweep_s = sum(batch_ms.values()) / 1e3
    per_pass = sum(1 for c in cells if c["pass"] == 0)

    print(f"samples: {len(setups)} set-ups, {len(passes)} passes; "
          f"each of {len(cell_ms)} cells and {len(batch_ms)} batches "
          f"at its fastest of the {len(passes)} passes")
    m = {
        "setup_s": (min(setups), "s"),
        "sweep_s": (sweep_s, "s"),
        "cpu_s": (sum(batch_cpu_ms.values()) / 1e3, "s"),
        "sim_mips": (ratio(ops, run_ms / 1e3) / 1e6, "Mop/s"),
        "cell_ms_p50": (percentile(list(cell_ms.values()), 50), "ms"),
        "cell_ms_p90": (percentile(list(cell_ms.values()), 90), "ms"),
        "peak_rss_mb": (end["peak_rss_mb"], "MB"),
        "req_per_s": (ratio(per_pass, sweep_s), "req/s"),
        "batch_ms_p50": (percentile(list(batch_ms.values()), 50), "ms"),
        "batch_ms_p90": (percentile(list(batch_ms.values()), 90), "ms"),
    }
    return m


def host_reference(recs):
    """The reference kernel's 10th-percentile time in the run, in ms.

    The host's speed moves by 20-40% over minutes, for all code alike.
    The kernel, fixed work timed after every batch, measures it.  Its
    fastest samples catch moments too short for a batch, so a low
    percentile, not the minimum, tracks the batches' fastest passes.
    """
    refs = [b["ref_ms"] for b in recs if b["t"] == "batch"]
    ref = percentile(refs, 10)
    print(f"host reference: p10 {ref:.4f} ms of {len(refs)} samples; "
          f"host times are scaled by {REFERENCE_MS} / {ref:.4f}")
    return ref


def at_reference_speed(metrics, ref_ms):
    """Host times and rates as at the speed where the kernel takes
    REFERENCE_MS, so that runs made at different moments compare."""
    factor = REFERENCE_MS / ref_ms
    out = {}
    for name, (value, unit) in metrics.items():
        if unit in TIME_UNITS:
            value *= factor
        elif unit in RATE_UNITS:
            value /= factor
        out[name] = (value, unit)
    return out


def self_times(trace_path):
    """Per-layer self time, split into set-up and sweep spans."""
    events = json.loads(Path(trace_path).read_text())["traceEvents"]
    child = defaultdict(float)
    for e in events:
        if e["args"]["parent"] >= 0:
            child[e["args"]["parent"]] += e["dur"]
    root_of = {}
    out = {"setup": defaultdict(float), "pass": defaultdict(float)}
    for e in events:  # parents precede children
        idx = e["args"]["span"]
        parent = e["args"]["parent"]
        root_of[idx] = e["name"] if parent < 0 else root_of[parent]
        out[root_of[idx]][e["cat"]] += (e["dur"] - child[idx]) / 1e6
    return out


def per_layer(recs, trace_path):
    setups = [r for r in recs if r["t"] == "setup"]
    passes = [r for r in recs if r["t"] == "pass"]
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    cells = [r for r in recs if r["t"] == "cell" and r["pass"] == 0]
    inputs = next(r for r in recs if r["t"] == "inputs")
    first = passes[0]

    st = self_times(trace_path)
    rep_s = {k: v / len(setups) for k, v in st["setup"].items()}
    pass_s = {k: v / len(traced) for k, v in st["pass"].items()}

    tot = defaultdict(lambda: defaultdict(float))
    for c in cells:
        for k, v in c["stats"].items():
            tot[c["model"]][k] += v
    ms, oo, win = tot["multiscalar"], tot["ooo"], tot["window"]

    def squash_share(t):
        return ratio(t["squashed_ops"], t["committed_ops"] +
                     t["squashed_ops"])

    ms_run = pass_s.get("multiscalar", 0.0)
    ooo_run = pass_s.get("ooo", 0.0)
    submit_us = [u for b in recs if b["t"] == "batch"
                 for u in b.get("submit_us", [])]
    run_s = sum(p.get("run_s", 0.0) for p in passes)
    traced_sweep = median([p["wall_s"] for p in traced])
    plain_sweep = median([p["wall_s"] for p in plain])

    m = {
        "workloads.generate_s": (rep_s.get("workloads", 0.0), "s"),
        "workloads.ops": (inputs["ops"], "count"),
        "trace.oracle_s": (rep_s.get("trace", 0.0), "s"),
        "trace.loads": (inputs["loads"], "count"),
        "multiscalar.task_set_s": (rep_s.get("multiscalar", 0.0), "s"),
        "multiscalar.run_s": (ms_run, "s"),
        "multiscalar.ns_per_cycle":
            (ratio(ms_run * 1e9, ms["cycles_simulated"]), "ns/cycle"),
        "multiscalar.cycles": (ms["cycles"], "count"),
        "multiscalar.skip_rate":
            (ratio(ms["cycles_skipped"], ms["cycles"]), "ratio"),
        "multiscalar.visits_per_cycle":
            (ratio(ms["stage_visits"], ms["cycles_simulated"]), "ratio"),
        "multiscalar.stage_occupancy":
            (ratio(ms["stage_visits"], ms["stage_slots"]), "ratio"),
        "multiscalar.reg_forward_hops": (ms["reg_forward_hops"], "count"),
        "multiscalar.squash_share": (squash_share(ms), "ratio"),
        "multiscalar.arb_misspecs_per_kload":
            (ratio(1e3 * ms["misspeculations"], ms["committed_loads"]),
             "ratio"),
        "mdp.load_checks": (ms["load_checks"], "count"),
        "mdp.store_checks": (ms["store_checks"], "count"),
        "mdp.loads_waited": (ms["loads_waited"], "count"),
        "mdp.signals_delivered": (ms["signals_delivered"], "count"),
        "mdp.eviction_releases": (ms["eviction_releases"], "count"),
        "mdp.sync_wait_cycles": (ms["sync_wait_cycles"], "count"),
        "mdp.signal_wait_share":
            (ratio(ms["signal_wait_cycles"], ms["sync_wait_cycles"]),
             "ratio"),
        "mdp.pred_accuracy":
            (ratio(ms["pred_nn"] + ms["pred_yy"],
                   ms["pred_nn"] + ms["pred_ny"] + ms["pred_yn"] +
                   ms["pred_yy"]), "ratio"),
        "ooo.run_s": (ooo_run, "s"),
        "ooo.ns_per_cycle":
            (ratio(ooo_run * 1e9, oo["cycles_simulated"]), "ns/cycle"),
        "ooo.cycles": (oo["cycles"], "count"),
        "ooo.skip_rate": (ratio(oo["cycles_skipped"], oo["cycles"]),
                          "ratio"),
        "ooo.squash_share": (squash_share(oo), "ratio"),
        "window.study_s": (pass_s.get("window", 0.0), "s"),
        "window.misspecs": (win["misspeculations"], "count"),
        "window.static_edges": (win["static_deps"], "count"),
        "harness.overhead_s": (pass_s.get("harness", 0.0), "s"),
        "harness.traced_sweep_s": (traced_sweep, "s"),
        "harness.trace_overhead":
            (ratio(traced_sweep, plain_sweep) - 1.0, "share"),
        "serve.submit_us_p50": (median(submit_us), "us"),
        "serve.run_s": (median([p.get("run_s", 0.0) for p in passes]),
                        "s"),
        "serve.cores_busy":
            (ratio(sum(p.get("run_cpu_s", 0.0) for p in passes), run_s),
             "cores"),
        "serve.trace_passes": (first.get("trace_passes", 0), "count"),
        "serve.configs": (first.get("configs", 0), "count"),
        "serve.amortization":
            (ratio(first.get("configs", 0), first.get("trace_passes", 0)),
             "ratio"),
        "serve.lockstep_rounds": (first.get("lockstep_rounds", 0),
                                  "count"),
        "serve.rejected": (first.get("rejected", 0), "count"),
    }

    # Account for the traced time: the layers' self times add up to a
    # mean set-up repetition plus a mean traced pass, less what no span
    # covers.
    setup_mean = statistics.mean(r["s"] for r in setups)
    pass_mean = statistics.mean(p["wall_s"] for p in traced)
    total = setup_mean + pass_mean
    print(f"traced: setup {setup_mean:.6f} s + sweep {pass_mean:.6f} s "
          f"= {total:.6f} s (means); untraced sweep {plain_sweep:.6f} s "
          f"(median)")
    for layer in sorted(set(rep_s) | set(pass_s)):
        t = rep_s.get(layer, 0.0) + pass_s.get(layer, 0.0)
        print(f"  {layer:<12} self {t:10.6f} s {100 * ratio(t, total):6.2f}%")
    spanned = sum(rep_s.values()) + sum(pass_s.values())
    print(f"  unspanned    {total - spanned:10.6f} s")
    return m


# ------------------------------------------------------------------ main

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="write this run's per-cell digests for the seed")
    args = ap.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")

    refuse_inherited_knobs()
    out = build_dir()
    exe = build_driver(out)
    trace_path = None
    if args.trace:
        (out / "traces").mkdir(parents=True, exist_ok=True)
        trace_path = out / "traces" / f"{args.workload}.seed{args.seed}.json"
    recs = run_driver(exe, args, trace_path)

    host = recs[0]
    print(f"host: nproc={host['nproc']} cpu={host['cpu']!r} "
          f"simd={host['simd']} build={host['build_type']} "
          f"workers={host['workers']} workload={args.workload} "
          f"seed={args.seed} seconds={args.seconds}")
    if args.record_digests:
        record_digests(recs, args.workload, args.seed)
    attempted, failed, checked = verify(recs, args.workload, args.seed)
    print(f"operations: {attempted} attempted, {failed} failed"
          + ("" if checked else " (no recorded digests for this seed)"))

    if args.trace:
        measured = per_layer(recs, trace_path)
    else:
        measured = end_to_end(recs, args.workload)
    ref_ms = host_reference(recs)
    metrics = at_reference_speed(measured, ref_ms)
    if args.trace:
        metrics["harness.host_ref_ms"] = (ref_ms, "ms")
    for name, (value, unit) in metrics.items():
        raw = measured.get(name, (value,))[0]
        print(f"{name} = {value:.6g} {unit}"
              + (f" (measured {raw:.6g})" if raw != value else ""))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
