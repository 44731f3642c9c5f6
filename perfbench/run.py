#!/usr/bin/env python3
"""Host-time benchmark of the NDPipe reproduction.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload fleet-day --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55
    python3 perfbench/run.py --record 0-63,1000003 [--workload W]  # re-record fingerprints

The first call configures and builds perfbench/CMakeLists.txt (the
repo's libraries plus the ndpbench binary) into $CARGO_TARGET_DIR, or
.bench_build when that is unset. Build output goes to stderr.

--trace 0: runs repetitions of the workload, one ndpbench process each,
one at a time, until --seconds have passed. Every repetition's outputs
are fingerprinted bit for bit; the end-to-end metrics are read on the
process CPU clock and summarized over the repetitions after the first
(a warm-up): median and quartiles, and as the reported value the
slow-side decile (see perfbench/README.md). --trace 1: runs the traced pass of every workload
(the named one first) and reports the per-layer metrics.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Records with provenance and every
repetition's values go to <build dir>/records/.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")

# Workload -> configuration recorded in provenance (the inputs
# themselves are built in cpp/workloads.cc).
WORKLOADS = {
    "serve-spike": (
        "OpenLoopServe on a 16-store sched::Cluster: 1M requests, "
        "2M users, +/-35% diurnal, 4x flash crowd, store 5 crashes "
        "mid-spike, client ingress degraded to 30%; unit: offered request"),
    "fleet-day": (
        "20-store Cluster with WAN sites eu/ap: FT-DMP ResNet50 "
        "nRun=3 40M images on stores 0-9, OfflineInfer 40M images "
        "on stores 10-19, 40-round GeoReplicate; unit: image"),
    "drift-retrain": (
        "ImageNet1K (100-class) and ImageNet21K (200-class) "
        "profiles: fullTrain (4 epochs), advanceDays(14), "
        "recencyBiasedDataset, fineTune (2 epochs), evaluate, encodeDelta in a 25.6M-param vector, "
        "applyDelta at a replica; unit: training sample (examples x "
        "epochs)"),
}

# The workloads BENCHMARK.json lists for end-to-end runs. serve-spike
# runs in the traced pass and on request, but its run medians spread
# past the end-to-end bound on a shared host (see perfbench/README.md).
E2E_WORKLOADS = ("fleet-day", "drift-retrain")

END_TO_END = {
    "items_per_s": "1/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
HIGHER_IS_BETTER = {"items_per_s"}

# Per-layer metrics of the traced pass (see perfbench/README.md for
# which end-to-end metric each should move, on which workload).
_CLUSTER = ("serve-spike", "fleet-day")
PER_LAYER = {}
for _wl in _CLUSTER:
    PER_LAYER.update({
        f"sim.events.{_wl}": "count",
        f"sim.ns_per_event.{_wl}": "ns",
        f"sim.dispatch_ns.{_wl}": "ns",
        f"sim.resume_ns.{_wl}": "ns",
        f"net.flows.{_wl}": "count",
        f"net.peak_flows.{_wl}": "count",
        f"net.us_per_flow.{_wl}": "us",
        f"obs.trace_overhead_pct.{_wl}": "%",
        f"obs.monitor_overhead_pct.{_wl}": "%",
    })
PER_LAYER.update({
    "arrival.ns_per_request": "ns",
    "serve.admit_ns_per_request": "ns",
    "serve.shed_share": "ratio",
    "sched.overhead_pct": "%",
    "sched.preemptions": "count",
    "pipeline.items": "count",
    "georep.versions": "count",
    "dataflow.self_s_est": "s",
    "nn.samples": "count",
    "nn.train_s": "s",
    "nn.eval_s": "s",
    "nn.us_per_sample": "us",
})
for _k in ("matmul", "matmulNT", "matmulTN", "softmax",
           "matmulNT.c200", "matmulTN.c200", "softmax.c200"):
    PER_LAYER.update({
        f"nn.{_k}_ns": "ns",
        f"nn.{_k}_flops": "count",
        f"nn.{_k}_bytes": "B",
        f"nn.{_k}_calls": "count",
    })
PER_LAYER.update({
    "data.drift_s": "s",
    "data.curate_s": "s",
    "delta.encode_ms": "ms",
    "delta.apply_ms": "ms",
    "delta.bytes": "B",
    "codec.deflate_mb_per_s": "MB/s",
    "codec.inflate_mb_per_s": "MB/s",
})
for _wl in WORKLOADS:
    PER_LAYER[f"bench.span_overhead_pct.{_wl}"] = "%"

# A repetition that hangs is a failure, not a stalled benchmark.
REP_TIMEOUT_S = 120


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configure (once) and build ndpbench; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"no repo sources under {ROOT}/src")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", bdir] + gen,
                       stdout=sys.stderr, stderr=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)
    exe = os.path.join(bdir, "ndpbench")
    if not os.path.isfile(exe):
        raise BenchError(f"build produced no {exe}")
    return exe


def digest(fields):
    """Fingerprint of a repetition's canonical output fields."""
    text = "".join(f"{name}={bits}\n" for name, bits in fields)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_fingerprints():
    try:
        with open(FINGERPRINTS) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def run_rep(exe, workload, seed):
    """One repetition in its own process; returns its parsed record."""
    proc = subprocess.run([exe, "run", workload, "--seed", str(seed)],
                          capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"ndpbench exited {proc.returncode}: "
                         f"{proc.stderr.strip()}")
    return json.loads(lines[-1])


def check_rep(rec, expected):
    """Problems with one repetition's outputs (empty = correct)."""
    problems = list(rec["violations"])
    got = digest(rec["fields"])
    if expected is not None and got != expected:
        problems.append(f"fingerprint {got} != recorded {expected}")
    return problems


def summarize(name, values):
    """Quartiles of one metric over a run's repetitions, plus the value
    reported: the slow-side decile (90th percentile of a time, 10th of
    a rate), which is where repetitions on a shared host settle when
    its cores are contended (see perfbench/README.md)."""
    if len(values) == 1:
        values = values * 2
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    slow = deciles[0] if name in HIGHER_IS_BETTER else deciles[-1]
    return {"value": slow, "median": med, "q1": q1, "q3": q3,
            "n": len(values), "unit": END_TO_END[name]}


def git_provenance():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse",
                              "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if (top.returncode != 0 or sha.returncode != 0 or
                os.path.realpath(top.stdout.strip()) !=
                os.path.realpath(ROOT)):
            return {"git_sha": "unknown", "git_dirty": None}
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                               capture_output=True, text=True, timeout=10)
        return {"git_sha": sha.stdout.strip(),
                "git_dirty": bool(dirty.stdout.strip())}
    except (OSError, subprocess.TimeoutExpired):
        return {"git_sha": "unknown", "git_dirty": None}


def provenance(exe, args, obs):
    info = json.loads(subprocess.run([exe, "info"], capture_output=True,
                                     text=True, check=True).stdout)
    prov = git_provenance()
    prov.update(info)
    prov.update({
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload_config": {w: WORKLOADS[w]
                            for w in selected(args.workload)},
        "obs_sessions": obs,
        "clock": "CLOCK_PROCESS_CPUTIME_ID (end-to-end metrics); "
                 "steady clock kept as *wall_s",
    })
    return prov


def selected(workload):
    return list(WORKLOADS) if workload == "all" else [workload]


def write_record(args, record):
    rdir = os.path.join(build_dir(), "records")
    os.makedirs(rdir, exist_ok=True)
    path = os.path.join(
        rdir, f"{args.workload}-seed{args.seed}-trace{args.trace}-"
              f"{time.strftime('%Y%m%dT%H%M%S')}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    log(f"record: {path}")


def end_to_end(exe, workload, seed, seconds):
    """Repetitions until `seconds` pass; returns (stats, reps, failed).

    The first repetition warms the page cache and is checked but left
    out of the statistics."""
    expected = load_fingerprints().get(workload, {}).get(str(seed))
    if expected is None:
        log(f"{workload}: no recorded fingerprint for seed {seed}; "
            "checking invariants and same-seed agreement only")
    reps, failed, digests = [], 0, set()
    start = time.monotonic()
    while len(reps) < 2 or time.monotonic() - start < seconds:
        try:
            rec = run_rep(exe, workload, seed)
        except (BenchError, ValueError, subprocess.TimeoutExpired) as e:
            log(f"{workload}: repetition failed: {e}")
            reps.append(None)
            failed += 1
            continue
        problems = check_rep(rec, expected)
        digests.add(digest(rec["fields"]))
        if len(digests) > 1:
            problems.append("outputs differ between same-seed repetitions")
        if problems:
            log(f"{workload}: incorrect repetition: {'; '.join(problems)}")
            failed += 1
        reps.append(rec)
    good = [r for r in reps[1:] if r is not None] or \
        [r for r in reps if r is not None]
    stats = {}
    if good:
        series = {
            "items_per_s": [r["items"] / r["timed_s"] for r in good],
            "cpu_s": [r["cpu_s"] for r in good],
            "setup_s": [r["setup_s"] for r in good],
            "peak_rss_mb": [r["peak_rss_mb"] for r in good],
        }
        for name, values in series.items():
            stats[name] = summarize(name, values)
    return stats, reps, failed


def print_e2e_table(rows):
    print(f"{'workload':<14} {'metric':<12} {'unit':<5} {'reported':>14} "
          f"{'median':>14} {'q1':>14} {'q3':>14} {'n':>3}")
    for workload, stats, attempted, failed in rows:
        for name, s in stats.items():
            print(f"{workload:<14} {name:<12} {s['unit']:<5} "
                  f"{s['value']:>14.6g} {s['median']:>14.6g} "
                  f"{s['q1']:>14.6g} {s['q3']:>14.6g} {s['n']:>3}")
        print(f"{workload:<14} ops_attempted {attempted}, ops_failed {failed}")


def traced(exe, first, seed):
    """Traced pass of every workload, `first` first; returns
    (metrics, attempted, failed, passes)."""
    order = [first] + [w for w in WORKLOADS if w != first]
    spans_dir = os.path.join(build_dir(), "spans")
    os.makedirs(spans_dir, exist_ok=True)
    metrics, failed, passes = {}, 0, []
    for wl in order:
        path = os.path.join(spans_dir, f"{wl}-seed{seed}.json")
        proc = subprocess.run([exe, "trace", wl, "--seed", str(seed),
                               "--spans", path],
                              capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            log(f"{wl}: traced pass failed ({proc.returncode}): "
                f"{proc.stderr.strip()}")
            failed += 1
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        passes.append(result)
        broken = [k for k, same in result["identical"].items() if not same]
        if broken:
            log(f"{wl}: outputs changed under {', '.join(broken)}")
            failed += 1
        metrics.update(result["metrics"])
    return metrics, len(order), failed, passes


def record_fingerprints(exe, workloads, seeds):
    fps = load_fingerprints()
    for wl in workloads:
        for seed in seeds:
            rec = run_rep(exe, wl, seed)
            if rec["violations"]:
                raise BenchError(f"{wl} seed {seed}: {rec['violations']}")
            fps.setdefault(wl, {})[str(seed)] = digest(rec["fields"])
            log(f"{wl} seed {seed}: {fps[wl][str(seed)]}")
    for wl in fps:
        fps[wl] = dict(sorted(fps[wl].items(), key=lambda kv: int(kv[0])))
    with open(FINGERPRINTS, "w") as f:
        json.dump(fps, f, indent=1)
        f.write("\n")


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", metavar="SEEDS",
                    help="record fingerprints for seeds like 0-99,1000003")
    args = ap.parse_args()
    if args.workload is None and args.record is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    try:
        exe = build()
        if args.record:
            record_fingerprints(exe, selected(args.workload or "all"),
                                parse_seeds(args.record))
            return 0
        if args.trace:
            first = "serve-spike" if args.workload == "all" else args.workload
            metrics, attempted, failed, passes = traced(exe, first, args.seed)
            missing = sorted(set(PER_LAYER) - set(metrics))
            if missing:
                log(f"traced pass did not report: {', '.join(missing)}")
                failed = max(failed, 1)
            obs = "paired TraceSession/MonitorSession runs (traced pass)"
            result_metrics = {k: {"value": metrics[k], "unit": u}
                              for k, u in PER_LAYER.items() if k in metrics}
            record = {"provenance": provenance(exe, args, obs),
                      "passes": passes}
        else:
            rows, result_metrics, attempted, failed = [], {}, 0, 0
            reps_by_wl = {}
            for wl in selected(args.workload):
                stats, reps, wl_failed = end_to_end(exe, wl, args.seed,
                                                    args.seconds)
                rows.append((wl, stats, len(reps), wl_failed))
                reps_by_wl[wl] = reps
                attempted += len(reps)
                failed += wl_failed
                for name, s in stats.items():
                    key = name if args.workload != "all" else f"{wl}.{name}"
                    result_metrics[key] = {"value": s["value"],
                                           "unit": s["unit"]}
            print_e2e_table(rows)
            record = {"provenance": provenance(exe, args, "off"),
                      "stats": {wl: st for wl, st, _, _ in rows},
                      "reps": reps_by_wl}
        print(json.dumps({"provenance": record["provenance"]}))
        write_record(args, record)
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        return 2
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
