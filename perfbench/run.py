"""liebend benchmark: four CLI workloads measured end to end and, in a
separate traced run, layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Load model: a closed loop with one client.  Every pass runs in a fresh
worker process (cold imports, cold in-process state) with one BLAS thread,
sends one command at a time, and never repeats an item.  A run makes a fixed
number of passes, sized from --seconds (see pass_count), so that the items
attempted and failed depend only on the workload, the seed and --seconds.
The first pass also runs the untimed items and the full correctness checks.
Before each pass a set-up-only worker adds a set-up sample.

Times are in reference seconds (see REF_LOOP_S): setup_s is the median over
the run's set-up samples, pass_s the sum over the timed items of each
item's median over the passes; peak RSS is the median over passes.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics, from traced passes alternating
with untraced ones (whose difference is trace.overhead_s).  The full record,
with the environment, the raw samples and every failed item, goes to
.bench_work/results/<workload>-seed<N>-trace<T>.json in the checkout.
"""

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 2
RUN_LIMIT_S = 170.0  # a run must end within 180 s
# Reference seconds.  On a shared VM the machine switches, for seconds at a
# time, between a normal and a fast mode, and the share of fast mode in a
# 20 s run differs from run to run.  Workers sample a fixed reference loop
# (worker.reference_loop, which does not touch liebend) after the set-up and
# after every timed item.  In fast mode the loop's time drops by a factor of
# about 1.7 but the program's only by about 1.3, its square root (measured on
# a 2-vCPU Xeon VM), so a run's times are multiplied by the square root of
# REF_LOOP_S over the median of all its samples.  REF_LOOP_S is the loop's
# time in normal mode on that VM under Python 3.11.7, so reference seconds
# read as seconds at that machine's normal speed.
REF_LOOP_S = 0.0035

# Seconds a run spends per pass on a 2-vCPU Xeon VM: the pass, its set-up
# worker and the first pass's extra work spread over the run's passes.
PASS_COST_S = {"sec6-grid": 5.15, "check-stream": 13.0, "bend-verified": 7.9,
               "bend-float": 2.0}
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_share", "ratio"),
    ("verified_digits_min", "digits"),
)


class BenchError(Exception):
    pass


def environment():
    versions = {}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"python": platform.python_version(), **versions,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "worker_env": WORKER_ENV}


def start_worker(workload, seed, workdir, deadline_at, extra=()):
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", workdir, "--src", SRC, *extra]
    env = dict(os.environ, **WORKER_ENV)
    timeout = deadline_at - time.monotonic()
    if timeout <= 0:
        raise BenchError("run time limit reached before the worker started")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as ex:
        raise BenchError(f"worker exceeded the run time limit: {' '.join(cmd)}") from ex
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def pass_count(workload, seconds):
    """Passes in a run: as many as fill `seconds` at the nominal pass cost.
    Fixed in advance, so that the attempted and failed counts do not depend
    on the machine's speed."""
    return max(MIN_PASSES, math.ceil(seconds / PASS_COST_S[workload]))


def run_workload(workload, seed, seconds, trace):
    """Run the passes of one run and return the record."""
    if not os.path.isfile(os.path.join(SRC, "liebend", "cli.py")):
        raise BenchError(f"no liebend package under {SRC}")
    workdir = os.path.join(WORK, workload)
    deadline_at = time.monotonic() + RUN_LIMIT_S
    workers, passes, traced = [], [], []
    for k in range(pass_count(workload, seconds)):
        workers.append(start_worker(workload, seed, workdir, deadline_at, ["--setup-only"]))
        extra = ["--first-pass"] if k == 0 else []
        use_trace = trace and k % 2 == 1
        if use_trace:
            spans = os.path.join(WORK, "results", f"{workload}-seed{seed}-spans.json")
            os.makedirs(os.path.dirname(spans), exist_ok=True)
            extra += ["--trace", spans]
        res = start_worker(workload, seed, workdir, deadline_at, extra)
        workers.append(res)
        (traced if use_trace else passes).append(res)
    return summarize(workload, seed, trace, workers, passes, traced)


def pass_time(passes):
    """One pass over the timed items in measured seconds: for each item, the
    median of its times over the passes, summed."""
    return sum(statistics.median(p["item_s"][item] for p in passes)
               for item in passes[0]["item_s"])


def summarize(workload, seed, trace, workers, passes, traced):
    everything = passes + traced
    attempted = sum(p["attempted"] for p in everything)
    failed = sum(p["failed"] for p in everything)
    incorrect = sum(p["incorrect"] for p in everything)
    # every pass of one seed must reach the same outcome for each item it runs
    outcomes = {}
    for p in everything:
        for item_id, v in p["items"].items():
            outcomes.setdefault(item_id, set()).add(v["ok"])
    deterministic = all(len(v) == 1 for v in outcomes.values())
    speed_s = statistics.median(x for w in workers for x in w["speed_s"])
    to_ref = math.sqrt(REF_LOOP_S / speed_s)
    wall_s = pass_time(passes)
    metrics = {
        "setup_s": statistics.median(w["setup_s"] for w in workers) * to_ref,
        "pass_s": wall_s * to_ref,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "pass_share": 1.0 - failed / attempted,
        "verified_digits_min": min(p["verified_digits_min"] for p in everything),
    }
    units = dict(END_TO_END)
    if trace:
        units = dict(tracer.metric_units())
        layer = {name: statistics.median(p["layers"][name] for p in traced)
                 for name in units if name != "trace.overhead_s"}
        layer["trace.overhead_s"] = (pass_time(traced) - wall_s) * to_ref
        metrics = layer
    failures = {}
    for p in everything:
        for item_id, v in p["items"].items():
            if not v["ok"]:
                failures.setdefault(item_id, v["reason"])
    record = {
        "workload": workload, "seed": seed, "trace": trace,
        "environment": environment(),
        "passes": len(passes), "traced_passes": len(traced), "workers": len(workers),
        "wall_s": wall_s, "speed_s": speed_s, "ref_loop_s": REF_LOOP_S,
        "item_s_samples": [p["item_s"] for p in passes],
        "setup_s_samples": [w["setup_s"] for w in workers],
        "speed_s_samples": [w["speed_s"] for w in workers],
        "attempted": attempted, "failed": failed, "incorrect": incorrect,
        "fail_share": failed / attempted, "deterministic": deterministic,
        "failures": failures,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return record


def write_record(record):
    out = os.path.join(WORK, "results",
                       f"{record['workload']}-seed{record['seed']}-trace{int(record['trace'])}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return out


def print_record(record, path):
    env = record["environment"]
    print(f"# {record['workload']}  seed={record['seed']}  trace={int(record['trace'])}  "
          f"passes={record['passes']}+{record['traced_passes']} traced  "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"mpmath={env['mpmath']} nproc={env['nproc']} "
          f"OPENBLAS_NUM_THREADS={env['worker_env']['OPENBLAS_NUM_THREADS']}")
    print(f"  fail_share  {record['fail_share']:.4f}  ({record['failed']} failed "
          f"of {record['attempted']} attempted, {record['incorrect']} incorrect)")
    print(f"  wall_s  {record['wall_s']:.6g} s  (pass_s in measured seconds)")
    for item_id, reason in sorted(record["failures"].items()):
        print(f"    failed {item_id}: {reason[:160]}")
    for name, m in record["metrics"].items():
        print(f"  {name:<52} {m['value']:.6g} {m['unit']}")
    print(f"  record: {os.path.relpath(path, ROOT)}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload in turn")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload and --all")
    names = workloads.WORKLOADS if args.all else (args.workload,)
    try:
        for name in names:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print_record(record, write_record(record))
    except BenchError as ex:
        print(f"benchmark error: {ex}", file=sys.stderr)
        return 1
    if not args.all:
        print(json.dumps({
            "correct": record["incorrect"] == 0 and record["deterministic"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": record["metrics"],
        }))
    return 0

if __name__ == "__main__":
    sys.exit(main())
