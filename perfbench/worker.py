"""One benchmark pass in a fresh process: set-up, the timed items, with
--first-pass the untimed items, then the correctness checks.

Usage (normally started by run.py):
    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR --src DIR
        [--setup-only | --first-pass | --trace SPANS.json]

Prints one JSON object on its last stdout line.  The set-up time is the
import of liebend.cli plus the modules the workload loads lazily.

After the set-up and after each timed item the worker samples the speed of
a fixed reference loop; run.py scales the run's times by these samples (see
run.py, reference seconds).
"""

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import ROOT, Tracer  # noqa: E402

# Per-command deadline.  On a 2-core machine healthy commands take at most
# about 1.5 s (sec6 su(6,6), sl(7) check queries), and at most 2.7 s while
# the machine runs at its slowest; the pinned check-stream queries search for
# minutes, so their deadline bounds what a run spends on them.
DEADLINE_S = {"sec6-grid": 60.0, "check-stream": 4.0,
              "bend-verified": 60.0, "bend-float": 60.0}

LAZY_MODULES = {"bend-verified": ("liebend.highprec",)}


def reference_loop():
    """Fixed work in the three styles the program spends its time in:
    Fraction arithmetic (the exact lane), permuted tuples hashed into a set
    (Weyl orbit scans) and small float matrices (the float lane).  numpy is
    imported here, not at module level, because its import is part of the
    program's set-up."""
    import numpy as np
    m = np.arange(36.0).reshape(6, 6) / 50
    t0 = time.perf_counter()
    acc, seen = Fraction(0), {}
    for i in range(1, 500):
        acc += Fraction(i % 7 - 3, i % 5 + 1)
        seen[i % 97] = acc
    orbit = set()
    for perm in itertools.islice(itertools.permutations(range(7)), 700):
        v = tuple(2 * x - 3 for x in perm)
        orbit.add(v)
    x = m
    for _ in range(150):
        x = (x @ m + m) * 0.5
        np.linalg.norm(x)
    return time.perf_counter() - t0


def speed_sample():
    """The reference loop's time, the fastest of three runs."""
    return min(reference_loop() for _ in range(3))


class DeadlineExceeded(BaseException):
    """Raised by the interval timer; a BaseException so that the CLI's
    `except` clauses cannot turn it into an exit code."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def run_item(cli_main, item, workdir, deadline, tracer):
    """Run one CLI command; returns (exit code or outcome tag, stderr text)."""
    inp = os.path.join(workdir, f"{item.item_id}.in.json")
    out = os.path.join(workdir, f"{item.item_id}.out.json")
    argv = [inp if a == "{input}" else a for a in item.argv] + ["--out", out]
    err = io.StringIO()
    tracer.item = item.item_id
    signal.setitimer(signal.ITIMER_REAL, deadline)
    try:
        with contextlib.redirect_stderr(err):
            rc = tracer.call(ROOT, cli_main, argv)
    except DeadlineExceeded:
        rc = "deadline"
    except Exception as ex:  # a program fault, not an input error
        rc = f"exception: {type(ex).__name__}: {ex}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return rc, err.getvalue()


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--src", required=True, help="directory holding the liebend package")
    ap.add_argument("--trace", default=None, metavar="SPANS_JSON",
                    help="trace the layers and write the spans to this file")
    ap.add_argument("--setup-only", action="store_true",
                    help="measure the set-up time and exit")
    ap.add_argument("--first-pass", action="store_true",
                    help="the run's first pass: also run the untimed items and re-derive "
                         "check-stream answers through a second public path")
    args = ap.parse_args(argv)

    items = [] if args.setup_only else [
        it for it in workloads.items_for(args.workload, args.seed) if it.timed or args.first_pass]
    os.makedirs(args.workdir, exist_ok=True)
    for it in items:
        if it.input_doc is not None:
            with open(os.path.join(args.workdir, f"{it.item_id}.in.json"), "w") as fh:
                json.dump(it.input_doc, fh)
    sys.path.insert(0, args.src)

    t0 = time.perf_counter()
    import liebend.cli
    for name in LAZY_MODULES.get(args.workload, ()):
        __import__(name)
    setup_s = time.perf_counter() - t0
    speed_s = [speed_sample()]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "speed_s": speed_s}))
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    tracer = Tracer()
    if args.trace:
        tracer.install()
    deadline = DEADLINE_S[args.workload]
    timed = [it for it in items if it.timed]
    untimed = [it for it in items if not it.timed]

    outcomes, item_s = {}, {}
    tracer.active = bool(args.trace)
    for it in timed:
        t0 = time.perf_counter()
        outcomes[it.item_id] = run_item(liebend.cli.main, it, args.workdir, deadline, tracer)
        item_s[it.item_id] = time.perf_counter() - t0
        speed_s.append(speed_sample())
    tracer.active = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for it in untimed:
        outcomes[it.item_id] = run_item(liebend.cli.main, it, args.workdir, deadline, tracer)

    verdicts = checks.check_items(args.workload, items, outcomes, args.workdir,
                                  consistency=args.first_pass)
    digits = checks.digits_min(args.workload, items, args.workdir)

    result = {
        "setup_s": setup_s,
        "item_s": item_s,
        "speed_s": speed_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(items),
        "failed": sum(1 for v in verdicts.values() if not v["ok"]),
        "incorrect": sum(1 for v in verdicts.values() if v.get("incorrect")),
        "verified_digits_min": digits,
        "items": verdicts,
    }
    if args.trace:
        result["layers"] = tracer.layer_table()
        with open(args.trace, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "item"],
                       "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
