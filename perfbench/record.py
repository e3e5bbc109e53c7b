"""Re-record the benchmark's expectation files from the current program.

    python3 perfbench/record.py

Writes expect/bend_plans.json (the bend plan set: which (triple, genus)
pairs are timed because they reach PASS, and each timed plan's residuals)
and expect/check_stream.json (the verdicts of the check-stream query pool).
The files in the repository were recorded at the commit that introduced the
benchmark; re-record only when a change is meant to alter these answers.
"""

import json
import os
import shutil
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import DEADLINE_S, _on_alarm, run_item  # noqa: E402

def _run(cli_main, item, workdir, deadline):
    rc, _ = run_item(cli_main, item, workdir, deadline, Tracer())
    if rc != 0:
        return rc, None
    return rc, checks.load_report(workdir, item)


def record_bend(cli_main, workdir):
    from liebend.algebra import make_algebra
    from liebend.report import _triple_from_spec
    from liebend.sl2 import module_multiplicities

    plans = []
    for fam, triple_spec in workloads.constructed_triples():
        params = (fam["n"],) if fam["family"] == "sl" else (fam["p"], fam["q"])
        alg = make_algebra(fam["family"], *params)
        lam = len(module_multiplicities(alg, _triple_from_spec(alg, triple_spec)).Lambda)
        for genus in sorted({max(lam, 2), 6}):
            if genus < lam:
                continue  # below the genus condition: not a valid plan
            plan = dict(fam, triple=triple_spec, genus=genus)
            rec = {"plan": plan, "timed": True}
            for dps, key in ((0, "float_residual"), (workloads.VERIFY_DPS, "verified_residual")):
                doc = dict(plan, t="auto", verify_dps=dps)
                item = workloads.Item(workloads.plan_id(doc), "bend", ["bend", "--plan", "{input}"],
                                      input_doc=doc, meta={"dps": dps})
                with open(os.path.join(workdir, f"{item.item_id}.in.json"), "w") as fh:
                    json.dump(doc, fh)
                rc, report = _run(cli_main, item, workdir, DEADLINE_S["bend-verified"])
                ok = rc == 0 and checks.check_bend(item, report)["ok"]
                rec["timed"] = rec["timed"] and ok
                rec[key] = checks.bend_residual(report, dps) if ok else None
                if not ok:
                    rec["seed_outcome"] = rc if isinstance(rc, str) else f"exit {rc}"
            if not rec["timed"]:
                rec.pop("float_residual", None)
                rec.pop("verified_residual", None)
            plans.append(rec)
            print(json.dumps(rec), flush=True)
    return {"plans": plans}


def record_check_stream(cli_main, workdir):
    queries = {}
    for item in workloads.check_stream_items(0):
        with open(os.path.join(workdir, f"{item.item_id}.in.json"), "w") as fh:
            json.dump(item.input_doc, fh)
        rc, report = _run(cli_main, item, workdir, DEADLINE_S["check-stream"])
        print(item.item_id, rc, flush=True)
        if rc == 0:
            key = workloads.query_key(item.meta["family"], item.meta["rows"])
            queries[key] = checks.query_verdicts(report)
    return {"seed": workloads.STREAM_SEED, "queries": queries}


def main():
    import liebend.cli
    signal.signal(signal.SIGALRM, _on_alarm)
    workdir = os.path.join(ROOT, ".bench_work", "record")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    os.makedirs(workloads.EXPECT_DIR, exist_ok=True)
    for name, doc in (("bend_plans.json", record_bend(liebend.cli.main, workdir)),
                      ("check_stream.json",
                       record_check_stream(liebend.cli.main, workdir))):
        with open(os.path.join(workloads.EXPECT_DIR, name), "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
