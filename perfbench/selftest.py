"""Fast self-test of the benchmark itself (about half a minute).

    python3 perfbench/selftest.py

Checks that
  1. every metric named in BENCHMARK.json is printed, by name and with its
     unit, for --trace 0 (end to end) and --trace 1 (per layer);
  2. an injected wrong expectation is counted as a failed, incorrect item.
Exits 0 when both hold.
"""

import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import _on_alarm, run_item  # noqa: E402


def check_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "bend-float",
               "--seed", "3", "--seconds", "1", "--trace", str(trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True).stdout
        lines = out.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
        want = {m["name"]: m["unit"] for m in bench[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want, f"trace {trace}: metrics differ: {set(got) ^ set(want)}"
        for name, unit in want.items():
            value = result["metrics"][name]["value"]
            assert isinstance(value, (int, float)), (name, value)
            assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                       for line in lines[:-1]), f"{name} [{unit}] not in the printed table"
        assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    print("ok: every named metric is printed with its unit")


def check_wrong_expectation_fails():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import liebend.cli
    signal.signal(signal.SIGALRM, _on_alarm)
    workdir = os.path.join(ROOT, ".bench_work", "selftest")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    items = [it for it in workloads.check_stream_items(0)
             if it.item_id.startswith(("sl5-", "su4,2-"))]
    recorded = workloads.load_expect("check_stream.json")["queries"]
    outcomes = {}
    for it in items:
        with open(os.path.join(workdir, f"{it.item_id}.in.json"), "w") as fh:
            json.dump(it.input_doc, fh)
        outcomes[it.item_id] = run_item(liebend.cli.main, it, workdir, 30.0, Tracer())

    verdicts = checks.check_items("check-stream", items, outcomes, workdir, recorded)
    assert all(v["ok"] for v in verdicts.values()), verdicts

    victim = items[0]
    key = workloads.query_key(victim.meta["family"], victim.meta["rows"])
    wrong = dict(recorded)
    wrong[key] = dict(recorded[key], calabi_markus=not recorded[key]["calabi_markus"])
    verdicts = checks.check_items("check-stream", items, outcomes, workdir, wrong)
    bad = [i for i, v in verdicts.items() if not v["ok"]]
    assert bad == [victim.item_id], verdicts
    assert verdicts[victim.item_id]["incorrect"], verdicts[victim.item_id]

    pass_record = {"attempted": len(items), "failed": len(bad), "incorrect": len(bad),
                   "items": verdicts, "item_s": {victim.item_id: 1.0}, "setup_s": 1.0,
                   "speed_s": [run.REF_LOOP_S], "peak_rss_mb": 1.0, "verified_digits_min": 40.0}
    record = run.summarize("check-stream", 0, False, [pass_record], [pass_record], [])
    assert record["failed"] == 1 and record["metrics"]["pass_share"]["value"] < 1.0, record
    shutil.rmtree(workdir, ignore_errors=True)
    print("ok: an injected wrong expectation counts as a failure")


def main():
    check_metrics_printed()
    check_wrong_expectation_fails()
    return 0


if __name__ == "__main__":
    sys.exit(main())
