"""The benchmark's check-stream query pool, answered through the CLI as the
benchmark records them: a change to the exact lane that moves a verdict, a
certificate point or an even witness fails here, not only in the benchmark.
perfbench/workloads.py and perfbench/expect/check_stream.json are read, never
written."""

import importlib.util
import json
from pathlib import Path

import pytest

from liebend import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()
POOL = WORKLOADS.check_stream_queries(WORKLOADS.STREAM_SEED)
EXPECT = json.loads((PERFBENCH / "expect" / "check_stream.json").read_text())["queries"]


def test_the_pool_is_the_recorded_one():
    assert len(POOL) == 25
    assert all(WORKLOADS.query_key(fam, rows) in EXPECT for _, fam, rows in POOL)


@pytest.mark.parametrize("item_id, fam, rows", POOL, ids=[q[0] for q in POOL])
def test_pool_query_keeps_its_answers(item_id, fam, rows, tmp_path):
    ah_file, out = tmp_path / "ah.json", tmp_path / "report.json"
    ah_file.write_text(json.dumps(rows))
    family = ["--family", fam["family"]] + (
        ["--n", str(fam["n"])] if fam["family"] == "sl" else
        ["--p", str(fam["p"]), "--q", str(fam["q"])])
    argv = ["check", *family, "--ah", str(ah_file), "--json", "--out", str(out)]
    assert cli.main(argv) == 0
    checks = {c["check"]: c for c in json.loads(out.read_text())["checks"]}
    even = checks.get("check/even-witness")
    got = {
        "benoist": checks["check/benoist"]["verdict"],
        "calabi_markus": checks["check/calabi-markus"]["verdict"],
        "certificate": checks["check/benoist"].get("witness"),
        "even_witness": even["verdict"].get("even_witness") if even else None,
    }
    assert got == EXPECT[WORKLOADS.query_key(fam, rows)]
