"""The calls perfbench/record.py makes into the package when it re-records
the bend plan set: `module_multiplicities(alg, _triple_from_spec(alg, spec))`
over `workloads.constructed_triples()`.  Each call must keep resolving with
its current signature, and every timed plan of
perfbench/expect/bend_plans.json must meet the genus condition
genus >= |Lambda| of its triple.  perfbench's files are read, never written."""

import importlib.util
import json
from pathlib import Path

import pytest

from liebend.algebra import make_algebra
from liebend.report import _triple_from_spec
from liebend.sl2 import module_multiplicities

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _key(fam, triple_spec):
    params = (fam["n"],) if fam["family"] == "sl" else (fam["p"], fam["q"])
    return fam["family"], params, json.dumps(triple_spec, sort_keys=True)


@pytest.fixture(scope="module")
def lambda_sizes():
    """|Lambda| of every constructed triple, computed as record.py does."""
    sizes = {}
    for fam, triple_spec in _workloads().constructed_triples():
        family, params, key = _key(fam, triple_spec)
        alg = make_algebra(family, *params)
        lam = len(module_multiplicities(alg, _triple_from_spec(alg, triple_spec)).Lambda)
        sizes[(family, params, key)] = lam
    return sizes


def test_every_constructed_triple_decomposes(lambda_sizes):
    assert len(lambda_sizes) == len(list(_workloads().constructed_triples()))
    assert all(lam >= 1 for lam in lambda_sizes.values())


def test_every_timed_plan_meets_the_genus_condition(lambda_sizes):
    plans = json.loads((PERFBENCH / "expect" / "bend_plans.json").read_text())["plans"]
    timed = [rec["plan"] for rec in plans if rec["timed"]]
    assert len(timed) == 29
    for plan in timed:
        fam = {k: v for k, v in plan.items() if k not in ("triple", "genus")}
        assert plan["genus"] >= lambda_sizes[_key(fam, plan["triple"])], plan
