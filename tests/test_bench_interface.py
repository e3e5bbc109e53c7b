"""What perfbench reads of the package.

- perfbench/tracer.py wraps the functions and methods named in its `LAYERS`
  by name, and sums `SplitTorusData.weyl_order` over `split_torus` calls.
  Each name must resolve, and `weyl_order` must stay arithmetic: building a
  torus builds no chunk of W.
- perfbench/record.py re-records the bend plan set with
  `module_multiplicities(alg, _triple_from_spec(alg, spec))` over
  `workloads.constructed_triples()`.  Each call must keep resolving with its
  current signature, and every timed plan of perfbench/expect/bend_plans.json
  must meet the genus condition genus >= |Lambda| of its triple.
- perfbench/checks.py re-derives each check-stream answer in
  `Consistency.problems` through `split_torus`, `HSubalgebraTorus`,
  `in_weyl_orbit_of_subspace`, `is_even`, `sl2_from_partition` and the
  torus's `in_b`, `is_dominant` and `dominant_representative`.  Each
  `cmd_check` verdict of the query pool must pass it.

perfbench's files are read, never written: the module checks that their
bytes are the same after its tests as before."""

import hashlib
import importlib
import importlib.util
import inspect
import json
import math
import sys
from pathlib import Path

import pytest

from liebend import weyl
from liebend.algebra import make_algebra
from liebend.config import DEFAULT
from liebend.report import _triple_from_spec, cmd_check
from liebend.sl2 import module_multiplicities
from liebend.weyl import split_torus

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_bytes():
    return {path.relative_to(PERFBENCH).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(PERFBENCH.rglob("*")) if path.is_file()
            and "__pycache__" not in path.parts}


@pytest.fixture(scope="module", autouse=True)
def perfbench_is_only_read():
    before = _perfbench_bytes()
    assert before
    yield
    assert _perfbench_bytes() == before


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _workloads():
    return _perfbench_module("workloads")


def test_every_traced_layer_resolves():
    """Each name of the tracer's LAYERS is a function, or a method of a
    class, defined in its liebend module."""
    layers = _perfbench_module("tracer").LAYERS
    assert "split_torus" in layers["weyl"]
    for mod_name, names in layers.items():
        module = importlib.import_module(f"liebend.{mod_name}")
        for name in names:
            if "." in name:
                cls_name, meth = name.split(".")
                target = getattr(module, cls_name).__dict__[meth]
            else:
                target = getattr(module, name)
            function = inspect.unwrap(target)
            assert inspect.isfunction(function), (mod_name, name)
            assert function.__module__ == module.__name__, (mod_name, name)


@pytest.mark.parametrize("family", [("sl", n) for n in range(2, 11)] +
                         [("su", p, q) for p in range(1, 5) for q in range(1, p + 1)] +
                         [("su", 7, 3), ("su", 8, 8)],
                         ids=lambda f: f[0] + "".join(map(str, f[1:])))
def test_weyl_order_builds_no_chunk(family, fresh_caches, monkeypatch):
    """|W| is n! for sl(n) and q! * 2**q for su(p,q), read without building
    any chunk of W or any table of tail permutations (the tracer reads it
    on every `split_torus` call)."""
    def refuse(*args):
        raise AssertionError("a chunk of W was built")
    monkeypatch.setattr(weyl, "_permutations", refuse)
    monkeypatch.setattr(weyl.WeylChunks, "chunks", refuse)
    torus = split_torus(make_algebra(*family))
    n = family[1] if family[0] == "sl" else family[2]
    assert torus.weyl_order == math.factorial(n) * (1 if family[0] == "sl" else 2 ** n)


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


def test_the_consistency_check_passes_every_pool_verdict(monkeypatch):
    """Every query of the check-stream pool, answered by `cmd_check`, meets
    perfbench's consistency check; a flipped verdict does not."""
    workloads = _workloads()
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # checks.py imports it by name
    checks = _perfbench_module("checks")
    consistency = checks.Consistency()
    queries = workloads.check_stream_queries(0)
    assert len(queries) == 25
    for _, fam, rows in queries:
        report = cmd_check(fam, rows, DEFAULT).to_dict()
        verdicts = checks.query_verdicts({c["check"]: c for c in report["checks"]})
        assert consistency.problems(fam, rows, verdicts) == [], (fam, rows)
        flipped = dict(verdicts, calabi_markus=not verdicts["calabi_markus"])
        assert consistency.problems(fam, rows, flipped) == [
            "calabi-markus disagrees with dim a_h == rank"]
