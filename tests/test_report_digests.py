"""Byte lock on the verified bend reports.

tests/data/bend_report_digests.json holds, for each plan it lists at each
verify_dps it lists (the plans that reach PASS in perfbench's bend set and
both presets, at dps 2, 5, 15, 40, 60 and 100), three SHA-256 digests:
- `skeleton_sha256`, of the report with every float leaf replaced by one
  placeholder: the check names, verdicts, dimensions, counts and error
  texts, so a change that moves only float bits keeps it, and one that
  could have moved a verdict does not;
- `sha256`, of the JSON report (`cmd_bend(...).to_json()`, the bytes
  `bend --out` writes): any change to the mp lane that moves one bit of a
  verified number, or a verdict, shows here;
- `float_sha256`, of the same report with the `verified` block of
  `bend/residuals` removed: the float lane's bytes (the shipped matrices,
  t, the float residuals, the certificate), which no change to the mp lane
  may move.

Re-record (only when a change of bytes is intended and explained):
    PYTHONPATH=src python tests/test_report_digests.py
It prints each record that moved: whether its skeleton moved, else whether
the float lane moved, else that only its `verified` block moved.
"""

import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from liebend import serialize
from liebend.config import DEFAULT
from liebend.report import cmd_bend

from conftest import float_skeleton

_PATH = Path(__file__).resolve().parent / "data" / "bend_report_digests.json"
_DOC = json.loads(_PATH.read_text())


def _plan_id(plan):
    if isinstance(plan, str):
        return plan
    if plan["family"] == "sl":
        fam = f"sl{plan['n']}-[" + ",".join(map(str, plan["triple"]["partition"])) + "]"
    else:
        fam = f"su{plan['p']},{plan['q']}-{plan['triple']}"
    return f"{fam}-g{plan['genus']}"


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def _digests(plan_json, dps):
    """(whole, float lane, skeleton): the digests of the report of the plan
    (given as its JSON text) at dps, of that report without its verified
    block, and of its skeleton."""
    plan = json.loads(plan_json)
    if isinstance(plan, str):
        from liebend.report import PRESETS
        plan = PRESETS[plan]
    report = cmd_bend(dict(plan, t="auto", verify_dps=dps), DEFAULT)
    doc = report.to_dict()
    skeleton = _sha(serialize.dumps(float_skeleton(doc)) + "\n")
    for check in doc["checks"]:
        if check["check"] == "bend/residuals":
            check["verdict"] = {k: v for k, v in check["verdict"].items() if k != "verified"}
    return _sha(report.to_json()), _sha(serialize.dumps(doc) + "\n"), skeleton


_KEYS = ("sha256", "float_sha256", "skeleton_sha256")
_CASES = [(rec["plan"], dps, *digests) for rec in _DOC["plans"]
          for dps, *digests in zip(_DOC["dps"], *(rec[key] for key in _KEYS))]
_IDS = [f"{_plan_id(c[0])}@dps{c[1]}" for c in _CASES]
_ARGS = "plan, dps, digest, float_digest, skeleton_digest"


@pytest.mark.parametrize(_ARGS, _CASES, ids=_IDS)
def test_skeleton_keeps_its_digest(plan, dps, digest, float_digest, skeleton_digest):
    assert _digests(json.dumps(plan), dps)[2] == skeleton_digest


@pytest.mark.parametrize(_ARGS, _CASES, ids=_IDS)
def test_float_lane_keeps_its_digest(plan, dps, digest, float_digest, skeleton_digest):
    assert _digests(json.dumps(plan), dps)[1] == float_digest


@pytest.mark.parametrize(_ARGS, _CASES, ids=_IDS)
def test_verified_report_keeps_its_digest(plan, dps, digest, float_digest, skeleton_digest):
    assert _digests(json.dumps(plan), dps)[0] == digest


# run in a fresh process, whose OpenBLAS picks its kernel at import
_CHILD = """\
import json, sys
sys.path[:0] = [sys.argv[1]]
from test_report_digests import _DOC, _digests
print(json.dumps([_digests(json.dumps(rec["plan"]), 40) for rec in _DOC["plans"]]))
"""


def test_skeletons_hold_under_a_second_blas_kernel():
    """The 31 plans at verify_dps 40, recomputed in a child process whose
    OpenBLAS runs its Sandybridge kernel (`OPENBLAS_CORETYPE`, set in the
    child's environment only), keep every recorded skeleton digest, while
    at least one float-lane digest moves: the kernel really changed, and
    what moved with it is floats only."""
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_CORETYPE="Sandybridge", PYTHONPATH=os.pathsep.join(
        [str(tests.parent / "src")]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", _CHILD, str(tests)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    at = _DOC["dps"].index(40)
    assert len(got) == len(_DOC["plans"]) == 31
    moved = [_plan_id(rec["plan"]) for rec, (_, _, skeleton) in zip(_DOC["plans"], got)
             if skeleton != rec["skeleton_sha256"][at]]
    assert moved == []
    assert any(lane != rec["float_sha256"][at] for rec, (_, lane, _) in zip(_DOC["plans"], got))


if __name__ == "__main__":
    for rec in _DOC["plans"]:
        new = [_digests(json.dumps(rec["plan"]), dps) for dps in _DOC["dps"]]
        old = zip(*(rec[key] for key in _KEYS))
        for dps, (whole, lane, skeleton), (old_whole, old_lane, old_skeleton) in zip(
                _DOC["dps"], new, old):
            if skeleton != old_skeleton:
                print(f"{_plan_id(rec['plan'])}@dps{dps}: skeleton moved")
            elif lane != old_lane:
                print(f"{_plan_id(rec['plan'])}@dps{dps}: float lane moved")
            elif whole != old_whole:
                print(f"{_plan_id(rec['plan'])}@dps{dps}: only the verified block moved")
        for key, digests in zip(_KEYS, zip(*new)):
            rec[key] = list(digests)
    _PATH.write_text('{"dps": %s,\n "plans": [\n  %s\n]}\n' % (
        json.dumps(_DOC["dps"]), ",\n  ".join(json.dumps(rec) for rec in _DOC["plans"])))
