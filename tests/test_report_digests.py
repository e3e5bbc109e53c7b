"""Byte lock on the verified bend reports.

tests/data/bend_report_digests.json holds, for each plan it lists at each
verify_dps it lists (the plans that reach PASS in perfbench's bend set and
both presets, at dps 2, 5, 15, 40, 60 and 100), two SHA-256 digests:
- `sha256`, of the JSON report (`cmd_bend(...).to_json()`, the bytes
  `bend --out` writes): any change to the mp lane that moves one bit of a
  verified number, or a verdict, shows here;
- `float_sha256`, of the same report with the `verified` block of
  `bend/residuals` removed: the float lane's bytes (the shipped matrices,
  t, the float residuals, the certificate), which no change to the mp lane
  may move.

Re-record (only when a change of bytes is intended and explained):
    PYTHONPATH=src python tests/test_report_digests.py
It prints each record that moved, and whether it moved only in its
`verified` block.
"""

import functools
import hashlib
import json
from pathlib import Path

import pytest

from liebend import serialize
from liebend.config import DEFAULT
from liebend.report import cmd_bend

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
    """(whole, float lane): the digests of the report of the plan (given as
    its JSON text) at dps, and of that report without its verified block."""
    plan = json.loads(plan_json)
    if isinstance(plan, str):
        from liebend.report import PRESETS
        plan = PRESETS[plan]
    report = cmd_bend(dict(plan, t="auto", verify_dps=dps), DEFAULT)
    doc = report.to_dict()
    for check in doc["checks"]:
        if check["check"] == "bend/residuals":
            check["verdict"] = {k: v for k, v in check["verdict"].items() if k != "verified"}
    return _sha(report.to_json()), _sha(serialize.dumps(doc) + "\n")


_CASES = [(rec["plan"], dps, digest, float_digest) for rec in _DOC["plans"]
          for dps, digest, float_digest in zip(_DOC["dps"], rec["sha256"], rec["float_sha256"])]
_IDS = [f"{_plan_id(p)}@dps{d}" for p, d, _, _ in _CASES]


@pytest.mark.parametrize("plan, dps, digest, float_digest", _CASES, ids=_IDS)
def test_float_lane_keeps_its_digest(plan, dps, digest, float_digest):
    assert _digests(json.dumps(plan), dps)[1] == float_digest


@pytest.mark.parametrize("plan, dps, digest, float_digest", _CASES, ids=_IDS)
def test_verified_report_keeps_its_digest(plan, dps, digest, float_digest):
    assert _digests(json.dumps(plan), dps)[0] == digest


if __name__ == "__main__":
    for rec in _DOC["plans"]:
        new = [_digests(json.dumps(rec["plan"]), dps) for dps in _DOC["dps"]]
        for dps, (whole, lane), old, old_lane in zip(
                _DOC["dps"], new, rec["sha256"], rec["float_sha256"]):
            if lane != old_lane:
                print(f"{_plan_id(rec['plan'])}@dps{dps}: the float lane moved")
            elif whole != old:
                print(f"{_plan_id(rec['plan'])}@dps{dps}: only the verified block moved")
        rec["sha256"], rec["float_sha256"] = map(list, zip(*new))
    _PATH.write_text('{"dps": %s,\n "plans": [\n  %s\n]}\n' % (
        json.dumps(_DOC["dps"]), ",\n  ".join(json.dumps(rec) for rec in _DOC["plans"])))
