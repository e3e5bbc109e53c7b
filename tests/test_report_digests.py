"""Byte lock on the verified bend reports.

tests/data/bend_report_digests.json holds the SHA-256 digest of the JSON
report (`cmd_bend(...).to_json()`, the bytes `bend --out` writes) of each
plan it lists, at each verify_dps it lists: the plans that reach PASS in
perfbench's bend set and both presets, at dps 2, 5, 15, 40, 60 and 100.
Any change to the mp lane that moves one bit of a verified number, or a
verdict, shows here.

Re-record (only when a change of bytes is intended and explained):
    PYTHONPATH=src python tests/test_report_digests.py
"""

import hashlib
import json
from pathlib import Path

import pytest

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


def _digest(plan, dps):
    if isinstance(plan, str):
        from liebend.report import PRESETS
        plan = PRESETS[plan]
    report = cmd_bend(dict(plan, t="auto", verify_dps=dps), DEFAULT)
    return hashlib.sha256(report.to_json().encode()).hexdigest()


_CASES = [(rec["plan"], dps, digest) for rec in _DOC["plans"]
          for dps, digest in zip(_DOC["dps"], rec["sha256"])]


@pytest.mark.parametrize("plan, dps, digest", _CASES,
                         ids=[f"{_plan_id(p)}@dps{d}" for p, d, _ in _CASES])
def test_verified_report_keeps_its_digest(plan, dps, digest):
    assert _digest(plan, dps) == digest


if __name__ == "__main__":
    _DOC["plans"] = [dict(rec, sha256=[_digest(rec["plan"], dps) for dps in _DOC["dps"]])
                     for rec in _DOC["plans"]]
    _PATH.write_text('{"dps": %s,\n "plans": [\n  %s\n]}\n' % (
        json.dumps(_DOC["dps"]), ",\n  ".join(json.dumps(rec) for rec in _DOC["plans"])))
