"""Byte lock on the exact-lane reports.

tests/data/exact_report_digests.json holds the SHA-256 digest of the bytes
`liebend --out` writes for `reproduce sec53` (JSON, JSON with --witness, and
--text), for each `reproduce sec6` table with 1 <= q <= p <= 6, and for the
`check` report of each query of perfbench's check-stream pool and of its two
pinned queries (perfbench/workloads.py is read, never written).  Golden rows
and the recorded check-stream answers lock verdicts; these lock every byte,
so a change that moves one certificate point, witness or sigma entry shows
here.

Re-record (only when a change of bytes is intended and explained):
    PYTHONPATH=src python tests/test_exact_report_digests.py
"""

import hashlib
import importlib.util
import json
import tempfile
from pathlib import Path

import pytest

from liebend import cli

_PATH = Path(__file__).resolve().parent / "data" / "exact_report_digests.json"
_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  _PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_WORKLOADS = _workloads()

SEC53_RUNS = {"json": [], "json-witness": ["--witness"], "text": ["--text"]}
SEC6_TABLES = [(p, q) for p in range(1, 7) for q in range(1, p + 1)]
CHECK_QUERIES = [(item.item_id, item.meta["family"], item.meta["rows"])
                 for item in _WORKLOADS.check_stream_items(_WORKLOADS.STREAM_SEED)]


def _family_args(fam):
    return ["--family", fam["family"]] + [
        arg for name in ("n", "p", "q") if name in fam for arg in (f"--{name}", str(fam[name]))]


def _digest(argv, tmp):
    """The SHA-256 of the report `liebend *argv --out FILE` writes; the
    command's exit code must be 0."""
    out = Path(tmp) / "report.out"
    assert cli.main([*argv, "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def _check_digest(fam, rows, tmp):
    ah = Path(tmp) / "ah.json"
    ah.write_text(json.dumps(rows))
    return _digest(["check", *_family_args(fam), "--ah", str(ah)], tmp)


def _record():
    with tempfile.TemporaryDirectory() as tmp:
        return {
            "sec53": {name: _digest(["reproduce", "sec53", *args], tmp)
                      for name, args in SEC53_RUNS.items()},
            "sec6": {f"su({p},{q})": _digest(["reproduce", "sec6", "--p", str(p), "--q", str(q)],
                                              tmp) for p, q in SEC6_TABLES},
            "check": {_WORKLOADS.query_key(fam, rows): _check_digest(fam, rows, tmp)
                      for _, fam, rows in CHECK_QUERIES},
        }


_DOC = json.loads(_PATH.read_text()) if _PATH.exists() else None


def test_the_recorded_queries_are_the_pool_and_the_pinned_ones():
    assert len(CHECK_QUERIES) == 27
    assert sorted(_DOC["check"]) == sorted(_WORKLOADS.query_key(fam, rows)
                                           for _, fam, rows in CHECK_QUERIES)


@pytest.mark.parametrize("name", sorted(SEC53_RUNS))
def test_sec53_report_keeps_its_digest(name, tmp_path):
    assert _digest(["reproduce", "sec53", *SEC53_RUNS[name]], tmp_path) == _DOC["sec53"][name]


@pytest.mark.parametrize("p, q", SEC6_TABLES, ids=[f"su({p},{q})" for p, q in SEC6_TABLES])
def test_sec6_report_keeps_its_digest(p, q, tmp_path):
    digest = _digest(["reproduce", "sec6", "--p", str(p), "--q", str(q)], tmp_path)
    assert digest == _DOC["sec6"][f"su({p},{q})"]


@pytest.mark.parametrize("item_id, fam, rows", CHECK_QUERIES, ids=[q[0] for q in CHECK_QUERIES])
def test_check_report_keeps_its_digest(item_id, fam, rows, tmp_path):
    assert _check_digest(fam, rows, tmp_path) == _DOC["check"][_WORKLOADS.query_key(fam, rows)]


if __name__ == "__main__":
    doc = _record()
    _PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
