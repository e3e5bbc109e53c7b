"""Per-item correctness checks, run in the worker after the pass.

An item fails on a golden or expectation mismatch, a non-PASS certificate,
an unexpected exception, an input-error exit or a missed deadline.  A failure
that contradicts a recorded or derivable answer (golden mismatch, expectation
mismatch, consistency violation, residual above tolerance) is also marked
`incorrect`; the others are operations that did not complete.
"""

import json
import math
import os
from fractions import Fraction

import workloads

# a verified or float residual may grow to this multiple of its value at the
# seed commit before the item counts as failed
RESIDUAL_SLACK = 100.0


def _fail(reason, incorrect=False):
    return {"ok": False, "reason": reason, "incorrect": incorrect}


def _exit_failure(rc, stderr, kind):
    if rc == "deadline":
        return _fail("missed deadline")
    if isinstance(rc, str):
        return _fail(rc)
    if rc == 2:
        return _fail(stderr.strip().splitlines()[-1] if stderr.strip() else "input error")
    if kind == "reproduce":
        return _fail("golden mismatch", incorrect=True)
    if kind == "bend":
        return _fail("certificate not PASS")
    return _fail(f"exit code {rc}")


def load_report(workdir, item):
    with open(os.path.join(workdir, f"{item.item_id}.out.json")) as fh:
        report = json.load(fh)
    return {c["check"]: c for c in report["checks"]}


def check_bend(item, checks_by_id):
    cert = checks_by_id["bend/certificate"]["verdict"]
    if cert.get("verdict") != "PASS":
        return _fail("certificate not PASS")
    if cert["achieved_dim"] != cert["target_dim"]:
        return _fail(f"achieved_dim {cert['achieved_dim']} != target_dim {cert['target_dim']}",
                     incorrect=True)
    resid = bend_residual(checks_by_id, item.meta["dps"])
    seed_resid = item.meta.get("seed_residual")
    if seed_resid is not None and not resid <= RESIDUAL_SLACK * seed_resid:
        return _fail(f"residual {resid:.3e} above tolerance {RESIDUAL_SLACK * seed_resid:.3e}",
                     incorrect=True)
    return {"ok": True}


def bend_residual(checks_by_id, dps):
    """The verified bent residual (mp lane) or, without verification, the
    float64 bent residual of the shipped matrices."""
    resid = checks_by_id["bend/residuals"]["verdict"]
    return resid["verified"]["bent_residual"] if dps else resid["bent_residual"]


def query_verdicts(checks_by_id):
    bc = checks_by_id["check/benoist"]
    ew = checks_by_id.get("check/even-witness")
    return {
        "calabi_markus": checks_by_id["check/calabi-markus"]["verdict"],
        "benoist": bc["verdict"],
        "certificate": bc.get("witness"),
        "even_witness": ew["verdict"].get("even_witness") if ew else None,
    }


class Consistency:
    """Re-derives check-stream answers through a second public path: the
    certificate point must be dominant, lie in b and have no Weyl image in
    a_h; an even witness must be even and give a proper action."""

    def __init__(self):
        self._tori = {}

    def _torus(self, fam):
        from liebend.algebra import make_algebra
        from liebend.weyl import split_torus
        key = json.dumps(fam, sort_keys=True)
        if key not in self._tori:
            params = (fam["n"],) if fam["family"] == "sl" else (fam["p"], fam["q"])
            self._tori[key] = split_torus(make_algebra(fam["family"], *params))
        return self._tori[key]

    def problems(self, fam, rows, verdicts):
        from liebend.properness import HSubalgebraTorus, in_weyl_orbit_of_subspace
        from liebend.sl2 import is_even, sl2_from_partition
        torus = self._torus(fam)
        ah = HSubalgebraTorus(torus, tuple(tuple(Fraction(x) for x in r) for r in rows))
        out = []
        if verdicts["calabi_markus"] != (ah.dim == torus.rank):
            out.append("calabi-markus disagrees with dim a_h == rank")
        if verdicts["benoist"]:
            point = verdicts["certificate"]
            if point is None:
                out.append("benoist holds but no certificate point")
            else:
                v = tuple(Fraction(x) for x in point)
                if not torus.is_dominant(v) or not torus.in_b(v):
                    out.append("certificate point not in b_plus")
                elif in_weyl_orbit_of_subspace(torus, v, ah)[0]:
                    out.append("certificate point has a Weyl image in a_h")
        elif ah.dim < torus.b_dim:
            out.append("benoist fails although dim a_h < dim b")
        label = verdicts["even_witness"]
        if label is not None:
            parts = tuple(int(s) for s in label.strip("[]").split(","))
            triple = sl2_from_partition(torus.algebra, parts)
            v_plus, _ = torus.dominant_representative(triple.torus_vector)
            if not is_even(triple):
                out.append(f"even witness {label} is not even")
            elif in_weyl_orbit_of_subspace(torus, v_plus, ah)[0]:
                out.append(f"even witness {label} does not act properly")
        return out


def check_items(workload, items, outcomes, workdir, expect=None, consistency=True):
    """{item_id: {"ok", "reason", "incorrect", "timed"}} for every item."""
    if workload == "check-stream" and expect is None:
        expect = workloads.load_expect("check_stream.json")["queries"]
    checker = Consistency() if workload == "check-stream" and consistency else None
    verdicts = {}
    for it in items:
        rc, stderr = outcomes[it.item_id]
        if rc != 0:
            v = _exit_failure(rc, stderr, it.kind)
        else:
            try:
                checks_by_id = load_report(workdir, it)
                if it.kind == "bend":
                    v = check_bend(it, checks_by_id)
                elif it.kind == "check":
                    v = _check_query(it, checks_by_id, expect, checker)
                else:
                    v = {"ok": bool(checks_by_id)} if checks_by_id else _fail("empty report")
            except (OSError, KeyError, TypeError, ValueError) as ex:
                v = _fail(f"unreadable report: {type(ex).__name__}: {ex}", incorrect=True)
        v["timed"] = it.timed
        verdicts[it.item_id] = v
    return verdicts


def _check_query(item, checks_by_id, expect, checker):
    fam, rows = item.meta["family"], item.meta["rows"]
    got = query_verdicts(checks_by_id)
    want = expect.get(workloads.query_key(fam, rows))
    if want is not None and want != got:
        return _fail(f"expectation mismatch: expected {want}, got {got}", incorrect=True)
    if checker is not None:
        problems = checker.problems(fam, rows, got)
        if problems:
            return _fail("consistency: " + "; ".join(problems), incorrect=True)
    return {"ok": True}


def digits_min(workload, items, workdir):
    """Minimum over timed items of -log10 of the verified bent residual,
    capped at dps.  Only bend-verified verifies residuals; elsewhere the
    value is reported at the cap."""
    cap = float(workloads.VERIFY_DPS)
    if workload != "bend-verified":
        return cap
    best = cap
    for it in items:
        if not it.timed:
            continue
        try:
            resid = bend_residual(load_report(workdir, it), it.meta["dps"])
        except (OSError, KeyError, TypeError, ValueError):
            continue  # the item's failure is counted by check_items
        best = min(best, cap if resid <= 0 else min(cap, -math.log10(resid)))
    return best
