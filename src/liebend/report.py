"""Reproducible reports for the worked examples and user-supplied checks.

Reports are deterministic: given the same configuration, two runs produce
byte-identical JSON and text renderings.  Wall-clock timings are collected
but excluded from the canonical bytes.
"""

import functools
import json
import math
import time
import types
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources

from . import serialize
from .algebra import PARAM_NAMES, canonical_family, make_algebra
from .bending import build_plan, density_certificate, fuchsian_generators
from .errors import ParameterError
from .properness import (HSubalgebraTorus, benoist_certificate, benoist_criterion,
                         calabi_markus, in_weyl_orbit_of_subspace, sl2_action_proper)
from .sl2 import (even_partitions, g_even, genus_bound, is_even, rho1_su, rho2_su,
                  sl2_from_partition)
from .weyl import split_torus

VERSION = "0.1.0"

SEC53_PARTITIONS = ((5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1))
SEC53_AH_BASIS = ((2, -2, 0, 0, 0), (4, 2, 0, -2, -4))

PRESETS = {
    "su21-rho1-g2": {"family": "su", "p": 2, "q": 1, "triple": "rho1",
                     "genus": 2, "t": "auto", "verify_dps": 40},
    "sl5-even5-g4": {"family": "sl", "n": 5, "triple": {"partition": [5]},
                     "genus": 4, "t": "auto", "verify_dps": 40},
}


@dataclass
class CheckRecord:
    check_id: str
    inputs: dict
    verdict: object
    witness: object = None
    margins: object = None
    runtime_ms: float = 0.0
    stage_ms: dict | None = None  # runtime_ms split by stage, for checks that have stages

    def to_dict(self, include_timings=False):
        d = {"check": self.check_id, "inputs": self.inputs, "verdict": self.verdict}
        if self.witness is not None:
            d["witness"] = self.witness
        if self.margins is not None:
            d["margins"] = self.margins
        if include_timings:
            d["runtime_ms"] = float(self.runtime_ms)
            if self.stage_ms is not None:
                d["stage_ms"] = {k: float(v) for k, v in self.stage_ms.items()}
        return d


@dataclass
class ReportDocument:
    title: str
    config: dict
    checks: list = field(default_factory=list)

    def add(self, check_id, inputs, verdict, witness=None, margins=None, runtime_ms=0.0,
            stage_ms=None):
        self.checks.append(CheckRecord(check_id, inputs, verdict, witness, margins, runtime_ms,
                                       stage_ms))

    def to_dict(self, include_timings=False):
        return {
            "tool": {"name": "liebend", "version": VERSION},
            "title": self.title,
            "config": self.config,
            "checks": [c.to_dict(include_timings) for c in self.checks],
        }

    def to_json(self, include_timings=False):
        return serialize.dumps(self.to_dict(include_timings)) + "\n"

    def to_text(self, include_timings=False):
        lines = [f"liebend {VERSION} :: {self.title}", ""]
        width = max((len(c.check_id) for c in self.checks), default=10)
        for c in self.checks:
            verdict = json.dumps(c.verdict, sort_keys=True) if not isinstance(c.verdict, str) else c.verdict
            lines.append(f"{c.check_id:<{width}}  {verdict}")
            if c.witness is not None:
                lines.append(f"{'':<{width}}  witness: {json.dumps(c.witness, sort_keys=True)}")
            if c.margins is not None:
                lines.append(f"{'':<{width}}  margins: {json.dumps(c.margins, sort_keys=True)}")
            if include_timings:
                lines.append(f"{'':<{width}}  runtime_ms: {float(c.runtime_ms)}")
                if c.stage_ms is not None:
                    stages = {k: float(v) for k, v in c.stage_ms.items()}
                    lines.append(f"{'':<{width}}  stage_ms: {json.dumps(stages, sort_keys=True)}")
        lines.append("")
        return "\n".join(lines)


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, (time.perf_counter() - t0) * 1000.0


@functools.lru_cache(maxsize=4)
def load_golden(name):
    """The packaged golden file name, parsed once per process.  The mapping
    is shared by every caller: its top level is read-only, and callers must
    not write into its rows either (copy them, as with dict(...))."""
    with resources.files("liebend.data").joinpath(name).open() as fh:
        return types.MappingProxyType(json.load(fh))


def cmd_reproduce_sec53(config, witness=False):
    """The six sl(5,R) partition rows: evenness, dominant vector, membership
    of the vector in the Weyl orbit of the fixed abelian subalgebra, and the
    properness verdict of the corresponding action."""
    alg = make_algebra("sl", 5, config=config)
    report = ReportDocument("sl(5,R) partition table (preset sec53)", alg.config.echo())
    torus = split_torus(alg)
    ah = HSubalgebraTorus(torus, SEC53_AH_BASIS)
    for parts in SEC53_PARTITIONS:
        t0 = time.perf_counter()
        triple = sl2_from_partition(alg, parts)
        even = is_even(triple)
        vec = triple.torus_vector
        member, wit = in_weyl_orbit_of_subspace(torus, vec, ah)
        proper = sl2_action_proper(torus, triple, ah)
        ms = (time.perf_counter() - t0) * 1000.0
        record = {
            "symbol": triple.label,
            "even": even,
            "vector": serialize.rationals_to_json(vec),
            "in_weyl_orbit": member,
            "proper": proper,
        }
        report.add(f"sec53/row{triple.label}",
                   {"partition": list(parts), "ah_basis": [list(map(str, b)) for b in SEC53_AH_BASIS]},
                   record,
                   witness=(wit.describe() if (witness and wit is not None) else None),
                   runtime_ms=ms)
    return report


def _sec6_rho_record(torus, ah, triple):
    even = is_even(triple)
    p, q = triple.algebra.params
    n = p + q
    if triple.provenance == "rho1":
        sigma_formula = [-1] * q + [1] * (p - q) + [-1] * q
        gb_formula = 2 * q * q + (p - q) ** 2 - 1
    else:
        sigma_formula = [1] * n
        gb_formula = (p - q) ** 2 + 2 * q - 1
    sig_diag = [int(s) for s in triple.sigma.diagonal().real]  # sigma is diagonal
    gb = genus_bound(triple)
    cz = triple.centralizer_dim
    return {
        "even": even,
        "proper": sl2_action_proper(torus, triple, ah),
        "sigma_diag": sig_diag,
        "sigma_matches_formula": sig_diag == sigma_formula,
        "genus_bound": gb,
        "genus_bound_formula": gb_formula,
        "centralizer_dim": cz,
        "counts_agree": bool(gb == gb_formula == cz),
        "g_even_dim": g_even(triple).dim,
    }


def cmd_reproduce_sec6(p, q, config):
    """The su(p,q) family rows: evenness, sigma, genus bounds against the
    closed formulas and the centralizer dimension, properness against the
    hyperplane subalgebra, and the equal-signature evenness check."""
    alg = make_algebra("su", p, q, config=config)
    p, q = alg.params
    report = ReportDocument(f"su({p},{q}) family table (preset sec6)", alg.config.echo())
    torus = split_torus(alg)
    ah = HSubalgebraTorus(torus, tuple(
        tuple(1 if j == i else 0 for j in range(q)) for i in range(1, q)))

    rho1, ms1 = _timed(lambda: rho1_su(alg))
    rec1, ms1b = _timed(lambda: _sec6_rho_record(torus, ah, rho1))
    report.add(f"sec6/su({p},{q})/rho1", {"p": p, "q": q}, rec1, runtime_ms=ms1 + ms1b)

    if p > q:
        rho2, ms2 = _timed(lambda: rho2_su(alg))
        rec2, ms2b = _timed(lambda: _sec6_rho_record(torus, ah, rho2))
        report.add(f"sec6/su({p},{q})/rho2", {"p": p, "q": q}, rec2, runtime_ms=ms2 + ms2b)
    else:
        report.add(f"sec6/su({p},{q})/rho2", {"p": p, "q": q}, "undefined")

    bc, msb = _timed(lambda: benoist_criterion(torus, ah))
    cm, msc = _timed(lambda: calabi_markus(torus, ah))
    report.add(f"sec6/su({p},{q})/existence", {"ah": "a1 = 0"},
               {"benoist": bc, "calabi_markus": cm}, runtime_ms=msb + msc)

    if p == q:
        # among the implemented families, every proper action must be even
        verdicts = [("rho1", rec1["proper"], rec1["even"])]
        holds = all((not prop) or ev for _, prop, ev in verdicts)
        report.add(f"sec6/su({p},{q})/proper-implies-even",
                   {"scope": "family-restricted"},
                   {"holds": holds, "families_checked": [v[0] for v in verdicts]})
    return report


def _triple_from_spec(alg, spec):
    if spec == "rho1":
        return rho1_su(alg)
    if spec == "rho2":
        return rho2_su(alg)
    if isinstance(spec, dict):
        for key in sorted(map(str, spec)):
            if key != "partition":
                raise ParameterError(f"unknown triple key {key!r}; known: ['partition']")
        if isinstance(spec.get("partition"), (list, tuple)):
            return sl2_from_partition(alg, tuple(spec["partition"]))
    raise ParameterError(f'triple must be "rho1", "rho2" or {{"partition": [...]}}, '
                         f'got {spec!r}')


def _algebra_from_plan(plan_spec, config):
    family = canonical_family(plan_spec.get("family"))
    return make_algebra(family, *(plan_spec.get(k) for k in PARAM_NAMES[family]),
                        config=config)


def cmd_bend(plan_spec, config):
    """Full bending audit: polygon seed, plan, inequalities, bent images,
    residuals (with a high-precision verification when available), and the
    bracket-closure density certificate."""
    if isinstance(plan_spec, str):
        if plan_spec not in PRESETS:
            raise ParameterError(f"unknown preset {plan_spec!r}; known: {sorted(PRESETS)}")
        plan_spec = PRESETS[plan_spec]
    if not isinstance(plan_spec, dict):
        raise ParameterError(f"a plan must be a JSON object, got {type(plan_spec).__name__}")
    verify_dps = plan_spec.get("verify_dps", 0)
    if isinstance(verify_dps, bool) or not isinstance(verify_dps, int) or verify_dps < 0:
        raise ParameterError(f"verify_dps must be an integer >= 0, got {verify_dps!r}")
    if verify_dps:
        from .highprec import MAX_DPS, verify_bent_relation
        if verify_dps > MAX_DPS:
            raise ParameterError(f"verify_dps must be at most {MAX_DPS}, got {verify_dps!r}: "
                                 "past it the verified residuals underflow float64")
    genus = plan_spec.get("genus")
    if isinstance(genus, bool) or not isinstance(genus, int) or genus < 2:
        raise ParameterError(f"genus must be an integer >= 2, got {genus!r}")
    t_req = plan_spec.get("t", "auto")
    if t_req != "auto" and (isinstance(t_req, bool) or not isinstance(t_req, (int, float))
                            or not math.isfinite(t_req) or t_req == 0):
        raise ParameterError(f't must be "auto" or a finite non-zero number, got {t_req!r}')
    alg = _algebra_from_plan(plan_spec, config)
    triple = _triple_from_spec(alg, plan_spec.get("triple"))
    known = {"family", *PARAM_NAMES[alg.family], "triple", "genus", "t", "verify_dps"}
    for key in sorted(map(str, plan_spec)):
        if key not in known:
            raise ParameterError(f"unknown plan key {key!r}; known: {sorted(known)}")
    report = ReportDocument("bending certificate", alg.config.echo())
    report.config["plan"] = {k: v for k, v in plan_spec.items()}

    seed, ms = _timed(lambda: fuchsian_generators(genus))
    report.add("bend/seed", {"genus": genus},
               {"relation_residual": float(seed.relation_residual()),
                "generators_hyperbolic": True},
               runtime_ms=ms)

    plan, ms = _timed(lambda: build_plan(triple, seed, t=t_req))
    report.add("bend/plan",
               {"triple": plan_spec["triple"], "t_requested": t_req},
               {"Lambda": [list(ij) for ij in plan.iso.Lambda],
                "injection": {f"({i},{j})": k for (i, j), k in plan.f.items()},
                "t": float(plan.t) if plan.t is not None else None,
                "t_grid": [float(t) for t in alg.config.t_grid],
                "ad_weight_histogram": {str(j): m for j, m in
                                        sorted(plan.iso.weight_mults.items())},
                "multiplicities": {str(k): m for k, m in
                                   sorted(plan.iso.mults.items())}},
               runtime_ms=ms)

    ineq, ms = _timed(lambda: plan.inequalities)
    margins = [
        {k: list(v) if isinstance(v, tuple) else v for k, v in rec.items()}
        for rec in ineq.margins
    ]
    report.add("bend/inequalities", {"t": float(plan.t) if plan.t else None},
               {"ok": ineq.ok, "note": ineq.note}, margins=margins, runtime_ms=ms)

    if plan.t is None:
        report.add("bend/certificate", {}, {
            "verdict": "INCONCLUSIVE",
            "reason": "at every grid t the inequalities or bend's float checks failed"})
        return report

    (pushed, bent), ms = _timed(lambda: (plan.pushed, plan.bent))
    stages = {"float": ms}
    resid_rec = {
        "pushed_residual": float(pushed.relation_residual()),
        "bent_residual": float(bent.relation_residual()),
    }
    if verify_dps:
        hp, stages["verify"] = _timed(lambda: verify_bent_relation(plan, bent, dps=verify_dps))
        resid_rec["verified"] = {
            "dps": hp.dps,
            "seed_residual": float(hp.seed_residual),
            "pushed_residual": float(hp.pushed_residual),
            "bent_residual": float(hp.bent_residual),
            "max_entry_distance_to_shipped": float(hp.max_entry_distance),
        }
    report.add("bend/residuals", {"t": float(plan.t)}, resid_rec,
               runtime_ms=sum(stages.values()), stage_ms=stages)

    cert, ms = _timed(lambda: density_certificate(plan))
    report.add("bend/certificate", {"target": "even subalgebra"},
               {"verdict": cert.verdict, "achieved_dim": cert.achieved_dim,
                "target_dim": cert.target_dim, "seed_count": cert.seed_count},
               runtime_ms=ms)

    gens = []
    for k in range(genus):
        gens.append({"a": serialize.matrix_to_json(bent.a[k]),
                     "b": serialize.matrix_to_json(bent.b[k])})
    report.add("bend/generators", {"count": 2 * genus}, {"matrices": gens})
    return report


def _rational(x):
    if not isinstance(x, bool):
        try:
            return Fraction(x)
        except (ValueError, TypeError, ZeroDivisionError, OverflowError):
            pass
    raise ParameterError(f'a_h entries must be exact rationals such as 3 or "-1/2", got {x!r}')


def cmd_check(family_spec, ah_basis, config):
    """User-supplied properness screening: the equal-rank obstruction, the
    existence criterion with an interior-point certificate, and (for sl) an
    even-triple witness search over partitions."""
    if not isinstance(ah_basis, (list, tuple)) \
            or not all(isinstance(row, (list, tuple)) for row in ah_basis):
        raise ParameterError(f"the a_h basis must be a list of rows, got {ah_basis!r}")
    rows = tuple(tuple(_rational(x) for x in row) for row in ah_basis)
    alg = _algebra_from_plan(family_spec, config)
    report = ReportDocument("properness check", alg.config.echo())
    torus = split_torus(alg)
    ah = HSubalgebraTorus(torus, rows)
    report.config["ah_basis"] = [[str(x) for x in row] for row in rows]

    cm, ms = _timed(lambda: calabi_markus(torus, ah))
    report.add("check/calabi-markus", {"ah_dim": ah.dim, "rank": torus.rank}, cm, runtime_ms=ms)

    # the criterion holds iff there is an auditable point: a rational chamber
    # point outside every translate
    point, ms = _timed(lambda: benoist_certificate(torus, ah))
    bc = point is not None
    report.add("check/benoist", {"ah_dim": ah.dim}, bc,
               witness=serialize.rationals_to_json(point) if bc else None, runtime_ms=ms)

    if alg.family == "sl" and bc:
        def search():
            (n,) = alg.params
            for parts in even_partitions(n):
                triple = sl2_from_partition(alg, parts)
                if sl2_action_proper(torus, triple, ah):
                    return triple.label
            return None

        label, ms = _timed(search)
        verdict = {"even_witness": label} if label else \
            {"even_witness": None, "note": f"no even witness among partitions of {alg.params[0]}"}
        report.add("check/even-witness", {"family": "sl"}, verdict, runtime_ms=ms)
    return report


def compare_to_golden(report, golden):
    """(ok, mismatches): the golden rows must appear with identical verdicts."""
    got = {c.check_id: c.verdict for c in report.checks}
    mismatches = []
    for check_id, expected in golden.items():
        if check_id not in got:
            mismatches.append({"check": check_id, "error": "missing"})
        elif got[check_id] != expected:
            mismatches.append({"check": check_id, "expected": expected, "got": got[check_id]})
    return (not mismatches), mismatches
