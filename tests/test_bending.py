import numpy as np
import pytest
from scipy.linalg import expm

from liebend.algebra import bracket, generated_subalgebra, make_algebra
from liebend.bending import (SurfaceGroupRep, bend, bending_inequalities, build_plan,
                             density_certificate, fixed_weight_zero_vector,
                             fuchsian_generators, pushed_forward)
from liebend.config import Config
from liebend.errors import GenusConditionError, ParameterError, RealizationError
from liebend.sl2 import (module_multiplicities, rho1_su, rho2_su, rho_of,
                         sl2_from_partition)

from conftest import bend_subprocess

H2 = np.array([[1.0, 0.0], [0.0, -1.0]])
E2 = np.array([[0.0, 1.0], [0.0, 0.0]])
F2 = E2.T


def _pushed(triple, seed):
    """pushed_forward of the seed from one rho_of call of the test's own."""
    return pushed_forward(triple, seed, rho_of(triple, np.concatenate([seed.a, seed.b])))


def test_mobius_inverse_is_bitwise_lapacks():
    """The polygon's Cayley inverse is written as its exact literal, so that
    importing the package runs no LAPACK solve; its bytes, signed zeros
    included, are those of numpy.linalg.inv, and so are the polygon's."""
    from liebend import bending
    assert bending._MOBIUS_INV.tobytes() == np.linalg.inv(bending._MOBIUS).tobytes()
    assert bending._MOBIUS_INV.dtype == np.complex128


@pytest.mark.parametrize("genus", [2, 3])
def test_fuchsian_generators(genus):
    rep = fuchsian_generators(genus)
    assert len(rep.a) == len(rep.b) == genus
    assert rep.relation_residual() <= 1e-10
    for m in rep.generators():
        assert abs(np.trace(m)) > 2.0
        assert abs(np.linalg.det(m) - 1.0) < 1e-12


def test_fuchsian_rejects_torus():
    with pytest.raises(ParameterError):
        fuchsian_generators(1)


@pytest.mark.parametrize("genus", [2.9, True, 1])
def test_fuchsian_rejects_non_int_genus(genus):
    """A fractional genus is not truncated, and a bool is not an int here."""
    with pytest.raises(ParameterError):
        fuchsian_generators(genus)


def test_trivial_pieces_ship_their_star_elements():
    """On every timed plan of perfbench's bend set and both presets, the
    shipped X_{0,j} of each trivial piece is bitwise the star element
    star_basis[j - 1], which lies exactly in the commutant of the triple."""
    import json
    from pathlib import Path
    from liebend.config import DEFAULT
    from liebend.report import PRESETS, _algebra_from_plan, _triple_from_spec
    recorded = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "expect"
                           / "bend_plans.json").read_text())["plans"]
    specs = [r["plan"] for r in recorded if r["timed"]] + list(PRESETS.values())
    assert len(specs) == 31
    shipped = 0
    for spec in specs:
        alg = _algebra_from_plan(spec, DEFAULT)
        triple = _triple_from_spec(alg, spec["triple"])
        plan = build_plan(triple, fuchsian_generators(spec["genus"]))
        for (i, j), x in plan.x.items():
            if i == 0:
                star = triple.star_basis[j - 1].matrix
                assert x.dtype == star.dtype and x.tobytes() == star.tobytes()
                shipped += 1
    assert shipped


def test_fixed_vector_adjoint_module(sl2):
    triple = sl2_from_partition(sl2, (2,))
    iso = module_multiplicities(sl2, triple)
    (i, j) = iso.Lambda[0]
    a = expm(0.8 * H2)
    x_mat = fixed_weight_zero_vector(iso, i, j, a, rho_of(triple, a))
    x_mat = x_mat / np.linalg.norm(x_mat)
    assert np.linalg.norm(x_mat - H2 / np.linalg.norm(H2)) < 1e-9

    k = expm(0.6 * (E2 - F2))
    a_conj = k @ a @ np.linalg.inv(k)
    x2 = fixed_weight_zero_vector(iso, i, j, a_conj, rho_of(triple, a_conj))
    x2 = x2 / np.linalg.norm(x2)
    target = k @ H2 @ np.linalg.inv(k)
    target /= np.linalg.norm(target)
    assert min(np.linalg.norm(x2 - target), np.linalg.norm(x2 + target)) < 1e-9


def test_fixed_vector_needs_hyperbolic(sl2):
    triple = sl2_from_partition(sl2, (2,))
    iso = module_multiplicities(sl2, triple)
    rot = expm(0.5 * (E2 - F2))
    with pytest.raises(ParameterError):
        fixed_weight_zero_vector(iso, *iso.Lambda[0], rot, rho_of(triple, rot))


def test_fixed_vector_with_a_singular_rho_a_is_a_realization_error(sl3):
    """A singular rho(a) cannot check the fixed line: a typed error, not
    numpy's LinAlgError."""
    iso = module_multiplicities(sl3, sl2_from_partition(sl3, (3,)))
    a = expm(0.8 * H2)
    with pytest.raises(RealizationError, match=r"rho\(a\) is singular in float64"):
        fixed_weight_zero_vector(iso, *iso.Lambda[0], a, rho_a=np.zeros((3, 3)))


def test_bend_t_zero_is_pushforward(su21):
    triple = rho1_su(su21)
    seed = fuchsian_generators(2)
    plan = build_plan(triple, seed, t=0.0)
    bent = bend(plan)
    pushed = _pushed(triple, seed)
    for m1, m2 in zip(bent.generators(), pushed.generators()):
        assert np.allclose(m1, m2)


def test_bend_su21_residual(su21):
    triple = rho1_su(su21)
    seed = fuchsian_generators(2)
    plan = build_plan(triple, seed, t=0.01)
    bent = bend(plan)
    assert bent.relation_residual() <= 1e-9
    pushed = _pushed(triple, seed)
    assert bent.relation_residual() <= 10.0 * pushed.relation_residual() + 1e-12


def test_bend_relation_exactness_random_plans(rng):
    """Across 50 random plans the bent residual stays within a small multiple
    of the undeformed pushed-forward residual plus the rounding allowance
    tied to the measured conditioning of the relation word (the allowance is
    what bend() enforces; it raises on violation)."""
    cfg = Config(seed_relation_tol=1e-9)
    su21 = make_algebra("su", 2, 1, config=cfg)
    sl3 = make_algebra("sl", 3, config=cfg)
    sl4 = make_algebra("sl", 4, config=cfg)
    pool = [
        (su21, rho1_su(su21), 2),
        (su21, rho2_su(su21), 2),
        (sl3, sl2_from_partition(sl3, (3,)), 2),
        (sl3, sl2_from_partition(sl3, (2, 1)), 3),
        (sl4, sl2_from_partition(sl4, (4,)), 3),
        (sl4, sl2_from_partition(sl4, (3, 1)), 5),
    ]
    seeds = {}
    count = 0
    while count < 50:
        alg, triple, min_genus = pool[int(rng.integers(0, len(pool)))]
        genus = min_genus + int(rng.integers(0, 2))
        if genus not in seeds:
            seeds[genus] = fuchsian_generators(genus)
        seed = seeds[genus]
        t = float(10 ** rng.uniform(-4, -1.4))
        plan = build_plan(triple, seed, t=t)
        bent = bend(plan)  # raises if the bound is violated
        pushed = _pushed(triple, seed)
        resid, peak, length = bent.relation_diagnostics
        gen_norm = max(np.linalg.norm(m) for m in bent.generators())
        noise = 64.0 * np.finfo(float).eps * length * peak * gen_norm
        assert resid <= 10.0 * pushed.relation_residual() + noise + 1e-12
        count += 1
    assert count == 50


def test_genus_condition_rejected(sl5):
    triple = sl2_from_partition(sl5, (5,))
    seed3 = fuchsian_generators(3)
    with pytest.raises(GenusConditionError):
        build_plan(triple, seed3, t=0.01)


def test_an_elliptic_seed_generator_fails_typed(su21):
    """build_plan hands a caller's a_k straight to the integer kernel's
    conjugator, which refuses an element that is not hyperbolic with a
    ParameterError: a seed whose relation holds exactly, with a rotation
    for each a_k."""
    rot = expm(0.5 * (E2 - F2))
    seed = SurfaceGroupRep(2, np.array([rot, rot]), np.array([np.eye(2), np.eye(2)]))
    assert seed.relation_residual() < 1e-15
    with pytest.raises(ParameterError, match="hyperbolic"):
        build_plan(rho1_su(su21), seed)


def _z_of(plan, x, y, t):
    """Z(t) of the plan's first bent piece, with its X and Y set to the
    matrices x and y: a fresh plan, so its twists and Z are computed anew."""
    from dataclasses import replace
    ij = next(ij for ij in plan.iso.Lambda if ij[0])
    alg = plan.triple.algebra
    x, y = (alg.from_coordinates(alg.coordinates(m)) for m in (x, y))
    return replace(plan, x={**plan.x, ij: x}, y={ij: y}, t=t).z[ij]


def _z_from_twist(plan, ij):
    """Z_ij(t) = (1/t)(Ad(e^{tX})Y - Y) recomputed from the plan's twist."""
    g, y = plan.twists[ij], plan.y[ij]
    moved = g @ y @ np.linalg.inv(g)
    return plan.triple.algebra.coordinates((moved - y) / plan.t, check=False)


def test_z_vector_properties(su21, rng):
    triple = rho1_su(su21)
    plan = build_plan(triple, fuchsian_generators(2))
    x = triple.e + triple.f
    y = triple.h
    comm = su21.coordinates(bracket(x, y), check=False)
    errs = []
    for t in (1e-2, 1e-3, 1e-4):
        z = _z_of(plan, x, y, t)
        errs.append(np.linalg.norm(z - comm))
    assert errs[0] <= 1e-1 and errs[1] <= 1e-2 and errs[2] <= 1e-3
    assert errs[2] < errs[0]

    z1 = _z_of(plan, x, y, 1e-3)
    z2 = _z_of(plan, x, 2.0 * np.asarray(y), 1e-3)
    assert np.allclose(z2, 2.0 * z1, atol=1e-12)

    commuting = _z_of(plan, triple.h, triple.h, 0.5)
    assert np.linalg.norm(commuting) < 1e-12
    with pytest.raises(ParameterError):
        _z_of(plan, x, y, 0.0)


def test_inequalities_multiplicity_one(su21):
    triple = rho1_su(su21)
    seed = fuchsian_generators(2)
    plan = build_plan(triple, seed, t=0.01)
    rep = bending_inequalities(plan)
    assert rep.ok
    assert all(r["kind"] == "self" for r in rep.margins)  # cross family empty
    # mult 1 lower bound is zero: inequality reads > 0
    assert all(r["bound"] == 0.0 for r in rep.margins)
    assert all(r["margin"] > 0.0 for r in rep.margins)


def test_inequalities_multiplicity_five_report():
    """Multiplicity-5 case: the cross family is present and every margin is
    reported, including at a deliberately large t."""
    sl5 = make_algebra("sl", 5, config=Config(seed_relation_tol=1e-8))
    triple = sl2_from_partition(sl5, (3, 1, 1))
    seed = fuchsian_generators(10)
    plan = build_plan(triple, seed, t="auto")
    rep = bending_inequalities(plan)
    assert rep.ok
    kinds = {r["kind"] for r in rep.margins}
    assert kinds == {"self", "cross"}
    big = bending_inequalities(plan.with_t(10.0))
    assert len(big.margins) == len(rep.margins)
    for r in big.margins:
        assert "margin" in r and "bound" in r and "pair" in r


def test_density_certificate_su21(su21):
    triple = rho1_su(su21)
    seed = fuchsian_generators(2)
    plan = build_plan(triple, seed, t="auto")
    bent = bend(plan)
    cert = density_certificate(plan)
    assert cert.verdict == "PASS"
    assert cert.achieved_dim == 4 == cert.target_dim


def test_density_certificate_sl5(sl5):
    triple = sl2_from_partition(sl5, (5,))
    seed = fuchsian_generators(4)
    plan = build_plan(triple, seed, t="auto")
    bent = bend(plan)
    cert = density_certificate(plan)
    assert cert.verdict == "PASS"
    assert cert.achieved_dim == 24 == cert.target_dim


def test_density_certificate_no_bending(su21, sl5):
    # without a bending parameter the Z seeds are unavailable: the closure
    # degenerates to the triple image plus the centralizer and the verdict
    # cannot be PASS
    triple5 = sl2_from_partition(sl5, (5,))
    seed4 = fuchsian_generators(4)
    plan5 = build_plan(triple5, seed4, t=0.01)
    bent5 = bend(plan5)
    cert5 = density_certificate(plan5.with_t(None))
    assert cert5.verdict != "PASS"
    assert cert5.achieved_dim == 3 < cert5.target_dim  # just the sl2 image

    triple = rho1_su(su21)
    seed = fuchsian_generators(2)
    plan = build_plan(triple, seed, t=0.01)
    bent = bend(plan)
    cert = density_certificate(plan.with_t(None))
    # here sl2 + centralizer happens to exhaust the target, yet the verdict
    # still must not PASS without the inequality premise
    assert cert.verdict == "INCONCLUSIVE"


def test_density_certificate_monotone_in_seeds(sl5):
    triple = sl2_from_partition(sl5, (5,))
    seed = fuchsian_generators(4)
    plan = build_plan(triple, seed, t=0.01)
    base = [m for m in triple.images()]
    dims = []
    seeds = list(base)
    dims.append(generated_subalgebra(sl5, seeds).dim)
    for (i, j) in plan.iso.Lambda:
        if i == 0:
            continue
        seeds.append(sl5.from_coordinates(_z_from_twist(plan, (i, j))))
        dims.append(generated_subalgebra(sl5, seeds).dim)
    assert dims == sorted(dims)
    assert dims[-1] == 24


def test_density_certificate_t_halving(su21, sl5):
    for alg, triple, genus in ((su21, rho1_su(su21), 2),
                               (sl5, sl2_from_partition(sl5, (5,)), 4)):
        seed = fuchsian_generators(genus)
        dims = []
        for t in (0.01, 0.005):
            plan = build_plan(triple, seed, t=t)
            assert bending_inequalities(plan).ok
            bent = bend(plan)
            cert = density_certificate(plan)
            dims.append(cert.achieved_dim)
        assert dims[0] == dims[1]


def test_certificate_seeds_recomputable(su21):
    """PASS certificates use only data recomputable from the plan and the
    bent representation (conditional certificate, documented)."""
    triple = rho1_su(su21)
    seed = fuchsian_generators(2)
    plan = build_plan(triple, seed, t="auto")
    bent = bend(plan)
    cert = density_certificate(plan)
    assert cert.verdict == "PASS"
    recomputed = [m for m in triple.images()]
    for (i, j) in plan.iso.Lambda:
        if i == 0:
            recomputed.append(plan.x[(0, j)])
        else:
            recomputed.append(su21.from_coordinates(_z_from_twist(plan, (i, j))))
    assert len(recomputed) == cert.seed_count
    closure = generated_subalgebra(su21, recomputed)
    assert closure.dim == cert.achieved_dim


def test_density_certificate_equal_signature_family():
    """The equal-signature family member is even, so its deformation certifies
    density in the full algebra; needs the glued-pair torsion generators."""
    from liebend.sl2 import genus_bound, is_even, rho1_su
    alg = make_algebra("su", 2, 2, config=Config(seed_relation_tol=1e-8))
    triple = rho1_su(alg)
    assert is_even(triple)
    seed = fuchsian_generators(genus_bound(triple))
    plan = build_plan(triple, seed, t="auto")
    bent = bend(plan)
    cert = density_certificate(plan)
    assert cert.verdict == "PASS"
    assert cert.achieved_dim == alg.dim == cert.target_dim


def test_seed_allowance_admits_the_genus_8_polygon():
    """The genus-8 polygon's float residual, 3.5e-10, is above the default
    seed_relation_tol but within the rounding allowance 4 eps L peak**2 of
    its 32-letter word, so sl(5) [2,2,1] at genus 8, refused before the
    allowance, bends to a density PASS whose verified residual at dps 40 is
    far below 1e-20."""
    from liebend.report import cmd_bend
    seed = fuchsian_generators(8)
    resid, peak, length = seed.relation_diagnostics
    assert Config().seed_relation_tol < resid <= 4 * np.finfo(float).eps * length * peak ** 2
    report = cmd_bend({"family": "sl", "n": 5, "triple": {"partition": [2, 2, 1]}, "genus": 8,
                       "t": "auto", "verify_dps": 40}, Config())
    verdicts = {c.check_id: c.verdict for c in report.checks}
    cert = verdicts["bend/certificate"]
    assert cert["verdict"] == "PASS" and cert["achieved_dim"] == cert["target_dim"]
    assert verdicts["bend/residuals"]["verified"]["bent_residual"] <= 1e-20


def test_highprec_verification(su21, sl5):
    from liebend.highprec import verify_bent_relation
    for alg, triple, genus, bound in ((su21, rho1_su(su21), 2, 1e-20),
                                      (sl5, sl2_from_partition(sl5, (5,)), 4, 1e-15)):
        seed = fuchsian_generators(genus)
        plan = build_plan(triple, seed, t="auto")
        bent = bend(plan)
        hp = verify_bent_relation(plan, dps=40)
        assert hp["seed_residual"] < 1e-25
        assert hp["pushed_residual"] < bound
        assert hp["bent_residual"] < bound
        assert hp["max_entry_distance_to_shipped"] < 1e-8


@pytest.mark.parametrize("preset", ["su21-rho1-g2", "sl5-even5-g4"])
def test_bend_takes_the_inequality_report_once(preset, monkeypatch):
    """When the first grid t is accepted, build_plan's grid check, the
    bend/inequalities record and density_certificate share one report."""
    from liebend import bending
    from liebend.config import DEFAULT
    from liebend.report import PRESETS, cmd_bend
    calls = []
    real = bending.bending_inequalities

    def counting(plan):
        calls.append(plan.t)
        return real(plan)

    monkeypatch.setattr(bending, "bending_inequalities", counting)
    report = cmd_bend(dict(PRESETS[preset], verify_dps=0), DEFAULT)
    verdicts = {c.check_id: c.verdict for c in report.checks}
    assert verdicts["bend/plan"]["t"] == DEFAULT.t_grid[0]
    assert verdicts["bend/certificate"]["verdict"] == "PASS"
    assert calls == [DEFAULT.t_grid[0]]


@pytest.mark.parametrize("spec", [
    "su21-rho1-g2", "sl5-even5-g4",
    {"family": "sl", "n": 5, "triple": {"partition": [5]}, "genus": 6},
], ids=["su21-rho1-g2", "sl5-even5-g4", "sl5-[5]-g6"])
def test_bend_takes_each_z_vector_once(spec, monkeypatch):
    """The inequalities, bend and the density certificate read Z_{i,j}(t)
    and the twists of the accepted t from the plan: one expm call, over a
    stack of every piece, with i = 0 or not, and one Z per bent piece."""
    from liebend import bending
    from liebend.config import DEFAULT
    from liebend.report import PRESETS, cmd_bend
    calls, made = [], []
    real, real_z = bending.expm, bending.BendingPlan.z.func

    def counting(a):
        calls.append(a.shape[0])
        return real(a)

    def counting_z(plan):
        z = real_z(plan)
        made.extend([plan.t] * len(z))
        return z

    monkeypatch.setattr(bending, "expm", counting)
    monkeypatch.setattr(bending.BendingPlan.z, "func", counting_z)
    spec = (dict(PRESETS[spec], verify_dps=0) if isinstance(spec, str)
            else dict(spec, t="auto", verify_dps=0))
    report = cmd_bend(spec, DEFAULT)
    verdicts = {c.check_id: c.verdict for c in report.checks}
    assert verdicts["bend/certificate"]["verdict"] == "PASS"
    lam = verdicts["bend/plan"]["Lambda"]
    bent = [ij for ij in lam if ij[0] != 0]
    assert calls == [len(lam)]
    assert bent and made == [verdicts["bend/plan"]["t"]] * len(bent)


def test_standalone_images_match_the_plan_stack():
    """fixed_weight_zero_vector and pushed_forward, each given rho_of images
    of its own (rho(a) alone for a line), agree with the plan's X and
    pushed group to the bit."""
    triple = sl2_from_partition(make_algebra("sl", 5), (5,))
    seed = fuchsian_generators(4)
    plan = build_plan(triple, seed)
    bent = [((i, j), k) for (i, j), k in plan.f.items() if i != 0]
    for (i, j), k in bent:
        a = seed.a[k - 1]
        x = fixed_weight_zero_vector(plan.iso, i, j, a, rho_of(triple, a))
        assert x.tobytes() == plan.x[(i, j)].tobytes()
    pushed = _pushed(triple, seed)
    assert pushed.a.tobytes() == plan.pushed.a.tobytes()
    assert pushed.b.tobytes() == plan.pushed.b.tobytes()
    assert bent


@pytest.mark.parametrize("preset", ["su21-rho1-g2", "sl5-even5-g4"])
def test_bend_takes_each_rho_image_once(preset, monkeypatch):
    """One rho_of call per plan, on a stack: each of the 2g generators
    once.  rho(a_k) of a bent generator serves both the check of its fixed
    line and the pushed representation."""
    from liebend import bending
    from liebend.config import DEFAULT
    from liebend.report import PRESETS, cmd_bend
    calls = []
    real = bending.rho_of

    def recording(triple, g2):
        calls.append([m.tobytes() for m in np.asarray(g2, dtype=float).reshape(-1, 2, 2)])
        return real(triple, g2)

    monkeypatch.setattr(bending, "rho_of", recording)
    spec = dict(PRESETS[preset], verify_dps=0)
    report = cmd_bend(spec, DEFAULT)
    lam = next(c.verdict["Lambda"] for c in report.checks if c.check_id == "bend/plan")
    fixed_lines = sum(1 for i, _ in lam if i != 0)
    assert fixed_lines
    assert len(calls) == 1
    seen = calls[0]
    assert len(seen) == len(set(seen)) == 2 * spec["genus"]


@pytest.mark.parametrize("spec, genus", [
    ({"family": "sl", "n": 6, "triple": {"partition": [3, 3]}}, 11),
    ({"family": "su", "p": 4, "q": 1, "triple": "rho1"}, 10),
    ({"family": "su", "p": 3, "q": 3, "triple": "rho1"}, 17),
    ({"family": "su", "p": 4, "q": 3, "triple": "rho1"}, 18),
    ({"family": "su", "p": 4, "q": 4, "triple": "rho1"}, 31),
], ids=["sl6-[3,3]", "su41-rho1", "su33-rho1", "su43-rho1", "su44-rho1"])
def test_bend_with_compact_centralizer_sums(spec, genus):
    """Triples whose compact centralizer needs sums of rotations along
    chains of length three, rotations between a fixed chain and a
    form-swapped pair, or rotations among middle indices (which the form
    fixes) bend at genus |Lambda| to a density PASS.  The seed tolerance is
    loosened, since the polygon's relation residual grows with the genus."""
    from liebend.report import cmd_bend
    cfg = Config(seed_relation_tol=1e-5)
    report = cmd_bend(dict(spec, genus=genus, verify_dps=0), cfg)
    verdicts = {c.check_id: c.verdict for c in report.checks}
    assert len(verdicts["bend/plan"]["Lambda"]) == genus
    cert = verdicts["bend/certificate"]
    assert cert["verdict"] == "PASS" and cert["achieved_dim"] == cert["target_dim"]


@pytest.mark.parametrize("plan", [
    {"family": "su", "p": 2, "q": 1, "triple": "rho1", "genus": 2, "t": 1e5},
    {"family": "su", "p": 2, "q": 1, "triple": "rho1", "genus": 2, "t": 1e300},
    {"family": "sl", "n": 3, "triple": {"partition": [3]}, "genus": 2, "t": 1e300,
     "verify_dps": 40},
], ids=["su21-t1e5", "su21-t1e300", "sl3-[3]-t1e300-dps40"])
def test_an_overflowing_t_is_an_input_error(plan, tmp_path):
    """A t whose twists overflow ends bend with one input-error line and
    exit 2, before the mp lane or the certificate reads the twists."""
    code, out, err = bend_subprocess(plan, tmp_path)
    assert code == 2 and out == ""
    assert err.splitlines() == [
        f"input error: bending parameter t = {float(plan['t'])!r} overflows the twists: "
        "a bent generator has a non-finite entry"]


SL3_DPS40 = {"family": "sl", "n": 3, "triple": {"partition": [3]}, "genus": 2, "verify_dps": 40}


@pytest.mark.parametrize("t, reason", [
    (200, "is past float64: Ad(e^(tX)) has a non-finite entry"),
    (1000, "is past float64: Ad(e^(tX)) has a non-finite entry"),
    (1550, "is past float64: Ad(e^(tX)) has a non-finite entry"),
    (1150, "overflows the relation word: a partial product has a non-finite norm"),
    (1350, "is past float64: a bent generator is singular"),
    (3000, "overflows the twists: a bent generator has a non-finite entry"),
])
def test_a_t_past_float64_is_an_input_error(t, reason, tmp_path):
    """At these t the twists are finite but e^{tX} is singular in float64
    (its inverse in BendingPlan.z fails), or the relation word's partial
    products overflow, or a bent generator is singular in float64 (its
    inverse in the relation word fails), or the twists overflow: bend ends
    with one input-error line and exit 2, not a traceback, before the mp
    lane or the certificate reads a non-finite Z."""
    code, out, err = bend_subprocess(dict(SL3_DPS40, t=t), tmp_path)
    assert code == 2 and out == ""
    assert err.splitlines() == [f"input error: bending parameter t = {float(t)!r} {reason}"]


def test_a_grid_moves_past_a_singular_t(tmp_path):
    """A grid t at which e^{tX} is singular in float64 fails the
    inequalities like an overflowing one; one at which bend's float checks
    refuse the bent group (1350: a bent generator is singular; 1150: the
    relation word overflows) fails like it.  Either way the grid goes on to
    the next value: the report is the one of that value alone, but for the
    grid it echoes."""
    import json
    grids = ("200,0.0162", "1350,0.0162", "1150,0.0162", "0.0162")
    runs = [bend_subprocess(SL3_DPS40, tmp_path, "--t-grid", grid) for grid in grids]
    assert [(code, err) for code, _, err in runs] == [(0, "")] * len(grids)
    docs = [json.loads(out) for _, out, _ in runs]
    plans = [next(c for c in doc["checks"] if c["check"] == "bend/plan") for doc in docs]
    assert [plan["verdict"]["t"] for plan in plans] == [0.0162] * len(grids)
    assert [plan["verdict"]["t_grid"] for plan in plans] == [
        [float(t) for t in grid.split(",")] for grid in grids]
    for doc in docs:
        doc["config"]["t_grid"] = None
        next(c for c in doc["checks"] if c["check"] == "bend/plan")["verdict"]["t_grid"] = None
    assert all(doc == docs[-1] for doc in docs)


def test_an_overflowing_grid_t_stays_inconclusive(capsys):
    from liebend.cli import main
    assert main(["bend", "--preset", "su21-rho1-g2", "--t-grid", "1e300"]) == 1
    out, err = capsys.readouterr()
    assert err == "" and '"verdict": "INCONCLUSIVE"' in out


def test_a_singular_bent_generator_is_an_input_error(monkeypatch):
    """A twist that is finite but singular in float64 makes its bent
    generator singular, and the relation word needs that generator's
    inverse: bend raises a RealizationError naming t, not numpy's
    LinAlgError."""
    from liebend import bending
    plan = build_plan(rho1_su(make_algebra("su", 2, 1)), fuchsian_generators(2), t=0.0162)
    assert plan.inequalities.ok  # Z is read before the twists are made singular
    singular = {ij: np.zeros_like(g) for ij, g in plan.twists.items()}
    monkeypatch.setattr(bending.BendingPlan, "twists", property(lambda self: singular))
    with pytest.raises(RealizationError,
                       match=r"t = 0\.0162 is past float64: a bent generator is singular$"):
        bend(plan)


SU21_RHO1 = {"family": "su", "p": 2, "q": 1, "triple": "rho1", "genus": 2, "verify_dps": 40}


def _z_leaves_the_decomposition_at(t, monkeypatch):
    """BendingPlan.z returns, at t, a unit vector of odd ad H-weight of
    su(2,1) rho1: outside the even part, which the isotypic decomposition
    spans, as where the rounding of Ad(e^{tX}) moves Z off it.  With the
    lines read off the conjugator's Sym^2i and the package's own expm,
    su(2,1) rho1 g2 reaches this at no t = 1, 2, ..., 799, so the move is
    made by hand."""
    from liebend import bending
    odd = np.flatnonzero(rho1_su(make_algebra("su", 2, 1)).basis_weights % 2)[0]
    real = bending.BendingPlan.z.func

    def moved(plan):
        if plan.t != t:
            return real(plan)
        return {ij: np.eye(plan.triple.algebra.dim)[odd] for ij in plan.y}

    monkeypatch.setattr(bending.BendingPlan.z, "func", moved)


def _bend_main(plan, tmp_path, capsys, *args):
    """`bend --plan` on the plan in process: (exit code, stdout, stderr)."""
    import json
    from liebend.cli import main
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    code = main(["bend", "--plan", str(tmp_path / "plan.json"), *args])
    return (code, *capsys.readouterr())


def test_a_grid_moves_past_a_t_whose_z_leaves_the_decomposition(tmp_path, capsys, monkeypatch):
    """Where Z_{1,1}(t) leaves the isotypic decomposition at t = 100, the
    inequalities fail at that t, so the grid goes on to 0.01, and the report
    is the one of 0.01 alone, but for the grid it echoes."""
    import json
    _z_leaves_the_decomposition_at(100.0, monkeypatch)
    runs = [_bend_main(SU21_RHO1, tmp_path, capsys, "--t-grid", grid)
            for grid in ("100,0.01", "0.01")]
    assert [(code, err) for code, _, err in runs] == [(0, ""), (0, "")]
    docs = [json.loads(out) for _, out, _ in runs]
    plans = [next(c for c in doc["checks"] if c["check"] == "bend/plan") for doc in docs]
    assert plans[0]["verdict"]["t"] == plans[1]["verdict"]["t"] == 0.01
    assert plans[0]["verdict"]["t_grid"] == [100.0, 0.01]
    for doc in docs:
        doc["config"]["t_grid"] = None
        next(c for c in doc["checks"] if c["check"] == "bend/plan")["verdict"]["t_grid"] = None
    assert docs[0] == docs[1]


def test_an_explicit_t_whose_z_leaves_the_decomposition_is_inconclusive(tmp_path, capsys,
                                                                         monkeypatch):
    """A t asked for in the plan at which Z_{1,1}(t) leaves the isotypic
    decomposition ends INCONCLUSIVE (exit 1), and the failed inequalities
    name t and the piece, not an input error."""
    import json
    _z_leaves_the_decomposition_at(0.01, monkeypatch)
    code, out, err = _bend_main(dict(SU21_RHO1, t=0.01), tmp_path, capsys)
    assert (code, err) == (1, "")
    checks = {c["check"]: c for c in json.loads(out)["checks"]}
    assert checks["bend/inequalities"]["verdict"] == {
        "ok": False, "note": "Z_(1,1)(t) leaves the isotypic decomposition at t=0.01"}
    assert checks["bend/certificate"]["verdict"]["verdict"] == "INCONCLUSIVE"
