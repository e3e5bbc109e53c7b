import numpy as np
import pytest
from scipy.linalg import expm

from liebend.algebra import bracket, generated_subalgebra, make_algebra
from liebend.bending import (bend, bending_inequalities, build_plan,
                             density_certificate, fixed_weight_zero_vector,
                             fuchsian_generators, pushed_forward, z_vector)
from liebend.config import Config
from liebend.errors import GenusConditionError, ParameterError
from liebend.sl2 import (module_multiplicities, rho1_su, rho2_su,
                         sl2_from_partition)

H2 = np.array([[1.0, 0.0], [0.0, -1.0]])
E2 = np.array([[0.0, 1.0], [0.0, 0.0]])
F2 = E2.T


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


def test_fixed_vector_adjoint_module(sl2):
    triple = sl2_from_partition(sl2, (2,))
    iso = module_multiplicities(sl2, triple)
    (i, j) = iso.Lambda[0]
    a = expm(0.8 * H2)
    x = fixed_weight_zero_vector(iso, i, j, a)
    x_mat = sl2.from_coordinates(x)
    x_mat /= np.linalg.norm(x_mat)
    assert np.linalg.norm(x_mat - H2 / np.linalg.norm(H2)) < 1e-9

    k = expm(0.6 * (E2 - F2))
    a_conj = k @ a @ np.linalg.inv(k)
    x2 = sl2.from_coordinates(fixed_weight_zero_vector(iso, i, j, a_conj))
    x2 /= np.linalg.norm(x2)
    target = k @ H2 @ np.linalg.inv(k)
    target /= np.linalg.norm(target)
    assert min(np.linalg.norm(x2 - target), np.linalg.norm(x2 + target)) < 1e-9


def test_fixed_vector_needs_hyperbolic(sl2):
    triple = sl2_from_partition(sl2, (2,))
    iso = module_multiplicities(sl2, triple)
    rot = expm(0.5 * (E2 - F2))
    with pytest.raises(ParameterError):
        fixed_weight_zero_vector(iso, *iso.Lambda[0], rot)


def test_bend_t_zero_is_pushforward(su21):
    triple = rho1_su(su21)
    seed = fuchsian_generators(2)
    plan = build_plan(triple, seed, t=0.0)
    bent = bend(plan)
    pushed = pushed_forward(triple, seed)
    for m1, m2 in zip(bent.generators(), pushed.generators()):
        assert np.allclose(m1, m2)


def test_bend_su21_residual(su21):
    triple = rho1_su(su21)
    seed = fuchsian_generators(2)
    plan = build_plan(triple, seed, t=0.01)
    bent = bend(plan)
    assert bent.relation_residual() <= 1e-9
    pushed = pushed_forward(triple, seed)
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
        pushed = pushed_forward(triple, seed)
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


def test_z_vector_properties(su21, rng):
    triple = rho1_su(su21)
    x = triple.e + triple.f
    y = triple.h
    comm = su21.coordinates(bracket(x, y), check=False)
    errs = []
    for t in (1e-2, 1e-3, 1e-4):
        z = z_vector(su21, x, y, t)
        errs.append(np.linalg.norm(z - comm))
    assert errs[0] <= 1e-1 and errs[1] <= 1e-2 and errs[2] <= 1e-3
    assert errs[2] < errs[0]

    z1 = z_vector(su21, x, y, 1e-3)
    z2 = z_vector(su21, x, 2.0 * np.asarray(y), 1e-3)
    assert np.allclose(z2, 2.0 * z1, atol=1e-12)

    commuting = z_vector(su21, triple.h, triple.h, 0.5)
    assert np.linalg.norm(commuting) < 1e-12
    with pytest.raises(ParameterError):
        z_vector(su21, x, y, 0.0)


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
        z = z_vector(sl5, plan.x_matrix((i, j)), plan.y_matrix((i, j)), plan.t)
        seeds.append(sl5.from_coordinates(z))
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
            recomputed.append(su21.from_coordinates(plan.x_vectors[(0, j)]))
        else:
            z = z_vector(su21, plan.x_matrix((i, j)), plan.y_matrix((i, j)), plan.t)
            recomputed.append(su21.from_coordinates(z))
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


def test_highprec_verification(su21, sl5):
    from liebend.highprec import verify_bent_relation
    for alg, triple, genus, bound in ((su21, rho1_su(su21), 2, 1e-20),
                                      (sl5, sl2_from_partition(sl5, (5,)), 4, 1e-15)):
        seed = fuchsian_generators(genus)
        plan = build_plan(triple, seed, t="auto")
        bent = bend(plan)
        hp = verify_bent_relation(plan, bent, dps=40)
        assert hp.seed_residual < 1e-25
        assert hp.pushed_residual < bound
        assert hp.bent_residual < bound
        assert hp.max_entry_distance < 1e-8


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
    """The inequalities and the density certificate read Z_{i,j}(t) of the
    accepted t from the plan: one z_vector per bent piece with i != 0."""
    from liebend import bending
    from liebend.config import DEFAULT
    from liebend.report import PRESETS, cmd_bend
    calls = []
    real = bending.z_vector

    def counting(alg, x_mat, y_mat, t):
        calls.append(t)
        return real(alg, x_mat, y_mat, t)

    monkeypatch.setattr(bending, "z_vector", counting)
    spec = (dict(PRESETS[spec], verify_dps=0) if isinstance(spec, str)
            else dict(spec, t="auto", verify_dps=0))
    report = cmd_bend(spec, DEFAULT)
    verdicts = {c.check_id: c.verdict for c in report.checks}
    assert verdicts["bend/certificate"]["verdict"] == "PASS"
    bent = [ij for ij in verdicts["bend/plan"]["Lambda"] if ij[0] != 0]
    assert bent and calls == [verdicts["bend/plan"]["t"]] * len(bent)


def test_standalone_images_match_the_plan_stack(monkeypatch):
    """fixed_weight_zero_vector and pushed_forward without the plan's stack
    each make one rho_of call of their own, and agree with the plan to the
    bit."""
    from liebend import bending
    triple = sl2_from_partition(make_algebra("sl", 5), (5,))
    seed = fuchsian_generators(4)
    plan = build_plan(triple, seed)
    calls = []
    real = bending.rho_of

    def recording(triple, g2):
        calls.append(np.shape(g2))
        return real(triple, g2)

    monkeypatch.setattr(bending, "rho_of", recording)
    bent = [((i, j), k) for (i, j), k in plan.f.items() if i != 0]
    for (i, j), k in bent:
        x = fixed_weight_zero_vector(plan.iso, i, j, seed.a[k - 1])
        assert x.tobytes() == plan.x_vectors[(i, j)].tobytes()
    pushed = pushed_forward(triple, seed)
    assert np.concatenate([pushed.a, pushed.b]).tobytes() == plan.images.tobytes()
    assert bent and calls == [(2, 2, 2)] * len(bent) + [(8, 2, 2)]


@pytest.mark.parametrize("preset", ["su21-rho1-g2", "sl5-even5-g4"])
def test_bend_takes_each_rho_image_once(preset, monkeypatch):
    """One rho_of call per plan, on a stack: each generator and the
    conjugator of each bent a_k once.  rho(a_k) of a bent generator serves
    both its fixed line and the pushed representation."""
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
    assert len(seen) == len(set(seen)) == 2 * spec["genus"] + fixed_lines
