"""Acceptance gate: each criterion runs at its stated tolerance and prints one
pass/fail line.  Run with -s to see the lines unconditionally."""

import time
from fractions import Fraction

import numpy as np
from scipy.linalg import expm

from liebend.algebra import bracket, cartan_involution, centralizer, make_algebra
from liebend.config import DEFAULT
from liebend.projections import lyapunov, mu
from liebend.properness import (HSubalgebraTorus, benoist_criterion,
                                calabi_markus, sl2_action_proper)
from liebend.report import (cmd_bend, cmd_reproduce_sec53, cmd_reproduce_sec6,
                            compare_to_golden, load_golden)
from liebend.sl2 import (ad_weight_multiplicities, g_even, genus_bound, rho1_su, rho2_su,
                         sl2_from_partition)
from liebend.weyl import split_torus

from conftest import compact_part_basis, oracle_weight_mults, torus_matrix

SEED = 919

PROPER_PARTITIONS = {"[4,1]", "[2,2,1]"}


def _line(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, text


def test_criterion_1_sec53_table():
    t0 = time.perf_counter()
    report = cmd_reproduce_sec53(DEFAULT)
    elapsed = time.perf_counter() - t0
    ok, mismatches = compare_to_golden(report, load_golden("golden_sec53.json"))
    proper = {c.verdict["symbol"] for c in report.checks if c.verdict["proper"]}
    _line(1, ok and proper == PROPER_PARTITIONS and elapsed < 1.0,
          f"six partition rows match, proper exactly {sorted(proper)}, {elapsed:.2f}s < 1s")


def test_criterion_2_sec6_grid():
    t0 = time.perf_counter()
    golden = load_golden("golden_sec6.json")
    all_ok = True
    for q in range(1, 7):
        for p in range(q, 7):
            report = cmd_reproduce_sec6(p, q, DEFAULT)
            present = {c.check_id for c in report.checks}
            ok, mismatches = compare_to_golden(
                report, {k: v for k, v in golden.items() if k in present})
            if not ok:
                all_ok = False
    elapsed = time.perf_counter() - t0
    _line(2, all_ok and elapsed < 10.0,
          f"su(p,q) table reproduced for 1<=q<=p<=6 incl. sigma, evenness and "
          f"genus-bound identities, {elapsed:.2f}s < 10s")


def test_criterion_3_properness_grid():
    ok = True
    for q in range(1, 7):
        for p in range(q, 7):
            alg = make_algebra("su", p, q)
            torus = split_torus(alg)
            ah = HSubalgebraTorus(torus, tuple(
                tuple(1 if j == i else 0 for j in range(q)) for i in range(1, q)))
            ok = ok and sl2_action_proper(torus, rho1_su(alg), ah)
            if p > q:
                ok = ok and sl2_action_proper(torus, rho2_su(alg), ah)
            ok = ok and benoist_criterion(torus, ah)
            ok = ok and not calabi_markus(torus, ah)
    _line(3, ok, "rho1/rho2 proper, existence criterion true, equal-rank "
                 "obstruction false for the whole grid (exact arithmetic)")


def test_criterion_4_bending_presets():
    t0 = time.perf_counter()
    rep1 = cmd_bend("su21-rho1-g2", DEFAULT)
    t1 = time.perf_counter() - t0
    by1 = {c.check_id: c.verdict for c in rep1.checks}
    ok1 = (by1["bend/residuals"]["bent_residual"] <= 1e-8
           and by1["bend/inequalities"]["ok"]
           and by1["bend/certificate"]["verdict"] == "PASS"
           and by1["bend/certificate"]["achieved_dim"] == 4
           and t1 < 30.0)

    t0 = time.perf_counter()
    rep2 = cmd_bend("sl5-even5-g4", DEFAULT)
    t2 = time.perf_counter() - t0
    by2 = {c.check_id: c.verdict for c in rep2.checks}
    ok2 = (by2["bend/certificate"]["verdict"] == "PASS"
           and by2["bend/certificate"]["achieved_dim"] == 24
           and by2["bend/inequalities"]["ok"]
           and t2 < 30.0)
    _line(4, ok1 and ok2,
          f"su21-rho1-g2 residual<=1e-8 PASS dim 4 ({t1:.2f}s); "
          f"sl5-even5-g4 PASS dim 24 ({t2:.2f}s); both < 30s")


def _random_element(alg, rng, scale=1.0):
    return alg.from_coordinates(rng.normal(size=alg.dim) * scale)


def test_criterion_5_property_suites():
    rng = np.random.default_rng(SEED)
    sl4 = make_algebra("sl", 4)
    su21 = make_algebra("su", 2, 1)
    sl5 = make_algebra("sl", 5)
    su32 = make_algebra("su", 3, 2)
    lines = []

    # Jacobi, 100 cases, relative 1e-9
    ok = True
    for alg in (sl4, su21):
        for _ in range(50):
            x, y, z = (_random_element(alg, rng) for _ in range(3))
            r = bracket(x, bracket(y, z)) + bracket(y, bracket(z, x)) + bracket(z, bracket(x, y))
            scale = np.linalg.norm(x) * np.linalg.norm(y) * np.linalg.norm(z)
            ok = ok and np.linalg.norm(r) <= 1e-9 * max(scale, 1.0)
    lines.append(("jacobi x100", ok))

    # theta automorphism, 100 cases
    ok = True
    for alg in (sl4, su21):
        for _ in range(50):
            x, y = (_random_element(alg, rng) for _ in range(2))
            lhs = cartan_involution(alg, bracket(x, y), check=False)
            rhs = bracket(cartan_involution(alg, x), cartan_involution(alg, y))
            ok = ok and np.linalg.norm(lhs - rhs) <= 1e-9 * max(np.linalg.norm(lhs), 1.0)
    lines.append(("theta automorphism x100", ok))

    # mu symmetry and bi-invariance, 100 cases each, 1e-8
    ok_inv, ok_bi = True, True
    for alg in (sl4, su21):
        torus = split_torus(alg)
        kb = compact_part_basis(alg)
        w0 = torus.w0
        for _ in range(50):
            g = expm(_random_element(alg, rng, 0.3))
            m = mu(alg, torus, g)
            m_inv = mu(alg, torus, np.linalg.inv(g))
            iota_m = tuple(-s * m[p] for s, p in zip(w0.signs, w0.perm))
            ok_inv = ok_inv and np.allclose(m_inv, iota_m, atol=1e-8)
            k1 = expm(alg.from_coordinates(kb.onb.T @ rng.normal(size=kb.dim)))
            k2 = expm(alg.from_coordinates(kb.onb.T @ rng.normal(size=kb.dim)))
            ok_bi = ok_bi and np.allclose(mu(alg, torus, k1 @ g @ k2), m, atol=1e-8)
    lines.append(("mu(g^-1)=iota(mu(g)) x100", ok_inv))
    lines.append(("mu(kgk')=mu(g) x100", ok_bi))

    # lyapunov powers, 100 cases
    ok = True
    for alg in (sl4, su21):
        torus = split_torus(alg)
        for _ in range(50):
            g = expm(_random_element(alg, rng, 0.3))
            m = int(rng.integers(2, 5))
            lam = np.array(lyapunov(alg, torus, g))
            gm = np.linalg.matrix_power(g, m)
            ok = ok and np.allclose(np.array(lyapunov(alg, torus, gm)), m * lam, atol=1e-8)
    lines.append(("lyapunov(g^m)=m*lyapunov(g) x100", ok))

    # multiplicity identities over the eigvals ad-H weights of >=100 random
    # conjugates gHg^-1 of constructed triples
    pool = ([(sl5, sl2_from_partition(sl5, parts)) for parts in
             [(5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1)]]
            + [(su32, rho1_su(su32)), (su32, rho2_su(su32))])
    ok, checked = True, 0
    for alg, base in pool:
        for _ in range(13):
            g = expm(_random_element(alg, rng, 0.2))
            gi = np.linalg.inv(g)
            mults = oracle_weight_mults(alg, g @ base.h @ gi)
            ok = ok and mults == ad_weight_multiplicities(base)
            top = max(mults)
            total = 0
            for k in range(1, top + 2):
                mk = mults.get(k - 1, 0) - mults.get(k + 1, 0)
                ok = ok and mk >= 0
                total += k * mk
            ok = ok and total == alg.dim and all(mults[j] == mults[-j] for j in mults)
            checked += 1
    ok = ok and checked >= 100
    lines.append((f"multiplicity identities x{checked}", ok))

    # odd multiplicities = centralizer dimension, all constructed triples
    ok = True
    for alg, triple in pool:
        ok = ok and genus_bound(triple) == centralizer(alg, triple.h).dim
    lines.append(("sum of odd multiplicities = centralizer dim", ok))

    # dominant H-vector in b_plus (exact), all constructed triples
    ok = True
    for alg, triple in pool:
        torus = split_torus(alg)
        v_plus, _ = torus.dominant_representative(triple.torus_vector)
        ok = ok and torus.in_b_plus(v_plus)
    lines.append(("dominant H-vector in b_plus (exact)", ok))

    # a inside the even part for every a-diagonal triple
    ok = True
    for alg, triple in pool:
        torus = split_torus(alg)
        ge = g_even(triple)
        for i in range(torus.rank):
            free = [Fraction(0)] * torus.coord_len
            if alg.family == "sl":
                free[i], free[i + 1] = Fraction(1), Fraction(-1)
            else:
                free[i] = Fraction(1)
            mat = torus_matrix(torus, torus.vector(free))
            ok = ok and ge.contains_vector(alg.coordinates(mat), tol=1e-8)
    lines.append(("split torus inside the even part", ok))

    all_ok = all(ok for _, ok in lines)
    detail = "; ".join(f"{name}: {'ok' if ok else 'FAIL'}" for name, ok in lines)
    _line(5, all_ok, detail)


def test_criterion_6_determinism():
    r1 = cmd_reproduce_sec53(DEFAULT).to_json()
    r2 = cmd_reproduce_sec53(DEFAULT).to_json()
    b1 = cmd_bend("su21-rho1-g2", DEFAULT).to_json()
    b2 = cmd_bend("su21-rho1-g2", DEFAULT).to_json()
    s1 = cmd_reproduce_sec6(3, 2, DEFAULT).to_json()
    s2 = cmd_reproduce_sec6(3, 2, DEFAULT).to_json()
    ok = (r1 == r2) and (b1 == b2) and (s1 == s2)
    _line(6, ok, "byte-identical reports across two runs with identical config")
