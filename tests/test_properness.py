import math
from fractions import Fraction

import numpy as np
import pytest

from liebend.algebra import make_algebra
from liebend.config import Config
from liebend.errors import RealizationError
from liebend.properness import (HSubalgebraTorus, benoist_certificate,
                                benoist_criterion, calabi_markus,
                                in_weyl_orbit_of_subspace, pitchfork_margin,
                                sl2_action_proper)
from liebend.sl2 import Sl2Triple, rho1_su, rho2_su, sl2_from_partition
from liebend.weyl import split_torus

from conftest import weyl_compatible_identity_holds

SEC53_BASIS = ((2, -2, 0, 0, 0), (4, 2, 0, -2, -4))


@pytest.fixture(scope="module")
def ah53(sl5_torus):
    return HSubalgebraTorus(sl5_torus, SEC53_BASIS)


def hyperplane_ah(torus):
    q = torus.rank
    return HSubalgebraTorus(torus, tuple(
        tuple(1 if j == i else 0 for j in range(q)) for i in range(1, q)))


MEMBERSHIP_ROWS = [
    ((4, 2, 0, -2, -4), True),
    ((3, 1, 0, -1, -3), False),
    ((2, 1, 0, -1, -2), True),
    ((2, 0, 0, 0, -2), True),
    ((1, 1, 0, -1, -1), False),
    ((1, 0, 0, 0, -1), True),
    ((0, 0, 0, 0, 0), True),
]


@pytest.mark.parametrize("vec,expected", MEMBERSHIP_ROWS)
def test_weyl_orbit_membership(sl5_torus, ah53, vec, expected):
    got, wit = in_weyl_orbit_of_subspace(sl5_torus, sl5_torus.vector(vec), ah53)
    assert got is expected
    if expected:
        assert ah53.contains(wit.apply(sl5_torus.vector(vec)))


def test_weyl_orbit_invariance(sl5_torus, ah53, rng):
    v = sl5_torus.vector((3, 1, 0, -1, -3))
    base, _ = in_weyl_orbit_of_subspace(sl5_torus, v, ah53)
    for idx in rng.integers(0, sl5_torus.weyl_order, 25):
        w = sl5_torus.element(int(idx))
        got, _ = in_weyl_orbit_of_subspace(sl5_torus, w.apply(v), ah53)
        assert got is base


def test_sl2_action_proper_su(su21_torus, su32_torus):
    for torus, alg_params in ((su21_torus, (2, 1)), (su32_torus, (3, 2))):
        alg = make_algebra("su", *alg_params)
        ah = hyperplane_ah(torus)
        assert sl2_action_proper(torus, rho1_su(alg), ah)
        if alg_params[0] > alg_params[1]:
            assert sl2_action_proper(torus, rho2_su(alg), ah)


def test_sl2_action_proper_sl5(sl5, sl5_torus, ah53):
    assert sl2_action_proper(sl5_torus, sl2_from_partition(sl5, (4, 1)), ah53)
    assert sl2_action_proper(sl5_torus, sl2_from_partition(sl5, (2, 2, 1)), ah53)
    assert not sl2_action_proper(sl5_torus, sl2_from_partition(sl5, (5,)), ah53)
    assert not sl2_action_proper(sl5_torus, sl2_from_partition(sl5, (3, 1, 1)), ah53)


def test_sl2_action_proper_requires_diagonal(sl5, sl5_torus, ah53):
    t = sl2_from_partition(sl5, (5,))
    rot = np.eye(5)
    rot[0, 0] = rot[1, 1] = math.cos(0.3)
    rot[0, 1], rot[1, 0] = math.sin(0.3), -math.sin(0.3)
    conj = Sl2Triple(sl5, rot @ t.h @ rot.T, rot @ t.e @ rot.T, rot @ t.f @ rot.T,
                     "custom", "conj", None)
    with pytest.raises(RealizationError):
        sl2_action_proper(sl5_torus, conj, ah53)


def test_benoist_criterion(sl5_torus, su21_torus, su32_torus, ah53):
    assert benoist_criterion(sl5_torus, ah53)
    for torus in (su21_torus, su32_torus):
        assert benoist_criterion(torus, hyperplane_ah(torus))
        full = HSubalgebraTorus(torus, tuple(
            tuple(1 if j == i else 0 for j in range(torus.rank)) for i in range(torus.rank)))
        assert not benoist_criterion(torus, full)
    full5 = HSubalgebraTorus(sl5_torus, (
        (1, -1, 0, 0, 0), (0, 1, -1, 0, 0), (0, 0, 1, -1, 0), (0, 0, 0, 1, -1)))
    assert not benoist_criterion(sl5_torus, full5)


def test_benoist_monotone(su32_torus):
    small = HSubalgebraTorus(su32_torus, ())
    ah = hyperplane_ah(su32_torus)
    full = HSubalgebraTorus(su32_torus, ((1, 0), (0, 1)))
    verdicts = [benoist_criterion(su32_torus, s) for s in (small, ah, full)]
    # enlarging never flips False -> True
    for earlier, later in zip(verdicts, verdicts[1:]):
        assert earlier or not later


def test_benoist_certificate(sl5_torus, su32_torus, ah53):
    point = benoist_certificate(sl5_torus, ah53)
    assert sl5_torus.in_b_plus(point)
    member, _ = in_weyl_orbit_of_subspace(sl5_torus, point, ah53)
    assert not member
    pt = benoist_certificate(su32_torus, hyperplane_ah(su32_torus))
    assert su32_torus.in_b_plus(pt)
    full = HSubalgebraTorus(su32_torus, ((1, 0), (0, 1)))
    assert benoist_certificate(su32_torus, full) is None


def test_calabi_markus(su32_torus, sl5_torus):
    assert not calabi_markus(su32_torus, hyperplane_ah(su32_torus))
    assert calabi_markus(su32_torus, HSubalgebraTorus(su32_torus, ((1, 0), (0, 1))))
    assert not calabi_markus(su32_torus, HSubalgebraTorus(su32_torus, ()))
    # consistency: equal rank forces the existence criterion to fail
    full = HSubalgebraTorus(su32_torus, ((1, 0), (0, 1)))
    assert calabi_markus(su32_torus, full) and not benoist_criterion(su32_torus, full)


def test_dominant_vectors_in_b_plus(sl5, sl5_torus, su21_torus, su32_torus):
    """Every constructed triple has its dominant H-vector inside b_plus."""
    for parts in [(5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)]:
        t = sl2_from_partition(sl5, parts)
        v_plus, _ = sl5_torus.dominant_representative(t.torus_vector)
        assert sl5_torus.in_b_plus(v_plus)
    for torus, params in ((su21_torus, (2, 1)), (su32_torus, (3, 2))):
        alg = make_algebra("su", *params)
        for triple in [rho1_su(alg)] + ([rho2_su(alg)] if params[0] > params[1] else []):
            v_plus, _ = torus.dominant_representative(triple.torus_vector)
            assert torus.in_b_plus(v_plus)


def test_chamber_identity_for_symmetric_pair(su32_torus, rng):
    """a_+ ∩ W.a_h = a_+ ∩ a_h for the hyperplane subalgebra realized
    compatibly with the lexicographic positive system (its ordered basis must
    come first, so the hyperplane is {a_q = 0} here); the non-symmetric
    sl(5,R) subalgebra is deliberately not checked."""
    q = su32_torus.rank
    ah = HSubalgebraTorus(su32_torus, tuple(
        tuple(1 if j == i else 0 for j in range(q)) for i in range(q - 1)))
    samples = []
    for _ in range(25):
        raw = [Fraction(int(x)) for x in rng.integers(0, 7, su32_torus.rank)]
        samples.append(tuple(raw))
    samples += [(0, 0), (0, 3), (5, 0), (2, 2)]
    assert weyl_compatible_identity_holds(su32_torus, ah, samples)


def test_pitchfork_margin(su21_torus):
    ah = hyperplane_ah(su21_torus)  # {a1 = 0} has empty basis at q = 1
    torus0 = split_torus(make_algebra("su", 2, 1, config=Config(pitchfork_radius=0.0)))
    ah0 = hyperplane_ah(torus0)
    on_ah = [(0.0,)] * 5
    res = pitchfork_margin(torus0, on_ah, ah0)
    assert res.margin == 0.0 and not res.inconclusive

    rays = [(float(t),) for t in range(1, 11)]
    res = pitchfork_margin(torus0, rays, ah0)
    assert res.margin == pytest.approx(1.0)
    res5 = pitchfork_margin(su21_torus, rays, ah)  # default radius 5
    assert res5.margin == pytest.approx(5.0)
    empty = pitchfork_margin(su21_torus, [(0.5,)], ah)
    assert empty.inconclusive and math.isinf(empty.margin)


def test_pitchfork_distinguishes_sign_translates():
    # span{(1,1)} and its sign-flipped translate span{(1,-1)} are distinct;
    # a sample on the flipped translate must have zero margin
    torus = split_torus(make_algebra("su", 2, 2, config=Config(pitchfork_radius=0.0)))
    ah = HSubalgebraTorus(torus, ((1, 1),))
    res = pitchfork_margin(torus, [(3.0, -3.0)], ah)
    assert res.margin == pytest.approx(0.0, abs=1e-12)
    res_on = pitchfork_margin(torus, [(3.0, 3.0)], ah)
    assert res_on.margin == pytest.approx(0.0, abs=1e-12)
    res_off = pitchfork_margin(torus, [(3.0, 0.0)], ah)
    assert res_off.margin == pytest.approx(3.0 / np.sqrt(2.0))


def test_pitchfork_bent_word_sample(su21, su21_torus):
    from liebend.bending import bend, build_plan, fuchsian_generators
    from liebend.projections import mu
    triple = rho1_su(su21)
    seed = fuchsian_generators(2)
    plan = build_plan(su21, triple, seed, t="auto")
    bent = bend(seed, plan)
    gens = bent.generators()
    samples = []
    frontier = [np.eye(3, dtype=complex)]
    for _ in range(6):
        nxt = []
        for w in frontier:
            for g in gens:
                wg = w @ g
                nxt.append(wg)
                samples.append(mu(su21, su21_torus, wg))
        frontier = nxt
    ah = hyperplane_ah(su21_torus)
    res = pitchfork_margin(su21_torus, samples, ah)
    assert not res.inconclusive
    assert res.margin > 0.0
