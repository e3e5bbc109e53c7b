from fractions import Fraction

import pytest

from liebend.algebra import make_algebra
from liebend.properness import (HSubalgebraTorus, benoist_certificate,
                                benoist_criterion, calabi_markus,
                                in_weyl_orbit_of_subspace, sl2_action_proper)
from liebend.sl2 import rho1_su, rho2_su, sl2_from_partition

from conftest import ah_contains, weyl_compatible_identity_holds

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
        assert ah_contains(ah53, wit.apply(sl5_torus.vector(vec)))


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
