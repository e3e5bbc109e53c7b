from fractions import Fraction

import numpy as np
import pytest

from liebend.algebra import make_algebra
from liebend.errors import ParameterError
from liebend.weyl import split_torus


def test_split_torus_basics(sl5_torus, su32_torus):
    assert sl5_torus.rank == 4 and sl5_torus.weyl_order == 120
    assert su32_torus.rank == 2 and su32_torus.weyl_order == 8


def test_su22_opposition_is_identity():
    torus = split_torus(make_algebra("su", 2, 2))
    for v in [(1, 0), (0, 1), (3, -2), (Fraction(5, 2), 7)]:
        assert torus.iota(torus.vector(v)) == torus.vector(v)


def test_root_multiplicities(su32_torus, sl5_torus):
    mults = {r.coeffs: r.multiplicity for r in su32_torus.roots}
    assert mults[(1, -1)] == 2 and mults[(1, 1)] == 2   # e_i +- e_j
    assert mults[(1, 0)] == 2                            # e_i: 2(p-q)
    assert mults[(2, 0)] == 1                            # 2e_i
    assert all(r.multiplicity == 1 for r in sl5_torus.roots)
    # su(q,q) has no short roots e_i
    t22 = split_torus(make_algebra("su", 2, 2))
    assert (1, 0) not in {r.coeffs for r in t22.roots}


def test_weyl_permutes_roots(su32_torus, sl5_torus):
    for torus in (su32_torus, sl5_torus):
        roots = {r.coeffs for r in torus.roots}
        for i in range(torus.weyl_order):
            w = torus.element(i)
            assert {w.apply_root(c) for c in roots} == roots


def test_dominant_representative_examples(sl5_torus, su32_torus):
    v = sl5_torus.vector((-4, -2, 0, 2, 4))
    v_plus, w = sl5_torus.dominant_representative(v)
    assert v_plus == sl5_torus.vector((4, 2, 0, -2, -4))
    assert w.apply(v) == v_plus

    v2 = su32_torus.vector((-3, 2))
    v2_plus, w2 = su32_torus.dominant_representative(v2)
    assert v2_plus == su32_torus.vector((3, 2))
    assert all(x >= 0 for x in v2_plus)

    dom = sl5_torus.vector((4, 2, 0, -2, -4))
    same, wid = sl5_torus.dominant_representative(dom)
    assert same == dom and wid == sl5_torus.identity()


def test_dominant_representative_weyl_invariance(sl5_torus, su32_torus, rng):
    for torus in (sl5_torus, su32_torus):
        for _ in range(100):
            if torus.algebra.family == "sl":
                raw = [Fraction(int(x), int(y)) for x, y in
                       zip(rng.integers(-9, 10, torus.coord_len),
                           rng.integers(1, 5, torus.coord_len))]
                raw[-1] = -sum(raw[:-1])
            else:
                raw = [Fraction(int(x), int(y)) for x, y in
                       zip(rng.integers(-9, 10, torus.coord_len),
                           rng.integers(1, 5, torus.coord_len))]
            v = torus.vector(raw)
            v_plus, _ = torus.dominant_representative(v)
            w = torus.element(int(rng.integers(0, torus.weyl_order)))
            moved_plus, _ = torus.dominant_representative(w.apply(v))
            assert moved_plus == v_plus  # exact rational equality


def test_iota_involution_and_chamber_stability(sl5_torus, su32_torus):
    for torus in (sl5_torus, su32_torus):
        pos = {r.coeffs for r in torus.positive_roots}
        # iota = -w0 permutes the positive system
        image = {tuple(-c for c in torus.w0.apply_root(r.coeffs)) for r in torus.positive_roots}
        assert image == pos
        probe = torus.chamber_interior_point()
        assert torus.is_dominant(torus.iota(probe))
        for v in (probe, torus.vector([1] + [0] * (torus.coord_len - 2) + [-1])
                  if torus.algebra.family == "sl" else torus.vector([1] * torus.coord_len)):
            assert torus.iota(torus.iota(v)) == torus.vector(v)


def test_b_space(sl5_torus, su32_torus, sl2):
    assert len(sl5_torus.b_basis) == 2
    assert sl5_torus.in_b(sl5_torus.vector((4, 2, 0, -2, -4)))
    assert sl5_torus.in_b(sl5_torus.vector((2, 0, 0, 0, -2)))
    assert not sl5_torus.in_b(sl5_torus.vector((1, -1, 0, 0, 0)))

    assert len(su32_torus.b_basis) == su32_torus.rank  # b = a for su(p,q)

    t2 = split_torus(sl2)
    assert len(t2.b_basis) == 1


def test_chamber_fundamental_domain(sl5_torus, rng):
    for _ in range(50):
        raw = [Fraction(int(x)) for x in rng.integers(-6, 7, 5)]
        raw[-1] = -sum(raw[:-1])
        v = sl5_torus.vector(raw)
        images = (sl5_torus.element(i).apply(v) for i in range(sl5_torus.weyl_order))
        dominants = {u for u in images if sl5_torus.is_dominant(u)}
        assert len(dominants) == 1


def test_rank_one_su():
    torus = split_torus(make_algebra("su", 1, 1))
    assert torus.rank == 1 and torus.weyl_order == 2
    assert {r.coeffs for r in torus.roots} == {(2,), (-2,)}  # no short roots at p = q
    assert torus.iota(torus.vector((3,))) == torus.vector((3,))


def test_rank_cap():
    with pytest.raises(ParameterError):
        split_torus(make_algebra("sl", 10))


def test_trace_constraint(sl5_torus):
    with pytest.raises(ParameterError):
        sl5_torus.vector((1, 0, 0, 0, 0))


def _tori_up_to_sl7_su66():
    algs = [make_algebra("sl", n) for n in range(2, 8)]
    algs += [make_algebra("su", p, q) for p in range(1, 7) for q in range(1, p + 1)]
    return [split_torus(alg) for alg in algs]


def _fraction_dominant(torus, v):
    """Oracle: every positive-root value as a Fraction sum, root by root."""
    return all(sum(c * x for c, x in zip(r.coeffs, v)) >= 0 for r in torus.positive_roots)


def test_integer_dominance_matches_fraction_oracle():
    """is_dominant on seeded random rational vectors (with root values of
    exactly 0 and entries past int64) against root-by-root Fraction sums,
    for every torus up to sl(7) and su(6,6)."""
    rng = np.random.default_rng(20240817)
    on_a_wall = big = 0
    for torus in _tori_up_to_sl7_su66():
        n = torus.coord_len
        for k in range(60):
            nums = rng.integers(-3, 4, size=n)
            dens = rng.integers(1, 4, size=n)
            v = [Fraction(int(a), int(d)) for a, d in zip(nums, dens)]
            if k % 3 == 0:  # dominant vectors with ties: root values exactly 0
                v, _ = torus.dominant_representative(
                    [x - sum(v) / n for x in v] if torus.algebra.family == "sl" else v)
            if k % 10 == 9:  # beyond int64
                v = [x * 2 ** 70 / 3 for x in v]
                big += 1
            want = _fraction_dominant(torus, v)
            assert torus.is_dominant(v) == want
            on_a_wall += want and any(
                sum(c * x for c, x in zip(r.coeffs, v)) == 0 for r in torus.positive_roots)
    assert on_a_wall >= 100 and big >= 100
