import math
from fractions import Fraction

import numpy as np
import pytest

from liebend import weyl
from liebend.algebra import make_algebra
from liebend.cli import main
from liebend.errors import ParameterError
from liebend.weyl import split_torus


def test_split_torus_basics(sl5_torus, su32_torus):
    assert sl5_torus.rank == 4 and sl5_torus.weyl_order == 120
    assert su32_torus.rank == 2 and su32_torus.weyl_order == 8


ADMITTED_GRID = [("sl", n) for n in range(2, 10)] + [
    ("su", p, q) for p in range(1, 8) for q in range(1, p + 1)]


def _closed_form_roots(family):
    """{root coefficients: multiplicity} from the classical tables: e_i - e_j
    of multiplicity 1 for sl(n); for su(p,q), e_i +- e_j of multiplicity 2,
    2e_i of multiplicity 1 and, for p > q, e_i of multiplicity 2(p - q),
    each with its negative."""
    unit = np.eye(family[-1], dtype=int)
    if family[0] == "sl":
        return {tuple(unit[i] - unit[j]): 1 for i in range(family[1])
                for j in range(family[1]) if i != j}
    p, q = family[1:]
    roots = {}
    for sign in (1, -1):
        for i in range(q):
            roots[tuple(sign * 2 * unit[i])] = 1
            if p > q:
                roots[tuple(sign * unit[i])] = 2 * (p - q)
            for j in range(i + 1, q):
                roots[tuple(sign * (unit[i] + unit[j]))] = 2
                roots[tuple(sign * (unit[i] - unit[j]))] = 2
    return roots


@pytest.mark.parametrize("family", ADMITTED_GRID, ids=lambda f: f[0] + "".join(map(str, f[1:])))
def test_torus_matches_the_closed_forms(family):
    """Over the admitted grid: w0 reverses the coordinates in sl(n) and is -1
    in su(p,q); the staircase is (n-1, n-3, ..., 1-n), resp. (q, ..., 1);
    |W| is n!, resp. q! 2**q; b is {v_i = -v_(n-1-i)}, resp. all of a; and
    the roots carry the multiplicities of the classical tables."""
    torus = split_torus(make_algebra(*family))
    n = torus.coord_len
    if family[0] == "sl":
        assert n == family[1] and torus.rank == n - 1
        w0 = weyl.WeylElement(tuple(range(n - 1, -1, -1)), (1,) * n)
        staircase, order = tuple(range(n - 1, -n, -2)), math.factorial(n)
        b_rows = [[(k == i) + (k == n - 1 - i) for k in range(n)] for i in range(n)]
    else:
        assert n == torus.rank == family[2]
        w0 = weyl.WeylElement(tuple(range(n)), (-1,) * n)
        staircase, order = tuple(range(n, 0, -1)), math.factorial(n) * 2 ** n
        b_rows = []
    assert torus.w0 == w0
    assert torus.staircase == staircase
    assert torus.weyl_order == order
    b = np.array(torus.b_basis)
    assert not (np.array(b_rows, dtype=int).reshape(-1, n) @ b.T).any()
    assert np.linalg.matrix_rank(b) == len(b) == n - np.linalg.matrix_rank(
        np.array(b_rows, dtype=int).reshape(-1, n))
    assert {r.coeffs: r.multiplicity for r in torus.roots} == _closed_form_roots(family)


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
            assert {w.apply(c) for c in roots} == roots


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
        image = {tuple(-c for c in torus.w0.apply(r.coeffs)) for r in torus.positive_roots}
        assert image == pos
        probe = torus.staircase
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


def test_weyl_order_cap(monkeypatch, tmp_path, capsys):
    """The cap counts |W|: su(9,9) (|W| = 9! * 2**9) is refused on every
    call, by a message naming |W| and the cap, before its sign table, any
    table of tail permutations or any chunk of W is built, and `check`
    exits 2 on it; sl(10) (10!) and su(8,8) (8! * 2**8), the largest group
    admitted, are accepted."""
    assert weyl.WEYL_ORDER_CAP == 10_321_920
    sign_vectors = weyl._sign_vectors
    # calling any of these would raise TypeError
    for name in ("_sign_vectors", "_permutations"):
        monkeypatch.setattr(weyl, name, None)
    su99 = make_algebra("su", 9, 9)
    for _ in range(3):
        with pytest.raises(ParameterError, match=r"^\|W\| = 185794560 exceeds the Weyl group "
                                                 r"cap 10321920$"):
            split_torus(su99)
    monkeypatch.setattr(weyl, "_sign_vectors", sign_vectors)
    assert split_torus(make_algebra("sl", 10)).weyl_order == 3_628_800
    assert split_torus(make_algebra("su", 8, 8)).weyl_order == weyl.WEYL_ORDER_CAP
    ah = tmp_path / "ah.json"
    ah.write_text("[[1, 0, 0, 0, 0, 0, 0, 0, 0]]")
    assert main(["check", "--family", "su", "--p", "9", "--q", "9", "--ah", str(ah)]) == 2
    assert "185794560 exceeds the Weyl group cap" in capsys.readouterr().err


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
