"""W as signed-permutation arrays, checked against a reference oracle: the
element-by-element Fraction scans over an itertools enumeration of W that
the properness decisions are defined by.  The oracle is kept for rank <= 5."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from liebend import _ratlin, properness
from liebend.algebra import make_algebra
from liebend.errors import RealizationError
from liebend.properness import (HSubalgebraTorus, benoist_certificate,
                                benoist_criterion, in_weyl_orbit_of_subspace)
from liebend.weyl import WeylElement, split_torus

FAMILIES = [("sl", 3), ("sl", 4), ("sl", 5), ("su", 1, 1), ("su", 2, 1), ("su", 2, 2),
            ("su", 3, 2), ("su", 3, 3), ("su", 4, 3)]
CERT_MAX_DENOMINATOR = 12  # keeps the oracle's certificate search short


@pytest.fixture(scope="module", params=FAMILIES, ids=lambda f: f[0] + "".join(map(str, f[1:])))
def torus(request):
    return split_torus(make_algebra(*request.param))


# --- reference oracle -------------------------------------------------------

def oracle_weyl(torus):
    n = torus.coord_len
    if torus.algebra.family == "sl":
        return [WeylElement(p, (1,) * n) for p in itertools.permutations(range(n))]
    return [WeylElement(p, s) for p in itertools.permutations(range(n))
            for s in itertools.product((1, -1), repeat=n)]


def _annihilated(ah, u):
    return all(sum(c * x for c, x in zip(row, u)) == 0 for row in ah.annihilator)


def _in_translate(ah, w, v):
    """v in w.span(a_h), tested as w^{-1} v in span(a_h)."""
    u = [None] * len(v)
    for i, (s, p) in enumerate(zip(w.signs, w.perm)):
        u[p] = s * v[i]
    return _annihilated(ah, u)


def oracle_orbit(torus, v, ah):
    for w in oracle_weyl(torus):
        if _annihilated(ah, w.apply(v)):
            return True, w
    return False, None


def oracle_criterion(torus, ah):
    if ah.dim < torus.b_dim:
        return True
    return not any(all(_in_translate(ah, w, b) for b in torus.b_basis)
                   for w in oracle_weyl(torus))


def oracle_certificate(torus, ah, max_denominator):
    if not oracle_criterion(torus, ah):
        return None
    weyl = oracle_weyl(torus)

    def outside_all(v):
        return not any(_in_translate(ah, w, v) for w in weyl)

    base = torus.chamber_interior_point()
    if outside_all(base):
        return base
    for denom in range(2, max_denominator + 1):
        for direction in torus.b_basis:
            for sign in (1, -1):
                cand = tuple(x + sign * Fraction(1, denom) * d for x, d in zip(base, direction))
                if torus.is_dominant(cand) and torus.in_b(cand) and outside_all(cand):
                    return cand
    raise RealizationError("no rational certificate point found below the denominator cap")


# --- seeded random queries ---------------------------------------------------

def random_vector(torus, rng, big):
    n = torus.coord_len
    if big:  # entries near 2**40: dot products pass 2**62, so the object lane runs
        raw = [Fraction(int(x)) for x in rng.integers(-2 ** 40, 2 ** 40, n)]
    else:
        raw = [Fraction(int(a), int(b)) for a, b in
               zip(rng.integers(-4, 5, n), rng.integers(1, 4, n))]
    if torus.algebra.family == "sl":
        raw[-1] = -sum(raw[:-1])
    return torus.vector(raw)


def random_ah(torus, rng, dim, big):
    while True:
        rows = [random_vector(torus, rng, big) for _ in range(dim)]
        if _ratlin.rank(rows) == dim:
            return HSubalgebraTorus(torus, tuple(rows))


def random_queries(torus, seed, count):
    """(a_h, v) pairs; half the v are Weyl images of points of a_h, so that
    members and non-members both occur."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        big = k % 4 == 3
        ah = random_ah(torus, rng, int(rng.integers(0, torus.rank + 1)), big)
        if k % 2:
            coeffs = rng.integers(-3, 4, ah.dim)
            u = tuple(sum(int(c) * b[i] for c, b in zip(coeffs, ah.basis))
                      for i in range(torus.coord_len))
            v = torus.element(int(rng.integers(0, torus.weyl_order))).apply(u)
        else:
            v = random_vector(torus, rng, big)
        out.append((ah, torus.vector(v)))
    return out


def test_element_matches_itertools_enumeration(torus):
    assert torus.weyl_order == len(oracle_weyl(torus))
    assert [torus.element(i) for i in range(torus.weyl_order)] == oracle_weyl(torus)


def test_orbit_membership_matches_oracle(torus):
    verdicts = set()
    for ah, v in random_queries(torus, 11, 24):
        got = in_weyl_orbit_of_subspace(torus, v, ah)
        assert got == oracle_orbit(torus, v, ah)
        verdicts.add(got[0])
    assert verdicts == {True, False}


def benoist_queries(torus, seed, count):
    """Every other a_h contains a Weyl translate of b, so that the criterion
    fails; of the rest, every other one contains a Weyl image of the
    staircase point, so that the certificate search has to move off it."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        big = k % 4 == 3
        dim = int(rng.integers(0, torus.rank + 1))
        w = torus.element(int(rng.integers(0, torus.weyl_order)))
        if k % 2:
            rows = [w.apply(b) for b in torus.b_basis]
        else:
            rows = [w.apply(torus.chamber_interior_point())] if k % 4 == 2 else []
        dim = max(dim, len(rows))
        while len(rows) < dim:
            row = random_vector(torus, rng, big)
            if _ratlin.rank(rows + [row]) > len(rows):
                rows.append(row)
        out.append(HSubalgebraTorus(torus, tuple(rows)))
    return out


def test_benoist_matches_oracle(torus, monkeypatch):
    monkeypatch.setattr(properness, "CERTIFICATE_MAX_DENOMINATOR", CERT_MAX_DENOMINATOR)
    verdicts = set()
    for ah in benoist_queries(torus, 12, 12):
        verdict = benoist_criterion(torus, ah)
        assert verdict == oracle_criterion(torus, ah)
        verdicts.add(verdict)
        try:
            expected = oracle_certificate(torus, ah, CERT_MAX_DENOMINATOR)
        except RealizationError:
            with pytest.raises(RealizationError):
                benoist_certificate(torus, ah)
            continue
        assert benoist_certificate(torus, ah) == expected
    assert verdicts == {True, False}


def test_integer_scan_does_not_wrap():
    """Dot products past 2**63 must stay exact (the int64 guard)."""
    torus = split_torus(make_algebra("su", 2, 2))
    ah = HSubalgebraTorus(torus, ((2 ** 32, 1),))  # annihilator (1, -2**32)
    assert in_weyl_orbit_of_subspace(torus, (0, 2 ** 32), ah) == (False, None)
    # primitive already: the identity image gives 2**32 - 2**32 * (2**32 + 1)
    # = -2**64, which int64 arithmetic would wrap to 0, a false member
    assert in_weyl_orbit_of_subspace(torus, (2 ** 32, 2 ** 32 + 1), ah) == (False, None)
