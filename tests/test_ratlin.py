import random
from fractions import Fraction
from math import lcm

import pytest

from liebend import _ratlin

from conftest import nullspace, rref


def F(*xs):
    return tuple(Fraction(x) for x in xs)


def oracle_primitive(vec):
    """The coprime integer multiple with first nonzero entry positive: divide
    by the first nonzero entry, then clear the denominators."""
    lead = next((x for x in vec if x != 0), 1)
    unit = [Fraction(x) / lead for x in vec]
    scale = lcm(*(x.denominator for x in unit))
    return tuple(int(x * scale) for x in unit)


def test_rref_and_rank():
    rows = [F(1, 2, 3), F(2, 4, 6), F(0, 1, 1)]
    red, pivots = rref(rows)
    assert len(red) == 2 and pivots == [0, 1]
    assert _ratlin._echelon(rows)[1] == [0, 1]


def test_nullspace():
    rows = [F(1, 1, 1)]
    null = _ratlin.primitive_nullspace(rows, 3)
    assert null == [(1, -1, 0), (1, 0, -1)]
    assert all(type(x) is int for v in null for x in v)
    assert null == [oracle_primitive(v) for v in nullspace(rows, 3)]


def test_primitive():
    assert _ratlin.primitive(F(Fraction(1, 2), Fraction(-3, 4))) == (2, -3)
    assert _ratlin.primitive(F(-2, 4)) == (1, -2)
    assert _ratlin.primitive(F(0, Fraction(5, 7))) == (0, 1)
    assert _ratlin.primitive(F(0, 0)) == (0, 0)


def random_entry(rnd, big):
    if big:
        return rnd.randint(-10 ** 30, 10 ** 30)
    if rnd.random() < 0.3:
        return Fraction(rnd.randint(-9, 9), rnd.randint(1, 9))
    return rnd.randint(-3, 3)


def random_matrix(rnd, shape):
    """Rational rows of one of the shapes the elimination must handle: tall,
    wide, square, rank-deficient (rows that are combinations of others),
    with zero rows, or empty; some with entries up to 10**30."""
    ncols = rnd.randint(1, 7)
    nrows = {"tall": ncols + rnd.randint(1, 4), "wide": rnd.randint(1, max(ncols - 1, 1)),
             "square": ncols, "deficient": rnd.randint(2, 8), "zero-rows": rnd.randint(1, 6),
             "empty": 0}[shape]
    big = rnd.random() < 0.25
    rows = [[random_entry(rnd, big) for _ in range(ncols)] for _ in range(nrows)]
    if shape == "deficient":
        keep = rnd.randint(1, nrows - 1)
        for r in range(keep, nrows):
            coeffs = [random_entry(rnd, False) for _ in range(keep)]
            rows[r] = [sum(c * rows[k][j] for k, c in enumerate(coeffs)) for j in range(ncols)]
    if shape == "zero-rows":
        for r in rnd.sample(range(nrows), rnd.randint(1, nrows)):
            rows[r] = [0] * ncols
    rnd.shuffle(rows)
    return rows, ncols


SHAPES = ("tall", "wide", "square", "deficient", "zero-rows", "empty")


@pytest.mark.parametrize("shape", SHAPES)
def test_elimination_matches_the_fraction_oracle(shape):
    """The pivots and primitive_nullspace against the Fraction RREF on 400 seeded
    random matrices per shape (2400 in all)."""
    rnd = random.Random(f"ratlin-{shape}")
    dependent = set()
    for _ in range(400):
        rows, ncols = random_matrix(rnd, shape)
        red, pivots = rref(rows)
        assert _ratlin._echelon(rows)[1] == pivots
        got = _ratlin.primitive_nullspace(rows, ncols)
        assert got == [oracle_primitive(v) for v in nullspace(rows, ncols)]
        assert len(got) == ncols - len(red)
        dependent.add(len(red) < len(rows))
    if shape in ("tall", "deficient", "zero-rows"):
        assert dependent == {True}
    elif shape == "empty":
        assert dependent == {False}
