from fractions import Fraction

from liebend import _ratlin


def F(*xs):
    return tuple(Fraction(x) for x in xs)


def test_rref_and_rank():
    rows = [F(1, 2, 3), F(2, 4, 6), F(0, 1, 1)]
    red, pivots = _ratlin.rref(rows)
    assert len(red) == 2 and pivots == [0, 1]
    assert _ratlin.rank(rows) == 2


def test_nullspace():
    rows = [F(1, 1, 1)]
    null = _ratlin.nullspace(rows, 3)
    assert len(null) == 2
    for v in null:
        assert sum(v) == 0


def test_primitive():
    assert _ratlin.primitive(F(Fraction(1, 2), Fraction(-3, 4))) == F(2, -3)
    assert _ratlin.primitive(F(-2, 4)) == F(1, -2)
    assert _ratlin.primitive(F(0, Fraction(5, 7))) == F(0, 1)
