"""Exact linear algebra over the rationals (stdlib Fraction, small dense systems)."""

from fractions import Fraction
from math import gcd


def rref(rows):
    """Reduced row echelon form. Returns (rows, pivot_columns); input not mutated."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = Fraction(1) / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(mat):
            break
    return [tuple(r) for r in mat[:rank]], pivots


def rank(rows):
    return len(rref(rows)[0])


def nullspace(rows, ncols):
    """Basis of {x : rows @ x = 0}, one vector per free column of the RREF."""
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, p in zip(red, pivots):
            vec[p] = -row[free]
        basis.append(tuple(vec))
    return basis


def integer_multiple(vec):
    """The entries of a rational vector (ints or Fractions) times their
    common denominator, a positive integer, as Python ints: the signs and
    ratios of the entries are kept."""
    scale = 1
    for x in vec:
        d = x.denominator
        if d != 1:
            scale = scale * d // gcd(scale, d)
    return [int(x * scale) for x in vec]


def primitive(vec):
    """Scale a rational vector to coprime integers, first nonzero entry positive."""
    ints = integer_multiple(vec)
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x != 0), 1)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(Fraction(x) for x in ints)
