"""Exact linear algebra over the rationals on Python ints (small dense systems).

Elimination is fraction-free: each row is scaled to primitive integers, and a
pivot is cleared from another row by the integer row operation
p*row - f*pivot_row, after which the row is divided by the gcd of its
entries.  Each reduced row is then a nonzero multiple of the matching row of
the (unique) reduced row echelon form, so ranks and kernels are those of the
Fraction elimination, without a Fraction in the loop.
"""

from math import gcd, lcm


def integer_multiple(vec):
    """The entries of a rational vector (ints or Fractions) times their
    common denominator, a positive integer, as Python ints: the signs and
    ratios of the entries are kept."""
    scale = 1
    for x in vec:
        d = x.denominator
        if d != 1:
            scale = scale * d // gcd(scale, d)
    return [int(x.numerator) * (scale // x.denominator) for x in vec]


def _divide_content(ints):
    """ints divided by the gcd of their entries (all-zero rows unchanged)."""
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def primitive(vec):
    """Scale a rational vector to coprime Python ints, first nonzero entry positive."""
    ints = _divide_content(integer_multiple(vec))
    lead = next((x for x in ints if x != 0), 1)
    return tuple(-x for x in ints) if lead < 0 else tuple(ints)


def _echelon(rows):
    """(rows, pivots): the reduced echelon form of the rational rows, each
    row a primitive integer multiple of the RREF row with the same pivot
    column.  Zero rows are dropped; the input is not mutated."""
    mat = [_divide_content(integer_multiple(r)) for r in rows]
    mat = [r for r in mat if any(r)]
    if not mat:
        return [], []
    pivots = []
    for col in range(len(mat[0])):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        prow = mat[rank]
        p = prow[col]
        for r in range(len(mat)):
            f = mat[r][col]
            if r != rank and f != 0:
                mat[r] = _divide_content([p * a - f * b for a, b in zip(mat[r], prow)])
        pivots.append(col)
        if len(pivots) == len(mat):
            break
    return mat[:len(pivots)], pivots


def primitive_nullspace(rows, ncols):
    """Basis of {x : rows @ x = 0}, one vector per free column of the RREF
    in increasing order, each scaled to coprime Python ints with its first
    nonzero entry positive (exactly `primitive` of the RREF kernel vector
    that is 1 at its free column).  With no rows, the unit vectors."""
    red, pivots = _echelon(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        # the RREF row i is red[i] / red[i][p_i], so the kernel vector is 1
        # at `free` and -red[i][free] / red[i][p_i] at p_i; scale by the lcm
        # of the pivots that enter
        scale = lcm(*(row[p] for row, p in zip(red, pivots) if row[free] != 0))
        vec = [0] * ncols
        vec[free] = scale
        for row, p in zip(red, pivots):
            vec[p] = -row[free] * (scale // row[p])
        basis.append(primitive(vec))
    return basis
