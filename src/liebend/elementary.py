"""Correctly rounded elementary functions for the integer kernel.

The functions take and return the (mantissa, exponent) pairs of
`intkernel`, m * 2**e with Python-int m, and round to nearest, ties to
even, at the precision in bits the caller passes: pi (Machin's formula,
cached per precision) and cos_sin, all that the seed polygon needs.
`expm` is the one matrix exponential, of a `FixedMatrix`, by Taylor with
scaling and squaring on each diagonal block, accurate to the precision (its
docstring states the bound) but not correctly rounded.

The high-precision lane (`highprec`) builds the seed polygon and the
bending twists on them with no mpmath.  They live beside `intkernel` and
not in it: the float lane imports the kernel for its bending line, and
compiling this source there too would raise its peak memory.
"""

import functools
import math

import numpy as np

from .intkernel import FixedMatrix, _exact_product, _fit


def _normal(m, e):
    """The pair m * 2**e with an odd mantissa, and 0 as (0, 0), so that
    equal values are equal pairs."""
    if not m:
        return 0, 0
    zeros = (m & -m).bit_length() - 1
    return m >> zeros, e + zeros


# --- elementary functions, correctly rounded -------------------------------
#
# Each function is evaluated in fixed point: an int v at scale w stands for
# v * 2**-w, and the evaluation returns (v, err, -w) with the exact value
# within err * 2**-w of v * 2**-w.  The bound err counts every floor taken
# (each below one unit), the error that the argument reduction carries into
# the reduced argument, a Taylor tail bound (from the last term summed and a
# ratio of terms below 1/2) and the growth by squaring.
# `_widen` rounds both ends of [v - err, v + err] to prec bits, to nearest;
# rounding is monotone, so when both ends round alike every point between
# does, and that is the correctly rounded value.  Otherwise w grows by half
# and the evaluation runs again (Ziv's loop).  The loop ends because pi, and
# cos and sin of a nonzero dyadic argument, are transcendental
# (Lindemann-Weierstrass), so they lie on no rounding boundary; the exact
# values at 0 are returned before the loop.

def _widen(evaluate, prec):
    """The values that evaluate(w) brackets as a list of (v, err, exp), each
    rounded to prec bits once both ends of every bracket round alike."""
    w = prec + 24
    while True:
        out = []
        for v, err, exp in evaluate(w):
            lo, hi = _normal(*_fit(v - err, exp, prec)), _normal(*_fit(v + err, exp, prec))
            if lo != hi:
                break
            out.append(lo)
        else:
            return out
        w += w // 2


def _fixed(x, w):
    """The pair x at scale w, rounded down: within one unit."""
    m, e = x
    return m << (e + w) if e + w >= 0 else m >> -(e + w)


def _atan_series(x, w):
    """atan(1/x) = sum_k (-1)**k / ((2k+1) x**(2k+1)) at scale w for an int
    x >= 2.  Each power of 1/x is rounded down from the last (within 4/3
    units) and each term adds one floor more, so over k terms the sum is
    within 3 k units, plus 2 for the tail after the first power that rounds
    to 0."""
    total, power, k, x2 = 0, (1 << w) // x, 0, x * x
    while power:
        total += (-1) ** k * (power // (2 * k + 1))
        power //= x2
        k += 1
    return total


@functools.lru_cache(maxsize=16)
def _pi_series(w):
    """pi by Machin's formula, 16 atan(1/5) - 4 atan(1/239), at scale w,
    within 2 units: the series run at g = w + guard bits, where their error
    (below 12 g + 100 units, from the term counts g / 4.6 and g / 15.8)
    stays under 2**guard > 256 w, and the guard bits are dropped."""
    guard = w.bit_length() + 8
    g = w + guard
    return (16 * _atan_series(5, g) - 4 * _atan_series(239, g)) >> guard


def _pi_fixed(w):
    """pi at scale w, within 2 units, from the table at the next multiple of
    64 bits (one floor more)."""
    top = -(-w // 64) * 64
    return _pi_series(top) >> (top - w)


@functools.lru_cache(maxsize=16)
def pi(prec):
    """pi rounded to prec bits."""
    return _widen(lambda w: [(_pi_fixed(w), 2, -w)], prec)[0]


def _reduce(x, w):
    """(r, k, s, dr, w): x = k pi/2 + r with |r| <= pi/4, and r divided by
    2**s at the returned scale (w plus the bits of k, s and 8), within dr
    units; pi/2 is pi at one bit less."""
    m, e = x
    s = math.isqrt(w) // 2 + 1
    w += max(0, m.bit_length() + e + 1) + s + 8
    period = _pi_fixed(w - 1)
    x = _fixed(x, w)
    k = (2 * x + period) // (2 * period)
    # x within 1 unit, each period within 2, then s bits dropped
    return (x - k * period) >> s, k, s, ((1 + 2 * abs(k)) >> s) + 2, w


def _cos_sin_fixed(x, w):
    """(c, s, err, w): cos x and sin x at scale w, each within err:
    x = k pi/2 + r, and e^(i r) = (e^(i r / 2**s))**(2**s) by `_exp_scalar`,
    turned by k quarter turns.  The bound is `expm`'s for a 1x1 block: J
    terms within 5 units each and the tail within 3, plus the dr units of
    the reduced argument (|cos'|, |sin'| <= 1); the error of a unit complex
    number at most doubles, plus 1.5 units, per squaring."""
    r, k, s, dr, w = _reduce(x, w)
    c, sn, terms = _exp_scalar(s, w, 0, r)
    c, sn = ((c, sn), (-sn, c), (-c, -sn), (sn, -c))[k % 4]
    return c, sn, (5 * terms + 3 + dr + 2) << (s + 1), w


def cos_sin(x, prec):
    """(cos x, sin x), each rounded to prec bits."""
    if not x[0]:
        return (1, 0), (0, 0)

    def evaluate(w):
        c, s, err, w = _cos_sin_fixed(x, w)
        return [(c, err, -w), (s, err, -w)]
    return tuple(_widen(evaluate, prec))


# --- the matrix exponential ----------------------------------------------

def _fixed_times(a, b, w):
    """a b at scale w, rounded down, for (re, im) pairs of int object arrays
    at scale w (im None for a real matrix)."""
    re, im = _exact_product(a, b)
    return re >> w, None if im is None else im >> w


def _blocks(parts, n):
    """The index sets of the connected components of the nonzero pattern of
    the n x n matrix with the given parts (rows of ints): its diagonal
    blocks, up to a permutation, each in increasing order."""
    blocks = []
    for i in range(n):
        linked = [b for b in blocks if any(p[i][j] or p[j][i] for p in parts for j in b)]
        blocks = [b for b in blocks if b not in linked] + [sorted([i, *sum(linked, [])])]
    return sorted(blocks)


def _exp_scalar(s, w, a, b=0):
    """(re, im, terms): exp(a + ib) for ints a, b at scale w, by the steps
    of `_exp_block` on a 1x1 block, and the number of terms summed."""
    total_re = term_re = 1 << w
    total_im = term_im = 0
    j = 1
    while abs(term_re) > 1 or abs(term_im) > 1:
        term_re, term_im = (((term_re * a - term_im * b) >> w) // j,
                            ((term_re * b + term_im * a) >> w) // j)
        total_re += term_re
        total_im += term_im
        j += 1
    for _ in range(s):
        total_re, total_im = ((total_re * total_re - total_im * total_im) >> w,
                              (2 * total_re * total_im) >> w)
    return total_re, total_im, j - 1


def _exp_block(s, w, *parts):
    """exp of a block given by its parts (rows of ints at scale w; no
    imaginary part for a real block): the Taylor sum until a term has no
    part above 1 unit, then s squarings."""
    re, *im = (np.array(p, dtype=object) for p in parts)
    y = (re, im[0] if im else None)
    term = (np.diag([1 << w] * len(re)).astype(object), None)
    total, j = term, 1
    while max(abs(v) for p in term if p is not None for v in p.ravel().tolist()) > 1:
        term = tuple(None if p is None else p // j for p in _fixed_times(term, y, w))
        total = (total[0] + term[0], term[1] if total[1] is None else total[1] + term[1])
        j += 1
    for _ in range(s):
        total = _fixed_times(total, total, w)
    return [p.tolist() for p in total if p is not None]


def expm(x, prec):
    """exp(x) for a square FixedMatrix x, each entry rounded to prec bits:
    the one matrix exponential of the high-precision lane.

    Each diagonal block of x (a connected component of its nonzero
    pattern; for a twist, an eigenvalue class of H) is exponentiated on its
    own in Python ints, so entries between blocks stay exactly 0.  All
    blocks share s, the bit length of x's largest absolute row sum (parts
    added), so that y = x / 2**s has norm |y| < 1/2, and the scale
    w = prec + 32 + s + bits(n): y is read within one unit (2**-w) per
    part, T_j = floor(floor(T_(j-1) y) / j) is summed from T_0 = I, and the
    sum is squared s times, each square floored.  The bound the code keeps,
    in units and row-sum norms, for an n x n block:
    - one floor per product and one per division, each within one unit per
      part; as |y| / j <= 1/2 damps the error carried from T_(j-1), each
      term is within 5 n units and J terms within 5 J n;
    - the loop stops at the first term with no part above 1 unit; each
      further exact term is below 1/4 of the one before, so the tail is
      within a third of the exact last term, 3 n units;
    - each squaring at most doubles the error relative to e**(2**k |y|) and
      adds one floor per part, so every entry ends within 2**s (5 J + 5) n
      units times e**|x|, that is (5 J + 5) 2**-(prec + 32) e**|x|, before
      its final rounding (J is about 40 at w = 200): accurate, not
      correctly rounded.
    """
    n = x.shape[0]
    parts = [p.tolist() for p in (x.re, x.im) if p is not None]
    norm = max(sum(abs(v) for p in parts for v in p[i]) for i in range(n))
    s = max(0, norm.bit_length() + x.exp + 1)
    w = prec + 32 + s + n.bit_length()
    y = [[[_fixed((v, x.exp - s), w) for v in row] for row in p] for p in parts]
    out = [[[0] * n for _ in range(n)] for _ in parts]
    for block in _blocks(parts, n):
        sub = [[[p[i][j] for j in block] for i in block] for p in y]
        if not any(v for p in sub[1:] for row in p for v in row):
            sub = sub[:1]  # a real block
        if len(block) == 1:
            re, im, _ = _exp_scalar(s, w, *(p[0][0] for p in sub))
            values = [[re]], [[im]]
        else:
            values = _exp_block(s, w, *sub)
        for part, value in zip(out, values):
            for r, i in enumerate(block):
                for c, j in enumerate(block):
                    part[i][j] = value[r][c]
    return FixedMatrix.from_pairs(*[[[_fit(v, -w, prec) for v in row] for row in p]
                                    for p in out])
