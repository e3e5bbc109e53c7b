"""Correctly rounded elementary functions for the integer kernel.

The functions take and return the (mantissa, exponent) pairs of
`intkernel`, m * 2**e with Python-int m, and round to nearest, ties to
even, at the precision in bits the caller passes: pi (Machin's formula,
cached per precision), exp, acosh (on the logarithm `_log_fixed`), cos_sin
and tan on reals, and cexp, ccosh, csinh and csqrt on complex numbers given
as (re, im) pairs of pairs, each part rounded on its own.  `expm` is the
matrix exponential of a `FixedMatrix` by Taylor with scaling and squaring,
accurate to the precision but not correctly rounded.

The high-precision lane (`highprec`) builds the seed polygon and the
bending twists on them with no mpmath.  They live beside `intkernel` and
not in it: the float lane imports the kernel for its bending line, and
compiling this source there too would raise its peak memory.
"""

import functools
import math

import numpy as np

from .intkernel import FixedMatrix, _fit, _neg, _sqrt


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
# the reduced argument, a Taylor tail bound (the first term that rounds to 0,
# times 2 for a ratio of terms below 1/2) and the growth by squaring.
# `_widen` rounds both ends of [v - err, v + err] to prec bits, to nearest;
# rounding is monotone, so when both ends round alike every point between
# does, and that is the correctly rounded value.  Otherwise w grows by half
# and the evaluation runs again (Ziv's loop).  The loop ends because every
# value it is asked for is transcendental for a nonzero dyadic argument
# (Lindemann-Weierstrass), so it lies on no rounding boundary; the exact
# values at 0 (and acosh 1) are returned before the loop.

def _widen(evaluate, prec):
    """The values that evaluate(w) brackets as a list of (v, err, exp) (or
    None, undecided), each rounded to prec bits once both ends of every
    bracket round alike."""
    w = prec + 24
    while True:
        out = []
        for bracket in evaluate(w):
            if bracket is None:
                break
            v, err, exp = bracket
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


def _arc_series(x, w, sign):
    """sum_k sign**k / ((2k+1) x**(2k+1)) at scale w for an int x >= 2:
    atanh(1/x) for sign 1, atan(1/x) for sign -1.  Each power of 1/x is
    rounded down from the last (within 4/3 units) and each term adds one
    floor more, so over k terms the sum is within 3 k units, plus 2 for the
    tail after the first power that rounds to 0."""
    total, power, k, x2 = 0, (1 << w) // x, 0, x * x
    while power:
        total += sign ** k * (power // (2 * k + 1))
        power //= x2
        k += 1
    return total


@functools.lru_cache(maxsize=16)
def _constant(name, w):
    """pi (Machin: 16 atan(1/5) - 4 atan(1/239)) or ln 2 (2 atanh(1/3)) at
    scale w, within 2 units: the series run at g = w + guard bits, where
    their error (below 12 g + 100 units, from the term counts g / 4.6 and
    g / 15.8 for pi) stays under 2**guard > 256 w, and the guard bits are
    dropped."""
    guard = w.bit_length() + 8
    g = w + guard
    if name == "pi":
        v = 16 * _arc_series(5, g, -1) - 4 * _arc_series(239, g, -1)
    else:
        v = 2 * _arc_series(3, g, 1)
    return v >> guard


def _constant_fixed(name, w):
    """pi or ln 2 at scale w, within 2 units, from the table at the next
    multiple of 64 bits (one floor more)."""
    top = -(-w // 64) * 64
    return _constant(name, top) >> (top - w)


@functools.lru_cache(maxsize=16)
def pi(prec):
    """pi rounded to prec bits."""
    return _widen(lambda w: [(_constant_fixed("pi", w), 2, -w)], prec)[0]


def _reduce(x, w, period):
    """(r, k, s, dr, w): x = k * period + r with |r| <= period / 2, and r
    divided by 2**s at the returned scale (w plus the bits of k, s and 8),
    within dr units.  period is the constant "ln2", or "pi" for pi / 2 (pi
    at one bit less)."""
    m, e = x
    s = math.isqrt(w) // 2 + 1
    w += max(0, m.bit_length() + e + 1) + s + 8
    period = _constant_fixed(period, w - 1 if period == "pi" else w)
    x = _fixed(x, w)
    k = (2 * x + period) // (2 * period)
    # x within 1 unit, each period within 2, then s bits dropped
    return (x - k * period) >> s, k, s, ((1 + 2 * abs(k)) >> s) + 2, w


def _taylor(r, w):
    """(terms, err): the terms r**j / j! at scale w (j >= 1) for |r| <
    2**(w-1), until one rounds to 0.  Each magnitude comes from the last by
    one floor, so every term is within 2 units and the tail past the last
    one within 4."""
    terms, term, j = [], 1 << w, 1
    while term:
        term = term * abs(r) // (j << w)
        terms.append(-term if r < 0 and j & 1 else term)
        j += 1
    return terms, 2 * j + 4


def _exp_fixed(x, w):
    """exp(x) as (v, err, exp): x = k ln 2 + r, exp(r / 2**s) by Taylor,
    squared s times (relative error at most doubles, plus one unit, per
    squaring, on values in [0.7, 1.42]), times 2**k."""
    r, k, s, dr, w = _reduce(x, w, "ln2")
    terms, err = _taylor(r, w)
    v = (1 << w) + sum(terms)
    err += 2 * dr  # exp' < 1.5 on the reduced interval
    for _ in range(s):
        v = v * v >> w
    return v, (err + 1) << (s + 2), k - w


def _cos_sin_fixed(x, w):
    """(c, s, err, w): cos x and sin x at scale w, each within err:
    x = k pi/2 + r, e^(i r / 2**s) by Taylor, squared s times (the error of
    a unit complex number at most doubles, plus 1.5 units, per squaring),
    turned by k quarter turns."""
    r, k, s, dr, w = _reduce(x, w, "pi")
    terms, err = _taylor(r, w)
    c, sn = 1 << w, 0
    for j, term in enumerate(terms, start=1):  # i**j: sin +, cos -, sin -, cos +
        term = -term if j & 2 else term
        if j & 1:
            sn += term
        else:
            c += term
    err += dr  # |cos'|, |sin'| <= 1
    for _ in range(s):
        c, sn = (c * c - sn * sn) >> w, (c * sn) >> (w - 1)
    c, sn = ((c, sn), (-sn, c), (-c, -sn), (sn, -c))[k % 4]
    return c, sn, (err + 2) << (s + 1), w


def _log_fixed(x, w):
    """log x for x > 0 as (v, err, exp): x = 2**k y with y in [2/3, 4/3),
    log y = 2 atanh(z), z = (y - 1) / (y + 1), |z| <= 1/5, by its series;
    y is within 2 units and z within 2.5, which log y carries at most 2.1
    times; each term of the series is within 2.25 units and its tail 1.4;
    k ln 2 is within 2 |k|."""
    m, e = x
    w += 8
    k = m.bit_length() + e
    one = 1 << w
    y = _fixed((m, -m.bit_length()), w)  # y = x / 2**k in [1/2, 1)
    if 3 * y < 2 * one:
        y, k = y << 1, k - 1
    z = ((y - one) << w) // (y + one)
    z2 = z * z >> w
    total, power, j = 0, abs(z), 1  # atanh is odd: the series of |z|
    while power:
        total += power // j
        power = power * z2 >> w
        j += 2
    total = -total if z < 0 else total
    return 2 * total + k * _constant_fixed("ln2", w), 3 * j + 16 + 2 * abs(k), -w


def exp(x, prec):
    """e**x rounded to prec bits."""
    if not x[0]:
        return 1, 0
    return _widen(lambda w: [_exp_fixed(x, w)], prec)[0]


def acosh(x, prec):
    """acosh x = log(x + sqrt(x**2 - 1)) for x >= 1, rounded to prec bits
    once: the sum is formed at scale w within one unit (x exact, isqrt
    rounded down), which moves its log by at most one unit at that scale."""
    m, e = x
    if _normal(m, e) == (1, 0):
        return 0, 0
    if m <= 0 or m.bit_length() + e <= 0:
        raise ValueError("acosh needs an argument >= 1")

    def evaluate(w):
        w = max(w, -e)
        xw = m << (e + w)
        v, err, exp_ = _log_fixed((xw + math.isqrt(xw * xw - (1 << 2 * w)), -w), w)
        return [(v, err + (1 << (-exp_ - w)), exp_)]
    return _widen(evaluate, prec)[0]


def cos_sin(x, prec):
    """(cos x, sin x), each rounded to prec bits."""
    if not x[0]:
        return (1, 0), (0, 0)

    def evaluate(w):
        c, s, err, w = _cos_sin_fixed(x, w)
        return [(c, err, -w), (s, err, -w)]
    return tuple(_widen(evaluate, prec))


def tan(x, prec):
    """tan x rounded to prec bits: the quotient s / c is monotone in s and
    in c on the box of their brackets while c keeps its sign, so its floor
    at the four corners brackets it."""
    if not x[0]:
        return 0, 0

    def evaluate(w):
        c, s, err, w = _cos_sin_fixed(x, w)
        if abs(c) <= err:
            return [None]
        q = [((s + ds) << w) // (c + dc) for ds in (-err, err) for dc in (-err, err)]
        lo, hi = min(q), max(q) + 1
        return [((lo + hi) // 2, (hi - lo) // 2 + 1, -w)]
    return _widen(evaluate, prec)[0]


def _cosh_sinh_fixed(x, w):
    """(cosh x, sinh x, err, exp) from e**x and e**-x over one exponent;
    w carries the bits that sinh loses to cancellation for |x| < 1."""
    w += max(0, -(x[0].bit_length() + x[1]))
    (p, err_p, exp_p), (q, err_q, exp_q) = _exp_fixed(x, w), _exp_fixed(_neg(x), w)
    low = min(exp_p, exp_q)
    p, err_p, q, err_q = (p << (exp_p - low), err_p << (exp_p - low),
                          q << (exp_q - low), err_q << (exp_q - low))
    return p + q, p - q, err_p + err_q, low - 1


def _times_fixed(a, b):
    """The product of two brackets (v, err, exp)."""
    (u, err_u, exp_u), (v, err_v, exp_v) = a, b
    return u * v, abs(u) * err_v + abs(v) * err_u + err_u * err_v, exp_u + exp_v


def _complex_parts(z, prec, radial, picks):
    """The two parts of a function of z = (a, b), a != 0 != b, each a
    product of two of the brackets f, g (radial(a, w): two functions of a
    with their error and exponent), c = cos b and s = sin b, as picks
    names them, rounded to prec bits."""
    a, b = z

    def evaluate(w):
        f, g, err, exp_ = radial(a, w)
        c, s, err_cs, w = _cos_sin_fixed(b, w)
        brackets = {"f": (f, err, exp_), "g": (g, err, exp_), "c": (c, err_cs, -w),
                    "s": (s, err_cs, -w)}
        return [_times_fixed(brackets[u], brackets[v]) for u, v in picks]
    return tuple(_widen(evaluate, prec))


def _exp_twice(a, w):
    v, err, exp_ = _exp_fixed(a, w)
    return v, v, err, exp_


def cexp(z, prec):
    """e**z for z = (a, b), a + ib, as (e**a cos b, e**a sin b), each part
    rounded to prec bits."""
    a, b = z
    if not b[0]:
        return exp(a, prec), (0, 0)
    if not a[0]:
        return cos_sin(b, prec)
    return _complex_parts(z, prec, _exp_twice, ("fc", "fs"))


def _hyperbolic(a, prec, part):
    """cosh a (part 0) or sinh a (part 1) rounded to prec bits."""
    def evaluate(w):
        *values, err, exp_ = _cosh_sinh_fixed(a, w)
        return [(values[part], err, exp_)]
    return _widen(evaluate, prec)[0]


def ccosh(z, prec):
    """cosh z = cosh a cos b + i sinh a sin b for z = (a, b), each part
    rounded to prec bits; a real argument (b = 0) gives (cosh a, 0)."""
    a, b = z
    if not a[0]:
        return cos_sin(b, prec)[0], (0, 0)
    if not b[0]:
        return _hyperbolic(a, prec, 0), (0, 0)
    return _complex_parts(z, prec, _cosh_sinh_fixed, ("fc", "gs"))


def csinh(z, prec):
    """sinh z = sinh a cos b + i cosh a sin b for z = (a, b), each part
    rounded to prec bits; a real argument (b = 0) gives (sinh a, 0)."""
    a, b = z
    if not a[0]:
        return (0, 0), cos_sin(b, prec)[1]
    if not b[0]:
        return _hyperbolic(a, prec, 1), (0, 0)
    return _complex_parts(z, prec, _cosh_sinh_fixed, ("gc", "fs"))


def csqrt(z, prec):
    """The principal square root of z = (a, b), a + ib, each part rounded to
    prec bits: re = sqrt((|z| + a) / 2) and im = sign(b) sqrt((|z| - a) / 2),
    formed exactly in integers.  Over one even exponent 2h, |z| = sqrt(N)
    2**h with N = A**2 + B**2, and floor(2**q sqrt((sqrt(N) +- A) / 2)) is
    isqrt(isqrt(N << 2j) +- (A << j)) with j = 2q - 1, exact when both
    square roots are; the sticky bit of either remainder then rounds once."""
    (a, ea), (b, eb) = z
    if not b:
        root = _normal(*_sqrt((abs(a), ea), prec))
        return (root, (0, 0)) if a >= 0 else ((0, 0), root)
    e = min(ea, eb) if a else eb
    big_a, big_b = a << (ea - e) if a else 0, b << (eb - e)
    if e & 1:
        big_a, big_b, e = big_a << 1, big_b << 1, e - 1
    n = big_a * big_a + big_b * big_b
    parts = []
    for sign in (1, -1):
        q = max(1, prec + 4 - n.bit_length() // 4)
        while True:
            j = 2 * q - 1
            root_n = math.isqrt(n << 2 * j)
            y = root_n + sign * (big_a << j)
            r = math.isqrt(y)
            if r.bit_length() >= prec + 2:
                break
            q += prec + 3 - r.bit_length()
        sticky = root_n * root_n != n << 2 * j or r * r != y
        parts.append(_normal(*_fit(r << 1 | sticky, e // 2 - q - 1, prec)))
    return parts[0], parts[1] if b > 0 else _neg(parts[1])


# --- the matrix exponential ----------------------------------------------

def _fixed_times(a, b, w):
    """a b at scale w, rounded down, for (re, im) pairs of int object arrays
    at scale w (im None for a real matrix)."""
    (a_re, a_im), (b_re, b_im) = a, b
    re, im = a_re @ b_re, None
    if a_im is not None and b_im is not None:
        re, im = re - a_im @ b_im, a_re @ b_im + a_im @ b_re
    elif a_im is not None or b_im is not None:
        im = a_im @ b_re if a_im is not None else a_re @ b_im
    return re >> w, None if im is None else im >> w


def expm(x, prec):
    """exp(x) for a square FixedMatrix x, each entry rounded to prec bits:
    the Taylor sum of x / 2**s in fixed point, s the bits of x's largest
    absolute row sum so that x / 2**s has norm below 1/2, then squared s
    times.  The scale carries s + 32 guard bits over prec, so every entry is
    good to prec bits of the largest one; it is not correctly rounded."""
    n = x.shape[0]
    parts = [p for p in (x.re, x.im) if p is not None]
    norm = max(sum(abs(v) for p in parts for v in p[i].tolist()) for i in range(n))
    s = max(0, norm.bit_length() + x.exp + 1)
    w = prec + 32 + s + n.bit_length()
    y = [None if p is None else
         np.array([[_fixed((v, x.exp - s), w) for v in row] for row in p.tolist()], dtype=object)
         for p in (x.re, x.im)]
    term = (np.diag([1 << w] * n).astype(object), None)
    total, j = term, 1
    while max((abs(v) for p in term if p is not None for v in p.ravel().tolist())) > 1:
        term = tuple(None if p is None else p // j for p in _fixed_times(term, y, w))
        total = (total[0] + term[0],
                 term[1] if total[1] is None else total[1] + term[1])
        j += 1
    for _ in range(s):
        total = _fixed_times(total, total, w)
    return FixedMatrix.from_pairs(*[None if p is None else
                                    [[_fit(v, -w, prec) for v in row] for row in p.tolist()]
                                    for p in total])
