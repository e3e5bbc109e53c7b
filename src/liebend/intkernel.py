"""Exact integer arithmetic for the bending lines and twists, with no mpmath.

A `FixedMatrix` holds a matrix as Python-int mantissas over one binary
exponent.  Every operation here is formed exactly in ints and rounded once to
a precision in bits that the caller passes, to nearest with ties to even:
the value libmp gives for the same operation at that precision.  So the
float lane builds its bending lines without importing mpmath (`bending`, at
`bending.FIXED_LINE_BITS`), and the high-precision lane (`highprec`) runs
the same operations at its working precision.  The correctly rounded elementary
functions on the same (mantissa, exponent) pairs, and the Taylor matrix
exponential of a `FixedMatrix`, are in `elementary`, which only the
high-precision lane imports.

The pieces, each built in one place for both lanes:
- `product`, the n x n matrix product, rounded entry by entry;
- `Sl2Images`, the homomorphism SL(2,R) -> SL(n) of an exact triple as
  symmetric powers along the chains of E;
- `conjugator`, the det-1 eigenvector matrix of a hyperbolic 2x2 matrix,
  which diagonalizes the image of a bent generator in both lanes;
- `line_coefficients`, the float lane's line Ad(rho(k)) c_i in a piece's
  lowering basis.
"""

import functools
import math

import numpy as np

from .errors import ParameterError

# extra bits carried by the images, whose entries span many orders of
# magnitude, over the precision the products round to
GUARD_BITS = 20


def _round_nearest(v, prec):
    """The int v rounded to prec significant bits, to nearest with ties to
    even: the value of libmp.from_man_exp(v, 0, prec, 'n')."""
    m = -v if v < 0 else v
    n = m.bit_length() - prec
    if n <= 0:
        return v
    half = 1 << (n - 1)
    low = m & ((half << 1) - 1)
    m -= low
    if low > half or (low == half and m >> n & 1):
        m += half << 1
    return -m if v < 0 else m


def _float_exact(v):
    """A finite float as the (mantissa, exponent) pair of its exact value."""
    frac, e = math.frexp(v)
    return int(frac * 2.0 ** 53), e - 53


# --- scalars: (mantissa, exponent) pairs, each operation rounded once ------

def _fit(m, e, prec):
    """m * 2**e rounded to prec significant bits, as a pair."""
    n = abs(m).bit_length() - prec
    return (m, e) if n <= 0 else (_round_nearest(m, prec) >> n, e + n)


def _neg(x):
    return -x[0], x[1]


def _add(x, y, prec):
    e = min(x[1], y[1])
    return _fit((x[0] << (x[1] - e)) + (y[0] << (y[1] - e)), e, prec)


def _mul(x, y, prec):
    return _fit(x[0] * y[0], x[1] + y[1], prec)


def _div(x, y, prec):
    """x / y, from a quotient of at least prec + 2 bits and a sticky bit for
    the remainder, so one rounding gives the correctly rounded value."""
    if not x[0]:
        return 0, 0
    shift = max(0, prec + 2 + abs(y[0]).bit_length() - abs(x[0]).bit_length())
    q, r = divmod(abs(x[0]) << shift, abs(y[0]))
    q = q << 1 | (r != 0)
    return _fit(-q if (x[0] < 0) != (y[0] < 0) else q, x[1] - y[1] - shift - 1, prec)


def _sqrt(x, prec):
    """sqrt(x) for x >= 0, from math.isqrt on at least 2 prec + 4 bits and a
    sticky bit for the remainder."""
    m, e = x
    if not m:
        return 0, 0
    shift = max(0, 2 * prec + 4 - m.bit_length())
    shift += (e - shift) & 1  # an even exponent halves exactly
    r = math.isqrt(m << shift)
    return _fit(r << 1 | (r * r != m << shift), (e - shift) // 2 - 1, prec)


def _to_float(m, e):
    """m * 2**e rounded once to a float64, to nearest, as libmp.to_float."""
    m, e = _fit(m, e, 53)
    return math.ldexp(m, e)


# --- matrices --------------------------------------------------------------

class FixedMatrix:
    """A matrix held as integer mantissas over one shared binary exponent:
    entry (i, j) is (re[i, j] + 1j im[i, j]) * 2**exp, with im None for a
    real matrix.

    A product (`product`) is formed exactly, in numpy object arrays of
    Python ints (a complex product as three real ones).  Each entry is
    rounded once in Python ints to the given precision, to nearest with ties
    to even; the trailing zeros all entries share then move into the
    exponent.  mpmath's fdot also sums exactly and rounds once, so the
    entries agree with mp.matrix.__mul__ at that precision bit for bit
    unless fdot drops a term more than 2**(2 prec) below its running sum.  A
    product stays in this form, so the next product reads its integers.
    """

    __slots__ = ("re", "im", "exp")

    def __init__(self, re, im, exp):
        self.re, self.im, self.exp = re, im, exp

    @property
    def shape(self):
        return self.re.shape

    @classmethod
    def identity(cls, n):
        return cls(np.eye(n, dtype=int).astype(object), None, 0)

    @classmethod
    def from_float(cls, x):
        """A finite float64 or complex128 array, exactly; a zero imaginary
        part is dropped."""
        x = np.asarray(x)
        if not np.isfinite(x).all():
            raise ValueError("a FixedMatrix holds finite entries only")
        return cls.from_pairs(*[[list(map(_float_exact, row)) for row in p.tolist()]
                                for p in ((x.real, x.imag) if np.iscomplexobj(x) else (x,))])

    @classmethod
    def from_pairs(cls, re, im=None):
        """From rows of (mantissa, exponent) pairs, one list for each part,
        over the lowest exponent that any nonzero entry carries."""
        parts = [p for p in (re, im) if p is not None]
        exp = min((e for p in parts for row in p for m, e in row if m), default=0)
        re, *im = [np.array([[m << (e - exp) if m else 0 for m, e in row] for row in p],
                            dtype=object) for p in parts]
        return cls(re, im[0] if im and im[0].any() else None, exp)

    def adjugate(self):
        """[[d, -b], [-c, a]] of a real 2x2 matrix, exactly: the inverse of a
        determinant-1 matrix."""
        (a, b), (c, d) = self.re.tolist()
        return FixedMatrix(np.array([[d, -b], [-c, a]], dtype=object), None, self.exp)


def product(prec, *factors):
    """The product of the FixedMatrix factors, left to right, each product
    rounded entry by entry to prec bits."""
    return functools.reduce(lambda a, b: _times(a, b, prec), factors)


def _exact_product(a, b):
    """The exact product of two (re, im) pairs of int object arrays, im None
    for a real matrix, as such a pair: a complex product as three real ones
    in place of four (Gauss)."""
    (a_re, a_im), (b_re, b_im) = a, b
    re = a_re @ b_re
    if a_im is not None and b_im is not None:
        im_im = a_im @ b_im
        return re - im_im, (a_re + a_im) @ (b_re + b_im) - re - im_im
    if a_im is not None:
        return re, a_im @ b_re
    return re, None if b_im is None else a_re @ b_im


def _times(a, b, prec):
    parts = [p for p in _exact_product((a.re, a.im), (b.re, b.im)) if p is not None]
    rounded = [[_round_nearest(v, prec) for v in part.ravel().tolist()] for part in parts]
    # the trailing zeros every entry shares move into the exponent
    low = 0
    for part in rounded:
        for v in part:
            low |= v
    shift = (low & -low).bit_length() - 1 if low else 0
    arrays = [np.array([v >> shift for v in part], dtype=object).reshape(parts[0].shape)
              for part in rounded]
    return FixedMatrix(arrays[0], arrays[1] if len(arrays) > 1 else None,
                       a.exp + b.exp + shift if low else 0)


# --- the closed-form images ------------------------------------------------

@functools.lru_cache(maxsize=32)
def _chain_constants(k, bits):
    """(root, frac): root[q][p] = sqrt(C(k, p) / C(k, q)) * 2**frac rounded
    down, in ints, and frac = bits + the length of C(k, k // 2), so that each
    constant is good to bits significant bits."""
    binom = [math.comb(k, p) for p in range(k + 1)]
    frac = bits + binom[k // 2].bit_length()
    return tuple(tuple(math.isqrt((bp << 2 * frac) // bq) for bp in binom) for bq in binom), frac


def _sym_power(k, a, b, c, d):
    """The columns of Sym^k [[a, b], [c, d]] in ints: column p holds the
    coefficients of (a x + c y)^(k-p) (b x + d y)^p, the image of
    x^(k-p) y^p under (x, y) -> (x, y) g, row q that of x^(k-q) y^q."""
    left, right = [[1]], [[1]]  # the coefficients of (a x + c y)^j and (b x + d y)^j
    for _ in range(k):
        left.append([a * s + c * t for s, t in zip(left[-1] + [0], [0] + left[-1])])
        right.append([b * s + d * t for s, t in zip(right[-1] + [0], [0] + right[-1])])
    cols = [[0] * (k + 1) for _ in range(k + 1)]
    for p, col in enumerate(cols):
        for i, s in enumerate(left[k - p]):
            for j, t in enumerate(right[p]):
                col[i + j] += s * t
    return cols


def line_coefficients(k, i):
    """The coordinates of Ad(rho(k)) c_i in the lowering basis
    c_q = (ad F)^q c_0 (q = 0..2i) of a piece isomorphic to Sym^2i of the
    plane, for a real 2x2 FixedMatrix k.  With c_q = F^q x^2i =
    (2i)!/(2i-q)! x^(2i-q) y^q, coefficient q is
    Sym^2i(k)[q, i] (2i-q)! / i!: exact in ints over 2**(2i k.exp), and
    rounded once to a float64."""
    (a, b), (c, d) = k.re.tolist()
    col, scale = _sym_power(2 * i, a, b, c, d)[i], (math.factorial(i), 0)
    return np.array([_to_float(*_div((v * math.factorial(2 * i - q), 2 * i * k.exp), scale, 53))
                     for q, v in enumerate(col)])


# the power of i that each unit of an exact triple is (`ExactTriple.chains`)
_QUARTER_TURNS = {1: 0, 1j: 1, -1: 2, -1j: 3}


class Sl2Images:
    """The homomorphism SL(2,R) -> SL(n) of an exact triple, in closed form
    along the chains of E (`ExactTriple.chains`).

    A chain a_0, ..., a_k with units unit_0, ..., unit_(k-1) is the
    irreducible module, E[a_p, a_(p+1)] = unit_p sqrt((p+1)(k-p)), so in the
    basis w_p = U_p sqrt(C(k, p)) x^(k-p) y^p,
    U_p = unit_0 ... unit_(p-1), the triple acts as on Sym^k of the plane:
    rho(g)[a_q, a_p] = Sym^k(g)[q, p] (U_p / U_q) sqrt(C(k, p) / C(k, q)).
    Sym^k(g) is formed exactly in ints, each entry is multiplied by its
    integer constant, and U_p / U_q, a power of i, only picks the part and
    the sign.  The products go into the FixedMatrix over one exponent,
    rounded down so that each keeps at least the precision plus GUARD_BITS.
    """

    def __init__(self, exact):
        # per chain length k + 1, a term (q, p, sign, part, flat positions
        # a_q n + a_p of the chains a) per entry: U_p / U_q = sign * i**part
        self.h, self.n = exact.h, len(exact.h)
        self._terms = {}
        for idx, units in exact.chains:
            turns = [sum(_QUARTER_TURNS[unit] for unit in units[:p]) for p in range(len(idx))]
            terms = self._terms.setdefault(len(units), [
                (q, p, (-1) ** ((tp - tq) % 4 // 2), (tp - tq) % 2, [])
                for q, tq in enumerate(turns) for p, tp in enumerate(turns)])
            for q, p, _, _, positions in terms:
                positions.append(idx[q] * self.n + idx[p])

    def pair(self, g, prec):
        """(rho(g), rho(g^-1)) for a real 2x2 FixedMatrix g of determinant 1,
        the second from g's adjugate."""
        return self._image(g, prec), self._image(g.adjugate(), prec)

    def _image(self, g, prec):
        prec, entries = prec + GUARD_BITS, []
        (a, b), (c, d) = g.re.tolist()
        for k, terms in self._terms.items():
            root, frac = _chain_constants(k, prec)
            cols = _sym_power(k, a, b, c, d)
            entries += [(sign * cols[p][q] * root[q][p], k * g.exp - frac, part, positions)
                        for q, p, sign, part, positions in terms if cols[p][q]]
        # the lowest exponent at which every entry keeps prec bits
        emin = min(e + v.bit_length() - prec for v, e, _, _ in entries)
        parts = [[0] * self.n ** 2, [0] * self.n ** 2]
        for v, e, part, positions in entries:
            v = v >> (emin - e) if e < emin else v << (e - emin)
            for pos in positions:
                parts[part][pos] = v
        re, im = (np.array(part, dtype=object).reshape(self.n, self.n) for part in parts)
        return FixedMatrix(re, im if any(parts[1]) else None, emin)


# --- the bending line ------------------------------------------------------

def _size(x):
    return abs(_to_float(*x))


def conjugator(g, prec):
    """k in SL(2,R) with k^-1 g k diagonal, for a hyperbolic real 2x2
    FixedMatrix g: the eigenvectors of the larger and then the smaller
    eigenvalue as columns, each of unit length with its first entry above
    1e-12 in size positive, the second column negated if det k < 0, and k
    scaled to det 1.  Each step (sum, product, quotient, isqrt) is one exact
    integer operation rounded to prec bits.  This is the package's only
    conjugator: the float lane reads its bending lines off it at
    `bending.FIXED_LINE_BITS` (`line_coefficients`), the mp lane holds it
    at its working precision.  An element that is not hyperbolic raises
    ParameterError."""
    (a, b), (c, d) = [[(v, g.exp) for v in row] for row in g.re.tolist()]
    tr = _add(a, d, prec)
    disc2 = _add(_mul(tr, tr, prec), (-4, 0), prec)
    if disc2[0] <= 0:
        raise ParameterError("the conjugator needs a hyperbolic element")
    disc = _sqrt(disc2, prec)
    cols = []
    for lam in (_add(tr, disc, prec), _add(tr, _neg(disc), prec)):  # descending
        lam = lam[0], lam[1] - 1  # halved exactly
        if _size(b) > 1e-30:
            v = [b, _add(lam, _neg(a), prec)]
        elif _size(c) > 1e-30:
            v = [_add(lam, _neg(d), prec), c]
        else:
            v = ([(1, 0), (0, 0)] if _size(_add(lam, _neg(a), prec)) < _size(_add(lam, _neg(d), prec))
                 else [(0, 0), (1, 0)])
        norm = _sqrt(_add(_mul(v[0], v[0], prec), _mul(v[1], v[1], prec), prec), prec)
        v = [_div(x, norm, prec) for x in v]
        lead = v[0] if _size(v[0]) > 1e-12 else v[1]
        cols.append([_neg(x) for x in v] if lead[0] < 0 else v)
    (k00, k10), (k01, k11) = cols
    det = _add(_mul(k00, k11, prec), _neg(_mul(k01, k10, prec)), prec)
    if det[0] < 0:
        k01, k11, det = _neg(k01), _neg(k11), _neg(det)
    root = _sqrt(det, prec)
    return FixedMatrix.from_pairs([[_div(x, root, prec) for x in row]
                                   for row in ((k00, k01), (k10, k11))])
