"""High-precision verification of the bent surface-group relation.

For homomorphisms with large ad-weights the relation word has condition
number far beyond double precision: the shipped float64 matrices of a bent
representation cannot exhibit a small residual even though the underlying
representation satisfies the relation exactly.  This module recomputes the
seed polygon, the homomorphism images and the bending twists in mpmath and
reports the residual of that representation, together with the entrywise
distance to the shipped matrices.

Only triples that carry their exact form (`Sl2Triple.exact`) are supported:
H is an integer diagonal and E a union of chains with entries unit * sqrt(m)
(`ExactTriple.chains`), so no float entry of H, E or F is read.  Each chain
is an irreducible sl2-module, on which rho(g) is the symmetric power
Sym^k(g) in a rescaled basis: `Sl2Images` forms it and rho(g^-1) in Python
ints from the entries of g and their adjugate, with no matrix exponential,
no n x n inverse and no mp arithmetic.  A twist commutes with H, so it is
exponentiated per H-block (`block_expm`), a 2x2 block in closed form.  A
bending vector X_{0,j} of a trivial piece is projected onto the centralizer
of the triple by averaging along matched chains (`central_part`), so it
commutes with H, E and F exactly.  Every n x n product (not those inside
mp.expm on a block of size 3 or more) runs on one exact integer kernel
(`FixedMatrix`), and the distance to the shipped float64 matrices is taken
from its mantissas.  The 2x2 products of the polygon and its relation use
mp.fdot, which rounds the same way.
"""

import functools
import math
from dataclasses import dataclass
from functools import reduce
from operator import or_

import mpmath as mp
import numpy as np
from mpmath import libmp

from .errors import ParameterError

# extra bits carried by the images and twists, whose entries span many orders
# of magnitude; the relation words are multiplied out at the working precision
GUARD_BITS = 20

MP_FIXED_LINE_DPS = 32  # the digits at which mp_fixed_line rebuilds a bending line


class RoundingModeError(ValueError):
    """The mp context rounds other than to nearest, the one mode the integer
    kernel implements."""


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


class FixedMatrix:
    """An mp matrix held as integer mantissas over one shared binary
    exponent: entry (i, j) is (re[i, j] + 1j im[i, j]) * 2**exp, with im None
    for a real matrix.

    Every n x n matrix product of this module runs here (mp.expm, called on
    blocks of size 3 or more only, keeps its own).  The product is formed
    exactly, in numpy object arrays of Python ints (a complex product as three
    real ones).  Each entry is rounded once in Python ints to the current mp
    precision, to nearest with ties to even, the value
    libmp.from_man_exp(v, exp, prec, 'n') gives (another mp rounding mode
    raises RoundingModeError); the trailing zeros all entries share then move
    into the exponent, as from_mp places them.  mp.fdot also sums exactly and
    rounds once, so the entries agree with mp.matrix.__mul__ bit for bit
    unless fdot drops a term more than 2**(2 prec) below its running sum.
    A product stays in this form, so the next product reads its integers
    instead of converting mp entries again.
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
    def from_mp(cls, m):
        """From an mp.matrix, read through the raw (sign, man, exp, bc) tuples
        of its entries.  Mantissas go through int() so that gmpy mpz work too."""
        flat = [mp.mpmathify(v) for v in m]
        parts = [[v._mpc_[0] if hasattr(v, "_mpc_") else v._mpf_ for v in flat]]
        if any(hasattr(v, "_mpc_") for v in flat):
            parts.append([v._mpc_[1] if hasattr(v, "_mpc_") else libmp.fzero for v in flat])
        if any(not man and exp for part in parts for _, man, exp, _ in part):
            raise ValueError("a FixedMatrix holds finite entries only")
        emin = min((exp for part in parts for _, man, exp, _ in part if man), default=0)
        arrays = [np.array([(-int(man) if sign else int(man)) << (exp - emin) if man else 0
                            for sign, man, exp, _ in part], dtype=object).reshape(m.rows, m.cols)
                  for part in parts]
        return cls(arrays[0], arrays[1] if len(arrays) > 1 else None, emin)

    def __mul__(self, other):
        a, b = self, other
        parts = [a.re @ b.re]
        if a.im is not None and b.im is not None:
            # three real products in place of four (Gauss), exact in integers
            im_im = a.im @ b.im
            parts = [parts[0] - im_im, (a.re + a.im) @ (b.re + b.im) - parts[0] - im_im]
        elif a.im is not None:
            parts.append(a.im @ b.re)
        elif b.im is not None:
            parts.append(a.re @ b.im)
        # fdot's precision, so that workprec() applies here too
        prec, rnd = mp.mp._prec_rounding
        if rnd != libmp.round_nearest:
            raise RoundingModeError(f"the integer kernel rounds to nearest only, "
                                    f"the mp context rounds {rnd!r}")
        rounded = [[_round_nearest(v, prec) for v in part.ravel().tolist()] for part in parts]
        # the trailing zeros every entry shares move into the exponent
        low = reduce(or_, [reduce(or_, part) for part in rounded])
        shift = (low & -low).bit_length() - 1 if low else 0
        arrays = [np.array([v >> shift for v in part], dtype=object).reshape(parts[0].shape)
                  for part in rounded]
        return FixedMatrix(arrays[0], arrays[1] if len(arrays) > 1 else None,
                           a.exp + b.exp + shift if low else 0)

    def to_mp(self):
        def raw(part):
            return [libmp.from_man_exp(int(v), self.exp) for v in part.ravel().tolist()]
        if self.im is None:
            flat = [mp.mp.make_mpf(re) for re in raw(self.re)]
        else:
            flat = [mp.mp.make_mpc(z) for z in zip(raw(self.re), raw(self.im))]
        cols = self.shape[1]
        return mp.matrix([flat[r:r + cols] for r in range(0, len(flat), cols)])


_fixed = FixedMatrix.from_mp


def sl2_inverse(g2):
    """Inverse of a determinant-1 2x2 matrix: its adjugate."""
    return mp.matrix([[g2[1, 1], -g2[0, 1]], [-g2[1, 0], g2[0, 0]]])


def mp_fuchsian(genus):
    """The 4g-gon side pairings of fuchsian_generators, in mpmath.

    Built in real form: the Cayley map takes the disk rotation by phi to
    rot(phi) = [[cos phi/2, sin phi/2], [-sin phi/2, cos phi/2]] and the
    translation by d to diag(e^(d/2), e^(-d/2)), so the pairing
    rot(psi_dst + pi) diag(e^rho, e^-rho) rot(-psi_src) is one real 2x2
    product once the diagonal has scaled the columns of the first rotation.
    Each entry of that product is one mp.fdot: the exact sum of two exact
    products, rounded once, as the integer kernel rounds it.

    Returns (a, b), two tuples of genus matrices, built once per process for
    each genus and mp precision and rounding; callers must not write into
    the matrices.
    """
    return _mp_polygon(genus, *mp.mp._prec_rounding)


@functools.lru_cache(maxsize=8)
def _mp_polygon(genus, prec, rounding):
    # prec and rounding only key the cache: they are those of the context
    # the body computes in
    n = 4 * genus
    scale = mp.exp(mp.acosh(1 / mp.tan(mp.pi / n)))
    inv_scale = 1 / scale

    def psi(j):
        return 2 * mp.pi * (j + mp.mpf(1) / 2) / n

    def glue(src, dst):
        c, s = mp.cos_sin((psi(dst) + mp.pi) / 2)
        left = [[c * scale, s * inv_scale], [-s * scale, c * inv_scale]]
        c, s = mp.cos_sin(-psi(src) / 2)
        return mp.matrix([[mp.fdot(row, col) for col in ((c, -s), (s, c))] for row in left])

    a_list = tuple(glue(4 * k + 2, 4 * k) for k in range(genus))
    b_list = tuple(glue(4 * k + 1, 4 * k + 3) for k in range(genus))
    return a_list, b_list


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


# the power of i that each unit of an exact triple is (`ExactTriple.chains`)
_QUARTER_TURNS = {1: 0, 1j: 1, -1: 2, -1j: 3}


class Sl2Images:
    """The homomorphism SL(2,R) -> SL(n) of an exact triple, in closed form
    along the chains of E (`ExactTriple.chains`).

    A chain a_0, ..., a_k carries the signature m_p = (p+1)(k-p) of the
    irreducible module, so in the basis w_p = U_p sqrt(C(k, p)) x^(k-p) y^p,
    U_p = unit_0 ... unit_(p-1), the triple acts as on Sym^k of the plane:
    rho(g)[a_q, a_p] = Sym^k(g)[q, p] (U_p / U_q) sqrt(C(k, p) / C(k, q)).
    Sym^k(g) is formed exactly in ints, each entry is multiplied by its
    integer constant, and U_p / U_q, a power of i, only picks the part and
    the sign.  The products go into the FixedMatrix over one exponent,
    rounded down so that each keeps at least the working precision plus
    GUARD_BITS.
    """

    def __init__(self, exact):
        # per chain length k + 1, a term (q, p, sign, part, flat positions
        # a_q n + a_p of the chains a) per entry: U_p / U_q = sign * i**part
        self.h, self.n = exact.h, len(exact.h)
        self._terms = {}
        for idx, sig in exact.chains:
            turns = [sum(_QUARTER_TURNS[unit] for _, unit in sig[:p]) for p in range(len(idx))]
            terms = self._terms.setdefault(len(sig), [
                (q, p, (-1) ** ((tp - tq) % 4 // 2), (tp - tq) % 2, [])
                for q, tq in enumerate(turns) for p, tp in enumerate(turns)])
            for q, p, _, _, positions in terms:
                positions.append(idx[q] * self.n + idx[p])

    def pair(self, g2):
        """(rho(g), rho(g^-1)) for a real 2x2 mp matrix g of determinant 1, from
        g's mantissas over one exponent and their adjugate [[d, -b], [-c, a]]."""
        g = FixedMatrix.from_mp(g2)
        (a, b), (c, d) = g.re.tolist()
        return self._image((a, b, c, d), g.exp), self._image((d, -b, -c, a), g.exp)

    def _image(self, abcd, exp):
        prec, entries = mp.mp.prec + GUARD_BITS, []
        for k, terms in self._terms.items():
            root, frac = _chain_constants(k, prec)
            cols = _sym_power(k, *abcd)
            entries += [(sign * cols[p][q] * root[q][p], k * exp - frac, part, positions)
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


def _expm2(x, t):
    """exp(t x) of a 2x2 mp matrix by Cayley-Hamilton: with tau = tr x / 2,
    mu**2 = tau**2 - det x and x - tau I = [[d, x01], [x10, -d]],
    exp(t x) = e^(t tau) (cosh(t mu) I + sinh(t mu)/mu (x - tau I)), where
    sinh(t mu)/mu is t at mu = 0.  A real x with mu**2 < 0 takes
    cos and sin of t |mu| and stays real."""
    d = (x[0][0] - x[1][1]) / 2
    mu2 = d * d + x[0][1] * x[1][0]
    if mu2 == 0:
        c, s = mp.mpf(1), t
    elif isinstance(mu2, mp.mpf) and mu2 < 0:
        nu = mp.sqrt(-mu2)
        c, s = mp.cos(t * nu), mp.sin(t * nu) / nu
    else:
        mu = mp.sqrt(mu2)
        c, s = mp.cosh(t * mu), mp.sinh(t * mu) / mu
    scale = mp.exp(t * (x[0][0] + x[1][1]) / 2)
    c, s = scale * c, scale * s
    return [[c + s * d, s * x[0][1]], [s * x[1][0], c - s * d]]


def block_expm(x, h_int, t):
    """(exp(t x), exp(-t x)) for an x that commutes with the integer diagonal
    H: x is block diagonal over H's eigenvalue classes, so each block is
    exponentiated on its own, a block of size 1 as a scalar, a 2x2 block in
    closed form at t and at -t (`_expm2`), and a larger one with mp.expm and
    mp.inverse."""
    n = len(h_int)
    out, out_inv = mp.matrix(n, n), mp.matrix(n, n)
    classes = {}
    for i, h in enumerate(h_int):
        classes.setdefault(h, []).append(i)
    for idx in classes.values():
        if len(idx) == 1:
            i = idx[0]
            out[i, i] = mp.exp(t * x[i, i])
            out_inv[i, i] = 1 / out[i, i]
            continue
        sub = [[x[i, j] for j in idx] for i in idx]
        if len(idx) == 2:
            blk, blk_inv = _expm2(sub, t), _expm2(sub, -t)
        else:
            blk = mp.expm(t * mp.matrix(sub))
            blk_inv = mp.inverse(blk).tolist()
            blk = blk.tolist()
        for r, i in enumerate(idx):
            for s, j in enumerate(idx):
                out[i, j], out_inv[i, j] = blk[r][s], blk_inv[r][s]
    return out, out_inv


def _mp_conjugator(g2):
    """Closed-form det-1 eigenvector matrix of a hyperbolic 2x2 mp matrix,
    with the same ordering and sign conventions as the float lane."""
    a, b, c, d = g2[0, 0], g2[0, 1], g2[1, 0], g2[1, 1]
    tr = a + d
    disc = mp.sqrt(tr * tr - 4)
    lam = [(tr + disc) / 2, (tr - disc) / 2]  # descending
    cols = []
    for l in lam:
        if abs(b) > mp.mpf(10) ** (-30):
            v = (b, l - a)
        elif abs(c) > mp.mpf(10) ** (-30):
            v = (l - d, c)
        else:
            v = (1, 0) if abs(l - a) < abs(l - d) else (0, 1)
        norm = mp.sqrt(v[0] * v[0] + v[1] * v[1])
        v = (v[0] / norm, v[1] / norm)
        lead = v[0] if abs(v[0]) > mp.mpf(10) ** (-12) else v[1]
        if lead < 0:
            v = (-v[0], -v[1])
        cols.append(v)
    k = mp.matrix([[cols[0][0], cols[1][0]], [cols[0][1], cols[1][1]]])
    det = k[0, 0] * k[1, 1] - k[0, 1] * k[1, 0]
    if det < 0:
        k[0, 1] = -k[0, 1]
        k[1, 1] = -k[1, 1]
        det = -det
    return k / mp.sqrt(det)


def _weight_purify(x_float, h_int_diag):
    """Zero the entries of x that carry a nonzero ad H weight and remove the
    residual trace; exact projection since H is an integer diagonal."""
    x = np.asarray(x_float)
    n = x.shape[0]
    out = mp.matrix(n, n)
    for i in range(n):
        for j in range(n):
            if h_int_diag[i] == h_int_diag[j]:
                z = complex(x[i, j])
                out[i, j] = mp.mpc(z.real, z.imag) if z.imag else mp.mpf(z.real)
    tr = sum(out[i, i] for i in range(n)) / n
    for i in range(n):
        out[i, i] -= tr
    return out


def central_part(x, exact):
    """The orthogonal projection of x onto the commutant of the triple.  By
    Schur the commutant holds the matrices that are equal multiples of the
    identity between chains of equal length (`ExactTriple.chains`, whose
    equal-length chains carry equal coefficients), so each entry x[a_k, b_k]
    of a pair (a, b) of such chains becomes the mean of those entries and
    every other entry 0."""
    n = len(exact.h)
    out = mp.matrix(n, n)
    by_length = {}
    for idx, _ in exact.chains:
        by_length.setdefault(len(idx), []).append(idx)
    for group in by_length.values():
        for a in group:
            for b in group:
                mean = mp.fsum(x[i, j] for i, j in zip(a, b)) / len(a)
                for i, j in zip(a, b):
                    out[i, j] = mean
    return out


def _dyadic(x):
    """A finite float64 array as integer mantissas and exponents:
    x = man * 2**exp entrywise, exactly."""
    frac, exp = np.frexp(x)
    return (frac * 2.0 ** 53).astype(np.int64), exp.astype(np.int64) - 53


def max_entry_distance(m, f):
    """max |m[i, j] - f[i, j]| for a FixedMatrix m and a float64 array f, from
    m's mantissas and the exact dyadic value of each float: the differences
    are exact integers over one exponent, and the largest modulus is rounded
    once, to nearest, to a float."""
    f = np.asarray(f, dtype=complex)
    if not np.isfinite(f).all():
        return math.inf
    parts = [_dyadic(f.real), _dyadic(f.imag)]
    exp = min([m.exp] + [int(e[man != 0].min()) for man, e in parts if man.any()])

    def shipped(man, e):
        return man.astype(object) << np.where(man != 0, e - exp, 0).astype(object)

    diff_re = (m.re << (m.exp - exp)) - shipped(*parts[0])
    diff_im = (0 if m.im is None else m.im << (m.exp - exp)) - shipped(*parts[1])
    top = int((diff_re * diff_re + diff_im * diff_im).max())
    if not top:
        return 0.0
    dist = libmp.mpf_sqrt(libmp.from_man_exp(top, 2 * exp), 53, libmp.round_nearest)
    return libmp.to_float(dist)


@dataclass(frozen=True)
class HighPrecisionReport:
    dps: int
    seed_residual: float
    pushed_residual: float
    bent_residual: float
    max_entry_distance: float


def verify_bent_relation(plan, bent, dps=40):
    """Residuals of the high-precision representation underlying a bent rep.

    Returns the mp residuals of the seed polygon, the undeformed pushed
    representation and the bent representation, plus the maximal entrywise
    distance of the shipped matrices from the verified ones.  The triple
    must carry its exact form; custom triples do not.
    """
    triple = plan.triple
    alg = triple.algebra
    if plan.t is None:
        raise ParameterError("plan has no bending parameter")
    if triple.exact is None:
        raise ParameterError("high-precision verification needs an a-diagonal H with "
                             "integer H-weights and exact E, F: a constructed triple")

    with mp.workdps(dps):
        rho = Sl2Images(triple.exact)
        a_seed, b_seed = mp_fuchsian(plan.genus)

        # 2x2 mp.matrix products: mp.fdot rounds each entry as FixedMatrix would
        prod = mp.eye(2)
        for a, b in zip(a_seed, b_seed):
            prod = prod * a * b * sl2_inverse(a) * sl2_inverse(b)
        seed_resid = float(mp.norm(prod - mp.eye(2)))

        # rho(g)^-1 = rho(g^-1); the pushed and the bent relation words
        n = alg.size
        pushed = bent_prod = FixedMatrix.identity(n)
        bent_mp = []
        for k, (a_2, b_2) in enumerate(zip(a_seed, b_seed), start=1):
            (a, a_inv), (b, b_inv) = rho.pair(a_2), rho.pair(b_2)
            pushed = pushed * a * b * a_inv * b_inv
            twist = _twist(plan, rho, a_2, k)
            if twist is not None:
                b, b_inv = b * twist[0], twist[1] * b_inv
            bent_mp.append((a, b))
            bent_prod = bent_prod * a * b * a_inv * b_inv
        pushed_resid, bent_resid = (float(mp.norm(m.to_mp() - mp.eye(n)))
                                    for m in (pushed, bent_prod))

        dist = max(max_entry_distance(m, m_f)
                   for (a, b), a_f, b_f in zip(bent_mp, bent.a, bent.b)
                   for m, m_f in ((a, a_f), (b, b_f)))
    return HighPrecisionReport(dps, seed_resid, pushed_resid, bent_resid, dist)


def _twist(plan, rho, a_seed, k):
    """(exp(t X), exp(-t X)) for the k-th generator's bending vector X, or
    None when the generator is not bent."""
    ij = plan.generator_assignment.get(k)
    if ij is None:
        return None
    alg, exact = plan.triple.algebra, plan.triple.exact
    h_int = exact.h
    i, j = ij
    with mp.workprec(mp.mp.prec + GUARD_BITS):
        t = mp.mpf(plan.t)
        if i == 0:
            # commutes with the whole image: project the shipped vector onto
            # the centralizer of the triple at the working precision
            x_mp = central_part(_weight_purify(alg.from_coordinates(plan.x_vectors[ij]), h_int),
                                exact)
            return tuple(map(_fixed, block_expm(x_mp, h_int, t)))
        # rebuild the fixed line (it does not depend on the conjugator
        # choice), then match scale and sign to the shipped vector;
        # exp(t rho_k v0 rho_k^-1) = rho_k exp(t v0) rho_k^-1
        v0_mp, rho_k, rho_k_inv, x_f = _fixed_line(
            rho, a_seed, alg.from_coordinates(plan.iso.piece_columns[ij][:, i]))
        x_ship = np.asarray(alg.from_coordinates(plan.x_vectors[ij]), dtype=complex)
        scale = mp.mpf(float(np.real(np.vdot(x_f, x_ship)) / np.real(np.vdot(x_f, x_f))))
        return tuple(rho_k * _fixed(m) * rho_k_inv for m in block_expm(v0_mp, h_int, scale * t))


def _fixed_line(rho, a2, v0):
    """(v0_mp, rho(k), rho(k)^-1, line) at the current mp precision, for k the
    conjugator of the hyperbolic 2x2 mp matrix a2 and v0_mp the purified float
    weight-zero vector v0: line, Ad(rho(k)) v0_mp rounded once to a complex
    array, is the fixed line of Ad(rho(a2)) through v0's piece."""
    v0_mp = _weight_purify(v0, rho.h)
    rho_k, rho_k_inv = rho.pair(_mp_conjugator(a2))
    line = np.array((rho_k * _fixed(v0_mp) * rho_k_inv).to_mp().tolist(), dtype=complex)
    return v0_mp, rho_k, rho_k_inv, line


def mp_fixed_line(exact, a_matrix, v0):
    """The fixed line of `_fixed_line` for a float a, at MP_FIXED_LINE_DPS
    digits, where the float conjugation loses it to Ad(rho(a))'s stretch."""
    with mp.workdps(MP_FIXED_LINE_DPS):
        a2 = mp.matrix(np.asarray(a_matrix, dtype=float).tolist())
        return _fixed_line(Sl2Images(exact), a2, v0)[3]
