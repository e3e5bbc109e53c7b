"""High-precision verification of the bent surface-group relation.

For homomorphisms with large ad-weights the relation word has condition
number far beyond double precision: the shipped float64 matrices of a bent
representation cannot exhibit a small residual even though the underlying
representation satisfies the relation exactly.  This module recomputes the
seed polygon, the homomorphism images and the bending twists at a working
precision of prec bits, dps decimal digits mapped to bits as mpmath maps
them (`dps_to_bits`, dps 40 is 136 bits), and reports the residual of that
representation, together with the entrywise distance to the shipped
matrices.

Everything runs on the integer kernel (`intkernel`), which the float lane
shares, with no mpmath: every value is a (mantissa, exponent) pair or a
`FixedMatrix`, and every step is rounded once, to nearest, in the order the
mpmath implementation this lane replaced rounded it.
- The seed polygon (`mp_fuchsian`): pi / n, tan, 1 / tan, acosh, exp and
  1 / scale, then per side psi_j and cos_sin, each correctly rounded
  (`elementary.pi`, `tan`, `acosh`, `exp`, `cos_sin`), the four scaled
  entries, and each entry of a side pairing as the exact sum of two exact
  products rounded once (mp.fdot).  Its relation word is multiplied out on
  the kernel (`intkernel.product`, as mp.matrix products round).
- The images rho(g) and rho(g^-1) come from the triple's exact form
  (`Sl2Images`: H an integer diagonal and E a union of chains with entries
  unit * sqrt(m)), so no float entry of H, E or F is read; so do the
  conjugator of a bent generator, its fixed line and the weight-zero and
  central projections of the bending vectors.
- The twists (`block_expm`): a twist commutes with H, so it is exponentiated
  per H-block, a block of size 1 as a scalar, a 2x2 block in closed form at
  t and at -t (`_expm2`, on the correctly rounded complex exp, cosh, sinh
  and sqrt, with complex products and quotients rounded where libmpc rounds
  them), and a larger one by Taylor with scaling and squaring
  (`elementary.expm`), its inverse as exp(-tX).
The residuals |W - I| and the distance to the shipped float64 matrices are
read from the kernel's mantissas.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .elementary import (_normal, acosh, ccosh, cexp, cos_sin, csinh, csqrt, exp, expm,
                         pi, tan)
from .errors import ParameterError
from .intkernel import (GUARD_BITS, FixedMatrix, Sl2Images, _add, _div, _fit, _mul, _neg,
                        _round_nearest, _sqrt, _to_float, central_part, fixed_line, product,
                        weight_zero_part)

_ONE = (1, 0)


def dps_to_bits(dps):
    """The working precision in bits for dps decimal digits, by mpmath's
    rule (libmp.dps_to_prec)."""
    return max(1, int(round((int(dps) + 1) * 3.3219280948873626)))


def _exact_mul(x, y):
    return x[0] * y[0], x[1] + y[1]


def _exact_sum(*terms):
    e = min(t[1] for t in terms)
    return sum(m << (te - e) for m, te in terms), e


def _dot(row, col, prec):
    """sum_k row[k] col[k] for pairs, formed exactly and rounded once, as
    mp.fdot rounds it."""
    return _fit(*_exact_sum(*[_exact_mul(a, b) for a, b in zip(row, col)]), prec)


def _adjugate(g):
    """[[d, -b], [-c, a]] of a 2x2 FixedMatrix, exactly: the inverse of a
    determinant-1 matrix."""
    (a, b), (c, d) = g.re.tolist()
    return FixedMatrix(np.array([[d, -b], [-c, a]], dtype=object), None, g.exp)


@functools.lru_cache(maxsize=8)
def mp_fuchsian(genus, prec):
    """The 4g-gon side pairings of fuchsian_generators at prec bits.

    Built in real form: the Cayley map takes the disk rotation by phi to
    rot(phi) = [[cos phi/2, sin phi/2], [-sin phi/2, cos phi/2]] and the
    translation by d to diag(e^(d/2), e^(-d/2)), so the pairing
    rot(psi_dst + pi) diag(e^rho, e^-rho) rot(-psi_src) is one real 2x2
    product once the diagonal has scaled the columns of the first rotation.
    Each entry of that product is the exact sum of two exact products,
    rounded once.

    Returns (pairs, residual): the pairs (a_k, b_k) as FixedMatrix, and the
    norm of their relation word less I, multiplied out on the kernel.  They
    are built once per process for each genus and precision; callers must
    not write into the matrices.
    """
    n = 4 * genus
    pi_ = pi(prec)
    scale = exp(acosh(_div(_ONE, tan(_div(pi_, (n, 0), prec), prec), prec), prec), prec)
    inv_scale = _div(_ONE, scale, prec)

    def psi(j):  # 2 pi (j + 1/2) / n: 2 pi exact, its product and quotient rounded
        return _div(_mul((pi_[0], pi_[1] + 1), (2 * j + 1, -1), prec), (n, 0), prec)

    def half(x):
        return x[0], x[1] - 1

    def glue(src, dst):
        c, s = cos_sin(half(_add(psi(dst), pi_, prec)), prec)
        left = [[_mul(c, scale, prec), _mul(s, inv_scale, prec)],
                [_neg(_mul(s, scale, prec)), _mul(c, inv_scale, prec)]]
        c, s = cos_sin(half(_neg(psi(src))), prec)
        return FixedMatrix.from_pairs([[_normal(*_dot(row, col, prec))
                                        for col in ((c, _neg(s)), (s, c))] for row in left])

    pairs = tuple((glue(4 * k + 2, 4 * k), glue(4 * k + 1, 4 * k + 3)) for k in range(genus))
    word = [m for a, b in pairs for m in (a, b, _adjugate(a), _adjugate(b))]
    return pairs, identity_distance(product(prec, FixedMatrix.identity(2), *word), prec)


# --- scalars as mpmath types them: (re, im) with im None for a real -------

def _fit_down(x, prec):
    """The pair x rounded toward zero to prec bits (libmp's round_fast)."""
    m, e = x
    n = abs(m).bit_length() - prec
    return x if n <= 0 else ((-(-m >> n) if m < 0 else m >> n), e + n)


def _c_add(x, y, prec):
    re = _add(x[0], y[0], prec)
    if x[1] is None and y[1] is None:
        return re, None
    return re, _add(x[1] or (0, 0), y[1] or (0, 0), prec)


def _c_neg(x):
    return _neg(x[0]), None if x[1] is None else _neg(x[1])


def _c_half(x):
    return tuple(None if p is None else (p[0], p[1] - 1) for p in x)


def _c_mul(x, y, prec):
    """x y: a part times a real rounded once, and a complex product's
    parts each summed exactly from exact products and rounded once."""
    (a, b), (c, d) = x, y
    if b is None or d is None:
        real, other = (c, x) if d is None else (a, y)
        return tuple(None if p is None else _mul(p, real, prec) for p in other)
    return (_add(_exact_mul(a, c), _neg(_exact_mul(b, d)), prec),
            _add(_exact_mul(a, d), _exact_mul(b, c), prec))


def _c_div(x, y, prec):
    """x / y as libmpc divides: by a real, each part rounded once; by a
    complex c + id, over |y|**2 and the numerators rounded toward zero at
    prec + 10 bits (for a real x, only |y|**2), then each quotient rounded
    once."""
    (a, b), (c, d) = x, y
    if d is None:
        return tuple(None if p is None else _div(p, c, prec) for p in x)
    mag = _fit_down(_exact_sum(_exact_mul(c, c), _exact_mul(d, d)), prec + 10)
    if b is None:
        return _div(_exact_mul(c, a), mag, prec), _div(_neg(_exact_mul(d, a)), mag, prec)
    wp = prec + 10
    re = _fit_down(_exact_sum(_exact_mul(a, c), _exact_mul(b, d)), wp)
    im = _fit_down(_exact_sum(_exact_mul(b, c), _neg(_exact_mul(a, d))), wp)
    return _div(re, mag, prec), _div(im, mag, prec)


def _c_apply(f, x, prec):
    """A complex function of `elementary` on a scalar; on a real it gives
    the real function's value (exact 0 as the imaginary part), kept real."""
    z = f((x[0], x[1] or (0, 0)), prec)
    return z if x[1] is not None else (z[0], None)


def _scalars(m):
    """The entries of a FixedMatrix as rows of scalars."""
    return [[(re, im if im[0] else None) for re, im in row] for row in m.pairs()]


def _is_zero(x):
    return not x[0][0] and (x[1] is None or not x[1][0])


def _expm2(x, t, prec):
    """exp(t x) of a 2x2 block of scalars by Cayley-Hamilton, t real: with
    tau = tr x / 2, mu**2 = tau**2 - det x and x - tau I = [[d, x01], [x10, -d]],
    exp(t x) = e^(t tau) (cosh(t mu) I + sinh(t mu)/mu (x - tau I)), where
    sinh(t mu)/mu is t at mu = 0.  A real x with mu**2 < 0 takes cos and sin
    of t |mu| and stays real."""
    d = _c_half(_c_add(x[0][0], _c_neg(x[1][1]), prec))
    mu2 = _c_add(_c_mul(d, d, prec), _c_mul(x[0][1], x[1][0], prec), prec)
    if _is_zero(mu2):
        c, s = (_ONE, None), t
    elif mu2[1] is None and mu2[0][0] < 0:
        nu = _sqrt(_neg(mu2[0]), prec)
        c, s = cos_sin(_mul(t[0], nu, prec), prec)
        c, s = (c, None), (_div(s, nu, prec), None)
    else:
        mu = _c_apply(csqrt, mu2, prec)
        arg = _c_mul(t, mu, prec)
        c, s = _c_apply(ccosh, arg, prec), _c_div(_c_apply(csinh, arg, prec), mu, prec)
    scale = _c_apply(cexp, _c_mul(t, _c_half(_c_add(x[0][0], x[1][1], prec)), prec), prec)
    c, s = _c_mul(scale, c, prec), _c_mul(scale, s, prec)
    sd = _c_mul(s, d, prec)
    return [[_c_add(c, sd, prec), _c_mul(s, x[0][1], prec)],
            [_c_mul(s, x[1][0], prec), _c_add(c, _c_neg(sd), prec)]]


def block_expm(x, h_int, t, prec):
    """(exp(t x), exp(-t x)) as FixedMatrix at prec bits, for a FixedMatrix x
    that commutes with the integer diagonal H and a real pair t: x is block
    diagonal over H's eigenvalue classes, so each block is exponentiated on
    its own, a block of size 1 as a scalar (its inverse 1 / exp), a 2x2
    block in closed form at t and at -t (`_expm2`), and a larger one by
    Taylor (`elementary.expm`) at t and at -t."""
    n = len(h_int)
    x = _scalars(x)
    out, out_inv = {}, {}
    classes = {}
    for i, h in enumerate(h_int):
        classes.setdefault(h, []).append(i)
    t_neg = (_neg(t), None)
    t = (t, None)
    for idx in classes.values():
        if len(idx) == 1:
            i = idx[0]
            out[i, i] = _c_apply(cexp, _c_mul(t, x[i][i], prec), prec)
            out_inv[i, i] = _c_div((_ONE, None), out[i, i], prec)
            continue
        sub = [[x[i][j] for j in idx] for i in idx]
        if len(idx) == 2:
            blk, blk_inv = _expm2(sub, t, prec), _expm2(sub, t_neg, prec)
        else:
            blk, blk_inv = (_block_taylor(sub, tt, prec) for tt in (t, t_neg))
        for r, i in enumerate(idx):
            for s, j in enumerate(idx):
                out[i, j], out_inv[i, j] = blk[r][s], blk_inv[r][s]
    return _assemble(out, n), _assemble(out_inv, n)


def _block_taylor(sub, t, prec):
    """exp(t sub) for a block of scalars, by `elementary.expm` on t sub
    (formed exactly), as rows of scalars."""
    parts = [[[_exact_mul(t[0], z[k] or (0, 0)) for z in row] for row in sub] for k in (0, 1)]
    return _scalars(expm(FixedMatrix.from_pairs(*parts), prec))


def _assemble(entries, n):
    """A FixedMatrix of scalars given as {(i, j): (re, im)} (the rest 0)."""
    parts = [[[(0, 0)] * n for _ in range(n)] for _ in range(2)]
    for (i, j), z in entries.items():
        parts[0][i][j] = z[0]
        parts[1][i][j] = z[1] or (0, 0)
    return FixedMatrix.from_pairs(*[[[_normal(*v) for v in row] for row in part]
                                    for part in parts])


def _aligned(parts, exp):
    """The mantissa arrays of parts (None for 0) over the lower exponent exp."""
    return [0 if m is None else m << (e - exp) for m, e in parts]


def max_entry_distance(m, f):
    """max |m[i, j] - f[i, j]| for a FixedMatrix m and a float64 array f, from
    m's mantissas and the exact dyadic value of each float: the differences
    are exact integers over one exponent, and the largest modulus is rounded
    once, to nearest, to a float."""
    f = np.asarray(f)
    if not np.isfinite(f).all():
        return math.inf
    f = FixedMatrix.from_float(f)
    exp = min(m.exp, f.exp)
    m_re, m_im, f_re, f_im = _aligned(((m.re, m.exp), (m.im, m.exp), (f.re, f.exp),
                                       (f.im, f.exp)), exp)
    diff_re, diff_im = m_re - f_re, m_im - f_im
    top = int(np.max(diff_re * diff_re + diff_im * diff_im))
    if not top:
        return 0.0
    return _to_float(*_sqrt((top, 2 * exp), 53))


def identity_distance(m, prec):
    """|m - I| for a square FixedMatrix m, from its mantissas, as
    float(mp.norm(m - mp.eye(n))) gives it at prec bits: each diagonal
    entry less 1 rounded once, the squares of all parts summed exactly and
    rounded once, the square root rounded once and then to a float."""
    exp = min(m.exp, 0)
    re, im = _aligned(((m.re, m.exp), (m.im, m.exp)), exp)
    for i in range(len(re)):
        re[i, i] = _round_nearest(re[i, i] - (1 << -exp), prec)
    total = int(np.sum(re * re + im * im))
    return _to_float(*_sqrt(_fit(total, 2 * exp, prec), prec))


@dataclass(frozen=True)
class HighPrecisionReport:
    dps: int
    seed_residual: float
    pushed_residual: float
    bent_residual: float
    max_entry_distance: float


def verify_bent_relation(plan, bent, dps=40):
    """Residuals of the high-precision representation underlying a bent rep.

    Returns the residuals at dps decimal digits (`dps_to_bits`) of the seed
    polygon, the undeformed pushed representation and the bent
    representation, plus the maximal entrywise distance of the shipped
    matrices from the verified ones.  The images are built from the
    triple's exact form.  dps must be an int >= 1 (not a bool).
    """
    if isinstance(dps, bool) or not isinstance(dps, (int, np.integer)) or dps < 1:
        raise ParameterError(f"dps must be an integer >= 1, got {dps!r}")
    triple = plan.triple
    if plan.t is None:
        raise ParameterError("plan has no bending parameter")

    prec = dps_to_bits(dps)
    rho = Sl2Images(triple.exact)
    seed, seed_resid = mp_fuchsian(plan.genus, prec)

    # rho(g)^-1 = rho(g^-1); the pushed and the bent relation words
    pushed = bent_prod = FixedMatrix.identity(rho.n)
    bent_mp = []
    for k, (a_2, b_2) in enumerate(seed, start=1):
        (a, a_inv), (b, b_inv) = rho.pair(a_2, prec), rho.pair(b_2, prec)
        pushed = product(prec, pushed, a, b, a_inv, b_inv)
        twist = _twist(plan, rho, a_2, k, prec)
        if twist is not None:
            b, b_inv = product(prec, b, twist[0]), product(prec, twist[1], b_inv)
        bent_mp.append((a, b))
        bent_prod = product(prec, bent_prod, a, b, a_inv, b_inv)

    dist = max(max_entry_distance(m, m_f)
               for (a, b), a_f, b_f in zip(bent_mp, bent.a, bent.b)
               for m, m_f in ((a, a_f), (b, b_f)))
    return HighPrecisionReport(dps, seed_resid, identity_distance(pushed, prec),
                               identity_distance(bent_prod, prec), dist)


def _float_pair(v, prec):
    """A finite float rounded to prec bits, as mp.mpf(v) reads it."""
    frac, e = math.frexp(v)
    return _normal(*_fit(int(frac * 2.0 ** 53), e - 53, prec))


def _twist(plan, rho, a_seed, k, prec):
    """(exp(t X), exp(-t X)) for the k-th generator's bending vector X, or
    None when the generator is not bent; a_seed is the generator a_k, and
    the twist carries GUARD_BITS over prec."""
    ij = plan.generator_assignment.get(k)
    if ij is None:
        return None
    alg = plan.triple.algebra
    i, j = ij
    prec += GUARD_BITS
    x_ship = alg.from_coordinates(plan.x_vectors[ij])
    t = _float_pair(plan.t, prec)
    if i == 0:
        # commutes with the whole image: project the shipped vector onto
        # the centralizer of the triple
        x = central_part(weight_zero_part(x_ship, rho.h, prec), plan.triple.exact, prec)
        return block_expm(x, rho.h, t, prec)
    # rebuild the fixed line (it does not depend on the conjugator
    # choice), then match scale and sign to the shipped vector;
    # exp(t rho_k v0 rho_k^-1) = rho_k exp(t v0) rho_k^-1
    v0, rho_k, rho_k_inv, x_f = fixed_line(
        rho, a_seed, alg.from_coordinates(plan.iso.piece_columns[ij][:, i]), prec)
    x_ship = np.asarray(x_ship, dtype=complex)
    scale = _float_pair(float(np.real(np.vdot(x_f, x_ship)) / np.real(np.vdot(x_f, x_f))), prec)
    return tuple(product(prec, rho_k, m, rho_k_inv)
                 for m in block_expm(v0, rho.h, _mul(scale, t, prec), prec))
