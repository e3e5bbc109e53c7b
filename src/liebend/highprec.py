"""High-precision verification of the bent surface-group relation.

For homomorphisms with large ad-weights the relation word has condition
number far beyond double precision: the shipped float64 matrices of a bent
representation cannot exhibit a small residual even though the underlying
representation satisfies the relation exactly.  This module recomputes the
seed polygon, the homomorphism images and the bending twists at the
precision of an mp context and reports the residual of that
representation, together with the entrywise distance to the shipped
matrices.

Every triple carries its exact form (`Sl2Triple.exact`): H is an integer
diagonal and E a union of chains with entries unit * sqrt(m)
(`ExactTriple.chains`), so no float entry of H, E or F is read.  The images
rho(g) and rho(g^-1) (symmetric powers along the chains), the conjugator of
a bent generator, its fixed line, the weight-zero and central projections
of the bending vectors and every n x n product run on the integer kernel
(`intkernel`), which the float lane shares, at the precision of the mp
context (`_context_prec`, which refuses rounding modes other than to
nearest).  mpmath itself builds the seed polygon and its relation word,
2x2 products in mp.fdot that round as the kernel does, and the block
exponentials of the twists (`block_expm`: a twist commutes with H, so it is
exponentiated per H-block, a 2x2 block in closed form), whose mantissas go
straight into the kernel's matrices.  The residuals |W - I| and the distance
to the shipped float64 matrices are read from the kernel's mantissas.
"""

import functools
import math
from dataclasses import dataclass

# the kernel before mpmath: without cached bytecode, mpmath's import then
# reuses the memory that compiling the kernel freed (1.2 MB of peak RSS)
from .errors import ParameterError
from .intkernel import (GUARD_BITS, FixedMatrix, Sl2Images, _round_nearest, central_part,
                        fixed_line, product, weight_zero_part)

import mpmath as mp
import numpy as np
from mpmath import libmp


class RoundingModeError(ValueError):
    """The mp context rounds other than to nearest, the one mode the integer
    kernel implements."""


def _context_prec():
    """The mp context's precision in bits, for the integer kernel, which
    rounds to nearest only."""
    prec, rnd = mp.mp._prec_rounding
    if rnd != libmp.round_nearest:
        raise RoundingModeError(f"the integer kernel rounds to nearest only, "
                                f"the mp context rounds {rnd!r}")
    return prec


def _fixed(entries, rows, cols):
    """A FixedMatrix of mp numbers given as {(i, j): value} (the rest 0), read
    through the raw (sign, man, exp, bc) tuples.  Mantissas go through int()
    so that gmpy mpz work too."""
    parts = [{}, {}]
    for ij, v in entries.items():
        v = mp.mpmathify(v)
        raw = v._mpc_ if hasattr(v, "_mpc_") else (v._mpf_, libmp.fzero)
        if any(not man and exp for _, man, exp, _ in raw):
            raise ValueError("a FixedMatrix holds finite entries only")
        for part, (sign, man, exp, _) in zip(parts, raw):
            part[ij] = ((-int(man) if sign else int(man)), exp)
    return FixedMatrix.from_pairs(*[[[part.get((i, j), (0, 0)) for j in range(cols)]
                                     for i in range(rows)] for part in parts])


def from_mp(m):
    """An mp.matrix as a FixedMatrix, exactly."""
    return _fixed({(i, j): m[i, j] for i in range(m.rows) for j in range(m.cols)},
                  m.rows, m.cols)


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

    Returns (a, b, residual, pairs): two tuples of genus matrices, the norm
    of their relation word less I, multiplied out as 2x2 mp.matrix
    products, and the pairs (a_k, b_k) as FixedMatrix (`from_mp`, exact).
    They are built once per process for each genus and mp precision and
    rounding; callers must not write into the matrices.
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
    prod = mp.eye(2)
    for a, b in zip(a_list, b_list):
        prod = prod * a * b * sl2_inverse(a) * sl2_inverse(b)
    pairs = tuple((from_mp(a), from_mp(b)) for a, b in zip(a_list, b_list))
    return a_list, b_list, float(mp.norm(prod - mp.eye(2))), pairs


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


def _mp_entries(x):
    """The entries of a FixedMatrix as mp numbers, an mpc where the
    imaginary part is nonzero."""
    return [[mp.mp.make_mpc(tuple(libmp.from_man_exp(*part) for part in z)) if z[1][0]
             else mp.mp.make_mpf(libmp.from_man_exp(*z[0])) for z in row] for row in x.pairs()]


def block_expm(x, h_int, t):
    """(exp(t x), exp(-t x)) as FixedMatrix, for a FixedMatrix x that
    commutes with the integer diagonal H: x is block diagonal over H's
    eigenvalue classes, so each block is exponentiated on its own in the mp
    context, a block of size 1 as a scalar, a 2x2 block in closed form at t
    and at -t (`_expm2`), and a larger one with mp.expm and mp.inverse."""
    n = len(h_int)
    x = _mp_entries(x)
    out, out_inv = {}, {}
    classes = {}
    for i, h in enumerate(h_int):
        classes.setdefault(h, []).append(i)
    for idx in classes.values():
        if len(idx) == 1:
            i = idx[0]
            out[i, i] = mp.exp(t * x[i][i])
            out_inv[i, i] = 1 / out[i, i]
            continue
        sub = [[x[i][j] for j in idx] for i in idx]
        if len(idx) == 2:
            blk, blk_inv = _expm2(sub, t), _expm2(sub, -t)
        else:
            blk = mp.expm(t * mp.matrix(sub))
            blk_inv = mp.inverse(blk).tolist()
            blk = blk.tolist()
        for r, i in enumerate(idx):
            for s, j in enumerate(idx):
                out[i, j], out_inv[i, j] = blk[r][s], blk_inv[r][s]
    return _fixed(out, n, n), _fixed(out_inv, n, n)


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
    dist = libmp.mpf_sqrt(libmp.from_man_exp(top, 2 * exp), 53, libmp.round_nearest)
    return libmp.to_float(dist)


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
    norm = libmp.mpf_sqrt(libmp.from_man_exp(total, 2 * exp, prec, libmp.round_nearest), prec,
                          libmp.round_nearest)
    return libmp.to_float(norm, rnd=libmp.round_nearest)


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
    distance of the shipped matrices from the verified ones.  The images
    are built from the triple's exact form.
    """
    triple = plan.triple
    if plan.t is None:
        raise ParameterError("plan has no bending parameter")

    with mp.workdps(dps):
        prec = _context_prec()
        rho = Sl2Images(triple.exact)
        _, _, seed_resid, seed = mp_fuchsian(plan.genus)

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
    with mp.workprec(prec):
        t = mp.mpf(plan.t)
        if i == 0:
            # commutes with the whole image: project the shipped vector onto
            # the centralizer of the triple
            x = central_part(weight_zero_part(x_ship, rho.h, prec), plan.triple.exact, prec)
            return block_expm(x, rho.h, t)
        # rebuild the fixed line (it does not depend on the conjugator
        # choice), then match scale and sign to the shipped vector;
        # exp(t rho_k v0 rho_k^-1) = rho_k exp(t v0) rho_k^-1
        v0, rho_k, rho_k_inv, x_f = fixed_line(
            rho, a_seed, alg.from_coordinates(plan.iso.piece_columns[ij][:, i]), prec)
        x_ship = np.asarray(x_ship, dtype=complex)
        scale = mp.mpf(float(np.real(np.vdot(x_f, x_ship)) / np.real(np.vdot(x_f, x_f))))
        return tuple(product(prec, rho_k, m, rho_k_inv) for m in block_expm(v0, rho.h, scale * t))
