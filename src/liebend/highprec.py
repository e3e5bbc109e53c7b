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
`FixedMatrix`.  The polygon and the products round each step once, to
nearest; the twists are accurate to the precision, within the bound that
`elementary.expm` states.
- The seed polygon (`mp_fuchsian`) needs only pi, cos and sin, each
  correctly rounded (`elementary.pi`, `cos_sin`): pi / n, its cos and sin,
  cot = cos / sin, the side scale e^rho = cot + sqrt(cot^2 - 1) (the
  inradius rho has cosh rho = cot(pi / n)) and 1 / scale, then per side
  psi_j, its cos_sin and the four scaled entries, each one kernel operation
  rounded once; each side pairing is then one 2x2 product on the kernel
  (`intkernel.product`), every entry the exact sum of two exact products
  rounded once.  Its relation word is multiplied out on the kernel too,
  with the inverses taken as adjugates (`FixedMatrix.adjugate`).
- The images rho(g) and rho(g^-1) come from the triple's exact form
  (`Sl2Images`: H an integer diagonal and E a union of chains with entries
  unit * sqrt(m)), so no float entry of H, E or F is read; so does the
  image of the conjugator c of a bent generator a_k.
- The twists (`_twist`): the shipped bending vector X, read exactly, is
  taken in the centralizer of rho(a_k), which makes the bent relation
  exact (Johnson-Millson).  A trivial piece's X is a star element, exactly
  in the commutant of the triple, and is used as read; for any other
  piece, in the frame of rho(c), where rho(a_k) is diagonal, the entries
  between unequal H-weights are zeroed.  Then t Y and -t Y are formed
  exactly and each goes through the one matrix exponential,
  `elementary.expm` (Taylor with scaling and squaring), which takes each
  diagonal block, an eigenvalue class of H, on its own, so every entry
  between two classes stays exactly 0.
The residuals |W - I| and the distance to the shipped float64 matrices are
read from the kernel's mantissas; floats are read exactly by the kernel's
one reader (`FixedMatrix.from_float`).
"""

import functools
import math

import numpy as np

from .elementary import _normal, cos_sin, expm, pi
from .errors import ParameterError
from .intkernel import (GUARD_BITS, FixedMatrix, Sl2Images, _add, _div, _fit, _float_exact,
                        _mul, _neg, _round_nearest, _sqrt, _to_float, conjugator, product)

_ONE = (1, 0)
# the verified residuals are about 10^-dps and are reported as float64, which
# holds them as normal numbers down to about 2.2e-308
MAX_DPS = 300


def dps_to_bits(dps):
    """The working precision in bits for dps decimal digits, by mpmath's
    rule (libmp.dps_to_prec)."""
    return max(1, int(round((int(dps) + 1) * 3.3219280948873626)))


@functools.lru_cache(maxsize=8)
def mp_fuchsian(genus, prec):
    """The 4g-gon side pairings of fuchsian_generators at prec bits.

    Built in real form: the Cayley map takes the disk rotation by phi to
    rot(phi) = [[cos phi/2, sin phi/2], [-sin phi/2, cos phi/2]] and the
    translation by d to diag(e^(d/2), e^(-d/2)), so the pairing
    rot(psi_dst + pi) diag(e^rho, e^-rho) rot(-psi_src) is one real 2x2
    product once the diagonal has scaled the columns of the first rotation:
    `intkernel.product` forms each entry as the exact sum of two exact
    products and rounds it once.

    Returns (pairs, residual): the pairs (a_k, b_k) as FixedMatrix, and the
    norm of their relation word less I, multiplied out on the kernel.  They
    are built once per process for each genus and precision; callers must
    not write into the matrices.
    """
    n = 4 * genus
    pi_ = pi(prec)
    # the inradius rho has cosh rho = cot(pi / n), so e^rho = cot + sqrt(cot^2 - 1)
    c, s = cos_sin(_div(pi_, (n, 0), prec), prec)
    cot = _div(c, s, prec)
    scale = _add(cot, _sqrt(_add(_mul(cot, cot, prec), _neg(_ONE), prec), prec), prec)
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
        return product(prec, FixedMatrix.from_pairs(left),
                       FixedMatrix.from_pairs([[c, s], [_neg(s), c]]))

    pairs = tuple((glue(4 * k + 2, 4 * k), glue(4 * k + 1, 4 * k + 3)) for k in range(genus))
    word = [m for a, b in pairs for m in (a, b, a.adjugate(), b.adjugate())]
    return pairs, identity_distance(product(prec, FixedMatrix.identity(2), *word), prec)


def expm_pair(x, t, prec):
    """(exp(t x), exp(-t x)) as FixedMatrix at prec bits, for a FixedMatrix x
    and a real pair t: t x and -t x are formed exactly and each is
    exponentiated by `elementary.expm`, block by block."""
    m, e = t
    return tuple(expm(FixedMatrix(x.re * k, None if x.im is None else x.im * k, x.exp + e), prec)
                 for k in (m, -m))


def max_entry_distance(m, f):
    """max |m[i, j] - f[i, j]| for a FixedMatrix m and a float64 array f, in
    Python ints: f is read exactly (`FixedMatrix.from_float`), the
    differences are exact integers over one exponent, and the largest
    modulus is rounded once, to nearest, to a float."""
    f = np.asarray(f)
    if not np.isfinite(f).all():
        return math.inf
    f = FixedMatrix.from_float(f)
    exp = min(m.exp, f.exp)
    squares = 0
    for ours, theirs in ((m.re, f.re), (m.im, f.im)):
        diff = ((0 if ours is None else ours << (m.exp - exp))
                - (0 if theirs is None else theirs << (f.exp - exp)))
        squares = squares + diff * diff
    top = int(np.max(squares))
    return _to_float(*_sqrt((top, 2 * exp), 53)) if top else 0.0


def identity_distance(m, prec):
    """|m - I| for a square FixedMatrix m, from its mantissas, as
    float(mp.norm(m - mp.eye(n))) gives it at prec bits: each diagonal
    entry less 1 rounded once, the squares of all parts summed exactly and
    rounded once, the square root rounded once and then to a float."""
    exp = min(m.exp, 0)
    re, im = (0 if p is None else p << (m.exp - exp) for p in (m.re, m.im))
    for i in range(len(re)):
        re[i, i] = _round_nearest(re[i, i] - (1 << -exp), prec)
    total = int(np.sum(re * re + im * im))
    return _to_float(*_sqrt(_fit(total, 2 * exp, prec), prec))


def check_dps(dps, name="dps"):
    """Refuse, naming it name, a dps that is not an int (no bool) in 1..MAX_DPS."""
    if isinstance(dps, bool) or not isinstance(dps, (int, np.integer)) or dps < 1:
        raise ParameterError(f"{name} must be an integer >= 1, got {dps!r}")
    if dps > MAX_DPS:
        raise ParameterError(f"{name} must be at most {MAX_DPS}, got {dps!r}: "
                             "past it the verified residuals underflow float64")


def verify_bent_relation(plan, dps=40):
    """Residuals of the high-precision representation underlying plan.bent.

    Returns the `verified` record of a bend report's `bend/residuals`: the
    dps (`check_dps`, `dps_to_bits`), then as floats the residuals at that
    precision of the seed polygon, the pushed and the bent representation,
    and the largest entrywise distance of the shipped matrices from the
    verified ones.  The images are built from the triple's exact form.
    """
    check_dps(dps)
    if plan.t is None:
        raise ParameterError("plan has no bending parameter")

    prec = dps_to_bits(dps)
    rho = Sl2Images(plan.triple.exact)
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
               for (a, b), a_f, b_f in zip(bent_mp, plan.bent.a, plan.bent.b)
               for m, m_f in ((a, a_f), (b, b_f)))
    return {"dps": int(dps), "seed_residual": seed_resid,
            "pushed_residual": identity_distance(pushed, prec),
            "bent_residual": identity_distance(bent_prod, prec),
            "max_entry_distance_to_shipped": dist}


def _twist(plan, rho, a_seed, k, prec):
    """(exp(t X), exp(-t X)) for the k-th generator's shipped bending vector
    X projected onto the centralizer of rho(a_k), or None when the generator
    is not bent; a_seed is the generator a_k, and the twist carries
    GUARD_BITS over prec.

    With c the conjugator of a_k (`intkernel.conjugator`), rho(c^-1 a_k c)
    is diagonal with entry lambda^h at H-weight h, so its centralizer holds
    the matrices with no entry between unequal H-weights: those entries of
    Y = rho(c)^-1 X rho(c) are zeroed, exactly, and
    exp(t rho(c) Y rho(c)^-1) = rho(c) exp(t Y) rho(c)^-1.  A trivial piece
    X_(0,j) is its star element (`Sl2Triple.star_basis`), whose float
    entries are exactly in the commutant of the triple, so it is
    exponentiated as read."""
    ij = plan.generator_assignment.get(k)
    if ij is None:
        return None
    prec += GUARD_BITS
    x, t = FixedMatrix.from_float(plan.x[ij]), _normal(*_fit(*_float_exact(plan.t), prec))
    if ij[0] == 0:
        return expm_pair(x, t, prec)
    rho_c, rho_c_inv = rho.pair(conjugator(a_seed, prec), prec)
    y = product(prec, rho_c_inv, x, rho_c)
    keep = np.equal.outer(rho.h, rho.h)
    y = FixedMatrix(*(None if p is None else np.where(keep, p, 0) for p in (y.re, y.im)), y.exp)
    return tuple(product(prec, rho_c, m, rho_c_inv) for m in expm_pair(y, t, prec))
