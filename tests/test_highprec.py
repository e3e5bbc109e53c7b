import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from liebend import elementary, highprec
from liebend.config import DEFAULT
from liebend.errors import ParameterError, RealizationError
from liebend.highprec import (dps_to_bits, expm_pair, max_entry_distance, mp_fuchsian,
                              verify_bent_relation)
from liebend.intkernel import (GUARD_BITS, FixedMatrix, Sl2Images, _chain_constants,
                               _round_nearest, conjugator, product)
from liebend.sl2 import ExactTriple, rho2_su, sl2_from_partition

from conftest import (build_triple, float_conjugator, float_skeleton, from_mp, mp_pair,
                      sl2_inverse, to_floats, to_mp, triple_cases, triple_id)


def _times(a, b):
    """a b on the integer kernel at the mp context's precision."""
    import mpmath as mp
    return product(mp.mp.prec, a, b)


def _pair(rho, g2):
    """(rho(g), rho(g^-1)) for a 2x2 mp matrix, at the mp context's precision."""
    import mpmath as mp
    return rho.pair(from_mp(g2), mp.mp.prec)


def _mp_conjugator(g2):
    """Reference oracle: the closed-form det-1 eigenvector matrix of a
    hyperbolic 2x2 mp matrix, each step rounded by mpmath, which
    `intkernel.conjugator` replaced."""
    import mpmath as mp
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
    """Reference oracle: the weight-zero part of a float matrix in mpmath at
    the context's precision, for `_line_oracle`.  Zero the entries of x
    that carry a nonzero ad H weight and remove the residual trace."""
    import mpmath as mp
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


def _weight_zero(x, h):
    """A float matrix x read exactly, with its entries between unequal
    H-weights h zeroed."""
    return FixedMatrix.from_float(np.where(np.equal.outer(h, h), x, 0))


def mp_triple(exact):
    """E and F of an exact triple as mp matrices: E[row, col] = unit sqrt(m)
    and F = E's conjugate transpose."""
    import mpmath as mp
    n = len(exact.h)
    e, f = mp.matrix(n, n), mp.matrix(n, n)
    for row, col, m, unit in exact.e:
        e[row, col] = unit * mp.sqrt(m)
        f[col, row] = unit.conjugate() * mp.sqrt(m)
    return e, f


def _polygon_sides(genus, prec):
    """The side pairings of mp_fuchsian as two lists of mp matrices, a and b."""
    pairs = mp_fuchsian(genus, prec)[0]
    return [to_mp(a) for a, _ in pairs], [to_mp(b) for _, b in pairs]


def test_mp_fuchsian_matches_float():
    """At genus 2 to 40 and dps 40 (136 bits) the polygon rounded once to
    float64 is the one at 300 bits rounded once, and within 1e-13 of the
    float polygon."""
    from liebend.bending import fuchsian_generators
    prec = dps_to_bits(40)
    for genus in range(2, 41):
        seed = fuchsian_generators(genus)
        for pair, fine, floats in zip(mp_fuchsian(genus, prec)[0], mp_fuchsian(genus, 300)[0],
                                      zip(seed.a, seed.b)):
            for m, m_fine, m_f in zip(pair, fine, floats):
                rounded = to_floats(m)
                assert np.array_equal(rounded, to_floats(m_fine)), genus
                assert np.max(np.abs(rounded - m_f)) < 1e-13, genus


def _mp_polygon(genus):
    """Reference oracle: the real-form polygon in mpmath at the context's
    precision, each elementary function, operation and fdot rounded by
    mpmath: e^rho = cot + sqrt(cot^2 - 1) for cot = cot(pi / n)."""
    import mpmath as mp
    n = 4 * genus
    c, s = mp.cos_sin(mp.pi / n)
    cot = c / s
    scale = cot + mp.sqrt(cot * cot - 1)
    inv_scale = 1 / scale

    def psi(j):
        return 2 * mp.pi * (j + mp.mpf(1) / 2) / n

    def glue(src, dst):
        c, s = mp.cos_sin((psi(dst) + mp.pi) / 2)
        left = [[c * scale, s * inv_scale], [-s * scale, c * inv_scale]]
        c, s = mp.cos_sin(-psi(src) / 2)
        return mp.matrix([[mp.fdot(row, col) for col in ((c, -s), (s, c))] for row in left])

    a_list = [glue(4 * k + 2, 4 * k) for k in range(genus)]
    b_list = [glue(4 * k + 1, 4 * k + 3) for k in range(genus)]
    prod = mp.eye(2)
    for a, b in zip(a_list, b_list):
        prod = prod * a * b * sl2_inverse(a) * sl2_inverse(b)
    return a_list, b_list, float(mp.norm(prod - mp.eye(2)))


@pytest.mark.parametrize("dps", [15, 30, 40])
def test_polygon_is_the_mpmath_polygon(dps):
    """Every side pairing holds the bits the mpmath construction gives, and
    the relation residual is its float, at genus 2 to 8 (the elementary
    functions agree where mpmath rounds correctly, which it does on these
    arguments)."""
    import mpmath as mp
    with mp.workdps(dps):
        for genus in range(2, 9):
            a_mp, b_mp, resid = _mp_polygon(genus)
            pairs, got = mp_fuchsian(genus, mp.mp.prec)
            assert got == resid
            for (a, b), a_w, b_w in zip(pairs, a_mp, b_mp):
                assert to_mp(a) == a_w and to_mp(b) == b_w
                assert from_mp(a_w).exp == a.exp and from_mp(b_w).exp == b.exp


def _dot_polygon(genus, prec):
    """Reference oracle: mp_fuchsian as it stood before its side pairings
    went through `intkernel.product`: each entry the exact sum of two exact
    products rounded once (the `_dot` it replaced), and the relation word's
    inverses formed as adjugates here."""
    from liebend.intkernel import _add, _div, _fit, _mul, _neg, _sqrt
    n = 4 * genus
    pi_ = elementary.pi(prec)
    c, s = elementary.cos_sin(_div(pi_, (n, 0), prec), prec)
    cot = _div(c, s, prec)
    scale = _add(cot, _sqrt(_add(_mul(cot, cot, prec), (-1, 0), prec), prec), prec)
    inv_scale = _div((1, 0), scale, prec)

    def psi(j):
        return _div(_mul((pi_[0], pi_[1] + 1), (2 * j + 1, -1), prec), (n, 0), prec)

    def dot(row, col):
        terms = [(a[0] * b[0], a[1] + b[1]) for a, b in zip(row, col)]
        e = min(te for _, te in terms)
        return _fit(sum(m << (te - e) for m, te in terms), e, prec)

    def glue(src, dst):
        x = _add(psi(dst), pi_, prec)
        c, s = elementary.cos_sin((x[0], x[1] - 1), prec)
        left = [[_mul(c, scale, prec), _mul(s, inv_scale, prec)],
                [_neg(_mul(s, scale, prec)), _mul(c, inv_scale, prec)]]
        x = _neg(psi(src))
        c, s = elementary.cos_sin((x[0], x[1] - 1), prec)
        return FixedMatrix.from_pairs([[elementary._normal(*dot(row, col))
                                        for col in ((c, _neg(s)), (s, c))] for row in left])

    def adjugate(g):
        (a, b), (c, d) = g.re.tolist()
        return FixedMatrix(np.array([[d, -b], [-c, a]], dtype=object), None, g.exp)

    pairs = [(glue(4 * k + 2, 4 * k), glue(4 * k + 1, 4 * k + 3)) for k in range(genus)]
    word = [m for a, b in pairs for m in (a, b, adjugate(a), adjugate(b))]
    return pairs, highprec.identity_distance(product(prec, FixedMatrix.identity(2), *word), prec)


def _values(m):
    """The entries of a FixedMatrix as exact complex values, (re, im) Fractions."""
    im = m.im if m.im is not None else np.zeros(m.shape, dtype=int)
    scale = Fraction(2) ** m.exp
    return [(Fraction(int(r)) * scale, Fraction(int(i)) * scale)
            for r, i in zip(m.re.ravel().tolist(), im.ravel().tolist())]


@pytest.mark.parametrize("dps", [2, 15, 40, 100])
def test_polygon_is_the_dot_polygon(dps):
    """The side pairings formed through the kernel's product hold the values
    of the exact two-term sums rounded once, and the relation residual is
    the same, at genus 2 to 12."""
    prec = dps_to_bits(dps)
    for genus in range(2, 13):
        want, want_resid = _dot_polygon(genus, prec)
        got, got_resid = mp_fuchsian(genus, prec)
        assert got_resid == want_resid
        for pair, want_pair in zip(got, want):
            for m, w in zip(pair, want_pair):
                assert m.im is None and _values(m) == _values(w)


def _complex_fuchsian(genus):
    """Reference oracle: the side pairings as disk isometries conjugated by
    the Cayley map in complex arithmetic, the form mp_fuchsian replaced."""
    import mpmath as mp
    n = 4 * genus
    rho = mp.acosh(1 / mp.tan(mp.pi / n))
    mob = mp.matrix([[1, -1j], [1, 1j]])
    mob_inv = mp.matrix([[1, 1], [1j, -1j]]) / 2

    def rot(phi):
        return mp.matrix([[mp.e ** (0.5j * phi), 0], [0, mp.e ** (-0.5j * phi)]])

    def trans(d):
        return mp.matrix([[mp.cosh(d / 2), mp.sinh(d / 2)],
                          [mp.sinh(d / 2), mp.cosh(d / 2)]])

    def psi(j):
        return 2 * mp.pi * (j + mp.mpf(1) / 2) / n

    def glue(src, dst):
        m = mob_inv * (rot(psi(dst) + mp.pi) * trans(2 * rho) * rot(-psi(src))) * mob
        return mp.matrix([[mp.re(m[i, j]) for j in range(2)] for i in range(2)])

    return ([glue(4 * k + 2, 4 * k) for k in range(genus)],
            [glue(4 * k + 1, 4 * k + 3) for k in range(genus)])


@pytest.mark.parametrize("dps", [15, 40])
def test_real_polygon_matches_complex_oracle(dps):
    import mpmath as mp
    with mp.workdps(dps):
        for genus in (2, 4, 6):
            got, want = _polygon_sides(genus, mp.mp.prec), _complex_fuchsian(genus)
            for g, w in zip(got[0] + got[1], want[0] + want[1]):
                assert mp.norm(g - w) < mp.mpf(10) ** (3 - dps) * mp.norm(w)


# --- the exact integer kernel ----------------------------------------------

def _random_mp(rng, rows, cols, kind):
    """Seeded mp matrix; entries / 3 fill every mantissa bit.  Binary
    exponents stay within +-8, so product terms are never 2**prec apart."""
    import mpmath as mp
    out = mp.matrix(rows, cols)
    for i in range(rows):
        for j in range(cols):
            if kind == "sparse" and rng.random() < 0.6:
                continue
            scale = mp.mpf(2) ** int(rng.integers(-8, 9)) / 3
            out[i, j] = scale * mp.mpf(rng.normal())
            if kind == "complex" or (kind == "mixed" and rng.random() < 0.5):
                out[i, j] += 1j * scale * mp.mpf(rng.normal())
    return out


def _exact(z):
    """An mp number as a pair of Fractions (real, imaginary)."""
    import mpmath as mp
    from mpmath import libmp
    z = mp.mpc(z)
    return tuple(Fraction(*libmp.to_rational(part)) for part in z._mpc_)


def _correctly_rounded(a, b, i, j):
    """Entry (i, j) of a b: the exact Fraction sum, rounded once."""
    import mpmath as mp
    from mpmath import libmp
    re = im = Fraction(0)
    for k in range(a.cols):
        (ar, ai), (br, bi) = _exact(a[i, k]), _exact(b[k, j])
        re += ar * br - ai * bi
        im += ar * bi + ai * br
    prec, rnd = mp.mp._prec_rounding
    return tuple(mp.mp.make_mpf(libmp.from_rational(x.numerator, x.denominator, prec, rnd))
                 for x in (re, im))


@pytest.mark.parametrize("dps", [15, 40])
@pytest.mark.parametrize("kind", ["real", "complex", "mixed", "sparse"])
def test_kernel_rounds_the_exact_sum_once(dps, kind):
    import mpmath as mp
    rng = np.random.default_rng(dps * 7 + len(kind))
    with mp.workdps(dps):
        for rows, inner, cols in ((5, 5, 5), (2, 2, 2), (3, 4, 2)):
            a, b = _random_mp(rng, rows, inner, kind), _random_mp(rng, inner, cols, kind)
            got = to_mp(_times(from_mp(a), from_mp(b)))
            via_fdot = a * b
            for i in range(rows):
                for j in range(cols):
                    assert (mp.re(got[i, j]), mp.im(got[i, j])) == _correctly_rounded(a, b, i, j)
                    assert got[i, j] == via_fdot[i, j]


def test_kernel_keeps_terms_far_below_the_sum():
    import mpmath as mp
    with mp.workdps(15):
        a = mp.matrix([[mp.mpf(2) ** -200, 1, -1]])
        b = mp.matrix([[1], [1], [1]])
        got = to_mp(_times(from_mp(a), from_mp(b)))
        assert got[0, 0] == mp.mpf(2) ** -200
        assert (mp.re(got[0, 0]), mp.im(got[0, 0])) == _correctly_rounded(a, b, 0, 0)


def test_kernel_rounds_at_the_working_precision():
    import mpmath as mp
    with mp.workdps(40):
        a = _random_mp(np.random.default_rng(3), 4, 4, "complex")
        fa = from_mp(a)
        with mp.workprec(mp.mp.prec + 20):
            fine = to_mp(_times(fa, fa))[1, 2]
            assert (mp.re(fine), mp.im(fine)) == _correctly_rounded(a, a, 1, 2)
        coarse = to_mp(_times(fa, fa))[1, 2]
        assert (mp.re(coarse), mp.im(coarse)) == _correctly_rounded(a, a, 1, 2)
        assert coarse != fine


@pytest.mark.parametrize("prec", [53, 153, 180])
def test_integer_rounding_is_libmp_round_nearest(prec):
    """10**4 seeded ints: longer and shorter than prec, both signs, and forced
    ties (a prec-bit odd or even mantissa followed by a single set half bit)."""
    from mpmath import libmp
    rng = np.random.default_rng(prec)
    values = []
    for _ in range(2500):
        bits = int(rng.integers(1, 3 * prec))
        v = int.from_bytes(rng.bytes(bits // 8 + 1), "little") >> (8 - bits % 8)
        extra = int(rng.integers(1, prec))
        tie = ((int.from_bytes(rng.bytes(prec // 8 + 1), "little") | 1 << prec) >> 1
               << extra | 1 << (extra - 1))
        values += [v, -v, tie, -tie]
    assert sum(abs(v).bit_length() < prec for v in values) > 1000
    assert sum(abs(v).bit_length() > prec for v in values) > 1000
    for v in values:
        sign, man, exp, _ = libmp.from_man_exp(v, 0, prec, libmp.round_nearest)
        assert _round_nearest(v, prec) == (-1) ** sign * man << exp


@pytest.mark.parametrize("kinds", [("real", "complex"), ("complex", "real"),
                                   ("complex", "complex"), ("real", "real")])
def test_kernel_arrays_are_those_of_the_mp_product(kinds):
    """A product holds the very mantissas and exponent that from_mp gives
    for mpmath's own product."""
    import mpmath as mp
    rng = np.random.default_rng(11)
    with mp.workdps(40):
        for rows, inner, cols in ((5, 5, 5), (3, 4, 2)):
            a = _random_mp(rng, rows, inner, kinds[0])
            b = _random_mp(rng, inner, cols, kinds[1])
            got = _times(from_mp(a), from_mp(b))
            want = from_mp(a * b)
            assert got.exp == want.exp
            assert got.re.tolist() == want.re.tolist()
            assert (got.im is None) == (want.im is None) == (kinds == ("real", "real"))
            if got.im is not None:
                assert got.im.tolist() == want.im.tolist()


def test_kernel_product_of_zeros_has_exponent_zero():
    import mpmath as mp
    with mp.workdps(20):
        zero = from_mp(mp.zeros(2, 2))
        got = _times(zero, from_mp(mp.matrix([[mp.mpf(3) / 7, 1], [2, -1]])))
        assert got.exp == 0 and got.re.tolist() == [[0, 0], [0, 0]]


@pytest.mark.parametrize("dps", [0, -3, True, False, 2.5, 40.0, "40", None])
def test_verify_rejects_a_dps_that_is_not_a_positive_int(dps, su21, monkeypatch):
    """dps 0 would verify at 3 bits and label residuals of 32 as verified;
    a bool, a float, a string or a negative dps is refused before any work."""
    from liebend.bending import build_plan, fuchsian_generators
    from liebend.sl2 import rho1_su
    plan = build_plan(rho1_su(su21), fuchsian_generators(2), t=0.01)
    monkeypatch.setattr(highprec, "Sl2Images", None)
    monkeypatch.setattr(highprec, "mp_fuchsian", None)
    with pytest.raises(ParameterError, match="dps must be an integer >= 1"):
        verify_bent_relation(plan, dps=dps)


def test_verify_rejects_a_dps_past_max_dps(su21, monkeypatch):
    """Past MAX_DPS the residuals would underflow float64; refused before any work."""
    from liebend.bending import build_plan, fuchsian_generators
    from liebend.sl2 import rho1_su
    plan = build_plan(rho1_su(su21), fuchsian_generators(2), t=0.01)
    monkeypatch.setattr(highprec, "Sl2Images", None)
    monkeypatch.setattr(highprec, "mp_fuchsian", None)
    with pytest.raises(ParameterError, match=f"dps must be at most {highprec.MAX_DPS}, got "
                                             f"{highprec.MAX_DPS + 1}"):
        verify_bent_relation(plan, dps=highprec.MAX_DPS + 1)


@pytest.mark.parametrize("dps, bits", [(1, 7), (15, 53), (30, 103), (40, 136), (60, 203)])
def test_dps_maps_to_bits_as_mpmath_does(dps, bits):
    import mpmath as mp
    assert dps_to_bits(dps) == bits
    with mp.workdps(dps):
        assert mp.mp.prec == bits


def test_verify_accepts_numpy_ints(su21):
    from liebend.bending import build_plan, fuchsian_generators
    from liebend.sl2 import rho1_su
    plan = build_plan(rho1_su(su21), fuchsian_generators(2), t=0.01)
    assert verify_bent_relation(plan, dps=np.int64(20)) == verify_bent_relation(plan, dps=20)


def test_kernel_rejects_non_finite_entries():
    for bad in (np.inf, np.nan, complex(0, np.inf)):
        with pytest.raises(ValueError, match="finite"):
            FixedMatrix.from_float(np.array([[1.0, bad], [0.0, 1.0]]))


def _frexp_values(x):
    """Reference oracle: x read exactly through np.frexp, entry by entry,
    as the array reader that `intkernel._float_exact` replaced did."""
    def read(part):
        frac, exp = np.frexp(np.asarray(part, dtype=float))
        mans = (frac * 2.0 ** 53).astype(np.int64).ravel().tolist()
        return [Fraction(m) * Fraction(2) ** (int(e) - 53)
                for m, e in zip(mans, exp.ravel().tolist())]
    return list(zip(read(x.real), read(x.imag)))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", ["real", "complex", "zero imaginary part"])
def test_float_reader_is_the_frexp_reader(seed, kind):
    rng = np.random.default_rng(seed)

    def sample():
        x = np.ldexp(rng.standard_normal((6, 6)), rng.integers(-1100, 1000, (6, 6)))
        x.ravel()[:8] = [0.0, -0.0, 5e-324, -2.5e-310, 2.0 ** -1022, 2.0 ** 1000,
                         -(2.0 ** -1000), 1.5]
        return rng.permutation(x.ravel()).reshape(x.shape)

    x = sample()
    if kind == "complex":
        x = x + 1j * sample()
    elif kind == "zero imaginary part":
        x = x + 0j
    m = FixedMatrix.from_float(x)
    assert _values(m) == _frexp_values(x)
    assert (m.im is None) == (kind != "complex")


# --- closed-form images --------------------------------------------------

def _iwasawa_rho(e_mp, f_mp, h_int, g2):
    """Reference oracle: the Iwasawa factorization g = K A N with two
    matrix exponentials, the form the closed-form images replaced."""
    import mpmath as mp
    a, c = g2[0, 0], g2[1, 0]
    r = mp.sqrt(a * a + c * c)
    q = mp.matrix([[a / r, -c / r], [c / r, a / r]])
    upper = q.T * g2
    s = mp.atan2(q[0, 1], q[0, 0])
    u = mp.log(upper[0, 0])
    x = upper[0, 1] / upper[0, 0]
    n = len(h_int)
    diag = mp.matrix(n, n)
    for i in range(n):
        diag[i, i] = mp.e ** (u * h_int[i])
    return mp.expm(s * (e_mp - f_mp)) * diag * mp.expm(x * e_mp)


CONSTRUCTED = triple_cases(5, 3)


@pytest.mark.parametrize("case", CONSTRUCTED, ids=triple_id)
def test_exact_form_is_the_float_triple(case):
    """The float images are the exact form read once, and the exact form is
    an sl2-triple: E moves the weights by 2 and [E, F] = H at dps 60."""
    import mpmath as mp
    triple = build_triple(case)
    exact = triple.exact
    n = triple.algebra.size
    e = np.zeros((n, n), dtype=complex)
    for row, col, m, unit in exact.e:
        assert exact.h[row] - exact.h[col] == 2
        e[row, col] = unit * np.sqrt(m)
    assert np.array_equal(triple.h, np.diag(exact.h))
    assert np.array_equal(triple.e, e)
    assert np.array_equal(triple.f, e.conj().T)
    with mp.workdps(60):
        e_mp, f_mp = mp_triple(exact)
        h_mp = mp.diag(list(exact.h))
        assert mp.norm(e_mp * f_mp - f_mp * e_mp - h_mp) < mp.mpf(10) ** -55


# --- the verified twists: X projected onto the centralizer of rho(a_k) ------

# a verified twist T commutes with the kernel's rho(a_k) to
# 2**-(prec - _COMMUTE_SLACK) |rho(a_k)| |T| at the working precision prec:
# the worst twist of the timed plans reaches 2**-(prec + 6), and the shipped
# X read without the projection 2**-(prec - 81)
_COMMUTE_SLACK = 4


def _assert_commutes(rho, a_seed, prec, twist):
    """The bound above for each matrix of the pair twist, with rho(a) the
    image of the FixedMatrix a_seed at prec as verify_bent_relation forms
    it; the products are taken in mpmath at 4 prec bits."""
    import mpmath as mp
    with mp.workprec(4 * prec):
        a = to_mp(rho.pair(a_seed, prec)[0])
        for t in map(to_mp, twist):
            assert mp.norm(a * t - t * a) <= mp.ldexp(mp.norm(a) * mp.norm(t),
                                                      _COMMUTE_SLACK - prec)


def _recorded_twists(monkeypatch):
    """The bent generators that verify_bent_relation twists from here on,
    in order, as (plan, ij, rho, a_k, prec, twist)."""
    seen = []
    real = highprec._twist

    def recording(plan, rho, a_seed, k, prec):
        twist = real(plan, rho, a_seed, k, prec)
        if twist is not None:
            seen.append((plan, plan.generator_assignment[k], rho, a_seed, prec, twist))
        return twist

    monkeypatch.setattr(highprec, "_twist", recording)
    return seen


def _twist_of(x, rho, a, t, prec):
    """`highprec._twist` of the float matrix x as the bending vector of the
    generator a (a FixedMatrix) at the float t, on a plan that holds
    nothing else."""
    from types import SimpleNamespace
    plan = SimpleNamespace(generator_assignment={1: (1, 0)}, x={(1, 0): x}, t=t)
    return highprec._twist(plan, rho, a, 1, prec)


_TRIVIAL_PIECES = [("sl", (5,), (4, 1), 4), ("sl", (3,), (2, 1), 2),
                   ("sl", (4,), (2, 1, 1), 5), ("su", (3, 1), "rho2", 5)]


@pytest.mark.parametrize("dps", [20, 40])
@pytest.mark.parametrize("case", _TRIVIAL_PIECES, ids=lambda c: f"{c[0]}{c[1]}-{c[2]}")
def test_trivial_twist_exponentiates_the_shipped_vector(case, dps, monkeypatch):
    """What `_twist` exponentiates for a trivial piece is the shipped
    X_{0,j} read exactly; it commutes with H, E and F at the working
    precision and moved by at most 1e-12 from the shipped vector."""
    import mpmath as mp
    from liebend.algebra import make_algebra
    from liebend.bending import build_plan, fuchsian_generators
    from liebend.sl2 import rho1_su
    family, params, spec, genus = case
    alg = make_algebra(family, *params)
    triple = (sl2_from_partition(alg, spec) if family == "sl"
              else {"rho1": rho1_su, "rho2": rho2_su}[spec](alg))
    plan = build_plan(triple, fuchsian_generators(genus), t=0.01)
    bent = [plan.generator_assignment[k] for k in sorted(plan.generator_assignment)]
    assert any(ij[0] == 0 for ij in bent)
    seen, real = [], highprec.expm_pair
    monkeypatch.setattr(highprec, "expm_pair", lambda x, *args: seen.append(x) or real(x, *args))
    verify_bent_relation(plan, dps=dps)
    assert len(seen) == len(bent)
    with mp.workdps(dps):
        e_mp, f_mp = mp_triple(triple.exact)
        h_mp = mp.diag(list(triple.exact.h))
        for ij, x in zip(bent, seen):
            if ij[0] != 0:
                continue
            x_ship = plan.x[ij]
            assert _same_value(x, FixedMatrix.from_float(x_ship))
            x = to_mp(x)
            bound = mp.mpf(10) ** (5 - dps) * mp.norm(x)
            for y in (h_mp, e_mp, f_mp):
                assert mp.norm(x * y - y * x) <= bound
            moved = max(abs(complex(x[i, j]) - x_ship[i, j])
                        for i in range(alg.size) for j in range(alg.size))
            assert moved <= 1e-12


@pytest.mark.parametrize("parts", [(2, 1), (4, 1), (3, 2)])
def test_twist_of_a_generic_matrix_commutes_with_its_generator(parts, rng):
    """Any float matrix, not only a bending vector, of a piece with i > 0
    gets a twist that commutes with rho(a) at the working precision (dps
    30): the zeroing removes every part off the centralizer, for each
    genus-2 generator a."""
    from liebend.algebra import make_algebra
    rho = Sl2Images(sl2_from_partition(make_algebra("sl", sum(parts)), parts).exact)
    prec = dps_to_bits(30)
    for a in (g for pair in mp_fuchsian(2, prec)[0] for g in pair):
        x = rng.normal(size=(rho.n, rho.n))
        _assert_commutes(rho, a, prec, _twist_of(x, rho, a, 0.3, prec))


# --- the chains of the exact triple -------------------------------------

def _taylor_exp(m):
    """Reference oracle: exp of a nilpotent mp matrix as its finite Taylor sum."""
    import mpmath as mp
    out, term = mp.eye(m.rows), mp.eye(m.rows)
    for k in range(1, m.rows):
        term = term * m / k
        out = out + term
    return out


CHAIN_CASES = triple_cases(7, 4, zero=True)


@pytest.mark.parametrize("case", CHAIN_CASES, ids=triple_id)
def test_chains_cover_the_triple(case):
    """Each index lies on one chain, the chain's links are the nonzero
    entries of the float E, unit_k sqrt((k+1)(d-1-k)), and its weights on
    the diagonal of the float H run d-1, ..., -(d-1)."""
    triple = build_triple(case)
    chains = triple.exact.chains
    n = triple.algebra.size
    assert sorted(i for idx, _ in chains for i in idx) == list(range(n))
    e = np.zeros((n, n), dtype=triple.e.dtype)
    for idx, units in chains:
        d = len(idx)
        assert len(units) == d - 1
        for k, unit in enumerate(units):
            e[idx[k], idx[k + 1]] = unit * np.sqrt((k + 1) * (d - 1 - k))
        assert [triple.h[i, i] for i in idx] == list(range(d - 1, -d, -2))
    assert np.array_equal(triple.e, e)


def _spectral_projection(x, a, exact):
    """Reference oracle: the projection of the mp matrix x onto the fixed
    space of Ad(rho(a)) along its other eigenspaces, as a polynomial in
    Ad(rho(a)), for a hyperbolic 2x2 mp matrix a.  Ad(rho(a)) is lambda**d
    on the H-weight difference d, lambda the larger eigenvalue of a, so the
    product of (Ad(rho(a)) - lambda**d) / (1 - lambda**d) over the
    differences d != 0 keeps the part with d = 0 alone.  rho(a) comes from
    the Iwasawa oracle, on a scaled to det 1 (the eigenvectors stay)."""
    import mpmath as mp
    h = list(exact.h)
    e, f = mp_triple(exact)
    a = a / mp.sqrt(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
    rho_a = _iwasawa_rho(e, f, h, a)
    rho_a_inv = mp.inverse(rho_a)
    tr = a[0, 0] + a[1, 1]
    lam = (tr + mp.sqrt(tr * tr - 4)) / 2
    for d in sorted({p - q for p in h for q in h} - {0}):
        x = (rho_a * x * rho_a_inv - lam ** d * x) / (1 - lam ** d)
    return x


@pytest.mark.parametrize("case", CHAIN_CASES, ids=triple_id)
def test_twist_is_the_spectral_projection(case):
    """On seeded random complex inputs x, as the vector of a piece with
    i > 0, the verified twist at dps 40 is exp(t P(x)) to 1e-35, P the
    projection onto the centralizer of rho(a) as a polynomial in Ad(rho(a))
    (`_spectral_projection`, at dps 100), for the genus-2 generator a_1, and
    it commutes with rho(a) at the working precision."""
    import mpmath as mp
    exact = build_triple(case).exact
    rho = Sl2Images(exact)
    n = len(exact.h)
    rng = np.random.default_rng(n * 100 + len(exact.chains))
    prec = dps_to_bits(40)
    a = mp_fuchsian(2, prec)[0][0][0]
    for t in (0.3, -1.7):
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        twist = _twist_of(x, rho, a, t, prec)
        _assert_commutes(rho, a, prec, twist)
        with mp.workdps(100):
            want = mp.expm(t * _spectral_projection(mp.matrix(x.tolist()), to_mp(a), exact))
            assert _rel(to_mp(twist[0]), want) < 1e-35


@pytest.mark.parametrize("case", CHAIN_CASES, ids=triple_id)
def test_closed_form_entries_are_the_taylor_sum(case):
    """rho(exp(s E_2)) and rho(exp(s F_2)) are the Taylor sums of exp(s E) and
    exp(s F), with the same zero pattern, and rho(diag(r, 1/r)) is
    diag(r**h_i), entry by entry, at s = 1, -3/7 and r = 5/3, -2, 10**6 (whose
    entries span up to 72 orders of magnitude)."""
    import mpmath as mp
    exact = build_triple(case).exact
    n = len(exact.h)
    rho = Sl2Images(exact)
    with mp.workdps(40):
        e_mp, f_mp = mp_triple(exact)
        for s in (mp.mpf(1), mp.mpf(-3) / 7):
            for g, m in ((mp.matrix([[1, s], [0, 1]]), e_mp), (mp.matrix([[1, 0], [s, 1]]), f_mp)):
                got, want = to_mp(_pair(rho, g)[0]), _taylor_exp(s * m)
                for i in range(n):
                    for j in range(n):
                        assert (got[i, j] == 0) == (want[i, j] == 0)
                        assert abs(got[i, j] - want[i, j]) <= mp.mpf(10) ** -38 * abs(want[i, j])
        for r in (mp.mpf(5) / 3, mp.mpf(-2), mp.mpf(10) ** 6):
            got = to_mp(_pair(rho, mp.matrix([[r, 0], [0, 1 / r]]))[0])
            for i in range(n):
                for j in range(n):
                    want = r ** exact.h[i] if i == j else 0
                    assert abs(got[i, j] - want) <= mp.mpf(10) ** -38 * abs(want)


@pytest.mark.parametrize("bits", [1, 53, 156, 352])
@pytest.mark.parametrize("k", range(9))
def test_chain_constants_are_the_binomial_square_roots(k, bits):
    """root[q][p] is floor(sqrt(C(k, p) / C(k, q)) * 2**frac), checked in
    integers, and carries more than bits bits, the smallest one too."""
    from math import comb
    root, frac = _chain_constants(k, bits)
    assert len(root) == k + 1 and all(len(row) == k + 1 for row in root)
    for q in range(k + 1):
        for p in range(k + 1):
            r, num, den = root[q][p], comb(k, p) << 2 * frac, comb(k, q)
            assert r * r * den <= num < (r + 1) ** 2 * den
            assert r.bit_length() > bits
        assert root[q][q] == 1 << frac
    assert _chain_constants(k, bits) is _chain_constants(k, bits)


def test_chain_constants_are_not_built_at_import():
    import subprocess
    import sys
    code = ("import liebend.intkernel as h; "
            "assert h._chain_constants.cache_info().currsize == 0")
    src = Path(__file__).resolve().parents[1] / "src"
    subprocess.run([sys.executable, "-c", code], check=True, cwd=src)


@pytest.mark.parametrize("chains, match", [
    ((((0, 1), (1,)), ((2, 3), (1j,))), "different units"),
    ((((0, 1), (1,)), ((0, 2), (1,))), "exactly once"),
    ((((0, 2), (1,)),), "exactly once"),
    ((((0, 1), (1,)), ((), ())), "empty"),
    ((((0, 1), ()),), "needs 1 units"),
    ((((0, 1), (1, 1)),), "needs 1 units"),
    ((((0, 1, 2), (1, 2)),), "each a power of i"),
    ((((0, 1), ((1 + 1j) / abs(1 + 1j),)),), "each a power of i"),
], ids=["mismatched-unit", "branching", "index-on-no-chain", "empty-chain", "missing-unit",
        "extra-unit", "unit-not-unimodular", "unit-not-power-of-i"])
def test_chains_reject_other_shapes(chains, match):
    with pytest.raises(ParameterError, match=match):
        ExactTriple(chains)


@pytest.mark.parametrize("spec", [
    {"family": "sl", "n": 5, "triple": {"partition": [4, 1]}, "genus": 4},
    {"family": "su", "p": 3, "q": 1, "triple": "rho2", "genus": 5},
], ids=["sl5-[4,1]-g4", "su3,1-rho2-g5"])
def test_trivial_pieces_verify_to_working_precision(spec):
    from liebend.report import cmd_bend
    report = cmd_bend(dict(spec, t="auto", verify_dps=40), DEFAULT)
    resid = next(c.verdict for c in report.checks if c.check_id == "bend/residuals")
    assert resid["verified"]["bent_residual"] <= 1e-20


def _images(triple):
    return (Sl2Images(triple.exact), *mp_triple(triple.exact), list(triple.exact.h))


def _sl2_samples():
    """Seeded unimodular matrices with a > 0, a < 0, |a| < |c|, a = 0 and
    d = 0, plus the conjugators of the genus-2 side pairings."""
    import mpmath as mp
    rng = np.random.default_rng(7)
    out = []
    for a, c in [(1.3, 0.4), (-0.8, 0.5), (0.2, -1.7), (-0.3, -2.5), (2.0, 2.0)]:
        b = float(rng.normal())
        a, b, c = mp.mpf(a), mp.mpf(b), mp.mpf(c)
        out.append(mp.matrix([[a, b], [c, (1 + b * c) / a]]))
    for c in (mp.mpf(1.5), mp.mpf(-0.25)):
        out.append(mp.matrix([[0, -1 / c], [c, mp.mpf(float(rng.normal()))]]))
        out.append(mp.matrix([[mp.mpf(float(rng.normal())), -1 / c], [c, 0]]))
    out += [to_mp(conjugator(g, mp.mp.prec)) for pair in mp_fuchsian(2, mp.mp.prec)[0]
            for g in pair]
    return out


def _rel(got, want):
    import mpmath as mp
    return mp.norm(got - want) / mp.norm(want)


# the constructed triples, plus the longest chains: lengths 6 and 7
_ORACLE_CASES = CONSTRUCTED + [("sl", (6,), (6,)), ("sl", (7,), (7,)), ("su", (4, 3), "rho2")]


@pytest.mark.parametrize("case", _ORACLE_CASES, ids=triple_id)
def test_closed_form_matches_iwasawa_oracle(case):
    import mpmath as mp
    with mp.workdps(40):
        rho, e_mp, f_mp, h_int = _images(build_triple(case))
        samples = _sl2_samples()
        assert any(g[0, 0] < 0 for g in samples)
        assert any(g[0, 0] == 0 for g in samples)
        assert any(g[1, 1] == 0 for g in samples)
        assert any(abs(g[0, 0]) < abs(g[1, 0]) for g in samples)
        for g in samples:
            assert _rel(to_mp(_pair(rho, g)[0]), _iwasawa_rho(e_mp, f_mp, h_int, g)) < 1e-30


_HOMOMORPHISM_CASES = CONSTRUCTED[::3] + _ORACLE_CASES[len(CONSTRUCTED):]


@pytest.mark.parametrize("case", _HOMOMORPHISM_CASES, ids=triple_id)
def test_closed_form_is_a_homomorphism(case):
    """rho(g) rho(g^-1) = I and rho(g) rho(k) = rho(g k); the inverse of a
    pair is the image of the adjugate, to the bit."""
    import mpmath as mp
    triple = build_triple(case)
    with mp.workdps(40):
        rho = _images(triple)[0]
        samples = _sl2_samples()
        eye = mp.eye(triple.algebra.size)
        for g, k in zip(samples, samples[1:] + samples[:1]):
            g_img, g_inv = _pair(rho, g)
            adj = _pair(rho, sl2_inverse(g))[0]
            assert g_inv.exp == adj.exp and np.array_equal(g_inv.re, adj.re)
            assert (g_inv.im is None) == (adj.im is None)
            assert g_inv.im is None or np.array_equal(g_inv.im, adj.im)
            assert (mp.norm(to_mp(_times(g_img, g_inv)) - eye)
                    < 1e-30 * mp.norm(to_mp(g_img)) * mp.norm(to_mp(g_inv)))
            assert _rel(to_mp(_times(g_img, _pair(rho, k)[0])), to_mp(_pair(rho, g * k)[0])) < 1e-30


@pytest.mark.parametrize("genus", [2, 6])
def test_length_two_chain_images_are_the_matrices(genus):
    """On a chain of length 2 with unit 1, rho is the identity map: rho(g)
    holds g's own mantissas, so sl(2) [2]'s pushed relation word is the seed
    word multiplied on the integer kernel, and its residual is the seed
    residual to the bit."""
    import mpmath as mp
    from liebend.algebra import make_algebra
    from liebend.report import cmd_bend
    triple = sl2_from_partition(make_algebra("sl", 2), (2,))
    with mp.workdps(40):
        rho = Sl2Images(triple.exact)
        a_mp, b_mp = _polygon_sides(genus, mp.mp.prec)
        for g in a_mp + b_mp:
            got, got_inv = _pair(rho, g)
            assert to_mp(got) == g and to_mp(got_inv) == sl2_inverse(g)
    plan = {"family": "sl", "n": 2, "triple": {"partition": [2]}, "genus": genus}
    report = cmd_bend(dict(plan, t="auto", verify_dps=40), DEFAULT)
    verified = next(c.verdict for c in report.checks
                    if c.check_id == "bend/residuals")["verified"]
    assert verified["pushed_residual"] == verified["seed_residual"]


def test_quarter_turn_image(sl5):
    """rho(w) of the quarter turn w = [[0, 1], [-1, 0]] (a = d = 0) against
    the Iwasawa oracle, and rho(w)^2 = rho(-I) = diag((-1)**h_i)."""
    import mpmath as mp
    from liebend.algebra import make_algebra
    with mp.workdps(40):
        for triple in (sl2_from_partition(sl5, (5,)), sl2_from_partition(sl5, (3, 2)),
                       rho2_su(make_algebra("su", 3, 2))):
            rho, e_mp, f_mp, h_int = _images(triple)
            w, w_inv = _pair(rho, mp.matrix([[0, 1], [-1, 0]]))
            want = _iwasawa_rho(e_mp, f_mp, h_int, mp.matrix([[0, 1], [-1, 0]]))
            assert _rel(to_mp(w), want) < 1e-35
            assert _rel(to_mp(w_inv), want ** -1) < 1e-35
            assert mp.norm(to_mp(_times(w, w)) - mp.diag([(-1) ** h for h in h_int])) < 1e-35


def test_block_twist_matches_expm(rng):
    import mpmath as mp
    from liebend.algebra import make_algebra
    alg = make_algebra("sl", 5)
    triple = sl2_from_partition(alg, (3, 1, 1))  # H = diag(2, 0, 0, 0, -2)
    h_int = [round(float(triple.h[i, i])) for i in range(5)]
    x_fixed = _weight_zero(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)), h_int)
    x = to_mp(x_fixed)
    assert x[0, 1] == 0 and x[1, 2] != 0
    with mp.workdps(40):
        for t in (mp.mpf("0.3"), mp.mpf("-1.7")):
            twist, twist_inv = map(to_mp, expm_pair(x_fixed, mp_pair(t), mp.mp.prec))
            assert _rel(twist, mp.expm(t * x)) < 1e-35
            assert _rel(twist_inv, mp.expm(-t * x)) < 1e-35


def _block_cases():
    """2x2 blocks: mu**2 > 0, mu**2 < 0, mu = 0 with a nilpotent part (real and
    complex), a complex block, and one with mu**2 complex."""
    import mpmath as mp
    return {
        "mu2-positive": mp.matrix([[mp.mpf("0.7"), mp.mpf("1.3")], [mp.mpf("0.4"), -0.2]]),
        "mu2-negative": mp.matrix([[mp.mpf("0.3"), mp.mpf("-2.1")], [mp.mpf("1.7"), 0.5]]),
        "nilpotent": mp.matrix([[mp.mpf("0.25"), mp.mpf("1.5")], [0, mp.mpf("0.25")]]),
        "complex-nilpotent": mp.matrix([[1j, mp.mpf(1)], [mp.mpf(1), -1j]]),
        "complex": mp.matrix([[mp.mpc("0.3", "-1.2"), mp.mpc("0.8", "0.1")],
                              [mp.mpc("-0.5", "0.6"), mp.mpc("-0.3", "1.2")]]),
        "complex-mu2": mp.matrix([[mp.mpc("0.1", "0.4"), mp.mpf("0.9")],
                                  [mp.mpc("0", "0.7"), mp.mpf("-0.6")]]),
    }


def _block_sizes(monkeypatch):
    """The sizes of the blocks `elementary.expm` exponentiates from here on,
    in order: 1 for the scalar loop, the block's size for the Taylor one.
    `cos_sin` runs the scalar loop too; its calls are not expm's blocks."""
    sizes = []
    scalar, block = elementary._exp_scalar, elementary._exp_block

    def counting_scalar(*args):
        if sys._getframe(1).f_code is elementary.expm.__code__:
            sizes.append(1)
        return scalar(*args)

    def counting_block(s, w, *parts):
        sizes.append(len(parts[0]))
        return block(s, w, *parts)

    monkeypatch.setattr(elementary, "_exp_scalar", counting_scalar)
    monkeypatch.setattr(elementary, "_exp_block", counting_block)
    return sizes


@pytest.mark.parametrize("case", list(_block_cases()))
def test_2x2_block_matches_mp_expm(case, monkeypatch):
    """`elementary.expm` of t x, t x formed exactly, is within 1e-35 of
    mp.expm at dps 40 at t and at -t for the 2x2 blocks the closed form
    once took (mu**2 positive, negative, zero and complex), as one block;
    the two are inverse to 1e-35, and a real block stays real."""
    import mpmath as mp
    sizes = _block_sizes(monkeypatch)
    with mp.workdps(40):
        x = _block_cases()[case]
        if case.endswith("nilpotent"):
            d = (x[0, 0] - x[1, 1]) / 2
            assert d * d + x[0, 1] * x[1, 0] == 0
        for t in (mp.mpf("0.3"), mp.mpf("-1.7")):
            twist, twist_inv = expm_pair(from_mp(x), mp_pair(t), mp.mp.prec)
            if all(isinstance(v, mp.mpf) for v in x):
                assert twist.im is None and twist_inv.im is None
            twist, twist_inv = to_mp(twist), to_mp(twist_inv)
            assert _rel(twist, mp.expm(t * x)) < 1e-35
            assert _rel(twist_inv, mp.expm(-t * x)) < 1e-35
            assert mp.norm(twist * twist_inv - mp.eye(2)) < 1e-35
    assert sizes == [2, 2, 2, 2]


@pytest.mark.parametrize("kind", ["complex", "real"])
def test_3x3_block_takes_taylor(rng, kind, monkeypatch):
    """A twist with one 3x3 H-block between two scalars is exponentiated
    block by block, at t and at -t, within 1e-35 of mp.expm at dps 40, and
    the two are inverse to 1e-35; a real block stays real.  A block four
    times larger at t = -2.5 (entries near 1e5) meets the same bounds
    relative to the norms."""
    import mpmath as mp
    h_int = [2, 0, 0, 0, -2]  # one 3x3 block between two scalars
    x = rng.normal(size=(5, 5))
    x = x + 1j * rng.normal(size=(5, 5)) if kind == "complex" else x
    sizes = _block_sizes(monkeypatch)
    for scale, t, bound in ((1, "0.4", None), (4, "-2.5", "relative")):
        x_fixed = _weight_zero(scale * x, h_int)
        x_mp = to_mp(x_fixed)
        with mp.workdps(40):
            t = mp.mpf(t)
            twist, twist_inv = expm_pair(x_fixed, mp_pair(t), mp.mp.prec)
            assert (twist.im is None) == (twist_inv.im is None) == (kind == "real")
            twist, twist_inv = to_mp(twist), to_mp(twist_inv)
            assert _rel(twist, mp.expm(t * x_mp)) < 1e-35
            assert _rel(twist_inv, mp.expm(-t * x_mp)) < 1e-35
            size = mp.norm(twist) * mp.norm(twist_inv) if bound else 1
            assert mp.norm(twist * twist_inv - mp.eye(5)) < 1e-35 * size
    assert sizes == [1, 3, 1] * 4


def test_block_diagonal_matrix_is_exponentiated_per_block(rng, monkeypatch):
    """A matrix whose nonzero pattern splits, up to a permutation, into
    blocks {0, 3}, {1, 2, 4} and {5} gives the per-block exponentials: each
    block within 1e-35 of mp.expm of that block alone, and every entry
    between two blocks exactly 0."""
    import mpmath as mp
    blocks = [[0, 3], [1, 2, 4], [5]]
    x = np.zeros((6, 6), dtype=complex)
    for idx in blocks:
        x[np.ix_(idx, idx)] = rng.normal(size=(len(idx),) * 2) + 1j * rng.normal(size=(len(idx),) * 2)
    sizes = _block_sizes(monkeypatch)
    with mp.workdps(40):
        got = to_mp(elementary.expm(FixedMatrix.from_float(x), mp.mp.prec))
        for idx in blocks:
            sub = mp.matrix([[mp.mpmathify(complex(x[i, j])) for j in idx] for i in idx])
            want = mp.expm(sub)
            assert _rel(mp.matrix([[got[i, j] for j in idx] for i in idx]), want) < 1e-35
    outside = [(i, j) for i in range(6) for j in range(6)
               if not any(i in idx and j in idx for idx in blocks)]
    assert all(got[i, j] == 0 for i, j in outside)
    assert sizes == [2, 3, 1]


@pytest.mark.parametrize("spec", [
    {"family": "sl", "n": 4, "triple": {"partition": [3, 1]}, "genus": 5},
    {"family": "su", "p": 3, "q": 1, "triple": "rho2", "genus": 5},
], ids=["sl4-[3,1]-g5", "su3,1-rho2-g5"])
def test_verify_takes_2x2_blocks_by_taylor(spec, monkeypatch):
    """The plans whose twists have 2x2 H-blocks verify with the Taylor loop
    run on those blocks and the scalar loop on the rest, never on a block
    larger than 2."""
    from liebend.report import cmd_bend
    sizes = _block_sizes(monkeypatch)
    report = cmd_bend(dict(spec, t="auto", verify_dps=40), DEFAULT)
    resid = next(c.verdict for c in report.checks if c.check_id == "bend/residuals")
    assert set(sizes) == {1, 2}
    assert resid["verified"]["bent_residual"] <= 1e-20


def _old_distance(m, f):
    """Reference oracle: the entry loop max_entry_distance replaced, at 60
    digits, so that its one rounding to a float is the last that counts."""
    import mpmath as mp
    m_mp = to_mp(m)
    rows, cols = m.shape
    with mp.workdps(60):
        return max(float(abs(m_mp[i, j] - mp.mpmathify(complex(f[i, j]))))
                   for i in range(rows) for j in range(cols))


@pytest.mark.parametrize("spec", [
    "su21-rho1-g2", "sl5-even5-g4",
    {"family": "sl", "n": 4, "triple": {"partition": [4]}, "genus": 3},
    {"family": "su", "p": 3, "q": 2, "triple": "rho2", "genus": 4},
], ids=["su21-rho1-g2", "sl5-even5-g4", "sl4-[4]-g3", "su3,2-rho2-g4"])
def test_mantissa_distance_is_the_entry_loop(spec, monkeypatch):
    from liebend.report import cmd_bend
    real = highprec.max_entry_distance
    pairs = []

    def checked(m, f):
        got = real(m, f)
        assert got == _old_distance(m, f)
        pairs.append(got)
        return got

    monkeypatch.setattr(highprec, "max_entry_distance", checked)
    spec = spec if isinstance(spec, str) else dict(spec, t="auto", verify_dps=40)
    report = cmd_bend(spec, DEFAULT)
    resid = next(c.verdict for c in report.checks if c.check_id == "bend/residuals")
    assert pairs and resid["verified"]["max_entry_distance_to_shipped"] == max(pairs)


def test_mantissa_distance_edge_cases():
    import mpmath as mp
    with mp.workdps(30):
        third = from_mp(mp.matrix([[mp.mpf(1) / 3, 0], [mp.mpc(0, -2), 2]]))
        f = np.array([[1 / 3, 1e-300], [-2j, 2.0]])
        assert max_entry_distance(third, f) == _old_distance(third, f)
        exact = from_mp(mp.matrix([[0.5, -0.25]]))
        assert max_entry_distance(exact, np.array([[0.5, -0.25]])) == 0.0
        assert max_entry_distance(exact, np.array([[0.5, np.nan]])) == np.inf


def test_verify_su21_never_exponentiates_full_matrix(monkeypatch):
    """The su(2,1) rho1 twists are diagonal: `elementary.expm` takes each
    entry by the scalar loop and never runs Taylor on the whole matrix."""
    from liebend.bending import build_plan, fuchsian_generators
    from liebend.report import PRESETS, _algebra_from_plan, _triple_from_spec
    spec = PRESETS["su21-rho1-g2"]
    alg = _algebra_from_plan(spec, DEFAULT)
    seed = fuchsian_generators(spec["genus"])
    plan = build_plan(_triple_from_spec(alg, spec["triple"]), seed, t=spec["t"])
    plan.bent
    sizes = _block_sizes(monkeypatch)
    report = verify_bent_relation(plan, dps=spec["verify_dps"])
    assert report["bent_residual"] < 1e-35
    assert sizes and set(sizes) == {1}


# --- accuracy guard against the benchmark's recorded residuals ----------------

_RECORDED = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "expect"
                        / "bend_plans.json").read_text())["plans"]


def _plan_id(plan):
    fam = (f"sl{plan['n']}" if plan["family"] == "sl" else f"su{plan['p']},{plan['q']}")
    tri = plan["triple"]
    tri = "[" + ",".join(map(str, tri["partition"])) + "]" if isinstance(tri, dict) else tri
    return f"{fam}-{tri}-g{plan['genus']}"


# every timed plan of the benchmark (those that PASS), plus the su(2,1) preset
_GUARDED = [pytest.param(r["plan"], id=_plan_id(r["plan"])) for r in _RECORDED if r["timed"]]
_GUARDED.append(pytest.param("su21-rho1-g2", id="su21-rho1-g2"))


@pytest.mark.parametrize("plan", _GUARDED)
def test_verified_residual_within_100x_of_recorded(plan):
    """The benchmark's rule: a verified bent residual may grow to 100 times
    the value recorded in perfbench/expect/bend_plans.json, no further."""
    from liebend.report import PRESETS, cmd_bend
    spec = PRESETS[plan] if isinstance(plan, str) else dict(plan, t="auto", verify_dps=40)
    key = {k: spec[k] for k in spec if k not in ("t", "verify_dps")}
    recorded = next(r["verified_residual"] for r in _RECORDED if r["plan"] == key)
    report = cmd_bend(spec, DEFAULT)
    resid = next(c.verdict for c in report.checks if c.check_id == "bend/residuals")
    assert resid["verified"]["dps"] == 40
    assert resid["verified"]["bent_residual"] <= 100 * recorded


@pytest.mark.parametrize("plan", _GUARDED)
def test_verified_twists_commute_with_their_generator(plan, monkeypatch):
    """At dps 40 every verified twist of the plan commutes with the kernel's
    rho(a_k) at the working precision (`_assert_commutes`), which makes the
    bent relation exact: the shipped bending vector is taken in the
    centralizer of rho(a_k)."""
    from liebend.report import PRESETS, cmd_bend
    spec = PRESETS[plan] if isinstance(plan, str) else dict(plan, t="auto", verify_dps=40)
    seen = _recorded_twists(monkeypatch)
    cmd_bend(spec, DEFAULT)
    assert seen
    for _, _, rho, a, prec, twist in seen:
        assert prec == dps_to_bits(40)
        _assert_commutes(rho, a, prec, twist)


@pytest.mark.parametrize("plan", _GUARDED + [pytest.param("sl5-even5-g4", id="sl5-even5-g4")])
def test_verified_bending_vectors_stay_near_the_shipped(plan, monkeypatch):
    """At dps 40 the verified bending vector of each piece with i > 0,
    rho(c) Y rho(c)^-1 with Y as `_twist` exponentiates it, lies within
    1e-9 max|X_k| of the shipped X_k, entry by entry: the zeroing in the
    frame of rho(c) moves it by the float lane's rounding of X_k times the
    condition of Ad(rho(c)) (worst 2.7e-10, sl(5) [5] g6, piece (3,1))."""
    from liebend.report import PRESETS, cmd_bend
    spec = PRESETS[plan] if isinstance(plan, str) else dict(plan, t="auto", verify_dps=40)
    twists = _recorded_twists(monkeypatch)
    ys, real = [], highprec.expm_pair
    monkeypatch.setattr(highprec, "expm_pair", lambda y, *args: ys.append(y) or real(y, *args))
    cmd_bend(spec, DEFAULT)
    assert twists and len(ys) == len(twists)
    for (bent, ij, rho, a, prec, _), y in zip(twists, ys):
        if ij[0] == 0:
            continue
        bits = prec + GUARD_BITS
        rho_c, rho_c_inv = rho.pair(conjugator(a, bits), bits)
        x_ship = bent.x[ij]
        assert (max_entry_distance(product(bits, rho_c, y, rho_c_inv), x_ship)
                <= 1e-9 * np.abs(x_ship).max())


@pytest.mark.parametrize("plan", [p for p in _GUARDED if not isinstance(p.values[0], str)])
def test_float_residual_within_100x_of_recorded(plan):
    """The benchmark's rule for bend-float: without verification, the
    float64 bent residual may grow to 100 times the value recorded in
    perfbench/expect/bend_plans.json, no further."""
    from liebend.report import cmd_bend
    recorded = next(r["float_residual"] for r in _RECORDED if r["plan"] == plan)
    report = cmd_bend(dict(plan, t="auto", verify_dps=0), DEFAULT)
    resid = next(c.verdict for c in report.checks if c.check_id == "bend/residuals")
    assert "verified" not in resid
    assert resid["bent_residual"] <= 100 * recorded


# --- the integer kernel against the mp closed forms it replaced ----------

@pytest.mark.parametrize("dps", [15, 32, 40, 60])
def test_conjugator_is_the_mp_closed_form(dps):
    """On the mp polygon generators of genus 2-8 and on seeded hyperbolic
    matrices (diagonal ones too) the integer conjugator holds the very value
    each mp step of the closed form rounds to."""
    import mpmath as mp
    rng = np.random.default_rng(dps)
    with mp.workdps(dps):
        samples = [g for genus in range(2, 9) for side in _polygon_sides(genus, mp.mp.prec)
                   for g in side]
        while len(samples) < 120:
            a, b, c = (mp.mpf(float(v)) for v in 3 * rng.normal(size=3))
            g = mp.matrix([[a, b], [c, (1 + b * c) / a]])
            if abs(g[0, 0] + g[1, 1]) > 2:
                samples.append(g)
        samples += [mp.diag([mp.mpf(3), 1 / mp.mpf(3)]), mp.diag([1 / mp.mpf(3), mp.mpf(3)])]
        for g in samples:
            got = to_mp(conjugator(from_mp(g), mp.mp.prec))
            assert got == _mp_conjugator(g)


def test_float_conjugator_diagonalizes_the_polygon():
    """The kernel's conjugator at FIXED_LINE_BITS, rounded once to float64
    (`float_conjugator`), on every polygon generator a of genus 2-31:
    k^-1 a k, formed exactly in rationals, is diagonal to 1e-11 of its
    larger eigenvalue in size, the eigenvalues descend, and det k is 1 up to
    the rounding of k.
    The worst off-diagonal, 3.7e-12 at genus 31, comes from the kernel
    reading det a as 1: the float side pairings miss det 1 by up to 1.3e-12
    there."""
    from liebend.bending import fuchsian_generators
    for genus in range(2, 32):
        for a in fuchsian_generators(genus).generators():
            k = float_conjugator(a)
            (p, q), (r, s) = [[Fraction(float(v)) for v in row] for row in k]
            det = p * s - q * r
            # each entry rounded once: det k moves by at most eps (|ps| + |qr|)
            assert abs(det - 1) <= Fraction(np.finfo(float).eps) * (abs(p * s) + abs(q * r))
            a_q = [[Fraction(float(v)) for v in row] for row in a]
            ka = [[sum(x * y for x, y in zip(row, col)) for col in zip(*a_q)]
                  for row in ((s / det, -q / det), (-r / det, p / det))]
            (d00, d01), (d10, d11) = [[sum(x * y for x, y in zip(row, col))
                                       for col in ((p, r), (q, s))] for row in ka]
            assert d00 > d11
            assert max(abs(d01), abs(d10)) <= Fraction(1, 10 ** 11) * max(abs(d00), abs(d11))


def test_conjugator_rejects_an_elliptic_element():
    rot = np.array([[np.cos(0.4), np.sin(0.4)], [-np.sin(0.4), np.cos(0.4)]])
    with pytest.raises(ParameterError, match="hyperbolic"):
        conjugator(FixedMatrix.from_float(rot), 110)


def _same_value(got, want):
    """Two FixedMatrix hold the same entries, whatever their exponents."""
    def value(m):
        scale = Fraction(2) ** m.exp
        im = np.zeros(m.shape, dtype=int) if m.im is None else m.im
        return [(r * scale, i * scale) for r, i in zip(m.re.ravel().tolist(), im.ravel().tolist())]
    return value(got) == value(want)


_PROJECTION_CASES = [("sl", (5,), (3, 1, 1)), ("sl", (5,), (2, 2, 1)), ("sl", (4,), (2, 1, 1)),
                     ("su", (3, 1), "rho2"), ("su", (3, 2), "rho2")]


@pytest.mark.parametrize("dps", [20, 40])
@pytest.mark.parametrize("case", _PROJECTION_CASES, ids=lambda c: f"{c[0]}{c[1]}-{c[2]}")
def test_projections_are_the_mp_projections(case, dps, monkeypatch):
    """The matrices `_twist` exponentiates hold the values that the mp
    projections round to at the twist's precision, on seeded inputs X whose
    entries span many binary orders of magnitude: for a piece with i > 0,
    rho(c)^-1 X rho(c) with its entries between unequal H-weights zeroed (c
    the conjugator of a genus-2 generator)."""
    import mpmath as mp
    from liebend.algebra import make_algebra
    family, params, spec = case
    alg = make_algebra(family, *params)
    exact = (sl2_from_partition(alg, spec) if family == "sl" else rho2_su(alg)).exact
    rho, n = Sl2Images(exact), len(exact.h)
    rng = np.random.default_rng(dps + n)
    prec = dps_to_bits(dps)
    bits = prec + GUARD_BITS
    seen = []
    monkeypatch.setattr(highprec, "expm_pair", lambda y, t, p: seen.append(y) or (y, y))
    for a in (g for pair in mp_fuchsian(2, prec)[0] for g in pair):
        rho_c, rho_c_inv = (to_mp(m) for m in rho.pair(conjugator(a, bits), bits))
        for _ in range(3):
            x = rng.normal(size=(n, n)) * np.exp(10 * rng.normal(size=(n, n)))
            if np.iscomplexobj(alg.basis):
                x = x + 1j * rng.normal(size=(n, n))
            _twist_of(x, rho, a, 0.5, prec)
            with mp.workprec(bits):
                want = rho_c_inv * mp.matrix(x.tolist()) * rho_c
            for i in range(n):
                for j in range(n):
                    if exact.h[i] != exact.h[j]:
                        want[i, j] = 0
            assert _same_value(seen.pop(), from_mp(want))


def _line_oracle(exact, a, v0):
    """Reference oracle: Ad(rho(k)) v0 at 60 digits, with k the mp closed-form
    conjugator and rho by the Iwasawa factorization, rounded once."""
    import mpmath as mp
    with mp.workdps(60):
        k = _mp_conjugator(mp.matrix(np.asarray(a, dtype=float).tolist()))
        e_mp, f_mp = mp_triple(exact)
        h_int = list(exact.h)
        rho_k = _iwasawa_rho(e_mp, f_mp, h_int, k)
        line = rho_k * _weight_purify(v0, exact.h) * mp.inverse(rho_k)
        return np.array(line.tolist(), dtype=complex)


_FIXED_POINT_MISSES = {"sl(6,)-[6]", "sl(6,)-[5,1]", "su(4, 2)-rho2", "su(4, 3)-rho2"}


@pytest.mark.parametrize("case", triple_cases(6, 4), ids=triple_id)
def test_fixed_line_matches_the_60_digit_oracle(case):
    """The float lane's line, read off Sym^2i of the conjugator
    (`fixed_weight_zero_vector`), is within 1e-12 of the unit coordinates
    of the 60-digit oracle, for every piece with i > 0, at genus
    max(|Lambda|, 2) and at genus 6 (pieces whose generator index exceeds
    the genus have no generator there): these genera hold every bent piece
    of perfbench's timed plans."""
    from liebend.bending import fixed_weight_zero_vector, fuchsian_generators
    from liebend.sl2 import module_multiplicities, rho_of
    triple = build_triple(case)
    alg = triple.algebra
    iso = module_multiplicities(alg, triple)
    checked = 0
    for genus in sorted({max(len(iso.Lambda), 2), 6}):
        seed = fuchsian_generators(genus)
        for k, (i, j) in enumerate(iso.Lambda, start=1):
            if i == 0 or k > genus:
                continue
            a = seed.a[k - 1]
            v0 = alg.from_coordinates(iso.piece_columns[(i, j)][:, i])
            want = _line_oracle(triple.exact, a, v0)
            checked += 1
            unit = alg.coordinates(want) / np.linalg.norm(alg.coordinates(want))
            try:
                x = alg.coordinates(fixed_weight_zero_vector(iso, i, j, a, rho_of(triple, a)))
            except RealizationError:
                # Ad(rho(a)) stretches the line's rounding past
                # FIXED_POINT_TOL in these coverage triples (ROADMAP item 20)
                assert triple_id(case) in _FIXED_POINT_MISSES
                continue
            assert np.abs(x - np.sign(unit @ x) * unit).max() <= 1e-12
    assert checked or all(i == 0 for i, _ in iso.Lambda)


def _probe(code):
    """The last stdout line of code run in a fresh interpreter on src, as JSON."""
    import os
    import subprocess
    import sys
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_float_lines_load_no_mpmath(tmp_path):
    """sl(5) [5] at genus 6, with verify_dps 0: bend reads each of its four
    bending lines off the kernel's conjugator at 110 bits and loads neither
    mpmath nor the mp lane."""
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"family": "sl", "n": 5, "triple": {"partition": [5]},
                                "genus": 6, "t": "auto", "verify_dps": 0}))
    out = _probe(
        "import json, sys\n"
        "import liebend.cli, liebend.intkernel as k\n"
        "calls, real = [], k.conjugator\n"
        "k.conjugator = lambda *a: calls.append(a[1]) or real(*a)\n"
        f"rc = liebend.cli.main(['bend', '--plan', {str(plan)!r}, '--out', {str(tmp_path / 'out')!r}])\n"
        "loaded = [m for m in ('mpmath', 'liebend.highprec', 'liebend.elementary')\n"
        "          if m in sys.modules]\n"
        "print(json.dumps({'rc': rc, 'calls': calls, 'loaded': loaded}))\n")
    assert out["rc"] == 0 and out["loaded"] == []
    assert out["calls"] == [110] * 4


def test_verified_bend_loads_no_mpmath(tmp_path):
    """bend at verify_dps 40 runs the mp lane without mpmath: a plan with a
    2x2 H-block twist (su(3,1) rho2) and the su(2,1) preset."""
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"family": "su", "p": 3, "q": 1, "triple": "rho2", "genus": 5,
                                "t": "auto", "verify_dps": 40}))
    out = _probe(
        "import json, sys\n"
        "import liebend.cli\n"
        f"rc = [liebend.cli.main(['bend', '--plan', {str(plan)!r}, '--out', {str(tmp_path / 'a')!r}]),\n"
        f"      liebend.cli.main(['bend', '--preset', 'su21-rho1-g2', '--out', {str(tmp_path / 'b')!r}])]\n"
        "loaded = [m for m in ('mpmath', 'liebend.highprec', 'liebend.elementary')\n"
        "          if m in sys.modules]\n"
        "print(json.dumps({'rc': rc, 'loaded': loaded}))\n")
    assert out["rc"] == [0, 0]
    assert out["loaded"] == ["liebend.highprec", "liebend.elementary"]
    for name in ("a", "b"):
        verified = next(c["verdict"] for c in json.loads((tmp_path / name).read_text())["checks"]
                        if c["check"] == "bend/residuals")["verified"]
        assert verified["dps"] == 40 and verified["bent_residual"] < 1e-20


_DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("name, spec", [
    ("verified_su21-rho1-g2.json", "su21-rho1-g2"),
    ("verified_sl5-even5-g4.json", "sl5-even5-g4"),
    ("verified_su3_1-rho2-g6.json", {"family": "su", "genus": 6, "p": 3, "q": 1,
                                     "triple": "rho2", "t": "auto", "verify_dps": 40}),
], ids=["su21-rho1-g2", "sl5-even5-g4", "su3,1-rho2-g6"])
def test_verified_reports_keep_their_bytes(name, spec, tmp_path):
    """Reports at verify_dps 40, recorded with the float lane's lines read
    off the integer kernel's conjugator: a change of the float lines (which
    the shipped matrices and so every verified number follow), of the mp
    lane or of the report writer shows here.  Re-record only a change of bytes that is
    intended and explained, with the same bend command and
    `--out tests/data/<name>`.  The skeletons (every float masked) are
    compared first, so a failure says whether a verdict-bearing field or
    only floats moved."""
    from liebend.cli import main
    if isinstance(spec, str):
        argv = ["bend", "--preset", spec]
    else:
        (tmp_path / "plan.json").write_text(json.dumps(spec))
        argv = ["bend", "--plan", str(tmp_path / "plan.json")]
    assert main(argv + ["--out", str(tmp_path / "out.json")]) == 0
    got, recorded = (tmp_path / "out.json").read_bytes(), (_DATA / name).read_bytes()
    assert float_skeleton(json.loads(got)) == float_skeleton(json.loads(recorded)), \
        "the skeleton moved: a verdict, a dimension, a count or a text"
    assert got == recorded, "only floats moved"


@pytest.mark.parametrize("spec", [
    "su21-rho1-g2", "sl5-even5-g4",
    {"family": "sl", "n": 5, "triple": {"partition": [5]}, "genus": 6},
    {"family": "su", "p": 3, "q": 1, "triple": "rho2", "genus": 5},
], ids=["su21-rho1-g2", "sl5-even5-g4", "sl5-[5]-g6", "su3,1-rho2-g5"])
def test_identity_distance_is_the_mp_norm(spec, monkeypatch):
    """The verified residuals read from the mantissas, the seed's too, are
    the floats that mp.norm(W - I) gives at the working precision."""
    import mpmath as mp
    from liebend.report import cmd_bend
    real = highprec.identity_distance
    seen = []

    def checked(m, prec):
        got = real(m, prec)
        with mp.workprec(prec):
            assert got == float(mp.norm(to_mp(m) - mp.eye(m.shape[0])))
        seen.append(got)
        return got

    monkeypatch.setattr(highprec, "identity_distance", checked)
    spec = spec if isinstance(spec, str) else dict(spec, t="auto", verify_dps=40)
    report = cmd_bend(spec, DEFAULT)
    verified = next(c.verdict for c in report.checks if c.check_id == "bend/residuals")["verified"]
    # the seed residual too, when this genus's polygon is built here
    assert seen[-2:] == [verified["pushed_residual"], verified["bent_residual"]]
    assert seen[:-2] in ([], [verified["seed_residual"]])


def test_polygon_integer_form_is_built_once_per_genus_and_dps(fresh_caches, monkeypatch):
    """The polygon is cached per genus and precision: a second plan of the
    same genus verified at the same dps evaluates no elementary function of
    the polygon (cos_sin runs once for its side length and twice per side
    pairing)."""
    from liebend.algebra import make_algebra
    from liebend.bending import build_plan, fuchsian_generators
    from liebend.sl2 import rho1_su
    calls = []
    real = highprec.cos_sin

    def counting(x, prec):
        calls.append(x)
        return real(x, prec)

    monkeypatch.setattr(highprec, "cos_sin", counting)
    seed = fuchsian_generators(3)
    counts = []
    for triple in (sl2_from_partition(make_algebra("sl", 3), (3,)),
                   rho1_su(make_algebra("su", 2, 1))):
        plan = build_plan(triple, seed)
        calls.clear()
        verify_bent_relation(plan, dps=30)
        counts.append(len(calls))
    assert counts == [1 + 4 * 3, 0]
