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
from liebend.intkernel import (FixedMatrix, Sl2Images, _chain_constants, _round_nearest,
                               central_part, conjugator, product, weight_zero_part)
from liebend.sl2 import ExactTriple, rho2_su, sl2_from_partition

from conftest import (build_triple, float_conjugator, from_mp, mp_pair, sl2_inverse, to_mp,
                      triple_cases, triple_id)


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
    """Reference oracle: the mp weight-zero projection that
    `intkernel.weight_zero_part` replaced.  Zero the entries of x that carry
    a nonzero ad H weight and remove the residual trace, in mpmath at the
    context's precision."""
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


def _mp_central_part(x, exact):
    """Reference oracle: the mp chain averaging that `intkernel.central_part`
    replaced, at the context's precision."""
    import mpmath as mp
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
                rounded = m.to_complex()
                assert np.array_equal(rounded, m_fine.to_complex()), genus
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


_TRIVIAL_PIECES = [("sl", (5,), (4, 1), 4), ("sl", (3,), (2, 1), 2),
                   ("sl", (4,), (2, 1, 1), 5), ("su", (3, 1), "rho2", 5)]


@pytest.mark.parametrize("dps", [20, 40])
@pytest.mark.parametrize("case", _TRIVIAL_PIECES, ids=lambda c: f"{c[0]}{c[1]}-{c[2]}")
def test_central_part_commutes_with_the_triple(case, dps):
    """The projected X_{0,j} commutes with H, E and F at the working
    precision and stays within 1e-12 of the shipped vector."""
    import mpmath as mp
    from liebend.algebra import make_algebra
    from liebend.bending import build_plan, fuchsian_generators
    from liebend.sl2 import rho1_su
    family, params, spec, genus = case
    alg = make_algebra(family, *params)
    triple = (sl2_from_partition(alg, spec) if family == "sl"
              else {"rho1": rho1_su, "rho2": rho2_su}[spec](alg))
    plan = build_plan(triple, fuchsian_generators(genus), t=0.01)
    trivial = [ij for ij in plan.iso.Lambda if ij[0] == 0]
    assert trivial
    with mp.workdps(dps):
        e_mp, f_mp = mp_triple(triple.exact)
        h_mp = mp.diag(list(triple.exact.h))
        for ij in trivial:
            x_ship = plan.x[ij]
            prec = mp.mp.prec
            x = to_mp(central_part(weight_zero_part(x_ship, triple.exact.h, prec),
                                   triple.exact, prec))
            bound = mp.mpf(10) ** (5 - dps) * mp.norm(x)
            for y in (h_mp, e_mp, f_mp):
                assert mp.norm(x * y - y * x) <= bound
            moved = max(abs(complex(x[i, j]) - x_ship[i, j])
                        for i in range(alg.size) for j in range(alg.size))
            assert moved <= 1e-12


@pytest.mark.parametrize("parts", [(2, 1), (4, 1), (3, 2)])
def test_central_part_of_a_generic_matrix(parts, rng):
    """Any input, not only a weight-zero one, lands in the centralizer: the
    odd highest weights carry no weight-zero vector but must be removed too."""
    import mpmath as mp
    from liebend.algebra import make_algebra
    exact = sl2_from_partition(make_algebra("sl", sum(parts)), parts).exact
    n = len(exact.h)
    with mp.workdps(30):
        x = to_mp(central_part(from_mp(mp.matrix(rng.normal(size=(n, n)).tolist())), exact,
                               mp.mp.prec))
        e_mp, f_mp = mp_triple(exact)
        for y in (mp.diag(list(exact.h)), e_mp, f_mp):
            assert mp.norm(x * y - y * x) <= mp.mpf(10) ** -25 * mp.norm(x)


# --- the chains of the exact triple -------------------------------------

def _casimir_projection(x, exact):
    """Reference oracle: the Casimir polynomial that chain averaging replaced.
    Omega = 1/2 ad_H^2 + ad_E ad_F + ad_F ad_E is c_m = m(m+2)/2 on an
    ad-module of highest weight m and 0 on the trivial part, so the product
    of (1 - Omega/c_m) over the highest weights m >= 1 of gl(n) keeps the
    trivial part alone.  The highest weights are the m for which the
    difference h_i - h_j = m occurs more often than m + 2."""
    import mpmath as mp
    from collections import Counter
    h = exact.h
    n = len(h)
    e, f = mp_triple(exact)
    s = e * f + f * e
    counts = Counter(a - b for a in h for b in h)
    for m in sorted((m for m in counts if m >= 1 and counts[m] > counts[m + 2]), reverse=True):
        omega = s * x + x * s - 2 * (e * x * f + f * x * e)
        for i in range(n):
            for j in range(n):
                omega[i, j] += (h[i] - h[j]) ** 2 * x[i, j] / 2
        x = x - omega * (mp.mpf(2) / (m * (m + 2)))
    return x


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


@pytest.mark.parametrize("case", CHAIN_CASES, ids=triple_id)
def test_chain_averaging_is_the_casimir_projection(case):
    """On seeded random complex inputs the chain average equals the Casimir
    polynomial, and it commutes with H, E and F exactly."""
    import mpmath as mp
    exact = build_triple(case).exact
    n = len(exact.h)
    rng = np.random.default_rng(n * 100 + len(exact.chains))
    with mp.workdps(40):
        e_mp, f_mp = mp_triple(exact)
        for _ in range(2):
            x = mp.matrix((rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))).tolist())
            got = to_mp(central_part(from_mp(x), exact, mp.mp.prec))
            want = _casimir_projection(x, exact)
            assert mp.norm(got - want) <= mp.mpf(10) ** -32 * mp.norm(x)
            for y in (mp.diag(list(exact.h)), e_mp, f_mp):
                comm = got * y - y * got
                assert all(comm[i, j] == 0 for i in range(n) for j in range(n))


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
    x_fixed = weight_zero_part(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)), h_int,
                               mp.mp.prec)
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
        x_fixed = weight_zero_part(scale * x, h_int, 53)
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
    """Reference oracle: the entry loop max_entry_distance replaced."""
    import mpmath as mp
    m_mp = to_mp(m)
    rows, cols = m.shape
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
    assert report.bent_residual < 1e-35
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
        return [(Fraction(r) * Fraction(2) ** m.exp, Fraction(i) * Fraction(2) ** m.exp)
                for row in m.pairs() for (r, _), (i, _) in row]
    return value(got) == value(want)


_PROJECTION_CASES = [("sl", (5,), (3, 1, 1)), ("sl", (5,), (2, 2, 1)), ("sl", (4,), (2, 1, 1)),
                     ("su", (3, 1), "rho2"), ("su", (3, 2), "rho2")]


@pytest.mark.parametrize("dps", [20, 40])
@pytest.mark.parametrize("case", _PROJECTION_CASES, ids=lambda c: f"{c[0]}{c[1]}-{c[2]}")
def test_projections_are_the_mp_projections(case, dps):
    """weight_zero_part and central_part hold the values that the mp
    projections they replaced round to, on seeded inputs whose entries span
    many binary orders of magnitude."""
    import mpmath as mp
    from liebend.algebra import make_algebra
    family, params, spec = case
    alg = make_algebra(family, *params)
    exact = (sl2_from_partition(alg, spec) if family == "sl" else rho2_su(alg)).exact
    n = len(exact.h)
    rng = np.random.default_rng(dps + n)
    with mp.workdps(dps):
        for _ in range(10):
            x = rng.normal(size=(n, n)) * np.exp(10 * rng.normal(size=(n, n)))
            if np.iscomplexobj(alg.basis):
                x = x + 1j * rng.normal(size=(n, n))
            got = weight_zero_part(x, exact.h, mp.mp.prec)
            want = _weight_purify(x, exact.h)
            assert _same_value(got, from_mp(want))
            assert _same_value(central_part(got, exact, mp.mp.prec),
                               from_mp(_mp_central_part(want, exact)))


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
    """The kernel's line at FIXED_LINE_BITS is within 1e-25 of its largest
    entry of the 60-digit oracle, for every piece with i > 0, at genus
    max(|Lambda|, 2) and at genus 6 (pieces whose generator index exceeds
    the genus have no generator there).  The float lane's line, read off
    Sym^2i of the conjugator (`fixed_weight_zero_vector`), is within 1e-12
    of the oracle's unit coordinates: these genera hold every bent piece of
    perfbench's timed plans."""
    from liebend.bending import FIXED_LINE_BITS, fixed_weight_zero_vector, fuchsian_generators
    from liebend.intkernel import fixed_line
    from liebend.sl2 import module_multiplicities, rho_of
    triple = build_triple(case)
    alg = triple.algebra
    iso = module_multiplicities(alg, triple)
    rho = Sl2Images(triple.exact)
    checked = 0
    for genus in sorted({max(len(iso.Lambda), 2), 6}):
        seed = fuchsian_generators(genus)
        for k, (i, j) in enumerate(iso.Lambda, start=1):
            if i == 0 or k > genus:
                continue
            a = seed.a[k - 1]
            v0 = alg.from_coordinates(iso.piece_columns[(i, j)][:, i])
            got = fixed_line(rho, FixedMatrix.from_float(a), v0, FIXED_LINE_BITS)[3]
            want = _line_oracle(triple.exact, a, v0)
            assert np.abs(got - want).max() <= 1e-25 * np.abs(want).max()
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
    bending lines off the kernel's conjugator at 110 bits, never builds the
    kernel's line (`fixed_line`), and loads neither mpmath nor the mp
    lane."""
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"family": "sl", "n": 5, "triple": {"partition": [5]},
                                "genus": 6, "t": "auto", "verify_dps": 0}))
    out = _probe(
        "import json, sys\n"
        "import liebend.cli, liebend.intkernel as k\n"
        "calls, lines = [], []\n"
        "real, real_line = k.conjugator, k.fixed_line\n"
        "k.conjugator = lambda *a: calls.append(a[1]) or real(*a)\n"
        "k.fixed_line = lambda *a: lines.append(a[3]) or real_line(*a)\n"
        f"rc = liebend.cli.main(['bend', '--plan', {str(plan)!r}, '--out', {str(tmp_path / 'out')!r}])\n"
        "loaded = [m for m in ('mpmath', 'liebend.highprec', 'liebend.elementary')\n"
        "          if m in sys.modules]\n"
        "print(json.dumps({'rc': rc, 'calls': calls, 'lines': lines, 'loaded': loaded}))\n")
    assert out["rc"] == 0 and out["loaded"] == [] and out["lines"] == []
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
    `--out tests/data/<name>`."""
    from liebend.cli import main
    if isinstance(spec, str):
        argv = ["bend", "--preset", spec]
    else:
        (tmp_path / "plan.json").write_text(json.dumps(spec))
        argv = ["bend", "--plan", str(tmp_path / "plan.json")]
    assert main(argv + ["--out", str(tmp_path / "out.json")]) == 0
    assert (tmp_path / "out.json").read_bytes() == (_DATA / name).read_bytes()


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
