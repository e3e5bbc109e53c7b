import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from liebend import highprec
from liebend.config import DEFAULT
from liebend.errors import ParameterError
from liebend.highprec import (RoundingModeError, block_expm, from_mp, max_entry_distance,
                              mp_fuchsian, sl2_inverse, verify_bent_relation)
from liebend.intkernel import (FixedMatrix, Sl2Images, _chain_constants, _round_nearest,
                               central_part, conjugator, product, weight_zero_part)
from liebend.sl2 import ExactTriple, rho2_su, sl2_from_partition

from conftest import constructed_triples, to_mp


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


def test_mp_fuchsian_matches_float(sl2):
    import mpmath as mp
    from liebend.bending import fuchsian_generators
    with mp.workdps(30):
        a_mp, b_mp = mp_fuchsian(2)[:2]
        seed = fuchsian_generators(2)
        for m_mp, m_f in zip(a_mp + b_mp, list(seed.a) + list(seed.b)):
            diff = max(abs(complex(m_mp[i, j]) - m_f[i, j])
                       for i in range(2) for j in range(2))
            assert diff < 1e-13


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
            got, want = mp_fuchsian(genus), _complex_fuchsian(genus)
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


@pytest.mark.parametrize("rounding", ["f", "c", "d", "u"])
def test_kernel_rejects_other_rounding_modes(rounding, su21):
    """The integer kernel takes its precision from highprec, which reads the
    mp context and refuses a rounding mode other than to nearest."""
    import mpmath as mp
    from liebend.bending import bend, build_plan, fuchsian_generators
    from liebend.sl2 import rho1_su
    plan = build_plan(rho1_su(su21), fuchsian_generators(2), t=0.01)
    bent = bend(plan)
    a = from_mp(mp.matrix([[mp.mpf(1) / 3, 1], [0, 1]]))
    # mpmath keeps [prec, rounding] here and has no public setter for the mode
    mp.mp._prec_rounding[1] = rounding
    try:
        with pytest.raises(RoundingModeError, match="nearest"):
            highprec._context_prec()
        with pytest.raises(RoundingModeError, match="nearest"):
            verify_bent_relation(plan, bent, dps=20)
    finally:
        mp.mp._prec_rounding[1] = "n"
    assert product(highprec._context_prec(), a, a).re.shape == (2, 2)


def test_kernel_rejects_non_finite_entries():
    import mpmath as mp
    with pytest.raises(ValueError, match="finite"):
        from_mp(mp.matrix([[mp.inf, 0], [0, 1]]))
    for bad in (np.inf, np.nan, complex(0, np.inf)):
        with pytest.raises(ValueError, match="finite"):
            FixedMatrix.from_float(np.array([[1.0, bad], [0.0, 1.0]]))


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


def _constructed_triples():
    from liebend.algebra import make_algebra
    from liebend.sl2 import _partitions, rho1_su
    out = []
    for n in range(2, 6):
        alg = make_algebra("sl", n)
        out += [sl2_from_partition(alg, parts) for parts in _partitions(n)
                if parts[0] > 1]
    for p in range(1, 4):
        for q in range(1, p + 1):
            alg = make_algebra("su", p, q)
            out.append(rho1_su(alg))
            if p > q:
                out.append(rho2_su(alg))
    return out


CONSTRUCTED = _constructed_triples()


@pytest.mark.parametrize("triple", CONSTRUCTED,
                         ids=[f"{t.algebra.family}{t.algebra.params}-{t.label}"
                              for t in CONSTRUCTED])
def test_exact_form_is_the_float_triple(triple):
    """The float images are the exact form read once, and the exact form is
    an sl2-triple: E moves the weights by 2 and [E, F] = H at dps 60."""
    import mpmath as mp
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
            x_ship = alg.from_coordinates(plan.x_vectors[ij])
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


def _chain_triples():
    """Every constructed triple with n <= 7 and p <= 4, the zero triples too."""
    from liebend.algebra import make_algebra
    from liebend.sl2 import _partitions, rho1_su
    out = []
    for n in range(2, 8):
        alg = make_algebra("sl", n)
        out += [sl2_from_partition(alg, parts) for parts in _partitions(n)]
    for p in range(1, 5):
        for q in range(1, p + 1):
            alg = make_algebra("su", p, q)
            out.append(rho1_su(alg))
            if p > q:
                out.append(rho2_su(alg))
    return out


CHAIN_TRIPLES = _chain_triples()
_CHAIN_IDS = [f"{t.algebra.family}{t.algebra.params}-{t.label}" for t in CHAIN_TRIPLES]


@pytest.mark.parametrize("triple", CHAIN_TRIPLES, ids=_CHAIN_IDS)
def test_chains_cover_the_triple(triple):
    """Each index lies on one chain, the chain's links are the entries of E,
    and its weights run d-1, ..., -(d-1)."""
    exact = triple.exact
    chains = exact.chains
    assert sorted(i for idx, _ in chains for i in idx) == list(range(len(exact.h)))
    links = {(idx[k], idx[k + 1], m, unit) for idx, sig in chains
             for k, (m, unit) in enumerate(sig)}
    assert links == set(exact.e)
    for idx, sig in chains:
        assert [exact.h[i] for i in idx] == list(range(len(idx) - 1, -len(idx), -2))
        assert len(sig) == len(idx) - 1


@pytest.mark.parametrize("triple", CHAIN_TRIPLES, ids=_CHAIN_IDS)
def test_chain_averaging_is_the_casimir_projection(triple):
    """On seeded random complex inputs the chain average equals the Casimir
    polynomial, and it commutes with H, E and F exactly."""
    import mpmath as mp
    exact = triple.exact
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


@pytest.mark.parametrize("triple", CHAIN_TRIPLES, ids=_CHAIN_IDS)
def test_closed_form_entries_are_the_taylor_sum(triple):
    """rho(exp(s E_2)) and rho(exp(s F_2)) are the Taylor sums of exp(s E) and
    exp(s F), with the same zero pattern, and rho(diag(r, 1/r)) is
    diag(r**h_i), entry by entry, at s = 1, -3/7 and r = 5/3, -2, 10**6 (whose
    entries span up to 72 orders of magnitude)."""
    import mpmath as mp
    exact = triple.exact
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


@pytest.mark.parametrize("exact, match", [
    (ExactTriple((1, 0, -1), ((0, 1, 2, 1), (1, 2, 2, 1))), "weights"),
    (ExactTriple((2, 0), ((0, 1, 1, 1),)), "weights"),
    (ExactTriple((1, -1, 1, -1), ((0, 1, 1, 1), (2, 3, 2, 1))), "different coefficients"),
    (ExactTriple((1, -1, 1, -1), ((0, 1, 1, 1j), (2, 3, 1, 1))), "different coefficients"),
    (ExactTriple((1, -1, -1), ((0, 1, 1, 1), (0, 2, 1, 1))), "linked twice"),
    (ExactTriple((1, -1), ((0, 1, 2, 1),)), "signature"),
    (ExactTriple((2, 0, -2), ((0, 1, 2, 1), (1, 2, 2, 2))), "signature"),
    (ExactTriple((1, -1), ((0, 1, 1, (1 + 1j) / abs(1 + 1j)),)), "signature"),
], ids=["misgraded", "off-centre-chain", "mismatched-m", "mismatched-unit", "branching",
        "not-sl2-m", "unit-not-unimodular", "unit-not-power-of-i"])
def test_chains_reject_other_shapes(exact, match):
    with pytest.raises(ParameterError, match=match):
        exact.chains


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
    a_seed, b_seed = mp_fuchsian(2)[:2]
    out += [to_mp(conjugator(from_mp(g), mp.mp.prec)) for g in a_seed + b_seed]
    return out


def _rel(got, want):
    import mpmath as mp
    return mp.norm(got - want) / mp.norm(want)


# the constructed triples, plus the longest chains: lengths 6 and 7
_ORACLE_TRIPLES = CONSTRUCTED + [
    t for t in CHAIN_TRIPLES
    if (t.algebra.family, t.algebra.params, t.label) in {
        ("sl", (6,), "[6]"), ("sl", (7,), "[7]"), ("su", (4, 3), "rho2")}]
_ORACLE_IDS = [f"{t.algebra.family}{t.algebra.params}-{t.label}" for t in _ORACLE_TRIPLES]


@pytest.mark.parametrize("triple", _ORACLE_TRIPLES, ids=_ORACLE_IDS)
def test_closed_form_matches_iwasawa_oracle(triple):
    import mpmath as mp
    with mp.workdps(40):
        rho, e_mp, f_mp, h_int = _images(triple)
        samples = _sl2_samples()
        assert any(g[0, 0] < 0 for g in samples)
        assert any(g[0, 0] == 0 for g in samples)
        assert any(g[1, 1] == 0 for g in samples)
        assert any(abs(g[0, 0]) < abs(g[1, 0]) for g in samples)
        for g in samples:
            assert _rel(to_mp(_pair(rho, g)[0]), _iwasawa_rho(e_mp, f_mp, h_int, g)) < 1e-30


_HOMOMORPHISM_TRIPLES = CONSTRUCTED[::3] + _ORACLE_TRIPLES[len(CONSTRUCTED):]


@pytest.mark.parametrize("triple", _HOMOMORPHISM_TRIPLES,
                         ids=[f"{t.algebra.family}{t.algebra.params}-{t.label}"
                              for t in _HOMOMORPHISM_TRIPLES])
def test_closed_form_is_a_homomorphism(triple):
    """rho(g) rho(g^-1) = I and rho(g) rho(k) = rho(g k); the inverse of a
    pair is the image of the adjugate, to the bit."""
    import mpmath as mp
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
        for g in mp_fuchsian(genus)[0] + mp_fuchsian(genus)[1]:
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
            twist, twist_inv = map(to_mp, block_expm(x_fixed, h_int, t))
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


@pytest.mark.parametrize("case", list(_block_cases()))
def test_closed_form_2x2_block_matches_expm(case, monkeypatch):
    """Cayley-Hamilton on a 2x2 block agrees with mp.expm at dps 40, and its
    value at -t inverts it; neither mp.expm nor mp.inverse runs."""
    import mpmath as mp
    dps = 40
    with mp.workdps(dps):
        x = _block_cases()[case]
        if case.endswith("nilpotent"):
            d = (x[0, 0] - x[1, 1]) / 2
            assert d * d + x[0, 1] * x[1, 0] == 0
        h_int = [3, 3]
        for t in (mp.mpf("0.3"), mp.mpf("-1.7")):
            want = mp.expm(t * x)
            with monkeypatch.context() as m:
                m.setattr(mp, "expm", None)
                m.setattr(mp, "inverse", None)
                twist, twist_inv = block_expm(from_mp(x), h_int, t)
            if all(isinstance(v, mp.mpf) for v in x):
                assert twist.im is None and twist_inv.im is None
            twist, twist_inv = to_mp(twist), to_mp(twist_inv)
            assert _rel(twist, want) < mp.mpf(10) ** (5 - dps)
            assert mp.norm(twist * twist_inv - mp.eye(2)) < mp.mpf(10) ** (5 - dps)


def test_3x3_block_keeps_expm(rng):
    import mpmath as mp
    h_int = [2, 0, 0, 0, -2]  # one 3x3 block between two scalars
    x_fixed = weight_zero_part(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)), h_int,
                               mp.mp.prec)
    x = to_mp(x_fixed)
    with mp.workdps(40):
        twist, twist_inv = map(to_mp, block_expm(x_fixed, h_int, mp.mpf("0.4")))
        assert _rel(twist, mp.expm(mp.mpf("0.4") * x)) < 1e-35
        assert mp.norm(twist * twist_inv - mp.eye(5)) < mp.mpf(10) ** -35


@pytest.mark.parametrize("spec", [
    {"family": "sl", "n": 4, "triple": {"partition": [3, 1]}, "genus": 5},
    {"family": "su", "p": 3, "q": 1, "triple": "rho2", "genus": 5},
], ids=["sl4-[3,1]-g5", "su3,1-rho2-g5"])
def test_verify_runs_no_expm_on_2x2_blocks(spec, monkeypatch):
    """The plans whose twists have 2x2 H-blocks verify without mp.expm or
    mp.inverse."""
    import mpmath as mp
    from liebend.report import cmd_bend
    calls = []
    real = highprec._expm2

    def counting(x, t):
        calls.append(len(x))
        return real(x, t)

    monkeypatch.setattr(highprec, "_expm2", counting)
    monkeypatch.setattr(mp, "expm", None)
    monkeypatch.setattr(mp, "inverse", None)
    report = cmd_bend(dict(spec, t="auto", verify_dps=40), DEFAULT)
    resid = next(c.verdict for c in report.checks if c.check_id == "bend/residuals")
    assert calls and set(calls) == {2}
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
    import mpmath as mp
    from liebend.bending import bend, build_plan, fuchsian_generators
    from liebend.report import PRESETS, _algebra_from_plan, _triple_from_spec
    spec = PRESETS["su21-rho1-g2"]
    alg = _algebra_from_plan(spec, DEFAULT)
    seed = fuchsian_generators(spec["genus"])
    plan = build_plan(_triple_from_spec(alg, spec["triple"]), seed, t=spec["t"])
    bent = bend(plan)
    sizes = []
    real_expm = mp.expm

    def counting_expm(a, *args, **kwargs):
        sizes.append(a.rows)
        return real_expm(a, *args, **kwargs)

    monkeypatch.setattr(mp, "expm", counting_expm)
    report = verify_bent_relation(plan, bent, dps=spec["verify_dps"])
    assert report.bent_residual < 1e-35
    assert alg.size not in sizes


def test_closed_form_rejects_misgraded_e(sl3):
    import mpmath as mp
    exact = sl2_from_partition(sl3, (3,)).exact
    with mp.workdps(20):
        with pytest.raises(ParameterError, match="weights"):
            Sl2Images(replace(exact, h=(1, 0, -1)))


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
        samples = [g for genus in range(2, 9) for side in mp_fuchsian(genus)[:2] for g in side]
        while len(samples) < 120:
            a, b, c = (mp.mpf(float(v)) for v in 3 * rng.normal(size=3))
            g = mp.matrix([[a, b], [c, (1 + b * c) / a]])
            if abs(g[0, 0] + g[1, 1]) > 2:
                samples.append(g)
        samples += [mp.diag([mp.mpf(3), 1 / mp.mpf(3)]), mp.diag([1 / mp.mpf(3), mp.mpf(3)])]
        for g in samples:
            got = to_mp(conjugator(from_mp(g), mp.mp.prec))
            assert got == _mp_conjugator(g)


def test_conjugator_follows_the_float_conventions():
    """Column order (descending eigenvalue), signs and det-1 scaling are
    those of bending._hyperbolic_conjugator, on the float polygon
    generators of genus 2-8."""
    from liebend.bending import FIXED_LINE_BITS, _hyperbolic_conjugator, fuchsian_generators
    for g in (g for genus in range(2, 9) for g in fuchsian_generators(genus).generators()):
        k = conjugator(FixedMatrix.from_float(g), FIXED_LINE_BITS).to_complex()
        assert not k.imag.any()
        k = k.real
        assert np.abs(k - _hyperbolic_conjugator(g)).max() < 1e-9
        assert abs(np.linalg.det(k) - 1) < 1e-14
        d = np.linalg.inv(k) @ g @ k
        assert abs(d[0, 1]) + abs(d[1, 0]) < 1e-9 * abs(d[0, 0]) and d[0, 0] > d[1, 1]


def test_conjugator_rejects_an_elliptic_element():
    rot = np.array([[np.cos(0.4), np.sin(0.4)], [-np.sin(0.4), np.cos(0.4)]])
    with pytest.raises(ValueError, match="hyperbolic"):
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
            if alg.is_complex:
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


@pytest.mark.parametrize("triple", constructed_triples(6, 4),
                         ids=lambda t: f"{t.algebra.family}{t.algebra.params}-{t.label}")
def test_fixed_line_matches_the_60_digit_oracle(triple):
    """The kernel's line at FIXED_LINE_BITS is within 1e-25 of its largest
    entry of the 60-digit oracle, for every piece with i > 0, at genus
    max(|Lambda|, 2) and at genus 6 (pieces whose generator index exceeds
    the genus have no generator there)."""
    from liebend.bending import FIXED_LINE_BITS, fuchsian_generators
    from liebend.intkernel import fixed_line
    from liebend.sl2 import module_multiplicities
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
    assert checked or all(i == 0 for i, _ in iso.Lambda)


def test_float_fallback_loads_no_mpmath(tmp_path):
    """sl(5) [5] at genus 6 misses the float fixed line, so bend takes the
    kernel's line; with verify_dps 0 neither mpmath nor the mp lane loads."""
    import os
    import subprocess
    import sys
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"family": "sl", "n": 5, "triple": {"partition": [5]},
                                "genus": 6, "t": "auto", "verify_dps": 0}))
    code = (
        "import json, sys\n"
        "import liebend.cli, liebend.intkernel as k\n"
        "calls = []\n"
        "real = k.fixed_line\n"
        "k.fixed_line = lambda *a: calls.append(a[3]) or real(*a)\n"
        f"rc = liebend.cli.main(['bend', '--plan', {str(plan)!r}, '--out', {str(tmp_path / 'out')!r}])\n"
        "loaded = [m for m in ('mpmath', 'liebend.highprec') if m in sys.modules]\n"
        "print(json.dumps({'rc': rc, 'calls': calls, 'loaded': loaded}))\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    out = json.loads(done.stdout.strip().splitlines()[-1])
    assert out["rc"] == 0 and out["loaded"] == []
    assert out["calls"] and set(out["calls"]) == {110}


@pytest.mark.parametrize("spec", [
    "su21-rho1-g2", "sl5-even5-g4",
    {"family": "sl", "n": 5, "triple": {"partition": [5]}, "genus": 6},
    {"family": "su", "p": 3, "q": 1, "triple": "rho2", "genus": 5},
], ids=["su21-rho1-g2", "sl5-even5-g4", "sl5-[5]-g6", "su3,1-rho2-g5"])
def test_identity_distance_is_the_mp_norm(spec, monkeypatch):
    """The verified residuals read from the mantissas are the floats that
    mp.norm(W - I) gives at the working precision."""
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
    assert seen == [verified["pushed_residual"], verified["bent_residual"]]


def test_polygon_integer_form_is_built_once_per_genus_and_dps(fresh_caches, monkeypatch):
    """The FixedMatrix form of the mp polygon is cached with it: a second
    plan of the same genus verified at the same dps converts nothing."""
    from liebend.algebra import make_algebra
    from liebend.bending import bend, build_plan, fuchsian_generators
    from liebend.sl2 import rho1_su
    calls = []
    real = highprec.from_mp

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(highprec, "from_mp", counting)
    seed = fuchsian_generators(3)
    counts = []
    for triple in (sl2_from_partition(make_algebra("sl", 3), (3,)),
                   rho1_su(make_algebra("su", 2, 1))):
        plan = build_plan(triple, seed)
        calls.clear()
        verify_bent_relation(plan, bend(plan), dps=30)
        counts.append(len(calls))
    assert counts == [6, 0]
