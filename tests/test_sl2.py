import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

import liebend.algebra
import liebend.sl2
from liebend.algebra import (SubspaceOfG, adjoint_operator, bracket, centralizer,
                             kernel_of, make_algebra)
from liebend.errors import (ParameterError, RealizationError,
                            UnsupportedCentralizerError)
from liebend.sl2 import (A0, SL2_E, SL2_F, ExactTriple, Sl2Triple, ad_weight_multiplicities,
                         even_partitions, even_sl2_basis_of_b, g_even, genus_bound,
                         is_even, module_multiplicities, property_star_basis, rho1_su,
                         rho2_su, rho_of, sigma, sl2_from_partition, verify_sl2_triple)

from conftest import (constructed_triples, oracle_coordinates, oracle_weight_mults,
                      torus_matrix)

SEC53_TABLE = [
    ((5,), True, (4, 2, 0, -2, -4)),
    ((4, 1), False, (3, 1, 0, -1, -3)),
    ((3, 2), False, (2, 1, 0, -1, -2)),
    ((3, 1, 1), True, (2, 0, 0, 0, -2)),
    ((2, 2, 1), False, (1, 1, 0, -1, -1)),
    ((2, 1, 1, 1), False, (1, 0, 0, 0, -1)),
]


def triple_centralizer(alg, triple):
    ops = [adjoint_operator(alg, m) for m in triple.images()]
    return SubspaceOfG(alg, kernel_of(ops, alg.dim, alg.config.rank_rtol))


@pytest.mark.parametrize("parts,even,vector", SEC53_TABLE)
def test_partition_table(sl5, parts, even, vector):
    t = sl2_from_partition(sl5, parts)
    ok, residuals = verify_sl2_triple(t)
    assert ok, residuals
    assert tuple(int(x) for x in t.torus_vector) == vector
    assert is_even(t) is even


def test_partition_zero_triple(sl5):
    t = sl2_from_partition(sl5, (1,) * 5)
    assert t.is_zero
    assert is_even(t)


def test_partition_errors(sl5):
    with pytest.raises(ParameterError):
        sl2_from_partition(sl5, (4, 2))
    with pytest.raises(ParameterError):
        sl2_from_partition(sl5, (5, 0))


@pytest.mark.parametrize("p,q", [(2, 1), (3, 2), (4, 2), (5, 3), (6, 6)])
def test_rho1(p, q):
    alg = make_algebra("su", p, q)
    t = rho1_su(alg)
    n = p + q
    assert np.allclose(np.diag(np.asarray(t.h)).real,
                       [1.0] * q + [0.0] * (p - q) + [-1.0] * q)
    ok, residuals = verify_sl2_triple(t)
    assert ok, residuals
    b = alg.form
    assert np.linalg.norm(np.asarray(t.h).conj().T @ b + b @ np.asarray(t.h)) < 1e-12


@pytest.mark.parametrize("p,q", [(2, 1), (3, 2), (4, 2), (6, 5)])
def test_rho2(p, q):
    alg = make_algebra("su", p, q)
    t = rho2_su(alg)
    expected = ([float(w) for w in range(2 * q, 0, -2)] + [0.0] * (p - q)
                + [float(-w) for w in range(2, 2 * q + 2, 2)])
    assert np.allclose(np.diag(np.asarray(t.h)).real, expected)
    ok, residuals = verify_sl2_triple(t)
    assert ok, residuals


def test_rho2_superdiagonal_constant():
    alg = make_algebra("su", 2, 1)
    t = rho2_su(alg)
    # c_1 = sqrt(-1) * sqrt(1 * (2q + 1 - 1)) = i sqrt(2) at q = 1
    assert np.asarray(t.e)[0, 1] == pytest.approx(1j * math.sqrt(2))


def test_rho2_undefined_for_equal_signature():
    with pytest.raises(ParameterError):
        rho2_su(make_algebra("su", 2, 2))


def test_verify_rejects_scaled_triple(sl2):
    # E = 2 E_12 and F = 2 E_21: [E, F] = 4 H != H
    t = Sl2Triple(sl2, ExactTriple((1, -1), ((0, 1, 4, 1),)), "partition", "scaled")
    ok, residuals = verify_sl2_triple(t)
    assert not ok
    assert residuals["[E,F]-H"] > 1e-6


@pytest.mark.parametrize("p,q", [(2, 1), (3, 2), (2, 2), (4, 4), (6, 6)])
def test_table_evenness(p, q):
    alg = make_algebra("su", p, q)
    assert is_even(rho1_su(alg)) is (p == q)
    if p > q:
        assert is_even(rho2_su(alg))


@pytest.mark.parametrize("p,q", [(2, 1), (3, 2), (4, 2), (3, 3)])
def test_sigma_formulas(p, q):
    alg = make_algebra("su", p, q)
    s1 = np.asarray(sigma(rho1_su(alg))).real
    assert np.allclose(s1, np.diag([-1.0] * q + [1.0] * (p - q) + [-1.0] * q))
    if p > q:
        assert np.allclose(np.asarray(sigma(rho2_su(alg))).real, np.eye(p + q))


def test_sigma_zero_triple(sl5):
    z = sl2_from_partition(sl5, (1,) * 5)
    assert np.allclose(sigma(z), np.eye(5))


def test_sigma_non_integer_error(sl2):
    t = Sl2Triple(sl2, ExactTriple((Fraction(1, 2), Fraction(-1, 2)), ()), "partition", "half")
    with pytest.raises(RealizationError, match="non-integer"):
        sigma(t)


def test_a_triple_needs_its_exact_form(sl5):
    base = sl2_from_partition(sl5, (3, 2))
    with pytest.raises(ParameterError, match="ExactTriple"):
        Sl2Triple(sl5, None, "partition", "none")
    with pytest.raises(ParameterError, match="ExactTriple"):
        dataclasses.replace(base, exact=base.exact.h)
    with pytest.raises(TypeError):
        Sl2Triple(sl5, base.h, base.e, base.f, "partition", "floats")


@pytest.mark.parametrize("p,q", [(2, 1), (3, 2), (4, 2)])
def test_g_even_dimensions(p, q):
    alg = make_algebra("su", p, q)
    ge = g_even(rho1_su(alg))
    assert ge.dim == 4 * q * q + (p - q) ** 2 - 1
    if p > q:
        assert g_even(rho2_su(alg)).dim == alg.dim


def test_g_even_even_triple_is_everything(sl5):
    for parts in [(5,), (3, 1, 1), (1, 1, 1, 1, 1)]:
        t = sl2_from_partition(sl5, parts)
        assert g_even(t).dim == sl5.dim


def test_g_even_structure(su21, sl5):
    """Bracket-closed; contains the triple image and the full centralizer."""
    for alg, triple in ((su21, rho1_su(su21)), (sl5, sl2_from_partition(sl5, (4, 1)))):
        ge = g_even(triple)
        mats = ge.matrices()
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                coords = alg.coordinates(bracket(mats[i], mats[j]), check=False)
                assert ge.contains_vector(coords, tol=1e-7)
        for m in triple.images():
            if np.linalg.norm(m):
                assert ge.contains_vector(alg.coordinates(m), tol=1e-7)
        z = triple_centralizer(alg, triple)
        assert ge.contains_vector(z.onb, tol=1e-7)


def test_rank_inside_even_part(sl5, su32, sl5_torus, su32_torus):
    """Every a-basis vector lies in the even part of an a-diagonal triple."""
    cases = [(sl5, sl5_torus, sl2_from_partition(sl5, (4, 1))),
             (sl5, sl5_torus, sl2_from_partition(sl5, (3, 2))),
             (su32, su32_torus, rho1_su(su32)),
             (su32, su32_torus, rho2_su(su32))]
    for alg, torus, triple in cases:
        ge = g_even(triple)
        for i in range(torus.rank):
            free = [Fraction(0)] * torus.coord_len
            if alg.family == "sl":
                free[i], free[i + 1] = Fraction(1), Fraction(-1)
            else:
                free[i] = Fraction(1)
            mat = torus_matrix(torus, torus.vector(free))
            assert ge.contains_vector(alg.coordinates(mat), tol=1e-8)


def test_ad_sigma_squared_trivial(su21, sl5):
    for alg, triple in ((su21, rho1_su(su21)), (sl5, sl2_from_partition(sl5, (4, 1)))):
        s = np.asarray(sigma(triple))
        s2 = s @ s
        for bm in alg.basis:
            assert np.allclose(s2 @ bm @ np.linalg.inv(s2), bm, atol=1e-9)


def test_evenness_iff_full_even_part(sl5, su32):
    for alg, triple in ((sl5, sl2_from_partition(sl5, (3, 2))),
                        (sl5, sl2_from_partition(sl5, (5,))),
                        (su32, rho1_su(su32)), (su32, rho2_su(su32))):
        assert is_even(triple) is (g_even(triple).dim == alg.dim)


def test_module_multiplicities_examples(sl3, sl5):
    su11 = make_algebra("su", 1, 1)
    iso11 = module_multiplicities(su11, rho1_su(su11))
    assert iso11.mults == {3: 1}

    iso3 = module_multiplicities(sl3, sl2_from_partition(sl3, (3,)))
    assert iso3.mults == {3: 1, 5: 1}

    iso15 = module_multiplicities(sl5, sl2_from_partition(sl5, (1,) * 5))
    assert iso15.mults == {1: 24}


def test_multiplicity_identities(sl5, su32, rng):
    """m symmetry, the difference formula, the dimension sum, and the piece
    exhaustion, over the ad-H weights of random conjugates gHg^-1 of
    constructed triples (>= 100), computed by eigvals."""
    pool = []
    for parts in [(5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1)]:
        pool.append((sl5, sl2_from_partition(sl5, parts)))
    pool.append((su32, rho1_su(su32)))
    pool.append((su32, rho2_su(su32)))
    checked = 0
    for alg, base in pool:
        for _ in range(13):
            coords = rng.normal(size=alg.dim) * 0.2
            g = expm(alg.from_coordinates(coords))
            g_inv = np.linalg.inv(g)
            mults = oracle_weight_mults(alg, g @ base.h @ g_inv)
            assert mults == ad_weight_multiplicities(base)
            assert all(mults[j] == mults[-j] for j in mults)
            assert sum(mults.values()) == alg.dim
            top = max(mults)
            dim_sum = 0
            for k in range(1, top + 2):
                mk = mults.get(k - 1, 0) - mults.get(k + 1, 0)
                assert mk >= 0
                dim_sum += k * mk
            assert dim_sum == alg.dim
            checked += 1
    assert checked >= 100


def test_genus_bound_formulas(su21, su32, sl5):
    for alg, (p, q) in ((su21, (2, 1)), (su32, (3, 2))):
        assert genus_bound(rho1_su(alg)) == 2 * q * q + (p - q) ** 2 - 1
        if p > q:
            assert genus_bound(rho2_su(alg)) == (p - q) ** 2 + 2 * q - 1
    assert genus_bound(sl2_from_partition(sl5, (1,) * 5)) == sl5.dim


def test_genus_bound_equals_centralizer(sl5, su32):
    for parts in [(5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1)]:
        t = sl2_from_partition(sl5, parts)
        assert genus_bound(t) == centralizer(sl5, t.h).dim
    for t in (rho1_su(su32), rho2_su(su32)):
        assert genus_bound(t) == centralizer(su32, t.h).dim


def test_even_basis_of_b(sl5, sl2):
    triples = even_sl2_basis_of_b(sl5)
    assert [t.label for t in triples] == ["[5]", "[3,1,1]"]
    vectors = [t.torus_vector for t in triples]
    assert vectors == [(4, 2, 0, -2, -4), (2, 0, 0, 0, -2)]
    for t in triples:
        assert is_even(t)

    t2 = even_sl2_basis_of_b(sl2)
    assert [t.label for t in t2] == ["[2]"] and t2[0].torus_vector == (1, -1)

    sl4 = make_algebra("sl", 4)
    from liebend.weyl import split_torus
    torus4 = split_torus(sl4)
    t4 = even_sl2_basis_of_b(sl4)
    assert len(t4) == 2 == torus4.b_dim
    from liebend import _ratlin
    assert _ratlin.rank([t.torus_vector for t in t4]) == 2
    assert all(is_even(t) for t in t4)


def test_even_partitions_order():
    parts = even_partitions(5)
    assert parts[0] == (5,)
    assert (3, 1, 1) in parts and (1, 1, 1, 1, 1) in parts
    assert all(len({x % 2 for x in p}) == 1 for p in parts)


def test_property_star_u1(su21):
    t = rho1_su(su21)
    z = triple_centralizer(su21, t)
    star = property_star_basis(z, t)
    assert len(star) == 1 and star[0].kind == "elliptic"
    x = star[0].matrix
    assert np.linalg.norm(expm(x) - np.eye(3)) < 1e-9
    d = np.diag(x).imag / (2 * np.pi)
    assert np.allclose(d, [1.0, -2.0, 1.0])


def test_property_star_split_part(sl3):
    t = sl2_from_partition(sl3, (2, 1))
    z = triple_centralizer(sl3, t)
    star = property_star_basis(z, t)
    assert [s.kind for s in star] == ["hyperbolic"]


def test_property_star_rotation_and_hyperbolic(sl5):
    t = sl2_from_partition(sl5, (3, 1, 1))
    z = triple_centralizer(sl5, t)
    star = property_star_basis(z, t)
    kinds = [s.kind for s in star]
    assert kinds.count("elliptic") == 1 and kinds.count("hyperbolic") == 3
    for s in star:
        if s.kind == "elliptic":
            assert np.linalg.norm(expm(s.matrix) - np.eye(5)) < 1e-9


def test_property_star_paired_rotation():
    # so(2) acting diagonally on the two-dimensional multiplicity space of
    # [2,2] needs a glued pair of plane rotations
    sl4 = make_algebra("sl", 4)
    t = sl2_from_partition(sl4, (2, 2))
    z = triple_centralizer(sl4, t)
    star = property_star_basis(z, t)
    kinds = [s.kind for s in star]
    assert kinds.count("elliptic") == 1 and len(star) == z.dim
    for s in star:
        if s.kind == "elliptic":
            assert np.linalg.norm(expm(s.matrix) - np.eye(4)) < 1e-9


def test_property_star_multiplicity_three():
    # so(3) on the multiplicity space of [2,2,2]: each generator is one plane
    # rotation per weight space, i.e. a glued pair
    sl6 = make_algebra("sl", 6)
    t = sl2_from_partition(sl6, (2, 2, 2))
    z = triple_centralizer(sl6, t)
    star = property_star_basis(z, t)
    assert [s.kind for s in star].count("elliptic") == 3
    assert len(star) == z.dim


def test_property_star_unsupported():
    # a repeated part of size three spreads each compact generator over three
    # weight spaces; those triple sums stay outside the block-diagonal scope
    sl6 = make_algebra("sl", 6)
    t = sl2_from_partition(sl6, (3, 3))
    z = triple_centralizer(sl6, t)
    with pytest.raises(UnsupportedCentralizerError):
        property_star_basis(z, t)


def test_property_star_spans(su21, sl5):
    from liebend.algebra import subspace_from_coordinates
    for alg, t in ((su21, rho1_su(su21)), (sl5, sl2_from_partition(sl5, (3, 1, 1)))):
        z = triple_centralizer(alg, t)
        star = property_star_basis(z, t)
        span = subspace_from_coordinates(alg, [s.coords for s in star])
        assert span.dim == z.dim == len(star)


def _sym_power_oracle(g2, k):
    """Matrix of Sym^k(g) in the normalized weight basis (independent oracle)."""
    a, b = g2[0, 0], g2[0, 1]
    c, d = g2[1, 0], g2[1, 1]
    n = k + 1
    out = np.zeros((n, n))
    scale = [math.sqrt(math.comb(k, m)) for m in range(n)]
    for s in range(n):
        # (a x + c y)^{k-s} (b x + d y)^{s} expanded in x^{k-r} y^r
        poly1 = [math.comb(k - s, i) * a ** (k - s - i) * c ** i for i in range(k - s + 1)]
        poly2 = [math.comb(s, i) * b ** (s - i) * d ** i for i in range(s + 1)]
        prod = np.convolve(poly1, poly2)
        for r in range(n):
            out[r, s] = prod[r] * scale[s] / scale[r]
    return out


@pytest.mark.parametrize("n", [2, 3, 5])
def test_rho_of_matches_symmetric_power(n, rng):
    alg = make_algebra("sl", n)
    t = sl2_from_partition(alg, (n,))
    for _ in range(20):
        xi = rng.normal(size=3) * 0.4
        g2 = expm(xi[0] * np.array([[1.0, 0], [0, -1.0]])
                  + xi[1] * np.array([[0, 1.0], [0, 0]])
                  + xi[2] * np.array([[0, 0], [1.0, 0]]))
        got = rho_of(t, g2)
        want = _sym_power_oracle(g2, n - 1)
        assert np.linalg.norm(got - want) < 1e-9 * max(np.linalg.norm(want), 1.0)


def _oracle_expm_nilpotent(m):
    n = m.shape[0]
    out = np.eye(n, dtype=m.dtype)
    term = np.eye(n, dtype=m.dtype)
    for k in range(1, n + 1):
        term = term @ m / k
        out = out + term
        if not np.any(term):
            break
    return out


def _oracle_rho_of(triple, g2):
    """rho_of one matrix at a time, as it stood before it took stacks: the
    bitwise reference for the stacked form."""
    def drho(xi):
        return xi[0, 0] * triple.h + xi[0, 1] * triple.e + xi[1, 0] * triple.f

    g2 = np.asarray(g2, dtype=float)
    q_mat, r_mat = np.linalg.qr(g2)
    d = np.sign(np.diag(r_mat))
    q_mat = q_mat * d
    r_mat = (r_mat.T * d).T
    s = math.atan2(q_mat[0, 1], q_mat[0, 0])
    u = math.log(r_mat[0, 0])
    x = r_mat[0, 1] / r_mat[0, 0]
    rot = expm(drho(s * (SL2_E - SL2_F)))
    diag_part = np.diag(np.exp(np.diag(drho(u * A0))))
    nil = _oracle_expm_nilpotent(drho(x * SL2_E))
    return rot @ diag_part @ nil


def _polygon_stack(genera):
    """Every polygon generator of the genera and the conjugator of each."""
    from liebend.bending import _hyperbolic_conjugator, fuchsian_generators
    gens = [g for genus in genera for g in fuchsian_generators(genus).generators()]
    return np.array(gens + [_hyperbolic_conjugator(g) for g in gens])


def _assert_bitwise_oracle(triple, stack):
    got = rho_of(triple, stack)
    assert got.shape == (len(stack), triple.h.shape[0], triple.h.shape[0])
    for g2, image in zip(stack, got):
        # tobytes, so that -0.0 and 0.0 count as different
        assert image.tobytes() == _oracle_rho_of(triple, g2).tobytes()
    assert rho_of(triple, stack[0]).tobytes() == got[0].tobytes()


@pytest.mark.parametrize("triple", constructed_triples(6, 4), ids=lambda t: t.label)
def test_stacked_rho_of_is_bitwise_the_per_matrix_form(triple):
    """Every constructed triple (sl(n), n <= 6; su(p,q), p <= 4) on the
    polygon generators of genus 2..8 and their conjugators."""
    _assert_bitwise_oracle(triple, _polygon_stack(range(2, 9)))


def test_rho_of_rejects_a_non_unimodular_slice(sl5):
    t = sl2_from_partition(sl5, (5,))
    with pytest.raises(ParameterError):
        rho_of(t, np.array([np.eye(2), 2.0 * np.eye(2)]))
    with pytest.raises(ParameterError):
        rho_of(t, np.eye(3))


def test_rho_of_homomorphism(su21, rng):
    t = rho1_su(su21)
    for _ in range(20):
        x1, x2 = rng.normal(size=(2, 3)) * 0.5
        mats = []
        for x in (x1, x2):
            mats.append(expm(x[0] * np.array([[1.0, 0], [0, -1.0]])
                             + x[1] * np.array([[0, 1.0], [0, 0]])
                             + x[2] * np.array([[0, 0], [1.0, 0]])))
        g1, g2 = mats
        lhs = rho_of(t, g1 @ g2)
        rhs = rho_of(t, g1) @ rho_of(t, g2)
        assert np.linalg.norm(lhs - rhs) < 1e-9 * max(np.linalg.norm(lhs), 1.0)


def test_ad_sigma_operator_matches_oracle():
    """Ad(sigma), as a per-basis-element loop, is the diagonal operator of
    the parities (-1)^w of the exact basis weights that g_even's cross-check
    compares against."""
    for triple in constructed_triples(6, 4):
        alg = triple.algebra
        s = sigma(triple)
        s_inv = np.linalg.inv(s)
        want = np.array([oracle_coordinates(alg, s @ bm @ s_inv) for bm in alg.basis]).T
        got = np.diag(np.where(triple.basis_weights % 2 == 0, 1.0, -1.0))
        assert np.linalg.norm(got - want) <= 1e-12 * max(np.linalg.norm(want), 1.0)


def test_ad_h_built_once_per_triple(monkeypatch, fresh_caches, sl5, su32):
    """is_even, genus_bound, g_even and module_multiplicities read the ad H
    weights off the basis supports and never build ad H; the ad_h property
    builds it once, on demand."""
    real = liebend.algebra.adjoint_operator
    for alg, make in (
            (sl5, lambda: sl2_from_partition(sl5, (5,))),
            (sl5, lambda: sl2_from_partition(sl5, (3, 1, 1))),
            (su32, lambda: rho2_su(su32)),
            (su32, lambda: rho1_su(su32))):
        triple = make()
        calls = []

        def counting(alg_, x):
            if np.array_equal(np.asarray(x), triple.h):
                calls.append(1)
            return real(alg_, x)

        monkeypatch.setattr(liebend.algebra, "adjoint_operator", counting)
        monkeypatch.setattr(liebend.sl2, "adjoint_operator", counting)
        is_even(triple)
        genus_bound(triple)
        g_even(triple)
        module_multiplicities(alg, triple)
        assert calls == []
        assert triple.ad_h is triple.ad_h and calls == [1]
        assert np.array_equal(triple.ad_h, real(alg, triple.h))


def _projector(rows):
    rows = np.atleast_2d(rows)
    return rows.T @ np.linalg.pinv(rows.T)


def test_h_centralizer_is_the_kernel_of_ad_h():
    """The exact rows span the kernel of ad H that the SVD oracle finds."""
    for triple in constructed_triples(5, 4):
        alg = triple.algebra
        rows = triple.h_centralizer
        assert rows is triple.h_centralizer
        oracle = kernel_of([triple.ad_h], alg.dim, alg.config.rank_rtol)
        assert len(rows) == len(oracle) == ad_weight_multiplicities(triple)[0]
        assert np.linalg.norm(_projector(rows) - _projector(oracle), 2) <= 1e-12


def test_sec6_takes_each_kernel_once(monkeypatch, fresh_caches):
    """reproduce sec6 --p 3 --q 2 reads every weight off the basis supports:
    it decomposes no operator on the algebra (no dim x dim SVD, no eigvals)."""
    from liebend.config import DEFAULT
    from liebend.report import cmd_reproduce_sec6
    dim = make_algebra("su", 3, 2).dim
    seen = []

    def counting(real):
        def wrapped(a, *args, **kwargs):
            if dim in np.shape(a):
                seen.append((real.__name__, np.shape(a)))
            return real(a, *args, **kwargs)
        return wrapped

    for name in ("svd", "eigvals", "eig"):
        monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
    report = cmd_reproduce_sec6(3, 2, DEFAULT)
    assert seen == []
    assert report.checks[0].verdict["g_even_dim"] == 16


def test_sec6_takes_sigma_once_per_triple(monkeypatch, fresh_caches):
    """The sec6 record and g_even's Ad(sigma) cross-check read the triple's
    one sigma."""
    from liebend import sl2
    from liebend.config import DEFAULT
    from liebend.report import cmd_reproduce_sec6
    seen = []
    real_sigma = sl2.sigma

    def counting(triple, *args, **kwargs):
        seen.append(triple)
        return real_sigma(triple, *args, **kwargs)

    monkeypatch.setattr(sl2, "sigma", counting)
    report = cmd_reproduce_sec6(3, 2, DEFAULT)
    assert len(seen) == 2 and len({id(t) for t in seen}) == 2
    rows = {c.check_id: c.verdict for c in report.checks}
    assert rows["sec6/su(3,2)/rho1"]["sigma_matches_formula"]
    assert rows["sec6/su(3,2)/rho2"]["sigma_matches_formula"]


def test_sigma_property_is_sigma(su21):
    triple = rho1_su(su21)
    assert triple.sigma is triple.sigma
    assert np.array_equal(triple.sigma, sigma(triple))


def test_sigma_matches_the_eigenbasis_oracle():
    """sigma = diag((-1)^h_i) of every constructed triple (sl(n), n <= 7, every
    partition; su(p,q), p <= 6) equals V diag((-1)^lambda) V^-1 from an
    eigendecomposition H = V diag(lambda) V^-1, in value and in dtype."""
    triples = constructed_triples(7, 6) + [
        sl2_from_partition(make_algebra("sl", n), (1,) * n) for n in range(2, 8)]
    assert len(triples) == 79
    for triple in triples:
        lam, v = np.linalg.eig(np.asarray(triple.h, dtype=complex))
        ints = np.round(lam.real)
        assert np.max(np.abs(lam - ints)) <= 1e-12
        want = v @ np.diag(np.where(ints % 2 == 0, 1.0, -1.0)) @ np.linalg.inv(v)
        got = sigma(triple)
        assert np.iscomplexobj(got) == triple.algebra.is_complex
        assert np.array_equal(got, want), triple.label
