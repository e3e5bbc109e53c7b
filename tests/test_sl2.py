import dataclasses
import itertools
import math
import types
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

import liebend.algebra
import liebend.sl2
from liebend.algebra import (adjoint_operator, bracket, centralizer, kernel_of,
                             make_algebra, subspace_from_coordinates)
from liebend.errors import ParameterError, RealizationError
from liebend.projections import group_residual
from liebend.sl2 import (A0, SL2_E, SL2_F, ExactTriple, Sl2Triple, ad_weight_multiplicities,
                         even_partitions, g_even, genus_bound, is_even,
                         module_multiplicities, property_star_basis, rho1_su, rho2_su,
                         rho_of, sigma, sl2_from_partition)

from conftest import (build_triple, closed_form, constructed_triples, float_conjugator, is_zero,
                      oracle_coordinates, oracle_weight_mults, torus_matrix,
                      triple_cases, triple_centralizer, triple_id, triple_label,
                      verify_sl2_triple)

SEC53_TABLE = [
    ((5,), True, (4, 2, 0, -2, -4)),
    ((4, 1), False, (3, 1, 0, -1, -3)),
    ((3, 2), False, (2, 1, 0, -1, -2)),
    ((3, 1, 1), True, (2, 0, 0, 0, -2)),
    ((2, 2, 1), False, (1, 1, 0, -1, -1)),
    ((2, 1, 1, 1), False, (1, 0, 0, 0, -1)),
]


@pytest.mark.parametrize("parts,even,vector", SEC53_TABLE)
def test_partition_table(sl5, parts, even, vector):
    t = sl2_from_partition(sl5, parts)
    ok, residuals = verify_sl2_triple(t)
    assert ok, residuals
    assert tuple(int(x) for x in t.torus_vector) == vector
    assert is_even(t) is even


def test_partition_zero_triple(sl5):
    t = sl2_from_partition(sl5, (1,) * 5)
    assert is_zero(t)
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
    # E = 2 E_12 and F = 2 E_21: [E, F] = 4 H != H, so the chain of length 2
    # carries the unit 2, no power of i, and the triple is refused where it
    # is built
    with pytest.raises(ParameterError, match="each a power of i"):
        Sl2Triple(sl2, ExactTriple((((0, 1), (2,)),)), "partition", "scaled")


@pytest.mark.parametrize("case", triple_cases(8, 6, zero=True), ids=triple_id)
def test_chains_give_the_closed_forms(case):
    """H and E read off the chains are the closed forms that built each
    triple before (`conftest.closed_form`): h equal, E's entries equal as a
    set."""
    exact = build_triple(case).exact
    h, e = closed_form(case)
    assert exact.h == h
    assert set(exact.e) == e


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


def test_sigma_refuses_an_odd_number_of_odd_weights(sl3):
    # a stand-in with weights (1, 0, 0): diag(-1, 1, 1) has det -1
    stand_in = types.SimpleNamespace(algebra=sl3, exact=types.SimpleNamespace(h=(1, 0, 0)))
    with pytest.raises(RealizationError, match="defining condition"):
        sigma(stand_in)


def test_sigma_refuses_a_pattern_the_form_does_not_keep(su21):
    """Weights (1, -1, 0): two odd weights, so det sigma = 1, but the form
    matches index 0 with index 2, whose weights differ in parity."""
    triple = Sl2Triple(su21, ExactTriple((((0, 1), (1j,)), ((2,), ()))), "rho1", "stand-in")
    with pytest.raises(RealizationError, match="defining condition"):
        sigma(triple)


@pytest.mark.parametrize("family, params", [("sl", (3,)), ("sl", (4,)), ("su", (2, 1)),
                                            ("su", (2, 2)), ("su", (3, 2))])
def test_sigma_group_condition_matches_the_float_residual(family, params):
    """sigma's exact condition on the weights accepts a parity pattern iff
    diag((-1)^h_i) meets the group's defining conditions in floats."""
    alg = make_algebra(family, *params)
    for h in itertools.product((0, 1), repeat=alg.size):
        s = np.diag([(-1.0) ** w for w in h])
        s = s.astype(complex) if np.iscomplexobj(alg.basis) else s
        stand_in = types.SimpleNamespace(algebra=alg, exact=types.SimpleNamespace(h=h))
        if group_residual(alg, s) <= 1e-8 * alg.size:
            assert np.array_equal(sigma(stand_in), s)
        else:
            with pytest.raises(RealizationError, match="defining condition"):
                sigma(stand_in)


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
        z = triple_centralizer(triple)
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


def test_even_partitions_order():
    parts = even_partitions(5)
    assert parts[0] == (5,)
    assert (3, 1, 1) in parts and (1, 1, 1, 1, 1) in parts
    assert all(len({x % 2 for x in p}) == 1 for p in parts)


def test_property_star_u1(su21):
    t = rho1_su(su21)
    star = property_star_basis(t)
    assert len(star) == 1 and star[0].kind == "elliptic"
    x = star[0].matrix
    assert np.linalg.norm(expm(x) - np.eye(3)) < 1e-9
    d = np.diag(x).imag / (2 * np.pi)
    assert np.allclose(d, [1.0, -2.0, 1.0])


def test_property_star_split_part(sl3):
    t = sl2_from_partition(sl3, (2, 1))
    star = property_star_basis(t)
    assert [s.kind for s in star] == ["hyperbolic"]


def test_property_star_rotation_and_hyperbolic(sl5):
    t = sl2_from_partition(sl5, (3, 1, 1))
    star = property_star_basis(t)
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
    z = triple_centralizer(t)
    star = property_star_basis(t)
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
    z = triple_centralizer(t)
    star = property_star_basis(t)
    assert [s.kind for s in star].count("elliptic") == 3
    assert len(star) == z.dim


def test_property_star_repeated_part_of_size_three():
    # a repeated part of size three spreads the compact generator over three
    # weight spaces: one plane rotation on each
    sl6 = make_algebra("sl", 6)
    t = sl2_from_partition(sl6, (3, 3))
    star = property_star_basis(t)
    assert [s.kind for s in star] == ["elliptic", "hyperbolic", "hyperbolic"]
    want = np.zeros((6, 6))
    for a, b in ((0, 1), (2, 3), (4, 5)):
        want[a, b], want[b, a] = 1.0, -1.0
    assert np.array_equal(star[0].matrix, 2.0 * np.pi * want)
    assert len(star) == triple_centralizer(t).dim


def test_property_star_spans(su21, sl5):
    for alg, t in ((su21, rho1_su(su21)), (sl5, sl2_from_partition(sl5, (3, 1, 1)))):
        z = triple_centralizer(t)
        star = property_star_basis(t)
        span = subspace_from_coordinates(alg, [s.coords for s in star])
        assert span.dim == z.dim == len(star)


@pytest.mark.parametrize("case", triple_cases(6, 4), ids=triple_id)
def test_star_basis_structure(case):
    """Every constructed triple gets a star basis: each element lies in g
    and commutes with H, E and F, its float entries exactly so (equal along
    each pair of equal-length chains, 0 elsewhere); an elliptic element is
    anti-hermitian with exp(X) = 1, a hyperbolic one hermitian; and the
    elements span the float kernel of (ad H, ad E, ad F)."""
    triple = build_triple(case)
    alg = triple.algebra
    n = alg.size
    star = triple.star_basis
    classes = {}
    for idx, _ in triple.exact.chains:
        classes.setdefault(len(idx), []).append(list(idx))
    matched = [(a, b) for chains in classes.values() for a in chains for b in chains]
    for el in star:
        x = el.matrix
        rest = x.copy()
        for a, b in matched:
            assert (x[a, b] == x[a[0], b[0]]).all()
            rest[a, b] = 0
        assert not rest.any()
        scale = max(np.linalg.norm(x), 1.0)
        assert np.linalg.norm(alg.coordinates(x) - el.coords) <= 1e-12 * scale
        for m in triple.images():
            assert np.linalg.norm(bracket(x, m)) <= 1e-12 * scale * max(np.linalg.norm(m), 1.0)
        adjoint = x.conj().T
        if el.kind == "elliptic":
            assert np.linalg.norm(adjoint + x) == 0.0
            assert np.linalg.norm(expm(x) - np.eye(n)) <= 1e-8 * n
        else:
            assert el.kind == "hyperbolic"
            assert np.linalg.norm(adjoint - x) <= 1e-15 * scale
            assert abs(np.linalg.norm(el.coords) - 1.0) <= 1e-12
    z = triple_centralizer(triple)
    assert len(star) == z.dim
    if star:
        span = subspace_from_coordinates(alg, [el.coords for el in star])
        assert span.dim == z.dim
        assert z.contains_vector(span.onb, tol=1e-9)


# elliptic elements over 2*pi: rotations E_ab - E_ba and i-symmetric pairs
_R, _S = "rot", "isym"


def _pinned(n, entries):
    m = np.zeros((n, n), dtype=complex)
    for kind, a, b in entries:
        if kind == _R:
            m[a, b], m[b, a] = 1.0, -1.0
        else:
            m[a, b] = m[b, a] = 1j
    return m


@pytest.mark.parametrize("family, params, make, want", [
    ("su", (2, 1), rho1_su, [np.diag([1j, -2j, 1j])]),
    ("su", (3, 1), rho1_su, [np.diag([0, 1j, -1j, 0]), np.diag([1j, -2j, 0, 1j]),
                             _pinned(4, [(_R, 1, 2)]), _pinned(4, [(_S, 1, 2)])]),
    ("su", (3, 1), rho2_su, [np.diag([1j, 1j, -3j, 1j])]),
    ("sl", (4,), lambda a: sl2_from_partition(a, (2, 2)),
     [_pinned(4, [(_R, 0, 1), (_R, 2, 3)]).real]),
    ("sl", (4,), lambda a: sl2_from_partition(a, (2, 1, 1)), [_pinned(4, [(_R, 1, 2)]).real]),
], ids=["su21-rho1", "su31-rho1", "su31-rho2", "sl4-[2,2]", "sl4-[2,1,1]"])
def test_star_elliptic_elements_pinned(family, params, make, want):
    """The elliptic elements keep their matrices, dtype and order: 2*pi
    times the diagonal lattice, then rotations before i-symmetric pairs."""
    star = make(make_algebra(family, *params)).star_basis
    got = [el.matrix for el in star if el.kind == "elliptic"]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, 2.0 * np.pi * w)


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
    rot = liebend.algebra.expm(drho(s * (SL2_E - SL2_F)))  # the package's one-matrix form
    diag_part = np.diag(np.exp(np.diag(drho(u * A0))))
    nil = _oracle_expm_nilpotent(drho(x * SL2_E))
    return rot @ diag_part @ nil


def _polygon_stack(genera):
    """Every polygon generator of the genera and the conjugator of each."""
    from liebend.bending import fuchsian_generators
    gens = [g for genus in genera for g in fuchsian_generators(genus).generators()]
    return np.array(gens + [float_conjugator(g) for g in gens])


def _assert_bitwise_oracle(triple, stack):
    got = rho_of(triple, stack)
    assert got.shape == (len(stack), triple.h.shape[0], triple.h.shape[0])
    for g2, image in zip(stack, got):
        # tobytes, so that -0.0 and 0.0 count as different
        assert image.tobytes() == _oracle_rho_of(triple, g2).tobytes()
    assert rho_of(triple, stack[0]).tobytes() == got[0].tobytes()


@pytest.mark.parametrize("case", triple_cases(6, 4), ids=triple_label)
def test_stacked_rho_of_is_bitwise_the_per_matrix_form(case):
    """Every constructed triple (sl(n), n <= 6; su(p,q), p <= 4) on the
    polygon generators of genus 2..8 and their conjugators."""
    _assert_bitwise_oracle(build_triple(case), _polygon_stack(range(2, 9)))


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


def test_weights_never_build_ad_h(monkeypatch, fresh_caches, sl5, su32):
    """is_even, genus_bound, g_even, module_multiplicities and the star
    basis read the ad H weights off the basis supports and the centralizer
    off the chains: none of them builds ad H."""
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
        property_star_basis(triple)
        assert calls == []


def _projector(rows):
    rows = np.atleast_2d(rows)
    return rows.T @ np.linalg.pinv(rows.T)


def test_h_centralizer_is_the_kernel_of_ad_h():
    """The unit rows of the weight-zero basis elements span the kernel of
    ad H that the SVD oracle finds, and `centralizer_dim` counts them."""
    for triple in constructed_triples(5, 4):
        alg = triple.algebra
        rows = np.eye(alg.dim)[triple.basis_weights == 0]
        oracle = kernel_of([adjoint_operator(alg, triple.h)], alg.dim, alg.config.rank_rtol)
        assert (len(rows) == len(oracle) == triple.centralizer_dim
                == ad_weight_multiplicities(triple)[0])
        assert np.linalg.norm(_projector(rows) - _projector(oracle), 2) <= 1e-12


@pytest.mark.parametrize("make", [
    lambda: sl2_from_partition(make_algebra("sl", 5), (4, 1)),
    lambda: rho1_su(make_algebra("su", 3, 2))], ids=["sl5-[4,1]", "su3,2-rho1"])
def test_g_even_refuses_a_sigma_that_disagrees_with_the_weights(make):
    """g_even compares sigma_i sigma_j with (-1)^weight on every basis support:
    one flipped entry of sigma's diagonal is a mismatch it must refuse.  The
    triple is a fresh copy, so the flipped sigma reaches no cache."""
    triple = dataclasses.replace(make())
    flipped = triple.sigma.copy()
    flipped[0, 0] = -flipped[0, 0]
    triple.__dict__["sigma"] = flipped  # the cached property's slot
    with pytest.raises(RealizationError,
                       match=r"^even part disagrees with the Ad\(sigma\) fixed space$"):
        g_even(triple)


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
        assert np.iscomplexobj(got) == np.iscomplexobj(triple.algebra.basis)
        assert np.array_equal(got, want), triple.label
