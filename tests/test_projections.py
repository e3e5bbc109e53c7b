import numpy as np
import pytest
from scipy.linalg import expm

from liebend.algebra import make_algebra
from liebend.errors import MembershipError
from liebend.projections import lyapunov, mu, validate_group_element

from conftest import compact_part_basis, random_group_element, torus_matrix


def _float_iota(torus, values):
    """iota on float tuples through the exact signed-permutation structure."""
    w0 = torus.w0
    return tuple(-s * values[p] for s, p in zip(w0.signs, w0.perm))


def test_mu_examples(sl3, su21, su21_torus):
    from liebend.weyl import split_torus
    t3 = split_torus(sl3)
    g = expm(np.diag([1.0, 0.0, -1.0]))
    assert np.allclose(mu(sl3, t3, g), (1.0, 0.0, -1.0), atol=1e-10)

    # orthogonal elements project to zero
    k = expm(np.array([[0.0, 0.4, 0.0], [-0.4, 0.0, 0.2], [0.0, -0.2, 0.0]]))
    assert np.allclose(mu(sl3, t3, k), 0.0, atol=1e-10)

    h1 = np.diag([1.0, 0.0, -1.0]).astype(complex)
    g_su = expm(h1)
    assert np.allclose(mu(su21, su21_torus, g_su), (1.0,), atol=1e-10)


def test_mu_group_membership_error(su21, su21_torus):
    with pytest.raises(MembershipError):
        mu(su21, su21_torus, np.diag([2.0, 1.0, 1.0]).astype(complex))


def test_group_element_validation(sl3, su21):
    validate_group_element(sl3, expm(np.diag([0.3, -0.1, -0.2])))
    g = validate_group_element(su21, expm(np.diag([1.0, 0.0, -1.0]).astype(complex)))
    assert g.shape == (3, 3)
    with pytest.raises(MembershipError):
        validate_group_element(sl3, 2.0 * np.eye(3))


def test_group_validation_accepts_long_bent_products(sl5):
    """Products of the bent sl(5) [5] genus-4 generators are group elements;
    det g loses digits like the product of the singular values, the sum of
    their logs does not."""
    from liebend.bending import bend, build_plan, fuchsian_generators
    from liebend.sl2 import sl2_from_partition
    seed = fuchsian_generators(4)
    bent = bend(build_plan(sl2_from_partition(sl5, (5,)), seed))
    letters = bent.generators() + [np.linalg.inv(m) for m in bent.generators()]
    rng = np.random.default_rng(20240817)
    for length in (5, 8):
        for _ in range(100):
            g = np.eye(5)
            for k in rng.integers(len(letters), size=length):
                g = g @ letters[k]
            validate_group_element(sl5, g)


def test_group_validation_rejects_wrong_determinant(sl5, su21):
    for bad in (2.0 ** 0.2 * np.eye(5), np.diag([-1.0, 1.0, 1.0, 1.0, 1.0]),
                np.zeros((5, 5))):
        with pytest.raises(MembershipError):
            validate_group_element(sl5, bad)
    with pytest.raises(MembershipError):  # det = i: right modulus, wrong phase
        validate_group_element(su21, np.diag([1.0, 1j, 1.0]))


def test_membership_messages_name_the_algebra(sl5, su21):
    with pytest.raises(MembershipError, match=r"^matrix is not in sl\(5\): "):
        sl5.coordinates(np.eye(5))
    with pytest.raises(MembershipError, match=r"^matrix violates the defining condition of sl\(5\)$"):
        validate_group_element(sl5, 2.0 * np.eye(5))
    with pytest.raises(MembershipError, match=r"of su\(2, 1\)$"):
        validate_group_element(su21, np.diag([1.0, 1j, 1.0]))


def test_lyapunov_examples(sl3, su21):
    from liebend.weyl import split_torus
    t3 = split_torus(sl3)
    unip = np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 4.0], [0.0, 0.0, 1.0]])
    assert np.allclose(lyapunov(sl3, t3, unip), 0.0, atol=1e-10)
    a = np.diag([0.7, 0.1, -0.8])
    assert np.allclose(lyapunov(sl3, t3, expm(a)), (0.7, 0.1, -0.8), atol=1e-10)


@pytest.mark.parametrize("family,params", [("sl", (3,)), ("su", (2, 1))])
def test_lyapunov_powers(family, params, rng):
    from liebend.weyl import split_torus
    alg = make_algebra(family, *params)
    torus = split_torus(alg)
    for _ in range(100):
        g = random_group_element(alg, rng)
        lam = np.array(lyapunov(alg, torus, g))
        lam2 = np.array(lyapunov(alg, torus, g @ g))
        assert np.allclose(lam2, 2.0 * lam, atol=1e-8)


@pytest.mark.parametrize("family,params", [("sl", (3,)), ("su", (2, 1))])
def test_mu_inverse_is_iota(family, params, rng):
    from liebend.weyl import split_torus
    alg = make_algebra(family, *params)
    torus = split_torus(alg)
    for _ in range(100):
        g = random_group_element(alg, rng)
        left = mu(alg, torus, np.linalg.inv(g))
        right = _float_iota(torus, mu(alg, torus, g))  # iota preserves the chamber
        assert np.allclose(left, right, atol=1e-8)


@pytest.mark.parametrize("family,params", [("sl", (3,)), ("su", (2, 1))])
def test_mu_bi_k_invariance(family, params, rng):
    from liebend.weyl import split_torus
    alg = make_algebra(family, *params)
    torus = split_torus(alg)
    k_basis = compact_part_basis(alg)
    for _ in range(100):
        g = random_group_element(alg, rng)
        k1 = expm(alg.from_coordinates(k_basis.onb.T @ rng.normal(size=k_basis.dim)))
        k2 = expm(alg.from_coordinates(k_basis.onb.T @ rng.normal(size=k_basis.dim)))
        assert np.allclose(mu(alg, torus, k1 @ g @ k2), mu(alg, torus, g), atol=1e-8)


@pytest.mark.parametrize("family,params", [("sl", (3,)), ("su", (2, 1))])
def test_lyapunov_below_mu_and_equality_on_torus(family, params, rng):
    from liebend.weyl import split_torus
    alg = make_algebra(family, *params)
    torus = split_torus(alg)
    for _ in range(100):
        g = random_group_element(alg, rng)
        lam = np.array(lyapunov(alg, torus, g))
        m = np.array(mu(alg, torus, g))
        assert np.all(np.abs(lam) <= np.abs(m).max() + 1e-8)
        assert np.linalg.norm(lam) <= np.linalg.norm(m) + 1e-8
    a_vec = torus.staircase
    g = expm(0.1 * np.asarray(torus_matrix(torus, a_vec)))
    assert np.allclose(lyapunov(alg, torus, g), mu(alg, torus, g), atol=1e-9)


def test_mu_pairing_violation_raises(su21, su21_torus):
    # a determinant-one matrix violating the form condition is caught before
    # pairing; a crafted pairing failure needs a fake algebra, so just check
    # that the su pairing path runs on a generic group element
    g = expm(np.diag([0.5, 0.0, -0.5]).astype(complex))
    assert len(mu(su21, su21_torus, g)) == 1
