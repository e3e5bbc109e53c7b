import numpy as np
import pytest

from liebend import _ratlin, algebra
from liebend.algebra import (bracket, cartan_involution, adjoint_operator,
                             centralizer, generated_subalgebra, make_algebra,
                             subspace_from_coordinates, subspace_from_matrices)
from liebend.errors import MembershipError, ParameterError, ShapeError
from liebend.weyl import split_torus

from conftest import (classify_element, compact_part_basis, constructed_triples,
                      defining_residual, oracle_coordinates, random_algebra_element,
                      theta_operator)

H2 = np.array([[1.0, 0.0], [0.0, -1.0]])
E2 = np.array([[0.0, 1.0], [0.0, 0.0]])
F2 = E2.T


def test_dimensions():
    assert make_algebra("su", 2, 1).dim == 8
    assert make_algebra("sl", 5).dim == 24
    assert make_algebra("su", 6, 6).dim == 143


def _su_basis_by_element(p, q):
    """Reference oracle: the su(p,q) basis built element by element as
    B @ A for each u(n) basis combination A, the loop the stacked product
    replaced."""
    from liebend.algebra import form_matrix
    n = p + q
    b = form_matrix(p, q)

    def eu(i, j):
        e = np.zeros((n, n), dtype=complex)
        e[i, j] = 1.0
        return e

    mats = [b @ (eu(k, l) - eu(l, k)) for k in range(n) for l in range(k + 1, n)]
    mats += [b @ (1j * (eu(k, l) + eu(l, k))) for k in range(n) for l in range(k + 1, n)
             if not (k < q and l == n - 1 - k)]
    mats += [b @ (1j * eu(k, k)) for k in list(range(q)) + list(range(p, n))]
    carriers = [(1j * (eu(k, n - 1 - k) + eu(n - 1 - k, k)), 2.0) for k in range(q)]
    carriers += [(1j * eu(m, m), 1.0) for m in range(q, p)]
    mats += [b @ (w2 * a1 - w1 * a2) for (a1, w1), (a2, w2) in zip(carriers, carriers[1:])]
    return np.array(mats)


@pytest.mark.parametrize("p,q", [(p, q) for p in range(1, 8) for q in range(1, p + 1)])
def test_su_basis_matches_element_loop(p, q):
    """Same order, values, signed zeros and layout as the element loop."""
    want = _su_basis_by_element(p, q)
    got = make_algebra("su", p, q).basis
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_form_matrix_su21(su21):
    assert su21.form.tolist() == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]


GRID_ALGEBRAS = ([("sl", (n,)) for n in range(2, 11)]
                    + [("su", (p, q)) for p in range(1, 9) for q in range(1, p + 1)])


@pytest.mark.parametrize("family, params", GRID_ALGEBRAS,
                         ids=[f + ",".join(map(str, p)) for f, p in GRID_ALGEBRAS])
def test_a_diagonal_puts_the_torus_on_the_diagonal(family, params):
    """The first r rows of a_diagonal are the identity (the free
    coordinates); diag(a_diagonal @ b) is in the algebra for each vector b
    of the torus basis; and the column sums are the torus's trace row, the
    ones of sl(n,R), or vanish, as in su(p,q), which has no trace row."""
    alg = make_algebra(family, *params)
    torus = split_torus(alg)
    a = alg.a_diagonal
    r = torus.coord_len
    assert a.shape == (alg.size, r) and np.array_equal(a[:r], np.eye(r, dtype=int))
    basis = _ratlin.primitive_nullspace(torus.trace, r)
    assert len(basis) == torus.rank == (params[0] - 1 if family == "sl" else params[1])
    for b in basis:
        alg.coordinates(np.diag(a @ np.array(b)).astype(alg.basis.dtype), check=True)
    sums = tuple(a.sum(axis=0).tolist())
    assert torus.trace == ((sums,) if any(sums) else ())
    assert torus.trace == (((1,) * r,) if family == "sl" else ())


@pytest.mark.parametrize("family, params", GRID_ALGEBRAS,
                         ids=[f + ",".join(map(str, p)) for f, p in GRID_ALGEBRAS])
def test_support_and_dim_are_the_dense_basis_read_back(family, params):
    """One enumeration, two views: the support and dim, read off the
    algebra's entries without building the dense basis, are np.nonzero of
    that basis and its length, and dtype is its dtype."""
    from liebend.config import DEFAULT
    alg = algebra._shared_algebra.__wrapped__(family, params, DEFAULT)  # a fresh, uncached one
    elem, rows, cols, first = alg._support
    dim = alg.dim
    assert "basis" not in vars(alg)
    nonzero = np.nonzero(alg.basis)
    for got, want in zip((elem, rows, cols), nonzero):
        assert np.array_equal(got, want)
    assert np.array_equal(first, np.searchsorted(nonzero[0], np.arange(dim)))
    assert dim == alg.basis.shape[0] and alg.dtype == alg.basis.dtype


def test_parameter_errors():
    with pytest.raises(ParameterError):
        make_algebra("sl", 1)
    with pytest.raises(ParameterError):
        make_algebra("su", 1, 2)
    with pytest.raises(ParameterError):
        make_algebra("su", 2, 0)
    with pytest.raises(ParameterError):
        make_algebra("so", 4)


@pytest.mark.parametrize("family,params", [("sl", (5,)), ("su", (2, 1)), ("su", (3, 2))])
def test_basis_satisfies_defining_conditions(family, params):
    alg = make_algebra(family, *params)
    for m in alg.basis:
        assert defining_residual(alg, m) < 1e-12
    flat = alg.basis.reshape(alg.dim, -1)
    stacked = np.vstack([flat.real.T, flat.imag.T])
    assert np.linalg.matrix_rank(stacked) == alg.dim


def test_bracket_standard_triple():
    assert np.allclose(bracket(H2, E2), 2 * E2)
    assert np.allclose(bracket(E2, F2), H2)
    x = np.arange(9.0).reshape(3, 3)
    assert np.allclose(bracket(x, x), 0.0)


def test_bracket_shape_error():
    with pytest.raises(ShapeError):
        bracket(np.eye(2), np.eye(3))


def test_cartan_involution_eigenspaces(sl3):
    skew = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    sym = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert np.allclose(cartan_involution(sl3, skew), skew)
    assert np.allclose(cartan_involution(sl3, sym), -sym)


def test_cartan_involution_membership_error(sl3):
    with pytest.raises(MembershipError):
        cartan_involution(sl3, np.eye(3))  # nonzero trace


@pytest.mark.parametrize("family,params", [("sl", (4,)), ("su", (2, 1))])
def test_theta_is_involutive_automorphism(family, params, rng):
    alg = make_algebra(family, *params)
    for _ in range(100):
        x = random_algebra_element(alg, rng)
        y = random_algebra_element(alg, rng)
        assert np.allclose(cartan_involution(alg, cartan_involution(alg, x)), x)
        lhs = cartan_involution(alg, bracket(x, y), check=False)
        rhs = bracket(cartan_involution(alg, x), cartan_involution(alg, y))
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * max(np.linalg.norm(lhs), 1.0)


@pytest.mark.parametrize("family,params", [("sl", (5,)), ("su", (3, 2))])
def test_jacobi_identity(family, params, rng):
    alg = make_algebra(family, *params)
    for _ in range(100):
        x, y, z = (random_algebra_element(alg, rng) for _ in range(3))
        resid = (bracket(x, bracket(y, z)) + bracket(y, bracket(z, x))
                 + bracket(z, bracket(x, y)))
        scale = np.linalg.norm(x) * np.linalg.norm(y) * np.linalg.norm(z)
        assert np.linalg.norm(resid) <= 1e-9 * max(scale, 1.0)


@pytest.mark.parametrize("family,params,k_dim", [
    ("sl", (4,), 6),            # so(4)
    ("su", (2, 1), 4),          # p^2 + q^2 - 1
    ("su", (3, 2), 12),
])
def test_cartan_decomposition_dimensions(family, params, k_dim):
    alg = make_algebra(family, *params)
    th = theta_operator(alg)
    eigs = np.linalg.eigvals(th)
    plus = int(np.sum(np.abs(eigs - 1) < 1e-8))
    minus = int(np.sum(np.abs(eigs + 1) < 1e-8))
    assert plus + minus == alg.dim
    assert plus == k_dim
    assert compact_part_basis(alg).dim == k_dim


def test_adjoint_operator_examples(sl2, sl5):
    assert np.allclose(adjoint_operator(sl2, np.zeros((2, 2))), 0.0)
    eigs = np.linalg.eigvals(adjoint_operator(sl2, H2))
    assert sorted(np.round(eigs.real).astype(int)) == [-2, 0, 2]
    h = np.diag([4.0, 2.0, 0.0, -2.0, -4.0])
    eigs5 = np.linalg.eigvals(adjoint_operator(sl5, h))
    ints = np.round(eigs5.real).astype(int)
    assert np.max(np.abs(eigs5 - ints)) < 1e-8
    assert all(v % 2 == 0 for v in ints)


def test_centralizer_examples(su21, su32):
    assert centralizer(su21, np.zeros((3, 3), dtype=complex)).dim == su21.dim
    for alg, (p, q) in ((su21, (2, 1)), (su32, (3, 2))):
        n = p + q
        h1 = np.diag([1.0] * q + [0.0] * (p - q) + [-1.0] * q).astype(complex)
        assert centralizer(alg, h1).dim == 2 * q * q + (p - q) ** 2 - 1
        h2 = np.diag([float(w) for w in range(2 * q, 0, -2)]
                     + [0.0] * (p - q) + [float(-w) for w in range(2, 2 * q + 2, 2)]).astype(complex)
        assert centralizer(alg, h2).dim == (p - q) ** 2 + 2 * q - 1


def test_centralizer_contains_argument(sl5, rng):
    for _ in range(10):
        x = random_algebra_element(sl5, rng)
        c = centralizer(sl5, x)
        assert c.contains_vector(sl5.coordinates(x), tol=1e-7)


def test_generated_subalgebra_examples(sl2):
    triple = generated_subalgebra(sl2, [H2, E2, F2])
    assert triple.dim == 3
    assert generated_subalgebra(sl2, [H2]).dim == 1
    assert generated_subalgebra(sl2, [E2]).dim == 1


def test_generated_subalgebra_idempotent_monotone(sl3, rng):
    seeds = [random_algebra_element(sl3, rng) for _ in range(2)]
    s1 = generated_subalgebra(sl3, seeds)
    s2 = generated_subalgebra(sl3, [sl3.from_coordinates(r) for r in s1.onb])
    assert s1.dim == s2.dim and s1.contains_vector(s2.onb)
    bigger = generated_subalgebra(sl3, seeds + [random_algebra_element(sl3, rng)])
    assert bigger.dim >= s1.dim


def test_generated_subalgebra_stops_at_dim_g(sl3, rng, monkeypatch):
    """Seeds that span g are their own closure: the seeds' rows are the only
    ones reduced, and no stack of brackets is formed."""
    seeds = [random_algebra_element(sl3, rng) for _ in range(sl3.dim + 1)]
    reduced = []
    reduce = algebra.subspace_from_coordinates
    monkeypatch.setattr(algebra, "subspace_from_coordinates",
                        lambda alg, rows: reduced.append(len(rows)) or reduce(alg, rows))
    assert generated_subalgebra(sl3, seeds).dim == sl3.dim
    assert reduced == [len(seeds)]


def test_classify_element_examples(sl2):
    nil = np.array([[0.0, 3.0], [0.0, 0.0]])
    assert classify_element(sl2, nil) == "nilpotent"
    assert classify_element(sl2, H2) == "hyperbolic"
    assert classify_element(sl2, np.array([[0.0, 1.0], [-1.0, 0.0]])) == "elliptic"
    mixed = np.array([[1.0, 0.0], [0.0, -1.0]]) + np.array([[0.0, 1.0], [-0.3, 0.0]])
    kind = classify_element(sl2, mixed)
    assert kind in {"mixed", "elliptic", "hyperbolic"}


def test_subspace_from_matrices_rank(sl3):
    sub = subspace_from_matrices(sl3, [H2_pad := np.diag([1.0, -1.0, 0.0]),
                                       2.0 * H2_pad])
    assert sub.dim == 1


# The per-basis-element loops that the batched coordinate map replaced, kept
# as oracles: one pinv mat-vec per matrix and one bracket per basis element.

ORACLE_ALGEBRAS = ([("sl", (n,)) for n in range(2, 7)]
                   + [("su", (p, q)) for p in range(1, 5) for q in range(1, p + 1)])


def _oracle_from_coordinates(alg, coords):
    return np.tensordot(np.asarray(coords, dtype=float), alg.basis, axes=(0, 0))


def _oracle_adjoint(alg, x):
    x = _oracle_from_coordinates(alg, oracle_coordinates(alg, x))
    return np.array([oracle_coordinates(alg, bracket(x, bm)) for bm in alg.basis]).T


def _oracle_theta(alg):
    return np.array([oracle_coordinates(alg, -bm.conj().T) for bm in alg.basis]).T


def _oracle_generated_dim(alg, seeds):
    space = subspace_from_coordinates(alg, [oracle_coordinates(alg, m) for m in seeds])
    while space.dim > 0:
        mats = [_oracle_from_coordinates(alg, row) for row in space.onb]
        rows = list(space.onb)
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                rows.append(oracle_coordinates(alg, bracket(mats[i], mats[j])))
        bigger = subspace_from_coordinates(alg, rows)
        if bigger.dim == space.dim:
            break
        space = bigger
    return space.dim


def _assert_rel_close(got, want, rtol=1e-12):
    assert np.linalg.norm(got - want) <= rtol * max(np.linalg.norm(want), 1.0)


@pytest.mark.parametrize("family,params", ORACLE_ALGEBRAS)
def test_batched_coordinates_match_oracle(family, params):
    alg = make_algebra(family, *params)
    rng = np.random.default_rng(61)
    coords = rng.normal(size=(4, alg.dim))
    stack = alg.from_coordinates(coords)
    assert stack.shape == (4, alg.size, alg.size)
    for k in range(4):
        _assert_rel_close(stack[k], _oracle_from_coordinates(alg, coords[k]))
    got = alg.coordinates(stack)
    assert got.shape == (4, alg.dim)
    for k in range(4):
        _assert_rel_close(got[k], oracle_coordinates(alg, stack[k]))
        _assert_rel_close(alg.coordinates(stack[k]), oracle_coordinates(alg, stack[k]))
    _assert_rel_close(got, coords)


@pytest.mark.parametrize("family,params", ORACLE_ALGEBRAS)
def test_batched_adjoint_and_theta_match_oracle(family, params):
    alg = make_algebra(family, *params)
    rng = np.random.default_rng(62)
    for _ in range(2):
        x = random_algebra_element(alg, rng)
        _assert_rel_close(adjoint_operator(alg, x), _oracle_adjoint(alg, x))
    _assert_rel_close(theta_operator(alg), _oracle_theta(alg))


def test_coordinate_stack_with_one_non_member_raises(sl3, su21, rng):
    for alg in (sl3, su21):
        stack = np.array([random_algebra_element(alg, rng) for _ in range(3)])
        stack[1] = stack[1] + np.eye(alg.size)  # nonzero trace
        with pytest.raises(MembershipError):
            alg.coordinates(stack)
        assert alg.coordinates(stack, check=False).shape == (3, alg.dim)
        with pytest.raises(ShapeError):
            alg.coordinates(np.zeros((2, alg.size + 1, alg.size + 1)))
        with pytest.raises(ShapeError):
            alg.coordinates(np.zeros(alg.size))


def test_generated_subalgebra_matches_oracle_on_presets():
    """Batched closure dimensions equal the per-pair loop's, on the bend
    presets' certificate seeds and on every constructed triple of sl(2..5)
    and su(p,q) with p <= 3."""
    from liebend.bending import build_plan, fuchsian_generators
    from liebend.report import PRESETS, _triple_from_spec
    for spec in PRESETS.values():
        params = (spec["n"],) if spec["family"] == "sl" else (spec["p"], spec["q"])
        alg = make_algebra(spec["family"], *params)
        triple = _triple_from_spec(alg, spec["triple"])
        plan = build_plan(triple, fuchsian_generators(spec["genus"]))
        seeds = list(triple.images())
        for (i, j) in plan.iso.Lambda:
            if i == 0:
                seeds.append(alg.from_coordinates(plan.x_vectors[(0, j)]))
            else:
                seeds.append(alg.from_coordinates(plan.z((i, j))))
        dim = generated_subalgebra(alg, seeds).dim
        assert dim == _oracle_generated_dim(alg, seeds) == plan.iso.target.dim
    rng = np.random.default_rng(63)
    for triple in constructed_triples(5, 3):
        alg = triple.algebra
        for seeds in (triple.images(), triple.images()[1:] + [random_algebra_element(alg, rng)]):
            assert generated_subalgebra(alg, seeds).dim == _oracle_generated_dim(alg, seeds)


def _expm_arguments(monkeypatch, module, run):
    """Each matrix that run() hands to module.expm, in order."""
    seen = []
    real = module.expm

    def recording(a):
        seen.extend(np.asarray(a).reshape((-1,) + np.shape(a)[-2:]))
        return real(a)

    monkeypatch.setattr(module, "expm", recording)
    run()
    monkeypatch.undo()
    return seen


def _rel_to_mp_expm(a):
    """Frobenius distance of algebra.expm(a) from mpmath's expm of a at 40
    digits, relative to the latter."""
    import mpmath as mp
    with mp.workdps(40):
        want = mp.expm(mp.matrix(a.tolist()))
        diff = mp.matrix(algebra.expm(a).tolist()) - want
        return float(mp.mnorm(diff, "f") / mp.mnorm(want, "f"))


EXPM_RTOL = 1e-14  # Pade [13/13] with scaling: a few ulps on the package's arguments


def test_expm_matches_mpmath_on_the_rho_of_rotations(monkeypatch):
    """The rotations rho_of exponentiates, for every constructed triple
    (sl(n), n <= 6; su(p,q), p <= 4) on the genus 2 polygon generators, and
    their stack is bitwise the per-matrix calls."""
    from liebend import sl2
    from liebend.bending import fuchsian_generators
    gens = np.array(fuchsian_generators(2).generators())
    for triple in constructed_triples(6, 4):
        args = _expm_arguments(monkeypatch, sl2, lambda: sl2.rho_of(triple, gens))
        assert len(args) == len(gens)
        assert max(map(_rel_to_mp_expm, args)) < EXPM_RTOL
        stacked = algebra.expm(np.array(args))
        assert all(algebra.expm(a).tobytes() == r.tobytes() for a, r in zip(args, stacked))


def test_expm_matches_mpmath_on_the_timed_plans_twists(monkeypatch):
    """The twists t X of every plan the verified-report digests list (the
    plans that PASS in perfbench's bend set and both presets), one stack
    per plan over every piece of it."""
    import json
    from pathlib import Path
    from liebend import bending
    from liebend.config import DEFAULT
    from liebend.report import PRESETS, cmd_bend
    doc = json.loads((Path(__file__).resolve().parent / "data"
                      / "bend_report_digests.json").read_text())
    worst = 0.0
    for rec in doc["plans"]:
        plan = PRESETS[rec["plan"]] if isinstance(rec["plan"], str) else rec["plan"]
        args = _expm_arguments(monkeypatch, bending,
                               lambda: cmd_bend(dict(plan, t="auto", verify_dps=0), DEFAULT))
        assert args
        worst = max(worst, *map(_rel_to_mp_expm, args))
    assert worst < EXPM_RTOL


def test_expm_stack_is_bitwise_the_per_matrix_calls(rng):
    """Matrices of 1-norm 1e-3 to 60 take 0 to 4 squarings each; a complex
    stack goes through the same steps."""
    scales = np.array([1e-3, 0.3, 2.0, 7.0, 15.0, 60.0])
    for dtype_part in (np.zeros, lambda shape: 1j * rng.normal(size=shape)):
        stack = rng.normal(size=(6, 5, 5)) + dtype_part((6, 5, 5))
        stack *= (scales / np.abs(stack).sum(axis=-2).max(axis=-1))[:, None, None]
        got = algebra.expm(stack)
        assert got.shape == stack.shape and got.dtype == stack.dtype
        for a, r in zip(stack, got):
            assert algebra.expm(a).tobytes() == r.tobytes()


@pytest.mark.parametrize("a", [
    np.array([[1e308, 1e308], [0.0, 1e308]]),
    np.full((3, 3), np.nan),
    np.array([[np.inf, 0.0], [0.0, 1.0]]),
], ids=["1-norm-overflows", "nan", "inf"])
def test_expm_of_a_non_finite_case_is_non_finite(a):
    """An input whose 1-norm overflows, or that holds NaN or inf, gives a
    non-finite matrix, with no exception and no warning, as scipy's NaN."""
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = algebra.expm(a)
    assert got.shape == a.shape and not np.isfinite(got).all()


def test_expm_of_zero_and_of_a_diagonal():
    assert np.allclose(algebra.expm(np.zeros((3, 3))), np.eye(3), rtol=0, atol=2e-16)
    d = np.array([-2.0, 0.5, 3.0])
    assert np.allclose(algebra.expm(np.diag(d)), np.diag(np.exp(d)), rtol=EXPM_RTOL, atol=0)
