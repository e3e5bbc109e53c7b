"""The exact weight path against float oracles.

Every constructed triple is diagonal with integer weights, so the package
reads ad H weights (and the restricted-root weights of the split torus) off
the supports of the basis elements.  The oracles below are the float
computations that path replaced: eigenvalues of ad operators, and one SVD
kernel per weight.
"""

import collections
from fractions import Fraction

import numpy as np
import pytest

from liebend.algebra import (adjoint_operator, diagonal_weights, kernel_of, make_algebra,
                             subspace_from_coordinates)
from liebend.errors import ParameterError
from liebend.sl2 import ad_weight_multiplicities, g_even, module_multiplicities
from liebend.weyl import split_torus

from conftest import (build_triple, oracle_weight_mults, torus_matrix, triple_cases,
                      triple_label)

CASES = triple_cases(7, 6)
ALGEBRAS = ([make_algebra("sl", n) for n in range(2, 8)]
            + [make_algebra("su", p, q) for p in range(1, 7) for q in range(1, p + 1)])


def _id(case):
    return f"{case[0]}{','.join(map(str, case[1]))}-{triple_label(case)}"


def _projector(rows):
    rows = np.atleast_2d(rows)
    return rows.T @ np.linalg.pinv(rows.T)


def _same_span(rows, other, tol=1e-9):
    return len(rows) == len(other) and np.linalg.norm(_projector(rows) - _projector(other), 2) <= tol


def oracle_g_even(triple):
    """One SVD kernel of ad H - w per even weight w, orthonormalized."""
    alg = triple.algebra
    ad = adjoint_operator(alg, triple.h)
    rows = [kernel_of([ad - w * np.eye(alg.dim)], alg.dim, alg.config.rank_rtol)
            for w in oracle_weight_mults(alg, triple.h) if w % 2 == 0]
    return subspace_from_coordinates(alg, np.vstack(rows))


def oracle_target_odd(triple):
    """[g_even : V_(2i+1)] from the eigenvalues of ad H on the oracle even part."""
    q = oracle_g_even(triple).onb
    eigs = np.linalg.eigvals(q @ adjoint_operator(triple.algebra, triple.h) @ q.T)
    t_mults = collections.Counter(np.round(eigs.real).astype(int).tolist())
    odd = {i: t_mults[2 * i] - t_mults[2 * i + 2] for i in range(max(t_mults) // 2 + 1)}
    return {i: m for i, m in odd.items() if m > 0}


_GENERIC = tuple(p ** 0.5 for p in (2, 3, 5, 7, 11, 13, 17, 19))


def oracle_root_multiplicities(torus):
    """Eigenvalues of ad of one generic torus element, matched to the roots."""
    alg = torus.algebra
    basis = []
    for i in range(torus.rank):
        free = [0] * torus.coord_len
        if alg.family == "sl":
            free[i], free[i + 1] = 1, -1
        else:
            free[i] = 1
        basis.append(free)
    mu = np.array(_GENERIC[:len(basis)])
    generic = sum(m * torus_matrix(torus, v) for m, v in zip(mu, basis))
    eigs = np.linalg.eigvals(adjoint_operator(alg, generic))
    assert np.max(np.abs(eigs.imag)) <= 1e-7 * max(np.max(np.abs(eigs)), 1.0)
    eigs = eigs.real
    mults = {}
    for r in torus.roots:
        lam = np.array(r.coeffs, dtype=float) @ np.array(basis, dtype=float).T @ mu
        mults[r.coeffs] = int(np.sum(np.abs(eigs - lam) < 1e-6))
    assert sum(mults.values()) + int(np.sum(np.abs(eigs) < 1e-6)) == alg.dim
    return mults


@pytest.mark.parametrize("case", CASES, ids=_id)
def test_exact_weight_path_matches_the_oracles(case):
    triple = build_triple(case)
    alg = triple.algebra
    assert ad_weight_multiplicities(triple) == oracle_weight_mults(alg, triple.h)
    zero_rows = np.eye(alg.dim)[triple.basis_weights == 0]
    assert len(zero_rows) == triple.centralizer_dim
    assert _same_span(zero_rows,
                      kernel_of([adjoint_operator(alg, triple.h)], alg.dim, alg.config.rank_rtol))
    onb = g_even(triple).onb
    assert _same_span(onb, oracle_g_even(triple).onb)
    # byte for byte the even unit rows: they feed the bend plans' target
    even_rows = np.eye(alg.dim)[triple.basis_weights % 2 == 0]
    assert onb.dtype == even_rows.dtype and onb.tobytes() == even_rows.tobytes()
    iso = module_multiplicities(alg, triple)
    target_odd = oracle_target_odd(triple)
    assert iso.target_odd_mults == target_odd
    assert iso.Lambda == tuple((i, j) for i in sorted(target_odd, reverse=True)
                               for j in range(1, target_odd[i] + 1))


def test_exact_weight_path_covers_every_constructed_triple():
    assert len(CASES) == 73


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: f"{a.family}{a.params}")
def test_root_multiplicities_match_the_eigvals_oracle(alg):
    torus = split_torus(alg)
    assert {r.coeffs: r.multiplicity for r in torus.roots} == oracle_root_multiplicities(torus)


def test_diagonal_weights_read_each_support():
    sl3 = make_algebra("sl", 3)
    weights = diagonal_weights(sl3, [(2, 0, -2), (Fraction(1, 2), 0, 0)])
    # E_ij for i != j in row-major order, then the two diagonal elements
    assert weights[0].tolist() == [2, 4, -2, 2, -4, -2, 0, 0]
    assert weights[1].tolist() == [Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2), 0,
                                   Fraction(-1, 2), 0, 0, 0]


def test_a_basis_element_on_two_weights_raises():
    su21 = make_algebra("su", 2, 1)
    # not mirrored: the form pairs index 0 with index 2, so d_0 = -d_2 fails
    with pytest.raises(ParameterError, match="spans the weights"):
        diagonal_weights(su21, [(1, 0, 0)])
    assert diagonal_weights(su21, [(1, 0, -1)]).shape == (1, su21.dim)

