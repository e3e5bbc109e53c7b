import collections
import sys
import types

import numpy as np
import pytest

from liebend.algebra import (SubspaceOfG, adjoint_operator, kernel_of, make_algebra,
                             theta_operator)
from liebend.properness import in_weyl_orbit_of_subspace
from liebend.weyl import _diagonal, split_torus

SEED = 20240817


def shared_caches():
    """Every module-level cache of the package (functools.lru_cache and
    functools.cache objects), found in the loaded liebend modules."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "liebend" or name.startswith("liebend."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    found[id(value)] = value
    return list(found.values())


@pytest.fixture
def fresh_caches():
    """Clears the per-process construction caches, so that a test counting
    work sees the work done and not read from an earlier test's objects."""
    import liebend.highprec  # noqa: F401  (its polygon cache too)
    for cache in shared_caches():
        cache.cache_clear()


@pytest.fixture
def scan_count(monkeypatch):
    """Counts the exact scans over W while the test runs: each orbit mask,
    criterion mask and line scan of `properness` is one `_scan` call.  Read
    and reset `scan_count.calls`."""
    from liebend import properness
    counter = types.SimpleNamespace(calls=0)
    scan = properness._scan

    def counted(*args):
        counter.calls += 1
        return scan(*args)

    monkeypatch.setattr(properness, "_scan", counted)
    return counter


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(SEED)


@pytest.fixture(scope="session")
def sl2():
    return make_algebra("sl", 2)


@pytest.fixture(scope="session")
def sl3():
    return make_algebra("sl", 3)


@pytest.fixture(scope="session")
def sl5():
    return make_algebra("sl", 5)


@pytest.fixture(scope="session")
def su21():
    return make_algebra("su", 2, 1)


@pytest.fixture(scope="session")
def su32():
    return make_algebra("su", 3, 2)


@pytest.fixture(scope="session")
def sl5_torus(sl5):
    return split_torus(sl5)


@pytest.fixture(scope="session")
def su21_torus(su21):
    return split_torus(su21)


@pytest.fixture(scope="session")
def su32_torus(su32):
    return split_torus(su32)


def random_algebra_element(alg, rng, scale=1.0):
    coords = rng.normal(size=alg.dim) * scale
    return alg.from_coordinates(coords)


def oracle_weight_mults(alg, h):
    """Multiplicities of the ad h eigenvalues on the algebra, from eigvals,
    asserted to be integers."""
    eigs = np.linalg.eigvals(adjoint_operator(alg, h))
    assert np.max(np.abs(eigs.imag)) <= 1e-9
    ints = np.round(eigs.real)
    assert np.max(np.abs(eigs.real - ints)) <= 1e-8
    return dict(sorted(collections.Counter(ints.astype(int).tolist()).items()))


def oracle_coordinates(alg, x):
    """Coordinates of one matrix by one pinv mat-vec, as before the batched map."""
    x = np.asarray(x)
    return alg._solver @ np.concatenate([x.reshape(-1).real, x.reshape(-1).imag])


def constructed_triples(n_max, p_max):
    """Every triple the package constructs in sl(2..n_max) and su(p,q), p <= p_max."""
    from liebend.sl2 import _partitions, rho1_su, rho2_su, sl2_from_partition
    out = []
    for n in range(2, n_max + 1):
        alg = make_algebra("sl", n)
        out += [sl2_from_partition(alg, parts) for parts in _partitions(n) if max(parts) > 1]
    for p in range(1, p_max + 1):
        for q in range(1, p + 1):
            alg = make_algebra("su", p, q)
            out += [rho1_su(alg)] + ([rho2_su(alg)] if p > q else [])
    return out


def torus_matrix(torus, v):
    """Ambient diagonal matrix of a free-coordinate torus vector (the a-pattern)."""
    m = np.diag(np.array(_diagonal(torus.algebra, v), dtype=float))
    return m.astype(complex) if torus.algebra.is_complex else m


def matrix_from_json(rows):
    """A matrix read back from its report form (`serialize.matrix_to_json`):
    rows of floats, or rows of [re, im] pairs."""
    if rows and rows[0] and isinstance(rows[0][0], (list, tuple)):
        return np.array([[complex(e[0], e[1]) for e in row] for row in rows])
    return np.array(rows, dtype=float)


def to_mp(m):
    """A FixedMatrix as an mp.matrix, exactly: mpf entries for a real matrix,
    mpc entries for a complex one."""
    import mpmath as mp
    from mpmath import libmp

    def raw(part):
        return [libmp.from_man_exp(int(v), m.exp) for v in part.ravel().tolist()]
    if m.im is None:
        flat = [mp.mp.make_mpf(re) for re in raw(m.re)]
    else:
        flat = [mp.mp.make_mpc(z) for z in zip(raw(m.re), raw(m.im))]
    cols = m.shape[1]
    return mp.matrix([flat[r:r + cols] for r in range(0, len(flat), cols)])


def compact_part_basis(alg):
    """Orthonormal coordinate basis of the +1 eigenspace of theta (i.e. of k)."""
    th = theta_operator(alg)
    return SubspaceOfG(alg, kernel_of([th - np.eye(alg.dim)], alg.dim, alg.config.rank_rtol))


def weyl_compatible_identity_holds(torus, ah, samples):
    """Cross-check of the chamber identity a_+ ∩ W.a_h = a_+ ∩ a_h on the given
    exact dominant samples; meaningful only for symmetric-pair subalgebras."""
    for v in samples:
        v = torus.vector(v)
        if not torus.is_dominant(v):
            v, _ = torus.dominant_representative(v)
        member, _ = in_weyl_orbit_of_subspace(torus, v, ah)
        if member != ah.contains(v):
            return False
    return True


def random_group_element(alg, rng, scale=0.3):
    from scipy.linalg import expm
    return expm(random_algebra_element(alg, rng, scale))
