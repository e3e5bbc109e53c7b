import numpy as np
import pytest

from liebend.algebra import make_algebra
from liebend.weyl import split_torus

SEED = 20240817


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


def random_group_element(alg, rng, scale=0.3):
    from scipy.linalg import expm
    return expm(random_algebra_element(alg, rng, scale))
