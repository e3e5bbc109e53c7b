import collections
import itertools
import sys
import types
from fractions import Fraction

import numpy as np
import pytest

from liebend import _ratlin
from liebend.algebra import (SU, SubspaceOfG, adjoint_operator, bracket, cartan_involution,
                             kernel_of, make_algebra)
from liebend.errors import RealizationError
from liebend.properness import FLOAT_EXACT, _line_hits, _scan, in_weyl_orbit_of_subspace
from liebend.sl2 import ad_weight_multiplicities
from liebend.weyl import _permutations, split_torus

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
    """Counts the exact passes over W while the test runs: each orbit scan,
    criterion scan (with the staircase, in the certificate search) and line
    scan of `properness` is one `_scan` call.  Read and reset
    `scan_count.calls`."""
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


def rref(rows):
    """Reduced row echelon form over Fraction, (rows, pivot_columns): the
    oracle of `_ratlin`'s fraction-free elimination."""
    mat = [[Fraction(x) for x in r] for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(mat):
            break
    return [tuple(r) for r in mat[:rank]], pivots


def rank(rows):
    """The rank of rational rows, from the Fraction RREF."""
    return len(rref(rows)[0])


def nullspace(rows, ncols):
    """Basis of {x : rows @ x = 0} over Fraction, one vector per free column
    of the RREF (1 there): the oracle of `_ratlin.primitive_nullspace`."""
    red, pivots = rref(rows)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, p in zip(red, pivots):
            vec[p] = -row[free]
        basis.append(tuple(vec))
    return basis


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


def triple_cases(n_max, p_max, zero=False):
    """(family, params, spec) of every triple the package constructs in
    sl(2..n_max), the zero triples too when zero is set, and in su(p,q),
    p <= p_max: plain data to parametrize over, so that a test module
    collects even when a constructor fails."""
    from liebend.sl2 import _partitions
    cases = []
    for n in range(2, n_max + 1):
        cases += [("sl", (n,), parts) for parts in _partitions(n) if zero or max(parts) > 1]
    for p in range(1, p_max + 1):
        for q in range(1, p + 1):
            cases += [("su", (p, q), "rho1")] + ([("su", (p, q), "rho2")] if p > q else [])
    return cases


def triple_label(case):
    """The label of the case's triple: its spec, or its sorted parts as [4,1]."""
    spec = case[2]
    return spec if isinstance(spec, str) else "[" + ",".join(map(str, sorted(spec, reverse=True))) + "]"


def triple_id(case):
    """The test id of a case: family, parameters and label, as sl(5,)-[4,1]."""
    return f"{case[0]}{case[1]}-{triple_label(case)}"


def build_triple(case):
    """The package's triple for a (family, params, spec) case."""
    from liebend.sl2 import rho1_su, rho2_su, sl2_from_partition
    family, params, spec = case
    alg = make_algebra(family, *params)
    if family == "sl":
        return sl2_from_partition(alg, spec)
    return {"rho1": rho1_su, "rho2": rho2_su}[spec](alg)


def constructed_triples(n_max, p_max):
    """Every triple the package constructs in sl(2..n_max) and su(p,q), p <= p_max."""
    return [build_triple(case) for case in triple_cases(n_max, p_max)]


def closed_form(case):
    """Reference oracle: (h, E's entries (row, col, m, unit) as a set) of
    the case's triple by the closed forms that built it before it was given
    by its chains.  A partition concatenates its weight strings and block
    entries k (p - k), sorted stably into the closed chamber; rho1 is
    diag(1..1, 0..0, -1..-1) with its corner block; rho2 carries
    m_k = k (2q + 1 - k) down its leading and trailing blocks and the
    bridge term m_q at (q, p)."""
    family, params, spec = case
    if family == "sl":
        (n,) = params
        weights = [w for p in spec for w in range(p - 1, -p, -2)]
        starts = itertools.accumulate(spec, initial=0)
        entries = [(s + k - 1, s + k, k * (p - k)) for s, p in zip(starts, spec)
                   for k in range(1, p)]
        order = sorted(range(n), key=lambda i: (-weights[i], i))
        new = {old: k for k, old in enumerate(order)}
        return (tuple(weights[i] for i in order),
                {(new[r], new[c], m, 1) for r, c, m in entries})
    p, q = params
    n = p + q
    if spec == "rho1":
        h = tuple(1 if i < q else -1 if i >= n - q else 0 for i in range(n))
        return h, {(k, p + k, 1, 1j) for k in range(q)}
    m = [k * (2 * q + 1 - k) for k in range(q + 1)]
    tops = list(range(2 * q, 0, -2))
    h = tuple(tops + [0] * (p - q) + [-w for w in reversed(tops)])
    return h, ({(k, k + 1, m[k + 1], 1j) for k in range(q)}
               | {(p + j, p + j + 1, m[q - 1 - j], 1j) for j in range(q - 1)}
               | {(q, p, m[q], 1j)})


def bend_subprocess(plan, tmp_path, *args):
    """`bend --plan` on the plan in a child process: (exit code, stdout,
    stderr)."""
    import json
    import os
    import subprocess
    from pathlib import Path
    src = Path(__file__).resolve().parents[1] / "src"
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-m", "liebend.cli", "bend", "--plan",
                           str(tmp_path / "plan.json"), *args], env=env, capture_output=True,
                          text=True, timeout=60)
    return done.returncode, done.stdout, done.stderr


def float_skeleton(value):
    """A parsed report (or any part of one) with every float leaf replaced
    by one placeholder: what is left are the check names, verdicts,
    dimensions, counts and error texts, which no float rounding moves."""
    if isinstance(value, float):
        return "<float>"
    if isinstance(value, dict):
        return {k: float_skeleton(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [float_skeleton(v) for v in value]
    return value


def float_conjugator(a):
    """k with k^-1 a k diagonal for a hyperbolic float 2x2 matrix a: the
    integer kernel's conjugator of the exact a at `bending.FIXED_LINE_BITS`,
    each entry rounded once to float64."""
    from liebend.bending import FIXED_LINE_BITS
    from liebend.intkernel import FixedMatrix, conjugator
    return to_floats(conjugator(FixedMatrix.from_float(a), FIXED_LINE_BITS))


def to_floats(m):
    """A FixedMatrix as a float64 array, complex128 when it has an imaginary
    part: each part of each entry rounded once, to nearest."""
    from liebend.intkernel import _to_float
    to_float = np.vectorize(lambda v: _to_float(int(v), m.exp), otypes=[float])
    return to_float(m.re) if m.im is None else to_float(m.re) + 1j * to_float(m.im)


def torus_matrix(torus, v):
    """Ambient diagonal matrix of a free-coordinate torus vector (the a-pattern)."""
    m = np.diag(torus.algebra.a_diagonal @ np.array(v, dtype=float))
    return m.astype(complex) if np.iscomplexobj(torus.algebra.basis) else m


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


def from_mp(m):
    """An mp.matrix as a FixedMatrix, exactly, read through the raw (sign,
    man, exp, bc) tuples; mpc entries give the imaginary part."""
    import mpmath as mp
    from mpmath import libmp
    from liebend.intkernel import FixedMatrix
    parts = [[[None] * m.cols for _ in range(m.rows)] for _ in range(2)]
    for i in range(m.rows):
        for j in range(m.cols):
            v = mp.mpmathify(m[i, j])
            raw = v._mpc_ if hasattr(v, "_mpc_") else (v._mpf_, libmp.fzero)
            for part, (sign, man, exp, _) in zip(parts, raw):
                part[i][j] = (-int(man) if sign else int(man)), exp
    return FixedMatrix.from_pairs(*parts)


def mp_pair(v):
    """A real mp number as an exact (mantissa, exponent) pair."""
    sign, man, exp, _ = v._mpf_
    return (-int(man) if sign else int(man)), exp


def from_pair(x):
    """An exact (mantissa, exponent) pair as an mpf."""
    import mpmath as mp
    from mpmath import libmp
    return mp.mp.make_mpf(libmp.from_man_exp(*x))


def sl2_inverse(g2):
    """Inverse of a determinant-1 2x2 mp matrix: its adjugate."""
    import mpmath as mp
    return mp.matrix([[g2[1, 1], -g2[0, 1]], [-g2[1, 0], g2[0, 0]]])


def theta_operator(alg):
    """Matrix of the Cartan involution on algebra coordinates."""
    return alg.coordinates(cartan_involution(alg, alg.basis, check=False), check=False).T


def _is_diagonalizable(x, tol):
    x = np.asarray(x, dtype=complex)
    w, v = np.linalg.eig(x)
    cond = np.linalg.cond(v)
    if cond < 1e7:
        return True
    # borderline: accept if the eigenbasis still reconstructs the matrix
    recon = v @ np.diag(w) @ np.linalg.inv(v)
    return np.linalg.norm(recon - x) <= tol * max(np.linalg.norm(x), 1.0)


def classify_element(alg, x):
    """Classify an algebra element as elliptic, hyperbolic, nilpotent or
    mixed, from its float eigenvalues: an oracle for well-separated
    spectra (repeated eigenvalues make `eig` ill-conditioned)."""
    tol = 1e-8
    w = np.linalg.eigvals(np.asarray(x, dtype=complex))
    scale = max(np.max(np.abs(w)), 1.0)
    if np.all(np.abs(w) <= tol * scale):
        return "nilpotent"
    if np.all(np.abs(w.real) <= tol * scale) and _is_diagonalizable(x, tol):
        return "elliptic"
    if np.all(np.abs(w.imag) <= tol * scale) and _is_diagonalizable(x, tol):
        return "hyperbolic"
    return "mixed"


def triple_centralizer(triple):
    """The centralizer of the triple as the float kernel of the stacked
    ad H, ad E and ad F."""
    alg = triple.algebra
    ops = [adjoint_operator(alg, m) for m in triple.images()]
    return SubspaceOfG(alg, kernel_of(ops, alg.dim, alg.config.rank_rtol))


def compact_part_basis(alg):
    """Orthonormal coordinate basis of the +1 eigenspace of theta (i.e. of k)."""
    th = theta_operator(alg)
    return SubspaceOfG(alg, kernel_of([th - np.eye(alg.dim)], alg.dim, alg.config.rank_rtol))


def ah_contains(ah, v):
    """Whether the torus vector v lies in span(a_h), exactly: every
    annihilator functional of `HSubalgebraTorus` vanishes on it."""
    v = ah.torus.vector(v)
    return all(sum(c * x for c, x in zip(row, v)) == 0 for row in ah.annihilator)


def weyl_compatible_identity_holds(torus, ah, samples):
    """Cross-check of the chamber identity a_+ ∩ W.a_h = a_+ ∩ a_h on the given
    exact dominant samples; meaningful only for symmetric-pair subalgebras."""
    for v in samples:
        v = torus.vector(v)
        if not torus.is_dominant(v):
            v, _ = torus.dominant_representative(v)
        member, _ = in_weyl_orbit_of_subspace(torus, v, ah)
        if member != ah_contains(ah, v):
            return False
    return True


def random_group_element(alg, rng, scale=0.3):
    from scipy.linalg import expm
    return expm(random_algebra_element(alg, rng, scale))


TRIPLE_RTOL = 1e-9  # bracket and membership residuals of a triple, relative to its norm


def defining_residual(alg, x):
    """Residual of the defining conditions of an algebra element (trace and,
    for su, the form; for sl, the imaginary part)."""
    x = np.asarray(x)
    r = abs(np.trace(x))
    if alg.family == SU:
        r = max(r, np.linalg.norm(x.conj().T @ alg.form + alg.form @ x))
    else:
        r = max(r, np.linalg.norm(x.imag) if np.iscomplexobj(x) else 0.0)
    return r


def is_zero(triple):
    return max(np.linalg.norm(triple.h), np.linalg.norm(triple.e),
               np.linalg.norm(triple.f)) == 0.0


def verify_sl2_triple(triple):
    """Float cross-check of a triple: its bracket relations and the algebra
    membership of H, E and F, each residual against TRIPLE_RTOL times the
    triple's norm, plus a symmetric ad H weight multiset.  (ok, residuals)."""
    alg = triple.algebra
    h, e, f = triple.h, triple.e, triple.f
    scale = max(np.linalg.norm(h), np.linalg.norm(e), np.linalg.norm(f), 1.0)
    residuals = {
        "[H,E]-2E": float(np.linalg.norm(bracket(h, e) - 2.0 * e)),
        "[H,F]+2F": float(np.linalg.norm(bracket(h, f) + 2.0 * f)),
        "[E,F]-H": float(np.linalg.norm(bracket(e, f) - h)),
        "H in g": float(defining_residual(alg, h)),
        "E in g": float(defining_residual(alg, e)),
        "F in g": float(defining_residual(alg, f)),
    }
    ok = all(r <= TRIPLE_RTOL * scale for r in residuals.values())
    if ok and not is_zero(triple):
        try:
            ad_weight_multiplicities(triple)
        except RealizationError:
            ok = False
    return ok, residuals


# --- whole-W scans: the oracle of the chunked passes of `properness` ---------

def whole_weyl(torus):
    """(perms, signs) of all of W, |W| x coord_len int8, built at once:
    permutations in itertools.permutations order and, for su, the sign
    vectors in itertools.product((1, -1)) order inside each permutation."""
    n = torus.coord_len
    perms = _permutations(n)
    if torus.algebra.family != SU:
        return perms, np.ones_like(perms)
    bits = np.arange(2 ** n)[:, None] >> np.arange(n - 1, -1, -1)
    sign_rows = (1 - 2 * (bits & 1)).astype(np.int8)
    return np.repeat(perms, len(sign_rows), axis=0), np.tile(sign_rows, (len(perms), 1))


def whole_scan(torus, ints, ah, weyl=None):
    """A.(w.v) for every w in W at once, a |W| x rows integer matrix, with
    the exactness rule of `properness._scan` (int64 in place of its
    float64)."""
    perms, signs = weyl or whole_weyl(torus)
    ann = ah.annihilator
    n = torus.coord_len
    bound = n * max(map(abs, ints)) * max((abs(c) for row in ann for c in row), default=0)
    dtype = np.float64 if bound < FLOAT_EXACT else object
    images = np.array(ints, dtype=dtype)[perms] * signs
    scan = images @ np.array(ann, dtype=dtype).reshape(len(ann), n).T
    return scan if dtype is object else scan.astype(np.int64)


def whole_orbit(torus, v, ah, weyl=None):
    """(member, index of the first w moving v into span(a_h), or None)."""
    scan = whole_scan(torus, _ratlin.primitive(torus.vector(v)), ah, weyl)
    hits = np.flatnonzero((scan == 0).all(axis=1))
    return (True, int(hits[0])) if hits.size else (False, None)


def _whole_covers_b(b_scans):
    return bool(np.logical_and.reduce([(s == 0).all(axis=1) for s in b_scans]).any())


def whole_criterion(torus, ah, weyl=None):
    return ah.dim < torus.b_dim or \
        not _whole_covers_b([whole_scan(torus, b, ah, weyl) for b in torus.b_basis])


def whole_certificate(torus, ah, weyl=None):
    """The certificate search of `properness.benoist_certificate` with every
    scan over all of W at once."""
    b_scans = [None] * torus.b_dim
    if ah.dim >= torus.b_dim:
        b_scans = [whole_scan(torus, b, ah, weyl) for b in torus.b_basis]
        if _whole_covers_b(b_scans):
            return None
    base = torus.staircase
    alpha = whole_scan(torus, [int(x) for x in base], ah, weyl)
    if not (alpha == 0).all(axis=1).any():
        return base
    directions = torus.b_basis

    def walk(direction):
        for d in itertools.count(2):
            for m in (d, -d):
                point = tuple(x + Fraction(1, m) * y for x, y in zip(base, direction))
                if torus.is_dominant(point):
                    yield d, m, point

    best = None
    for direction, b_scan in zip(directions, b_scans):
        if best is not None and best[0] == 2:
            break
        points = walk(direction)
        first = next(points)
        if best is not None and first[0] >= best[0]:
            continue
        beta = b_scan if b_scan is not None else whole_scan(torus, direction, ah, weyl)
        hits = _line_hits(alpha, beta)
        if hits is None:
            continue
        d, _, point = next(c for c in itertools.chain([first], points) if c[1] not in hits)
        if best is None or d < best[0]:
            best = d, point
    if best is not None:
        return best[1]
    for c in itertools.count(1):
        direction = [sum(c ** k * b[i] for k, b in enumerate(directions))
                     for i in range(torus.coord_len)]
        hits = _line_hits(alpha, whole_scan(torus, direction, ah, weyl))
        if hits is not None:
            return next(p for _, m, p in walk(direction) if m not in hits)


def keep_scans(*scans):
    """A `properness._scan` decision that keeps the chunk's scans."""
    return scans


def chunked_scan(torus, ints, ah):
    """The chunks of one `properness._scan` pass of v, concatenated."""
    return np.concatenate([scans[0] for _, scans in _scan(torus, [ints], ah, keep_scans)])
