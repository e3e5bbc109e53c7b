"""W as chunks of signed-permutation arrays, checked against two oracles:
the element-by-element Fraction scans over an itertools enumeration of W
that the properness decisions are defined by (kept for rank <= 5, and for
the short certificate walk on sl(7), rank 6), and the whole-W scans of
tests/conftest.py, which build all of W at once (su(6,6), su(7,7) and sl(8),
each of several chunks, with queries whose hits sit at chunk boundaries)."""

import itertools
import types
from fractions import Fraction

import numpy as np
import pytest

from liebend import _ratlin, weyl
from liebend.algebra import make_algebra
from liebend.errors import RealizationError
from liebend.properness import (FLOAT_EXACT, HSubalgebraTorus, _scan, benoist_certificate,
                                benoist_criterion, in_weyl_orbit_of_subspace)
from liebend.weyl import WeylElement, split_torus

from conftest import (chunked_scan, keep_scans, rank, whole_certificate, whole_criterion,
                      whole_orbit, whole_scan, whole_weyl)
from test_certificate import adversarial_queries

FAMILIES = [("sl", 3), ("sl", 4), ("sl", 5), ("su", 1, 1), ("su", 2, 1), ("su", 2, 2),
            ("su", 3, 2), ("su", 3, 3), ("su", 4, 3)]
CERT_MAX_DENOMINATOR = 12  # keeps the oracle's certificate search short


@pytest.fixture(scope="module", params=FAMILIES, ids=lambda f: f[0] + "".join(map(str, f[1:])))
def torus(request):
    return split_torus(make_algebra(*request.param))


# --- reference oracle -------------------------------------------------------

def oracle_weyl(torus):
    n = torus.coord_len
    if torus.algebra.family == "sl":
        return [WeylElement(p, (1,) * n) for p in itertools.permutations(range(n))]
    return [WeylElement(p, s) for p in itertools.permutations(range(n))
            for s in itertools.product((1, -1), repeat=n)]


def _annihilated(ah, u):
    return all(sum(c * x for c, x in zip(row, u)) == 0 for row in ah.annihilator)


def _in_translate(ah, w, v):
    """v in w.span(a_h), tested as w^{-1} v in span(a_h)."""
    u = [None] * len(v)
    for i, (s, p) in enumerate(zip(w.signs, w.perm)):
        u[p] = s * v[i]
    return _annihilated(ah, u)


def oracle_orbit(torus, v, ah):
    for w in oracle_weyl(torus):
        if _annihilated(ah, w.apply(v)):
            return True, w
    return False, None


def oracle_criterion(torus, ah):
    if ah.dim < torus.b_dim:
        return True
    return not any(all(_in_translate(ah, w, b) for b in torus.b_basis)
                   for w in oracle_weyl(torus))


def oracle_certificate(torus, ah, max_denominator):
    if not oracle_criterion(torus, ah):
        return None
    weyl = oracle_weyl(torus)

    def outside_all(v):
        return not any(_in_translate(ah, w, v) for w in weyl)

    base = torus.staircase
    if outside_all(base):
        return base
    for denom in range(2, max_denominator + 1):
        for direction in torus.b_basis:
            for sign in (1, -1):
                cand = tuple(x + sign * Fraction(1, denom) * d for x, d in zip(base, direction))
                if torus.is_dominant(cand) and torus.in_b(cand) and outside_all(cand):
                    return cand
    raise RealizationError("no rational certificate point found below the denominator cap")


# --- seeded random queries ---------------------------------------------------

def random_vector(torus, rng, big):
    n = torus.coord_len
    if big:  # entries near 2**40: dot products pass 2**53, so the object lane runs
        raw = [Fraction(int(x)) for x in rng.integers(-2 ** 40, 2 ** 40, n)]
    else:
        raw = [Fraction(int(a), int(b)) for a, b in
               zip(rng.integers(-4, 5, n), rng.integers(1, 4, n))]
    if torus.algebra.family == "sl":
        raw[-1] = -sum(raw[:-1])
    return torus.vector(raw)


def random_ah(torus, rng, dim, big):
    while True:
        rows = [random_vector(torus, rng, big) for _ in range(dim)]
        if rank(rows) == dim:
            return HSubalgebraTorus(torus, tuple(rows))


def random_queries(torus, seed, count):
    """(a_h, v) pairs; half the v are Weyl images of points of a_h, so that
    members and non-members both occur."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        big = k % 4 == 3
        ah = random_ah(torus, rng, int(rng.integers(0, torus.rank + 1)), big)
        if k % 2:
            coeffs = rng.integers(-3, 4, ah.dim)
            u = tuple(sum(int(c) * b[i] for c, b in zip(coeffs, ah.basis))
                      for i in range(torus.coord_len))
            v = torus.element(int(rng.integers(0, torus.weyl_order))).apply(u)
        else:
            v = random_vector(torus, rng, big)
        out.append((ah, torus.vector(v)))
    return out


def test_element_matches_itertools_enumeration(torus):
    assert torus.weyl_order == len(oracle_weyl(torus))
    assert [torus.element(i) for i in range(torus.weyl_order)] == oracle_weyl(torus)


def test_orbit_membership_matches_oracle(torus):
    verdicts = set()
    for ah, v in random_queries(torus, 11, 24):
        got = in_weyl_orbit_of_subspace(torus, v, ah)
        assert got == oracle_orbit(torus, v, ah)
        verdicts.add(got[0])
    assert verdicts == {True, False}


def benoist_queries(torus, seed, count):
    """Every other a_h contains a Weyl translate of b, so that the criterion
    fails; of the rest, every other one contains a Weyl image of the
    staircase point, so that the certificate search has to move off it."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        big = k % 4 == 3
        dim = int(rng.integers(0, torus.rank + 1))
        w = torus.element(int(rng.integers(0, torus.weyl_order)))
        if k % 2:
            rows = [w.apply(b) for b in torus.b_basis]
        else:
            rows = [w.apply(torus.staircase)] if k % 4 == 2 else []
        dim = max(dim, len(rows))
        while len(rows) < dim:
            row = random_vector(torus, rng, big)
            if rank(rows + [row]) > len(rows):
                rows.append(row)
        out.append(HSubalgebraTorus(torus, tuple(rows)))
    return out


def check_certificate(torus, ah, max_denominator):
    """Where the oracle's short walk finds a point, the search returns that
    point; past it, the search still returns a point of b_plus outside every
    translate, checked against the oracle's list of W.  True when the walk
    found no point."""
    point = benoist_certificate(torus, ah)
    try:
        expected = oracle_certificate(torus, ah, max_denominator)
    except RealizationError:
        assert torus.in_b_plus(point)
        assert not any(_in_translate(ah, w, point) for w in oracle_weyl(torus))
        return True
    assert point == expected
    return False


def test_benoist_matches_oracle(torus):
    verdicts = set()
    for ah in benoist_queries(torus, 12, 12):
        verdict = benoist_criterion(torus, ah)
        assert verdict == oracle_criterion(torus, ah)
        verdicts.add(verdict)
        check_certificate(torus, ah, CERT_MAX_DENOMINATOR)
    assert verdicts == {True, False}


def test_benoist_past_the_oracle():
    """The adversarial a_h of tests/test_certificate.py put every line
    through the staircase along a b basis vector in a translate, so the
    oracle's walk finds nothing below any cap (2 keeps it short).  One query
    per family, sl(7) and su(5,5)."""
    queries = {}
    for family, ah in adversarial_queries(17, 12):
        queries.setdefault(family, ah)
    assert set(queries) == {("sl", 7), ("su", 5, 5)}
    for ah in queries.values():
        assert check_certificate(ah.torus, ah, 2)


def test_integer_scan_does_not_wrap():
    """Dot products past 2**63 must stay exact (the 2**53 bound sends them
    to Python ints)."""
    torus = split_torus(make_algebra("su", 2, 2))
    ah = HSubalgebraTorus(torus, ((2 ** 32, 1),))  # annihilator (1, -2**32)
    assert in_weyl_orbit_of_subspace(torus, (0, 2 ** 32), ah) == (False, None)
    # primitive already: the identity image gives 2**32 - 2**32 * (2**32 + 1)
    # = -2**64, which int64 arithmetic would wrap to 0, a false member
    assert in_weyl_orbit_of_subspace(torus, (2 ** 32, 2 ** 32 + 1), ah) == (False, None)


def chunks_at_budget(family, n, budget, monkeypatch, element_bytes=None):
    """The chunk table of W and its chunks, cut at the given byte budget for
    a pass holding element_bytes per element (by default 8 * n, a
    one-vector scan of a line a_h: n - 1 annihilator rows), as
    `SplitTorusData.weyl_chunks` sizes it from the torus's coord_len, sign
    table and |W|.  These are read off a stand-in torus holding the sign
    table `split_torus` gives the family (one row for sl, 2**n for su), so
    that sl(1) is covered too."""
    monkeypatch.setattr(weyl, "WEYL_CHUNK_BYTES", budget)
    torus = types.SimpleNamespace(coord_len=n,
                                  signs=weyl._sign_vectors(n, 1 if family == "sl" else 2 ** n))
    torus.weyl_order = weyl.SplitTorusData.weyl_order.fget(torus)
    table = weyl.SplitTorusData.weyl_chunks(torus, element_bytes or 8 * n)
    return table, list(table.chunks())


def assert_chunks_match_itertools(family, n, table, chunks, element_bytes=None):
    """The concatenated chunks of W, element for element: permutations in
    itertools.permutations order and, for su, the sign vectors in
    itertools.product((1, -1)) order inside each permutation.  Each chunk
    starts where the previous one ends, the cached table is read-only, and
    a chunk's elements at element_bytes each fit the budget unless one
    permutation's sign vectors alone do not, while a chunk one prefix entry
    shorter would not."""
    signs_per_perm = len(table.signs)
    size = len(table.tail) * signs_per_perm
    assert [start for start, _, _ in chunks] == [j * size for j in range(len(chunks))]
    blocks = [np.column_stack([np.tile(np.array(prefix, dtype=int), (len(table.tail), 1)),
                               rest[table.tail]]) for _, prefix, rest in chunks]
    perms = np.repeat(np.concatenate(blocks), signs_per_perm, axis=0)
    signs = np.tile(table.signs, (len(perms) // signs_per_perm, 1))
    ref = list(itertools.permutations(range(n)))
    if family == "sl":
        assert perms.tolist() == [list(p) for p in ref]
        assert (signs == 1).all()
    else:
        ref_signs = list(itertools.product((1, -1), repeat=n))
        assert perms.tolist() == [list(p) for p in ref for _ in ref_signs]
        assert signs.tolist() == [list(s) for _ in ref for s in ref_signs]
    assert table.tail.dtype == table.signs.dtype == np.int8
    assert not table.tail.flags.writeable and not table.signs.flags.writeable
    element_bytes = element_bytes or 8 * n
    assert len(table.tail) * signs_per_perm * element_bytes <= weyl.WEYL_CHUNK_BYTES \
        or table.prefix_len == n
    assert table.prefix_len == 0 or \
        len(table.tail) * (n - table.prefix_len + 1) * signs_per_perm * element_bytes \
        > weyl.WEYL_CHUNK_BYTES


SMALL_WEYL = [("sl", n) for n in range(1, 9)] + [("su", q) for q in range(1, 7)]


@pytest.mark.parametrize("family, n", SMALL_WEYL, ids=lambda v: str(v))
def test_weyl_arrays_match_itertools(family, n, monkeypatch):
    """At the package's budget, a one-vector scan of a line a_h cuts sl(8)
    and su(6,6) into several chunks and the smaller groups into one."""
    table, chunks = chunks_at_budget(family, n, weyl.WEYL_CHUNK_BYTES, monkeypatch)
    assert_chunks_match_itertools(family, n, table, chunks)
    assert (len(chunks) > 1) == ((family, n) in (("sl", 8), ("su", 6)))


@pytest.mark.parametrize("family, n", SMALL_WEYL, ids=lambda v: str(v))
def test_weyl_chunks_at_a_tiny_budget(family, n, monkeypatch):
    """A 64-byte budget cuts W into many chunks for every n >= 3."""
    table, chunks = chunks_at_budget(family, n, 64, monkeypatch)
    assert_chunks_match_itertools(family, n, table, chunks)
    assert len(chunks) > 1 or n < 3


@pytest.mark.parametrize("family", [("sl", 7), ("sl", 8), ("su", 5, 5), ("su", 6, 6)],
                         ids=lambda f: f[0] + "".join(map(str, f[1:])))
def test_weyl_chunks_follow_the_element_bytes(family):
    """The more a pass holds per element of W, the shorter its chunks: from
    a one-byte mask to the six rows of eleven entries of a line pass, each
    table of the torus is the shortest prefix that fits the budget, in
    itertools order."""
    torus = split_torus(make_algebra(*family))
    n = torus.coord_len
    prefixes = []
    for element_bytes in (1, 8, 8 * n, 8 * 4 * 4, 8 * 11 * 6):
        table = torus.weyl_chunks(element_bytes)
        assert_chunks_match_itertools(family[0], n, table, list(table.chunks()), element_bytes)
        prefixes.append(table.prefix_len)
    assert prefixes == sorted(prefixes) and prefixes[0] < prefixes[-1]


def object_scan(torus, ints, ah):
    """A.(w.v) over W in Python ints: the reference for `_scan`."""
    perms, signs = whole_weyl(torus)
    images = signs.astype(object) * np.array(ints, dtype=object)[perms]
    return (images @ np.array(ah.annihilator, dtype=object).T).tolist()


# (family, a_h basis, v, coord_len * max|v| * max|ann|)
SCAN_EDGES = [
    # one coordinate, annihilator (1,): the bound is |v|
    (("su", 2, 1), (), [FLOAT_EXACT - 1], FLOAT_EXACT - 1),
    (("su", 2, 1), (), [FLOAT_EXACT], FLOAT_EXACT),
    # annihilator (1, 1): sums of two entries reach +-(2**53 - 2)
    (("su", 2, 2), ((1, -1),), [2 ** 52 - 1, 2 ** 52 - 1], FLOAT_EXACT - 2),
    (("su", 2, 2), ((1, -1),), [2 ** 52, -2 ** 52], FLOAT_EXACT),
]


@pytest.mark.parametrize("family, basis, ints, bound", SCAN_EDGES,
                         ids=["2**53-1", "2**53", "sum-2**53-2", "sum-2**53"])
def test_scan_takes_float64_below_2_53_and_is_exact(family, basis, ints, bound):
    """A bound below 2**53 takes the float64 BLAS product, returned as
    float64 and equal to the Python-int scan; a bound of 2**53 takes the
    object path."""
    torus = split_torus(make_algebra(*family))
    ah = HSubalgebraTorus(torus, basis)
    assert torus.coord_len * max(map(abs, ints)) * \
        max(abs(c) for row in ah.annihilator for c in row) == bound
    dtypes = {scans[0].dtype for _, scans in _scan(torus, [ints], ah, keep_scans)}
    assert dtypes == {np.dtype(np.float64) if bound < FLOAT_EXACT else np.dtype(object)}
    assert chunked_scan(torus, ints, ah).tolist() == object_scan(torus, ints, ah)


# --- chunk boundaries, against the whole-W scans of tests/conftest.py -------

BOUNDARY_FAMILIES = [("su", 6, 6), ("su", 7, 7), ("sl", 8)]


@pytest.fixture(scope="module", params=BOUNDARY_FAMILIES,
                ids=lambda f: f[0] + "".join(map(str, f[1:])))
def chunked(request):
    """(torus, whole W, rows per chunk) for a torus whose W spans several
    chunks in a one-vector scan of a line a_h (8 * coord_len bytes per
    element).  A pass holding at least that much per element has chunks
    whose sizes divide that one, so the multiples of it are chunk
    boundaries of that pass too: every orbit scan and line pass below, and
    each criterion pass that covers b."""
    torus = split_torus(make_algebra(*request.param))
    table = torus.weyl_chunks(8 * torus.coord_len)
    rows = len(table.tail) * len(table.signs)
    assert torus.weyl_order // rows >= 6
    return torus, whole_weyl(torus), rows


def preimage(w, u):
    """The v with w.v = u."""
    v = [None] * len(u)
    for s, p, x in zip(w.signs, w.perm, u):
        v[p] = s * x
    return tuple(v)


def generic_vector(torus, rng, big):
    """Entries of distinct absolute values, not all of one sign, with zero
    trace for sl: only w and, for su, -w move w^{-1}.u onto the line of u.
    With big, the entries pass 2**50, so the scans take object arrays."""
    n = torus.coord_len
    offset = 2 ** 50 if big else 0
    raw = [offset + int(x) for x in rng.choice(np.arange(1, 4 * n), n, replace=False)]
    if torus.algebra.family == "sl":
        raw[-1] = -sum(raw[:-1])
    else:
        raw[0] = -raw[0]
    return torus.vector(raw)


def boundary_indices(torus, rows, rng):
    """Element indices at chunk boundaries: the last row of a chunk, the
    first row of the next, and, for su, the first row of the last
    permutation of a chunk (the last row of a chunk has all signs -1, and
    its first hit is that row's sign-flipped twin)."""
    out = []
    for j in sorted(rng.choice(np.arange(1, torus.weyl_order // rows), 2, replace=False)):
        end = int(j) * rows
        out += [end - 1, end]
        if torus.algebra.family == "su":
            out.append(end - 2 ** torus.coord_len)
    return out


def test_orbit_first_hit_at_chunk_boundaries(chunked):
    """The witness of a line span(u) hit only by w_i (and, for su, by -w_i)
    is the same first hit as in the whole-W scan, for w_i at the last row of
    a chunk and the first row of the next, and in the object lane."""
    torus, weyl_arrays, rows = chunked
    rng = np.random.default_rng(41)
    big_done = torus.weyl_order > 10 ** 5  # su(7,7): the object lane over all of W is slow
    for i in boundary_indices(torus, rows, rng):
        for big in (False,) if big_done else (False, True):
            u = generic_vector(torus, rng, big)
            ah = HSubalgebraTorus(torus, (u,))
            v = preimage(torus.element(i), u)
            lane = next(_scan(torus, [_ratlin.primitive(v)], ah, keep_scans))[1][0].dtype
            assert (lane == object) == big
            member, w = in_weyl_orbit_of_subspace(torus, v, ah)
            found, first = whole_orbit(torus, v, ah, weyl_arrays)
            assert member and found and w == torus.element(first)
            assert first == (i if torus.algebra.family == "sl" or i % 2 ** torus.coord_len == 0
                             else i - (2 ** torus.coord_len - 1))
        big_done = True
    v = generic_vector(torus, rng, False)
    ah = HSubalgebraTorus(torus, (generic_vector(torus, rng, False),))
    assert in_weyl_orbit_of_subspace(torus, v, ah) == (False, None)
    assert whole_orbit(torus, v, ah, weyl_arrays) == (False, None)


def test_benoist_at_chunk_boundaries(chunked):
    """The criterion verdict and the certificate point agree with the
    whole-W search on seeded a_h that hold the w_i-translate of b (the
    criterion fails) or of the staircase (the search walks), with w_i at
    chunk boundaries; on su(6,6) and sl(8) one staircase query has random
    rows past 2**40, so its scans take object arrays."""
    torus, weyl_arrays, rows = chunked
    rng = np.random.default_rng(43)
    verdicts, walked = set(), False
    for k, i in enumerate(boundary_indices(torus, rows, rng)[:4]):
        w = torus.element(i)
        if k % 2:
            basis = [preimage(w, b) for b in torus.b_basis]
        else:
            basis = [preimage(w, torus.staircase)]
            big = k == 2 and torus.weyl_order < 10 ** 5
            while len(basis) < torus.rank - 1:
                row = random_vector(torus, rng, big)
                if rank(basis + [row]) > len(basis):
                    basis.append(row)
        ah = HSubalgebraTorus(torus, tuple(basis))
        verdict = benoist_criterion(torus, ah)
        assert verdict == whole_criterion(torus, ah, weyl_arrays)
        point = benoist_certificate(torus, ah)
        assert point == whole_certificate(torus, ah, weyl_arrays)
        verdicts.add(verdict)
        walked |= verdict and point != torus.staircase
    assert verdicts == {True, False} and walked


def _first_point(torus, direction):
    base = torus.staircase
    for d in itertools.count(2):
        for m in (d, -d):
            point = tuple(x + Fraction(1, m) * y for x, y in zip(base, direction))
            if torus.is_dominant(point):
                return point


@pytest.mark.parametrize("family", [("sl", 8), ("su", 6, 6)], ids=["sl8", "su66"])
def test_certificate_merges_the_chunks(family):
    """The certificate search gathers what each chunk of W says.  Each a_h
    holds the w-translate of the staircase and the v-translate of the first
    point of the first b basis line, so the staircase is hit and so is that
    point; w and v are drawn until every hit of the staircase and of the
    line lies before the last chunk, so a search that kept only the last
    chunk's answer would return the staircase, or that point.  On sl(8)
    dim a_h = dim b, so the criterion shares the staircase's pass.  The
    last chunk is the one of a one-vector scan of a line a_h; the passes
    here hold at least as much per element, so their last chunks lie
    inside it."""
    torus = split_torus(make_algebra(*family))
    table = torus.weyl_chunks(8 * torus.coord_len)
    last = torus.weyl_order - len(table.tail) * len(table.signs)
    weyl_arrays = whole_weyl(torus)
    base = torus.staircase
    point = _first_point(torus, torus.b_basis[0])
    rng = np.random.default_rng(47)
    dim = torus.b_dim if family[0] == "sl" else 2
    found = 0
    for _ in range(40):
        w, v = (torus.element(int(rng.integers(0, last))) for _ in range(2))
        rows = [preimage(w, base), preimage(v, point)]
        while len(rows) < dim:
            row = random_vector(torus, rng, False)
            if rank(rows + [row]) > len(rows):
                rows.append(row)
        if rank(rows) < dim:
            continue
        ah = HSubalgebraTorus(torus, tuple(rows))
        hit_rows = [np.flatnonzero((whole_scan(torus, _ratlin.integer_multiple(x), ah, weyl_arrays)
                                    == 0).all(axis=1)) for x in (base, point)]
        if not whole_criterion(torus, ah, weyl_arrays) or \
                any(hits.max() >= last for hits in hit_rows):
            continue
        expected = whole_certificate(torus, ah, weyl_arrays)
        assert expected not in (base, point)
        assert benoist_certificate(torus, ah) == expected
        found += 1
        if found == 2:
            break
    assert found == 2
