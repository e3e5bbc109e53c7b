"""The Benoist certificate search: one line scan finds exactly where a line
meets the Weyl translates of a_h, and the search ends on every query whose
criterion holds, in a number of exact scans over W bounded by dim b,
including queries on which every line through the staircase along a b
basis vector lies in a translate."""

import json
from fractions import Fraction

import numpy as np
import pytest

from liebend import _ratlin, cli
from liebend.algebra import make_algebra
from liebend.properness import (HSubalgebraTorus, _line_hits, benoist_certificate,
                                benoist_criterion, in_weyl_orbit_of_subspace)
from liebend.weyl import split_torus

from conftest import chunked_scan, nullspace, rank, whole_certificate, whole_weyl

# a search passes over W once for the criterion and the staircase together,
# once for the first b basis line, once for the later ones together and
# once per fallback line; the queries below need at most three fallback lines
SCAN_SLACK = 4

# scales of one line at which `_line_hits` compares the rows in int64, in
# Python ints because products of entries pass 2**63, and in Python ints
# because the scans do
LINE_SCALES = (1, 2 ** 28, 2 ** 58)

# queries on which every point base +- b_k/d lies in a translate of a_h
PINNED = (
    (("su", 5, 5), [[-2, 2, 0, -1, 2], [-1, 0, 0, 0, 2], [0, -1, 1, 2, -2], [-2, 2, 2, 2, 1]],
     ("13", "8", "5", "3", "3/2")),
    (("sl", 7), [[-2, 1, 2, 0, -1, 4, -4], [-1, 1, 0, 0, 1, 0, -1], [-1, 0, -1, 1, -1, 1, 1],
                 [0, 0, -2, 2, 0, 0, 0], [1, 0, -1, -1, 1, -1, 1]],
     ("13/2", "9/2", "5/2", "0", "-5/2", "-9/2", "-13/2")),
)

FAMILIES = [("sl", n) for n in (5, 6, 7)] + \
    [("su", p, q) for p in range(1, 6) for q in range(1, p + 1)]


def translate_mask(torus, v, ah):
    """Entry k is True iff w_k.v lies in span(a_h), in Python ints."""
    ints = np.array(_ratlin.integer_multiple(v), dtype=object)
    ann = np.array(ah.annihilator, dtype=object).reshape(-1, torus.coord_len)
    perms, signs = whole_weyl(torus)
    return ((signs * ints[perms]) @ ann.T == 0).all(axis=1)


def assert_certificate(torus, ah, point):
    assert torus.in_b_plus(point)
    assert in_weyl_orbit_of_subspace(torus, point, ah) == (False, None)
    assert not translate_mask(torus, point, ah).any()


@pytest.mark.parametrize("family", [("sl", 5), ("sl", 6), ("su", 3, 3), ("su", 5, 4)],
                         ids=lambda f: f[0] + "".join(map(str, f[1:])))
def test_line_hits_match_pointwise_scans(family):
    """The m with 0 < |m| <= 12 that one line scan reports are those for
    which staircase + dir/m has a Weyl image in a_h, and None means that a
    translate holds the staircase and dir.  Each a_h holds a Weyl image of
    one point of the line and has codimension 2 in a, so that the annihilator
    rows of one w can disagree on s.  The answer holds with the staircase
    and dir both scaled by each of LINE_SCALES (the same line), so every
    arithmetic path of `_line_hits` is compared with the pointwise masks."""
    torus = split_torus(make_algebra(*family))
    rng = np.random.default_rng(5)
    base = torus.staircase
    span = range(-12, 13)
    found = 0
    paths = set()
    for _ in range(10):
        coeffs = [int(c) for c in rng.integers(-2, 3, torus.b_dim)]
        direction = [sum(c * b[i] for c, b in zip(coeffs, torus.b_basis))
                     for i in range(torus.coord_len)]
        m0 = int(rng.choice([-5, -3, -2, 2, 3, 4]))
        w = torus.element(int(rng.integers(0, torus.weyl_order)))
        rows = [w.apply([x + Fraction(y, m0) for x, y in zip(base, direction)])]
        while len(rows) < torus.rank - 2:
            row = [int(x) for x in rng.integers(-2, 3, torus.coord_len)]
            if family[0] == "sl":
                row[-1] = -sum(row[:-1])
            if rank(rows + [row]) > len(rows):
                rows.append(row)
        ah = HSubalgebraTorus(torus, tuple(tuple(r) for r in rows))
        expected = None
        if not (translate_mask(torus, base, ah) & translate_mask(torus, direction, ah)).any():
            expected = {m for m in span if m and translate_mask(
                torus, [x + Fraction(y, m) for x, y in zip(base, direction)], ah).any()}
            found += len(expected)
        for scale in LINE_SCALES:
            alpha = chunked_scan(torus, [scale * int(x) for x in base], ah)
            beta = chunked_scan(torus, [scale * y for y in direction], ah)
            if scale == 2 ** 58:
                assert alpha.dtype == object
            if object in (alpha.dtype, beta.dtype):
                paths.add("object")
            elif int(np.abs(alpha).max()) * int(np.abs(beta).max()) >= 2 ** 63:
                paths.add("int64 past 2**63")
            else:
                paths.add("int64")
            hits = _line_hits(alpha, beta)
            assert (hits if hits is None else {m for m in hits if m in span}) == expected
    assert found
    assert paths == {"int64", "int64 past 2**63", "object"}


def test_line_hits_do_not_wrap():
    """Int64 scans whose products pass 2**63 are compared in Python ints.
    Here alpha_w1 * beta_w0 and beta_w1 * alpha_w0 differ by exactly 2**64,
    so int64 products would wrap to equal values and report that w meets
    the line at s = -1."""
    alpha = np.array([[2 ** 32, 1]], dtype=np.int64)
    beta = np.array([[2 ** 32, 2 ** 32 + 1]], dtype=np.int64)
    assert _line_hits(alpha, beta) == set()


@pytest.mark.parametrize("alpha, beta", [
    # int64 entries near 2**53: 3 * (2**53 - 5) and 3 * (2**53 - 6) differ,
    # but both round to 3 * 2**53 - 16 as floats, a false hit at s = -1
    (np.array([[3, 2 ** 53 - 5]], dtype=np.int64), np.array([[3, 2 ** 53 - 6]], dtype=np.int64)),
    # an object scan beside an int64 one: -2**61 and -2**61 + 1 differ, but
    # are one float, a false hit at s = 1/2
    (np.array([[1, 2 ** 60]], dtype=object), np.array([[-2, -2 ** 61 + 1]], dtype=np.int64)),
], ids=["int64-near-2**53", "object-and-int64"])
def test_line_hits_are_exact_past_float64(alpha, beta):
    """Cross products that float64 would round to equal values are told
    apart: `_line_hits` compares the scans' integers exactly."""
    assert _line_hits(alpha, beta) == set()


@pytest.mark.parametrize("family, rows, expected", PINNED, ids=["su55", "sl7"])
def test_pinned_queries_print_a_certificate(family, rows, expected, tmp_path, scan_count):
    ah_file, out = tmp_path / "ah.json", tmp_path / "report.json"
    ah_file.write_text(json.dumps(rows))
    args = ["--family", family[0]] + (["--n", str(family[1])] if family[0] == "sl" else
                                      ["--p", str(family[1]), "--q", str(family[2])])
    assert cli.main(["check", *args, "--ah", str(ah_file), "--json", "--out", str(out)]) == 0
    checks = {c["check"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["check/benoist"]["verdict"] is True
    assert tuple(checks["check/benoist"]["witness"]) == expected

    torus = split_torus(make_algebra(*family))
    ah = HSubalgebraTorus(torus, tuple(tuple(r) for r in rows))
    scan_count.calls = 0
    point = benoist_certificate(torus, ah)
    assert scan_count.calls <= torus.b_dim + SCAN_SLACK
    assert tuple(str(x) for x in point) == expected
    assert point == whole_certificate(torus, ah)
    assert_certificate(torus, ah, point)


@pytest.mark.parametrize("family, rows, passes", [(f, r, n) for (f, r, _), n in zip(PINNED, (5, 4))],
                         ids=["su55", "sl7"])
def test_the_later_b_basis_lines_share_one_pass(family, rows, passes, scan_count):
    """One pass over W decides the criterion and the staircase, one the
    first b basis line, one every later b basis line together, and each
    fallback line takes one: su(5,5) needs two fallback lines here and
    sl(7) one."""
    torus = split_torus(make_algebra(*family))
    ah = HSubalgebraTorus(torus, tuple(tuple(r) for r in rows))
    scan_count.calls = 0
    benoist_certificate(torus, ah)
    assert scan_count.calls == passes


def adversarial_queries(seed, draws):
    """Seeded a_h on which the search must leave the b basis lines.

    Each draw is a hyperplane of a (of the traceless diagonal for sl) with a
    normal of entries in -3..3.  A draw is kept when a translate holds the
    staircase, a translate holds each line through it along a b basis
    vector, and no translate holds b.  With dim b <= 2 none can be kept: a
    translate holding such a line holds b.  Draws like these keep none in
    sl(6) or su(p,q) with q = 3, 4 either; sl(7) and su(5,5) keep many."""
    rng = np.random.default_rng(seed)
    out = []
    for family in FAMILIES:
        torus = split_torus(make_algebra(*family))
        n = torus.coord_len
        staircase = torus.staircase
        for _ in range(draws):
            normals = [[int(x) for x in rng.integers(-3, 4, n)]]
            if family[0] == "sl":
                normals.append([1] * n)
            basis = nullspace(normals, n)
            if not basis or len(basis) != n - len(normals):
                continue
            ah = HSubalgebraTorus(torus, tuple(basis))
            b_masks = [translate_mask(torus, b, ah) for b in torus.b_basis]
            on_staircase = translate_mask(torus, staircase, ah)
            if on_staircase.any() and all((on_staircase & m).any() for m in b_masks) \
                    and not np.logical_and.reduce(b_masks).any():
                out.append((family, ah))
    return out


def test_adversarial_queries_end_in_bounded_scans(scan_count):
    queries = adversarial_queries(17, 12)
    assert {family for family, _ in queries} == {("sl", 7), ("su", 5, 5)}
    assert len(queries) >= 6
    for family, ah in queries:
        torus = ah.torus
        assert benoist_criterion(torus, ah)
        scan_count.calls = 0
        point = benoist_certificate(torus, ah)
        assert scan_count.calls <= torus.b_dim + SCAN_SLACK, family
        assert point == whole_certificate(torus, ah)
        assert_certificate(torus, ah, point)
        # the point is on none of the b basis lines through the staircase
        staircase = torus.staircase
        offset = [x - y for x, y in zip(point, staircase)]
        assert all(rank([offset, b]) == 2 for b in torus.b_basis)
