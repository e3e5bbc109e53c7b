"""Exact properness decisions: Weyl-orbit membership, the sl(2,R) criterion,
the non-virtually-abelian existence criterion and the equal-rank
obstruction.

Every decision here is exact: each quantifier over W is one pass of
`_scan` over the chunks of W (`SplitTorusData.weyl_chunks`), in the enumeration
order of W, with one vectorized exact scan per chunk, sized by what the pass
keeps per element, so memory stays bounded by WEYL_CHUNK_BYTES and not by
|W|.  A pass stops at the first chunk that decides it.  Floats appear only
in the scans, as BLAS products of integers that float64 holds exactly.
"""

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _ratlin
from .errors import ParameterError


@dataclass(frozen=True, eq=False)
class HSubalgebraTorus:
    """Exact rational subspace a_h of the split torus (basis in free coordinates).

    `annihilator` holds primitive integer functionals cutting out span(a_h):
    u is in the span iff every functional vanishes on u (fast exact
    membership).  One elimination of the basis gives both them and the
    independence check."""
    torus: object
    basis: tuple
    annihilator: tuple = field(init=False)

    def __post_init__(self):
        vecs = tuple(self.torus.vector(v) for v in self.basis)
        n = self.torus.coord_len
        ann = tuple(_ratlin.primitive_nullspace(vecs, n))
        if len(ann) != n - len(vecs):
            raise ParameterError("a_h basis vectors are linearly dependent over Q")
        object.__setattr__(self, "basis", vecs)
        object.__setattr__(self, "annihilator", ann)

    @property
    def dim(self):
        return len(self.basis)


# float64 holds every integer below 2**53 exactly
FLOAT_EXACT = 2 ** 53
# rows of a line pass's size that a `_line_hits` call allocates besides the
# scans: the moving rows of its two as integers, and their two cross products
LINE_TEMPORARIES = 4


def _scan(torus, vectors, ah, decide, temporaries=0):
    """One pass over W: for each chunk of W in order, (start,
    decide(*scans)), where scans[j] holds A.(w.v_j) for the chunk's elements
    w, v_j is the j-th integer vector and the rows of A are the r annihilator
    rows of a_h.  Row k of scans[j] is zero iff w_{start+k}.v_j lies in
    span(a_h).  A chunk's scans are freed before the next one is built.

    w = (perm, signs) maps v to signs * v[perm], so A.(w.v) equals
    v[perm] . (signs * A)^T: the signs are folded into A once per pass (one
    block of columns per sign vector).  In a chunk, perm is a fixed prefix
    followed by rest[tail], so the scan is v[rest][tail] times the rows of
    that matrix for the tail positions, plus one row for the prefix
    positions, shared by the chunk.  When coord_len * max|v| * max|ann| <
    2**53, every partial sum of every dot product is an integer below 2**53
    in absolute value, so the float64 BLAS products and their sum are exact
    in any summation order, and the scan stays float64.  Otherwise object
    arrays of Python ints keep it exact.  The rule is decided per vector, so
    every chunk of one vector has one dtype."""
    ann = ah.annihilator
    n, r = torus.coord_len, len(ann)
    # per element of W the pass keeps r + 1 float64 entries (a scan and room
    # for its zero tests) for each vector and each row of temporaries that
    # decide allocates; one vector's gathered tail rows, the signed
    # annihilators and, in the object lane, Python ints come on top
    table = torus.weyl_chunks(8 * (r + 1) * (len(vectors) + temporaries))
    k = table.prefix_len
    ann_max = max((abs(c) for row in ann for c in row), default=0)
    lanes = []
    for ints in vectors:
        dtype = np.float64 if n * max(map(abs, ints)) * ann_max < FLOAT_EXACT else object
        ann_t = np.array(ann, dtype=dtype).reshape(r, n).T
        signed = (table.signs[:, :, None] * ann_t).transpose(1, 0, 2).reshape(n, -1)
        lanes.append((np.array(ints, dtype=dtype), signed))
    rows = len(table.tail) * len(table.signs)
    for start, prefix, rest in table.chunks():
        scans = []
        for v, signed in lanes:
            scan = v[rest][table.tail] @ signed[k:]
            if k:
                scan += v[list(prefix)] @ signed[:k]
            scans.append(scan.reshape(rows, r))
        yield start, decide(*scans)
        scans = scan = None  # freed before the next chunk's scans are built


def _hits(scan):
    """Mask over a chunk: True where the image lies in span(a_h)."""
    return (scan == 0).all(axis=1)


def in_weyl_orbit_of_subspace(torus, v, ah):
    """(bool, witness w) deciding whether some w in W moves v into span(a_h);
    the witness is the first such w in the enumeration order of W, and the
    scan stops at the chunk that holds it.  v is scaled to primitive
    integers first (membership in a rational subspace does not depend on
    scale), which keeps the scan off object arrays where it can."""
    for start, hits in _scan(torus, [_ratlin.primitive(torus.vector(v))], ah, _hits):
        first = np.flatnonzero(hits)
        if first.size:
            return True, torus.element(start + int(first[0]))
    return False, None


def sl2_action_proper(torus, triple, ah):
    """Properness of the SL(2,R)-action via the triple: the W-orbit of the
    H-vector must avoid span(a_h).  The orbit, and so the verdict, is that
    of the vector's dominant image too."""
    member, _ = in_weyl_orbit_of_subspace(torus, triple.torus_vector, ah)
    return not member


def _covers_b(*b_scans):
    """True iff some w of the chunk moves every basis vector of b into
    span(a_h)."""
    return bool(np.logical_and.reduce([_hits(s) for s in b_scans]).any())


def benoist_criterion(torus, ah):
    """True iff the b_plus cone is not covered by the Weyl translates of a_h.

    Since b_plus spans b and each translate is a subspace, covering the cone
    forces one translate to contain all of b.  Since W is a group, that
    happens iff some w moves every basis vector of b into span(a_h): one
    pass over W scanning the basis vectors of b, which stops at the first
    chunk holding such a w.
    """
    return ah.dim < torus.b_dim or \
        not any(covered for _, covered in _scan(torus, torus.b_basis, ah, _covers_b))


def _line_hits(alpha, beta):
    """Where the line base + s*dir meets the Weyl translates of a_h, from
    alpha = _scan(base) and beta = _scan(dir) taken at one scale.

    w.(base + s*dir) lies in span(a_h) iff alpha_w + s*beta_w = 0.  So the
    whole line lies in a translate iff some w has alpha_w = beta_w = 0, and
    then the result is None.  Otherwise each w with beta_w != 0 meets the line
    at most once, at s = -alpha_wp/beta_wp for the first p with
    beta_wp != 0, and does so iff alpha_w * beta_wp = alpha_wp * beta_w.  The
    walk visits only s = 1/m for integers m, so the result is the set of
    integers m for which some translate meets the line at s = 1/m."""
    moving = (beta != 0).any(axis=1)
    if ((alpha == 0).all(axis=1) & ~moving).any():
        return None
    alpha, beta = alpha[moving], beta[moving]
    # compared as integers: int64 unless a cross product can reach 2**63
    exact = np.int64
    if object in (alpha.dtype, beta.dtype) or \
            int(np.abs(alpha).max(initial=0)) * int(np.abs(beta).max(initial=0)) >= 2 ** 63:
        exact = object
    alpha, beta = (a if a.dtype == exact else a.astype(np.int64).astype(exact, copy=False)
                   for a in (alpha, beta))
    rows = np.arange(len(beta))
    pivot = (beta != 0).argmax(axis=1)
    a_p, b_p = alpha[rows, pivot], beta[rows, pivot]
    on = (alpha * b_p[:, None] == beta * a_p[:, None]).all(axis=1) & (a_p != 0)
    num, den = -b_p[on], a_p[on]  # 1/s = num/den
    whole = num % den == 0
    return set((num[whole] // den[whole]).tolist())


def benoist_certificate(torus, ah):
    """A rational point of b_plus outside every Weyl translate of a_h, or None
    exactly when `benoist_criterion` fails.

    The point is the strictly dominant staircase of b if that works, and
    otherwise the first point of a walk along lines through it in b:
    staircase + s*b_k with s = 1/d, then -1/d, for d = 2, 3, ..., with d the
    outer loop and the b basis directions in order inside it, keeping only
    dominant points.  Each line is decided by the scans of the staircase and
    its direction (`_line_hits`), which give the finitely many s where a
    translate meets it, or say that a translate holds all of it.  The
    criterion and the staircase share one pass over W.  The first b basis
    line takes a second, and the later lines that could still give an
    earlier point share a third; in a line pass the staircase and each
    direction are scanned chunk by chunk.  The earliest point wins, the
    first direction on a tie.  Each line of the fallback below is one more
    pass.

    The search ends.  A line that no translate holds meets the translates in
    finitely many points, and its points are dominant for small |s|, so its
    walk ends.  If a translate holds every b basis line, the walk goes on to
    the lines with direction sum_k c**k b_k for c = 1, 2, ...  A translate T
    that misses the staircase meets each line at most once.  A translate T
    through the staircase holds the direction for at most dim b - 1 values
    of c: T meets b in a proper subspace (else T would contain b, and the
    criterion would fail), so some functional on b vanishes on that
    subspace but not on every b_k, and its value on the direction is a
    nonzero polynomial in c of degree at most dim b - 1.  So some c up to
    (dim b - 1) * (number of translates through the staircase) + 1 gives a
    line that no translate holds.
    """
    base = torus.staircase
    # the staircase is integral, so its scan and the directions' share one scale
    base_ints = [int(x) for x in base]
    criterion = ah.dim >= torus.b_dim
    directions = torus.b_basis

    def first_pass(*scans):  # (some w covers b, some w hits the staircase)
        return criterion and _covers_b(*scans[:-1]), bool(_hits(scans[-1]).any())

    on_base = False
    vectors = [*(directions if criterion else ()), base_ints]
    for _, (covered, hit) in _scan(torus, vectors, ah, first_pass):
        if covered:
            return None
        on_base = on_base or hit
        if on_base and not criterion:
            break
    if not on_base:
        return base

    def line_hits(lines):
        """`_line_hits` over all of W for each line base + s*direction, in
        one pass: a line's entry is None once a chunk holds the whole line,
        else the union of the chunks' sets."""
        hits = [set() for _ in lines]
        for _, chunk in _scan(torus, [base_ints, *lines], ah,
                              lambda alpha, *betas: [_line_hits(alpha, b) for b in betas],
                              LINE_TEMPORARIES):
            hits = [None if h is None or c is None else h | c for h, c in zip(hits, chunk)]
            if all(h is None for h in hits):
                break
        return hits

    def first_point(lines):
        """(d, point) for the first dominant point base + direction/m that no
        translate meets, over lines given as (direction, hits): m = d, -d
        for d = 2, 3, ..., with d the outer loop and the lines in order
        inside it."""
        for d in itertools.count(2):
            for direction, hits in lines:
                for m in (d, -d):
                    point = tuple(x + Fraction(1, m) * y for x, y in zip(base, direction))
                    if m not in hits and torus.is_dominant(point):
                        return d, point

    # the first line's pass decides most queries; the later lines that could
    # still beat it, with a dominant point before its d, share one more pass
    head, *tail = directions
    (hits,) = line_hits([head])
    found = [] if hits is None else [first_point([(head, hits)])]
    tail = [v for v in tail if not found or first_point([(v, ())])[0] < found[0][0]]
    if tail:
        lines = [(v, hits) for v, hits in zip(tail, line_hits(tail)) if hits is not None]
        found += [first_point(lines)] if lines else []
    if found:
        return min(found, key=lambda c: c[0])[1]
    for c in itertools.count(1):
        direction = [sum(c ** k * b[i] for k, b in enumerate(directions))
                     for i in range(torus.coord_len)]
        (hits,) = line_hits([direction])
        if hits is not None:
            return first_point([(direction, hits)])[1]


def calabi_markus(torus, ah):
    """True (no infinite discontinuous groups) iff a_h has full rank in a."""
    return ah.dim == torus.rank
