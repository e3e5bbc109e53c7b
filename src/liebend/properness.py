"""Exact properness decisions: Weyl-orbit membership, the sl(2,R) criterion,
the non-virtually-abelian existence criterion, the equal-rank obstruction,
and a sampled transversality margin.

Every yes/no decision here is exact: each quantifier over W is one
vectorized integer scan (`_scan`) over the signed-permutation arrays of the
torus.  Floats appear only in the sampled margin.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import _ratlin
from .errors import ParameterError


@dataclass(frozen=True, eq=False)
class HSubalgebraTorus:
    """Exact rational subspace a_h of the split torus (basis in free coordinates)."""
    torus: object
    basis: tuple

    def __post_init__(self):
        vecs = tuple(self.torus.vector(v) for v in self.basis)
        object.__setattr__(self, "basis", vecs)
        if vecs and _ratlin.rank(vecs) != len(vecs):
            raise ParameterError("a_h basis vectors are linearly dependent over Q")

    @property
    def dim(self):
        return len(self.basis)

    @cached_property
    def annihilator(self):
        """Primitive integer functionals cutting out span(a_h); u is in the
        span iff every functional vanishes on u (fast exact membership)."""
        n = self.torus.coord_len
        if not self.basis:
            return tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
        null = _ratlin.nullspace(self.basis, n)
        return tuple(tuple(int(x) for x in _ratlin.primitive(v)) for v in null)

    def contains(self, v):
        v = self.torus.vector(v)
        return all(sum(c * x for c, x in zip(row, v)) == 0 for row in self.annihilator)


def _scan(torus, ints, ah):
    """A.(w.v) for every w in W, where v is an integer vector and the rows of
    A are the annihilator rows of a_h: one |W| x rows exact integer matrix,
    row k zero iff w_k.v lies in span(a_h).  int64 is used only when
    max|v| * max|ann| * coord_len < 2**62, so that no dot product can wrap;
    otherwise object arrays of Python ints keep the scan exact."""
    ann = ah.annihilator
    n = torus.coord_len
    bound = n * max(map(abs, ints)) * max((abs(c) for row in ann for c in row), default=0)
    dtype = np.int64 if bound < 2 ** 62 else object
    images = np.array(ints, dtype=dtype)[torus.perms]
    images *= torus.signs  # in place: one |W| x coord_len array at a time
    return images @ np.array(ann, dtype=dtype).reshape(len(ann), n).T


def _orbit_mask(torus, v, ah):
    """Mask over W: entry k is True iff w_k.v lies in span(a_h).  v is scaled
    to primitive integers first (membership in a rational subspace does not
    depend on scale), which keeps the scan in int64 where it can."""
    return (_scan(torus, [int(x) for x in _ratlin.primitive(v)], ah) == 0).all(axis=1)


def in_weyl_orbit_of_subspace(torus, v, ah):
    """(bool, witness w) deciding whether some w in W moves v into span(a_h);
    the witness is the first such w in the enumeration order of W."""
    hits = np.flatnonzero(_orbit_mask(torus, torus.vector(v), ah))
    if hits.size == 0:
        return False, None
    return True, torus.element(int(hits[0]))


def sl2_action_proper(torus, triple, ah):
    """Properness of the SL(2,R)-action via the triple: the dominant image of
    the H-vector must avoid the Weyl orbit of a_h."""
    v_plus, _ = torus.dominant_representative(triple.torus_vector)
    member, _ = in_weyl_orbit_of_subspace(torus, v_plus, ah)
    return not member


def _b_scans(torus, ah):
    """One scan per basis vector of b (each is a primitive integer vector)."""
    return [_scan(torus, [int(x) for x in b], ah) for b in torus.b_basis]


def _covers_b(b_scans):
    """True iff some w moves every basis vector of b into span(a_h)."""
    return bool(np.logical_and.reduce([(s == 0).all(axis=1) for s in b_scans]).any())


def benoist_criterion(torus, ah):
    """True iff the b_plus cone is not covered by the Weyl translates of a_h.

    Since b_plus spans b and each translate is a subspace, covering the cone
    forces one translate to contain all of b.  Since W is a group, that
    happens iff some w moves every basis vector of b into span(a_h): one
    scan per basis vector, intersected over W.
    """
    return ah.dim < torus.b_dim or not _covers_b(_b_scans(torus, ah))


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
    if object in (alpha.dtype, beta.dtype) or \
            int(np.abs(alpha).max(initial=0)) * int(np.abs(beta).max(initial=0)) >= 2 ** 63:
        alpha, beta = alpha.astype(object), beta.astype(object)
    rows = np.arange(len(beta))
    pivot = (beta != 0).argmax(axis=1)
    a_p, b_p = alpha[rows, pivot], beta[rows, pivot]
    on = (alpha * b_p[:, None] == beta * a_p[:, None]).all(axis=1) & (a_p != 0)
    num, den = -b_p[on], a_p[on]  # 1/s = num/den
    whole = num % den == 0
    return set(np.unique(num[whole] // den[whole]).tolist())


def benoist_certificate(torus, ah):
    """A rational point of b_plus outside every Weyl translate of a_h, or None
    exactly when `benoist_criterion` fails.

    The point is the strictly dominant staircase of b if that works, and
    otherwise the first point of a walk along lines through it in b:
    staircase + s*b_k with s = 1/d, then -1/d, for d = 2, 3, ..., with d the
    outer loop and the b basis directions in order inside it, keeping only
    dominant points.  Each line is decided by one scan of its direction
    (`_line_hits`), which gives the finitely many s where a translate meets
    it, or says that a translate holds all of it; where the criterion has
    already scanned the b basis, those scans are reused.

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
    b_scans = [None] * torus.b_dim
    if ah.dim >= torus.b_dim:
        b_scans = _b_scans(torus, ah)
        if _covers_b(b_scans):
            return None
    # the staircase is integral, so its scan and the directions' share one scale
    base = torus.chamber_interior_point()
    alpha = _scan(torus, [int(x) for x in base], ah)
    if not (alpha == 0).all(axis=1).any():
        return base
    directions = [[int(x) for x in b] for b in torus.b_basis]

    def walk(direction):
        """(d, m, point) along base + direction/m: m = d, -d for
        d = 2, 3, ..., dominant points only."""
        for d in itertools.count(2):
            for m in (d, -d):
                point = tuple(x + Fraction(1, m) * y for x, y in zip(base, direction))
                if torus.is_dominant(point):
                    yield d, m, point

    best = None  # (d, point) of the earliest point found so far
    for direction, b_scan in zip(directions, b_scans):
        if best is not None and best[0] == 2:
            break  # no later direction has a point before d = 2
        points = walk(direction)
        first = next(points)
        if best is not None and first[0] >= best[0]:
            continue  # an earlier direction has a point at this d or before
        hits = _line_hits(alpha, b_scan if b_scan is not None else _scan(torus, direction, ah))
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
        hits = _line_hits(alpha, _scan(torus, direction, ah))
        if hits is not None:
            return next(p for _, m, p in walk(direction) if m not in hits)


def calabi_markus(torus, ah):
    """True (no infinite discontinuous groups) iff a_h has full rank in a."""
    return ah.dim == torus.rank


@dataclass(frozen=True)
class PitchforkResult:
    margin: float
    qualifying: int
    inconclusive: bool


def pitchfork_margin(torus, mu_samples, ah):
    """Minimal distance from the qualifying mu samples to W.span(a_h).

    Samples with ||mu|| below the config's pitchfork_radius are ignored (the
    relative-compactness condition is vacuous on a bounded core).  A
    diagnostic, not a decision.
    """
    r = torus.algebra.config.pitchfork_radius
    basis = np.array([[float(x) for x in b] for b in ah.basis]).reshape(ah.dim, torus.coord_len)
    # translate w.span(a_h) as the columns w.b, one n x dim(a_h) matrix per w
    cols = torus.signs[:, :, None] * basis.T[torus.perms]
    q_mats, _ = np.linalg.qr(cols)
    # the orthogonal projector determines the subspace independently of the
    # basis produced by qr, so it is a sound deduplication key
    projectors = q_mats @ q_mats.transpose(0, 2, 1)
    keys = np.round(projectors, 9).reshape(len(projectors), -1)
    _, first = np.unique(keys, axis=0, return_index=True)
    projectors = projectors[first]

    margin = math.inf
    qualifying = 0
    for sample in mu_samples:
        v = np.asarray([float(x) for x in sample], dtype=float)
        if np.linalg.norm(v) < r:
            continue
        qualifying += 1
        resid = v - projectors @ v
        margin = min(margin, np.linalg.norm(resid, axis=1).min())
    return PitchforkResult(margin, qualifying, qualifying == 0)

