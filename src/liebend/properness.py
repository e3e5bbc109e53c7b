"""Exact properness decisions: Weyl-orbit membership, the sl(2,R) criterion,
the non-virtually-abelian existence criterion, the equal-rank obstruction,
and a sampled transversality margin.

Every yes/no decision here is exact: each quantifier over W is one
vectorized integer scan (`_orbit_mask`) over the signed-permutation arrays
of the torus.  Floats appear only in the sampled margin.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import _ratlin
from .errors import ParameterError, RealizationError


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


def _orbit_mask(torus, v, ah):
    """Mask over W: entry k is True iff w_k.v lies in span(a_h).

    One exact integer scan: v is scaled to primitive integers (membership in
    a rational subspace does not depend on scale) and every image
    signs * v[perms] is paired with every annihilator row.  int64 is used
    only when max|v| * max|ann| * coord_len < 2**62, so that no dot product
    can wrap; otherwise object arrays of Python ints keep the scan exact."""
    vec = [int(x) for x in _ratlin.primitive(v)]
    ann = ah.annihilator
    n = torus.coord_len
    bound = n * max(map(abs, vec)) * max((abs(c) for row in ann for c in row), default=0)
    dtype = np.int64 if bound < 2 ** 62 else object
    images = np.array(vec, dtype=dtype)[torus.perms]
    images *= torus.signs  # in place: one |W| x coord_len array at a time
    return (images @ np.array(ann, dtype=dtype).reshape(len(ann), n).T == 0).all(axis=1)


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
    if triple.torus_vector is None:
        raise RealizationError(
            "triple has no a-diagonal H; conjugate it into the torus first")
    v_plus, _ = torus.dominant_representative(triple.torus_vector)
    member, _ = in_weyl_orbit_of_subspace(torus, v_plus, ah)
    return not member


def benoist_criterion(torus, ah):
    """True iff the b_plus cone is not covered by the Weyl translates of a_h.

    Since b_plus spans b and each translate is a subspace, covering the cone
    forces one translate to contain all of b.  Since W is a group, that
    happens iff some w moves every basis vector of b into span(a_h): one
    orbit mask per basis vector, intersected over W.
    """
    if ah.dim < torus.b_dim:
        return True
    masks = [_orbit_mask(torus, b, ah) for b in torus.b_basis]
    return not np.logical_and.reduce(masks).any()


def benoist_certificate(torus, ah, max_denominator=1000):
    """A rational point of b_plus outside every Weyl translate of a_h, or None.

    Starts from the strictly dominant staircase restricted to b and perturbs
    along the b basis with shrinking rational steps until the point leaves all
    translates while staying in the chamber.
    """
    if not benoist_criterion(torus, ah):
        return None
    base = torus.chamber_interior_point()

    def outside_all(v):
        return not _orbit_mask(torus, v, ah).any()

    if outside_all(base):
        return base
    denom = 2
    while denom <= max_denominator:
        for direction in torus.b_basis:
            cand = tuple(x + Fraction(1, denom) * d for x, d in zip(base, direction))
            if torus.is_dominant(cand) and torus.in_b(cand) and outside_all(cand):
                return cand
            cand = tuple(x - Fraction(1, denom) * d for x, d in zip(base, direction))
            if torus.is_dominant(cand) and torus.in_b(cand) and outside_all(cand):
                return cand
        denom += 1
    raise RealizationError("no rational certificate point found below the denominator cap")


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

