"""Restricted root systems, Weyl groups, the opposition involution and the
subspace b of iota-fixed chamber directions, for sl(n,R) and su(p,q).

Torus vectors are exact: tuples of Fraction in the free coordinates of the
diagonal pattern (the full traceless diagonal for sl(n,R); (a_1..a_q) for
su(p,q)).  The Weyl group acts by signed permutations of the free
coordinates and is stored as two small-integer arrays, `perms` and `signs`
(one row per element, |W| x coord_len), so that quantifiers over W run as
vectorized exact integer scans; `element(i)` gives row i as a WeylElement.
`split_torus` builds one torus per algebra object in a process.
"""

import collections
import functools
import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import _ratlin
from .algebra import SL, SU, diagonal_weights, readonly
from .errors import ParameterError, RealizationError

WEYL_RANK_CAP = 8


def torus_vector(values):
    return tuple(Fraction(v) for v in values)


@dataclass(frozen=True)
class WeylElement:
    perm: tuple
    signs: tuple

    def apply(self, v):
        return tuple(s * v[p] for s, p in zip(self.signs, self.perm))

    def apply_root(self, coeffs):
        """Coefficients of alpha o w^{-1} given those of alpha."""
        return tuple(s * coeffs[p] for s, p in zip(self.signs, self.perm))

    def describe(self):
        return {"perm": list(self.perm), "signs": list(self.signs)}


@dataclass(frozen=True)
class Root:
    coeffs: tuple  # integer functional on the free coordinates
    multiplicity: int


@dataclass(frozen=True, eq=False)
class SplitTorusData:
    algebra: object
    rank: int
    coord_len: int
    roots: tuple
    positive_roots: tuple
    perms: np.ndarray  # |W| x coord_len: (w.v)_i = signs[k, i] * v[perms[k, i]]
    signs: np.ndarray
    w0: WeylElement
    b_basis: tuple  # exact primitive-integer vectors spanning the iota-fixed subspace

    @property
    def weyl_order(self):
        return len(self.perms)

    def element(self, i):
        """The i-th Weyl element (row i of `perms`/`signs`)."""
        return WeylElement(tuple(self.perms[i].tolist()), tuple(self.signs[i].tolist()))

    def vector(self, values):
        v = torus_vector(values)
        if len(v) != self.coord_len:
            raise ParameterError(f"expected {self.coord_len} coordinates, got {len(v)}")
        if self.algebra.family == SL and sum(v) != 0:
            raise ParameterError("sl(n,R) torus vectors must have zero trace")
        return v

    def identity(self):
        return WeylElement(tuple(range(self.coord_len)), (1,) * self.coord_len)

    @cached_property
    def _positive_functionals(self):
        """The positive-root coefficients as a read-only int64 matrix, one row
        per root, and the largest sum of |coefficients| over its rows."""
        coeffs = np.array([r.coeffs for r in self.positive_roots], dtype=np.int64)
        return readonly(coeffs), int(np.abs(coeffs).sum(axis=1).max())

    def is_dominant(self, v):
        """Every positive root is >= 0 on the rational vector v.  v is scaled
        to integers over its common denominator, and all root values come
        from one exact integer product: in int64 when the largest row sum
        times max|v| stays below 2**63, so no value can wrap, else in Python
        ints."""
        ints = _ratlin.integer_multiple(v)
        coeffs, row_sum = self._positive_functionals
        if row_sum * max(map(abs, ints)) < 2 ** 63:
            return bool((coeffs @ np.array(ints, dtype=np.int64) >= 0).all())
        return bool((coeffs.astype(object) @ np.array(ints, dtype=object) >= 0).all())

    def dominant_representative(self, v):
        """(v_plus, w) with w.v = v_plus in the closed chamber; w is a witness."""
        v = self.vector(v)
        if self.is_dominant(v):
            return v, self.identity()
        if self.algebra.family == SL:
            order = sorted(range(self.coord_len), key=lambda i: (-v[i], i))
            w = WeylElement(tuple(order), (1,) * self.coord_len)
        else:
            order = sorted(range(self.coord_len), key=lambda i: (-abs(v[i]), i))
            signs = tuple(-1 if v[i] < 0 else 1 for i in order)
            w = WeylElement(tuple(order), signs)
        v_plus = w.apply(v)
        assert self.is_dominant(v_plus)
        return v_plus, w

    def iota(self, v):
        """Opposition involution -w0."""
        return tuple(-x for x in self.w0.apply(self.vector(v)))

    def in_b(self, v):
        return self.iota(v) == tuple(self.vector(v))

    def in_b_plus(self, v):
        return self.in_b(v) and self.is_dominant(v)

    @cached_property
    def b_dim(self):
        return len(self.b_basis)

    def chamber_interior_point(self):
        """A strictly dominant iota-fixed rational vector (staircase)."""
        if self.algebra.family == SU:
            return self.vector(range(self.rank, 0, -1))
        n = self.coord_len
        return self.vector([n + 1 - 2 * (i + 1) for i in range(n)])


def _sl_roots(n):
    roots = []
    for i in range(n):
        for j in range(n):
            if i != j:
                c = [0] * n
                c[i], c[j] = 1, -1
                roots.append(tuple(c))
    return roots


def _su_root_patterns(p, q):
    """Root functionals of su(p,q) on (a_1..a_q): e_i±e_j, e_i (p>q only), 2e_i."""
    roots = []
    for i in range(q):
        for j in range(q):
            if i < j:
                for sj in (1, -1):
                    c = [0] * q
                    c[i], c[j] = 1, sj
                    roots.append(tuple(c))
                    roots.append(tuple(-x for x in c))
    if p > q:
        for i in range(q):
            c = [0] * q
            c[i] = 1
            roots.append(tuple(c))
            c2 = [0] * q
            c2[i] = -1
            roots.append(tuple(c2))
    for i in range(q):
        c = [0] * q
        c[i] = 2
        roots.append(tuple(c))
        c2 = [0] * q
        c2[i] = -2
        roots.append(tuple(c2))
    return roots


def _root_multiplicities(alg, torus_free_basis, root_coeffs):
    """Multiplicities read off the basis supports.

    Every basis element lies in one joint ad-eigenspace of the split torus, so
    its tuple of weights under the torus basis is the tuple of values of one
    restricted root on that basis, or 0; counting the tuples counts each
    root space.
    """
    weights = diagonal_weights(alg, [_diagonal(alg, v) for v in torus_free_basis])
    counts = collections.Counter(map(tuple, weights.T.tolist()))
    zero_count = counts.pop((0,) * len(torus_free_basis), 0)
    values = list(map(tuple, (np.array(root_coeffs) @ np.array(torus_free_basis).T).tolist()))
    if not set(counts) <= set(values) or sum(counts.values()) + zero_count != alg.dim:
        raise RealizationError("root-space dimensions do not exhaust the algebra")
    return {c: counts.get(v, 0) for c, v in zip(root_coeffs, values)}


def _lex_positive(coeffs):
    for c in coeffs:
        if c != 0:
            return c > 0
    return False


def _diagonal(alg, v):
    """The full diagonal of a free-coordinate vector (the a-pattern)."""
    if alg.family == SL:
        return list(v)
    p, q = alg.params
    return list(v) + [0] * (p - q) + [-x for x in reversed(v)]


def _weyl_arrays(family, coord_len):
    """(perms, signs) of W: S_n for sl(n); for su the signed permutations, the
    sign vectors in itertools.product((1, -1)) order inside each permutation."""
    perms = np.array(list(itertools.permutations(range(coord_len))), dtype=np.int8)
    if family == SL:
        signs = np.ones_like(perms)
    else:
        sign_rows = np.array(list(itertools.product((1, -1), repeat=coord_len)), dtype=np.int8)
        perms = np.repeat(perms, len(sign_rows), axis=0)
        signs = np.tile(sign_rows, (len(perms) // len(sign_rows), 1))
    perms.flags.writeable = False
    signs.flags.writeable = False
    return perms, signs


@functools.lru_cache(maxsize=8)
def split_torus(alg):
    """SplitTorusData for a supported algebra; W stored as signed-permutation
    arrays.  Built once per algebra object in a process (its arrays are
    read-only); a rank above the cap raises on every call."""
    if alg.family == SL:
        (n,) = alg.params
        rank, coord_len = n - 1, n
        root_coeffs = _sl_roots(n)
    else:
        p, q = alg.params
        rank, coord_len = q, q
        root_coeffs = _su_root_patterns(p, q)
    if rank > WEYL_RANK_CAP:
        raise ParameterError(f"rank {rank} exceeds the extensional Weyl cap {WEYL_RANK_CAP}")
    perms, signs = _weyl_arrays(alg.family, coord_len)

    # multiplicities from the root-space dimensions, validating the realization
    torus_basis = []
    for i in range(rank):
        free = [0] * coord_len
        if alg.family == SL:
            free[i], free[i + 1] = 1, -1
        else:
            free[i] = 1
        torus_basis.append(free)
    ordered = sorted(root_coeffs, reverse=True)
    mults = _root_multiplicities(alg, torus_basis, ordered)
    roots = tuple(Root(c, mults[c]) for c in ordered)
    for r in roots:
        if r.multiplicity < 1:
            raise RealizationError(f"root {r.coeffs} has no ad-eigenspace in this realization")
    positive = tuple(r for r in roots if _lex_positive(r.coeffs))

    # w0 and b come from the chamber data, which needs neither of them
    proto = SplitTorusData(alg, rank, coord_len, roots, positive, perms, signs, None, ())
    w0 = _longest_element(proto)
    return replace(proto, w0=w0, b_basis=_b_basis(proto, w0))


def _longest_element(torus):
    """w0 found constructively: the unique w sending the staircase to the
    antidominant representative; verified to map positive roots to negatives."""
    su = torus.algebra.family == SU
    rho = torus.chamber_interior_point()
    v_plus, _ = torus.dominant_representative([-x for x in rho])
    target = tuple(-x for x in v_plus)  # antidominant image of rho
    perm, signs = [], []
    values = list(rho)
    for t in target:
        j = values.index(abs(t)) if su else values.index(t)
        perm.append(j)
        signs.append(-1 if (su and t < 0) else 1)
    w0 = WeylElement(tuple(perm), tuple(signs))
    pos = {r.coeffs for r in torus.positive_roots}
    for r in torus.positive_roots:
        image = w0.apply_root(r.coeffs)
        if tuple(-c for c in image) not in pos:
            raise RealizationError("constructed w0 does not negate the positive system")
    return w0


def _b_basis(torus, w0):
    """Exact primitive basis of {v : iota(v) = v} (with zero trace for sl)."""
    m = torus.coord_len
    rows = []
    for i in range(m):
        row = [Fraction(0)] * m
        row[i] += 1
        # iota(v)_i = -signs[i] * v[perm[i]]
        row[w0.perm[i]] += w0.signs[i]
        rows.append(tuple(row))
    if torus.algebra.family == SL:
        rows.append(tuple(Fraction(1) for _ in range(m)))
    basis = _ratlin.nullspace(rows, m)
    prim = sorted(_ratlin.primitive(v) for v in basis)
    return tuple(tuple(x for x in v) for v in prim)
