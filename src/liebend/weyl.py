"""Restricted root systems, Weyl groups, the opposition involution and the
subspace b of iota-fixed chamber directions, for sl(n,R) and su(p,q).

Torus vectors are exact: tuples of Fraction in the free coordinates of the
diagonal pattern (the full traceless diagonal for sl(n,R); (a_1..a_q) for
su(p,q)).  The Weyl group acts by signed permutations of the free
coordinates.  It is never stored whole: `SplitTorusData.weyl_chunks`
produces it in contiguous chunks of at most WEYL_CHUNK_BYTES of what a pass
keeps, each a block of permutations sharing a prefix, built from one cached
table of the tail's permutations, with the sign vectors running inside each
permutation, so that quantifiers over W run as vectorized exact integer
scans in bounded memory.
`weyl_order` is arithmetic and `element(i)` unranks i.  `split_torus`
builds one torus per algebra object in a process.
"""

import collections
import functools
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import _ratlin
from .algebra import SL, SU, diagonal_weights, readonly
from .errors import ParameterError, RealizationError

# |W| above this is refused: su(8,8) (8! * 2**8) is the largest group
# admitted, so sl(10) (10!) runs and su(9,9) (9! * 2**9) does not
WEYL_ORDER_CAP = math.factorial(8) * 2 ** 8
# a chunk of W holds at most this many bytes of what a pass keeps for its
# elements (`SplitTorusData.weyl_chunks`): an orbit scan for a line a_h
# cuts sl(7) into one chunk and su(6,6) into six, and the criterion for a
# 3-dimensional a_h on sl(7) (four vectors) cuts sl(7) into seven
WEYL_CHUNK_BYTES = 2 ** 19


def torus_vector(values):
    return tuple(v if type(v) is Fraction else Fraction(v) for v in values)


@dataclass(frozen=True)
class WeylElement:
    perm: tuple
    signs: tuple

    def apply(self, v):
        """w.v; a root's coefficients map alike (alpha o w^{-1}), since a
        signed permutation is orthogonal."""
        return tuple(s * v[p] for s, p in zip(self.signs, self.perm))

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
    w0: WeylElement
    b_basis: tuple  # primitive int tuples spanning the iota-fixed subspace (never printed)

    @property
    def weyl_order(self):
        return _weyl_order(self.algebra.family, self.coord_len)

    def weyl_chunks(self, element_bytes):
        """W as a `WeylChunks` table for a pass keeping element_bytes per
        element: the shortest prefix whose chunks fit in WEYL_CHUNK_BYTES.
        w with permutation perm and signs s maps v to w.v with
        (w.v)_i = s_i * v[perm_i]."""
        n, k, size = self.coord_len, 0, self.weyl_order
        while k < n and size * element_bytes > WEYL_CHUNK_BYTES:
            size //= n - k  # a prefix one longer cuts each chunk n - k ways
            k += 1
        return _weyl_chunks(self.algebra.family, n, k)

    def element(self, i):
        """The i-th Weyl element: permutations in itertools.permutations
        order and, for su, the sign vectors in itertools.product((1, -1))
        order inside each permutation."""
        n = self.coord_len
        if not 0 <= i < self.weyl_order:
            raise IndexError(f"Weyl element {i} out of range {self.weyl_order}")
        signs = (1,) * n
        if self.algebra.family == SU:
            i, bits = divmod(i, 2 ** n)
            signs = tuple(-1 if bits >> (n - 1 - j) & 1 else 1 for j in range(n))
        pool, perm = list(range(n)), []
        for j in range(n - 1, -1, -1):
            d, i = divmod(i, math.factorial(j))
            perm.append(pool.pop(d))
        return WeylElement(tuple(perm), signs)

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
        """A strictly dominant iota-fixed integer vector (staircase)."""
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


def _permutations(n):
    """Every permutation of range(n) as an int8 array, one per row, in the
    lexicographic order of itertools.permutations.  Built one position at a
    time: for each first element f in increasing order, the previous block
    (the permutations of range(k), in order) with every entry >= f shifted
    up by one."""
    perms = np.zeros((1, 0), dtype=np.int8)
    for k in range(n):
        first = np.repeat(np.arange(k + 1, dtype=np.int8), len(perms))
        rest = np.tile(perms, (k + 1, 1))
        rest += rest >= first[:, None]
        perms = np.column_stack([first, rest])
    return perms


def _weyl_order(family, coord_len):
    """|W|: n! for sl(n); q! * 2**q for su(p,q), with n = q = coord_len."""
    return math.factorial(coord_len) * (1 if family == SL else 2 ** coord_len)


@dataclass(frozen=True, eq=False)
class WeylChunks:
    """W cut into contiguous chunks, in its enumeration order.  Chunk j holds
    the permutations whose first `prefix_len` entries are the j-th prefix of
    itertools.permutations(range(n), prefix_len), each followed by
    rest[tail[p]] for the rows p of `tail` in order, where rest is the sorted
    list of the other entries, so the chunk keeps itertools order.  The sign
    vectors `signs` run inside each permutation (for sl one row of ones; for
    su all of them, in itertools.product((1, -1)) order): element
    p * len(signs) + s of a chunk is permutation p with the signs signs[s]."""
    coord_len: int
    prefix_len: int
    tail: np.ndarray  # (n - prefix_len)! x (n - prefix_len) int8, read-only
    signs: np.ndarray  # sign vectors x n int8, read-only

    def chunks(self):
        """(start, prefix, rest) for each chunk in order: element start + k of
        W is the k-th element of the chunk."""
        n, k = self.coord_len, self.prefix_len
        size = len(self.tail) * len(self.signs)
        for j, prefix in enumerate(itertools.permutations(range(n), k)):
            yield j * size, prefix, np.array(sorted(set(range(n)).difference(prefix)))


@functools.lru_cache(maxsize=8)
def _weyl_chunks(family, coord_len, prefix_len):
    """The chunk table of W at one prefix length, shared by the passes that
    take it, with the tail permutations and sign vectors of every chunk."""
    n = coord_len
    if family == SL:
        signs = np.ones((1, n), dtype=np.int8)
    else:
        bits = np.arange(2 ** n)[:, None] >> np.arange(n - 1, -1, -1)
        signs = (1 - 2 * (bits & 1)).astype(np.int8)
    return WeylChunks(n, prefix_len, readonly(_permutations(n - prefix_len)), readonly(signs))


@functools.lru_cache(maxsize=8)
def split_torus(alg):
    """SplitTorusData for a supported algebra; W is produced in chunks
    (`weyl_chunks`).  Built once per algebra object in a process; a Weyl group
    larger than WEYL_ORDER_CAP raises on every call, before any chunk is
    built."""
    if alg.family == SL:
        (n,) = alg.params
        rank, coord_len = n - 1, n
        root_coeffs = _sl_roots(n)
    else:
        p, q = alg.params
        rank, coord_len = q, q
        root_coeffs = _su_root_patterns(p, q)
    order = _weyl_order(alg.family, coord_len)
    if order > WEYL_ORDER_CAP:
        raise ParameterError(f"|W| = {order} exceeds the Weyl group cap {WEYL_ORDER_CAP}")

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
    proto = SplitTorusData(alg, rank, coord_len, roots, positive, None, ())
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
        image = w0.apply(r.coeffs)
        if tuple(-c for c in image) not in pos:
            raise RealizationError("constructed w0 does not negate the positive system")
    return w0


def _b_basis(torus, w0):
    """Exact primitive integer basis of {v : iota(v) = v} (with zero trace
    for sl), as int tuples in increasing order."""
    m = torus.coord_len
    rows = []
    for i in range(m):
        row = [0] * m
        row[i] += 1
        # iota(v)_i = -signs[i] * v[perm[i]]
        row[w0.perm[i]] += w0.signs[i]
        rows.append(row)
    if torus.algebra.family == SL:
        rows.append([1] * m)
    return tuple(sorted(_ratlin.primitive_nullspace(rows, m)))
