"""Restricted root systems, Weyl groups, the opposition involution and the
subspace b of iota-fixed chamber directions, for sl(n,R) and su(p,q).

Torus vectors are exact: tuples of Fraction in the free coordinates that
the algebra's `a_diagonal` puts on the diagonal (the full traceless
diagonal for sl(n,R); (a_1..a_q) for su(p,q)).  The Weyl group acts by
signed permutations of the free coordinates.  `split_torus` reads the trace
rows that vanish on a (sl only) off `a_diagonal` and tells the families
apart for the rest: it stores W's sign vectors (one row of ones for sl,
every vector for su) and the staircase on the torus, and every method reads
that data.  W is never stored whole:
`SplitTorusData.weyl_chunks` produces it in contiguous chunks of at most
WEYL_CHUNK_BYTES of what a pass keeps, each a block of permutations sharing
a prefix, built from one cached table of the tail's permutations, with the
sign vectors running inside each permutation, so that quantifiers over W
run as vectorized exact integer scans in bounded memory.
`weyl_order` is arithmetic and `element(i)` unranks i.  `split_torus`
builds one torus per algebra object in a process.
"""

import collections
import functools
import itertools
import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import _ratlin
from .algebra import SL, diagonal_weights, integer_text, readonly
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
    signs: np.ndarray  # W's sign vectors, one per row, read-only int8
    trace: tuple  # integer functionals that vanish on a (sl: the trace row)
    staircase: tuple  # strictly dominant iota-fixed integer vector

    @property
    def weyl_order(self):
        return math.factorial(self.coord_len) * len(self.signs)

    def weyl_chunks(self, element_bytes):
        """W as a `WeylChunks` table for a pass keeping element_bytes per
        element: the shortest prefix whose chunks fit in WEYL_CHUNK_BYTES.
        w with permutation perm and signs s maps v to w.v with
        (w.v)_i = s_i * v[perm_i]."""
        n, k, size = self.coord_len, 0, self.weyl_order
        while k < n and size * element_bytes > WEYL_CHUNK_BYTES:
            size //= n - k  # a prefix one longer cuts each chunk n - k ways
            k += 1
        return WeylChunks(n, k, _permutations(n - k), self.signs)

    def element(self, i):
        """The i-th Weyl element: permutations in itertools.permutations
        order and the rows of `signs` inside each permutation."""
        n = self.coord_len
        if not 0 <= i < self.weyl_order:
            raise IndexError(f"Weyl element {i} out of range {self.weyl_order}")
        i, s = divmod(i, len(self.signs))
        pool, perm = list(range(n)), []
        for j in range(n - 1, -1, -1):
            d, i = divmod(i, math.factorial(j))
            perm.append(pool.pop(d))
        return WeylElement(tuple(perm), tuple(self.signs[s].tolist()))

    def vector(self, values):
        v = torus_vector(values)
        if len(v) != self.coord_len:
            raise ParameterError(f"expected {self.coord_len} coordinates, got {len(v)}")
        # a trace row vanishes on v iff it vanishes on v's integer multiple
        if any(sum(map(operator.mul, row, _ratlin.integer_multiple(v))) for row in self.trace):
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
        """(v_plus, w) with w.v = v_plus in the closed chamber; w is a witness.
        W negates on its own the coordinates where its last sign vector is
        -1 (every one in su, none in sl): those entries turn >= 0, then all
        are sorted in decreasing order."""
        v = self.vector(v)
        if self.is_dominant(v):
            return v, self.identity()
        s = [-1 if f < 0 and x < 0 else 1 for f, x in zip(self.signs[-1].tolist(), v)]
        order = sorted(range(self.coord_len), key=lambda i: (-s[i] * v[i], i))
        w = WeylElement(tuple(order), tuple(s[i] for i in order))
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


def _sl_roots(n):
    """Root functionals of sl(n,R) on the diagonal: e_i - e_j, i != j."""
    roots = []
    for i, j in itertools.permutations(range(n), 2):
        c = [0] * n
        c[i], c[j] = 1, -1
        roots.append(tuple(c))
    return roots


def _su_root_patterns(p, q):
    """Root functionals of su(p,q) on (a_1..a_q): +-e_i+-e_j, +-e_i (p>q
    only), +-2e_i."""
    half = []
    for i, j in itertools.combinations(range(q), 2):
        for s in (1, -1):
            c = [0] * q
            c[i], c[j] = 1, s
            half.append(tuple(c))
    for c_i in ((1, 2) if p > q else (2,)):
        for i in range(q):
            c = [0] * q
            c[i] = c_i
            half.append(tuple(c))
    return half + [tuple(map(operator.neg, r)) for r in half]


def _root_multiplicities(alg, torus_free_basis, root_coeffs):
    """Multiplicities read off the basis supports.

    Every basis element lies in one joint ad-eigenspace of the split torus, so
    its tuple of weights under the torus basis is the tuple of values of one
    restricted root on that basis, or 0; counting the tuples counts each
    root space.
    """
    weights = diagonal_weights(alg, np.array(torus_free_basis) @ alg.a_diagonal.T)
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


@functools.lru_cache(maxsize=8)
def _permutations(n):
    """Every permutation of range(n) as a read-only int8 array, one per row,
    in the lexicographic order of itertools.permutations: one table per n,
    shared by every torus and pass that takes it.  Built one position at a
    time: for each first element f in increasing order, the previous block
    (the permutations of range(k), in order) with every entry >= f shifted
    up by one."""
    perms = np.zeros((1, 0), dtype=np.int8)
    for k in range(n):
        first = np.repeat(np.arange(k + 1, dtype=np.int8), len(perms))
        rest = np.tile(perms, (k + 1, 1))
        rest += rest >= first[:, None]
        perms = np.column_stack([first, rest])
    return readonly(perms)


@dataclass(frozen=True, eq=False)
class WeylChunks:
    """W cut into contiguous chunks, in its enumeration order.  Chunk j holds
    the permutations whose first `prefix_len` entries are the j-th prefix of
    itertools.permutations(range(n), prefix_len), each followed by
    rest[tail[p]] for the rows p of `tail` in order, where rest is the sorted
    list of the other entries, so the chunk keeps itertools order.  The
    torus's sign vectors `signs` run inside each permutation: element
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


def _sign_vectors(n, count):
    """The first count sign vectors of length n in itertools.product((1, -1))
    order, as a read-only count x n int8 table: count 1 is one row of ones,
    count 2**n is every vector."""
    bits = np.arange(count)[:, None] >> np.arange(n - 1, -1, -1)
    return readonly((1 - 2 * (bits & 1)).astype(np.int8))


@functools.lru_cache(maxsize=8)
def split_torus(alg):
    """SplitTorusData for a supported algebra; W is produced in chunks
    (`weyl_chunks`).  The free coordinates, the trace rows (the column sums
    of `alg.a_diagonal` when they do not vanish) and the torus basis (the
    kernel of those rows) are read off `alg.a_diagonal`; the one family
    branch gives the roots, the number of sign vectors and the staircase.
    Built once per algebra object in a process; a Weyl group larger than
    WEYL_ORDER_CAP raises on every call, before its sign table or any chunk
    is built."""
    coord_len = alg.a_diagonal.shape[1]
    sums = tuple(alg.a_diagonal.sum(axis=0).tolist())
    trace = (sums,) if any(sums) else ()
    torus_basis = _ratlin.primitive_nullspace(trace, coord_len)
    if alg.family == SL:
        (n,) = alg.params
        sign_count, root_coeffs, staircase = 1, _sl_roots(n), range(n - 1, -n, -2)
    else:
        p, q = alg.params
        sign_count, root_coeffs, staircase = 2 ** q, _su_root_patterns(p, q), range(q, 0, -1)
    order = math.factorial(coord_len) * sign_count
    if order > WEYL_ORDER_CAP:
        raise ParameterError(
            f"|W| = {integer_text(order)} exceeds the Weyl group cap {WEYL_ORDER_CAP}")

    # multiplicities from the root-space dimensions, validating the realization
    ordered = sorted(root_coeffs, reverse=True)
    mults = _root_multiplicities(alg, torus_basis, ordered)
    roots = tuple(Root(c, mults[c]) for c in ordered)
    for r in roots:
        if r.multiplicity < 1:
            raise RealizationError(f"root {r.coeffs} has no ad-eigenspace in this realization")
    positive = tuple(r for r in roots if _lex_positive(r.coeffs))

    # w0 and b come from the chamber data, which needs neither of them
    proto = SplitTorusData(alg, len(torus_basis), coord_len, roots, positive, None, (),
                           _sign_vectors(coord_len, sign_count), trace,
                           torus_vector(staircase))
    w0 = _longest_element(proto)
    return replace(proto, w0=w0, b_basis=_b_basis(proto, w0))


def _longest_element(torus):
    """w0: the witness that sends minus the staircase into the chamber, so
    w0 maps the staircase to its negative.  The staircase is regular, so no
    other element does; w0 is verified to map positive roots to negatives."""
    _, w0 = torus.dominant_representative([-x for x in torus.staircase])
    pos = {r.coeffs for r in torus.positive_roots}
    for r in torus.positive_roots:
        image = w0.apply(r.coeffs)
        if tuple(-c for c in image) not in pos:
            raise RealizationError("constructed w0 does not negate the positive system")
    return w0


def _b_basis(torus, w0):
    """Exact primitive integer basis of {v : iota(v) = v} on which the trace
    rows vanish, as int tuples in increasing order."""
    m = torus.coord_len
    rows = []
    for i in range(m):
        row = [0] * m
        row[i] += 1
        # iota(v)_i = -signs[i] * v[perm[i]]
        row[w0.perm[i]] += w0.signs[i]
        rows.append(row)
    rows.extend(map(list, torus.trace))
    return tuple(sorted(_ratlin.primitive_nullspace(rows, m)))
