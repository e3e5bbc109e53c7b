"""sl(2,R)-homomorphisms into the supported algebras: partition triples in
sl(n,R), the two explicit su(p,q) families, evenness, the involution matrix
sigma = exp(pi*sqrt(-1)*H), the even subalgebra, isotypic decompositions,
genus bounds, and torsion-free spanning sets of centralizers.

Every triple is built from its exact form (`ExactTriple`), the chains of
E: H is the integer diagonal read off them, so ad H weights are read off
the basis, and the centralizer of the triple off the chains.  The
constructed triples, their even parts, their isotypic data and their star
bases are built once per process for each algebra (and partition), and
hold read-only arrays.
"""

import collections
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import _ratlin
from .algebra import (SL, SU, SubspaceOfG, adjoint_operator, diagonal_weights, expm,
                      integer_param, kernel_of, readonly)
from .errors import MembershipError, ParameterError, RealizationError

A0 = np.array([[1.0, 0.0], [0.0, -1.0]])
SL2_E = np.array([[0.0, 1.0], [0.0, 0.0]])
SL2_F = np.array([[0.0, 0.0], [1.0, 0.0]])

# thresholds of the float decisions below; none is a Config field
DECOMPOSE_TOL = 1e-7       # residual of a vector against the stacked isotypic pieces
HW_PIVOT_TOL = 1e-9        # smallest pivot of the highest-weight normalization


@dataclass(frozen=True)
class ExactTriple:
    """Exact form of a constructed triple: E as a union of chains, the
    irreducible summands of the sl2-module, ordered by top index.  A chain
    (indices, units) of length d carries E[indices[k], indices[k+1]] =
    unit_k sqrt(m_k), m_k = (k+1)(d-1-k), and H = diag(h) the weights
    d-1, d-3, ..., -(d-1) down it: the irreducible module of dimension d,
    on which SL(2,R) acts by its (d-1)-th symmetric power
    (`intkernel.Sl2Images`).  Each unit is a power of i, 1 in sl and i in
    su; F is E's conjugate transpose (its transpose in sl).  An index on no
    link is a chain of length 1.  Equal-length chains carry equal units, so
    the commutant of the triple is the matrices with equal multiples of the
    identity between matched chains."""
    chains: tuple  # ((indices, units), ...)

    def __post_init__(self):
        indices = sorted(i for idx, _ in self.chains for i in idx)
        if indices != list(range(len(indices))):
            raise ParameterError("the chains of E must cover each index exactly once")
        by_length = {}
        for idx, units in self.chains:
            if not idx:
                raise ParameterError("a chain of E is empty")
            if len(units) != len(idx) - 1 or any(u not in (1, -1, 1j, -1j) for u in units):
                raise ParameterError(f"a chain of {len(idx)} indices needs {len(idx) - 1} units, "
                                     f"each a power of i; got {units}")
            if by_length.setdefault(len(idx), tuple(units)) != tuple(units):
                raise ParameterError(f"two chains of length {len(idx)} carry different units")

    @cached_property
    def h(self):
        """The integer H-weights, d-1, d-3, ..., -(d-1) down each chain."""
        h = [0] * sum(len(idx) for idx, _ in self.chains)
        for idx, _ in self.chains:
            for k, i in enumerate(idx):
                h[i] = len(idx) - 1 - 2 * k
        return tuple(h)

    @cached_property
    def e(self):
        """(row, col, m, unit) for each nonzero entry of E, chain by chain."""
        return tuple((idx[k], idx[k + 1], (k + 1) * (len(idx) - 1 - k), unit)
                     for idx, units in self.chains for k, unit in enumerate(units))


@dataclass(frozen=True, eq=False)
class Sl2Triple:
    """A triple built from its exact form: H, E, F and the torus vector are
    read off exact."""
    algebra: object
    exact: ExactTriple
    provenance: str  # partition | rho1 | rho2
    label: str = ""

    def __post_init__(self):
        if not isinstance(self.exact, ExactTriple):
            raise ParameterError("an Sl2Triple is built from an ExactTriple, "
                                 f"got {type(self.exact).__name__}")

    @cached_property
    def h(self):
        return readonly(np.diag(np.array(self.exact.h, dtype=self.algebra.dtype)))

    @cached_property
    def e(self):
        n = len(self.exact.h)
        e = np.zeros((n, n), dtype=self.algebra.dtype)
        for row, col, m, unit in self.exact.e:
            e[row, col] = unit * math.sqrt(m)
        return readonly(e)

    @cached_property
    def f(self):
        return readonly(self.e.conj().T)

    @cached_property
    def torus_vector(self):
        """The exact free torus coordinates of H, read where `a_diagonal` puts them."""
        return tuple(Fraction(w) for w in self.exact.h[:self.algebra.a_diagonal.shape[1]])

    @cached_property
    def ad_e(self):
        return readonly(adjoint_operator(self.algebra, self.e))

    @cached_property
    def ad_f(self):
        return readonly(adjoint_operator(self.algebra, self.f))

    @cached_property
    def basis_weights(self):
        """The integer ad H weight of each basis element, read off its support
        (H is diagonal with integer entries)."""
        return readonly(diagonal_weights(self.algebra, [self.exact.h])[0])

    @property
    def centralizer_dim(self):
        """Dimension of the centralizer of H (the kernel of ad H): the number
        of basis elements of weight zero."""
        return int(np.count_nonzero(self.basis_weights == 0))

    @cached_property
    def sigma(self):
        """exp(pi sqrt(-1) H), built once per triple (see `sigma`)."""
        return readonly(sigma(self))

    @cached_property
    def star_basis(self):
        """`property_star_basis` of the triple, built once per triple."""
        star = tuple(property_star_basis(self))
        readonly(tuple((el.matrix, el.coords) for el in star))
        return star

    def images(self):
        return [self.h, self.e, self.f]

    def drho(self, xi):
        """Image of a 2x2 traceless matrix, or of each matrix of a stack
        (m, 2, 2), under the algebra homomorphism."""
        xi = np.asarray(xi)[..., None, None]
        return (xi[..., 0, 0, :, :] * self.h + xi[..., 0, 1, :, :] * self.e
                + xi[..., 1, 0, :, :] * self.f)


def sl2_from_partition(alg, partition):
    """Jordan-type block triple for a partition of n, conjugated so that the
    H-image is the dominant diagonal matrix of concatenated weight strings.
    One triple serves every call with the same algebra and parts."""
    if alg.family != SL:
        raise ParameterError("partition triples live in sl(n,R)")
    (n,) = alg.params
    parts = tuple(integer_param("partition part", p) for p in partition)
    if any(p < 1 for p in parts) or sum(parts) != n:
        raise ParameterError(f"{parts} is not a partition of {n}")
    return _partition_triple(alg, parts)


@functools.lru_cache(maxsize=32)
def _partition_triple(alg, parts):
    (n,) = alg.params
    starts = itertools.accumulate(parts, initial=0)
    blocks = ExactTriple(tuple((tuple(range(s, s + p)), (1,) * (p - 1))
                               for s, p in zip(starts, parts)))
    # stable sort of the diagonal into the closed chamber
    order = sorted(range(n), key=lambda i: (-blocks.h[i], i))
    new = {old: k for k, old in enumerate(order)}
    exact = ExactTriple(tuple(sorted((tuple(new[i] for i in idx), units)
                                     for idx, units in blocks.chains)))
    label = "[" + ",".join(str(p) for p in sorted(parts, reverse=True)) + "]"
    return Sl2Triple(alg, exact, "partition", label)


@functools.lru_cache(maxsize=4)
def rho1_su(alg):
    """diag(1..1,0..0,-1..-1) with E = sqrt(-1) times the corner identity
    block: the chains (k, p + k) with unit i for k < q, and the indices
    q, ..., p - 1 alone.  One triple per algebra object."""
    if alg.family != SU:
        raise ParameterError("rho1 lives in su(p,q)")
    p, q = alg.params
    exact = ExactTriple(tuple(((k, p + k), (1j,)) for k in range(q))
                        + tuple(((k,), ()) for k in range(q, p)))
    return Sl2Triple(alg, exact, "rho1", "rho1")


@functools.lru_cache(maxsize=4)
def rho2_su(alg):
    """diag(2q,...,2,0..0,-2,...,-2q) with superdiagonal constants
    c_k = sqrt(-1) sqrt(k(2q+1-k)): the chain 0, ..., q, p, ..., p+q-1 with
    every unit i, and the indices q+1, ..., p-1 alone; undefined for p = q.
    One triple per algebra object."""
    if alg.family != SU:
        raise ParameterError("rho2 lives in su(p,q)")
    p, q = alg.params
    if p < q + 1:
        raise ParameterError(f"rho2 is undefined for p = q (got p={p}, q={q})")
    exact = ExactTriple(((tuple(range(q + 1)) + tuple(range(p, p + q)), (1j,) * (2 * q)),)
                        + tuple(((k,), ()) for k in range(q + 1, p)))
    return Sl2Triple(alg, exact, "rho2", "rho2")


def ad_weight_multiplicities(triple):
    """Multiplicities m_j of the integer eigenvalues of ad H on the algebra."""
    mults = collections.Counter(triple.basis_weights.tolist())
    for j, m in mults.items():
        if mults.get(-j, 0) != m:
            raise RealizationError("ad H weight multiset is not symmetric")
    return dict(sorted(mults.items()))


def is_even(triple):
    """All ad H eigenvalues even; cross-validated against the equal-parity
    rule: the chains of E (`ExactTriple.chains`, the irreducible summands)
    all have lengths of one parity."""
    even = all(j % 2 == 0 for j in ad_weight_multiplicities(triple))
    if (len({len(idx) % 2 for idx, _ in triple.exact.chains}) == 1) != even:
        raise RealizationError(
            f"parity rule and ad-spectrum disagree for {triple.provenance} {triple.label}")
    return even


def sigma(triple):
    """exp(pi*sqrt(-1)*H) = diag((-1)^h_i), read off the exact weights of H.

    It lies in the group iff det = 1, an even number of odd weights, and,
    where the algebra keeps a form, s form s = form: equal parity at each
    pair of indices the form matches.  Real, complex-typed in su(p,q).
    """
    alg = triple.algebra
    odd = [w % 2 == 1 for w in triple.exact.h]
    s = np.diag([-1.0 if o else 1.0 for o in odd])
    if sum(odd) % 2 or alg.form is not None and not np.array_equal(s @ alg.form @ s, alg.form):
        raise RealizationError("sigma violates the group's defining condition")
    return s.astype(alg.dtype)


@functools.lru_cache(maxsize=4)
def g_even(triple):
    """Sum of the even ad H eigenspaces, cross-checked against Ad(sigma),
    which must act on each weight vector by (-1)^weight.  The weight vectors
    are the basis elements and sigma is diagonal, so this compares
    sigma_i sigma_j with (-1)^weight on each element's support.
    One subspace, with read-only rows, per triple in a process."""
    alg = triple.algebra
    parity = np.where(triple.basis_weights % 2 == 0, 1.0, -1.0)
    d = triple.sigma.diagonal().real
    elem, rows, cols, _ = alg._support
    if np.any(d[rows] * d[cols] != parity[elem]):  # +-1 products: exact
        raise RealizationError("even part disagrees with the Ad(sigma) fixed space")
    even = np.flatnonzero(parity > 0)
    onb = np.zeros((len(even), alg.dim))
    onb[np.arange(len(even)), even] = 1.0
    space = SubspaceOfG(alg, onb)
    readonly(space.onb)
    return space


@dataclass(frozen=True, eq=False)
class IsotypicData:
    """Decomposition data for the adjoint action of the triple.

    mults holds [g : V_k] for the full algebra; Lambda indexes the
    odd-dimensional pieces V_{i,j} of the target subalgebra, the even part
    g_even(triple), each with an ordered weight basis produced by repeated
    ad F.
    """
    triple: object
    target: SubspaceOfG
    weight_mults: dict
    mults: dict
    target_odd_mults: dict      # i -> [g' : V_{2i+1}]
    Lambda: tuple               # ordered (i, j), i descending then j ascending
    piece_columns: dict         # (i, j) -> (dim, 2i+1) weight-basis columns
    stacked: np.ndarray         # all piece columns side by side
    block_slices: dict
    solver: np.ndarray          # pinv of stacked

    def decompose(self, coords):
        """Coefficients of a target-subspace vector in the stacked weight basis."""
        coords = np.asarray(coords, dtype=float)
        coeffs = self.solver @ coords
        resid = np.linalg.norm(self.stacked @ coeffs - coords)
        if resid > DECOMPOSE_TOL * max(np.linalg.norm(coords), 1.0):
            raise MembershipError("vector is not in the decomposed subalgebra")
        return coeffs

    def model_coordinates(self, i, j, coords):
        """q_{i,j}(p_{i,j}(x)): model weight-basis coordinates of the (i,j) block."""
        return self.decompose(coords)[self.block_slices[(i, j)]]


def _canonical_hw_rows(rows):
    """Deterministic basis of a floating row space: float RREF in natural
    column order, unit rows, first significant entry positive."""
    work = [np.array(r, dtype=float) for r in rows]
    out = []
    ncols = len(work[0]) if work else 0
    col = 0
    while work and col < ncols:
        scores = [abs(r[col]) for r in work]
        best = int(np.argmax(scores))
        if scores[best] <= HW_PIVOT_TOL * max(np.linalg.norm(work[best]), 1.0):
            col += 1
            continue
        pivot = work.pop(best)
        pivot = pivot / pivot[col]
        work = [r - r[col] * pivot for r in work]
        out.append((col, pivot))
        col += 1
    rows_sorted = [p for _, p in sorted(out, key=lambda cp: cp[0])]
    canon = []
    for r in rows_sorted:
        r = r / np.linalg.norm(r)
        lead = r[np.argmax(np.abs(r) > HW_PIVOT_TOL)]
        canon.append(r if lead > 0 else -r)
    return canon


def module_multiplicities(alg, triple):
    """Full isotypic data: weight multiplicities, [g:V_k], and ordered weight
    bases of the odd pieces of the even part g_even(triple).

    Highest-weight vectors of weight 2i are the kernel of the block of ad E
    from weight 2i to 2i + 2 in the algebra basis, extracted per weight in
    descending order with a deterministic lexicographic normalization, then
    lowered by ad F.  One IsotypicData, with read-only arrays, serves every
    call with the same triple in a process.  alg must be triple.algebra: the
    triple holds the algebra, and so its config.
    """
    if alg is not triple.algebra:
        raise ParameterError("module_multiplicities needs the triple's own algebra")
    return _isotypic_data(triple)


@functools.lru_cache(maxsize=4)
def _isotypic_data(triple):
    alg = triple.algebra
    weight_mults = ad_weight_multiplicities(triple)
    mults = {}
    top = max(weight_mults) if weight_mults else 0
    for k in range(1, top + 2):
        m = weight_mults.get(k - 1, 0) - weight_mults.get(k + 1, 0)
        if m < 0:
            raise RealizationError(f"negative multiplicity for V_{k}")
        if m > 0:
            mults[k] = m
    if sum(k * m for k, m in mults.items()) != alg.dim:
        raise RealizationError("multiplicities do not sum to dim g")

    weights = triple.basis_weights
    ad_e, ad_f = triple.ad_e, triple.ad_f
    target = g_even(triple)
    target_odd = {}
    for i in range(max(weight_mults, default=0) // 2 + 1):
        m = weight_mults.get(2 * i, 0) - weight_mults.get(2 * i + 2, 0)
        if m > 0:
            target_odd[i] = m

    lam_list = []
    pieces = {}
    for i in sorted(target_odd, reverse=True):
        r = target_odd[i]
        low = weights == 2 * i
        hw = kernel_of([ad_e[weights == 2 * i + 2][:, low]], int(low.sum()), alg.config.rank_rtol)
        if len(hw) != r:
            raise RealizationError(
                f"highest-weight space at weight {2*i} has numerical rank {len(hw)}, "
                f"expected {r}")
        for j, row in enumerate(_canonical_hw_rows(list(hw)), start=1):
            cols = np.zeros((alg.dim, 2 * i + 1))  # column k: weight 2i - 2k
            cols[low, 0] = row
            for k in range(1, 2 * i + 1):
                above, at = weights == 2 * i - 2 * k + 2, weights == 2 * i - 2 * k
                cols[at, k] = ad_f[at][:, above] @ cols[above, k - 1]
            pieces[(i, j)] = cols
            lam_list.append((i, j))
    lam_list.sort(key=lambda ij: (-ij[0], ij[1]))
    if sum(2 * i + 1 for i, _ in lam_list) != target.dim:
        raise RealizationError("odd pieces do not exhaust the target subalgebra")

    stacked_cols = []
    block_slices = {}
    pos = 0
    for ij in lam_list:
        width = 2 * ij[0] + 1
        block_slices[ij] = slice(pos, pos + width)
        stacked_cols.append(pieces[ij])
        pos += width
    stacked = np.hstack(stacked_cols) if stacked_cols else np.zeros((alg.dim, 0))
    solver = np.linalg.pinv(stacked) if stacked.size else np.zeros((0, alg.dim))
    return IsotypicData(triple, target, weight_mults, mults, target_odd,
                        tuple(lam_list), readonly(pieces), readonly(stacked), block_slices,
                        readonly(solver))


def genus_bound(triple):
    """Sum of the odd multiplicities of the algebra (the even part gives the
    same value since odd pieces all lie inside it): they telescope to m_0."""
    return ad_weight_multiplicities(triple).get(0, 0)


def _partitions(n, cap=None):
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _dominance_key(parts, n):
    sums = list(itertools.accumulate(parts))
    sums += [n] * (n - len(sums))
    return tuple(sums)


def even_partitions(n):
    """Equal-parity partitions of n in (totalized) dominance order."""
    out = [p for p in _partitions(n) if len({x % 2 for x in p}) == 1]
    out.sort(key=lambda p: _dominance_key(p, n), reverse=True)
    return out


@dataclass(frozen=True)
class SpanningElement:
    matrix: np.ndarray
    coords: np.ndarray
    kind: str  # elliptic | hyperbolic


def _su_diagonal_lattice(triple, mirror):
    """Primitive integer diagonals t with 2*pi*i*diag(t) in g commuting with
    the triple: equality of entries across the support of E and across each
    pair k < mirror[k] of indices the form matches, and zero trace, solved
    exactly."""
    n = triple.algebra.size
    rows = []
    for a, b in [e[:2] for e in triple.exact.e] + [(k, m) for k, m in enumerate(mirror) if k < m]:
        row = [0] * n
        row[a], row[b] = 1, -1
        rows.append(row)
    rows.append([1] * n)
    return _ratlin.primitive_nullspace(rows, n)


def _outer(u, v):
    """u v^T / (|u| |v|) for two class-space vectors with entries 0 and
    +-1: the outer product of their unit vectors."""
    return np.outer(u, v) / math.sqrt((u @ u) * (v @ v))


def property_star_basis(triple):
    """Basis of the centralizer of the triple in which every element is
    hyperbolic or elliptic with exp(X) = 1, read off the chains of E.

    By Schur the commutant is spanned by J(a, b) = sum_k E[a_k, b_k] over
    pairs of equal-length chains (`ExactTriple.chains`): each length class
    of m chains carries a class-space matrix C in gl(m), acting on every
    weight level at once, so exp(2*pi*X) = 1 when exp(2*pi*C) = 1.

    In sl(n,R) each class is gl(m, R).  Elliptic: 2*pi(J(a,b) - J(b,a)),
    single rotations before sums along longer chains.  Hyperbolic:
    J(a,b) + J(b,a) and trace-balanced differences of chain projectors.

    In su(p,q) the form maps chain c onto the chain pi(c), its mirror
    k -> n-1-k (k < q or k >= p) taken in reverse order, so each class is
    u(V+, V-) for the +1 and -1 eigenspaces of pi.  Elliptic, each 2*pi
    times: the diagonal lattice, then, in lexicographic order of the chain
    tops, i(J(c,c') + J(c',c)) for each pair that pi swaps and a rotation
    and an i-symmetric pair for two basis vectors of V+ (or of V-).
    Hyperbolic: f g* + g f* and i(f g* - g f*) for f in V+, g in V-.

    Hyperbolic elements have unit coordinate norm.
    """
    alg = triple.algebra
    n = alg.size
    classes = {}
    for idx, _ in triple.exact.chains:
        classes.setdefault(len(idx), []).append(idx)

    def expand(chains, c):
        """sum_{a,b} c[a,b] J(chains[a], chains[b])."""
        rows = np.array(chains)
        x = np.zeros((n, n), dtype=alg.dtype)
        x[rows[:, None, :], rows[None, :, :]] = c[:, :, None]
        return x

    def torsion(chains, c):
        """2*pi times the chain sum of c, whose exp is 1 when exp(2*pi*c) is."""
        return 2.0 * np.pi * expand(chains, c)

    hyperbolic = []
    if alg.family == SL:
        elliptic = []
        for chains in (classes[d] for d in sorted(classes)):
            for a, b in itertools.combinations(range(len(chains)), 2):
                e_ab = np.zeros((len(chains),) * 2)
                e_ab[a, b] = 1.0
                elliptic.append(torsion(chains, e_ab - e_ab.T))
                hyperbolic.append(expand(chains, e_ab + e_ab.T))
        every = [idx for idx, _ in triple.exact.chains]
        for c1, c2 in zip(every, every[1:]):
            x = np.zeros((n, n))
            x[c1, c1], x[c2, c2] = len(c2), -len(c1)
            hyperbolic.append(x)
    else:
        mirror = np.argmax(alg.form != 0, axis=1).tolist()  # the index the form matches
        keyed = []  # (order key, matrix)
        for chains in classes.values():
            pos = {idx: a for a, idx in enumerate(chains)}
            plus, minus = [], []  # (top, class-space vector) of V+ and of V-
            for a, idx in enumerate(chains):
                b = pos.get(tuple(mirror[i] for i in reversed(idx)))
                if b is None:
                    raise RealizationError("the form does not map the chains of E onto chains")
                if b < a:
                    continue
                vec = np.zeros(len(chains))
                vec[a] = vec[b] = 1.0
                plus.append((idx[0], vec))
                if b > a:
                    odd, swap = vec.copy(), np.zeros((len(chains),) * 2)
                    odd[b] = -1.0
                    swap[a, b] = swap[b, a] = 1.0
                    minus.append((idx[0], odd))
                    keyed.append(((idx[0], chains[b][0], 0, 1), torsion(chains, 1j * swap)))
            for side, vecs in enumerate((plus, minus)):
                for (top_u, u), (top_v, v) in itertools.combinations(vecs, 2):
                    uv = _outer(u, v)
                    keyed.append(((top_u, top_v, side, 0), torsion(chains, uv - uv.T)))
                    keyed.append(((top_u, top_v, side, 1), torsion(chains, 1j * (uv + uv.T))))
            for (_, f), (_, g) in itertools.product(plus, minus):
                fg = _outer(f, g)
                hyperbolic += [expand(chains, fg + fg.T), expand(chains, 1j * (fg - fg.T))]
        elliptic = [2.0 * np.pi * 1j * np.diag(np.array(t, dtype=float))
                    for t in _su_diagonal_lattice(triple, mirror)]
        elliptic += [m for _, m in sorted(keyed, key=lambda km: km[0])]
    out = [SpanningElement(m, alg.coordinates(m), "elliptic") for m in elliptic]
    for m in hyperbolic:
        coords = alg.coordinates(m)
        scale = np.linalg.norm(coords)
        out.append(SpanningElement(m / scale, coords / scale, "hyperbolic"))
    return out


def _expm_nilpotent(m):
    """exp of each nilpotent matrix of a stack (m, n, n) by its Taylor
    series, up to the first term that is zero for every matrix.  A matrix
    whose own terms vanish earlier adds zeros, which leave its sum's bits
    as they are: the sum starts at I and never holds a -0.0."""
    n = m.shape[-1]
    out = term = np.eye(n, dtype=m.dtype)
    for k in range(1, n + 1):
        term = term @ m / k
        out = out + term
        if not np.any(term):
            break
    return out


def rho_of(triple, g2):
    """Group image of a 2x2 unimodular matrix, or of each matrix of a stack
    (m, 2, 2), under the homomorphism attached to the triple, via the
    Iwasawa factorization g = K A N.  A stack goes through each step at
    once; every matrix of it takes the same float operations as it would on
    its own, so its image is the same to the bit."""
    g2 = np.asarray(g2, dtype=float)
    stack = g2.reshape(-1, 2, 2) if g2.ndim in (2, 3) and g2.shape[-2:] == (2, 2) else None
    if stack is None or np.any(np.abs(np.linalg.det(stack) - 1.0) > 1e-9):
        raise ParameterError("rho_of needs a 2x2 matrix of determinant 1")
    q_mat, r_mat = np.linalg.qr(stack)
    d = np.sign(np.diagonal(r_mat, axis1=1, axis2=2))
    q_mat = q_mat * d[:, None, :]
    r_mat = r_mat * d[:, :, None]
    # math, not numpy ufuncs, whose atan2 and log may round otherwise
    s = np.array(list(map(math.atan2, q_mat[:, 0, 1].tolist(), q_mat[:, 0, 0].tolist())))
    u = np.array(list(map(math.log, r_mat[:, 0, 0].tolist())))
    x = r_mat[:, 0, 1] / r_mat[:, 0, 0]
    rot = expm(triple.drho(s[:, None, None] * (SL2_E - SL2_F)))
    # H is diagonal, so exp(u H) is the exp of its diagonal
    u_h = triple.drho(u[:, None, None] * A0)
    idx = np.arange(u_h.shape[-1])
    diag_part = np.zeros_like(u_h)
    diag_part[:, idx, idx] = np.exp(u_h[:, idx, idx])
    nil = _expm_nilpotent(triple.drho(x[:, None, None] * SL2_E))
    out = rot @ diag_part @ nil
    return out if g2.ndim == 3 else out[0]
