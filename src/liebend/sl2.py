"""sl(2,R)-homomorphisms into the supported algebras: partition triples in
sl(n,R), the two explicit su(p,q) families, evenness, the involution matrix
sigma = exp(pi*sqrt(-1)*H), the even subalgebra, isotypic decompositions,
genus bounds, even bases of b, and torsion-free spanning sets of centralizers.

Every triple is built from its exact form (`ExactTriple`): H is an integer
diagonal, so ad H weights are read off the basis.  The constructed triples,
their even parts, their isotypic data, their centralizers and the star bases
of those are built once per process for each algebra (and partition), and
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
from scipy.linalg import expm

from . import _ratlin
from .algebra import (SL, SU, SubspaceOfG, adjoint_operator, bracket,
                      classify_element, diagonal_weights, integer_param, kernel_of,
                      readonly, subspace_from_coordinates, theta_operator)
from .errors import (MembershipError, ParameterError, RealizationError,
                     UnsupportedCentralizerError)
from .projections import group_residual
from .weyl import split_torus

A0 = np.array([[1.0, 0.0], [0.0, -1.0]])
SL2_E = np.array([[0.0, 1.0], [0.0, 0.0]])
SL2_F = np.array([[0.0, 0.0], [1.0, 0.0]])

# thresholds of the float decisions below; none is a Config field
TRIPLE_RTOL = 1e-9         # bracket and membership residuals of a triple, relative to its norm
DECOMPOSE_TOL = 1e-7       # residual of a vector against the stacked isotypic pieces
HW_PIVOT_TOL = 1e-9        # smallest pivot of the highest-weight normalization
E_SUPPORT_TOL = 1e-12      # an entry of E counts as support above this modulus
STAR_TOL = 1e-7            # centralizer membership and rank of the torsion spanning set


@dataclass(frozen=True)
class ExactTriple:
    """Exact form of a constructed triple: H = diag(h) with integer weights,
    and E with the entry unit * sqrt(m) at (row, col), unit 1 in sl and i in
    su.  F is E's conjugate transpose (its transpose in sl, where every unit
    is real)."""
    h: tuple  # integer H-weights
    e: tuple  # (row, col, m, unit) for each nonzero entry of E

    @cached_property
    def chains(self):
        """E as a union of chains: ((indices, signature), ...) ordered by top
        index.  A chain of length d runs down the weights d-1, d-3, ..., -(d-1)
        with E[indices[k], indices[k+1]] = unit_k sqrt(m_k); its signature is
        ((m_0, unit_0), ..., (m_{d-2}, unit_{d-2})).  An index no entry of E
        touches is a chain of length 1.  Equal-length chains must carry equal
        signatures, so the commutant of the triple is the matrices with equal
        multiples of the identity between matched chains.  The signature must
        be that of the irreducible sl2-module of dimension d,
        m_k = (k+1)(d-1-k), with each unit a power of i (so |unit| = 1): on
        such a chain SL(2,R) acts by its (d-1)-th symmetric power
        (`intkernel.Sl2Images`)."""
        down, up = {}, {}
        for row, col, m, unit in self.e:
            if self.h[row] - self.h[col] != 2:
                raise ParameterError("E and F must move the H-weights by +2 and -2")
            if row in down or col in up:
                raise ParameterError("E is not a union of chains: an index is linked twice")
            down[row], up[col] = (col, (m, unit)), row
        chains, by_length = [], {}
        for top in range(len(self.h)):
            if top in up:
                continue
            idx, sig = [top], []
            while idx[-1] in down:
                nxt, link = down[idx[-1]]
                idx.append(nxt)
                sig.append(link)
            weights = [self.h[i] for i in idx]
            if weights != list(range(len(idx) - 1, -len(idx), -2)):
                raise ParameterError(f"a chain of E carries the weights {weights}, "
                                     f"not d-1, ..., -(d-1)")
            if by_length.setdefault(len(idx), tuple(sig)) != tuple(sig):
                raise ParameterError(f"two chains of length {len(idx)} carry different "
                                     f"coefficients")
            if any(m != (k + 1) * (len(sig) - k) or unit not in (1, -1, 1j, -1j)
                   for k, (m, unit) in enumerate(sig)):
                raise ParameterError(f"a chain of length {len(idx)} carries the signature "
                                     f"{sig}, not m_k = (k+1)(d-1-k) with units powers of i")
            chains.append((tuple(idx), tuple(sig)))
        return tuple(chains)


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
        dtype = complex if self.algebra.is_complex else float
        return readonly(np.diag(np.array(self.exact.h, dtype=dtype)))

    @cached_property
    def e(self):
        n = len(self.exact.h)
        e = np.zeros((n, n), dtype=complex if self.algebra.is_complex else float)
        for row, col, m, unit in self.exact.e:
            e[row, col] = unit * math.sqrt(m)
        return readonly(e)

    @cached_property
    def f(self):
        return readonly(self.e.conj().T if self.algebra.is_complex else self.e.T)

    @cached_property
    def torus_vector(self):
        """The exact free torus coordinates of H."""
        alg = self.algebra
        free = self.exact.h if alg.family == SL else self.exact.h[:alg.params[1]]
        return tuple(Fraction(w) for w in free)

    @cached_property
    def is_zero(self):
        return max(np.linalg.norm(self.h), np.linalg.norm(self.e),
                   np.linalg.norm(self.f)) == 0.0

    @cached_property
    def ad_h(self):
        """Matrix of ad H in the algebra basis, built once per triple."""
        return readonly(adjoint_operator(self.algebra, self.h))

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

    @cached_property
    def h_centralizer(self):
        """Orthonormal coordinate rows of the centralizer of H (the kernel of ad H):
        the basis elements of weight zero."""
        return readonly(np.eye(self.algebra.dim)[self.basis_weights == 0])

    @cached_property
    def sigma(self):
        """exp(pi sqrt(-1) H), built once per triple (see `sigma`)."""
        return readonly(sigma(self))

    @cached_property
    def centralizer(self):
        """The centralizer of the triple (the common kernel of ad H, ad E and
        ad F), built once per triple."""
        alg = self.algebra
        return SubspaceOfG(alg, readonly(kernel_of([self.ad_h, self.ad_e, self.ad_f],
                                                   alg.dim, alg.config.rank_rtol)))

    @cached_property
    def star_basis(self):
        """`property_star_basis` of the centralizer, built once per triple."""
        star = tuple(property_star_basis(self.centralizer, self))
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


def _partition_weight_string(parts):
    weights = []
    for p in parts:
        weights.extend(range(p - 1, -p, -2))
    return weights


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
    weights = _partition_weight_string(parts)
    starts = itertools.accumulate(parts, initial=0)
    entries = [(s + k - 1, s + k, k * (p - k)) for s, p in zip(starts, parts) for k in range(1, p)]
    # stable sort of the diagonal into the closed chamber
    order = sorted(range(n), key=lambda i: (-weights[i], i))
    new = {old: k for k, old in enumerate(order)}
    exact = ExactTriple(tuple(weights[i] for i in order),
                        tuple((new[r], new[c], m, 1) for r, c, m in entries))
    label = "[" + ",".join(str(p) for p in sorted(parts, reverse=True)) + "]"
    return Sl2Triple(alg, exact, "partition", label)


@functools.lru_cache(maxsize=4)
def rho1_su(alg):
    """diag(1..1,0..0,-1..-1) with E = sqrt(-1) times the corner identity
    block; one triple per algebra object."""
    if alg.family != SU:
        raise ParameterError("rho1 lives in su(p,q)")
    p, q = alg.params
    n = p + q
    h = tuple(1 if i < q else -1 if i >= n - q else 0 for i in range(n))
    exact = ExactTriple(h, tuple((k, p + k, 1, 1j) for k in range(q)))
    return Sl2Triple(alg, exact, "rho1", "rho1")


@functools.lru_cache(maxsize=4)
def rho2_su(alg):
    """diag(2q,...,2,0..0,-2,...,-2q) with superdiagonal constants
    c_k = sqrt(-1) sqrt(k(2q+1-k)); undefined for p = q.  One triple per
    algebra object."""
    if alg.family != SU:
        raise ParameterError("rho2 lives in su(p,q)")
    p, q = alg.params
    if p < q + 1:
        raise ParameterError(f"rho2 is undefined for p = q (got p={p}, q={q})")
    m = [k * (2 * q + 1 - k) for k in range(q + 1)]  # c_k = sqrt(-1) sqrt(m[k])
    tops = list(range(2 * q, 0, -2))
    h = tuple(tops + [0] * (p - q) + [-w for w in reversed(tops)])
    e = ([(k, k + 1, m[k + 1], 1j) for k in range(q)]  # leading (q+1)-block, c_1..c_q
         + [(p + j, p + j + 1, m[q - 1 - j], 1j) for j in range(q - 1)]  # trailing q-block
         + [(q, p, m[q], 1j)])  # bridge term c_q E_{q+1,p+1}
    return Sl2Triple(alg, ExactTriple(h, tuple(e)), "rho2", "rho2")


def verify_sl2_triple(triple):
    """Bracket relations and algebra membership, with a residual report."""
    alg = triple.algebra
    h, e, f = triple.h, triple.e, triple.f
    scale = max(np.linalg.norm(h), np.linalg.norm(e), np.linalg.norm(f), 1.0)
    residuals = {
        "[H,E]-2E": float(np.linalg.norm(bracket(h, e) - 2.0 * e)),
        "[H,F]+2F": float(np.linalg.norm(bracket(h, f) + 2.0 * f)),
        "[E,F]-H": float(np.linalg.norm(bracket(e, f) - h)),
        "H in g": float(alg.defining_residual(h)),
        "E in g": float(alg.defining_residual(e)),
        "F in g": float(alg.defining_residual(f)),
    }
    ok = all(r <= TRIPLE_RTOL * scale for r in residuals.values())
    if ok and not triple.is_zero:
        try:
            ad_weight_multiplicities(triple)
        except RealizationError:
            ok = False
    return ok, residuals


def ad_weight_multiplicities(triple):
    """Multiplicities m_j of the integer eigenvalues of ad H on the algebra."""
    mults = collections.Counter(triple.basis_weights.tolist())
    for j, m in mults.items():
        if mults.get(-j, 0) != m:
            raise RealizationError("ad H weight multiset is not symmetric")
    return dict(sorted(mults.items()))


def is_even(triple):
    """All ad H eigenvalues even; cross-validated against the equal-parity
    rule for sl(n,R) partitions."""
    mults = ad_weight_multiplicities(triple)
    even = all(j % 2 == 0 for j in mults)
    if triple.provenance == "partition":
        parts = [int(s) for s in triple.label.strip("[]").split(",")]
        parity_rule = len({p % 2 for p in parts}) == 1
        if parity_rule != even:
            raise RealizationError(
                f"parity rule and ad-spectrum disagree for partition {triple.label}")
    return even


def sigma(triple):
    """exp(pi*sqrt(-1)*H) = diag((-1)^h_i), read off the exact weights of H.

    Integer weights make every factor +-1, so the result lies in the group;
    it is real, with a complex dtype in su(p,q).
    """
    alg = triple.algebra
    weights = [Fraction(w) for w in triple.exact.h]
    if any(w.denominator != 1 for w in weights):
        raise RealizationError("H has non-integer eigenvalues; sigma is undefined")
    s = np.diag([1.0 if w % 2 == 0 else -1.0 for w in weights])
    if alg.is_complex:
        s = s.astype(complex)
    if group_residual(alg, s) > 1e-8 * len(weights):
        raise RealizationError("sigma violates the group's defining condition")
    return s


@functools.lru_cache(maxsize=4)
def g_even(triple):
    """Sum of the even ad H eigenspaces, cross-checked against Ad(sigma),
    which must act on each weight vector by (-1)^weight.  The weight vectors
    are the basis elements and sigma is diagonal, so this compares
    sigma_i sigma_j with (-1)^weight on each element's support.
    One subspace, with read-only rows, per triple in a process."""
    alg = triple.algebra
    parity = np.where(triple.basis_weights % 2 == 0, 1.0, -1.0)
    mats, s = alg.basis, triple.sigma
    if (np.linalg.norm(s @ mats @ np.linalg.inv(s) - mats * parity[:, None, None])
            > 1e-7 * np.linalg.norm(mats)):
        raise RealizationError("even part disagrees with the Ad(sigma) fixed space")
    space = SubspaceOfG(alg, np.eye(alg.dim)[parity > 0])
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
    same value since odd pieces all lie inside it), cross-checked against the
    centralizer dimension of the H-image.
    """
    odd_sum = ad_weight_multiplicities(triple).get(0, 0)  # odd multiplicities telescope to m_0
    cz = len(triple.h_centralizer)
    if odd_sum != cz:
        raise RealizationError(
            f"genus bound {odd_sum} disagrees with centralizer dimension {cz}")
    return odd_sum


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


def even_sl2_basis_of_b(alg):
    """Even triples whose dominant H-vectors form a basis of b, found by a
    greedy exact-rank scan over equal-parity partitions in dominance order."""
    if alg.family != SL:
        raise ParameterError("the even basis search is implemented for sl(n,R)")
    (n,) = alg.params
    torus = split_torus(alg)
    target_dim = torus.b_dim
    chosen = []
    vectors = []
    for parts in even_partitions(n):
        vec = tuple(Fraction(w) for w in sorted(_partition_weight_string(parts), reverse=True))
        if _ratlin.rank(vectors + [vec]) <= len(vectors):
            continue
        triple = sl2_from_partition(alg, parts)
        if not is_even(triple):
            raise RealizationError(f"partition {parts} passed the parity filter but is not even")
        chosen.append(triple)
        vectors.append(vec)
        if len(vectors) == target_dim:
            break
    if len(vectors) != target_dim:
        raise RealizationError("even partitions failed to span b")
    for v in vectors:
        if not torus.in_b_plus(v):
            raise RealizationError(f"even dominant vector {v} left b_plus")
    return chosen


@dataclass(frozen=True)
class SpanningElement:
    matrix: np.ndarray
    coords: np.ndarray
    kind: str  # elliptic | hyperbolic | nilpotent


def _su_diagonal_lattice(triple):
    """Primitive integer diagonals t with 2*pi*i*diag(t) in g commuting with
    the triple: equality of entries across the support of E, the mirrored
    su-pattern, and zero trace, solved exactly."""
    p, q = triple.algebra.params
    n = p + q
    rows = []
    e = np.asarray(triple.e)
    for a in range(n):
        for b in range(n):
            if a != b and abs(e[a, b]) > E_SUPPORT_TOL:
                row = [Fraction(0)] * n
                row[a], row[b] = Fraction(1), Fraction(-1)
                rows.append(tuple(row))
    for k in range(q):
        row = [Fraction(0)] * n
        row[k], row[n - 1 - k] = Fraction(1), Fraction(-1)
        rows.append(tuple(row))
    rows.append((Fraction(1),) * n)
    null = _ratlin.nullspace(rows, n)
    return [tuple(int(x) for x in _ratlin.primitive(v)) for v in null]


def property_star_basis(centralizer_subspace, triple):
    """Basis of the centralizer in which every element is hyperbolic or
    elliptic with exp(X) = 1 (no nilpotents arise: the centralizer of a triple
    image is reductive).

    Supports the block-diagonal centralizers of the constructed families:
    elliptic generators come from exact diagonal-imaginary lattices (su) or
    2*pi two-plane rotations (sl).  Anything else raises
    UnsupportedCentralizerError.
    """
    z = centralizer_subspace
    alg = z.algebra
    if z.dim == 0:
        return []
    timg = z.onb @ theta_operator(alg).T
    if not z.contains_vector(timg, STAR_TOL):
        raise UnsupportedCentralizerError("centralizer is not theta-stable")
    k_part = subspace_from_coordinates(alg, 0.5 * (z.onb + timg))
    p_part = subspace_from_coordinates(alg, 0.5 * (z.onb - timg))
    if k_part.dim + p_part.dim != z.dim:
        raise UnsupportedCentralizerError("theta does not split the centralizer")

    out = []
    if k_part.dim > 0:
        candidates = []
        n = alg.size
        if alg.family == SU:
            for t_vec in _su_diagonal_lattice(triple):
                candidates.append(2.0 * np.pi * 1j * np.diag(np.array(t_vec, dtype=float)))
            # two-plane rotations and i-symmetric pairs with integer spectrum,
            # singly and glued to their form-mirrored partner; membership
            # filtering keeps only the form-compatible ones
            def rot(a, b):
                m = np.zeros((n, n), dtype=complex)
                m[a, b], m[b, a] = 1.0, -1.0
                return m

            def isym(a, b):
                m = np.zeros((n, n), dtype=complex)
                m[a, b] = m[b, a] = 1j
                return m

            for a in range(n):
                for b in range(a + 1, n):
                    am, bm = n - 1 - b, n - 1 - a  # mirrored index pair
                    for make in (rot, isym):
                        candidates.append(2.0 * np.pi * make(a, b))
                        if {a, b} != {am, bm}:
                            for sign in (1.0, -1.0):
                                candidates.append(
                                    2.0 * np.pi * (make(a, b) + sign * make(am, bm)))
        else:
            singles = []
            for a in range(n):
                for b in range(a + 1, n):
                    m = np.zeros((n, n))
                    m[a, b], m[b, a] = 1.0, -1.0
                    singles.append(((a, b), m))
            candidates.extend(2.0 * np.pi * m for _, m in singles)
            # sums of two disjoint plane rotations (so(2) acting diagonally on
            # a two-dimensional multiplicity space); deeper sums are the
            # general torus-lattice construction and stay out of scope
            for idx1 in range(len(singles)):
                (pair1, m1) = singles[idx1]
                for idx2 in range(idx1 + 1, len(singles)):
                    (pair2, m2) = singles[idx2]
                    if set(pair1) & set(pair2):
                        continue
                    candidates.append(2.0 * np.pi * (m1 + m2))
                    candidates.append(2.0 * np.pi * (m1 - m2))
        picked_rows = []
        rank = 0
        for m in candidates:
            if not alg.contains(m):
                continue
            coords = alg.coordinates(m, check=False)
            if not z.contains_vector(coords, STAR_TOL):
                continue
            trial = picked_rows + [coords]
            s = np.linalg.svd(np.array(trial), compute_uv=False)
            if s[-1] <= STAR_TOL * s[0]:
                continue
            exp_m = expm(m)
            if np.linalg.norm(exp_m - np.eye(n)) > 1e-8 * n:
                raise RealizationError("lattice candidate does not have exp(X) = 1")
            if classify_element(alg, m) != "elliptic":
                raise RealizationError("lattice candidate is not elliptic")
            picked_rows.append(coords)
            out.append(SpanningElement(m, np.array(coords), "elliptic"))
            rank += 1
            if rank == k_part.dim:
                break
        if rank < k_part.dim:
            raise UnsupportedCentralizerError(
                "compact part of the centralizer is not spanned by block-diagonal "
                "torsion generators")
    for row in p_part.onb:
        m = alg.from_coordinates(row)
        kind = classify_element(alg, m)
        if kind != "hyperbolic":
            raise RealizationError(f"split-part basis element classified as {kind}")
        out.append(SpanningElement(m, np.array(row), "hyperbolic"))
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
