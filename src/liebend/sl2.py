"""sl(2,R)-homomorphisms into the supported algebras: partition triples in
sl(n,R), the two explicit su(p,q) families, evenness, the involution matrix
sigma = exp(pi*sqrt(-1)*H), the even subalgebra, isotypic decompositions,
genus bounds, even bases of b, and torsion-free spanning sets of centralizers.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np
from scipy.linalg import expm

from . import _ratlin
from .algebra import (SL, SU, SubspaceOfG, adjoint_operator, bracket,
                      centralizer, classify_element, kernel_of,
                      subspace_from_coordinates, theta_operator)
from .config import DEFAULT
from .errors import (MembershipError, ParameterError, RealizationError,
                     UnsupportedCentralizerError)

A0 = np.array([[1.0, 0.0], [0.0, -1.0]])
SL2_E = np.array([[0.0, 1.0], [0.0, 0.0]])
SL2_F = np.array([[0.0, 0.0], [1.0, 0.0]])


@dataclass(frozen=True, eq=False)
class Sl2Triple:
    algebra: object
    h: np.ndarray
    e: np.ndarray
    f: np.ndarray
    provenance: str  # partition | rho1 | rho2 | custom
    label: str = ""
    torus_vector: tuple | None = None  # exact free coords when h is a-diagonal

    @cached_property
    def is_zero(self):
        return max(np.linalg.norm(self.h), np.linalg.norm(self.e),
                   np.linalg.norm(self.f)) == 0.0

    def images(self):
        return [self.h, self.e, self.f]

    def drho(self, xi):
        """Image of a 2x2 traceless matrix under the algebra homomorphism."""
        xi = np.asarray(xi)
        return (xi[0, 0] * self.h + xi[0, 1] * self.e + xi[1, 0] * self.f)


def _partition_weight_string(parts):
    weights = []
    for p in parts:
        weights.extend(range(p - 1, -p, -2))
    return weights


def sl2_from_partition(alg, partition):
    """Jordan-type block triple for a partition of n, conjugated so that the
    H-image is the dominant diagonal matrix of concatenated weight strings."""
    if alg.family != SL:
        raise ParameterError("partition triples live in sl(n,R)")
    (n,) = alg.params
    parts = tuple(int(p) for p in partition)
    if any(p < 1 for p in parts) or sum(parts) != n:
        raise ParameterError(f"{parts} is not a partition of {n}")
    h_blk = np.zeros((n, n))
    e_blk = np.zeros((n, n))
    offset = 0
    for p in parts:
        for m, w in enumerate(range(p - 1, -p, -2)):
            h_blk[offset + m, offset + m] = w
        for k in range(1, p):
            e_blk[offset + k - 1, offset + k] = math.sqrt(k * (p - k))
        offset += p
    # stable sort of the diagonal into the closed chamber
    order = sorted(range(n), key=lambda i: (-h_blk[i, i], i))
    perm = np.zeros((n, n))
    for new, old in enumerate(order):
        perm[new, old] = 1.0
    h = perm @ h_blk @ perm.T
    e = perm @ e_blk @ perm.T
    f = e.T
    label = "[" + ",".join(str(p) for p in sorted(parts, reverse=True)) + "]"
    vec = tuple(Fraction(int(round(h[i, i]))) for i in range(n))
    return Sl2Triple(alg, h, e, f, "partition", label, vec)


def rho1_su(alg):
    """diag(1..1,0..0,-1..-1) with E = sqrt(-1) times the corner identity block."""
    if alg.family != SU:
        raise ParameterError("rho1 lives in su(p,q)")
    p, q = alg.params
    n = p + q
    h = np.zeros((n, n), dtype=complex)
    e = np.zeros((n, n), dtype=complex)
    for k in range(q):
        h[k, k] = 1.0
        h[n - 1 - k, n - 1 - k] = -1.0
        e[k, p + k] = 1j
    f = e.conj().T
    return Sl2Triple(alg, h, e, f, "rho1", "rho1", (Fraction(1),) * q)


def rho2_su(alg):
    """diag(2q,...,2,0..0,-2,...,-2q) with superdiagonal constants
    c_k = sqrt(-1) sqrt(k(2q+1-k)); undefined for p = q."""
    if alg.family != SU:
        raise ParameterError("rho2 lives in su(p,q)")
    p, q = alg.params
    if p < q + 1:
        raise ParameterError(f"rho2 is undefined for p = q (got p={p}, q={q})")
    n = p + q
    c = [1j * math.sqrt(k * (2 * q + 1 - k)) for k in range(1, q + 1)]
    h = np.zeros((n, n), dtype=complex)
    for j, w in enumerate(range(2 * q, 0, -2)):
        h[j, j] = w
        h[n - 1 - j, n - 1 - j] = -w
    e = np.zeros((n, n), dtype=complex)
    for k in range(q):  # leading (q+1)-block, entries c_1..c_q
        e[k, k + 1] = c[k]
    for j in range(q - 1):  # trailing q-block, entries c_{q-1}..c_1
        e[p + j, p + j + 1] = c[q - 2 - j]
    e[q, p] = c[q - 1]  # bridge term c_q E_{q+1,p+1}
    f = e.conj().T
    vec = tuple(Fraction(w) for w in range(2 * q, 0, -2))
    return Sl2Triple(alg, h, e, f, "rho2", "rho2", vec)


def verify_sl2_triple(triple, rtol=1e-9):
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
    ok = all(r <= rtol * scale for r in residuals.values())
    if ok and not triple.is_zero:
        try:
            ad_weight_multiplicities(triple)
        except RealizationError:
            ok = False
    return ok, residuals


def ad_weight_multiplicities(triple, guard=None):
    """Multiplicities m_j of the integer eigenvalues of ad H on the algebra."""
    guard = DEFAULT.integer_guard if guard is None else guard
    ad = adjoint_operator(triple.algebra, triple.h)
    eigs = np.linalg.eigvals(ad)
    scale = max(np.max(np.abs(eigs)), 1.0)
    if np.max(np.abs(eigs.imag)) > 1e-7 * scale:
        raise RealizationError("ad H has non-real eigenvalues")
    mults = {}
    for lam in eigs.real:
        j = round(float(lam))
        if abs(lam - j) > max(guard * scale, guard):
            raise RealizationError(f"ad H eigenvalue {lam} is not an integer")
        mults[j] = mults.get(j, 0) + 1
    if sum(mults.values()) != triple.algebra.dim:
        raise RealizationError("weight multiplicities do not sum to dim g")
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


def sigma(triple, tol=1e-9):
    """exp(pi*sqrt(-1)*H) evaluated in an eigenbasis of H.

    Integer eigenvalues make every exponential factor +-1, so the result is a
    real matrix lying in the group.
    """
    h = np.asarray(triple.h, dtype=complex)
    n = h.shape[0]
    offdiag = h - np.diag(np.diag(h))
    if np.linalg.norm(offdiag) <= tol * max(np.linalg.norm(h), 1.0):
        eigs = np.diag(h)
        vecs = np.eye(n, dtype=complex)
    else:
        eigs, vecs = np.linalg.eig(h)
    ints = np.array([round(float(l.real)) for l in eigs])
    if np.max(np.abs(eigs - ints)) > 1e-8 * max(np.max(np.abs(eigs)), 1.0):
        raise RealizationError("H has non-integer eigenvalues; sigma is undefined")
    signs = np.where(ints % 2 == 0, 1.0, -1.0)
    s = vecs @ np.diag(signs.astype(complex)) @ np.linalg.inv(vecs)
    if np.linalg.norm(s.imag) > 1e-8 * n:
        raise RealizationError("sigma is not real in this realization")
    s = s.real
    from .projections import group_residual
    if group_residual(triple.algebra, s.astype(complex) if triple.algebra.is_complex else s) > 1e-8 * n:
        raise RealizationError("sigma violates the group's defining condition")
    return s.astype(complex) if triple.algebra.is_complex else s


def ad_sigma_operator(triple):
    alg = triple.algebra
    s = sigma(triple)
    s_inv = np.linalg.inv(s)
    cols = [alg.coordinates(s @ bm @ s_inv, check=False) for bm in alg.basis]
    return np.array(cols).T


def g_even(alg, triple, rank_rtol=None):
    """Sum of the even ad H eigenspaces, cross-checked against the +1
    eigenspace of Ad(sigma)."""
    rtol = DEFAULT.rank_rtol if rank_rtol is None else rank_rtol
    ad = adjoint_operator(alg, triple.h)
    mults = ad_weight_multiplicities(triple)
    rows = []
    dim = alg.dim
    for j in sorted(m for m in mults if m % 2 == 0):
        ker = kernel_of([ad - float(j) * np.eye(dim)], alg, rank_rtol=rtol)
        if ker.dim != mults[j]:
            raise RealizationError(
                f"even eigenspace for weight {j} has dim {ker.dim}, expected {mults[j]}")
        rows.extend(ker.onb)
    space = subspace_from_coordinates(alg, rows, rtol)
    fixed = kernel_of([ad_sigma_operator(triple) - np.eye(dim)], alg, rank_rtol=rtol)
    if fixed.dim != space.dim or not fixed.contains_subspace(space, tol=1e-7):
        raise RealizationError("even part disagrees with the Ad(sigma) fixed space")
    return space


@dataclass(frozen=True, eq=False)
class IsotypicData:
    """Decomposition data for the adjoint action of the triple.

    mults holds [g : V_k] for the full algebra; Lambda indexes the
    odd-dimensional pieces V_{i,j} of the target subalgebra (the even part by
    default), each with an ordered weight basis produced by repeated ad F.
    """
    algebra: object
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

    def multiplicity(self, k):
        return self.mults.get(k, 0)

    def piece_dimension(self, i):
        return 2 * i + 1

    def decompose(self, coords, tol=1e-7):
        """Coefficients of a target-subspace vector in the stacked weight basis."""
        coords = np.asarray(coords, dtype=float)
        coeffs = self.solver @ coords
        resid = np.linalg.norm(self.stacked @ coeffs - coords)
        if resid > tol * max(np.linalg.norm(coords), 1.0):
            raise MembershipError("vector is not in the decomposed subalgebra")
        return coeffs

    def model_coordinates(self, i, j, coords):
        """q_{i,j}(p_{i,j}(x)): model weight-basis coordinates of the (i,j) block."""
        return self.decompose(coords)[self.block_slices[(i, j)]]


def _canonical_hw_rows(rows, tol=1e-9):
    """Deterministic basis of a floating row space: float RREF in natural
    column order, unit rows, first significant entry positive."""
    work = [np.array(r, dtype=float) for r in rows]
    out = []
    ncols = len(work[0]) if work else 0
    col = 0
    while work and col < ncols:
        scores = [abs(r[col]) for r in work]
        best = int(np.argmax(scores))
        if scores[best] <= tol * max(np.linalg.norm(work[best]), 1.0):
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
        lead = r[np.argmax(np.abs(r) > tol)]
        canon.append(r if lead > 0 else -r)
    return canon


def module_multiplicities(alg, triple, target=None, rank_rtol=None):
    """Full isotypic data: weight multiplicities, [g:V_k], and ordered weight
    bases of the odd pieces of the target subalgebra (default: the even part).

    Highest-weight vectors are extracted per weight in descending order with a
    deterministic lexicographic normalization, then lowered by ad F.
    """
    rtol = DEFAULT.rank_rtol if rank_rtol is None else rank_rtol
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

    if target is None:
        target = g_even(alg, triple, rank_rtol=rtol)
    q_rows = target.onb
    k_t = q_rows.shape[0]
    ad_h = q_rows @ adjoint_operator(alg, triple.h) @ q_rows.T
    ad_e = q_rows @ adjoint_operator(alg, triple.e) @ q_rows.T
    ad_f = q_rows @ adjoint_operator(alg, triple.f) @ q_rows.T

    # target weight multiplicities, for the odd multiplicities of g'
    t_eigs = np.linalg.eigvals(ad_h)
    t_mults = {}
    for lam in t_eigs.real:
        j = round(float(lam))
        t_mults[j] = t_mults.get(j, 0) + 1
    target_odd = {}
    t_top = max(t_mults) if t_mults else 0
    for i in range(0, t_top // 2 + 1):
        m = t_mults.get(2 * i, 0) - t_mults.get(2 * i + 2, 0)
        if m > 0:
            target_odd[i] = m

    lam_list = []
    pieces = {}
    for i in sorted(target_odd, reverse=True):
        r = target_odd[i]
        hw = kernel_of([ad_e, ad_h - 2.0 * i * np.eye(k_t)],
                       _LocalSpace(k_t), rank_rtol=rtol)
        if hw.dim != r:
            raise RealizationError(
                f"highest-weight space at weight {2*i} has numerical rank {hw.dim}, "
                f"expected {r}")
        for j, row in enumerate(_canonical_hw_rows(list(hw.onb)), start=1):
            cols = [row]
            for _ in range(2 * i):
                cols.append(ad_f @ cols[-1])
            local = np.array(cols).T  # (k_t, 2i+1)
            pieces[(i, j)] = q_rows.T @ local
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
    return IsotypicData(alg, triple, target, weight_mults, mults, target_odd,
                        tuple(lam_list), pieces, stacked, block_slices, solver)


class _LocalSpace:
    """Adapter so kernel_of can operate on plain coordinate spaces."""

    def __init__(self, dim):
        self.dim = dim


def genus_bound(alg, triple, target=None):
    """Sum of the odd multiplicities of the target (full algebra by default;
    the even part gives the same value since odd pieces all lie inside it).

    Cross-checked against the centralizer dimension of the H-image whenever
    the target contains every odd piece.
    """
    if target is None:
        weight_mults = ad_weight_multiplicities(triple)
        odd_sum = weight_mults.get(0, 0)  # odd multiplicities telescope to m_0
        full_target = True
    else:
        data = module_multiplicities(alg, triple, target=target)
        odd_sum = sum(data.target_odd_mults.values())
        full_target = target.dim in (alg.dim, g_even(alg, triple).dim)
    cz = centralizer(alg, triple.h).dim
    if full_target and odd_sum != cz:
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


def even_sl2_basis_of_b(alg, torus=None):
    """Even triples whose dominant H-vectors form a basis of b, found by a
    greedy exact-rank scan over equal-parity partitions in dominance order."""
    if alg.family != SL:
        raise ParameterError("the even basis search is implemented for sl(n,R)")
    (n,) = alg.params
    if torus is None:
        from .weyl import split_torus
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


def _su_diagonal_lattice(alg, triple, support_tol=1e-12):
    """Primitive integer diagonals t with 2*pi*i*diag(t) in g commuting with
    the triple: equality of entries across the support of E, the mirrored
    su-pattern, and zero trace, solved exactly."""
    p, q = alg.params
    n = p + q
    rows = []
    e = np.asarray(triple.e)
    for a in range(n):
        for b in range(n):
            if a != b and abs(e[a, b]) > support_tol:
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


def property_star_basis(alg, centralizer_subspace, triple=None, tol=1e-7):
    """Basis of the centralizer in which every element is hyperbolic or
    elliptic with exp(X) = 1 (no nilpotents arise: the centralizer of a triple
    image is reductive).

    Supports the block-diagonal centralizers of the constructed families:
    elliptic generators come from exact diagonal-imaginary lattices (su) or
    2*pi two-plane rotations (sl).  Anything else raises
    UnsupportedCentralizerError.
    """
    z = centralizer_subspace
    if z.dim == 0:
        return []
    theta = theta_operator(alg)
    k_rows, p_rows = [], []
    for row in z.onb:
        timg = theta @ row
        if not z.contains_vector(timg, tol):
            raise UnsupportedCentralizerError("centralizer is not theta-stable")
        k_rows.append(0.5 * (row + timg))
        p_rows.append(0.5 * (row - timg))
    k_part = subspace_from_coordinates(alg, k_rows)
    p_part = subspace_from_coordinates(alg, p_rows)
    if k_part.dim + p_part.dim != z.dim:
        raise UnsupportedCentralizerError("theta does not split the centralizer")

    out = []
    if k_part.dim > 0:
        candidates = []
        n = alg.size
        if alg.family == SU:
            if triple is None:
                raise UnsupportedCentralizerError(
                    "su elliptic generators need the triple's support pattern")
            for t_vec in _su_diagonal_lattice(alg, triple):
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
            if not alg.contains(m, rtol=1e-9):
                continue
            coords = alg.coordinates(m, check=False)
            if not z.contains_vector(coords, tol):
                continue
            trial = picked_rows + [coords]
            s = np.linalg.svd(np.array(trial), compute_uv=False)
            if s[-1] <= tol * s[0]:
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
    n = m.shape[0]
    out = np.eye(n, dtype=m.dtype)
    term = np.eye(n, dtype=m.dtype)
    for k in range(1, n + 1):
        term = term @ m / k
        out = out + term
        if not np.any(term):
            break
    return out


def rho_of(triple, g2):
    """Group image of a 2x2 unimodular matrix under the homomorphism attached
    to the triple, via the Iwasawa factorization g = K A N."""
    g2 = np.asarray(g2, dtype=float)
    if g2.shape != (2, 2) or abs(np.linalg.det(g2) - 1.0) > 1e-9:
        raise ParameterError("rho_of needs a 2x2 matrix of determinant 1")
    q_mat, r_mat = np.linalg.qr(g2)
    d = np.sign(np.diag(r_mat))
    q_mat = q_mat * d
    r_mat = (r_mat.T * d).T
    s = math.atan2(q_mat[0, 1], q_mat[0, 0])
    u = math.log(r_mat[0, 0])
    x = r_mat[0, 1] / r_mat[0, 0]
    rot = expm(triple.drho(s * (SL2_E - SL2_F)))
    diag_part = _expm_diagonalish(triple.drho(u * A0))
    nil = _expm_nilpotent(triple.drho(x * SL2_E))
    return rot @ diag_part @ nil


def _expm_diagonalish(m):
    m = np.asarray(m)
    off = m - np.diag(np.diag(m))
    if np.linalg.norm(off) <= 1e-12 * max(np.linalg.norm(m), 1.0):
        return np.diag(np.exp(np.diag(m)))
    return expm(m)
