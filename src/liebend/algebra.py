"""Matrix realizations of sl(n,R) and su(p,q) with bracket, Cartan involution,
adjoint operators, centralizers and bracket-closed subspace generation.

su(p,q) is realized with respect to the hermitian form

    B = [[ 0,   0, J_q ],
         [ 0, I_{p-q}, 0 ],
         [ J_q, 0,   0 ]],    J_q the q-by-q anti-diagonal,

so that the diagonal matrices diag(a_1..a_q, 0.., -a_q..-a_1) form a maximal
split abelian subspace.  Algebra elements are stored as ambient matrices;
most computations run in real coordinates with respect to a fixed basis.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import DEFAULT
from .errors import MembershipError, ParameterError, ShapeError

SL = "sl"
SU = "su"

_FAMILY_ALIASES = {
    "sl": SL, "sl_n_r": SL, "slnr": SL, "sl(n,r)": SL,
    "su": SU, "su_p_q": SU, "supq": SU, "su(p,q)": SU,
}


def _canonical_family(family):
    key = str(family).strip().lower()
    if key not in _FAMILY_ALIASES:
        raise ParameterError(f"unknown family {family!r}")
    return _FAMILY_ALIASES[key]


def form_matrix(p, q):
    """The hermitian form matrix with anti-diagonal corner blocks."""
    n = p + q
    b = np.zeros((n, n))
    for k in range(q):
        b[k, n - 1 - k] = 1.0
        b[n - 1 - k, k] = 1.0
    for m in range(q, p):
        b[m, m] = 1.0
    return b


def _sl_basis(n):
    mats = []
    for i in range(n):
        for j in range(n):
            if i != j:
                e = np.zeros((n, n))
                e[i, j] = 1.0
                mats.append(e)
    for k in range(n - 1):
        h = np.zeros((n, n))
        h[k, k] = 1.0
        h[k + 1, k + 1] = -1.0
        mats.append(h)
    return mats


def _su_basis(p, q, b):
    """Basis of {X : X*B + BX = 0, tr X = 0} as B @ A over a u(n) basis.

    tr(BA) vanishes for all u(n) basis elements except the anti-diagonal-pair
    symmetric ones and the middle-diagonal ones; those are combined pairwise
    into traceless differences, which keeps the enumeration explicit.
    """
    n = p + q

    def eu(i, j):
        e = np.zeros((n, n), dtype=complex)
        e[i, j] = 1.0
        return e

    pair_of = {k: n - 1 - k for k in range(q)}
    mats = []
    for k in range(n):
        for l in range(k + 1, n):
            mats.append(b @ (eu(k, l) - eu(l, k)))
    for k in range(n):
        for l in range(k + 1, n):
            if pair_of.get(k) == l:
                continue
            mats.append(b @ (1j * (eu(k, l) + eu(l, k))))
    for k in list(range(q)) + list(range(p, n)):
        mats.append(b @ (1j * eu(k, k)))
    # trace carriers: q pair-symmetric elements (weight 2) then p-q middle
    # diagonals (weight 1); consecutive weighted differences are traceless
    carriers = [(1j * (eu(k, n - 1 - k) + eu(n - 1 - k, k)), 2.0) for k in range(q)]
    carriers += [(1j * eu(m, m), 1.0) for m in range(q, p)]
    for (a1, w1), (a2, w2) in zip(carriers, carriers[1:]):
        mats.append(b @ (w2 * a1 - w1 * a2))
    return mats


@dataclass(frozen=True, eq=False)
class LieAlgebraSpace:
    family: str
    params: tuple
    size: int
    form: np.ndarray | None
    basis: np.ndarray  # (dim, size, size)

    @property
    def dim(self):
        return self.basis.shape[0]

    @property
    def is_complex(self):
        return np.iscomplexobj(self.basis)

    @cached_property
    def _flat(self):
        """Real (2*size^2, dim) matrix whose columns are the flattened basis."""
        cols = self.basis.reshape(self.dim, -1).T
        return np.vstack([cols.real, cols.imag])

    @cached_property
    def _solver(self):
        return np.linalg.pinv(self._flat)

    @cached_property
    def basis_scale(self):
        return max(np.linalg.norm(m) for m in self.basis)

    def coordinates(self, x, check=True, rtol=None):
        """Real coordinates of an ambient matrix in the algebra basis."""
        x = np.asarray(x)
        if x.shape != (self.size, self.size):
            raise ShapeError(f"expected {self.size}x{self.size} matrix, got {x.shape}")
        vec = np.concatenate([x.reshape(-1).real, x.reshape(-1).imag])
        coords = self._solver @ vec
        if check:
            resid = np.linalg.norm(self._flat @ coords - vec)
            scale = max(np.linalg.norm(x), 1.0)
            tol = (rtol if rtol is not None else DEFAULT.membership_rtol)
            if resid > tol * scale:
                raise MembershipError(
                    f"matrix is not in {self.family}{self.params}: "
                    f"residual {resid:.3e} exceeds {tol:.1e} * {scale:.3e}")
        return coords

    def contains(self, x, rtol=None):
        try:
            self.coordinates(x, check=True, rtol=rtol)
            return True
        except (MembershipError, ShapeError):
            return False

    def from_coordinates(self, coords):
        coords = np.asarray(coords, dtype=float)
        return np.tensordot(coords, self.basis, axes=(0, 0))

    def defining_residual(self, x):
        """Residual of the defining conditions (trace and, for su, the form)."""
        x = np.asarray(x)
        r = abs(np.trace(x))
        if self.family == SU:
            r = max(r, np.linalg.norm(x.conj().T @ self.form + self.form @ x))
        else:
            r = max(r, np.linalg.norm(x.imag) if np.iscomplexobj(x) else 0.0)
        return r


def make_algebra(family, *params):
    """Construct sl(n,R) (params: n) or su(p,q) (params: p, q)."""
    family = _canonical_family(family)
    if family == SL:
        (n,) = params
        n = int(n)
        if n < 2:
            raise ParameterError(f"sl(n,R) needs n >= 2, got {n}")
        basis = np.array(_sl_basis(n))
        return LieAlgebraSpace(SL, (n,), n, None, basis)
    p, q = (int(v) for v in params)
    if q < 1 or p < q:
        raise ParameterError(f"su(p,q) needs p >= q >= 1, got ({p}, {q})")
    b = form_matrix(p, q)
    basis = np.array(_su_basis(p, q, b))
    return LieAlgebraSpace(SU, (p, q), p + q, b, basis)


def bracket(x, y):
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape or x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ShapeError(f"bracket needs equal square matrices, got {x.shape} and {y.shape}")
    return x @ y - y @ x


def cartan_involution(alg, x, check=True):
    """theta(X) = -X^T for sl(n,R), -X^* for su(p,q)."""
    if check:
        alg.coordinates(x, check=True)
    x = np.asarray(x)
    return -x.conj().T if alg.family == SU else -np.asarray(x).T


def adjoint_operator(alg, x):
    """Matrix of ad X in the algebra basis (real, dim x dim)."""
    coords_x = alg.coordinates(x, check=True)
    x = alg.from_coordinates(coords_x)  # project to kill off-algebra noise
    cols = [alg.coordinates(bracket(x, bm), check=False) for bm in alg.basis]
    return np.array(cols).T


@dataclass(frozen=True, eq=False)
class SubspaceOfG:
    """Subspace of the algebra, stored as orthonormal coordinate rows."""
    algebra: LieAlgebraSpace
    onb: np.ndarray  # (k, dim), orthonormal rows

    @property
    def dim(self):
        return self.onb.shape[0]

    def project(self, coords):
        return self.onb.T @ (self.onb @ np.asarray(coords, dtype=float))

    def contains_vector(self, coords, tol=1e-8):
        coords = np.asarray(coords, dtype=float)
        scale = max(np.linalg.norm(coords), 1.0)
        return np.linalg.norm(coords - self.project(coords)) <= tol * scale

    def contains_subspace(self, other, tol=1e-8):
        return all(self.contains_vector(row, tol) for row in other.onb)

    def matrices(self):
        return [self.algebra.from_coordinates(row) for row in self.onb]


_RANK_ATOL = 1e-12  # absolute floor so numerically-zero inputs have rank zero


def subspace_from_coordinates(alg, vectors, rank_rtol=None):
    """Rank-revealing orthonormalization of coordinate vectors into a SubspaceOfG."""
    rtol = rank_rtol if rank_rtol is not None else DEFAULT.rank_rtol
    vecs = np.atleast_2d(np.asarray(vectors, dtype=float))
    if vecs.size == 0 or not np.any(vecs):
        return SubspaceOfG(alg, np.zeros((0, alg.dim)))
    u, s, vt = np.linalg.svd(vecs, full_matrices=False)
    keep = s > max(rtol * s[0], _RANK_ATOL)
    return SubspaceOfG(alg, vt[keep])


def subspace_from_matrices(alg, mats, rank_rtol=None):
    coords = [alg.coordinates(m, check=True) for m in mats]
    return subspace_from_coordinates(alg, coords, rank_rtol)


def kernel_of(operators, alg, rank_rtol=None):
    """Joint numerical kernel of stacked operators on algebra coordinates."""
    rtol = rank_rtol if rank_rtol is not None else DEFAULT.rank_rtol
    stack = np.vstack([np.atleast_2d(op) for op in operators])
    u, s, vt = np.linalg.svd(stack)
    if s.size == 0 or s[0] <= _RANK_ATOL:
        return SubspaceOfG(alg, np.eye(alg.dim))
    ker = vt[np.sum(s > max(rtol * s[0], _RANK_ATOL)):]
    return SubspaceOfG(alg, ker)


def centralizer(alg, x):
    """Numerical kernel of ad X as a SubspaceOfG."""
    return kernel_of([adjoint_operator(alg, x)], alg)


def generated_subalgebra(alg, seeds, rank_rtol=None):
    """Smallest bracket-closed subspace containing the seeds.

    Iterated bracketing with rank-revealing orthonormalization until the
    dimension stabilizes.
    """
    rtol = rank_rtol if rank_rtol is not None else DEFAULT.rank_rtol
    coords = [alg.coordinates(m, check=True) for m in seeds]
    space = subspace_from_coordinates(alg, coords, rtol)
    while space.dim > 0:
        mats = space.matrices()
        new_rows = list(space.onb)
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                new_rows.append(alg.coordinates(bracket(mats[i], mats[j]), check=False))
        bigger = subspace_from_coordinates(alg, new_rows, rtol)
        if bigger.dim == space.dim:
            break
        space = bigger
    return space


def _is_diagonalizable(x, tol=1e-8):
    x = np.asarray(x, dtype=complex)
    w, v = np.linalg.eig(x)
    cond = np.linalg.cond(v)
    if cond < 1e7:
        return True
    # borderline: accept if the eigenbasis still reconstructs the matrix
    recon = v @ np.diag(w) @ np.linalg.inv(v)
    return np.linalg.norm(recon - x) <= tol * max(np.linalg.norm(x), 1.0)


def classify_element(alg, x, kind="auto", tol=1e-8):
    """Classify as elliptic, hyperbolic, nilpotent (unipotent) or mixed.

    kind="auto" treats members of the algebra as algebra elements and
    invertible non-members as group elements.
    """
    x = np.asarray(x)
    if kind == "auto":
        kind = "algebra" if alg.contains(x, rtol=1e-7) else "group"
    w = np.linalg.eigvals(np.asarray(x, dtype=complex))
    scale = max(np.max(np.abs(w)), 1.0)
    if kind == "algebra":
        if np.all(np.abs(w) <= tol * scale):
            return "nilpotent"
        if np.all(np.abs(w.real) <= tol * scale) and _is_diagonalizable(x, tol):
            return "elliptic"
        if np.all(np.abs(w.imag) <= tol * scale) and _is_diagonalizable(x, tol):
            return "hyperbolic"
        return "mixed"
    if np.all(np.abs(w - 1.0) <= tol):
        return "nilpotent"  # unipotent
    if np.all(np.abs(np.abs(w) - 1.0) <= tol) and _is_diagonalizable(x, tol):
        return "elliptic"
    if np.all(np.abs(w.imag) <= tol * scale) and np.all(w.real > 0) and _is_diagonalizable(x, tol):
        return "hyperbolic"
    return "mixed"


def theta_operator(alg):
    """Matrix of the Cartan involution on algebra coordinates."""
    cols = [alg.coordinates(cartan_involution(alg, bm, check=False), check=False)
            for bm in alg.basis]
    return np.array(cols).T


def compact_part_basis(alg):
    """Orthonormal coordinate basis of the +1 eigenspace of theta (i.e. of k)."""
    th = theta_operator(alg)
    return kernel_of([th - np.eye(alg.dim)], alg)
