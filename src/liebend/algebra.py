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

import functools
import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import config as _config
from .errors import MembershipError, ParameterError, ShapeError

SL = "sl"
SU = "su"

_FAMILY_ALIASES = {
    "sl": SL, "sl_n_r": SL, "slnr": SL, "sl(n,r)": SL,
    "su": SU, "su_p_q": SU, "supq": SU, "su(p,q)": SU,
}
PARAM_NAMES = {SL: ("n",), SU: ("p", "q")}


def canonical_family(family):
    key = str(family).strip().lower()
    if key not in _FAMILY_ALIASES:
        raise ParameterError(f"unknown family {family!r}")
    return _FAMILY_ALIASES[key]


def readonly(value):
    """value, with every numpy array in it (through tuples and dict values)
    made read-only.  Objects shared between the commands of a process hold
    only such arrays, so a caller that writes into one raises ValueError
    instead of changing what later commands read."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, tuple):
        for v in value:
            readonly(v)
    elif isinstance(value, dict):
        for v in value.values():
            readonly(v)
    return value


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
    """Basis of {X : X*B + BX = 0, tr X = 0} as B @ A over a u(n) basis,
    shape (dim, n, n), with one stacked product.

    tr(BA) vanishes for all u(n) basis elements except the anti-diagonal-pair
    symmetric ones and the middle-diagonal ones; those are combined pairwise
    into traceless differences, which keeps the enumeration explicit.
    """
    n = p + q
    upper = [(k, l) for k in range(n) for l in range(k + 1, n)]
    symmetric = [(k, l) for k, l in upper if not (k < q and l == n - 1 - k)]
    imaginary_diagonal = list(range(q)) + list(range(p, n))
    # trace carriers: q pair-symmetric elements (weight 2) then p-q middle
    # diagonals (weight 1); consecutive weighted differences are traceless
    carriers = [((k, n - 1 - k), 2.0) for k in range(q)] + [((m, m), 1.0) for m in range(q, p)]
    a = np.zeros((len(upper) + len(symmetric) + len(imaginary_diagonal) + len(carriers) - 1,
                  n, n), dtype=complex)
    rows = iter(a)
    for k, l in upper:
        x = next(rows)
        x[k, l], x[l, k] = 1.0, -1.0
    for k, l in symmetric:
        x = next(rows)
        x[k, l] = x[l, k] = 1j
    for k in imaginary_diagonal:
        next(rows)[k, k] = 1j
    for ((i, j), w1), ((k, l), w2) in zip(carriers, carriers[1:]):
        x = next(rows)
        x[i, j] = x[j, i] = complex(0.0, w2)
        x[k, l] = x[l, k] = complex(0.0, -w1)
    return b @ a


@dataclass(frozen=True, eq=False)
class LieAlgebraSpace:
    family: str
    params: tuple
    size: int
    form: np.ndarray | None
    basis: np.ndarray  # (dim, size, size)
    config: _config.Config  # the tolerances every computation on this algebra reads

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
        return readonly(np.vstack([cols.real, cols.imag]))

    @cached_property
    def _solver(self):
        return readonly(np.linalg.pinv(self._flat))

    @cached_property
    def _support(self):
        """(element, row, col) of every nonzero basis entry, element ascending,
        and the index into them of each element's first entry."""
        elem, rows, cols = np.nonzero(self.basis)
        return readonly((elem, rows, cols, np.flatnonzero(np.r_[True, elem[1:] != elem[:-1]])))

    def coordinates(self, x, check=True, rtol=None):
        """Real coordinates in the algebra basis of an ambient matrix (n, n),
        shape (dim,), or of a stack of them (k, n, n), shape (k, dim).

        With check=True every matrix of the stack must be a member; the
        residual is taken row by row against the matrix's own norm, with
        rtol defaulting to the config's membership_rtol.
        """
        x = np.asarray(x)
        if x.ndim not in (2, 3) or x.shape[-2:] != (self.size, self.size):
            raise ShapeError(f"expected {self.size}x{self.size} matrices, got {x.shape}")
        flat = x.reshape(-1, self.size * self.size)
        vecs = np.hstack([flat.real, flat.imag])
        coords = vecs @ self._solver.T
        if check:
            resid = np.linalg.norm(coords @ self._flat.T - vecs, axis=1)
            scale = np.maximum(np.linalg.norm(flat, axis=1), 1.0)
            tol = self.config.membership_rtol if rtol is None else rtol
            bad = np.flatnonzero(resid > tol * scale)
            if bad.size:
                k = bad[0]
                raise MembershipError(
                    f"matrix is not in {self.family}{self.params}: "
                    f"residual {resid[k]:.3e} exceeds {tol:.1e} * {scale[k]:.3e}")
        return coords if x.ndim == 3 else coords[0]

    def contains(self, x, rtol=None):
        try:
            self.coordinates(x, check=True, rtol=rtol)
            return True
        except (MembershipError, ShapeError):
            return False

    def from_coordinates(self, coords):
        """Ambient matrix of coordinates (dim,), or stack of matrices of (k, dim)."""
        coords = np.asarray(coords, dtype=float)
        flat = coords @ self.basis.reshape(self.dim, -1)
        return flat.reshape(coords.shape[:-1] + (self.size, self.size))

    def defining_residual(self, x):
        """Residual of the defining conditions (trace and, for su, the form)."""
        x = np.asarray(x)
        r = abs(np.trace(x))
        if self.family == SU:
            r = max(r, np.linalg.norm(x.conj().T @ self.form + self.form @ x))
        else:
            r = max(r, np.linalg.norm(x.imag) if np.iscomplexobj(x) else 0.0)
        return r


def integer_param(name, value):
    """value as an int; bools and non-integral values raise ParameterError."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ParameterError(f"{name} must be an integer, got {value!r}")


def make_algebra(family, *params, config=_config.DEFAULT):
    """Construct sl(n,R) (params: n) or su(p,q) (params: p, q); the algebra
    holds config, the tolerances of every computation on it.

    The input is validated and canonicalized first; then one algebra, with
    read-only arrays, serves every call with the same (family, params,
    config) in the process.  Equal configs share it, configs that differ in
    any value (or only in the sign of a zero pitchfork_radius) do not."""
    family = canonical_family(family)
    names = PARAM_NAMES[family]
    if len(params) != len(names):
        raise ParameterError(f"{family} takes parameters {names}, got {params!r}")
    params = tuple(integer_param(k, v) for k, v in zip(names, params))
    if family == SL:
        (n,) = params
        if n < 2:
            raise ParameterError(f"sl(n,R) needs n >= 2, got {n}")
    else:
        p, q = params
        if q < 1 or p < q:
            raise ParameterError(f"su(p,q) needs p >= q >= 1, got ({p}, {q})")
    # configs with pitchfork_radius 0.0 and -0.0 compare equal but echo
    # differently; it is the one config value that may be zero
    return _shared_algebra(family, params, config, math.copysign(1.0, config.pitchfork_radius))


@functools.lru_cache(maxsize=8)
def _shared_algebra(family, params, config, _radius_sign):
    if family == SL:
        (n,) = params
        form, basis = None, np.array(_sl_basis(n))
    else:
        form = form_matrix(*params)
        basis = _su_basis(*params, form)
    return LieAlgebraSpace(family, params, basis.shape[1], readonly(form), readonly(basis),
                           config)


def diagonal_weights(alg, diags):
    """Exact ad-weights of the basis under diagonal matrices: row k holds, for
    each basis element, the single value d_i - d_j that diag(d) = diags[k]
    takes on the element's support {(i, j)}, so [diag(d), X] = (d_i - d_j) X.
    The entries of d may be integers or Fractions.  An element whose support
    carries two values is not an ad-eigenvector and raises ParameterError."""
    d = np.asarray(diags)
    if d.ndim != 2 or d.shape[1] != alg.size:
        raise ShapeError(f"expected rows of {alg.size} diagonal entries, got {d.shape}")
    elem, rows, cols, first = alg._support
    values = d[:, rows] - d[:, cols]
    weights = values[:, first]
    bad = np.argwhere(values != weights[:, elem])
    if bad.size:
        k, at = bad[0]
        raise ParameterError(
            f"basis element {elem[at]} spans the weights {weights[k, elem[at]]} and "
            f"{values[k, at]} under diag{tuple(d[k].tolist())}")
    return weights


def bracket(x, y):
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape or x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ShapeError(f"bracket needs equal square matrices, got {x.shape} and {y.shape}")
    return x @ y - y @ x


def cartan_involution(alg, x, check=True):
    """theta(X) = -X^T for sl(n,R), -X^* for su(p,q); X may be a stack."""
    if check:
        alg.coordinates(x, check=True)
    xt = np.swapaxes(np.asarray(x), -1, -2)
    return -xt.conj() if alg.family == SU else -xt


def adjoint_operator(alg, x):
    """Matrix of ad X in the algebra basis (real, dim x dim)."""
    x = alg.from_coordinates(alg.coordinates(x, check=True))  # project off-algebra noise
    return alg.coordinates(x @ alg.basis - alg.basis @ x, check=False).T


@dataclass(frozen=True, eq=False)
class SubspaceOfG:
    """Subspace of the algebra, stored as orthonormal coordinate rows."""
    algebra: LieAlgebraSpace
    onb: np.ndarray  # (k, dim), orthonormal rows

    @property
    def dim(self):
        return self.onb.shape[0]

    def project(self, coords):
        """Orthogonal projection of a coordinate vector, or of rows (k, dim)."""
        return (np.asarray(coords, dtype=float) @ self.onb.T) @ self.onb

    def contains_vector(self, coords, tol=1e-8):
        """Whether a coordinate vector, or every row of (k, dim), lies in the subspace."""
        coords = np.asarray(coords, dtype=float)
        resid = np.linalg.norm(coords - self.project(coords), axis=-1)
        scale = np.maximum(np.linalg.norm(coords, axis=-1), 1.0)
        return bool(np.all(resid <= tol * scale))

    def matrices(self):
        """Ambient matrices of the orthonormal rows, as a (dim, n, n) stack."""
        return self.algebra.from_coordinates(self.onb)


_RANK_ATOL = 1e-12  # absolute floor so numerically-zero inputs have rank zero


def subspace_from_coordinates(alg, vectors):
    """Rank-revealing orthonormalization of coordinate vectors into a SubspaceOfG."""
    vecs = np.atleast_2d(np.asarray(vectors, dtype=float))
    if vecs.size == 0 or not np.any(vecs):
        return SubspaceOfG(alg, np.zeros((0, alg.dim)))
    u, s, vt = np.linalg.svd(vecs, full_matrices=False)
    keep = s > max(alg.config.rank_rtol * s[0], _RANK_ATOL)
    return SubspaceOfG(alg, vt[keep])


def subspace_from_matrices(alg, mats):
    coords = alg.coordinates(mats, check=True) if len(mats) else []
    return subspace_from_coordinates(alg, coords)


def kernel_of(operators, dim, rank_rtol):
    """Joint numerical kernel of stacked operators on a coordinate space of
    dimension dim, as orthonormal rows (k, dim)."""
    stack = np.vstack([np.atleast_2d(op) for op in operators])
    u, s, vt = np.linalg.svd(stack)
    if s.size == 0 or s[0] <= _RANK_ATOL:
        return np.eye(dim)
    return vt[np.sum(s > max(rank_rtol * s[0], _RANK_ATOL)):]


def centralizer(alg, x):
    """Numerical kernel of ad X as a SubspaceOfG."""
    return SubspaceOfG(alg, kernel_of([adjoint_operator(alg, x)], alg.dim, alg.config.rank_rtol))


def generated_subalgebra(alg, seeds):
    """Smallest bracket-closed subspace containing the seeds.

    Iterated bracketing with rank-revealing orthonormalization until the
    dimension stabilizes.
    """
    space = subspace_from_matrices(alg, seeds)
    while space.dim > 0:
        mats = space.matrices()
        i, j = np.triu_indices(space.dim, k=1)
        pairs = mats[i] @ mats[j] - mats[j] @ mats[i]
        new_rows = np.vstack([space.onb, alg.coordinates(pairs, check=False)])
        bigger = subspace_from_coordinates(alg, new_rows)
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
    return alg.coordinates(cartan_involution(alg, alg.basis, check=False), check=False).T

