"""Matrix realizations of sl(n,R) and su(p,q) with bracket, Cartan involution,
adjoint operators, centralizers and bracket-closed subspace generation.

su(p,q) is realized with respect to the hermitian form

    B = [[ 0,   0, J_q ],
         [ 0, I_{p-q}, 0 ],
         [ J_q, 0,   0 ]],    J_q the q-by-q anti-diagonal,

so that the diagonal matrices diag(a_1..a_q, 0.., -a_q..-a_1) form a maximal
split abelian subspace.  The algebra holds both as data: `form` (None for
sl(n,R)) and `a_diagonal`, which puts a's free coordinates on the diagonal
(I_n for sl(n,R), [I_q; 0; -J_q] for su(p,q)).  Algebra elements are stored
as ambient matrices; most computations run in real coordinates with respect
to a fixed basis.  The algebra holds that basis as its elements' entries,
which the exact lane reads through their support; the dense (dim, n, n)
stack is built on the float lane's first read of `basis`.
"""

import functools
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
# the largest n (p + q) admitted: `check --family sl --n 372` fits in 512 MiB; 373 does not
MATRIX_SIZE_CAP = 372


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


def _entries(elements, dtype):
    """(element, row, col, value) arrays, element ascending, of a list of
    elements given as lists of (row, col, value)."""
    elem = [k for k, element in enumerate(elements) for _ in element]
    rows, cols, values = zip(*(e for element in elements for e in element))
    return (np.array(elem), np.array(rows), np.array(cols), np.array(values, dtype=dtype))


def _sl_entries(n):
    """The entries of the sl(n,R) basis: E_ij for i != j, then E_kk - E_k+1,k+1."""
    elements = [[(i, j, 1.0)] for i in range(n) for j in range(n) if i != j]
    elements += [[(k, k, 1.0), (k + 1, k + 1, -1.0)] for k in range(n - 1)]
    return _entries(elements, float)


def _su_entries(p, q):
    """The entries of the u(n) combinations A whose B @ A form the basis of
    {X : X*B + BX = 0, tr X = 0}.

    tr(BA) vanishes for all u(n) basis elements except the anti-diagonal-pair
    symmetric ones and the middle-diagonal ones; those are combined pairwise
    into traceless differences, which keeps the enumeration explicit.
    """
    n = p + q
    upper = [(k, l) for k in range(n) for l in range(k + 1, n)]
    elements = [[(k, l, 1.0), (l, k, -1.0)] for k, l in upper]
    elements += [[(k, l, 1j), (l, k, 1j)] for k, l in upper if not (k < q and l == n - 1 - k)]
    elements += [[(k, k, 1j)] for k in list(range(q)) + list(range(p, n))]
    # trace carriers: q pair-symmetric elements (weight 2) then p-q middle
    # diagonals (weight 1); consecutive weighted differences are traceless
    carriers = [((k, n - 1 - k), 2.0) for k in range(q)] + [((m, m), 1.0) for m in range(q, p)]
    for ((i, j), w1), ((k, l), w2) in zip(carriers, carriers[1:]):
        # a middle diagonal (m, m) is one position
        elements.append([(a, b, complex(0.0, w2)) for a, b in dict.fromkeys([(i, j), (j, i)])]
                        + [(a, b, complex(0.0, -w1)) for a, b in dict.fromkeys([(k, l), (l, k)])])
    return _entries(elements, complex)


@dataclass(frozen=True, eq=False)
class LieAlgebraSpace:
    family: str
    params: tuple
    size: int
    form: np.ndarray | None  # the hermitian form su(p,q) keeps; None for sl(n,R)
    a_diagonal: np.ndarray  # (size, r) ints: diag(a with free coordinates v) = a_diagonal @ v
    # (element, row, col, value) arrays, element ascending: the entries of each
    # basis element's gl(n) or u(n) matrix A; the element is A, or form @ A
    # where the algebra keeps a form
    entries: tuple
    config: _config.Config  # the tolerances every computation on this algebra reads

    @property
    def dim(self):
        return int(self.entries[0][-1]) + 1

    @property
    def dtype(self):
        """The basis's dtype: complex where the algebra keeps a form, else float."""
        return np.dtype(complex if self.form is not None else float)

    @cached_property
    def basis(self):
        """(dim, size, size), built on first read: the exact lane reads only
        the support."""
        elem, rows, cols, values = self.entries
        a = np.zeros((self.dim, self.size, self.size), dtype=values.dtype)
        a[elem, rows, cols] = values
        return readonly(a if self.form is None else self.form @ a)

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
        """(element, row, col) of every nonzero basis entry, in np.nonzero
        order, and the index into them of each element's first entry.

        The form is a permutation matrix: form @ A carries A's row k to the
        row of the form's entry in column k, with the same nonzero value."""
        elem, rows, cols, _ = self.entries
        if self.form is not None:
            rows = np.argmax(self.form != 0, axis=0)[rows]
        order = np.lexsort((cols, rows, elem))
        elem, rows, cols = elem[order], rows[order], cols[order]
        return readonly((elem, rows, cols, np.flatnonzero(np.r_[True, elem[1:] != elem[:-1]])))

    def coordinates(self, x, check=True):
        """Real coordinates in the algebra basis of an ambient matrix (n, n),
        shape (dim,), or of a stack of them (k, n, n), shape (k, dim).

        With check=True every matrix of the stack must be a member; the
        residual is taken row by row against the matrix's own norm, with
        the config's membership_rtol.
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
            tol = self.config.membership_rtol
            bad = np.flatnonzero(resid > tol * scale)
            if bad.size:
                k = bad[0]
                raise MembershipError(
                    f"matrix is not in {self.family}({', '.join(map(str, self.params))}): "
                    f"residual {resid[k]:.3e} exceeds {tol:.1e} * {scale[k]:.3e}")
        return coords if x.ndim == 3 else coords[0]

    def from_coordinates(self, coords):
        """Ambient matrix of coordinates (dim,), or stack of matrices of (k, dim)."""
        coords = np.asarray(coords, dtype=float)
        flat = coords @ self.basis.reshape(self.dim, -1)
        return flat.reshape(coords.shape[:-1] + (self.size, self.size))


def integer_param(name, value):
    """value as an int; bools and non-integral values raise ParameterError."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ParameterError(f"{name} must be an integer, got {value!r}")


def integer_text(n):
    """n for an error text: in full up to 20 digits, else its digit count."""
    return str(n) if len(str(n)) <= 20 else f"a {len(str(n))}-digit number"


def make_algebra(family, *params, config=_config.DEFAULT):
    """Construct sl(n,R) (params: n) or su(p,q) (params: p, q); the algebra
    holds config, the tolerances of every computation on it.

    The input is validated and canonicalized first; then one algebra, with
    read-only arrays, serves every call with the same (family, params,
    config) in the process.  Equal configs share it, configs that differ in
    any value do not."""
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
    if sum(params) > MATRIX_SIZE_CAP:  # n, or p + q
        raise ParameterError(f"{family} matrices of size {integer_text(sum(params))} exceed "
                             f"the matrix size cap {MATRIX_SIZE_CAP}")
    return _shared_algebra(family, params, config)


@functools.lru_cache(maxsize=8)
def _shared_algebra(family, params, config):
    if family == SL:
        (n,) = params
        form, entries, a_diagonal = None, _sl_entries(n), np.eye(n, dtype=int)
    else:
        p, q = params
        n = p + q
        form, entries = form_matrix(p, q), _su_entries(p, q)
        a_diagonal = np.eye(n, q, dtype=int) - np.eye(n, q, dtype=int)[::-1]
    return LieAlgebraSpace(family, params, n, readonly(form), readonly(a_diagonal),
                           readonly(entries), config)


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


# Pade [13/13] numerator coefficients b_0..b_13 and the 1-norm up to which
# the unscaled approximant is accurate to double precision (Higham 2005,
# "The scaling and squaring method for the matrix exponential revisited")
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def expm(a):
    """e^A of a square matrix, or of each matrix of a stack (m, n, n), by the
    [13/13] Pade approximant with scaling and squaring.

    Each matrix is scaled by its own 2^-s, s = max(0, ceil(log2(|A|_1 /
    theta_13))), and squared s times; a stack goes through each step at once
    and squaring step k replaces only the matrices with s > k, so every
    matrix of it gets the bits it gets on its own.  A non-finite 1-norm
    takes s = 0, and a non-finite input gives a non-finite result."""
    a = np.asarray(a)
    stack = a.reshape((-1,) + a.shape[-2:])
    b = _PADE13
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        norm = np.abs(stack).sum(axis=-2).max(axis=-1)
        s = np.ceil(np.log2(norm / _THETA13))
        s = np.maximum(np.where(np.isfinite(s), s, 0.0), 0.0).astype(int)
        x = stack * np.exp2(-s)[:, None, None]
        ident = np.eye(a.shape[-1])
        x2 = x @ x
        x4 = x2 @ x2
        x6 = x2 @ x4
        u = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
                 + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * ident)
        v = (x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2)
             + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * ident)
        r = np.linalg.solve(v - u, v + u)
        for k in range(s.max(initial=0)):
            r = np.where((s > k)[:, None, None], r @ r, r)
    return r.reshape(a.shape)


def cartan_involution(alg, x, check=True):
    """theta(X) = -X^*: -X^T for sl(n,R), whose X are real; X may be a stack."""
    if check:
        alg.coordinates(x, check=True)
    xt = np.swapaxes(np.asarray(x), -1, -2)
    return -xt.conj()


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
    dimension stabilizes or reaches dim g.
    """
    space = subspace_from_matrices(alg, seeds)
    while 0 < space.dim < alg.dim:
        mats = space.matrices()
        i, j = np.triu_indices(space.dim, k=1)
        pairs = mats[i] @ mats[j] - mats[j] @ mats[i]
        new_rows = np.vstack([space.onb, alg.coordinates(pairs, check=False)])
        bigger = subspace_from_coordinates(alg, new_rows)
        if bigger.dim == space.dim:
            break
        space = bigger
    return space
