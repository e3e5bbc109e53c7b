"""Explicit Fuchsian surface groups, the bending deformation of their images
under an sl(2,R)-homomorphism, the strict separation inequalities that make
the deformation certify, and the bracket-closure density certificate.
"""

import functools
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy.linalg import expm

from .algebra import bracket, generated_subalgebra, integer_param, readonly
from .errors import (GenusConditionError, ParameterError, RealizationError,
                     ShapeError)
from .sl2 import module_multiplicities, rho_of

_MOBIUS = np.array([[1.0, -1.0j], [1.0, 1.0j]])
_MOBIUS_INV = np.linalg.inv(_MOBIUS)

FIXED_POINT_TOL = 1e-7  # a bending line's fixed-point residual, relative to Ad(rho(a))'s stretch
FIXED_LINE_BITS = 110  # the precision at which the integer kernel rebuilds a bending line


@dataclass(frozen=True, eq=False)
class SurfaceGroupRep:
    """Images of the standard generators a_1,b_1,...,a_g,b_g."""
    genus: int
    a: np.ndarray  # (g, n, n)
    b: np.ndarray  # (g, n, n)

    def relation_residual(self):
        return self.relation_diagnostics[0]

    @cached_property
    def relation_diagnostics(self):
        """(residual, max partial-product norm, word length), multiplied out
        once; the partial norm measures how the word amplifies rounding noise."""
        n = self.a.shape[-1]
        prod = np.eye(n, dtype=complex)
        peak = 1.0
        length = 0
        for word in zip(self.a, self.b, np.linalg.inv(self.a), np.linalg.inv(self.b)):
            for m in word:
                prod = prod @ m
                peak = max(peak, float(np.linalg.norm(prod)))
                length += 1
        return float(np.linalg.norm(prod - np.eye(n))), peak, length

    def generators(self):
        out = []
        for ak, bk in zip(self.a, self.b):
            out.extend([ak, bk])
        return out


def _disk_rotation(phi):
    return np.array([[np.exp(0.5j * phi), 0.0], [0.0, np.exp(-0.5j * phi)]])


def _disk_translation(d):
    return np.array([[math.cosh(d / 2.0), math.sinh(d / 2.0)],
                     [math.sinh(d / 2.0), math.cosh(d / 2.0)]], dtype=complex)


def fuchsian_generators(genus):
    """Side-pairing matrices of the regular hyperbolic 4g-gon with vertex
    angle 2*pi/4g (angle sum 2*pi, one vertex cycle).

    Sides are numbered counterclockwise and carry the boundary word
    a_1 b_1 a_1^{-1} b_1^{-1} ...; A_k glues side 4k+2 onto side 4k and B_k
    glues side 4k+1 onto side 4k+3, which realizes
    [A_1,B_1]...[A_g,B_g] = I in SL(2,R).  Its float residual grows with the
    genus; build_plan checks it against the algebra's seed_relation_tol.
    One polygon, with read-only matrices, serves every call with the same
    genus in a process.
    """
    g = integer_param("genus", genus)
    if g < 2:
        raise ParameterError(f"surface groups need genus >= 2, got {g}")
    return _polygon(g)


@functools.lru_cache(maxsize=8)
def _polygon(g):
    n = 4 * g
    rho = math.acosh(1.0 / math.tan(math.pi / n))  # center-to-side distance

    def normal_angle(j):
        return 2.0 * math.pi * (j + 0.5) / n

    def glue(src, dst):
        u = (_disk_rotation(normal_angle(dst) + math.pi)
             @ _disk_translation(2.0 * rho)
             @ np.linalg.inv(_disk_rotation(normal_angle(src))))
        m = _MOBIUS_INV @ u @ _MOBIUS
        if np.max(np.abs(m.imag)) > 1e-11:
            raise RealizationError("disk-model side pairing failed to descend to SL(2,R)")
        return m.real

    a_list, b_list = [], []
    for k in range(g):
        a_list.append(glue(4 * k + 2, 4 * k))
        b_list.append(glue(4 * k + 1, 4 * k + 3))
    rep = SurfaceGroupRep(g, readonly(np.array(a_list)), readonly(np.array(b_list)))
    for m in rep.generators():
        if abs(np.trace(m)) <= 2.0:
            raise RealizationError("polygon side pairing produced a non-hyperbolic generator")
    return rep


def _hyperbolic_conjugator(a_matrix):
    """k in SL(2,R) with k^{-1} a k diagonal; deterministic column choices."""
    w, vecs = np.linalg.eig(a_matrix)
    if np.max(np.abs(w.imag)) > 1e-10:
        raise ParameterError("the fixed line needs a hyperbolic element")
    order = np.argsort(-w.real)
    vecs = vecs[:, order].real
    for c in range(2):
        col = vecs[:, c]
        lead = col[np.argmax(np.abs(col) > 1e-12)]
        if lead < 0:
            vecs[:, c] = -col
    det = np.linalg.det(vecs)
    if det < 0:
        vecs[:, 1] = -vecs[:, 1]
        det = -det
    return vecs / math.sqrt(det)


def fixed_weight_zero_vector(iso, i, j, a_matrix, rho_ak=None):
    """The Ad(rho(a))-fixed line in the piece V_{i,j} of the isotypic data
    iso, unit-normalized with a deterministic sign.  a must be hyperbolic in
    SL(2,R).  rho_ak is the pair (rho(a), rho(k)) for a and its conjugator k
    (`_hyperbolic_conjugator`), computed here in one rho_of call unless the
    caller holds it.

    With a = k d k^{-1} diagonal, the fixed line is Ad(rho(k)) applied to the
    weight-zero basis vector of the piece: conjugation avoids extracting a
    near-kernel from an operator whose spectrum spreads exponentially in the
    highest weight.  The fixed-point equation is verified afterwards; where
    the float line misses it, the line is rebuilt on the integer kernel at
    FIXED_LINE_BITS (`intkernel.fixed_line`, no mpmath) and verified again.
    """
    a_matrix = np.asarray(a_matrix, dtype=float)
    if a_matrix.shape != (2, 2):
        raise ShapeError("a must be a 2x2 matrix")
    if abs(np.trace(a_matrix)) <= 2.0:
        raise ParameterError("the fixed line needs a hyperbolic element")
    triple = iso.triple
    alg = triple.algebra
    if rho_ak is None:
        rho_ak = rho_of(triple, np.array([a_matrix, _hyperbolic_conjugator(a_matrix)]))
    rho_a, rho_k = rho_ak
    rho_a_inv = np.linalg.inv(rho_a)

    def line(x_mat):
        """Unit coordinates with a deterministic sign, the fixed-point
        residual, and how strongly Ad(rho(a)) stretches."""
        x = alg.coordinates(x_mat)
        x = x / np.linalg.norm(x)
        lead = x[np.argmax(np.abs(x) > 1e-9)]
        if lead < 0:
            x = -x
        moved = rho_a @ alg.from_coordinates(x) @ rho_a_inv
        return x, np.linalg.norm(moved - alg.from_coordinates(x)), max(np.linalg.norm(moved), 1.0)

    v0 = alg.from_coordinates(iso.piece_columns[(i, j)][:, i])  # weight-zero vector of the piece
    x, resid, stretch = line(rho_k @ v0 @ np.linalg.inv(rho_k))
    if resid > FIXED_POINT_TOL * stretch:
        # Ad(rho(a)) stretches the rounding of the float conjugation: build
        # the line in integers at FIXED_LINE_BITS, rounded once (imported
        # here: only plans that miss the float line load the kernel)
        from . import intkernel
        x_mat = intkernel.fixed_line(intkernel.Sl2Images(triple.exact),
                                     intkernel.FixedMatrix.from_float(a_matrix), v0,
                                     FIXED_LINE_BITS)[3]
        x, resid, stretch = line(x_mat if alg.is_complex else x_mat.real)
    if resid > FIXED_POINT_TOL * stretch:
        raise RealizationError(
            f"fixed-point residual {resid:.3e} too large in V_({i},{j})")
    return x


@dataclass(frozen=True, eq=False)
class BendingPlan:
    triple: object
    seed: SurfaceGroupRep
    iso: object                # IsotypicData of the triple's even part, iso.Lambda its pieces
    f: dict                    # (i,j) -> generator index in 1..g
    x_vectors: dict            # (i,j) -> algebra coordinates
    y_vectors: dict            # (i,j) -> algebra coordinates, i != 0 only
    t: float | None
    star_kinds: dict           # j -> classification of X_{0,j}
    images: np.ndarray         # (2g, n, n): rho(a_1), ..., rho(a_g), rho(b_1), ..., rho(b_g)
    _z: dict = field(default_factory=dict, init=False, repr=False)  # (i,j) -> Z_{i,j}(t)

    @property
    def genus(self):
        return self.seed.genus

    def x_matrix(self, ij):
        return self.triple.algebra.from_coordinates(self.x_vectors[ij])

    def y_matrix(self, ij):
        return self.triple.algebra.from_coordinates(self.y_vectors[ij])

    def with_t(self, t):
        return replace(self, t=t)

    def z(self, ij):
        """z_vector of the piece ij at the plan's t, computed once per plan:
        the inequalities and the density certificate read the same values."""
        if ij not in self._z:
            self._z[ij] = z_vector(self.triple.algebra, self.x_matrix(ij), self.y_matrix(ij),
                                   self.t)
        return self._z[ij]

    @cached_property
    def inequalities(self):
        """bending_inequalities(self), computed once per plan."""
        return bending_inequalities(self)

    @cached_property
    def generator_assignment(self):
        """k -> (i,j) for bent generators; others get no twist."""
        return {k: ij for ij, k in self.f.items()}


def build_plan(triple, seed, t="auto"):
    """Assemble a bending plan: isotypic pieces, the injection into generator
    indices, the fixed vectors, companions and the bending parameter.  The
    seed's relation residual is checked first, against seed_relation_tol."""
    alg = triple.algebra
    tol = alg.config.seed_relation_tol
    seed_resid = seed.relation_residual()
    if seed_resid > tol:
        raise RealizationError(f"polygon relation residual {seed_resid:.3e} exceeds {tol:.1e}")
    iso = module_multiplicities(alg, triple)
    lam = iso.Lambda
    if seed.genus < len(lam):
        raise GenusConditionError(
            f"genus {seed.genus} is below the required {len(lam)} (sum of odd multiplicities)")
    f_map = {ij: k + 1 for k, ij in enumerate(lam)}

    zero_js = sorted(j for (i, j) in lam if i == 0)
    star = []
    if zero_js:
        z_dim = triple.centralizer.dim
        if z_dim != len(zero_js):
            raise RealizationError(
                f"centralizer dimension {z_dim} disagrees with the trivial-piece count "
                f"{len(zero_js)}")
        star = triple.star_basis

    # one rho_of call for the generators and the conjugator of each bent a_k
    bent = [ij for ij in lam if ij[0] != 0]
    conjugators = [_hyperbolic_conjugator(seed.a[f_map[ij] - 1]) for ij in bent]
    images = rho_of(triple, np.concatenate([seed.a, seed.b, np.reshape(conjugators, (-1, 2, 2))]))
    rho_k = dict(zip(bent, images[2 * seed.genus:]))

    x_vectors, y_vectors, star_kinds = {}, {}, {}
    for (i, j) in lam:
        if i == 0:
            x_vectors[(0, j)] = np.array(star[j - 1].coords, dtype=float)
            star_kinds[j] = star[j - 1].kind
            continue
        k = f_map[(i, j)]
        x = fixed_weight_zero_vector(iso, i, j, seed.a[k - 1],
                                     rho_ak=(images[k - 1], rho_k[(i, j)]))
        x_vectors[(i, j)] = x
        x_mat = alg.from_coordinates(x)
        best, best_norm = None, -1.0
        for cand in (triple.e, triple.f, triple.h):
            norm = np.linalg.norm(bracket(x_mat, cand))
            if norm > best_norm + 1e-12:
                best, best_norm = cand, norm
        if best_norm <= 1e-10:
            raise RealizationError(f"[X,Y] vanishes for every triple image at {(i, j)}")
        y_vectors[(i, j)] = alg.coordinates(best)

    plan = BendingPlan(triple, seed, iso, f_map, x_vectors, y_vectors, None, star_kinds,
                       readonly(images[:2 * seed.genus]))
    if t == "auto":
        for cand in alg.config.t_grid:
            trial = plan.with_t(float(cand))
            if trial.inequalities.ok:
                return trial
        return plan  # t stays None; caller reports the failed grid
    return plan.with_t(float(t))


def z_vector(alg, x_mat, y_mat, t):
    """(1/t)(Ad(e^{tX})Y - Y) in algebra coordinates."""
    if t == 0:
        raise ParameterError("z_vector needs t != 0")
    g = expm(float(t) * np.asarray(x_mat))
    moved = g @ np.asarray(y_mat) @ np.linalg.inv(g)
    return alg.coordinates((moved - np.asarray(y_mat)) / float(t), check=False)


@dataclass(frozen=True)
class InequalityReport:
    ok: bool
    margins: tuple  # records per inequality
    note: str = ""


def bending_inequalities(plan):
    """Strict separation inequalities for the bent pieces, with margins.

    For each (i,j) with i != 0 the self-projection of Z_{i,j}(t) must exceed
    (1 - 1/mult) of the commutator size, and every cross-projection (i,k),
    k != j, must stay below (1/mult) of it.  Multiplicity-one indices have an
    empty cross family.
    """
    if plan.t is None or plan.t == 0:
        return InequalityReport(False, (), "no bending parameter set")
    alg = plan.triple.algebra
    iso = plan.iso
    records = []
    ok = True
    for (i, j) in iso.Lambda:
        if i == 0:
            continue
        mult = iso.target_odd_mults[i]
        x_mat = plan.x_matrix((i, j))
        y_mat = plan.y_matrix((i, j))
        z = plan.z((i, j))
        if not np.all(np.isfinite(z)):
            return InequalityReport(False, tuple(records),
                                    f"Ad(e^(tX)) overflowed at t={plan.t:g}")
        comm = alg.coordinates(bracket(x_mat, y_mat))
        cnorm = float(np.linalg.norm(iso.model_coordinates(i, j, comm)))
        self_norm = float(np.linalg.norm(iso.model_coordinates(i, j, z)))
        lower = (1.0 - 1.0 / mult) * cnorm
        rec = {"pair": (i, j), "kind": "self", "value": self_norm,
               "bound": lower, "margin": self_norm - lower}
        ok = ok and rec["margin"] > 0
        records.append(rec)
        for k in range(1, mult + 1):
            if k == j:
                continue
            cross = float(np.linalg.norm(iso.model_coordinates(i, k, z)))
            upper = cnorm / mult
            rec = {"pair": (i, j), "against": (i, k), "kind": "cross",
                   "value": cross, "bound": upper, "margin": upper - cross}
            ok = ok and rec["margin"] > 0
            records.append(rec)
    return InequalityReport(ok, tuple(records))


def pushed_forward(triple, seed, images=None):
    """The undeformed representation: generator images under the homomorphism.
    images is the (2g, n, n) stack rho(a_1), ..., rho(a_g), rho(b_1), ...,
    rho(b_g) where the caller already holds it (a plan's images), computed
    here in one rho_of call otherwise."""
    if images is None:
        images = rho_of(triple, np.concatenate([seed.a, seed.b]))
    return SurfaceGroupRep(seed.genus, images[:seed.genus], images[seed.genus:])


def bend(plan, pushed=None):
    """The deformed representation of the plan's seed: a_k images unchanged,
    b_k images multiplied by exp(t X_k).  pushed is
    pushed_forward(plan.triple, plan.seed, plan.images), built here unless
    the caller already holds it.

    The deformation is algebraically relation-preserving: the output residual
    is bounded by a small multiple of the undeformed pushed-forward residual
    plus a rounding allowance proportional to the measured conditioning of the
    relation word (high ad-weights amplify float noise independently of the
    bending).  The algebraically exact statement is certified separately by
    the high-precision lane.  Absolute residual policies live with the caller.
    """
    if plan.t is None:
        raise ParameterError("plan has no bending parameter; the grid search failed")
    seed, triple = plan.seed, plan.triple
    alg = triple.algebra
    if pushed is None:
        pushed = pushed_forward(triple, seed, plan.images)
    pushed_resid = pushed.relation_residual()

    twists = []
    for k in range(1, seed.genus + 1):
        ij = plan.generator_assignment.get(k)
        if ij is None:
            twists.append(np.eye(alg.size, dtype=complex if alg.is_complex else float))
        else:
            twists.append(expm(plan.t * alg.from_coordinates(plan.x_vectors[ij])))
    # an unbent b_k is multiplied by I too: the shipped bytes keep the signs of
    # zero entries that this product gives
    bent = SurfaceGroupRep(seed.genus, pushed.a, pushed.b @ np.array(twists))
    resid, peak, length = bent.relation_diagnostics
    gen_norm = max(np.linalg.norm(m) for m in bent.generators())
    noise = 64.0 * np.finfo(float).eps * length * peak * gen_norm
    if resid > 10.0 * pushed_resid + noise + 1e-12:
        raise RealizationError(
            f"bent residual {resid:.3e} exceeds 10x the undeformed residual "
            f"{pushed_resid:.3e} plus the rounding allowance {noise:.3e}")
    return bent


@dataclass(frozen=True)
class CertificateResult:
    verdict: str  # PASS | FAIL | INCONCLUSIVE
    achieved_dim: int
    target_dim: int
    inequalities: InequalityReport
    seed_count: int


def density_certificate(plan):
    """Bracket-closure certificate at the Lie-algebra level, for the group
    that bend(plan) returns.

    Seeds are the triple images, the Z_{i,j}(t) vectors and the X_{0,j};
    all of them lie in the Lie algebra of the closure of the bent group.
    PASS means they generate the full target subalgebra; a failed inequality
    check downgrades the verdict to INCONCLUSIVE, never to FAIL.
    """
    ineq = plan.inequalities
    alg = plan.triple.algebra
    seeds = [m for m in plan.triple.images() if np.linalg.norm(m) > 0]
    for (i, j) in plan.iso.Lambda:
        if i == 0:
            seeds.append(alg.from_coordinates(plan.x_vectors[(0, j)]))
        elif plan.t not in (None, 0):
            seeds.append(alg.from_coordinates(plan.z((i, j))))
    closure = generated_subalgebra(alg, seeds)
    achieved = closure.dim
    target = plan.iso.target.dim
    if achieved == target and ineq.ok:
        verdict = "PASS"
    elif not ineq.ok:
        verdict = "INCONCLUSIVE"
    else:
        verdict = "FAIL"
    return CertificateResult(verdict, achieved, target, ineq, len(seeds))
