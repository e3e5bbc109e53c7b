"""Explicit Fuchsian surface groups, the bending deformation of their images
under an sl(2,R)-homomorphism, the strict separation inequalities that make
the deformation certify, and the bracket-closure density certificate.
"""

import functools
import math
from dataclasses import dataclass, replace
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .algebra import bracket, expm, generated_subalgebra, integer_param, readonly
from .config import finite_real
from .errors import (GenusConditionError, MembershipError, ParameterError,
                     RealizationError, ShapeError)
from .sl2 import module_multiplicities, rho_of

_MOBIUS = np.array([[1.0, -1.0j], [1.0, 1.0j]])
# the exact inverse, bitwise LAPACK's (-0.5j would carry a -0.0 real part);
# no numpy.linalg routine runs at import
_MOBIUS_INV = np.array([[0.5, 0.5], [0.5j, complex(0.0, -0.5)]])

FIXED_POINT_TOL = 1e-7  # a bending line's fixed-point residual, relative to Ad(rho(a))'s stretch
FIXED_LINE_BITS = 110  # the precision of the integer kernel's conjugator of a bent generator


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
    genus; build_plan checks it against the algebra's seed_relation_tol,
    or the word's rounding allowance when that is larger.
    One polygon, with read-only matrices, serves every call with the same
    genus in a process.
    """
    g = integer_param("genus", genus)
    if g < 2 or not finite_real(4 * g):  # the 4g-gon's angles are floats
        raise ParameterError(f"surface groups need genus >= 2 with 4g in float64's range, got {g}")
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


def fixed_weight_zero_vector(iso, i, j, a_matrix, rho_a):
    """The Ad(rho(a))-fixed line in the piece V_{i,j} of the isotypic data
    iso, as the algebra matrix of its unit coordinates with a deterministic
    sign.  a must be hyperbolic in SL(2,R).  rho_a, which checks the line, is rho(a) (a plan's
    `pushed.a[k - 1]`).

    With k^{-1} a k diagonal (`intkernel.conjugator` of the exact float a at
    FIXED_LINE_BITS; the kernel is imported here, so commands that bend
    nothing never load it), the line is Ad(rho(k)) c_i, c_q = (ad F)^q c_0
    being the piece's lowering basis (`iso.piece_columns`).  Its coordinates
    there come from Sym^2i(k) in ints (`intkernel.line_coefficients`), with
    no float conjugation for Ad(rho(a)) to stretch.  The fixed-point
    equation is verified afterwards.
    """
    a_matrix = np.asarray(a_matrix, dtype=float)
    if a_matrix.shape != (2, 2):
        raise ShapeError("a must be a 2x2 matrix")
    if abs(np.trace(a_matrix)) <= 2.0:
        raise ParameterError("the fixed line needs a hyperbolic element")
    from . import intkernel
    k = intkernel.conjugator(intkernel.FixedMatrix.from_float(a_matrix), FIXED_LINE_BITS)
    x = iso.piece_columns[(i, j)] @ intkernel.line_coefficients(k, i)
    x = x / np.linalg.norm(x)
    lead = x[np.argmax(np.abs(x) > 1e-9)]
    if lead < 0:
        x = -x
    x_mat = iso.triple.algebra.from_coordinates(x)
    try:
        rho_a_inv = np.linalg.inv(rho_a)
    except np.linalg.LinAlgError:
        raise RealizationError("rho(a) is singular in float64: the fixed line "
                               f"in V_({i},{j}) cannot be checked") from None
    moved = rho_a @ x_mat @ rho_a_inv
    resid = np.linalg.norm(moved - x_mat)
    if resid > FIXED_POINT_TOL * max(np.linalg.norm(moved), 1.0):
        raise RealizationError(
            f"fixed-point residual {resid:.3e} too large in V_({i},{j})")
    return x_mat


@dataclass(frozen=True, eq=False)
class BendingPlan:
    """The bend's t-independent float objects, built once; with_t copies share them."""
    triple: object
    seed: SurfaceGroupRep
    iso: object                # IsotypicData of the triple's even part, iso.Lambda its pieces
    f: dict                    # (i,j) -> generator index in 1..g
    x: MappingProxyType        # (i,j) -> X_ij, a read-only algebra matrix
    y: MappingProxyType        # (i,j) -> Y_ij, a read-only algebra matrix, i != 0 only
    pushed: SurfaceGroupRep    # the undeformed images rho(a_k), rho(b_k)
    t: float | None

    @property
    def genus(self):
        return self.seed.genus

    def with_t(self, t):
        return replace(self, t=t)

    @cached_property
    def twists(self):
        """(i,j) -> e^{tX_ij} at the plan's t for every piece, from one expm
        call: bend multiplies b_f(i,j) by it and z conjugates by it.  A t
        past float64 shows as a non-finite twist, which bend reports."""
        lam = self.iso.Lambda
        return dict(zip(lam, expm(self.t * np.array([self.x[ij] for ij in lam]))))

    @cached_property
    def z(self):
        """(i,j) -> Z_ij(t) = (1/t)(Ad(e^{tX})Y - Y) in algebra coordinates
        for every bent piece, computed once per plan: the inequalities, bend
        and the density certificate read the same values."""
        if not self.t:
            raise ParameterError("Z needs a bending parameter t != 0")
        out = {}
        for ij, y in self.y.items():
            g = self.twists[ij]
            # an overflow, or an e^{tX} that is singular in float64, shows as
            # a non-finite Z, which bending_inequalities reports
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    g_inv = np.linalg.inv(g)
                except np.linalg.LinAlgError:
                    g_inv = np.full_like(g, np.nan)
                moved = g @ y @ g_inv
            out[ij] = self.triple.algebra.coordinates((moved - y) / self.t, check=False)
        return MappingProxyType(out)

    @cached_property
    def inequalities(self):
        """bending_inequalities(self), computed once per plan."""
        return bending_inequalities(self)

    @cached_property
    def generator_assignment(self):
        """k -> (i,j) for bent generators; others get no twist."""
        return {k: ij for ij, k in self.f.items()}

    @cached_property
    def bent(self):
        """bend(self), built once per plan; a refused t raises on each read."""
        return bend(self)


def build_plan(triple, seed, t="auto"):
    """Assemble a bending plan: isotypic pieces, the injection into generator
    indices, the pushed seed, the matrices X and Y and the bending parameter.
    The seed's relation residual is checked first, against seed_relation_tol
    or, when larger, the rounding a product of L matrices may carry,
    4 eps L peak**2 for the word's largest partial-product norm peak.
    "auto" takes the first grid t that the inequalities and bend accept."""
    alg = triple.algebra
    seed_resid, peak, length = seed.relation_diagnostics
    tol = max(alg.config.seed_relation_tol, 4.0 * np.finfo(float).eps * length * peak ** 2)
    if seed_resid > tol:
        raise RealizationError(f"polygon relation residual {seed_resid:.3e} exceeds {tol:.1e}")
    iso = module_multiplicities(alg, triple)
    lam = iso.Lambda
    if seed.genus < len(lam):
        raise GenusConditionError(
            f"genus {seed.genus} is below the required {len(lam)} (sum of odd multiplicities)")
    f_map = {ij: k + 1 for k, ij in enumerate(lam)}

    star = triple.star_basis
    trivial = sum(i == 0 for i, _ in lam)
    if len(star) != trivial:
        raise RealizationError(
            f"centralizer dimension {len(star)} disagrees with the trivial-piece count {trivial}")

    # one rho_of call; rho(a_k) of a bent generator also checks its fixed line
    pushed = pushed_forward(triple, seed,
                            readonly(rho_of(triple, np.concatenate([seed.a, seed.b]))))

    x, y = {}, {}
    for (i, j) in lam:
        if i == 0:
            x[(0, j)] = alg.from_coordinates(np.array(star[j - 1].coords, dtype=float))
            continue
        k = f_map[(i, j)]
        x_mat = x[(i, j)] = fixed_weight_zero_vector(iso, i, j, seed.a[k - 1], pushed.a[k - 1])
        best, best_norm = None, -1.0
        for cand in (triple.e, triple.f, triple.h):
            norm = np.linalg.norm(bracket(x_mat, cand))
            if norm > best_norm + 1e-12:
                best, best_norm = cand, norm
        if best_norm <= 1e-10:
            raise RealizationError(f"[X,Y] vanishes for every triple image at {(i, j)}")
        y[(i, j)] = alg.from_coordinates(alg.coordinates(best))

    plan = BendingPlan(triple, seed, iso, f_map, MappingProxyType(readonly(x)),
                       MappingProxyType(readonly(y)), pushed, None)
    if t == "auto":
        for cand in alg.config.t_grid:
            trial = plan.with_t(float(cand))
            if trial.inequalities.ok:
                try:
                    trial.bent  # bend's float checks raise on a t they refuse
                    return trial
                except RealizationError:
                    pass
        return plan  # t stays None; caller reports the failed grid
    return plan.with_t(float(t))


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
        z = plan.z[(i, j)]
        if not np.all(np.isfinite(z)):
            return InequalityReport(False, tuple(records),
                                    f"Ad(e^(tX)) overflowed at t={plan.t:g}")
        try:
            z_blocks = iso.decompose(z)
        except MembershipError:
            # the rounding of Ad(e^(tX)) at a large t moves Z off the target
            return InequalityReport(False, tuple(records),
                                    f"Z_({i},{j})(t) leaves the isotypic decomposition "
                                    f"at t={plan.t:g}")
        comm = alg.coordinates(bracket(plan.x[(i, j)], plan.y[(i, j)]))
        cnorm = float(np.linalg.norm(iso.model_coordinates(i, j, comm)))
        self_norm = float(np.linalg.norm(z_blocks[iso.block_slices[(i, j)]]))
        lower = (1.0 - 1.0 / mult) * cnorm
        rec = {"pair": (i, j), "kind": "self", "value": self_norm,
               "bound": lower, "margin": self_norm - lower}
        ok = ok and rec["margin"] > 0
        records.append(rec)
        for k in range(1, mult + 1):
            if k == j:
                continue
            cross = float(np.linalg.norm(z_blocks[iso.block_slices[(i, k)]]))
            upper = cnorm / mult
            rec = {"pair": (i, j), "against": (i, k), "kind": "cross",
                   "value": cross, "bound": upper, "margin": upper - cross}
            ok = ok and rec["margin"] > 0
            records.append(rec)
    return InequalityReport(ok, tuple(records))


def pushed_forward(triple, seed, images):
    """The undeformed representation: the seed's generator images under the
    triple's homomorphism, from the (2g, n, n) stack images = rho(a_1), ...,
    rho(a_g), rho(b_1), ..., rho(b_g) (build_plan's one rho_of call)."""
    return SurfaceGroupRep(seed.genus, images[:seed.genus], images[seed.genus:])


def bend(plan):
    """The deformed representation of the plan's seed: a_k images
    (`BendingPlan.pushed`) unchanged, b_k images multiplied by exp(t X_k).

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
    pushed = plan.pushed
    pushed_resid = pushed.relation_residual()

    unbent = np.eye(alg.size, dtype=alg.dtype)
    twists = [plan.twists[plan.generator_assignment[k]] if k in plan.generator_assignment
              else unbent for k in range(1, seed.genus + 1)]
    # a large t overflows the twists; the check below reports it, not numpy
    with np.errstate(over="ignore", invalid="ignore"):
        # an unbent b_k is multiplied by I too: the shipped bytes keep the
        # signs of zero entries that this product gives
        bent = SurfaceGroupRep(seed.genus, pushed.a, pushed.b @ np.array(twists))
    if not np.isfinite(bent.b).all():
        # the residual test below is False for NaN, and for inf against inf
        raise RealizationError(f"bending parameter t = {plan.t!r} overflows the twists: "
                               "a bent generator has a non-finite entry")
    if plan.t and not all(np.isfinite(z).all() for z in plan.z.values()):
        # e^{tX} is singular in float64 (BendingPlan.z): the certificate's seeds
        # would be a meaningless Z
        raise RealizationError(f"bending parameter t = {plan.t!r} is past float64: "
                               "Ad(e^(tX)) has a non-finite entry")
    # an overflowing relation word shows as a non-finite allowance
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            resid, peak, length = bent.relation_diagnostics
        except np.linalg.LinAlgError:
            raise RealizationError(f"bending parameter t = {plan.t!r} is past float64: "
                                   "a bent generator is singular") from None
        gen_norm = max(np.linalg.norm(m) for m in bent.generators())
        noise = 64.0 * np.finfo(float).eps * length * peak * gen_norm
    if not np.isfinite(noise):
        # an allowance of inf would pass any residual
        raise RealizationError(f"bending parameter t = {plan.t!r} overflows the relation "
                               "word: a partial product has a non-finite norm")
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
    for ij in plan.iso.Lambda:
        if ij[0] == 0:
            seeds.append(plan.x[ij])
        elif plan.t not in (None, 0):
            seeds.append(alg.from_coordinates(plan.z[ij]))
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
