"""Cartan projection mu and Lyapunov projection lambda into the closed chamber.

Both return plain tuples of floats in the free coordinates of the torus;
exact rational torus vectors are reserved for the properness lane.
"""

import numpy as np

from .algebra import SL, SU
from .errors import MembershipError, RealizationError, ShapeError

GROUP_TOL = 1e-8         # defining-condition residual of a group element, relative to |g|^2
MU_PAIRING_TOL = 1e-8    # how far the su log-spectrum may sit from the pattern +-a_i, 0


def group_residual(alg, g):
    """Largest residual of the defining conditions of g.

    |log|det g|| is taken as |sum of log sigma_i| over the singular values,
    which stays accurate on long products where det g itself loses digits
    like the product of the singular values; the sign (real g) or phase
    (complex g) of det g is checked separately."""
    g = np.asarray(g)
    sv = np.linalg.svd(g, compute_uv=False)
    if not sv[-1] > 0:
        return np.inf
    sign, _ = np.linalg.slogdet(g)
    r = max(abs(float(np.sum(np.log(sv)))), abs(sign - 1.0))
    if alg.family == SU:
        r = max(r, np.linalg.norm(g.conj().T @ alg.form @ g - alg.form))
    return r


def validate_group_element(alg, g):
    g = np.asarray(g)
    if g.shape != (alg.size, alg.size):
        raise ShapeError(f"expected {alg.size}x{alg.size} matrix, got {g.shape}")
    scale = max(np.linalg.norm(g) ** 2, 1.0)
    if group_residual(alg, g) > GROUP_TOL * scale:
        raise MembershipError(
            f"matrix violates the defining condition of {alg.family}{alg.params}")
    return g


def mu(alg, torus, g):
    """Cartan projection: half the log-spectrum of theta(g)^{-1} g = g^* g,
    sorted into the chamber.

    Computed from the singular values of g (the maximal compact sits inside
    the unitary group in these realizations), which keeps the small values
    accurate where squaring into the Gram matrix would not."""
    g = validate_group_element(alg, g)
    vals = np.linalg.svd(np.asarray(g), compute_uv=False)
    if np.any(vals <= 0):
        raise RealizationError("Gram matrix of g is not positive definite")
    logs = np.sort(np.log(vals))[::-1]
    if alg.family == SL:
        return tuple(float(x) for x in logs)
    p, q = alg.params
    n = p + q
    for k in range(q):
        if abs(logs[k] + logs[n - 1 - k]) > MU_PAIRING_TOL:
            raise RealizationError(
                f"mu logs do not pair as +-a_i: {logs[k]:.3e} vs {logs[n-1-k]:.3e}")
    for m in range(q, p):
        if abs(logs[m]) > MU_PAIRING_TOL:
            raise RealizationError(f"middle mu log {logs[m]:.3e} does not vanish")
    return tuple(float(x) for x in logs[:q])


def lyapunov(alg, torus, g):
    """Dominant log-spectrum of the hyperbolic Jordan factor (eigenvalue moduli)."""
    g = np.asarray(g)
    w = np.linalg.eigvals(np.asarray(g, dtype=complex))
    if np.any(np.abs(w) == 0.0):
        raise MembershipError("group element must be invertible")
    logs = np.sort(np.log(np.abs(w)))[::-1]
    if alg.family == SL:
        return tuple(float(x) for x in logs)
    p, q = alg.params
    return tuple(float(x) for x in logs[:q])
