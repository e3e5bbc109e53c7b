"""Cartan projection mu and Lyapunov projection lambda into the closed chamber.

Both return plain tuples of floats in the free coordinates of the torus;
exact rational torus vectors are reserved for the properness lane.
"""

from dataclasses import dataclass

import numpy as np

from .algebra import SL, SU
from .errors import MembershipError, RealizationError, ShapeError


@dataclass(frozen=True, eq=False)
class GroupElement:
    algebra: object
    matrix: np.ndarray

    def __post_init__(self):
        validate_group_element(self.algebra, self.matrix)


def group_residual(alg, g):
    g = np.asarray(g)
    r = abs(np.linalg.det(g) - 1.0)
    if alg.family == SU:
        r = max(r, np.linalg.norm(g.conj().T @ alg.form @ g - alg.form))
    return r


def validate_group_element(alg, g, tol=1e-8):
    g = np.asarray(g)
    if g.shape != (alg.size, alg.size):
        raise ShapeError(f"expected {alg.size}x{alg.size} matrix, got {g.shape}")
    scale = max(np.linalg.norm(g) ** 2, 1.0)
    if group_residual(alg, g) > tol * scale:
        raise MembershipError(
            f"matrix violates the defining condition of {alg.family}{alg.params}")
    return g


def mu(alg, torus, g, pairing_tol=1e-8):
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
        if abs(logs[k] + logs[n - 1 - k]) > pairing_tol:
            raise RealizationError(
                f"mu logs do not pair as +-a_i: {logs[k]:.3e} vs {logs[n-1-k]:.3e}")
    for m in range(q, p):
        if abs(logs[m]) > pairing_tol:
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
