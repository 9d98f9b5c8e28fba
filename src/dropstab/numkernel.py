"""Dense linear-algebra kernel: eigenvalues with a residual gate, Stein
solves, spectral radii, and the guards on unstable spectra and channel zeros.

All matrices are numpy 2-D arrays; inputs are validated for shape and
finiteness and promoted to complex128.  Eigenvalues are always reported in a
canonical order (ascending modulus, ties broken by ascending phase angle) so
that downstream factorizations are deterministic.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg as sla

from . import config

__all__ = ["channel_zero", "eigenvalues", "real_part", "solve_stein",
           "spectral_radius", "unstable_part"]

#: Largest matrix order accepted by the dense Stein solver (the Kronecker
#: system has order n**2).
MAX_STEIN_ORDER = 64


def _as_matrix(M, name: str = "matrix", square: bool = False) -> np.ndarray:
    """Validate and promote ``M`` to a complex128 2-D array."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={A.ndim}")
    if square and A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    if A.size and not np.isfinite(A).all():
        raise ValueError(f"{name} has non-finite entries")
    return A


def real_part(M) -> np.ndarray | None:
    """Re M as a contiguous float64 array when ``max|Im M| < 1e-9 max(1,
    max|Re M|)``, else None: the one test of whether matrix data is real."""
    M = np.asarray(M)
    out = np.array(M.real, dtype=float)
    if np.max(np.abs(M.imag), initial=0.0) < 1e-9 * max(1.0, np.max(np.abs(out), initial=0.0)):
        return out
    return None


def _canonical_order(w: np.ndarray) -> np.ndarray:
    """Indices sorting eigenvalues by (modulus, phase angle), both ascending.

    Moduli that agree to a relative 1e-9 are treated as tied so that the
    angle tiebreak actually fires for conjugate pairs (whose computed moduli
    differ in the last ulp).  Angles of numerically-real values are snapped
    to exactly 0 or pi first, eliminating the +/-pi branch noise of values
    like ``-1.5 - 1e-17j``.  Where no two moduli are tied, every value is a
    group of its own, and the modulus order is returned as it stands.
    """
    mods = np.abs(w)
    tol = 1e-9 * max(1.0, float(mods.max(initial=0.0)))
    order = np.argsort(mods, kind="stable")
    m = mods[order]
    steps = m[1:] - m[:-1] > tol
    if steps.all():
        return order
    ang = np.angle(w)
    real_mask = np.abs(w.imag) <= 1e-12 * (mods + 1.0)
    ang = np.where(real_mask, np.where(w.real < 0.0, np.pi, 0.0), ang)
    group = np.concatenate(([0], np.cumsum(steps)))
    return order[np.lexsort((m, ang[order], group))]


def eigenvalues(M) -> np.ndarray:
    """Eigenvalues of a square matrix, canonically ordered and residual-checked.

    Parameters
    ----------
    M : array_like
        Square matrix with finite entries.

    Returns
    -------
    ndarray
        The eigenvalues sorted by ascending modulus, ties by ascending angle.

    Raises
    ------
    ValueError
        If the QR iteration fails to converge or the residual
        ``max_i ||M v_i - w_i v_i||_2`` over the solver's unit right
        eigenvectors exceeds ``config.EIG_RESIDUAL_TOL`` times
        ``max(1, ||M||_2)``.  That factor is at least 1, so ``||M||_2`` (an
        SVD) is computed only for a residual above the tolerance itself.
    """
    A = _as_matrix(M, "M", square=True)
    if A.shape[0] == 0:
        return np.zeros(0, dtype=complex)
    try:
        w, V = np.linalg.eig(A)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise ValueError(f"eigenvalue iteration failed: {exc}") from exc
    # numpy returns unit-norm eigenvector columns; the residual is then an
    # absolute backward-error figure.
    res = float(np.linalg.norm(A @ V - V * w, axis=0).max())
    if res > config.EIG_RESIDUAL_TOL:
        scale = max(1.0, float(np.linalg.norm(A, 2)))
        if res > config.EIG_RESIDUAL_TOL * scale:
            raise ValueError(f"eigenvalue residual {res:.3e} exceeds tolerance "
                             f"{config.EIG_RESIDUAL_TOL * scale:.3e}")
    return w[_canonical_order(w)]


def unstable_part(values, what: str, repeats: bool = False) -> np.ndarray:
    """The values of a spectrum outside the unit circle, in their order;
    ValueError, naming them ``what``, for a value within ``UNIT_CIRCLE_BAND``
    of the circle or, unless ``repeats``, two unstable ones within
    ``ZERO_SEPARATION_TOL``."""
    values = np.asarray(values)
    mods = np.abs(values)
    if (np.abs(mods - 1.0) < config.UNIT_CIRCLE_BAND).any():
        raise ValueError(f"{what} within 1e-9 of the unit circle")
    out = values[mods > 1.0]
    if repeats or out.size < 2:
        return out
    # every value is within the tolerance of itself: a pair is close when
    # more than the diagonal is
    close = np.abs(out[:, None] - out[None, :]) <= config.ZERO_SEPARATION_TOL
    if np.count_nonzero(close) > out.size:
        raise ValueError(f"repeated unstable {what}: not supported")
    return out


def channel_zero(zero, poles) -> complex:
    """A channel's zero as a complex number; ValueError unless it lies at
    least ``UNIT_CIRCLE_BAND`` outside the unit circle and ``1e-9 max(1,
    |zeta|)`` from ``poles``."""
    z = complex(zero)
    if abs(z) - 1.0 < config.UNIT_CIRCLE_BAND:
        raise ValueError(f"channel zero {z} must lie at least 1e-9 outside the unit circle")
    if np.abs(np.asarray(poles) - z).min(initial=np.inf) < 1e-9 * max(1.0, abs(z)):
        raise ValueError(f"channel zero {z} collides with a pole")
    return z


def spectral_radius(M) -> float:
    """Largest eigenvalue modulus of a square matrix."""
    A = _as_matrix(M, "M", square=True)
    if A.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(A))))


def solve_stein(A, Q) -> np.ndarray:
    """Solve the discrete-time Stein equation ``A* P A - P + Q = 0``.

    The equation is vectorized into the linear system
    ``(kron(A^T, A^*) - I) vec(P) = -vec(Q)`` and solved densely, which is
    exact up to conditioning for the moderate orders this package uses.

    Parameters
    ----------
    A : array_like
        Square matrix with spectral radius strictly below one.
    Q : array_like
        Right-hand side of the same order (typically ``C* C``).

    Returns
    -------
    ndarray
        The unique solution ``P``.

    Raises
    ------
    ValueError
        If ``rho(A) >= 1 - 1e-12``, the order exceeds the dense-solver cap,
        or the verified backward error (defect norm over the magnitudes
        entering its evaluation) exceeds ``config.STEIN_RESIDUAL_TOL`` after
        iterative refinement.
    """
    A = _as_matrix(A, "A", square=True)
    Q = _as_matrix(Q, "Q", square=True)
    n = A.shape[0]
    if Q.shape[0] != n:
        raise ValueError(f"A and Q orders differ: {n} vs {Q.shape[0]}")
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    if n > MAX_STEIN_ORDER:
        raise ValueError(f"order {n} exceeds dense Stein solver cap {MAX_STEIN_ORDER}")
    rho = spectral_radius(A)
    if rho >= 1.0 - config.STEIN_RADIUS_MARGIN:
        raise ValueError(f"spectral radius {rho:.12f} is not strictly below one")
    # vec is column-major here: vec(A* P A) = (A^T kron A^*) vec(P).
    AH = A.conj().T
    op = np.kron(A.T, AH) - np.eye(n * n)
    lu = sla.lu_factor(op)

    def solve(rhs):
        return sla.lu_solve(lu, -rhs.reshape(n * n, order="F")).reshape((n, n), order="F")

    a_gain = 1.0 + np.linalg.norm(A, 2) ** 2
    qnorm = np.linalg.norm(Q)

    def backward_error(P, defect):
        # normalize by the magnitudes entering the defect evaluation; a
        # residual relative to Q alone misreports solves whose solution
        # norm dwarfs the right-hand side
        return np.linalg.norm(defect) / max(1.0, a_gain * np.linalg.norm(P) + qnorm)

    P = solve(Q)
    defect = AH @ P @ A - P + Q
    res = backward_error(P, defect)
    # iterative refinement: rounding error from the dense solve leaves a
    # defect the factored operator can be re-applied to; stop as soon as the
    # tolerance holds or the defect stagnates
    for _ in range(3):
        if res <= config.STEIN_RESIDUAL_TOL:
            break
        P = P + solve(defect)
        defect = AH @ P @ A - P + Q
        new_res = backward_error(P, defect)
        if new_res >= 0.5 * res:
            res = min(res, new_res)
            break
        res = new_res
    if res > config.STEIN_RESIDUAL_TOL:
        raise ValueError(f"Stein residual {res:.3e} exceeds {config.STEIN_RESIDUAL_TOL:.1e}")
    return P
