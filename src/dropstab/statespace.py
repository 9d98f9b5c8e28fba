"""State-space and transfer-matrix machinery.

The two value types are :class:`TransferMatrix` (a grid of rational entries
given by descending-power coefficient lists) and :class:`StateSpaceModel`
(complex A, B, C, D).  Everything else is a pure function: realization,
evaluation, composition, staircase-based minimal reduction (which, unlike
Gramian balancing, is happy with unstable models), single-input pole
placement and the H2 norm.

Realization strategy: each input column gets a controllable-canonical block
over the product of its cell denominators, and :func:`minimal` then prunes
the stack down to McMillan degree.  The product denominator keeps all
arithmetic in exact convolutions of the given coefficients; cancellation is
left to the rank decisions of the staircase, where it is tolerance-controlled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import config
from .numkernel import eigenvalues, real_part, solve_stein, _as_matrix

__all__ = [
    "StateSpaceModel",
    "TransferMatrix",
    "add_constant",
    "balanced_truncate",
    "blockdiag_systems",
    "cascade",
    "evaluate",
    "h2_norm_sq",
    "hstack_systems",
    "inverse",
    "is_balanced_inner",
    "minimal",
    "parallel",
    "place_single_input",
    "realize",
    "scale_io",
    "stable_part",
    "subsystem",
    "transmission_zeros",
    "zshift",
]


@dataclass(frozen=True)
class StateSpaceModel:
    """Discrete-time model ``x+ = A x + B u``,  ``y = C x + D u``."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        A = _as_matrix(self.A, "A", square=True)
        B = _as_matrix(self.B, "B")
        C = _as_matrix(self.C, "C")
        D = _as_matrix(self.D, "D")
        n = A.shape[0]
        if B.shape[0] != n or C.shape[1] != n:
            raise ValueError(
                f"state dimension mismatch: A is {A.shape}, B {B.shape}, C {C.shape}"
            )
        if D.shape != (C.shape[0], B.shape[1]):
            raise ValueError(f"D must be {(C.shape[0], B.shape[1])}, got {D.shape}")
        for name, M in zip("ABCD", (A, B, C, D)):
            # data real to rounding is stored with an imaginary part of 0
            re = real_part(M) if M.imag.any() else None
            if re is not None:
                M = re.astype(complex)
            M.setflags(write=False)
            object.__setattr__(self, name, M)

    @property
    def order(self) -> int:
        return self.A.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.B.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.C.shape[0]


def _trim_poly(p) -> tuple[float, ...]:
    """Strip leading (highest-power) zero coefficients; keep at least one."""
    arr = [float(x) for x in p]
    while len(arr) > 1 and arr[0] == 0.0:
        arr.pop(0)
    return tuple(arr)


@dataclass(frozen=True)
class TransferMatrix:
    """Grid of real rational entries, coefficients in descending powers of z.

    ``num[i][j]`` / ``den[i][j]`` are coefficient tuples for output i, input j.
    """

    num: tuple
    den: tuple

    def __post_init__(self):
        num = tuple(tuple(_trim_poly(cell) for cell in row) for row in self.num)
        den = tuple(tuple(_trim_poly(cell) for cell in row) for row in self.den)
        if len(num) == 0 or len(num) != len(den):
            raise ValueError("num and den must be non-empty grids of equal shape")
        width = len(num[0])
        for rn, rd in zip(num, den):
            if len(rn) != width or len(rd) != width:
                raise ValueError("ragged transfer-matrix grid")
            for cell in rd:
                if cell[0] == 0.0:
                    raise ValueError("denominator has zero leading coefficient")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.num), len(self.num[0]))


# ---------------------------------------------------------------------------
# staircase machinery


def _staircase_threshold(mats) -> float:
    scale = max([1.0] + [float(np.linalg.norm(M)) for M in mats if M.size])
    return config.STAIRCASE_RTOL * scale


def _ctrb_staircase(A: np.ndarray, B: np.ndarray, thr: float):
    """Unitary T and controllable dimension nc with T*AT block-staircase.

    After the transform, ``(T* A T)[nc:, :nc]`` and ``(T* B)[nc:, :]`` vanish
    to within the rank threshold: the trailing block is unreachable.
    """
    n = A.shape[0]
    T = np.eye(n, dtype=complex)
    if n == 0:
        return T, 0
    Acur = A.astype(complex)
    Bcur = B.astype(complex)
    off = 0
    while off < n:
        U, s, _ = np.linalg.svd(Bcur, full_matrices=True)
        k = int(np.sum(s > thr))
        if k == 0:
            break
        T[:, off:] = T[:, off:] @ U
        Acur = U.conj().T @ Acur @ U
        off += k
        if off >= n:
            break
        Bcur = Acur[k:, :k]
        Acur = Acur[k:, k:]
    return T, off


def _controllable_part(A, B, C, thr):
    T, nc = _ctrb_staircase(A, B, thr)
    Ah = T.conj().T @ A @ T
    return Ah[:nc, :nc], (T.conj().T @ B)[:nc, :], (C @ T)[:, :nc]


def minimal(sys: StateSpaceModel) -> StateSpaceModel:
    """Remove unreachable and unobservable states by staircase truncation.

    Works for unstable models (no Gramians involved).  Rank decisions use the
    threshold ``config.STAIRCASE_RTOL * max(1, ||A||, ||B||, ||C||)``,
    computed once from the input model when the function is called.

    Parameters
    ----------
    sys : StateSpaceModel

    Returns
    -------
    StateSpaceModel
        A realization of the same transfer function with minimal state count
        (up to the rank tolerance).
    """
    thr = _staircase_threshold([sys.A, sys.B, sys.C])
    A, B, C = _controllable_part(sys.A, sys.B, sys.C, thr)
    # observable part = controllable part of the conjugate-transposed model
    Ad, Bd, Cd = _controllable_part(A.conj().T, C.conj().T, B.conj().T, thr)
    return StateSpaceModel(Ad.conj().T, Cd.conj().T, Bd.conj().T, sys.D)


# ---------------------------------------------------------------------------
# realization


def _column_block(nums, dens):
    """Controllable-canonical block for one input column.

    ``nums``/``dens`` are the column's cell coefficient tuples.  Uses the
    product of the cell denominators as the common denominator; minimal()
    cancels whatever is shared.
    """
    p = len(nums)
    d = np.array([1.0])
    for cell in dens:
        d = np.convolve(d, np.asarray(cell, dtype=float))
    lead_all = d[0]
    d = d / lead_all
    m = d.size - 1
    Dcol = np.zeros(p)
    rows = np.zeros((p, max(m, 1)))
    for i in range(p):
        full = np.asarray(nums[i], dtype=float)
        for k in range(p):
            if k != i:
                full = np.convolve(full, np.asarray(dens[k], dtype=float))
        full = full / lead_all
        if full.size - 1 > m:
            raise ValueError("improper entry: numerator degree exceeds denominator")
        if full.size - 1 == m:
            Dcol[i] = full[0]
            full = full - Dcol[i] * d
            full = full[1:]
        # ascending-power coefficients against the states [1, z, ..., z^(m-1)]
        asc = full[::-1]
        rows[i, : asc.size] = asc
    if m == 0:
        A = np.zeros((0, 0))
        b = np.zeros((0, 1))
        Crows = np.zeros((p, 0))
    else:
        A = np.zeros((m, m))
        A[:-1, 1:] = np.eye(m - 1)
        A[-1, :] = -d[1:][::-1]
        b = np.zeros((m, 1))
        b[-1, 0] = 1.0
        Crows = rows[:, :m]
    return A, b, Crows, Dcol


def realize(tf: TransferMatrix) -> StateSpaceModel:
    """Minimal state-space realization of a proper real transfer matrix.

    Raises
    ------
    ValueError
        If any entry is improper.
    """
    p, m = tf.shape
    blocks = [_column_block([tf.num[i][j] for i in range(p)],
                            [tf.den[i][j] for i in range(p)]) for j in range(m)]
    n = sum(blk[0].shape[0] for blk in blocks)
    A = np.zeros((n, n))
    B = np.zeros((n, m))
    C = np.zeros((p, n))
    D = np.zeros((p, m))
    off = 0
    for j, (Aj, bj, Cj, Dj) in enumerate(blocks):
        k = Aj.shape[0]
        A[off:off + k, off:off + k] = Aj
        B[off:off + k, j] = bj[:, 0]
        C[:, off:off + k] = Cj
        D[:, j] = Dj
        off += k
    return minimal(StateSpaceModel(A, B, C, D))


# ---------------------------------------------------------------------------
# evaluation, norms, inversion


def evaluate(sys: StateSpaceModel, z: complex) -> np.ndarray:
    """Frequency response ``D + C (zI - A)^{-1} B`` at a point.

    Raises
    ------
    ValueError
        If ``z`` lies within 1e-12 of an eigenvalue of A.
    """
    if sys.order == 0:
        return sys.D.copy()
    w = np.linalg.eigvals(sys.A)
    gap = float(np.min(np.abs(w - z)))
    if gap < config.EVALUATE_POLE_TOL:
        raise ValueError(f"evaluation point z={z} collides with a pole (gap {gap:.1e})")
    X = np.linalg.solve(z * np.eye(sys.order) - sys.A, sys.B)
    return sys.D + sys.C @ X


def h2_norm_sq(sys: StateSpaceModel) -> float:
    """Squared H2 norm ``sum_k ||g_k||_F^2`` of a stable model.

    Computed from the observability Gramian: ``trace(B* P B + D* D)`` with
    ``A* P A - P + C* C = 0``.
    """
    P = solve_stein(sys.A, sys.C.conj().T @ sys.C)
    val = np.trace(sys.B.conj().T @ P @ sys.B + sys.D.conj().T @ sys.D)
    return float(np.real(val))


def inverse(sys: StateSpaceModel) -> StateSpaceModel:
    """Inverse system; requires square, well-conditioned feedthrough."""
    D = sys.D
    if D.shape[0] != D.shape[1]:
        raise ValueError("inverse needs a square system")
    if D.size == 0:
        raise ValueError("inverse needs at least one channel")
    if np.linalg.cond(D) > config.INVERT_COND_MAX:
        raise ValueError("feedthrough is numerically singular")
    Di = np.linalg.inv(D)
    return StateSpaceModel(sys.A - sys.B @ Di @ sys.C, sys.B @ Di, -Di @ sys.C, Di)


def is_balanced_inner(sys: StateSpaceModel, tol: float) -> bool:
    """True when the stacked realization matrix has orthonormal columns."""
    S = np.block([[sys.A, sys.B], [sys.C, sys.D]])
    G = S.conj().T @ S
    return bool(np.max(np.abs(G - np.eye(G.shape[0]))) <= tol)


# ---------------------------------------------------------------------------
# composition


def cascade(g2: StateSpaceModel, g1: StateSpaceModel) -> StateSpaceModel:
    """Series interconnection ``g2 * g1`` (signal passes through g1 first)."""
    if g1.n_outputs != g2.n_inputs:
        raise ValueError(f"cascade mismatch: {g1.n_outputs} outputs into {g2.n_inputs} inputs")
    n1, n2 = g1.order, g2.order
    A = np.block([
        [g1.A, np.zeros((n1, n2))],
        [g2.B @ g1.C, g2.A],
    ])
    B = np.vstack([g1.B, g2.B @ g1.D])
    C = np.hstack([g2.D @ g1.C, g2.C])
    D = g2.D @ g1.D
    return StateSpaceModel(A, B, C, D)


def parallel(g1: StateSpaceModel, g2: StateSpaceModel, sign: float) -> StateSpaceModel:
    """``g1 + sign * g2`` with shared inputs and outputs."""
    if g1.n_inputs != g2.n_inputs or g1.n_outputs != g2.n_outputs:
        raise ValueError("parallel needs matching I/O dimensions")
    n1, n2 = g1.order, g2.order
    A = np.block([
        [g1.A, np.zeros((n1, n2))],
        [np.zeros((n2, n1)), g2.A],
    ])
    B = np.vstack([g1.B, g2.B])
    C = np.hstack([g1.C, sign * g2.C])
    D = g1.D + sign * g2.D
    return StateSpaceModel(A, B, C, D)


def subsystem(sys: StateSpaceModel, rows, cols) -> StateSpaceModel:
    """Select output rows and input columns (state unchanged)."""
    rows = np.atleast_1d(rows)
    cols = np.atleast_1d(cols)
    return StateSpaceModel(sys.A, sys.B[:, cols], sys.C[rows, :], sys.D[np.ix_(rows, cols)])


def scale_io(sys: StateSpaceModel, left=None, right=None) -> StateSpaceModel:
    """Constant output/input scaling ``left * G * right`` without order growth."""
    L = np.eye(sys.n_outputs) if left is None else _as_matrix(left, "left")
    R = np.eye(sys.n_inputs) if right is None else _as_matrix(right, "right")
    return StateSpaceModel(sys.A, sys.B @ R, L @ sys.C, L @ sys.D @ R)


def add_constant(sys: StateSpaceModel, K) -> StateSpaceModel:
    """``G + K`` for a constant matrix K (adjusts the feedthrough only)."""
    return StateSpaceModel(sys.A, sys.B, sys.C, sys.D + _as_matrix(K, "K"))


def hstack_systems(systems) -> StateSpaceModel:
    """Column-concatenate models that share output dimension: [G1 G2 ...]."""
    p = systems[0].n_outputs
    if any(g.n_outputs != p for g in systems):
        raise ValueError("hstack needs equal output dimensions")
    A = scipy.linalg.block_diag(*[g.A for g in systems])
    B = scipy.linalg.block_diag(*[g.B for g in systems])
    C = np.hstack([g.C for g in systems])
    D = np.hstack([g.D for g in systems])
    return StateSpaceModel(A, B, C, D)


def blockdiag_systems(systems) -> StateSpaceModel:
    """Diagonal interconnection diag(G1, G2, ...)."""
    A = scipy.linalg.block_diag(*[g.A for g in systems])
    B = scipy.linalg.block_diag(*[g.B for g in systems])
    C = scipy.linalg.block_diag(*[g.C for g in systems])
    D = scipy.linalg.block_diag(*[g.D for g in systems])
    return StateSpaceModel(A, B, C, D)


def zshift(sys: StateSpaceModel) -> StateSpaceModel:
    """Multiply a strictly proper model by z: ``(A, B, CA, CB)``."""
    scale = max(1.0, float(np.linalg.norm(sys.B)) * float(np.linalg.norm(sys.C)))
    if sys.D.size and np.max(np.abs(sys.D)) > 1e-7 * scale:
        raise ValueError("zshift requires a strictly proper model")
    return StateSpaceModel(sys.A, sys.B, sys.C @ sys.A, sys.C @ sys.B)


def stable_part(sys: StateSpaceModel) -> tuple:
    """Spectral projection onto the stable modes.

    Separates the state matrix into invariant subspaces inside and outside
    the unit circle (ordered Schur form plus a Sylvester decoupling) and
    drops the antistable block.  Intended for cleaning up cascades whose
    unstable modes cancel exactly in theory: the second return value
    measures how much transfer function was actually discarded (the
    antistable block's peak gain on the unit circle, absolute), which is
    zero up to rounding when the cancellation is genuine.

    Returns
    -------
    (StateSpaceModel, float)
        The stable subsystem and the discarded peak gain.
    """
    n = sys.order
    if n == 0:
        return sys, 0.0
    if not any(M.imag.any() for M in (sys.A, sys.B, sys.C, sys.D)):
        T, Z, sdim = scipy.linalg.schur(sys.A.real, output="real", sort="iuc")
        Bf, Cf = sys.B.real, sys.C.real
    else:
        T, Z, sdim = scipy.linalg.schur(sys.A, output="complex",
                                        sort=lambda w: abs(w) < 1.0)
        Bf, Cf = sys.B, sys.C
    if sdim == n:
        return sys, 0.0
    Bs = Z.conj().T @ Bf
    Cs = Cf @ Z
    T11, T12, T22 = T[:sdim, :sdim], T[:sdim, sdim:], T[sdim:, sdim:]
    # zero the coupling block with the similarity [[I, -X], [0, I]]
    X = scipy.linalg.solve_sylvester(T11, -T22, -T12)
    B1 = Bs[:sdim] - X @ Bs[sdim:]
    B2 = Bs[sdim:]
    C1 = Cs[:, :sdim]
    C2 = C1 @ X + Cs[:, sdim:]
    dropped = 0.0
    for theta in np.linspace(0.0, np.pi, 7):
        s = np.exp(1j * theta)
        H = C2 @ np.linalg.solve(s * np.eye(n - sdim, dtype=complex) - T22, B2)
        dropped = max(dropped, float(np.linalg.norm(H, 2)))
    return StateSpaceModel(T11, B1, C1, sys.D), dropped


def balanced_truncate(sys: StateSpaceModel) -> StateSpaceModel:
    """Drop Hankel-negligible states of a stable model.

    Square-root balanced reduction keeping singular values above 1e-9
    relative to the largest.  This only removes states whose input-output
    contribution is at rounding level (e.g. remnants of exact pole-zero
    cancellations that staircase elimination missed), so the transfer
    function is preserved to working precision.

    Raises
    ------
    ValueError
        If the model is not stable (Gramians undefined).
    """
    n = sys.order
    if n == 0:
        return sys
    Wc = solve_stein(sys.A.conj().T, sys.B @ sys.B.conj().T)
    Wo = solve_stein(sys.A, sys.C.conj().T @ sys.C)

    def factor(W):
        w, V = np.linalg.eigh((W + W.conj().T) / 2.0)
        return V * np.sqrt(np.clip(w, 0.0, None))

    Lc = factor(Wc)
    Lo = factor(Wo)
    U, s, Vh = np.linalg.svd(Lo.conj().T @ Lc)
    k = int(np.count_nonzero(s > 1e-9 * s[0])) if s.size else 0
    if k == n:
        return sys
    if k == 0:
        return StateSpaceModel(np.zeros((0, 0)), np.zeros((0, sys.n_inputs)),
                               np.zeros((sys.n_outputs, 0)), sys.D)
    si = 1.0 / np.sqrt(s[:k])
    T = Lc @ Vh.conj().T[:, :k] * si
    Ti = (U[:, :k] * si).conj().T @ Lo.conj().T
    return StateSpaceModel(Ti @ sys.A @ T, Ti @ sys.B, sys.C @ T, sys.D)


# ---------------------------------------------------------------------------
# placement and zeros


def place_single_input(A, b, targets) -> np.ndarray:
    """Gain row f with ``eig(A + b f) = targets`` for a single-input pair.

    Ackermann's formula applied after a controllability-staircase change of
    basis (which both certifies controllability and conditions the
    Krylov matrix).

    Parameters
    ----------
    A : array_like, square
    b : array_like
        Column (n,) or (n, 1).
    targets : sequence of complex
        Desired closed-loop eigenvalues, one per state.

    Returns
    -------
    ndarray, shape (n,)

    Raises
    ------
    ValueError
        Dimension mismatch, uncontrollable pair, or placement residual
        beyond 1e-7.
    """
    A = _as_matrix(A, "A", square=True)
    b = np.asarray(b, dtype=complex).reshape(-1, 1)
    n = A.shape[0]
    if b.shape[0] != n:
        raise ValueError(f"b has {b.shape[0]} rows, expected {n}")
    targets = np.asarray(list(targets), dtype=complex)
    if targets.size != n:
        raise ValueError(f"need {n} targets, got {targets.size}")
    if n == 0:
        return np.zeros(0)
    thr = _staircase_threshold([A, b])
    T, nc = _ctrb_staircase(A, b, thr)
    if nc != n:
        raise ValueError(f"uncontrollable pair: reachable dimension {nc} < {n}")
    Ah = T.conj().T @ A @ T
    bh = T.conj().T @ b
    # factored form of the target polynomial: far better conditioned than
    # expanding to coefficients and Horner-evaluating
    phi = np.eye(n, dtype=complex)
    for t in targets:
        phi = phi @ (Ah - t * np.eye(n))
    K = np.empty((n, n), dtype=complex)
    v = bh[:, 0]
    for k in range(n):
        K[:, k] = v
        v = Ah @ v
    en = np.zeros(n)
    en[-1] = 1.0
    row = np.linalg.solve(K.T, en)
    f = -(row @ phi) @ T.conj().T
    f_real = real_part(f)
    if f_real is not None:
        f = f_real
    achieved = eigenvalues(A + b @ f.reshape(1, -1))
    wanted = eigenvalues(np.diag(targets))
    err = float(np.max(np.abs(achieved - wanted)))
    if err > 1e-7 * max(1.0, float(np.max(np.abs(targets)))):
        raise ValueError(f"placement residual {err:.2e} too large")
    return np.asarray(f).reshape(-1)


def transmission_zeros(sys: StateSpaceModel) -> np.ndarray:
    """Finite transmission zeros of a square model via the system pencil.

    Generalized eigenvalues of ``[[A, B], [C, D]] - z [[I, 0], [0, 0]]``;
    pairs with vanishing beta (zeros at infinity) are dropped.  Feed a
    minimal realization, otherwise input/output-decoupling zeros leak in.
    """
    if sys.n_inputs != sys.n_outputs:
        raise ValueError("transmission zeros defined here for square systems only")
    n, m = sys.order, sys.n_inputs
    M1 = np.block([[sys.A, sys.B], [sys.C, sys.D]])
    M2 = np.zeros((n + m, n + m), dtype=complex)
    M2[:n, :n] = np.eye(n)
    alpha, beta = scipy.linalg.eig(M1, M2, right=False, homogeneous_eigvals=True)
    finite = np.abs(beta) > 1e-9 * (1.0 + np.abs(alpha))
    z = alpha[finite] / beta[finite]
    order = np.lexsort((np.angle(z), np.abs(z)))
    return z[order]
