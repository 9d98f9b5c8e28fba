"""Mean-square stabilizability over independent packet-drop channels.

A plant input channel j delivers its signal with probability ``1 - p_j`` and
drops it otherwise, i.i.d. over time and channels.  This module answers, for
a given dropout-probability vector, whether any LTI controller keeps the
closed loop mean-square stable, and builds the optimal Youla parameter and
controller when one exists.

Two complementary certificates are computed:

* a union of hyper-rectangles, one per channel-ordered decomposition of the
  plant, whose corner coordinates come from per-channel scalar all-pass data
  (cheap, conservative);
* a channel-scaling search that tests the exact spectral-radius condition
  via the Frobenius-like bound ``max_j p_j (phi_jj + 1) < 1`` over diagonal
  scalings, refining a coarse log-space grid with a simplex descent.

Scaling conventions: the searched scaling is *success-probability absorbed*
(the plant is used with unit channel gains; converting a certificate for
synthesis multiplies it by ``1 - p_j`` entrywise).  ``gamma`` vectors hold
the diagonal of the square-root scaling with ``gamma_1 = 1``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.optimize

from . import config
from .factorization import (
    DoublyCoprime,
    WonhamForm,
    _allpass_section,
    coprime_factorize,
    diagonal_inner,
    enumerate_wonham_forms,
    gamma_scale,
    inner_outer,
    wonham_decompose,
    wonham_gain,
)
from .numkernel import eigenvalues, spectral_radius
from .statespace import (
    StateSpaceModel,
    add_constant,
    balanced_truncate,
    blockdiag_systems,
    cascade,
    constant_system,
    evaluate,
    h2_norm_sq,
    hstack_systems,
    inverse,
    is_balanced_inner,
    minimal,
    parallel,
    stable_part,
    subsystem,
    zshift,
)

__all__ = [
    "ChannelSpec",
    "GammaScaling",
    "MpSupremum",
    "RectangleSet",
    "ScalingProblem",
    "StabilizabilityReport",
    "closed_loop_map",
    "controller",
    "max_blocking_probability",
    "membership",
    "mp_supremum",
    "ms_radius",
    "optimize_scaled_radius",
    "phi_diag_entry",
    "rectangle_set",
    "rectangle_vertex",
    "scaled_radius_bound",
    "siso_closed_form",
    "sweep_bounds",
    "synthesize_Q",
    "t_hat",
    "union_membership",
]

MAX_SEARCH_CHANNELS = 4


@dataclass(frozen=True)
class ChannelSpec:
    """Dropout probabilities of the independent input channels."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float).reshape(-1)
        if p.size == 0:
            raise ValueError("need at least one channel")
        if np.any(p < 0.0) or np.any(p >= 1.0):
            raise ValueError("dropout probabilities must lie in [0, 1)")
        p.setflags(write=False)
        object.__setattr__(self, "p", p)

    @property
    def r(self) -> int:
        return self.p.size

    @property
    def mu(self) -> np.ndarray:
        """Per-channel success probabilities 1 - p."""
        return 1.0 - self.p

    @property
    def sigma_sq(self) -> np.ndarray:
        """Variances p/(1-p) of the normalized multiplicative noise."""
        return self.p / (1.0 - self.p)


@dataclass(frozen=True)
class GammaScaling:
    """Diagonal square-root scaling, normalized to a unit first channel."""

    gamma: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=float).reshape(-1)
        if g.size == 0 or abs(g[0] - 1.0) > 1e-12:
            raise ValueError("gamma must be normalized with gamma_1 = 1")
        lo = 10.0 ** config.GAMMA_LOG_MIN
        hi = 10.0 ** config.GAMMA_LOG_MAX
        if np.any(g < lo * (1 - 1e-12)) or np.any(g > hi * (1 + 1e-12)):
            raise ValueError(f"gamma entries must lie in [{lo:g}, {hi:g}]")
        g.setflags(write=False)
        object.__setattr__(self, "gamma", g)


@dataclass(frozen=True)
class StabilizabilityReport:
    member: bool
    best_value: float
    certificate: GammaScaling
    phi_diag: np.ndarray
    bounds: np.ndarray
    search_log: dict = field(compare=False)
    tame_certificate: Optional[GammaScaling] = None
    """Least-extreme certifying scaling, set iff ``member``: preferred for
    synthesis, where the optimizer's railed points are ill-conditioned."""


@dataclass(frozen=True)
class RectangleSet:
    """Admissible hyper-rectangles, one per decomposition."""

    forms: tuple
    vertices: tuple   # per form: ndarray of per-channel corner coordinates
    volumes: tuple


@dataclass(frozen=True)
class MpSupremum:
    derived_bound: float    # prod |lambda_i|^{-2}, used by every internal check
    stated_bound: float     # prod |lambda_i|^{-1}, reported alongside
    unstable: tuple


# ---------------------------------------------------------------------------
# the phi diagonal


def phi_diag_entry(sys, zero: Optional[complex], channel: int = 0) -> float:
    """Diagonal entry of the dropout-sensitivity matrix for one channel.

    Parameters
    ----------
    sys : StateSpaceModel
        Balanced all-pass model (matrix or scalar block).
    zero : complex or None
        The channel's non-minimum-phase zero; None for a clean channel, in
        which case the degenerate feedthrough form applies.
    channel : int
        Which diagonal entry to return.

    Raises
    ------
    ValueError
        If the realization is not balanced-inner, the zero is inside the
        closed unit disc, or the zero collides with a reflected pole of the
        all-pass model.
    """
    if not is_balanced_inner(sys, tol=1e-6):
        raise ValueError("phi needs a balanced inner realization")
    r = sys.n_inputs
    if not 0 <= channel < r:
        raise ValueError(f"channel {channel} out of range for {r} channels")
    e = np.zeros(r)
    e[channel] = 1.0
    Di = np.linalg.inv(sys.D)
    if zero is None:
        val = e @ (Di.conj().T @ Di - np.eye(r)) @ e
        return float(np.real(val))
    z = complex(zero)
    if abs(z) <= 1.0:
        raise ValueError(f"channel zero {z} must lie outside the unit circle")
    if sys.order == 0:
        return 0.0
    W = np.linalg.inv(sys.A.conj().T)
    wpoles = np.linalg.eigvals(W)
    if np.min(np.abs(wpoles - z)) < 1e-9 * max(1.0, abs(z)):
        raise ValueError(f"channel zero {z} collides with a reflected pole")
    n = sys.order
    Nmat = (np.conj(z) * W - np.eye(n)) @ np.linalg.inv(z * np.eye(n) - W)
    G = sys.B @ Di
    val = (G @ e).conj().T @ (Nmat.conj().T @ Nmat) @ (G @ e)
    return float(np.real(val))


def siso_closed_form(lam: complex, zero: Optional[complex]) -> float:
    """Scalar-channel admissible bound in closed form.

    ``1 / (phi + 1)`` with ``phi = (|lam|^2 - 1) |conj(z) lam - 1|^2 / |z - lam|^2``
    for one unstable pole ``lam`` and one unstable zero ``z``; a clean channel
    degenerates to ``1/|lam|^2``.
    """
    al = abs(lam)
    if al <= 1.0:
        return 1.0
    if zero is None:
        return 1.0 / al ** 2
    z = complex(zero)
    phi = (al ** 2 - 1.0) * abs(np.conj(z) * lam - 1.0) ** 2 / abs(z - lam) ** 2
    return 1.0 / (phi + 1.0)


# ---------------------------------------------------------------------------
# rectangles


def rectangle_vertex(form: WonhamForm, zeros) -> np.ndarray:
    """Corner coordinates of one decomposition's admissible rectangle.

    Channel j's coordinate is ``1/(phi_j + 1)`` computed from the scalar
    all-pass over the unstable eigenvalues that channel carries in this
    decomposition; a fully stable allocation yields coordinate 1.
    """
    di = diagonal_inner(form)
    r = form.n_channels
    if len(zeros) != r:
        raise ValueError(f"need {r} channel zeros, got {len(zeros)}")
    out = np.empty(r)
    for j in range(r):
        phi = phi_diag_entry(di.blocks[j], zeros[j], 0)
        out[j] = 1.0 / (phi + 1.0)
    return out


def rectangle_set(plant: StateSpaceModel, zeros,
                  tol: float = config.STAIRCASE_RTOL) -> RectangleSet:
    """All admissible rectangles over the distinct decompositions."""
    forms = enumerate_wonham_forms(plant, tol)
    vertices = tuple(rectangle_vertex(f, zeros) for f in forms)
    volumes = tuple(float(np.prod(v)) for v in vertices)
    return RectangleSet(forms=tuple(forms), vertices=vertices, volumes=volumes)


def union_membership(rects: RectangleSet, p) -> tuple:
    """First rectangle covering p (closed comparison), or (False, None)."""
    p = np.asarray(p, dtype=float).reshape(-1)
    for idx, v in enumerate(rects.vertices):
        # closed inequality with a rounding guard so exact corners count
        if p.size == v.size and np.all(p <= v + 1e-12 * (1.0 + np.abs(v))):
            return True, idx
    return False, None


def max_blocking_probability(rects: RectangleSet) -> float:
    """Largest rectangle volume: the chance an oblivious adversary blocking
    each channel independently at its corner rate still lands inside."""
    return max(rects.volumes)


def mp_supremum(plant: StateSpaceModel, zeros) -> MpSupremum:
    """Critical simultaneous-dropout level for minimum-phase plants.

    Raises
    ------
    ValueError
        If any channel carries an unstable zero (not minimum phase).
    """
    if any(z is not None for z in zeros):
        raise ValueError("plant is not minimum phase: use the rectangle analysis")
    w = eigenvalues(plant.A).values
    unstable = tuple(abs(v) for v in w if abs(v) > 1.0)
    prod = float(np.prod(unstable)) if unstable else 1.0
    return MpSupremum(derived_bound=1.0 / prod ** 2, stated_bound=1.0 / prod,
                      unstable=unstable)


# ---------------------------------------------------------------------------
# scaled-radius bound (nonnegative matrices)


def scaled_radius_bound(W, gamma) -> float:
    """Weighted row-sum bound ``max_i sum_j W_ij g_j^2 / g_i^2 >= rho(W)``."""
    W = np.asarray(W, dtype=float)
    g = np.asarray(gamma, dtype=float).reshape(-1)
    if W.shape != (g.size, g.size):
        raise ValueError("gamma length must match W")
    if np.any(W < 0):
        raise ValueError("W must be elementwise nonnegative")
    v = g ** 2
    return float(np.max((W @ v) / v))


def _grid_then_simplex(objective, ndim: int):
    """Shared coarse-grid + simplex descent over log10-scaling space.

    Returns (best_value, best_x, log) with deterministic lexicographic
    tie-breaking (the grid is scanned in lexicographic order and only strict
    improvements move the incumbent).
    """
    if ndim == 0:
        x0 = np.zeros(0)
        return float(objective(x0)), x0, {"grid_points": 1, "refine_evals": 0}
    grid_points = config.GAMMA_GRID_POINTS
    axis = np.linspace(config.GAMMA_LOG_MIN, config.GAMMA_LOG_MAX, grid_points)
    best_val = math.inf
    best_x = np.zeros(ndim)
    for combo in itertools.product(axis, repeat=ndim):
        x = np.asarray(combo)
        val = objective(x)
        if val < best_val:
            best_val = val
            best_x = x
    log = {"grid_points": grid_points ** ndim, "grid_best": float(best_val)}
    step = 0.25
    simplex = [best_x] + [best_x + step * np.eye(ndim)[i] for i in range(ndim)]
    res = scipy.optimize.minimize(
        objective, best_x, method="Nelder-Mead",
        options={
            "maxfev": config.GAMMA_REFINE_MAXFEV,
            "initial_simplex": np.asarray(simplex),
            "xatol": 1e-6,
            "fatol": 1e-12,
        },
    )
    log["refine_evals"] = int(res.nfev)
    if res.fun < best_val:
        best_val = float(res.fun)
        best_x = np.asarray(res.x)
    return best_val, best_x, log


def _clip_log(x) -> np.ndarray:
    return np.clip(x, config.GAMMA_LOG_MIN, config.GAMMA_LOG_MAX)


def optimize_scaled_radius(W) -> tuple:
    """Best scaled row-sum bound over the scaling box; returns (value, gamma)."""
    W = np.asarray(W, dtype=float)
    r = W.shape[0]

    def objective(x):
        g = np.concatenate([[1.0], 10.0 ** _clip_log(x)])
        return scaled_radius_bound(W, g)

    val, x, _ = _grid_then_simplex(objective, r - 1)
    gamma = np.concatenate([[1.0], 10.0 ** _clip_log(x)])
    return val, gamma


# ---------------------------------------------------------------------------
# membership search


@dataclass(frozen=True)
class ScalingProblem:
    """The plant's right coprime factor M and its channel zeros: evaluates
    the diagonal ``phi`` of the all-pass factor of the scaled factor
    ``diag(gamma) M diag(gamma)^{-1}`` at any channel scaling ``gamma``."""

    M: StateSpaceModel
    zeros: tuple
    tol: float

    @classmethod
    def from_plant(cls, plant: StateSpaceModel, zeros,
                   tol: float = config.STAIRCASE_RTOL) -> "ScalingProblem":
        """M built with the identity channel ordering and the default gain."""
        r = plant.n_inputs
        if len(zeros) != r:
            raise ValueError(f"need {r} channel zeros, got {len(zeros)}")
        form = wonham_decompose(plant, tuple(range(r)), tol)
        M, _ = coprime_factorize(plant, wonham_gain(form), tol)
        return cls(M=M, zeros=tuple(zeros), tol=tol)

    def phi(self, gamma) -> np.ndarray:
        """Per-channel ``phi_jj`` at the square-root scaling ``gamma``;
        ValueError where the scaled factor has no usable all-pass factor."""
        io = inner_outer(gamma_scale(self.M, gamma), self.tol)
        return np.array([phi_diag_entry(io.inner, z, j)
                         for j, z in enumerate(self.zeros)])

    def value(self, gamma, p) -> float:
        """Certificate value ``max_j p_j (phi_jj + 1)``; below one certifies p."""
        return float(np.max(p * (self.phi(gamma) + 1.0)))


def membership(plant: StateSpaceModel, zeros, channels: ChannelSpec,
               tol: float = config.STAIRCASE_RTOL) -> StabilizabilityReport:
    """Search channel scalings for a mean-square stabilizability certificate.

    The verdict is ``member`` when some scaling gets
    ``max_j p_j (phi_jj + 1)`` strictly below one (guard 1e-9).  The plant is
    used with unit channel gains: the searched scaling absorbs the success
    probabilities, so the certificate is reusable across p (convert with
    ``gamma * (1 - p)`` before synthesis).

    Returns a report whose ``bounds`` are the per-channel admissible levels
    at the certificate; search exhaustion is reported as a non-member with
    the best value found, never as an exception.
    """
    r = plant.n_inputs
    if channels.r != r:
        raise ValueError(f"plant has {r} channels, spec has {channels.r}")
    if r > MAX_SEARCH_CHANNELS:
        raise ValueError(f"{r} channels exceeds the search cap {MAX_SEARCH_CHANNELS}")
    problem = ScalingProblem.from_plant(plant, zeros, tol)
    p = channels.p
    failures = [0]
    evals = []

    def objective(x):
        x = _clip_log(x)
        g = np.concatenate([[1.0], 10.0 ** x])
        try:
            val = problem.value(g, p)
        except ValueError:
            failures[0] += 1
            return math.inf
        evals.append((tuple(x), val))
        return val

    best_val, best_x, log = _grid_then_simplex(objective, r - 1)
    if math.isinf(best_val):
        raise ValueError("scaling search failed at every grid point; the plant "
                         "factorization does not admit the inner decomposition")
    gamma = np.concatenate([[1.0], 10.0 ** _clip_log(best_x)])
    phi = problem.phi(gamma)
    log["objective_failures"] = failures[0]
    member = bool(best_val < 1.0 - config.MEMBER_GUARD)
    tame = None
    if member:
        # every finite objective value is recorded, so the point that made
        # the verdict is among these
        ok = [(x, v) for x, v in evals if v < 1.0 - config.MEMBER_GUARD]
        x, _ = min(ok, key=lambda xv: (max((abs(c) for c in xv[0]), default=0.0),
                                       xv[1], xv[0]))
        tame = GammaScaling(np.concatenate([[1.0], 10.0 ** np.asarray(x)]))
    return StabilizabilityReport(
        member=member,
        best_value=float(best_val),
        certificate=GammaScaling(gamma),
        phi_diag=phi,
        bounds=1.0 / (phi + 1.0),
        search_log=log,
        tame_certificate=tame,
    )


def sweep_bounds(plant: StateSpaceModel, zeros, n_points: int = 481,
                 tol: float = config.STAIRCASE_RTOL) -> np.ndarray:
    """Per-channel bound vectors over a dense scaling sweep (two channels).

    Returns an (n_points, 2) array of ``1/(phi_jj + 1)`` evaluated along
    ``log10 gamma_2`` uniformly spanning the search box, endpoints included.
    A dropout vector is certified by the sweep when some row dominates it
    strictly; this reproduces the membership decision rule with the scaling
    pool shared across all queried vectors.
    """
    if plant.n_inputs != 2:
        raise ValueError("the sweep helper covers exactly two channels")
    problem = ScalingProblem.from_plant(plant, zeros, tol)
    logs = np.linspace(config.GAMMA_LOG_MIN, config.GAMMA_LOG_MAX, n_points)
    out = np.empty((n_points, 2))
    for i, lg in enumerate(logs):
        out[i] = 1.0 / (problem.phi(np.array([1.0, 10.0 ** lg])) + 1.0)
    return out


# ---------------------------------------------------------------------------
# synthesis


def _true_gamma(gamma_free: np.ndarray, channels: ChannelSpec) -> np.ndarray:
    """Convert a success-absorbed certificate into the plant-side scaling."""
    g = gamma_free * channels.mu
    return g / g[0]


def _peak_gain(sys: StateSpaceModel) -> float:
    """Rough largest singular value over a few unit-circle points."""
    val = 0.0
    for theta in np.linspace(0.0, np.pi, 5):
        try:
            H = evaluate(sys, np.exp(1j * theta))
        except ValueError:
            continue
        val = max(val, float(np.linalg.norm(H, 2)))
    return val


def synthesize_Q(plant: StateSpaceModel, bez: DoublyCoprime, gamma, zeros,
                 tol: float = config.STAIRCASE_RTOL) -> StateSpaceModel:
    """Optimal stable Youla parameter for a scaling certificate.

    Assembles the interpolation solution channel by channel: project the
    scaled ``M_out Xt`` onto strict properness, subtract each channel's
    single-pole residue term at its zero, recombine through the all-pass
    column weights and the shifted inverse of the left numerator factor.
    All unstable pole-zero cancellations are carried out by minimal
    reductions and verified.

    Parameters
    ----------
    plant : StateSpaceModel
        The loop plant (channel gains already applied, if any).
    bez : DoublyCoprime
        Factor family of that plant.
    gamma : array_like
        Square-root scaling diagonal (the plant-side scaling).
    zeros : sequence
        Per-channel unstable zero or None.

    Raises
    ------
    ValueError
        "unstable cancellation failure" when a reduction leaves unstable
        modes behind (ill-conditioned certificate), and the usual guards.
    """
    g = np.asarray(gamma, dtype=float).reshape(-1)
    r = plant.n_inputs
    Mg = gamma_scale(bez.M, g)
    io = inner_outer(Mg, tol)
    Dinv = np.linalg.inv(io.inner.D)
    Xtg = gamma_scale(bez.Xt, g)
    R = add_constant(cascade(io.outer, Xtg), -Dinv)
    if np.max(np.abs(R.D)) > 1e-6:
        raise ValueError("scaled outer*Xt is not biproper-compatible")
    R = StateSpaceModel(R.A, R.B, R.C, np.zeros((r, r)))
    cols = []
    for j in range(r):
        col = subsystem(R, np.arange(r), [j])
        if zeros[j] is None:
            cols.append(col)
            continue
        z = complex(zeros[j])
        # scalar (conj(z) zeta - 1)/(zeta - z) applied to the column
        ninv = StateSpaceModel([[z]], [[1.0]], [[abs(z) ** 2 - 1.0]], [[np.conj(z)]])
        Gj = cascade(col, ninv)
        v = (evaluate(R, z) @ np.eye(r)[:, [j]])
        res = StateSpaceModel([[z]], [[1.0]], v * (abs(z) ** 2 - 1.0),
                              np.zeros((r, 1)))
        Lj, dropped = stable_part(parallel(Gj, res, sign=-1.0))
        if dropped > 1e-6 * max(1.0, float(np.abs(v).max())):
            raise ValueError("unstable cancellation failure in a residue column")
        cols.append(minimal(Lj, tol))
    L = hstack_systems(cols)
    n_diag = blockdiag_systems([
        _allpass_section(zeros[j]) if zeros[j] is not None
        else StateSpaceModel(np.zeros((0, 0)), np.zeros((0, 1)),
                             np.zeros((1, 0)), [[1.0]])
        for j in range(r)
    ])
    zN = zshift(gamma_scale(bez.Nt, g))
    S = cascade(inverse(io.outer), cascade(cascade(L, n_diag), inverse(zN)))
    scale = max(1.0, _peak_gain(S))
    S, dropped = stable_part(S)
    if dropped > 1e-6 * scale:
        raise ValueError("unstable cancellation failure in the parameter")
    S = minimal(S, tol)
    if np.max(np.abs(S.D)) > 1e-6:
        raise ValueError("optimal parameter lost strict properness")
    S = StateSpaceModel(S.A, S.B, S.C, np.zeros((r, r)))
    Q = minimal(gamma_scale(zshift(S), 1.0 / g), tol)
    if Q.order and spectral_radius(Q.A) >= 1.0:
        raise ValueError("unstable cancellation failure in the parameter")
    # staircase elimination leaves borderline cancellation remnants behind;
    # a Hankel cleanup keeps the controller order tight without touching
    # the transfer function.  Near the admissibility frontier the parameter
    # carries near-unit poles whose Gramians the Stein solver may refuse;
    # the cleanup is opportunistic, so fall back to the uncleaned model.
    try:
        return balanced_truncate(Q)
    except ValueError:
        return Q


def controller(bez: DoublyCoprime, Q: Optional[StateSpaceModel] = None,
               tol: float = config.STAIRCASE_RTOL) -> StateSpaceModel:
    """Stabilizing controller ``(Xt - Q Nt)^{-1} (Yt - Q Mt)``.

    Realized directly in observer form with the parameter wrapped around
    the innovation (state count: plant order plus parameter order), which
    is equivalent to the fraction formula but avoids building explicit
    inverses.  With ``Q = None`` this is the central (observer-based)
    design.
    """
    AL = bez.Xt.A          # A - L C
    B = bez.Xt.B
    C = bez.Nt.C
    F = bez.F
    L = bez.L
    n = AL.shape[0]
    if Q is None:
        Q = constant_system(np.zeros((B.shape[1], C.shape[0])))
    Aq, Bq, Cq, Dq = Q.A, Q.B, Q.C, Q.D
    nq = Q.order
    AK = np.block([
        [AL - B @ F + B @ Dq @ C, B @ Cq],
        [Bq @ C, Aq],
    ])
    BK = np.vstack([L - B @ Dq, -Bq])
    CK = np.hstack([Dq @ C - F, Cq])
    DK = -Dq
    return minimal(StateSpaceModel(AK, BK, CK, DK), tol)


def closed_loop_map(plant: StateSpaceModel, K: StateSpaceModel,
                    tol: float = config.STAIRCASE_RTOL) -> StateSpaceModel:
    """Input-side complementary map ``(I - K G)^{-1} K G``.

    Realized as ``(I - K G)^{-1} - I`` on the loop states (plant plus
    controller), so its state matrix is the genuine closed-loop matrix
    before reduction.
    """
    H = minimal(cascade(K, plant), tol)
    r = H.n_inputs
    eye_minus = StateSpaceModel(H.A, H.B, -H.C, np.eye(r) - H.D)
    return minimal(add_constant(inverse(eye_minus), -np.eye(r)), tol)


def t_hat(T: StateSpaceModel, tol: float = config.STAIRCASE_RTOL) -> np.ndarray:
    """Entrywise squared H2 norms, each on its own minimal reduction."""
    out = np.empty((T.n_outputs, T.n_inputs))
    for i in range(T.n_outputs):
        for j in range(T.n_inputs):
            out[i, j] = h2_norm_sq(minimal(subsystem(T, [i], [j]), tol))
    return out


def ms_radius(that: np.ndarray, channels: ChannelSpec) -> float:
    """Spectral radius of the second-moment gain ``that @ diag(p/(1-p))``."""
    return spectral_radius(np.asarray(that) @ np.diag(channels.sigma_sq))
