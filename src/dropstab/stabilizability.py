"""Mean-square stabilizability over independent packet-drop channels.

A plant input channel j delivers its signal with probability ``1 - p_j`` and
drops it otherwise, i.i.d. over time and channels.  This module answers, for
a given dropout-probability vector, whether any LTI controller keeps the
closed loop mean-square stable, and builds the optimal Youla parameter and
controller when one exists.

Two complementary certificates are computed:

* a union of hyper-rectangles, one per channel-ordered decomposition of the
  plant, whose corner coordinates are closed forms in the unstable poles
  and the zero each channel carries (cheap, conservative);
* a channel-scaling search (``membership``) that tests the exact
  spectral-radius condition via the Frobenius-like bound
  ``max_j p_j (phi_jj + 1) < 1`` over diagonal scalings, refining a coarse
  log-space grid.  The whole grid is one stacked evaluation of phi, and
  its incumbent is the first minimum in lexicographic order.  With two
  channels the Pick matrix is linear in ``gamma_2^-2``, and one k-by-k
  generalized eigenproblem gives the scaling where the two channel terms
  cross (``ScalingProblem.crossing``), the exact minimizer; with three or
  four channels, or where that pencil fails, a simplex descent refines.

``phi_jj`` is the diagonal of the all-pass factor of the scaled coprime
factor ``Gamma M Gamma^{-1}``.  The search evaluates it in closed form from
the Pick data of M (``ScalingProblem.phi``): with ``lambda_1..lambda_k`` the
unstable zeros of M, ``w_i`` the left null vectors of ``M(lambda_i)`` and
``Y = Gamma^{-1} W``, ``phi_jj = x_j Pi^{-1} x_j*`` where
``Pi_ik = y_i* y_k / (lambda_i conj(lambda_k) - 1)`` and ``x_j`` is row j
of Y weighted entrywise by ``(zeta_j conj(lambda_i) - 1)/(conj(zeta_j) -
conj(lambda_i))`` (1 on a clean channel).  One k-by-k factorization replaces
an inner-outer split per point, and a stack of scalings (the grid, the
region sweep) takes one stacked factorization.  ``ScalingProblem.value``,
the check run on a certificate before synthesis, keeps the inner-outer
route, so every certificate is re-checked by an independent computation.

``synthesize`` turns a certifying scaling into the controller: the optimal
Youla parameter over a doubly-coprime factorization of the plant with the
channel success rates applied.

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
    bezout,
    coprime_factorize,
    enumerate_wonham_forms,
    gamma_scale,
    inner_outer,
    observer_gain,
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
    scale_io,
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
    "Synthesis",
    "closed_loop_map",
    "controller",
    "max_blocking_probability",
    "membership",
    "mp_supremum",
    "ms_radius",
    "phi_diag_entry",
    "rectangle_set",
    "rectangle_vertex",
    "sweep_bounds",
    "synthesize",
    "synthesize_Q",
    "t_hat",
    "union_membership",
]

MAX_SEARCH_CHANNELS = 4
# the two-channel crossing: Illinois steps on log10 gamma_2 stop once the
# bracket is this narrow, or after this many steps
CROSSING_XTOL = 1e-12
CROSSING_MAX_STEPS = 100


@dataclass(frozen=True)
class ChannelSpec:
    """Dropout probabilities of the independent input channels."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float).reshape(-1)
        if p.size == 0:
            raise ValueError("need at least one channel")
        if not np.all(np.isfinite(p)):
            raise ValueError("dropout probabilities must be finite")
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
    problem: ScalingProblem = field(compare=False, repr=False)
    """The scaled coprime factor the search ran on; reusable for the same
    plant and zeros."""
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
    unstable: tuple         # the unstable poles lambda_i, in canonical order


# ---------------------------------------------------------------------------
# the phi diagonal


def phi_diag_entry(sys, zero: Optional[complex], channel: int = 0) -> float:
    """Diagonal entry of the dropout-sensitivity matrix for one channel.

    Parameters
    ----------
    sys : StateSpaceModel
        Balanced all-pass model.
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


# ---------------------------------------------------------------------------
# rectangles


def _channel_bound(lams, zero) -> float:
    """Corner coordinate ``1/(phi + 1)`` of a channel that carries the
    unstable eigenvalues ``lams`` (repeats allowed) and the zero ``zero``.

    With ``b(z) = prod (z - lambda)/(conj(lambda) z - 1)``,
    ``phi + 1 = prod |lambda|^2 + (|zeta|^2 - 1) |b(0) - b(1/conj(zeta))|^2``,
    without the second term on a clean channel.  ValueError for a zero in
    the closed unit disc or within ``1e-9 max(1, |zeta|)`` of a carried
    eigenvalue.
    """
    lam = np.asarray(lams, dtype=complex).reshape(-1)
    total = float(np.prod(np.abs(lam))) ** 2
    if zero is not None:
        z = complex(zero)
        if abs(z) <= 1.0:
            raise ValueError(f"channel zero {z} must lie outside the unit circle")
        if lam.size and np.min(np.abs(lam - z)) < 1e-9 * max(1.0, abs(z)):
            raise ValueError(f"channel zero {z} collides with a pole it carries")
        w = 1.0 / np.conj(z)
        gap = np.prod(lam) - np.prod((w - lam) / (np.conj(lam) * w - 1.0))
        total += (abs(z) ** 2 - 1.0) * abs(gap) ** 2
    return 1.0 / total


def rectangle_vertex(form: WonhamForm, zeros) -> np.ndarray:
    """Corner coordinates of one decomposition's admissible rectangle.

    Channel j's coordinate is the ``_channel_bound`` of the unstable
    eigenvalues it carries in this decomposition and of its zero; a fully
    stable allocation yields coordinate 1.
    """
    lam = form.lambda_by_channel()
    if len(zeros) != form.n_channels:
        raise ValueError(f"need {form.n_channels} channel zeros, got {len(zeros)}")
    return np.array([_channel_bound(lam[j], z) for j, z in enumerate(zeros)])


def rectangle_set(plant: StateSpaceModel, zeros) -> RectangleSet:
    """All admissible rectangles over the distinct decompositions."""
    forms = enumerate_wonham_forms(plant)
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
    unstable = tuple(v for v in eigenvalues(plant.A).values if abs(v) > 1.0)
    # scalar abs: the vectorised complex abs can differ in the last bit
    moduli = [abs(v) for v in unstable]
    return MpSupremum(derived_bound=_channel_bound(moduli, None),
                      stated_bound=1.0 / float(np.prod(moduli)),
                      unstable=unstable)


# ---------------------------------------------------------------------------
# membership search


def _grid_then_refine(objective, ndim: int, pencil=None):
    """Coarse grid, then one refinement, over log10-scaling space.

    ``objective`` takes one point of shape (ndim,) and returns a float, or a
    stack of shape (N, ndim) and returns N values; a stack raises ValueError
    where a point would fail.  The grid is one stacked call in lexicographic
    order, point by point only if that call raises.  Its incumbent is the
    first minimum in that order (the point a scan keeping only strict
    improvements ends on), or the origin when every grid value is infinite.

    ``pencil``, if given, returns the point the two-channel pencil
    proposes, or raises ValueError saying why it cannot.  That point costs
    one objective call and replaces the incumbent if strictly better.  When
    there is no pencil point, or the objective fails at it, a simplex
    descent from the incumbent refines point by point instead; the log
    names the refinement that ran (``"refine"``) and the reason of a
    fallback (``"refine_fallback"``).  Returns (best_value, best_x, log).
    """
    if ndim == 0:
        x0 = np.zeros(0)
        return float(objective(x0)), x0, {"grid_points": 1, "refine_evals": 0,
                                          "refine": "none"}
    grid_points = config.GAMMA_GRID_POINTS
    axis = np.linspace(config.GAMMA_LOG_MIN, config.GAMMA_LOG_MAX, grid_points)
    grid = np.array(list(itertools.product(axis, repeat=ndim)))
    try:
        values = objective(grid)
    except ValueError:
        values = np.array([objective(x) for x in grid])
    first = int(np.argmin(values))
    best_val = float(values[first])
    best_x = grid[first] if best_val < math.inf else np.zeros(ndim)
    log = {"grid_points": len(grid), "grid_best": best_val, "refine_evals": 0}
    if pencil is not None:
        try:
            x = pencil()
        except ValueError as exc:
            log["refine_fallback"] = f"no pencil point: {exc}"
        else:
            val = objective(x)
            log["refine_evals"] = 1
            if val < math.inf:
                log["refine"] = "pencil"
                if val < best_val:
                    best_val, best_x = val, x
                return best_val, best_x, log
            log["refine_fallback"] = "phi failed at the pencil point"
    log["refine"] = "simplex"
    step = 0.25
    simplex = [best_x] + [best_x + step * np.eye(ndim)[i] for i in range(ndim)]
    # failed points are inf, and the convergence test subtracts inf from inf
    with np.errstate(invalid="ignore"):
        res = scipy.optimize.minimize(
            objective, best_x, method="Nelder-Mead",
            options={
                "maxfev": config.GAMMA_REFINE_MAXFEV,
                "initial_simplex": np.asarray(simplex),
                "xatol": 1e-6,
                "fatol": 1e-12,
            },
        )
    log["refine_evals"] += int(res.nfev)
    if res.fun < best_val:
        best_val = float(res.fun)
        best_x = np.asarray(res.x)
    return best_val, best_x, log


def _clip_log(x) -> np.ndarray:
    return np.clip(x, config.GAMMA_LOG_MIN, config.GAMMA_LOG_MAX)


@dataclass(frozen=True)
class ScalingProblem:
    """The plant's right coprime factor M and its channel zeros: evaluates
    the diagonal ``phi`` of the all-pass factor of the scaled factor
    ``diag(gamma) M diag(gamma)^{-1}`` at any channel scaling ``gamma``.

    The Pick data of M are computed once, at construction: the unstable
    zeros ``lambda_i`` of M (the plant's unstable poles), the left null
    vectors ``w_i`` of ``M(lambda_i)`` as the columns of W, the Cauchy
    kernel ``1/(lambda_i conj(lambda_k) - 1)`` and the channel weights
    ``(zeta_j conj(lambda_i) - 1)/(conj(zeta_j) - conj(lambda_i))``, which
    are 1 on a clean channel.  Scaling keeps each ``lambda_i`` and maps W
    to ``Y = diag(gamma)^{-1} W``, so ``phi`` needs one k-by-k Cholesky
    factorization of the Pick matrix ``Pi = (Y* Y) o kernel``:
    ``phi_jj = x_j Pi^{-1} x_j*`` with ``x_j`` row j of Y times the weights.
    On a clean channel of a decoupled plant this is the product bound
    ``phi_jj + 1 = prod |lambda_i|^2``.

    ``value`` evaluates phi through the inner-outer split of the scaled
    factor instead: it is the check a certificate passes before synthesis,
    and an independent route there re-checks every certificate the closed
    form found.

    Raises
    ------
    ValueError
        At construction, for a wrong number of zeros, a zero of M within
        ``UNIT_CIRCLE_BAND`` of the unit circle, two unstable zeros of M
        closer than ``ZERO_SEPARATION_TOL``, or a channel zero inside the
        closed unit disc or within ``1e-9 max(1, |zeta|)`` of an unstable
        zero of M.
    """

    M: StateSpaceModel
    zeros: tuple
    _lam: np.ndarray = field(init=False, repr=False, compare=False)
    _W: np.ndarray = field(init=False, repr=False, compare=False)
    _kernel: np.ndarray = field(init=False, repr=False, compare=False)
    _weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        M, r = self.M, self.M.n_inputs
        if len(self.zeros) != r:
            raise ValueError(f"need {r} channel zeros, got {len(self.zeros)}")
        poles = eigenvalues(inverse(M).A).values if M.order else np.zeros(0, complex)
        if np.any(np.abs(np.abs(poles) - 1.0) < config.UNIT_CIRCLE_BAND):
            raise ValueError("plant pole within 1e-9 of the unit circle")
        lam = poles[np.abs(poles) > 1.0]
        gaps = np.abs(lam[:, None] - lam[None, :])[np.triu_indices(lam.size, 1)]
        if np.any(gaps <= config.ZERO_SEPARATION_TOL):
            raise ValueError("repeated unstable pole: not supported")
        weights = np.ones((r, lam.size), dtype=complex)
        for j, z in enumerate(self.zeros):
            if z is None:
                continue
            z = complex(z)
            if abs(z) <= 1.0:
                raise ValueError(f"channel zero {z} must lie outside the unit circle")
            if lam.size and np.min(np.abs(lam - z)) < 1e-9 * max(1.0, abs(z)):
                raise ValueError(f"channel zero {z} collides with an unstable pole")
            weights[j] = (z * np.conj(lam) - 1.0) / (np.conj(z) - np.conj(lam))
        W = np.empty((r, lam.size), dtype=complex)
        for i, v in enumerate(lam):
            U, _, _ = np.linalg.svd(evaluate(M, v))
            W[:, i] = U[:, -1]
        kernel = 1.0 / (lam[:, None] * np.conj(lam)[None, :] - 1.0)
        for name, value in (("_lam", lam), ("_W", W), ("_kernel", kernel),
                            ("_weights", weights)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_plant(cls, plant: StateSpaceModel, zeros) -> "ScalingProblem":
        """M built with the identity channel ordering and the default gain."""
        form = wonham_decompose(plant, tuple(range(plant.n_inputs)))
        M, _ = coprime_factorize(plant, wonham_gain(form))
        return cls(M=M, zeros=tuple(zeros))

    def phi(self, gamma) -> np.ndarray:
        """Per-channel ``phi_jj`` at the square-root scaling ``gamma``, in
        closed form; ValueError where the Pick matrix is not numerically
        positive definite or a value is not finite.

        ``gamma`` is one scaling of shape (r,) or a stack of N scalings of
        shape (N, r); the result has the same shape.  A stack takes one
        stacked factorization and one stacked solve, which run the same
        LAPACK routine on each slice, so every row equals the value of that
        scaling alone.  A stack raises if any of its rows would."""
        g = np.asarray(gamma, dtype=float)
        if (g.ndim not in (1, 2) or g.shape[-1] != len(self.zeros)
                or not np.all(np.isfinite(g) & (g > 0.0))):
            raise ValueError("gamma must hold one finite positive entry per channel")
        Y = self._W / np.atleast_2d(g)[:, :, None]
        try:
            L = np.linalg.cholesky((Y.conj().swapaxes(1, 2) @ Y) * self._kernel)
            Z = np.linalg.solve(L, (Y * self._weights).conj().swapaxes(1, 2))
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"Pick matrix factorization failed ({exc})") from exc
        phi = np.sum(np.abs(Z) ** 2, axis=1)
        if not np.all(np.isfinite(phi)):
            raise ValueError("phi has non-finite entries")
        return phi if g.ndim == 2 else phi[0]

    def crossing(self, p) -> float:
        """Two channels: the ``log10 gamma_2`` in the search box that
        minimizes ``max_j p_j (phi_jj + 1)``, from one k-by-k pencil.

        With ``d = gamma_2^-2`` the Pick matrix is ``B_1 + d B_2``, where
        ``B_j = (w_j* w_j) o kernel`` for row ``w_j`` of W.  The
        Hermitian-definite pencil ``(B_2, B_1 + B_2)`` has eigenvalues theta
        in [0, 1] and eigenvectors V with ``V* (B_1 + B_2) V = I``, so with
        ``u_j`` row j of W times the weights and ``den = (1 - theta) + d
        theta``, ``phi_11 = sum |u_1 V|^2 / den`` falls and ``phi_22 = d sum
        |u_2 V|^2 / den`` rises in d.  Their certificate terms cross once:
        Illinois steps on ``log10 gamma_2`` find the crossing, and where
        one term dominates across the whole box the box end that favours it
        is returned.  ValueError for another channel count, or where
        ``B_1 + B_2`` is not numerically positive definite or the pencil is
        not finite.
        """
        if len(self.zeros) != 2:
            raise ValueError("the pencil covers exactly two channels")
        p1, p2 = (float(v) for v in p)
        W, U = self._W, self._W * self._weights
        B1, B2 = ((np.outer(W[j].conj(), W[j]) * self._kernel) for j in (0, 1))
        try:
            Linv = np.linalg.inv(np.linalg.cholesky(B1 + B2))
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"B_1 + B_2 factorization failed ({exc})") from exc
        theta, Q = np.linalg.eigh(Linv @ B2 @ Linv.conj().T)
        V = Linv.conj().T @ Q
        a, b = (np.abs(U[j] @ V) ** 2 for j in (0, 1))
        if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(a))
                and np.all(np.isfinite(b))):
            raise ValueError("the pencil has non-finite entries")
        theta = np.clip(theta, 0.0, 1.0)
        rest = 1.0 - theta

        def gap(x):
            """``p_1 (phi_11 + 1) - p_2 (phi_22 + 1)``; rises with x."""
            d = 10.0 ** (-2.0 * x)
            den = rest + d * theta
            return p1 * (1.0 + np.sum(a / den)) - p2 * (1.0 + d * np.sum(b / den))

        lo, hi = config.GAMMA_LOG_MIN, config.GAMMA_LOG_MAX
        g_lo, g_hi = gap(lo), gap(hi)
        if g_lo >= 0.0:
            return lo
        if g_hi <= 0.0:
            return hi
        best, g_best = (lo, -g_lo) if -g_lo < g_hi else (hi, g_hi)
        f_lo, f_hi, side = g_lo, g_hi, 0
        for _ in range(CROSSING_MAX_STEPS):
            x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
            if not lo < x < hi:
                x = 0.5 * (lo + hi)
            g = gap(x)
            if abs(g) < g_best:
                best, g_best = x, abs(g)
            if g == 0.0 or hi - lo <= CROSSING_XTOL:
                break
            # Illinois: halve the stale end's value when a side repeats
            if g > 0.0:
                hi, f_hi = x, g
                if side > 0:
                    f_lo *= 0.5
                side = 1
            else:
                lo, f_lo = x, g
                if side < 0:
                    f_hi *= 0.5
                side = -1
        return best

    def value(self, gamma, p) -> float:
        """Certificate value ``max_j p_j (phi_jj + 1)``; below one certifies p.

        phi comes from the inner-outer split of the scaled factor, not from
        the closed form of ``phi``."""
        io = inner_outer(gamma_scale(self.M, gamma))
        phi = np.array([phi_diag_entry(io.inner, z, j)
                        for j, z in enumerate(self.zeros)])
        return float(np.max(p * (phi + 1.0)))


def membership(plant: StateSpaceModel, zeros,
               channels: ChannelSpec) -> StabilizabilityReport:
    """Search channel scalings for a mean-square stabilizability certificate.

    The verdict is ``member`` when some scaling gets
    ``max_j p_j (phi_jj + 1)`` strictly below one (guard 1e-9).  The plant is
    used with unit channel gains: the searched scaling absorbs the success
    probabilities, so the certificate is reusable across p (convert with
    ``gamma * (1 - p)`` before synthesis).

    The search scans a log-spaced grid (one stacked phi evaluation), then
    refines from its incumbent.  With two channels the refinement is the
    single point ``ScalingProblem.crossing`` proposes; with three or four
    channels, or where the pencil cannot be formed or phi fails at its
    point, it is a Nelder-Mead simplex.  ``search_log["refine"]`` names the
    refinement that ran, ``"refine_fallback"`` the reason the pencil was
    not used, and ``"refine_evals"`` counts its phi evaluations.  Every
    point, the pencil's included, is valued by the same closed form.

    Returns a report whose ``bounds`` are the per-channel admissible levels
    at the certificate; search exhaustion is reported as a non-member with
    the best value found, never as an exception.
    """
    r = plant.n_inputs
    if channels.r != r:
        raise ValueError(f"plant has {r} channels, spec has {channels.r}")
    if r > MAX_SEARCH_CHANNELS:
        raise ValueError(f"{r} channels exceeds the search cap {MAX_SEARCH_CHANNELS}")
    problem = ScalingProblem.from_plant(plant, zeros)
    p = channels.p
    failures = [0]
    evals = {}   # clipped log10 scaling -> (value, phi) at every finite point

    def objective(x):
        X = _clip_log(np.atleast_2d(x))
        try:
            phis = problem.phi(np.hstack([np.ones((len(X), 1)), 10.0 ** X]))
        except ValueError:
            if np.ndim(x) == 2:
                raise
            failures[0] += 1
            return math.inf
        vals = np.max(p * (phis + 1.0), axis=1)   # problem.value, phi kept
        for row, val, phi in zip(X, vals, phis):
            evals[tuple(row)] = (float(val), phi)
        return vals if np.ndim(x) == 2 else float(vals[0])

    pencil = (lambda: np.array([problem.crossing(p)])) if r == 2 else None
    best_val, best_x, log = _grid_then_refine(objective, r - 1, pencil)
    if math.isinf(best_val):
        raise ValueError("scaling search failed at every grid point; the plant "
                         "factorization does not admit the inner decomposition")
    best_x = _clip_log(best_x)
    # a copy: a row of the grid's stack would keep the whole stack alive
    phi = evals[tuple(best_x)][1].copy()
    log["objective_failures"] = failures[0]
    member = bool(best_val < 1.0 - config.MEMBER_GUARD)
    tame = None
    if member:
        # every finite objective value is recorded, so the point that made
        # the verdict is among these
        ok = [(x, v) for x, (v, _) in evals.items() if v < 1.0 - config.MEMBER_GUARD]
        x, _ = min(ok, key=lambda xv: (max((abs(c) for c in xv[0]), default=0.0),
                                       xv[1], xv[0]))
        tame = GammaScaling(np.concatenate([[1.0], 10.0 ** np.asarray(x)]))
    return StabilizabilityReport(
        member=member,
        best_value=float(best_val),
        certificate=GammaScaling(np.concatenate([[1.0], 10.0 ** best_x])),
        phi_diag=phi,
        bounds=1.0 / (phi + 1.0),
        search_log=log,
        problem=problem,
        tame_certificate=tame,
    )


def sweep_bounds(plant: StateSpaceModel, zeros, n_points: int = 481) -> np.ndarray:
    """Per-channel bound vectors over a dense scaling sweep (two channels).

    Returns an (n_points, 2) array of ``1/(phi_jj + 1)`` evaluated along
    ``log10 gamma_2`` uniformly spanning the search box, endpoints included.
    A dropout vector is certified by the sweep when some row dominates it
    strictly; this reproduces the membership decision rule with the scaling
    pool shared across all queried vectors.
    """
    if plant.n_inputs != 2:
        raise ValueError("the sweep helper covers exactly two channels")
    problem = ScalingProblem.from_plant(plant, zeros)
    logs = np.linspace(config.GAMMA_LOG_MIN, config.GAMMA_LOG_MAX, n_points)
    # scalar powers: the array power may differ in the last bit
    gammas = np.array([[1.0, 10.0 ** lg] for lg in logs])
    return 1.0 / (problem.phi(gammas) + 1.0)


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


def synthesize_Q(plant: StateSpaceModel, bez: DoublyCoprime, gamma,
                 zeros) -> StateSpaceModel:
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
    io = inner_outer(Mg)
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
        cols.append(minimal(Lj))
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
    S = minimal(S)
    if np.max(np.abs(S.D)) > 1e-6:
        raise ValueError("optimal parameter lost strict properness")
    S = StateSpaceModel(S.A, S.B, S.C, np.zeros((r, r)))
    Q = minimal(gamma_scale(zshift(S), 1.0 / g))
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


def controller(bez: DoublyCoprime,
               Q: Optional[StateSpaceModel] = None) -> StateSpaceModel:
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
    return minimal(StateSpaceModel(AK, BK, CK, DK))


@dataclass(frozen=True)
class Synthesis:
    """A controller designed at one certifying scaling, with the pieces the
    design went through."""

    plant_mu: StateSpaceModel   # plant with the channel success rates applied
    bez: DoublyCoprime          # its factor family, identity channel ordering
    gamma_true: np.ndarray      # plant-side scaling
    Q: StateSpaceModel          # optimal stable Youla parameter
    K: StateSpaceModel          # the controller


def synthesize(plant: StateSpaceModel, zeros, channels: ChannelSpec,
               gamma) -> Synthesis:
    """Controller for ``channels`` from a success-absorbed certificate ``gamma``.

    The plant's inputs are scaled by ``1 - p``, factored over the identity
    channel ordering, and the optimal parameter is built at the plant-side
    scaling ``gamma * (1 - p)`` (normalized), as in the paper's synthesis.
    """
    gamma_true = _true_gamma(np.asarray(gamma, dtype=float), channels)
    Gmu = scale_io(plant, None, np.diag(channels.mu))
    form = wonham_decompose(Gmu, tuple(range(plant.n_inputs)))
    bez = bezout(Gmu, wonham_gain(form), observer_gain(Gmu))
    Q = synthesize_Q(Gmu, bez, gamma_true, zeros)
    K = controller(bez, Q)
    return Synthesis(plant_mu=Gmu, bez=bez, gamma_true=gamma_true, Q=Q, K=K)


def closed_loop_map(plant: StateSpaceModel, K: StateSpaceModel) -> StateSpaceModel:
    """Input-side complementary map ``(I - K G)^{-1} K G``.

    Realized as ``(I - K G)^{-1} - I`` on the loop states (plant plus
    controller), so its state matrix is the genuine closed-loop matrix
    before reduction.
    """
    H = minimal(cascade(K, plant))
    r = H.n_inputs
    eye_minus = StateSpaceModel(H.A, H.B, -H.C, np.eye(r) - H.D)
    return minimal(add_constant(inverse(eye_minus), -np.eye(r)))


def t_hat(T: StateSpaceModel) -> np.ndarray:
    """Entrywise squared H2 norms, each on its own minimal reduction."""
    out = np.empty((T.n_outputs, T.n_inputs))
    for i in range(T.n_outputs):
        for j in range(T.n_inputs):
            out[i, j] = h2_norm_sq(minimal(subsystem(T, [i], [j])))
    return out


def ms_radius(that: np.ndarray, channels: ChannelSpec) -> float:
    """Spectral radius of the second-moment gain ``that @ diag(p/(1-p))``."""
    return spectral_radius(np.asarray(that) @ np.diag(channels.sigma_sq))
