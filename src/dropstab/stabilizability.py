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
  ``max_j p_j (phi_jj + 1) < 1`` over diagonal scalings, each stack of
  points one stacked evaluation of phi, the incumbent its first minimum in
  lexicographic order.  With two channels the Pick matrix is linear in
  ``gamma_2^-2``, and one k-by-k generalized eigenproblem gives the
  scaling where the two channel terms cross (``ScalingProblem.crossing``,
  plain Newton steps), the exact minimizer, valued in one stack with a
  log-spaced axis, the pencil's point last; with three or more channels,
  or where that pencil fails (the axis is then valued alone), a stencil of
  points around the incumbent, spanning the box at first and shrinking
  each round, refines.

``phi_jj`` is the diagonal of the all-pass factor of the scaled coprime
factor ``Gamma M Gamma^{-1}``.  The search evaluates it in closed form from
the Pick data of M, which are the plant's own, held once as a linear pencil
(``ScalingProblem``): with ``d = gamma^-2`` entrywise, the Pick matrix is
``Pi(d) = sum_j d_j B_j`` and ``phi_jj = d_j u_j Pi(d)^{-1} u_j*``, for
Hermitian parts ``B_j`` and rows ``u_j`` fixed per channel.  So the search
builds no decomposition, gain or coprime factor; one k-by-k factorization
replaces an inner-outer split per point, and a stack of scalings (a stencil
round, the region sweep) takes one stacked factorization; a scaling where
it fails is valued ``inf``.  ``certificate_value``, the check run on a
certificate before synthesis, builds M and keeps the inner-outer route, so
every certificate is re-checked by an independent computation.

``synthesize`` is the one design call: it takes a certifying scaling (or
searches for one), re-checks it, builds the controller (the optimal Youla
parameter over a doubly-coprime factorization of the plant with the channel
success rates applied) and returns the closed loop with both of its
stability radii.

Scaling conventions: the searched scaling is *success-probability absorbed*
(the plant is used with unit channel gains; converting a certificate for
synthesis multiplies it by ``1 - p_j`` entrywise).  ``gamma`` vectors hold
the diagonal of the square-root scaling with ``gamma_1 = 1``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.optimize  # noqa: F401 -- unused; perfbench's import.scipy_optimize_s probe needs it

from . import config
from .factorization import (
    MAX_CHANNELS,
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
from .numkernel import channel_zero, eigenvalues, spectral_radius, unstable_part
from .statespace import (
    StateSpaceModel,
    add_constant,
    balanced_truncate,
    blockdiag_systems,
    cascade,
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
    _staircase_steps,
    _staircase_threshold,
)
from .verification import StochasticClosedLoop, assemble, second_moment_radius

__all__ = [
    "ChannelSpec",
    "GammaScaling",
    "NotCertified",
    "RectangleSet",
    "ScalingProblem",
    "StabilizabilityReport",
    "Synthesis",
    "certificate_value",
    "closed_loop_map",
    "controller",
    "membership",
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

# the two-channel crossing: Newton steps stop once a step on log10 gamma_2
# is this short, or after this many steps
CROSSING_XTOL = 1e-12
CROSSING_MAX_STEPS = 100
# the stencil refinement: points per axis (odd, so that the incumbent is one
# of them), the factor its step shrinks by each round, and the step at or
# below which it stops
STENCIL_WIDTH = 9
STENCIL_SHRINK = 4.0
STENCIL_STOP = 1e-10


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
    """Diagonal square-root scaling, normalized to a unit first channel,
    with every entry in the search box (NaN is in no box)."""

    gamma: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=float).reshape(-1)
        if not (g.size and abs(g[0] - 1.0) <= 1e-12):
            raise ValueError("gamma must be normalized with gamma_1 = 1")
        lo = 10.0 ** config.GAMMA_LOG_MIN
        hi = 10.0 ** config.GAMMA_LOG_MAX
        if not ((g >= lo * (1 - 1e-12)) & (g <= hi * (1 + 1e-12))).all():
            raise ValueError(f"gamma entries must lie in [{lo:g}, {hi:g}]")
        g.setflags(write=False)
        object.__setattr__(self, "gamma", g)


@dataclass(frozen=True)
class StabilizabilityReport:
    member: bool
    best_value: float
    certificate: GammaScaling
    bounds: np.ndarray
    search_log: dict = field(compare=False)
    problem: ScalingProblem = field(compare=False, repr=False)
    """The Pick data the search ran on; reusable for the same plant and
    zeros."""
    tame_certificate: Optional[GammaScaling] = None
    """Least-extreme certifying scaling, set iff ``member``: preferred for
    synthesis, where the optimizer's railed points are ill-conditioned."""


@dataclass(frozen=True)
class RectangleSet:
    """Admissible hyper-rectangles, one per decomposition."""

    forms: tuple
    vertices: tuple   # per form: ndarray of per-channel corner coordinates
    volumes: tuple


# ---------------------------------------------------------------------------
# the phi diagonal


def phi_diag_entry(sys, zeros) -> np.ndarray:
    """Diagonal of the dropout-sensitivity matrix, one entry per channel.

    Parameters
    ----------
    sys : StateSpaceModel
        Balanced all-pass model.
    zeros : sequence
        Each channel's non-minimum-phase zero; None for a clean channel, in
        which case the degenerate feedthrough form applies.

    Raises
    ------
    ValueError
        If the realization is not balanced-inner, the number of zeros is not
        the channel count, or a zero is inside the closed unit disc or
        collides with a reflected pole of the all-pass model
        (``numkernel.channel_zero``).
    """
    if not is_balanced_inner(sys, tol=1e-6):
        raise ValueError("phi needs a balanced inner realization")
    n, r = sys.order, sys.n_inputs
    if len(zeros) != r:
        raise ValueError(f"need {r} channel zeros, got {len(zeros)}")
    Di = np.linalg.inv(sys.D)
    phi = np.real(np.diag(Di.conj().T @ Di - np.eye(r))).copy()
    # W's eigenvalues are the reflected poles 1/conj(pole) of the all-pass
    W = np.linalg.inv(sys.A.conj().T)
    reflected = np.linalg.eigvals(W)
    G = (sys.B @ Di).T.copy()    # contiguous rows: G[j] is channel j's input direction
    for j, zero in enumerate(zeros):
        if zero is not None:
            z = channel_zero(zero, reflected)
            Nmat = (np.conj(z) * W - np.eye(n)) @ np.linalg.inv(z * np.eye(n) - W)
            phi[j] = np.real(G[j].conj() @ (Nmat.conj().T @ Nmat) @ G[j])
    return phi


# ---------------------------------------------------------------------------
# rectangles


def _channel_bound(lams, zero) -> float:
    """Corner coordinate ``1/(phi + 1)`` of a channel that carries the
    unstable eigenvalues ``lams`` (repeats allowed) and the zero ``zero``.

    With ``b(z) = prod (z - lambda)/(conj(lambda) z - 1)``,
    ``phi + 1 = prod |lambda|^2 + (|zeta|^2 - 1) |b(0) - b(1/conj(zeta))|^2``,
    without the second term on a clean channel.  ValueError for a zero in
    the closed unit disc or within ``1e-9 max(1, |zeta|)`` of a carried
    eigenvalue (``numkernel.channel_zero``).
    """
    lam = np.asarray(lams, dtype=complex).reshape(-1)
    total = float(np.prod(np.abs(lam))) ** 2
    if zero is not None:
        z = channel_zero(zero, lam)
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
    """All admissible rectangles over the distinct decompositions;
    ValueError for a plant pole within ``UNIT_CIRCLE_BAND`` of the unit
    circle (``factorization.wonham_decompose``)."""
    forms = enumerate_wonham_forms(plant)
    vertices = tuple(rectangle_vertex(f, zeros) for f in forms)
    volumes = tuple(float(np.prod(v)) for v in vertices)
    return RectangleSet(forms=tuple(forms), vertices=vertices, volumes=volumes)


def union_membership(rects: RectangleSet, p) -> tuple:
    """First rectangle whose guarded interior ``p < v (1 - MEMBER_GUARD)``
    holds p, or (False, None): the rule ``membership`` and ``region`` apply
    to a certificate, so a point on or near a corner is not covered."""
    p = np.asarray(p, dtype=float).reshape(-1)
    r = rects.vertices[0].size
    if p.size != r:
        raise ValueError(f"need {r} dropout probabilities, got {p.size}")
    for idx, v in enumerate(rects.vertices):
        if np.all(p < v * (1.0 - config.MEMBER_GUARD)):
            return True, idx
    return False, None


# ---------------------------------------------------------------------------
# membership search


@functools.cache
def _stencil_offsets(ndim: int) -> np.ndarray:
    """Every ndim-tuple of the stencil's ticks, in lexicographic order;
    built once per channel count and read-only."""
    ticks = np.arange(-(STENCIL_WIDTH // 2), STENCIL_WIDTH // 2 + 1, dtype=float)
    offsets = np.stack(np.meshgrid(*[ticks] * ndim, indexing="ij"), -1).reshape(-1, ndim)
    offsets.setflags(write=False)
    return offsets


@dataclass(frozen=True)
class ScalingProblem:
    """A plant and its channel zeros: evaluates the diagonal ``phi`` of the
    all-pass factor of the scaled right coprime factor ``diag(gamma) M
    diag(gamma)^{-1}`` at any channel scaling ``gamma``.

    The Pick data of M are computed once, at construction, from the plant
    pair (A, B) alone: the unstable zeros ``lambda_i`` of M are the unstable
    eigenvalues of A, and the left null vector of ``M(lambda_i)`` is
    ``w_i = B* q_i`` (normalized) with ``q_i* A = lambda_i q_i*``, for every
    stabilizing gain F, because ``M^{-1} = (A, B, F, I)`` has the residue
    ``F v_i q_i* B`` at ``lambda_i``.  Scaling keeps each ``lambda_i`` and
    divides row j of W, whose columns are the ``w_i``, by ``gamma_j``.  So
    with ``d_j = gamma_j^-2`` the Pick matrix is the linear pencil
    ``Pi(d) = sum_j d_j B_j`` in the Hermitian parts ``B_j = (w_j* w_j) o
    kernel``, for row ``w_j`` of W and the Cauchy kernel ``1/(lambda_i
    conj(lambda_k) - 1)``, and ``phi_jj = d_j u_j Pi(d)^{-1} u_j*``, where
    ``u_j`` is ``w_j`` times the channel weights ``(zeta_j conj(lambda_i) -
    1)/(conj(zeta_j) - conj(lambda_i))``, which are 1 on a clean channel.
    The class stores the parts, shape (r, k, k) for k unstable poles, with
    their real-pair view (shape (r, k, 2k)), and the rows ``u_j`` once, as
    the columns of ``U*`` (shape (k, r)), the right-hand side of ``phi``'s
    solve; ``phi`` and ``crossing`` read both.
    The k left null vectors come from one stacked SVD of the matrices
    ``A - lambda_i I``.  On a clean
    channel of a decoupled plant ``phi_jj + 1 = prod |lambda_i|^2``.  The
    class builds no coprime factor; ``certificate_value`` re-checks a
    certificate through one.

    Raises
    ------
    ValueError
        At construction, for a wrong number of zeros, an uncontrollable
        pair (A, B), poles that ``numkernel.unstable_part`` rejects (on the
        unit circle, repeated), or a channel zero that
        ``numkernel.channel_zero`` rejects against the unstable poles.
    """

    plant: StateSpaceModel
    zeros: tuple
    _parts: np.ndarray = field(init=False, repr=False, compare=False)
    _rhs: np.ndarray = field(init=False, repr=False, compare=False)
    _parts_ri: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        A, B = self.plant.A, self.plant.B
        n, r = self.plant.order, self.plant.n_inputs
        if len(self.zeros) != r:
            raise ValueError(f"need {r} channel zeros, got {len(self.zeros)}")
        # the reachable dimension alone: the staircase's transform is not needed
        reached = sum(k for _, k in _staircase_steps(A, B, _staircase_threshold([A, B])))
        if reached != n:
            raise ValueError(f"{reached} of {n} states are reachable: "
                             "pair (A, B) is uncontrollable")
        lam = unstable_part(eigenvalues(A), "plant pole")
        lam_conj = lam.conj()
        weights = np.ones((r, lam.size), dtype=complex)
        for j, z in enumerate(self.zeros):
            if z is not None:
                z = channel_zero(z, lam)
                weights[j] = (z * lam_conj - 1.0) / (z.conjugate() - lam_conj)
        # one stacked SVD runs the same LAPACK routine on each A - lambda_i I
        U, _, _ = np.linalg.svd(A - lam[:, None, None] * np.eye(n))
        W = np.empty((r, lam.size), dtype=complex)
        BH = B.conj().T
        for i in range(lam.size):
            w = BH @ U[i][:, -1]
            W[:, i] = w / np.linalg.norm(w)
        kernel = 1.0 / (lam[:, None] * lam_conj[None, :] - 1.0)
        object.__setattr__(self, "_parts", W.conj()[:, :, None] * W[:, None, :] * kernel)
        object.__setattr__(self, "_parts_ri", self._parts.view(float))
        object.__setattr__(self, "_rhs", np.ascontiguousarray((W * weights).conj().T))

    def phi(self, gamma) -> np.ndarray:
        """Per-channel ``phi_jj`` at the square-root scaling ``gamma``, from
        the class's pencil: with ``d = gamma^-2`` and L the Cholesky factor
        of ``Pi(d)``, ``phi_jj = d_j |L^{-1} u_j*|^2``; ValueError only for
        a malformed ``gamma``.

        ``gamma`` is one scaling of shape (r,) or a stack of N scalings of
        shape (N, r); the result has the same shape, and one scaling is
        valued as a stack of one.  A stack takes one stacked factorization,
        which runs the same LAPACK routine on each slice, and a forward
        substitution ``L Z = U*`` of k steps, one per pole, each an
        elementwise or ``einsum`` product over the rows; so every row equals
        the value of that scaling alone.  ``Pi(d)`` is a real einsum over the
        parts' real pairs, which adds the same products in the same order as
        the complex einsum of the real d.  No BLAS product (``@``, matmul)
        runs over the stack: a gemm rounds differently as the stack size
        changes, so forming ``Pi(d)`` as ``d @ parts`` would give rows that
        differ from their scalings alone.  Where the stacked factorization
        fails, the rows are valued one at a time.  A failed row, whose Pick
        matrix is not numerically positive definite or whose phi is not
        finite, is ``inf`` in every entry; the rows are masked only when
        some entry is not finite."""
        g = np.asarray(gamma, dtype=float)
        if (g.ndim not in (1, 2) or g.shape[-1] != len(self.zeros)
                or not (np.isfinite(g) & (g > 0.0)).all()):
            raise ValueError("gamma must hold one finite positive entry per channel")
        d = np.atleast_2d(g) ** -2.0

        def pick_phi(d):
            L = np.linalg.cholesky(np.einsum("nj,jik->nik", d, self._parts_ri).view(complex))
            diag = L.diagonal(axis1=1, axis2=2).real
            # forward substitution L Z = U*, one pole per step over the stack
            Z = np.empty((len(self._rhs), len(d), d.shape[1]), dtype=complex)
            for i, rhs in enumerate(self._rhs):
                if i:
                    rhs = rhs - np.einsum("nm,mnj->nj", L[:, i, :i], Z[:i])
                Z[i] = rhs / diag[:, i, None]
            return d * (np.abs(Z) ** 2).sum(axis=0)

        try:
            phi = pick_phi(d)
        except np.linalg.LinAlgError:
            phi = np.full(d.shape, math.inf)
            for i in range(len(d)):
                try:
                    phi[i] = pick_phi(d[i:i + 1])[0]
                except np.linalg.LinAlgError:
                    continue
        if not np.isfinite(phi).all():
            phi[~np.all(np.isfinite(phi), axis=1)] = math.inf
        return phi if g.ndim == 2 else phi[0]

    def crossing(self, p) -> tuple:
        """Two channels: the ``log10 gamma_2`` in the search box that
        minimizes ``max_j p_j (phi_jj + 1)``, from one k-by-k pencil, and
        the number of Newton steps it took.

        With ``d = gamma_2^-2`` the class's pencil is ``Pi = B_1 + d B_2``.
        The Hermitian-definite pencil ``(B_2, B_1 + B_2)`` has eigenvalues
        theta in [0, 1] and eigenvectors V with ``V* (B_1 + B_2) V = I``, so
        with ``den = (1 - theta) + d theta``, ``phi_11 = sum |u_1 V|^2 /
        den`` falls and ``phi_22 = d sum |u_2 V|^2 / den`` rises in d.
        Their certificate terms cross once, where the gap
        ``p_1 (phi_11 + 1) - p_2 (phi_22 + 1)``, convex and falling in d,
        changes sign.  The gap is evaluated on the search grid's axis: where
        one term dominates across the whole box, the box end that favours it
        is returned after 0 steps; otherwise Newton steps in d start at the
        first axis point where the gap is positive.  From there, by
        convexity, each step rises towards the root without passing it, so
        no safeguard is needed; the steps stop where the gap is no longer
        positive or a step moves ``log10 gamma_2`` by at most
        ``CROSSING_XTOL``.  The pencil only proposes the point:
        ``membership`` values phi there by ``phi``'s stacked factorization,
        in one stack with the axis, the more accurate of the two near the
        box ends.  ValueError for
        another channel count, or where ``B_1 + B_2`` is not numerically
        positive definite.
        """
        if len(self.zeros) != 2:
            raise ValueError("the pencil covers exactly two channels")
        p1, p2 = (float(v) for v in p)
        B1, B2 = self._parts
        try:
            Linv = np.linalg.inv(np.linalg.cholesky(B1 + B2))
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"B_1 + B_2 factorization failed ({exc})") from exc
        theta, Q = np.linalg.eigh(Linv @ B2 @ Linv.conj().T)
        V = Linv.conj().T @ Q
        a, b = (np.abs(self._rhs[:, j].conj() @ V) ** 2 for j in (0, 1))
        theta = theta.clip(0.0, 1.0)
        rest = 1.0 - theta
        # the slope's numerators, the same for every d
        a_theta, b_rest = a * theta, b * rest

        def gap(x):
            """The gap at ``log10 gamma_2 = x`` (a point or an array; the
            gap rises with x), d there, and the gap's slope in d."""
            d = 10.0 ** (-2.0 * np.asarray(x))
            den = rest + d[..., None] * theta
            den_sq = den ** 2
            g = (p1 * (1.0 + (a / den).sum(axis=-1))
                 - p2 * (1.0 + d * (b / den).sum(axis=-1)))
            slope = -(p1 * (a_theta / den_sq).sum(axis=-1)
                      + p2 * (b_rest / den_sq).sum(axis=-1))
            return g, d, slope

        axis = np.linspace(config.GAMMA_LOG_MIN, config.GAMMA_LOG_MAX,
                           config.GAMMA_GRID_POINTS)
        g, d, slope = gap(axis)
        if g[0] >= 0.0:
            return float(axis[0]), 0
        if g[-1] <= 0.0:
            return float(axis[-1]), 0
        i = int((g > 0.0).argmax())
        x, g, d, slope = float(axis[i]), g[i], d[i], slope[i]
        for steps in range(1, CROSSING_MAX_STEPS + 1):
            x_next = -0.5 * math.log10(d - g / slope)
            if abs(x_next - x) <= CROSSING_XTOL:
                return x_next, steps
            x = x_next
            g, d, slope = gap(x)
            if g <= 0.0:
                break
        return x, steps


def certificate_value(plant: StateSpaceModel, zeros, gamma, p) -> float:
    """Certificate value ``max_j p_j (phi_jj + 1)`` at the scaling
    ``gamma``; below one certifies p.  The check a certificate passes before
    synthesis: phi comes from the inner-outer split of the scaled coprime
    factor M (identity channel ordering, default Wonham gain), a route
    independent of the closed form of ``ScalingProblem.phi``."""
    form = wonham_decompose(plant, tuple(range(plant.n_inputs)))
    M = coprime_factorize(plant, wonham_gain(form))
    phi = phi_diag_entry(inner_outer(gamma_scale(M, gamma)).inner, zeros)
    return float(np.max(p * (phi + 1.0)))


def membership(plant: StateSpaceModel, zeros,
               channels: ChannelSpec) -> StabilizabilityReport:
    """Search channel scalings for a mean-square stabilizability certificate.

    The verdict is ``member`` when some scaling gets
    ``max_j p_j (phi_jj + 1)`` strictly below one (guard 1e-9).  The plant is
    used with unit channel gains: the searched scaling absorbs the success
    probabilities, so the certificate is reusable across p (convert with
    ``gamma * (1 - p)`` before synthesis).

    The search values stacks of log10 scalings, each with one phi
    evaluation (a row that phi fails is infinite and counted in
    ``search_log["objective_failures"]``), and moves its incumbent only to
    a stack's first minimum in lexicographic order, where that is strictly
    better.  Two channels call ``ScalingProblem.crossing`` first
    (``"crossing_steps"`` logs its Newton steps) and value a log-spaced axis
    (``"grid_points"``) and the point it proposes as one stack, the point
    last, so that it becomes the incumbent only where it beats the whole
    axis; where ``crossing`` raises, the axis is valued alone.  Three or
    more channels, or two where the pencil fails, run a shrinking stencil: 17
    rounds of ``STENCIL_WIDTH`` points per axis around the incumbent,
    clipped to the box, whose step starts at ``(GAMMA_LOG_MAX -
    GAMMA_LOG_MIN) / (STENCIL_WIDTH - 1)``, so that the first round around
    the box centre spans the box, and shrinks by ``STENCIL_SHRINK`` per
    round until it is at most ``STENCIL_STOP``.  ``"refine"`` names the
    refinement that ran (``"pencil"``, ``"stencil"``, or ``"none"`` with one
    channel), ``"refine_fallback"`` why the pencil was not used and
    ``"refine_evals"`` counts the points after the axis.
    ``tame_certificate`` is the least extreme certifying point evaluated,
    by ``(max |log10 gamma|, value, log10 gamma)``, picked once, after the
    search, among the certifying rows of least extent that the stacks kept.

    Returns a report whose ``bounds`` are the per-channel admissible levels
    at the certificate; search exhaustion is reported as a non-member with
    the best value found.  ValueError above ``factorization.MAX_CHANNELS``
    channels, before anything is built, or where phi fails at every point.
    """
    r = plant.n_inputs
    if channels.r != r:
        raise ValueError(f"plant has {r} channels, spec has {channels.r}")
    if r > MAX_CHANNELS:
        raise ValueError(f"{r} channels exceeds the channel cap {MAX_CHANNELS}")
    problem = ScalingProblem(plant, tuple(zeros))
    p = channels.p
    ndim = r - 1
    best_val, best_x, best_phi = math.inf, np.zeros(ndim), None
    # per stack that may hold the tame certificate: the least extent max |x|
    # of its certifying rows, and its certifying rows at that extent with
    # their values
    certifying, tame_extent = [], math.inf
    failures = 0

    def scan(X):
        """Value the stack X of log10 scalings, clipped to the box, and
        update the incumbent, the certifying rows and the failure count;
        returns the values."""
        nonlocal best_val, best_x, best_phi, tame_extent, failures
        # ndarray methods run the same reductions as np.max and the like,
        # without the function wrappers' per-call cost
        X = X.clip(config.GAMMA_LOG_MIN, config.GAMMA_LOG_MAX)
        gammas = np.empty((len(X), r))
        gammas[:, 0] = 1.0
        gammas[:, 1:] = 10.0 ** X
        phis = problem.phi(gammas)
        failed = np.isinf(phis[:, 0])
        n_failed = int(np.count_nonzero(failed))
        if n_failed:
            # a failed row is infinite, not valued from its phi: 0 * inf is
            # nan where p_j = 0
            with np.errstate(invalid="ignore"):
                terms = p * (phis + 1.0)
            failures += n_failed
        else:
            terms = p * (phis + 1.0)
        # the row maximum column by column: the same maxima as a reduction
        # along the rows, which costs more on rows this short
        vals = terms[:, 0]
        for j in range(1, r):
            vals = np.maximum(vals, terms[:, j])
        if n_failed:
            vals[failed] = math.inf
        first = int(vals.argmin())
        if vals[first] < best_val:
            # copies: a row of the stack would keep the whole stack alive
            best_val, best_x, best_phi = (float(vals[first]), X[first].copy(),
                                          phis[first].copy())
        cert = vals < 1.0 - config.MEMBER_GUARD
        if cert.any():
            Xc = X[cert]
            extent = np.abs(Xc).max(axis=1, initial=0.0)
            least = extent.min()
            # the tame certificate is of the least extent of all certifying
            # rows: a stack whose least extent exceeds the least so far
            # cannot hold it, nor a row beyond its stack's least extent
            if least <= tame_extent:
                tame_extent = least
                keep = extent == least
                certifying.append((least, Xc[keep], vals[cert][keep]))
        return vals

    log = {"grid_points": 0, "refine_evals": 0}
    if r == 1:
        scan(np.zeros((1, 0)))
        log["grid_points"], log["refine"] = 1, "none"
    elif r == 2:
        axis = np.linspace(config.GAMMA_LOG_MIN, config.GAMMA_LOG_MAX, config.GAMMA_GRID_POINTS)
        log["grid_points"] = len(axis)
        try:
            x, log["crossing_steps"] = problem.crossing(p)
        except ValueError as exc:
            log["refine_fallback"] = f"no pencil point: {exc}"
            scan(axis[:, None])
        else:
            # the axis and the pencil's point in one stack, the point last:
            # each row is valued as alone, and the first minimum takes the
            # point only where it is strictly better than the whole axis
            log["refine_evals"] = 1
            if scan(np.append(axis, x)[:, None])[-1] < math.inf:
                log["refine"] = "pencil"
            else:
                log["refine_fallback"] = "phi failed at the pencil point"
    if "refine" not in log:
        log["refine"] = "stencil"
        offsets = _stencil_offsets(ndim)
        # the first round from the box centre spans the box
        step = (config.GAMMA_LOG_MAX - config.GAMMA_LOG_MIN) / (STENCIL_WIDTH - 1)
        while step > STENCIL_STOP:
            scan(best_x + step * offsets)
            log["refine_evals"] += len(offsets)
            step /= STENCIL_SHRINK
    if math.isinf(best_val):
        raise ValueError("scaling search failed at every point; the plant "
                         "factorization does not admit the inner decomposition")
    log["objective_failures"] = failures
    member = bool(best_val < 1.0 - config.MEMBER_GUARD)
    tame = None
    if member:
        # the point that made a member verdict certifies, so some stack held
        # a certifying row; of the rows at the least extent, the first in
        # evaluation order with the least (value, x)
        X = np.concatenate([rows for e, rows, _ in certifying if e == tame_extent])
        vals = np.concatenate([v for e, _, v in certifying if e == tame_extent])
        k = np.lexsort((*X.T[::-1], vals))[0]
        tame = GammaScaling(np.concatenate([[1.0], 10.0 ** X[k]]))
    return StabilizabilityReport(
        member=member,
        best_value=best_val,
        certificate=GammaScaling(np.concatenate([[1.0], 10.0 ** best_x])),
        bounds=1.0 / (best_phi + 1.0),
        search_log=log,
        problem=problem,
        tame_certificate=tame,
    )


def sweep_bounds(plant: StateSpaceModel, zeros) -> np.ndarray:
    """Per-channel bound vectors over a dense scaling sweep (two channels).

    Returns a (481, 2) array of ``1/(phi_jj + 1)`` evaluated along
    ``log10 gamma_2`` uniformly spanning the search box, endpoints included;
    a failed row of phi gives the bound 0, which certifies nothing.  A
    dropout vector is certified by the sweep when some row dominates it
    strictly.  The rule is conservative: the pool of scalings is fixed and
    shared across all queried vectors, so a vector that ``membership``
    certifies at a scaling between two sweep points may be missed.
    """
    if plant.n_inputs != 2:
        raise ValueError("the sweep helper covers exactly two channels")
    problem = ScalingProblem(plant, tuple(zeros))
    logs = np.linspace(config.GAMMA_LOG_MIN, config.GAMMA_LOG_MAX, 481)
    gammas = np.column_stack([np.ones_like(logs), 10.0 ** logs])
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


def controller(bez: DoublyCoprime, Q: StateSpaceModel) -> StateSpaceModel:
    """Stabilizing controller ``(Xt - Q Nt)^{-1} (Yt - Q Mt)``.

    Realized directly in observer form with the parameter wrapped around
    the innovation (state count: plant order plus parameter order), which
    is equivalent to the fraction formula but avoids building explicit
    inverses.  With a zero ``Q`` this is the central (observer-based)
    design.
    """
    AL = bez.Xt.A          # A - L C
    B = bez.Xt.B
    C = bez.Nt.C
    F = bez.F
    L = bez.L
    Aq, Bq, Cq, Dq = Q.A, Q.B, Q.C, Q.D
    AK = np.block([
        [AL - B @ F + B @ Dq @ C, B @ Cq],
        [Bq @ C, Aq],
    ])
    BK = np.vstack([L - B @ Dq, -Bq])
    CK = np.hstack([Dq @ C - F, Cq])
    DK = -Dq
    return minimal(StateSpaceModel(AK, BK, CK, DK))


class NotCertified(ValueError):
    """Negative verdict of ``synthesize``: the search finds no certificate
    for the dropout vector, or the supplied scaling fails its re-check."""


@dataclass(frozen=True)
class Synthesis:
    """A certified, designed and checked loop; its analysis radius is read
    from the T-hat of ``closed_loop_map`` on the success-scaled plant and K."""

    gamma: np.ndarray           # success-absorbed certificate designed at
    value: float                # its certificate_value, below one
    gamma_true: np.ndarray      # plant-side scaling
    K: StateSpaceModel          # the controller
    loop: StochasticClosedLoop  # plant and K closed through the lossy channels
    t_hat: np.ndarray           # T-hat of the loop map
    verification_radius: float  # second_moment_radius of the loop

    @property
    def analysis_radius(self) -> float:
        """``ms_radius`` of the loop map's T-hat."""
        return ms_radius(self.t_hat, self.loop.channels)


def synthesize(plant: StateSpaceModel, zeros, channels: ChannelSpec,
               gamma=None) -> Synthesis:
    """Certified controller for ``channels`` and both of its checks.

    The success-absorbed certificate ``gamma`` (by default the search's tame
    certificate) must pass ``certificate_value``.  The plant's inputs are
    then scaled by ``1 - p``, factored over the identity channel ordering,
    and the optimal parameter is built at the plant-side scaling ``gamma *
    (1 - p)`` (normalized), as in the paper's synthesis.  The record keeps
    the loop map's T-hat, from which the analysis radius is read.  The radii
    are returned, not judged.  Raises NotCertified where the search finds no
    certificate or ``gamma`` fails the re-check, and ValueError where the
    search's own certificate fails it, the design fails, or a radius
    cannot be computed.
    """
    searched = gamma is None
    if searched:
        report = membership(plant, zeros, channels)
        if not report.member:
            raise NotCertified(f"dropout vector is not certified (best value "
                               f"{report.best_value:.6g})")
        gamma = report.tame_certificate.gamma
    gamma = np.asarray(gamma, dtype=float)
    value = certificate_value(plant, zeros, gamma, channels.p)
    if not value < 1.0 - config.MEMBER_GUARD:   # NaN fails too
        if searched:
            raise ValueError(f"the search's certificate fails its inner-outer re-check "
                             f"(value {value:.6g}); no controller is printed")
        raise NotCertified(f"the supplied scaling does not certify this "
                           f"dropout vector (value {value:.6g})")
    gamma_true = _true_gamma(gamma, channels)
    Gmu = scale_io(plant, None, np.diag(channels.mu))
    form = wonham_decompose(Gmu, tuple(range(plant.n_inputs)))
    bez = bezout(Gmu, wonham_gain(form), observer_gain(Gmu))
    K = controller(bez, synthesize_Q(Gmu, bez, gamma_true, zeros))
    T = t_hat(closed_loop_map(Gmu, K))
    loop = assemble(plant, K, channels)
    try:
        verification_radius = second_moment_radius(loop)
    except ValueError as exc:
        raise ValueError(f"controller order {K.order}: verification radius not "
                         f"computable ({exc}); no controller is printed") from exc
    return Synthesis(gamma, value, gamma_true, K, loop, T, verification_radius)


def closed_loop_map(plant: StateSpaceModel, K: StateSpaceModel) -> StateSpaceModel:
    """Input-side complementary map ``(I - K G)^{-1} K G``.

    Realized as ``(A_H + B_H C_H, B_H, C_H, 0)`` from ``H = K G = (A_H, B_H,
    C_H, 0)`` on the loop states (plant plus controller), so its state
    matrix is the genuine closed-loop matrix before reduction.  A plant
    with feedthrough raises ValueError.
    """
    if np.max(np.abs(plant.D), initial=0.0) > 0.0:
        raise ValueError("plant feedthrough must be zero for the loop map")
    H = minimal(cascade(K, plant))
    return minimal(StateSpaceModel(H.A + H.B @ H.C, H.B, H.C, H.D))


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
