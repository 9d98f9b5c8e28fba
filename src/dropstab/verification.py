"""Independent verification of closed-loop mean-square behavior.

Given a plant, a controller, and per-channel dropout probabilities, this
module builds the stochastic closed loop in state-space form and checks it
two ways that share no code with the synthesis path (of the package it
imports only ``numkernel`` and ``statespace``):

* exactly, by iterating (or taking the spectral radius of) the linear
  operator that maps the state covariance forward one step;
* empirically, by simulating packet drops with a seeded generator and
  averaging squared state norms over independent trials.

The multiplicative noise convention: channel j delivers ``alpha_j u_j``
with ``alpha_j`` Bernoulli(1 - p_j); centering and normalizing by the mean
gives ``alpha_j = mu_j (1 + w_j)`` with ``E w_j = 0`` and
``E w_j^2 = s_j^2 = p_j / (1 - p_j)``.  Channel j's fluctuation adds the
rank-one term ``w_j b_j c_j`` to the mean loop matrix A, so a step maps the
covariance as ``P -> A P A' + sum_j s_j^2 (c_j P c_j') b_j b_j'`` and a
simulated state as ``x -> A x + sum_j w_j (c_j x) b_j``.  The loop stacks
the ``b_j`` as the columns of ``noise_in`` (n x r) and the ``c_j`` as the
rows of ``noise_out`` (r x n), which makes each step one rank-r update.
Both traces start from e_0, the plant's first state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numkernel import real_part
from .statespace import StateSpaceModel

__all__ = [
    "StochasticClosedLoop",
    "assemble",
    "exact_moment_trace",
    "monte_carlo_trace",
    "second_moment_radius",
]

MAX_EXACT_ORDER = 30
MAX_SIM_BYTES = 2 * 10 ** 8


def _real_matrix(M, name):
    out = real_part(M)
    if out is None:
        raise ValueError(f"{name} must be a real matrix")
    return out


@dataclass(frozen=True)
class StochasticClosedLoop:
    """Mean dynamics plus the rank-one noise injection of each channel."""

    A: np.ndarray                 # mean closed-loop state matrix
    noise_in: np.ndarray          # n x r; column j: where channel j's noise enters
    noise_out: np.ndarray         # r x n; row j: state to channel j's input
    channels: ChannelSpec         # stabilizability's, annotated, not imported
    nominal_radius: float
    plant_order: int

    @property
    def order(self) -> int:
        return self.A.shape[0]


def assemble(plant: StateSpaceModel, K: StateSpaceModel,
             channels: ChannelSpec) -> StochasticClosedLoop:
    """Close the loop ``u = K y`` through lossy input channels.

    The plant input is ``alpha .* u`` elementwise; splitting ``alpha`` into
    its mean and normalized fluctuation leaves a deterministic loop matrix
    plus one rank-one random perturbation per channel.  A nominally
    unstable loop is legal here (the caller sees it in
    ``nominal_radius``); a plant with direct feedthrough is not.

    Raises
    ------
    ValueError
        If the plant has a nonzero feedthrough term, dimensions do not
        line up, or the matrices are not real.
    """
    if np.max(np.abs(plant.D), initial=0.0) > 0.0:
        raise ValueError("plant feedthrough must be zero for the loop assembly")
    r = plant.n_inputs
    if channels.r != r:
        raise ValueError(f"plant has {r} input channels, spec has {channels.r}")
    if K.n_inputs != plant.n_outputs or K.n_outputs != r:
        raise ValueError("controller dimensions do not match the plant")
    A = _real_matrix(plant.A, "plant.A")
    B = _real_matrix(plant.B, "plant.B")
    C = _real_matrix(plant.C, "plant.C")
    AK = _real_matrix(K.A, "K.A")
    BK = _real_matrix(K.B, "K.B")
    CK = _real_matrix(K.C, "K.C")
    DK = _real_matrix(K.D, "K.D")
    mu = channels.mu
    n, nk = A.shape[0], AK.shape[0]
    Bmu = B * mu               # columns scaled by the success probabilities
    Acl = np.block([
        [A + Bmu @ DK @ C, Bmu @ CK],
        [BK @ C, AK],
    ])
    # row by row: DK @ C rounds differently, and the last bits of
    # second_moment_radius follow these rows
    DKC = np.array([DK[j, :] @ C for j in range(r)]).reshape(r, n)
    nominal = float(np.max(np.abs(np.linalg.eigvals(Acl)))) if Acl.size else 0.0
    return StochasticClosedLoop(
        A=Acl,
        noise_in=np.vstack([Bmu, np.zeros((nk, r))]),
        noise_out=np.hstack([DKC, CK]),
        channels=channels,
        nominal_radius=nominal,
        plant_order=n,
    )


def second_moment_radius(loop: StochasticClosedLoop) -> float:
    """Spectral radius of the one-step covariance propagation operator.

    The covariance recursion ``P -> Acl P Acl' + sum_j s_j^2 E_j P E_j'``
    is linear; in vectorized form its matrix is
    ``kron(Acl, Acl) + sum_j s_j^2 kron(E_j, E_j)``, with ``E_j = b_j c_j``,
    and the loop is mean-square stable exactly when this matrix is Schur
    stable.
    """
    n = loop.order
    if n > MAX_EXACT_ORDER:
        raise ValueError(f"closed-loop order {n} exceeds the exact-analysis "
                         f"cap {MAX_EXACT_ORDER}")
    if n == 0:
        return 0.0
    T = np.kron(loop.A, loop.A)
    for j, s2 in enumerate(loop.channels.sigma_sq):
        E = loop.noise_in[:, [j]] @ loop.noise_out[[j], :]
        T = T + s2 * np.kron(E, E)
    return float(np.max(np.abs(np.linalg.eigvals(T))))


def _start(loop: StochasticClosedLoop) -> np.ndarray:
    """The deterministic start state: e_0, the plant's first state."""
    x0 = np.zeros(loop.order)
    if loop.plant_order:
        x0[0] = 1.0
    return x0


def exact_moment_trace(loop: StochasticClosedLoop, steps: int) -> np.ndarray:
    """Expected squared state norm at each step, computed exactly.

    Iterates the covariance recursion from the deterministic start
    ``P_0 = e_0 e_0'`` and returns ``trace(P_t)`` for t = 0..steps.
    """
    if steps < 0:
        raise ValueError("need steps >= 0")
    x0 = _start(loop)
    P = np.outer(x0, x0)
    A, B, C = loop.A, loop.noise_in, loop.noise_out
    s2 = loop.channels.sigma_sq
    out = np.empty(steps + 1)
    out[0] = np.trace(P)
    for t in range(1, steps + 1):
        # channel j adds s_j^2 (c_j P c_j') b_j b_j'
        v = s2 * np.sum((C @ P) * C, axis=1)
        P = A @ P @ A.T + (B * v) @ B.T
        out[t] = np.trace(P)
    return out


def monte_carlo_trace(loop: StochasticClosedLoop, steps: int, trials: int,
                      seed: int = 0) -> np.ndarray:
    """Average squared state norm over simulated packet-drop runs.

    Each trial t starts at e_0 and draws its Bernoulli schedule from an
    independent stream ``default_rng([seed, t])``, so results are
    reproducible and invariant to the number of trials run alongside.
    Returns the per-step empirical mean of ``||x||^2`` (length
    ``steps + 1``).
    """
    if steps < 0 or trials <= 0:
        raise ValueError("need steps >= 0 and trials >= 1")
    r = loop.channels.r
    need = steps * r * trials * 8
    if need > MAX_SIM_BYTES:
        raise ValueError(f"simulation would need {need:.1e} bytes of drop "
                         f"schedule; reduce steps or trials")
    p = loop.channels.p
    mu = loop.channels.mu
    # per-trial schedules, assembled once, simulated in one vectorized sweep
    omega = np.empty((steps, r, trials))
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        alpha = (rng.random((steps, r)) >= p).astype(float)
        omega[:, :, t] = alpha / mu - 1.0
    X = np.tile(_start(loop).reshape(-1, 1), (1, trials))
    A, B, C = loop.A, loop.noise_in, loop.noise_out
    out = np.empty(steps + 1)
    out[0] = float(np.sum(X * X) / trials)
    for k in range(steps):
        X = A @ X + B @ (omega[k] * (C @ X))
        out[k + 1] = float(np.sum(X * X) / trials)
    return out
