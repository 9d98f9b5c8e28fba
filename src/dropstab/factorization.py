"""Structural factorizations for multi-channel plants.

Three related constructions live here:

* channel-ordered controllability decompositions (block upper-triangular
  form, one diagonal block per input channel) and their enumeration over
  channel orderings;
* right/left coprime factors over a state-feedback / observer gain pair:
  the right factor M and the left factors Nt and Xt of a doubly-coprime
  family, the three the Youla parameter and the controller are built from;
* inner-outer splitting of square stable models by sequential extraction of
  scalar Potapov sections, plus the model-assumption checker that feeds it
  (at most one simple unstable root shared by each denominator-cleared
  column, counted root by root; no other plant zero outside the disc).

Conventions: gains stabilize as ``A - B F`` and ``A - L C``; coprime factors
are normalized so that ``M(inf) = I``; all-pass sections carry a positive
real input coefficient.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import config
from .numkernel import eigenvalues, real_part, spectral_radius, unstable_part
from .statespace import (
    StateSpaceModel,
    TransferMatrix,
    cascade,
    evaluate,
    inverse,
    minimal,
    place_single_input,
    realize,
    scale_io,
    transmission_zeros,
    _ctrb_staircase,
    _staircase_threshold,
)

__all__ = [
    "AssumptionViolation",
    "DoublyCoprime",
    "InnerOuterPair",
    "WonhamBlock",
    "WonhamForm",
    "bezout",
    "coprime_factorize",
    "enumerate_wonham_forms",
    "gamma_scale",
    "inner_outer",
    "observer_gain",
    "validate_assumption",
    "wonham_decompose",
    "wonham_gain",
]

# bounds the r! orderings of the enumeration and the 9^(r-1) points of each
# stencil round in the scaling search
MAX_CHANNELS = 6


class AssumptionViolation(Exception):
    """The plant falls outside the admissible model class."""


# ---------------------------------------------------------------------------
# channel-ordered controllability decomposition


@dataclass(frozen=True)
class WonhamBlock:
    channel: int          # original channel index (0-based)
    dim: int
    lam: tuple            # unstable eigenvalues of the diagonal block


@dataclass(frozen=True)
class WonhamForm:
    """Block upper-triangular decomposition for one channel processing order.

    ``transform`` is unitary with ``transform* A transform = Aw`` block upper
    triangular; ``Bw`` is ``transform* B`` with its columns taken in
    processing order, so column k of Bw matches diagonal block k.  Gains and
    vertices derived from a form are always mapped back to original channel
    indices.
    """

    ordering: tuple
    blocks: tuple
    transform: np.ndarray
    Aw: np.ndarray
    Bw: np.ndarray

    def __post_init__(self):
        self.transform.setflags(write=False)
        self.Aw.setflags(write=False)
        self.Bw.setflags(write=False)

    @property
    def order(self) -> int:
        return self.Aw.shape[0]

    @property
    def n_channels(self) -> int:
        return len(self.ordering)

    def block_slices(self):
        off = 0
        for blk in self.blocks:
            yield blk, slice(off, off + blk.dim)
            off += blk.dim

    def lambda_by_channel(self) -> dict:
        return {blk.channel: blk.lam for blk in self.blocks}


def wonham_decompose(plant: StateSpaceModel, ordering) -> WonhamForm:
    """Stage-wise controllability extraction along a channel ordering.

    Channel ``ordering[0]`` claims the subspace it can reach on its own;
    each later channel claims what it adds to the span, working inside the
    quotient.  The result is the block upper-triangular pair with one
    single-input controllable diagonal block per channel.

    Raises
    ------
    ValueError
        If the blocks do not cover the state space (the pair (A, B) is not
        controllable), the ordering is not a permutation of the channels,
        or a block has an eigenvalue that ``numkernel.unstable_part`` finds
        on the unit circle (repeated unstable ones are allowed).
    """
    A = plant.A
    B = plant.B
    n = plant.order
    r = plant.n_inputs
    if sorted(ordering) != list(range(r)):
        raise ValueError(f"ordering {ordering} is not a permutation of 0..{r - 1}")
    thr = _staircase_threshold([A, B])
    T = np.eye(n, dtype=complex)
    Acur = A.astype(complex)
    Bcur = B.astype(complex)
    off = 0
    blocks = []
    for ch in ordering:
        b = Bcur[:, [ch]]
        U, nc = _ctrb_staircase(Acur, b, thr)
        T[:, off:] = T[:, off:] @ U
        Acur = U.conj().T @ Acur @ U
        Bcur = U.conj().T @ Bcur
        lam = eigenvalues(Acur[:nc, :nc]) if nc else np.zeros(0)
        lam = unstable_part(lam, "plant pole", repeats=True)
        blocks.append(WonhamBlock(channel=ch, dim=nc, lam=tuple(lam)))
        off += nc
        Acur = Acur[nc:, nc:]
        Bcur = Bcur[nc:, :]
    if off != n:
        raise ValueError(
            f"blocks cover only {off} of {n} states: pair (A, B) is uncontrollable"
        )
    Aw = T.conj().T @ A @ T
    Bw = (T.conj().T @ B)[:, ordering]
    return WonhamForm(ordering=tuple(ordering), blocks=tuple(blocks),
                      transform=T, Aw=Aw, Bw=Bw)


def enumerate_wonham_forms(plant: StateSpaceModel) -> list:
    """All distinct decompositions over the r! channel orderings.

    Orderings are visited lexicographically and forms deduplicated by their
    per-channel unstable-eigenvalue allocation (clustered at 1e-6), keeping
    the lexicographically smallest ordering of each equivalence class.
    """
    r = plant.n_inputs
    if r > MAX_CHANNELS:
        raise ValueError(f"{r} channels exceeds enumeration cap {MAX_CHANNELS}")
    seen = set()
    forms = []
    for ordering in itertools.permutations(range(r)):
        form = wonham_decompose(plant, ordering)
        lam = form.lambda_by_channel()
        key = tuple(
            tuple(sorted((round(v.real, 6), round(v.imag, 6)) for v in lam[j]))
            for j in range(r)
        )
        if key not in seen:
            seen.add(key)
            forms.append(form)
    return forms


def _reflect_targets(block_eigs) -> list:
    """Default placement targets: keep stable eigenvalues, reflect the rest."""
    return [v if abs(v) < 1.0 else 1.0 / np.conj(v) for v in block_eigs]


def wonham_gain(form: WonhamForm) -> np.ndarray:
    """Block-diagonal stabilizing gain F (original coordinates/channels).

    Each diagonal block is placed independently through its own channel;
    ``A - B F`` then inherits the placed spectra.  The targets reflect
    unstable eigenvalues across the unit circle (``_reflect_targets``),
    which makes the coprime factor M's diagonal exactly the monic all-pass
    quotients.

    Returns
    -------
    ndarray, shape (r, n)
    """
    r = form.n_channels
    n = form.order
    Fw = np.zeros((r, n), dtype=complex)
    for k, (blk, sl) in enumerate(form.block_slices()):
        if blk.dim == 0:
            continue
        Ak = form.Aw[sl, sl]
        bk = form.Bw[sl, k]
        goals = _reflect_targets(eigenvalues(Ak))
        # placement convention is eig(A + b f); stabilizing A - b f needs -f
        Fw[k, sl] = -place_single_input(Ak, bk, goals)
    F = Fw[np.argsort(form.ordering)] @ form.transform.conj().T
    F_real = real_part(F)
    return F if F_real is None else F_real


def observer_gain(plant: StateSpaceModel) -> np.ndarray:
    """Output-injection gain L with ``A - L C`` stable, built on the dual.

    Mirrors :func:`wonham_gain`: the dual pair ``(A^T, C^T)`` is decomposed
    per observability block (identity ordering) and each block placed with the
    reflection targets.
    """
    n = plant.order
    p = plant.n_outputs
    dual = StateSpaceModel(plant.A.conj().T, plant.C.conj().T,
                           np.zeros((1, n)), np.zeros((1, p)))
    form = wonham_decompose(dual, tuple(range(p)))
    Fd = wonham_gain(form)
    return Fd.conj().T


# ---------------------------------------------------------------------------
# balanced all-pass sections


def _allpass_section(lam: complex) -> StateSpaceModel:
    """Balanced first-order all-pass ``(z - lam)/(conj(lam) z - 1)``.

    State matrix ``1/conj(lam)``; the input coefficient is chosen positive
    real, fixing the sign ambiguity of the balanced realization.
    """
    lam = complex(lam)
    if abs(abs(lam) - 1.0) < config.UNIT_CIRCLE_BAND:
        raise ValueError(f"eigenvalue {lam} is within 1e-9 of the unit circle")
    if abs(lam) < 1.0:
        raise ValueError(f"all-pass section needs |lam| > 1, got {lam}")
    beta = np.sqrt(1.0 - 1.0 / abs(lam) ** 2)
    a = 1.0 / np.conj(lam)
    c = -beta * lam / np.conj(lam)
    return StateSpaceModel([[a]], [[beta]], [[c]], [[a]])


# ---------------------------------------------------------------------------
# coprime factor families


def coprime_factorize(plant: StateSpaceModel, F) -> StateSpaceModel:
    """Right coprime factor M of ``plant = N M^{-1}`` with ``M(inf) = I``:
    ``M = (A - B F, B, -F, I)``.

    Raises
    ------
    ValueError
        If F does not make ``A - B F`` stable.
    """
    AF = plant.A - plant.B @ F
    if spectral_radius(AF) >= 1.0:
        raise ValueError("gain does not stabilize: rho(A - B F) >= 1")
    return StateSpaceModel(AF, plant.B, -F, np.eye(plant.n_inputs))


@dataclass(frozen=True)
class DoublyCoprime:
    """The factors of a doubly-coprime family that synthesis reads.

    ``plant = N M^{-1} = Mt^{-1} Nt`` and

        [[Xt, -Yt], [-Nt, Mt]] @ [[M, Y], [N, X]] = I

    for the family over the gains F and L; ``synthesize_Q`` and
    ``controller`` need only M, Nt and Xt of it, with the gains.
    """

    M: StateSpaceModel
    Nt: StateSpaceModel
    Xt: StateSpaceModel
    F: np.ndarray
    L: np.ndarray


def bezout(plant: StateSpaceModel, F, L) -> DoublyCoprime:
    """Doubly-coprime factors over a state-feedback / observer gain pair.

    M runs over ``A - B F``, Nt and Xt over ``A - L C``; all are stable by
    construction, and the double Bezout identity of the whole family follows
    from ``L C - B F = (zI - A_L) - (zI - A_F)``.

    Raises
    ------
    ValueError
        If either gain fails to stabilize its loop.
    """
    F = np.asarray(F)
    L = np.asarray(L)
    A, B, C = plant.A, plant.B, plant.C
    r = plant.n_inputs
    AF = A - B @ F
    AL = A - L @ C
    if spectral_radius(AF) >= 1.0:
        raise ValueError("state-feedback gain does not stabilize")
    if spectral_radius(AL) >= 1.0:
        raise ValueError("observer gain does not stabilize")
    Ir = np.eye(r)
    M = StateSpaceModel(AF, B, -F, Ir)
    Xt = StateSpaceModel(AL, B, F, Ir)
    Nt = StateSpaceModel(AL, B, C, np.zeros((r, r)))
    return DoublyCoprime(M=M, Nt=Nt, Xt=Xt, F=F, L=L)


def gamma_scale(sys: StateSpaceModel, gamma) -> StateSpaceModel:
    """Diagonal conjugation ``diag(gamma) G diag(gamma)^{-1}``."""
    g = np.asarray(gamma, dtype=float)
    if g.ndim != 1 or g.size != sys.n_inputs or sys.n_inputs != sys.n_outputs:
        raise ValueError("gamma must match a square system's channel count")
    if np.any(g <= 0):
        raise ValueError("gamma entries must be positive")
    return scale_io(sys, np.diag(g), np.diag(1.0 / g))


# ---------------------------------------------------------------------------
# inner-outer factorization (Potapov sections)


@dataclass(frozen=True)
class InnerOuterPair:
    inner: StateSpaceModel
    outer: StateSpaceModel


def _potapov_section(lam: complex, eta: np.ndarray) -> StateSpaceModel:
    """Balanced rank-one all-pass ``(I - eta eta*) + eta eta* b(z)``."""
    r = eta.size
    beta = np.sqrt(1.0 - 1.0 / abs(lam) ** 2)
    d = 1.0 / np.conj(lam)
    A = np.array([[d]])
    B = beta * eta.conj().reshape(1, r)
    C = (-beta * lam / np.conj(lam)) * eta.reshape(r, 1)
    D = np.eye(r) + (d - 1.0) * np.outer(eta, eta.conj())
    return StateSpaceModel(A, B, C, D)


def _section_eval_inv(lam: complex, eta: np.ndarray, z: complex) -> np.ndarray:
    """Closed-form inverse of a rank-one section at a point."""
    b = (z - lam) / (np.conj(lam) * z - 1.0)
    P = np.outer(eta, eta.conj())
    return (np.eye(eta.size) - P) + P / b


def inner_outer(sys: StateSpaceModel) -> InnerOuterPair:
    """Split a square model into an all-pass times a minimum-phase factor.

    Unstable transmission zeros (eigenvalues of the inverse's state matrix
    outside the unit circle) are peeled off one at a time in ascending
    modulus; each contributes a scalar Potapov section along the singular
    direction of the partially-deflated evaluation.  The outer factor is the
    preceding inverse cascade applied to the model, reduced to minimal order.

    Raises
    ------
    ValueError
        Singular feedthrough, a zero within 1e-9 of the unit circle, a
        repeated unstable zero (pairwise gap below 1e-6), or an outer factor
        left with unstable modes after reduction.
    """
    if sys.n_inputs != sys.n_outputs:
        raise ValueError("inner-outer factorization needs a square model")
    r = sys.n_inputs
    zinv = inverse(sys)  # also validates cond(D)
    zeros = eigenvalues(zinv.A) if sys.order else np.zeros(0, complex)
    unstable = unstable_part(zeros, "transmission zero")
    if not unstable.size:
        return InnerOuterPair(inner=StateSpaceModel(np.zeros((0, 0)), np.zeros((0, r)),
                                                    np.zeros((r, 0)), np.eye(r)),
                              outer=sys)
    factors = []    # (zero, direction) of each section
    for z in unstable:
        V = evaluate(sys, z)
        for zero, direction in factors:
            V = _section_eval_inv(zero, direction, z) @ V
        U, _, _ = np.linalg.svd(V)
        eta = U[:, -1]
        # pin the phase so the factorization is deterministic
        k = int(np.argmax(np.abs(eta)))
        eta = eta * (np.conj(eta[k]) / abs(eta[k]))
        factors.append((complex(z), eta))
    sections = [_potapov_section(zero, direction) for zero, direction in factors]
    inner = sections[-1]
    for sec in sections[-2::-1]:
        inner = cascade(sec, inner)
    inv_chain = inverse(sections[0])
    for sec in sections[1:]:
        inv_chain = cascade(inverse(sec), inv_chain)
    outer = minimal(cascade(inv_chain, sys))
    if outer.order and spectral_radius(outer.A) >= 1.0:
        raise ValueError("outer factor kept unstable modes: deflation failed")
    return InnerOuterPair(inner=inner, outer=outer)


# ---------------------------------------------------------------------------
# model-class assumption checker


def _near(z, roots) -> list:
    """The roots within ``ROOT_CLUSTER_TOL * max(1, |z|)`` of z."""
    return [r for r in roots if abs(r - z) <= config.ROOT_CLUSTER_TOL * max(1.0, abs(z))]


def _reduced_roots(num, den):
    """Roots of an entry's numerator and denominator with the roots they
    share cancelled pair by pair, each numerator root against the nearest
    denominator root within ``ROOT_CLUSTER_TOL``."""
    num_roots, den_roots = np.roots(num).tolist(), np.roots(den).tolist()
    kept = []
    for z in num_roots:
        close = _near(z, den_roots)
        if close:
            den_roots.remove(min(close, key=lambda r: abs(r - z)))
        else:
            kept.append(z)
    return kept, den_roots


def _column_common_unstable_root(nums, dens):
    """Unstable zeros shared by a column's entries after denominator clearing.

    Each nonzero entry is first reduced: the roots its numerator and
    denominator share are cancelled (``_reduced_roots``).  Identically zero
    entries take no part, so a pole written on one is ignored.  Clearing
    entry i by the column's least common denominator multiplies its
    numerator by the poles that other entries carry more often than it does,
    so z is a root of cleared entry i with multiplicity
    ``#num_i(z) + max_k #den_k(z) - #den_i(z)``, where ``#p(z)`` counts the
    roots of p within ``ROOT_CLUSTER_TOL * max(1, |z|)`` of z.  The column
    shares z with the least of these over its nonzero entries.  Candidates
    are the unstable roots of the first nonzero numerator, then of every
    denominator; a repeated root stands at the mean of its copies, a simple
    one at its raw ``np.roots`` value.  Returns ``[(z, multiplicity)]``.
    """
    live = [i for i, num in enumerate(nums) if any(x != 0.0 for x in num)]
    if not live:
        raise AssumptionViolation("a plant column is identically zero")
    num_roots, den_roots = zip(*(_reduced_roots(nums[i], dens[i]) for i in live))

    candidates = []
    for roots in [num_roots[0], *den_roots]:
        for z in roots:
            copies = _near(z, roots)
            z = sum(copies) / len(copies)
            if abs(z) > 1.0 and not _near(z, candidates):
                candidates.append(z)
    common = []
    for z in candidates:
        lcm = max(len(_near(z, roots)) for roots in den_roots)
        mult = min(len(_near(z, nr)) + lcm - len(_near(z, dr))
                   for nr, dr in zip(num_roots, den_roots))
        if mult > 0:
            common.append((z, mult))
    return common


def validate_assumption(plant: TransferMatrix):
    """Check the admissible model class ``G = G_0 diag((z - zeta_j)/z)``.

    Requirements enforced: square strictly-proper plant; per input column at
    most one *simple* zero zeta_j outside the closed unit disc shared by the
    whole column; an invertible ``lim z G_0`` (relative degree one per
    channel), read from the entries' leading coefficients; and a minimum-
    phase ``G_0``: once each zeta_j removes the nearest plant zero within
    ``ROOT_CLUSTER_TOL * max(1, |zeta_j|)``, the plant's realization keeps
    every transmission zero strictly inside the disc.

    Returns
    -------
    tuple
        Per-channel unstable zero as float, or None for a clean channel,
        and the plant's minimal realization the zeros were taken on.

    Raises
    ------
    AssumptionViolation
        With a message naming the first requirement that fails.
    """
    p, m = plant.shape
    if p != m:
        raise AssumptionViolation(f"plant must be square, got {p}x{m}")
    zeros: list = []
    for j in range(m):
        nums = [plant.num[i][j] for i in range(p)]
        dens = [plant.den[i][j] for i in range(p)]
        for num, den in zip(nums, dens):
            if len(num) >= len(den) and any(x != 0.0 for x in num):
                raise AssumptionViolation(
                    f"column {j + 1} has an entry that is not strictly proper"
                )
        common = _column_common_unstable_root(nums, dens)
        total = sum(mult for _, mult in common)
        if total == 0:
            zeros.append(None)
        elif total == 1:
            z = common[0][0]
            if abs(z.imag) > config.ROOT_CLUSTER_TOL * max(1.0, abs(z)):
                raise AssumptionViolation(
                    f"column {j + 1} has a complex unstable zero {z}"
                )
            zeros.append(float(z.real))
        else:
            raise AssumptionViolation(
                f"column {j + 1} shares {total} unstable zeros (want at most one, simple)"
            )
    # lim z G_0 = lim z G, read from each entry's leading coefficients (the
    # grid holds them trimmed): num[0]/den[0] where the degrees differ by
    # one, exactly 0 otherwise.  The C B of a realization would hold
    # roundoff where the limit is 0.
    lead = np.array([[num[0] / den[0] if len(num) == len(den) - 1 else 0.0
                      for num, den in zip(nrow, drow)]
                     for nrow, drow in zip(plant.num, plant.den)])
    if np.linalg.cond(lead) > config.INVERT_COND_MAX:
        raise AssumptionViolation(
            "relative degree is not one per channel: lim z G_0 is singular"
        )
    realization = realize(plant)
    tz = transmission_zeros(realization).tolist()
    rest = list(tz)
    for z in zeros:
        close = [] if z is None else _near(z, rest)
        if close:
            rest.remove(min(close, key=lambda w: abs(w - z)))
    worst = max(rest, key=abs, default=0.0)
    if abs(worst) >= 1.0 - config.UNIT_CIRCLE_BAND:
        # a zero of multiplicity m splits by about eps^(1/m), 1e-5 relative
        # or more from m = 3 on; the mean of its copies within the square
        # root of the cluster tolerance is accurate, and only the message shows it
        tol = config.ROOT_CLUSTER_TOL ** 0.5 * max(1.0, abs(worst))
        worst = np.mean([w for w in tz if abs(w - worst) <= tol])
        real = real_part(worst)
        shown = complex(worst.real, abs(worst.imag)) if real is None else real.item()
        raise AssumptionViolation(
            f"core model keeps a non-minimum-phase zero at {shown:.6g}"
        )
    return tuple(zeros), realization
