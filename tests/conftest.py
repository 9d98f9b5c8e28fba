import sys
from typing import NamedTuple

import numpy as np
import pytest

from dropstab.factorization import _allpass_section, gamma_scale, inner_outer
from dropstab.numkernel import eigenvalues
from dropstab.stabilizability import phi_diag_entry
from dropstab.statespace import (
    StateSpaceModel,
    TransferMatrix,
    cascade,
    evaluate,
    inverse,
    realize,
)


def _mul(*polys):
    out = np.array([1.0])
    for p in polys:
        out = np.convolve(out, np.asarray(p, dtype=float))
    return out.tolist()


@pytest.fixture(scope="session")
def example_tf() -> TransferMatrix:
    """Two-channel unstable NMP benchmark plant used throughout the suite.

    G11 = (z-0.25)(z+2) / (z(z-2)(z+1.5))
    G12 = (z-1.5)       / (z(z+1.5))
    G21 = (z+2)         / (z(z-2))
    G22 = (2z-2.75)(z-1.5) / (z(z-0.25)(z-2.5))
    """
    num = [
        [_mul([1, -0.25], [1, 2]), [1, -1.5]],
        [[1, 2], _mul([2, -2.75], [1, -1.5])],
    ]
    den = [
        [_mul([1, 0], [1, -2], [1, 1.5]), _mul([1, 0], [1, 1.5])],
        [_mul([1, 0], [1, -2]), _mul([1, 0], [1, -0.25], [1, -2.5])],
    ]
    return TransferMatrix(num=tuple(map(tuple, num)), den=tuple(map(tuple, den)))


@pytest.fixture(scope="session")
def example_ss(example_tf):
    return realize(example_tf)


#: channel zeros of the benchmark plant (one simple zero outside the disc per column)
EXAMPLE_ZEROS = (-2.0, 1.5)

#: unstable eigenvalue allocations of its two admissible decompositions,
#: keyed by processing order: ordering (1,2) and ordering (2,1)
EXAMPLE_LAMBDA_12 = ((2.0, -1.5), (2.5,))
EXAMPLE_LAMBDA_21 = ((2.0,), (-1.5, 2.5))

#: exact per-channel bounds (independent Parseval/fraction oracle)
VERTEX_12 = (1.0 / 21.0, 64.0 / 2605.0)
VERTEX_21 = (16.0 / 91.0, 9216.0 / 651245.0)


def constant_system(K) -> StateSpaceModel:
    """Order-zero model with feedthrough K."""
    K = np.asarray(K, dtype=float)
    return StateSpaceModel(np.zeros((0, 0)), np.zeros((0, K.shape[1])), np.zeros((K.shape[0], 0)), K)


def same_model(a: StateSpaceModel, b: StateSpaceModel) -> bool:
    """The two realizations are equal entry for entry."""
    return all(np.array_equal(x, y)
               for x, y in zip((a.A, a.B, a.C, a.D), (b.A, b.B, b.C, b.D)))


def _replace_bindings(monkeypatch, fn, replacement) -> None:
    """Bind ``replacement`` wherever a dropstab module binds ``fn``."""
    for name, mod in list(sys.modules.items()):
        if name == "dropstab" or name.startswith("dropstab."):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, replacement)


def count_calls(monkeypatch, fn) -> list:
    """Count the calls of library function ``fn`` made through any dropstab
    module binding of it; returns the list that grows by one per call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)

    _replace_bindings(monkeypatch, fn, counted)
    return calls


def raise_on_call(monkeypatch, fn) -> None:
    """Make every dropstab module binding of library function ``fn`` raise."""
    def refused(*args, **kwargs):
        raise AssertionError(f"{fn.__name__} was called")

    _replace_bindings(monkeypatch, fn, refused)


# --- doubly-coprime oracle ----------------------------------------------------
# ``bezout`` builds only the factors synthesis reads (M, Nt, Xt); this builds
# the whole family over the same gains, for the double Bezout identity and the
# controller's fraction formula.


class CoprimeFamily(NamedTuple):
    """``plant = N M^{-1} = Mt^{-1} Nt`` and
    ``[[Xt, -Yt], [-Nt, Mt]] @ [[M, Y], [N, X]] = I``."""

    M: StateSpaceModel
    N: StateSpaceModel
    X: StateSpaceModel
    Y: StateSpaceModel
    Mt: StateSpaceModel
    Nt: StateSpaceModel
    Xt: StateSpaceModel
    Yt: StateSpaceModel


def coprime_family(plant: StateSpaceModel, F, L) -> CoprimeFamily:
    """The eight factors over ``A - B F`` (right) and ``A - L C`` (left)."""
    A, B, C = plant.A, plant.B, plant.C
    AF, AL = A - B @ F, A - L @ C
    Ir, Zr = np.eye(plant.n_inputs), np.zeros((plant.n_inputs, plant.n_inputs))
    return CoprimeFamily(
        M=StateSpaceModel(AF, B, -F, Ir), N=StateSpaceModel(AF, B, C, Zr),
        X=StateSpaceModel(AF, L, C, Ir), Y=StateSpaceModel(AF, L, -F, Zr),
        Mt=StateSpaceModel(AL, -L, C, Ir), Nt=StateSpaceModel(AL, B, C, Zr),
        Xt=StateSpaceModel(AL, B, F, Ir), Yt=StateSpaceModel(AL, L, -F, Zr))


# --- Pick data and phi oracles ------------------------------------------------
# ``ScalingProblem`` reads its Pick data off the plant's left eigenvectors and
# evaluates phi in closed form; these take the coprime factor M itself.


def pick_data_svd(M: StateSpaceModel):
    """Unstable zeros ``lambda_i`` of M and, as the columns of W, unit left
    null vectors of ``M(lambda_i)``, each from an SVD of M evaluated there."""
    poles = eigenvalues(inverse(M).A) if M.order else np.zeros(0, complex)
    lam = poles[np.abs(poles) > 1.0]
    W = np.empty((M.n_inputs, lam.size), dtype=complex)
    for i, v in enumerate(lam):
        U, _, _ = np.linalg.svd(evaluate(M, v))
        W[:, i] = U[:, -1]
    return lam, W


def phi_inner_outer(M: StateSpaceModel, zeros, gamma) -> np.ndarray:
    """The diagonal phi of the all-pass factor of the scaled coprime factor
    ``diag(gamma) M diag(gamma)^{-1}``, by an inner-outer split."""
    io = inner_outer(gamma_scale(M, gamma))
    return np.array([phi_diag_entry(io.inner, z, j) for j, z in enumerate(zeros)])


# --- all-pass diagonal oracle -------------------------------------------------
# The rectangle corners are closed forms in each channel's Blaschke product;
# these realize that product as a balanced state-space cascade, so that
# ``phi_diag_entry`` on it gives the corners by an independent route.


class DiagonalInner(NamedTuple):
    """Per-channel scalar all-pass models, indexed by original channel."""

    lambdas: tuple   # tuple of per-channel unstable-eigenvalue tuples
    blocks: tuple    # tuple of scalar StateSpaceModel, one per channel


def _scalar_blaschke(lams) -> StateSpaceModel:
    """Cascade of balanced sections over an eigenvalue tuple (canonical order)."""
    if len(lams) == 0:
        return StateSpaceModel(np.zeros((0, 0)), np.zeros((0, 1)),
                               np.zeros((1, 0)), [[1.0]])
    vals = np.asarray(lams, dtype=complex)
    vals = vals[np.lexsort((np.angle(vals), np.abs(vals)))]
    sys = _allpass_section(vals[0])
    for v in vals[1:]:
        sys = cascade(_allpass_section(v), sys)
    return sys


def diagonal_inner(form) -> DiagonalInner:
    """Channel-wise all-pass diagonal for one decomposition: channel j's
    block is the Blaschke product over the unstable eigenvalues its diagonal
    block carries; channels with none get the static gain 1."""
    lam = form.lambda_by_channel()
    lams = tuple(lam[j] for j in range(form.n_channels))
    return DiagonalInner(lambdas=lams, blocks=tuple(map(_scalar_blaschke, lams)))
