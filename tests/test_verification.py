"""Tests for the second-moment analysis and the drop simulator."""

import ast
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import EXAMPLE_ZEROS, VERTEX_21, constant_system
from dropstab import verification
from dropstab.stabilizability import ChannelSpec, membership, synthesize
from dropstab.statespace import (
    StateSpaceModel,
    TransferMatrix,
    place_single_input,
    realize,
    stable_part,
)
from dropstab.verification import (
    StochasticClosedLoop,
    assemble,
    exact_moment_trace,
    monte_carlo_trace,
    second_moment_radius,
)


def _scalar_loop(a, k, p):
    plant = StateSpaceModel([[a]], [[1.0]], [[1.0]], [[0.0]])
    return assemble(plant, constant_system([[k]]), ChannelSpec([p]))


# --- assembly ----------------------------------------------------------------

def test_assemble_scalar_static_gain():
    a, k, p = 1.3, -0.9, 0.2
    loop = _scalar_loop(a, k, p)
    mu = 1.0 - p
    assert loop.order == 1
    assert_allclose(loop.A, [[a + mu * k]])
    assert_allclose(loop.noise_in @ loop.noise_out, [[mu * k]])
    assert_allclose(loop.nominal_radius, abs(a + mu * k))
    # hand-derived scalar covariance rate
    want = (a + mu * k) ** 2 + (p / (1 - p)) * (mu * k) ** 2
    assert_allclose(second_moment_radius(loop), want, rtol=1e-12)


def test_assemble_rejects_feedthrough_and_mismatch():
    biprop = StateSpaceModel([[0.5]], [[1.0]], [[1.0]], [[1.0]])
    with pytest.raises(ValueError, match="feedthrough"):
        assemble(biprop, constant_system([[0.1]]), ChannelSpec([0.1]))
    plant = StateSpaceModel([[0.5]], [[1.0]], [[1.0]], [[0.0]])
    with pytest.raises(ValueError, match="channels"):
        assemble(plant, constant_system([[0.1]]), ChannelSpec([0.1, 0.1]))
    with pytest.raises(ValueError, match="dimensions"):
        assemble(plant, constant_system([[0.1], [0.2]]), ChannelSpec([0.1]))


def test_assemble_refuses_a_complex_controller():
    plant = StateSpaceModel([[0.5]], [[1.0]], [[1.0]], [[0.0]])
    # a pole at 0.3j has no real realization
    K = StateSpaceModel([[0.3j]], [[1.0]], [[0.1]], [[0.0]])
    with pytest.raises(ValueError, match="K.A must be a real matrix"):
        assemble(plant, K, ChannelSpec([0.1]))
    # rounding noise in the data is no reason to refuse
    K = StateSpaceModel([[0.3 + 1e-12j]], [[1.0]], [[0.1]], [[0.0]])
    assert_allclose(assemble(plant, K, ChannelSpec([0.1])).A, [[0.5, 0.09], [1.0, 0.3]])


def test_assemble_open_loop_instability_is_reported_not_fatal():
    plant = StateSpaceModel([[2.0]], [[1.0]], [[1.0]], [[0.0]])
    loop = assemble(plant, constant_system([[0.0]]), ChannelSpec([0.3]))
    assert loop.nominal_radius == pytest.approx(2.0)
    assert second_moment_radius(loop) == pytest.approx(4.0)


# --- exact covariance propagation ---------------------------------------------

def test_exact_trace_matches_vectorized_operator():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(3, 3))
    A *= 0.7 / max(np.abs(np.linalg.eigvals(A)))
    plant = StateSpaceModel(A, rng.normal(size=(3, 2)), rng.normal(size=(2, 3)),
                            np.zeros((2, 2)))
    K = constant_system(0.1 * rng.normal(size=(2, 2)))
    ch = ChannelSpec([0.15, 0.3])
    loop = assemble(plant, K, ch)
    trace = exact_moment_trace(loop, 12)

    T = np.kron(loop.A, loop.A)
    for j, s2 in enumerate(ch.sigma_sq):
        E = loop.noise_in[:, [j]] @ loop.noise_out[[j], :]
        T += s2 * np.kron(E, E)
    x0 = np.eye(loop.order)[0]
    v = np.outer(x0, x0).reshape(-1, order="F")
    for t in range(13):
        P = v.reshape(loop.order, loop.order, order="F")
        assert abs(np.trace(P) - trace[t]) < 1e-10 * max(1.0, trace[t])
        v = T @ v


def test_exact_trace_grows_when_radius_exceeds_one():
    # nominally stable mean loop that the dropout variance pushes over one
    loop = _scalar_loop(1.4, -1.0, 0.49)
    assert loop.nominal_radius < 1.0
    rad = second_moment_radius(loop)
    assert rad > 1.0
    trace = exact_moment_trace(loop, 400)
    assert trace[400] > trace[200] > trace[100]


def test_second_moment_radius_order_cap():
    n = 31
    plant = StateSpaceModel(np.eye(n) * 0.1, np.ones((n, 1)), np.ones((1, n)),
                            np.zeros((1, 1)))
    loop = assemble(plant, constant_system([[0.0]]), ChannelSpec([0.1]))
    with pytest.raises(ValueError, match="cap"):
        second_moment_radius(loop)


# --- against a per-channel reference loop --------------------------------------
# The reference keeps one noise column b_j and row c_j per channel and adds
# the channels one at a time, as the covariance recursion is written.


def _random_loop(rng):
    """A seeded loop with 1-4 channels and order 2-12, and its per-channel
    noise terms built straight from the plant and controller."""
    r = int(rng.integers(1, 5))
    n = int(rng.integers(2, 13))
    nk = int(rng.integers(0, n - 1))
    npl = n - nk
    A = rng.normal(size=(npl, npl))
    plant = StateSpaceModel(0.9 * A / max(np.abs(np.linalg.eigvals(A))),
                            rng.normal(size=(npl, r)), rng.normal(size=(r, npl)),
                            np.zeros((r, r)))
    AK = rng.normal(size=(nk, nk))
    if nk:
        AK *= 0.8 / max(np.abs(np.linalg.eigvals(AK)))
    K = StateSpaceModel(AK, rng.normal(size=(nk, r)), 0.3 * rng.normal(size=(r, nk)),
                        0.3 * rng.normal(size=(r, r)))
    ch = ChannelSpec(rng.uniform(0.0, 0.4, r))
    loop = assemble(plant, K, ch)
    # contiguous real copies, as assemble takes them: a product on a strided
    # view can round differently
    B, C, CK, DK = (np.real(M).astype(float) for M in (plant.B, plant.C, K.C, K.D))
    Bmu = B * ch.mu
    cols = [np.concatenate([Bmu[:, j], np.zeros(nk)]).reshape(-1, 1) for j in range(r)]
    rows = [np.concatenate([DK[j, :] @ C, CK[j, :]]).reshape(1, -1) for j in range(r)]
    return loop, cols, rows


def _reference_exact(loop, cols, rows, steps):
    x0 = np.eye(loop.order)[0]
    P = np.outer(x0, x0)
    out = [np.trace(P)]
    for _ in range(steps):
        nxt = loop.A @ P @ loop.A.T
        for b, c, s2 in zip(cols, rows, loop.channels.sigma_sq):
            nxt += s2 * ((b @ c) @ P @ (b @ c).T)
        P = nxt
        out.append(np.trace(P))
    return np.array(out)


def _reference_monte_carlo(loop, cols, rows, steps, trials, seed):
    p, mu = loop.channels.p, loop.channels.mu
    X = np.tile(np.eye(loop.order)[:, [0]], (1, trials))
    omega = np.empty((steps, len(cols), trials))
    for t in range(trials):
        alpha = (np.random.default_rng([seed, t]).random((steps, len(cols))) >= p)
        omega[:, :, t] = alpha / mu - 1.0
    out = [np.sum(X * X) / trials]
    for k in range(steps):
        nxt = loop.A @ X
        for j, (b, c) in enumerate(zip(cols, rows)):
            nxt += b @ (omega[k, j] * (c @ X))
        X = nxt
        out.append(np.sum(X * X) / trials)
    return np.array(out)


def test_traces_match_per_channel_reference():
    rng = np.random.default_rng(2024)
    for _ in range(30):
        loop, cols, rows = _random_loop(rng)
        assert loop.noise_in.shape == (loop.order, loop.channels.r)
        assert loop.noise_out.shape == (loop.channels.r, loop.order)
        assert_allclose(exact_moment_trace(loop, 60),
                        _reference_exact(loop, cols, rows, 60), rtol=1e-12)
        seed = int(rng.integers(100))
        assert_allclose(monte_carlo_trace(loop, 60, trials=7, seed=seed),
                        _reference_monte_carlo(loop, cols, rows, 60, 7, seed), rtol=1e-12)


def test_second_moment_radius_equals_per_channel_kronecker_sum():
    rng = np.random.default_rng(77)
    for _ in range(30):
        loop, cols, rows = _random_loop(rng)
        T = np.kron(loop.A, loop.A)
        for b, c, s2 in zip(cols, rows, loop.channels.sigma_sq):
            T = T + s2 * np.kron(b @ c, b @ c)
        assert second_moment_radius(loop) == float(np.max(np.abs(np.linalg.eigvals(T))))


# --- simulation ----------------------------------------------------------------

def test_monte_carlo_equals_exact_without_drops():
    loop = _scalar_loop(1.5, -1.0, 0.0)
    mc = monte_carlo_trace(loop, 40, trials=3, seed=9)
    exact = exact_moment_trace(loop, 40)
    assert_allclose(mc, exact, rtol=1e-12, atol=1e-300)


def test_monte_carlo_is_seed_reproducible():
    loop = _scalar_loop(1.2, -0.9, 0.25)
    a = monte_carlo_trace(loop, 30, trials=20, seed=4)
    b = monte_carlo_trace(loop, 30, trials=20, seed=4)
    c = monte_carlo_trace(loop, 30, trials=20, seed=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # growing the trial count keeps the earlier streams intact
    d = monte_carlo_trace(loop, 30, trials=40, seed=4)
    assert not np.array_equal(a, d)


def test_monte_carlo_tracks_exact_mean():
    # light dropout so the fourth moment stays comparable to the squared
    # second moment; heavier noise makes the estimator variance explode
    # long before the mean does
    loop = _scalar_loop(1.05, -0.5, 0.05)
    exact = exact_moment_trace(loop, 12)
    mc = monte_carlo_trace(loop, 12, trials=4000, seed=1)
    for k in (4, 8, 12):
        assert abs(mc[k] - exact[k]) < 0.1 * exact[k]


def test_monte_carlo_memory_guard():
    loop = _scalar_loop(0.5, 0.0, 0.1)
    with pytest.raises(ValueError, match="bytes"):
        monte_carlo_trace(loop, 10 ** 7, trials=10 ** 4)


@pytest.mark.parametrize("steps", [-1, -2])
def test_traces_reject_a_negative_step_count(steps):
    loop = _scalar_loop(0.5, 0.0, 0.1)
    with pytest.raises(ValueError, match="need steps >= 0"):
        exact_moment_trace(loop, steps)
    with pytest.raises(ValueError, match="need steps >= 0"):
        monte_carlo_trace(loop, steps, trials=1)


# --- order zero ----------------------------------------------------------------

def _stable_part_of_a_static_model():
    model = constant_system([[1.0, 2.0], [3.0, 4.0]])
    part, dropped = stable_part(model)
    assert part is model and dropped == 0.0


def _placement_without_states():
    gain = place_single_input(np.zeros((0, 0)), np.zeros(0), [])
    assert gain.shape == (0,)


def _realization_of_a_constant():
    g = realize(TransferMatrix(num=(((2.0,), (0.0,)), ((0.0,), (3.0,))),
                               den=(((1.0,), (1.0,)), ((1.0,), (1.0,)))))
    assert g.order == 0
    assert np.array_equal(g.D, [[2.0, 0.0], [0.0, 3.0]])


def _static_loop():
    loop = assemble(constant_system(np.zeros((2, 2))), constant_system(0.5 * np.eye(2)),
                    ChannelSpec([0.1, 0.2]))
    assert loop.order == 0
    assert second_moment_radius(loop) == 0.0
    assert np.array_equal(exact_moment_trace(loop, 3), np.zeros(4))
    assert np.array_equal(monte_carlo_trace(loop, 3, trials=2), np.zeros(4))


@pytest.mark.parametrize("case", [
    _stable_part_of_a_static_model, _placement_without_states,
    _realization_of_a_constant, _static_loop,
], ids=lambda case: case.__name__.strip("_"))
def test_order_zero_early_returns(case):
    # each early return for a model without states gives the trivial answer
    case()


# --- end to end against the synthesis path -------------------------------------

def test_benchmark_loop_verifies_mean_square_stable(example_ss):
    p = 0.9 * np.asarray(VERTEX_21)
    ch = ChannelSpec(p)
    rep = membership(example_ss, EXAMPLE_ZEROS, ch)
    assert rep.member
    K = synthesize(example_ss, EXAMPLE_ZEROS, ch, rep.tame_certificate.gamma).K
    loop = assemble(example_ss, K, ch)
    assert loop.nominal_radius < 1.0
    rad = second_moment_radius(loop)
    assert rad < 1.0
    # the loop is badly non-normal: a large transient hump precedes the
    # asymptotic decay, so judge decay on a long horizon against the peak
    trace = exact_moment_trace(loop, 2000)
    assert trace[2000] < 1e-10 * trace.max()
    mc = monte_carlo_trace(loop, 2000, trials=50, seed=0)
    assert mc[2000] < 1e-6 * mc.max()


def test_benchmark_loop_detects_failure_beyond_the_region(example_ss):
    # same controller, but channels much worse than designed for
    ch_design = ChannelSpec(0.9 * np.asarray(VERTEX_21))
    K = synthesize(example_ss, EXAMPLE_ZEROS, ch_design, np.array([1.0, 1.0])).K
    harsh = ChannelSpec([0.5, 0.5])
    rad = second_moment_radius(assemble(example_ss, K, harsh))
    assert rad > 1.0


# --- independence ---------------------------------------------------------------

def _package_modules(tree) -> set:
    """The dropstab modules a module imports, by name; a name imported from
    the package itself (``from . import config``) counts as that module."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "dropstab." + (node.module or "") if node.level else node.module
            paths = [f"{base.rstrip('.')}.{alias.name}" for alias in node.names]
        else:
            continue
        found |= {path.split(".")[1] for path in paths if path.startswith("dropstab.")}
    return found


def test_verification_imports_no_synthesis_code():
    # the checks share no code with the synthesis path they check
    tree = ast.parse(Path(verification.__file__).read_text(encoding="utf-8"))
    assert _package_modules(tree) == {"numkernel", "statespace"}
