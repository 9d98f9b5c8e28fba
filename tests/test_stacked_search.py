"""The stacked phi evaluation and the search stages built on it.

phi of a stack of scalings takes one stacked Cholesky factorization, which
runs the same LAPACK routine on each slice as one scaling alone, then a
forward substitution of elementwise and einsum products over the rows, with
no BLAS product over the stack.  So every comparison of the stacked search
with its point-by-point copy (``_pointwise_search``: the two-channel axis,
the pencil's point, the stencil) is exact (``==``), never a tolerance.  The
pivoting LU solve on the same factor (``_phi_by_lu``, up to 7 poles) and the
Gram formula (``conftest.phi_pick_gram``, at 3 poles, where the Pick matrix
is well conditioned) value phi by other arithmetic and are held to 1e-10
relative.  The Nelder-Mead search the stencil replaced (``_reference_search``), the grid
search that the box-spanning stencil replaced at three or more channels
(``_grid_search``) and a dense scan find the minimizer by other arithmetic,
so the search's value is held to theirs within 1e-9.
"""

import gc
import importlib
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from conftest import EXAMPLE_ZEROS, VERTEX_12, phi_pick_gram
from dropstab import config
from dropstab.factorization import MAX_CHANNELS
from dropstab.stabilizability import (
    ChannelSpec,
    ScalingProblem,
    membership,
    rectangle_set,
    sweep_bounds,
)
from dropstab.statespace import StateSpaceModel, TransferMatrix, realize

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _channel_zeros(rng, r: int) -> tuple:
    """Per channel: clean, or a real or complex zero outside the unit disc."""
    zeros = []
    for kind in rng.integers(0, 3, r):
        radius = rng.uniform(1.2, 3.0)
        zeros.append(None if kind == 0
                     else float(radius * rng.choice([-1, 1])) if kind == 1
                     else complex(radius * np.exp(1j * rng.uniform(0.1, 3.0))))
    return tuple(zeros)


def _random_problem(seed: int, r: int) -> ScalingProblem:
    """An r-channel plant with a complex unstable pair, one real unstable
    pole and stable rest, its channels clean or carrying a real or complex
    zero outside the unit disc."""
    rng = np.random.default_rng(seed)
    n = r + 2
    rho, theta = rng.uniform(1.1, 2.4), rng.uniform(0.2, 2.9)
    A = np.zeros((n, n))
    A[:2, :2] = rho * np.array([[np.cos(theta), -np.sin(theta)],
                                [np.sin(theta), np.cos(theta)]])
    A[2:, 2:] = np.diag(np.concatenate([rng.uniform(1.1, 2.4, 1) * rng.choice([-1, 1]),
                                        rng.uniform(-0.8, 0.8, n - 3)]))
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    plant = StateSpaceModel(Q.T @ A @ Q, rng.normal(size=(n, r)),
                            rng.normal(size=(r, n)), np.zeros((r, r)))
    return ScalingProblem(plant, _channel_zeros(rng, r))


def _many_pole_problem(rng, r: int, k: int) -> ScalingProblem:
    """An r-channel plant with k unstable poles, some of them complex pairs,
    at least 0.05 apart, and r stable poles."""
    pairs = int(rng.integers(0, k // 2 + 1))
    while True:
        poles = rng.uniform(1.1, 2.4, k - pairs) * np.exp(1j * np.concatenate(
            [rng.uniform(0.2, 2.9, pairs), rng.choice([0.0, np.pi], k - 2 * pairs)]))
        spectrum = np.concatenate([poles, poles[:pairs].conj()])
        gaps = np.abs(spectrum[:, None] - spectrum[None, :]) + 9.0 * np.eye(k)
        if gaps.min() > 0.05:
            break
    n = k + r
    A = np.zeros((n, n))
    for i, v in enumerate(poles[:pairs]):
        A[2 * i:2 * i + 2, 2 * i:2 * i + 2] = [[v.real, -v.imag], [v.imag, v.real]]
    A[2 * pairs:, 2 * pairs:] = np.diag(np.concatenate([poles[pairs:].real,
                                                        rng.uniform(-0.8, 0.8, r)]))
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    plant = StateSpaceModel(Q.T @ A @ Q, rng.normal(size=(n, r)),
                            rng.normal(size=(r, n)), np.zeros((r, r)))
    return ScalingProblem(plant, _channel_zeros(rng, r))


def _phi_by_lu(problem, gammas):
    """phi as it was valued before forward substitution: each row's
    Cholesky factor, formed as ``phi`` forms it, solved against U* by
    numpy's pivoting LU (gesv); inf where the factor fails or phi is not
    finite."""
    d = gammas ** -2.0
    out = np.full(gammas.shape, np.inf)
    for i in range(len(d)):
        try:
            L = np.linalg.cholesky(np.einsum("nj,jik->nik", d[i:i + 1], problem._parts))
        except np.linalg.LinAlgError:
            continue
        Z = np.linalg.solve(L, problem._rhs)
        out[i] = d[i] * np.sum(np.abs(Z[0]) ** 2, axis=0)
    out[~np.all(np.isfinite(out), axis=1)] = np.inf
    return out


def test_stacked_phi_many_poles():
    # forward substitution takes one step per pole: at 4 to 7 poles the
    # stack still equals its rows, and the pivoting LU on the same factor
    # gives the same failed rows and the same phi to 1e-10 relative
    rng = np.random.default_rng(41)
    for _ in range(40):
        r, k = int(rng.integers(2, 5)), int(rng.integers(4, 8))
        problem = _many_pole_problem(rng, r, k)
        assert problem._parts.shape == (r, k, k)
        logs = rng.uniform(config.GAMMA_LOG_MIN, config.GAMMA_LOG_MAX, (50, r - 1))
        gammas = np.hstack([np.ones((50, 1)), 10.0 ** logs])
        stacked = problem.phi(gammas)
        assert np.array_equal(stacked, np.array([problem.phi(g) for g in gammas]))
        oracle = _phi_by_lu(problem, gammas)
        failed = np.isinf(stacked[:, 0])
        assert np.array_equal(failed, np.isinf(oracle[:, 0]))
        gap = np.abs(stacked[~failed] - oracle[~failed]) / np.abs(oracle[~failed])
        assert np.all(gap <= 1e-10), (r, k, np.max(gap))


@st.composite
def _problem_and_scalings(draw):
    r = draw(st.sampled_from((2, 3, 4)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    logs = draw(arrays(np.float64, (draw(st.integers(1, 40)), r - 1),
                       elements=st.floats(config.GAMMA_LOG_MIN, config.GAMMA_LOG_MAX)))
    return _random_problem(seed, r), np.hstack([np.ones((len(logs), 1)), 10.0 ** logs])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_problem_and_scalings())
def test_stacked_phi_equals_rows(case):
    problem, gammas = case
    stacked = problem.phi(gammas)
    assert stacked.shape == gammas.shape
    rows = np.array([problem.phi(g) for g in gammas])
    assert np.array_equal(stacked, rows)
    assert np.array_equal(problem.phi(gammas[:1]), rows[:1])
    # the pencil gives the Gram form's phi, and fails at the same rows
    reference = phi_pick_gram(problem.plant, problem.zeros, gammas)
    failed = np.isinf(stacked[:, 0])
    assert np.array_equal(failed, np.isinf(reference[:, 0]))
    gap = np.abs(stacked[~failed] - reference[~failed]) / np.abs(reference[~failed])
    assert np.all(gap <= 1e-10), np.max(gap)


def test_stacked_phi_validation():
    problem = _random_problem(0, 2)
    for bad in (np.ones((3, 3)), np.ones((2, 2, 2)), np.array([[1.0, 1.0], [1.0, 0.0]]),
                np.array([[1.0, 1.0], [1.0, np.nan]])):
        with pytest.raises(ValueError, match="gamma must hold"):
            problem.phi(bad)
    # one bad row fails alone: on a decoupled plant, a scaling far outside
    # the search box underflows the Pick matrix to a singular one, which
    # fails the stacked factorization (1e200), or overflows it to a
    # non-finite phi (1e-200); that row is inf in every entry and every
    # other row is the value of its scaling alone
    decoupled = ScalingProblem(_decoupled(), (None, None))
    with np.errstate(all="ignore"):
        for far in (1e200, 1e-200):
            gammas = np.array([[1.0, 1.0], [1.0, far], [1.0, 2.0]])
            got = decoupled.phi(gammas)
            assert np.array_equal(got[1], [np.inf, np.inf])
            for i in (0, 2):
                assert np.array_equal(got[i], decoupled.phi(gammas[i]))


def test_sweep_bounds_equals_pointwise_loop(example_ss):
    problem = ScalingProblem(example_ss, EXAMPLE_ZEROS)
    logs = np.linspace(config.GAMMA_LOG_MIN, config.GAMMA_LOG_MAX, 481)
    gammas = np.column_stack([np.ones_like(logs), 10.0 ** logs])
    loop = np.array([1.0 / (problem.phi(g) + 1.0) for g in gammas])
    assert np.array_equal(sweep_bounds(example_ss, EXAMPLE_ZEROS), loop)


def _pointwise_search(phi, p, crossing=None):
    """Reference search, one phi call per point: with two channels the
    axis scanned in order keeping strict improvements only, then, given
    ``crossing`` (the pencil's log10 gamma_2), that point; with three or
    more channels, and with two where there is no crossing or phi fails
    there, the shrinking stencil from the incumbent (the origin while no
    value is finite), its step starting at 12 decades over 8 steps, each
    round scanned the same way.  Returns (best value, certificate, tame
    scaling or None, failures)."""
    ndim = p.size - 1
    evals, failures = {}, [0]

    def objective(x):
        x = np.clip(x, config.GAMMA_LOG_MIN, config.GAMMA_LOG_MAX)
        f = phi(np.concatenate([[1.0], 10.0 ** x]))
        if np.isinf(f).any():
            failures[0] += 1
            return math.inf
        evals[tuple(x)] = val = float(np.max(p * (f + 1.0)))
        return val

    def scan(points, best_val, best_x):
        for x in points:
            val = objective(x)
            if val < best_val:
                best_val, best_x = val, x
        return best_val, best_x

    best_val, best_x = math.inf, np.zeros(ndim)
    if ndim == 1:
        axis = np.linspace(config.GAMMA_LOG_MIN, config.GAMMA_LOG_MAX, config.GAMMA_GRID_POINTS)
        best_val, best_x = scan((np.array([c]) for c in axis), best_val, best_x)
    refine = True
    if crossing is not None:
        x = np.array([crossing])
        val = objective(x)
        if val < math.inf:
            refine = False
            if val < best_val:
                best_val, best_x = val, x
    step = 12.0 / 8.0
    while refine and step > 1e-10:
        points = [np.clip(best_x + step * np.asarray(k, dtype=float),
                          config.GAMMA_LOG_MIN, config.GAMMA_LOG_MAX)
                  for k in itertools.product(range(-4, 5), repeat=ndim)]
        best_val, best_x = scan(points, best_val, best_x)
        step /= 4.0
    certificate = np.concatenate([[1.0], 10.0 ** np.clip(best_x, config.GAMMA_LOG_MIN,
                                                         config.GAMMA_LOG_MAX)])
    ok = [(max(abs(c) for c in x), v, x) for x, v in evals.items()
          if v < 1.0 - config.MEMBER_GUARD]
    tame = np.concatenate([[1.0], 10.0 ** np.asarray(min(ok)[2])]) if ok else None
    return best_val, certificate, tame, failures[0]


def _grid_search(problem, p):
    """The search before its stencil spanned the box at three or more
    channels: a ``GAMMA_GRID_POINTS^(r-1)``-point grid in one stacked phi
    call, then the shrinking stencil from the grid's first minimum, its
    step starting at the grid spacing.  Returns the best value."""
    ndim = p.size - 1
    axis = np.linspace(config.GAMMA_LOG_MIN, config.GAMMA_LOG_MAX, config.GAMMA_GRID_POINTS)

    def values(X):
        X = np.clip(X, config.GAMMA_LOG_MIN, config.GAMMA_LOG_MAX)
        phis = problem.phi(np.hstack([np.ones((len(X), 1)), 10.0 ** X]))
        return X, np.max(p * (phis + 1.0), axis=1)

    X, vals = values(np.array(list(itertools.product(axis, repeat=ndim))))
    best_val, best_x = float(vals.min()), X[int(np.argmin(vals))]
    offsets = np.array(list(itertools.product(range(-4, 5), repeat=ndim)), dtype=float)
    step = axis[1] - axis[0]
    while step > 1e-10:
        X, vals = values(best_x + step * offsets)
        if vals.min() < best_val:
            best_val, best_x = float(vals.min()), X[int(np.argmin(vals))]
        step /= 4.0
    return best_val


def _reference_search(problem, p):
    """The search as it was before the stencil: the grid, one stacked phi
    call, then a Nelder-Mead simplex from its incumbent, point by point.
    Returns (best value, failures)."""
    ndim = p.size - 1
    failures = [0]

    def objective(x):
        x = np.clip(x, config.GAMMA_LOG_MIN, config.GAMMA_LOG_MAX)
        f = problem.phi(np.concatenate([[1.0], 10.0 ** x]))
        if np.isinf(f).any():
            failures[0] += 1
            return math.inf
        return float(np.max(p * (f + 1.0)))

    axis = np.linspace(config.GAMMA_LOG_MIN, config.GAMMA_LOG_MAX, config.GAMMA_GRID_POINTS)
    grid = np.array(list(itertools.product(axis, repeat=ndim)))
    values = np.max(p * (problem.phi(np.hstack([np.ones((len(grid), 1)), 10.0 ** grid]))
                         + 1.0), axis=1)
    best_val, best_x = float(values.min()), grid[int(np.argmin(values))]
    simplex = [best_x] + [best_x + 0.25 * e for e in np.eye(ndim)]
    # failed points are inf, and the convergence test subtracts inf from inf
    with np.errstate(invalid="ignore"):
        res = scipy.optimize.minimize(objective, best_x, method="Nelder-Mead", options={
            "maxfev": 200, "initial_simplex": np.asarray(simplex),
            "xatol": 1e-6, "fatol": 1e-12})
    return min(best_val, float(res.fun)), failures[0]


def _perfbench(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module(name)


def _three_channel(monkeypatch, scale):
    """A seeded 3-channel plant probed at ``scale`` times the corner of its
    largest rectangle: the stencil refines there."""
    plants = _perfbench(monkeypatch, "plants")
    plant, zeros = plants.admissible_plant(np.random.default_rng(3), 3, 3, 2, (1, 2))
    rects = rectangle_set(plant, zeros)
    corner = np.asarray(rects.vertices[int(np.argmax(rects.volumes))])
    return plant, zeros, ChannelSpec(scale * corner)


def _flaky(phi, failed):
    """phi failing wherever gamma_2 > 1e4, as phi fails a row: inf in every
    entry; logs each failed row."""
    def flaky(self, gamma):
        out = phi(self, gamma)
        rows = np.atleast_2d(out)
        bad = np.atleast_2d(gamma)[:, 1] > 1e4
        rows[bad] = np.inf
        failed.extend(np.atleast_2d(gamma)[bad, 1])
        return out
    return flaky


def _recording(phi, stacks):
    """phi logging the log10 free scalings of every stack of more than one
    row before it evaluates them."""
    def recording(self, gamma):
        g = np.atleast_2d(gamma)
        if len(g) > 1:
            stacks.append(np.log10(g[:, 1:]))
        return phi(self, gamma)
    return recording


def _stencil_round(centre, step):
    """The log10 scalings of one stencil round around ``centre``, clipped to
    the box, in lexicographic order."""
    ticks = itertools.product(range(-4, 5), repeat=len(centre))
    return np.clip(np.asarray(centre) + step * np.array(list(ticks), dtype=float),
                   config.GAMMA_LOG_MIN, config.GAMMA_LOG_MAX)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_membership_failures_fall_back_row_by_row(example_ss, monkeypatch):
    # the scaling that certifies 0.9 of the (1,2) corner sits at gamma_2 near
    # the top of the box, where every point is made to fail: the pencil's
    # point fails too and counts as one more failure, and the stencil then
    # runs as without the pencil, each failed row of its stacks infinite
    # and counted; the inf values must not raise a numeric warning
    phi = ScalingProblem.phi
    ch = ChannelSpec(0.9 * np.asarray(VERTEX_12))
    failed = []
    flaky = _flaky(phi, failed)
    problem = ScalingProblem(example_ss, EXAMPLE_ZEROS)
    ref_val, ref_cert, ref_tame, ref_failures = _pointwise_search(
        lambda g: flaky(problem, g), ch.p)
    assert ref_failures == len(failed) > 0
    failed.clear()
    monkeypatch.setattr(ScalingProblem, "phi", flaky)
    rep = membership(example_ss, EXAMPLE_ZEROS, ch)
    log = rep.search_log
    assert log["refine"] == "stencil"
    assert log["refine_fallback"] == "phi failed at the pencil point"
    assert log["objective_failures"] == len(failed) == ref_failures + 1
    assert rep.best_value == ref_val
    assert np.array_equal(rep.certificate.gamma, ref_cert)
    assert rep.member and np.array_equal(rep.tame_certificate.gamma, ref_tame)

    def broken(self, gamma):
        return np.full(np.shape(gamma), np.inf)

    monkeypatch.setattr(ScalingProblem, "phi", broken)
    with pytest.raises(ValueError, match="failed at every point"):
        membership(example_ss, EXAMPLE_ZEROS, ch)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_membership_three_channels_fall_back_row_by_row(monkeypatch):
    # the stencil path, bit for bit, on stencil stacks with failed rows:
    # the first round, around the box centre, spans the box and meets the
    # failing points at its top
    phi = ScalingProblem.phi
    plant, zeros, ch = _three_channel(monkeypatch, 0.9)
    failed, stacks = [], []
    flaky = _flaky(phi, failed)
    problem = ScalingProblem(plant, zeros)
    ref_val, ref_cert, ref_tame, ref_failures = _pointwise_search(
        lambda g: flaky(problem, g), ch.p)
    assert ref_failures == len(failed) > 0
    failed.clear()
    monkeypatch.setattr(ScalingProblem, "phi", _recording(flaky, stacks))
    rep = membership(plant, zeros, ch)
    assert_allclose(stacks[0], _stencil_round([0.0, 0.0], 1.5), rtol=0, atol=1e-12)
    assert rep.search_log["refine"] == "stencil"
    assert "refine_fallback" not in rep.search_log
    assert rep.search_log["objective_failures"] == len(failed) == ref_failures
    assert rep.best_value == ref_val
    assert np.array_equal(rep.certificate.gamma, ref_cert)
    assert rep.member and np.array_equal(rep.tame_certificate.gamma, ref_tame)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_membership_failed_rows_are_infinite_without_nan(example_ss, monkeypatch):
    # with p_1 = 0 a failed row valued by arithmetic on an infinite phi
    # would be 0 * inf = nan: every failed row must be infinite, the
    # pencil's point (the top of the box, where phi is made to fail) one
    # phi call and one failure, and the stencil as its point-by-point copy
    phi = ScalingProblem.phi
    ch = ChannelSpec([0.0, 0.9 * VERTEX_12[1]])
    failed = []
    flaky = _flaky(phi, failed)
    problem = ScalingProblem(example_ss, EXAMPLE_ZEROS)
    assert problem.crossing(ch.p) == (config.GAMMA_LOG_MAX, 0)
    ref_val, ref_cert, ref_tame, ref_failures = _pointwise_search(
        lambda g: flaky(problem, g), ch.p)
    assert ref_failures == len(failed) > 0
    failed.clear()
    monkeypatch.setattr(ScalingProblem, "phi", flaky)
    rep = membership(example_ss, EXAMPLE_ZEROS, ch)
    log = rep.search_log
    assert log["refine"] == "stencil"
    assert log["refine_fallback"] == "phi failed at the pencil point"
    assert log["objective_failures"] == len(failed) == ref_failures + 1
    assert rep.best_value == ref_val
    assert np.array_equal(rep.certificate.gamma, ref_cert)
    assert rep.member and np.array_equal(rep.tame_certificate.gamma, ref_tame)


def test_real_pair_einsum_equals_the_complex_einsum():
    # phi forms Pi(d) = sum_j d_j B_j over the real pairs of the Hermitian
    # parts; that adds the same products in the same order as the complex
    # einsum, which first casts the real d to complex, so the two agree in
    # every bit, signed zeros included, over stacks of 1 to 729 rows
    rng = np.random.default_rng(37)
    for _ in range(400):
        r, k, n = int(rng.integers(1, 6)), int(rng.integers(1, 8)), int(rng.integers(1, 730))
        W = rng.normal(size=(r, k)) + 1j * rng.normal(size=(r, k))
        lam = rng.uniform(1.05, 3.0, k) * np.exp(1j * rng.uniform(-np.pi, np.pi, k))
        parts = W.conj()[:, :, None] * W[:, None, :] / (lam[:, None] * lam.conj() - 1.0)
        d = 10.0 ** rng.uniform(-12.0, 12.0, (n, r))
        pairs = np.einsum("nj,jik->nik", d, parts.view(float)).view(complex)
        assert np.array_equal(pairs.view(np.uint64),
                              np.einsum("nj,jik->nik", d, parts).view(np.uint64))
    problem = _random_problem(0, 3)
    assert problem._parts_ri.shape == (3, 3, 6)
    assert np.shares_memory(problem._parts_ri, problem._parts)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nonfinite_phi_rows_are_infinite_and_counted(example_ss, monkeypatch):
    # a row whose Pick factor succeeds but whose phi is not finite (inf or
    # nan, no LinAlgError) is inf in every entry, though its other channel
    # is finite; membership counts it as a failure, also with p_1 = 0,
    # where valuing it would be 0 * inf, without a numeric warning
    problem = ScalingProblem(example_ss, EXAMPLE_ZEROS)
    gammas = np.array([[1.0, 0.1], [1.0, 1.0], [1.0, 10.0]])
    finite = problem.phi(gammas)
    assert np.all(np.isfinite(finite))
    for bad in (np.inf, np.nan):
        rhs = problem._rhs.copy()
        rhs[-1, 1] = bad
        poisoned = ScalingProblem(example_ss, EXAMPLE_ZEROS)
        object.__setattr__(poisoned, "_rhs", rhs)
        # the last substitution step divides inf by the factor's diagonal
        with np.errstate(invalid="ignore"):
            assert np.array_equal(poisoned.phi(gammas), np.full(gammas.shape, np.inf))
            assert np.array_equal(poisoned.phi(gammas[1]), [np.inf, np.inf])
    # the factor's last row left of its diagonal is nan at every gamma_2
    # above 1e4, as the d_2 = gamma_2^-2 read off its first entry tells
    # (phi's last step then runs on nan quietly); the search must then run
    # as if phi failed those rows itself, bit for bit
    B1, B2 = problem._parts[:, 0, 0].real
    cholesky, masks = np.linalg.cholesky, []

    def nan_factor(a):
        L = cholesky(a)
        if L.ndim == 2:   # the pencil's B_1 + B_2
            return L
        bad = (a[:, 0, 0].real - B1) / B2 < 1e-8
        L[bad, -1, :-1] = np.nan
        masks.append(bad)
        return L

    ch = ChannelSpec([0.0, 0.9 * VERTEX_12[1]])
    monkeypatch.setattr(np.linalg, "cholesky", nan_factor)
    rep = membership(example_ss, EXAMPLE_ZEROS, ch)
    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    failures = int(sum(np.count_nonzero(m) for m in masks))
    assert rep.search_log["objective_failures"] == failures > 0
    phi, replay = ScalingProblem.phi, iter(masks)

    def failing(self, gamma):
        out = phi(self, gamma)
        np.atleast_2d(out)[next(replay)] = np.inf
        return out

    monkeypatch.setattr(ScalingProblem, "phi", failing)
    ref = membership(example_ss, EXAMPLE_ZEROS, ch)
    assert next(replay, None) is None
    assert rep.search_log == ref.search_log
    assert rep.best_value == ref.best_value and rep.member == ref.member
    assert np.array_equal(rep.certificate.gamma, ref.certificate.gamma)
    assert np.array_equal(rep.tame_certificate.gamma, ref.tame_certificate.gamma)


def _off_grid(phi, also=()):
    """phi failing (inf in every entry) at every grid point (each log10
    gamma a multiple of 1/2) and at the free scalings ``also``."""
    def off_grid(self, gamma):
        logs = np.log10(np.atleast_2d(gamma)[:, 1:])
        twice = 2.0 * logs
        on_grid = np.all(np.abs(twice - np.round(twice)) < 1e-9, axis=1)
        hit = np.zeros(len(logs), dtype=bool)
        for x in also:
            hit |= np.all(np.abs(logs - x) < 1e-12, axis=1)
        out = phi(self, gamma)
        np.atleast_2d(out)[on_grid | hit] = np.inf
        return out
    return off_grid


def test_membership_stencil_starts_at_origin_when_the_grid_fails(example_ss, monkeypatch):
    # every axis point fails; so does the pencil's point, which counts as
    # one more failure, and the stencil then starts at the origin, where
    # its first round (multiples of 1.5) fails too, and reaches points off
    # the axis from the origin in its second, as without the pencil
    phi = ScalingProblem.phi
    ch = ChannelSpec([0.12, 0.01])
    problem = ScalingProblem(example_ss, EXAMPLE_ZEROS)
    pencil, _ = problem.crossing(ch.p)
    off_grid = _off_grid(phi, also=[[pencil]])
    ref_val, ref_cert, _, ref_failures = _pointwise_search(
        lambda g: off_grid(problem, g), ch.p)
    assert ref_failures > config.GAMMA_GRID_POINTS and ref_val < math.inf
    stacks = []
    monkeypatch.setattr(ScalingProblem, "phi", _recording(off_grid, stacks))
    rep = membership(example_ss, EXAMPLE_ZEROS, ch)
    log = rep.search_log
    # the axis, then the stencil's rounds, around the origin while no value
    # is finite
    assert len(stacks[0]) == config.GAMMA_GRID_POINTS
    assert_allclose(stacks[1], _stencil_round([0.0], 1.5), rtol=0, atol=1e-12)
    assert_allclose(stacks[2], _stencil_round([0.0], 1.5 / 4), rtol=0, atol=1e-12)
    assert log["refine"] == "stencil"
    assert log["refine_fallback"] == "phi failed at the pencil point"
    assert log["objective_failures"] == ref_failures + 1
    assert rep.best_value == ref_val
    assert np.array_equal(rep.certificate.gamma, ref_cert)
    # where the pencil's point does not fail, it alone certifies
    monkeypatch.setattr(ScalingProblem, "phi", _off_grid(phi))
    rep = membership(example_ss, EXAMPLE_ZEROS, ch)
    log = rep.search_log
    assert log["refine"] == "pencil" and log["refine_evals"] == 1
    assert log["objective_failures"] == config.GAMMA_GRID_POINTS
    assert rep.member and rep.best_value <= ref_val + 1e-9
    assert np.array_equal(rep.certificate.gamma, [1.0, 10.0 ** pencil])


def test_membership_three_channels_stencil_starts_at_origin(monkeypatch):
    # no axis at three channels: the stencil's first round spans the box
    # around the origin; made to fail there, the second round shrinks
    # around the origin too
    phi = ScalingProblem.phi
    plant, zeros, ch = _three_channel(monkeypatch, 0.7)
    off_grid = _off_grid(phi)
    problem = ScalingProblem(plant, zeros)
    ref_val, ref_cert, _, ref_failures = _pointwise_search(
        lambda g: off_grid(problem, g), ch.p)
    assert ref_failures >= 9 ** 2 and ref_val < math.inf
    stacks = []
    monkeypatch.setattr(ScalingProblem, "phi", _recording(off_grid, stacks))
    rep = membership(plant, zeros, ch)
    assert_allclose(stacks[0], _stencil_round([0.0, 0.0], 1.5), rtol=0, atol=1e-12)
    assert_allclose(stacks[1], _stencil_round([0.0, 0.0], 1.5 / 4), rtol=0, atol=1e-12)
    assert rep.search_log["grid_points"] == 0
    assert rep.search_log["refine"] == "stencil"
    assert rep.search_log["objective_failures"] == ref_failures
    assert rep.best_value == ref_val
    assert np.array_equal(rep.certificate.gamma, ref_cert)


def test_membership_falls_back_when_the_pencil_cannot_be_formed(example_ss, monkeypatch):
    ch = ChannelSpec([0.12, 0.01])

    def no_pencil(self, p):
        raise ValueError("injected failure")

    stacks = []
    monkeypatch.setattr(ScalingProblem, "crossing", no_pencil)
    monkeypatch.setattr(ScalingProblem, "phi", _recording(ScalingProblem.phi, stacks))
    rep = membership(example_ss, EXAMPLE_ZEROS, ch)
    ref_val, ref_cert, ref_tame, _ = _pointwise_search(rep.problem.phi, ch.p)
    log = rep.search_log
    assert log["refine"] == "stencil"
    assert log["refine_fallback"] == "no pencil point: injected failure"
    # 17 rounds of 9 points, the first around the axis's best point, the
    # step shrinking from 1.5 to 1.5 / 4**16
    assert log["objective_failures"] == 0 and log["refine_evals"] == 17 * 9
    assert len(stacks) == 18
    axis = np.linspace(config.GAMMA_LOG_MIN, config.GAMMA_LOG_MAX, config.GAMMA_GRID_POINTS)
    start = axis[int(np.argmin(np.max(_terms(rep.problem, ch.p, axis), axis=1)))]
    assert_allclose(stacks[1], _stencil_round([start], 1.5), rtol=0, atol=1e-12)
    assert rep.best_value == ref_val
    assert np.array_equal(rep.certificate.gamma, ref_cert)
    assert np.array_equal(rep.tame_certificate.gamma, ref_tame)


def _two_channel_probes(monkeypatch, n_sets):
    """Seeded 2-channel plants of the search-family structures, each probed
    at a uniform(0.5, 1.5) multiple of its largest rectangle's corner."""
    worker = _perfbench(monkeypatch, "worker")
    rng = np.random.default_rng(19)
    probes = []
    structures = worker.SEARCH_STRUCTURES[2] * n_sets
    for plant, zeros in worker.plants.plant_family(rng, 2, structures):
        rects = rectangle_set(plant, zeros)
        corner = np.asarray(rects.vertices[int(np.argmax(rects.volumes))])
        probes.append((plant, zeros, ChannelSpec(np.minimum(
            rng.uniform(0.5, 1.5) * corner, 0.995))))
    return probes


def test_membership_two_channels_pencil(example_ss, monkeypatch):
    # at r = 2 the pencil's crossing refines: the verdict is that of the
    # Nelder-Mead search the stencil replaced, the value no worse than its or
    # than a dense scan of the box, in 26 phi evaluations and no call of
    # scipy's minimize
    probes = _two_channel_probes(monkeypatch, 7) + [(example_ss, EXAMPLE_ZEROS, ChannelSpec([0.12, 0.01]))]
    assert len(probes) >= 40

    def no_minimize(*args, **kwargs):
        raise AssertionError("the search must not run scipy's minimize")

    with monkeypatch.context() as m:
        m.setattr(scipy.optimize, "minimize", no_minimize)
        reports = [membership(plant, zeros, ch) for plant, zeros, ch in probes]
    logs = np.linspace(config.GAMMA_LOG_MIN, config.GAMMA_LOG_MAX, 2001)
    scan_gammas = np.column_stack([np.ones(logs.size), 10.0 ** logs])
    members = 0
    for (plant, zeros, ch), rep in zip(probes, reports):
        log = rep.search_log
        assert log["refine"] == "pencil" and "refine_fallback" not in log
        assert log["grid_points"] + log["refine_evals"] == 26
        ref_val, ref_failures = _reference_search(rep.problem, ch.p)
        assert ref_failures == 0
        assert rep.member == (ref_val < 1.0 - config.MEMBER_GUARD)
        assert rep.best_value <= ref_val + 1e-9
        scan = np.max(ch.p * (rep.problem.phi(scan_gammas) + 1.0), axis=1)
        assert rep.best_value <= scan.min() + 1e-9
        members += rep.member
    # both verdicts occur
    assert 0 < members < len(probes)


def test_crossing_is_where_the_channel_terms_meet(example_ss, monkeypatch):
    problem = ScalingProblem(example_ss, EXAMPLE_ZEROS)
    p = np.array([0.12, 0.01])
    x, steps = problem.crossing(p)
    assert config.GAMMA_LOG_MIN < x < config.GAMMA_LOG_MAX and 0 < steps < 10
    terms = p * (problem.phi(np.array([1.0, 10.0 ** x])) + 1.0)
    assert terms[0] == pytest.approx(terms[1], rel=1e-9)
    # one term dominating across the box: the box end that favours it,
    # after no Newton step
    assert problem.crossing([0.9, 0.0]) == (config.GAMMA_LOG_MIN, 0)
    assert problem.crossing([0.0, 0.9]) == (config.GAMMA_LOG_MAX, 0)
    # membership evaluates that point and logs the Newton steps
    rep = membership(example_ss, EXAMPLE_ZEROS, ChannelSpec(p))
    assert rep.search_log["crossing_steps"] == steps
    assert rep.certificate.gamma[1] == 10.0 ** x
    with pytest.raises(ValueError, match="exactly two channels"):
        ScalingProblem(*_three_channel(monkeypatch, 0.5)[:2]).crossing([0.1] * 3)


def _terms(problem, p, logs):
    """The channel terms ``p_j (phi_jj + 1)`` at each log10 gamma_2."""
    logs = np.atleast_1d(logs)
    return p * (problem.phi(np.column_stack([np.ones(logs.size), 10.0 ** logs])) + 1.0)


def test_crossing_is_a_box_end_or_an_interior_meeting(monkeypatch):
    # seeded two-channel plants of the search-family structures: where one
    # term dominates on the whole grid axis, the crossing is the box end
    # that favours it, after no Newton step; elsewhere it is an interior
    # point where the terms agree, reached in at most 12 steps.  Either way
    # its value is no worse than a dense scan of the box
    axis = np.linspace(config.GAMMA_LOG_MIN, config.GAMMA_LOG_MAX, config.GAMMA_GRID_POINTS)
    dense = np.linspace(config.GAMMA_LOG_MIN, config.GAMMA_LOG_MAX, 2001)
    kinds = []
    for plant, zeros, ch in _two_channel_probes(monkeypatch, 2):
        problem = ScalingProblem(plant, zeros)
        x, steps = problem.crossing(ch.p)
        on_axis = _terms(problem, ch.p, axis)
        gap = on_axis[:, 0] - on_axis[:, 1]
        terms = _terms(problem, ch.p, x)[0]
        if np.all(gap >= 0.0) or np.all(gap <= 0.0):
            end = config.GAMMA_LOG_MIN if gap[0] >= 0.0 else config.GAMMA_LOG_MAX
            assert (x, steps) == (end, 0)
            kinds.append("box end")
        else:
            assert config.GAMMA_LOG_MIN < x < config.GAMMA_LOG_MAX
            assert 0 < steps <= 12
            assert terms[0] == pytest.approx(terms[1], rel=1e-9)
            kinds.append("interior")
        scan = np.max(_terms(problem, ch.p, dense), axis=1).min()
        assert terms.max() <= scan + 1e-12
    assert len(kinds) == 12 and set(kinds) == {"box end", "interior"}


def test_membership_leaves_no_cyclic_garbage(example_ss):
    # every membership call's grid values and phi stack must be freed when
    # it returns, not wait for the cycle collector: the search-family
    # benchmark's peak memory grows otherwise
    gc.collect()
    gc.disable()
    try:
        membership(example_ss, EXAMPLE_ZEROS, ChannelSpec([0.12, 0.01]))
        assert gc.collect() == 0
    finally:
        gc.enable()


def _decoupled():
    # phi does not depend on the scaling: every grid value ties
    return realize(TransferMatrix(
        num=(((1.0,), (0.0,)), ((0.0,), (1.0,))),
        den=(((1.0, -2.0), (1.0,)), ((1.0,), (1.0, 1.5))),
    ))


@pytest.mark.parametrize("r", [2, 3])
def test_no_unstable_pole(r):
    # a stable plant has empty Pick data (k = 0): phi is 0 at every
    # scaling, the two channel terms are p_1 and p_2, and a verdict is
    # decided by max p alone, with the tame certificate at the box centre
    plant = StateSpaceModel(np.diag(np.linspace(-0.5, 0.6, r)), np.eye(r), np.eye(r),
                            np.zeros((r, r)))
    zeros = (None,) * r
    problem = ScalingProblem(plant, zeros)
    logs = np.random.default_rng(r).uniform(config.GAMMA_LOG_MIN, config.GAMMA_LOG_MAX,
                                            (7, r - 1))
    gammas = np.hstack([np.ones((7, 1)), 10.0 ** logs])
    assert np.array_equal(problem.phi(gammas), np.zeros((7, r)))
    assert np.array_equal(problem.phi(gammas[0]), np.zeros(r))
    if r == 2:
        assert problem.crossing([0.5, 0.9]) == (config.GAMMA_LOG_MAX, 0)
        assert problem.crossing([0.9, 0.5]) == (config.GAMMA_LOG_MIN, 0)
    for top in (0.9, 1.0 - 2.0 * config.MEMBER_GUARD, 1.0 - config.MEMBER_GUARD,
                1.0 - 0.5 * config.MEMBER_GUARD):
        p = np.linspace(0.5, top, r)
        rep = membership(plant, zeros, ChannelSpec(p))
        assert rep.member == (top < 1.0 - config.MEMBER_GUARD)
        assert rep.best_value == top
        if rep.member:
            assert np.array_equal(rep.tame_certificate.gamma, np.ones(r))
        else:
            assert rep.tame_certificate is None


def _family_probe(monkeypatch, part, op):
    """Op ``op`` of the search-family benchmark's worker ``part`` at seed 1,
    a three-channel probe inside its plant's largest rectangle."""
    worker = _perfbench(monkeypatch, "worker")
    plant, zeros, ch, inside = worker.SearchFamily(1, part, None, True).ops[op]
    assert inside and ch.r == 3
    return plant, zeros, ch


def _late_tame(monkeypatch):
    """A three-channel probe at 0.9 times its second rectangle corner,
    about (1, 0.086, 1): the origin does not certify, and a round after the
    first finds a certifying point as extreme as the tame key's but of
    lower value."""
    plants = _perfbench(monkeypatch, "plants")
    plant, zeros = plants.admissible_plant(np.random.default_rng(4), 3, 4, 2, (0,))
    corner = np.asarray(rectangle_set(plant, zeros).vertices[1])
    return plant, zeros, ChannelSpec(0.9 * corner)


@pytest.mark.parametrize("case", ["inside", "outside", "ties", "family-0", "family-1",
                                  "family-2", "late-tame"])
def test_membership_matches_pointwise_search(example_ss, monkeypatch, case):
    # the stencil runs at three channels; at two, the pencil's point, here
    # no better than the grid's incumbent, leaves the search's result as is.
    # The scan skips a round whose certifying rows are all more extreme than
    # the tame key; on the three-channel members that shortcut must still
    # give the tame certificate of the point-by-point copy
    plant, zeros, ch = {
        "inside": lambda: _three_channel(monkeypatch, 0.7),
        "outside": lambda: (example_ss, EXAMPLE_ZEROS, ChannelSpec([0.5, 0.5])),
        "ties": lambda: (_decoupled(), (None, None), ChannelSpec([0.1, 0.1])),
        "family-0": lambda: _family_probe(monkeypatch, 0, 2),
        "family-1": lambda: _family_probe(monkeypatch, 1, 5),
        "family-2": lambda: _family_probe(monkeypatch, 2, 8),
        "late-tame": lambda: _late_tame(monkeypatch),
    }[case]()
    rep = membership(plant, zeros, ch)
    assert rep.member or case in ("outside", "ties")
    problem = rep.problem
    crossing = problem.crossing(ch.p)[0] if ch.r == 2 else None
    ref_val, ref_cert, ref_tame, ref_failures = _pointwise_search(problem.phi, ch.p,
                                                                  crossing)
    assert rep.search_log["refine"] == ("pencil" if ch.r == 2 else "stencil")
    if ch.r == 2:
        axis = np.linspace(config.GAMMA_LOG_MIN, config.GAMMA_LOG_MAX, config.GAMMA_GRID_POINTS)
        assert rep.best_value == np.max(_terms(problem, ch.p, axis), axis=1).min()
    assert rep.best_value == ref_val and ref_failures == 0
    assert np.array_equal(rep.certificate.gamma, ref_cert)
    assert (rep.tame_certificate is None) == (ref_tame is None)
    if ref_tame is not None:
        assert np.array_equal(rep.tame_certificate.gamma, ref_tame)


#: four-channel plant structures (core order, unstable poles, zero columns)
#: in the manner of the search-family benchmark's
FOUR_CHANNEL_STRUCTURES = ((4, 1, (0,)), (4, 2, (1, 2)), (5, 2, (0,)))


def test_membership_stencil_no_worse_than_nelder_mead(monkeypatch):
    # seeded 3- and 4-channel plants of the search-family structures, each
    # drawn twice and probed inside, then outside, its largest rectangle:
    # the verdict is the Nelder-Mead search's and the value no worse than
    # its by more than 1e-9; the probes where the stencil does better are
    # printed
    worker = _perfbench(monkeypatch, "worker")
    rng = np.random.default_rng(23)
    better, members, count = [], 0, 0
    for r, structures in ((3, worker.SEARCH_STRUCTURES[3]), (4, FOUR_CHANNEL_STRUCTURES)):
        for k, (plant, zeros) in enumerate(worker.plants.plant_family(rng, r, structures * 2)):
            scale = rng.uniform(*(worker.INSIDE if k < len(structures) else worker.OUTSIDE))
            rects = rectangle_set(plant, zeros)
            corner = np.asarray(rects.vertices[int(np.argmax(rects.volumes))])
            ch = ChannelSpec(np.minimum(scale * corner, worker.P_CEIL))
            rep = membership(plant, zeros, ch)
            ref_val, ref_failures = _reference_search(rep.problem, ch.p)
            assert ref_failures == 0 and rep.search_log["objective_failures"] == 0
            assert rep.member == (ref_val < 1.0 - config.MEMBER_GUARD), (r, k)
            assert rep.best_value <= ref_val + 1e-9, (r, k)
            if rep.best_value < ref_val - 1e-9:
                better.append((r, k, ref_val - rep.best_value))
            members += rep.member
            count += 1
    assert 0 < members < count
    print(f"stencil better than Nelder-Mead by more than 1e-9 at {len(better)} of "
          f"{count} probes (r, probe, by): {better}")


def test_membership_no_worse_than_the_grid_search(monkeypatch):
    # the grid search the box-spanning stencil replaced at three or more
    # channels is the oracle: on the search-family benchmark's 3-channel
    # probes (seeds 1-3, workers 0-2) and on a seeded 4-channel family,
    # every verdict is the grid search's and the value no worse than its by
    # more than 1e-9
    worker = _perfbench(monkeypatch, "worker")
    probes = [op[:3] for seed in (1, 2, 3) for part in range(3)
              for op in worker.SearchFamily(seed, part, None, True).ops if op[2].r == 3]
    assert len(probes) == 54
    rng = np.random.default_rng(29)
    for k, (plant, zeros) in enumerate(worker.plants.plant_family(
            rng, 4, FOUR_CHANNEL_STRUCTURES * 2)):
        scale = rng.uniform(*(worker.INSIDE if k < 3 else worker.OUTSIDE))
        rects = rectangle_set(plant, zeros)
        corner = np.asarray(rects.vertices[int(np.argmax(rects.volumes))])
        probes.append((plant, zeros, ChannelSpec(np.minimum(scale * corner, worker.P_CEIL))))
    members = 0
    for k, (plant, zeros, ch) in enumerate(probes):
        rep = membership(plant, zeros, ch)
        ref_val = _grid_search(rep.problem, ch.p)
        assert rep.search_log["objective_failures"] == 0
        assert rep.member == (ref_val < 1.0 - config.MEMBER_GUARD), k
        assert rep.best_value <= ref_val + 1e-9, k
        members += rep.member
    assert 0 < members < len(probes)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_membership_bookkeeping_matches_the_evaluated_rows(example_ss, monkeypatch, r):
    # every row phi evaluates is collected: the tame certificate is the
    # least extreme certifying row by (max |x|, value, x), the bounds and the
    # best value are the certificate's own row, the r = 2 pencil path
    # evaluates the 25 axis rows and the pencil's row alone, and at r >= 3
    # the stencil's 17 rounds start with the box-spanning one
    if r == 2:
        plant, zeros, ch = example_ss, EXAMPLE_ZEROS, ChannelSpec([0.12, 0.01])
    elif r == 3:
        plant, zeros, ch = _three_channel(monkeypatch, 0.7)
    else:
        plants = _perfbench(monkeypatch, "plants")
        plant, zeros = plants.admissible_plant(np.random.default_rng(1), 4, 5, 2, (0, 2))
        rects = rectangle_set(plant, zeros)
        ch = ChannelSpec(0.7 * np.asarray(rects.vertices[int(np.argmax(rects.volumes))]))
    phi = ScalingProblem.phi
    calls = []

    def collected(self, gamma):
        out = phi(self, gamma)
        calls.append((np.atleast_2d(gamma).copy(), np.atleast_2d(out).copy()))
        return out

    monkeypatch.setattr(ScalingProblem, "phi", collected)
    rep = membership(plant, zeros, ch)
    log = rep.search_log
    gammas = np.vstack([g for g, _ in calls])
    phis = np.vstack([f for _, f in calls])
    values = np.max(ch.p * (phis + 1.0), axis=1)
    assert len(gammas) == log["grid_points"] + log["refine_evals"]
    if r == 2:
        assert log["refine"] == "pencil"
        assert [len(g) for g, _ in calls] == [config.GAMMA_GRID_POINTS, 1]
    else:
        assert log["refine"] == "stencil" and len(calls) == 17
        assert_allclose(np.log10(calls[0][0][:, 1:]), _stencil_round([0.0] * (r - 1), 1.5),
                        rtol=0, atol=1e-12)
    at = np.flatnonzero(np.all(gammas == rep.certificate.gamma, axis=1))
    assert at.size > 0
    assert np.array_equal(rep.bounds, 1.0 / (phis[at[0]] + 1.0))
    assert rep.best_value == values[at[0]]
    x = np.log10(gammas[:, 1:])
    ok = np.flatnonzero(values < 1.0 - config.MEMBER_GUARD)
    assert rep.member and ok.size > 0
    tame = min(ok, key=lambda i: (np.max(np.abs(x[i])), values[i], tuple(x[i])))
    assert np.array_equal(rep.tame_certificate.gamma, gammas[tame])


def test_membership_four_channels(monkeypatch):
    plants = _perfbench(monkeypatch, "plants")
    plant, zeros = plants.admissible_plant(np.random.default_rng(1), 4, 5, 2, (0, 2))
    rects = rectangle_set(plant, zeros)
    corner = np.asarray(rects.vertices[int(np.argmax(rects.volumes))])
    rep = membership(plant, zeros, ChannelSpec(0.7 * corner))
    log = rep.search_log
    assert rep.member and log["grid_points"] == 0 and log["refine_evals"] == 17 * 9 ** 3
    assert rep.best_value < 1.0 and np.all(0.7 * corner < rep.bounds)


def test_membership_five_channels(monkeypatch):
    # above the old four-channel search cap: a seeded 5-channel plant is a
    # member inside its largest rectangle and not one far outside it
    plants = _perfbench(monkeypatch, "plants")
    plant, zeros = plants.admissible_plant(np.random.default_rng(5), 5, 5, 2, (1,))
    rects = rectangle_set(plant, zeros)
    corner = np.asarray(rects.vertices[int(np.argmax(rects.volumes))])
    inside = membership(plant, zeros, ChannelSpec(0.7 * corner))
    assert inside.member and np.all(0.7 * corner < inside.bounds)
    assert inside.search_log["refine_evals"] == 17 * 9 ** 4
    outside = membership(plant, zeros, ChannelSpec(np.minimum(3.0 * corner, 0.995)))
    assert not outside.member and outside.best_value >= 1.0


def test_membership_search_cap(monkeypatch):
    # the package's one channel cap: above it the search raises before it
    # builds anything
    r = MAX_CHANNELS + 1
    plant = StateSpaceModel(np.diag([2.0] + [0.5] * (r - 1)), np.eye(r), np.eye(r),
                            np.zeros((r, r)))

    def built(self):
        raise AssertionError("a ScalingProblem was built")

    monkeypatch.setattr(ScalingProblem, "__post_init__", built)
    with pytest.raises(ValueError, match=f"^{r} channels exceeds the channel cap {MAX_CHANNELS}$"):
        membership(plant, (None,) * r, ChannelSpec([0.01] * r))
