"""The stacked phi evaluation and the search stages built on it.

A stack of scalings runs the same LAPACK and BLAS routines on each slice as
one scaling alone, so every comparison of a search with the simplex is
exact (``==``), never a tolerance.  The point-by-point search below is the
reference the stacked grid stage must reproduce.  The two-channel pencil
finds the minimizer by other arithmetic, so its value is held to the
reference's and to a dense scan's within 1e-9.
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

from conftest import EXAMPLE_ZEROS, VERTEX_12
from dropstab import config
from dropstab.stabilizability import (
    ChannelSpec,
    ScalingProblem,
    membership,
    rectangle_set,
    sweep_bounds,
)
from dropstab.statespace import StateSpaceModel, TransferMatrix, realize

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
    zeros = []
    for kind in rng.integers(0, 3, r):
        radius = rng.uniform(1.2, 3.0)
        zeros.append(None if kind == 0
                     else float(radius * rng.choice([-1, 1])) if kind == 1
                     else complex(radius * np.exp(1j * rng.uniform(0.1, 3.0))))
    return ScalingProblem.from_plant(plant, tuple(zeros))


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


def test_stacked_phi_validation():
    problem = _random_problem(0, 2)
    for bad in (np.ones((3, 3)), np.ones((2, 2, 2)), np.array([[1.0, 1.0], [1.0, 0.0]]),
                np.array([[1.0, 1.0], [1.0, np.nan]])):
        with pytest.raises(ValueError, match="gamma must hold"):
            problem.phi(bad)
    # one bad row fails the whole stack: on a decoupled plant, a scaling far
    # outside the search box underflows or overflows the Pick matrix
    decoupled = ScalingProblem.from_plant(_decoupled(), (None, None))
    with np.errstate(all="ignore"):
        for far, message in ((1e200, "factorization failed"), (1e-200, "non-finite")):
            with pytest.raises(ValueError, match=message):
                decoupled.phi(np.array([[1.0, 1.0], [1.0, far], [1.0, 2.0]]))


def test_sweep_bounds_equals_pointwise_loop(example_ss):
    problem = ScalingProblem.from_plant(example_ss, EXAMPLE_ZEROS)
    logs = np.linspace(config.GAMMA_LOG_MIN, config.GAMMA_LOG_MAX, 481)
    loop = np.array([1.0 / (problem.phi(np.array([1.0, 10.0 ** lg])) + 1.0)
                     for lg in logs])
    assert np.array_equal(sweep_bounds(example_ss, EXAMPLE_ZEROS), loop)


def _pointwise_search(phi, p):
    """Reference search, one phi call per point: the grid scanned in
    lexicographic order keeping strict improvements only, then the same
    simplex descent.  Returns (best value, certificate, tame scaling or None,
    failures)."""
    ndim = p.size - 1
    evals, failures = {}, [0]

    def objective(x):
        x = np.clip(x, config.GAMMA_LOG_MIN, config.GAMMA_LOG_MAX)
        try:
            f = phi(np.concatenate([[1.0], 10.0 ** x]))
        except ValueError:
            failures[0] += 1
            return math.inf
        evals[tuple(x)] = val = float(np.max(p * (f + 1.0)))
        return val

    axis = np.linspace(config.GAMMA_LOG_MIN, config.GAMMA_LOG_MAX, config.GAMMA_GRID_POINTS)
    best_val, best_x = math.inf, np.zeros(ndim)
    for combo in itertools.product(axis, repeat=ndim):
        val = objective(np.asarray(combo))
        if val < best_val:
            best_val, best_x = val, np.asarray(combo)
    simplex = [best_x] + [best_x + 0.25 * e for e in np.eye(ndim)]
    with np.errstate(invalid="ignore"):
        res = scipy.optimize.minimize(objective, best_x, method="Nelder-Mead", options={
            "maxfev": config.GAMMA_REFINE_MAXFEV, "initial_simplex": np.asarray(simplex),
            "xatol": 1e-6, "fatol": 1e-12})
    if res.fun < best_val:
        best_val, best_x = float(res.fun), np.asarray(res.x)
    certificate = np.concatenate([[1.0], 10.0 ** np.clip(best_x, config.GAMMA_LOG_MIN,
                                                         config.GAMMA_LOG_MAX)])
    ok = [(max(abs(c) for c in x), v, x) for x, v in evals.items()
          if v < 1.0 - config.MEMBER_GUARD]
    tame = np.concatenate([[1.0], 10.0 ** np.asarray(min(ok)[2])]) if ok else None
    return best_val, certificate, tame, failures[0]


def _perfbench(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module(name)


def _three_channel(monkeypatch, scale):
    """A seeded 3-channel plant probed at ``scale`` times the corner of its
    largest rectangle: the simplex refines there."""
    plants = _perfbench(monkeypatch, "plants")
    plant, zeros = plants.admissible_plant(np.random.default_rng(3), 3, 3, 2, (1, 2))
    rects = rectangle_set(plant, zeros)
    corner = np.asarray(rects.vertices[int(np.argmax(rects.volumes))])
    return plant, zeros, ChannelSpec(scale * corner)


def _flaky(phi, failed):
    """phi failing wherever gamma_2 > 1e4, logging each single-point failure."""
    def flaky(self, gamma):
        g = np.atleast_2d(gamma)
        if np.any(g[:, 1] > 1e4):
            if len(g) == 1:
                failed.append(g[0, 1])
            raise ValueError("injected failure")
        return phi(self, gamma)
    return flaky


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_membership_failures_fall_back_row_by_row(example_ss, monkeypatch):
    # the scaling that certifies 0.9 of the (1,2) corner sits at gamma_2 near
    # the top of the box, where every point is made to fail: the pencil's
    # point fails too and counts as one more failure, and the simplex then
    # runs as without the pencil, meeting inf values, which must not raise a
    # numeric warning
    phi = ScalingProblem.phi
    ch = ChannelSpec(0.9 * np.asarray(VERTEX_12))
    failed = []
    flaky = _flaky(phi, failed)
    problem = ScalingProblem.from_plant(example_ss, EXAMPLE_ZEROS)
    ref_val, ref_cert, ref_tame, ref_failures = _pointwise_search(
        lambda g: flaky(problem, g), ch.p)
    assert ref_failures == len(failed) > 0
    failed.clear()
    monkeypatch.setattr(ScalingProblem, "phi", flaky)
    rep = membership(example_ss, EXAMPLE_ZEROS, ch)
    log = rep.search_log
    assert log["refine"] == "simplex"
    assert log["refine_fallback"] == "phi failed at the pencil point"
    assert log["objective_failures"] == len(failed) == ref_failures + 1
    assert rep.best_value == ref_val
    assert np.array_equal(rep.certificate.gamma, ref_cert)
    assert rep.member and np.array_equal(rep.tame_certificate.gamma, ref_tame)

    def broken(self, gamma):
        raise ValueError("injected failure")

    monkeypatch.setattr(ScalingProblem, "phi", broken)
    with pytest.raises(ValueError, match="failed at every grid point"):
        membership(example_ss, EXAMPLE_ZEROS, ch)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_membership_three_channels_fall_back_row_by_row(monkeypatch):
    # the simplex path, bit for bit, on a grid stack that fails
    phi = ScalingProblem.phi
    plant, zeros, ch = _three_channel(monkeypatch, 0.9)
    failed = []
    flaky = _flaky(phi, failed)
    problem = ScalingProblem.from_plant(plant, zeros)
    ref_val, ref_cert, ref_tame, ref_failures = _pointwise_search(
        lambda g: flaky(problem, g), ch.p)
    assert ref_failures == len(failed) > 0
    failed.clear()
    monkeypatch.setattr(ScalingProblem, "phi", flaky)
    rep = membership(plant, zeros, ch)
    assert rep.search_log["refine"] == "simplex"
    assert "refine_fallback" not in rep.search_log
    assert rep.search_log["objective_failures"] == len(failed) == ref_failures
    assert rep.best_value == ref_val
    assert np.array_equal(rep.certificate.gamma, ref_cert)
    assert rep.member and np.array_equal(rep.tame_certificate.gamma, ref_tame)


def _off_grid(phi, also=()):
    """phi failing at every grid point (each log10 gamma a multiple of 1/2)
    and at the free scalings ``also``."""
    def off_grid(self, gamma):
        logs = np.log10(np.atleast_2d(gamma)[:, 1:])
        twice = 2.0 * logs
        on_grid = np.all(np.abs(twice - np.round(twice)) < 1e-9, axis=1)
        hit = np.zeros(len(logs), dtype=bool)
        for x in also:
            hit |= np.all(np.abs(logs - x) < 1e-12, axis=1)
        if np.any(on_grid | hit):
            raise ValueError("injected failure")
        return phi(self, gamma)
    return off_grid


def test_membership_simplex_starts_at_origin_when_the_grid_fails(example_ss, monkeypatch):
    # every grid point fails; so does the pencil's point, which counts as
    # one more failure, and the simplex then starts at the origin and
    # reaches points off the grid, as without the pencil
    phi = ScalingProblem.phi
    ch = ChannelSpec([0.12, 0.01])
    problem = ScalingProblem.from_plant(example_ss, EXAMPLE_ZEROS)
    pencil = problem.crossing(ch.p)
    off_grid = _off_grid(phi, also=[[pencil]])
    ref_val, ref_cert, _, ref_failures = _pointwise_search(
        lambda g: off_grid(problem, g), ch.p)
    assert ref_failures > config.GAMMA_GRID_POINTS and ref_val < math.inf
    monkeypatch.setattr(ScalingProblem, "phi", off_grid)
    rep = membership(example_ss, EXAMPLE_ZEROS, ch)
    log = rep.search_log
    assert log["grid_best"] == math.inf
    assert log["refine"] == "simplex"
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


def test_membership_three_channels_simplex_starts_at_origin(monkeypatch):
    phi = ScalingProblem.phi
    plant, zeros, ch = _three_channel(monkeypatch, 0.7)
    off_grid = _off_grid(phi)
    problem = ScalingProblem.from_plant(plant, zeros)
    ref_val, ref_cert, _, ref_failures = _pointwise_search(
        lambda g: off_grid(problem, g), ch.p)
    assert ref_failures >= config.GAMMA_GRID_POINTS ** 2 and ref_val < math.inf
    monkeypatch.setattr(ScalingProblem, "phi", off_grid)
    rep = membership(plant, zeros, ch)
    assert rep.search_log["grid_best"] == math.inf
    assert rep.search_log["refine"] == "simplex"
    assert rep.search_log["objective_failures"] == ref_failures
    assert rep.best_value == ref_val
    assert np.array_equal(rep.certificate.gamma, ref_cert)


def test_membership_falls_back_when_the_pencil_cannot_be_formed(example_ss, monkeypatch):
    ch = ChannelSpec([0.12, 0.01])

    def no_pencil(self, p):
        raise ValueError("injected failure")

    monkeypatch.setattr(ScalingProblem, "crossing", no_pencil)
    rep = membership(example_ss, EXAMPLE_ZEROS, ch)
    ref_val, ref_cert, ref_tame, _ = _pointwise_search(rep.problem.phi, ch.p)
    log = rep.search_log
    assert log["refine"] == "simplex"
    assert log["refine_fallback"] == "no pencil point: injected failure"
    assert log["objective_failures"] == 0 and log["refine_evals"] > 1
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
    # at r = 2 the pencil's crossing replaces the simplex: the verdict is the
    # simplex search's, the value no worse than it or than a dense scan of
    # the box, in 26 phi evaluations and no call of scipy's minimize
    probes = _two_channel_probes(monkeypatch, 7) + [(example_ss, EXAMPLE_ZEROS, ChannelSpec([0.12, 0.01]))]
    assert len(probes) >= 40

    def no_minimize(*args, **kwargs):
        raise AssertionError("the pencil path must not run the simplex")

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
        ref_val, _, _, ref_failures = _pointwise_search(rep.problem.phi, ch.p)
        assert ref_failures == 0
        assert rep.member == (ref_val < 1.0 - config.MEMBER_GUARD)
        assert rep.best_value <= ref_val + 1e-9
        scan = np.max(ch.p * (rep.problem.phi(scan_gammas) + 1.0), axis=1)
        assert rep.best_value <= scan.min() + 1e-9
        members += rep.member
    # both verdicts occur
    assert 0 < members < len(probes)


def test_crossing_is_where_the_channel_terms_meet(example_ss, monkeypatch):
    problem = ScalingProblem.from_plant(example_ss, EXAMPLE_ZEROS)
    p = np.array([0.12, 0.01])
    x = problem.crossing(p)
    assert config.GAMMA_LOG_MIN < x < config.GAMMA_LOG_MAX
    terms = p * (problem.phi(np.array([1.0, 10.0 ** x])) + 1.0)
    assert terms[0] == pytest.approx(terms[1], rel=1e-9)
    # one term dominating across the box: the box end that favours it
    assert problem.crossing([0.9, 0.0]) == config.GAMMA_LOG_MIN
    assert problem.crossing([0.0, 0.9]) == config.GAMMA_LOG_MAX
    with pytest.raises(ValueError, match="exactly two channels"):
        ScalingProblem.from_plant(*_three_channel(monkeypatch, 0.5)[:2]).crossing([0.1] * 3)


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


@pytest.mark.parametrize("case", ["inside", "outside", "ties"])
def test_membership_matches_pointwise_search(example_ss, monkeypatch, case):
    # the simplex runs at three channels; at two, a pencil point that is
    # no better than the grid's incumbent leaves the search's result as is
    plant, zeros, ch = {
        "inside": lambda: _three_channel(monkeypatch, 0.7),
        "outside": lambda: (example_ss, EXAMPLE_ZEROS, ChannelSpec([0.5, 0.5])),
        "ties": lambda: (_decoupled(), (None, None), ChannelSpec([0.1, 0.1])),
    }[case]()
    rep = membership(plant, zeros, ch)
    ref_val, ref_cert, ref_tame, ref_failures = _pointwise_search(rep.problem.phi, ch.p)
    assert rep.best_value == ref_val and ref_failures == 0
    assert np.array_equal(rep.certificate.gamma, ref_cert)
    assert (rep.tame_certificate is None) == (ref_tame is None)
    if ref_tame is not None:
        assert np.array_equal(rep.tame_certificate.gamma, ref_tame)


def test_membership_four_channels(monkeypatch):
    plants = _perfbench(monkeypatch, "plants")
    plant, zeros = plants.admissible_plant(np.random.default_rng(1), 4, 5, 2, (0, 2))
    rects = rectangle_set(plant, zeros)
    corner = np.asarray(rects.vertices[int(np.argmax(rects.volumes))])
    rep = membership(plant, zeros, ChannelSpec(0.7 * corner))
    assert rep.member and rep.search_log["grid_points"] == config.GAMMA_GRID_POINTS ** 3
    assert rep.best_value < 1.0 and np.all(0.7 * corner < rep.bounds)


def test_membership_search_cap():
    plant = StateSpaceModel(np.diag([2.0, 0.5, 0.3, 0.2, 0.1]), np.eye(5), np.eye(5),
                            np.zeros((5, 5)))
    with pytest.raises(ValueError, match="exceeds the search cap"):
        membership(plant, (None,) * 5, ChannelSpec([0.01] * 5))
