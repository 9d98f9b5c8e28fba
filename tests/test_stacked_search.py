"""The stacked phi evaluation and the search stages built on it.

A stack of scalings runs the same LAPACK and BLAS routines on each slice as
one scaling alone, so every comparison of the stacked search with its
point-by-point copy (``_pointwise_search``: the grid, the pencil's point,
the stencil) is exact (``==``), never a tolerance.  The Nelder-Mead search
the stencil replaced (``_reference_search``) and a dense scan find the
minimizer by other arithmetic, so the search's value is held to theirs
within 1e-9.
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
    return ScalingProblem(plant, tuple(zeros))


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
    decoupled = ScalingProblem(_decoupled(), (None, None))
    with np.errstate(all="ignore"):
        for far, message in ((1e200, "factorization failed"), (1e-200, "non-finite")):
            with pytest.raises(ValueError, match=message):
                decoupled.phi(np.array([[1.0, 1.0], [1.0, far], [1.0, 2.0]]))


def test_sweep_bounds_equals_pointwise_loop(example_ss):
    problem = ScalingProblem(example_ss, EXAMPLE_ZEROS)
    logs = np.linspace(config.GAMMA_LOG_MIN, config.GAMMA_LOG_MAX, 481)
    loop = np.array([1.0 / (problem.phi(np.array([1.0, 10.0 ** lg])) + 1.0)
                     for lg in logs])
    assert np.array_equal(sweep_bounds(example_ss, EXAMPLE_ZEROS), loop)


def _pointwise_search(phi, p, crossing=None):
    """Reference search, one phi call per point: the grid scanned in
    lexicographic order keeping strict improvements only; then, given
    ``crossing`` (the incumbent's log10 gamma_2 to the pencil's, or
    ValueError), the pencil's point, and where there is none or phi fails
    there, the shrinking stencil, each round scanned the same way.  Returns
    (best value, certificate, tame scaling or None, failures)."""
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

    def scan(points, best_val, best_x):
        for x in points:
            val = objective(x)
            if val < best_val:
                best_val, best_x = val, x
        return best_val, best_x

    axis = np.linspace(config.GAMMA_LOG_MIN, config.GAMMA_LOG_MAX, config.GAMMA_GRID_POINTS)
    best_val, best_x = scan((np.asarray(c) for c in itertools.product(axis, repeat=ndim)),
                            math.inf, np.zeros(ndim))
    refine = True
    if crossing is not None:
        try:
            x = np.array([crossing(best_x[0])])
        except ValueError:
            pass
        else:
            val = objective(x)
            if val < math.inf:
                refine = False
                if val < best_val:
                    best_val, best_x = val, x
    step = axis[1] - axis[0]
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


def _reference_search(problem, p):
    """The search as it was before the stencil: the grid, one stacked phi
    call, then a Nelder-Mead simplex from its incumbent, point by point.
    Returns (best value, failures)."""
    ndim = p.size - 1
    failures = [0]

    def objective(x):
        x = np.clip(x, config.GAMMA_LOG_MIN, config.GAMMA_LOG_MAX)
        try:
            f = problem.phi(np.concatenate([[1.0], 10.0 ** x]))
        except ValueError:
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
    # point fails too and counts as one more failure, and the stencil then
    # runs as without the pencil, row by row wherever its stack meets a
    # failing point; the inf values must not raise a numeric warning
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
        raise ValueError("injected failure")

    monkeypatch.setattr(ScalingProblem, "phi", broken)
    with pytest.raises(ValueError, match="failed at every grid point"):
        membership(example_ss, EXAMPLE_ZEROS, ch)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_membership_three_channels_fall_back_row_by_row(monkeypatch):
    # the stencil path, bit for bit, on grid and stencil stacks that fail
    phi = ScalingProblem.phi
    plant, zeros, ch = _three_channel(monkeypatch, 0.9)
    failed = []
    flaky = _flaky(phi, failed)
    problem = ScalingProblem(plant, zeros)
    ref_val, ref_cert, ref_tame, ref_failures = _pointwise_search(
        lambda g: flaky(problem, g), ch.p)
    assert ref_failures == len(failed) > 0
    failed.clear()
    monkeypatch.setattr(ScalingProblem, "phi", flaky)
    rep = membership(plant, zeros, ch)
    assert rep.search_log["refine"] == "stencil"
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


def test_membership_stencil_starts_at_origin_when_the_grid_fails(example_ss, monkeypatch):
    # every grid point fails; so does the pencil's point, which counts as
    # one more failure, and the stencil then starts at the origin and
    # reaches points off the grid, as without the pencil
    phi = ScalingProblem.phi
    ch = ChannelSpec([0.12, 0.01])
    problem = ScalingProblem(example_ss, EXAMPLE_ZEROS)
    # with no finite grid value the incumbent, and the crossing's start,
    # is the origin
    pencil, _ = problem.crossing(ch.p, 0.0)
    off_grid = _off_grid(phi, also=[[pencil]])
    ref_val, ref_cert, _, ref_failures = _pointwise_search(
        lambda g: off_grid(problem, g), ch.p)
    assert ref_failures > config.GAMMA_GRID_POINTS and ref_val < math.inf
    monkeypatch.setattr(ScalingProblem, "phi", off_grid)
    rep = membership(example_ss, EXAMPLE_ZEROS, ch)
    log = rep.search_log
    assert log["grid_best"] == math.inf
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
    phi = ScalingProblem.phi
    plant, zeros, ch = _three_channel(monkeypatch, 0.7)
    off_grid = _off_grid(phi)
    problem = ScalingProblem(plant, zeros)
    ref_val, ref_cert, _, ref_failures = _pointwise_search(
        lambda g: off_grid(problem, g), ch.p)
    assert ref_failures >= config.GAMMA_GRID_POINTS ** 2 and ref_val < math.inf
    monkeypatch.setattr(ScalingProblem, "phi", off_grid)
    rep = membership(plant, zeros, ch)
    assert rep.search_log["grid_best"] == math.inf
    assert rep.search_log["refine"] == "stencil"
    assert rep.search_log["objective_failures"] == ref_failures
    assert rep.best_value == ref_val
    assert np.array_equal(rep.certificate.gamma, ref_cert)


def test_membership_falls_back_when_the_pencil_cannot_be_formed(example_ss, monkeypatch):
    ch = ChannelSpec([0.12, 0.01])

    def no_pencil(self, p, start):
        raise ValueError("injected failure")

    monkeypatch.setattr(ScalingProblem, "crossing", no_pencil)
    rep = membership(example_ss, EXAMPLE_ZEROS, ch)
    ref_val, ref_cert, ref_tame, _ = _pointwise_search(rep.problem.phi, ch.p)
    log = rep.search_log
    assert log["refine"] == "stencil"
    assert log["refine_fallback"] == "no pencil point: injected failure"
    # 17 rounds of 9 points, the step shrinking from 0.5 to 0.5 / 4**16
    assert log["objective_failures"] == 0 and log["refine_evals"] == 17 * 9
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
    x, _ = problem.crossing(p, 0.0)
    assert config.GAMMA_LOG_MIN < x < config.GAMMA_LOG_MAX
    terms = p * (problem.phi(np.array([1.0, 10.0 ** x])) + 1.0)
    assert terms[0] == pytest.approx(terms[1], rel=1e-9)
    # one term dominating across the box: the box end that favours it, after
    # the two evaluations at the box ends
    assert problem.crossing([0.9, 0.0], 0.0) == (config.GAMMA_LOG_MIN, 2)
    assert problem.crossing([0.0, 0.9], 0.0) == (config.GAMMA_LOG_MAX, 2)
    # membership starts the crossing at its grid incumbent and logs the
    # evaluations of the gap; from there it meets the same point
    axis = np.linspace(config.GAMMA_LOG_MIN, config.GAMMA_LOG_MAX, config.GAMMA_GRID_POINTS)
    grid = np.column_stack([np.ones_like(axis), 10.0 ** axis])
    start = axis[np.argmin(np.max(p * (problem.phi(grid) + 1.0), axis=1))]
    x_grid, steps = problem.crossing(p, start)
    assert abs(x_grid - x) < 1e-12
    rep = membership(example_ss, EXAMPLE_ZEROS, ChannelSpec(p))
    assert rep.search_log["crossing_steps"] == steps < 10
    assert rep.certificate.gamma[1] == 10.0 ** x_grid
    with pytest.raises(ValueError, match="exactly two channels"):
        ScalingProblem(*_three_channel(monkeypatch, 0.5)[:2]).crossing([0.1] * 3, 0.0)


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
    # the stencil runs at three channels; at two, the pencil's point, here
    # no better than the grid's incumbent, leaves the search's result as is
    plant, zeros, ch = {
        "inside": lambda: _three_channel(monkeypatch, 0.7),
        "outside": lambda: (example_ss, EXAMPLE_ZEROS, ChannelSpec([0.5, 0.5])),
        "ties": lambda: (_decoupled(), (None, None), ChannelSpec([0.1, 0.1])),
    }[case]()
    rep = membership(plant, zeros, ch)
    problem = rep.problem
    crossing = ((lambda start: problem.crossing(ch.p, start)[0])
                if ch.r == 2 else None)
    ref_val, ref_cert, ref_tame, ref_failures = _pointwise_search(problem.phi, ch.p,
                                                                  crossing)
    assert rep.search_log["refine"] == ("pencil" if ch.r == 2 else "stencil")
    if ch.r == 2:
        assert rep.best_value == rep.search_log["grid_best"]
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


@pytest.mark.parametrize("r", [2, 3, 4])
def test_membership_bookkeeping_matches_the_evaluated_rows(example_ss, monkeypatch, r):
    # every row phi evaluates is collected: the tame certificate is the
    # least extreme certifying row by (max |x|, value, x), phi_diag and the
    # best value are the certificate's own row, and the r = 2 pencil path
    # evaluates the 25 grid rows and the pencil's row alone
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
        assert log["refine"] == "stencil" and len(calls) == 18
    at = np.flatnonzero(np.all(gammas == rep.certificate.gamma, axis=1))
    assert at.size > 0
    assert np.array_equal(rep.phi_diag, phis[at[0]])
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
    assert rep.member and rep.search_log["grid_points"] == config.GAMMA_GRID_POINTS ** 3
    assert rep.best_value < 1.0 and np.all(0.7 * corner < rep.bounds)


def test_membership_search_cap():
    plant = StateSpaceModel(np.diag([2.0, 0.5, 0.3, 0.2, 0.1]), np.eye(5), np.eye(5),
                            np.zeros((5, 5)))
    with pytest.raises(ValueError, match="exceeds the search cap"):
        membership(plant, (None,) * 5, ChannelSpec([0.01] * 5))
