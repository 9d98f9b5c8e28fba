"""End-to-end acceptance checks, one test per product-level claim.

Covers the packaged benchmark model (reported vertices, volumes, all-pass
diagonals, loop closure, region export) and randomized model families
(closed-form scalar oracle, verdict agreement between the nominal and the
exact second-moment analyses, gain-draw invariance, minimum-phase
thresholds, the scaled-radius optimizer).  Every tolerance sits next to the
assertion it guards.
"""

import re
import time
from importlib.resources import files

import numpy as np

from conftest import EXAMPLE_ZEROS, VERTEX_12, VERTEX_21
from dropstab.cli import main
from dropstab.factorization import (
    _scalar_blaschke,
    bezout,
    coprime_factorize,
    diagonal_inner,
    enumerate_wonham_forms,
    observer_gain,
    wonham_decompose,
    wonham_gain,
)
from dropstab.stabilizability import (
    ChannelSpec,
    ScalingProblem,
    _true_gamma,
    closed_loop_map,
    controller,
    membership,
    mp_supremum,
    ms_radius,
    optimize_scaled_radius,
    phi_diag_entry,
    rectangle_set,
    synthesize_Q,
    t_hat,
)
from dropstab.statespace import (
    StateSpaceModel,
    cascade,
    evaluate,
    is_balanced_inner,
    scale_io,
    transmission_zeros,
)
from dropstab.verification import assemble, monte_carlo_trace, second_moment_radius

EXAMPLE = str(files("dropstab").joinpath("data/example1.json"))


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


# ---------------------------------------------------------------------------
# randomized plant families


def _random_core(rng, n, n_unstable):
    """Dense state matrix with a prescribed unstable/stable eigenvalue split."""
    lam_u = rng.uniform(1.1, 2.4, size=n_unstable) * rng.choice([-1, 1], size=n_unstable)
    lam_s = rng.uniform(-0.8, 0.8, size=n - n_unstable)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return Q.T @ np.diag(np.concatenate([lam_u, lam_s])) @ Q


def _random_mp_plant(rng, max_unstable=3):
    """Two-channel strictly proper minimum-phase plant, order <= 4."""
    while True:
        k = int(rng.integers(1, max_unstable + 1))
        n = int(rng.integers(max(2, k), 5))
        A = _random_core(rng, n, k)
        B = rng.normal(size=(n, 2))
        C = rng.normal(size=(2, n))
        if np.linalg.cond(C @ B) > 20:
            continue
        plant = StateSpaceModel(A, B, C, np.zeros((2, 2)))
        tz = transmission_zeros(plant)
        if tz.size and np.max(np.abs(tz)) > 0.97:
            continue
        return plant


def _random_admissible_plant(rng):
    """Two-channel plant in the admissible class, total order <= 4.

    A minimum-phase core is optionally augmented per input column with one
    simple zero outside the unit circle (an extra state each), keeping the
    combined order within the budget.
    """
    while True:
        flags = rng.random(2) < 0.5
        kz = int(flags.sum())
        n = int(rng.integers(2, 5 - kz))
        k = int(rng.integers(1, min(3, n) + 1))
        A = _random_core(rng, n, k)
        B = rng.normal(size=(n, 2))
        C = rng.normal(size=(2, n))
        if np.linalg.cond(C @ B) > 20:
            continue
        plant = StateSpaceModel(A, B, C, np.zeros((2, 2)))
        tz = transmission_zeros(plant)
        if tz.size and np.max(np.abs(tz)) > 0.97:
            continue
        zeros = [None, None]
        for j in range(2):
            if flags[j]:
                zj = float(rng.uniform(1.2, 3.0) * rng.choice([-1, 1]))
                zcol = np.zeros((2, 1))
                zcol[j, 0] = -zj
                brow = np.zeros((1, 2))
                brow[0, j] = 1.0
                shaper = StateSpaceModel(np.zeros((1, 1)), brow, zcol, np.eye(2))
                plant = cascade(plant, shaper)
                zeros[j] = zj
        for j, zj in enumerate(zeros):
            if zj is not None:
                col = evaluate(plant, zj)[:, j]
                assert np.max(np.abs(col)) < 1e-9
        return plant, tuple(zeros)


def _synthesize_at(plant, zeros, channels, gamma):
    """Controller from a certifying scaling, following the synthesis flow."""
    gamma_true = _true_gamma(np.asarray(gamma, dtype=float), channels)
    Gmu = scale_io(plant, None, np.diag(channels.mu))
    bez = bezout(Gmu, wonham_gain(wonham_decompose(Gmu, (0, 1))), observer_gain(Gmu))
    K = controller(bez, synthesize_Q(Gmu, bez, gamma_true, zeros))
    return K, Gmu


# ---------------------------------------------------------------------------
# benchmark model


def test_cli_rectangle_report_reproduces_reference_vertices(capsys):
    t0 = time.monotonic()
    code, out, _ = run_cli(["rects", EXAMPLE], capsys)
    elapsed = time.monotonic() - t0
    assert code == 0
    got = [(float(a), float(b))
           for a, b in re.findall(r"vertex: \(([^,]+), ([^)]+)\)", out)]
    assert len(got) == 2
    for target in ((0.1758, 0.0142), (0.0476, 0.0246)):
        assert any(abs(g[0] - target[0]) <= 5e-4 and abs(g[1] - target[1]) <= 5e-4
                   for g in got), (target, got)
    assert elapsed < 5.0


def test_benchmark_rectangle_volumes(example_ss):
    rects = rectangle_set(example_ss, EXAMPLE_ZEROS)
    vols = sorted(rects.volumes, reverse=True)
    assert len(vols) == 2
    assert abs(vols[0] - 2.50e-3) <= 0.02 * 2.50e-3
    assert abs(vols[1] - 1.17e-3) <= 0.02 * 1.17e-3


def test_scalar_channel_bound_matches_closed_form():
    def bound(lam, z):
        phi = phi_diag_entry(_scalar_blaschke((lam,)), z, 0)
        return 1.0 / (phi + 1.0)

    def closed_form(lam, z):
        return 1.0 / ((lam ** 2 - 1.0) * (z * lam - 1.0) ** 2 / (z - lam) ** 2 + 1.0)

    rng = np.random.default_rng(42)
    done = 0
    while done < 100:
        lam = float(rng.uniform(1.01, 5.0) * rng.choice([-1, 1]))
        z = float(rng.uniform(1.01, 5.0) * rng.choice([-1, 1]))
        if abs(z - lam) < 0.05:  # keep the pole/zero cancellation well conditioned
            continue
        got = bound(lam, z)
        want = closed_form(lam, z)
        assert abs(got - want) <= 1e-9 * abs(want), (lam, z, got, want)
        done += 1

    spot1 = bound(2.0, -2.0)
    assert abs(spot1 - 0.175824) <= 5e-7
    assert round(spot1, 4) == 0.1758
    spot2 = bound(2.5, 1.5)
    assert abs(spot2 - 0.024567) <= 2e-6
    assert round(spot2, 4) == 0.0246


def test_benchmark_allpass_diagonal_fidelity(example_ss):
    reference_gains = {
        ((2.0,), (-1.5, 2.5)): (0.5, 0.267),
        ((-1.5, 2.0), (2.5,)): (0.333, 0.4),
    }
    forms = enumerate_wonham_forms(example_ss)
    assert len(forms) == 2
    seen = set()
    samples = 1.5 * np.exp(2j * np.pi * np.arange(16) / 16)
    circle = np.exp(1j * np.linspace(0.1, 2.0 * np.pi, 7))
    for form in forms:
        lam = form.lambda_by_channel()
        key = tuple(tuple(sorted(round(float(v.real), 6) for v in lam[j]))
                    for j in range(2))
        assert key in reference_gains, key
        seen.add(key)
        di = diagonal_inner(form)
        for j in range(2):
            block = di.blocks[j]
            lams = [complex(v) for v in lam[j]]
            for zk in samples:
                want = np.prod([(zk - l) / (l * zk - 1.0) for l in lams]) if lams else 1.0
                assert abs(evaluate(block, zk)[0, 0] - want) <= 1e-6
            assert is_balanced_inner(block, 1e-8)
            for zk in circle:
                assert abs(abs(evaluate(block, zk)[0, 0]) - 1.0) <= 1e-8
            assert abs(abs(block.D[0, 0]) - reference_gains[key][j]) <= 2e-3
    assert len(seen) == 2


def test_interior_point_closure_and_decay(example_ss):
    channels = ChannelSpec(0.9 * np.asarray(VERTEX_21))
    report = membership(example_ss, EXAMPLE_ZEROS, channels)
    assert report.member
    K, Gmu = _synthesize_at(example_ss, EXAMPLE_ZEROS, channels,
                            report.tame_certificate.gamma)
    r_nominal = ms_radius(t_hat(closed_loop_map(Gmu, K)), channels)
    loop = assemble(example_ss, K, channels)
    r_exact = second_moment_radius(loop)
    assert r_nominal < 1.0
    assert r_exact < 1.0
    trace = monte_carlo_trace(loop, 10000, trials=200, seed=0)
    assert trace[-1] < 1e-3 * trace[0]


# ---------------------------------------------------------------------------
# randomized families


def test_nominal_and_exact_verdicts_agree_on_random_plants():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        plant, zeros = _random_admissible_plant(rng)
        phi = ScalingProblem.from_plant(plant, zeros, 1e-9).phi(np.ones(2))
        bounds = 1.0 / (phi + 1.0)
        channels = ChannelSpec(0.5 * bounds)
        K, _ = _synthesize_at(plant, zeros, channels, (1.0, 1.0))
        for frac in (float(rng.uniform(0.4, 0.9)), float(rng.uniform(1.05, 1.6))):
            probe = ChannelSpec(np.minimum(frac * bounds, 0.995))
            try:
                scaled = scale_io(plant, None, np.diag(probe.mu))
                r_nominal = ms_radius(t_hat(closed_loop_map(scaled, K)), probe)
            except ValueError:
                # nominally unstable mean loop: certainly not mean-square stable
                r_nominal = np.inf
            r_exact = second_moment_radius(assemble(plant, K, probe))
            near_boundary = abs(r_nominal - 1.0) <= 1e-6 or abs(r_exact - 1.0) <= 1e-6
            assert (r_nominal < 1.0) == (r_exact < 1.0) or near_boundary, (
                frac, r_nominal, r_exact)


def test_vertices_invariant_to_stabilizing_gain_draw(example_ss):
    def scaled_reflection(radius):
        def targets(eigs):
            return [v if abs(v) < 1.0 else radius / np.conj(v) for v in eigs]
        return targets

    rng = np.random.default_rng(3)
    draws = [None] + [scaled_reflection(float(r)) for r in rng.uniform(0.3, 0.9, 2)]
    rails = (np.array([1.0, 1e-6]), np.array([1.0, 1e6]))
    collected = []
    for targets in draws:
        per_draw = []
        for ordering in ((0, 1), (1, 0)):
            form = wonham_decompose(example_ss, ordering)
            M, _ = coprime_factorize(example_ss, wonham_gain(form, targets))
            problem = ScalingProblem(M, EXAMPLE_ZEROS, 1e-9)
            for gamma in rails:
                phi = problem.phi(gamma)
                per_draw.append(1.0 / (phi + 1.0))
        collected.append(per_draw)
    base = collected[0]
    for other in collected[1:]:
        for a, b in zip(base, other):
            assert np.max(np.abs(a - b)) < 1e-8
    # the scaling rails recover both admissible corners regardless of draw
    rects = rectangle_set(example_ss, EXAMPLE_ZEROS)
    for vertex in rects.vertices:
        assert any(np.max(np.abs(vertex - got)) < 1e-8 for got in base)


def test_minimum_phase_thresholds():
    rng = np.random.default_rng(11)
    zeros = (None, None)
    for _ in range(10):
        plant = _random_mp_plant(rng)
        rects = rectangle_set(plant, zeros)
        sup = mp_supremum(plant, zeros)
        eigs = np.linalg.eigvals(np.asarray(plant.A))
        direct_sup = float(np.prod([1.0 / abs(v) ** 2 for v in eigs if abs(v) > 1.0]))
        assert abs(sup.derived_bound - direct_sup) <= 1e-6 * direct_sup
        assert abs(max(rects.volumes) - sup.derived_bound) <= 1e-6 * sup.derived_bound
        for form, vertex in zip(rects.forms, rects.vertices):
            lam = form.lambda_by_channel()
            direct = np.array([
                1.0 if len(lam[j]) == 0
                else float(np.prod([1.0 / abs(v) ** 2 for v in lam[j]]))
                for j in range(2)
            ])
            assert np.max(np.abs(vertex - direct)) <= 1e-9 * (1.0 + np.max(direct))
            inside = ChannelSpec(0.99 * vertex)
            report = membership(plant, zeros, inside)
            assert report.member
            K, Gmu = _synthesize_at(plant, zeros, inside, report.tame_certificate.gamma)
            assert ms_radius(t_hat(closed_loop_map(Gmu, K)), inside) < 1.0
            assert second_moment_radius(assemble(plant, K, inside)) < 1.0
            outside = ChannelSpec(np.minimum(1.01 * vertex, 0.995))
            assert not membership(plant, zeros, outside).member


def test_scaled_radius_bound_dominates_spectral_radius():
    rng = np.random.default_rng(123)
    for _ in range(100):
        scale = float(rng.choice([0.5, 1.0, 2.0, 5.0]))
        W = rng.uniform(0.0, 1.0, size=(3, 3)) * scale
        value, _ = optimize_scaled_radius(W)
        rho = float(np.max(np.abs(np.linalg.eigvals(W))))
        assert value >= rho - 1e-12
        assert (value - rho) < 0.01 * rho


def test_region_export_classifies_reference_grid(capsys):
    t0 = time.monotonic()
    code, out, _ = run_cli(
        ["region", EXAMPLE, "--grid", "100x100", "--pmax", "0.2,0.03"], capsys)
    elapsed = time.monotonic() - t0
    assert code == 0
    assert elapsed < 300.0
    lines = out.strip().splitlines()
    assert lines[0] == "p1,p2,member"
    assert len(lines) == 100 * 100 + 1
    corner_1 = np.asarray(VERTEX_21)
    corner_2 = np.asarray(VERTEX_12)
    n_inside = n_beyond = 0
    for row in lines[1:]:
        a, b, flag = row.split(",")
        p = np.array([float(a), float(b)])
        member = int(flag)
        if np.all(p < corner_1 * (1.0 - 1e-9)) or np.all(p < corner_2 * (1.0 - 1e-9)):
            assert member == 1, p
            n_inside += 1
        if p[0] > 0.19:
            assert member == 0, p
            n_beyond += 1
    assert n_inside > 1000
    assert n_beyond > 100
