"""Tests for the stabilizability decisions, scalings, and synthesis."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import (
    EXAMPLE_ZEROS,
    VERTEX_12,
    VERTEX_21,
)
from dropstab.factorization import (
    _allpass_section,
    bezout,
    coprime_factorize,
    gamma_scale,
    observer_gain,
    wonham_decompose,
    wonham_gain,
)
from dropstab.numkernel import spectral_radius
from dropstab.stabilizability import (
    ChannelSpec,
    GammaScaling,
    ScalingProblem,
    closed_loop_map,
    controller,
    max_blocking_probability,
    membership,
    mp_supremum,
    ms_radius,
    optimize_scaled_radius,
    phi_diag_entry,
    rectangle_set,
    rectangle_vertex,
    scaled_radius_bound,
    siso_closed_form,
    sweep_bounds,
    synthesize_Q,
    t_hat,
    union_membership,
)
from dropstab.stabilizability import _true_gamma
from dropstab.statespace import (
    StateSpaceModel,
    TransferMatrix,
    cascade,
    evaluate,
    h2_norm_sq,
    minimal,
    parallel,
    realize,
    scale_io,
    subsystem,
)


def _siso(num, den):
    return realize(TransferMatrix(((tuple(num),),), ((tuple(den),),)))


# --- channel and scaling containers ----------------------------------------

def test_channel_spec_validation():
    ch = ChannelSpec([0.2, 0.5])
    assert ch.r == 2
    assert_allclose(ch.mu, [0.8, 0.5])
    assert_allclose(ch.sigma_sq, [0.25, 1.0])
    with pytest.raises(ValueError):
        ChannelSpec([0.2, 1.0])
    with pytest.raises(ValueError):
        ChannelSpec([-0.1])


def test_gamma_scaling_normalization():
    GammaScaling([1.0, 3.0])
    with pytest.raises(ValueError):
        GammaScaling([2.0, 1.0])
    with pytest.raises(ValueError):
        GammaScaling([1.0, 1e9])


# --- scalar closed form -----------------------------------------------------

def test_siso_closed_form_exact_fractions():
    # frozen values cross-checked by residue calculus on the all-pass
    assert_allclose(siso_closed_form(2.0, -2.0), 16.0 / 91.0, rtol=1e-14)
    assert_allclose(siso_closed_form(2.5, 1.5), 64.0 / 2605.0, rtol=1e-14)
    assert_allclose(siso_closed_form(2.0, None), 0.25, rtol=1e-15)
    # far-away zero approaches the clean-channel bound of the squared modulus
    assert abs(siso_closed_form(2.0, 1e6) - 1.0 / 13.0) < 1e-4


def test_siso_closed_form_stable_pole_is_unconstrained():
    assert siso_closed_form(0.7, 3.0) == 1.0
    assert siso_closed_form(0.7, None) == 1.0


def test_phi_scalar_matches_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(25):
        lam = rng.uniform(1.1, 4.0) * rng.choice([-1.0, 1.0])
        z = rng.uniform(1.1, 5.0) * rng.choice([-1.0, 1.0])
        if abs(z - lam) < 0.05:
            continue
        sec = _allpass_section(lam)
        phi = phi_diag_entry(sec, z)
        bound = siso_closed_form(lam, z)
        assert_allclose(phi, 1.0 / bound - 1.0, rtol=1e-10, atol=1e-12)


def test_phi_rejects_bad_inputs():
    sec = _allpass_section(2.0)
    with pytest.raises(ValueError, match="unit circle"):
        phi_diag_entry(sec, 0.5)
    with pytest.raises(ValueError, match="reflected pole"):
        phi_diag_entry(sec, 2.0)  # zero right on the mirrored pole
    skew = StateSpaceModel([[0.5]], [[1.0]], [[1.0]], [[0.5]])
    with pytest.raises(ValueError, match="balanced"):
        phi_diag_entry(skew, 3.0)


# --- rectangles on the benchmark plant --------------------------------------

def test_rectangle_vertices_match_oracle(example_ss):
    rects = rectangle_set(example_ss, EXAMPLE_ZEROS)
    orderings = [f.ordering for f in rects.forms]
    assert orderings == [(0, 1), (1, 0)]
    assert_allclose(rects.vertices[0], VERTEX_12, rtol=1e-9)
    assert_allclose(rects.vertices[1], VERTEX_21, rtol=1e-9)
    assert_allclose(rects.volumes[0], VERTEX_12[0] * VERTEX_12[1], rtol=1e-9)
    assert_allclose(rects.volumes[1], VERTEX_21[0] * VERTEX_21[1], rtol=1e-9)
    assert_allclose(max_blocking_probability(rects), rects.volumes[1], rtol=1e-12)


def test_union_membership_spots(example_ss):
    rects = rectangle_set(example_ss, EXAMPLE_ZEROS)
    assert union_membership(rects, (0.04, 0.02)) == (True, 0)
    assert union_membership(rects, (0.17, 0.012)) == (True, 1)
    # dominated by neither rectangle even though each coordinate fits one
    assert union_membership(rects, (0.17, 0.02)) == (False, None)
    # the corner itself is inside (closed comparison)
    assert union_membership(rects, VERTEX_12) == (True, 0)


def test_rectangle_vertex_stable_plant():
    g = realize(TransferMatrix(
        num=(((1.0,), (0.0,)), ((0.0,), (1.0,))),
        den=(((1.0, -0.5), (1.0,)), ((1.0,), (1.0, 0.3))),
    ))
    form = wonham_decompose(g, (0, 1))
    assert_allclose(rectangle_vertex(form, (None, None)), [1.0, 1.0])


# --- matrix phi against the decoupling limits -------------------------------

def test_phi_decouples_at_extreme_scalings(example_ss):
    # driving the second channel's weight to a rail decouples the joint
    # matrix measure into the per-channel scalar values of one split:
    # vanishing weight recovers the (1,0) corner, dominant weight the (0,1)
    problem = ScalingProblem.from_plant(example_ss, EXAMPLE_ZEROS, 1e-9)
    lo = problem.phi(np.array([1.0, 1e-6]))
    assert_allclose(lo, [1.0 / VERTEX_21[0] - 1.0, 1.0 / VERTEX_21[1] - 1.0], rtol=1e-3)
    hi = problem.phi(np.array([1.0, 1e6]))
    assert_allclose(hi, [1.0 / VERTEX_12[0] - 1.0, 1.0 / VERTEX_12[1] - 1.0], rtol=1e-3)


def test_phi_invariant_under_gain_choice(example_ss):
    default = ScalingProblem.from_plant(example_ss, EXAMPLE_ZEROS, 1e-9)
    F2 = wonham_gain(wonham_decompose(example_ss, (0, 1)), place_targets=lambda eigs: [
        0.8 / np.conj(v) if abs(v) >= 1.0 else 0.8 * v for v in eigs])
    M2, _ = coprime_factorize(example_ss, F2)
    other = ScalingProblem(M2, EXAMPLE_ZEROS, 1e-9)
    assert np.max(np.abs(default.phi(np.ones(2)) - other.phi(np.ones(2)))) < 1e-8


# --- membership search -------------------------------------------------------

def test_membership_benchmark_verdicts(example_ss):
    ch = ChannelSpec([0.5, 0.5])
    rep = membership(example_ss, EXAMPLE_ZEROS, ch)
    assert not rep.member and rep.best_value > 1.0
    assert rep.tame_certificate is None

    inside = membership(example_ss, EXAMPLE_ZEROS,
                        ChannelSpec(0.9 * np.asarray(VERTEX_21)))
    assert inside.member
    assert inside.best_value == pytest.approx(0.9, abs=1e-6)
    assert inside.tame_certificate is not None
    # the tame point also certifies, at a milder scaling
    g = inside.tame_certificate.gamma
    assert np.max(np.abs(np.log10(g))) <= np.max(np.abs(np.log10(inside.certificate.gamma)))


def test_membership_zero_vector_always_inside(example_ss):
    rep = membership(example_ss, EXAMPLE_ZEROS, ChannelSpec([0.0, 0.0]))
    assert rep.member and rep.best_value == 0.0


def test_membership_flips_at_siso_limit():
    plant = _siso([1.0, -1.5], [1.0, -2.5, 1.0])  # pole 2, zero 1.5
    below = membership(plant, (1.5,), ChannelSpec([0.0195]))
    above = membership(plant, (1.5,), ChannelSpec([0.0210]))
    assert below.member and not above.member
    assert_allclose(below.best_value, 0.0195 * 49.0, rtol=1e-9)


def test_membership_input_validation(example_ss):
    with pytest.raises(ValueError, match="channels"):
        membership(example_ss, EXAMPLE_ZEROS, ChannelSpec([0.1]))
    with pytest.raises(ValueError, match="zeros"):
        membership(example_ss, (1.5,), ChannelSpec([0.1, 0.1]))


def test_sweep_bounds_covers_benchmark(example_ss):
    bounds = sweep_bounds(example_ss, EXAMPLE_ZEROS, n_points=61)
    assert bounds.shape == (61, 2)
    # midpoint of the sweep is the unscaled measure
    mid = bounds[30]
    phi = ScalingProblem.from_plant(example_ss, EXAMPLE_ZEROS, 1e-9).phi(np.ones(2))
    assert_allclose(mid, 1.0 / (phi + 1.0), rtol=1e-9)
    # the sweep pool certifies 0.9 times both rectangle corners
    for corner in (VERTEX_12, VERTEX_21):
        p = 0.9 * np.asarray(corner)
        assert np.any(np.all(p < bounds * (1.0 - 1e-9), axis=1))


# --- minimum-phase supremum --------------------------------------------------

def test_mp_supremum_single_pole():
    plant = _siso([1.0], [1.0, -2.0])
    sup = mp_supremum(plant, (None,))
    assert_allclose(sup.derived_bound, 0.25, rtol=1e-12)
    assert_allclose(sup.stated_bound, 0.5, rtol=1e-12)
    below = membership(plant, (None,), ChannelSpec([0.99 * 0.25]))
    above = membership(plant, (None,), ChannelSpec([1.01 * 0.25]))
    assert below.member and not above.member


def test_mp_supremum_multi_pole_product():
    g = realize(TransferMatrix(
        num=(((1.0,), (0.0,)), ((0.0,), (1.0,))),
        den=(((1.0, -2.0), (1.0,)), ((1.0,), (1.0, 1.5))),
    ))
    sup = mp_supremum(g, (None, None))
    assert_allclose(sup.derived_bound, 1.0 / 9.0, rtol=1e-9)
    assert_allclose(sup.stated_bound, 1.0 / 3.0, rtol=1e-9)
    assert_allclose(sorted(sup.unstable), [1.5, 2.0], atol=1e-9)


def test_mp_supremum_rejects_nmp(example_ss):
    with pytest.raises(ValueError, match="minimum phase"):
        mp_supremum(example_ss, EXAMPLE_ZEROS)


# --- weighted row-sum radius bound -------------------------------------------

def test_scaled_radius_bound_reference_point():
    assert scaled_radius_bound([[1.0, 1.0], [1.0, 1.0]], (1.0, 1.0)) == 2.0
    with pytest.raises(ValueError):
        scaled_radius_bound([[1.0, -0.1], [0.2, 0.3]], (1.0, 1.0))


def test_scaled_radius_bound_dominates_radius():
    rng = np.random.default_rng(17)
    for _ in range(40):
        W = rng.random((3, 3)) * rng.choice([0.5, 2.0])
        g = rng.uniform(0.2, 5.0, size=3)
        assert scaled_radius_bound(W, g) >= spectral_radius(W) - 1e-12


def test_optimized_bound_nearly_tight():
    rng = np.random.default_rng(23)
    for _ in range(10):
        W = rng.random((3, 3)) + 0.05
        rho = spectral_radius(W)
        val, gamma = optimize_scaled_radius(W)
        assert rho - 1e-12 <= val < rho * 1.01
        assert gamma[0] == 1.0


# --- synthesis ----------------------------------------------------------------

def test_synthesis_meets_phi_cost(example_ss):
    # the end-to-end contract: at any scaling certificate, the synthesized
    # parameter attains per-channel weighted costs equal to the matrix
    # measure's diagonal
    ch = ChannelSpec([0.01, 0.005])
    gamma_free = np.array([1.0, 1.0])
    g_true = _true_gamma(gamma_free, ch)
    Gmu = scale_io(example_ss, None, np.diag(ch.mu))
    bez = bezout(Gmu, wonham_gain(wonham_decompose(Gmu, (0, 1))), observer_gain(Gmu))
    Q = synthesize_Q(Gmu, bez, g_true, EXAMPLE_ZEROS)
    assert Q.order == 0 or spectral_radius(Q.A) < 1.0
    assert np.max(np.abs(Q.A.imag)) == 0.0

    phi = ScalingProblem.from_plant(example_ss, EXAMPLE_ZEROS, 1e-9).phi(gamma_free)
    Tg = minimal(cascade(
        parallel(gamma_scale(bez.Y, g_true),
                 cascade(gamma_scale(bez.M, g_true), gamma_scale(Q, g_true)),
                 sign=-1.0),
        gamma_scale(bez.Nt, g_true)))
    for j in range(2):
        Jj = h2_norm_sq(minimal(subsystem(Tg, [0, 1], [j])))
        assert abs(Jj - phi[j]) < 1e-6


def test_synthesis_siso_hits_exact_optimum():
    plant = _siso([1.0, -1.5], [1.0, -2.5, 1.0])
    ch = ChannelSpec([0.015])
    Gmu = scale_io(plant, None, np.diag(ch.mu))
    bez = bezout(Gmu, wonham_gain(wonham_decompose(Gmu, (0,))), observer_gain(Gmu))
    Q = synthesize_Q(Gmu, bez, np.array([1.0]), (1.5,))
    T = closed_loop_map(Gmu, controller(bez, Q))
    assert_allclose(h2_norm_sq(T), 48.0, rtol=1e-9)
    assert ms_radius(t_hat(T), ch) < 1.0


def test_synthesis_minimum_phase_channel():
    plant = _siso([1.0], [1.0, -2.0])
    ch = ChannelSpec([0.2])
    Gmu = scale_io(plant, None, np.diag(ch.mu))
    bez = bezout(Gmu, wonham_gain(wonham_decompose(Gmu, (0,))), observer_gain(Gmu))
    Q = synthesize_Q(Gmu, bez, np.array([1.0]), (None,))
    T = closed_loop_map(Gmu, controller(bez, Q))
    # cost lambda^2 - 1 exactly; radius sigma^2 (lambda^2 - 1) = 0.75
    assert_allclose(h2_norm_sq(T), 3.0, rtol=1e-9)
    assert_allclose(ms_radius(t_hat(T), ch), 0.75, rtol=1e-9)


def test_controller_central_form(example_ss):
    ch = ChannelSpec([0.01, 0.005])
    Gmu = scale_io(example_ss, None, np.diag(ch.mu))
    F = wonham_gain(wonham_decompose(Gmu, (0, 1)))
    L = observer_gain(Gmu)
    bez = bezout(Gmu, F, L)
    K0 = controller(bez)
    manual = StateSpaceModel(Gmu.A - Gmu.B @ F - L @ Gmu.C, L, -F, np.zeros((2, 2)))
    for s in (1.4 + 0.2j, -0.9, 2.8):
        assert_allclose(evaluate(K0, s), evaluate(manual, s), atol=1e-8)
    T0 = closed_loop_map(Gmu, K0)
    assert spectral_radius(T0.A) < 1.0
    # with Q = 0 the loop map reduces to Y Ntilde
    ref = cascade(bez.Y, bez.Nt)
    for s in (1.6 + 0.5j, -1.8):
        assert_allclose(evaluate(T0, s), evaluate(ref, s), atol=1e-8)


def test_controller_matches_fraction_formula(example_ss):
    ch = ChannelSpec([0.02, 0.01])
    Gmu = scale_io(example_ss, None, np.diag(ch.mu))
    bez = bezout(Gmu, wonham_gain(wonham_decompose(Gmu, (0, 1))), observer_gain(Gmu))
    Q = synthesize_Q(Gmu, bez, _true_gamma(np.array([1.0, 1.0]), ch), EXAMPLE_ZEROS)
    K = controller(bez, Q)
    den = parallel(bez.Xt, cascade(Q, bez.Nt), sign=-1.0)
    num = parallel(bez.Yt, cascade(Q, bez.Mt), sign=-1.0)
    for s in (1.9 + 0.4j, -1.6, 0.3 + 0.8j):
        want = np.linalg.solve(evaluate(den, s), evaluate(num, s))
        diff = np.max(np.abs(evaluate(K, s) - want))
        assert diff < 1e-8 * (1.0 + np.max(np.abs(want)))


def test_synthesis_full_loop_stability_margin(example_ss):
    # 0.9 of the largest-volume corner: verdict, synthesis, and the exact
    # second-moment radius all land strictly inside
    p = 0.9 * np.asarray(VERTEX_21)
    ch = ChannelSpec(p)
    rep = membership(example_ss, EXAMPLE_ZEROS, ch)
    assert rep.member
    g_true = _true_gamma(rep.tame_certificate.gamma, ch)
    Gmu = scale_io(example_ss, None, np.diag(ch.mu))
    bez = bezout(Gmu, wonham_gain(wonham_decompose(Gmu, (0, 1))), observer_gain(Gmu))
    Q = synthesize_Q(Gmu, bez, g_true, EXAMPLE_ZEROS)
    K = controller(bez, Q)
    T = closed_loop_map(Gmu, K)
    assert spectral_radius(T.A) < 1.0
    rad = ms_radius(t_hat(T), ch)
    assert rad < 1.0
    assert rad <= rep.best_value + 1e-6  # never worse than the certified level


# --- second-moment pieces -----------------------------------------------------

def test_t_hat_and_radius_diagonal_example():
    # T = diag(c/(z-a)): each entry norm c^2/(1-a^2), radius is the max
    # over channels of that times sigma^2
    a1, a2, c1, c2 = 0.5, -0.3, 2.0, 1.0
    T = StateSpaceModel(np.diag([a1, a2]), np.eye(2),
                        np.diag([c1, c2]), np.zeros((2, 2)))
    that = t_hat(T)
    assert_allclose(that, np.diag([c1 ** 2 / (1 - a1 ** 2), c2 ** 2 / (1 - a2 ** 2)]),
                    atol=1e-12)
    ch = ChannelSpec([0.1, 0.05])
    expected = max(that[0, 0] * ch.sigma_sq[0], that[1, 1] * ch.sigma_sq[1])
    assert_allclose(ms_radius(that, ch), expected, rtol=1e-12)
