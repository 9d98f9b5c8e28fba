"""Tests for the stabilizability decisions, scalings, and synthesis."""

import importlib
import itertools
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import (
    EXAMPLE_LAMBDA_12,
    EXAMPLE_LAMBDA_21,
    EXAMPLE_ZEROS,
    VERTEX_12,
    VERTEX_21,
    _scalar_blaschke,
    constant_system,
    coprime_family,
    count_calls,
    phi_inner_outer,
    pick_data_svd,
    raise_on_call,
    same_model,
)
from dropstab import factorization
from dropstab.factorization import (
    WonhamBlock,
    WonhamForm,
    _allpass_section,
    bezout,
    coprime_factorize,
    gamma_scale,
    observer_gain,
    wonham_decompose,
    wonham_gain,
)
from dropstab.numkernel import eigenvalues, spectral_radius
from dropstab.stabilizability import (
    ChannelSpec,
    GammaScaling,
    NotCertified,
    ScalingProblem,
    certificate_value,
    closed_loop_map,
    controller,
    membership,
    ms_radius,
    phi_diag_entry,
    rectangle_set,
    rectangle_vertex,
    sweep_bounds,
    synthesize,
    synthesize_Q,
    t_hat,
    union_membership,
)
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
    transmission_zeros,
)
from dropstab.verification import assemble, second_moment_radius


def _siso(num, den):
    return realize(TransferMatrix(((tuple(num),),), ((tuple(den),),)))


def siso_closed_form(lam: complex, zero) -> float:
    """Scalar-channel admissible bound in closed form.

    ``1 / (phi + 1)`` with ``phi = (|lam|^2 - 1) |conj(z) lam - 1|^2 / |z - lam|^2``
    for one unstable pole ``lam`` and one unstable zero ``z``; a clean channel
    degenerates to ``1/|lam|^2``.
    """
    al = abs(lam)
    if al <= 1.0:
        return 1.0
    if zero is None:
        return 1.0 / al ** 2
    z = complex(zero)
    phi = (al ** 2 - 1.0) * abs(np.conj(z) * lam - 1.0) ** 2 / abs(z - lam) ** 2
    return 1.0 / (phi + 1.0)


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
    for bad in ([np.nan, 0.01], [0.1, np.inf]):
        with pytest.raises(ValueError, match="finite"):
            ChannelSpec(bad)


def test_gamma_scaling_normalization():
    GammaScaling([1.0, 3.0])
    with pytest.raises(ValueError):
        GammaScaling([2.0, 1.0])
    with pytest.raises(ValueError):
        GammaScaling([1.0, 1e9])
    # NaN fails no comparison, so it must be kept out by the box test itself
    for bad in ([1.0, np.nan], [np.nan, 1.0]):
        with pytest.raises(ValueError):
            GammaScaling(bad)


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
        phi = phi_diag_entry(sec, (z,))[0]
        bound = siso_closed_form(lam, z)
        assert_allclose(phi, 1.0 / bound - 1.0, rtol=1e-10, atol=1e-12)


def test_phi_rejects_bad_inputs():
    sec = _allpass_section(2.0)
    with pytest.raises(ValueError, match="unit circle"):
        phi_diag_entry(sec, (0.5,))
    with pytest.raises(ValueError, match="collides with a pole"):
        phi_diag_entry(sec, (2.0,))  # zero right on the mirrored pole
    skew = StateSpaceModel([[0.5]], [[1.0]], [[1.0]], [[0.5]])
    with pytest.raises(ValueError, match="balanced"):
        phi_diag_entry(skew, (3.0,))
    with pytest.raises(ValueError, match="need 1 channel zeros, got 2"):
        phi_diag_entry(sec, (3.0, None))


# --- rectangles on the benchmark plant --------------------------------------

def test_rectangle_vertices_match_oracle(example_ss):
    rects = rectangle_set(example_ss, EXAMPLE_ZEROS)
    orderings = [f.ordering for f in rects.forms]
    assert orderings == [(0, 1), (1, 0)]
    assert_allclose(rects.vertices[0], VERTEX_12, rtol=1e-9)
    assert_allclose(rects.vertices[1], VERTEX_21, rtol=1e-9)
    assert_allclose(rects.volumes[0], VERTEX_12[0] * VERTEX_12[1], rtol=1e-9)
    assert_allclose(rects.volumes[1], VERTEX_21[0] * VERTEX_21[1], rtol=1e-9)
    assert_allclose(max(rects.volumes), rects.volumes[1], rtol=1e-12)


def test_union_membership_spots(example_ss):
    rects = rectangle_set(example_ss, EXAMPLE_ZEROS)
    assert union_membership(rects, (0.04, 0.02)) == (True, 0)
    assert union_membership(rects, (0.17, 0.012)) == (True, 1)
    # dominated by neither rectangle even though each coordinate fits one
    assert union_membership(rects, (0.17, 0.02)) == (False, None)
    # the corner itself is not certified: a rectangle certifies only its
    # guarded interior p < v (1 - MEMBER_GUARD), as the search does
    assert union_membership(rects, VERTEX_12) == (False, None)


@pytest.mark.parametrize("p", [(0.01,), (0.01, 0.01, 0.01)], ids=["short", "long"])
def test_union_membership_rejects_wrong_length(example_ss, p):
    rects = rectangle_set(example_ss, EXAMPLE_ZEROS)
    with pytest.raises(ValueError, match=f"need 2 dropout probabilities, got {len(p)}"):
        union_membership(rects, p)


def test_rectangle_vertex_stable_plant():
    g = realize(TransferMatrix(
        num=(((1.0,), (0.0,)), ((0.0,), (1.0,))),
        den=(((1.0, -0.5), (1.0,)), ((1.0,), (1.0, 0.3))),
    ))
    form = wonham_decompose(g, (0, 1))
    assert_allclose(rectangle_vertex(form, (None, None)), [1.0, 1.0])


def _allocation_form(alloc) -> WonhamForm:
    """A decomposition in identity order whose channel j carries the
    unstable eigenvalues ``alloc[j]``: all that ``rectangle_vertex`` reads."""
    lams = np.asarray([v for lam in alloc for v in lam], dtype=complex)
    blocks = tuple(WonhamBlock(channel=j, dim=len(lam), lam=tuple(lam))
                   for j, lam in enumerate(alloc))
    return WonhamForm(ordering=tuple(range(len(alloc))), blocks=blocks,
                      transform=np.eye(lams.size, dtype=complex),
                      Aw=np.diag(lams).reshape(lams.size, lams.size),
                      Bw=np.zeros((lams.size, len(alloc)), dtype=complex))


def _random_channel_poles(rng) -> list:
    """Zero to two groups of unstable eigenvalues, each a real pole, a
    complex pair or a repeated real pole, with moduli in [1.01, 4]."""
    out = []
    for _ in range(rng.integers(0, 3)):
        kind, radius = rng.integers(0, 3), rng.uniform(1.01, 4.0)
        if kind == 1:
            v = radius * np.exp(1j * rng.uniform(0.05, np.pi - 0.05))
            out += [v, np.conj(v)]
        else:
            v = complex(radius * rng.choice([-1.0, 1.0]))
            out += [v] * (1 if kind == 0 else 2)
    return out


def test_rectangle_vertex_matches_allpass_oracle():
    # the closed form against phi_diag_entry on the balanced cascade of
    # all-pass sections, over seeded allocations of one to three channels
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 2000:
        alloc = [_random_channel_poles(rng) for _ in range(rng.integers(1, 4))]
        zeros = [None if rng.random() < 0.3
                 else float(rng.uniform(1.01, 5.0) * rng.choice([-1.0, 1.0]))
                 for _ in alloc]
        # keep the pole/zero cancellation well conditioned
        if any(z is not None and lam and np.min(np.abs(np.subtract(lam, z))) < 0.05
               for lam, z in zip(alloc, zeros)):
            continue
        got = rectangle_vertex(_allocation_form(alloc), zeros)
        want = [1.0 / (phi_diag_entry(_scalar_blaschke(tuple(lam)), (z,))[0] + 1.0)
                for lam, z in zip(alloc, zeros)]
        assert_allclose(got, want, rtol=1e-10, err_msg=str((alloc, zeros)))
        checked += 1
    # with the benchmark plant's exact poles the corners are its fractions
    for alloc, vertex in ((EXAMPLE_LAMBDA_12, VERTEX_12), (EXAMPLE_LAMBDA_21, VERTEX_21)):
        assert_allclose(rectangle_vertex(_allocation_form(alloc), EXAMPLE_ZEROS),
                        vertex, rtol=1e-14)


def test_rectangle_vertex_rejects_bad_zeros():
    form = _allocation_form(((2.0, -1.5), ()))
    for zeta in (2.0, 2.0 + 1e-12, -1.5):
        with pytest.raises(ValueError, match="collides with a pole"):
            rectangle_vertex(form, (zeta, None))
    # a zero within the unit-circle band has no all-pass section either
    for zeros in ((0.5, None), (-1.0, None), (None, 0.9), (1.0 + 1e-12, None)):
        with pytest.raises(ValueError, match="outside the unit circle"):
            rectangle_vertex(form, zeros)


# --- matrix phi against the decoupling limits -------------------------------

def test_phi_decouples_at_extreme_scalings(example_ss):
    # driving the second channel's weight to a rail decouples the joint
    # matrix measure into the per-channel scalar values of one split:
    # vanishing weight recovers the (1,0) corner, dominant weight the (0,1)
    problem = ScalingProblem(example_ss, EXAMPLE_ZEROS)
    lo = problem.phi(np.array([1.0, 1e-6]))
    assert_allclose(lo, [1.0 / VERTEX_21[0] - 1.0, 1.0 / VERTEX_21[1] - 1.0], rtol=1e-3)
    hi = problem.phi(np.array([1.0, 1e6]))
    assert_allclose(hi, [1.0 / VERTEX_12[0] - 1.0, 1.0 / VERTEX_12[1] - 1.0], rtol=1e-3)


def _rel_gap(a, b) -> float:
    return float(np.max(np.abs(a - b) / (1.0 + np.abs(b))))


def _identity_factor(plant):
    """Right coprime factor over the identity channel ordering and the
    default gain, the one ``certificate_value`` builds."""
    return coprime_factorize(plant, wonham_gain(
        wonham_decompose(plant, tuple(range(plant.n_inputs)))))


def test_phi_closed_form_matches_inner_outer_oracle(example_ss, monkeypatch):
    problem = ScalingProblem(example_ss, EXAMPLE_ZEROS)
    assert _rel_gap(problem.phi(np.ones(2)), phi_inner_outer(
        _identity_factor(example_ss), EXAMPLE_ZEROS, np.ones(2))) < 1e-12
    # the seeded search-family plants of the benchmark, three per structure
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    worker = importlib.import_module("worker")
    rng = np.random.default_rng(11)
    checked = 0
    for r, structures in worker.SEARCH_STRUCTURES.items():
        for plant, zeros in worker.plants.plant_family(rng, r, structures * 3):
            problem, M = ScalingProblem(plant, zeros), _identity_factor(plant)
            for _ in range(12):
                gamma = np.concatenate([[1.0], 10.0 ** rng.uniform(-6.0, 6.0, r - 1)])
                gap = _rel_gap(problem.phi(gamma), phi_inner_outer(M, zeros, gamma))
                assert gap < 1e-9, (r, zeros, gamma, gap)
                checked += 1
    assert checked == 12 * 3 * 9


def test_phi_closed_form_complex_poles():
    # a complex unstable pair and a complex channel zero: the kernel and the
    # channel weights carry the conjugates the real case hides
    rng = np.random.default_rng(5)
    rot = 1.6 * np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
    A = np.zeros((5, 5))
    A[:2, :2] = rot
    A[2:, 2:] = np.diag([0.3, -1.8, 1.3])
    Q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    plant = StateSpaceModel(Q.T @ A @ Q, rng.normal(size=(5, 2)),
                            rng.normal(size=(2, 5)), np.zeros((2, 2)))
    M = _identity_factor(plant)
    for zeros in ((None, None), (2.2, -1.7), (1.3 + 0.9j, None)):
        problem = ScalingProblem(plant, zeros)
        for lg in np.linspace(-6.0, 6.0, 7):
            gamma = np.array([1.0, 10.0 ** lg])
            assert _rel_gap(problem.phi(gamma), phi_inner_outer(M, zeros, gamma)) < 1e-9


def test_phi_clean_channels_meet_the_product_bound():
    # phi + 1 = prod |lambda|^2 on a clean channel: the paper's bound, whose
    # reciprocal is the rectangle's volume that supremum reports
    plant = _siso([1.0], [1.0, -0.5, -3.0])   # poles 2 and -1.5
    (volume,) = rectangle_set(plant, (None,)).volumes
    phi = ScalingProblem(plant, (None,)).phi(np.ones(1))
    assert_allclose(phi + 1.0, [9.0], rtol=1e-12)
    assert_allclose(phi + 1.0, [1.0 / volume], rtol=1e-12)
    # decoupled: each channel carries its own pole at every scaling
    g = realize(TransferMatrix(
        num=(((1.0,), (0.0,)), ((0.0,), (1.0,))),
        den=(((1.0, -2.0), (1.0,)), ((1.0,), (1.0, 1.5))),
    ))
    problem = ScalingProblem(g, (None, None))
    for g2 in (1e-6, 1.0, 1e6):
        assert_allclose(problem.phi(np.array([1.0, g2])) + 1.0, [4.0, 2.25], rtol=1e-12)


def _diagonal_plant(lams):
    """Decoupled plant ``diag(1/(z - lam_j))``: its poles are the ``lams``."""
    n = len(lams)
    return StateSpaceModel(np.diag(lams), np.eye(n), np.eye(n), np.zeros((n, n)))


def test_scaling_problem_rejects_what_the_split_rejects():
    # a repeated unstable pole: the split fails at every scaling
    twin = realize(TransferMatrix(
        num=(((1.0,), (0.0,)), ((0.0,), (1.0,))),
        den=(((1.0, -2.0), (1.0,)), ((1.0,), (1.0, -2.0))),
    ))
    with pytest.raises(ValueError, match="repeated unstable plant pole"):
        ScalingProblem(twin, (None, None))
    with pytest.raises(ValueError, match="repeated unstable plant pole"):
        membership(twin, (None, None), ChannelSpec([0.01, 0.01]))
    with pytest.raises(ValueError, match="repeated unstable plant pole"):
        ScalingProblem(_diagonal_plant([2.0, 2.0 + 1e-7]), (None, None))
    # poles on the unit circle band, on either side
    for lam in (1.0 + 1e-10, 1.0 - 1e-10):
        with pytest.raises(ValueError, match="unit circle"):
            ScalingProblem(_diagonal_plant([lam, 3.0]), (None, None))
    # a channel zero on an unstable pole, or inside the unit disc
    plant = _diagonal_plant([2.0, 3.0])
    with pytest.raises(ValueError, match="collides"):
        ScalingProblem(plant, (2.0 + 1e-10, None))
    with pytest.raises(ValueError, match="outside the unit circle"):
        ScalingProblem(plant, (None, 0.5))
    with pytest.raises(ValueError, match="zeros"):
        ScalingProblem(plant, (None,))
    assert np.all(np.isfinite(ScalingProblem(plant, (2.0 + 1e-3, None)).phi(np.ones(2))))


def test_scaling_problem_rejects_an_uncontrollable_pair():
    # the stable mode 0.5 is out of reach of both inputs: the identity-ordered
    # decomposition that M needs would reject the pair, so the search must too
    plant = StateSpaceModel(np.diag([2.0, 0.5, 3.0]),
                            [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]],
                            np.ones((2, 3)), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="uncontrollable"):
        wonham_decompose(plant, (0, 1))
    with pytest.raises(ValueError, match=r"2 of 3 states .* uncontrollable"):
        ScalingProblem(plant, (None, None))
    with pytest.raises(ValueError, match="uncontrollable"):
        membership(plant, (None, None), ChannelSpec([0.01, 0.01]))
    with pytest.raises(ValueError, match="uncontrollable"):
        sweep_bounds(plant, (None, None))


def test_phi_never_returns_non_finite_values():
    g = realize(TransferMatrix(
        num=(((1.0,), (0.0,)), ((0.0,), (1.0,))),
        den=(((1.0, -2.0), (1.0,)), ((1.0,), (1.0, 1.5))),
    ))
    problem = ScalingProblem(g, (None, None))
    with np.errstate(all="ignore"):
        # far outside the search box: the Pick matrix underflows to a
        # singular one, or overflows; either way the scaling fails, and phi
        # gives no NaN and no partial value for it: inf in every entry
        for far in (1e200, 1e-200):
            assert np.array_equal(problem.phi(np.array([1.0, far])), [np.inf, np.inf])
    # only a malformed gamma raises
    for bad in ([1.0, 0.0], [1.0, np.nan], [1.0, np.inf], [1.0]):
        with pytest.raises(ValueError, match="gamma"):
            problem.phi(np.array(bad))


def test_phi_invariant_under_gain_choice(example_ss, monkeypatch):
    # the Pick data come from the plant alone: phi of the factor over
    # another stabilizing gain is the same
    default = ScalingProblem(example_ss, EXAMPLE_ZEROS)
    monkeypatch.setattr(factorization, "_reflect_targets", lambda eigs: [
        0.8 / np.conj(v) if abs(v) >= 1.0 else 0.8 * v for v in eigs])
    M2 = coprime_factorize(example_ss, wonham_gain(wonham_decompose(example_ss, (0, 1))))
    other = phi_inner_outer(M2, EXAMPLE_ZEROS, np.ones(2))
    assert np.max(np.abs(default.phi(np.ones(2)) - other)) < 1e-8


def _plant_with_poles(rng, r, lam_real, lam_pairs, n_stable):
    """Random plant with r inputs and the given unstable poles (real ones,
    and complex pairs ``rho exp(+-i omega)`` given as (rho, omega)), plus
    ``n_stable`` stable real poles, in a random orthogonal basis."""
    blocks = [np.diag(lam_real)] if len(lam_real) else []
    for rho, om in lam_pairs:
        blocks.append(rho * np.array([[np.cos(om), -np.sin(om)],
                                      [np.sin(om), np.cos(om)]]))
    if n_stable:
        blocks.append(np.diag(rng.uniform(-0.8, 0.8, n_stable)))
    n = sum(b.shape[0] for b in blocks)
    A = np.zeros((n, n))
    off = 0
    for blk in blocks:
        k = blk.shape[0]
        A[off:off + k, off:off + k] = blk
        off += k
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return StateSpaceModel(Q.T @ A @ Q, rng.normal(size=(n, r)),
                           rng.normal(size=(r, n)), np.zeros((r, r)))


def test_pick_vectors_are_input_directions_of_left_eigenvectors(monkeypatch):
    # w_i = B* u_i with u_i* A = lambda_i u_i*, up to a unit factor: the left
    # null vector of M(lambda_i) by SVD, whatever the gain M is built over,
    # on seeded plants with 1 to 4 channels, complex pairs and channel zeros
    rng = np.random.default_rng(20)
    checked = 0
    for r in (1, 2, 3, 4):
        for _ in range(6):
            lam_real = rng.uniform(1.1, 2.4, int(rng.integers(0, 3))) * rng.choice([-1, 1])
            pairs = [(float(rng.uniform(1.1, 2.0)), float(rng.uniform(0.3, 2.8)))
                     for _ in range(int(rng.integers(0, 2)))]
            if len(lam_real) + len(pairs) == 0:
                pairs = [(1.5, 1.0)]
            plant = _plant_with_poles(rng, r, lam_real, pairs, int(rng.integers(0, 3)))
            zeros = tuple(None if rng.random() < 0.4
                          else complex(rng.uniform(1.2, 3.0) * np.exp(1j * rng.uniform(0, 3.1)))
                          if rng.random() < 0.3
                          else float(rng.choice([-1, 1]) * rng.uniform(1.2, 3.0))
                          for _ in range(r))
            problem = ScalingProblem(plant, zeros)
            k = len(lam_real) + 2 * len(pairs)
            for targets in (factorization._reflect_targets,
                            lambda eigs: [0.6 * v if abs(v) < 1.0 else 0.5 / np.conj(v)
                                          for v in eigs]):
                with monkeypatch.context() as mp:
                    mp.setattr(factorization, "_reflect_targets", targets)
                    M = coprime_factorize(plant, wonham_gain(
                        wonham_decompose(plant, tuple(range(r)))))
                lam, W = pick_data_svd(M)
                assert lam.size == k
                poles = eigenvalues(plant.A)
                unstable = poles[np.abs(poles) > 1.0]
                order = []
                for v in unstable:
                    j = int(np.argmin(np.abs(lam - v)))
                    assert abs(lam[j] - v) < 1e-9 * abs(v)
                    order.append(j)
                # each part over the kernel is w_j* w_j for row w_j of the
                # oracle's unit columns, up to one unit factor c_i per pole
                kernel = 1.0 / (unstable[:, None] * np.conj(unstable)[None, :] - 1.0)
                got = problem._parts / kernel
                want = W[:, order].conj()[:, :, None] * W[:, order][:, None, :]
                c = np.array([np.vdot(got[:, 0, i], want[:, 0, i])
                              / np.vdot(got[:, 0, i], got[:, 0, i]) for i in range(k)])
                assert np.all(np.abs(np.abs(c) - 1.0) < 1e-9)
                assert np.max(np.abs(want - np.conj(c)[:, None] * c * got)) < 1e-9
                for _ in range(4):
                    gamma = np.concatenate([[1.0], 10.0 ** rng.uniform(-3.0, 3.0, r - 1)])
                    gap = _rel_gap(problem.phi(gamma), phi_inner_outer(M, zeros, gamma))
                    assert gap < 1e-9, (r, zeros, gamma, gap)
                checked += 1
    assert checked == 2 * 4 * 6


def test_search_builds_no_coprime_factor(example_ss, monkeypatch):
    # membership and the region sweep read the Pick data off the plant: no
    # decomposition, no pole placement, no coprime factor; each certificate
    # check builds M, once
    for fn in (wonham_decompose, wonham_gain, coprime_factorize):
        raise_on_call(monkeypatch, fn)
    ch = ChannelSpec(0.9 * np.asarray(VERTEX_21))
    rep = membership(example_ss, EXAMPLE_ZEROS, ch)
    bounds = sweep_bounds(example_ss, EXAMPLE_ZEROS)
    assert rep.member and bounds.shape == (481, 2)
    monkeypatch.undo()
    factors = count_calls(monkeypatch, factorization.coprime_factorize)
    value = certificate_value(example_ss, EXAMPLE_ZEROS, rep.certificate.gamma, ch.p)
    assert value == pytest.approx(rep.best_value, rel=1e-9)
    assert len(factors) == 1
    certificate_value(example_ss, EXAMPLE_ZEROS, rep.tame_certificate.gamma, ch.p)
    assert len(factors) == 2


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


def test_membership_evaluates_phi_once_per_search_point(example_ss, monkeypatch):
    # the bounds come from the search's own evaluation at its best
    # point, not from one more evaluation after the search; the search uses
    # the closed form only, and the certificate check one inner-outer split;
    # the grid is one stacked call, each refinement point a call of its own
    phi = ScalingProblem.phi
    rows = []

    def counted(self, gamma):
        rows.append(len(np.atleast_2d(gamma)))
        return phi(self, gamma)

    monkeypatch.setattr(ScalingProblem, "phi", counted)
    splits = count_calls(monkeypatch, factorization.inner_outer)
    ch = ChannelSpec([0.12, 0.01])
    rep = membership(example_ss, EXAMPLE_ZEROS, ch)
    log = rep.search_log
    # two channels: the grid, then the pencil's point alone
    assert log["refine"] == "pencil" and log["refine_evals"] == 1
    assert sum(rows) == log["grid_points"] + log["refine_evals"]
    assert rows[0] == log["grid_points"] and rows[1:] == [1] * log["refine_evals"]
    assert len(splits) == 0
    value = certificate_value(example_ss, EXAMPLE_ZEROS, rep.certificate.gamma, ch.p)
    assert len(splits) == 1
    assert value == pytest.approx(rep.best_value, rel=1e-9)
    assert_allclose(rep.bounds, 1.0 / (phi(rep.problem, rep.certificate.gamma) + 1.0),
                    rtol=1e-12)


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
    bounds = sweep_bounds(example_ss, EXAMPLE_ZEROS)
    assert bounds.shape == (481, 2)
    # midpoint of the sweep is the unscaled measure
    mid = bounds[240]
    phi = ScalingProblem(example_ss, EXAMPLE_ZEROS).phi(np.ones(2))
    assert_allclose(mid, 1.0 / (phi + 1.0), rtol=1e-9)
    # the sweep pool certifies 0.9 times both rectangle corners
    for corner in (VERTEX_12, VERTEX_21):
        p = 0.9 * np.asarray(corner)
        assert np.any(np.all(p < bounds * (1.0 - 1e-9), axis=1))


# --- minimum-phase supremum --------------------------------------------------

def test_mp_supremum_single_pole():
    # a clean plant's supremum is its rectangle's volume, prod |lambda|^-2
    plant = _siso([1.0], [1.0, -2.0])
    (volume,) = rectangle_set(plant, (None,)).volumes
    assert_allclose(volume, 0.25, rtol=1e-12)
    assert_allclose(volume ** 0.5, 0.5, rtol=1e-12)
    below = membership(plant, (None,), ChannelSpec([0.99 * 0.25]))
    above = membership(plant, (None,), ChannelSpec([1.01 * 0.25]))
    assert below.member and not above.member


def test_mp_supremum_multi_pole_product():
    # decoupled: each channel carries its own pole, and the rectangle's
    # volume is the product over both, prod |lambda|^-2
    g = realize(TransferMatrix(
        num=(((1.0,), (0.0,)), ((0.0,), (1.0,))),
        den=(((1.0, -2.0), (1.0,)), ((1.0,), (1.0, 1.5))),
    ))
    rects = rectangle_set(g, (None, None))
    for form, volume in zip(rects.forms, rects.volumes):
        assert_allclose(volume, 1.0 / 9.0, rtol=1e-9)
        assert_allclose(volume ** 0.5, 1.0 / 3.0, rtol=1e-9)
        poles = [lam for channel in form.lambda_by_channel().values() for lam in channel]
        assert_allclose(sorted(np.real(poles)), [-1.5, 2.0], atol=1e-9)
        assert_allclose(np.imag(poles), 0.0, atol=1e-9)


# --- synthesis ----------------------------------------------------------------

def _design_pieces(plant, zeros, channels, gamma):
    """A design and the factors ``bez`` and Youla parameter ``Q`` it was
    built from, rebuilt by the calls ``synthesize`` makes on the plant with
    the success rates applied; they must give the design's controller
    exactly."""
    design = synthesize(plant, zeros, channels, gamma)
    Gmu = scale_io(plant, None, np.diag(channels.mu))
    form = wonham_decompose(Gmu, tuple(range(Gmu.n_inputs)))
    bez = bezout(Gmu, wonham_gain(form), observer_gain(Gmu))
    Q = synthesize_Q(Gmu, bez, design.gamma_true, zeros)
    assert same_model(controller(bez, Q), design.K)
    return design, Gmu, bez, Q


def test_synthesis_meets_phi_cost(example_ss):
    # the end-to-end contract: at any scaling certificate, the synthesized
    # parameter attains per-channel weighted costs equal to the matrix
    # measure's diagonal
    ch = ChannelSpec([0.01, 0.005])
    gamma_free = np.array([1.0, 1.0])
    design, Gmu, bez, Q = _design_pieces(example_ss, EXAMPLE_ZEROS, ch, gamma_free)
    g_true = design.gamma_true
    Y = coprime_family(Gmu, bez.F, bez.L).Y
    assert Q.order == 0 or spectral_radius(Q.A) < 1.0
    assert np.max(np.abs(Q.A.imag)) == 0.0

    phi = ScalingProblem(example_ss, EXAMPLE_ZEROS).phi(gamma_free)
    Tg = minimal(cascade(
        parallel(gamma_scale(Y, g_true),
                 cascade(gamma_scale(bez.M, g_true), gamma_scale(Q, g_true)),
                 sign=-1.0),
        gamma_scale(bez.Nt, g_true)))
    for j in range(2):
        Jj = h2_norm_sq(minimal(subsystem(Tg, [0, 1], [j])))
        assert abs(Jj - phi[j]) < 1e-6


def test_synthesis_siso_hits_exact_optimum():
    plant = _siso([1.0, -1.5], [1.0, -2.5, 1.0])
    ch = ChannelSpec([0.015])
    design = synthesize(plant, (1.5,), ch, np.array([1.0]))
    assert_allclose(design.t_hat, [[48.0]], rtol=1e-9)
    assert design.analysis_radius < 1.0


def test_synthesis_minimum_phase_channel():
    plant = _siso([1.0], [1.0, -2.0])
    ch = ChannelSpec([0.2])
    design = synthesize(plant, (None,), ch, np.array([1.0]))
    # cost lambda^2 - 1 exactly; radius sigma^2 (lambda^2 - 1) = 0.75
    assert_allclose(design.t_hat, [[3.0]], rtol=1e-9)
    assert_allclose(design.analysis_radius, 0.75, rtol=1e-9)


def test_closed_loop_map_rejects_feedthrough():
    plant = StateSpaceModel([[0.5]], [[1.0]], [[1.0]], [[0.1]])
    with pytest.raises(ValueError, match="feedthrough"):
        closed_loop_map(plant, constant_system([[1.0]]))


def test_controller_central_form(example_ss):
    ch = ChannelSpec([0.01, 0.005])
    _, Gmu, bez, _ = _design_pieces(example_ss, EXAMPLE_ZEROS, ch, np.array([1.0, 1.0]))
    F, L = bez.F, bez.L
    K0 = controller(bez, constant_system(np.zeros((2, 2))))
    manual = StateSpaceModel(Gmu.A - Gmu.B @ F - L @ Gmu.C, L, -F, np.zeros((2, 2)))
    for s in (1.4 + 0.2j, -0.9, 2.8):
        assert_allclose(evaluate(K0, s), evaluate(manual, s), atol=1e-8)
    T0 = closed_loop_map(Gmu, K0)
    assert spectral_radius(T0.A) < 1.0
    # with Q = 0 the loop map reduces to Y Ntilde
    ref = cascade(coprime_family(Gmu, F, L).Y, bez.Nt)
    for s in (1.6 + 0.5j, -1.8):
        assert_allclose(evaluate(T0, s), evaluate(ref, s), atol=1e-8)


def test_controller_matches_fraction_formula(example_ss):
    ch = ChannelSpec([0.02, 0.01])
    design, Gmu, bez, Q = _design_pieces(example_ss, EXAMPLE_ZEROS, ch, np.array([1.0, 1.0]))
    K = design.K
    fam = coprime_family(Gmu, bez.F, bez.L)
    den = parallel(bez.Xt, cascade(Q, bez.Nt), sign=-1.0)
    num = parallel(fam.Yt, cascade(Q, fam.Mt), sign=-1.0)
    for s in (1.9 + 0.4j, -1.6, 0.3 + 0.8j):
        want = np.linalg.solve(evaluate(den, s), evaluate(num, s))
        diff = np.max(np.abs(evaluate(K, s) - want))
        assert diff < 1e-8 * (1.0 + np.max(np.abs(want)))


def test_synthesize_q_skips_a_peak_gain_point_it_cannot_evaluate(example_ss, monkeypatch):
    # the peak gain only scales the cancellation check: with any one of its
    # five unit-circle points refused, the parameter is the same, bit for bit
    ch = ChannelSpec([0.12, 0.01])
    design, Gmu, bez, Q = _design_pieces(example_ss, EXAMPLE_ZEROS, ch, np.ones(2))
    for theta in np.linspace(0.0, np.pi, 5):
        refused = []

        def evaluate_but(sys, s, point=np.exp(1j * theta)):
            if s == point:
                refused.append(s)
                raise ValueError("singular at the point")
            return evaluate(sys, s)

        monkeypatch.setattr("dropstab.stabilizability.evaluate", evaluate_but)
        assert same_model(synthesize_Q(Gmu, bez, design.gamma_true, EXAMPLE_ZEROS), Q)
        assert len(refused) == 1, theta


def test_synthesis_record_is_the_hand_chain_bit_for_bit(example_ss):
    # the search's tame certificate, re-checked, designed at and verified
    # by the calls themselves, on the synthesize command's example
    ch = ChannelSpec([0.158, 0.0128])
    design, Gmu, bez, Q = _design_pieces(example_ss, EXAMPLE_ZEROS, ch, None)
    gamma = membership(example_ss, EXAMPLE_ZEROS, ch).tame_certificate.gamma
    assert np.array_equal(design.gamma, gamma)
    K = controller(bez, Q)   # design.K, entry for entry
    assert design.value == certificate_value(example_ss, EXAMPLE_ZEROS, gamma, ch.p)
    that = t_hat(closed_loop_map(Gmu, K))
    assert np.array_equal(design.t_hat, that)
    assert design.analysis_radius == ms_radius(that, ch)
    assert design.verification_radius == second_moment_radius(assemble(example_ss, K, ch))


def test_synthesize_negative_verdicts_are_not_certified(example_ss):
    with pytest.raises(NotCertified, match="dropout vector is not certified"):
        synthesize(example_ss, EXAMPLE_ZEROS, ChannelSpec([0.5, 0.5]))
    # a member, but only under a less balanced scaling than 1,1
    ch = ChannelSpec([0.175, 0.012])
    assert membership(example_ss, EXAMPLE_ZEROS, ch).member
    with pytest.raises(NotCertified, match="supplied scaling does not certify"):
        synthesize(example_ss, EXAMPLE_ZEROS, ch, np.ones(2))


def test_synthesize_search_certificate_failing_its_recheck_is_an_error(example_ss, monkeypatch):
    # the search certified p, so its own certificate failing the re-check is
    # an error of the tool, not a verdict
    monkeypatch.setattr("dropstab.stabilizability.certificate_value",
                        lambda plant, zeros, gamma, p: 1.0)
    with pytest.raises(ValueError, match="search's certificate fails") as info:
        synthesize(example_ss, EXAMPLE_ZEROS, ChannelSpec([0.158, 0.0128]))
    assert not isinstance(info.value, NotCertified)


def _refused_cleanup(Q):
    raise ValueError("Gramian not computable")


def test_synthesize_q_falls_back_to_the_uncleaned_parameter(example_ss, monkeypatch):
    # when the Hankel cleanup raises, synthesize_Q returns the parameter as
    # reduced by the staircase: on example1 the tame design at 0.12,0.01
    # still verifies, with the same controller transfer function, while the
    # other two designs exceed the exact-analysis cap and are refused
    ch = ChannelSpec([0.12, 0.01])
    cleaned = synthesize(example_ss, EXAMPLE_ZEROS, ch).K
    monkeypatch.setattr("dropstab.stabilizability.balanced_truncate", _refused_cleanup)
    design = synthesize(example_ss, EXAMPLE_ZEROS, ch)
    assert design.K.order == 15
    assert design.analysis_radius < 1.0 and design.verification_radius < 1.0
    for s in (1.3 + 0.4j, -1.7, 0.2 + 0.9j):
        want = evaluate(cleaned, s)
        assert np.max(np.abs(evaluate(design.K, s) - want)) < 1e-8 * (1.0 + np.max(np.abs(want)))
    for probs, order, loop_order in (([0.158, 0.0128], 26, 32), ([0.05, 0.02], 33, 39)):
        with pytest.raises(ValueError) as info:
            synthesize(example_ss, EXAMPLE_ZEROS, ChannelSpec(probs))
        assert str(info.value) == (
            f"controller order {order}: verification radius not computable (closed-loop "
            f"order {loop_order} exceeds the exact-analysis cap 30); no controller is printed")


def test_synthesis_full_loop_stability_margin(example_ss):
    # 0.9 of the largest-volume corner: verdict, synthesis, and the exact
    # second-moment radius all land strictly inside
    p = 0.9 * np.asarray(VERTEX_21)
    ch = ChannelSpec(p)
    rep = membership(example_ss, EXAMPLE_ZEROS, ch)
    assert rep.member
    design = synthesize(example_ss, EXAMPLE_ZEROS, ch, rep.tame_certificate.gamma)
    assert design.loop.nominal_radius < 1.0
    assert design.analysis_radius < 1.0
    assert design.verification_radius < 1.0
    # never worse than the certified level
    assert design.analysis_radius <= rep.best_value + 1e-6


def _complex_pair_plants():
    """The seeded two-channel family with one complex unstable pole pair
    ``rho exp(+-i theta)`` and two stable real poles in a random orthogonal
    basis, no channel zeros: yields (draw, plant) for each of 400 draws with
    cond(CB) <= 20 and every transmission zero of modulus below 0.97."""
    rng = np.random.default_rng(3)
    for k in range(400):
        rho, theta = rng.uniform(1.1, 1.8), rng.uniform(0.3, 2.5)
        core = np.diag(np.concatenate([[0.0, 0.0], rng.uniform(-0.8, 0.8, 2)]))
        core[:2, :2] = rho * np.array([[np.cos(theta), -np.sin(theta)],
                                       [np.sin(theta), np.cos(theta)]])
        Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        plant = StateSpaceModel(Q.T @ core @ Q, rng.normal(size=(4, 2)),
                                rng.normal(size=(2, 4)), np.zeros((2, 2)))
        if (np.linalg.cond(plant.C @ plant.B) <= 20.0
                and np.max(np.abs(transmission_zeros(plant))) < 0.97):
            yield k, plant


def _design_at_half_corner(plant):
    """The design at half the corner of the largest rectangle, at the
    search's tame certificate."""
    rects = rectangle_set(plant, (None, None))
    ch = ChannelSpec(0.5 * np.asarray(rects.vertices[int(np.argmax(rects.volumes))]))
    return synthesize(plant, (None, None), ch)


def test_synthesis_on_a_complex_unstable_pair():
    # the first 20 kept draws: each design passes both radii, as the
    # synthesize command requires
    for k, plant in itertools.islice(_complex_pair_plants(), 20):
        design = _design_at_half_corner(plant)
        assert design.analysis_radius < 1.0 and design.verification_radius < 1.0, k


def test_synthesis_on_a_complex_unstable_pair_known_failures():
    # draws 313 and 348, once refused by assemble: their Youla parameter
    # carries about 1e-11 of imaginary rounding noise, which the model
    # boundary now zeroes, so each design is a real controller of order 6
    # that passes both radii
    fixtures = {k: plant for k, plant in _complex_pair_plants() if k in (313, 348)}
    assert sorted(fixtures) == [313, 348]
    for k, plant in fixtures.items():
        design = _design_at_half_corner(plant)
        assert design.K.order == 6
        assert not design.K.A.imag.any(), k
        assert design.analysis_radius < 1.0 and design.verification_radius < 1.0, k


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
