import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import linalg as sla

from dropstab import config
from dropstab.numkernel import (_canonical_order, eigenvalues, real_part, solve_stein,
                                spectral_radius)


def test_eigenvalues_diagonal_ordering():
    assert_allclose(eigenvalues(np.diag([2.0, 0.5])), [0.5, 2.0], atol=1e-12)


def test_eigenvalues_companion_pair():
    # companion form of z^2 - 4.5 z + 5
    A = np.array([[0.0, 1.0], [-5.0, 4.5]])
    spec = eigenvalues(A)
    assert_allclose(spec, [2.0, 2.5], atol=1e-10)


def test_eigenvalues_block_from_balanced_cascade():
    A = np.array([[0.4, -0.683], [0.0, -0.667]])
    spec = eigenvalues(A)
    assert_allclose(spec, [0.4, -0.667], atol=1e-12)


def test_eigenvalues_ties_broken_by_angle():
    spec = eigenvalues(np.diag([-1.0, 1.0]))
    # equal modulus: angle 0 sorts before angle pi
    assert_allclose(spec, [1.0, -1.0], atol=1e-12)


def test_eigenvalues_conjugate_pair_consecutive():
    A = np.array([[0.0, 1.0], [-2.0, 1.0]])  # roots 0.5 +/- sqrt(7)/2 i
    spec = eigenvalues(A)
    assert_allclose(spec[0], np.conj(spec[1]), atol=1e-12)
    assert spec[0].imag < 0 < spec[1].imag


def _grouping_loop_order(w):
    """The canonical order by an explicit loop over modulus groups."""
    mods = np.abs(w)
    real_mask = np.abs(w.imag) <= 1e-12 * (mods + 1.0)
    ang = np.where(real_mask, np.where(w.real < 0.0, np.pi, 0.0), np.angle(w))
    tol = 1e-9 * max(1.0, float(mods.max()))
    idx = list(np.argsort(mods, kind="stable"))
    out, i = [], 0
    while i < len(idx):
        j = i + 1
        while j < len(idx) and mods[idx[j]] - mods[idx[j - 1]] <= tol:
            j += 1
        out.extend(sorted(idx[i:j], key=lambda k: (ang[k], mods[k])))
        i = j
    return np.asarray(out, dtype=int)


def test_canonical_order_matches_grouping_loop():
    # spectra rich in ties: conjugates, sign flips, exact and near
    # duplicates, values rounded to few digits
    rng = np.random.default_rng(2024)
    for _ in range(2000):
        k = int(rng.integers(1, 5))
        base = rng.standard_normal(k) + 1j * rng.standard_normal(k) * rng.integers(0, 2, k)
        parts = [base, np.conj(base), -base, base * (1.0 + 1e-13),
                 np.round(base, int(rng.integers(0, 3)))]
        w = np.concatenate([parts[k] for k in rng.choice(5, int(rng.integers(1, 6)))])
        w = w[rng.permutation(w.size)] * 10.0 ** rng.uniform(-3.0, 3.0)
        assert np.array_equal(_canonical_order(w), _grouping_loop_order(w)), w


def test_eigenvalues_similarity_invariance():
    rng = np.random.default_rng(20210)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        A = rng.standard_normal((n, n))
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        w1 = eigenvalues(A)
        w2 = eigenvalues(Q @ A @ Q.T)
        assert_allclose(w1, w2, atol=1e-7 * max(1.0, np.linalg.norm(A)))


def test_eigenvalues_residual_gate_scales_by_the_spectral_norm(monkeypatch):
    # the gate accepts exactly when the residual is at most the tolerance
    # times max(1, ||A||_2); the eigensolver is made to return each
    # eigenvalue off by delta, so the residual is delta
    rng = np.random.default_rng(8)
    eig = np.linalg.eig
    for n in (2, 3, 5):
        for diagonal in (True, False):
            d = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-1.0, 3.0)
            Q = np.eye(n) if diagonal else np.linalg.qr(rng.standard_normal((n, n)))[0]
            A = Q @ np.diag(d) @ Q.T
            scale = max(1.0, np.linalg.norm(A, 2))
            delta = 1e-4 * scale
            w, V = eig(A)
            monkeypatch.setattr(np.linalg, "eig", lambda M, w=w, V=V: (w + delta, V))
            monkeypatch.setattr(config, "EIG_RESIDUAL_TOL", delta / scale * (1.0 + 1e-6))
            assert_allclose(np.sort_complex(eigenvalues(A)), np.sort_complex(w + delta))
            tol = delta / scale * (1.0 - 1e-6)
            monkeypatch.setattr(config, "EIG_RESIDUAL_TOL", tol)
            with pytest.raises(ValueError, match=f"exceeds tolerance {tol * scale:.3e}"):
                eigenvalues(A)


def test_eigenvalues_rejects_nonfinite():
    with pytest.raises(ValueError, match="non-finite"):
        eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_eigenvalues_rejects_nonsquare():
    with pytest.raises(ValueError, match="square"):
        eigenvalues(np.ones((2, 3)))


def test_eigenvalues_empty():
    assert eigenvalues(np.zeros((0, 0))).shape == (0,)


def test_spectral_radius_values():
    assert spectral_radius(np.diag([0.3, -0.9])) == pytest.approx(0.9)
    assert spectral_radius(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(0.0)


def test_spectral_radius_row_sum_bound():
    # for elementwise-nonnegative matrices the max row sum dominates rho
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        W = rng.random((n, n))
        assert spectral_radius(W) <= np.max(W.sum(axis=1)) + 1e-12


def test_solve_stein_scalar():
    P = solve_stein(np.array([[0.5]]), np.array([[1.0]]))
    assert_allclose(P, [[4.0 / 3.0]], rtol=1e-12)


def test_solve_stein_balanced_section_gramian():
    # observability gramian of the balanced all-pass (z-2)/(2z-1)
    c = np.sqrt(0.75)
    P = solve_stein(np.array([[0.5]]), np.array([[c * c]]))
    assert_allclose(P, [[1.0]], rtol=1e-12)


def test_solve_stein_random_residual_and_symmetry():
    rng = np.random.default_rng(99)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        A = rng.standard_normal((n, n))
        A *= 0.9 / max(spectral_radius(A), 1e-3)
        R = rng.standard_normal((n, n))
        Q = R.T @ R
        P = solve_stein(A, Q)
        assert_allclose(A.conj().T @ P @ A - P + Q, np.zeros((n, n)), atol=1e-9 * max(1, np.linalg.norm(Q)))
        assert_allclose(P, P.conj().T, atol=1e-9 * np.linalg.norm(P))
        assert np.min(np.linalg.eigvalsh((P + P.conj().T) / 2)) > -1e-9


def test_solve_stein_refines_before_its_gate(monkeypatch):
    # a dense solve that passes the gate takes one lu_solve; a first solve
    # made off by a relative 1e-6 fails it, and one refinement step, the
    # defect fed back through the factored operator, brings it back; with
    # the tolerance at 0 no solve passes, so refinement runs until the
    # defect stagnates (at most three steps) and the gate raises
    rng = np.random.default_rng(5)
    A = rng.standard_normal((5, 5))
    A *= 0.8 / spectral_radius(A)
    R = rng.standard_normal((5, 5))
    Q = R.T @ R
    solves = []
    lu_solve = sla.lu_solve

    def counted(*args):
        solves.append(None)
        x = lu_solve(*args)
        return x * (1.0 + 1e-6) if off_first and len(solves) == 1 else x

    monkeypatch.setattr(sla, "lu_solve", counted)
    off_first = False
    P = solve_stein(A, Q)
    assert len(solves) == 1
    solves.clear()
    off_first = True
    assert_allclose(solve_stein(A, Q), P, rtol=1e-12)
    assert len(solves) == 2
    solves.clear()
    off_first = False
    monkeypatch.setattr(config, "STEIN_RESIDUAL_TOL", 0.0)
    with pytest.raises(ValueError, match=r"Stein residual .* exceeds 0\.0e\+00"):
        solve_stein(A, Q)
    assert 2 <= len(solves) <= 4


def test_solve_stein_rejects_unit_radius():
    with pytest.raises(ValueError, match="spectral radius"):
        solve_stein(np.array([[1.0]]), np.array([[1.0]]))
    with pytest.raises(ValueError, match="spectral radius"):
        solve_stein(np.array([[1.0 - 1e-13]]), np.array([[1.0]]))


def test_solve_stein_rejects_order_mismatch():
    with pytest.raises(ValueError, match="orders differ"):
        solve_stein(np.eye(2) * 0.5, np.eye(3))


def test_real_part_is_one_relative_test():
    M = np.array([[3.0 + 2e-9j, -1.0], [0.5, 2.0 - 1e-12j]])
    out = real_part(M)
    assert out.dtype == np.float64 and out.flags.c_contiguous
    assert np.array_equal(out, M.real)
    # the tolerance is 1e-9 times the largest real entry, or times 1
    assert real_part(np.array([[1.0 + 2e-9j]])) is None
    assert real_part(np.array([[1e-10j]])) is not None
    assert real_part(np.zeros((0, 2))).shape == (0, 2)
