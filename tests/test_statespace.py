import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import constant_system
from dropstab import config
from dropstab.statespace import (
    StateSpaceModel,
    TransferMatrix,
    add_constant,
    blockdiag_systems,
    cascade,
    evaluate,
    h2_norm_sq,
    hstack_systems,
    inverse,
    is_balanced_inner,
    minimal,
    parallel,
    place_single_input,
    realize,
    scale_io,
    stable_part,
    subsystem,
    transmission_zeros,
    zshift,
)


def evaluate_tf(tf: TransferMatrix, z: complex) -> np.ndarray:
    """Evaluate a transfer matrix entrywise at the point ``z``."""
    p, m = tf.shape
    out = np.empty((p, m), dtype=complex)
    for i in range(p):
        for j in range(m):
            dv = np.polyval(tf.den[i][j], z)
            if dv == 0:
                raise ZeroDivisionError(f"entry ({i},{j}) has a pole at z={z}")
            out[i, j] = np.polyval(tf.num[i][j], z) / dv
    return out


def _rand_stable(rng, n, p=1, m=1, radius=0.8):
    A = rng.standard_normal((n, n))
    r = max(np.max(np.abs(np.linalg.eigvals(A))), 1e-6)
    A *= radius / r
    return StateSpaceModel(A, rng.standard_normal((n, m)),
                           rng.standard_normal((p, n)), rng.standard_normal((p, m)))


def test_model_stores_real_data_with_zero_imaginary_part():
    noisy = np.array([[0.5 + 1e-12j, 1.0], [0.0, 0.25]])
    sys = StateSpaceModel(noisy, [[1.0], [1e-13j]], [[1.0, 0.3j]], [[0.0]])
    assert all(M.dtype == np.complex128 for M in (sys.A, sys.B, sys.C, sys.D))
    assert not sys.A.imag.any() and not sys.B.imag.any()
    assert np.array_equal(sys.A.real, noisy.real)
    assert noisy[0, 0].imag == 1e-12          # the caller's array is left alone
    assert sys.C[0, 1] == 0.3j                # genuinely complex data stays


# --- realization -----------------------------------------------------------

def test_realize_scalar_lag():
    tf = TransferMatrix(num=(((1.0,),),), den=(((1.0, -0.5),),))
    sys = realize(tf)
    assert sys.order == 1
    assert_allclose(evaluate(sys, 2.0), [[1.0 / 1.5]], atol=1e-12)


def test_realize_benchmark_mcmillan_degree(example_tf, example_ss):
    assert example_ss.order == 6
    w = np.sort_complex(np.linalg.eigvals(example_ss.A))
    expected = np.sort_complex(np.array([0, 0, 0.25, -1.5, 2.0, 2.5], dtype=complex))
    assert_allclose(w, expected, atol=1e-7)


def test_realize_matches_rational_evaluation(example_tf, example_ss):
    rng = np.random.default_rng(3)
    for _ in range(16):
        z = 3.7 * np.exp(2j * np.pi * rng.random()) + 0.1 * rng.random()
        assert_allclose(evaluate(example_ss, z), evaluate_tf(example_tf, z),
                        atol=1e-8, rtol=1e-8)


def test_realize_random_roundtrip():
    # random proper rational grids realize to something that evaluates back
    rng = np.random.default_rng(11)
    for _ in range(10):
        p, m = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        num, den = [], []
        for i in range(p):
            nrow, drow = [], []
            for j in range(m):
                deg = int(rng.integers(1, 4))
                roots = rng.uniform(-0.9, 0.9, size=deg)
                drow.append(tuple(np.poly(roots)))
                nrow.append(tuple(rng.standard_normal(deg)))
            num.append(tuple(nrow))
            den.append(tuple(drow))
        tf = TransferMatrix(num=tuple(num), den=tuple(den))
        sys = realize(tf)
        for z in (1.3 + 0.4j, -2.1, 0.95j + 1.0):
            assert_allclose(evaluate(sys, z), evaluate_tf(tf, z), atol=1e-8)


def test_realize_rejects_improper():
    tf = TransferMatrix(num=(((1.0, 0.0, 1.0),),), den=(((1.0, -1.0),),))
    with pytest.raises(ValueError, match="improper"):
        realize(tf)


def test_transfer_matrix_validation():
    with pytest.raises(ValueError, match="leading"):
        TransferMatrix(num=(((1.0,),),), den=(((0.0, 0.0),),))
    with pytest.raises(ValueError, match="ragged|equal shape"):
        TransferMatrix(num=(((1.0,), (1.0,)),), den=(((1.0, 1.0),),))


# --- evaluation and norms --------------------------------------------------

def test_evaluate_pole_collision():
    sys = realize(TransferMatrix(num=(((1.0,),),), den=(((1.0, -0.5),),)))
    with pytest.raises(ValueError, match="pole"):
        evaluate(sys, 0.5)


def test_h2_norm_scalar_lag():
    sys = realize(TransferMatrix(num=(((1.0,),),), den=(((1.0, -0.5),),)))
    assert h2_norm_sq(sys) == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_h2_norm_includes_feedthrough():
    sys = add_constant(realize(TransferMatrix(num=(((1.0,),),), den=(((1.0, -0.5),),))), [[2.0]])
    assert h2_norm_sq(sys) == pytest.approx(4.0 / 3.0 + 4.0, rel=1e-12)


def test_h2_norm_vs_frequency_integral():
    rng = np.random.default_rng(17)
    theta = 2 * np.pi * np.arange(4096) / 4096
    for _ in range(8):
        sys = _rand_stable(rng, int(rng.integers(1, 7)), p=2, m=2, radius=0.85)
        vals = [np.linalg.norm(evaluate(sys, np.exp(1j * t)), "fro") ** 2 for t in theta]
        quad = float(np.mean(vals))
        assert h2_norm_sq(sys) == pytest.approx(quad, rel=1e-4)


def test_h2_norm_rejects_unstable():
    sys = StateSpaceModel([[2.0]], [[1.0]], [[1.0]], [[0.0]])
    with pytest.raises(ValueError, match="radius"):
        h2_norm_sq(sys)


# --- composition -----------------------------------------------------------

def test_cascade_parallel_evaluate():
    rng = np.random.default_rng(5)
    g1 = _rand_stable(rng, 3, p=2, m=2)
    g2 = _rand_stable(rng, 2, p=2, m=2)
    z = 1.7 + 0.3j
    assert_allclose(evaluate(cascade(g2, g1), z),
                    evaluate(g2, z) @ evaluate(g1, z), atol=1e-10)
    assert_allclose(evaluate(parallel(g1, g2, sign=-1.0), z),
                    evaluate(g1, z) - evaluate(g2, z), atol=1e-10)


def test_subsystem_scale_constant():
    rng = np.random.default_rng(6)
    g = _rand_stable(rng, 3, p=3, m=2)
    z = 2.2
    full = evaluate(g, z)
    assert_allclose(evaluate(subsystem(g, [1], [0]), z), full[1:2, 0:1], atol=1e-12)
    L = rng.standard_normal((2, 3))
    R = rng.standard_normal((2, 2))
    assert_allclose(evaluate(scale_io(g, L, R), z), L @ full @ R, atol=1e-10)
    K = constant_system(np.eye(2))
    assert K.order == 0
    assert_allclose(evaluate(K, z), np.eye(2))


def test_hstack_blockdiag():
    rng = np.random.default_rng(8)
    a = _rand_stable(rng, 2, p=2, m=1)
    b = _rand_stable(rng, 1, p=2, m=1)
    z = 1.4 - 0.6j
    assert_allclose(evaluate(hstack_systems([a, b]), z),
                    np.hstack([evaluate(a, z), evaluate(b, z)]), atol=1e-12)
    c = _rand_stable(rng, 2, p=1, m=1)
    assert_allclose(
        evaluate(blockdiag_systems([c, c]), z),
        np.kron(np.eye(2), evaluate(c, z)),
        atol=1e-12,
    )


def test_zshift():
    sys = realize(TransferMatrix(num=(((1.0,),),), den=(((1.0, -0.5),),)))
    shifted = zshift(sys)
    z = 1.9 + 0.2j
    assert_allclose(evaluate(shifted, z), z * evaluate(sys, z), atol=1e-12)
    with pytest.raises(ValueError, match="strictly proper"):
        zshift(add_constant(sys, [[1.0]]))


def test_inverse():
    rng = np.random.default_rng(9)
    g = _rand_stable(rng, 3, p=2, m=2)
    gi = inverse(g)
    z = 2.4 + 0.1j
    assert_allclose(evaluate(gi, z) @ evaluate(g, z), np.eye(2), atol=1e-9)
    bad = StateSpaceModel(np.zeros((1, 1)), [[1.0, 0.0]], [[1.0], [1.0]],
                          [[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="singular"):
        inverse(bad)


# --- minimal reduction -----------------------------------------------------

def test_minimal_cancels_duplicated_states():
    rng = np.random.default_rng(12)
    g = _rand_stable(rng, 3, p=1, m=1)
    doubled = parallel(g, g, sign=1.0)
    red = minimal(doubled)
    assert red.order == 3
    z = 1.8
    assert_allclose(evaluate(red, z), 2 * evaluate(g, z), atol=1e-9)


def test_minimal_supports_unstable_models():
    # duplicated unstable mode must be pruned without any stability demand
    g = StateSpaceModel([[2.0]], [[1.0]], [[1.0]], [[0.0]])
    doubled = parallel(g, g, sign=1.0)
    red = minimal(doubled)
    assert red.order == 1
    assert_allclose(evaluate(red, 3.0), [[2.0]], atol=1e-10)


def test_minimal_prunes_unobservable_and_unreachable():
    A = np.diag([0.5, 0.7, 0.9])
    B = np.array([[1.0], [0.0], [1.0]])   # state 2 unreachable
    C = np.array([[1.0, 1.0, 0.0]])       # state 3 unobservable
    red = minimal(StateSpaceModel(A, B, C, [[0.0]]))
    assert red.order == 1
    assert_allclose(evaluate(red, 2.0), [[1.0 / 1.5]], atol=1e-10)


def test_minimal_reads_staircase_tolerance_when_called(monkeypatch):
    # the 1e-5 output coefficient sits between the default threshold and 1e-3
    sys = StateSpaceModel([[0.5]], [[1.0]], [[1e-5]], [[1.0]])
    assert minimal(sys).order == 1
    monkeypatch.setattr(config, "STAIRCASE_RTOL", 1e-3)
    assert minimal(sys).order == 0


# --- placement -------------------------------------------------------------

def test_place_scalar():
    f = place_single_input([[2.0]], [[1.0]], [0.5])
    assert_allclose(f, [-1.5], atol=1e-10)


def test_place_companion_pair():
    A = np.array([[0.0, 1.0], [-5.0, 4.5]])
    b = np.array([[0.0], [1.0]])
    f = place_single_input(A, b, [0.5, 0.4])
    assert_allclose(f, [4.8, -3.6], atol=1e-8)
    w = np.sort(np.linalg.eigvals(A + b @ f.reshape(1, -1)).real)
    assert_allclose(w, [0.4, 0.5], atol=1e-9)


def test_place_random_pairs():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        A = rng.standard_normal((n, n))
        b = rng.standard_normal((n, 1))
        half = rng.uniform(-0.9, 0.9, size=n // 2) + 1j * rng.uniform(0.05, 0.9, size=n // 2)
        targets = np.concatenate([half, half.conj(),
                                  rng.uniform(-0.9, 0.9, size=n - 2 * (n // 2))])
        f = place_single_input(A, b, targets)
        got = np.sort_complex(np.linalg.eigvals(A + b @ f.reshape(1, -1)))
        assert_allclose(np.sort_complex(targets), got, atol=1e-7)


def test_place_uncontrollable():
    with pytest.raises(ValueError, match="uncontrollable"):
        place_single_input(np.diag([1.0, 2.0]), [[1.0], [0.0]], [0.1, 0.2])


# --- inner test and zeros --------------------------------------------------

def test_is_balanced_inner_first_order():
    beta = np.sqrt(0.75)
    sec = StateSpaceModel([[0.5]], [[beta]], [[-beta]], [[0.5]])
    assert is_balanced_inner(sec, tol=1e-12)
    assert not is_balanced_inner(StateSpaceModel([[0.5]], [[1.0]], [[1.0]], [[0.5]]), tol=1e-8)


def test_transmission_zeros_diagonal():
    g = realize(TransferMatrix(
        num=(((1.0, -3.0), (0.0,)), ((0.0,), (1.0, -0.2))),
        den=(((1.0, -0.5), (1.0,)), ((1.0,), (1.0, 0.5))),
    ))
    z = transmission_zeros(g)
    assert_allclose(np.sort(z.real), [0.2, 3.0], atol=1e-8)
    assert_allclose(z.imag, 0, atol=1e-8)


# --- spectral split ---------------------------------------------------------

def test_stable_part_prunes_phantom_mode():
    # unstable state reachable but totally unobservable: the split drops it
    # and reports essentially nothing discarded
    sys = StateSpaceModel(np.diag([0.5, 2.0]), [[1.0], [1.0]], [[3.0, 0.0]], [[0.0]])
    kept, dropped = stable_part(sys)
    assert kept.order == 1
    assert dropped < 1e-12
    for s in (1.3 + 0.2j, -0.8, 2.5 + 1.0j):
        assert_allclose(evaluate(kept, s), evaluate(sys, s), atol=1e-10)
    assert np.max(np.abs(kept.A.imag)) == 0.0  # real data stays real


def test_stable_part_reports_live_unstable_mode():
    sys = StateSpaceModel(np.diag([0.5, 2.0]), [[1.0], [1.0]], [[1.0, 1.0]], [[0.0]])
    kept, dropped = stable_part(sys)
    assert kept.order == 1
    assert dropped > 0.3  # the unstable branch carries real gain


def test_stable_part_stable_input_is_identity():
    rng = np.random.default_rng(11)
    A = rng.normal(size=(4, 4))
    A *= 0.9 / max(np.abs(np.linalg.eigvals(A)))
    sys = StateSpaceModel(A, rng.normal(size=(4, 2)), rng.normal(size=(2, 4)),
                          np.zeros((2, 2)))
    kept, dropped = stable_part(sys)
    assert kept.order == 4 and dropped == 0.0
