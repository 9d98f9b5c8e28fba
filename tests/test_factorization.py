import numpy as np
import pytest
from numpy.testing import assert_allclose

from dropstab import factorization
from dropstab.factorization import (
    AssumptionViolation,
    _allpass_section,
    _column_common_unstable_root,
    bezout,
    coprime_factorize,
    enumerate_wonham_forms,
    gamma_scale,
    inner_outer,
    observer_gain,
    validate_assumption,
    wonham_decompose,
    wonham_gain,
)
from dropstab.numkernel import eigenvalues, spectral_radius
from dropstab.statespace import (
    StateSpaceModel,
    TransferMatrix,
    cascade,
    evaluate,
    is_balanced_inner,
    minimal,
    realize,
    subsystem,
)

from conftest import (
    EXAMPLE_LAMBDA_12,
    EXAMPLE_LAMBDA_21,
    coprime_family,
    count_calls,
    diagonal_inner,
    same_model,
)


def _lam_sets(form):
    by_ch = form.lambda_by_channel()
    return tuple(tuple(sorted(np.real(by_ch[j]))) for j in range(form.n_channels))


def _assert_lam_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_allclose(g, sorted(w), atol=1e-9)


def _blaschke_eval(lams, z):
    out = 1.0 + 0j
    for lam in lams:
        out *= (z - lam) / (np.conj(lam) * z - 1.0)
    return out


# --- decomposition ----------------------------------------------------------

def test_wonham_allocations(example_ss):
    f12 = wonham_decompose(example_ss, (0, 1))
    f21 = wonham_decompose(example_ss, (1, 0))
    _assert_lam_equal(_lam_sets(f12), EXAMPLE_LAMBDA_12)
    _assert_lam_equal(_lam_sets(f21), EXAMPLE_LAMBDA_21)
    assert [b.dim for b in f12.blocks] == [3, 3]
    assert [b.dim for b in f21.blocks] == [4, 2]


def test_wonham_invariants(example_ss):
    for ordering in [(0, 1), (1, 0)]:
        form = wonham_decompose(example_ss, ordering)
        T = form.transform
        n = form.order
        assert_allclose(T.conj().T @ T, np.eye(n), atol=1e-10)
        assert_allclose(T.conj().T @ example_ss.A @ T, form.Aw, atol=1e-10)
        # block upper-triangular: entries below the diagonal blocks vanish
        off = 0
        for blk in form.blocks:
            below_A = form.Aw[off + blk.dim:, off:off + blk.dim]
            below_B = form.Bw[off + blk.dim:, form.ordering.index(blk.channel)]
            if below_A.size:
                assert np.max(np.abs(below_A)) < 1e-8
            if below_B.size:
                assert np.max(np.abs(below_B)) < 1e-8
            off += blk.dim
        # the union of block allocations is the plant's unstable spectrum
        all_lam = sorted(x for blk in form.blocks for x in np.real(blk.lam))
        assert_allclose(all_lam, [-1.5, 2.0, 2.5], atol=1e-7)


def test_wonham_rejects_uncontrollable():
    sys = StateSpaceModel(np.diag([0.5, 2.0]), [[1.0], [0.0]],
                          [[1.0, 1.0]], [[0.0]])
    with pytest.raises(ValueError, match="uncontrollable"):
        wonham_decompose(sys, (0,))


def test_enumerate_forms(example_ss):
    forms = enumerate_wonham_forms(example_ss)
    assert [f.ordering for f in forms] == [(0, 1), (1, 0)]
    sys1 = realize(TransferMatrix(num=(((1.0,),),), den=(((1.0, -0.5),),)))
    assert len(enumerate_wonham_forms(sys1)) == 1


# --- gains ------------------------------------------------------------------

def test_wonham_gain_stabilizes(example_ss, monkeypatch):
    for ordering in [(0, 1), (1, 0)]:
        form = wonham_decompose(example_ss, ordering)
        F = wonham_gain(form)
        assert F.shape == (2, 6)
        assert np.isrealobj(F)
        assert spectral_radius(example_ss.A - example_ss.B @ F) < 1.0
        # a second, different stabilizing choice (scaled reflections)
        alt = lambda eigs: [0.8 / np.conj(v) if abs(v) >= 1.0 else 0.8 * v
                            for v in eigs]
        with monkeypatch.context() as mp:
            mp.setattr(factorization, "_reflect_targets", alt)
            F2 = wonham_gain(form)
        assert spectral_radius(example_ss.A - example_ss.B @ F2) < 0.8
        assert np.max(np.abs(F2 - F)) > 1e-3  # genuinely different gain


def test_observer_gain_stabilizes(example_ss):
    L = observer_gain(example_ss)
    assert L.shape == (6, 2)
    assert spectral_radius(example_ss.A - L @ example_ss.C) < 1.0


# --- diagonal inners --------------------------------------------------------

def test_allpass_section_guards():
    with pytest.raises(ValueError, match="unit circle"):
        _allpass_section(1.0 + 1e-12)
    with pytest.raises(ValueError, match=r"\|lam\| > 1"):
        _allpass_section(0.5)


def test_diagonal_inner_blocks(example_ss):
    form = wonham_decompose(example_ss, (1, 0))
    di = diagonal_inner(form)
    assert di.lambdas[0] == (2.0,) or abs(di.lambdas[0][0] - 2.0) < 1e-9
    b1, b2 = di.blocks
    assert b1.order == 1 and b2.order == 2
    for blk in (b1, b2):
        assert is_balanced_inner(blk, tol=1e-8)
    for z in (1.7 + 0.4j, -3.0, 0.2 + 0.9j):
        assert_allclose(evaluate(b1, z), [[_blaschke_eval([2.0], z)]], atol=1e-9)
        assert_allclose(evaluate(b2, z), [[_blaschke_eval([-1.5, 2.5], z)]], atol=1e-9)
    # feedthrough magnitudes are the inverse pole moduli products
    assert abs(b1.D[0, 0] - 0.5) < 1e-12
    assert abs(b2.D[0, 0] - (-1.0 / 3.75)) < 1e-12


def test_diagonal_inner_stable_channel(example_ss):
    # a channel with no unstable allocation gets the static gain 1
    sys = realize(TransferMatrix(
        num=(((1.0,), (0.0,)), ((0.0,), (1.0,))),
        den=(((1.0, -0.5), (1.0,)), ((1.0,), (1.0, -2.0))),
    ))
    form = wonham_decompose(sys, (0, 1))
    di = diagonal_inner(form)
    assert di.blocks[0].order == 0
    assert_allclose(di.blocks[0].D, [[1.0]])


# --- coprime factors --------------------------------------------------------

def test_coprime_scalar_normalization():
    sys = realize(TransferMatrix(num=(((1.0,),),), den=(((1.0, -2.0),),)))
    F = np.array([[1.5]])
    M = coprime_factorize(sys, F)
    N = coprime_family(sys, F, observer_gain(sys)).N
    for z in (3.0, 1.0 + 2.0j, -4.0):
        assert_allclose(evaluate(M, z), [[(z - 2.0) / (z - 0.5)]], atol=1e-12)
        assert_allclose(evaluate(N, z) @ np.linalg.inv(evaluate(M, z)),
                        evaluate(sys, z), atol=1e-10)
    assert_allclose(M.D, [[1.0]])


def test_coprime_rejects_destabilizing_gain():
    sys = realize(TransferMatrix(num=(((1.0,),),), den=(((1.0, -2.0),),)))
    with pytest.raises(ValueError, match="stabilize"):
        coprime_factorize(sys, np.array([[0.0]]))


def test_coprime_diagonal_matches_monic_allpass(example_ss):
    # diag(M) for a block-ordered gain equals the all-pass diagonal up to the
    # constant prod(conj(lambda)) that makes each quotient monic at infinity
    form = wonham_decompose(example_ss, (0, 1))
    F = wonham_gain(form)
    M = coprime_factorize(example_ss, F)
    lam = form.lambda_by_channel()
    for j in range(2):
        const = np.prod([np.conj(v) for v in lam[j]])
        for z in (2.2 + 0.5j, -1.8 + 1.1j, 4.0):
            got = evaluate(M, z)[j, j]
            want = const * _blaschke_eval(lam[j], z)
            assert abs(got - want) < 1e-7
    # the identity ordering also makes M upper triangular
    for z in (2.2 + 0.5j, 4.0):
        assert abs(evaluate(M, z)[1, 0]) < 1e-8


def test_bezout_identities(example_ss, monkeypatch):
    form = wonham_decompose(example_ss, (0, 1))
    F = wonham_gain(form)
    L = observer_gain(example_ss)
    built = count_calls(monkeypatch, StateSpaceModel)
    bz = bezout(example_ss, F, L)
    monkeypatch.undo()
    assert len(built) == 3   # only the factors synthesis reads
    fam = coprime_family(example_ss, F, L)
    # bezout's three factors are the oracle family's
    assert same_model(bz.M, fam.M) and same_model(bz.Nt, fam.Nt)
    assert same_model(bz.Xt, fam.Xt)
    assert np.array_equal(bz.F, F) and np.array_equal(bz.L, L)
    for sys in fam:
        assert spectral_radius(sys.A) < 1.0
    rng = np.random.default_rng(2024)
    for _ in range(8):
        z = 1.6 * np.exp(2j * np.pi * rng.random())
        left = np.block([
            [evaluate(fam.Xt, z), -evaluate(fam.Yt, z)],
            [-evaluate(fam.Nt, z), evaluate(fam.Mt, z)],
        ])
        right = np.block([
            [evaluate(fam.M, z), evaluate(fam.Y, z)],
            [evaluate(fam.N, z), evaluate(fam.X, z)],
        ])
        assert np.max(np.abs(left @ right - np.eye(4))) < 1e-7
        G = evaluate(example_ss, z)
        assert_allclose(evaluate(fam.N, z) @ np.linalg.inv(evaluate(fam.M, z)), G, atol=1e-8)
        assert_allclose(np.linalg.inv(evaluate(fam.Mt, z)) @ evaluate(fam.Nt, z), G, atol=1e-8)


def test_gamma_scale():
    rng = np.random.default_rng(1)
    A = 0.5 * np.eye(2)
    sys = StateSpaceModel(A, rng.standard_normal((2, 2)),
                          rng.standard_normal((2, 2)), rng.standard_normal((2, 2)))
    g = np.array([1.0, 0.3])
    z = 1.9
    S = np.diag(g)
    assert_allclose(evaluate(gamma_scale(sys, g), z),
                    S @ evaluate(sys, z) @ np.linalg.inv(S), atol=1e-12)
    with pytest.raises(ValueError, match="positive"):
        gamma_scale(sys, np.array([1.0, -1.0]))


# --- inner-outer ------------------------------------------------------------

def test_inner_outer_scalar():
    sys = realize(TransferMatrix(num=(((1.0, -2.0),),), den=(((1.0, -0.5),),)))
    pair = inner_outer(sys)
    # one section, whose pole 1/conj(z) carries the peeled zero z = 2
    assert_allclose(1.0 / np.conj(eigenvalues(pair.inner.A)), [2.0], rtol=1e-6)
    assert is_balanced_inner(pair.inner, tol=1e-10)
    for z in (1.4 + 0.9j, -2.5, 5.0):
        assert_allclose(evaluate(pair.inner, z) @ evaluate(pair.outer, z),
                        evaluate(sys, z), atol=1e-9)
        assert_allclose(evaluate(pair.inner, z), [[_blaschke_eval([2.0], z)]], atol=1e-9)
    assert spectral_radius(pair.outer.A) < 1.0


def test_inner_outer_minimum_phase_passthrough():
    sys = realize(TransferMatrix(num=(((1.0, -0.3),),), den=(((1.0, -0.5),),)))
    pair = inner_outer(sys)
    assert pair.inner.order == 0
    assert_allclose(pair.inner.D, [[1.0]])


def test_inner_outer_rejects_repeated_zero():
    num = tuple(np.convolve([1.0, -2.0], [1.0, -2.0]))
    den = tuple(np.convolve([1.0, -0.5], [1.0, -0.4]))
    sys = realize(TransferMatrix(num=((num,),), den=((den,),)))
    with pytest.raises(ValueError, match="repeated"):
        inner_outer(sys)


def test_inner_outer_rejects_circle_zero():
    sys = realize(TransferMatrix(num=(((1.0, -1.0),),), den=(((1.0, -0.5),),)))
    with pytest.raises(ValueError, match="unit circle"):
        inner_outer(sys)


def test_inner_outer_coprime_factor(example_ss):
    # the M factor's unstable zeros are the plant's unstable poles
    form = wonham_decompose(example_ss, (0, 1))
    F = wonham_gain(form)
    M = coprime_factorize(example_ss, F)
    for g in (np.array([1.0, 1.0]), np.array([1.0, 0.02])):
        pair = inner_outer(gamma_scale(M, g))
        zs = sorted(np.real(1.0 / np.conj(eigenvalues(pair.inner.A))))
        assert_allclose(zs, [-1.5, 2.0, 2.5], atol=1e-7)
        assert is_balanced_inner(pair.inner, tol=1e-8)
        assert abs(abs(np.linalg.det(pair.inner.D)) - 1.0 / 7.5) < 1e-9
        assert spectral_radius(pair.outer.A) < 1.0
        # outer is minimum phase: its inverse is stable too
        from dropstab.statespace import inverse
        assert spectral_radius(inverse(pair.outer).A) < 1.0
        Mg = gamma_scale(M, g)
        rng = np.random.default_rng(7)
        for _ in range(6):
            z = 1.8 * np.exp(2j * np.pi * rng.random())
            assert_allclose(evaluate(pair.inner, z) @ evaluate(pair.outer, z),
                            evaluate(Mg, z), atol=1e-8)
        # inner is genuinely all-pass on the circle
        u = evaluate(pair.inner, np.exp(0.7j))
        assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-8)


# --- assumption checker -----------------------------------------------------

def test_validate_assumption_benchmark(example_tf):
    zeros = validate_assumption(example_tf)
    assert zeros == pytest.approx((-2.0, 1.5), abs=1e-8)


def test_validate_assumption_stable_mp_plant():
    tf = TransferMatrix(
        num=(((1.0,), (0.0,)), ((0.0,), (1.0,))),
        den=(((1.0, -0.5), (1.0,)), ((1.0,), (1.0, 0.3))),
    )
    assert validate_assumption(tf) == (None, None)


def test_validate_assumption_rejects_nonsquare():
    tf = TransferMatrix(num=(((1.0,), (1.0,)),), den=(((1.0, -0.5), (1.0, -0.5)),))
    with pytest.raises(AssumptionViolation, match="square"):
        validate_assumption(tf)


def test_validate_assumption_rejects_biproper():
    tf = TransferMatrix(num=(((1.0, 0.0),),), den=(((1.0, -0.5),),))
    with pytest.raises(AssumptionViolation, match="strictly proper"):
        validate_assumption(tf)


def test_validate_assumption_rejects_double_unstable_zero():
    num = tuple(np.convolve([1.0, -2.0], [1.0, -3.0]))
    den = (1.0, -0.5, 0.0, 0.0)
    tf = TransferMatrix(num=((num,),), den=((den,),))
    with pytest.raises(AssumptionViolation, match="unstable zeros"):
        validate_assumption(tf)


def test_validate_assumption_rejects_rank_deficient_lead():
    tf = TransferMatrix(
        num=(((1.0,), (1.0,)), ((1.0,), (1.0,))),
        den=(((1.0, 0.0), (1.0, -0.5)), ((1.0, 0.5), (1.0, 0.0))),
    )
    with pytest.raises(AssumptionViolation, match="relative degree"):
        validate_assumption(tf)


def test_validate_assumption_rejects_a_roundoff_lead():
    # every entry of column 1 has relative degree two, so lim z G has a
    # zero column; the C B of a realization holds roundoff there (entries
    # up to 5e-16, condition number 7.3) and passed a test on C B alone
    tf = TransferMatrix(
        num=(((-0.525,), (0.0,)), ((0.884, 1.768), (1.39,))),
        den=((tuple(np.poly([2.0, 0.3])), (1.0,)),
             (tuple(np.poly([2.0, -2.0, -2.0])), tuple(np.poly([-2.0, 2.0])))),
    )
    with pytest.raises(AssumptionViolation, match="relative degree is not one per channel"):
        validate_assumption(tf)
    # seeded planted plants: one more stable pole on every entry of a column
    # gives it relative degree two
    rng = np.random.default_rng(1479)
    for _ in range(20):
        r = int(rng.integers(1, 4))
        zeros = tuple(None if rng.random() < 0.35
                      else float(rng.choice([-1.0, 1.0]) * rng.uniform(1.2, 3.0))
                      for _ in range(r))
        tf = _planted_plant(rng, zeros)
        assert validate_assumption(tf) == pytest.approx(zeros)
        j, s = int(rng.integers(r)), float(rng.uniform(-0.9, 0.9))
        den = [list(row) for row in tf.den]
        for row in den:
            row[j] = tuple(np.convolve(row[j], [1.0, -s]))
        slow = TransferMatrix(num=tf.num, den=tuple(map(tuple, den)))
        with pytest.raises(AssumptionViolation, match="relative degree is not one"):
            validate_assumption(slow)


def test_validate_assumption_rejects_nmp_core():
    # no column-common zeros, but det G vanishes outside the disc
    tf = TransferMatrix(
        num=(((1.0,), (1.0,)), ((1.0,), (1.02,))),
        den=(((1.0, 0.0), (1.0, -0.5)), ((1.0, 0.5), (1.0, 0.0))),
    )
    with pytest.raises(AssumptionViolation, match="non-minimum-phase"):
        validate_assumption(tf)


def test_validate_assumption_unstable_shared_pole_cleared(example_tf):
    # clearing denominators by their least common multiple must NOT invent common
    # zeros out of the other cells' poles; this plant's column-1 cells share
    # only z = -2 even though their pole sets overlap
    zeros = validate_assumption(example_tf)
    assert zeros[0] == pytest.approx(-2.0, abs=1e-8)


def _planted_plant(rng, zeros, extra=None, nmp_core=False):
    """``G_0 diag((z - zeta_j)/z)`` as a transfer matrix, with
    ``G_0 = U L diag(1/(z - p_j))``: U constant unit upper triangular, L unit
    lower triangular with entries ``a/(z - q)``, some of both left zero.  So
    ``lim z G_0 = U``, the zeros of G_0 are the q (stable unless
    ``nmp_core``), and the poles p_j come from a small pool shared across
    cells.  ``extra = (j, roots)`` multiplies column j by
    ``prod (z - w)/z`` over the given roots as well."""
    r = len(zeros)
    p = rng.choice([1.5, -2.0, 2.5, 0.5, -0.3], r)
    q = rng.uniform(-0.8, 0.8, (r, r))
    a = rng.uniform(0.5, 2.0, (r, r)) * rng.choice([-1.0, 0.0, 1.0], (r, r))
    U = np.triu(rng.uniform(-1.5, 1.5, (r, r)) * rng.choice([0.0, 1.0], (r, r)), 1) + np.eye(r)
    if nmp_core:
        q[1, 0], a[1, 0] = 1.7, 1.0
    num, den = [], []
    for i in range(r):
        nrow, drow = [], []
        for j in range(r):
            n_ij, d_ij = np.zeros(1), np.ones(1)
            for k in range(max(i, j), r):
                if k == j:
                    n_ij = np.polyadd(n_ij, U[i, j] * d_ij)
                elif U[i, k] * a[k, j] != 0.0:
                    n_ij = np.polyadd(np.polymul(n_ij, [1.0, -q[k, j]]), U[i, k] * a[k, j] * d_ij)
                    d_ij = np.polymul(d_ij, [1.0, -q[k, j]])
            n_ij = np.trim_zeros(n_ij, "f")
            if n_ij.size == 0:
                nrow.append((0.0,))
                drow.append((1.0,))
                continue
            d_ij = np.polymul(d_ij, [1.0, -p[j]])
            roots = ([] if zeros[j] is None else [zeros[j]]) + (
                list(extra[1]) if extra and extra[0] == j else [])
            for w in roots:
                n_ij = np.polymul(n_ij, [1.0, -w])
                d_ij = np.polymul(d_ij, [1.0, 0.0])
            nrow.append(tuple(np.real(n_ij)))
            drow.append(tuple(d_ij))
        num.append(tuple(nrow))
        den.append(tuple(drow))
    return TransferMatrix(num=tuple(num), den=tuple(den))


def test_validate_assumption_finds_planted_zeros():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        r = int(rng.integers(1, 4))
        zeros = tuple(None if rng.random() < 0.35
                      else float(rng.choice([-1.0, 1.0]) * rng.uniform(1.2, 3.0))
                      for _ in range(r))
        seed = int(rng.integers(1 << 30))
        j = int(rng.integers(r))
        stable = float(rng.uniform(-0.9, 0.9))   # a shared stable root is not a channel zero
        for extra in (None, (j, (stable,))):
            found = validate_assumption(_planted_plant(np.random.default_rng(seed), zeros, extra))
            assert [z is None for z in found] == [z is None for z in zeros]
            assert [z for z in found if z is not None] == pytest.approx(
                [z for z in zeros if z is not None], rel=1e-9)

        own = 0 if zeros[j] is None else 1
        eta = float(rng.choice([-1.0, 1.0]) * rng.uniform(1.2, 3.0))
        w = rng.uniform(1.2, 3.0) * np.exp(1j * rng.uniform(0.3, 2.8))
        for roots in ((eta, eta), (w, np.conj(w))):
            tf = _planted_plant(np.random.default_rng(seed), zeros, extra=(j, roots))
            with pytest.raises(AssumptionViolation,
                               match=f"column {j + 1} shares {2 + own} unstable zeros"):
                validate_assumption(tf)
        if r > 1:
            tf = _planted_plant(np.random.default_rng(seed), zeros, nmp_core=True)
            with pytest.raises(AssumptionViolation, match="non-minimum-phase zero at 1.7"):
                validate_assumption(tf)


def test_validate_assumption_counts_a_shared_root_once():
    # column 1 clears to (z-3)^2 (z-0.2) and (z-3) z (z-0.5): z = 3 is a
    # double root of the first entry's numerator, yet the second entry keeps
    # it only once, so the column shares one zero at 3.  Counting the first
    # entry's two copies separately would report two.
    tf = TransferMatrix(
        num=(((1.0, -6.0, 9.0), (0.0,)), ((1.0, -3.0), (1.0,))),
        den=((tuple(np.poly([0.0, 0.0, 0.5])), (1.0, -0.4)),
             (tuple(np.poly([0.0, 0.2])), (1.0, -0.4))),
    )
    [(z, mult)] = _column_common_unstable_root([tf.num[0][0], tf.num[1][0]],
                                               [tf.den[0][0], tf.den[1][0]])
    assert mult == 1 and z == pytest.approx(3.0, abs=1e-12)
    # divided by (z - 3)/z, the column keeps 3 in its first entry: the core
    # has a zero there
    with pytest.raises(AssumptionViolation, match=r"non-minimum-phase zero at 3"):
        validate_assumption(tf)


def test_no_column_root_from_a_cancelled_pole():
    # the second entry's pole at -2 is cancelled once by its numerator, so
    # the entry is 1/((z - 2)(z + 2)) and the column's least common
    # denominator has -2 once: clearing makes -2 a root of the first entry
    # only.  Taken as given, the entry's double pole made -2 a root of both.
    nums = [(0.7,), (1.0, 2.0)]
    dens = [tuple(np.poly([2.0, 0.3])), tuple(np.poly([2.0, -2.0, -2.0]))]
    assert _column_common_unstable_root(nums, dens) == []


def test_validate_assumption_reduces_entries():
    # an entry whose numerator and denominator share an unstable root, or an
    # unstable pole written on an identically zero cell, leaves the channel
    # zeros of the planted plant as they are
    rng = np.random.default_rng(7)
    shared = zero_cells = 0
    for _ in range(40):
        r = int(rng.integers(1, 4))
        zeros = tuple(None if rng.random() < 0.35
                      else float(rng.choice([-1.0, 1.0]) * rng.uniform(1.2, 3.0))
                      for _ in range(r))
        tf = _planted_plant(rng, zeros)
        cells = [(i, j) for i in range(r) for j in range(r)]
        live = [c for c in cells if any(x != 0.0 for x in tf.num[c[0]][c[1]])]
        dead = [c for c in cells if c not in live]
        s = float(rng.choice([-1.0, 1.0]) * rng.uniform(1.2, 3.0))
        num = [list(row) for row in tf.num]
        den = [list(row) for row in tf.den]
        i, j = live[int(rng.integers(len(live)))]
        num[i][j] = tuple(np.convolve(num[i][j], [1.0, -s]))
        den[i][j] = tuple(np.convolve(den[i][j], [1.0, -s]))
        variants = [TransferMatrix(num=tuple(map(tuple, num)), den=tuple(map(tuple, den)))]
        shared += 1
        if dead:
            i, j = dead[int(rng.integers(len(dead)))]
            den = [list(row) for row in tf.den]
            den[i][j] = (1.0, -s)
            variants.append(TransferMatrix(num=tf.num, den=tuple(map(tuple, den))))
            zero_cells += 1
        for variant in variants:
            assert validate_assumption(variant) == pytest.approx(zeros), (zeros, s)
    assert shared == 40 and zero_cells > 10
