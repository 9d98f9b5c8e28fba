"""Seeded generator of plants in dropstab's admissible model class.

A plant is square and strictly proper with relative degree one per channel
(``C B`` well conditioned) and at most one simple zero outside the unit
circle per input column.  The generator draws a minimum-phase core with a
given number of unstable poles, then gives the chosen input columns a
"channel zero" ``z_j`` by right-multiplying column j with ``(z - z_j)/z``
(one extra state each).  Every plant it returns carries the model-class
assertion that each channel zero is a zero of its column.

A family is given by a list of structures ``(core order, unstable poles,
zero columns)``; the seed draws the numbers, the structure fixes the plant
order and how many unstable poles and channel zeros it has.  Benchmark
families are built this way so that two seeds give plants of the same sizes,
and op costs differ between seeds only through the drawn values.
"""

import numpy as np

from dropstab.statespace import StateSpaceModel, cascade, evaluate, transmission_zeros

#: largest acceptable condition number of ``C B`` (relative degree one)
CB_COND_MAX = 20.0
#: core transmission zeros must lie inside this radius (minimum phase)
CORE_ZERO_RADIUS = 0.97
#: a channel zero must be a zero of its column to this absolute tolerance
COLUMN_ZERO_TOL = 1e-9
#: draws before the generator gives up on one plant
MAX_DRAWS = 10_000


def _core_matrix(rng, n, n_unstable):
    """Dense state matrix with a prescribed unstable/stable eigenvalue split."""
    lam_u = rng.uniform(1.1, 2.4, size=n_unstable) * rng.choice([-1, 1], size=n_unstable)
    lam_s = rng.uniform(-0.8, 0.8, size=n - n_unstable)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return Q.T @ np.diag(np.concatenate([lam_u, lam_s])) @ Q


def admissible_plant(rng, r, core_order, n_unstable, zero_columns):
    """Draw one r-channel admissible plant of the given structure.

    Parameters
    ----------
    rng : numpy.random.Generator
        Source of every random number; the same state gives the same plant.
    r : int
        Number of channels (inputs = outputs); at most ``core_order``.
    core_order : int
        Order of the minimum-phase core.  The plant order is
        ``core_order + len(zero_columns)``.
    n_unstable : int
        Number of unstable core poles, drawn in ``1.1 <= |lambda| <= 2.4``.
    zero_columns : sequence of int
        Input columns that carry a channel zero, drawn in
        ``1.2 <= |z| <= 3``.

    Returns
    -------
    (StateSpaceModel, tuple)
        The plant and its per-channel zeros (``None`` for a clean channel).
    """
    if not 1 <= n_unstable <= core_order or not r <= core_order:
        raise ValueError("need 1 <= n_unstable <= core_order and r <= core_order")
    for _ in range(MAX_DRAWS):
        A = _core_matrix(rng, core_order, n_unstable)
        B = rng.normal(size=(core_order, r))
        C = rng.normal(size=(r, core_order))
        if np.linalg.cond(C @ B) > CB_COND_MAX:
            continue
        plant = StateSpaceModel(A, B, C, np.zeros((r, r)))
        tz = transmission_zeros(plant)
        if tz.size and np.max(np.abs(tz)) > CORE_ZERO_RADIUS:
            continue
        zeros = [None] * r
        for j in zero_columns:
            zj = float(rng.uniform(1.2, 3.0) * rng.choice([-1, 1]))
            zcol = np.zeros((r, 1))
            zcol[j, 0] = -zj
            brow = np.zeros((1, r))
            brow[0, j] = 1.0
            shaper = StateSpaceModel(np.zeros((1, 1)), brow, zcol, np.eye(r))
            plant = cascade(plant, shaper)
            zeros[j] = zj
        check_model_class(plant, zeros)
        return plant, tuple(zeros)
    raise RuntimeError(f"no admissible {r}-channel plant in {MAX_DRAWS} draws")


def check_model_class(plant, zeros):
    """Raise AssertionError unless each channel zero is a zero of its column."""
    if plant.n_inputs != plant.n_outputs or len(zeros) != plant.n_inputs:
        raise AssertionError("plant must be square with one zero slot per channel")
    for j, zj in enumerate(zeros):
        if zj is None:
            continue
        if abs(zj) <= 1.0:
            raise AssertionError(f"channel zero {zj} is not outside the unit circle")
        col = evaluate(plant, zj)[:, j]
        if np.max(np.abs(col)) >= COLUMN_ZERO_TOL:
            raise AssertionError(f"channel zero {zj} is not a zero of column {j}")


def plant_family(rng, r, structures):
    """One plant per structure ``(core order, unstable poles, zero columns)``."""
    return [admissible_plant(rng, r, *s) for s in structures]
