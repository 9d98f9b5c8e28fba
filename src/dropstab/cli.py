"""Command-line front end: JSON model files in, reports/CSV/JSON out.

Commands
--------
rects       admissible dropout rectangles, one per decomposition
analyze     membership verdict for one dropout-probability vector
region      member/non-member grid as CSV (two channels)
synthesize  optimal controller for a certified dropout vector, as JSON
simulate    exact and Monte-Carlo second-moment traces as CSV
supremum    simultaneous-dropout threshold for minimum-phase models

Exit codes: 0 success (and, for verdict commands, "member"); 2 negative
verdict (dropout vector not certified); 1 any error, including a search
certificate or a synthesized controller that fails its own check.
Reports print numbers with six significant digits, rectangle corners
with four decimals, and volumes in two-decimal scientific notation.
"""

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import config
from .factorization import AssumptionViolation, validate_assumption
from .numkernel import channel_zero
from .stabilizability import (
    ChannelSpec,
    GammaScaling,
    NotCertified,
    membership,
    mp_supremum,
    rectangle_set,
    sweep_bounds,
    synthesize,
    union_membership,
)
from .statespace import StateSpaceModel, TransferMatrix
from .verification import assemble, exact_moment_trace, monte_carlo_trace

__all__ = ["ModelFile", "load_model", "main"]


# ---------------------------------------------------------------------------
# model files


@dataclass(frozen=True)
class ModelFile:
    """A parsed and validated model document."""

    name: str
    plant: StateSpaceModel
    zeros: tuple        # per-channel unstable zero or None


def _read_object(path, what) -> dict:
    """The JSON object at the top of the file ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: {what} must be a JSON object")
    return raw


def _leaves(raw) -> list:
    return [v for x in raw for v in _leaves(x)] if isinstance(raw, list) else [raw]


def _numbers(raw, path, field, shape=None) -> np.ndarray:
    """``raw``, a JSON number or a rectangular nested list of them, as a
    float array, reshaped to ``shape`` when given.  The one rule for every
    number a file holds: only finite JSON ints and floats pass (not
    booleans, strings, null or objects), and every error names the file and
    the field."""
    if raw is None:
        raise ValueError(f"{path}: {field} is missing")
    for v in _leaves(raw):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValueError(f"{path}: {field} must hold numbers, got {v!r}")
    try:
        M = np.asarray(raw, dtype=float)
    except OverflowError as exc:        # an int beyond the float range
        raise ValueError(f"{path}: {field} has non-finite entries") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {field} must be a rectangular nested list") from exc
    if not np.isfinite(M).all():
        raise ValueError(f"{path}: {field} has non-finite entries")
    try:
        return M if shape is None else M.reshape(shape)
    except ValueError as exc:
        raise ValueError(f"{path}: {field} cannot be reshaped to {shape}") from exc


def _poly_grid(body, key, path) -> tuple:
    """``tf.<key>``: rows of non-empty coefficient lists."""
    field = f"tf.{key}"
    bad = f"{path}: {field} must be a non-empty nested list of numbers"
    grid = body.get(key)
    if not (isinstance(grid, list) and grid and all(isinstance(row, list) for row in grid)):
        raise ValueError(bad)
    cells = [[_numbers(cell, path, field) for cell in row] for row in grid]
    if not all(c.ndim == 1 and c.size for row in cells for c in row):
        raise ValueError(bad)
    return tuple(tuple(tuple(c.tolist()) for c in row) for row in cells)


def _count(d, key, path) -> int:
    v = d.get(key)
    _numbers(v, path, key)
    if not isinstance(v, int) or v < 0:
        raise ValueError(f"{path}: {key} must be a non-negative integer, got {v!r}")
    return v


def load_model(path: str) -> ModelFile:
    """Read and validate a JSON model file.

    The file carries ``name``, ``format`` ("tf" or "ss"), exactly one of a
    ``tf`` block (``num``/``den`` coefficient grids in descending powers of
    z) or an ``ss`` block (``A``/``B``/``C``/``D`` row-major), and an
    optional ``channel_zeros`` list overriding zero detection.  Transfer-
    function models are checked against the admissible model class and
    their per-channel unstable zeros detected; state-space models must
    supply ``channel_zeros`` explicitly and be strictly proper.

    Raises
    ------
    ValueError
        Malformed file or inconsistent shapes.
    AssumptionViolation
        Transfer-function model outside the admissible class.
    """
    raw = _read_object(path, "model file")
    name = raw.get("name")
    fmt = raw.get("format")
    if not isinstance(name, str) or not name:
        raise ValueError(f"{path}: missing model name")
    if fmt not in ("tf", "ss"):
        raise ValueError(f"{path}: format must be 'tf' or 'ss'")
    if {"tf", "ss"} & raw.keys() != {fmt}:
        raise ValueError(f"{path}: format '{fmt}' needs a {fmt} block and no other")

    if fmt == "tf":
        body = raw["tf"]
        if not isinstance(body, dict):
            raise ValueError(f"{path}: tf must be an object with num/den")
        num, den = _poly_grid(body, "num", path), _poly_grid(body, "den", path)
        try:
            tf = TransferMatrix(num=num, den=den)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: bad transfer matrix ({exc})") from exc
        detected, plant = validate_assumption(tf)
        r = plant.n_inputs
    else:
        body = raw["ss"]
        if not isinstance(body, dict):
            raise ValueError(f"{path}: ss must be an object with A/B/C/D")
        A = _numbers(body.get("A"), path, "ss.A")
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"{path}: ss.A must be square")
        n = A.shape[0]
        B = _numbers(body.get("B"), path, "ss.B")
        if B.ndim != 2 or B.shape[0] != n:
            raise ValueError(f"{path}: ss.B must have {n} rows")
        r = B.shape[1]
        C = _numbers(body.get("C"), path, "ss.C", (-1, n))
        D = _numbers(body.get("D"), path, "ss.D", (C.shape[0], r))
        if C.shape[0] != r:
            raise ValueError(f"{path}: model must be square "
                             f"({C.shape[0]} outputs, {r} inputs)")
        if np.max(np.abs(D), initial=0.0) != 0.0:
            raise ValueError(f"{path}: model must be strictly proper (D = 0)")
        plant = StateSpaceModel(A, B, C, D)
        detected = None

    if "channel_zeros" in raw:
        zl = raw["channel_zeros"]
        if not isinstance(zl, list) or len(zl) != r or any(isinstance(z, list) for z in zl):
            raise ValueError(f"{path}: channel_zeros must list {r} numbers or nulls")
        zeros = tuple(None if z is None else _numbers(z, path, "channel_zeros").item()
                      for z in zl)
    elif fmt == "tf":
        zeros = detected
    else:
        raise ValueError(f"{path}: state-space models need explicit "
                         "channel_zeros")
    for z in zeros:
        if z is not None:
            try:
                channel_zero(z, ())
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from exc
    return ModelFile(name=name, plant=plant, zeros=zeros)


# ---------------------------------------------------------------------------
# small formatting / parsing helpers


def _fmt(x) -> str:
    return f"{float(np.real(x)):.6g}"


def _real_list(M) -> list:
    """Strip the zero imaginary part the state-space dtype always carries."""
    return np.real(np.asarray(M)).tolist()


def _fmt_c(x) -> str:
    x = complex(x)
    if abs(x.imag) <= 1e-12 * max(1.0, abs(x)):
        return f"{x.real:.6g}"
    return f"{x.real:.6g}{x.imag:+.6g}j"


def _blaschke_str(lams) -> str:
    """Human-readable all-pass product ``prod (z - lam)/(conj(lam) z - 1)``
    over one channel's eigenvalues; a complex value is parenthesized."""
    if not lams:
        return "1"
    num, den = [], []
    for lam in lams:
        c, cc = _fmt_c(lam), _fmt_c(np.conj(lam))
        if c.endswith("j"):
            c, cc = f"({c})", f"({cc})"
        num.append(f"(z + {c[1:]})" if c.startswith("-") else f"(z - {c})")
        den.append(f"({cc} z - 1)")
    bottom = "".join(den) if len(den) == 1 else "(" + "".join(den) + ")"
    return "".join(num) + "/" + bottom


def _floats(flag, text, count) -> np.ndarray:
    """The ``count`` comma-separated numbers given to ``flag``."""
    try:
        vals = np.array([float(tok) for tok in text.split(",")])
    except ValueError as exc:
        raise ValueError(f"{flag}: could not parse '{text}'") from exc
    if vals.size != count:
        raise ValueError(f"{flag}: expected {count} values, got {vals.size}")
    return vals


def _channels(text: str, r: int) -> ChannelSpec:
    p = _floats("--probs", text, r)
    try:
        return ChannelSpec(p)
    except ValueError as exc:
        raise ValueError(f"--probs: {exc}") from exc


def _parse_gamma(text: str, r: int) -> np.ndarray:
    vals = _floats("--gamma", text, r)
    try:
        return GammaScaling(vals).gamma
    except ValueError as exc:
        raise ValueError(f"--gamma: {exc}") from exc


def _parse_grid(text: str) -> tuple:
    parts = text.lower().split("x")
    try:
        n1, n2 = (int(tok) for tok in parts)
    except ValueError as exc:
        raise ValueError(f"--grid: expected N1xN2, got '{text}'") from exc
    if n1 < 1 or n2 < 1:
        raise ValueError("--grid: counts must be positive")
    return n1, n2


def _parse_pmax(text: str) -> np.ndarray:
    bounds = _floats("--pmax", text, 2)
    if not ((0.0 <= bounds) & (bounds < 1.0)).all():   # NaN fails too
        raise ValueError("--pmax: bounds must lie in [0, 1)")
    return bounds


def _zeros_str(zeros) -> str:
    return ", ".join("none" if z is None else _fmt(z) for z in zeros)


# ---------------------------------------------------------------------------
# commands


def cmd_rects(args) -> int:
    model = load_model(args.model)
    rects = rectangle_set(model.plant, model.zeros)
    print(f"model: {model.name}")
    print(f"channels: {model.plant.n_inputs}")
    print(f"channel zeros: {_zeros_str(model.zeros)}")
    print(f"decompositions: {len(rects.forms)}")
    for k, form in enumerate(rects.forms):
        order = ", ".join(str(c + 1) for c in form.ordering)
        print(f"decomposition {k + 1} (processing order {order})")
        lam = form.lambda_by_channel()
        for j in range(form.n_channels):
            poles = ", ".join(_fmt_c(v) for v in lam[j]) or "none"
            print(f"  channel {j + 1} poles: {poles}")
            print(f"  channel {j + 1} inner: {_blaschke_str(lam[j])}")
        vert = ", ".join(f"{v:.4f}" for v in rects.vertices[k])
        print(f"  vertex: ({vert})")
        print(f"  volume: {rects.volumes[k]:.2e}")
    print(f"max blocking probability: {max(rects.volumes):.2e}")
    return 0


def cmd_analyze(args) -> int:
    model = load_model(args.model)
    channels = _channels(args.probs, model.plant.n_inputs)
    rects = rectangle_set(model.plant, model.zeros)
    print(f"model: {model.name}")
    print(f"dropout probabilities: {', '.join(_fmt(v) for v in channels.p)}")
    covered, idx = union_membership(rects, channels.p)
    if covered:
        print(f"rectangle union: member (decomposition {idx + 1})")
    else:
        print("rectangle union: not covered")
    report = membership(model.plant, model.zeros, channels)
    verdict = "member" if report.member else "not found"
    print(f"scaling search: {verdict}")
    print(f"  best value: {_fmt(report.best_value)}")
    if report.member:
        cert = ", ".join(_fmt(g) for g in report.certificate.gamma)
        print(f"  certificate gamma: {cert}")
        levels = ", ".join(_fmt(b) for b in report.bounds)
        print(f"  admissible levels at certificate: {levels}")
    return 0 if report.member else 2


def cmd_region(args) -> int:
    model = load_model(args.model)
    if model.plant.n_inputs != 2:
        raise ValueError("region grids cover exactly two channels")
    n1, n2 = _parse_grid(args.grid)
    a, b = _parse_pmax(args.pmax)
    # shared certificate pool: the dense scaling sweep plus the exact
    # decoupled corners, so the grid decision matches the rectangle report
    # at its extremes
    pool = sweep_bounds(model.plant, model.zeros)
    corners = np.array(rectangle_set(model.plant, model.zeros).vertices)
    pool = np.vstack([pool, corners])
    p1 = np.linspace(0.0, a, 1 if a == 0.0 else n1)
    p2 = np.linspace(0.0, b, 1 if b == 0.0 else n2)
    # a cell is a member iff some pool row dominates it strictly: with
    # reach(p1) the largest guarded p2 level among the rows whose guarded
    # p1 level exceeds p1, that is p2 < reach(p1)
    guarded = pool * (1.0 - config.MEMBER_GUARD)
    above = p1[:, None] < guarded[None, :, 0]
    reach = np.where(above, guarded[None, :, 1], -np.inf).max(axis=1)
    ys = [_fmt(y) for y in p2]
    out = sys.stdout
    out.write("p1,p2,member\n")
    for x, lim in zip(p1, reach):
        fx = _fmt(x)
        out.writelines(f"{fx},{fy},{int(y < lim)}\n" for y, fy in zip(p2, ys))
    return 0


def cmd_synthesize(args) -> int:
    model = load_model(args.model)
    channels = _channels(args.probs, model.plant.n_inputs)
    gamma = None if args.gamma is None else _parse_gamma(args.gamma, model.plant.n_inputs)
    try:
        design = synthesize(model.plant, model.zeros, channels, gamma)
    except NotCertified as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    K, analysis, verify = design.K, design.analysis_radius, design.verification_radius
    print(f"certificate value {_fmt(design.value)} at gamma "
          f"{', '.join(_fmt(g) for g in design.gamma)}", file=sys.stderr)
    print(f"controller order {K.order}; analysis radius {_fmt(analysis)}; "
          f"verification radius {_fmt(verify)}", file=sys.stderr)
    if not (analysis < 1.0 and verify < 1.0):  # NaN fails too
        raise ValueError("a stability radius is not below 1; no controller is printed")
    payload = {
        "certified_value": design.value,
        "channel_zeros": [z for z in model.zeros],
        # synthesize() has already checked, in assemble(), that K is real
        "controller": {
            "A": _real_list(K.A), "B": _real_list(K.B),
            "C": _real_list(K.C), "D": _real_list(K.D),
            "state_count": K.order,
            "input_count": K.n_inputs,
            "output_count": K.n_outputs,
        },
        "gamma": [float(g) for g in design.gamma],
        "gamma_true": [float(g) for g in design.gamma_true],
        "model": model.name,
        "ms_radius": float(analysis),
        "nominal_radius": float(design.loop.nominal_radius),
        "probs": [float(v) for v in channels.p],
        "second_moment_radius": float(verify),
    }
    print(json.dumps(payload, sort_keys=True, indent=2))
    return 0


def _load_controller(path: str) -> StateSpaceModel:
    raw = _read_object(path, "controller file")
    d = raw.get("controller", raw)
    if not isinstance(d, dict):
        raise ValueError(f"{path}: controller must be a JSON object")
    n, m, q = (_count(d, key, path) for key in ("state_count", "input_count", "output_count"))
    return StateSpaceModel(*(_numbers(d.get(key), path, f"controller matrix {key}", shape)
                             for key, shape in zip("ABCD", ((n, n), (n, m), (q, n), (q, m)))))


def cmd_simulate(args) -> int:
    for flag, value, least in (("--steps", args.steps, 0), ("--trials", args.trials, 1),
                               ("--seed", args.seed, 0)):
        if value < least:
            raise ValueError(f"{flag}: must be at least {least}, got {value}")
    model = load_model(args.model)
    channels = _channels(args.probs, model.plant.n_inputs)
    K = _load_controller(args.controller)
    loop = assemble(model.plant, K, channels)
    # the Monte-Carlo trace checks its schedule size before any work
    mc = monte_carlo_trace(loop, args.steps, args.trials, seed=args.seed)
    exact = exact_moment_trace(loop, args.steps)
    out = sys.stdout
    out.write("step,exact_trace,mc_trace\n")
    for k in range(args.steps + 1):
        out.write(f"{k},{_fmt(exact[k])},{_fmt(mc[k])}\n")
    return 0


def cmd_supremum(args) -> int:
    model = load_model(args.model)
    try:
        sup = mp_supremum(model.plant, model.zeros)
    except ValueError as exc:
        if all(z is None for z in model.zeros):
            raise
        raise ValueError(f"{exc}; run the rects command for this model") from exc
    print(f"model: {model.name}")
    print(f"unstable poles: {', '.join(_fmt_c(v) for v in sup.unstable) or 'none'}")
    print(f"simultaneous-dropout supremum, squared-product rule "
          f"(used for verdicts): {_fmt(sup.derived_bound)}")
    print(f"simultaneous-dropout supremum, linear-product rule "
          f"(for comparison): {_fmt(sup.stated_bound)}")
    rects = rectangle_set(model.plant, model.zeros)
    for k, form in enumerate(rects.forms):
        order = ", ".join(str(c + 1) for c in form.ordering)
        levels = ", ".join(_fmt(v) for v in rects.vertices[k])
        print(f"decomposition {k + 1} (processing order {order}): "
              f"per-channel thresholds {levels}")
    return 0


# ---------------------------------------------------------------------------
# parser and entry point


class _Parser(argparse.ArgumentParser):
    """Argument errors exit with code 1; code 2 is a verdict, not an error."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(sub):
    sub.add_argument("model", help="path to a JSON model file")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dropstab",
        description="Mean-square stabilizability over lossy input channels: "
                    "admissible dropout regions, optimal controllers, and "
                    "second-moment verification.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    q = sub.add_parser("rects", help="admissible dropout rectangles")
    _add_common(q)
    q.set_defaults(func=cmd_rects)

    q = sub.add_parser("analyze", help="membership verdict for one dropout vector")
    _add_common(q)
    q.add_argument("--probs", required=True,
                   help="comma-separated per-channel dropout probabilities")
    q.set_defaults(func=cmd_analyze)

    q = sub.add_parser("region", help="member/non-member grid as CSV")
    _add_common(q)
    q.add_argument("--grid", required=True, help="grid resolution, N1xN2")
    q.add_argument("--pmax", required=True,
                   help="upper corner a,b of the scanned box [0,a]x[0,b]")
    q.set_defaults(func=cmd_region)

    q = sub.add_parser("synthesize", help="optimal controller as JSON")
    _add_common(q)
    q.add_argument("--probs", required=True,
                   help="comma-separated per-channel dropout probabilities")
    q.add_argument("--gamma", default=None,
                   help="certifying channel scaling (skips the search); "
                        "first entry must be 1")
    q.set_defaults(func=cmd_synthesize)

    q = sub.add_parser("simulate", help="second-moment traces as CSV")
    _add_common(q)
    q.add_argument("--probs", required=True,
                   help="comma-separated per-channel dropout probabilities")
    q.add_argument("--controller", required=True,
                   help="controller JSON (as written by synthesize)")
    q.add_argument("--steps", type=int, default=2000)
    q.add_argument("--trials", type=int, default=200)
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(func=cmd_simulate)

    q = sub.add_parser("supremum",
                       help="simultaneous-dropout threshold (minimum phase)")
    _add_common(q)
    q.set_defaults(func=cmd_supremum)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_help(sys.stderr)
        return 1
    try:
        return args.func(args)
    except (AssumptionViolation, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
