import json
import re
import warnings
from importlib.resources import files

import numpy as np
import pytest

from conftest import count_calls, raise_on_call
from dropstab import config, factorization, stabilizability, verification
from dropstab.cli import _load_controller, load_model, main
from dropstab.stabilizability import rectangle_set, sweep_bounds
from dropstab.statespace import realize

EXAMPLE = str(files("dropstab").joinpath("data/example1.json"))


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture()
def scalar_mp(tmp_path):
    return _write(tmp_path, "scalar.json", {
        "name": "scalar-mp",
        "format": "tf",
        "tf": {"num": [[[1]]], "den": [[[1, -2]]]},
    })


@pytest.fixture()
def stable2(tmp_path):
    return _write(tmp_path, "stable2.json", {
        "name": "stable2",
        "format": "tf",
        "tf": {
            "num": [[[1], [1]], [[0.5], [1]]],
            "den": [[[1, -0.5], [1, -0.5, -0.125, 0.03125]],
                    [[1, 0.25], [1, -0.1]]],
        },
    })


# ---------------------------------------------------------------------------
# model files


def test_load_example_detects_zeros():
    model = load_model(EXAMPLE)
    assert model.name == "example1"
    assert model.plant.n_inputs == 2
    assert model.zeros == (-2.0, 1.5)


def test_load_example_realizes_the_plant_once(monkeypatch):
    calls = count_calls(monkeypatch, realize)
    load_model(EXAMPLE)
    assert len(calls) == 1


def test_load_rejects_malformed(tmp_path):
    bad = [
        {"format": "tf", "tf": {"num": [[[1]]], "den": [[[1, -2]]]}},
        {"name": "x", "format": "zpk", "tf": {}},
        {"name": "x", "format": "tf"},
        {"name": "x", "format": "tf", "tf": {"num": [[[1]]], "den": [[[1, -2]]]},
         "ss": {"A": [], "B": [], "C": [], "D": []}},
        {"name": "x", "format": "ss",
         "ss": {"A": [[0.5]], "B": [[1]], "C": [[1]], "D": [[0]]}},
        {"name": "x", "format": "tf", "tf": {"num": [[[1]]], "den": [[[1, -2]]]},
         "channel_zeros": [0.5]},
    ]
    for k, payload in enumerate(bad):
        path = _write(tmp_path, f"bad{k}.json", payload)
        with pytest.raises(ValueError):
            load_model(path)
    # rejected by name; JSON's NaN and Infinity parse as floats
    example = json.loads(files("dropstab").joinpath("data/example1.json")
                         .read_text(encoding="utf-8"))
    named = [
        (dict(example, channel_zeros=[float("nan"), None]),
         "channel_zeros has non-finite entries"),
        (dict(example, channel_zeros=[float("inf"), None]),
         "channel_zeros has non-finite entries"),
        (dict(example, channel_zeros=[10 ** 400, None]),
         "channel_zeros has non-finite entries"),
        ({"name": "x", "format": "tf",
          "tf": {"num": [[[float("nan")]]], "den": [[[1, -2]]]}},
         "tf.num has non-finite entries"),
        ({"name": "x", "format": "tf",
          "tf": {"num": [[[1]]], "den": [[[1, float("nan")]]]}},
         "tf.den has non-finite entries"),
        ({"name": "x", "format": "tf", "tf": {"num": [[[1]]], "den": [[[]]]}},
         "tf.den must be a non-empty nested list of numbers"),
        (dict(example, channel_zeros=["a", None]),
         "channel_zeros must hold numbers, got 'a'"),
        (dict(example, channel_zeros=[[3], None]),
         "channel_zeros must list 2 numbers or nulls"),
        ({"name": "x", "format": "ss", "channel_zeros": [None],
          "ss": {"B": [[1.0]], "C": [[1.0]], "D": [[0.0]]}},
         "ss.A is missing"),
        ([1, 2], "model file must be a JSON object"),
        ({"name": "x", "format": "tf", "tf": [1]}, "tf must be an object with num/den"),
        ({"name": "x", "format": "ss", "ss": [1]}, "ss must be an object with A/B/C/D"),
        ({"name": "x", "format": "tf", "tf": {"num": [1], "den": [[[1, -2]]]}},
         "tf.num must be a non-empty nested list of numbers"),
        ({"name": "x", "format": "tf", "tf": {"num": [[1]], "den": [[[1, -2]]]}},
         "tf.num must be a non-empty nested list of numbers"),
        ({"name": "x", "format": "tf", "tf": {"num": [[[1]]], "den": [[[1, -2]], [[1, -3]]]}},
         "bad transfer matrix (num and den must be non-empty grids of equal shape)"),
        ({"name": "x", "format": "ss", "channel_zeros": [None],
          "ss": dict(_SS, A=[[0.5, 0.1]])},
         "ss.A must be square"),
        ({"name": "x", "format": "ss", "channel_zeros": [None],
          "ss": dict(_SS, B=[[1.0], [1.0]])},
         "ss.B must have 1 rows"),
        ({"name": "x", "format": "ss", "channel_zeros": [None],
          "ss": dict(_SS, A=[[0.5, 0.0], [0.0, 0.2]], B=[[1.0], [1.0]], C=[[1.0, 2.0, 3.0]])},
         "ss.C cannot be reshaped to (-1, 2)"),
        ({"name": "x", "format": "ss", "channel_zeros": [None, None],
          "ss": dict(_SS, B=[[1.0, 1.0]], D=[[0.0, 0.0]])},
         "model must be square (1 outputs, 2 inputs)"),
        ({"name": "x", "format": "ss", "channel_zeros": [None], "ss": dict(_SS, D=[[1.0]])},
         "model must be strictly proper (D = 0)"),
    ]
    for k, (payload, message) in enumerate(named):
        path = _write(tmp_path, f"named{k}.json", payload)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_model(path)
    # a zero within the unit-circle band fails at load, not in synthesis
    near = _write(tmp_path, "near.json", dict(example, channel_zeros=[1.0 + 1e-12, None]))
    with pytest.raises(ValueError, match=re.escape(
            f"{near}: channel zero (1.000000000001+0j) must lie at least 1e-9 "
            "outside the unit circle")):
        load_model(near)
    path = tmp_path / "truncated.json"
    path.write_text('{"name": "x", "format": ', encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}: not valid JSON (")):
        load_model(str(path))
    # controller files, read by simulate
    scalar = {"B": [[1.0]], "C": [[1.0]], "D": [[0.0]], "state_count": 1,
              "input_count": 1, "output_count": 1}
    path = _write(tmp_path, "nan_controller.json",
                  {"controller": dict(scalar, A=[[float("nan")]])})
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: controller matrix A has non-finite entries")):
        _load_controller(path)
    path = _write(tmp_path, "number_controller.json", {"controller": 5})
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: controller must be a JSON object")):
        _load_controller(path)
    for key, message in (("B", "controller matrix B is missing"),
                         ("state_count", "state_count is missing")):
        path = _write(tmp_path, f"no_{key}.json", {"controller": {
            k: v for k, v in dict(scalar, A=[[0.5]]).items() if k != key}})
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            _load_controller(path)


_SS = {"A": [[0.5]], "B": [[1.0]], "C": [[1.0]], "D": [[0.0]]}
_CONTROLLER = dict(_SS, state_count=1, input_count=1, output_count=1)


@pytest.mark.parametrize("kind, field, value", [
    ("model", "A", {"a": 1}),
    ("model", "A", [["a"]]),
    ("model", "B", [["b"]]),
    ("model", "A", [[None]]),
    ("model", "A", [[0.5], [1, 2]]),
    ("model", "B", [[10 ** 400]]),
    ("controller", "state_count", None),
    ("controller", "state_count", "x"),
    ("controller", "state_count", 18.5),
    ("controller", "state_count", True),
    ("controller", "state_count", -1),
    ("controller", "A", {"a": 1}),
    ("controller", "A", [["a"]]),
    ("controller", "B", [["b"]]),
], ids=["ss.A-object", "ss.A-string", "ss.B-string", "ss.A-null", "ss.A-ragged",
        "ss.B-overflow", "count-null",
        "count-string", "count-fraction", "count-bool", "count-negative",
        "matrix-object", "matrix-A-string", "matrix-B-string"])
def test_malformed_file_names_path_and_field(tmp_path, scalar_mp, capsys, kind, field, value):
    # one error line naming the file and the field, never a traceback
    if kind == "model":
        path = _write(tmp_path, "model.json", {
            "name": "x", "format": "ss", "ss": dict(_SS, **{field: value}),
            "channel_zeros": [None]})
        argv, want = ["rects", path], f"ss.{field}"
    else:
        path = _write(tmp_path, "ctrl.json", {"controller": dict(_CONTROLLER, **{field: value})})
        argv = ["simulate", scalar_mp, "--probs", "0.2", "--controller", path,
                "--steps", "2", "--trials", "1"]
        want = field if field.endswith("_count") else f"controller matrix {field}"
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    prefix = f"error: {path}: "
    assert err.count("\n") == 1 and err.startswith(prefix), err
    assert want in err[len(prefix):], err


def _first(nested):
    return _first(nested[0]) if isinstance(nested, list) else nested


def _with_first(nested, value):
    """``nested`` with its first number replaced by ``value``."""
    if isinstance(nested, list):
        return [_with_first(nested[0], value)] + nested[1:]
    return value


_DOCUMENTS = {
    "tf": {"name": "x", "format": "tf", "tf": {"num": [[[1]]], "den": [[[1, -2]]]}},
    "ss": {"name": "x", "format": "ss", "ss": _SS, "channel_zeros": [3.0]},
    "controller": {"controller": _CONTROLLER},
}


@pytest.mark.parametrize("spoil", [str, bool], ids=["string", "bool"])
@pytest.mark.parametrize("keys", [
    ("tf", "tf", "num"), ("tf", "tf", "den"),
    ("ss", "ss", "A"), ("ss", "ss", "B"), ("ss", "ss", "C"), ("ss", "ss", "D"),
    ("ss", "channel_zeros"),
    ("controller", "controller", "A"), ("controller", "controller", "B"),
    ("controller", "controller", "C"), ("controller", "controller", "D"),
], ids=lambda keys: ".".join(keys[1:]))
def test_file_numbers_must_be_json_numbers(tmp_path, scalar_mp, capsys, keys, spoil):
    # a number written as a string, or a boolean, is refused by name where
    # the same document with the plain number is read
    kind, *outer, key = keys
    doc = json.loads(json.dumps(_DOCUMENTS[kind]))
    block = doc[outer[0]] if outer else doc
    good = block[key]
    if kind == "controller":
        field = f"controller matrix {key}"
        argv = ["simulate", scalar_mp, "--probs", "0.2", "--controller",
                str(tmp_path / "doc.json"), "--steps", "2", "--trials", "1"]
    else:
        field = ".".join(keys[1:])
        argv = ["rects", str(tmp_path / "doc.json")]
    _write(tmp_path, "doc.json", doc)
    assert run_cli(argv, capsys)[0] == 0
    bad = spoil(_first(good))
    block[key] = _with_first(good, bad)
    path = _write(tmp_path, "doc.json", doc)
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert err == f"error: {path}: {field} must hold numbers, got {bad!r}\n"


def test_ss_format_matches_tf(tmp_path, example_ss, capsys):
    ss = {name: np.real(getattr(example_ss, name)).tolist()
          for name in ("A", "B", "C", "D")}
    path = _write(tmp_path, "ss.json", {
        "name": "example1-ss", "format": "ss", "ss": ss,
        "channel_zeros": [-2.0, 1.5],
    })
    code, out, _ = run_cli(["rects", path], capsys)
    assert code == 0
    assert "vertex: (0.1758, 0.0142)" in out
    assert "vertex: (0.0476, 0.0246)" in out


# ---------------------------------------------------------------------------
# rects


def test_rects_example(capsys):
    code, out, _ = run_cli(["rects", EXAMPLE], capsys)
    assert code == 0
    assert "decompositions: 2" in out
    assert "vertex: (0.1758, 0.0142)" in out
    assert "vertex: (0.0476, 0.0246)" in out
    assert "volume: 2.49e-03" in out
    assert "volume: 1.17e-03" in out
    assert "max blocking probability: 2.49e-03" in out
    assert "(z - 2)/(2 z - 1)" in out
    assert "(z + 1.5)(z - 2.5)/((-1.5 z - 1)(2.5 z - 1))" in out


def test_rects_prints_a_complex_pole_pair(tmp_path, capsys):
    # b(z) = prod (z - lam)/(conj(lam) z - 1): a complex lam prints in
    # parentheses, and the denominator carries its conjugate
    path = _write(tmp_path, "pair.json", {
        "name": "pair", "format": "ss", "channel_zeros": [None, None],
        "ss": {"A": [[0.9, -0.8, 0, 0], [0.8, 0.9, 0, 0], [0, 0, 0.3, 0], [0, 0, 0, -0.4]],
               "B": [[1, 0.2], [0.3, 1], [0.5, -0.7], [0.1, 0.9]],
               "C": [[1, 0.5, 0.2, 0.1], [0.3, -1, 0.4, 0.6]],
               "D": [[0, 0], [0, 0]]}})
    code, out, _ = run_cli(["rects", path], capsys)
    assert code == 0
    assert "  channel 1 poles: 0.9-0.8j, 0.9+0.8j\n" in out
    assert ("  channel 1 inner: (z - (0.9-0.8j))(z - (0.9+0.8j))"
            "/(((0.9+0.8j) z - 1)((0.9-0.8j) z - 1))\n") in out


def test_rects_rejects_nonsquare(tmp_path, capsys):
    path = _write(tmp_path, "wide.json", {
        "name": "wide", "format": "tf",
        "tf": {"num": [[[1], [1]]], "den": [[[1, -2], [1, -3]]]},
    })
    code, _, err = run_cli(["rects", path], capsys)
    assert code == 1
    assert "error:" in err


def test_rects_stable_plant(stable2, capsys):
    code, out, _ = run_cli(["rects", stable2], capsys)
    assert code == 0
    assert "decompositions: 1" in out
    assert "vertex: (1.0000, 1.0000)" in out


def test_rects_repeated_pole_in_one_channel(tmp_path, capsys):
    # channel 1 carries the Jordan pair at 2, channel 2 the stable pole 0.5
    ss = {"A": [[2, 1, 0], [0, 2, 0], [0, 0, 0.5]],
          "B": [[0, 0], [1, 0], [0, 1]],
          "C": [[1, 0.5, 0], [0, 0, 1]],
          "D": [[0, 0], [0, 0]]}
    for zeros, vertex in (([None, None], (1.0 / 16.0, 1.0)),
                          ([3.0, None], (1.0 / 3544.0, 1.0))):
        path = _write(tmp_path, "jordan.json", {
            "name": "jordan", "format": "ss", "ss": ss, "channel_zeros": zeros})
        model = load_model(path)
        rects = rectangle_set(model.plant, model.zeros)
        assert len(rects.vertices) == 1
        np.testing.assert_allclose(rects.vertices[0], vertex, rtol=1e-9)
    code, out, _ = run_cli(["rects", path], capsys)
    assert code == 0
    assert "vertex: (0.0003, 1.0000)" in out


# ---------------------------------------------------------------------------
# analyze


def test_analyze_member(capsys):
    code, out, _ = run_cli(
        ["analyze", EXAMPLE, "--probs", "0.17,0.014"], capsys)
    assert code == 0
    assert "rectangle union: member" in out
    assert "scaling search: member" in out
    assert "certificate gamma:" in out


def test_analyze_not_found(capsys):
    code, out, _ = run_cli(["analyze", EXAMPLE, "--probs", "0.5,0.5"], capsys)
    assert code == 2
    assert "rectangle union: not covered" in out
    assert "scaling search: not found" in out


def test_analyze_zero_probs_trivially_member(capsys):
    code, out, _ = run_cli(["analyze", EXAMPLE, "--probs", "0,0"], capsys)
    assert code == 0
    assert "scaling search: member" in out


def test_analyze_malformed_probs(capsys):
    code, _, err = run_cli(["analyze", EXAMPLE, "--probs", "0.1;0.2"], capsys)
    assert code == 1
    assert "error:" in err
    code, _, err = run_cli(["analyze", EXAMPLE, "--probs", "0.1"], capsys)
    assert code == 1
    assert "expected 2 values" in err
    for probs in ("nan,0.01", "0.1,inf"):
        code, out, err = run_cli(["analyze", EXAMPLE, "--probs", probs], capsys)
        assert code == 1
        assert out == ""
        assert "must be finite" in err


@pytest.mark.parametrize("command", ["analyze", "synthesize", "simulate"])
@pytest.mark.parametrize("probs, reason", [("nan,0.1", "must be finite"),
                                           ("1.2,0.1", "must lie in [0, 1)")])
def test_probs_range_errors_name_the_flag(tmp_path, capsys, command, probs, reason):
    # checked before the controller file is read, so its absence never shows
    argv = [command, EXAMPLE, "--probs", probs]
    if command == "simulate":
        argv += ["--controller", str(tmp_path / "absent.json")]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert err == f"error: --probs: dropout probabilities {reason}\n"


# ---------------------------------------------------------------------------
# region


def test_region_rows_and_determinism(capsys):
    argv = ["region", EXAMPLE, "--grid", "7x5", "--pmax", "0.2,0.03"]
    code, out1, _ = run_cli(argv, capsys)
    assert code == 0
    lines = out1.strip().split("\n")
    assert lines[0] == "p1,p2,member"
    assert len(lines) == 7 * 5 + 1
    # p1-major ordering: the first block shares p1 = 0
    assert all(line.startswith("0,") for line in lines[1:6])
    code, out2, _ = run_cli(argv, capsys)
    assert out2 == out1


def test_region_degenerate_box(capsys):
    code, out, _ = run_cli(
        ["region", EXAMPLE, "--grid", "4x4", "--pmax", "0,0"], capsys)
    assert code == 0
    assert out == "p1,p2,member\n0,0,1\n"


def test_region_marks_rectangle_interior(capsys):
    code, out, _ = run_cli(
        ["region", EXAMPLE, "--grid", "12x9", "--pmax", "0.2,0.03"], capsys)
    assert code == 0
    rows = np.array([[float(tok) for tok in line.split(",")]
                     for line in out.strip().split("\n")[1:]])
    v1 = (16.0 / 91.0, 9216.0 / 651245.0)
    v2 = (1.0 / 21.0, 64.0 / 2605.0)
    p1, p2, member = rows[:, 0], rows[:, 1], rows[:, 2].astype(bool)
    inside = (((p1 < v1[0]) & (p2 < v1[1])) | ((p1 < v2[0]) & (p2 < v2[1])))
    assert member[inside].all()
    assert not member[p1 > v1[0]].any()


def _pool_rule(sweep, model):
    """The 41x37 grid over [0, 0.2] x [0, 0.03] decided cell by cell against
    every row of the pool (the sweep and the rectangle corners): member iff
    some row's guarded levels both exceed the cell's."""
    pool = np.vstack([sweep, np.array(rectangle_set(model.plant, model.zeros).vertices)])
    p1, p2 = np.linspace(0.0, 0.2, 41), np.linspace(0.0, 0.03, 37)
    grid = np.array([(x, y) for x in p1 for y in p2])
    ok = grid[:, None, :] < pool[None, :, :] * (1.0 - config.MEMBER_GUARD)
    return ok.all(axis=2).any(axis=1).astype(int).tolist()


def _region_cells(out):
    return [int(line.rsplit(",", 1)[1]) for line in out.strip().split("\n")[1:]]


def test_region_matches_pairwise_dominance(capsys):
    model = load_model(EXAMPLE)
    code, out, _ = run_cli(
        ["region", EXAMPLE, "--grid", "41x37", "--pmax", "0.2,0.03"], capsys)
    assert code == 0
    got = _region_cells(out)
    assert got == _pool_rule(sweep_bounds(model.plant, model.zeros), model)
    assert 0 < sum(got) < len(got)


def test_region_survives_a_failed_sweep_row(monkeypatch, capsys):
    # a sweep row whose Pick matrix fails to factor gets the bound 0, which
    # certifies nothing: region exits 0 and decides the grid by the rest of
    # the pool; row 267 alone certifies one cell of this grid
    model = load_model(EXAMPLE)
    cholesky, seen = np.linalg.cholesky, []
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: seen.append(a) or cholesky(a))
    sweep = sweep_bounds(model.plant, model.zeros)
    target = seen[0][267]

    def failing(a):
        if np.any(np.all(a == target, axis=(-2, -1))):
            raise np.linalg.LinAlgError("injected failure")
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", failing)
    failed = sweep_bounds(model.plant, model.zeros)
    assert np.array_equal(failed[267], [0.0, 0.0])
    rest = np.delete(sweep, 267, axis=0)
    assert np.array_equal(np.delete(failed, 267, axis=0), rest)
    code, out, err = run_cli(
        ["region", EXAMPLE, "--grid", "41x37", "--pmax", "0.2,0.03"], capsys)
    assert (code, err) == (0, "")
    got = _region_cells(out)
    assert got == _pool_rule(rest, model)
    assert sum(got) == sum(_pool_rule(sweep, model)) - 1


def test_region_needs_two_channels(scalar_mp, capsys):
    code, _, err = run_cli(
        ["region", scalar_mp, "--grid", "3x3", "--pmax", "0.1,0.1"], capsys)
    assert code == 1
    assert "two channels" in err


def test_region_bad_grid(capsys):
    code, _, err = run_cli(
        ["region", EXAMPLE, "--grid", "10", "--pmax", "0.1,0.1"], capsys)
    assert code == 1
    assert "--grid" in err
    for pmax in ("nan,0.01", "0.1,1"):
        code, out, err = run_cli(
            ["region", EXAMPLE, "--grid", "3x3", "--pmax", pmax], capsys)
        assert code == 1
        assert out == ""
        assert "--pmax: bounds must lie in [0, 1)" in err


def test_region_grid_counts_must_be_positive(capsys):
    code, out, err = run_cli(
        ["region", EXAMPLE, "--grid", "0x5", "--pmax", "0.1,0.1"], capsys)
    assert code == 1
    assert out == ""
    assert "--grid: counts must be positive" in err


# ---------------------------------------------------------------------------
# synthesize


def test_synthesize_benchmark(tmp_path, capsys):
    code, out, err = run_cli(
        ["synthesize", EXAMPLE, "--probs", "0.158,0.0128"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["ms_radius"] < 1.0
    assert payload["second_moment_radius"] < 1.0
    assert payload["certified_value"] < 1.0
    # stdout carries the JSON in stable alphabetical key order
    assert out.strip() == json.dumps(payload, sort_keys=True, indent=2)
    path = tmp_path / "ctrl.json"
    path.write_text(out, encoding="utf-8")
    K = _load_controller(str(path))
    assert K.order == payload["controller"]["state_count"]
    assert "controller order" in err


def test_synthesize_non_member_exits_2(capsys):
    code, _, err = run_cli(
        ["synthesize", EXAMPLE, "--probs", "0.5,0.5"], capsys)
    assert code == 2
    assert "not certified" in err


def test_synthesize_supplied_gamma(capsys):
    code, out, _ = run_cli(
        ["synthesize", EXAMPLE, "--probs", "0.158,0.0128",
         "--gamma", "1,1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["gamma"] == [1.0, 1.0]
    assert payload["ms_radius"] < 1.0


def test_synthesize_supplied_gamma_must_certify(capsys):
    # member point, but only under a less balanced scaling than 1,1
    argv = ["synthesize", EXAMPLE, "--probs", "0.175,0.012"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    code, _, err = run_cli(argv + ["--gamma", "1,1"], capsys)
    assert code == 2
    assert "does not certify" in err


def test_synthesize_search_certificate_failing_its_recheck_exits_1(monkeypatch, capsys):
    # the search certifies p, so a failed re-check of its own certificate is
    # an error of the tool, not a negative verdict; a supplied scaling that
    # fails it is the user's, and stays a verdict
    monkeypatch.setattr(stabilizability, "certificate_value", lambda plant, zeros, gamma, p: 1.0)
    argv = ["synthesize", EXAMPLE, "--probs", "0.158,0.0128"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert err == ("error: the search's certificate fails its inner-outer re-check "
                   "(value 1); no controller is printed\n")
    code, out, err = run_cli(argv + ["--gamma", "1,1"], capsys)
    assert (code, out) == (2, "")
    assert "the supplied scaling does not certify" in err


def test_synthesize_gamma_reference_entry(capsys):
    # --gamma is a GammaScaling: first entry 1, every entry in the search
    # box, NaN in none; rejected before anything is computed from it
    argv = ["synthesize", EXAMPLE, "--probs", "0.158,0.0128", "--gamma"]
    for gamma in ("2,1", "nan,1"):
        code, out, err = run_cli(argv + [gamma], capsys)
        assert (code, out) == (1, "")
        assert err == "error: --gamma: gamma must be normalized with gamma_1 = 1\n"
    for gamma in ("1,nan", "1,inf", "1,0", "1,-2", "1,1e-300", "1,1e-8", "1,1e8"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(argv + [gamma], capsys)
        assert caught == []
        assert (code, out) == (1, "")
        assert err == "error: --gamma: gamma entries must lie in [1e-06, 1e+06]\n"
    # the box ends are scalings, whatever their verdict
    for gamma, want in (("1,1e-6", 0), ("1,1e6", 2)):
        code, _, err = run_cli(argv + [gamma], capsys)
        assert code == want
        assert "--gamma" not in err


def test_synthesize_stable_plant(stable2, capsys):
    code, out, _ = run_cli(
        ["synthesize", stable2, "--probs", "0.5,0.5"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["controller"]["state_count"] == 0
    assert payload["ms_radius"] < 1.0
    assert payload["second_moment_radius"] < 1.0


def test_synthesize_supplied_gamma_reproduces_search(capsys):
    # the searched certificate, fed back through --gamma, takes the same
    # path from scaling to controller
    argv = ["synthesize", EXAMPLE, "--probs", "0.158,0.0128"]
    code, searched, _ = run_cli(argv, capsys)
    assert code == 0
    gamma = ",".join(repr(g) for g in json.loads(searched)["gamma"])
    code, supplied, _ = run_cli(argv + ["--gamma", gamma], capsys)
    assert code == 0
    assert supplied == searched


def test_synthesize_factors_the_plant_once(monkeypatch, capsys):
    # the certificate is checked on the search's own scaled coprime factor
    calls = count_calls(monkeypatch, factorization.coprime_factorize)
    code, _, _ = run_cli(["synthesize", EXAMPLE, "--probs", "0.158,0.0128"], capsys)
    assert code == 0
    assert len(calls) == 1


def _radius_not_computable(loop):
    raise ValueError("loop order exceeds the exact-analysis cap")


@pytest.mark.parametrize("name, fake", [
    ("second_moment_radius", lambda loop: 1.5),
    ("second_moment_radius", _radius_not_computable),
    ("ms_radius", lambda that, channels: 1.5),
], ids=["verification_ge_1", "verification_not_computable", "analysis_ge_1"])
def test_synthesize_rejected_controller_exits_1(monkeypatch, capsys, name, fake):
    monkeypatch.setattr(f"dropstab.stabilizability.{name}", fake)
    code, out, err = run_cli(
        ["synthesize", EXAMPLE, "--probs", "0.158,0.0128"], capsys)
    assert code == 1
    assert out == ""
    assert "no controller is printed" in err


# ---------------------------------------------------------------------------
# simulate


def _synthesized_controller(tmp_path, capsys, model, probs):
    code, out, _ = run_cli(["synthesize", model, "--probs", probs], capsys)
    assert code == 0
    path = tmp_path / "ctrl.json"
    path.write_text(out, encoding="utf-8")
    return str(path)


def test_simulate_header_and_length(tmp_path, scalar_mp, capsys):
    ctrl = _synthesized_controller(tmp_path, capsys, scalar_mp, "0.2")
    code, out, _ = run_cli(
        ["simulate", scalar_mp, "--probs", "0.2", "--controller", ctrl,
         "--steps", "5", "--trials", "3"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "step,exact_trace,mc_trace"
    assert len(lines) == 7
    assert lines[1].startswith("0,")


def test_simulate_zero_drop_matches_exactly(tmp_path, scalar_mp, capsys):
    ctrl = _synthesized_controller(tmp_path, capsys, scalar_mp, "0.2")
    code, out, _ = run_cli(
        ["simulate", scalar_mp, "--probs", "0", "--controller", ctrl,
         "--steps", "12", "--trials", "4"], capsys)
    assert code == 0
    for line in out.strip().split("\n")[1:]:
        _, exact, mc = line.split(",")
        assert exact == mc


def test_simulate_member_point_decays(tmp_path, capsys):
    ctrl = _synthesized_controller(tmp_path, capsys, EXAMPLE, "0.158,0.0128")
    code, out, _ = run_cli(
        ["simulate", EXAMPLE, "--probs", "0.158,0.0128",
         "--controller", ctrl, "--steps", "2000", "--trials", "20"], capsys)
    assert code == 0
    rows = np.array([[float(tok) for tok in line.split(",")]
                     for line in out.strip().split("\n")[1:]])
    exact = rows[:, 1]
    assert exact[-1] < 1e-3 * exact.max()


def test_simulate_requires_controller(scalar_mp, capsys):
    code, _, err = run_cli(
        ["simulate", scalar_mp, "--probs", "0.2"], capsys)
    assert code == 1
    assert "--controller" in err


def test_simulate_validates_steps_and_trials(tmp_path, scalar_mp, capsys):
    # checked before anything is read, so the missing controller never shows
    absent = str(tmp_path / "absent.json")
    for flag, value in (("--steps", "-3"), ("--trials", "0"), ("--seed", "-1")):
        code, out, err = run_cli(
            ["simulate", scalar_mp, "--probs", "0.2", "--controller", absent,
             flag, value], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {flag}: ")


def test_simulate_checks_the_schedule_size_first(monkeypatch, tmp_path, scalar_mp, capsys):
    # a Monte-Carlo schedule too large to draw is refused before the exact
    # trace runs its steps
    ctrl = _synthesized_controller(tmp_path, capsys, scalar_mp, "0.2")
    raise_on_call(monkeypatch, verification.exact_moment_trace)
    code, out, err = run_cli(
        ["simulate", scalar_mp, "--probs", "0.2", "--controller", ctrl,
         "--steps", str(verification.MAX_SIM_BYTES // 8 + 1), "--trials", "1"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: simulation would need ")


def test_simulate_deterministic_seed(tmp_path, scalar_mp, capsys):
    ctrl = _synthesized_controller(tmp_path, capsys, scalar_mp, "0.2")
    argv = ["simulate", scalar_mp, "--probs", "0.2", "--controller", ctrl,
            "--steps", "40", "--trials", "8", "--seed", "3"]
    _, out1, _ = run_cli(argv, capsys)
    _, out2, _ = run_cli(argv, capsys)
    assert out1 == out2


# ---------------------------------------------------------------------------
# supremum


def test_supremum_scalar(scalar_mp, capsys):
    code, out, _ = run_cli(["supremum", scalar_mp], capsys)
    assert code == 0
    assert "unstable poles: 2" in out
    assert "squared-product rule (used for verdicts): 0.25" in out
    assert "linear-product rule (for comparison): 0.5" in out
    assert "per-channel thresholds 0.25" in out


def test_supremum_stable(stable2, capsys):
    code, out, _ = run_cli(["supremum", stable2], capsys)
    assert code == 0
    assert "squared-product rule (used for verdicts): 1" in out
    assert "linear-product rule (for comparison): 1" in out


def test_supremum_nmp_redirects(capsys):
    code, _, err = run_cli(["supremum", EXAMPLE], capsys)
    assert code == 1
    assert "rects" in err


def test_pole_on_the_unit_circle_is_refused(tmp_path, capsys):
    # the pole at 1 is neither stable nor unstable: no command gives
    # channel 2 a threshold or a verdict
    path = _write(tmp_path, "circle.json", {
        "name": "circle", "format": "ss", "channel_zeros": [None, None],
        "ss": {"A": [[2.0, 0.0], [0.0, 1.0]], "B": [[1.0, 0.0], [0.0, 1.0]],
               "C": [[1.0, 0.0], [0.0, 1.0]], "D": [[0.0, 0.0], [0.0, 0.0]]}})
    for argv in (["rects", path], ["supremum", path], ["analyze", path, "--probs", "0.1,0.1"]):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, ""), argv
        assert err == "error: plant pole within 1e-9 of the unit circle\n", argv


# ---------------------------------------------------------------------------
# entry point


def test_no_command_prints_help(capsys):
    code, _, err = run_cli([], capsys)
    assert code == 1
    assert "usage" in err.lower()


def test_unknown_command(capsys):
    code, _, err = run_cli(["frobnicate"], capsys)
    assert code == 1
    assert "error" in err.lower()


def test_missing_model_file(capsys):
    code, _, err = run_cli(["rects", "/nonexistent/model.json"], capsys)
    assert code == 1
    assert "error:" in err
