"""What the benchmark harness in ``perfbench/`` reads from the library.

The benchmark worker calls library functions through their modules, the
traced worker wraps every function listed in ``perfbench/spans.py`` by
looking it up on its module, and both read a few report fields; a renamed
or deleted one kills the worker, and the run then prints no result line.
The harness also checks the example1 CLI session against the output
digests in ``perfbench/reference.json``.
"""

import ast
import dataclasses
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import EXAMPLE_ZEROS, VERTEX_21
from dropstab import stabilizability
from dropstab.stabilizability import ChannelSpec, membership

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SPANS = PERFBENCH / "spans.py"
WORKER = PERFBENCH / "worker.py"

#: runs the worker's CLI session in process and prints each command's exit
#: code and stdout SHA-256 as JSON; argv: perfbench dir, controller path
SESSION_SCRIPT = """
import contextlib, hashlib, io, json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from worker import CLI_SESSION, EXAMPLE
from dropstab import cli
controller = Path(sys.argv[2])
digests = {}
for name, extra in CLI_SESSION:
    argv = [name, str(EXAMPLE)] + [a.format(controller=controller) for a in extra]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    data = out.getvalue().encode()
    if name == "synthesize":
        controller.write_bytes(data)
    digests[name] = [code, hashlib.sha256(data).hexdigest()]
print(json.dumps(digests))
"""


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _python(*args, **env):
    """Run a fresh interpreter on the repository's ``src`` with ``env`` added
    to the environment; returns the finished process."""
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True)


def test_package_import_loads_every_traced_module():
    # the tracer looks its modules up in sys.modules after importing
    # dropstab and dropstab.cli, so those two imports must load them all
    loaded = _python("-c", "import sys, dropstab, dropstab.cli; print(*sys.modules)")
    loaded = loaded.stdout.split()
    missing = [m for m in _spans().TRACED if f"dropstab.{m}" not in loaded]
    assert missing == []


def test_import_probe_times_scipy_optimize():
    # the traced run reports import.scipy_optimize_s from this probe, as
    # perfbench/run.py:import_times makes it; without a scipy.optimize line
    # the metric is null and the run's result line is malformed.  So
    # `import dropstab` must import scipy.optimize until ROADMAP item 6
    # reports an absent module as 0 s, which lifts this constraint.
    probe = _python("-X", "importtime", "-c", "import dropstab").stderr
    modules = re.findall(r"^import time:\s+\d+\s+\|\s+\d+\s+\|\s*(\S+)\s*$", probe,
                         re.MULTILINE)
    assert "dropstab" in modules
    assert "scipy.optimize" in modules


def test_traced_functions_resolve():
    for mod_name, fnames in _spans().TRACED.items():
        home = importlib.import_module(f"dropstab.{mod_name}")
        for fname in fnames:
            assert callable(getattr(home, fname, None)), f"{mod_name}.{fname}"


def _library_reads(path):
    """Every ``<module>.<name>`` read in the file at ``path`` whose left side
    is a dropstab module: imported from ``dropstab`` or a tuple-assigned
    alias of such a name (``fz, st = factorization, stabilizability``).
    Returns (module, attribute, line) triples, and the names imported with
    ``from dropstab.<module> import ...``."""
    tree = ast.parse(path.read_text(), str(path))
    modules, imported = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "dropstab":
            modules.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("dropstab."):
            imported += [(node.module, a.name, node.lineno) for a in node.names]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple)
                and len(node.targets) == 1 and isinstance(node.targets[0], ast.Tuple)):
            for target, value in zip(node.targets[0].elts, node.value.elts):
                if isinstance(value, ast.Name) and value.id in modules:
                    modules[target.id] = modules[value.id]
    reads = [(f"dropstab.{modules[node.value.id]}", node.attr, node.lineno)
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in modules]
    return reads, imported


def test_worker_library_names_resolve():
    # a deleted or renamed library name kills the worker that reads it,
    # the verify-order worker included, which the gated runs never start
    reads, imported = _library_reads(WORKER)
    assert {mod for mod, _, _ in reads} == {
        f"dropstab.{m}" for m in ("cli", "factorization", "stabilizability",
                                  "statespace", "verification")}
    for mod, name, line in reads + imported:
        assert hasattr(importlib.import_module(mod), name), f"worker.py:{line}: {mod}.{name}"


def test_report_fields_the_worker_reads(example_ss):
    report = membership(example_ss, EXAMPLE_ZEROS,
                        ChannelSpec(0.9 * np.asarray(VERTEX_21)))
    assert report.member
    assert report.tame_certificate.gamma[0] == 1.0
    assert report.certificate.gamma[0] == 1.0
    assert report.best_value < 1.0
    assert np.all(report.bounds > 0.0)
    for key in ("grid_points", "refine_evals", "objective_failures"):
        assert key in report.search_log, key


def test_tracer_counts_the_search(example_ss):
    tracer = _spans().Tracer()
    tracer.install()
    try:
        with tracer.op(0):
            report = stabilizability.membership(example_ss, EXAMPLE_ZEROS,
                                                ChannelSpec([0.12, 0.01]))
    finally:
        tracer.uninstall()
    log = report.search_log
    assert tracer.counts["stabilizability.phi_evals"] == (
        log["grid_points"] + log["refine_evals"])
    assert tracer.per_function()["stabilizability.membership"][0] == 1


def _reference_blas() -> bool:
    """Whether numpy runs on the BLAS the reference digests were recorded on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return ("openblas" in str(blas.get("name", "")).lower()
            and str(blas.get("version", "")).startswith("0.3.31")
            and platform.machine() in ("x86_64", "AMD64"))


@pytest.mark.skipif(not _reference_blas(),
                    reason="example1 digests were recorded with OpenBLAS 0.3.31 "
                           "on x86-64; other BLAS builds round differently")
def test_example_session_bytes_match_reference(tmp_path):
    # one BLAS thread, as in the recording: threaded BLAS changes the last
    # bits of the synthesize and simulate numbers
    got = json.loads(_python("-c", SESSION_SCRIPT, str(PERFBENCH),
                             str(tmp_path / "controller.json"),
                             OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                             MKL_NUM_THREADS="1").stdout)
    want = json.loads((PERFBENCH / "reference.json").read_text())["sha256"]
    assert list(got) == list(want)
    for name, (code, digest) in got.items():
        assert code == 0, name
        assert digest == want[name], name


def _report_bytes(report) -> bytes:
    """Every field of a membership report as bytes: floats and arrays by
    their bits, the search log by its sorted items, the Pick data the search
    ran on by its parts and rows."""
    assert [f.name for f in dataclasses.fields(report)] == [
        "member", "best_value", "certificate", "bounds", "search_log",
        "problem", "tame_certificate"]
    tame = report.tame_certificate
    return b"|".join([
        repr(report.member).encode(),
        float(report.best_value).hex().encode(),
        report.certificate.gamma.tobytes(),
        report.bounds.tobytes(),
        repr(sorted(report.search_log.items())).encode(),
        report.problem._parts.tobytes() + report.problem._rhs.tobytes(),
        b"None" if tame is None else tame.gamma.tobytes(),
    ])


#: SHA-256 of ``_report_bytes`` of the search-family verdicts of seeds 1-3,
#: parts 0-2, each two-channel op followed by its ``sweep_bounds`` array
SEARCH_DIGEST = "ee2c8ea901d2f281acb182214467451f87d20e859efb2388bc3713464bddcb16"


@pytest.mark.skipif(not _reference_blas(),
                    reason="the search digest was recorded with OpenBLAS 0.3.31 "
                           "on x86-64; other BLAS builds round differently")
def test_search_reports_match_reference(monkeypatch):
    # the gamma search bit for bit: every field of 162 seeded membership
    # reports (the search-family probes, 2 and 3 channels) and the 108
    # two-channel sweeps; the same bits under one and two BLAS threads
    monkeypatch.syspath_prepend(str(PERFBENCH))
    worker = importlib.import_module("worker")
    digest = hashlib.sha256()
    for seed in (1, 2, 3):
        for part in (0, 1, 2):
            for plant, zeros, channels, _ in worker.SearchFamily(seed, part, None, True).ops:
                digest.update(_report_bytes(stabilizability.membership(plant, zeros, channels)))
                if channels.r == 2:
                    digest.update(stabilizability.sweep_bounds(plant, zeros).tobytes())
    assert digest.hexdigest() == SEARCH_DIGEST
