"""What the benchmark harness in ``perfbench/`` reads from the library.

The traced benchmark worker wraps every function listed in
``perfbench/spans.py`` by looking it up on its module, and reads a few
report fields; a renamed or deleted one kills the worker, and the run then
prints no result line.  The harness also checks the example1 CLI session
against the output digests in ``perfbench/reference.json``.
"""

import importlib
import importlib.util
import json
import os
import platform
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


def test_traced_functions_resolve():
    for mod_name, fnames in _spans().TRACED.items():
        home = importlib.import_module(f"dropstab.{mod_name}")
        for fname in fnames:
            assert callable(getattr(home, fname, None)), f"{mod_name}.{fname}"


def test_report_fields_the_worker_reads(example_ss):
    assert callable(stabilizability._true_gamma)
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
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", SESSION_SCRIPT, str(PERFBENCH),
         str(tmp_path / "controller.json")],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    got = json.loads(proc.stdout)
    want = json.loads((PERFBENCH / "reference.json").read_text())["sha256"]
    assert list(got) == list(want)
    for name, (code, digest) in got.items():
        assert code == 0, name
        assert digest == want[name], name
