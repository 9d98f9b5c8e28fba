"""The names the benchmark harness in ``perfbench/`` reads from the library.

The traced benchmark worker wraps every function listed in
``perfbench/spans.py`` by looking it up on its module, and reads a few
report fields; a renamed or deleted one kills the worker, and the run then
prints no result line.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from conftest import EXAMPLE_ZEROS, VERTEX_21
from dropstab import stabilizability
from dropstab.stabilizability import ChannelSpec, membership

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
