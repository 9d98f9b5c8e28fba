"""Benchmark worker: sets up one workload's inputs, then runs ops on request.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``.  It
imports dropstab, builds the workload's inputs from the seed, and writes one
JSON line ``{"ready": ...}`` to its protocol stream (the original standard
output).  It then reads requests ``{"op": i}`` from standard input and
answers each with one JSON line: ``ok``, the failure ``reason`` if any, the
op ``kind`` and a few facts about the result.  ``{"quit": true}`` makes it
report its peak resident memory and exit.

With ``--trace`` the worker runs one pass over its ops by itself, each op
once untraced and once under the span tracer, and writes one JSON line with
the per-layer numbers and the spans.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import scipy

# library functions are looked up on their modules at call time, so that
# the span wrappers installed there by the traced run see these calls too
from dropstab import cli, factorization, stabilizability, statespace, verification
from dropstab.stabilizability import ChannelSpec

import plants
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXAMPLE = ROOT / "src" / "dropstab" / "data" / "example1.json"
REFERENCE = json.loads((HERE / "reference.json").read_text())

#: the README session, the same for every seed; simulate reads the
#: controller that synthesize wrote
CLI_SESSION = (
    ("rects", []),
    ("analyze", ["--probs", "0.12,0.01"]),
    ("region", ["--grid", "100x100", "--pmax", "0.2,0.03"]),
    ("synthesize", ["--probs", "0.158,0.0128"]),
    ("simulate", ["--probs", "0.158,0.0128", "--controller", "{controller}",
                  "--steps", "2000", "--trials", "200"]),
)

#: search-family: plant structures (core order, unstable poles, zero
#: columns) per channel count; every worker draws two plants of each
SEARCH_STRUCTURES = {
    2: ((2, 1, (0,)), (3, 2, (1,)), (3, 1, (0, 1)), (4, 2, (0,)), (4, 3, ()),
        (4, 2, (0, 1))),
    3: ((3, 1, (0,)), (3, 2, (1, 2)), (4, 2, (0,))),
}
#: probe scales of the largest-volume rectangle vertex
INSIDE = (0.5, 0.95)
OUTSIDE = (1.05, 1.5)
#: verify-order: three plant structures whose closed loops have about 10
#: (traces dominate the op), 21 and 27 states (the O(n^6) kernels dominate;
#: some draws pass the exact-analysis cap of 30 states), in the proportion
#: 2:3:3.  The median op then falls inside the middle group and the p75 tail
#: inside the top one, away from the boundaries between groups, so that the
#: figures depend little on the draw.  The groups alternate, so that any
#: prefix of the op list is a mix.  Each worker draws VERIFY_PER_STRUCTURE
#: plants per slot.  Larger cores with more unstable poles are left out: a
#: minimum-phase draw of them is rare.
VERIFY_STRUCTURES = ((5, 1, (0,)), (8, 2, (0,)), (6, 2, (0,)), (8, 2, (0,)),
                     (5, 1, (0,)), (6, 2, (0,)), (8, 2, (0,)), (6, 2, (0,)))
VERIFY_PER_STRUCTURE = 2
VERIFY_SCALE = (0.5, 0.98)
#: trace lengths of the verification op (the CLI's simulate defaults)
TRACE_STEPS = 2000
TRACE_TRIALS = 200
#: the exact-analysis cap of verification.second_moment_radius, by message
ORDER_CAP_TEXT = "exceeds the exact-analysis cap"
#: probabilities stay inside [0, 1)
P_CEIL = 0.995


class Failed(Exception):
    """An op failed for the named reason of the failure taxonomy."""

    def __init__(self, reason, detail=""):
        super().__init__(detail)
        self.reason = reason


def environment():
    """Facts about the machine and the numeric stack of this process."""
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    blas = deps.get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_cap": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _largest_vertex(plant, zeros):
    rects = stabilizability.rectangle_set(plant, zeros)
    return np.asarray(rects.vertices[int(np.argmax(rects.volumes))])


# ---------------------------------------------------------------------------
# cli-example1


class CliSession:
    """The README session on example1, one CLI command per op."""

    def __init__(self, seed, part, work, in_process):
        self.in_process = in_process
        self.controller = work / "controller.json"
        model = cli.load_model(str(EXAMPLE))
        rects = stabilizability.rectangle_set(model.plant, model.zeros)
        oracle = [np.array([float(Fraction(x)) for x in v]) for v in REFERENCE["vertices"]]
        self.oracle_ok = len(rects.vertices) == len(oracle) and all(
            any(np.max(np.abs(v - w)) <= 1e-9 for v in rects.vertices) for w in oracle)
        self.ops = list(CLI_SESSION)

    def kind(self, i):
        return self.ops[i][0]

    def _run(self, argv):
        if not self.in_process:
            proc = subprocess.run([sys.executable, "-m", "dropstab.cli", *argv],
                                  cwd=ROOT, capture_output=True, check=False)
            return proc.returncode, proc.stdout
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, out.getvalue().encode()

    def run(self, i):
        """Run one command; every way it can go wrong is an output mismatch.

        The session is the same for every seed and succeeds at the seed, so
        a command that raises, exits non-zero or prints other bytes than the
        reference means the program's output changed.
        """
        name, extra = self.ops[i]
        if name == "synthesize":
            # simulate must read the controller of this round's synthesize
            self.controller.unlink(missing_ok=True)
        argv = [name, str(EXAMPLE)] + [a.format(controller=self.controller) for a in extra]
        try:
            code, out = self._run(argv)
        except (Exception, SystemExit) as exc:
            raise Failed("output_mismatch", f"{name} raised {type(exc).__name__}: {exc}") from exc
        if name == "synthesize" and code == 0:
            self.controller.write_bytes(out)
        if hashlib.sha256(out).hexdigest() != REFERENCE["sha256"][name]:
            raise Failed("output_mismatch", f"{name} output differs from the reference")
        if code != 0:
            raise Failed("output_mismatch", f"{name} exited with {code}")
        if name == "rects" and not self.oracle_ok:
            raise Failed("output_mismatch", "rectangle vertices differ from the exact oracle")
        return {}


# ---------------------------------------------------------------------------
# search-family


class SearchFamily:
    """One membership verdict per op, on seeded 2- and 3-channel plants.

    Every structure is drawn twice: one plant gets a probe inside its
    largest-volume rectangle, the other one outside it, so each op runs on a
    plant of its own.  Ops interleave as (r2 inside, r2 outside, r3).
    """

    def __init__(self, seed, part, work, in_process):
        rng = np.random.default_rng([seed, 1, part])
        probes = {}
        for r, structures in SEARCH_STRUCTURES.items():
            probes[r] = []
            for k, (plant, zeros) in enumerate(plants.plant_family(rng, r, structures * 2)):
                inside = k < len(structures)
                scale = rng.uniform(*(INSIDE if inside else OUTSIDE))
                p = np.minimum(scale * _largest_vertex(plant, zeros), P_CEIL)
                probes[r].append((plant, zeros, ChannelSpec(p), inside))
        n2 = len(SEARCH_STRUCTURES[2])
        self.ops = []
        for g in range(n2):
            self.ops += [probes[2][g], probes[2][n2 + g], probes[3][g % len(probes[3])]]

    def kind(self, i):
        return f"r{self.ops[i][2].r}"

    def run(self, i):
        plant, zeros, channels, inside = self.ops[i]
        report = stabilizability.membership(plant, zeros, channels)
        if inside and not report.member:
            raise Failed("output_mismatch", "probe inside a rectangle judged non-member")
        if report.member and not (report.best_value < 1.0
                                  and np.all(channels.p < report.bounds)):
            raise Failed("output_mismatch", "member certificate does not cover the probe")
        return {"member": bool(report.member),
                "phi_failures": report.search_log.get("objective_failures", 0)}


# ---------------------------------------------------------------------------
# verify-order


class VerifyOrder:
    """Synthesis-to-verification chain on higher-order 2-channel plants.

    The certificate is searched in set-up; each op runs the chain that
    ``dropstab synthesize`` runs once it has one, then both traces.
    """

    def __init__(self, seed, part, work, in_process):
        rng = np.random.default_rng([seed, 2, part])
        self.ops = []
        for plant, zeros in plants.plant_family(rng, 2, VERIFY_STRUCTURES * VERIFY_PER_STRUCTURE):
            channels = ChannelSpec(rng.uniform(*VERIFY_SCALE) * _largest_vertex(plant, zeros))
            report = stabilizability.membership(plant, zeros, channels)
            cert = report.tame_certificate or report.certificate
            self.ops.append((plant, zeros, channels, report.member, cert.gamma))

    def kind(self, i):
        return "verify"

    def run(self, i):
        plant, zeros, channels, member, gamma_free = self.ops[i]
        if not member:
            raise Failed("output_mismatch", "probe inside a rectangle judged non-member")
        fz, st, ver = factorization, stabilizability, verification
        Gmu = statespace.scale_io(plant, None, np.diag(channels.mu))
        form = fz.wonham_decompose(Gmu, (0, 1))
        bez = fz.bezout(Gmu, fz.wonham_gain(form), fz.observer_gain(Gmu))
        gamma_true = st._true_gamma(np.asarray(gamma_free, dtype=float), channels)
        Q = st.synthesize_Q(Gmu, bez, gamma_true, zeros)
        K = st.controller(bez, Q)
        T = st.closed_loop_map(Gmu, K)
        analysis = st.ms_radius(st.t_hat(T), channels)
        loop = ver.assemble(plant, K, channels)
        info = {"loop_order": loop.order, "ms_radius": float(analysis)}
        try:
            verify = ver.second_moment_radius(loop)
        except ValueError as exc:
            if ORDER_CAP_TEXT in str(exc):
                raise Failed("order_cap", str(exc)) from exc
            raise
        ver.exact_moment_trace(loop, TRACE_STEPS)
        ver.monte_carlo_trace(loop, TRACE_STEPS, TRACE_TRIALS, seed=0)
        if analysis >= 1.0 or verify >= 1.0:
            raise Failed("radius_ge_1", f"radii {analysis:.6g}, {verify:.6g}")
        info["second_moment_radius"] = float(verify)
        return info


WORKLOADS = {
    "cli-example1": CliSession,
    "search-family": SearchFamily,
    "verify-order": VerifyOrder,
}


def run_op(workload, i):
    """One op as a reply record; every exception is a counted failure."""
    try:
        info = workload.run(i)
        return {"ok": True, "reason": None, "kind": workload.kind(i), "info": info}
    except Failed as exc:
        reason, detail = exc.reason, str(exc)
    except Exception as exc:  # noqa: BLE001  (any library error fails the op)
        reason, detail = "exception", f"{type(exc).__name__}: {exc}"
    return {"ok": False, "reason": reason, "kind": workload.kind(i),
            "info": {"detail": detail[:200]}}


def peak_rss_kb():
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def traced_pass(workload):
    """Each op once untraced and once traced, alternating which goes first."""
    tracer = spans.Tracer()
    untraced, traced, records = [], [], []
    for i in range(len(workload.ops)):
        for first_traced in ((i % 2 == 1), (i % 2 == 0)):
            if first_traced:
                tracer.install()
                t0 = time.perf_counter()
                with tracer.op(i):
                    rec = run_op(workload, i)
                traced.append(time.perf_counter() - t0)
                tracer.uninstall()
                records.append(rec)
            else:
                t0 = time.perf_counter()
                run_op(workload, i)
                untraced.append(time.perf_counter() - t0)
    per_op = tracer.per_op()
    accounting = [{"op": i, "kind": workload.kind(i), "untraced_s": untraced[i],
                   "traced_s": traced[i], "in_spans_s": per_op[i][1]}
                  for i in range(len(workload.ops))]
    return {
        "records": records,
        "functions": tracer.per_function(),
        "counts": tracer.counts,
        "untraced_s": sum(untraced),
        "traced_s": sum(traced),
        "accounting": accounting,
        "spans": tracer.spans,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--part", type=int, default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    # the protocol owns the real stdout; library prints go to stderr
    proto = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = sys.stderr
    warnings.simplefilter("ignore", RuntimeWarning)
    work = Path(args.work)
    workload = WORKLOADS[args.workload](args.seed, args.part, work, in_process=args.trace)

    def send(obj):
        proto.write(json.dumps(obj) + "\n")
        proto.flush()

    if args.trace:
        result = traced_pass(workload)
        result["env"] = environment()
        send(result)
        return
    send({"ready": True, "n_ops": len(workload.ops), "env": environment()})
    for line in sys.stdin:
        req = json.loads(line)
        if req.get("quit"):
            send({"peak_rss_kb": peak_rss_kb()})
            return
        send(run_op(workload, req["op"]))


if __name__ == "__main__":
    main()
