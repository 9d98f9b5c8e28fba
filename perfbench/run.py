"""dropstab benchmark: drives the public pipeline from outside, one client.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N

Workloads:

* ``cli-example1``: the README session on the packaged example1.json, each
  command a ``python -m dropstab.cli`` subprocess (import included), outputs
  checked against reference digests.
* ``search-family``: one ``membership`` verdict per op on seeded 2- and
  3-channel plants, probes inside and outside the largest rectangle.
* ``verify-order``: the synthesis-to-verification chain on seeded
  higher-order 2-channel plants; certificates are searched in set-up.

An untraced run starts ``WORKERS`` worker processes one after the other.
Each imports dropstab and builds its own inputs from the seed (set-up), then
runs whole rounds over them, one op at a time on request, for about its
share of ``--seconds``.  The client times set-up and each op from outside.
A traced run (``--trace 1``) starts one worker that runs each op of the
first worker's round once untraced and once under span wrappers, and
reports per-layer numbers.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import math
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from spans import TRACED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("cli-example1", "search-family", "verify-order")
#: set-ups per untraced run; set-up time is their median
WORKERS = 3
#: BLAS threads of every process the benchmark starts (at most nproc)
BLAS_THREADS = "1"
#: percentiles a tail may be reported at; the highest with >= TAIL_BEYOND
#: samples beyond it is used
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10
#: no single run may take longer than this
RUN_DEADLINE_S = 170
#: import-time probes in a traced run (median reported)
IMPORT_PROBES = 3
FAIL_REASONS = ("exception", "radius_ge_1", "order_cap", "output_mismatch")
CLI_COMMANDS = ("rects", "analyze", "region", "synthesize", "simulate")

class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


# ---------------------------------------------------------------------------
# statistics


def ranked(times, n_failed):
    """Sorted op times with each failure ranked slower than every success."""
    return sorted(times) + [math.inf] * n_failed


def median(values):
    return statistics.median(values) if values else math.nan


def percentile(values, q):
    """Nearest-rank percentile of sorted values."""
    k = max(1, math.ceil(q / 100.0 * len(values)))
    return values[k - 1]


def tail(values):
    """(percentile, value) at the highest ladder step with enough beyond it."""
    best = LADDER[0]
    for q in LADDER:
        if len(values) - math.ceil(q / 100.0 * len(values)) >= TAIL_BEYOND:
            best = q
    return best, percentile(values, best) if values else math.nan


def summarize(ops, kind):
    """(median, count) of the op times of one kind, failures ranked last."""
    sel = [o for o in ops if o["kind"] == kind]
    vals = ranked([o["t"] for o in sel if o["ok"]], sum(not o["ok"] for o in sel))
    return median(vals), len(vals)


# ---------------------------------------------------------------------------
# workers


class Worker:
    def __init__(self, workload, seed, part, trace=False):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--part", str(part), "--work", str(WORK)]
        if trace:
            cmd.append("--trace")
        self.t_start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def recv(self):
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait()
            raise BenchError(f"worker exited with code {self.proc.returncode}")
        return json.loads(line)

    def send(self, obj):
        self.proc.stdin.write(json.dumps(obj) + "\n")
        self.proc.stdin.flush()

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def run_untraced(workload, seed, seconds):
    """Set up WORKERS times; after each set-up run whole rounds of its ops.

    A round is one pass over the worker's op list.  A worker runs another
    round only while that is expected to fit in its share of ``seconds``
    (at least one), so every run measures whole rounds and the mix of ops
    does not depend on where a time limit happens to cut.
    """
    setups, peaks, ops, env = [], [], [], None
    timed = 0.0
    share = seconds / WORKERS
    for part in range(WORKERS):
        w = Worker(workload, seed, part)
        try:
            ready = w.recv()
            setups.append(time.perf_counter() - w.t_start)
            env = ready["env"]
            spent = last = 0.0
            while spent == 0.0 or spent + last <= share:
                last = 0.0
                for i in range(ready["n_ops"]):
                    t0 = time.perf_counter()
                    w.send({"op": i})
                    rec = w.recv()
                    rec["t"] = time.perf_counter() - t0
                    last += rec["t"]
                    ops.append(rec)
                spent += last
            timed += spent
            w.send({"quit": True})
            peaks.append(w.recv()["peak_rss_kb"])
            w.proc.wait()
        finally:
            w.close()
    return {"setups": setups, "peaks": peaks, "ops": ops, "timed": timed, "env": env}


def untraced_metrics(workload, res):
    """Every end-to-end metric of one workload: {name: (value, unit, n)}."""
    ops = res["ops"]
    n_ok = sum(o["ok"] for o in ops)
    vals = ranked([o["t"] for o in ops if o["ok"]], len(ops) - n_ok)
    q, tail_value = tail(vals)
    m = {
        "setup_s": (median(res["setups"]), "s", len(res["setups"])),
        "peak_rss_mb": (max(res["peaks"]) / 1024.0, "MB", len(res["peaks"])),
        "fail_ratio": ((len(ops) - n_ok) / len(ops), "ratio", len(ops)),
        "ops_per_s": (n_ok / res["timed"], "1/s", len(ops)),
        "op_p50_s": (percentile(vals, 50.0), "s", len(vals)),
        "op_tail_s": (tail_value, "s", len(vals)),
    }
    extra = {"tail_percentile": q}
    if workload == "cli-example1":
        for cmd in CLI_COMMANDS:
            v, n = summarize(ops, cmd)
            m[f"cli.{cmd}_s"] = (v, "s", n)
    elif workload == "search-family":
        for r in (2, 3):
            v, n = summarize(ops, f"r{r}")
            m[f"search.verdict_r{r}_s"] = (v, "s", n)
        verdicts = [o for o in ops if o["ok"]]
        extra["member_share"] = (sum(o["info"]["member"] for o in verdicts)
                                 / max(1, len(verdicts)))
        extra["phi_failures"] = sum(o["info"]["phi_failures"] for o in verdicts)
    else:
        orders = [o["info"]["loop_order"] for o in ops if "loop_order" in o["info"]]
        if orders:
            extra["loop_order_range"] = [min(orders), max(orders)]
    return m, extra


# ---------------------------------------------------------------------------
# traced run


def import_times():
    """Median cumulative import time of dropstab and scipy.optimize, in s."""
    found = {"dropstab": [], "scipy.optimize": []}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import dropstab"],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              check=True)
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*(\S+)\s*$", line)
            if m and m.group(2) in found:
                found[m.group(2)].append(int(m.group(1)) * 1e-6)
    return {k: median(v) for k, v in found.items()}


def run_traced(workload, seed):
    w = Worker(workload, seed, 0, trace=True)
    try:
        res = w.recv()
        w.proc.wait()
    finally:
        w.close()
    res["imports"] = import_times()
    return res


def traced_metrics(res):
    """Every per-layer metric: {name: (value, unit, n)}."""
    m = {}
    n_ops = len(res["records"])
    for mod, fnames in TRACED.items():
        for f in fnames:
            calls, self_s, total_s = res["functions"][f"{mod}.{f}"]
            m[f"{mod}.{f}.calls"] = (calls, "count", n_ops)
            m[f"{mod}.{f}.self_s"] = (self_s, "s", n_ops)
            m[f"{mod}.{f}.total_s"] = (total_s, "s", n_ops)
    c = res["counts"]
    evals, fails = c["stabilizability.phi_evals"], c["stabilizability.phi_failures"]
    m["stabilizability.phi_evals"] = (evals, "count", n_ops)
    m["stabilizability.phi_failures"] = (fails, "count", n_ops)
    m["stabilizability.phi_fail_ratio"] = (fails / evals if evals else 0.0, "ratio", n_ops)
    m["statespace.minimal.order_drop"] = (c["statespace.minimal.order_drop"], "states", n_ops)
    m["numkernel.solve_stein.max_order"] = (c["numkernel.solve_stein.max_order"], "states", n_ops)
    m["verification.second_moment_radius.max_order"] = (
        c["verification.second_moment_radius.max_order"], "states", n_ops)
    m["import.dropstab_s"] = (res["imports"]["dropstab"], "s", IMPORT_PROBES)
    m["import.scipy_optimize_s"] = (res["imports"]["scipy.optimize"], "s", IMPORT_PROBES)
    m["trace.overhead_ratio"] = (res["traced_s"] / res["untraced_s"], "ratio", n_ops)
    in_spans = sum(a["in_spans_s"] for a in res["accounting"])
    m["trace.span_coverage"] = (in_spans / res["traced_s"], "ratio", n_ops)
    return m


# ---------------------------------------------------------------------------
# report


def tally(records):
    counts = Counter(r["reason"] for r in records if not r["ok"])
    return {f"fail.{k}": counts.get(k, 0) for k in FAIL_REASONS}


def _num(x):
    return None if isinstance(x, float) and not math.isfinite(x) else x


def print_report(workload, metrics, records, extra, env):
    print(f"== {workload}")
    print(f"   environment: {json.dumps(env, sort_keys=True)}")
    width = max(len(k) for k in metrics)
    for name, (value, unit, n) in metrics.items():
        print(f"   {name:<{width}}  {value:>14.6g} {unit:<6} n={n}")
    fails = tally(records)
    print(f"   failures: {sum(fails.values())}/{len(records)} "
          + " ".join(f"{k}={v}" for k, v in fails.items()))
    for k, v in extra.items():
        print(f"   {k}: {v}")


def result_line(records, metrics):
    fails = tally(records)
    return {
        "correct": fails["fail.output_mismatch"] == 0,
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
        "metrics": {k: {"value": _num(v), "unit": u} for k, (v, u, _) in metrics.items()},
    }


def bench(workload, seed, seconds, trace, names):
    """Run one workload; returns (records, metrics restricted to ``names``)."""
    if trace:
        res = run_traced(workload, seed)
        metrics = traced_metrics(res)
        records = res["records"]
        acc = res["accounting"]
        covered = [a["in_spans_s"] / a["traced_s"] for a in acc]
        accounted = [a["in_spans_s"] / a["untraced_s"] for a in acc]
        worst = min(range(len(acc)), key=covered.__getitem__)
        extra = {
            "traced_s": res["traced_s"], "untraced_s": res["untraced_s"],
            "span self time / traced wall per op (median, min)":
                f"{median(covered):.4f}, {covered[worst]:.4f} (op {worst}, {acc[worst]['kind']})",
            "span self time / untraced wall per op (median, min, max)":
                f"{median(accounted):.4f}, {min(accounted):.4f}, {max(accounted):.4f}",
            "spans": len(res["spans"]),
        }
        (WORK / f"spans-{workload}-{seed}.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op"], "spans": res["spans"],
             "per_op": acc}))
    else:
        res = run_untraced(workload, seed, seconds)
        metrics, extra = untraced_metrics(workload, res)
        records = res["ops"]
    print_report(workload, metrics, records, extra, res["env"])
    if names is not None:
        metrics = {k: metrics[k] for k in names}
    return records, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "dropstab" / "__init__.py").is_file():
        print(f"error: no dropstab sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    key = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in spec[key]]

    def on_deadline(signum, frame):
        raise BenchError(f"run exceeded {RUN_DEADLINE_S} s")

    WORK.mkdir(exist_ok=True)
    # compile once so that no timed process pays for byte-compiling
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "dropstab"),
                    str(HERE)], check=True, env=child_env(), stdout=subprocess.DEVNULL)
    try:
        if args.workload != "all":
            signal.signal(signal.SIGALRM, on_deadline)
            signal.alarm(RUN_DEADLINE_S)
            records, metrics = bench(args.workload, args.seed, seconds, args.trace, names)
            signal.alarm(0)
            line = result_line(records, metrics)
        else:
            line = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for w in WORKLOADS:
                records, metrics = bench(w, args.seed, seconds, args.trace, None)
                part = result_line(records, metrics)
                line["correct"] &= part["correct"]
                line["attempted"] += part["attempted"]
                line["failed"] += part["failed"]
                line["metrics"].update({f"{w}/{k}": v for k, v in part["metrics"].items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
