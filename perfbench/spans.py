"""Span tracing of dropstab's public functions, installed from outside.

The package modules import each other's functions by name
(``from .statespace import minimal``), so one function object is bound in
several module namespaces.  :meth:`Tracer.install` replaces every binding of
each traced function in every loaded ``dropstab`` module with a wrapper that
records a span; :meth:`Tracer.uninstall` puts the originals back.

A span records its name, start, end, parent span and op id.  Self time is
the span's duration minus the durations of its direct children; a root span
per op (opened by the caller with :meth:`Tracer.op`) takes the op's time
outside every traced function, so the self times of one op add up to its
traced wall time, and the non-root ones to the part the traced functions
account for.
"""

import contextlib
import sys
import time

#: traced public functions, by package module
TRACED = {
    "cli": ("load_model",),
    "factorization": ("wonham_decompose", "enumerate_wonham_forms",
                      "coprime_factorize", "bezout", "inner_outer"),
    "statespace": ("minimal", "balanced_truncate", "h2_norm_sq",
                   "stable_part", "realize"),
    "numkernel": ("solve_stein", "eigenvalues", "spectral_radius"),
    "stabilizability": ("rectangle_set", "membership", "sweep_bounds",
                        "phi_diag_entry", "synthesize_Q", "controller",
                        "closed_loop_map", "t_hat"),
    "verification": ("assemble", "second_moment_radius",
                     "exact_moment_trace", "monte_carlo_trace"),
}

OP = "op"


class Tracer:
    """In-memory span recorder plus the counters read at traced boundaries."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, op_id]
        self._stack = []
        self._op_id = None
        self._patches = []       # (module, attribute, original)
        self.counts = {
            "stabilizability.phi_evals": 0,
            "stabilizability.phi_failures": 0,
            "statespace.minimal.order_drop": 0,
            "numkernel.solve_stein.max_order": 0,
            "verification.second_moment_radius.max_order": 0,
        }

    # -- spans --------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._op_id])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, op_id):
        """Root span of one op; every span opened inside carries ``op_id``."""
        self._op_id = op_id
        idx = self._open(OP)
        try:
            yield
        finally:
            self._close(idx)
            self._op_id = None

    # -- counters read from arguments and results ---------------------------

    def _observe(self, name, args, result):
        c = self.counts
        if name == "stabilizability.membership":
            log = result.search_log
            c["stabilizability.phi_evals"] += (log.get("grid_points", 0)
                                               + log.get("refine_evals", 0))
            c["stabilizability.phi_failures"] += log.get("objective_failures", 0)
        elif name == "statespace.minimal":
            c["statespace.minimal.order_drop"] += args[0].order - result.order

    def _observe_args(self, name, args):
        c = self.counts
        if name == "numkernel.solve_stein":
            key = "numkernel.solve_stein.max_order"
            c[key] = max(c[key], len(args[0]))
        elif name == "verification.second_moment_radius":
            key = "verification.second_moment_radius.max_order"
            c[key] = max(c[key], args[0].order)

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            tracer._observe_args(name, args)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer._observe(name, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every binding of the traced functions in loaded dropstab modules."""
        import dropstab  # noqa: F401  (loads the package modules)
        import dropstab.cli  # noqa: F401

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "dropstab" or n.startswith("dropstab."))]
        for mod_name, fnames in TRACED.items():
            home = sys.modules[f"dropstab.{mod_name}"]
            for fname in fnames:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{mod_name}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # -- aggregation --------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the durations of its direct children."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                own[s[3]] -= s[2] - s[1]
        return own

    def per_function(self):
        """``{name: (calls, self_s, total_s)}`` over the traced functions.

        ``total_s`` counts only the outermost span of a name, so recursion
        through a traced function is not counted twice.
        """
        own = self.self_times()
        out = {f"{m}.{f}": [0, 0.0, 0.0] for m, fs in TRACED.items() for f in fs}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if name == OP:
                continue
            row = out[name]
            row[0] += 1
            row[1] += own[i]
            p = parent
            while p is not None and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p is None:
                row[2] += end - start
        return out

    def per_op(self):
        """``{op_id: (traced wall, self time inside traced functions)}``.

        The second figure sums the self times of every span of the op except
        its root.  The root span's self time is the op's time outside every
        traced function (caller code, untraced library code, wrapper cost),
        so the root is left out: the sum then measures how much of the op
        the listed functions account for.
        """
        own = self.self_times()
        out = {}
        for i, (name, start, end, _, op_id) in enumerate(self.spans):
            wall, acc = out.get(op_id, (0.0, 0.0))
            if name == OP:
                wall += end - start
            else:
                acc += own[i]
            out[op_id] = (wall, acc)
        return out
