"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/child.py --src src --result R.json [--spans S.json] -- ARGV...

Imports ``singtrace`` from ``--src``, calls ``singtrace.cli.main(ARGV)`` once
and writes a JSON measurement to ``--result``:

* ``import_s``: time of ``import singtrace`` and ``import singtrace.cli``;
* ``build_s``: time spent inside ``triples.build_model`` calls;
* ``wall_s``: time from the call into ``cli.main`` to its return;
* ``peak_rss_mb``: this process's ``ru_maxrss``;
* ``model_checks``: ``F^2 = 1``, ``F|D| = D`` and ``{Gamma, F} = 0`` residuals
  of every torus model ``build_model`` returned, computed with scipy.

The model checks run inside the ``build_model`` wrapper, right after the
build returns, on a paused clock: their time is subtracted from ``wall_s``
and is not in ``build_s``.  Checking on the spot means no model is kept alive
past its run, which would raise ``peak_rss_mb``.

With ``--spans``, every function in ``LAYERS`` is wrapped with a span and
re-bound in each ``singtrace`` module that imported it by name.  The spans
go to the ``--spans`` file and per-function calls and self time go to the
result.  Without it only ``build_model`` is wrapped, with a bare clock.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import resource
import sys
import threading
import time
from collections import Counter, defaultdict

# module -> functions traced in it; the per-layer metrics are named
# <module>.<function>.calls and <module>.<function>.self_s
LAYERS = {
    "operators": ["phase_modulus", "eigenvalues", "singular_values",
                  "hermitian_calculus", "commutator"],
    "triples": ["build_model", "invertible_double", "resolvent_weight",
                "summability_report"],
    "hochschild": ["chern", "omega", "w_subset", "ch_op", "main_theorem_check",
                   "heat_cycle_trace", "reduction_partial_sum_check"],
    "ideals": ["eigenvalue_partial_sums", "log_fit",
               "universal_measurability_test"],
    "traces": ["heat_functional", "dixmier_logmean", "heat_xi",
               "lemma_estimate_scalings", "measurability_criterion_check",
               "cesaro_cutoff_comparison"],
    "harness": ["run"],
}
# their first argument's dim is summed into operators.spectral_dim
SPECTRAL = {"phase_modulus", "eigenvalues", "singular_values",
            "hermitian_calculus"}


class Tracer:
    """In-memory spans: (id, name, start, end, thread, parent id).

    A span's parent is the innermost open span of its own thread.  A span
    opened on a worker thread with nothing open there takes the innermost
    open span of the main thread, which is the ``harness.run`` that owns
    the pool.
    """

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name, amount):
        # pool threads count too: a bare += can lose an update
        with self._lock:
            self.counters[name] += amount

    @contextlib.contextmanager
    def span(self, name):
        stack = self._stack()
        owner = stack or self._main
        parent = owner[-1] if owner else None
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, threading.get_ident(),
                               parent))

    def summary(self):
        """calls and self time per span name.

        Self time is the span's length minus the length of the union of
        its children's intervals, summed over all spans of that name.
        """
        children = defaultdict(list)
        for sid, _name, start, end, _thread, parent in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        calls, self_s = Counter(), defaultdict(float)
        for sid, name, start, end, _thread, _parent in self.spans:
            covered, reach = 0.0, start
            for lo, hi in sorted(children[sid]):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            calls[name] += 1
            self_s[name] += (end - start) - covered
        return dict(calls), dict(self_s)


def _torus_residuals(model):
    """Sup-norm residuals of F^2 = 1, F|D| = D and {Gamma, F} = 0."""
    import scipy.sparse as sp

    F, absD, D = model.F.sparse(), model.absD.sparse(), model.D.sparse()
    G = model.Gamma.sparse()

    def sup(m):
        return float(abs(m).max()) if m.nnz else 0.0

    return {"model": model.model_id,
            "f_squared": sup(F @ F - sp.identity(model.dim, format="csr")),
            "f_absd": sup(F @ absD - D),
            "gamma_f": sup(G @ F + F @ G)}


def _rebind(modules, original, wrapper):
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", default=None)
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    src = os.path.abspath(args.src)

    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import singtrace
    import singtrace.cli
    import_s = time.perf_counter() - t0
    if not os.path.abspath(singtrace.__file__).startswith(src + os.sep):
        sys.exit(f"singtrace imported from {singtrace.__file__}, not {src}")

    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == "singtrace"
                                     or n.startswith("singtrace."))]
    tracer = Tracer() if args.spans else None
    state = {"build_s": 0.0, "paused_s": 0.0, "models": []}

    def span(name):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    if tracer:
        for mod_name, names in LAYERS.items():
            mod = sys.modules[f"singtrace.{mod_name}"]
            for name in names:
                if mod_name == "triples" and name == "build_model":
                    continue
                fn = getattr(mod, name)

                def traced(*a, _fn=fn, _label=f"{mod_name}.{name}",
                           _spectral=name in SPECTRAL, **k):
                    if _spectral:
                        arg = a[0] if a else next(iter(k.values()))
                        tracer.count("operators.spectral_dim",
                                     int(getattr(arg, "dim", 0)))
                    with tracer.span(_label):
                        return _fn(*a, **k)

                _rebind(modules, fn, functools.wraps(fn)(traced))

    build_model = singtrace.triples.build_model

    @functools.wraps(build_model)
    def timed_build(*a, **k):
        start = time.perf_counter()
        with span("triples.build_model"):
            model = build_model(*a, **k)
        state["build_s"] += time.perf_counter() - start
        if tracer:
            tracer.count("triples.model_dim", int(model.dim))
        if model.name.startswith("nc_torus"):
            start = time.perf_counter()
            with span("perfbench.model_check"):
                state["models"].append(_torus_residuals(model))
            state["paused_s"] += time.perf_counter() - start
        return model

    _rebind(modules, build_model, timed_build)

    start = time.perf_counter()
    try:
        rc = singtrace.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    wall_s = time.perf_counter() - start - state["paused_s"]

    result = {
        "rc": rc,
        "import_s": import_s,
        "build_s": state["build_s"],
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "model_checks": state["models"],
    }
    if tracer:
        calls, self_s = tracer.summary()
        result.update(calls=calls, self_s=self_s,
                      counters=dict(tracer.counters))
        with open(args.spans, "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "thread",
                                  "parent"], "spans": tracer.spans}, fh)
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
