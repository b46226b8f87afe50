"""Spans around the calls into quasinv's public functions, from outside.

Inside `with Tracer().active():` every public function defined in a
quasinv module is replaced by a wrapper that records one span per call:
the function's name, start, end and the index of the enclosing span.  Every binding of the
function is replaced, not only the defining module's attribute, so
`from .lattice import act` in cocycle, compact, qmc, gns and states is
traced too.  Spans stay in memory (four flat arrays) until `save`.

A layer is a module.  A span's self time is its duration minus the
durations of its direct child spans; a layer's self time sums its spans'
self times.
"""

import contextlib
import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("matcore", "lattice", "states", "cocycle", "qmc", "gns", "compact", "limits", "cli")
SCENARIOS = ("product", "markov", "trivial", "sw_solutions", "convergence", "structure")


class Tracer:
    """Spans of the traced calls, as parallel arrays indexed by span."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.law_pairs = 0  # |G|^2 per verify_cocycle_law call, read from its table
        self._stack = [-1]
        self._restore = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, qualname, fn):
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter
        fixed_id = self._id(qualname)
        counts_pairs = qualname == "cocycle.verify_cocycle_law"
        if qualname == "cli.run_scenario":
            def span_id(args):
                return self._id(f"cli.run_scenario.{args[0].scenario}")
        else:
            def span_id(args):
                return fixed_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(span_id(args))
            parents.append(stack[-1])
            ends.append(0.0)
            if counts_pairs:
                self.law_pairs += len(args[0].group) ** 2
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def active(self, extra_modules=()):
        """Wrap every public function of the layers and rebind each reference
        to it in quasinv's modules and in `extra_modules`; restore on exit."""
        self._install(extra_modules)
        try:
            yield self
        finally:
            self._uninstall()

    def _install(self, extra_modules):
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"quasinv.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        holders = [m for n, m in sys.modules.items() if n.startswith("quasinv")]
        holders += list(extra_modules)
        for mod in holders:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, obj))

    def _uninstall(self):
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    def arrays(self):
        return (np.array(self.name, dtype=np.int32), np.array(self.parent, dtype=np.int32),
                np.array(self.start, dtype=np.float64), np.array(self.end, dtype=np.float64))

    def save(self, path):
        name, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name, parent=parent,
                            start=start, end=end)

    def summary(self):
        """Per span name: calls, inclusive seconds and self seconds."""
        name, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name, weights=dur, minlength=k)
        self_s = np.bincount(name, weights=own, minlength=k)
        out = {n: {"calls": int(calls[i]), "incl_s": float(incl[i]), "self_s": float(self_s[i])}
               for i, n in enumerate(self.names)}
        # density rebuilds made inside evaluate, per evaluate call
        ev, fd = self._ids.get("states.evaluate"), self._ids.get("states.full_density")
        inside = 0
        if ev is not None and fd is not None:
            inside = int(np.count_nonzero((name == fd) & has_parent
                                          & (name[np.where(has_parent, parent, 0)] == ev)))
        out["_full_density_in_evaluate"] = inside
        return out


def layer_metrics(summary, law_pairs):
    """The per-layer metric values, named as in BENCHMARK.json (without the
    trace.* entries, which the worker adds)."""
    def get(name, field):
        return summary.get(name, {}).get(field, 0)

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v["self_s"] for n, v in summary.items()
                                   if n.startswith(layer + "."))
    for fn in ("states.evaluate", "states.centralizer_residual", "states.default_probes",
               "lattice.act", "lattice.embed",
               "cocycle.verify_cocycle_law", "cocycle.verify_quasi_invariance",
               "cocycle.verify_strong", "cocycle.power_relation_check", "cocycle.build_table",
               "compact.haar_average", "compact.verify_umegaki", "compact.fixed_point_basis",
               "compact.verify_structure",
               "qmc.sandwich_residual", "qmc.extension_residual",
               "gns.verify_covariance", "gns.verify_lifted_expectation",
               "gns.verify_unitaries", "gns.build_unitaries", "gns.cyclicity_rank",
               "matcore.operator_norm", "matcore.matrix_power",
               "limits.cauchy_diagnostic", "cli.render_report"):
        m[f"{fn}.self_s"] = get(fn, "self_s")
    for fn in ("states.evaluate", "states.full_density", "lattice.act",
               "compact.haar_average", "qmc.ordered_product", "matcore.operator_norm"):
        m[f"{fn}.calls"] = get(fn, "calls")
    evaluations = get("states.evaluate", "calls")
    m["states.full_density.per_evaluate"] = (
        summary["_full_density_in_evaluate"] / evaluations if evaluations else 0.0)
    m["cocycle.verify_cocycle_law.pairs"] = law_pairs
    for sc in SCENARIOS:
        m[f"cli.run_scenario.{sc}_s"] = get(f"cli.run_scenario.{sc}", "incl_s")
    return m
