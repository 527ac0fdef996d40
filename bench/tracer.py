"""Span tracer that measures the program's layers from outside.

The tracer replaces each traced function with a wrapper wherever callers look
it up: every ``macroreal`` module attribute bound to the function, or the
class attribute for methods and constructors. The program's source is not
touched. Spans (name, start, end, parent, request) are kept in memory and
written out by ``dump`` when the run ends.
"""

from __future__ import annotations

import functools
import os
import sys
import time

import numpy as np

# (module, attribute path, metric name). A class's constructor is traced
# through its __init__ and reported under the class name.
TARGETS = (
    ("hilbert", "operator_norm", "hilbert.operator_norm"),
    ("hilbert", "DensityState.__init__", "hilbert.DensityState"),
    ("hilbert", "coherent_state", "hilbert.coherent_state"),
    ("instruments", "projective_family", "instruments.projective_family"),
    ("instruments", "KrausFamily.__post_init__", "instruments.KrausFamily.__post_init__"),
    ("instruments", "KrausFamily.completeness_operator", "instruments.KrausFamily.completeness_operator"),
    ("instruments", "KrausFamily.dense_ops", "instruments.KrausFamily.dense_ops"),
    ("instruments", "KrausFamily.channel", "instruments.KrausFamily.channel"),
    ("instruments", "coherent_columns", "instruments.coherent_columns"),
    ("instruments", "coherent_coarse_family", "instruments.coherent_coarse_family"),
    ("instruments", "fock_bin_family", "instruments.fock_bin_family"),
    ("scenario", "Scenario.__init__", "scenario.Scenario"),
    ("scenario", "joint_distribution", "scenario.joint_distribution"),
    ("scenario", "marginalize", "scenario.marginalize"),
    ("conditions", "mr012_check", "conditions.mr012_check"),
    ("conditions", "lgi_012", "conditions.lgi_012"),
    ("conditions", "nic_012", "conditions.nic_012"),
    ("mach_zehnder", "verify_lattice", "mach_zehnder.verify_lattice"),
    ("mach_zehnder", "numeric_residuals", "mach_zehnder.numeric_residuals"),
    ("mach_zehnder", "analytic_residuals", "mach_zehnder.analytic_residuals"),
    ("mach_zehnder", "mz_scenario", "mach_zehnder.mz_scenario"),
    ("mach_zehnder", "calibrate_convention", "mach_zehnder.calibrate_convention"),
    ("overlap", "fock_overlap", "overlap.fock_overlap"),
    ("overlap", "ring_overlap", "overlap.ring_overlap"),
    ("overlap", "cell_overlap", "overlap.cell_overlap"),
    ("overlap", "coherent_delta_overlap", "overlap.coherent_delta_overlap"),
    ("overlap", "husimi", "overlap.husimi"),
    ("overlap", "bhattacharyya", "overlap.bhattacharyya"),
    ("overlap", "quadrature_overlap_numeric", "overlap.quadrature_overlap_numeric"),
    ("overlap", "coherent_x_overlap", "overlap.coherent_x_overlap"),
    ("cli", "main", "cli.main"),
    ("cli", "write_rows", "cli.write_rows"),
)

MODULES = ("hilbert", "instruments", "scenario", "conditions", "mach_zehnder", "overlap", "cli")

COUNTS = (
    "scenario.joint_distribution.table_entries",
    "instruments.coherent_columns.elements",
    "cli.output_bytes",
)


def _bound(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_table(tracer, args, kwargs, result):
    scenario = _bound(args, kwargs, 0, "scenario")
    measured = _bound(args, kwargs, 1, "measured")
    if measured is None:
        measured = range(scenario.n_slots)
    tracer.counts["scenario.joint_distribution.table_entries"] += int(result.values.size)
    # the scenario is kept alive so its id cannot be reused by a later one
    tracer.tables.add((id(scenario), tuple(sorted(measured))))
    tracer.keep.append(scenario)


def _count_columns(tracer, args, kwargs, result):
    tracer.counts["instruments.coherent_columns.elements"] += int(result.size)


def _count_output(tracer, args, kwargs, result):
    config = _bound(args, kwargs, 2, "config")
    if config.out:
        tracer.counts["cli.output_bytes"] += os.path.getsize(config.out)


HOOKS = {
    "scenario.joint_distribution": _count_table,
    "instruments.coherent_columns": _count_columns,
    "cli.write_rows": _count_output,
}


class Tracer:
    """Wraps the traced functions while installed and records their spans."""

    def __init__(self):
        self.names = [name for _, _, name in TARGETS]
        self.request = -1
        self._stack = []
        self._name = []
        self._parent = []
        self._request = []
        self._start = []
        self._end = []
        self._child = []
        self._undo = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.tables = set()
        self.keep = []

    def install(self) -> None:
        loaded = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "macroreal"]
        for index, (module, path, name) in enumerate(TARGETS):
            owner = sys.modules[f"macroreal.{module}"]
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = owner.__dict__[parts[-1]]
            wrapper = self._wrap(index, original, HOOKS.get(name))
            if len(parts) > 1:
                self._patch(owner, parts[-1], original, wrapper)
                continue
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, index, fn, hook):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(tracer._start)
            tracer._name.append(index)
            tracer._parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer._request.append(tracer.request)
            tracer._child.append(0)
            tracer._end.append(0)
            tracer._stack.append(span)
            tracer._start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer._stack.pop()
                tracer._end[span] = end
                parent = tracer._parent[span]
                if parent >= 0:
                    tracer._child[parent] += end - tracer._start[span]
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    def metrics(self) -> dict:
        """Calls and self time per traced function and module, plus counters."""
        names = np.asarray(self._name, dtype=np.int64)
        duration = np.asarray(self._end, dtype=np.int64) - np.asarray(self._start, dtype=np.int64)
        self_ns = duration - np.asarray(self._child, dtype=np.int64)
        calls = np.bincount(names, minlength=len(self.names))
        self_s = np.bincount(names, weights=self_ns, minlength=len(self.names)) / 1e9
        out = {}
        module_s = dict.fromkeys(MODULES, 0.0)
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = (int(calls[i]), "count")
            out[f"{name}.self_s"] = (float(self_s[i]), "s")
            module_s[name.split(".")[0]] += float(self_s[i])
        for module, value in module_s.items():
            out[f"{module}.self_s"] = (value, "s")
        for name, value in self.counts.items():
            out[name] = (int(value), "count" if not name.endswith("bytes") else "bytes")
        table_calls = int(calls[self.names.index("scenario.joint_distribution")])
        ratio = len(self.tables) / table_calls if table_calls else 0.0
        out["conditions.distinct_tables_ratio"] = (ratio, "ratio")
        return out

    def dump(self, path) -> None:
        """Write every span as integer columns; names index `names`."""
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name=np.asarray(self._name, dtype=np.int32),
            parent=np.asarray(self._parent, dtype=np.int64),
            request=np.asarray(self._request, dtype=np.int64),
            start_ns=np.asarray(self._start, dtype=np.int64),
            end_ns=np.asarray(self._end, dtype=np.int64),
        )
