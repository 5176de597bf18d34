"""Per-layer spans around the program's functions, installed from outside.

The program has no tracing of its own, so ``Tracer.install`` wraps the
functions named in ``TARGETS`` and puts each wrapper on every name in the
package that is bound to the original: ``fem.svd32``, ``svd.svd32`` (which
``checks`` reaches as ``svd_mod.svd32``), ``membrane_eig.svd32`` and so on.
Submodules are taken from ``sys.modules``, because the package's
``invariants`` function shadows the ``membrane_eig.invariants`` module.
``uninstall`` puts every original back.

A span is a name, a start, an end, the index of its parent span and an
``outer`` flag, false when a span of the same name is already open, so a
call that recurses through one layer is not counted twice.  Spans stay in
memory until written out.
A layer is the part of a span name before its first dot.

A target that a refactor has removed is skipped and listed in
``Tracer.missing``; the metrics that need it read 0 and say so in
``layer_metrics``'s notes.
"""

import functools
import json
import os
import sys
import time
import types
from array import array
from collections import Counter

import numpy as np


def _count_elems(counts, args, result, key):
    counts[key] += len(args[0].elements)


def _on_solve(counts, args, result):
    counts["fem.newton_iters"] += result[1].iterations


def _on_direction(counts, args, result):
    counts["fem.directions"] += 1
    counts["fem.hessian_nnz"] = max(counts["fem.hessian_nnz"], args[0].nnz)


def _on_factor(counts, args, lu):
    counts["fem.factor_fill_nnz"] += lu.L.nnz + lu.U.nnz


def _on_factor_error(counts, args, err):
    if isinstance(err, RuntimeError):
        counts["fem.factor_failed"] += 1


def _on_project(counts, args, result):
    counts["models.clamped"] += int(np.count_nonzero(np.asarray(args[0].values) < 0.0))


def _on_save(counts, args, result):
    counts["mesh.bytes_written"] += os.path.getsize(args[0])


def _on_checks(counts, args, reports):
    counts["checks.trials"] += sum(r.trials for r in reports)


# (module, attribute, span name, hook on return, hook on error)
TARGETS = (
    ("membrane_eig.scene", "load_scene", "scene.load_scene", None, None),
    ("membrane_eig.scene", "solve_and_export", "scene.solve_and_export", None, None),
    ("membrane_eig.checks", "run_checks", "checks.run_checks", _on_checks, None),
    ("membrane_eig.mesh", "load_obj", "mesh.load_obj", None, None),
    ("membrane_eig.mesh", "save_obj", "mesh.save_obj", _on_save, None),
    ("membrane_eig.mesh", "grid_mesh", "mesh.grid_mesh", None, None),
    ("membrane_eig.fem", "make_problem", "fem.make_problem", None, None),
    ("membrane_eig.fem", "newton_solve", "fem.newton_solve", _on_solve, None),
    ("membrane_eig.fem", "assemble", "fem.assemble",
     functools.partial(_count_elems, key="fem.assemble_elems"), None),
    ("membrane_eig.fem", "total_energy", "fem.total_energy",
     functools.partial(_count_elems, key="fem.energy_elems"), None),
    ("membrane_eig.fem", "_newton_direction", "fem.newton_direction", _on_direction, None),
    ("scipy.sparse.linalg", "splu", "fem.splu", _on_factor, _on_factor_error),
    ("membrane_eig.svd", "svd32", "svd.svd32", None, None),
    ("membrane_eig.svd", "svd_rates", "svd.svd_rates", None, None),
    ("membrane_eig.invariants", "invariants", "invariants.values", None, None),
    ("membrane_eig.invariants", "invariant_gradients", "invariants.gradients", None, None),
    ("membrane_eig.invariants", "invariant_hvp", "invariants.hvp", None, None),
    ("membrane_eig.invariants", "invariant_eigensystem", "invariants.eigensystem", None, None),
    ("membrane_eig.models", "NeoHookeanSheet.derivs", "models.derivs", None, None),
    ("membrane_eig.models", "_assemble_eigensystem", "models.eigensystem", None, None),
    ("membrane_eig.models", "sheet_eigensystem", "models.eigensystem", None, None),
    ("membrane_eig.models", "energy_eigensystem", "models.eigensystem", None, None),
    ("membrane_eig.models", "energy_gradient", "models.energy_gradient", None, None),
    ("membrane_eig.models", "energy_hvp", "models.energy_hvp", None, None),
    ("membrane_eig.models", "project_psd", "models.project_psd", _on_project, None),
    ("membrane_eig.models", "ProjectedHessian.dense6", "models.dense6", None, None),
    ("membrane_eig.oracles", "fd_gradient", "oracles.fd", None, None),
    ("membrane_eig.oracles", "fd_hessian6", "oracles.fd", None, None),
    ("membrane_eig.oracles", "jacobi_eigen_sym", "oracles.jacobi", None, None),
)

LAYERS = ("fem", "svd", "invariants", "models", "oracles", "checks", "scene", "mesh")


class Tracer:
    """Spans and counts of the wrapped calls.  Spans live in flat arrays
    rather than one Python object each, so a solve's few hundred thousand
    spans add no work for the garbage collector."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.outer = array("b")
        self.counts = Counter()
        self.missing = []
        self.installed = set()
        self._stack = [-1]
        self._depth = {}
        self._restore = []

    def reset(self):
        for column in (self.ids, self.starts, self.ends, self.parents, self.outer):
            del column[:]
        self.counts.clear()

    def span_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name, fn, on_return=None, on_error=None):
        sid = self.span_id(name)
        ids, starts, ends, parents, outer = (
            self.ids, self.starts, self.ends, self.parents, self.outer
        )
        stack, counts = self._stack, self.counts
        depth = self._depth.setdefault(name, [0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            ids.append(sid)
            parents.append(stack[-1])
            outer.append(depth[0] == 0)
            ends.append(0.0)
            stack.append(i)
            depth[0] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                if on_error is not None:
                    on_error(counts, args, err)
                raise
            finally:
                ends[i] = clock()
                stack.pop()
                depth[0] -= 1
            if on_return is not None:
                on_return(counts, args, result)
            return result

        return traced

    def _set(self, owner, key, value):
        self._restore.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def install(self):
        package = [
            m for name, m in list(sys.modules.items())
            if name == "membrane_eig" or name.startswith("membrane_eig.")
        ]
        self.missing = []
        self.installed = set()
        proxies = {}
        for module_name, attr, span, on_return, on_error in TARGETS:
            owner = sys.modules.get(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if not callable(original):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self.installed.add(span)
            wrapper = self.wrap(span, original, on_return, on_error)
            if isinstance(owner, type):
                self._set(owner, leaf, wrapper)
            if isinstance(owner, types.ModuleType) and owner not in package:
                # e.g. fem's ``spla``: callers reach the function through a
                # copy of scipy's module, so scipy itself is left untouched.
                proxy = proxies.get(id(owner))
                if proxy is None:
                    proxy = proxies[id(owner)] = types.ModuleType(owner.__name__)
                    proxy.__dict__.update(vars(owner))
                setattr(proxy, leaf, wrapper)
            for module in package:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)
                    elif value is owner and id(owner) in proxies:
                        self._set(module, key, proxies[id(owner)])

    def uninstall(self):
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    def write(self, path):
        """Write the spans as JSON: the name table, then one [name index,
        start, end, parent index] row per span, in seconds from the first
        span's start; parent -1 marks a top-level span."""
        t0 = self.starts[0] if self.starts else 0.0
        rows = [
            [i, s - t0, e - t0, p]
            for i, s, e, p in zip(self.ids, self.starts, self.ends, self.parents)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": rows, "counts": dict(self.counts)}, fh)


def layer_metrics(tracer, wall_s):
    """Per-layer metrics of one traced workload call that took ``wall_s``.

    Returns (values, notes): values maps metric name -> number; notes lists
    metrics that read 0 because a traced name is gone.
    """
    counts = tracer.counts
    # Copies, not views: a view would pin the arrays and block reset().
    ids = np.array(tracer.ids, dtype=np.int32)
    parent = np.array(tracer.parents, dtype=np.int32)
    outer = np.array(tracer.outer, dtype=bool)
    dur = np.array(tracer.ends, dtype=float) - np.array(tracer.starts, dtype=float)
    child = np.zeros(len(dur))
    np.add.at(child, parent[parent >= 0], dur[parent >= 0])
    self_t = dur - child

    def is_(name):
        return ids == tracer.name_ids.get(name, -1)

    def calls(name):
        return int(np.count_nonzero(is_(name) & outer))

    def incl(name):
        return float(np.sum(dur[is_(name) & outer]))

    def per(total_s, n, scale=1e6):
        return total_s / n * scale if n else 0.0

    # Layers a workload may never enter are given as a share of the traced
    # wall time, so that every metric in seconds is a measured, nonzero time.
    def pct(seconds):
        return 100.0 * seconds / wall_s if wall_s > 0 else 0.0

    solve_id = tracer.name_ids.get("fem.newton_solve", -1)
    energy_in_solve = int(np.count_nonzero(
        is_("fem.total_energy") & (parent >= 0) & (ids[np.maximum(parent, 0)] == solve_id)
    ))
    factor_calls = calls("fem.splu")
    layer_ids = {}
    for sid, name in enumerate(tracer.names):
        layer_ids.setdefault(name.split(".", 1)[0], []).append(sid)
    layer_self = {
        layer: float(np.sum(self_t[np.isin(ids, layer_ids.get(layer, []))]))
        for layer in LAYERS
    }
    v = {
        "fem.newton_iters": counts["fem.newton_iters"],
        "fem.halvings": energy_in_solve - counts["fem.newton_iters"],
        "fem.assemble_calls": calls("fem.assemble"),
        "fem.assemble_s": incl("fem.assemble"),
        "fem.assemble_us_per_elem": per(incl("fem.assemble"), counts["fem.assemble_elems"]),
        "fem.assemble_self_s": float(np.sum(self_t[is_("fem.assemble")])),
        "fem.energy_calls": calls("fem.total_energy"),
        "fem.energy_s": incl("fem.total_energy"),
        "fem.energy_us_per_elem": per(incl("fem.total_energy"), counts["fem.energy_elems"]),
        "fem.factor_calls": factor_calls,
        "fem.factor_failed": counts["fem.factor_failed"],
        "fem.factor_useful_ratio": per(counts["fem.directions"], factor_calls, 1.0),
        "fem.factor_s": incl("fem.newton_direction"),
        "fem.factor_fill_nnz": counts["fem.factor_fill_nnz"],
        "fem.hessian_nnz": counts["fem.hessian_nnz"],
        "svd.svd32_calls": calls("svd.svd32"),
        "svd.svd32_s": incl("svd.svd32"),
        "svd.svd32_us": per(incl("svd.svd32"), calls("svd.svd32")),
        "svd.rates_pct": pct(incl("svd.svd_rates")),
        "invariants.gradients_s": incl("invariants.gradients"),
        "invariants.hvp_pct": pct(incl("invariants.hvp")),
        "models.derivs_s": incl("models.derivs"),
        "models.eigensystem_calls": calls("models.eigensystem"),
        "models.eigensystem_s": incl("models.eigensystem"),
        "models.eigensystem_us": per(incl("models.eigensystem"), calls("models.eigensystem")),
        "models.project_s": incl("models.project_psd") + incl("models.dense6"),
        "models.clamped": counts["models.clamped"],
        "scene.load_pct": pct(incl("scene.load_scene")),
        "mesh.save_obj_pct": pct(incl("mesh.save_obj")),
        "mesh.frames": calls("mesh.save_obj"),
        "mesh.bytes_written": counts["mesh.bytes_written"],
        "oracles.fd_calls": calls("oracles.fd"),
        "oracles.fd_pct": pct(incl("oracles.fd")),
        "oracles.jacobi_calls": calls("oracles.jacobi"),
        "oracles.jacobi_pct": pct(incl("oracles.jacobi")),
        "checks.trials": counts["checks.trials"],
    }
    for layer, seconds in layer_self.items():
        v[f"{layer}.self_pct"] = pct(seconds)
    v["trace.wall_s"] = wall_s
    v["trace.self_sum_ratio"] = sum(layer_self.values()) / wall_s if wall_s > 0 else 0.0

    notes = [f"{where}: not found in the program" for where in tracer.missing]
    for metric, spans_needed in NEEDS.items():
        lost = [span for span in spans_needed if span not in tracer.installed]
        if lost:
            notes.append(f"{metric}: missing, no traced function for {', '.join(lost)}")
    return v, notes


# Spans each metric is read from; a metric whose span has no target left
# is reported as missing.
NEEDS = {
    "fem.newton_iters": ("fem.newton_solve",),
    "fem.halvings": ("fem.newton_solve", "fem.total_energy"),
    "fem.assemble_calls": ("fem.assemble",),
    "fem.assemble_s": ("fem.assemble",),
    "fem.assemble_us_per_elem": ("fem.assemble",),
    "fem.assemble_self_s": ("fem.assemble",),
    "fem.energy_calls": ("fem.total_energy",),
    "fem.energy_s": ("fem.total_energy",),
    "fem.energy_us_per_elem": ("fem.total_energy",),
    "fem.factor_calls": ("fem.splu",),
    "fem.factor_failed": ("fem.splu",),
    "fem.factor_useful_ratio": ("fem.splu", "fem.newton_direction"),
    "fem.factor_s": ("fem.newton_direction",),
    "fem.factor_fill_nnz": ("fem.splu",),
    "fem.hessian_nnz": ("fem.newton_direction",),
    "svd.svd32_calls": ("svd.svd32",),
    "svd.svd32_s": ("svd.svd32",),
    "svd.svd32_us": ("svd.svd32",),
    "svd.rates_pct": ("svd.svd_rates",),
    "invariants.gradients_s": ("invariants.gradients",),
    "invariants.hvp_pct": ("invariants.hvp",),
    "models.derivs_s": ("models.derivs",),
    "models.eigensystem_calls": ("models.eigensystem",),
    "models.eigensystem_s": ("models.eigensystem",),
    "models.eigensystem_us": ("models.eigensystem",),
    "models.project_s": ("models.project_psd", "models.dense6"),
    "models.clamped": ("models.project_psd",),
    "scene.load_pct": ("scene.load_scene",),
    "mesh.save_obj_pct": ("mesh.save_obj",),
    "mesh.frames": ("mesh.save_obj",),
    "mesh.bytes_written": ("mesh.save_obj",),
    "oracles.fd_calls": ("oracles.fd",),
    "oracles.fd_pct": ("oracles.fd",),
    "oracles.jacobi_calls": ("oracles.jacobi",),
    "oracles.jacobi_pct": ("oracles.jacobi",),
    "checks.trials": ("checks.run_checks",),
}
