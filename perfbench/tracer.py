"""Span tracer that wraps embsde's module-boundary calls from outside.

``Tracer.install`` replaces each function named in ``FUNCTIONS`` wherever
the package binds it (its defining module, every module that imported it,
and the package namespace), and each method named in ``METHODS`` on its
class.  Every call then records a span ``(group, start, end, parent)`` in
flat arrays and adds its self time (duration minus the time covered by its
child spans) to the group's totals.  ``uninstall`` puts the originals back,
so traced and untraced passes can alternate in one process.

A name that no longer exists (a later refactor deleted or renamed it) is
recorded in ``absent`` instead of failing the run; its metrics read zero.
A counter that cannot read a call's arguments is recorded in
``counter_errors`` and skipped.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from array import array
from collections import defaultdict

MODULES = ("numeric_core", "mlp", "estimation", "sde_model", "diagnostics", "cli_io", "cli")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _file_size(path):
    return os.path.getsize(path) if isinstance(path, (str, os.PathLike)) else 0


def _count_normals(counts, args, kwargs, result):
    counts["numeric_core.normals.count"] += result.size


def _count_shuffle(counts, args, kwargs, result):
    counts["numeric_core.shuffle.items"] += int(_arg(args, kwargs, 1, "n"))


def _count_pca(counts, args, kwargs, result):
    counts["numeric_core.pca.dim"] = max(counts["numeric_core.pca.dim"], result.mean.shape[0])


def _layer_flop(net, rows):
    return 2.0 * rows * sum(w.size for w in net.weights)


def _count_forward(counts, args, kwargs, result):
    net = args[0]
    out = result[0] if isinstance(result, tuple) else result
    rows = 1 if out.ndim == 1 else out.shape[0]
    counts["mlp.forward.rows"] += rows
    counts["mlp.flop"] += _layer_flop(net, rows)


def _count_backward(counts, args, kwargs, result):
    net, cache = args[0], _arg(args, kwargs, 1, "cache")
    counts["mlp.flop"] += 2.0 * _layer_flop(net, cache[0][0].shape[0])


def _count_path_steps(counts, args, kwargs, result):
    counts["sde_model.simulate_ensemble.path_steps"] += result.shape[0] * (result.shape[1] - 1)


def _bytes_written(group):
    def count(counts, args, kwargs, result):
        counts[group + ".bytes"] += _file_size(_arg(args, kwargs, 0, "path"))
    return count


# (module, function, group, counter run after the call)
FUNCTIONS = [
    ("numeric_core", "indexed_normals", "numeric_core.normals", _count_normals),
    ("numeric_core", "pca_fit", "numeric_core.pca", _count_pca),
    ("mlp", "glorot_init", "mlp.init", None),
    ("mlp", "sgd_step", "mlp.sgd_step", None),
    ("estimation", "fit", "estimation.fit", None),
    ("estimation", "extract_transitions", "estimation.extract", None),
    ("estimation", "drift_loss", "estimation.eval", None),
    ("estimation", "diffusion_loss", "estimation.eval", None),
    ("sde_model", "simulate", "sde_model.simulate", None),
    ("sde_model", "simulate_ensemble", "sde_model.simulate_ensemble", _count_path_steps),
    ("sde_model", "sample_linear_trajectories", "sde_model.sampler", None),
    ("sde_model", "generate_answer", "sde_model.generate_answer", None),
    ("diagnostics", "moment_monte_carlo", "diagnostics.moment_mc", None),
    ("diagnostics", "moment_ode_solve", "diagnostics.moment_ode", None),
    ("diagnostics", "estimate_regularity", "diagnostics.regularity", None),
    ("diagnostics", "lyapunov_check", "diagnostics.lyapunov", None),
    ("diagnostics", "drift_vector_field", "diagnostics.vector_field", None),
    ("diagnostics", "compare_trajectories", "diagnostics.compare", None),
    ("diagnostics", "uncertainty_heatmap", "diagnostics.heatmap", None),
    ("diagnostics", "word_importance", "diagnostics.importance", None),
    ("cli_io", "save_trajectories", "cli_io.save_trajectories",
     _bytes_written("cli_io.save_trajectories")),
    ("cli_io", "load_trajectories", "cli_io.load_trajectories",
     _bytes_written("cli_io.load_trajectories")),
    ("cli_io", "save_model", "cli_io.save_model", _bytes_written("cli_io.save_model")),
    ("cli_io", "load_model", "cli_io.load_model", _bytes_written("cli_io.load_model")),
    ("cli_io", "toy_embed", "cli_io.toy_embed", None),
    *[
        ("cli_io", f"write_{kind}_csv", "cli_io.write_csv", _bytes_written("cli_io.write_csv"))
        for kind in ("losses", "comparison", "vector_field", "heatmap", "importance", "moments")
    ],
    ("cli", "main", "cli.main", None),
    *[
        ("cli", f"cmd_{name}", f"cli.{name}", None)
        for name in ("synth_ou", "train", "simulate", "answer", "diagnose", "field",
                     "importance", "losses")
    ],
]

# (module, class, method, group, counter)
METHODS = [
    ("numeric_core", "RngStream", "shuffled_indices", "numeric_core.shuffle", _count_shuffle),
    ("numeric_core", "RngStream", "normals", "numeric_core.normals", _count_normals),
    ("mlp", "MlpNetwork", "forward", "mlp.forward", _count_forward),
    ("mlp", "MlpNetwork", "forward_with_cache", "mlp.forward", _count_forward),
    ("mlp", "MlpNetwork", "backward", "mlp.backward", _count_backward),
    ("sde_model", "SdeModel", "drift", "sde_model.fields", None),
    ("sde_model", "SdeModel", "diffusion", "sde_model.fields", None),
]


class Tracer:
    """Records spans and per-group totals while installed."""

    def __init__(self, package: str = "embsde"):
        self.package = package
        self.absent: list[str] = []
        self.counter_errors: dict[str, str] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._groups: list[str] = []
        self._group_ids: dict[str, int] = {}
        # spans live in flat arrays: no per-span Python object for the GC to scan
        self._span_group = array("i")
        self._span_parent = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._stack: list[list] = []
        self.reset_totals()

    # -- totals -----------------------------------------------------------

    def reset_totals(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {}
        for name in MODULES:
            try:
                modules[name] = importlib.import_module(f"{self.package}.{name}")
            except ImportError:
                self._note_absent(f"{self.package}.{name}")
        namespaces = [importlib.import_module(self.package), *modules.values()]

        for module_name, func_name, group, counter in FUNCTIONS:
            module = modules.get(module_name)
            original = getattr(module, func_name, None) if module is not None else None
            if not callable(original):
                self._note_absent(f"{self.package}.{module_name}.{func_name}")
                continue
            wrapper = self._wrap(group, original, counter)
            for namespace in namespaces:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        self._patch(namespace, attr, wrapper)

        for module_name, class_name, method_name, group, counter in METHODS:
            cls = getattr(modules.get(module_name), class_name, None)
            original = vars(cls).get(method_name) if isinstance(cls, type) else None
            if not callable(original):
                self._note_absent(f"{self.package}.{module_name}.{class_name}.{method_name}")
                continue
            self._patch(cls, method_name, self._wrap(group, original, counter))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _note_absent(self, name: str) -> None:
        if name not in self.absent:
            self.absent.append(name)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _group_id(self, group: str) -> int:
        if group not in self._group_ids:
            self._group_ids[group] = len(self._groups)
            self._groups.append(group)
        return self._group_ids[group]

    def _wrap(self, group: str, fn, counter):
        gid = self._group_id(group)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [len(self._span_start), 0.0]
            self._span_group.append(gid)
            self._span_parent.append(stack[-1][0] if stack else -1)
            stack.append(frame)
            start = clock()
            self._span_start.append(start)
            self._span_end.append(start)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    self._count(group, counter, args, kwargs, result)
                return result
            finally:
                end = clock()
                stack.pop()
                self._span_end[frame[0]] = end
                duration = end - start
                self.calls[group] += 1
                self.self_s[group] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration

        return traced

    def _count(self, group, counter, args, kwargs, result) -> None:
        try:
            counter(self.counts, args, kwargs, result)
        except Exception as exc:  # a changed signature must not stop the run
            self.counter_errors.setdefault(group, f"{type(exc).__name__}: {exc}")

    # -- output -------------------------------------------------------------

    @property
    def n_spans(self) -> int:
        return len(self._span_start)

    def write_spans(self, path: str) -> None:
        """Write the group names, then every span as ``[group, start, end, parent]``.

        ``group`` indexes the names on the first line; ``parent`` is the index
        (0-based, in span order) of the enclosing span, or -1.
        """
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"groups": self._groups}) + "\n")
            for i in range(len(self._span_start)):
                handle.write(
                    f"[{self._span_group[i]},{self._span_start[i]!r},"
                    f"{self._span_end[i]!r},{self._span_parent[i]}]\n"
                )
