"""Spans around the calls into each twistkit layer, recorded from outside.

The traced run rebinds the public functions of every layer module to
timing wrappers, in the defining module and in every other twistkit
module that imported the same object (``cli.h2``, ``extensions.build_chain``,
``staralg.normalize``), and wraps ``__init__`` of the classes whose
construction is a stage of its own.  Spans are kept in memory as
``(id, parent, op, name, start, end)`` and are recorded only while an op
is open, so set-up and correctness checks leave no spans.  Everything is
restored when the ``Tracer`` context exits.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager

import numpy as np

LAYERS = (
    "intlin",
    "homology",
    "groups",
    "cocycles",
    "extensions",
    "staralg",
    "bounds",
    "descriptors",
    "witness",
    "cli",
)

# classes whose construction is timed, with the span name it gets
CLASS_SPANS = {
    ("groups", "FiniteGroup"): "groups.construct",
    ("staralg", "StarAlgebra"): "staralg.StarAlgebra",
    ("staralg", "TwistedSystem"): "staralg.TwistedSystem",
}

# busy-time metrics reported per layer; every other public function is
# still traced and counted in calls and self time
FUNCTION_METRICS = {
    "intlin": ("column_hnf", "kernel_basis", "smith_normal_form", "solve_batch_in_image",
               "exact_matmul", "unimodular_inverse"),
    "homology": ("build_chain", "h2_presentation", "make_splitting"),
    "groups": ("construct", "is_isomorphic_small", "quotient"),
    "cocycles": ("normalize", "coboundary"),
    "extensions": ("build_extension", "classify_extension", "extension_report"),
    "staralg": ("StarAlgebra", "block_profile", "crossed_product", "TwistedSystem",
                "cutdown_fiber", "verify_imprimitivity", "verify_stabilization"),
}
CALLED_LAYERS = ("intlin", "homology", "groups", "cocycles", "extensions", "staralg")
BUSY_LAYERS = ("bounds", "descriptors", "witness")
COUNTERS = ("intlin.entries_in", "homology.d3_entries", "staralg.basis_bytes",
            "witness.translates_checked")

# the share of traced op wall time that per-layer self times may leave
# uncovered (wrapper entry and exit, glue between calls inside an op)
SELF_TIME_SLACK = 0.05


def _matrix_entries(args) -> int:
    return sum(a.size for a in args if isinstance(a, np.ndarray))


class Tracer:
    """Installs the wrappers on enter, restores the originals on exit."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.op_walls: list[float] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._restore: list[tuple] = []

    # -- recording ------------------------------------------------------

    @contextmanager
    def op(self, op_id: int):
        """Open an op: spans are recorded and its wall time is kept."""
        self._op = op_id
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.op_walls.append(time.perf_counter() - t0)
            self._op = None

    def _wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            outer = parent is None or not self.spans[parent][3].startswith(layer + ".")
            sid = len(self.spans)
            self.spans.append((sid, parent, self._op, name, 0.0, 0.0))
            self._stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (sid, parent, self._op, name, t0, t1)
            self._count(name, outer, args, result)
            return result

        traced.__wrapped_original__ = fn
        return traced

    def _count(self, name, outer, args, result):
        if name.startswith("intlin.") and outer:
            self.counts["intlin.entries_in"] += _matrix_entries(args)
        elif name == "homology.build_chain":
            self.counts["homology.d3_entries"] += int(result.d3.size)
        elif name == "staralg.StarAlgebra":
            self.counts["staralg.basis_bytes"] += int(args[0].basis.nbytes)
        elif name == "witness.verify_witness":
            self.counts["witness.translates_checked"] += int(result["checked"])

    # -- installing -----------------------------------------------------

    def __enter__(self):
        mods = {layer: sys.modules[f"twistkit.{layer}"] for layer in LAYERS}
        wrappers = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "twistkit" or mod_name.startswith("twistkit.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        for (layer, cls_name), span in CLASS_SPANS.items():
            cls = getattr(mods[layer], cls_name)
            self._restore.append((cls, "__init__", cls.__init__))
            cls.__init__ = self._wrap(span, cls.__init__)
        return self

    def __exit__(self, *exc):
        for target, attr, obj in reversed(self._restore):
            setattr(target, attr, obj)
        self._restore.clear()
        return False

    # -- results --------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls, self time and busy time; absent layers are 0."""
        child_time = [0.0] * len(self.spans)
        for sid, parent, _op, _name, t0, t1 in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        out: dict[str, float] = {}
        for layer in CALLED_LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
            for fn in FUNCTION_METRICS[layer]:
                out[f"{layer}.{fn}.s"] = 0.0
        for layer in BUSY_LAYERS:
            out[f"{layer}.s"] = 0.0
        names = [s[3] for s in self.spans]
        for sid, parent, _op, name, t0, t1 in self.spans:
            layer, fn = name.split(".", 1)
            dur = t1 - t0
            if layer in CALLED_LAYERS:
                out[f"{layer}.calls"] += 1
                out[f"{layer}.self_s"] += dur - child_time[sid]
                key = f"{layer}.{fn}.s"
                if key in out and not self._has_ancestor(parent, name, names):
                    out[key] += dur
            elif layer in BUSY_LAYERS:
                if parent is None or not names[parent].startswith(layer + "."):
                    out[f"{layer}.s"] += dur
        out.update(self.counts)
        return out

    def _has_ancestor(self, sid, name, names) -> bool:
        while sid is not None:
            if names[sid] == name:
                return True
            sid = self.spans[sid][1]
        return False

    def self_time_check(self) -> dict:
        """Self times of all spans, summed, against the traced op wall time."""
        roots = sum(t1 - t0 for _sid, parent, _op, _n, t0, t1 in self.spans if parent is None)
        wall = sum(self.op_walls)
        coverage = roots / wall if wall > 0 else 1.0
        return {
            "self_s_total": roots,
            "op_wall_s": wall,
            "coverage": coverage,
            "slack": SELF_TIME_SLACK,
            "ok": 1.0 - SELF_TIME_SLACK <= coverage <= 1.0,
        }

    def write(self, path) -> None:
        """One JSON line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                     "start": t0, "end": t1}) + "\n")
