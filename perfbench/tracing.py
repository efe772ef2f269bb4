"""Spans around `tiler`'s public functions, recorded from outside the package.

`Tracer.install` rebinds each traced function in every `tiler` module
namespace that holds it, so calls between modules are caught as well as
calls from the benchmark.  A span is (name, parent, start, end); spans are
kept in flat arrays while the run lasts and written out when it ends.  A
few return values are also counted (worklist updates, applied flips, path
lengths, CFTP updates and windows).
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from time import perf_counter

# (module, function): the entry points of each layer.  Small helpers such as
# `grid.spin` are left out: they run millions of times and would cost more
# to trace than the work they do.
TRACED = (
    ("grid", "parse_figure"),
    ("grid", "build_graph"),
    ("equilibrium", "build_equilibrium"),
    ("lattice", "minimal_height"),
    ("lattice", "maximal_height"),
    ("lattice", "inf"),
    ("lattice", "delta"),
    ("tiling", "tiling_of_height"),
    ("tiling", "height_of_tiling"),
    ("tiling", "validate_tiling"),
    ("components", "forced_components"),
    ("flips", "component_status"),
    ("flips", "try_flip_inplace"),
    ("flips", "apply_flip"),
    ("flips", "flip_distance"),
    ("flips", "flip_path"),
    ("generation", "enumerate_tilings"),
    ("generation", "count_tilings"),
    ("generation", "sample_uniform"),
    ("generation", "plan_update"),
    ("render", "dominoes_from_json"),
    ("render", "tiling_to_json"),
)
GENERATORS = {"generation.enumerate_tilings"}
# Root span of each benchmark operation, so that the spans of one operation
# share an ancestor.
OPERATION = "bench.operation"


class Tracer:
    """Span recorder for one process; `install` it, run, then `uninstall`."""

    def __init__(self):
        self.names = [f"{m}.{f}" for m, f in TRACED] + [OPERATION]
        self.name_ids = array("H")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = []
        self.counts = {
            "lattice.passes": 0,
            "flips.applied": 0,
            "flips.path_flips": 0,
            "generation.cftp_windows": 0,
        }
        self._undo = []

    def __len__(self):
        return len(self.starts)

    # Recording ----------------------------------------------------------

    def open_operation(self):
        return self._open(len(TRACED))

    def close_operation(self, idx):
        self._close(idx)

    def _open(self, name_id):
        idx = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx):
        self.ends[idx] = perf_counter()
        self.stack.pop()

    def _count(self, name, result, args):
        if name in ("lattice.minimal_height", "lattice.maximal_height"):
            self.counts["lattice.passes"] += result[1]
        elif name == "flips.try_flip_inplace":
            self.counts["flips.applied"] += bool(result)
        elif name == "flips.flip_path":
            self.counts["flips.path_flips"] += len(result)
        elif name == "generation.plan_update" and args[1] == 1:
            # Every window ends with the update at time -1.
            self.counts["generation.cftp_windows"] += 1

    def _wrap(self, name_id, fn):
        name = self.names[name_id]
        if name in GENERATORS:
            def generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    idx = self._open(name_id)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    yield item

            return functools.wraps(fn)(generator)

        def wrapper(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self._count(name, result, args)
            return result

        return functools.wraps(fn)(wrapper)

    def install(self):
        """Rebind every traced function in all loaded `tiler` modules."""
        modules = [m for k, m in sys.modules.items() if k == "tiler" or k.startswith("tiler.")]
        for name_id, (mod, fname) in enumerate(TRACED):
            original = getattr(sys.modules[f"tiler.{mod}"], fname)
            wrapped = self._wrap(name_id, original)
            for module in modules:
                if getattr(module, fname, None) is original:
                    setattr(module, fname, wrapped)
                    self._undo.append((module, fname, original))

    def uninstall(self):
        for module, fname, original in reversed(self._undo):
            setattr(module, fname, original)
        self._undo.clear()

    # Reading ------------------------------------------------------------

    def totals(self, first=0, last=None):
        """Per span name over spans [first, last): (calls, inclusive seconds),
        plus self seconds per layer (a span's length minus the time its
        direct children cover)."""
        last = len(self) if last is None else last
        calls = [0] * len(self.names)
        inclusive = [0.0] * len(self.names)
        child = {}
        for i in range(first, last):
            dur = self.ends[i] - self.starts[i]
            n = self.name_ids[i]
            calls[n] += 1
            inclusive[n] += dur
            p = self.parents[i]
            if p >= 0:
                child[p] = child.get(p, 0.0) + dur
        layer_self = {}
        for i in range(first, last):
            layer = self.names[self.name_ids[i]].split(".")[0]
            own = self.ends[i] - self.starts[i] - child.get(i, 0.0)
            layer_self[layer] = layer_self.get(layer, 0.0) + own
        by_name = {
            name: (calls[n], inclusive[n]) for n, name in enumerate(self.names)
        }
        return by_name, layer_self

    def write(self, stem):
        """Write the spans as `<stem>.spans` (four little-endian arrays:
        name id u16, parent i32, start f64, end f64, each of `spans`
        entries) and `<stem>.json` (span names, count and counters)."""
        with open(f"{stem}.spans", "wb") as fh:
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                if sys.byteorder != "little":
                    arr = array(arr.typecode, arr)
                    arr.byteswap()
                arr.tofile(fh)
        with open(f"{stem}.json", "w", encoding="utf-8") as fh:
            json.dump(
                {"names": self.names, "spans": len(self), "counts": self.counts},
                fh,
                indent=1,
            )
