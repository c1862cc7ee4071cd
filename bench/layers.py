"""Per-layer timing from outside the program, for traced runs.

``LayerTimer.install`` wraps every public function of the skewrh modules in
``LAYERS`` and rebinds each wrapper under every name a skewrh module holds
it by (``from .quadrature import ts_mapped_level`` makes a second binding).
Each call then adds its self time (its own duration minus that of the
wrapped calls made inside it) to its module.  Methods are not wrapped:
their time counts for the module of the wrapped function that called them.

The same timer runs in this process (rh-verify, families) and in each CLI
child of the cli-readme workload, where ``bench/cli_child.py`` installs it
and writes ``LayerTimer.snapshot()`` to a file at exit.
"""
from __future__ import annotations

import functools
import sys
import time
import types

LAYERS = ("quadrature", "potentials", "moments", "skewalg", "zeros", "rhp")


class LayerTimer:
    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.first_level = {}     # id(table) -> its level when first handed out
        self._stack = []          # per open call: seconds of wrapped calls inside

    def install(self):
        import skewrh.cli  # noqa: F401  (loads every submodule)
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"skewrh.{layer}"]
            for name, fn in vars(mod).items():
                is_function = (isinstance(fn, types.FunctionType)
                               or hasattr(fn, "cache_info"))
                if (name.startswith("_") or not is_function
                        or fn.__module__ != mod.__name__):
                    continue
                wrappers[id(fn)] = self._wrap(layer, fn)
        for name in [n for n in sys.modules if n == "skewrh" or n.startswith("skewrh.")]:
            mod = sys.modules[name]
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

    def _wrap(self, layer, fn):
        stack, self_s, calls = self._stack, self.self_s, self.calls
        hands_out_tables = fn.__name__ == "get_weight_table"

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                total = time.perf_counter() - start
                self_s[layer] += total - stack.pop()
                calls[layer] += 1
                if stack:
                    stack[-1] += total
            if hands_out_tables:
                self.first_level.setdefault(id(result), result.level)
            return result
        return timed

    def reset(self):
        for layer in LAYERS:
            self.self_s[layer], self.calls[layer] = 0.0, 0

    def snapshot(self, skip_keys=()):
        """Self times, call counts and the grids of the weight tables this
        process holds (all but those under ``skip_keys``)."""
        from skewrh import potentials
        tables = [t for key, t in potentials._TABLE_REGISTRY.items()
                  if key not in skip_keys]
        return {
            "self_s": dict(self.self_s), "calls": dict(self.calls),
            "tables": [{"nodes": len(t.xs), "active": len(t.axs), "level": t.level,
                        "escalations": t.level - self.first_level.get(id(t), t.level)}
                       for t in tables],
        }


def per_layer(snapshots, rounds):
    """Per-layer metrics from one or more snapshots (one per process):
    self seconds and calls per round, and grid figures per table."""
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (sum(s["self_s"][layer] for s in snapshots) / rounds, "s")
        out[f"{layer}.calls"] = (sum(s["calls"][layer] for s in snapshots) / rounds, "count")
    tables = [t for s in snapshots for t in s["tables"]]
    if tables:
        nodes = sum(t["nodes"] for t in tables)
        active = sum(t["active"] for t in tables)
        out["potentials.grid_nodes"] = (nodes / len(tables), "count")
        out["potentials.active_nodes"] = (active / len(tables), "count")
        out["potentials.active_node_share"] = (active / nodes, "ratio")
        out["potentials.grid_level"] = (sum(t["level"] for t in tables) / len(tables), "count")
        out["moments.grid_escalations"] = (
            sum(t["escalations"] for t in tables) / len(tables), "count")
    return out
