"""Spans around the public functions of each bipower layer, recorded from
outside the package.

``Tracer.install`` wraps each listed function and rebinds the wrapper in every
loaded ``bipower`` module that holds the original, so calls through
``from .core import bipartite_power`` in the other modules are counted too.
Spans (name, start, end, parent) are kept in flat arrays in memory and written
out by ``write``; self time is a span's duration minus that of its direct
children.  Counters that depend on what a call returned are taken from the
return values.
"""

from __future__ import annotations

import sys
import time
from array import array

# Per-layer functions, by defining module.  Each gets ``.calls`` and
# ``.self_s``, except the harness ones, which report ``.self_s`` only.
LAYERS = {
    "core": ("bipartite_power", "bfs_distance", "is_connected", "diameter",
             "find_chordless_cycle", "verify_chordless"),
    "intervals": ("power_representation", "verify_representation", "intervals_to_graph"),
    "mca": ("verify_mca", "label_zeros", "find_mca", "matrix_power", "graph_to_matrix"),
    "chordal_power": ("is_chordal_bipartite", "is_k_chordal", "strongly_closed_check",
                      "classify_cycle_edges", "lift_chordless_cycle"),
    "harness": ("run_campaign", "gen_random_bipartite", "gen_staircase_matrix",
                "random_interval_representation", "report_json"),
    "cli": ("dispatch",),
}

# Counters derived from return values, reported beside the span statistics.
VALUE_COUNTERS = (
    "core.find_chordless_cycle.hits",
    "mca.find_mca.found",
    "mca.find_mca.leaves",
    "chordal_power.lift.case1",
    "chordal_power.lift.case2",
    "chordal_power.lift.fallback",
    "chordal_power.lift.anomaly",
)

_LIFT_COUNTER = {
    "Case1Construction": "chordal_power.lift.case1",
    "Case2Construction": "chordal_power.lift.case2",
    "FallbackSearch": "chordal_power.lift.fallback",
}


def metric_names() -> list[str]:
    names = []
    for module, functions in LAYERS.items():
        for fn in functions:
            if module not in ("harness", "cli"):
                names.append(f"{module}.{fn}.calls")
            names.append(f"{module}.{fn}.self_s")
    return names + list(VALUE_COUNTERS)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id: array = array("i")
        self.parent: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.counters = dict.fromkeys(VALUE_COUNTERS, 0)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        observe = self._observer(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            stack.append(sid)
            start.append(clock())
            end.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    def _observer(self, name: str):
        counters = self.counters
        if name == "core.find_chordless_cycle":
            def observe(result):
                counters["core.find_chordless_cycle.hits"] += result is not None
        elif name == "mca.find_mca":
            def observe(result):
                counters["mca.find_mca.found"] += result is not None
        elif name == "chordal_power.lift_chordless_cycle":
            def observe(result):
                counters[_LIFT_COUNTER[result.method.value]] += 1
                counters["chordal_power.lift.anomaly"] += bool(result.anomaly)
        else:
            return None
        return observe

    def install(self) -> None:
        """Rebind every listed function in every loaded bipower module."""
        modules = [m for n, m in list(sys.modules.items()) if n == "bipower" or n.startswith("bipower.")]
        for module, functions in LAYERS.items():
            home = sys.modules[f"bipower.{module}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{module}.{fn_name}", original)
                for mod in modules:
                    if getattr(mod, fn_name, None) is original:
                        self._restore.append((mod, fn_name, original))
                        setattr(mod, fn_name, wrapper)

    def uninstall(self) -> None:
        for mod, fn_name, original in reversed(self._restore):
            setattr(mod, fn_name, original)
        self._restore.clear()

    def metrics(self) -> dict[str, float]:
        """Calls and self time per function, plus the value counters."""
        count = len(self.start)
        duration = [self.end[s] - self.start[s] for s in range(count)]
        child_time = [0.0] * count
        for s in range(count):
            p = self.parent[s]
            if p >= 0:
                child_time[p] += duration[s]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        find_mca = self.names.index("mca.find_mca")
        leaves = 0
        for s in range(count):
            nid = self.name_id[s]
            calls[nid] += 1
            self_s[nid] += duration[s] - child_time[s]
            p = self.parent[s]
            if p >= 0 and self.name_id[p] == find_mca and self.names[nid] == "mca.verify_mca":
                leaves += 1
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.self_s"] = self_s[nid]
        counters = dict(self.counters)
        counters["mca.find_mca.leaves"] = leaves
        return {name: out.get(name, counters.get(name)) for name in metric_names()}

    def write(self, path) -> None:
        """One line per span: id, parent id, function, start and end (s)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\tname\tstart\tend\n")
            for s in range(len(self.start)):
                fh.write(f"{s}\t{self.parent[s]}\t{self.names[self.name_id[s]]}\t"
                         f"{self.start[s]:.9f}\t{self.end[s]:.9f}\n")
