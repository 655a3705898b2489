"""Per-layer host-time split of a traced run, measured from outside.

The traced run executes the ops under the stdlib deterministic profiler
(``cProfile``).  Each function's self time goes to the layer whose
module holds it: the ``repro`` subpackages are the layers, numpy and C
builtins get buckets of their own, and everything else (the stdlib,
the out-of-scope ``repro`` modules, the benchmark) is ``other``.

Work counts come from two places: profiler call counts of named entry
points, and the simulated counters of every cluster the ops built
(``Cluster.aggregate_counters()``).  A generator function's profiler
count is its number of *resumes*, not calls, so no count below is taken
from a generator; the layer table reports generator resumes apart.
"""

from __future__ import annotations

import importlib
import inspect
import os
from typing import Dict, Iterable, List, Mapping, Tuple

#: layers in report order; the first ten are ``repro`` subpackages or
#: modules (out-of-scope ones such as ``repro.trace`` fall in ``other``)
LAYERS = (
    "engine", "mem", "alloc", "ib", "mpi", "core", "systems", "workloads",
    "fastpath", "analysis", "numpy", "builtins", "other",
)

#: the layer-sum check: self times of all layers must add up to the
#: traced wall time within this share (the profiler's own bookkeeping
#: between functions is the gap)
SUM_TOLERANCE = 0.05

#: entry points whose profiler call counts are work counts:
#: key -> (module, qualified name).  None of them may be a generator.
ENTRY_POINTS: Dict[str, Tuple[str, str]] = {
    "schedule": ("repro.engine.core", "SimKernel._schedule"),
    "resume": ("repro.engine.core", "Process._step"),
    "cluster_build": ("repro.systems.machine", "Cluster.__init__"),
    "translation_run": ("repro.mem.address_space", "AddressSpace.translation_run"),
    "mmap": ("repro.mem.address_space", "AddressSpace.mmap"),
    "malloc": ("repro.systems.machine", "OSProcess.malloc"),
    "free": ("repro.systems.machine", "OSProcess.free"),
    "folded_tx": ("repro.ib.hca", "HCA._tx_launch"),
    "envelope": ("repro.mpi.api", "Endpoint.make_envelope"),
}

#: generator entry points shown in the layer table as resumes
GENERATOR_ENTRY_POINTS: Dict[str, Tuple[str, str]] = {
    "ib.post_send": ("repro.ib.hca", "HCA.post_send"),
    "ib.register_memory": ("repro.ib.hca", "HCA.register_memory"),
    "mpi.sendrecv": ("repro.mpi.api", "Communicator.sendrecv"),
}


def _code_of(module: str, qualname: str):
    obj = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj.__code__


def resolve_entry_points() -> Dict[str, object]:
    """Code objects of every entry point; raises if one is gone, so a
    renamed function fails the benchmark instead of counting zero."""
    codes = {}
    for key, (module, qualname) in ENTRY_POINTS.items():
        code = _code_of(module, qualname)
        if code.co_flags & inspect.CO_GENERATOR:
            raise TypeError(f"{module}.{qualname} is a generator: its profiler "
                            "count is resumes, not calls")
        codes[key] = code
    for key, (module, qualname) in GENERATOR_ENTRY_POINTS.items():
        codes[key] = _code_of(module, qualname)
    return codes


def layer_of(code, repro_dir: str) -> str:
    """The layer a profiler entry's code belongs to."""
    if isinstance(code, str):  # a C function: "<built-in method ...>"
        return "numpy" if "numpy" in code else "builtins"
    path = os.path.abspath(code.co_filename)
    rel = os.path.relpath(path, repro_dir)
    if not rel.startswith(".."):
        head = rel.split(os.sep, 1)[0]
        if head.endswith(".py"):
            head = head[:-3]
        return head if head in LAYERS else "other"
    if f"{os.sep}numpy{os.sep}" in path:
        return "numpy"
    return "other"


class LayerSplit:
    """Self time, calls and generator resumes per layer, plus the call
    count and cumulative time of each entry point."""

    def __init__(self, stats: Iterable, repro_dir: str, codes: Mapping[str, object]):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.resumes = dict.fromkeys(LAYERS, 0)
        self.count = dict.fromkeys(codes, 0)
        self.cum_s = dict.fromkeys(codes, 0.0)
        by_code = {id(code): key for key, code in codes.items()}
        for entry in stats:
            code = entry.code
            layer = layer_of(code, repro_dir)
            self.self_s[layer] += entry.inlinetime
            if not isinstance(code, str) and code.co_flags & inspect.CO_GENERATOR:
                self.resumes[layer] += entry.callcount
            else:
                self.calls[layer] += entry.callcount
            key = by_code.get(id(code))
            if key is not None:
                self.count[key] += entry.callcount
                self.cum_s[key] += entry.totaltime

    @property
    def total_s(self) -> float:
        return sum(self.self_s.values())

    def table(self) -> List[str]:
        """The per-layer table as text lines."""
        total = self.total_s or 1.0
        lines = [f"{'layer':<10} {'self_s':>9} {'share':>7} {'calls':>11} {'resumes':>9}"]
        for layer in LAYERS:
            lines.append(
                f"{layer:<10} {self.self_s[layer]:9.3f} {self.self_s[layer] / total:7.2%} "
                f"{self.calls[layer]:11d} {self.resumes[layer]:9d}"
            )
        lines.append(f"{'sum':<10} {self.total_s:9.3f}")
        for key in GENERATOR_ENTRY_POINTS:
            lines.append(f"resumes of {key}: {self.count[key]}")
        return lines


def _ratio(num: float, den: float) -> float:
    """num/den, or 0.0 when nothing was counted (no cluster, no message)."""
    return num / den if den else 0.0


def layer_metrics(
    split: LayerSplit,
    counters: Mapping[str, int],
    events: int,
    untraced_wall_s: float,
    traced_wall_s: float,
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric: name -> (value, unit)."""
    total = split.total_s
    m: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (split.self_s[layer], "s")
        m[f"{layer}.share"] = (_ratio(split.self_s[layer], total), "ratio")
    c = split.count
    cum = split.cum_s
    m["engine.schedules"] = (c["schedule"], "count")
    m["engine.resumes"] = (c["resume"], "count")
    m["engine.events"] = (events, "count")
    m["engine.us_per_event"] = (_ratio(untraced_wall_s * 1e6, events), "us")
    m["systems.cluster_builds"] = (c["cluster_build"], "count")
    m["systems.build_ms"] = (_ratio(cum["cluster_build"] * 1e3, c["cluster_build"]), "ms")
    m["mem.translation_runs"] = (c["translation_run"], "count")
    m["mem.mmap_calls"] = (c["mmap"], "count")
    alloc_calls = c["malloc"] + c["free"]
    m["alloc.calls"] = (alloc_calls, "count")
    m["alloc.us_per_call"] = (_ratio((cum["malloc"] + cum["free"]) * 1e6, alloc_calls), "us")
    tx = counters.get("hca.tx_messages", 0)
    att_hit, att_miss = counters.get("att.hit", 0), counters.get("att.miss", 0)
    m["ib.registrations"] = (counters.get("reg.register", 0), "count")
    m["ib.pages_pinned"] = (counters.get("reg.pages_pinned", 0), "count")
    m["ib.att_hit_ratio"] = (_ratio(att_hit, att_hit + att_miss), "ratio")
    m["ib.tx_messages"] = (tx, "count")
    m["ib.machinery_share"] = (_ratio(tx - c["folded_tx"], tx), "ratio")
    rc_hit, rc_miss = counters.get("regcache.hit", 0), counters.get("regcache.miss", 0)
    m["mpi.messages"] = (c["envelope"], "count")
    m["mpi.regcache_hit_ratio"] = (_ratio(rc_hit, rc_hit + rc_miss), "ratio")
    m["trace.overhead"] = (_ratio(traced_wall_s, untraced_wall_s) - 1.0, "ratio")
    return m
