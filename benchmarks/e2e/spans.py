"""Outside-in tracer: spans around calls into each ``repro`` package.

Nothing in ``src/`` knows about this file.  :class:`Tracer` replaces the
*bindings callers use* — class attributes for methods, every ``repro.*``
module global that refers to a function — with wrappers that record
``(name, start, end, parent)`` spans in memory, and puts the originals back
on :meth:`Tracer.remove`.  A span name is ``<layer>.<Owner>.<function>``
where ``<layer>`` is the ``src/repro`` package the callee lives in, so layer
totals fall out of a prefix match.

The run is single-threaded, so "the span that caused it" is simply the span
on top of the stack when the call started.
"""

from __future__ import annotations

import cProfile
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

Measure = Callable[[Dict[str, float], tuple, object], None]


class Tracer:
    """In-memory span recorder plus the monkey-patches that feed it."""

    def __init__(self) -> None:
        #: ``[name, start_s, end_s, parent_index]`` per span, in start order.
        self.spans: List[list] = []
        #: counts recorded at the same boundaries (rows, edges, calls ...).
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Wrappers
    # ------------------------------------------------------------------ #
    def _span(self, name: str, fn: Callable, measure: Optional[Measure]) -> Callable:
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if measure is not None:
                measure(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name: str, fn: Callable, measure: Optional[Measure]) -> Callable:
        """Count-only wrapper for functions too hot to time one call at a time."""
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if measure is not None:
                measure(counts, args, result)
            return result

        counted.__wrapped__ = fn
        return counted

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #
    def _set(self, owner: object, attr: str, wrapper: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def patch_method(self, layer: str, cls: type, method: str, *,
                     measure: Optional[Measure] = None, count_only: bool = False) -> None:
        """Wrap ``cls.method`` and every subclass override of it."""
        make = self._count if count_only else self._span
        pending, seen = [cls], set()
        while pending:
            klass = pending.pop()
            if klass in seen:
                continue
            seen.add(klass)
            pending.extend(klass.__subclasses__())
            if method in vars(klass):
                name = f"{layer}.{klass.__name__}.{method}"
                self._set(klass, method, make(name, vars(klass)[method], measure))

    def patch_function(self, layer: str, fn: Callable, *,
                       measure: Optional[Measure] = None, count_only: bool = False) -> None:
        """Wrap every ``repro.*`` module global bound to *fn* (``from x import fn`` copies)."""
        make = self._count if count_only else self._span
        wrapper = make(f"{layer}.{fn.__name__}", fn, measure)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)

    def install(self) -> "Tracer":
        """Patch every boundary listed in :func:`_install_targets`."""
        _install_targets(self)
        return self

    def remove(self) -> None:
        """Restore every patched attribute (reverse order, so nesting unwinds)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    # ------------------------------------------------------------------ #
    # Reading the spans
    # ------------------------------------------------------------------ #
    def mark(self) -> Tuple[int, Dict[str, float]]:
        """A position in the recording; pass to :meth:`totals` as ``since``."""
        return len(self.spans), dict(self.counts)

    def totals(self, since: Optional[Tuple[int, Dict[str, float]]] = None,
               until: Optional[Tuple[int, Dict[str, float]]] = None) -> "TraceTotals":
        """Per-name calls / total / self seconds of the spans in ``[since, until)``."""
        lo, counts_lo = since if since is not None else (0, {})
        hi, counts_hi = until if until is not None else (len(self.spans), self.counts)
        self_s = [span[2] - span[1] for span in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                self_s[span[3]] -= span[2] - span[1]
        out = TraceTotals()
        for index in range(lo, hi):
            name, start, end, _ = self.spans[index]
            entry = out.by_name.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += self_s[index]
        out.counts = {k: v - counts_lo.get(k, 0) for k, v in counts_hi.items()}
        return out

    def parents_nest(self) -> bool:
        """Every span lies inside its parent's interval and starts after it."""
        for index, (_, start, end, parent) in enumerate(self.spans):
            if parent < 0:
                continue
            if parent >= index:
                return False
            _, p_start, p_end, _ = self.spans[parent]
            if start < p_start or end > p_end:
                return False
        return True

    def write_chrome_trace(self, path: str) -> None:
        """Dump the spans as Chrome-trace ``X`` events (chrome://tracing, Perfetto)."""
        origin = self.spans[0][1] if self.spans else 0.0
        events = [
            {
                "name": name.split(".", 1)[1],
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"span": index, "parent": parent},
            }
            for index, (name, start, end, parent) in enumerate(self.spans)
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


class TraceTotals:
    """Aggregated spans: ``by_name[name] = [calls, total_s, self_s]`` plus counts."""

    def __init__(self) -> None:
        self.by_name: Dict[str, list] = {}
        self.counts: Dict[str, float] = {}

    def _sum(self, prefix: str, column: int) -> float:
        return sum(v[column] for k, v in self.by_name.items()
                   if k == prefix or k.startswith(prefix + "."))

    def calls(self, prefix: str) -> int:
        """Number of spans whose name is *prefix* or starts with ``prefix.``."""
        return int(self._sum(prefix, 0))

    def total_s(self, prefix: str) -> float:
        return self._sum(prefix, 1)

    def self_s(self, prefix: str) -> float:
        return self._sum(prefix, 2)

    def method_self_s(self, layer: str, method: str) -> float:
        """Self seconds of ``layer.*.method`` over every class that defines it."""
        return sum(v[2] for k, v in self.by_name.items()
                   if k.startswith(layer + ".") and k.endswith("." + method))

    def method_calls(self, layer: str, method: str) -> int:
        return int(sum(v[0] for k, v in self.by_name.items()
                       if k.startswith(layer + ".") and k.endswith("." + method)))

    def count(self, key: str) -> float:
        return self.counts.get(key, 0)


# --------------------------------------------------------------------------- #
# The boundaries: one entry per public function the run path calls into
# --------------------------------------------------------------------------- #
def _add(key: str, value_of: Callable[[tuple, object], float]) -> Measure:
    def measure(counts: Dict[str, float], args: tuple, result: object) -> None:
        counts[key] = counts.get(key, 0) + value_of(args, result)
    return measure


def _both(*measures: Measure) -> Measure:
    def measure(counts: Dict[str, float], args: tuple, result: object) -> None:
        for m in measures:
            m(counts, args, result)
    return measure


SYNC_HOOKS = (
    "on_epoch_start", "can_start", "coalescing_round", "before_step", "process_step",
    "on_step_done", "on_trainer_exhausted", "on_epoch_end", "on_run_end",
)


def _install_targets(tracer: Tracer) -> None:
    from repro.cache.stack import TieredFeatureCache
    from repro.cache.tier import CacheTier
    from repro.core.prefetcher import Prefetcher
    from repro.distributed.ddp import allreduce_gradients
    from repro.distributed.kvstore import KVStore
    from repro.distributed.rpc import RPCChannel
    from repro.events.loop import EventLoop
    from repro.events.sync import SyncPolicy
    from repro.features.store import FeatureStore
    from repro.graph.datasets import load_dataset
    from repro.graph.halo import build_partitions
    from repro.graph.partition import partition_graph
    from repro.nn.graphsage import GraphSAGE
    from repro.nn.loss import cross_entropy
    from repro.nn.optim import Optimizer
    from repro.sampling.dataloader import DistDataLoader
    from repro.scenarios.registry import ClusterScenario
    from repro.serving.engine import InferenceClusterEngine
    from repro.training.async_engine import AsyncClusterEngine
    from repro.training.cluster_engine import ClusterEngine
    from repro.training.engine import train_step
    from repro.utils.validation import check_1d_int_array

    method, function = tracer.patch_method, tracer.patch_function

    method("scenarios", ClusterScenario, "materialize")
    function("graph", load_dataset)
    function("graph", partition_graph)
    function("graph", build_partitions)

    method("sampling", DistDataLoader, "sample", measure=_both(
        _add("sampling.edges", lambda a, r: r.total_edges()),
        _add("sampling.seeds", lambda a, r: len(a[1])),
    ))

    method("features", FeatureStore, "initialize")
    method("features", FeatureStore, "fetch")
    method("features", FeatureStore, "fetch_minibatch", measure=_both(
        _add("features.rows", lambda a, r: r[0].shape[0]),
        _add("features.halo_rows", lambda a, r: r[1].per_source["halo"].num_requested),
    ))

    method("core", Prefetcher, "initialize")
    method("core", Prefetcher, "process_minibatch",
           measure=_add("core.replaced", lambda a, r: r.nodes_replaced))

    method("cache", TieredFeatureCache, "fetch")
    method("cache", CacheTier, "lookup")
    method("cache", CacheTier, "admit", measure=_both(
        _add("cache.offered", lambda a, r: len(a[1])),
        _add("cache.admitted", lambda a, r: r),
    ))

    method("distributed", RPCChannel, "remote_pull")
    method("distributed", RPCChannel, "local_pull")
    method("distributed", KVStore, "pull")
    function("distributed", allreduce_gradients)

    method("nn", GraphSAGE, "forward")
    method("nn", GraphSAGE, "backward")
    method("nn", GraphSAGE, "flops", count_only=True,
           measure=_add("nn.flops", lambda a, r: r))
    function("nn", cross_entropy)
    method("nn", Optimizer, "step")

    method("events", EventLoop, "push")
    method("events", EventLoop, "pop",
           measure=_add("events.popped", lambda a, r: r is not None))
    for hook in SYNC_HOOKS:
        method("events", SyncPolicy, hook)

    function("training", train_step)
    method("training", ClusterEngine, "run")
    method("training", AsyncClusterEngine, "run")
    method("serving", InferenceClusterEngine, "run")

    function("utils", check_1d_int_array, count_only=True)


# --------------------------------------------------------------------------- #
# Two measurements that do not depend on the clock being quiet
# --------------------------------------------------------------------------- #
def count_calls(fn: Callable[[], object]) -> Tuple[object, int]:
    """Run *fn* under the interpreter's profile hook; returns (result, calls).

    ``cProfile`` is ``sys.setprofile`` implemented in C: it sees every Python
    and C function call.  The count depends only on the code path, so it
    repeats exactly from run to run where wall time cannot.
    """
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = fn()
    finally:
        profile.disable()
    return result, int(sum(entry.callcount for entry in profile.getstats()))
