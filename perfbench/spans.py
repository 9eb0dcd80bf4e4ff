"""Spans recorded from outside the program, and the patches that record them.

The benchmark never edits the program.  A traced run replaces a fixed list
of public functions and methods (``ENGINE_TARGETS``, ``SERVER_TARGETS``)
with wrappers that open a span on a :class:`SpanRecorder`, call the original
and close the span.  Every name is patched where the program looks it up at
call time, and :meth:`Patches.restore` puts the original objects back, so an
untraced run in the same process executes unpatched code.

Self time follows one rule that holds for plain nested calls and for
interleaved asyncio requests alike: at every instant, the time goes to the
most recently opened span that is still open.  For nested synchronous calls
this is "span minus its child spans"; the sum over all spans equals the time
covered by at least one span, and ``wall - covered`` is reported as
``unattributed``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "SpanRecorder",
    "Patches",
    "EngineProbe",
    "ENGINE_TARGETS",
    "SERVER_TARGETS",
    "LAYER_SPANS",
    "layer_metrics",
    "layer_table",
]


class SpanRecorder:
    """Spans kept in memory as ``(name, parent, start, end)`` plus self time.

    ``clock`` is injectable so the self-time arithmetic can be checked on a
    synthetic span tree.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("i")
        self.parents = array("i")
        self.self_time: List[float] = []
        self.inclusive: List[float] = []
        self.counts: List[int] = []
        self._stack: List[int] = []
        self._closed: set = set()
        self._last = 0.0
        self.began: Optional[float] = None
        self.finished: Optional[float] = None

    def begin(self) -> None:
        """Start the traced window (its length is the traced wall time)."""
        self.began = self._last = self.clock()

    def finish(self) -> None:
        self.finished = self.clock()
        self._advance(self.finished)

    def _name_id(self, name: str) -> int:
        index = self._ids.get(name)
        if index is None:
            index = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_time.append(0.0)
            self.inclusive.append(0.0)
            self.counts.append(0)
        return index

    def _advance(self, now: float) -> None:
        if self._stack:
            self.self_time[self.name_ids[self._stack[-1]]] += now - self._last
        self._last = now

    def enter(self, name: str) -> int:
        now = self.clock()
        self._advance(now)
        index = len(self.starts)
        self.starts.append(now)
        self.ends.append(now)
        self.name_ids.append(self._name_id(name))
        self.parents.append(self._stack[-1] if self._stack else -1)
        self._stack.append(index)
        return index

    def exit(self, index: int) -> float:
        """Close span ``index``; returns its duration."""
        now = self.clock()
        self._advance(now)
        self.ends[index] = now
        name_id = self.name_ids[index]
        duration = now - self.starts[index]
        self.inclusive[name_id] += duration
        self.counts[name_id] += 1
        stack = self._stack
        if stack and stack[-1] == index:
            stack.pop()
        else:
            # An interleaved asyncio request closed under a later span.
            self._closed.add(index)
        while stack and stack[-1] in self._closed:
            self._closed.discard(stack.pop())
        return duration

    @property
    def wall(self) -> float:
        return (self.finished or self.clock()) - (self.began or 0.0)

    def table(self) -> Dict[str, dict]:
        """Per span name: self seconds, inclusive seconds, and call count."""
        return {
            name: {
                "self_s": self.self_time[i],
                "inclusive_s": self.inclusive[i],
                "count": self.counts[i],
            }
            for i, name in enumerate(self.names)
        }

    def unattributed(self) -> float:
        return self.wall - sum(self.self_time)

    def write(self, directory: str) -> None:
        """Write every span out: ``names.json`` plus one binary array per field.

        ``name_ids``/``parents`` are native ``int``, ``starts``/``ends``
        native ``double`` seconds on the ``perf_counter`` clock; span ``i``
        is entry ``i`` of each array, and a parent of -1 means none.
        """
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, "names.json"), "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "began": self.began, "finished": self.finished}, handle)
        for field in ("name_ids", "parents", "starts", "ends"):
            with open(os.path.join(directory, field + ".bin"), "wb") as handle:
                getattr(self, field).tofile(handle)


# ---------------------------------------------------------------------- #
# patch targets
# ---------------------------------------------------------------------- #
#: ``(module, attribute path, span name)`` for the in-process engine layers.
#: ``repro.exec.serial.get_next_result`` is the serial backend's own binding
#: of the step function, so it is patched separately.
ENGINE_TARGETS: List[Tuple[str, str, str]] = [
    ("repro.core.incremental", "get_next_result", "engine.step"),
    ("repro.exec.serial", "get_next_result", "engine.step"),
    ("repro.core.incremental", "maximally_extend", "engine.extend"),
    ("repro.core.tupleset", "TupleSet.maximal_jcc_subset_with", "engine.candidate"),
    ("repro.core.tupleset", "TupleSet.union_is_jcc", "store.incomplete_union_test"),
    ("repro.core.store", "CompleteStore.contains_superset", "store.complete_probe"),
    ("repro.core.store", "CompleteStore.contains_superset_batch", "store.complete_probe"),
    ("repro.core.store", "ListIncompletePool.candidates", "store.incomplete_probe"),
    ("repro.core.store", "ListIncompletePool.add", "store.incomplete_add"),
    ("repro.core.store", "ListIncompletePool.pop", "store.incomplete_pop"),
    ("repro.core.store", "ListIncompletePool.replace", "store.incomplete_replace"),
    ("repro.relational.database", "Database.catalog", "catalog.build"),
]

#: The serving layers, patched in the server child only.
SERVER_TARGETS: List[Tuple[str, str, str]] = [
    ("repro.exec.batched", "BatchedBackend.next_result", "exec.batched_step"),
    ("repro.service.cache", "PrefixCache.open", "cache.open"),
    ("repro.service.session", "QuerySession.next", "session.next"),
    ("repro.service.delta", "StreamingFullDisjunction.prime", "delta.prime"),
    ("repro.service.delta", "StreamingFullDisjunction.ingest", "delta.apply"),
    ("repro.service.delta", "StreamingFullDisjunction.remove", "delta.apply"),
    ("repro.service.delta", "StreamingFullDisjunction.update", "delta.apply"),
    ("repro.storage.store", "DurableStore.record", "storage.record"),
    ("repro.storage.store", "DurableStore.maybe_snapshot", "storage.snapshot"),
    ("repro.service.server", "QueryServer.handle_request", "server.handle"),
]

#: Span names that make up each reported layer (self time is summed).
LAYER_SPANS: Dict[str, Tuple[str, ...]] = {
    "relational.catalog": ("catalog.build",),
    "core.incremental": ("engine.step", "engine.extend", "engine.candidate", "engine.seed"),
    "core.store": (
        "store.complete_probe",
        "store.incomplete_probe",
        "store.incomplete_union_test",
        "store.incomplete_add",
        "store.incomplete_pop",
        "store.incomplete_replace",
    ),
    "exec": ("exec.batched_step",),
    "service.cache/session": ("cache.open", "session.next"),
    "service.delta": ("delta.prime", "delta.apply"),
    "service.server": ("server.handle",),
    "storage": ("storage.record", "storage.snapshot"),
}


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


class Patches:
    """A set of installed wrappers that can be undone exactly."""

    def __init__(self):
        self._undo: List[Tuple[object, str, bool, object]] = []

    def install(self, module_name: str, path: str, wrap: Callable) -> None:
        owner, attribute = _resolve(module_name, path)
        own = attribute in vars(owner)
        original = vars(owner)[attribute] if own else getattr(owner, attribute)
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"{module_name}.{path}: descriptors are not patched")
        self._undo.append((owner, attribute, own, original))
        setattr(owner, attribute, wrap(original))

    def restore(self) -> None:
        while self._undo:
            owner, attribute, own, original = self._undo.pop()
            if own:
                setattr(owner, attribute, original)
            else:
                # The attribute was inherited: remove the shadowing wrapper.
                delattr(owner, attribute)

    @staticmethod
    def current(module_name: str, path: str):
        """The object a lookup of ``module.path`` finds right now."""
        owner, attribute = _resolve(module_name, path)
        return getattr(owner, attribute)


# ---------------------------------------------------------------------- #
# the wrappers and the counters they keep
# ---------------------------------------------------------------------- #
def _argument(args, kwargs, position: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else None


class EngineProbe:
    """Installs the wrappers and keeps the counters read through them.

    Work counters come from the wrappers, not from the program's own
    statistics objects: the ``FDStatistics`` handed to ``first_k`` stays
    empty when the consumer stops early, because the serial driver merges
    pass statistics only after a pass ends.
    """

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self.patches = Patches()
        self.step_depth = 0
        self.counters: Dict[str, float] = {
            "steps": 0,
            "discarded": 0,
            "dedup_waste_s": 0.0,
            "extension_passes": 0,
            "line9_rejects": 0,
            "subsumed": 0,
        }
        #: PoolStatistics of every container a wrapper saw.
        self.complete_stats: Dict[int, object] = {}
        self.incomplete_stats: Dict[int, object] = {}

    # -- generic span wrappers ------------------------------------------ #
    def _span(self, name: str, on_result=None, container=None):
        recorder = self.recorder

        def wrap(original):
            if inspect.iscoroutinefunction(original):

                @functools.wraps(original)
                async def traced_async(*args, **kwargs):
                    index = recorder.enter(name)
                    try:
                        return await original(*args, **kwargs)
                    finally:
                        recorder.exit(index)

                return traced_async

            @functools.wraps(original)
            def traced(*args, **kwargs):
                if container is not None:
                    # Keyed by the statistics object, which the dict keeps
                    # alive, so a recycled container id cannot alias it.
                    stats = args[0].statistics
                    container[id(stats)] = stats
                index = recorder.enter(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    recorder.exit(index)
                if on_result is not None:
                    on_result(result)
                return result

            return traced

        return wrap

    def _count_subsumed(self, result) -> None:
        if isinstance(result, list):
            self.counters["subsumed"] += sum(1 for hit in result if hit)
        elif result:
            self.counters["subsumed"] += 1

    def _step(self, original):
        recorder = self.recorder
        counters = self.counters

        @functools.wraps(original)
        def traced_step(*args, **kwargs):
            database, anchor = args[0], args[1]
            statistics = _argument(args, kwargs, 5, "statistics")
            before = (
                (statistics.extension_passes, statistics.candidates_without_anchor)
                if statistics is not None
                else None
            )
            self.step_depth += 1
            index = recorder.enter("engine.step")
            try:
                result = original(*args, **kwargs)
            finally:
                duration = recorder.exit(index)
                self.step_depth -= 1
            counters["steps"] += 1
            if before is not None:
                counters["extension_passes"] += statistics.extension_passes - before[0]
                counters["line9_rejects"] += (
                    statistics.candidates_without_anchor - before[1]
                )
            # The serial driver's duplicate rule: a result of pass i holding
            # a tuple of R_1..R_{i-1} was already emitted by an earlier pass.
            order = {r.name: i for i, r in enumerate(database.relations)}
            position = order[anchor]
            if any(order[t.relation_name] < position for t in result):
                counters["discarded"] += 1
                counters["dedup_waste_s"] += duration
            return result

        return traced_step

    def _add(self, original):
        """``Incomplete.add`` is seeding outside a step, Line 18 inside one."""
        recorder = self.recorder
        pools = self.incomplete_stats

        @functools.wraps(original)
        def traced_add(pool, tuple_set):
            pools[id(pool.statistics)] = pool.statistics
            index = recorder.enter(
                "store.incomplete_add" if self.step_depth else "engine.seed"
            )
            try:
                return original(pool, tuple_set)
            finally:
                recorder.exit(index)

        return traced_add

    # -- installation ---------------------------------------------------- #
    def install(self, targets) -> None:
        # Import every module first: a module imported after a patch would
        # bind the wrapper under its own name and wrap it a second time.
        for module_name, _, _ in targets:
            importlib.import_module(module_name)
        for module_name, path, name in targets:
            if name == "engine.step":
                wrap = self._step
            elif path.endswith("ListIncompletePool.add"):
                wrap = self._add
            elif path.startswith("CompleteStore."):
                wrap = self._span(
                    name, on_result=self._count_subsumed, container=self.complete_stats
                )
            elif path.startswith("ListIncompletePool."):
                wrap = self._span(name, container=self.incomplete_stats)
            else:
                wrap = self._span(name)
            self.patches.install(module_name, path, wrap)

    def restore(self) -> None:
        self.patches.restore()

    def store_counters(self) -> Dict[str, float]:
        complete = list(self.complete_stats.values())
        incomplete = list(self.incomplete_stats.values())
        return {
            "complete_sets_scanned": sum(s.sets_scanned for s in complete),
            "incomplete_sets_scanned": sum(s.sets_scanned for s in incomplete),
            "incomplete_replacements": sum(s.replacements for s in incomplete),
            "incomplete_peak": max((s.peak_size for s in incomplete), default=0),
        }


def layer_metrics(recorder: SpanRecorder, probe: EngineProbe) -> Dict[str, float]:
    """The per-layer metrics every workload reports (served ones add more).

    Times are self times unless noted.
    """
    table = recorder.table()

    def self_s(*names: str) -> float:
        return sum(table[n]["self_s"] for n in names if n in table)

    def inclusive_s(name: str) -> float:
        return table[name]["inclusive_s"] if name in table else 0.0

    def count(name: str) -> int:
        return table[name]["count"] if name in table else 0

    counters = probe.counters
    store = probe.store_counters()
    candidates = count("engine.candidate")
    produced = int(counters["steps"])
    emitted = produced - int(counters["discarded"])
    return {
        "catalog.build_s": self_s("catalog.build"),
        "engine.seed_s": self_s("engine.seed"),
        "engine.extend_s": self_s("engine.extend"),
        "engine.extension_passes": int(counters["extension_passes"]),
        "engine.candidates_s": self_s("engine.candidate"),
        "engine.candidates": candidates,
        "engine.line9_reject_ratio": (
            counters["line9_rejects"] / candidates if candidates else 0.0
        ),
        "engine.step_self_s": self_s("engine.step"),
        "engine.steps": produced,
        "store.complete_probe_s": self_s("store.complete_probe"),
        "store.complete_sets_scanned": store["complete_sets_scanned"],
        "store.subsumed": int(counters["subsumed"]),
        "store.incomplete_merge_s": self_s(
            "store.incomplete_probe",
            "store.incomplete_union_test",
            "store.incomplete_add",
            "store.incomplete_pop",
        ),
        "store.incomplete_replace_s": self_s("store.incomplete_replace"),
        "store.incomplete_sets_scanned": store["incomplete_sets_scanned"],
        "store.incomplete_replacements": store["incomplete_replacements"],
        "store.incomplete_peak": store["incomplete_peak"],
        "exec.produced": produced,
        "exec.emitted": emitted,
        "exec.produced_per_emitted": produced / emitted if emitted else 0.0,
        "exec.dedup_waste_s": counters["dedup_waste_s"],
        "engine.batched_step_s": self_s("exec.batched_step"),
        "cache.open_s": self_s("cache.open"),
        "session.next_s": self_s("session.next"),
        # Whole maintainer calls, engine work included: what set-up and a
        # write wait for.  The layer table still charges only self time.
        "delta.prime_s": inclusive_s("delta.prime"),
        "delta.apply_s": inclusive_s("delta.apply"),
        "server.handle_s": self_s("server.handle"),
        "storage.record_s": self_s("storage.record"),
        "storage.snapshot_s": self_s("storage.snapshot"),
        "trace.wall_s": recorder.wall,
        "trace.unattributed_s": recorder.unattributed(),
    }


def layer_table(recorder: SpanRecorder) -> List[Tuple[str, float]]:
    """``(layer, self seconds)`` rows, plus ``unattributed``, summing to wall."""
    table = recorder.table()
    rows = [
        (layer, sum(table[n]["self_s"] for n in names if n in table))
        for layer, names in LAYER_SPANS.items()
    ]
    rows.append(("unattributed", recorder.unattributed()))
    return rows
