"""The sharded backend: bucket-range work stealing across a process pool.

Under the ``singletons`` initialization strategy the ``n`` passes of the
full-disjunction driver are completely independent: pass ``i`` is
:func:`repro.core.full_disjunction.restricted_pass`, which scans
``R_i, …, R_n`` only and drops every result that can absorb a live tuple of
an earlier relation.  *Within* a pass the anchor buckets are independent
too: restricting Line 9 to a subset ``B ⊆ R_i`` of anchor tuples is exactly
the paper's algorithm over a database in which ``R_i`` has been split into
sub-relations (two tuples of one relation are never join consistent, so
every tuple set holds at most one ``R_i`` tuple and all pool merges are
anchor-local — see :func:`repro.core.incremental.get_next_result`).  The
split now happens within ``R_i, …, R_n``, so a restricted range produces
precisely the sets of pass ``i`` anchored in ``B``, once each, and the drop
rule applies to each of them unchanged.

This backend therefore distributes **bucket ranges**, not whole passes:

* :func:`plan_bucket_ranges` splits every pass's anchor tuples into
  size-weighted contiguous ranges, using the catalog's per-tuple consistency
  masks as the weight — a skewed hot bucket lands in its own range instead of
  serializing the pass.  The plan depends only on the database, never on the
  worker count.
* Every range becomes one task on the long-lived
  ``concurrent.futures.ProcessPoolExecutor``; the worker runs the restricted
  pass for the range.  The executor's shared task queue *is* the
  work-stealing queue: idle workers pull the next pending range the moment
  they finish one, so a straggler range never idles the rest of the pool.
* The database — including its cached, immutable
  :class:`~repro.relational.catalog.Catalog` snapshot with the precomputed
  bitmatrices — is pickled **once** in the parent and shipped as bytes with
  every task; workers cache the unpickled snapshot by token, so the catalog
  is rebuilt neither per task nor per worker.
* The parent consumes futures in **plan order** (relation order, then range
  order), re-interns results against its own catalog, and merges statistics
  range by range in that same fixed order, on every exit — so results *and*
  merged ``FDStatistics`` (``sets_scanned`` included) are byte-identical
  across worker counts and steal interleavings, and an abandoned stream
  still reports the ranges it consumed.

The approximate driver runs through the same pool runner with one task per
relation: a whole :func:`repro.core.approx.approx_pass`, in the same plan
order, so its output order is the serial one.  Without the exact Line 14
``JCC`` test, a similarity merge could join candidates across anchor tuples,
so bucket-splitting an approx pass is not sound, and approx passes keep
scanning the whole database.

Worker pools are long-lived: one shared pool, sized to the most recent
request — resizing discards the old pool instead of leaking it, and
:func:`shutdown_pools` releases it eagerly (the server calls it on shutdown;
interpreter exit remains the backstop).  When the host cannot spawn processes
(restricted sandboxes, unpicklable ad-hoc databases) the backend degrades to
the inherited in-process schedule with a warning rather than failing — the
schedule is a performance choice, never a correctness one.  Workers and the
fallback run the serial step, :func:`repro.core.incremental.get_next_result`.
"""

from __future__ import annotations

import atexit
import itertools
import os
import pickle
import warnings
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple as TupleType

from repro.relational.database import Database
from repro.core.approx import approx_pass
from repro.core.full_disjunction import restricted_pass
from repro.core.incremental import FDStatistics
from repro.core.kernels import active_kernel, set_kernel
from repro.core.tupleset import TupleSet
from repro.exec.serial import SerialBackend

#: A result shipped across the process boundary: its member tuples' keys.
ResultKeys = FrozenSet[TupleType[str, str]]

#: How many ranges a pass is split into when no bucket dominates.  More
#: ranges than workers is the point: the surplus is what idle workers steal.
#: The plan never depends on the worker count, so results are reproducible.
TARGET_RANGES_PER_PASS = 16

#: The one long-lived worker pool, as ``(max_workers, executor)``.  Spawning
#: processes costs tens of milliseconds — paid once per size, not per call.
_POOL: Optional[TupleType[int, object]] = None


def _shared_pool(max_workers: int):
    global _POOL
    from concurrent.futures import ProcessPoolExecutor

    if _POOL is not None and _POOL[0] != max_workers:
        # A resized worker count replaces the pool rather than leaking the
        # old one alongside it.
        shutdown_pools()
    if _POOL is None:
        _POOL = (max_workers, ProcessPoolExecutor(max_workers=max_workers))
    return _POOL[1]


def _discard_pool(max_workers: Optional[int] = None) -> None:
    """Drop the shared pool after a systemic submission failure."""
    global _POOL
    if _POOL is not None and (max_workers is None or _POOL[0] == max_workers):
        pool = _POOL[1]
        _POOL = None
        pool.shutdown(wait=False, cancel_futures=True)


def shutdown_pools(wait: bool = False) -> None:
    """Shut down the shared worker pool (idempotent).

    Long-running hosts — the server above all — call this on shutdown so
    worker processes die with the service instead of lingering until
    interpreter exit.  The next backend call simply spawns a fresh pool.
    """
    global _POOL
    if _POOL is None:
        return
    pool = _POOL[1]
    _POOL = None
    pool.shutdown(wait=wait, cancel_futures=True)


atexit.register(shutdown_pools)


#: Parent side: tokens for pre-pickled database snapshots.
_PAYLOAD_TOKENS = itertools.count(1)

#: Worker side: the latest unpickled snapshot, keyed by its token.
_WORKER_DATABASES: Dict[TupleType[int, int], Database] = {}

#: A database snapshot in transit: ``(token, blob)`` where ``blob`` is
#: either the pickle bytes or — for databases with a durable file-backed
#: mirror — a ``(mirror path, generation)`` reference the worker maps
#: instead of unpickling (zero-copy through the OS page cache).
DatabasePayload = TupleType[TupleType[int, int], object]


def _mirror_reference(database: Database) -> Optional[TupleType[str, tuple]]:
    """``(path, generation)`` when workers can map this database's mirror.

    Requires a current catalog whose packed mirror is a durable file: the
    file then carries everything a worker needs (matrices, relation
    metadata, tuple payloads).  A writable mirror is stamped with the
    database's generation right here — it is maintained in lockstep with
    the catalog, so the file is at a database-consistent point whenever the
    catalog is current.  A read-only attachment must already carry the
    matching stamp; a mismatch means the file has moved on and the pickle
    path is the only safe transport.
    """
    if not database._catalog_is_current():
        return None
    catalog = database._catalog_cache
    mirror = catalog._packed_mirror
    if mirror is None or mirror.file is None or mirror.file.ephemeral:
        return None
    handle = mirror.file
    generation = tuple(database.generation)
    if handle.readonly:
        if tuple(handle.generation) != generation:
            return None
    else:
        handle.stamp_generation(generation)
        handle.flush()
    return os.path.abspath(handle.path), generation


def _database_payload(database: Database) -> DatabasePayload:
    """Snapshot ``database`` once; every task of the call ships the result.

    Databases with a durable file-backed mirror ship a path reference —
    workers map the same pages read-only via the OS page cache instead of
    each holding a full unpickled copy.  Everything else ships the classic
    one-time pickle.
    """
    token = (os.getpid(), next(_PAYLOAD_TOKENS))
    reference = _mirror_reference(database)
    if reference is not None:
        return token, reference
    return token, pickle.dumps(database, protocol=pickle.HIGHEST_PROTOCOL)


def _payload_database(payload: DatabasePayload) -> Database:
    """Worker side: materialise a snapshot once, reuse it across stolen ranges."""
    token, blob = payload
    database = _WORKER_DATABASES.get(token)
    if database is None:
        # Keep at most one cached snapshot per worker: streaming runs push a
        # fresh snapshot per pass and the old ones would only pile up.
        _WORKER_DATABASES.clear()
        if isinstance(blob, bytes):
            database = pickle.loads(blob)
        else:
            from repro.relational.catalog_file import load_database

            path, generation = blob
            database = load_database(path)
            if tuple(database.generation) != tuple(generation):
                raise RuntimeError(
                    f"mirror file {path} is at generation "
                    f"{tuple(database.generation)}, task expected {tuple(generation)}"
                )
        _WORKER_DATABASES[token] = database
    return database


def _payload_probe(payload: DatabasePayload) -> float:
    """Benchmark hook: cold worker-side payload materialisation time.

    Clears the worker's snapshot cache first, so the measurement is the
    true cold-start cost of the given transport (unpickle vs. mmap attach).
    Returns seconds.
    """
    import time

    _WORKER_DATABASES.clear()
    start = time.perf_counter()
    _payload_database(payload)
    return time.perf_counter() - start


def plan_bucket_ranges(
    database: Database, target_ranges: int = TARGET_RANGES_PER_PASS
) -> List[TupleType[str, List[List[str]]]]:
    """Partition every pass's anchor tuples into size-weighted ranges.

    Returns ``[(anchor_name, [range, ...]), ...]`` in database relation
    order; each range is a contiguous run of anchor-tuple labels in scan
    order.  A tuple's weight is ``1 +`` the number of live tuples join
    consistent with it (the catalog's per-tuple consistency mask), a cheap
    proxy for how much of the pass's work its bucket attracts.  Ranges are
    packed greedily up to ``ceil(total / target_ranges)`` — so a hot bucket
    heavier than the cap is isolated in a range of its own and cannot
    serialize the whole pass behind it.

    The plan is a pure function of the database: worker count and steal
    order never influence it, which is what makes the merged output
    byte-identical across pool sizes.
    """
    catalog = database.catalog()
    live = catalog.live_mask
    plan: List[TupleType[str, List[List[str]]]] = []
    for relation in database.relations:
        tuples = list(database.relation(relation.name))
        weights = []
        for t in tuples:
            gid = catalog.id_of(t)
            weight = 1
            if gid is not None:
                weight += bin(catalog.consistent_mask(gid) & live).count("1")
            weights.append(weight)
        cap = max(1, -(-sum(weights) // max(1, target_ranges)))
        ranges: List[List[str]] = []
        current: List[str] = []
        current_weight = 0
        for t, weight in zip(tuples, weights):
            if current and current_weight + weight > cap:
                ranges.append(current)
                current, current_weight = [], 0
            current.append(t.label)
            current_weight += weight
        if current:
            ranges.append(current)
        plan.append((relation.name, ranges))
    return plan


def _pass_worker(
    payload: DatabasePayload,
    anchor_name: str,
    labels: Optional[List[str]],
    use_index: bool,
    block_size: Optional[int],
    kernel_name: Optional[str] = None,
    trace: bool = False,
    semantics=None,
) -> TupleType[List[ResultKeys], FDStatistics, Optional[dict]]:
    """One task inside a worker: a bucket range of one restricted pass or,
    given an approximate ``semantics``, one whole approximate pass.

    The range runs :func:`~repro.core.full_disjunction.restricted_pass`
    limited to its anchor tuples (the ``anchor_tuples`` bucket restriction);
    the approximate task runs :func:`~repro.core.approx.approx_pass` for the
    whole anchor relation (``labels`` is ``None``).  Results ship back as
    frozensets of ``(relation_name, label)`` keys — tiny, and unambiguous
    because labels are unique per relation.  The parent's kernel name rides
    along so workers run the same inner-loop implementation even when the
    parent selected it programmatically; the approximate join function rides
    along inside ``semantics``.

    With ``trace=True`` the task runs under a fresh worker-local
    :class:`~repro.obs.tracing.PhaseTracer` and its span log rides home as
    the third slot — ``{"pid": worker pid, "events": [...]}`` — for the
    parent to absorb during the plan-order merge.  Untraced calls carry
    ``None`` there, keeping the future result shape uniform.
    """
    if kernel_name is not None:
        set_kernel(kernel_name)
    database = _payload_database(payload)
    statistics = FDStatistics()
    if semantics is None:
        label_set = frozenset(labels)
        passes = restricted_pass(
            database,
            anchor_name,
            use_index=use_index,
            block_size=block_size,
            statistics=statistics,
            anchor_tuples=frozenset(
                t for t in database.relation(anchor_name) if t.label in label_set
            ),
        )
    else:
        passes = approx_pass(
            database, anchor_name, semantics, use_index=use_index, statistics=statistics
        )
    results: List[ResultKeys] = []

    def run() -> None:
        for result in passes:
            results.append(
                frozenset((t.relation_name, t.label) for t in result)
            )

    trace_payload: Optional[dict] = None
    if trace:
        from repro.obs.tracing import PhaseTracer, use_tracer

        tracer = PhaseTracer()
        with use_tracer(tracer):
            with tracer.span(
                "shard.range", "shard", anchor=anchor_name, labels=len(labels or ())
            ):
                run()
        trace_payload = {"pid": os.getpid(), "events": tracer.events()}
    else:
        run()
    return results, statistics, trace_payload


def _replay(
    keys_list: List[ResultKeys],
    task_statistics: FDStatistics,
    statistics: Optional[FDStatistics],
    label_map,
    catalog,
) -> Iterator[TupleSet]:
    """Yield one task's results in the parent, then merge its statistics.

    Results are re-interned against the parent's catalog.  The merge runs on
    every exit, so a consumer that stops early still sees the work of the
    task it stopped in; ``results_emitted`` then counts what was yielded.
    """
    yielded = 0
    try:
        for keys in keys_list:
            yielded += 1
            yield TupleSet((label_map[key] for key in keys), catalog=catalog)
    finally:
        if statistics is not None:
            task_statistics.results_emitted = yielded
            statistics.merge(task_statistics)


class ShardedBackend(SerialBackend):
    """Fan bucket ranges (and whole approximate passes) out to worker processes."""

    name = "sharded"

    def __init__(self, max_workers: int = 2):
        if max_workers < 1:
            raise ValueError(f"max_workers must be positive, got {max_workers}")
        self.max_workers = max_workers
        # One fallback warning per backend instance: a streaming run pushes
        # hundreds of passes through the same backend, and a host that could
        # not spawn processes for the first one will not spawn them for the
        # rest — re-warning per pass only spams stderr.
        self._warned_fallback = False

    def __repr__(self) -> str:
        return f"ShardedBackend(max_workers={self.max_workers})"

    def run_singleton_passes(
        self,
        database: Database,
        use_index: bool = False,
        block_size: Optional[int] = None,
        statistics=None,
    ) -> Iterator[TupleSet]:
        tasks = [
            (anchor_name, labels)
            for anchor_name, ranges in plan_bucket_ranges(database)
            for labels in ranges
        ]
        yield from self._run_on_pool(
            database,
            tasks,
            use_index,
            block_size,
            statistics,
            fallback=lambda: super(ShardedBackend, self).run_singleton_passes(
                database,
                use_index=use_index,
                block_size=block_size,
                statistics=statistics,
            ),
        )

    def run_approx_passes(
        self,
        database: Database,
        semantics,
        use_index: bool = False,
        statistics=None,
    ) -> Iterator[TupleSet]:
        """Fan the independent approximate passes out to the pool, one task
        per relation.

        Always pass-grained — the starred Line 14 merge (``A(S ∪ T') ≥ τ``)
        can join candidates across anchor tuples, so the bucket restriction
        that makes exact ranges independent is not sound here.  An
        unpicklable ad-hoc join function degrades to the in-process schedule
        exactly like a host that cannot spawn processes.
        """
        tasks = [(relation.name, None) for relation in database.relations]
        yield from self._run_on_pool(
            database,
            tasks,
            use_index,
            None,
            statistics,
            fallback=lambda: super(ShardedBackend, self).run_approx_passes(
                database, semantics, use_index=use_index, statistics=statistics
            ),
            semantics=semantics,
        )

    def _run_on_pool(
        self,
        database: Database,
        tasks,
        use_index,
        block_size,
        statistics,
        fallback,
        semantics=None,
    ) -> Iterator[TupleSet]:
        """Run ``tasks`` — ``(anchor name, range labels or None)`` pairs in
        plan order — one pool task each (see :func:`_pass_worker`).

        All tasks are submitted up front; the executor's shared queue hands
        the next pending task to whichever worker frees up first (work
        stealing).  The parent consumes futures strictly in plan order —
        relation order, then range order — so the emitted sequence and the
        merged statistics never depend on completion order.  Task ``i``'s
        results stream out while later tasks are still running; abandoning
        the generator (first-k retrieval) cancels every task not yet
        started.  Systemic failures (no process spawn, unpicklable
        arguments) surface on the first task and degrade to ``fallback()``
        — the in-process schedule — with a warning.
        """
        if not tasks:
            return  # no tuples anywhere; the full disjunction is empty
        # Build the catalog *before* pickling so every worker receives the
        # precomputed bitmatrices instead of rebuilding them.
        catalog = database.catalog()
        label_map = {(t.relation_name, t.label): t for t in database.tuples()}
        workers = min(self.max_workers, len(tasks))

        futures = []
        try:
            try:
                executor = _shared_pool(workers)
                kernel_name = active_kernel().name
                payload = _database_payload(database)
                # Workers trace when the parent is tracing: each task runs
                # under a worker-local tracer and ships its span log home.
                from repro.obs.tracing import get_tracer

                parent_tracer = get_tracer()
                futures = [
                    executor.submit(
                        _pass_worker, payload, anchor_name, labels,
                        use_index, block_size, kernel_name,
                        parent_tracer is not None, semantics,
                    )
                    for anchor_name, labels in tasks
                ]
                # Resolve the first task before yielding anything: systemic
                # failures (no process spawn, unpicklable database) surface
                # here, while the fallback can still take over cleanly.
                first_output = futures[0].result()
            except Exception as error:
                for future in futures:
                    future.cancel()
                futures = []
                _discard_pool(workers)
                if not self._warned_fallback:
                    self._warned_fallback = True
                    warnings.warn(
                        f"sharded backend could not use a process pool ({error!r}); "
                        "falling back to in-process passes",
                        RuntimeWarning,
                        stacklevel=3,
                    )
                yield from fallback()
                return

            for cursor in range(len(tasks)):
                keys_list, task_statistics, task_trace = (
                    first_output if cursor == 0 else futures[cursor].result()
                )
                if parent_tracer is not None and task_trace is not None:
                    # Worker spans join the parent's trace during the same
                    # plan-order merge the results take, attributed by
                    # range id and true worker pid.
                    parent_tracer.absorb(
                        task_trace["events"],
                        pid=task_trace["pid"],
                        range_id=cursor,
                    )
                yield from _replay(
                    keys_list, task_statistics, statistics, label_map, catalog
                )
        finally:
            # Abandoned generators cancel tasks not yet started; the shared
            # pool itself stays warm for the next call.
            for future in futures:
                future.cancel()
