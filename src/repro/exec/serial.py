"""The serial backend: the paper's reference execution, extracted.

This backend *is* the pre-existing behaviour of the drivers — the per-step
functions are exactly :func:`repro.core.incremental.get_next_result` and
:func:`repro.core.approx.approx_get_next_result`, and
:meth:`SerialBackend.run_singleton_passes` runs the passes of
:func:`repro.core.full_disjunction.restricted_pass` one after another.  It
exists as a class so the batched and sharded backends can replace one
operation at a time while inheriting the rest.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.relational.database import Database
from repro.core.full_disjunction import restricted_pass
from repro.core.incremental import get_next_result
from repro.core.tupleset import TupleSet
from repro.exec.base import ExecutionBackend
from repro.obs.tracing import trace_span


class SerialBackend(ExecutionBackend):
    """One step at a time, one pass after another — the reference schedule."""

    name = "serial"

    def next_result(
        self,
        database,
        anchor,
        incomplete,
        complete,
        scanner=None,
        statistics=None,
        anchor_tuples=None,
    ) -> TupleSet:
        return get_next_result(
            database,
            anchor,
            incomplete,
            complete,
            scanner,
            statistics,
            anchor_tuples=anchor_tuples,
        )

    def approx_next_result(
        self,
        database,
        anchor,
        join_function,
        threshold,
        incomplete,
        complete,
        scanner=None,
        statistics=None,
    ) -> TupleSet:
        from repro.core.approx import approx_get_next_result

        return approx_get_next_result(
            database,
            anchor,
            join_function,
            threshold,
            incomplete,
            complete,
            scanner,
            statistics,
        )

    def run_singleton_passes(
        self,
        database: Database,
        use_index: bool = False,
        block_size: Optional[int] = None,
        statistics=None,
    ) -> Iterator[TupleSet]:
        """The paper's basic driver: one restricted pass per relation, in order."""
        for relation in database.relations:
            # The span covers the pass's wall clock as the consumer sees it
            # (pauses between pulls included) — on a trace, that is where
            # the serving time actually went.
            with trace_span("engine.pass", "engine", anchor=relation.name):
                yield from restricted_pass(
                    database,
                    relation.name,
                    use_index=use_index,
                    block_size=block_size,
                    statistics=statistics,
                    backend=self,
                )

    def run_approx_passes(
        self,
        database: Database,
        join_function,
        threshold: float,
        use_index: bool = False,
        statistics=None,
    ) -> Iterator[TupleSet]:
        """The Corollary 6.7 driver: a fresh ``ApproxIncrementalFD`` per relation."""
        from repro.core.approx import approx_incremental_fd

        for index, relation in enumerate(database.relations):
            earlier = {r.name for r in database.relations[:index]}
            for result in approx_incremental_fd(
                database,
                relation.name,
                join_function,
                threshold,
                use_index=use_index,
                statistics=statistics,
                backend=self,
            ):
                if any(result.contains_tuple_from(name) for name in earlier):
                    continue
                if statistics is not None:
                    statistics.results_emitted += 1
                yield result
