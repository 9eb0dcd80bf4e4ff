"""The serial backend: the paper's reference execution, extracted.

This backend *is* the pre-existing behaviour of the drivers — the step is
exactly :func:`repro.core.incremental.get_next_result`, and
:meth:`SerialBackend.run_singleton_passes` and
:meth:`SerialBackend.run_approx_passes` run the passes of
:func:`repro.core.full_disjunction.restricted_pass` and
:func:`repro.core.approx.approx_pass` one after another.  It exists as a
class so the sharded backend can replace the pass schedule while inheriting
the rest.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.relational.database import Database
from repro.core.approx import approx_pass
from repro.core.full_disjunction import restricted_pass
from repro.core.incremental import EXACT, get_next_result
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
        semantics=EXACT,
    ) -> TupleSet:
        return get_next_result(
            database,
            anchor,
            incomplete,
            complete,
            scanner,
            statistics,
            anchor_tuples=anchor_tuples,
            semantics=semantics,
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
        semantics,
        use_index: bool = False,
        statistics=None,
    ) -> Iterator[TupleSet]:
        """The Corollary 6.7 driver: one approximate pass per relation, in order."""
        for relation in database.relations:
            yield from approx_pass(
                database,
                relation.name,
                semantics,
                use_index=use_index,
                statistics=statistics,
                backend=self,
            )
