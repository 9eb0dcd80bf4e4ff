"""The execution-backend interface: *what* the engine computes vs. *how*.

The paper's algorithms are defined by two loops: the per-pass
``GetNextResult`` step (Fig. 2 / Fig. 6) and the full-disjunction driver that
runs one ``IncrementalFD`` pass per relation (Corollary 4.9).  Everything
else — candidate generation, subsumption, merging — is a property of the
*algorithm*; whether the passes run one after another or fan out across
processes is a property of the *schedule*.

:class:`ExecutionBackend` is that seam.  Every driver runs one of two
loops — :func:`repro.core.incremental.incremental_fd` (Fig. 1, under either
join semantics, with or without a shared ``Complete``) or
:meth:`repro.core.priority.PriorityState.results` (Fig. 3) — and both
dispatch each step through a backend's ``next_result``.  The full
disjunction's independent passes (:mod:`repro.core.full_disjunction`,
:mod:`repro.core.approx`) are scheduled by the backend as a whole, so the
same algorithm runs under either of:

* :class:`~repro.exec.serial.SerialBackend` — the paper's reference
  execution, extracted from the original driver loops;
* :class:`~repro.exec.sharded.ShardedBackend` — the restricted passes of
  the ``singletons`` strategy, split into anchor-bucket ranges, and the
  whole approximate passes, run on a ``ProcessPoolExecutor``, with
  deterministic result and statistics merging.

Both backends produce the same result sets; the cross-backend tests in
``tests/exec/test_backend_equivalence.py`` check them against the naive
oracle.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.relational.database import Database
from repro.core.incremental import EXACT
from repro.core.tupleset import TupleSet


class ExecutionBackend:
    """How the full-disjunction engines schedule their work.

    ``next_result`` is the step every driver calls, for both join
    semantics.  ``run_singleton_passes`` and ``run_approx_passes`` own the
    scheduling of the independent per-relation passes — the one place where
    whole passes, not single steps, can be reordered or parallelised.
    """

    #: Backend name as accepted by :func:`repro.exec.resolve_backend`.
    name = "abstract"

    def next_result(
        self,
        database: Database,
        anchor: str,
        incomplete,
        complete,
        scanner=None,
        statistics=None,
        anchor_tuples=None,
        semantics=EXACT,
    ) -> TupleSet:
        """One ``GetNextResult`` step (Fig. 2, or Fig. 6 under ``semantics``).

        The arguments are those of
        :func:`repro.core.incremental.get_next_result`.
        """
        raise NotImplementedError

    def run_singleton_passes(
        self,
        database: Database,
        use_index: bool = False,
        block_size: Optional[int] = None,
        statistics=None,
    ) -> Iterator[TupleSet]:
        """Compute ``FD(R)`` with the default singleton initialization.

        Pass ``i`` is :func:`repro.core.full_disjunction.restricted_pass`
        for ``R_i``: it scans ``R_i, …, R_n`` only and drops every result
        that can absorb a live tuple of an earlier relation, so each member
        of the full disjunction is yielded exactly once, by the pass of its
        first relation.  Implementations may split or reorder the passes but
        must run each of them through that function.  They must merge
        per-pass statistics into ``statistics`` deterministically, in
        database relation order, on every exit — an abandoned stream
        included — with ``results_emitted`` counting the answers yielded.
        """
        raise NotImplementedError

    def run_approx_passes(
        self,
        database: Database,
        semantics,
        use_index: bool = False,
        statistics=None,
    ) -> Iterator[TupleSet]:
        """Compute ``AFD(R, A, τ)`` (Corollary 6.7) under this backend's schedule.

        ``semantics`` is the :class:`~repro.core.approx.ApproxSemantics` of
        ``(A, τ)``.  Pass ``i`` is :func:`repro.core.approx.approx_pass` for
        ``R_i``; the passes are independent exactly like the exact driver's
        singleton passes, so the backend owns their schedule too, under the
        same rules as :meth:`run_singleton_passes`.  Yields every member of
        the approximate full disjunction exactly once, in database relation
        order.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
