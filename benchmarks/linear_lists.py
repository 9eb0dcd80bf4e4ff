"""The paper's linear ``Complete``/``Incomplete`` lists: E1's and E6's comparison arm.

Figs. 1 and 2 keep ``Complete`` and ``Incomplete`` as linked lists, so the
subsumption test (Line 11) and the merge test (Line 14) of
``GetNextResult`` walk every stored set.  Section 7 recommends hash tables
keyed by the ``R_i`` tuple instead, and the library ships only those
(:mod:`repro.core.store`).  This module keeps the lists for the
experiments that measure what the tables save.

Inside :func:`linear_lists`, every ``incremental_fd`` pass, and so every
exact driver, runs over :class:`LinearCompleteStore` and
:class:`LinearIncompletePool`.  Their probes walk every member and count
one full scan each, and they never settle anchor singletons on masks.
Everything else is the library's: the positional list, its seed block,
and the buckets the index keeps, which the walks never read.  So the lists
return what the tables return, and count what the unindexed containers the
library had before counted; their wall time includes keeping the unread
buckets.  This module is not part of the library.  The benchmarks import it
as a sibling module, and the tests load it by path.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.core import incremental
from repro.core.store import CompleteStore, ListIncompletePool


class LinearCompleteStore(CompleteStore):
    """``Complete`` as the paper's list: every probe scans every stored set."""

    def contains_superset(self, probe, anchor=None) -> bool:
        return self._scan_all(probe)

    def contains_superset_mask(self, id_mask, relation_mask, anchor, catalog) -> bool:
        self.statistics.full_scans += 1
        return self._holds_mask(self._sets, id_mask, catalog)

    def covered_singletons(self, singletons, catalog):
        return None


class LinearIncompletePool(ListIncompletePool):
    """``Incomplete`` as the paper's list: every probe walks every member."""

    def waiting(self, anchor):
        return self._scan_all()

    def waiting_anchors(self, catalog):
        return None


@contextmanager
def linear_lists() -> Iterator[None]:
    """Run every ``incremental_fd`` pass started inside on the linear lists.

    ``incremental_fd`` builds its containers through the names
    ``CompleteStore`` and ``ListIncompletePool`` of
    :mod:`repro.core.incremental`; both are swapped for the list classes and
    restored on exit.  A ``Complete`` passed in by the caller is used as
    given.
    """
    originals = incremental.CompleteStore, incremental.ListIncompletePool
    incremental.CompleteStore = LinearCompleteStore
    incremental.ListIncompletePool = LinearIncompletePool
    try:
        yield
    finally:
        incremental.CompleteStore, incremental.ListIncompletePool = originals
