"""The batched backend: bucket-amortized ``GetNextResult``.

The Line 7–18 loop of ``GetNextResult`` derives one candidate tuple set per
outside tuple and probes the ``Complete`` store for each (the Line 10–11
subsumption test).  With the Section 7 index, candidates sharing an anchor
tuple probe the *same* bucket — so the serial loop fetches and walks the same
bucket groups over and over.

The batched step exploits one structural fact: **``Complete`` never changes
during a single ``GetNextResult`` call** (the produced result is appended by
the driver only after the call returns).  Candidate generation (Footnote 3)
depends only on the popped-and-extended result, so the step can be split into
three exactly-equivalent phases:

1. take the candidates that pass Line 9, in scan order, from the serial
   step's own generator (:func:`repro.core.incremental.line9_candidates`),
   and group them by anchor tuple;
2. answer all subsumption probes bucket by bucket, fetching each ``Complete``
   bucket once per *batch* instead of once per candidate
   (:meth:`repro.core.store.CompleteStore.contains_superset_batch`);
3. replay the surviving candidates in the original scan order against the
   live ``Incomplete`` pool (merges and inserts must observe each other, so
   phase 3 is deliberately sequential).

Because phase 3 runs in the serial order and phases 1–2 answer exactly the
questions the serial loop would have asked, the batched step produces the
identical result, the identical pool evolution and therefore the identical
output *sequence* — for the FIFO drivers and for the ranked/priority drivers
alike.  Only the ``bucket_probes`` work counter drops.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple as TupleType

from repro.relational.database import Database
from repro.relational.tuples import Tuple
from repro.core import incremental
from repro.core.kernels import active_kernel
from repro.core.scanner import TupleScanner
from repro.core.tupleset import TupleSet
from repro.exec.serial import SerialBackend


def _batch_subsumption(complete, buckets: Dict[Tuple, List[TupleSet]]):
    """Answer the Line 10-11 probes for whole anchor buckets at once."""
    probe_batch = getattr(complete, "contains_superset_batch", None)
    answers: Dict[Tuple, List[bool]] = {}
    for anchor_tuple, group in buckets.items():
        if probe_batch is not None:
            answers[anchor_tuple] = probe_batch(group, anchor=anchor_tuple)
        else:
            # A store without the batch API (e.g. the reference pools) still
            # works — probe per candidate, exactly like the serial step.
            answers[anchor_tuple] = [
                complete.contains_superset(candidate, anchor=anchor_tuple)
                for candidate in group
            ]
    return answers


def _batched_candidate_phases(
    incomplete, complete, statistics, candidates, merge_union,
    jcc_merge: bool = False,
) -> None:
    """The three phases of Lines 10–18, shared by the exact and starred steps.

    ``candidates`` yields ``(T', anchor tuple)`` for every candidate that
    passed Line 9, in scan order (Phase 1: grouped by anchor tuple; the
    generator counts the candidates itself); ``merge_union`` is the Line
    12–15 predicate — given a waiting set and a candidate it returns their
    union when the pair may merge, ``None`` otherwise.  Phase 2 answers all
    subsumption probes bucket by bucket; Phase 3 replays the survivors in the
    original order against the live ``Incomplete`` pool.  When ``jcc_merge``
    is true the merge predicate is the exact Line 14 ``JCC(S ∪ T')`` test
    and Phase 3 finds the first partner through the active kernel's batched
    probe (identical first-match semantics, one call per candidate instead
    of one ``union_is_jcc`` per waiting set).
    """
    kernel = active_kernel() if jcc_merge else None
    entries: List[TupleType[TupleSet, Tuple]] = []
    buckets: Dict[Tuple, List[TupleSet]] = {}
    for candidate, anchor_tuple in candidates:
        entries.append((candidate, anchor_tuple))
        buckets.setdefault(anchor_tuple, []).append(candidate)

    # Phase 2 (Lines 10-11): one Complete probe per bucket, not per candidate.
    subsumed = _batch_subsumption(complete, buckets)

    # Phase 3 (Lines 12-18): replay survivors in scan order against the live
    # Incomplete pool.
    cursors: Dict[Tuple, int] = dict.fromkeys(buckets, 0)
    for candidate, anchor_tuple in entries:
        position = cursors[anchor_tuple]
        cursors[anchor_tuple] = position + 1
        if subsumed[anchor_tuple][position]:
            if statistics is not None:
                statistics.candidates_subsumed += 1
            continue
        merged = False
        if kernel is not None:
            waiting_list = incomplete.candidates(candidate)
            index = kernel.first_jcc_union(waiting_list, candidate)
            if index >= 0:
                waiting = waiting_list[index]
                incomplete.replace(waiting, waiting.union(candidate))
                merged = True
                if statistics is not None:
                    statistics.candidates_merged += 1
        else:
            for waiting in incomplete.candidates(candidate):
                union = merge_union(waiting, candidate)
                if union is not None:
                    incomplete.replace(waiting, union)
                    merged = True
                    if statistics is not None:
                        statistics.candidates_merged += 1
                    break
        if merged:
            continue
        incomplete.add(candidate)
        if statistics is not None:
            statistics.candidates_inserted += 1


def get_next_result_batched(
    database: Database,
    anchor: str,
    incomplete,
    complete,
    scanner: Optional[TupleScanner] = None,
    statistics=None,
    anchor_tuples=None,
) -> TupleSet:
    """``GetNextResult`` (Fig. 2) with bucket-batched ``Complete`` probes.

    Observationally identical to
    :func:`repro.core.incremental.get_next_result` — same result, same pool
    mutations in the same order, same ``sets_scanned`` — with the subsumption
    probes of Lines 10–11 amortized to one store probe per anchor bucket.
    Lines 2–9 are the serial step's own
    (:func:`~repro.core.incremental.maximally_extend` and
    :func:`~repro.core.incremental.line9_candidates`), and ``anchor_tuples``
    applies the same bucket-range restriction to the Line 9 test.
    """
    if scanner is None:
        scanner = TupleScanner(database)

    # Line 1: remove a tuple set from Incomplete; Lines 2-6: extend it.
    result = incomplete.pop()
    result = incremental.maximally_extend(result, scanner, statistics)

    def merge_union(waiting, candidate):
        # Line 14: JCC(S ∪ T').
        if waiting.union_is_jcc(candidate):
            return waiting.union(candidate)
        return None

    # Lines 7-9: the candidates that hold an anchor tuple.
    candidates = incremental.line9_candidates(
        result, anchor, scanner, statistics, anchor_tuples
    )
    _batched_candidate_phases(
        incomplete, complete, statistics, candidates, merge_union, jcc_merge=True
    )

    # Line 19.
    return result


def approx_get_next_result_batched(
    database: Database,
    anchor: str,
    join_function,
    threshold: float,
    incomplete,
    complete,
    scanner: Optional[TupleScanner] = None,
    statistics=None,
) -> TupleSet:
    """``ApproxGetNextResult`` (Fig. 6) with bucket-batched ``Complete`` probes.

    The starred Line 8 may emit several candidates per outside tuple
    (Example 6.3); they are bucketed exactly like the exact algorithm's.
    """
    from repro.core.approx import approx_line9_candidates, approx_maximally_extend

    if scanner is None:
        scanner = TupleScanner(database)

    result = incomplete.pop()
    result = approx_maximally_extend(
        result, join_function, threshold, scanner, statistics
    )

    def merge_union(waiting, candidate):
        # Line 14 (starred): merge when A(S ∪ T') ≥ τ.
        union = waiting.union(candidate)
        if union.is_connected and join_function(union) >= threshold:
            return union
        return None

    candidates = approx_line9_candidates(
        result, anchor, join_function, threshold, scanner, statistics
    )
    _batched_candidate_phases(
        incomplete, complete, statistics, candidates, merge_union
    )

    return result


class BatchedBackend(SerialBackend):
    """Anchor-bucket batching of the ``GetNextResult`` probe loop.

    Pass scheduling is inherited from :class:`SerialBackend`; only the
    per-step functions change.
    """

    name = "batched"

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
        return get_next_result_batched(
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
        return approx_get_next_result_batched(
            database,
            anchor,
            join_function,
            threshold,
            incomplete,
            complete,
            scanner,
            statistics,
        )
