"""The per-tuple ``GetNextResult`` step, kept as the oracle of the mask step.

This is the step the engine ran before Lines 2–9 moved onto the catalog's
masks: every pass visits the scanned tuples one by one, extension asks
``can_absorb`` of each, and Lines 7–9 build the footnote-3 candidate
``maximal_jcc_subset_with`` of every tuple outside the result.  Tests inject
it through ``incremental_fd(backend=ReferenceBackend())``, so the shipped
step needs no switch to select it.
"""

from __future__ import annotations

from repro.core.scanner import TupleScanner
from repro.exec.serial import SerialBackend


def reference_maximally_extend(tuple_set, scanner, statistics=None):
    """Lines 2–6, one scanned tuple at a time."""
    current = tuple_set
    changed = True
    while changed:
        changed = False
        if statistics is not None:
            statistics.extension_passes += 1
        for candidate in scanner.scan():
            if candidate in current:
                continue
            if current.can_absorb(candidate):
                current = current.with_tuple(candidate)
                changed = True
    return current


def reference_get_next_result(
    database,
    anchor,
    incomplete,
    complete,
    scanner=None,
    statistics=None,
    anchor_tuples=None,
):
    """One ``GetNextResult`` step with one footnote-3 candidate per scanned tuple."""
    if scanner is None:
        scanner = TupleScanner(database)
    result = incomplete.pop()
    result = reference_maximally_extend(result, scanner, statistics)
    for outside in scanner.scan():
        if outside in result:
            continue
        candidate = result.maximal_jcc_subset_with(outside)
        if statistics is not None:
            statistics.candidates_generated += 1
        anchor_tuple = candidate.tuple_from(anchor)
        if anchor_tuple is None or (
            anchor_tuples is not None and anchor_tuple not in anchor_tuples
        ):
            if statistics is not None:
                statistics.candidates_without_anchor += 1
            continue
        if complete.contains_superset(candidate, anchor=anchor_tuple):
            if statistics is not None:
                statistics.candidates_subsumed += 1
            continue
        merged = False
        for waiting in incomplete.candidates(candidate):
            if waiting.union_is_jcc(candidate):
                incomplete.replace(waiting, waiting.union(candidate))
                merged = True
                if statistics is not None:
                    statistics.candidates_merged += 1
                break
        if merged:
            continue
        incomplete.add(candidate)
        if statistics is not None:
            statistics.candidates_inserted += 1
    return result


class ReferenceBackend(SerialBackend):
    """The serial schedule with the per-tuple reference step."""

    name = "reference"

    def next_result(
        self,
        database,
        anchor,
        incomplete,
        complete,
        scanner=None,
        statistics=None,
        anchor_tuples=None,
    ):
        return reference_get_next_result(
            database,
            anchor,
            incomplete,
            complete,
            scanner,
            statistics,
            anchor_tuples=anchor_tuples,
        )
