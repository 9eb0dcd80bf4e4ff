"""The per-tuple ``GetNextResult`` step, kept as the oracle of the mask step.

This is the step the engine ran before Lines 2–9 moved onto the catalog's
masks: every pass visits the scanned tuples one by one, extension asks
``can_absorb`` of each, and Lines 7–9 build the footnote-3 candidate
``maximal_jcc_subset_with`` of every tuple outside the result.  Tests run
a driver on it inside :func:`reference_step`, which swaps the step the
drivers call, so the shipped step needs no switch to select it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, ContextManager, Iterator, List

from repro.core import incremental, priority
from repro.core.incremental import EXACT
from repro.core.scanner import TupleScanner


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
    semantics=EXACT,
):
    """One ``GetNextResult`` step with one footnote-3 candidate per scanned tuple.

    Only the exact semantics has a reference here; any other is refused.
    """
    if semantics is not EXACT:
        raise ValueError(f"the reference step runs only the exact semantics, got {semantics!r}")
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
        if anchor_tuple is None:
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


@contextmanager
def swapped_step(step: Callable) -> Iterator[List[tuple]]:
    """Run every driver on ``step`` instead of the shipped ``get_next_result``.

    ``incremental_fd`` and ``PriorityState`` call the step through their
    modules' ``get_next_result``; both bindings are swapped for a recorder
    of ``step`` and restored on exit.  Yields the recorded calls, each as
    ``(anchor, semantics)``, so a test can tell that the swap took effect.
    The swap sets the module attributes itself: ``@given`` tests refuse the
    function-scoped ``monkeypatch`` fixture.
    """
    calls: List[tuple] = []

    def recorded(database, anchor, incomplete, complete, scanner=None,
                 statistics=None, semantics=EXACT):
        calls.append((anchor, semantics))
        return step(database, anchor, incomplete, complete, scanner, statistics, semantics)

    originals = [(module, module.get_next_result) for module in (incremental, priority)]
    for module, _ in originals:
        module.get_next_result = recorded
    try:
        yield calls
    finally:
        for module, original in originals:
            module.get_next_result = original


def reference_step() -> ContextManager[List[tuple]]:
    """:func:`swapped_step` with :func:`reference_get_next_result`."""
    return swapped_step(reference_get_next_result)
