"""Approximate full disjunctions for dirty-data integration (Section 6).

The scenario: three web sources describe the same set of entities, but the
entity names were extracted by imperfect wrappers, so they contain spelling
errors, and each source has a known reliability.  The exact full disjunction
keeps misspelled records apart; the ``(A, τ)``-approximate full disjunction
with the ``A_min`` join function and an edit-distance similarity re-links
them, trading precision against recall through the threshold ``τ``.

The script also reproduces the worked numbers of Examples 6.1 and 6.3
(Fig. 4) on the noisy tourist data.

Run with::

    python examples/data_integration_approx.py
"""

from __future__ import annotations

from repro import (
    ApproximateFullDisjunction,
    EditDistanceSimilarity,
    MinJoin,
    ProductJoin,
    full_disjunction,
)
from repro.core.tupleset import TupleSet
from repro.workloads.dirty import dirty_sources_database
from repro.workloads.tourist import noisy_tourist_database, noisy_tourist_similarity


def figure4_worked_examples() -> None:
    print("Worked examples of Section 6 (Fig. 4)")
    print("=====================================")
    database = noisy_tourist_database()
    similarity = noisy_tourist_similarity()
    amin = MinJoin(similarity)
    aprod = ProductJoin(similarity)
    catalog = database.catalog()

    t1 = TupleSet((database.tuple_by_label(label) for label in ("c1", "a2", "s2")), catalog)
    print(f"A_min({{c1, a2, s2}})  = {amin(t1):.2f}   (paper: 0.5)")
    print(f"A_prod({{c1, a2, s2}}) = {aprod(t1):.2f}   (paper: 0.32)")

    base = TupleSet((database.tuple_by_label(label) for label in ("c1", "s1", "a2")), catalog)
    s2 = database.tuple_by_label("s2")
    amin_extensions = amin.candidate_extensions(base, s2, 0.4)
    aprod_extensions = aprod.candidate_extensions(base, s2, 0.4)
    print(f"A_min maximal qualifying subsets containing s2 (τ=0.4): {amin_extensions}")
    print(f"A_prod maximal qualifying subsets containing s2 (τ=0.4): {sorted(map(repr, aprod_extensions))}")

    print("\nApproximate full disjunction of the noisy tourist data (A_min, τ=0.4)")
    afd = ApproximateFullDisjunction(database, amin, threshold=0.4)
    print(afd.pretty())


def dirty_integration_sweep() -> None:
    print("\n\nIntegrating three unreliable sources")
    print("====================================")
    database = dirty_sources_database(
        entities=15, sources=3, coverage=0.9, typo_rate=0.35, null_rate=0.05, seed=7,
        source_reliability=[1.0, 0.95, 0.9],
    )
    for relation in database:
        reliability = relation.tuples[0].probability if len(relation) else 1.0
        print(f"  {relation.name}: {len(relation)} records, reliability {reliability}")

    exact = full_disjunction(database)
    exact_linked = sum(1 for ts in exact if len(ts) > 1)
    print(f"\nExact full disjunction: {len(exact)} answers, {exact_linked} linking two or more sources")

    amin = MinJoin(EditDistanceSimilarity())
    print(f"\n{'τ':>6}  {'answers':>8}  {'linked':>7}  {'largest':>8}")
    for threshold in (0.9, 0.8, 0.7, 0.6, 0.5):
        afd = ApproximateFullDisjunction(database, amin, threshold=threshold)
        results = afd.compute()
        linked = sum(1 for ts in results if len(ts) > 1)
        largest = max(len(ts) for ts in results)
        print(f"{threshold:>6.2f}  {len(results):>8}  {linked:>7}  {largest:>8}")
    print(
        "\nLowering τ links more records across sources (higher recall), at the "
        "price of accepting weaker matches."
    )


def main() -> None:
    figure4_worked_examples()
    dirty_integration_sweep()


if __name__ == "__main__":
    main()
