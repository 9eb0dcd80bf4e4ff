"""Synthetic workload generators.

The paper has no empirical section, so the benchmarks of this reproduction
exercise the algorithms on synthetic databases whose shape controls the
quantities the paper reasons about:

* :func:`chain_database` — ``R_1(A_0, A_1, P_1), R_2(A_1, A_2, P_2), …``; a
  γ-acyclic schema with tunable join selectivity and null rate whose output
  grows roughly linearly with the input, the "well-behaved" regime.
* :func:`star_database` — ``R_1(Hub, X_1), …, R_n(Hub, X_n)``; every relation
  shares the single ``Hub`` attribute, so the output size is the product of
  the per-hub group sizes — exponential in ``n`` (the Section 3 regime that
  motivates input–output complexity).
* :func:`cycle_database` — ``R_i(A_i, A_{i+1 mod n})``; the smallest schemas
  that are *not* γ-acyclic, where the outerjoin baseline of [2] fails.
* :func:`random_database` — random connected schemas and data, used by the
  property-based tests to cross-check the algorithms against the oracle.

All generators take a ``seed`` and are fully deterministic.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.relational.database import Database
from repro.relational.nulls import NULL
from repro.relational.relation import Relation


def _maybe_null(rng: random.Random, value: object, null_rate: float) -> object:
    return NULL if rng.random() < null_rate else value


def chain_database(
    relations: int = 4,
    tuples_per_relation: int = 20,
    domain_size: int = 8,
    null_rate: float = 0.1,
    seed: int = 0,
) -> Database:
    """A chain schema ``R_j(A_{j-1}, A_j, P_j)`` with shared attributes between neighbours.

    ``domain_size`` controls join selectivity: smaller domains make more tuple
    pairs join-consistent and therefore a larger full disjunction.
    """
    if relations < 2:
        raise ValueError("a chain needs at least two relations")
    rng = random.Random(seed)
    database = Database()
    for index in range(1, relations + 1):
        relation = Relation(
            f"R{index}",
            [f"A{index - 1}", f"A{index}", f"P{index}"],
            label_prefix=f"r{index}_",
        )
        for row in range(tuples_per_relation):
            left = _maybe_null(rng, f"v{rng.randrange(domain_size)}", null_rate)
            right = _maybe_null(rng, f"v{rng.randrange(domain_size)}", null_rate)
            payload = f"p{index}_{row}"
            relation.add([left, right, payload])
        database.add_relation(relation)
    return database


def star_database(
    spokes: int = 4,
    tuples_per_relation: int = 6,
    hub_domain: int = 2,
    null_rate: float = 0.0,
    seed: int = 0,
) -> Database:
    """A star schema ``R_i(Hub, X_i)``: output size is exponential in ``spokes``.

    Every combination of one tuple per relation agreeing on ``Hub`` is join
    consistent and connected, so with ``g`` tuples per hub value per relation
    the full disjunction has about ``hub_domain · g^spokes`` members.
    """
    if spokes < 2:
        raise ValueError("a star needs at least two spoke relations")
    rng = random.Random(seed)
    database = Database()
    for index in range(1, spokes + 1):
        relation = Relation(
            f"S{index}", ["Hub", f"X{index}"], label_prefix=f"s{index}_"
        )
        for row in range(tuples_per_relation):
            hub = _maybe_null(rng, f"h{rng.randrange(hub_domain)}", null_rate)
            relation.add([hub, f"x{index}_{row}"])
        database.add_relation(relation)
    return database


def skewed_chain_database(
    relations: int = 4,
    tuples_per_relation: int = 12,
    hot_relation: int = 2,
    hot_factor: int = 8,
    domain_size: int = 4,
    null_rate: float = 0.1,
    seed: int = 0,
) -> Database:
    """A chain schema with one *hot* relation carrying ``hot_factor``× the tuples.

    Every relation draws its join values from the same domain, so the hot
    relation's tuples together hold more join-consistent partners in the
    neighbouring relations than any other relation's do, and its pass does
    the most work.  ``hot_relation`` is the 1-based chain position of the hot relation
    (``R2`` by default, so the skew sits mid-chain and joins in both
    directions).  Deterministic in ``seed`` like every generator here.
    """
    if relations < 2:
        raise ValueError("a chain needs at least two relations")
    if not 1 <= hot_relation <= relations:
        raise ValueError(
            f"hot_relation must be in 1..{relations}, got {hot_relation}"
        )
    if hot_factor < 1:
        raise ValueError(f"hot_factor must be positive, got {hot_factor}")
    rng = random.Random(seed)
    database = Database()
    for index in range(1, relations + 1):
        relation = Relation(
            f"R{index}",
            [f"A{index - 1}", f"A{index}", f"P{index}"],
            label_prefix=f"r{index}_",
        )
        rows = tuples_per_relation * (hot_factor if index == hot_relation else 1)
        for row in range(rows):
            left = _maybe_null(rng, f"v{rng.randrange(domain_size)}", null_rate)
            right = _maybe_null(rng, f"v{rng.randrange(domain_size)}", null_rate)
            payload = f"p{index}_{row}"
            relation.add([left, right, payload])
        database.add_relation(relation)
    return database


def cycle_database(
    relations: int = 4,
    tuples_per_relation: int = 10,
    domain_size: int = 4,
    null_rate: float = 0.05,
    seed: int = 0,
) -> Database:
    """A cyclic schema ``R_i(A_i, A_{i+1 mod n})`` — not γ-acyclic for ``n ≥ 3``."""
    if relations < 3:
        raise ValueError("a cycle needs at least three relations")
    rng = random.Random(seed)
    database = Database()
    for index in range(relations):
        nxt = (index + 1) % relations
        relation = Relation(
            f"C{index + 1}", [f"A{index}", f"A{nxt}"], label_prefix=f"c{index + 1}_"
        )
        for _ in range(tuples_per_relation):
            left = _maybe_null(rng, f"v{rng.randrange(domain_size)}", null_rate)
            right = _maybe_null(rng, f"v{rng.randrange(domain_size)}", null_rate)
            relation.add([left, right])
        database.add_relation(relation)
    return database


def random_database(
    relations: int = 3,
    attributes: int = 5,
    arity: int = 3,
    tuples_per_relation: int = 5,
    domain_size: int = 3,
    null_rate: float = 0.15,
    seed: int = 0,
    connected: bool = True,
) -> Database:
    """A random database over a shared attribute pool.

    Each relation draws ``arity`` attributes from a pool of ``attributes``
    names; when ``connected`` is true the schemas are re-drawn until the
    relation-connection graph is connected (the paper's precondition).
    """
    rng = random.Random(seed)
    pool = [f"A{index}" for index in range(attributes)]
    for _ in range(200):
        schemas: List[Sequence[str]] = []
        for _ in range(relations):
            size = min(arity, attributes)
            schemas.append(rng.sample(pool, size))
        database = Database()
        for index, schema in enumerate(schemas):
            relation = Relation(f"R{index + 1}", schema, label_prefix=f"r{index + 1}_")
            for _ in range(tuples_per_relation):
                relation.add(
                    [
                        _maybe_null(rng, f"v{rng.randrange(domain_size)}", null_rate)
                        for _ in schema
                    ]
                )
            database.add_relation(relation)
        if not connected or database.is_connected():
            return database
    raise RuntimeError(
        "could not draw a connected random schema; increase arity or lower the "
        "number of relations"
    )
