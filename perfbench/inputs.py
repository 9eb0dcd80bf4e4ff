"""Workload inputs made from ``--seed``, and answer checks independent of the engine.

Every database starts from a fixed generator seed, so the work is the same
on every seed: ``--seed`` permutes the star's rows among those sharing a hub
value, and renames the chains' values attribute by attribute, which yields
isomorphic inputs with the same answers by label.  The ``served-mixed``
write script is the same on every seed too, named by label.

The checks re-derive join consistency, connectivity and maximality from the
raw attribute values with their own code, not with the engine's predicates.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.relational.database import Database
from repro.relational.nulls import is_null
from repro.relational.relation import Relation
from repro.workloads.generators import chain_database

#: Sizes of each workload at full and smoke scale.
SCALES = {
    "full": {
        "star": {"spokes": 5, "hubs": 2, "per_hub": 3},
        "chain": {"relations": 5, "tuples_per_relation": 600, "domain_size": 300},
        "served": {"relations": 4, "tuples_per_relation": 45, "domain_size": 20},
    },
    "smoke": {
        "star": {"spokes": 4, "hubs": 2, "per_hub": 2},
        "chain": {"relations": 4, "tuples_per_relation": 60, "domain_size": 30},
        "served": {"relations": 3, "tuples_per_relation": 12, "domain_size": 5},
    },
}

#: Answers a ``chain-firstk`` query asks for.
FIRST_K = 30


def balanced_star(seed: int, spokes: int, hubs: int, per_hub: int) -> Database:
    """``S_i(Hub, X_i)`` with exactly ``per_hub`` tuples per hub value per spoke.

    Unlike ``star_database``, whose random hub draw changes the answer count
    (and the work) from seed to seed, every seed yields
    ``hubs * per_hub ** spokes`` answers.  The order of hub values down each
    relation is fixed, because it changes the engine's work by up to 40%;
    the seed permutes rows among those sharing a hub value, which yields
    isomorphic inputs.
    """
    shape = random.Random(0)
    rng = random.Random(seed)
    database = Database()
    for index in range(1, spokes + 1):
        column = [hub for hub in range(hubs) for _ in range(per_hub)]
        shape.shuffle(column)
        payloads = {}
        for hub in range(hubs):
            payloads[hub] = [f"x{index}_{hub}_{j}" for j in range(per_hub)]
            rng.shuffle(payloads[hub])
        relation = Relation(f"S{index}", ["Hub", f"X{index}"], label_prefix=f"s{index}_")
        for hub in column:
            relation.add([f"h{hub}", payloads[hub].pop()])
        database.add_relation(relation)
    return database


def renamed(database: Database, seed: int) -> Database:
    """The same rows in the same order with each attribute's values renamed.

    One bijection per attribute name, shared by every relation that has the
    attribute, so joins, nulls and row order stay as they were: an input
    isomorphic to ``database`` on which the engine does the same work.
    """
    rng = random.Random(seed)
    domains: Dict[str, Set[object]] = {}
    for relation in database.relations:
        for t in relation:
            for attribute, value in zip(relation.schema.attributes, t.values):
                if not is_null(value):
                    domains.setdefault(attribute, set()).add(value)
    names: Dict[str, Dict[object, object]] = {}
    for attribute in sorted(domains):
        values = sorted(domains[attribute])
        targets = list(values)
        rng.shuffle(targets)
        names[attribute] = dict(zip(values, targets))
    copy_of = Database()
    for relation in database.relations:
        attributes = list(relation.schema.attributes)
        copy = Relation(relation.name, attributes, label_prefix=relation._label_prefix)
        for t in relation:
            values = [
                value if is_null(value) else names[attribute][value]
                for attribute, value in zip(attributes, t.values)
            ]
            copy.add(values, label=t.label)
        copy_of.add_relation(copy)
    return copy_of


def chain(seed: int, relations: int, tuples_per_relation: int, domain_size: int,
          null_rate: float) -> Database:
    """``chain_database`` with fixed rows and row order; the seed renames values.

    Shuffling the rows instead moved the first answer's work by up to 20%
    from seed to seed.
    """
    base = chain_database(
        relations=relations,
        tuples_per_relation=tuples_per_relation,
        domain_size=domain_size,
        null_rate=null_rate,
        seed=0,
    )
    return renamed(base, seed)


# ---------------------------------------------------------------------- #
# answer checks
# ---------------------------------------------------------------------- #
Row = Tuple[str, Dict[str, object]]


def rows_by_label(database: Database) -> Dict[str, Row]:
    """``label -> (relation, {attribute: value})`` for every live tuple."""
    rows: Dict[str, Row] = {}
    for relation in database.relations:
        attributes = list(relation.schema.attributes)
        for t in relation:
            rows[t.label] = (relation.name, dict(zip(attributes, t.values)))
    return rows


def _consistent(a: Row, b: Row) -> bool:
    if a[0] == b[0]:
        return False
    for attribute, value in a[1].items():
        if attribute in b[1]:
            other = b[1][attribute]
            if is_null(value) or is_null(other) or value != other:
                return False
    return True


def _connected(members: Sequence[Row]) -> bool:
    if len(members) <= 1:
        return True
    seen = {0}
    frontier = [0]
    while frontier:
        current = frontier.pop()
        for j, other in enumerate(members):
            if j not in seen and set(members[current][1]) & set(other[1]):
                seen.add(j)
                frontier.append(j)
    return len(seen) == len(members)


def is_jcc(members: Sequence[Row]) -> bool:
    """Join consistent (pairwise, nulls never join) and connected."""
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            if not _consistent(members[i], members[j]):
                return False
    return _connected(members)


def check_star(answers: Iterable[frozenset], spokes: int, hubs: int, per_hub: int,
               rows: Dict[str, Row]) -> List[str]:
    """Exactly ``hubs * per_hub**spokes`` distinct answers, one tuple per spoke, one hub."""
    problems: List[str] = []
    answers = list(answers)
    expected = hubs * per_hub**spokes
    if len(answers) != expected or len(set(answers)) != expected:
        problems.append(f"star: {len(set(answers))} distinct of {len(answers)}, want {expected}")
    for labels in answers:
        members = [rows[label] for label in labels]
        relations = {relation for relation, _ in members}
        hubs_seen = {values["Hub"] for _, values in members}
        if len(members) != spokes or len(relations) != spokes or len(hubs_seen) != 1:
            problems.append(f"star: bad answer {sorted(labels)}")
            break
    return problems


def check_maximal_jcc(answers: Sequence[frozenset], rows: Dict[str, Row],
                      k: int) -> List[str]:
    """``k`` distinct answers, each JCC and unable to absorb any other tuple."""
    problems: List[str] = []
    if len(answers) != k or len(set(answers)) != k:
        problems.append(f"first-k: {len(set(answers))} distinct of {len(answers)}, want {k}")
    for labels in answers:
        members = [rows[label] for label in labels]
        if not is_jcc(members):
            problems.append(f"first-k: {sorted(labels)} is not JCC")
            break
        taken = {relation for relation, _ in members}
        for label, row in rows.items():
            if row[0] in taken:
                continue
            if all(_consistent(row, m) for m in members) and _connected(members + [row]):
                problems.append(f"first-k: {sorted(labels)} can absorb {label}")
                break
    return problems


# ---------------------------------------------------------------------- #
# the served write script
# ---------------------------------------------------------------------- #
class WriteScript:
    """A fixed ``update -> retract -> ingest`` cycle over a database copy.

    Each write is applied to the local copy as it is issued, so the copy is
    the database the server must hold once the write is acknowledged.  The
    retract and the ingest of one cycle hit the same relation, which keeps
    the live tuple count (and so the answer count's scale) constant.
    """

    KINDS = ("update", "retract", "ingest")

    def __init__(self, database: Database, domain_size: int):
        self.copy = database
        # The script is the same on every seed (the seed only orders rows),
        # so every run does the same write work.
        self.rng = random.Random(0)
        self.domain_size = domain_size
        self.step = 0
        self._relation = None

    def _values(self, relation: Relation) -> List[object]:
        attributes = list(relation.schema.attributes)
        values: List[object] = [
            f"v{self.rng.randrange(self.domain_size)}" for _ in attributes[:-1]
        ]
        values.append(f"w{self.step}")
        return values

    def next_request(self) -> dict:
        kind = self.KINDS[self.step % 3]
        if kind != "ingest":
            self._relation = self.rng.choice(sorted(self.copy.relations, key=lambda r: r.name))
        relation = self._relation
        if kind == "update":
            label = self.rng.choice(sorted(t.label for t in relation))
            values = self._values(relation)
            self.copy.update_tuple(relation.name, label, values)
            request = {"op": "update", "tuples": [[relation.name, label, values]]}
        elif kind == "retract":
            label = self.rng.choice(sorted(t.label for t in relation))
            self.copy.remove_tuple(relation.name, label)
            request = {"op": "retract", "tuples": [[relation.name, label]]}
        else:
            values = self._values(relation)
            self.copy.add_tuple(relation.name, values)
            request = {"op": "ingest", "tuples": [[relation.name, values]]}
        self.step += 1
        return request


def label_sets(results: Iterable[Sequence[str]]) -> Set[frozenset]:
    return {frozenset(labels) for labels in results}
