"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import contextlib
import functools
import importlib.util
import os
import random

import pytest
from hypothesis import strategies as st

from repro.relational.database import Database
from repro.relational.nulls import NULL
from repro.relational.relation import Relation
from repro.workloads.tourist import noisy_tourist_database, tourist_database


@pytest.fixture
def tourist_db() -> Database:
    """The paper's Table 1 database."""
    return tourist_database()


@pytest.fixture
def noisy_db() -> Database:
    """The Fig. 4 variant with the misspelled ``Cannada`` and probabilities."""
    return noisy_tourist_database()


@pytest.fixture
def two_relation_db() -> Database:
    """A tiny two-relation database handy for operator tests."""
    left = Relation("Left", ["K", "A"], label_prefix="l")
    left.add(["k1", "a1"], label="l1")
    left.add(["k2", "a2"], label="l2")
    left.add([NULL, "a3"], label="l3")
    right = Relation("Right", ["K", "B"], label_prefix="r")
    right.add(["k1", "b1"], label="r1")
    right.add(["k3", "b3"], label="r2")
    return Database([left, right])


# --------------------------------------------------------------------------- #
# hypothesis strategies
# --------------------------------------------------------------------------- #
#: Attribute pool shared by generated schemas; small so relations overlap often.
ATTRIBUTE_POOL = ["A", "B", "C", "D"]

#: Value domain; small so joins happen often.  ``None`` cells become nulls.
VALUE_DOMAIN = ["u", "v", "w", None]


@st.composite
def small_databases(
    draw,
    max_relations: int = 4,
    max_tuples: int = 4,
    require_connected: bool = True,
):
    """Generate small random databases suitable for oracle cross-checks.

    The schemas draw 1–3 attributes from a 4-attribute pool and the values
    come from a 3-value domain plus null, so join-consistent combinations,
    nulls and disconnected candidates all occur with useful frequency while
    the brute-force oracle stays fast.
    """
    n_relations = draw(st.integers(min_value=2, max_value=max_relations))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)

    for _ in range(50):
        database = Database()
        for index in range(n_relations):
            arity = rng.randint(1, 3)
            attributes = rng.sample(ATTRIBUTE_POOL, arity)
            relation = Relation(f"R{index + 1}", attributes, label_prefix=f"r{index + 1}_")
            for _ in range(rng.randint(1, max_tuples)):
                relation.add([rng.choice(VALUE_DOMAIN) for _ in attributes])
            database.add_relation(relation)
        if not require_connected or database.is_connected():
            return database
    # Fall back to a guaranteed-connected database rather than rejecting.
    database = Database()
    for index in range(n_relations):
        relation = Relation(f"R{index + 1}", ["A", f"X{index}"], label_prefix=f"r{index + 1}_")
        for _ in range(rng.randint(1, max_tuples)):
            relation.add([rng.choice(VALUE_DOMAIN), rng.choice(VALUE_DOMAIN)])
        database.add_relation(relation)
    return database


def labels_of(tuple_sets) -> set:
    """Frozenset-of-labels view of a collection of tuple sets (order-insensitive)."""
    return {ts.labels() for ts in tuple_sets}


#: The benchmarks' directory: the Section 7 comparison arms live there, with
#: the experiments that compare them.
BENCHMARKS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks"
)


@functools.lru_cache(maxsize=None)
def _benchmark_module(name):
    """``benchmarks/<name>.py``, loaded by path and only read."""
    spec = importlib.util.spec_from_file_location(name, os.path.join(BENCHMARKS_DIR, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def reuse_initialization():
    """``benchmarks/reuse_initialization.py``: the reuse seedings, E7's and
    E1's comparison arm."""
    return _benchmark_module("reuse_initialization")


def linear_lists():
    """``benchmarks/linear_lists.py``: the paper's linear ``Complete`` and
    ``Incomplete`` lists, E1's and E6's comparison arm."""
    return _benchmark_module("linear_lists")


#: The two stores a pass can run on: ``plain``, the paper's linear lists
#: (:func:`linear_lists`), and ``indexed``, the Section 7 index the library
#: always uses.
STORES = ("plain", "indexed")


def on_store(store):
    """A context in which every ``incremental_fd`` pass runs on ``store``."""
    return linear_lists().linear_lists() if store == "plain" else contextlib.nullcontext()
