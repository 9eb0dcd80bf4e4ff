"""Full-disjunction scans: the paper's algorithms as physical operators.

These operators wrap the streaming generators of :mod:`repro.core` behind the
iterator contract of :mod:`repro.engine.operators`, which is how [16]
integrated the algorithm into a database system:

* :class:`FullDisjunctionScan` — emits the members of ``FD(R)`` with
  polynomial delay; under a ``Limit(k)`` only the work for ``k`` answers is
  performed (Theorem 4.10).
* :class:`RankedFullDisjunctionScan` — emits answers in non-increasing rank
  order for a monotonically c-determined ranking function (Theorem 5.5); an
  order-producing yet *non-blocking* operator, unlike ``Sort``.
* :class:`ApproximateFullDisjunctionScan` — emits the members of the
  ``(A, τ)``-approximate full disjunction (Theorem 6.6).

Every scan produces padded rows over the union schema of the database, with
the provenance tuple set attached.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.relational.database import Database
from repro.relational.operators import combined_schema, pad_tuple_set
from repro.core.approx import ApproxSemantics, approx_full_disjunction_sets
from repro.core.approx_join import ApproximateJoinFunction
from repro.core.full_disjunction import full_disjunction_sets
from repro.core.priority import priority_incremental_fd
from repro.core.ranking import RankingFunction
from repro.core.tupleset import TupleSet
from repro.engine.operators import Operator
from repro.engine.rows import Row


class _StreamingScan(Operator):
    """Common machinery of the three full-disjunction scans."""

    def __init__(self, database: Database):
        super().__init__()
        self._database = database
        self._schema = combined_schema(database.relations)
        self._stream: Optional[Iterator] = None

    @property
    def database(self) -> Database:
        return self._database

    def open(self) -> None:
        super().open()
        # Build (or reuse) the interned catalog before streaming starts, so
        # the first call to next() pays only for the algorithm, not for the
        # one-off precomputation of the join-consistency bitmatrices.
        self._database.catalog()
        self._stream = self._make_stream()

    def close(self) -> None:
        self._stream = None
        super().close()

    def _make_stream(self) -> Iterator:
        raise NotImplementedError

    def _to_row(self, tuple_set: TupleSet, score: Optional[float] = None) -> Row:
        values = pad_tuple_set(tuple_set, self._schema)
        if score is not None:
            values["_score"] = score
        return Row(values, provenance=tuple_set)


class FullDisjunctionScan(_StreamingScan):
    """Emit ``FD(R)`` one padded row at a time (polynomial delay)."""

    def __init__(
        self,
        database: Database,
        use_index: bool = True,
        block_size: Optional[int] = None,
    ):
        super().__init__(database)
        self._use_index = use_index
        self._block_size = block_size

    def _make_stream(self) -> Iterator:
        return full_disjunction_sets(
            self._database,
            use_index=self._use_index,
            block_size=self._block_size,
        )

    def _produce(self) -> Optional[Row]:
        for tuple_set in self._stream:
            return self._to_row(tuple_set)
        return None

    def name(self) -> str:
        return f"FullDisjunctionScan({', '.join(self._database.relation_names)})"


class RankedFullDisjunctionScan(_StreamingScan):
    """Emit ``FD(R)`` in ranking order; the rank is exposed as the ``_score`` column."""

    def __init__(
        self,
        database: Database,
        ranking: RankingFunction,
        threshold: Optional[float] = None,
        use_index: bool = True,
    ):
        super().__init__(database)
        ranking.require_monotonically_c_determined()
        self._ranking = ranking
        self._threshold = threshold
        self._use_index = use_index

    def _make_stream(self) -> Iterator:
        return priority_incremental_fd(
            self._database,
            self._ranking,
            threshold=self._threshold,
            use_index=self._use_index,
        )

    def _produce(self) -> Optional[Row]:
        for tuple_set, score in self._stream:
            return self._to_row(tuple_set, score)
        return None

    def name(self) -> str:
        return f"RankedFullDisjunctionScan({self._ranking.name})"


class ApproximateFullDisjunctionScan(_StreamingScan):
    """Emit ``AFD(R, A, τ)``; with a ranking also in ranking order."""

    def __init__(
        self,
        database: Database,
        join_function: ApproximateJoinFunction,
        threshold: float,
        ranking: Optional[RankingFunction] = None,
        use_index: bool = True,
    ):
        super().__init__(database)
        self._join_function = join_function
        self._threshold = threshold
        self._ranking = ranking
        self._use_index = use_index

    def _make_stream(self) -> Iterator:
        if self._ranking is None:
            return approx_full_disjunction_sets(
                self._database,
                self._join_function,
                self._threshold,
                use_index=self._use_index,
            )
        return priority_incremental_fd(
            self._database,
            self._ranking,
            use_index=self._use_index,
            semantics=ApproxSemantics(self._join_function, self._threshold),
        )

    def _produce(self) -> Optional[Row]:
        if self._ranking is None:
            for tuple_set in self._stream:
                return self._to_row(tuple_set, self._join_function(tuple_set))
        else:
            for tuple_set, score in self._stream:
                return self._to_row(tuple_set, score)
        return None

    def name(self) -> str:
        return (
            f"ApproximateFullDisjunctionScan({self._join_function.name}, "
            f"τ={self._threshold})"
        )
