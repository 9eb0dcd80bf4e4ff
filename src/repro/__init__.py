"""repro — a reproduction of *An Incremental Algorithm for Computing Ranked Full Disjunctions*.

The **full disjunction** ``FD(R)`` of a set of connected relations maximally
combines join-consistent tuples while preserving all information — the
associative, n-ary generalisation of the outerjoin that information
integration needs.  This library reproduces Cohen & Sagiv (PODS 2005 / JCSS
2007): the incremental algorithm ``IncrementalFD``, its ranked variant
``PriorityIncrementalFD`` and its approximate variant ``ApproxIncrementalFD``,
together with the relational substrate, the baselines the paper compares
against and the workloads/benchmarks that validate the paper's claims.

The variants share two loops: :func:`incremental_fd` (Fig. 1) and
:func:`priority_incremental_fd` (Fig. 3).  Both take a ``semantics``
argument; ``ApproxSemantics(A, τ)`` makes the first ``ApproxIncrementalFD``
and the second ranked retrieval of the approximate full disjunction, e.g.
``top_k(database, ranking, k, semantics=ApproxSemantics(A, 0.8))``.

Quick start::

    from repro import Database, Relation, FullDisjunction

    climates = Relation.from_rows("Climates", ["Country", "Climate"],
                                  [["Canada", "diverse"], ["UK", "temperate"]])
    hotels = Relation.from_rows("Hotels", ["Country", "Hotel"],
                                [["Canada", "Plaza"], ["Bahamas", "Hilton"]])
    fd = FullDisjunction(Database([climates, hotels]))
    for tuple_set in fd:          # streamed, one result at a time
        print(tuple_set)

See ``examples/`` for ranked retrieval (top-k), approximate integration and
block-based execution.
"""

from repro.relational import (
    NULL,
    Null,
    is_null,
    Schema,
    Tuple,
    Relation,
    Database,
    ReproError,
    SchemaError,
    RelationError,
    DatabaseError,
    CSVFormatError,
)
from repro.core import (
    TupleSet,
    FDStatistics,
    incremental_fd,
    full_disjunction,
    full_disjunction_sets,
    first_k,
    FullDisjunction,
    trace_incremental_fd,
    format_trace,
    MaxRanking,
    SumRanking,
    CDeterminedRanking,
    RankingFunction,
    priority_incremental_fd,
    top_k,
    above_threshold,
    MinJoin,
    ProductJoin,
    ExactJoin,
    ExactMatchSimilarity,
    EditDistanceSimilarity,
    TableSimilarity,
    SimilarityFunction,
    ApproximateJoinFunction,
    ApproxSemantics,
    approx_full_disjunction,
    ApproximateFullDisjunction,
    block_based_full_disjunction,
    compare_block_sizes,
)
from repro.service import (
    QuerySession,
    open_session,
    PrefixCache,
    StreamingFullDisjunction,
    incremental_replay_stream,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # relational substrate
    "NULL",
    "Null",
    "is_null",
    "Schema",
    "Tuple",
    "Relation",
    "Database",
    "ReproError",
    "SchemaError",
    "RelationError",
    "DatabaseError",
    "CSVFormatError",
    # core algorithms
    "TupleSet",
    "FDStatistics",
    "incremental_fd",
    "full_disjunction",
    "full_disjunction_sets",
    "first_k",
    "FullDisjunction",
    "trace_incremental_fd",
    "format_trace",
    # ranking
    "RankingFunction",
    "MaxRanking",
    "SumRanking",
    "CDeterminedRanking",
    "priority_incremental_fd",
    "top_k",
    "above_threshold",
    # approximate
    "SimilarityFunction",
    "ExactMatchSimilarity",
    "EditDistanceSimilarity",
    "TableSimilarity",
    "ApproximateJoinFunction",
    "MinJoin",
    "ProductJoin",
    "ExactJoin",
    "ApproxSemantics",
    "approx_full_disjunction",
    "ApproximateFullDisjunction",
    # execution variants
    "block_based_full_disjunction",
    "compare_block_sizes",
    # serving layer
    "QuerySession",
    "open_session",
    "PrefixCache",
    "StreamingFullDisjunction",
    "incremental_replay_stream",
]
