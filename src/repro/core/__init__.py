"""The paper's algorithms: full disjunctions, ranked and approximate variants.

Public surface of the reproduction of Cohen & Sagiv, *An incremental
algorithm for computing ranked full disjunctions*:

* :func:`incremental_fd` / :func:`get_next_result` — Figs. 1–2;
* :func:`full_disjunction` / :class:`FullDisjunction` — the ``FD(R)`` driver
  (Corollary 4.9) with streaming access (Theorem 4.10);
* :func:`priority_incremental_fd` / :func:`top_k` / :func:`above_threshold` —
  Fig. 3, Theorem 5.5 and Remark 5.6;
* :class:`ApproxSemantics` / :func:`approx_full_disjunction` — Figs. 5–6,
  Theorem 6.6: passed as ``semantics``, it turns :func:`incremental_fd` into
  ``ApproxIncrementalFD`` and :func:`priority_incremental_fd` /
  :func:`top_k` into ranked retrieval of the approximate full disjunction;
* the supporting data model (:class:`TupleSet`, JCC), ranking functions,
  approximate-join functions and the block-based execution of Section 7.
"""

from repro.core.tupleset import TupleSet
from repro.core.triples import Triple, TripleList, merge_join_consistent, merge_triples
from repro.core.scanner import BlockScanner, TupleScanner
from repro.core.store import (
    CompleteStore,
    ListIncompletePool,
    PoolStatistics,
    PriorityIncompletePool,
    record_store_statistics,
)
from repro.core.incremental import (
    FDStatistics,
    get_next_result,
    incremental_fd,
    maximally_extend,
    resolve_anchor,
)
from repro.core.full_disjunction import (
    FullDisjunction,
    first_k,
    full_disjunction,
    full_disjunction_sets,
)
from repro.core.trace import ExecutionTrace, TraceSnapshot, format_trace, trace_incremental_fd
from repro.core.ranking import (
    CDeterminedRanking,
    MaxRanking,
    RankingFunction,
    SumRanking,
    canonical_rank_key,
    enumerate_connected_subsets,
    enumerate_connected_subsets_containing,
    importance_function,
    paper_example_ranking,
    top_k_by_exhaustive_ranking,
    validate_importance_spec,
)
from repro.core.priority import (
    PriorityState,
    above_threshold,
    build_priority_pools,
    priority_incremental_fd,
    top_k,
)
from repro.core.approx_join import (
    ApproximateJoinFunction,
    EditDistanceSimilarity,
    ExactJoin,
    ExactMatchSimilarity,
    MinJoin,
    ProductJoin,
    SimilarityFunction,
    TableSimilarity,
    levenshtein,
    string_similarity,
)
from repro.core.approx import (
    ApproximateFullDisjunction,
    ApproxSemantics,
    approx_full_disjunction,
    approx_full_disjunction_sets,
)
from repro.core.blocks import (
    BlockExecutionReport,
    block_based_full_disjunction,
    compare_block_sizes,
)

__all__ = [
    # data model
    "TupleSet",
    "Triple",
    "TripleList",
    "merge_join_consistent",
    "merge_triples",
    # scanners and pools
    "TupleScanner",
    "BlockScanner",
    "CompleteStore",
    "ListIncompletePool",
    "PriorityIncompletePool",
    "PoolStatistics",
    "record_store_statistics",
    # exact algorithm
    "FDStatistics",
    "incremental_fd",
    "get_next_result",
    "maximally_extend",
    "resolve_anchor",
    "full_disjunction",
    "full_disjunction_sets",
    "first_k",
    "FullDisjunction",
    # trace harness
    "ExecutionTrace",
    "TraceSnapshot",
    "trace_incremental_fd",
    "format_trace",
    # ranking
    "RankingFunction",
    "MaxRanking",
    "SumRanking",
    "CDeterminedRanking",
    "paper_example_ranking",
    "importance_function",
    "validate_importance_spec",
    "canonical_rank_key",
    "enumerate_connected_subsets",
    "enumerate_connected_subsets_containing",
    "top_k_by_exhaustive_ranking",
    "priority_incremental_fd",
    "PriorityState",
    "build_priority_pools",
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
    "levenshtein",
    "string_similarity",
    "ApproxSemantics",
    "approx_full_disjunction",
    "approx_full_disjunction_sets",
    "ApproximateFullDisjunction",
    # block-based execution
    "BlockExecutionReport",
    "block_based_full_disjunction",
    "compare_block_sizes",
]
