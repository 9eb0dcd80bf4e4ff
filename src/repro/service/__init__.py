"""The serving layer: long-lived, resumable query sessions over the engines.

The paper's algorithm is an *iterator* — ``GetNextResult`` hands out the next
answer on demand — but a reproduction that can only run a driver start to
finish wastes that shape.  This package turns the engines into a service:

:mod:`repro.service.session`
    :class:`~repro.service.session.QuerySession` — a pausable first-k cursor
    over any driver (fd / priority / approx / ranked-approx), backed by a
    shared append-only :class:`~repro.service.session.ResultLog` so pausing,
    resuming, forking and replaying never recompute an already-emitted
    prefix.
:mod:`repro.service.cache`
    :class:`~repro.service.cache.PrefixCache` — an LRU of result logs keyed
    by (database generation, engine, options) so identical queries from
    different clients share one computation; the append-only catalog's
    generation counter is the invalidation token.
:mod:`repro.service.delta`
    :class:`~repro.service.delta.StreamingFullDisjunction` — incremental
    maintenance under streaming ingest: each arrival seeds only its own
    singleton into a live pass against the accumulated ``Complete`` store
    (with a ``ranking``, only its own size-≤c subsets into the live priority
    queues), so per-arrival work is proportional to the delta and open
    sessions observe new results without restarting.
:mod:`repro.service.server`
    An asyncio JSON-lines TCP server (``repro serve``) driving sessions for
    many concurrent clients one step at a time (``SessionDriver``); a
    ranked ``open`` validates its wire importance map and ships scores with
    every answer.
"""

from repro.service.session import (
    ENGINES,
    QuerySession,
    ResultLog,
    Retraction,
    StaleResultLog,
    open_session,
)
from repro.service.cache import PrefixCache, database_generation
from repro.service.delta import (
    DeltaSummary,
    StreamingFullDisjunction,
    incremental_replay_stream,
)

__all__ = [
    "ENGINES",
    "QuerySession",
    "ResultLog",
    "Retraction",
    "StaleResultLog",
    "open_session",
    "PrefixCache",
    "database_generation",
    "DeltaSummary",
    "StreamingFullDisjunction",
    "incremental_replay_stream",
]
