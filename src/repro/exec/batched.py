"""A class name kept for a span patch.

``perfbench/spans.py`` patches ``BatchedBackend.next_result`` by name, and
refuses a descriptor, so the stub is a plain method; no caller reads it.
The benchmark-only change that edits ``spans.py`` deletes this module.
"""

from __future__ import annotations

from repro.core.incremental import get_next_result


class BatchedBackend:
    """Not a backend: the one step under a former name."""

    def next_result(self, *args, **kwargs):
        return get_next_result(*args, **kwargs)
