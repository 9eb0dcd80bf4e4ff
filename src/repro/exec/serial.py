"""``get_next_result`` under a former import path, kept for a span patch.

``perfbench/spans.py`` patches this module's binding by name; no caller
reads it.  The benchmark-only change that edits ``spans.py`` deletes it.
"""

from __future__ import annotations

from repro.core.incremental import get_next_result

__all__ = ["get_next_result"]
