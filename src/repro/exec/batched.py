"""A name kept for the benchmark's span patches.

``perfbench/spans.py`` patches ``BatchedBackend.next_result`` by name.  The
benchmark-only change that edits ``spans.py`` deletes this module.
"""

from __future__ import annotations

from repro.exec.serial import SerialBackend


class BatchedBackend(SerialBackend):
    """The serial backend under its former name; not a registered backend."""
