"""Two names kept for the E18 benchmark's span patches; nothing calls them.

``perfbench/spans.py`` patches ``repro.exec.serial.get_next_result`` and
``repro.exec.batched.BatchedBackend.next_result`` by name.  Every driver
calls :func:`repro.core.incremental.get_next_result` directly, so both
patches wrap code no run reaches.  The benchmark-only change that edits
``spans.py`` deletes this package.
"""
