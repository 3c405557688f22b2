"""End-to-end and per-layer benchmark of crossconf; ``run.py`` is the entry point."""
