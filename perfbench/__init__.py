"""End-to-end and per-layer benchmark of the derived-field engine and
service (see ``perfbench/README.md``; entry point ``perfbench/run.py``)."""
