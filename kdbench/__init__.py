"""End-to-end and per-layer benchmark of factorkd; run it with `python3 kdbench/run.py`."""
