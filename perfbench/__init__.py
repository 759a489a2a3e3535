"""End-to-end benchmark of the repro CLI and library (see run.py)."""
