"""Benchmark for figr; run it as ``python3 perfbench/run.py`` (see run.py)."""
