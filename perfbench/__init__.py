"""Benchmark for diffalg; run perfbench/run.py (see its docstring)."""
