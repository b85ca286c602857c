"""Benchmark of the cqa-fermi command line; entry point ``run.py``."""
