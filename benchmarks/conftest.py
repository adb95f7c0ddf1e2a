"""Shared configuration for the benchmark assertion modules.

Each ``bench_*.py`` module reproduces one of the paper's claims (its docstring
names the experiment and the sections) and asserts it; a few also pin speed
ratios.  CI runs them as plain pytest with the timing loops disabled::

    PYTHONPATH=src python -m pytest -q --benchmark-disable benchmarks/bench_*.py

Dropping ``--benchmark-disable`` adds the pytest-benchmark timings and the
wall-clock comparisons that skip without them.  The end-to-end benchmark is
``perfbench/`` (see ``BENCHMARK.json``).
"""
