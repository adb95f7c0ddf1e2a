"""Shared configuration for the benchmark assertion modules.

Each ``bench_*.py`` module reproduces one of the paper's claims (its docstring
names the experiment and the sections) and asserts it; a few also pin speed
ratios.  CI runs them as plain pytest with the timing loops disabled::

    PYTHONPATH=src python -m pytest -q --benchmark-disable benchmarks/bench_*.py

The speed floors are median-of-pairs ratio gates with no benchmark fixture,
so they run either way.  Dropping ``--benchmark-disable`` adds the
pytest-benchmark timings and the one wall-clock comparison that needs them
(``bench_parallel_sweep.py``'s four-worker speedup, which also needs four
CPUs).  The end-to-end benchmark is ``perfbench/`` (see ``BENCHMARK.json``).
"""
