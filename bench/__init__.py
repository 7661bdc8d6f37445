"""Seeded, out-of-program benchmark for the MicroLib reproduction.

``python -m bench`` runs five workloads (``sim-hit``, ``sim-miss``,
``sim-mech``, ``sweep``, ``serve``), each in a fresh child process, and
prints every end-to-end metric declared in ``BENCHMARK.json``; with
``--trace`` it prints the per-layer metrics instead.  See
``bench/README.md``.
"""
