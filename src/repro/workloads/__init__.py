"""Synthetic SPEC CPU2000 stand-in workloads.

The paper simulates 500-million-instruction SimPoint traces of the 26 SPEC
CPU2000 benchmarks compiled for Alpha.  Those binaries and traces are not
redistributable, so this package provides the substitution documented in
DESIGN.md: 26 deterministic synthetic trace generators, one per benchmark,
each parameterised to mimic the published memory behaviour *class* of its
namesake (working-set size, stride structure, pointer intensity, value
locality, branch behaviour).  Traces come with a functional
:class:`~repro.workloads.image.MemoryImage` holding real data values — linked structures whose
fields contain genuine pointers (for CDP) and value distributions with
controlled frequent-value locality (for FVC).

Use :func:`repro.workloads.registry.build` to get ``(trace, image)`` for a
benchmark by name; :data:`repro.workloads.registry.ALL_BENCHMARKS` lists
the canonical 26 names.  The registry imports the generator only when a
build needs it, so importing this package generates and loads nothing.
"""
