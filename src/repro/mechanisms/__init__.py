"""The reproduced data-cache mechanisms (Table 2 of the paper).

Twelve hardware optimizations published in ISCA/MICRO/ASPLOS/HPCA, plus the
baseline, all implemented against the uniform plug-in interface of
:class:`repro.mechanisms.base.Mechanism` with the Table 3 parameters:

========  =====================================  =====  ==========
Acronym   Mechanism                              Level  Published
========  =====================================  =====  ==========
TP        Tagged Prefetching                     L2     1982
VC        Victim Cache                           L1     1990
SP        Stride Prefetching                     L2     1992
Markov    Markov Prefetcher                      L1     1997
FVC       Frequent Value Cache                   L1     2000
DBCP      Dead-Block Correlating Prefetcher      L1     2001
TK        Timekeeping Prefetcher                 L1     2002
TKVC      Timekeeping Victim Cache               L1     2002
CDP       Content-Directed Data Prefetching      L2     2002
CDPSP     CDP + SP                               L2     2002
TCP       Tag Correlating Prefetching            L2     2003
GHB       Global History Buffer                  L2     2004
========  =====================================  =====  ==========

Use :func:`repro.mechanisms.registry.create` to instantiate by acronym, and
:data:`repro.mechanisms.registry.ALL_MECHANISMS` for the canonical study
order (chronological, as in the paper's figures).  The registry imports
an implementation module only when :func:`create` first asks for it, so
importing this package loads no mechanism.
"""
