"""Mechanism registry: instantiate any of Table 2's mechanisms by acronym.

The registry is the MicroLib "library index": experiment code asks for
mechanisms by acronym (optionally with variant keyword arguments, e.g.
``create("DBCP", variant="initial")`` or ``create("TCP", queue_size=1)``)
and never imports implementation modules directly.

``ALL_MECHANISMS`` follows the paper's figure/table column order
(chronological by publication): Base, TP, VC, SP, Markov, FVC, DBCP, TKVC,
TK, CDP, CDPSP, TCP, GHB.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import TYPE_CHECKING, Dict, Optional, Tuple

if TYPE_CHECKING:
    from repro.mechanisms.base import Mechanism

BASELINE = "Base"

#: Paper column order (Table 6/7): baseline first, then chronological.
ALL_MECHANISMS: Tuple[str, ...] = (
    BASELINE, "TP", "VC", "SP", "Markov", "FVC", "DBCP", "TKVC", "TK",
    "CDP", "CDPSP", "TCP", "GHB",
)

#: Models added beyond the paper's twelve — the "populate the library"
#: goal of Section 4.  Not part of the reproduced figures/tables.
EXTENSIONS: Tuple[str, ...] = ("SB", "EW")


@dataclass(frozen=True)
class MechanismInfo:
    """Catalogue entry (Table 2 row)."""

    acronym: str
    level: str
    year: int
    description: str


#: Each factory by dotted path: ``create`` imports the implementation
#: module on first use, so the catalogue costs no mechanism import.
_FACTORIES: Dict[str, str] = {
    "TP": "repro.mechanisms.tagged.TaggedPrefetcher",
    "VC": "repro.mechanisms.victim.VictimCache",
    "SP": "repro.mechanisms.stride.StridePrefetcher",
    "Markov": "repro.mechanisms.markov.MarkovPrefetcher",
    "FVC": "repro.mechanisms.fvc.FrequentValueCache",
    "DBCP": "repro.mechanisms.dbcp.DeadBlockCorrelatingPrefetcher",
    "TKVC": "repro.mechanisms.timekeeping.TimekeepingVictimCache",
    "TK": "repro.mechanisms.timekeeping.TimekeepingPrefetcher",
    "CDP": "repro.mechanisms.cdp.ContentDirectedPrefetcher",
    "CDPSP": "repro.mechanisms.cdpsp.CDPPlusSP",
    "TCP": "repro.mechanisms.tcp.TagCorrelatingPrefetcher",
    "GHB": "repro.mechanisms.ghb.GlobalHistoryBuffer",
    "SB": "repro.mechanisms.streambuf.StreamBuffers",
    "EW": "repro.mechanisms.eagerwb.EagerWriteback",
}

_INFO: Dict[str, MechanismInfo] = {
    BASELINE: MechanismInfo(BASELINE, "-", 0, "Table 1 caches, no mechanism"),
    "TP": MechanismInfo("TP", "l2", 1982, "prefetch next line on miss or on "
                        "hit to a prefetched line"),
    "VC": MechanismInfo("VC", "l1", 1990, "small fully associative cache for "
                        "evicted lines; absorbs conflict misses"),
    "SP": MechanismInfo("SP", "l2", 1992, "per-PC load stride detection and "
                        "prefetch"),
    "Markov": MechanismInfo("Markov", "l1", 1997, "miss-successor correlation "
                            "into a prefetch buffer"),
    "FVC": MechanismInfo("FVC", "l1", 2000, "compressed victim buffer for "
                         "frequent-value lines"),
    "DBCP": MechanismInfo("DBCP", "l1", 2001, "per-line PC-trace signatures "
                          "predicting death and the replacement block"),
    "TKVC": MechanismInfo("TKVC", "l1", 2002, "victim cache filtered by "
                          "timekeeping liveness"),
    "TK": MechanismInfo("TK", "l1", 2002, "decay-based dead-line prediction "
                        "with replacement-correlation prefetch"),
    "CDP": MechanismInfo("CDP", "l2", 2002, "scan fills for pointers and "
                         "prefetch them, depth <= 3"),
    "CDPSP": MechanismInfo("CDPSP", "l2", 2002, "CDP combined with SP"),
    "TCP": MechanismInfo("TCP", "l2", 2003, "per-set tag-pair correlation "
                         "prefetch"),
    "GHB": MechanismInfo("GHB", "l2", 2004, "global history buffer "
                         "delta-correlation, degree 4"),
    "SB": MechanismInfo("SB", "l1", 1990, "sequential stream buffers "
                        "(library extension, not in the paper's study)"),
    "EW": MechanismInfo("EW", "l1", 2000, "eager writeback of quiet dirty "
                        "lines (library extension; the paper excluded it "
                        "for lack of bandwidth-bound benchmarks)"),
}


def create(name: str, **kwargs) -> Optional[Mechanism]:
    """Instantiate mechanism ``name`` (``"Base"`` returns ``None``).

    Variant keyword arguments are forwarded to the implementation, e.g.
    ``create("DBCP", variant="initial")``, ``create("TCP", queue_size=1)``,
    ``create("TK", reverse_engineered=True)``.
    """
    if name == BASELINE:
        if kwargs:
            raise ValueError("the baseline takes no arguments")
        return None
    try:
        path = _FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown mechanism {name!r}; known: {', '.join(ALL_MECHANISMS)}"
        ) from None
    module, _, cls = path.rpartition(".")
    return getattr(import_module(module), cls)(**kwargs)


def mechanism_info(name: str) -> MechanismInfo:
    """Catalogue metadata for ``name`` (raises KeyError when unknown)."""
    return _INFO[name]
