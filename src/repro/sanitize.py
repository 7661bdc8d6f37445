"""Runtime sanitizer mode: ``REPRO_SANITIZE=1``.

The static analyzer (:mod:`repro.analysis`) proves properties about the
*source*; this module arms cheap assertions that re-check the same
invariants about the *behaviour*, so the two passes cross-check each
other.  With the environment variable unset the flag is a module
constant ``False`` and every guard is a single attribute test on a hot
path — cheap enough to leave in the shipped code.

Armed invariants (see ``docs/analysis.md`` for the catalogue):

* kernel event queue — events never fire at a time earlier than the
  simulator's current cycle (event-time monotonicity), and scheduled
  times are integral cycles;
* cache hierarchy — mechanism prefetch queues never exceed their
  declared Table 3 capacity, and the frozen :class:`MachineConfig` is
  bit-identical at the end of a run to what the hierarchy was built
  with (no post-freeze mutation through a back door);
* mechanisms — emitted prefetches carry non-negative addresses, times
  and chase depths.

The flag is read **once, at import**: the sim path must not consult the
environment per-run (that is exactly what lint rule SIM203 forbids), and
a once-at-import read keeps worker processes consistent with the parent
because fleet workers are forked from it (and service workers inherit
the environment before they import anything).
"""

from __future__ import annotations

import os

#: True when the current process runs with runtime sanitizing armed.
SANITIZE: bool = os.environ.get("REPRO_SANITIZE", "") not in ("", "0")


class SanitizeError(AssertionError):
    """An armed runtime invariant failed."""


def sanitize_failure(message: str) -> "SanitizeError":
    """Build the error for a failed invariant (caller raises it)."""
    return SanitizeError(f"REPRO_SANITIZE: {message}")
