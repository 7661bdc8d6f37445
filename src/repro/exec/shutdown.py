"""Graceful signal shutdown for long sweeps.

A scheduler's SIGTERM or an operator's Ctrl-C should not vaporise an
hour of sweep progress.  The :class:`ShutdownManager` turns the first
SIGINT/SIGTERM into a *request*: the executor stops dispatching new
attempts, drains (or, past a deadline, terminates) the in-flight ones,
flushes the journal, and raises :class:`SweepInterrupted` so the CLI
can print the telemetry summary, append the ledger record and exit
with the conventional ``128 + signum`` code (130 for SIGINT, 143 for
SIGTERM) plus a "resume with ``--resume``" pointer.  A *second* signal
means the user is done waiting: registered emergency callbacks run
(the executor registers its local fleet's teardown) and the process exits
immediately.

Signal handlers are process-global state, so nothing here installs one
as a side effect: the CLI calls :meth:`ShutdownManager.install` around
command execution and libraries consult the never-installed singleton
at zero cost (``requested`` is simply always None).
"""

from __future__ import annotations

import os
import signal
import sys
from types import FrameType
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

#: The signals a sweep shuts down gracefully on.
SHUTDOWN_SIGNALS: Tuple[int, ...] = (signal.SIGINT, signal.SIGTERM)

#: What ``signal.signal`` returns (and accepts back).
_Handler = Union[Callable[[int, Optional[FrameType]], Any], int, None]


def _signal_name(signum: int) -> str:
    try:
        return signal.Signals(signum).name
    except ValueError:
        return f"signal {signum}"


class SweepInterrupted(BaseException):
    """A graceful shutdown stopped the sweep mid-batch.

    Derives from ``BaseException`` — like ``KeyboardInterrupt``, which
    it replaces while a handler is installed — so no lenient result
    handling can absorb it on the way out.  Carries the signal number;
    :attr:`exit_code` is the conventional ``128 + signum``.
    """

    def __init__(self, signum: int) -> None:
        super().__init__(f"sweep interrupted by {_signal_name(signum)}")
        self.signum = signum

    @property
    def exit_code(self) -> int:
        return 128 + self.signum


class ShutdownManager:
    """Two-stage signal shutdown: request first, force on repeat.

    ``grace`` bounds how long the executor drains in-flight attempts
    after a request before terminating them; journal appends are
    per-record fsync'd, so nothing beyond the drain needs flushing.
    """

    def __init__(self, grace: float = 5.0) -> None:
        self.grace = grace
        self._requested: Optional[int] = None
        self._signals = 0
        self._saved: Dict[int, _Handler] = {}
        self._emergency: List[Callable[[], None]] = []

    # -- state -----------------------------------------------------------------

    @property
    def requested(self) -> Optional[int]:
        """The first shutdown signal received, or None."""
        return self._requested

    def reset(self) -> None:
        """Forget a previous request (tests, repeated CLI invocations)."""
        self._requested = None
        self._signals = 0

    # -- installation ----------------------------------------------------------

    def install(self,
                signums: Tuple[int, ...] = SHUTDOWN_SIGNALS) -> "ShutdownManager":
        """Take over ``signums``; returns self for chaining."""
        for signum in signums:
            if signum not in self._saved:
                self._saved[signum] = signal.signal(signum, self._handle)
        return self

    def uninstall(self) -> None:
        """Restore the previous handlers."""
        for signum, old in self._saved.items():
            signal.signal(signum, old)
        self._saved.clear()

    # -- the emergency path ----------------------------------------------------

    def add_emergency(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` on a second signal, before the forced exit.

        The executor registers the teardown of its live local fleet
        here so a forced exit never strands hung workers.
        """
        self._emergency.append(callback)

    def remove_emergency(self, callback: Callable[[], None]) -> None:
        try:
            self._emergency.remove(callback)
        # simlint: allow[SIM601] double-removal during teardown is benign
        except ValueError:
            pass

    # -- the handler -----------------------------------------------------------

    def _handle(self, signum: int, frame: Optional[FrameType]) -> None:
        self._signals += 1
        if self._signals == 1:
            self._requested = signum
            print(
                f"\nexecutor: {_signal_name(signum)} received — finishing "
                f"in-flight work (at most {self.grace:g}s), flushing the "
                "journal; signal again to terminate immediately",
                file=sys.stderr,
            )
            return
        print(f"executor: second {_signal_name(signum)} — terminating now",
              file=sys.stderr)
        for callback in list(self._emergency):
            try:
                callback()
            # simlint: allow[SIM601] emergency exit must not die in cleanup
            except BaseException:
                pass
        os._exit(128 + signum)


#: The process-wide manager.  Never installed at import; the CLI
#: installs it around command execution, executors consult it.
SHUTDOWN = ShutdownManager()
