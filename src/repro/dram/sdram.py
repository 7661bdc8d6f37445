"""Bank-level SDRAM timing model (Table 1 parameters).

Each bank is a small state machine tracked with timestamps: the currently
open row, when the bank last activated (for tRC and tRAS), and when it can
accept the next command.  An access resolves to one of three cases:

* **row hit** — the open row matches: pay CAS latency only;
* **row conflict** — another row is open: precharge (tRP, not before the
  previous activate + tRAS), activate (tRCD), then CAS;
* **row closed** — activate (tRCD) then CAS.

Activates additionally respect tRC (same bank) and the RAS-to-RAS delay
(across banks), which is what makes bank interleaving able to *pipeline*
page opens — the property the paper's memory-model experiment leans on.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.config import SDRAMConfig
from repro.dram.scheduling import AddressMapping, PERMUTATION_INTERLEAVE
from repro.kernel.module import Component


class BankState:
    """Timing state of one SDRAM bank."""

    __slots__ = ("open_row", "ready", "activate_time")

    def __init__(self) -> None:
        self.open_row: Optional[int] = None
        self.ready: int = 0           # earliest next command
        self.activate_time: int = -(10 ** 9)  # last activate (for tRC/tRAS)

    def reset(self) -> None:
        self.open_row = None
        self.ready = 0
        self.activate_time = -(10 ** 9)


class SDRAM(Component):
    """The SDRAM device array: banks, rows and the Table 1 timings."""

    #: Row-buffer policies: keep the row open betting on locality, or
    #: precharge eagerly after every access (the Green et al. trade-off the
    #: paper's controller study weighed — see the ablation bench).
    OPEN_PAGE = "open"
    CLOSED_PAGE = "closed"

    def __init__(
        self,
        config: SDRAMConfig,
        scheme: str = PERMUTATION_INTERLEAVE,
        page_policy: str = OPEN_PAGE,
        name: str = "sdram",
        parent: Optional[Component] = None,
    ):
        super().__init__(name, parent)
        if page_policy not in (self.OPEN_PAGE, self.CLOSED_PAGE):
            raise ValueError(f"unknown page policy {page_policy!r}")
        self.config = config
        self.page_policy = page_policy
        self._closed_page = page_policy == self.CLOSED_PAGE
        self.mapping = AddressMapping(config, scheme)
        self.banks: List[BankState] = [BankState() for _ in range(config.banks)]
        self._last_activate_any = -(10 ** 9)
        self.st_accesses = self.add_stat("accesses", "row accesses serviced")
        self.st_row_hits = self.add_stat("row_hits", "accesses hitting the open row")
        self.st_activates = self.add_stat("activates", "row activations")
        self.st_precharges = self.add_stat("precharges", "precharge operations")
        self.st_latency = self.add_stat("total_latency", "sum of access latencies")

    def access(self, addr: int, time: int) -> int:
        """Service a line access at/after ``time``; return data-ready cycle."""
        cfg = self.config
        bank_idx, row = self.mapping.map(addr)
        bank = self.banks[bank_idx]
        start = time if bank.ready <= time else bank.ready
        if bank.open_row == row:
            self.st_row_hits.value += 1
            data_ready = start + cfg.cas_latency
            bank.ready = start + 1  # pipelined column accesses
        else:
            # The activate waits for the RAS-to-RAS delay after the last
            # activate to any bank.
            activate_at = self._last_activate_any + cfg.ras_to_ras
            if bank.open_row is not None:
                # Precharge: not before tRAS from the activate that opened
                # the row, and the whole activate-to-activate pair respects
                # tRC.
                precharge_at = bank.activate_time + cfg.ras_active
                if precharge_at < start:
                    precharge_at = start
                self.st_precharges.value += 1
                if activate_at < precharge_at + cfg.ras_precharge:
                    activate_at = precharge_at + cfg.ras_precharge
                if activate_at < bank.activate_time + cfg.ras_cycle:
                    activate_at = bank.activate_time + cfg.ras_cycle
            elif activate_at < start:
                activate_at = start
            self.st_activates.value += 1
            bank.activate_time = activate_at
            self._last_activate_any = activate_at
            bank.open_row = row
            data_ready = activate_at + cfg.ras_to_cas + cfg.cas_latency
            bank.ready = activate_at + cfg.ras_to_cas + 1
        if self._closed_page:
            # Eager auto-precharge: hidden behind the data transfer (the
            # bank respects tRAS through activate_time on the next access),
            # but every subsequent access pays the full activate again.
            self.st_precharges.value += 1
            bank.open_row = None
            if bank.ready < data_ready:
                bank.ready = data_ready
        self.st_accesses.value += 1
        self.st_latency.value += data_ready - time
        return data_ready

    @property
    def average_latency(self) -> float:
        """Mean cycles from request presentation to data ready."""
        if not self.st_accesses.value:
            return 0.0
        return self.st_latency.value / self.st_accesses.value

    def reset(self) -> None:
        for bank in self.banks:
            bank.reset()
        self._last_activate_any = -(10 ** 9)
        self.reset_stats()
