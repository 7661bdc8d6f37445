"""The MicroLib component model.

The original MicroLib distributes simulator *models* as SystemC modules with
typed ports, so a data-cache mechanism written by one group can be plugged
into another group's processor model through a wrapper.  This module provides
the Python rendition of that idea:

* :class:`Component` — named, hierarchical simulation module with declared
  parameters and statistics.
* :class:`Port` — a typed connection point; binding two ports wires a
  producer to a consumer.
* :class:`StatCounter` — a named statistic that aggregates into the component
  hierarchy report.

Everything in :mod:`repro.cache`, :mod:`repro.dram`, :mod:`repro.cpu` and
:mod:`repro.mechanisms` derives from :class:`Component`, which is what makes
the "plug a downloaded mechanism into your simulator" story of the paper
work: mechanisms are discovered through a registry and attached to cache
levels through a uniform hook interface (see
:class:`repro.mechanisms.base.Mechanism`).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional


class StatCounter:
    """A named integer/float statistic owned by a component.

    Supports ``+=``-style accumulation through :meth:`add` and direct
    assignment through :attr:`value`.
    """

    __slots__ = ("name", "desc", "value")

    def __init__(self, name: str, desc: str = "", value: float = 0) -> None:
        self.name = name
        self.desc = desc
        self.value = value

    def add(self, amount: float = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Stat {self.name}={self.value}>"


class Port:
    """A connection point between two components.

    A port is bound to at most one peer.  Calling the port forwards to the
    peer component's handler, which keeps inter-module traffic explicit —
    the Python equivalent of a SystemC ``sc_port``.
    """

    __slots__ = ("name", "owner", "peer")

    def __init__(self, name: str, owner: "Component") -> None:
        self.name = name
        self.owner = owner
        self.peer: Optional["Port"] = None

    def bind(self, other: "Port") -> None:
        """Bind this port to ``other`` (and ``other`` back to this)."""
        if self.peer is not None or other.peer is not None:
            raise ValueError(
                f"port already bound: {self.qualified_name} or {other.qualified_name}"
            )
        self.peer = other
        other.peer = self

    @property
    def bound(self) -> bool:
        return self.peer is not None

    @property
    def qualified_name(self) -> str:
        return f"{self.owner.path}.{self.name}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        peer = self.peer.qualified_name if self.peer else "unbound"
        return f"<Port {self.qualified_name} -> {peer}>"


class Component:
    """Base class for every simulator model in the library.

    Provides hierarchical naming (``parent.path + '.' + name``), parameter
    book-keeping, port creation, and statistics aggregation.  Subclasses call
    :meth:`add_stat` / :meth:`add_port` during construction and use the
    returned objects directly.
    """

    def __init__(self, name: str, parent: Optional["Component"] = None) -> None:
        self.name = name
        self.parent = parent
        self.children: List["Component"] = []
        self.ports: Dict[str, Port] = {}
        self.stats: Dict[str, StatCounter] = {}
        self.params: Dict[str, Any] = {}
        if parent is not None:
            parent.children.append(self)

    # -- hierarchy ---------------------------------------------------------

    @property
    def path(self) -> str:
        """Dot-separated path from the root component."""
        if self.parent is None:
            return self.name
        return f"{self.parent.path}.{self.name}"

    def walk(self) -> Iterator["Component"]:
        """Yield this component and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    # -- declaration helpers -----------------------------------------------

    def add_port(self, name: str) -> Port:
        if name in self.ports:
            raise ValueError(f"duplicate port {name!r} on {self.path}")
        port = Port(name, self)
        self.ports[name] = port
        return port

    def add_stat(self, name: str, desc: str = "") -> StatCounter:
        if name in self.stats:
            raise ValueError(f"duplicate stat {name!r} on {self.path}")
        stat = StatCounter(name, desc)
        self.stats[name] = stat
        return stat

    def set_param(self, name: str, value: Any) -> None:
        self.params[name] = value

    # -- reporting ----------------------------------------------------------

    def reset_stats(self) -> None:
        """Zero every statistic in this subtree."""
        for component in self.walk():
            for stat in component.stats.values():
                stat.reset()

    # -- checkpointing -------------------------------------------------------

    def stats_report(self) -> Dict[str, float]:
        """Flatten the subtree's statistics into ``{qualified_name: value}``."""
        report: Dict[str, float] = {}
        for component in self.walk():
            for stat in component.stats.values():
                report[f"{component.path}.{stat.name}"] = stat.value
        return report

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.path}>"
