"""Flow: one unidirectional traffic demand between two servers.

The simulators, the job shapes, the name-keyed routers and
:mod:`repro.core.source_routing` take lists of :class:`Flow`.  The
flow sets themselves are drawn by :mod:`repro.traffic.matrix`; its
:meth:`~repro.traffic.matrix.TrafficMatrix.flows` maps a matrix's
server ordinals onto any server list.

Endpoints are opaque hashable ids: server *name strings* on the object
graph, or *integer ordinals* on the compiled CSR path.  Only equality
and hashability are assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

#: a server id: a name string on the object graph, an integer ordinal on
#: the compiled path.  Only equality/hashability is assumed.
ServerId = Any


@dataclass(frozen=True)
class Flow:
    """One unidirectional traffic demand."""

    flow_id: str
    src: ServerId
    dst: ServerId
    size: float = 1.0  # abstract data volume (packets for the packet sim)

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"flow {self.flow_id}: src == dst == {self.src!r}")
        if self.size <= 0:
            raise ValueError(f"flow {self.flow_id}: size must be positive")
