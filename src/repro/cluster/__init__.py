"""Replicated serving cluster over the single-node serving stack.

The paper proves super Cayley graphs keep routing under node and link
failures; this package mirrors that fault tolerance at the system
level — many :mod:`repro.serve` nodes behind one fault-aware front
proxy:

* :mod:`~repro.cluster.ring` — :class:`HashRing`, a seeded
  consistent-hash ring mapping query families to replica sets with
  minimal key movement on join/leave;
* :mod:`~repro.cluster.router` — :class:`ClusterRouter`, an asyncio
  front proxy (JSON or binary clients, frames only to replicas) with
  health-checked backends, exactly-once failover retry, and closed
  cluster-wide accounting;
* :mod:`~repro.cluster.manager` — :class:`ClusterManager`, replica
  lifecycle: launch, kill, restart, graceful zero-loss drain, rolling
  restart;
* :mod:`~repro.cluster.chaos` — :class:`ChaosSchedule` /
  :class:`ChaosRunner`, seeded kill/repair schedules driven against
  live replicas while the load generator runs.

See the cluster section of ``docs/serving.md`` for the topology,
drain protocol, and failure semantics.
"""

from .chaos import ChaosEvent, ChaosRunner, ChaosSchedule
from .manager import DEFAULT_PROBE_SPEC, ClusterManager, Replica
from .ring import HashRing
from .router import BackendDied, ClusterRouter, RouterThread

__all__ = [
    "BackendDied",
    "ChaosEvent",
    "ChaosRunner",
    "ChaosSchedule",
    "ClusterManager",
    "ClusterRouter",
    "DEFAULT_PROBE_SPEC",
    "HashRing",
    "Replica",
    "RouterThread",
]
