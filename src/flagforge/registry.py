"""Runtime record of services and their replicas.

The registry holds the one record of each replica: where the balancer reaches
it, how healthy it is, and the process the supervisor runs it as. So it is
the single authority on which replicas exist, and on which services: a
service is on record exactly while it has replicas, from its first
registration to its last deregistration, and has no lifecycle of its own.
``replicas_of`` lists a service's replicas in registration order, none for a
service not on record; picking among them (round robin, stickiness) is the
balancer's job.

Only the node's control thread writes the registry, and health values only
through the supervisor's prober. The data plane's loop thread reads, through
``replicas_of`` alone: each service's replicas are a tuple that a
registration or deregistration replaces whole, never changes in place, so
that read takes no lock. Listeners hear each change of health, each healthy
verdict and each deregistration, called inline once the change is made.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import (
    DuplicateReplicaError,
    EndpointInUseError,
    UnknownReplicaError,
)

HEALTH_STARTING = "starting"
HEALTH_HEALTHY = "healthy"
HEALTH_UNHEALTHY = "unhealthy"
HEALTH_STOPPED = "stopped"
HEALTH_STATES = (HEALTH_STARTING, HEALTH_HEALTHY, HEALTH_UNHEALTHY, HEALTH_STOPPED)

EVENT_DEREGISTERED = "deregistered"

# listener(service_name, replica_id, event); event is a health state or
# EVENT_DEREGISTERED
Listener = Callable[[str, str, str], None]


@dataclass
class ReplicaEndpoint:
    replica_id: str
    address: str
    port: int
    version: str
    health: str = HEALTH_STARTING
    service: str = ""  # set by register_replica
    handle: object = None  # the runner's handle on the replica's process
    started_at: float = 0.0
    spec_id: str = ""  # fingerprint of the spec the replica was started from
    restarts: int = 0


class Registry:
    def __init__(self) -> None:
        self._services: dict[str, tuple[ReplicaEndpoint, ...]] = {}
        # every registered replica by id, and by endpoint (stopped ones too)
        self._by_id: dict[str, ReplicaEndpoint] = {}
        self._by_endpoint: dict[tuple[str, int], list[ReplicaEndpoint]] = {}
        self._listeners: list[Listener] = []

    # --- replica lifecycle ----------------------------------------------

    # a service is on record while it has replicas, so there is nothing to
    # create; only perfbench/layers.py still calls this, with a network id
    def create_service(self, name: str, _network: object = None) -> None:
        pass

    def register_replica(self, service: str, endpoint: ReplicaEndpoint) -> None:
        if endpoint.replica_id in self._by_id:
            raise DuplicateReplicaError(
                f"duplicate replica_id {endpoint.replica_id}")
        key = (endpoint.address, endpoint.port)
        sharing = self._by_endpoint.setdefault(key, [])
        for other in sharing:
            if other.health != HEALTH_STOPPED:
                raise EndpointInUseError(
                    f"{endpoint.address}:{endpoint.port} already used"
                    f" by {other.replica_id}")
        endpoint.service = service
        self._services[service] = (*self._services.get(service, ()), endpoint)
        self._by_id[endpoint.replica_id] = endpoint
        sharing.append(endpoint)

    def deregister_replica(self, replica_id: str) -> None:
        endpoint = self._find(replica_id)
        service = endpoint.service
        rest = tuple(r for r in self._services[service] if r is not endpoint)
        if rest:
            self._services[service] = rest
        else:
            del self._services[service]
        self._unindex(endpoint)
        for listener in self._listeners:
            listener(service, replica_id, EVENT_DEREGISTERED)

    def mark_health(self, replica_id: str, health: str) -> None:
        if health not in HEALTH_STATES:
            raise ValueError(f"unknown health state {health!r}")
        endpoint = self._find(replica_id)
        # every healthy verdict is announced: it also clears a suspect mark
        # the balancer set on a replica that stayed healthy
        if endpoint.health != health or health == HEALTH_HEALTHY:
            endpoint.health = health
            for listener in self._listeners:
                listener(endpoint.service, replica_id, health)

    def replicas_of(self, service: str) -> list[ReplicaEndpoint]:
        """All replicas in registration order, whatever their health."""
        return list(self._services.get(service, ()))

    def replicas(self) -> list[ReplicaEndpoint]:
        """Every service's replicas, in registration order."""
        return list(self._by_id.values())

    def add_listener(self, listener: Listener) -> None:
        self._listeners.append(listener)

    # --- internals -----------------------------------------------------------

    def _find(self, replica_id: str) -> ReplicaEndpoint:
        endpoint = self._by_id.get(replica_id)
        if endpoint is None:
            raise UnknownReplicaError(f"unknown replica {replica_id!r}")
        return endpoint

    def _unindex(self, endpoint: ReplicaEndpoint) -> None:
        del self._by_id[endpoint.replica_id]
        key = (endpoint.address, endpoint.port)
        sharing = self._by_endpoint[key]
        sharing.remove(endpoint)
        if not sharing:
            del self._by_endpoint[key]
