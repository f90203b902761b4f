"""Runtime record of services and their replica endpoints.

The registry is the single authority on which replicas exist and how healthy
they are. ``replicas_of`` lists a service's replicas in registration order;
picking among them (round robin, stickiness) is the balancer's job.

Health values are written by the supervisor's prober only; everything else
(balancer, ingress, status) reads. Listeners hear each change of health and
each healthy verdict. They are invoked outside the registry lock, so a
listener may call back into the registry or into the balancer without
deadlocking.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable

from .errors import (
    DuplicateReplicaError,
    EndpointInUseError,
    UnknownReplicaError,
    UnknownServiceError,
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


@dataclass
class ServiceRecord:
    name: str
    replicas: list[ReplicaEndpoint] = field(default_factory=list)


class Registry:
    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._services: dict[str, ServiceRecord] = {}
        self._listeners: list[Listener] = []

    # --- service lifecycle ---------------------------------------------

    # a second argument, once the network id, is ignored
    def create_service(self, name: str, _network: object = None) -> ServiceRecord:
        with self._lock:
            if name in self._services:
                return self._services[name]
            record = ServiceRecord(name=name)
            self._services[name] = record
            return record

    def remove_service(self, name: str) -> None:
        with self._lock:
            record = self._require_service(name)
            events = [(name, r.replica_id, EVENT_DEREGISTERED)
                      for r in record.replicas]
            del self._services[name]
        self._notify(events)

    def has_service(self, name: str) -> bool:
        with self._lock:
            return name in self._services

    # --- replica lifecycle ----------------------------------------------

    def register_replica(self, service: str, endpoint: ReplicaEndpoint) -> None:
        with self._lock:
            record = self._require_service(service)
            for other_record in self._services.values():
                for other in other_record.replicas:
                    if other.replica_id == endpoint.replica_id:
                        raise DuplicateReplicaError(
                            f"duplicate replica_id {endpoint.replica_id}")
                    if (other.health != HEALTH_STOPPED
                            and (other.address, other.port) == (endpoint.address,
                                                                endpoint.port)):
                        raise EndpointInUseError(
                            f"{endpoint.address}:{endpoint.port} already used"
                            f" by {other.replica_id}")
            record.replicas.append(endpoint)

    def deregister_replica(self, replica_id: str) -> None:
        with self._lock:
            service, record, endpoint = self._find(replica_id)
            record.replicas.remove(endpoint)
        self._notify([(service, replica_id, EVENT_DEREGISTERED)])

    def mark_health(self, replica_id: str, health: str) -> None:
        if health not in HEALTH_STATES:
            raise ValueError(f"unknown health state {health!r}")
        events = []
        with self._lock:
            service, _, endpoint = self._find(replica_id)
            # every healthy verdict is announced: it also clears a suspect
            # mark the balancer set on a replica that stayed healthy
            if endpoint.health != health or health == HEALTH_HEALTHY:
                endpoint.health = health
                events.append((service, replica_id, health))
        self._notify(events)

    def replicas_of(self, service: str) -> list[ReplicaEndpoint]:
        """All replicas in registration order, whatever their health."""
        with self._lock:
            return list(self._require_service(service).replicas)

    # --- listeners ---------------------------------------------------------

    def add_listener(self, listener: Listener) -> None:
        with self._lock:
            self._listeners.append(listener)

    def _notify(self, events: list[tuple[str, str, str]]) -> None:
        if not events:
            return
        with self._lock:
            listeners = list(self._listeners)
        for service, replica_id, event in events:
            for listener in listeners:
                listener(service, replica_id, event)

    # --- internals -----------------------------------------------------------

    def _require_service(self, name: str) -> ServiceRecord:
        record = self._services.get(name)
        if record is None:
            raise UnknownServiceError(f"unknown service {name!r}")
        return record

    def _find(self, replica_id: str) -> tuple[str, ServiceRecord, ReplicaEndpoint]:
        for name, record in self._services.items():
            for endpoint in record.replicas:
                if endpoint.replica_id == replica_id:
                    return name, record, endpoint
        raise UnknownReplicaError(f"unknown replica {replica_id!r}")
