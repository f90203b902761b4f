"""Backend node runtime, loaded only where a backend node is hosted."""

from __future__ import annotations

import time
from typing import Callable

from .balancer import Balancer, BalancerServer
from .errors import FlagforgeError
from .model import Topology
from .registry import Registry
from .runner import SubprocessRunner
from .state import StateStore
from .supervisor import PortAllocator, Supervisor

# ports found occupied by foreign processes before giving up on a service
PORT_CONFLICT_LIMIT = 10


class BackendNode:
    """Live control plane of one backend: registry, supervisor, balancer."""

    def __init__(self, topology: Topology, node_id: str, store: StateStore, *,
                 bind_listeners: bool, clock: Callable[[], float] = time.time,
                 runner=None, prober=None):
        self.node_id = node_id
        self.node = topology.nodes[node_id]
        self.store = store
        self.registry = Registry()
        self.allocator = PortAllocator(self.node.port_range)
        self.runner = runner or SubprocessRunner(store.logs_dir,
                                                 self.node.bind_address)
        self.supervisor = Supervisor(node_id, self.node.bind_address,
                                     self.registry, self.runner, self.allocator,
                                     prober=prober, clock=clock)
        self.supervisor.on_change = self._persist_replicas
        self.balancer = Balancer(self.registry, topology.stick_ttl,
                                 topology.stick_capacity, clock=clock)
        self.supervisor.sessions = self.balancer.sessions
        self.server = (BalancerServer(self.balancer, self.node.bind_address)
                       if bind_listeners else None)
        self._balancer_ports: dict[str, int] = {}

    @property
    def balancer_ports(self) -> dict[str, int]:
        return dict(self._balancer_ports)

    @property
    def stick_settings(self) -> tuple[int, int]:
        return (int(self.balancer.stick_ttl), int(self.balancer.stick_capacity))

    def adopt(self, desired: Topology) -> None:
        """Rebuild live state from the files a previous process left behind:
        listener ports, stick settings, the specs ``desired`` (the applied
        topology) holds for the node, and each recorded replica whose
        process still runs, filed under its service."""
        config = self.store.load_balancer().get(self.node_id, {})
        for service, port in sorted((config.get("ports") or {}).items()):
            self.allocator.reserve(port)
            self._balancer_ports[service] = port
        stick = config.get("stick")
        if stick:
            self.balancer.configure(stick[0], stick[1])

        self.supervisor.desire(desired.challenges_on(self.node_id))
        self.supervisor.adopt(self.store.load_replicas(self.node_id))
        self._persist_replicas()

        if self.server is not None:
            for service, port in sorted(self._balancer_ports.items()):
                try:
                    self.server.bind_service(service, port)
                except OSError as exc:
                    raise FlagforgeError(
                        f"cannot bind balancer port {port} for {service}:"
                        f" {exc}") from exc

    def open_listener(self, service: str) -> int:
        conflicts = 0
        while True:
            port = self.allocator.allocate()
            if self.server is not None:
                try:
                    self.server.bind_service(service, port)
                except OSError:
                    # a foreign process owns this port; leave it reserved so
                    # the allocator skips it and try the next one
                    conflicts += 1
                    if conflicts >= PORT_CONFLICT_LIMIT:
                        raise
                    continue
            self._balancer_ports[service] = port
            return port

    def remove_service(self, name: str) -> None:
        for _ in self.supervisor.instances_of(name):
            self.supervisor.stop_one(name)
        port = self._balancer_ports.pop(name, None)
        if port is not None:
            if self.server is not None:
                self.server.unbind_service(name)
            self.allocator.release(port)

    def persist_balancer(self) -> None:
        config = self.store.load_balancer()
        config[self.node_id] = {
            "ports": dict(sorted(self._balancer_ports.items())),
            "stick": list(self.stick_settings),
            "stick_counts": {service: self.balancer.stick_count(service)
                             for service in sorted(self._balancer_ports)},
        }
        self.store.save_balancer(config)

    def tick(self) -> None:
        """One supervision beat: probe, replace, drop aged pins, persist counters."""
        self.supervisor.probe_all()
        self.supervisor.reconcile_all()
        self.balancer.expire_entries()
        self.persist_balancer()

    def close(self, stop_replicas: bool) -> None:
        if stop_replicas:
            self.supervisor.stop_all()
        if self.server is not None:
            self.server.close()

    def _persist_replicas(self) -> None:
        self.store.save_replicas(self.node_id, self.supervisor.snapshot())
