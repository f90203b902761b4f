"""Controlled entry point: external ports on the frontend, forwarded inward.

Each mapping translates one public external port to the owning backend's
balancer listener, and each mapped port is one ``_net.Listener`` on the
process's event loop: an accepted connection is dialled through to the
balancer and relayed, prefixed with the ``PROXY4`` source header, with no
thread started for it. The frontend holds its mappings in memory, as a
backend holds its listeners: ``bind`` opens (or re-targets) one port's
listener and ``unbind`` closes it, and the converge that ran them rewrites
``state/ingress.map`` from memory once. A re-target takes effect at accept
time: live relays drain, new connections route by the new mapping. The file
format lives in ``state``.
"""

from __future__ import annotations

import threading
from functools import partial

from ._net import Listener, Session, render_proxy_header
from .errors import IngressError
from .model import Topology
# the file format is state's; its names stay importable from here too
from .state import (PortMapping, StateStore, load_mappings, parse_mappings,
                    serialize_mappings)

BACKEND_CONNECT_TIMEOUT = 3.0


def generate_mappings(topology: Topology,
                      balancer_ports: dict[str, dict[str, int]]
                      ) -> tuple[tuple[PortMapping, ...], list[str]]:
    """One mapping per challenge whose balancer port is known, sorted by port.

    Challenges without a bound balancer port are omitted and reported (they
    are not deployed yet). Pure function: same inputs, identical mappings.
    """
    mappings = []
    skipped = []
    for spec in sorted(topology.challenges.values(), key=lambda c: c.external_port):
        port = balancer_ports.get(spec.backend, {}).get(spec.name)
        if port is None:
            skipped.append(f"{spec.name}: no balancer port bound on {spec.backend}")
            continue
        mappings.append(PortMapping(
            external_port=spec.external_port,
            challenge=spec.name,
            backend_node=spec.backend,
            backend_address=topology.nodes[spec.backend].bind_address,
            balancer_port=port))
    return tuple(mappings), skipped


class IngressServer:
    """Binds one listener per external port and relays with a PROXY4 prefix."""

    def __init__(self, bind_address: str,
                 connect_timeout: float = BACKEND_CONNECT_TIMEOUT):
        self.bind_address = bind_address
        self.connect_timeout = connect_timeout
        self._listeners: dict[int, Listener] = {}
        self._routes: dict[int, PortMapping] = {}
        self._lock = threading.Lock()

    def bind(self, mapping: PortMapping) -> None:
        """Route ``mapping``'s port to its target, opening a listener if none.

        Raises ``OSError`` when the port cannot be bound; other ports are
        untouched either way.
        """
        port = mapping.external_port
        with self._lock:
            if port not in self._listeners:
                self._listeners[port] = Listener(self.bind_address, port,
                                                 partial(self._accept, port))
            self._routes[port] = mapping

    def unbind(self, port: int) -> None:
        with self._lock:
            self._routes.pop(port, None)
            listener = self._listeners.pop(port, None)
        if listener is not None:
            listener.close()

    def close(self) -> None:
        with self._lock:
            listeners = list(self._listeners.values())
            self._listeners.clear()
            self._routes.clear()
        for listener in listeners:
            listener.close()

    def _accept(self, port: int, session: Session, peer: tuple) -> None:
        """On the event loop: dial the port's current route."""
        with self._lock:
            mapping = self._routes.get(port)
        if mapping is None:
            session.close()
            return
        session.connect((mapping.backend_address, mapping.balancer_port),
                        self.connect_timeout, head=render_proxy_header(peer[0]))


class FrontendNode:
    """Ingress host: port mappings in memory, saved by ``Cluster.converge``.

    The file is read once, here, to adopt what a previous process mapped. A
    ``bind`` records its mapping only once the listener is up, so a refused
    one is planned again by the next converge; an adopted mapping whose
    listener is refused stays mapped. Either way ``bind_failures`` names it.
    """

    def __init__(self, topology: Topology, node_id: str, store: StateStore,
                 bind_listeners: bool):
        self.node_id = node_id
        self.server = (IngressServer(topology.nodes[node_id].bind_address)
                       if bind_listeners else None)
        self.mappings: dict[int, PortMapping] = {
            m.external_port: m for m in load_mappings(store.ingress_path)}
        self.refused: set[int] = set()  # ports whose listener failed to bind
        if self.server is not None:
            for mapping in self.mappings.values():
                try:
                    self._listen(mapping)
                except IngressError:
                    pass  # reported by bind_failures

    def bind_failures(self) -> list[str]:
        return [f"external port {port} could not be bound"
                for port in sorted(self.refused)]

    def bind(self, mapping: PortMapping) -> None:
        if self.server is not None:
            self._listen(mapping)
        self.mappings[mapping.external_port] = mapping

    def unbind(self, external_port: int) -> None:
        if self.server is not None:
            self.server.unbind(external_port)
        self.refused.discard(external_port)
        self.mappings.pop(external_port, None)

    def _listen(self, mapping: PortMapping) -> None:
        port = mapping.external_port
        try:
            self.server.bind(mapping)
        except OSError as exc:
            self.refused.add(port)
            raise IngressError(f"port {port}: failed: {exc}") from exc
        self.refused.discard(port)

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
