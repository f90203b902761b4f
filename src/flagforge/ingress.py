"""Controlled entry point: external ports on the frontend, handed off or
relayed inward.

Each mapping translates one public external port to the owning backend's
balancer listener. ``FrontendNode`` holds the mappings in memory, as a
backend holds its listeners, and they are its only route table: each mapped
port is one ``_net.Listener`` on the process's event loop. An accepted
connection is handed off, before the loop ever watches it, to the serve of
the mapping's backend through its ``handoff-<node>.sock`` in the state
directory, with the name of the mapped challenge; the backend relays it from
then on, and this process keeps no copy. When the kernel will not take the
handoff (no serve of that backend on this host, a path too long for a unix
socket, a connect or send that would block), the connection is dialled to
the port's mapping within ``BACKEND_CONNECT_TIMEOUT`` and relayed, prefixed
with the ``PROXY4`` source header. No thread is started for either.
``bind`` opens (or re-targets) one port and ``unbind`` closes it; the
converge that ran them rewrites ``state/ingress.map`` from memory once. The
file format lives in ``state``.

Only the control thread binds and unbinds. The loop thread reads one
mapping per accept, and takes no lock to do so: ``bind`` records a port's
mapping before its listener opens, so the first connection it accepts is
already routed.
"""

from __future__ import annotations

from functools import partial

from ._net import Handoffs, Listener, Session, render_proxy_header
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


class FrontendNode:
    """Ingress host: its port mappings, saved by ``Cluster.converge``, are
    its route table.

    A mapping adopted from ``ingress.map`` whose listener is refused stays
    mapped; ``bind_failures`` names it, and any port ``bind`` was refused.
    """

    def __init__(self, topology: Topology, node_id: str, store: StateStore,
                 bind_listeners: bool):
        self.node_id = node_id
        self.bind_address = (topology.nodes[node_id].bind_address
                             if bind_listeners else None)
        self.mappings: dict[int, PortMapping] = {
            m.external_port: m for m in load_mappings(store.ingress_path)}
        self.refused: set[int] = set()  # ports whose listener failed to bind
        self._listeners: dict[int, Listener] = {}
        self._handoff_path = store.handoff_path
        self._handoffs = Handoffs() if bind_listeners else None
        for mapping in list(self.mappings.values()):
            try:
                self.bind(mapping)
            except IngressError:
                pass  # reported by bind_failures

    def bind_failures(self) -> list[str]:
        return [f"external port {port} could not be bound"
                for port in sorted(self.refused)]

    def bind(self, mapping: PortMapping) -> None:
        """Route ``mapping``'s port to its target, opening a listener if none.

        A re-target keeps the listener: live relays drain, new connections
        follow the new mapping. A port that cannot be bound raises
        ``IngressError`` and keeps the mapping it had, so the next converge
        plans it again; other ports are untouched either way.
        """
        port = mapping.external_port
        previous = self.mappings.get(port)
        self.mappings[port] = mapping  # before the listener's first accept
        if self.bind_address is not None and port not in self._listeners:
            try:
                self._listeners[port] = Listener(
                    self.bind_address, port, partial(self._accept, port))
            except OSError as exc:
                if previous is None:
                    del self.mappings[port]
                else:
                    self.mappings[port] = previous
                self.refused.add(port)
                raise IngressError(f"port {port}: failed: {exc}") from exc
        self.refused.discard(port)

    def unbind(self, external_port: int) -> None:
        self.mappings.pop(external_port, None)
        self.refused.discard(external_port)
        listener = self._listeners.pop(external_port, None)
        if listener is not None:
            listener.close()

    def close(self) -> None:
        for listener in self._listeners.values():
            listener.close()
        self._listeners.clear()
        if self._handoffs is not None:
            self._handoffs.close()

    def _accept(self, port: int, session: Session, peer: tuple) -> None:
        """On the event loop: hand the session to the serve of the port's
        current mapping, or dial that mapping and relay."""
        mapping = self.mappings.get(port)
        if mapping is None:  # unbound since the connection was accepted
            session.close()
            return
        if self._handoffs.send(str(self._handoff_path(mapping.backend_node)),
                               session, mapping.challenge.encode()):
            return
        session.connect((mapping.backend_address, mapping.balancer_port),
                        BACKEND_CONNECT_TIMEOUT,
                        head=render_proxy_header(peer[0]))
