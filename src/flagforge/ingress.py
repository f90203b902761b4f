"""Controlled entry point: external ports on the frontend, lent or relayed
inward.

Each mapping translates one public external port to the owning backend's
balancer listener. ``FrontendNode`` holds the mappings in memory, as a
backend holds its listeners, and they are its only route table: each mapped
port is one ``_net.Listener`` on the process's event loop. Its listening
socket is lent once, as a ``_net.Loan``, to the serve of the mapping's
backend through its ``handoff-<node>.sock`` in the state directory, with the
name of the mapped challenge; that serve accepts the port's connections and
relays them from then on, and this process neither watches nor accepts the
port while it is lent. A port the kernel will not lend (no serve of that
backend on this host, a path too long for a unix socket, a connect or send
that would block, a backend with no descriptor left for it), or one taken
back because its channel hung up (the backend serve exited), accepts here:
each connection is dialled to the port's mapping within
``BACKEND_CONNECT_TIMEOUT`` and relayed, prefixed with the ``PROXY4`` source
header. No thread is started for either. ``bind`` opens (or re-targets) one
port and lends it, ``unbind`` closes it, and ``offer``, at each tick of a
frontend serve, lends again the ports accepting here. The converge that ran
``bind`` and ``unbind`` rewrites ``state/ingress.map`` from memory once. The
file format lives in ``state``.

Only the control thread binds, unbinds and offers; the loans are the loop
thread's. The loop thread reads one mapping per accept or loan, and takes no
lock to do so: ``bind`` records a port's mapping before its listener opens,
so the first connection it accepts is already routed.
"""

from __future__ import annotations

from functools import partial

from ._net import Listener, Loan, Session, event_loop, render_proxy_header
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
        self._loans: dict[int, Loan] = {}  # the loop thread's
        self._handoff_path = store.handoff_path
        self._loop = event_loop() if bind_listeners else None
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

        A re-target keeps the listener: live sessions drain, new connections
        follow the new mapping, and a port lent to another backend or for
        another challenge is taken back and lent anew. A connection the old
        backend accepted before it saw the port go follows the old mapping.
        A port that cannot be bound raises ``IngressError`` and keeps the
        mapping it had, so the next converge plans it again; other ports are
        untouched either way.
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
        listener = self._listeners.get(port)
        if listener is not None:
            self._loop.call_soon(self._lend, [(port, listener)])

    def unbind(self, external_port: int) -> None:
        """Close the port: it refuses connections at once, also where it is
        lent, and its loan ends."""
        self.mappings.pop(external_port, None)
        self.refused.discard(external_port)
        listener = self._listeners.pop(external_port, None)
        if listener is not None:
            listener.close()
            self._loop.call_soon(self._lend, [(external_port, listener)])

    def offer(self) -> None:
        """Lend each port that accepts here to the serve of its backend, if
        that serve takes it now: a port is offered at its bind and at each
        tick, never per connection."""
        if self._listeners:
            self._loop.call_soon(self._lend, list(self._listeners.items()))

    def close(self) -> None:
        for listener in self._listeners.values():
            listener.close()
        self.offer()  # of closed listeners: ends every loan
        self._listeners.clear()

    def _lend(self, listeners: list[tuple[int, Listener]]) -> None:
        """On the event loop: lend each open listener to the serve of its
        port's mapping, unless it is lent there already; end the loan of a
        closed one, or of one whose mapping has moved.

        Calls run in the order they were queued, so a port's loan is always
        of the listener its next call names, or of none.
        """
        for port, listener in listeners:
            mapping = self.mappings.get(port)
            target = None
            if mapping is not None and not listener._closed:
                target = (str(self._handoff_path(mapping.backend_node)),
                          mapping.challenge.encode())
            loan = self._loans.get(port)
            if loan is not None:
                if loan.open and (loan.path, loan.name) == target:
                    continue
                del self._loans[port]
                loan.close()
            if target is not None:
                try:
                    self._loans[port] = Loan(listener, *target)
                except OSError:
                    pass  # relayed here until a later offer is taken

    def _accept(self, port: int, session: Session, peer: tuple) -> None:
        """On the event loop: dial the port's current mapping and relay."""
        mapping = self.mappings.get(port)
        if mapping is None:  # unbound since the connection was accepted
            session.close()
            return
        session.connect((mapping.backend_address, mapping.balancer_port),
                        BACKEND_CONNECT_TIMEOUT,
                        head=render_proxy_header(peer[0]))
