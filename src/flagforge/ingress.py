"""Controlled entry point: external ports on the frontend, forwarded inward.

Each mapping translates one public external port to the owning backend's
balancer listener. The table is regenerated deterministically from the
topology plus the known balancer ports, persisted as ``state/ingress.map``,
and applied as a set of plain TCP listeners that prefix every forwarded
connection with the ``PROXY4`` source header. Table swaps are atomic at
accept time: live relays drain, new connections route by the current table.
"""

from __future__ import annotations

import ipaddress
import socket
import threading
from dataclasses import dataclass
from pathlib import Path

from ._files import replacing
from ._net import TcpListener, relay, render_proxy_header
from .errors import IngressError
from .model import Topology
from .state import StateStore

BACKEND_CONNECT_TIMEOUT = 3.0


@dataclass(frozen=True)
class PortMapping:
    external_port: int
    challenge: str
    backend_node: str
    backend_address: str
    balancer_port: int

    def render(self) -> str:
        return (f"{self.external_port} {self.challenge} {self.backend_node}"
                f" {self.backend_address}:{self.balancer_port}")


@dataclass(frozen=True)
class MappingTable:
    mappings: tuple[PortMapping, ...] = ()

    def __iter__(self):
        return iter(self.mappings)

    def __len__(self) -> int:
        return len(self.mappings)

    def by_port(self) -> dict[int, PortMapping]:
        return {m.external_port: m for m in self.mappings}


def generate_mappings(topology: Topology,
                      balancer_ports: dict[str, dict[str, int]]
                      ) -> tuple[MappingTable, list[str]]:
    """One mapping per challenge whose balancer port is known, sorted by port.

    Challenges without a bound balancer port are omitted and reported (they
    are not deployed yet). Pure function: same inputs, identical table.
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
    return MappingTable(tuple(mappings)), skipped


def serialize_mappings(table: MappingTable) -> str:
    return "".join(m.render() + "\n" for m in table)


def parse_mappings(text: str) -> MappingTable:
    mappings = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) != 4:
            raise IngressError(f"line {lineno}: expected 4 fields, got {len(fields)}")
        address, sep, balancer_port = fields[3].rpartition(":")
        try:
            external_port = int(fields[0])
            backend_port = int(balancer_port) if sep else 0
            ipaddress.IPv4Address(address)
            if not (1 <= external_port <= 65535 and 1 <= backend_port <= 65535):
                raise ValueError
        except ValueError:
            raise IngressError(f"line {lineno}: malformed mapping {line!r}") from None
        mappings.append(PortMapping(
            external_port=external_port, challenge=fields[1],
            backend_node=fields[2], backend_address=address,
            balancer_port=backend_port))
    mappings.sort(key=lambda m: m.external_port)
    return MappingTable(tuple(mappings))


def save_mappings(table: MappingTable, path: Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with replacing(path) as f:
        f.write(serialize_mappings(table))


def load_mappings(path: Path) -> MappingTable:
    path = Path(path)
    if not path.exists():
        return MappingTable()
    return parse_mappings(path.read_text())


class IngressServer:
    """Binds one acceptor per external port and relays with a PROXY4 prefix."""

    def __init__(self, bind_address: str,
                 connect_timeout: float = BACKEND_CONNECT_TIMEOUT):
        self.bind_address = bind_address
        self.connect_timeout = connect_timeout
        self._listeners: dict[int, TcpListener] = {}
        self._routes: dict[int, PortMapping] = {}
        self._lock = threading.Lock()

    def apply_table(self, table: MappingTable) -> list[tuple[int, str]]:
        """Converge listeners to the table; per-port outcomes, failures isolated."""
        report: list[tuple[int, str]] = []
        with self._lock:
            desired = table.by_port()
            for port in sorted(set(self._listeners) - set(desired)):
                self._listeners.pop(port).close()
                report.append((port, "closed"))
            for port in sorted(desired):
                if port in self._listeners:
                    changed = self._routes.get(port) != desired[port]
                    report.append((port, "updated" if changed else "kept"))
                    continue
                try:
                    listener = TcpListener(self.bind_address, port,
                                           self._handler_for(port))
                except OSError as exc:
                    report.append((port, f"failed: {exc}"))
                    continue
                self._listeners[port] = listener
                report.append((port, "bound"))
            self._routes = desired
        return report

    def bound_ports(self) -> list[int]:
        with self._lock:
            return sorted(self._listeners)

    def close(self) -> None:
        with self._lock:
            listeners = list(self._listeners.values())
            self._listeners.clear()
            self._routes = {}
        for listener in listeners:
            listener.close()

    def _handler_for(self, port: int):
        def handler(conn: socket.socket, peer: tuple) -> None:
            with self._lock:
                mapping = self._routes.get(port)
            if mapping is None:
                return
            try:
                upstream = socket.create_connection(
                    (mapping.backend_address, mapping.balancer_port),
                    timeout=self.connect_timeout)
            except OSError:
                return
            upstream.settimeout(None)  # bound the connect, not the relay
            upstream.sendall(render_proxy_header(peer[0]))
            relay(conn, upstream)

        return handler


class FrontendNode:
    """Ingress host: applies the mapping file and keeps it in sync."""

    def __init__(self, topology: Topology, node_id: str, store: StateStore,
                 bind_listeners: bool):
        self.node_id = node_id
        self.node = topology.nodes[node_id]
        self.store = store
        self.server = (IngressServer(self.node.bind_address)
                       if bind_listeners else None)
        self._applied_text: str | None = None

    def refresh_from_file(self) -> None:
        path = self.store.ingress_path
        text = path.read_text() if path.exists() else ""
        if self.server is not None and text != self._applied_text:
            self.server.apply_table(parse_mappings(text))
            self._applied_text = text

    def bind_failures(self) -> list[str]:
        """Mapped external ports the live server failed to bind."""
        if self.server is None:
            return []
        want = {m.external_port for m in load_mappings(self.store.ingress_path)}
        missing = want - set(self.server.bound_ports())
        return [f"external port {port} could not be bound"
                for port in sorted(missing)]

    def bind(self, mapping: PortMapping) -> None:
        self._commit(mapping.external_port, mapping)

    def unbind(self, external_port: int) -> None:
        self._commit(external_port, None)

    def _commit(self, port: int, mapping: PortMapping | None) -> None:
        """Map ``port`` to ``mapping`` (or to nothing) in file and server."""
        kept = [m for m in load_mappings(self.store.ingress_path)
                if m.external_port != port]
        if mapping is not None:
            kept.append(mapping)
        table = MappingTable(tuple(sorted(kept, key=lambda m: m.external_port)))
        save_mappings(table, self.store.ingress_path)
        self._applied_text = serialize_mappings(table)
        if self.server is None:
            return
        for bound, status in self.server.apply_table(table):
            if mapping is not None and bound == port and status.startswith("failed"):
                raise IngressError(f"port {port}: {status}")

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
