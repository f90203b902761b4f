"""Per-backend L4 reverse proxy with source-IP session affinity.

Selection is two-layered: a per-service stick table pins every source IP to
the replica it was first assigned, and a per-service round-robin counter over
the healthy replica list hands out first assignments. Replicas that refuse a
connection are marked suspect and skipped until a health probe clears them;
the registry's probe-driven health stays untouched by the balancer.

The data plane (``BalancerServer``) is one ``_net.Listener`` per service on
the process's event loop. A port accepts a connection once its first bytes
are in, so the ``PROXY4`` header the frontend sends first comes with it; a
silent client is accepted after about a second, and ``PROXY_HEADER_TIMEOUT``
then applies. The header is stripped, so stickiness keys on the
participant's real address rather than on the frontend's; then the loop
dials the picked replica within ``CONNECT_TIMEOUT``, retrying once on a
refusal, and relays. A served backend also accepts on the public ports that
a frontend on its host lends it (``take_handoffs``), each once, with the
name of its challenge: there the player's own address keys stickiness, and
the dial is the same. No step blocks and no thread is started per
connection.
"""

from __future__ import annotations

import heapq
import socket
import threading
import time
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Callable

from ._net import (PROXY_HEADER_LIMIT, HandoffListener, Listener, Session,
                   parse_proxy_header)
from .errors import NoHealthyReplicasError
from .registry import (
    EVENT_DEREGISTERED,
    HEALTH_HEALTHY,
    HEALTH_STOPPED,
    Registry,
    ReplicaEndpoint,
)

CONNECT_TIMEOUT = 3.0
# a frontend sends its PROXY4 line at once; a client that has not sent the
# whole line within this many seconds of its accept is cut off
PROXY_HEADER_TIMEOUT = 5.0
# the stick-table heap is rebuilt once it holds this many keys per entry
HEAP_REBUILD_FACTOR = 2


@dataclass
class StickEntry:
    source_ip: str
    replica_id: str
    last_seen: float


class StickTable:
    """Source-IP to replica pinning with a sliding TTL and an LRU size bound.

    An entry is usable iff ``now - last_seen <= ttl`` (an entry aged exactly
    ttl still counts). Inserting a new IP at capacity evicts the entry with
    the smallest (last_seen, source_ip).

    Costs, for n entries: ``lookup`` O(1); ``refresh`` and ``assign``
    O(log n) amortized, eviction included; ``expire`` O(k log n) for k aged
    entries; ``invalidate_replica`` O(k) for the k pins of that replica.
    Eviction and expiry read a min-heap of (last_seen, source_ip) keys with
    lazy deletion: every live entry's current key is in the heap, and a
    popped key that no longer matches its entry is skipped. The heap is
    rebuilt from the entries once stale keys outnumber live ones.
    """

    def __init__(self, ttl: float, capacity: int):
        self.ttl = ttl
        self.capacity = capacity
        self._entries: dict[str, StickEntry] = {}
        self._heap: list[tuple[float, str]] = []
        self._by_replica: dict[str, set[str]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, source_ip: str, now: float) -> str | None:
        entry = self._entries.get(source_ip)
        if entry is None or now - entry.last_seen > self.ttl:
            return None
        return entry.replica_id

    def refresh(self, source_ip: str, now: float) -> None:
        self._entries[source_ip].last_seen = now
        self._push(now, source_ip)

    def assign(self, source_ip: str, replica_id: str, now: float) -> None:
        if source_ip in self._entries:
            self._remove(source_ip)
        elif len(self._entries) >= self.capacity:
            self._remove(self._pop_oldest())
        self._entries[source_ip] = StickEntry(source_ip, replica_id, now)
        self._by_replica.setdefault(replica_id, set()).add(source_ip)
        self._push(now, source_ip)

    def expire(self, now: float) -> int:
        aged = 0
        heap = self._heap
        # now - last_seen > ttl is monotone in last_seen, so the aged
        # entries are exactly the live keys at the front of the heap
        while heap and now - heap[0][0] > self.ttl:
            last_seen, ip = heapq.heappop(heap)
            if self._is_live(last_seen, ip):
                self._remove(ip)
                aged += 1
        return aged

    def invalidate_replica(self, replica_id: str) -> int:
        pinned = self._by_replica.pop(replica_id, set())
        for ip in pinned:
            del self._entries[ip]
        return len(pinned)

    def entries(self) -> list[StickEntry]:
        return sorted(self._entries.values(), key=lambda e: e.source_ip)

    def _is_live(self, last_seen: float, source_ip: str) -> bool:
        entry = self._entries.get(source_ip)
        return entry is not None and entry.last_seen == last_seen

    def _pop_oldest(self) -> str:
        while True:
            last_seen, ip = heapq.heappop(self._heap)
            if self._is_live(last_seen, ip):
                return ip

    def _push(self, last_seen: float, source_ip: str) -> None:
        heap = self._heap
        if len(heap) >= HEAP_REBUILD_FACTOR * len(self._entries):
            heap[:] = [(e.last_seen, ip) for ip, e in self._entries.items()]
            heapq.heapify(heap)
            # the key being pushed is already among the rebuilt ones
            return
        heapq.heappush(heap, (last_seen, source_ip))

    def _remove(self, source_ip: str) -> None:
        entry = self._entries.pop(source_ip)
        pins = self._by_replica[entry.replica_id]
        pins.discard(source_ip)
        if not pins:
            del self._by_replica[entry.replica_id]


class Balancer:
    def __init__(self, registry: Registry, stick_ttl: float, stick_capacity: int,
                 clock: Callable[[], float] = time.time):
        self.registry = registry
        self.stick_ttl = stick_ttl
        self.stick_capacity = stick_capacity
        self.clock = clock
        self._tables: dict[str, StickTable] = {}
        self._rr: dict[str, int] = {}
        self._suspects: set[str] = set()
        self._sessions: Counter[str] = Counter()  # replica_id -> open sessions
        self._lock = threading.RLock()
        registry.add_listener(self._on_registry_event)

    # --- selection --------------------------------------------------------

    def select_replica(self, service: str, source_ip: str) -> ReplicaEndpoint:
        """Sticky pick if the pin is alive, else the next round-robin replica.

        Round robin walks the registered replica ring from the per-service
        cursor, skipping unhealthy and suspect entries, so the replica after
        a failed one is the next registration position, and first assignments
        over a stable healthy set cycle through it exactly evenly. Sticky
        hits do not advance the cursor.
        """
        with self._lock:
            ring = self.registry.replicas_of(service)
            if not ring:  # files no table for a name the node does not serve
                raise NoHealthyReplicasError(f"no replicas for {service}")
            now = self.clock()
            table = self._table(service)
            pinned = table.lookup(source_ip, now)
            if pinned is not None:
                for endpoint in ring:
                    if endpoint.replica_id == pinned:
                        if endpoint.health == HEALTH_HEALTHY:
                            table.refresh(source_ip, now)
                            return endpoint
                        break
            start = self._rr.get(service, 0)
            for step in range(len(ring)):
                endpoint = ring[(start + step) % len(ring)]
                if (endpoint.health == HEALTH_HEALTHY
                        and endpoint.replica_id not in self._suspects):
                    self._rr[service] = (start + step + 1) % len(ring)
                    table.assign(source_ip, endpoint.replica_id, now)
                    return endpoint
            raise NoHealthyReplicasError(f"no healthy replicas for {service}")

    def pick(self, service: str, source_ip: str) -> ReplicaEndpoint:
        """``select_replica``, counted as an open session until ``end_session``.

        Picked and counted under the lock a deregistration also takes.
        """
        with self._lock:
            endpoint = self.select_replica(service, source_ip)
            self._sessions[endpoint.replica_id] += 1
            return endpoint

    def connect_upstream(self, service: str,
                         source_ip: str) -> tuple[ReplicaEndpoint, socket.socket]:
        """Pick and connect, blocking, retrying the pick once on connect failure.

        The session counts against its replica until ``end_session``.
        """
        last_error: OSError | None = None
        for _ in range(2):
            endpoint = self.pick(service, source_ip)
            try:
                upstream = socket.create_connection(
                    (endpoint.address, endpoint.port), timeout=CONNECT_TIMEOUT)
            except OSError as exc:
                last_error = exc
                self.end_session(endpoint.replica_id)
                self.mark_suspect(endpoint.replica_id)
                continue
            # the timeout bounds the connect only: left on the socket, the
            # relay would read a quiet replica as EOF and cut the player off
            upstream.settimeout(None)
            return endpoint, upstream
        raise NoHealthyReplicasError(
            f"replicas of {service} refused connections: {last_error}")

    def end_session(self, replica_id: str) -> None:
        with self._lock:
            self._sessions[replica_id] -= 1
            if self._sessions[replica_id] <= 0:
                del self._sessions[replica_id]

    def sessions(self, replica_id: str) -> int:
        with self._lock:
            return self._sessions[replica_id]

    # --- table maintenance -------------------------------------------

    def configure(self, stick_ttl: float, stick_capacity: int) -> None:
        """Apply new stick settings to existing tables and future ones."""
        with self._lock:
            self.stick_ttl = stick_ttl
            self.stick_capacity = stick_capacity
            for table in self._tables.values():
                table.ttl = stick_ttl
                table.capacity = stick_capacity

    def mark_suspect(self, replica_id: str) -> None:
        """Skip a connection-refusing replica until a probe confirms it healthy."""
        with self._lock:
            self._suspects.add(replica_id)
            for table in self._tables.values():
                table.invalidate_replica(replica_id)

    def invalidate_replica(self, replica_id: str) -> int:
        with self._lock:
            return sum(table.invalidate_replica(replica_id)
                       for table in self._tables.values())

    def expire_entries(self) -> int:
        with self._lock:
            now = self.clock()
            return sum(table.expire(now) for table in self._tables.values())

    def stick_count(self, service: str) -> int:
        with self._lock:
            return len(self._table(service))

    def _table(self, service: str) -> StickTable:
        if service not in self._tables:
            self._tables[service] = StickTable(self.stick_ttl, self.stick_capacity)
        return self._tables[service]

    def _on_registry_event(self, service: str, replica_id: str, event: str) -> None:
        with self._lock:
            if event == HEALTH_HEALTHY:
                self._suspects.discard(replica_id)
            elif event in (HEALTH_STOPPED, EVENT_DEREGISTERED):
                self._suspects.discard(replica_id)
                for table in self._tables.values():
                    table.invalidate_replica(replica_id)


class BalancerServer:
    """Listener-per-service data plane in front of a Balancer.

    The node's control thread binds, unbinds and closes, and owns the
    listener table; the loop thread runs only the accept callbacks, of its
    own ports and of lent ones, which never read it.
    """

    def __init__(self, balancer: Balancer, bind_address: str):
        self.balancer = balancer
        self.bind_address = bind_address
        self._listeners: dict[str, Listener] = {}
        self._handoffs: HandoffListener | None = None

    def bind_service(self, service: str, port: int) -> int:
        """Serve ``service``, not yet bound, on ``port`` and return the port
        bound (the one the system chose for 0). A refused port raises
        ``OSError`` and records nothing."""
        listener = self._listeners[service] = Listener(
            self.bind_address, port, partial(self._accept, service),
            defer_accept=True)
        return listener.port

    def unbind_service(self, service: str) -> None:
        listener = self._listeners.pop(service, None)
        if listener is not None:
            listener.close()

    def take_handoffs(self, path: str) -> None:
        """Also accept on the listening sockets that a frontend on this host
        lends through a unix socket at ``path``, each naming its service. A
        path the kernel refuses raises ``OSError``; the ports serve on."""
        self._handoffs = HandoffListener(path, self._handed)

    def close(self) -> None:
        for listener in self._listeners.values():
            listener.close()
        self._listeners.clear()
        if self._handoffs is not None:
            self._handoffs.close()
            self._handoffs = None

    # --- on the event loop ----------------------------------------------------

    def _handed(self, service: str, session: Session, peer: tuple) -> None:
        # accepted on a lent port: the peer is the player. A service this
        # node does not serve has no replica: closed in _dial
        self._dial(service, session, peer[0], attempts=2)

    def _accept(self, service: str, session: Session, peer: tuple) -> None:
        # the deadline covers the whole header, not each read of it
        session.read_line(PROXY_HEADER_LIMIT, PROXY_HEADER_TIMEOUT,
                          partial(self._route, service, session))

    def _route(self, service: str, session: Session, line: bytes) -> None:
        try:
            source_ip = parse_proxy_header(line)
        except ValueError:
            session.close()
            return
        self._dial(service, session, source_ip, attempts=2)

    def _dial(self, service: str, session: Session, source_ip: str,
              attempts: int) -> None:
        try:
            endpoint = self.balancer.pick(service, source_ip)
        except NoHealthyReplicasError:
            # no replica, or the service left the node since this accept
            session.close()
            return
        replica_id = endpoint.replica_id

        def refused() -> None:
            self.balancer.mark_suspect(replica_id)
            if attempts > 1:
                self._dial(service, session, source_ip, attempts - 1)
            else:
                session.close()

        session.connect((endpoint.address, endpoint.port), CONNECT_TIMEOUT,
                        release=partial(self.balancer.end_session, replica_id),
                        refused=refused)
