"""Stick table semantics, replica selection, suspects, and the TCP relay."""

from __future__ import annotations

import ipaddress
import random
import socket
import threading
import time

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from flagforge import balancer as balancer_module
from flagforge._net import (RELAY_CHUNK, Loop, Session, event_loop,
                            parse_proxy_header, render_proxy_header)
from flagforge.balancer import (
    HEAP_REBUILD_FACTOR,
    Balancer,
    BalancerServer,
    StickTable,
)
from flagforge.errors import NoHealthyReplicasError
from flagforge.registry import (
    HEALTH_HEALTHY,
    HEALTH_UNHEALTHY,
    Registry,
    ReplicaEndpoint,
)
from reference_models import ReferenceSelector, ReferenceStickTable
from threaded_listener import TcpListener


class FakeClock:
    def __init__(self, start: float = 0.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def build(replicas: int = 3, ttl: float = 100.0, capacity: int = 1000):
    registry = Registry()
    registry.create_service("web", "net-web")
    for i in range(1, replicas + 1):
        registry.register_replica("web", ReplicaEndpoint(
            f"r{i}", "127.0.0.1", 20000 + i, "v1", HEALTH_HEALTHY))
    clock = FakeClock()
    balancer = Balancer(registry, stick_ttl=ttl, stick_capacity=capacity,
                        clock=clock)
    return balancer, registry, clock


def pick(balancer: Balancer, ip: str) -> str:
    return balancer.select_replica("web", ip).replica_id


# --- stick table -------------------------------------------------------------


def test_stick_entry_boundary_at_exact_ttl():
    table = StickTable(ttl=10, capacity=10)
    table.assign("10.0.0.1", "r1", now=0.0)
    assert table.lookup("10.0.0.1", now=10.0) == "r1"  # aged exactly ttl: kept
    assert table.lookup("10.0.0.1", now=10.001) is None
    assert table.expire(now=10.0) == 0
    assert table.expire(now=10.001) == 1
    assert len(table) == 0


def test_expire_counts():
    table = StickTable(ttl=10, capacity=10)
    assert table.expire(now=50.0) == 0  # empty table
    for i, age in enumerate([0, 5, 30, 40, 2]):
        table.assign(f"10.0.0.{i}", "r1", now=50.0 - age)
    # oracle: count of entries older than ttl
    assert table.expire(now=50.0) == 2
    assert len(table) == 3


def test_capacity_eviction_least_recently_seen():
    table = StickTable(ttl=100, capacity=3)
    table.assign("10.0.0.1", "r1", now=1.0)
    table.assign("10.0.0.2", "r2", now=2.0)
    table.assign("10.0.0.3", "r3", now=3.0)
    table.refresh("10.0.0.1", now=4.0)  # oldest is now .2
    table.assign("10.0.0.4", "r1", now=5.0)
    assert len(table) == 3
    assert table.lookup("10.0.0.2", now=5.0) is None
    assert table.lookup("10.0.0.1", now=5.0) == "r1"
    # rewriting an existing ip never evicts
    table.assign("10.0.0.3", "r2", now=6.0)
    assert len(table) == 3


def test_capacity_eviction_tie_break_by_ip():
    table = StickTable(ttl=100, capacity=2)
    table.assign("10.0.0.9", "r1", now=1.0)
    table.assign("10.0.0.2", "r2", now=1.0)
    table.assign("10.0.0.5", "r3", now=2.0)
    assert table.lookup("10.0.0.2", now=2.0) is None  # same age: lowest ip goes
    assert table.lookup("10.0.0.9", now=2.0) == "r1"


def test_invalidate_replica_counts_and_idempotence():
    table = StickTable(ttl=100, capacity=10)
    for i in range(3):
        table.assign(f"10.0.1.{i}", "r2", now=0.0)
    table.assign("10.0.1.9", "r1", now=0.0)
    assert table.invalidate_replica("r2") == 3
    assert table.invalidate_replica("r2") == 0
    assert table.invalidate_replica("r9") == 0
    assert len(table) == 1


def replay_stick_table(seed: int, events: int = 3000) -> None:
    """Drive StickTable and the brute-force table through one seeded trace.

    Every third seed is refresh-heavy, so the heap fills with stale keys and
    is rebuilt many times. The clock steps by zero (ties broken by address),
    forwards past the TTL and backwards; capacity and TTL change mid-trace,
    capacity also to below the current size.
    """
    rng = random.Random(seed)
    ttl = rng.choice([3.0, 10.0])
    capacity = rng.choice([1, 2, 5, 20, 50])
    table = StickTable(ttl, capacity)
    reference = ReferenceStickTable(ttl, capacity)
    replica_ids = ["r1", "r2", "r3"]
    ips = [f"10.7.0.{i}" for i in range(rng.choice([8, 30, 80]))]
    ops = ["refresh", "assign", "lookup", "clock", "expire", "invalidate",
           "configure"]
    weights = [60 if seed % 3 == 0 else 20, 30, 15, 15, 5, 4, 2]
    now = 100.0
    for step, op in enumerate(rng.choices(ops, weights, k=events)):
        where = f"seed {seed} step {step} {op}"
        if op == "refresh":
            pinned = [ip for ip, _, _ in reference.entries()]
            if pinned:
                ip = rng.choice(pinned)
                table.refresh(ip, now)
                reference.refresh(ip, now)
                assert len(table._heap) <= HEAP_REBUILD_FACTOR * len(table), where
        elif op == "assign":
            ip, replica = rng.choice(ips), rng.choice(replica_ids)
            table.assign(ip, replica, now)
            reference.assign(ip, replica, now)
        elif op == "lookup":
            ip = rng.choice(ips)
            assert table.lookup(ip, now) == reference.lookup(ip, now), where
        elif op == "clock":
            now += rng.choice([0.0, 0.0, 0.5, 1.0, ttl, ttl + 1, -1.0, -ttl])
        elif op == "expire":
            assert table.expire(now) == reference.expire(now), where
        elif op == "invalidate":
            replica = rng.choice(replica_ids)
            pinned = [ip for ip, rid, _ in reference.entries() if rid == replica]
            assert (table.invalidate_replica(replica)
                    == reference.invalidate_replica(replica)), where
            for ip in pinned[:rng.randrange(3)]:  # re-pin some right away
                table.assign(ip, replica, now)
                reference.assign(ip, replica, now)
        else:
            # what Balancer.configure does to a live table
            table.capacity = reference.capacity = rng.choice(
                [1, 2, 5, 20, 50, max(1, len(reference) // 2)])
            table.ttl = reference.ttl = rng.choice([3.0, 10.0])
        assert [(e.source_ip, e.replica_id, e.last_seen)
                for e in table.entries()] == reference.entries(), where


@pytest.mark.parametrize("seed", range(12))
def test_stick_table_matches_reference_model(seed):
    replay_stick_table(seed)


# --- selection ----------------------------------------------------------------


def test_fresh_ips_round_robin():
    balancer, _, _ = build()
    assert [pick(balancer, ip) for ip in ("10.0.0.1", "10.0.0.2", "10.0.0.3")] \
        == ["r1", "r2", "r3"]


def test_stickiness_within_ttl():
    balancer, _, _ = build()
    assert pick(balancer, "10.0.0.1") == "r1"
    assert all(pick(balancer, "10.0.0.1") == "r1" for _ in range(100))
    # sticky hits must not advance the rotation: next fresh ip still gets r2
    assert pick(balancer, "10.0.0.2") == "r2"


def test_pin_rewritten_when_replica_goes_unhealthy():
    balancer, registry, _ = build()
    assert pick(balancer, "10.0.0.1") == "r1"
    registry.mark_health("r1", HEALTH_UNHEALTHY)
    # next in rotation after r1 is r2
    assert pick(balancer, "10.0.0.1") == "r2"
    registry.mark_health("r1", HEALTH_HEALTHY)
    # the rewritten pin holds even after r1 recovers
    assert pick(balancer, "10.0.0.1") == "r2"


def test_ttl_expiry_reenters_rotation():
    balancer, _, clock = build(ttl=10.0)
    assert pick(balancer, "10.0.0.1") == "r1"
    clock.advance(5)
    assert pick(balancer, "10.0.0.1") == "r1"  # sliding: refreshed at t=5
    clock.advance(10)
    assert pick(balancer, "10.0.0.1") == "r1"  # aged exactly ttl
    clock.advance(10.5)
    assert pick(balancer, "10.0.0.1") == "r2"  # expired; next rotation slot


def test_no_healthy_replicas_raises():
    balancer, registry, _ = build(replicas=1)
    registry.mark_health("r1", HEALTH_UNHEALTHY)
    with pytest.raises(NoHealthyReplicasError):
        balancer.select_replica("web", "10.0.0.1")


def test_first_contact_fairness():
    balancer, _, _ = build(replicas=3)
    counts: dict[str, int] = {}
    for i in range(90):
        replica = pick(balancer, f"10.1.{i // 200}.{i % 200}")
        counts[replica] = counts.get(replica, 0) + 1
    assert counts == {"r1": 30, "r2": 30, "r3": 30}


def test_fairness_with_unhealthy_member():
    balancer, registry, _ = build(replicas=3)
    registry.mark_health("r2", HEALTH_UNHEALTHY)
    counts: dict[str, int] = {}
    for i in range(40):
        replica = pick(balancer, f"10.2.0.{i}")
        counts[replica] = counts.get(replica, 0) + 1
    assert counts == {"r1": 20, "r3": 20}


def test_deregistration_invalidates_pins():
    balancer, registry, _ = build()
    assert pick(balancer, "10.0.0.1") == "r1"
    assert balancer.stick_count("web") == 1
    registry.deregister_replica("r1")
    assert balancer.stick_count("web") == 0
    assert pick(balancer, "10.0.0.1") in ("r2", "r3")


def test_suspect_skipped_until_probe_clears():
    balancer, registry, _ = build()
    assert pick(balancer, "10.0.0.1") == "r1"
    balancer.mark_suspect("r1")
    assert balancer.stick_count("web") == 0  # pins to r1 dropped
    for i in range(6):
        assert pick(balancer, f"10.3.0.{i}") != "r1"
    # a probe confirming health clears the suspicion
    registry.mark_health("r1", HEALTH_UNHEALTHY)
    registry.mark_health("r1", HEALTH_HEALTHY)
    # round robin includes r1 again: three fresh addresses reach all three
    assert sorted(pick(balancer, f"10.4.0.{i}") for i in range(3)) == [
        "r1", "r2", "r3"]


def test_passing_probe_clears_suspect_on_a_replica_that_stayed_healthy():
    balancer, registry, _ = build(replicas=2)
    balancer.mark_suspect("r1")
    assert [pick(balancer, f"10.5.1.{i}") for i in range(3)] == ["r2"] * 3
    registry.mark_health("r1", HEALTH_HEALTHY)  # a probe that passes
    picks = [pick(balancer, f"10.5.0.{i}") for i in range(10)]
    assert picks == ["r1", "r2"] * 5


# --- model equivalence ---------------------------------------------------------


def replay_events(seed: int, events: int = 2000) -> None:
    rng = random.Random(seed)
    replica_ids = [f"r{i}" for i in range(1, 4)]
    capacity = rng.choice([2, 5, 50])
    ttl = rng.choice([5.0, 50.0])
    balancer, registry, clock = build(replicas=3, ttl=ttl, capacity=capacity)
    reference = ReferenceSelector(replica_ids, ttl=ttl, capacity=capacity)
    ips = [f"10.9.{i // 250}.{i % 250}" for i in range(40)]
    healthy = {r: True for r in replica_ids}
    for step in range(events):
        roll = rng.random()
        if roll < 0.70:
            ip = rng.choice(ips)
            try:
                got = balancer.select_replica("web", ip).replica_id
            except NoHealthyReplicasError:
                got = None
            assert got == reference.connect(ip), f"step {step} diverged"
        elif roll < 0.85:
            replica = rng.choice(replica_ids)
            up = rng.random() < 0.6
            healthy[replica] = up
            registry.mark_health(
                replica, HEALTH_HEALTHY if up else HEALTH_UNHEALTHY)
            reference.set_health(replica, up)
        elif roll < 0.95:
            dt = rng.choice([0.5, 2.0, ttl, ttl + 1])
            clock.advance(dt)
            reference.advance(dt)
        else:
            assert balancer.expire_entries() == reference.expire()


@pytest.mark.parametrize("seed", range(8))
def test_selection_matches_reference_model(seed):
    replay_events(seed)


# --- data plane -----------------------------------------------------------------


def echo_replica(greeting: bytes, reply_delay: float = 0.0) -> TcpListener:
    def handler(conn: socket.socket, peer) -> None:
        conn.sendall(greeting)
        while True:
            data = conn.recv(65536)
            if not data:
                return
            time.sleep(reply_delay)
            conn.sendall(data)

    return TcpListener("127.0.0.1", 0, handler)


@pytest.fixture
def data_plane():
    registry = Registry()
    registry.create_service("web", "net-web")
    listeners = []
    for i in (1, 2, 3):
        listener = echo_replica(f"r{i} v1\n".encode())
        listeners.append(listener)
        registry.register_replica("web", ReplicaEndpoint(
            f"r{i}", "127.0.0.1", listener.port, "v1", HEALTH_HEALTHY))
    balancer = Balancer(registry, stick_ttl=100, stick_capacity=100)
    server = BalancerServer(balancer, "127.0.0.1")
    port = server.bind_service("web", 0)
    yield registry, balancer, server, listeners, port
    server.close()
    for listener in listeners:
        listener.close()


def connect(port: int, timeout: float) -> socket.socket:
    """A connection to a balancer port that first sends the frontend's header."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
    sock.sendall(render_proxy_header("127.0.0.1"))
    return sock


def read_greeting(sock: socket.socket) -> str:
    buf = b""
    while not buf.endswith(b"\n"):
        chunk = sock.recv(64)
        if not chunk:
            raise AssertionError(f"connection closed early, got {buf!r}")
        buf += chunk
    return buf.decode().strip()


def test_relay_reaches_replica_and_echoes_identity(data_plane):
    *_, port = data_plane
    with connect(port, timeout=5) as sock:
        assert read_greeting(sock) == "r1 v1"


def test_relay_transparent_one_mebibyte(data_plane):
    *_, port = data_plane
    payload = random.Random(7).randbytes(1 << 20)
    received = bytearray()
    with connect(port, timeout=10) as sock:
        read_greeting(sock)

        def drain():
            while len(received) < len(payload):
                chunk = sock.recv(65536)
                if not chunk:
                    return
                received.extend(chunk)

        reader = threading.Thread(target=drain)
        reader.start()
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        reader.join(timeout=10)
    assert bytes(received) == payload


def test_zero_healthy_closes_immediately(data_plane):
    registry, *_, port = data_plane
    for i in (1, 2, 3):
        registry.mark_health(f"r{i}", HEALTH_UNHEALTHY)
    with connect(port, timeout=5) as sock:
        assert sock.recv(64) == b""


def test_a_late_header_for_a_removed_service_closes_its_session(data_plane):
    registry, *_, port = data_plane
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        # the service leaves the node between the accept and the header
        for i in (1, 2, 3):
            registry.deregister_replica(f"r{i}")
        sock.sendall(render_proxy_header("127.0.0.1"))
        assert sock.recv(64) == b""


def test_connect_failure_retries_once_and_marks_suspect(data_plane):
    registry, balancer, _, listeners, port = data_plane
    with connect(port, timeout=5) as sock:
        assert read_greeting(sock) == "r1 v1"
    listeners[0].close()  # r1's listener is gone but the registry lags
    with connect(port, timeout=5) as sock:
        # same source ip was pinned to r1; the relay must fail over
        assert read_greeting(sock) == "r2 v1"
    # r1 is suspect: no fresh address is sent to it
    assert "r1" not in {pick(balancer, f"198.51.100.{i}") for i in range(6)}
    # registry health was never touched by the balancer
    assert registry.replicas_of("web")[0].health == HEALTH_HEALTHY  # r1


def test_session_counts_against_its_replica_until_it_ends(data_plane):
    _, balancer, _, listeners, port = data_plane

    def settled(replica_id: str, count: int) -> bool:
        deadline = time.monotonic() + 5
        while balancer.sessions(replica_id) != count:
            if time.monotonic() > deadline:
                return False
            time.sleep(0.01)
        return True

    with connect(port, timeout=5) as sock:
        assert read_greeting(sock) == "r1 v1"
        assert balancer.sessions("r1") == 1
    assert settled("r1", 0)
    listeners[0].close()  # a refused connect must not count either
    with connect(port, timeout=5) as sock:
        assert read_greeting(sock) == "r2 v1"
        assert (balancer.sessions("r1"), balancer.sessions("r2")) == (0, 1)
    assert settled("r2", 0)


def test_a_refused_move_leaves_the_service_on_its_port(data_plane):
    _, _, server, _, port = data_plane
    with socket.create_server(("127.0.0.1", 0)) as squatter:
        with pytest.raises(OSError):
            server.bind_service("web", squatter.getsockname()[1])
    with connect(port, timeout=5) as sock:
        assert read_greeting(sock) == "r1 v1"
    # a move that succeeds closes the old port
    moved = server.bind_service("web", 0)
    assert moved != port
    with pytest.raises(ConnectionRefusedError):
        connect(port, timeout=2)
    with connect(moved, timeout=5) as sock:
        assert read_greeting(sock) == "r1 v1"


def test_a_replica_stuck_in_the_dial_is_suspect_after_the_connect_timeout(
        stuck_port, monkeypatch):
    monkeypatch.setattr(balancer_module, "CONNECT_TIMEOUT", 0.3)
    registry = Registry()
    registry.create_service("web", "net-web")
    replica = echo_replica(b"r2 v1\n")
    for replica_id, port in (("r1", stuck_port), ("r2", replica.port)):
        registry.register_replica("web", ReplicaEndpoint(
            replica_id, "127.0.0.1", port, "v1", HEALTH_HEALTHY))
    balancer = Balancer(registry, stick_ttl=100, stick_capacity=100)
    server = BalancerServer(balancer, "127.0.0.1")
    port = server.bind_service("web", 0)
    try:
        started = time.monotonic()
        with connect(port, timeout=5) as sock:
            assert read_greeting(sock) == "r2 v1"  # r1 was picked first
        assert 0.3 <= time.monotonic() - started < 3
        # r1 is suspect: no fresh address is sent to it
        assert {pick(balancer, f"198.51.100.{i}") for i in range(4)} == {"r2"}
        assert wait_until(lambda: balancer.sessions("r1") == 0)
    finally:
        server.close()
        replica.close()


def wait_until(condition, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def one_replica(replica: socket.socket) -> tuple[Balancer, BalancerServer, int]:
    """A balancer serving ``web`` from the one replica listening on ``replica``,
    its server and the port it serves on."""
    registry = Registry()
    registry.create_service("web", "net-web")
    registry.register_replica("web", ReplicaEndpoint(
        "r1", "127.0.0.1", replica.getsockname()[1], "v1", HEALTH_HEALTHY))
    balancer = Balancer(registry, stick_ttl=100, stick_capacity=100)
    server = BalancerServer(balancer, "127.0.0.1")
    port = server.bind_service("web", 0)
    return balancer, server, port


def live_sessions() -> list[Session]:
    return [owner for owner, _, _ in list(event_loop()._watched.values())
            if isinstance(owner, Session)]


def test_concurrent_sessions_start_no_thread():
    # the replica end is served from this thread too
    replica = socket.create_server(("127.0.0.1", 0))
    replica.settimeout(5)
    balancer, server, port = one_replica(replica)
    before = set(threading.enumerate())
    clients, upstreams = [], []
    try:
        for _ in range(32):
            clients.append(connect(port, timeout=5))
        for _ in range(32):
            conn, _ = replica.accept()
            upstreams.append(conn)
            conn.sendall(b"r1 v1\n")
        for sock in clients:
            assert read_greeting(sock) == "r1 v1"
        assert balancer.sessions("r1") == 32
        assert set(threading.enumerate()) <= before
    finally:
        for sock in clients + upstreams:
            sock.close()
        server.close()
        replica.close()
    assert wait_until(lambda: balancer.sessions("r1") == 0)


def test_a_client_that_stops_reading_holds_back_the_stream():
    payload = random.Random(11).randbytes(16 << 20)
    replica = socket.create_server(("127.0.0.1", 0))
    balancer, server, port = one_replica(replica)

    def stream() -> None:
        conn, _ = replica.accept()
        with conn:
            conn.sendall(payload)

    streamer = threading.Thread(target=stream, daemon=True)
    streamer.start()
    try:
        with connect(port, timeout=10) as sock:
            # the relay fills the client's socket, then holds one chunk back
            assert wait_until(lambda: any(s._client.pending
                                          for s in live_sessions()))
            for _ in range(20):
                for session in live_sessions():
                    assert (len(session._client.pending)
                            + len(session._upstream.pending)) <= RELAY_CHUNK
                time.sleep(0.01)
            received = bytearray()
            while len(received) < len(payload):
                chunk = sock.recv(1 << 20)
                if not chunk:
                    break
                received.extend(chunk)
        assert bytes(received) == payload
        streamer.join(10)
        assert not streamer.is_alive()
    finally:
        server.close()
        replica.close()
    assert wait_until(lambda: balancer.sessions("r1") == 0)


def test_callback_exception_reaches_excepthook_and_closes_its_session(
        data_plane, monkeypatch):
    hooked = []
    monkeypatch.setattr(threading, "excepthook", hooked.append)
    _, balancer, _, _, port = data_plane
    transfer = Session._transfer

    def boom(self, *args, **kwargs):
        raise RuntimeError("boom")

    with connect(port, timeout=5) as sock:
        assert read_greeting(sock) == "r1 v1"
        monkeypatch.setattr(Session, "_transfer", boom)
        sock.sendall(b"ping")
        try:  # a close with "ping" unread resets
            assert sock.recv(64) == b""
        except ConnectionResetError:
            pass
    monkeypatch.setattr(Session, "_transfer", transfer)
    assert wait_until(lambda: balancer.sessions("r1") == 0)
    assert [(h.exc_type, h.thread) for h in hooked] == [
        (RuntimeError, event_loop().thread)]
    with connect(port, timeout=5) as sock:  # the loop carries on
        assert read_greeting(sock) == "r1 v1"


def test_relay_outlives_connect_timeout_of_a_quiet_replica(monkeypatch):
    monkeypatch.setattr(balancer_module, "CONNECT_TIMEOUT", 0.2)
    registry = Registry()
    registry.create_service("web", "net-web")
    replica = echo_replica(b"r1 v1\n", reply_delay=0.6)
    registry.register_replica("web", ReplicaEndpoint(
        "r1", "127.0.0.1", replica.port, "v1", HEALTH_HEALTHY))
    balancer = Balancer(registry, stick_ttl=100, stick_capacity=100)
    server = BalancerServer(balancer, "127.0.0.1")
    port = server.bind_service("web", 0)
    try:
        with connect(port, timeout=5) as sock:
            assert read_greeting(sock) == "r1 v1"
            time.sleep(0.3)  # player silent longer than the connect timeout
            sock.sendall(b"ping")
            assert sock.recv(64) == b"ping"  # replica silent for 0.6 s
    finally:
        server.close()
        replica.close()


def test_proxy_header_strips_and_keys_stickiness(data_plane):
    _, balancer, *_ = data_plane
    proxied = BalancerServer(balancer, "127.0.0.1")
    port = proxied.bind_service("web", 0)
    try:
        seen = {}
        for ip in ("198.51.100.7", "198.51.100.8", "198.51.100.7"):
            with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
                sock.sendall(render_proxy_header(ip))
                seen.setdefault(ip, []).append(read_greeting(sock))
        assert seen["198.51.100.7"][0] == seen["198.51.100.7"][1]
        assert seen["198.51.100.7"][0] != seen["198.51.100.8"][0]
    finally:
        proxied.close()


def test_missing_or_malformed_proxy_header_rejected(data_plane):
    _, balancer, *_ = data_plane
    proxied = BalancerServer(balancer, "127.0.0.1")
    port = proxied.bind_service("web", 0)
    try:
        for garbage in (b"GET / HTTP/1.1\n", b"PROXY4 999.1.1.300\n",
                        b"PROXY4 10.0.0.1"):  # last one: no newline, then EOF
            with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
                sock.sendall(garbage)
                sock.shutdown(socket.SHUT_WR)
                assert sock.recv(64) == b""
    finally:
        proxied.close()


def test_a_balancer_connection_is_handed_over_with_its_first_bytes(
        data_plane, monkeypatch):
    accepted, timer_owners = [], []
    accept, call_later = BalancerServer._accept, Loop.call_later

    def counting_accept(self, service, session, peer):
        accepted.append(session)
        accept(self, service, session, peer)

    def counting_call_later(self, delay, fn, owner):
        timer_owners.append(owner)
        return call_later(self, delay, fn, owner)

    monkeypatch.setattr(BalancerServer, "_accept", counting_accept)
    monkeypatch.setattr(Loop, "call_later", counting_call_later)
    _, balancer, *_ = data_plane
    proxied = BalancerServer(balancer, "127.0.0.1")
    port = proxied.bind_service("web", 0)
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            time.sleep(0.2)
            # the kernel holds the connection back until its first bytes
            assert accepted == []
            sock.sendall(render_proxy_header("198.51.100.10"))
            assert read_greeting(sock) == "r1 v1"
        assert len(accepted) == 1
        # the line came with the connection: no header timer was armed
        assert accepted[0] not in timer_owners
    finally:
        proxied.close()


def test_proxy_header_read_has_a_deadline(data_plane, monkeypatch):
    monkeypatch.setattr(balancer_module, "PROXY_HEADER_TIMEOUT", 0.2)
    _, balancer, *_ = data_plane
    proxied = BalancerServer(balancer, "127.0.0.1")
    port = proxied.bind_service("web", 0)
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=3) as sock:
            started = time.monotonic()
            assert sock.recv(64) == b""  # a silent client is closed
            assert time.monotonic() - started < 2
        # the deadline covers the header only, not a quiet session after it
        with socket.create_connection(("127.0.0.1", port), timeout=3) as sock:
            sock.sendall(render_proxy_header("198.51.100.9"))
            read_greeting(sock)
            time.sleep(0.4)
            sock.sendall(b"ping")
            assert sock.recv(64) == b"ping"
    finally:
        proxied.close()


def test_proxy_header_deadline_covers_the_whole_line(data_plane, monkeypatch):
    monkeypatch.setattr(balancer_module, "PROXY_HEADER_TIMEOUT", 0.5)
    _, balancer, *_ = data_plane
    proxied = BalancerServer(balancer, "127.0.0.1")
    port = proxied.bind_service("web", 0)
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=3) as sock:
            sock.settimeout(0.2)  # one byte every 0.2 s, each within the timeout
            started = time.monotonic()
            closed = False
            while not closed and time.monotonic() - started < 3:
                try:
                    sock.sendall(b"P")
                    closed = sock.recv(64) == b""
                except TimeoutError:
                    continue
                except OSError:  # reset: the balancer closed first
                    closed = True
            assert closed and time.monotonic() - started < 1.5
    finally:
        proxied.close()


def test_proxy_header_render_parse_round_trip():
    assert parse_proxy_header(render_proxy_header("203.0.113.9")) == "203.0.113.9"
    with pytest.raises(ValueError):
        parse_proxy_header(b"PROXY4 1.2.3\n")
    with pytest.raises(ValueError):
        parse_proxy_header(b"PROXY4 256.1.1.1\n")


OCTETS = st.one_of(
    st.integers(0, 999).map(str),  # in range and out of it, 256 among them
    st.integers(0, 255).map(lambda n: f"0{n}"),  # leading zeros
    st.text(alphabet="0123456789\u0661\u0662\u0969", max_size=4),  # empty,
    # too long, and digits that are not ASCII
)


@given(st.lists(OCTETS, min_size=3, max_size=5))
@example(["256", "1", "1", "1"])
@example(["01", "2", "3", "4"])
@example(["1", "", "2", "3"])
@example(["\u0661", "2", "3", "4"])
def test_proxy_header_accepts_exactly_the_dotted_quads_ipaddress_accepts(
        octets):
    address = ".".join(octets)
    try:
        ipaddress.IPv4Address(address)
    except ValueError:
        with pytest.raises(ValueError):
            parse_proxy_header(render_proxy_header(address))
    else:
        assert parse_proxy_header(render_proxy_header(address)) == address
