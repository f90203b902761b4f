"""Mapping generation, persistence, the forwarding path and the frontend node."""

from __future__ import annotations

import gc
import socket
import threading
import time

import pytest

from flagforge import ingress as ingress_module
from flagforge._net import Listener, Loop, Session, _Side, parse_proxy_header
from flagforge.balancer import Balancer, BalancerServer
from flagforge.errors import IngressError
from flagforge.ingress import (
    FrontendNode,
    PortMapping,
    generate_mappings,
    load_mappings,
    parse_mappings,
    serialize_mappings,
)
from flagforge.model import parse_topology
from flagforge.registry import HEALTH_HEALTHY, Registry, ReplicaEndpoint
from flagforge.runtime import Cluster
from flagforge.state import StateStore
from fixture_server import handle as greet_and_echo
from threaded_listener import TcpListener, read_line

NODES = """
node edge role=frontend bind=127.0.0.1 ports=9000-9999
node worker role=backend bind=127.0.0.1 ports=20000-20999
"""

TWO = NODES + """
challenge beta version=v1 replicas=1 internal_port=1 external_port=9002 backend=worker run="b {PORT}" probe=tcp
challenge alpha version=v1 replicas=1 internal_port=1 external_port=9001 backend=worker run="a {PORT}" probe=tcp
"""

PORTS = {"worker": {"alpha": 20000, "beta": 20001}}


def balancer_stub(name: str, reply_delay: float = 0.0) -> TcpListener:
    """Backend-side stand-in: consumes PROXY4, answers `<name> <ip>`, echoes.

    ``reply_delay`` seconds pass between the header and the answer.
    """

    def handler(conn: socket.socket, peer) -> None:
        try:
            line, leftover = read_line(conn, 64)
            ip = parse_proxy_header(line)
        except ValueError:
            return
        time.sleep(reply_delay)
        conn.sendall(f"{name} {ip}\n".encode())
        if leftover:
            conn.sendall(leftover)
        while True:
            data = conn.recv(65536)
            if not data:
                return
            conn.sendall(data)

    return TcpListener("127.0.0.1", 0, handler)


def read_line_from(sock: socket.socket) -> str:
    buf = b""
    while not buf.endswith(b"\n"):
        chunk = sock.recv(64)
        if not chunk:
            raise AssertionError(f"closed early, got {buf!r}")
        buf += chunk
    return buf.decode().strip()


def mapping_for(port: int, backend_port: int,
                challenge: str = "alpha") -> PortMapping:
    return PortMapping(port, challenge, "worker", "127.0.0.1", backend_port)


def edge_topology(external: int):
    """The frontend ``edge`` exposing ``alpha`` of backend ``worker``."""
    return parse_topology(
        f"node edge role=frontend bind=127.0.0.1 ports={external}-{external}\n"
        "node worker role=backend bind=127.0.0.1 ports=20000-20999\n"
        "challenge alpha version=v1 replicas=1 internal_port=1"
        f' external_port={external} backend=worker run="a {{PORT}}" probe=tcp\n')


def frontend(tmp_path) -> FrontendNode:
    """A frontend ``edge`` with real listeners and nothing mapped yet."""
    return FrontendNode(edge_topology(9001), "edge",
                        StateStore(tmp_path / "state"), bind_listeners=True)


# --- generation ----------------------------------------------------------------


def test_generate_empty_topology():
    table, skipped = generate_mappings(parse_topology(NODES), {})
    assert len(table) == 0 and skipped == []
    assert serialize_mappings(table) == ""


def test_generate_sorted_by_external_port():
    table, skipped = generate_mappings(parse_topology(TWO), PORTS)
    assert [m.external_port for m in table] == [9001, 9002]
    assert [m.challenge for m in table] == ["alpha", "beta"]
    assert skipped == []


def test_generate_twice_byte_identical():
    topology = parse_topology(TWO)
    first, _ = generate_mappings(topology, PORTS)
    second, _ = generate_mappings(topology, PORTS)
    assert serialize_mappings(first) == serialize_mappings(second)


def test_generate_skips_unbound_challenge():
    table, skipped = generate_mappings(
        parse_topology(TWO), {"worker": {"alpha": 20000}})
    assert [m.challenge for m in table] == ["alpha"]
    assert skipped == ["beta: no balancer port bound on worker"]


# --- persistence ----------------------------------------------------------------


def test_line_format_exact():
    table, _ = generate_mappings(parse_topology(TWO), PORTS)
    assert serialize_mappings(table) == (
        "9001 alpha worker 127.0.0.1:20000\n"
        "9002 beta worker 127.0.0.1:20001\n")


def test_parse_round_trip_and_sorting():
    text = "9002 beta worker 127.0.0.1:20001\n9001 alpha worker 127.0.0.1:20000\n"
    table = parse_mappings(text)
    assert [m.external_port for m in table] == [9001, 9002]
    assert serialize_mappings(parse_mappings(serialize_mappings(table))) \
        == serialize_mappings(table)


@pytest.mark.parametrize("line", [
    "9001 alpha worker\n",
    "9001 alpha worker 127.0.0.1\n",
    "9001 alpha worker 127.0.0.1:notaport\n",
    "900000 alpha worker 127.0.0.1:20000\n",
    "9001 alpha worker 999.0.0.1:20000\n",
])
def test_parse_malformed_lines(line):
    with pytest.raises(IngressError, match="line 1"):
        parse_mappings(line)


def test_save_load_round_trip(tmp_path):
    table, _ = generate_mappings(parse_topology(TWO), PORTS)
    store = StateStore(tmp_path / "state")
    store.save_mappings(reversed(table))
    loaded = load_mappings(store.ingress_path)
    assert loaded == table
    store.save_mappings(loaded)
    assert store.ingress_path.read_text() == serialize_mappings(table)
    assert load_mappings(tmp_path / "absent.map") == ()


# --- forwarding -------------------------------------------------------------------


@pytest.fixture
def server(tmp_path):
    ingress = frontend(tmp_path)
    yield ingress
    ingress.close()


def test_forward_end_to_end(server, free_port):
    stub = balancer_stub("A")
    external = free_port()
    try:
        server.bind(mapping_for(external, stub.port))
        with socket.create_connection(("127.0.0.1", external), timeout=5) as sock:
            assert read_line_from(sock) == "A 127.0.0.1"
            sock.sendall(b"marco")
            assert sock.recv(64) == b"marco"
    finally:
        stub.close()


def test_relay_outlives_connect_timeout_of_a_quiet_backend(tmp_path, free_port,
                                                           monkeypatch):
    monkeypatch.setattr(ingress_module, "BACKEND_CONNECT_TIMEOUT", 0.2)
    ingress = frontend(tmp_path)
    stub = balancer_stub("A", reply_delay=0.6)
    external = free_port()
    try:
        ingress.bind(mapping_for(external, stub.port))
        with socket.create_connection(("127.0.0.1", external), timeout=5) as sock:
            assert read_line_from(sock) == "A 127.0.0.1"
    finally:
        ingress.close()
        stub.close()


def test_unmapped_port_refused(server, free_port):
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(("127.0.0.1", free_port()), timeout=2)


def test_backend_unreachable_closes_inbound(server, free_port):
    external = free_port()
    dead_backend = free_port()  # nothing listens there
    server.bind(mapping_for(external, dead_backend))
    with socket.create_connection(("127.0.0.1", external), timeout=5) as sock:
        assert sock.recv(64) == b""


def test_a_backend_stuck_in_the_dial_closes_the_client_after_the_timeout(
        tmp_path, free_port, stuck_port, monkeypatch):
    monkeypatch.setattr(ingress_module, "BACKEND_CONNECT_TIMEOUT", 0.3)
    ingress = frontend(tmp_path)
    external = free_port()
    try:
        ingress.bind(mapping_for(external, stuck_port))
        started = time.monotonic()
        with socket.create_connection(("127.0.0.1", external), timeout=5) as sock:
            assert sock.recv(64) == b""
        assert 0.3 <= time.monotonic() - started < 3
    finally:
        ingress.close()


def test_loopback_dials_relay_without_a_wait_or_a_timer(tmp_path, free_port,
                                                       monkeypatch):
    dials_done, timers = [], []
    dial_done, call_later = Session._dial_done, Loop.call_later

    def counting_dial_done(self):
        dials_done.append(self)
        dial_done(self)

    def counting_call_later(self, delay, fn, owner):
        timers.append(fn)
        return call_later(self, delay, fn, owner)

    monkeypatch.setattr(Session, "_dial_done", counting_dial_done)
    monkeypatch.setattr(Loop, "call_later", counting_call_later)
    replica = TcpListener("127.0.0.1", 0,
                          lambda conn, peer: greet_and_echo(conn, b"r1 v1\n"))
    registry = Registry()
    registry.create_service("alpha", "net-alpha")
    registry.register_replica("alpha", ReplicaEndpoint(
        "r1", "127.0.0.1", replica.port, "v1", HEALTH_HEALTHY))
    balancer = BalancerServer(
        Balancer(registry, stick_ttl=100, stick_capacity=100), "127.0.0.1")
    balancer_port = balancer.bind_service("alpha", 0)
    ingress = frontend(tmp_path)
    external = free_port()
    try:
        ingress.bind(mapping_for(external, balancer_port))
        for _ in range(50):
            with socket.create_connection(("127.0.0.1", external),
                                          timeout=5) as sock:
                assert read_line_from(sock) == "r1 v1"
                sock.sendall(b"marco")
                assert sock.recv(64) == b"marco"
    finally:
        ingress.close()
        balancer.close()
        replica.close()
    # no dial waited for writability, none armed a connect timer, and the
    # balancer's PROXY4 line came with its connection, so no header timer
    assert dials_done == [] and timers == []


def test_a_closed_session_is_freed_without_the_cyclic_collector(
        tmp_path, free_port):
    def relay_objects() -> list:
        return [o for o in gc.get_objects() if isinstance(o, (Session, _Side))]

    replica = TcpListener("127.0.0.1", 0,
                          lambda conn, peer: greet_and_echo(conn, b"r1 v1\n"))
    registry = Registry()
    registry.create_service("alpha", "net-alpha")
    registry.register_replica("alpha", ReplicaEndpoint(
        "r1", "127.0.0.1", replica.port, "v1", HEALTH_HEALTHY))
    balancer = BalancerServer(
        Balancer(registry, stick_ttl=100, stick_capacity=100), "127.0.0.1")
    balancer_port = balancer.bind_service("alpha", 0)
    ingress = frontend(tmp_path)
    external = free_port()
    gc.collect()
    before = relay_objects()  # held, so none is freed and its address reused
    gc.disable()
    try:
        ingress.bind(mapping_for(external, balancer_port))
        for _ in range(50):
            with socket.create_connection(("127.0.0.1", external),
                                          timeout=5) as sock:
                assert read_line_from(sock) == "r1 v1"
                sock.shutdown(socket.SHUT_WR)
                assert sock.recv(64) == b""
        # both hops closed their sessions before the client saw EOF
        assert [o for o in relay_objects()
                if not any(o is old for old in before)] == []
    finally:
        gc.enable()
        ingress.close()
        balancer.close()
        replica.close()


def test_restart_reproduces_listeners(tmp_path, free_port):
    stub = balancer_stub("A")
    external = free_port()
    topology = edge_topology(external)
    store = StateStore(tmp_path / "state")
    store.save_mappings([mapping_for(external, stub.port)])

    first = FrontendNode(topology, "edge", store, bind_listeners=True)
    with socket.create_connection(("127.0.0.1", external), timeout=5) as sock:
        assert read_line_from(sock) == "A 127.0.0.1"
    first.close()
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(("127.0.0.1", external), timeout=2)

    second = FrontendNode(topology, "edge", store, bind_listeners=True)
    try:
        assert second.bind_failures() == []
        with socket.create_connection(("127.0.0.1", external), timeout=5) as sock:
            assert read_line_from(sock) == "A 127.0.0.1"
    finally:
        second.close()
        stub.close()


def test_an_adopted_mapping_whose_port_is_taken_stays_mapped(tmp_path,
                                                            free_port):
    external = free_port()
    store = StateStore(tmp_path / "state")
    store.save_mappings([mapping_for(external, 20000)])
    with socket.create_server(("127.0.0.1", external)):
        node = FrontendNode(edge_topology(external), "edge", store,
                            bind_listeners=True)
        node.close()
    assert node.mappings == {external: mapping_for(external, 20000)}
    assert node.bind_failures() == [
        f"external port {external} could not be bound"]


def test_swap_lets_inflight_connections_drain(server, free_port):
    stub_a, stub_b = balancer_stub("A"), balancer_stub("B")
    external = free_port()
    try:
        server.bind(mapping_for(external, stub_a.port))
        held = socket.create_connection(("127.0.0.1", external), timeout=5)
        assert read_line_from(held) == "A 127.0.0.1"

        # re-targeting a bound port keeps its listener
        server.bind(mapping_for(external, stub_b.port))
        # the held connection keeps working against the old target
        held.sendall(b"still-here")
        assert held.recv(64) == b"still-here"
        held.close()
        # new connections reach the new target
        with socket.create_connection(("127.0.0.1", external), timeout=5) as sock:
            assert read_line_from(sock) == "B 127.0.0.1"
    finally:
        stub_a.close()
        stub_b.close()


def test_unbind_closes_listener(server, free_port):
    stub = balancer_stub("A")
    external, other = free_port(), free_port()
    try:
        server.bind(mapping_for(external, stub.port))
        server.bind(mapping_for(other, stub.port, challenge="beta"))
        server.unbind(external)
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", external), timeout=2)
        server.unbind(external)  # unbinding an unbound port is a no-op
        with socket.create_connection(("127.0.0.1", other), timeout=5) as sock:
            assert read_line_from(sock) == "A 127.0.0.1"
    finally:
        stub.close()


def test_foreign_bind_failure_is_isolated(server, free_port):
    stub = balancer_stub("A")
    ok_port, stolen_port = free_port(), free_port()
    squatter = socket.socket()
    squatter.bind(("127.0.0.1", stolen_port))
    squatter.listen(1)
    try:
        server.bind(mapping_for(ok_port, stub.port))
        with pytest.raises(IngressError):
            server.bind(mapping_for(stolen_port, stub.port, challenge="beta"))
        assert server.bind_failures() == [
            f"external port {stolen_port} could not be bound"]
        assert stolen_port not in server.mappings  # planned again next time
        with socket.create_connection(("127.0.0.1", ok_port), timeout=5) as sock:
            assert read_line_from(sock) == "A 127.0.0.1"
    finally:
        squatter.close()
        stub.close()


def test_ports_stay_isolated(server, free_port):
    stub_a, stub_b = balancer_stub("A"), balancer_stub("B")
    port_a, port_b = free_port(), free_port()
    try:
        server.bind(PortMapping(port_a, "alpha", "worker", "127.0.0.1",
                                stub_a.port))
        server.bind(PortMapping(port_b, "beta", "worker", "127.0.0.1",
                                stub_b.port))
        for _ in range(10):
            with socket.create_connection(("127.0.0.1", port_a), timeout=5) as sock:
                assert read_line_from(sock).startswith("A ")
            with socket.create_connection(("127.0.0.1", port_b), timeout=5) as sock:
                assert read_line_from(sock).startswith("B ")
    finally:
        stub_a.close()
        stub_b.close()


def test_bind_and_unbind_finish_while_connections_are_routed(tmp_path, free_port):
    # an accept reads its route, taking no lock, while another thread
    # binds and unbinds other ports
    ingress = frontend(tmp_path)
    stub = balancer_stub("A")
    external = free_port()
    others = [free_port() for _ in range(4)]
    ingress.bind(mapping_for(external, stub.port))
    stop = threading.Event()
    answers: list[str] = []
    errors: list[BaseException] = []

    def connect_in_a_loop() -> None:
        try:
            while not stop.is_set():
                with socket.create_connection(("127.0.0.1", external),
                                              timeout=5) as sock:
                    answers.append(read_line_from(sock))
        except BaseException as exc:  # reported by the assertion below
            errors.append(exc)

    def churn() -> None:
        for _ in range(25):
            for port in others:
                ingress.bind(mapping_for(port, stub.port, challenge="beta"))
            for port in others:
                ingress.unbind(port)

    client = threading.Thread(target=connect_in_a_loop, daemon=True)
    churner = threading.Thread(target=churn, daemon=True)
    try:
        client.start()
        churner.start()
        churner.join(20)
        assert not churner.is_alive()
    finally:
        stop.set()
        client.join(10)
        stub.close()
        if not churner.is_alive():  # a deadlocked churner holds the lock
            ingress.close()
    assert not client.is_alive() and errors == []
    assert answers and set(answers) == {"A 127.0.0.1"}


def test_bind_records_the_route_before_the_port_opens(server, free_port,
                                                      monkeypatch):
    # the loop may accept on a port as soon as its listener is built
    external = free_port()
    seen = []

    def listener(address, port, on_accept):
        seen.append(server.mappings.get(port))
        return Listener(address, port, on_accept)

    monkeypatch.setattr("flagforge.ingress.Listener", listener)
    mapping = mapping_for(external, 20000)
    server.bind(mapping)
    assert seen == [mapping]


def test_an_accept_does_not_wait_for_another_ports_bind(server, free_port,
                                                        monkeypatch):
    stub = balancer_stub("A")
    mapped, binding = free_port(), free_port()
    server.bind(mapping_for(mapped, stub.port))
    sleeping = threading.Event()

    def slow_listener(*args, **kwargs):
        sleeping.set()
        time.sleep(1.0)
        return Listener(*args, **kwargs)

    monkeypatch.setattr("flagforge.ingress.Listener", slow_listener)
    binder = threading.Thread(target=server.bind, args=(
        mapping_for(binding, stub.port, challenge="beta"),))
    try:
        binder.start()
        assert sleeping.wait(5)
        started = time.monotonic()
        with socket.create_connection(("127.0.0.1", mapped), timeout=5) as sock:
            assert read_line_from(sock) == "A 127.0.0.1"
        assert time.monotonic() - started < 0.5
    finally:
        binder.join(10)
        stub.close()


# --- the frontend node ----------------------------------------------------------


def test_failed_bind_is_planned_again_once_the_port_is_free(tmp_path, free_port):
    stub = balancer_stub("A")
    external = free_port()
    store = StateStore(tmp_path / "state")
    store.save_balancer({"worker": {"ports": {"alpha": stub.port}}})
    squatter = socket.socket()
    squatter.bind(("127.0.0.1", external))
    squatter.listen(1)
    cluster = Cluster(edge_topology(external), store, hosted=["edge"])
    try:
        report = cluster.converge(only_node="edge")
        failed, = report.results
        assert (failed.action.kind, failed.outcome) == ("bind_ingress", "failed")
        assert not store.ingress_path.exists()  # not recorded as mapped
        assert cluster.frontend.bind_failures() == [
            f"external port {external} could not be bound"]
        squatter.close()

        report = cluster.converge(only_node="edge")
        assert [(r.action.kind, r.outcome) for r in report.results] == [
            ("bind_ingress", "ok")]
        assert load_mappings(store.ingress_path) == (
            mapping_for(external, stub.port),)
        assert cluster.frontend.bind_failures() == []
        with socket.create_connection(("127.0.0.1", external), timeout=5) as sock:
            assert read_line_from(sock) == "A 127.0.0.1"
    finally:
        cluster.shutdown()
        squatter.close()
        stub.close()
