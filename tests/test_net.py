"""The event loop: resource pressure, threads, ports, cross-thread calls,
slow dials, and listeners lent to another process."""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import textwrap
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

import flagforge
from conftest import hand_over, handoff_channel
from flagforge._net import (HandoffListener, Listener, Session, event_loop,
                            render_proxy_header)
from flagforge.ingress import FrontendNode
from flagforge.model import parse_topology
from flagforge.state import PortMapping, StateStore
from fixture_server import handle as greet_and_echo
from threaded_listener import TcpListener

SRC = Path(flagforge.__file__).resolve().parents[1]
TESTS = Path(__file__).resolve().parent

# A listener whose process runs out of descriptors, then gets them back. It
# relays to a greeter of its own. Reads one stdin line before freeing them
# and one before exiting.
EXHAUSTED_LISTENER = textwrap.dedent("""
    import errno, os, resource, sys
    from flagforge._net import Listener
    from threaded_listener import TcpListener

    greeter = TcpListener("127.0.0.1", 0,
                          lambda conn, peer: conn.sendall(b"hello\\n"))
    listener = Listener("127.0.0.1", 0, lambda session, peer: session.connect(
        ("127.0.0.1", greeter.port), 5))
    _, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    resource.setrlimit(resource.RLIMIT_NOFILE, (32, hard))
    hogs = []
    try:
        while True:
            hogs.append(os.open(os.devnull, os.O_RDONLY))
    except OSError as exc:
        if exc.errno != errno.EMFILE:
            raise
    print(listener.port, flush=True)
    sys.stdin.readline()
    for fd in hogs:
        os.close(fd)
    print("freed", flush=True)
    sys.stdin.readline()
""")


def read_line(sock: socket.socket) -> bytes:
    buf = b""
    while not buf.endswith(b"\n"):
        chunk = sock.recv(64)
        if not chunk:
            break
        buf += chunk
    return buf


def test_listener_accepts_again_after_descriptor_exhaustion():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))
    child = subprocess.Popen([sys.executable, "-c", EXHAUSTED_LISTENER],
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             text=True, env=env)
    try:
        port = int(child.stdout.readline())
        # accepted by the kernel, refused by accept() with EMFILE
        first = socket.create_connection(("127.0.0.1", port), timeout=5)
        time.sleep(0.3)
        child.stdin.write("\n")
        child.stdin.flush()
        assert child.stdout.readline().strip() == "freed"
        with first, socket.create_connection(("127.0.0.1", port),
                                             timeout=5) as second:
            assert read_line(first) == b"hello\n"
            assert read_line(second) == b"hello\n"
    finally:
        child.kill()
        child.wait(timeout=5)
        child.stdin.close()
        child.stdout.close()


# A backend's handoff listener, which relays every session of a lent port to a
# greeter of its own. It runs out of descriptors but one at once, reads a
# stdin line before it frees them and one before it exits.
EXHAUSTED_HANDOFF_LISTENER = textwrap.dedent("""
    import errno, os, resource, sys
    from flagforge._net import HandoffListener
    from threaded_listener import TcpListener

    greeter = TcpListener("127.0.0.1", 0,
                          lambda conn, peer: conn.sendall(b"borrowed\\n"))
    HandoffListener(sys.argv[1], lambda name, session, peer: session.connect(
        ("127.0.0.1", greeter.port), 5))
    _, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    resource.setrlimit(resource.RLIMIT_NOFILE, (32, hard))
    hogs = []
    try:
        while True:
            hogs.append(os.open(os.devnull, os.O_RDONLY))
    except OSError as exc:
        if exc.errno != errno.EMFILE:
            raise
    # enough to accept a channel, not to take the listener it carries
    os.close(hogs.pop())
    print("exhausted", flush=True)
    sys.stdin.readline()
    for fd in hogs:
        os.close(fd)
    print("freed", flush=True)
    sys.stdin.readline()
""")


def greets(port: int, expected: bytes, timeout: float = 5.0) -> None:
    """Connect to ``port`` until a connection greets with ``expected``."""
    deadline = time.monotonic() + timeout
    while True:
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=5) as player:
            if read_line(player) == expected:
                return
        assert time.monotonic() < deadline, f"{port} never sent {expected!r}"
        time.sleep(0.02)


def test_a_listener_lent_while_out_of_descriptors_is_taken_back_and_lent_again(
        tmp_path, free_port):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))
    store = StateStore(tmp_path / "state")
    store.root.mkdir()
    child = subprocess.Popen(
        [sys.executable, "-c", EXHAUSTED_HANDOFF_LISTENER,
         str(store.handoff_path("worker"))],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)
    # the frontend's relay, dialled when the port accepts in this process
    relay = TcpListener("127.0.0.1", 0,
                        lambda conn, peer: conn.sendall(b"relayed\n"))
    external = free_port()
    frontend = FrontendNode(parse_topology(
        f"node edge role=frontend bind=127.0.0.1 ports={external}-{external}\n"
        "node worker role=backend bind=127.0.0.1 ports=20000-20999\n"),
        "edge", store, bind_listeners=True)
    try:
        assert child.stdout.readline().strip() == "exhausted"
        # the child takes the channel and the kernel drops the listener it
        # carries (MSG_CTRUNC): the child hangs up, and the port comes back
        frontend.bind(PortMapping(external, "alpha", "worker", "127.0.0.1",
                                  relay.port))
        greets(external, b"relayed\n")
        frontend.offer()  # the next tick's offer meets the same refusal
        greets(external, b"relayed\n")
        child.stdin.write("\n")
        child.stdin.flush()
        assert child.stdout.readline().strip() == "freed"
        frontend.offer()
        greets(external, b"borrowed\n")
        assert child.poll() is None
    finally:
        frontend.close()
        relay.close()
        child.kill()
        child.wait(timeout=5)
        child.stdin.close()
        child.stdout.close()


def test_a_handed_off_socket_is_received_close_on_exec(tmp_path):
    received = []
    listener = None

    def on_handoff(name, session, peer):
        lent, = listener._channels.values()
        received.append((name, os.get_inheritable(lent._sock.fileno()),
                         peer[0]))
        session.close()

    listener = HandoffListener(str(tmp_path / "handoff.sock"), on_handoff)
    try:
        with handoff_channel(listener.path) as channel:
            port = hand_over(channel, b"alpha")
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=5) as player:
                player.settimeout(5)
                assert player.recv(64) == b""  # closed by the borrower
    finally:
        listener.close()
    assert received == [("alpha", False, "127.0.0.1")]
    assert not os.path.exists(listener.path)


@pytest.mark.parametrize("head", [render_proxy_header("127.0.0.1"), b""],
                         ids=["frontend-relay", "balancer-dial"])
def test_a_slow_dial_relays_what_the_client_sent_during_it(head):
    with socket.socket() as target:
        # its accept queue is full, so the kernel drops the dial's SYN and
        # the dial completes only with the SYN's retry, about a second later
        target.bind(("127.0.0.1", 0))
        target.listen(0)
        target.settimeout(5)
        filler = socket.create_connection(target.getsockname(), timeout=5)
        front = Listener("127.0.0.1", 0, lambda session, peer: session.connect(
            target.getsockname(), 5, head=head))
        try:
            with filler, socket.create_connection(("127.0.0.1", front.port),
                                                  timeout=5) as client:
                started = time.monotonic()
                time.sleep(0.2)  # accepted, and the dial is under way
                client.sendall(b"sent during the dial")
                time.sleep(0.2)
                target.accept()[0].close()  # room for the retried SYN
                upstream, _ = target.accept()
                assert time.monotonic() - started > 0.5
                with upstream:
                    upstream.settimeout(5)
                    expected = head + b"sent during the dial"
                    got = b""
                    while len(got) < len(expected):
                        chunk = upstream.recv(64)
                        if not chunk:
                            break
                        got += chunk
                    assert got == expected
                    upstream.sendall(b"reply")
                    assert client.recv(64) == b"reply"
        finally:
            front.close()


def replica() -> TcpListener:
    """Greets, then echoes, on threads of its own, as a replica in its own
    process would."""
    return TcpListener("127.0.0.1", 0,
                       lambda conn, peer: greet_and_echo(conn, b"hello\n"))


def relaying_listener(upstream: TcpListener,
                      accept_threads: list | None = None) -> Listener:
    """Relays every connection to ``upstream``; each accept appends the
    thread it ran on to ``accept_threads``."""

    def forward(session, peer):
        if accept_threads is not None:
            accept_threads.append(threading.current_thread())
        session.connect(("127.0.0.1", upstream.port), 5)

    return Listener("127.0.0.1", 0, forward)


def test_listener_on_a_taken_port_keeps_no_socket(free_port):
    event_loop()  # its descriptors are not the listener's
    port = free_port()
    with socket.socket() as squatter:
        squatter.bind(("127.0.0.1", port))
        squatter.listen(1)
        before = len(os.listdir("/proc/self/fd"))
        # the traceback held here keeps the half-built listener alive, so
        # only an explicit close frees its socket
        with pytest.raises(OSError) as refused:
            Listener("127.0.0.1", port, lambda session, peer: None)
        assert len(os.listdir("/proc/self/fd")) == before


def test_closed_listener_frees_its_port_at_once():
    listener = Listener("127.0.0.1", 0, lambda session, peer: None)
    listener.close()
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(("127.0.0.1", listener.port), timeout=2)
    with socket.socket() as successor:  # without SO_REUSEADDR
        successor.bind(("127.0.0.1", listener.port))


def test_sequential_sessions_reuse_a_few_threads():
    accept_threads: list = []
    upstream = replica()
    front = relaying_listener(upstream, accept_threads)
    try:
        for _ in range(50):
            with socket.create_connection(("127.0.0.1", front.port),
                                          timeout=5) as sock:
                assert read_line(sock) == b"hello\n"
    finally:
        front.close()
        upstream.close()
    assert len(accept_threads) == 50
    assert set(accept_threads) == {event_loop().thread}


def test_idle_sessions_do_not_delay_a_new_one():
    upstream = replica()
    front = relaying_listener(upstream)
    held = []
    try:
        for _ in range(16):
            sock = socket.create_connection(("127.0.0.1", front.port), timeout=5)
            held.append(sock)
            assert read_line(sock) == b"hello\n"
        started = time.monotonic()
        with socket.create_connection(("127.0.0.1", front.port),
                                      timeout=5) as sock:
            assert read_line(sock) == b"hello\n"
        assert time.monotonic() - started < 2
    finally:
        for sock in held:
            sock.close()
        front.close()
        upstream.close()


def test_a_stray_wake_up_leaves_a_pending_dial_under_its_timeout(stuck_port):
    loop = event_loop()
    client, accepted = socket.socketpair()
    accepted.setblocking(False)
    session = Session(loop, accepted)
    started = time.monotonic()
    loop.call_soon(session.connect, ("127.0.0.1", stuck_port), 0.3,
                   owner=session)
    # as if epoll reported the upstream writable while its SYN goes unanswered
    loop.call_soon(lambda: session.ready(session._upstream.sock),
                   owner=session)
    with client:
        client.settimeout(3)
        assert client.recv(64) == b""
    assert 0.3 <= time.monotonic() - started < 2


def test_every_task_runs_exactly_once_under_contention():
    loop = event_loop()
    runs: Counter = Counter()
    finished = threading.Semaphore(0)

    def task(i):  # on the loop thread alone, so no lock
        runs[i] += 1
        finished.release()

    def submit_range(start):
        for i in range(start, start + 100):
            loop.call_soon(task, i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        submitters = [threading.Thread(target=submit_range, args=(k * 100,))
                      for k in range(4)]
        for t in submitters:
            t.start()
        for t in submitters:
            t.join(10)
            assert not t.is_alive()
        for _ in range(400):
            assert finished.acquire(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert runs == Counter(range(400))
