"""The event loop: resource pressure, threads, ports and cross-thread calls."""

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
from flagforge._net import Listener, Session, event_loop
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
