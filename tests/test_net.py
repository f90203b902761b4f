"""TCP plumbing: resource pressure and the reusable worker threads."""

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
from flagforge import _net
from flagforge._net import TcpListener, WorkerPool, relay
from fixture_server import handle as greet_and_echo

SRC = Path(flagforge.__file__).resolve().parents[1]

# A listener whose process runs out of descriptors, then gets them back.
# Reads one stdin line before freeing them and one before exiting.
EXHAUSTED_LISTENER = textwrap.dedent("""
    import errno, os, resource, sys
    from flagforge._net import TcpListener

    listener = TcpListener("127.0.0.1", 0,
                           lambda conn, peer: conn.sendall(b"hello\\n"))
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
    env = dict(os.environ, PYTHONPATH=str(SRC))
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


def replica() -> socket.socket:
    """Greets, then echoes, on threads of its own outside the worker pool, as
    a replica in its own process would."""
    server = socket.create_server(("127.0.0.1", 0))

    def serve():
        while True:
            try:
                conn, _ = server.accept()
            except OSError:
                return
            threading.Thread(target=greet_and_echo, args=(conn, b"hello\n"),
                             daemon=True).start()

    threading.Thread(target=serve, daemon=True).start()
    return server


def relaying_listener(upstream: socket.socket, handler_threads: list,
                      relays_ended: threading.Semaphore | None = None
                      ) -> TcpListener:
    """Relays every connection to ``upstream``; each handler run appends its
    thread to ``handler_threads`` and releases ``relays_ended`` once its
    relay is over."""
    address = upstream.getsockname()

    def forward(conn, peer):
        handler_threads.append(threading.current_thread())
        relay(conn, socket.create_connection(address))
        if relays_ended is not None:
            relays_ended.release()

    return TcpListener("127.0.0.1", 0, forward)


def close_server(server: socket.socket) -> None:
    server.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept
    server.close()


def wait_until(condition, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def test_listener_on_a_taken_port_keeps_no_socket(free_port):
    port = free_port()
    with socket.socket() as squatter:
        squatter.bind(("127.0.0.1", port))
        squatter.listen(1)
        before = len(os.listdir("/proc/self/fd"))
        # the traceback held here keeps the half-built listener alive, so
        # only an explicit close frees its socket
        with pytest.raises(OSError) as refused:
            TcpListener("127.0.0.1", port, lambda conn, peer: None)
        assert len(os.listdir("/proc/self/fd")) == before


def test_sequential_sessions_reuse_a_few_threads():
    handler_threads: list = []
    relays_ended = threading.Semaphore(0)
    upstream = replica()
    front = relaying_listener(upstream, handler_threads, relays_ended)
    try:
        for _ in range(50):
            with socket.create_connection(("127.0.0.1", front.port),
                                          timeout=5) as sock:
                assert read_line(sock) == b"hello\n"
            assert relays_ended.acquire(timeout=5)  # one session at a time
    finally:
        front.close()
        close_server(upstream)
    assert len(handler_threads) == 50
    assert len(set(handler_threads)) <= 4


def test_idle_sessions_do_not_delay_a_new_one():
    upstream = replica()
    front = relaying_listener(upstream, [])
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
        close_server(upstream)


def test_idle_workers_fall_back_after_a_burst(monkeypatch):
    monkeypatch.setattr(_net, "MAX_IDLE_WORKERS", 1)
    pool = WorkerPool()
    release = threading.Event()
    ran: list = []

    def task():
        ran.append(threading.current_thread())
        release.wait(5)

    for _ in range(8):
        pool.submit(task)
    assert wait_until(lambda: len(ran) == 8)
    assert len(set(ran)) == 8  # every blocked task got a thread of its own
    release.set()

    def idle():
        return [t for t in ran if t.is_alive()]

    assert wait_until(lambda: len(idle()) <= 1)
    survivors = idle()
    assert len(survivors) == 1
    done = threading.Event()
    pool.submit(lambda: (ran.append(threading.current_thread()), done.set()))
    assert done.wait(5)
    assert ran[-1] in survivors  # an idle worker took the task


def test_task_exception_reaches_excepthook_and_ends_its_thread(monkeypatch):
    hooked = []
    monkeypatch.setattr(threading, "excepthook", hooked.append)
    pool = WorkerPool()
    ran: list = []

    def boom():
        ran.append(threading.current_thread())
        raise RuntimeError("boom")

    pool.submit(boom)
    assert wait_until(lambda: hooked and not ran[0].is_alive())
    assert hooked[0].exc_type is RuntimeError
    done = threading.Event()
    pool.submit(done.set)
    assert done.wait(5)


def test_every_task_runs_exactly_once_under_contention():
    pool = WorkerPool()
    runs: Counter = Counter()
    runs_lock = threading.Lock()
    finished = threading.Semaphore(0)

    def task(i):
        with runs_lock:
            runs[i] += 1
        finished.release()

    def submit_range(start):
        for i in range(start, start + 100):
            pool.submit(task, i)

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
