"""Small TCP plumbing shared by the balancer, ingress, and test fixtures."""

from __future__ import annotations

import errno
import ipaddress
import re
import socket
import threading
import time
from typing import Callable

RELAY_CHUNK = 65536

# accept() errors that leave the listening socket usable: out of descriptors
# or kernel memory, or a peer that reset before it was accepted
ACCEPT_RETRY_ERRNOS = frozenset({errno.EMFILE, errno.ENFILE, errno.ENOBUFS,
                                 errno.ENOMEM, errno.ECONNABORTED})
ACCEPT_RETRY_DELAY = 0.05

# a pool worker that finishes its task while this many others are idle exits,
# so the thread count falls back after a burst of connections; two cover the
# handler and return pump of a connection that arrives while others end
MAX_IDLE_WORKERS = 2

# wire protocol between the frontend relay and a backend balancer: the very
# first bytes of a forwarded connection carry the participant's address
PROXY_HEADER_RE = re.compile(rb"PROXY4 (\d{1,3}(?:\.\d{1,3}){3})\n\Z")
PROXY_HEADER_LIMIT = 64


def render_proxy_header(source_ip: str) -> bytes:
    return f"PROXY4 {source_ip}\n".encode()


def parse_proxy_header(line: bytes) -> str:
    """Decode `PROXY4 <dotted-quad>\\n`; raises ValueError when malformed."""
    m = PROXY_HEADER_RE.match(line)
    if not m:
        raise ValueError(f"malformed proxy header {line!r}")
    ip = m.group(1).decode()
    ipaddress.IPv4Address(ip)  # rejects out-of-range octets
    return ip


def read_line(sock: socket.socket, limit: int = 256,
              deadline: float | None = None) -> tuple[bytes, bytes]:
    """Read up to and including the first newline.

    Returns ``(line_with_newline, leftover)`` where leftover is whatever
    arrived after the newline and must be forwarded by the caller. Raises
    ValueError if the peer closes first or the limit is hit. With a
    ``deadline`` (a ``time.monotonic()`` value), the whole line must arrive
    by then or TimeoutError is raised; the socket keeps a timeout set.
    """
    buf = b""
    while b"\n" not in buf:
        if len(buf) >= limit:
            raise ValueError("line too long")
        if deadline is not None:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError("no newline before the deadline")
            sock.settimeout(left)
        chunk = sock.recv(limit)
        if not chunk:
            raise ValueError("connection closed before newline")
        buf += chunk
    line, _, rest = buf.partition(b"\n")
    return line + b"\n", rest


class WorkerPool:
    """Daemon threads that are reused from task to task.

    A task runs on the most recently idled worker, or on a new thread when
    none is idle. There is no upper bound: every relayed connection holds two
    blocking pumps, so a capped pool would deadlock. An exception that
    escapes a task reaches ``threading.excepthook`` and ends its thread.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # (wake, inbox) per idle worker; releasing wake hands over the task
        # put in inbox
        self._idle: list[tuple[threading.Lock, list]] = []

    def submit(self, fn: Callable, *args) -> None:
        with self._lock:
            if self._idle:
                wake, inbox = self._idle.pop()
                inbox.append((fn, args))
                wake.release()
                return
        threading.Thread(target=self._work, args=(fn, args),
                         daemon=True).start()

    def _work(self, fn: Callable, args: tuple) -> None:
        wake = threading.Lock()
        wake.acquire()
        inbox: list = []
        while True:
            fn(*args)
            del fn, args  # an idle worker keeps nothing of its last task alive
            with self._lock:
                if len(self._idle) >= MAX_IDLE_WORKERS:
                    return
                self._idle.append((wake, inbox))
            wake.acquire()
            fn, args = inbox.pop()


# one pool per process: every listener's handlers and every relay's pumps
_POOL = WorkerPool()


def _pump(src: socket.socket, dst: socket.socket,
          done: threading.Event | None = None) -> None:
    try:
        while True:
            data = src.recv(RELAY_CHUNK)
            if not data:
                break
            dst.sendall(data)
    except OSError:
        pass
    finally:
        # Propagate EOF as a half-close so the opposite direction keeps flowing.
        try:
            dst.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        if done is not None:
            done.set()


def relay(a: socket.socket, b: socket.socket) -> None:
    """Pump bytes both ways until each direction hits EOF, then close both."""
    back = threading.Event()
    _POOL.submit(_pump, b, a, back)
    _pump(a, b)
    back.wait()
    for s in (a, b):
        try:
            s.close()
        except OSError:
            pass


class TcpListener:
    """Accept loop on one port; each connection's handler runs on the pool.

    The handler receives ``(conn, peer_address)`` and owns the socket; it is
    closed after the handler returns in case the handler did not. Running out
    of descriptors or memory pauses accepting; only ``close`` ends it.
    """

    def __init__(self, address: str, port: int,
                 handler: Callable[[socket.socket, tuple], None]):
        self._handler = handler
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            self._sock.bind((address, port))
            self._sock.listen(128)
        except OSError:
            self._sock.close()  # a refused port is retried; keep no socket
            raise
        self.address, self.port = self._sock.getsockname()[:2]
        self._thread = threading.Thread(
            target=self._accept_loop, name=f"listen-{self.port}", daemon=True)
        self._thread.start()

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, peer = self._sock.accept()
            except OSError as exc:
                if exc.errno not in ACCEPT_RETRY_ERRNOS:
                    return  # EBADF or EINVAL: the listener was closed
                # the pending connection stays queued until a descriptor frees
                time.sleep(ACCEPT_RETRY_DELAY)
                continue
            _POOL.submit(self._run_handler, conn, peer)

    def _run_handler(self, conn: socket.socket, peer: tuple) -> None:
        try:
            self._handler(conn, peer)
        except OSError:
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def close(self) -> None:
        # shutdown first: close alone leaves the port alive while the accept
        # loop is blocked on it
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
