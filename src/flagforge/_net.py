"""The data plane's I/O model: one epoll loop thread per process.

Every listener and every relayed session of a process runs on one daemon
thread, started with the first ``Listener``. A listener binds in its caller,
so a refused port raises there, and then hands its socket to the loop. The
loop accepts, dials upstream and relays both ways with non-blocking calls; no
thread is started per connection. A dial that is up when ``connect`` returns,
as on loopback and between hosts of one network, relays at once; otherwise it
waits for writability within its timeout. A ``defer_accept`` listener (a
balancer port) accepts a connection once its first bytes are in, or after
about a second; the loop reads its timers only when one is pending. Callbacks
run on the loop thread and must not block. An exception that escapes one is
reported through ``threading.excepthook`` and closes the session whose
callback it was.

Only the loop thread watches, reads, writes or closes a socket it was handed,
and it closes them after dispatching a whole batch of events, so a descriptor
number is never reused while an event for it is pending. A closed session
is in no reference cycle, so refcounting frees it.
"""

from __future__ import annotations

import _socket
import errno
import heapq
import itertools
import os
import re
import select
import socket
import sys
import threading
import time
from collections import deque
from typing import Callable

RELAY_CHUNK = 65536

# accept() errors that leave the listening socket usable: out of descriptors
# or kernel memory, or a peer that reset before it was accepted
ACCEPT_RETRY_ERRNOS = frozenset({errno.EMFILE, errno.ENFILE, errno.ENOBUFS,
                                 errno.ENOMEM, errno.ECONNABORTED})
ACCEPT_RETRY_DELAY = 0.05

LOOP_THREAD_NAME = "flagforge-loop"

# wire protocol between the frontend relay and a backend balancer: the very
# first bytes of a forwarded connection carry the participant's address
# each octet 0-255 in decimal, without leading zeros
_OCTET = rb"(?:25[0-5]|2[0-4]\d|1\d\d|[1-9]?\d)"
PROXY_HEADER_RE = re.compile(
    rb"PROXY4 (" + _OCTET + rb"(?:\." + _OCTET + rb"){3})\n\Z")
PROXY_HEADER_LIMIT = 64

IN, OUT = select.EPOLLIN, select.EPOLLOUT

# socket.socket.close without its two wrapper frames; a second call is a no-op
_close = _socket.socket.close


def render_proxy_header(source_ip: str) -> bytes:
    return f"PROXY4 {source_ip}\n".encode()


def parse_proxy_header(line: bytes) -> str:
    """Decode `PROXY4 <dotted-quad>\\n`; raises ValueError when malformed."""
    m = PROXY_HEADER_RE.match(line)
    if not m:
        raise ValueError(f"malformed proxy header {line!r}")
    return m.group(1).decode()


class Timer:
    """A ``call_later`` callback; ``cancel`` keeps it from running."""

    __slots__ = ("fn", "owner")

    def __init__(self, fn: Callable[[], None], owner) -> None:
        self.fn, self.owner = fn, owner

    def cancel(self) -> None:
        self.fn = self.owner = None


class Loop:
    """An epoll loop on its own daemon thread.

    ``call_soon`` is the one method other threads may call; everything else
    runs on the loop thread. A watched socket's owner gets ``ready(sock)``
    when the socket can move what it waits for; an owner is anything with
    ``close()``, which the loop calls when one of its callbacks raises.
    """

    def __init__(self) -> None:
        self._epoll = select.epoll()
        self._wake = os.eventfd(0, os.EFD_NONBLOCK | os.EFD_CLOEXEC)
        self._epoll.register(self._wake, IN)
        self._watched: dict[int, tuple[object, socket.socket, int]] = {}
        self._timers: list[tuple[float, int, Timer]] = []
        self._order = itertools.count()  # breaks ties between equal deadlines
        self._calls: deque = deque()
        self._closing: list[socket.socket] = []
        self.thread = threading.Thread(target=self._run, name=LOOP_THREAD_NAME,
                                       daemon=True)
        self.thread.start()

    def call_soon(self, fn: Callable, *args, owner=None) -> None:
        """Run ``fn(*args)`` on the loop thread; safe from any thread."""
        self._calls.append((fn, args, owner))
        os.eventfd_write(self._wake, 1)

    def call_later(self, delay: float, fn: Callable[[], None], owner) -> Timer:
        timer = Timer(fn, owner)
        heapq.heappush(self._timers,
                       (time.monotonic() + delay, next(self._order), timer))
        return timer

    def watch(self, sock: socket.socket, events: int, owner) -> None:
        """Wait for ``events`` on ``sock`` on behalf of ``owner``; 0 stops.

        A socket waiting for nothing is taken out of the epoll set, so a
        peer's hang-up cannot wake the loop over and over.
        """
        fd = sock.fileno()
        entry = self._watched.get(fd)
        if not events:
            if entry is not None:
                del self._watched[fd]
                self._epoll.unregister(fd)
        elif entry is None:
            self._epoll.register(fd, events)
            self._watched[fd] = (owner, sock, events)
        elif entry[2] != events:
            self._epoll.modify(fd, events)
            self._watched[fd] = (owner, sock, events)

    def close(self, sock: socket.socket) -> None:
        """Forget ``sock`` and close it once this batch is dispatched.

        The close itself takes the socket out of the epoll set: the loop
        never dups a socket, so the descriptor is its last reference. A
        child between fork and exec may hold a copy for a moment; what the
        copy reports reaches the next owner of the number as a stray
        wake-up, which every ``ready`` takes as a no-op.
        """
        fd = sock.fileno()
        if fd >= 0:
            self._watched.pop(fd, None)
            self._closing.append(sock)

    def run(self, fn: Callable, args: tuple, owner) -> None:
        """Call ``fn``; if it raises, report it and close ``owner``."""
        try:
            fn(*args)
        except Exception:
            self._failed(owner)

    def _failed(self, owner) -> None:
        threading.excepthook(threading.ExceptHookArgs(
            (*sys.exc_info(), self.thread)))
        if owner is not None:
            self.run(owner.close, (), None)

    def _timeout(self) -> float:
        timers = self._timers
        while timers and timers[0][2].fn is None:
            heapq.heappop(timers)  # cancelled
        if not timers:
            return -1
        return max(0.0, timers[0][0] - time.monotonic())

    def _run(self) -> None:
        watched, run, poll = self._watched, self.run, self._epoll.poll
        timers, calls, closing = self._timers, self._calls, self._closing
        while True:
            for fd, _ in poll(self._timeout() if timers else -1):
                entry = watched.get(fd)
                if entry is not None:  # else unwatched earlier in this batch
                    owner = entry[0]
                    try:
                        owner.ready(entry[1])
                    except Exception:
                        self._failed(owner)
                elif fd == self._wake:
                    os.eventfd_read(self._wake)
            entry = owner = None  # hold no session past its batch
            while calls:
                fn, args, owner = calls.popleft()
                run(fn, args, owner)
            if timers:
                now = time.monotonic()
                while timers and timers[0][0] <= now:
                    timer = heapq.heappop(timers)[2]
                    if timer.fn is not None:
                        run(timer.fn, (), timer.owner)
            while closing:
                try:
                    _close(closing.pop())
                except Exception:
                    self._failed(None)


_loop: Loop | None = None
_loop_lock = threading.Lock()


def event_loop() -> Loop:
    """This process's loop, started on first use."""
    global _loop
    with _loop_lock:
        if _loop is None:
            _loop = Loop()
        return _loop


class _Side:
    """One socket of a session and the bytes waiting to be written to it."""

    __slots__ = ("sock", "pending", "eof", "shut", "connecting", "peer")

    def __init__(self, sock: socket.socket | None) -> None:
        self.sock = sock
        self.pending = b""  # at most one RELAY_CHUNK, plus a head or leftover
        self.eof = False  # the peer process sent its FIN on this socket
        self.shut = False  # this socket's write half is shut down
        self.connecting = False
        self.peer: _Side


class Session:
    """An accepted connection and, once dialled, its upstream.

    Bytes are relayed both ways, one ``RELAY_CHUNK`` at a time: a side with
    unsent bytes stops the read from its peer. The first EOF half-closes the
    other side; the second closes both sockets, each of which has then read
    its peer's FIN, so the close sends a FIN and not a reset. ``close`` may be
    called at any point and runs the dial's ``release`` once.
    """

    def __init__(self, loop: Loop, client: socket.socket) -> None:
        self._loop = loop
        self._client = _Side(client)
        self._upstream = _Side(None)
        self._client.peer, self._upstream.peer = self._upstream, self._client
        self._timer: Timer | None = None
        self._line: tuple[bytes, int, Callable[[bytes], None]] | None = None
        self._release: Callable[[], None] | None = None
        self._refused: Callable[[], None] | None = None
        self._closed = False

    def read_line(self, limit: int, timeout: float,
                  then: Callable[[bytes], None]) -> None:
        """Read the client's first line, newline included, within ``timeout``
        seconds and ``limit`` bytes, and pass it to ``then``; bytes that came
        after it go upstream first. A late, long or cut-off line closes."""
        self._line = (b"", limit, then)
        self._read_line()  # the line usually came with the connection
        if self._line is not None and not self._closed:
            self._timer = self._loop.call_later(timeout, self.close, self)

    def connect(self, address: tuple[str, int], timeout: float, *,
                head: bytes = b"", release: Callable[[], None] | None = None,
                refused: Callable[[], None] | None = None) -> None:
        """Dial ``address`` within ``timeout`` seconds, then relay.

        ``head`` goes upstream before any byte from the client. A dial that
        is up when ``connect_ex`` returns (a send on it succeeds) relays at
        once; otherwise the socket is watched for writability until the dial
        finishes or ``timeout`` runs out. ``release`` runs once, when the
        dial fails or the session closes. A failed dial then calls
        ``refused``, which may dial again; without one it closes.
        """
        up = self._upstream
        up.pending = head + up.pending
        self._release, self._refused = release, refused
        try:
            up.sock = socket.socket(socket.AF_INET,
                                    socket.SOCK_STREAM | socket.SOCK_NONBLOCK)
            result = up.sock.connect_ex(address)
        except OSError:
            self._dial_failed()
            return
        if result not in (0, errno.EINPROGRESS):
            self._dial_failed()
            return
        try:
            # fails with EAGAIN while the handshake is under way, and with
            # the dial's own error (ECONNREFUSED) once it has failed
            up.pending = up.pending[up.sock.send(up.pending):]
        except BlockingIOError:
            up.connecting = True
            self._timer = self._loop.call_later(timeout, self._dial_failed, self)
            self._update()
            return
        except OSError:
            self._dial_failed()
            return
        self._transfer(up, read=False)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._timer is not None:
            self._timer.cancel()
        for side in (self._client, self._upstream):
            if side.sock is not None:
                self._loop.close(side.sock)
            side.peer = None  # no cycle: refcounting frees the session
        self._line = self._refused = None
        release, self._release = self._release, None
        if release is not None:
            release()

    def ready(self, sock: socket.socket) -> None:
        if self._closed:
            return
        if self._line is not None:
            self._read_line()
            return
        up = self._upstream
        if up.connecting:
            if sock is up.sock:
                self._dial_done()
            else:  # the client, read while the dial is under way
                self._transfer(self._client)
            return
        self._transfer(self._client if sock is self._client.sock else up)

    def _read_line(self) -> None:
        buf, limit, then = self._line
        try:
            chunk = self._client.sock.recv(limit)
        except BlockingIOError:
            self._loop.watch(self._client.sock, IN, self)
            return
        except OSError:
            self.close()
            return
        buf += chunk
        if b"\n" not in buf:
            if not chunk or len(buf) >= limit:
                self.close()
            else:
                self._line = (buf, limit, then)
                self._loop.watch(self._client.sock, IN, self)
            return
        self._line = None
        if self._timer is not None:
            self._timer.cancel()
        line, _, self._upstream.pending = buf.partition(b"\n")
        then(line + b"\n")

    def _dial_done(self) -> None:
        """The upstream is writable: relay if the dial is up, as ``connect``
        tells it, so a stray wake-up leaves the dial under its timeout."""
        up = self._upstream
        try:
            up.pending = up.pending[up.sock.send(up.pending):]
        except BlockingIOError:
            return
        except OSError:
            self._dial_failed()
            return
        up.connecting = False
        self._timer.cancel()
        self._transfer(up, read=False)

    def _dial_failed(self) -> None:
        up = self._upstream
        up.connecting = False
        if self._timer is not None:
            self._timer.cancel()
        if up.sock is not None:
            self._loop.close(up.sock)
            up.sock = None
        release, self._release = self._release, None
        if release is not None:
            release()
        if self._refused is None:
            self.close()
        else:
            self._refused()

    def _transfer(self, side: _Side, read: bool = True) -> None:
        """Move what ``side`` has to send and, if asked, what it can give."""
        peer = side.peer
        try:
            settled = not side.pending
            if not settled:
                try:
                    side.pending = side.pending[side.sock.send(side.pending):]
                except BlockingIOError:
                    pass
            if read and not side.eof and not peer.pending:
                try:
                    data = side.sock.recv(RELAY_CHUNK)
                except BlockingIOError:
                    data = None
                if data:
                    try:
                        sent = 0 if peer.connecting else peer.sock.send(data)
                    except BlockingIOError:
                        sent = 0
                    if sent < len(data):
                        peer.pending = data[sent:]
                    elif settled:
                        # nothing waits on either side before or after, and
                        # neither side saw an EOF: the watched events stand
                        return
                elif data is not None:
                    side.eof = True
            for end in (side, peer):
                if (end.peer.eof and not end.pending and not end.shut
                        and end.sock is not None and not end.connecting):
                    if end.peer.shut:  # the other direction has ended too
                        self.close()
                        return
                    end.sock.shutdown(socket.SHUT_WR)
                    end.shut = True
        except OSError:  # reset or refused: the session is over
            self.close()
            return
        self._update()

    def _update(self) -> None:
        """Watch each socket for what can move on it."""
        for side in (self._client, self._upstream):
            if side.sock is None:
                continue
            if side.connecting:
                events = OUT
            else:
                events = OUT if side.pending else 0
                if not side.eof and not side.peer.pending:
                    events |= IN
            self._loop.watch(side.sock, events, self)


class Listener:
    """A listening TCP port whose connections are sessions on the loop.

    ``on_accept(session, peer)`` runs on the loop thread for each accepted
    connection and owns the session. Running out of descriptors or memory
    pauses accepting for ``ACCEPT_RETRY_DELAY``; only ``close`` ends it.
    ``defer_accept`` is for a port whose clients always talk first.
    """

    def __init__(self, address: str, port: int,
                 on_accept: Callable[[Session, tuple], None], *,
                 defer_accept: bool = False):
        self._loop = event_loop()
        sock = socket.socket(socket.AF_INET,
                             socket.SOCK_STREAM | socket.SOCK_NONBLOCK)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if defer_accept:  # 1 s: the first SYN-ACK retransmit hands it over
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_DEFER_ACCEPT, 1)
        try:
            sock.bind((address, port))
            sock.listen(128)
        except OSError:
            sock.close()  # a refused port is retried; keep no socket
            raise
        self.address, self.port = sock.getsockname()[:2]
        self._sock = sock
        self._on_accept = on_accept
        self._closed = False
        # queued, not awaited: a caller may hold a lock an accept takes
        self._loop.call_soon(self._listen, owner=self)

    def ready(self, sock: socket.socket) -> None:
        try:
            fd, peer = self._sock._accept()
        except BlockingIOError:
            return
        except OSError as exc:
            if exc.errno not in ACCEPT_RETRY_ERRNOS:
                self._loop.close(self._sock)  # EINVAL: shut down by close
                return
            # the pending connection stays queued until a descriptor frees
            self._loop.watch(self._sock, 0, self)
            self._loop.call_later(ACCEPT_RETRY_DELAY, self._listen, self)
            return
        conn = socket.socket(socket.AF_INET, socket.SOCK_STREAM, 0, fd)
        conn.setblocking(False)
        session = Session(self._loop, conn)
        try:
            self._on_accept(session, peer)
        except Exception:
            self._loop._failed(session)

    def close(self) -> None:
        """Stop accepting. On return the port refuses connections and can
        be bound again; sessions already accepted carry on."""
        self._closed = True
        try:
            # a listening socket that is shut down leaves its port at once
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._loop.call_soon(self._loop.close, self._sock)

    def _listen(self) -> None:
        if not self._closed:
            self._loop.watch(self._sock, IN, self)
