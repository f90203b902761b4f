"""Thread-per-connection TCP stand-ins for the peers of the data plane.

Replicas and balancers that a test puts behind flagforge's listeners run
here, on threads of their own, as they would in processes of their own:
their blocking I/O never shares the event loop under test.
"""

from __future__ import annotations

import socket
import threading
from typing import Callable


def read_line(sock: socket.socket, limit: int = 256) -> tuple[bytes, bytes]:
    """Read up to and including the first newline.

    Returns ``(line_with_newline, leftover)``, leftover being whatever came
    after the newline. Raises ValueError if the peer closes first or the
    limit is hit.
    """
    buf = b""
    while b"\n" not in buf:
        if len(buf) >= limit:
            raise ValueError("line too long")
        chunk = sock.recv(limit)
        if not chunk:
            raise ValueError("connection closed before newline")
        buf += chunk
    line, _, rest = buf.partition(b"\n")
    return line + b"\n", rest


class TcpListener:
    """Accepts on one port; each connection's handler runs on a new thread.

    The handler receives ``(conn, peer_address)``; the connection is closed
    once it returns.
    """

    def __init__(self, address: str, port: int,
                 handler: Callable[[socket.socket, tuple], None]):
        self._handler = handler
        self._sock = socket.create_server((address, port))
        self.address, self.port = self._sock.getsockname()[:2]
        threading.Thread(target=self._accept_loop, daemon=True,
                         name=f"stand-in-{self.port}").start()

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, peer = self._sock.accept()
            except OSError:
                return  # closed
            threading.Thread(target=self._run_handler, args=(conn, peer),
                             daemon=True).start()

    def _run_handler(self, conn: socket.socket, peer: tuple) -> None:
        with conn:
            try:
                self._handler(conn, peer)
            except OSError:
                pass

    def close(self) -> None:
        # shutdown first: close alone leaves the port alive while the accept
        # loop is blocked on it
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
