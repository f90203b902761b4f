"""Replica program for the benchmark: greets, then echoes.

Every accepted connection first receives ``<replica_id> <version>\\n`` and
then gets each received byte back verbatim. Identity comes from the
FLAGFORGE_* environment the runner injects. ``--corrupt`` makes the echo flip
the low bit of every byte, so the harness can prove that its echo check trips.
"""

from __future__ import annotations

import argparse
import os
import socket
import threading


def serve_connection(conn: socket.socket, greeting: bytes,
                     corrupt: bool) -> None:
    with conn:
        try:
            conn.sendall(greeting)
            while True:
                data = conn.recv(65536)
                if not data:
                    return
                if corrupt:
                    data = bytes(b ^ 1 for b in data)
                conn.sendall(data)
        except OSError:
            return


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--port", type=int,
                        default=int(os.environ.get("FLAGFORGE_PORT", "0")))
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args()
    greeting = "{} {}\n".format(os.environ.get("FLAGFORGE_REPLICA_ID", "replica"),
                                os.environ.get("FLAGFORGE_VERSION", "v0")).encode()
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((os.environ.get("FLAGFORGE_BIND", "127.0.0.1"), args.port))
    sock.listen(128)
    while True:
        conn, _ = sock.accept()
        threading.Thread(target=serve_connection,
                         args=(conn, greeting, args.corrupt),
                         daemon=True).start()


if __name__ == "__main__":
    main()
