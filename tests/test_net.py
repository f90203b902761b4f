"""TCP plumbing under resource pressure."""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import flagforge

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
