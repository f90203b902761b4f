"""The deployed layout the data-plane workloads run against.

A stack is one frontend node and one backend node over a fresh state
directory, each in its own child interpreter entered through
``flagforge.cli.main`` (``serve``), or, for the backend of the promotion
workload, through the benchmark's own backend host (``backend_host.py``).
Replicas are the benchmark's ``replica.py``, spawned by the backend as
subprocesses.

Ports stay below the kernel's ephemeral range (32768+) and clear of the
blocks the test suite uses (24000-25899, 26000+, 28000+).
"""

from __future__ import annotations

import json
import os
import selectors
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from common import (BENCH_DIR, SRC, WORK, pid_alive, process_cpu_s,
                    read_greeting, signal_group)

FRONTEND_PORTS = (22000, 22099)
BACKEND_PORTS = (22100, 22999)
EXTERNAL_PORT = 22001
CHALLENGE = "arena"
REPLICAS = 3
BACKEND = "work"
FRONTEND = "edge"
LOOPBACK = "127.0.0.1"
START_TIMEOUT = 60.0
GREET_TIMEOUT = 2.0
STOP_GRACE = 15.0
COMMAND_TIMEOUT = 120.0

CLI_ENTRY = ("import sys; from flagforge.cli import main;"
             " sys.exit(main(sys.argv[1:]))")


def topology_text(*, stick_capacity: int | None = None,
                  corrupt: bool = False) -> str:
    """One challenge of ``REPLICAS`` benchmark replicas, default settings
    except the stick-table capacity when given."""
    run = f"{sys.executable} {BENCH_DIR / 'replica.py'} --port {{PORT}}"
    if corrupt:
        run += " --corrupt"
    text = (
        f"node {FRONTEND} role=frontend bind={LOOPBACK}"
        f" ports={FRONTEND_PORTS[0]}-{FRONTEND_PORTS[1]}\n"
        f"node {BACKEND} role=backend bind={LOOPBACK}"
        f" ports={BACKEND_PORTS[0]}-{BACKEND_PORTS[1]}\n"
        f"challenge {CHALLENGE} version=v1 replicas={REPLICAS}"
        f" internal_port=4000 external_port={EXTERNAL_PORT} backend={BACKEND}"
        f' run="{run}" probe=tcp\n')
    if stick_capacity is not None:
        text += f"set stick_capacity={stick_capacity}\n"
    return text


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def greet(address: str, port: int) -> str:
    with socket.create_connection((address, port),
                                  timeout=GREET_TIMEOUT) as conn:
        return read_greeting(conn).decode().strip()


class Child:
    """A child interpreter in its own session, announcing readiness on stdout."""

    def __init__(self, argv: list[str], log_path: Path, stdin=None):
        self.log = open(log_path, "ab")
        self.process = subprocess.Popen(
            argv, stdin=stdin, stdout=subprocess.PIPE, stderr=self.log,
            env=child_env(), cwd=str(BENCH_DIR), start_new_session=True)
        self.pid = self.process.pid
        self._buffer = b""
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.process.stdout, selectors.EVENT_READ)

    def read_line(self, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        while b"\n" not in self._buffer:
            left = deadline - time.monotonic()
            if left <= 0 or not self._selector.select(left):
                raise TimeoutError(f"pid {self.pid}: no output in {timeout:g}s")
            chunk = os.read(self.process.stdout.fileno(), 65536)
            if not chunk:
                raise RuntimeError(f"pid {self.pid} exited with"
                                   f" {self.process.wait()}")
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return line.decode()

    def stop(self) -> bool:
        """SIGTERM the group, SIGKILL after ``STOP_GRACE`` s; True if it
        exited cleanly."""
        clean = True
        if self.process.poll() is None:
            signal_group(self.pid, signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_GRACE)
            except subprocess.TimeoutExpired:
                clean = False
                signal_group(self.pid, signal.SIGKILL)
                self.process.wait()
        self._selector.close()
        self.process.stdout.close()
        if self.process.stdin is not None:
            self.process.stdin.close()
        self.log.close()
        return clean


class Stack:
    """Frontend serve + backend serve (or backend host) over a fresh state dir."""

    def __init__(self, name: str, topology: str, *, host_args: list[str]
                 | None = None):
        self.dir = WORK / name
        self.state = self.dir / "state"
        self.topology = topology
        self.host_args = host_args
        self.backend: Child | None = None
        self.frontend: Child | None = None
        self.replica_pids: set[int] = set()
        self.unclean_stops = 0
        self.leaked_replicas = 0

    def start(self) -> float:
        """Bring the layout up; returns seconds until the first public greeting."""
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        topology_path = self.dir / "cluster.topology"
        topology_path.write_text(self.topology)
        started = time.perf_counter()
        if self.host_args is None:
            argv = [sys.executable, "-c", CLI_ENTRY, "serve", "--node", BACKEND,
                    "--topology", str(topology_path), "--state", str(self.state)]
            self.backend = Child(argv, self.dir / "backend.log")
        else:
            argv = [sys.executable, str(BENCH_DIR / "backend_host.py"),
                    "--node", BACKEND, "--topology", str(topology_path),
                    "--state", str(self.state), *self.host_args]
            self.backend = Child(argv, self.dir / "backend.log",
                                 stdin=subprocess.PIPE)
        self.backend.read_line(START_TIMEOUT)
        # the frontend binds its public port from the balancer port the
        # backend persisted, so it starts once the backend is serving
        argv = [sys.executable, "-c", CLI_ENTRY, "serve", "--node", FRONTEND,
                "--topology", str(topology_path), "--state", str(self.state)]
        self.frontend = Child(argv, self.dir / "frontend.log")
        self.frontend.read_line(START_TIMEOUT)
        deadline = time.monotonic() + START_TIMEOUT
        while True:
            try:
                if greet(LOOPBACK, EXTERNAL_PORT):
                    break
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise TimeoutError("no greeting through the public port")
            time.sleep(0.01)
        elapsed = time.perf_counter() - started
        self.note_replicas()
        return elapsed

    def start_repeatedly(self, count: int) -> list[float]:
        """Set up ``count`` times from an empty state dir; the last stays up."""
        times = []
        for attempt in range(count):
            try:
                times.append(self.start())
            except BaseException:
                self.stop()
                raise
            if attempt < count - 1:
                self.stop()
        return times

    # --- live layout ---------------------------------------------------------

    def replica_records(self) -> list[dict]:
        path = self.state / f"replicas-{BACKEND}.json"
        try:
            return json.loads(path.read_text())
        except (OSError, ValueError):
            return []

    def note_replicas(self) -> list[dict]:
        records = self.replica_records()
        self.replica_pids.update(r["pid"] for r in records)
        return records

    def replica_endpoints(self) -> list[tuple[str, int]]:
        return [(LOOPBACK, r["port"]) for r in self.note_replicas()]

    def balancer_port(self) -> int:
        config = json.loads((self.state / "balancer.json").read_text())
        return config[BACKEND]["ports"][CHALLENGE]

    def serve_pids(self) -> dict[str, int]:
        return {"backend": self.backend.pid, "frontend": self.frontend.pid}

    def serve_cpu_s(self) -> dict[str, float]:
        return {role: process_cpu_s(pid)
                for role, pid in self.serve_pids().items()}

    def command(self, text: str) -> dict:
        """Send one command line to the backend host; return its JSON reply."""
        self.backend.process.stdin.write((text + "\n").encode())
        self.backend.process.stdin.flush()
        return json.loads(self.backend.read_line(COMMAND_TIMEOUT))

    def stop(self) -> None:
        """Stop both nodes; replicas the backend leaves behind are killed.

        ``unclean_stops`` counts nodes that needed SIGKILL and
        ``leaked_replicas`` replicas still alive after their node stopped.
        """
        self.note_replicas()
        for child in (self.frontend, self.backend):
            if child is not None and not child.stop():
                self.unclean_stops += 1
        for pid in sorted(self.replica_pids):
            if pid_alive(pid):
                self.leaked_replicas += 1
                signal_group(pid, signal.SIGKILL)
        self.replica_pids.clear()
        self.frontend = self.backend = None
