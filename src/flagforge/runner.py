"""Runner backends: how replicas actually get started and stopped.

The supervisor only talks to the ``RunnerBackend`` contract below, so the
process-based runner can be swapped for anything that can start a listener.
``SubprocessRunner`` executes the challenge's run command with ``{PORT}``
substituted; ``MockRunner`` fakes it all in memory for tests.

A replica is its pid from spawn to stop: a pid-tracked process group, whether
this process spawned it or adopted it from a previous process's records, with
one liveness check and one stop path for both. So a serve restart changes
nothing about how its replicas are watched and stopped, and a backend never
loads ``subprocess``.

Spawned children also receive their identity in the environment
(FLAGFORGE_REPLICA_ID, FLAGFORGE_VERSION, FLAGFORGE_PORT, FLAGFORGE_BIND),
since a run command template alone cannot carry a per-replica id.
"""

from __future__ import annotations

import os
import shlex
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol

from .errors import SpawnError
from .model import ChallengeSpec
from .state import _pid_running

STOP_GRACE = 5.0
STOP_POLL = 0.01  # how often a stop checks whether the replica is gone
# the child default of two signals Python ignores; ignored survives exec
_RESTORED_SIGNALS = (signal.SIGPIPE, signal.SIGXFSZ)


class RunnerBackend(Protocol):
    def spawn(self, spec: ChallengeSpec, port: int, replica_id: str): ...

    def stop(self, handle) -> None: ...

    def alive(self, handle) -> bool: ...

    def adopt(self, pid: int): ...


@dataclass
class ProcessHandle:
    pid: int
    reaped: bool = False  # its exit was collected; the pid may be reused


def _inheritable_fds() -> list[int]:
    """Descriptors above 2 that a child would inherit across exec."""
    fds = []
    for name in os.listdir("/proc/self/fd"):
        fd = int(name)
        try:
            if fd > 2 and os.get_inheritable(fd):
                fds.append(fd)
        except OSError:  # the listing's own descriptor, closed by now
            pass
    return fds


class SubprocessRunner:
    """Runs each replica as a process group of its own.

    Children are started in their own session so a whole replica process
    group can be stopped at once and so replicas survive the spawning CLI
    process. stdin is ``/dev/null``; stdout/stderr go to
    ``logs/<replica_id>.log``.
    """

    def __init__(self, logs_dir: Path, bind_address: str):
        self.logs_dir = Path(logs_dir)
        self.bind_address = bind_address

    def spawn(self, spec: ChallengeSpec, port: int, replica_id: str) -> ProcessHandle:
        argv = shlex.split(spec.run_command.replace("{PORT}", str(port)))
        if not argv:
            raise SpawnError(f"empty run command for {spec.name}")
        env = dict(os.environ)
        env.update({
            "FLAGFORGE_REPLICA_ID": replica_id,
            "FLAGFORGE_VERSION": spec.version,
            "FLAGFORGE_PORT": str(port),
            "FLAGFORGE_BIND": self.bind_address,
        })
        self.logs_dir.mkdir(parents=True, exist_ok=True)
        log_path = self.logs_dir / f"{replica_id}.log"
        actions = [(os.POSIX_SPAWN_CLOSE, fd) for fd in _inheritable_fds()]
        actions += [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, str(log_path),
             os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o666),
            (os.POSIX_SPAWN_DUP2, 1, 2),
        ]
        try:
            pid = os.posix_spawnp(argv[0], argv, env, file_actions=actions,
                                  setsid=True, setsigdef=_RESTORED_SIGNALS)
        except OSError as exc:
            raise SpawnError(f"cannot spawn {replica_id}: {exc}") from exc
        return ProcessHandle(pid)

    def stop(self, handle: ProcessHandle) -> None:
        """SIGTERM the replica's group, then SIGKILL it after ``STOP_GRACE``."""
        for signum in (signal.SIGTERM, signal.SIGKILL):
            if not self.alive(handle):
                return
            try:
                os.killpg(handle.pid, signum)
            except (ProcessLookupError, PermissionError):
                return
            deadline = time.monotonic() + STOP_GRACE
            while self.alive(handle) and time.monotonic() < deadline:
                time.sleep(STOP_POLL)

    def alive(self, handle: ProcessHandle) -> bool:
        if handle.reaped:
            return False
        try:
            pid, _ = os.waitpid(handle.pid, os.WNOHANG)
        except ChildProcessError:  # not this process's child: adopted
            return _pid_running(handle.pid)
        if pid == 0:
            return True
        handle.reaped = True
        return False

    def adopt(self, pid: int) -> ProcessHandle:
        return ProcessHandle(pid)


@dataclass
class MockHandle:
    replica_id: str
    pid: int
    port: int
    version: str
    running: bool = True
    adopted: bool = False


@dataclass
class MockRunner:
    """In-memory runner: records every spawn/stop and lets tests kill replicas."""

    handles: dict[str, MockHandle] = field(default_factory=dict)
    events: list[tuple] = field(default_factory=list)
    fail_spawns: int = 0
    dead_versions: set[str] = field(default_factory=set)
    adoptable_pids: set[int] = field(default_factory=set)
    _next_pid: int = 50000

    def spawn(self, spec: ChallengeSpec, port: int, replica_id: str) -> MockHandle:
        if self.fail_spawns > 0:
            self.fail_spawns -= 1
            self.events.append(("spawn-failed", replica_id))
            raise SpawnError(f"injected spawn failure for {replica_id}")
        self._next_pid += 1
        handle = MockHandle(replica_id=replica_id, pid=self._next_pid, port=port,
                            version=spec.version,
                            running=spec.version not in self.dead_versions)
        self.handles[replica_id] = handle
        self.events.append(("spawn", replica_id, port, spec.version))
        return handle

    def stop(self, handle: MockHandle) -> None:
        if handle.running:
            handle.running = False
            self.events.append(("stop", handle.replica_id))

    def alive(self, handle: MockHandle) -> bool:
        if handle.adopted:
            return handle.pid in self.adoptable_pids
        return handle.running

    def adopt(self, pid: int) -> MockHandle:
        return MockHandle(replica_id="", pid=pid, port=0, version="",
                          adopted=True)

    def kill(self, replica_id: str) -> None:
        self.handles[replica_id].running = False
        self.events.append(("died", replica_id))
