"""Runner backends: how replicas actually get started and stopped.

The supervisor only talks to the ``RunnerBackend`` contract below, so the
process-based runner can be swapped for anything that can start a listener.
``SubprocessRunner`` executes the challenge's run command with ``{PORT}``
substituted; ``MockRunner`` fakes it all in memory for tests.

A replica is its pidfd from spawn to stop: one descriptor per live replica,
whether this process spawned it or adopted it, which its liveness check, its
stop and a serve's wait all poll. A pidfd names its process even after the
exit, so a reused pid never reads as the replica, and a backend never loads
``subprocess``. A handle also carries the pid's start time, which the
record keeps: ``state._pidfd_open``, the one judge of a record, opens no
pidfd for a pid reused since, so its handle is dead and never signalled.

Spawned children also receive their identity in the environment
(FLAGFORGE_REPLICA_ID, FLAGFORGE_VERSION, FLAGFORGE_PORT, FLAGFORGE_BIND),
since a run command template alone cannot carry a per-replica id.
"""

from __future__ import annotations

import os
import shlex
import signal
import weakref
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol

from .errors import SpawnError
from .model import ChallengeSpec
from .state import _pid_start, _pidfd_open, _wait_readable

STOP_GRACE = 5.0
# the child default of two signals Python ignores; ignored survives exec
_RESTORED_SIGNALS = (signal.SIGPIPE, signal.SIGXFSZ)


class RunnerBackend(Protocol):
    def spawn(self, spec: ChallengeSpec, port: int, replica_id: str): ...

    def stop(self, handle) -> None: ...

    def alive(self, handle) -> bool: ...

    def adopt(self, pid: int, start: int | None): ...


@dataclass
class ProcessHandle:
    pid: int
    pidfd: int | None  # None: no process had the pid when adopted; dead
    start: int | None = None  # the pid's start time, recorded with it


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


def _remove_if_empty(log_path: Path) -> None:
    """Remove the log a failed spawn's file actions created, unless the
    child wrote to it."""
    with suppress(OSError):
        if log_path.stat().st_size == 0:
            log_path.unlink()


class SubprocessRunner:
    """Runs each replica as a process group of its own.

    Children are started in their own session so a whole replica process
    group can be stopped at once and so replicas survive the spawning CLI
    process. stdin is ``/dev/null``; stdout/stderr go to
    ``logs/<replica_id>.log``, which a failed spawn removes while empty.
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
            _remove_if_empty(log_path)
            raise SpawnError(f"cannot spawn {replica_id}: {exc}") from exc
        try:
            return self.adopt(pid)  # a child not yet waited for keeps its pid
        except OSError as exc:  # no descriptor left for its pidfd
            os.killpg(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            _remove_if_empty(log_path)
            raise SpawnError(f"cannot hold {replica_id}: {exc}") from exc

    def stop(self, handle: ProcessHandle) -> None:
        """SIGTERM the group, then SIGKILL it if not gone in ``STOP_GRACE``."""
        for signum in (signal.SIGTERM, signal.SIGKILL):
            if not self.alive(handle):
                return
            try:
                os.killpg(handle.pid, signum)
            except (ProcessLookupError, PermissionError):
                return
            _wait_readable([handle.pidfd], STOP_GRACE)
        self.alive(handle)

    def alive(self, handle: ProcessHandle) -> bool:
        if handle.pidfd is None:
            return False
        if not _wait_readable([handle.pidfd], 0):
            return True
        with suppress(ChildProcessError):  # an adopted replica is not our child
            os.waitid(os.P_PIDFD, handle.pidfd, os.WEXITED | os.WNOHANG)
        return False

    def adopt(self, pid: int, start: int | None = None) -> ProcessHandle:
        pidfd = _pidfd_open(pid, start)  # O_CLOEXEC: no replica inherits it
        if pidfd is None:
            return ProcessHandle(pid, None)
        if start is None:  # read after the open: that of the pidfd's process
            start = _pid_start(pid)
        handle = ProcessHandle(pid, pidfd, start)
        weakref.finalize(handle, os.close, pidfd)  # closed once dropped
        return handle


@dataclass
class MockHandle:
    replica_id: str
    pid: int
    port: int
    version: str
    running: bool = True
    adopted: bool = False
    start: int | None = None


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

    def adopt(self, pid: int, start: int | None = None) -> MockHandle:
        return MockHandle(replica_id="", pid=pid, port=0, version="",
                          adopted=True)

    def kill(self, replica_id: str) -> None:
        self.handles[replica_id].running = False
        self.events.append(("died", replica_id))
