"""Runner backends: how replicas actually get started and stopped.

The supervisor only talks to the ``RunnerBackend`` contract below, so the
process-based runner can be swapped for anything that can start a listener.
``SubprocessRunner`` executes the challenge's run command with ``{PORT}``
substituted; ``MockRunner`` fakes it all in memory for tests.

Spawned children also receive their identity in the environment
(FLAGFORGE_REPLICA_ID, FLAGFORGE_VERSION, FLAGFORGE_PORT, FLAGFORGE_BIND),
since a run command template alone cannot carry a per-replica id.
"""

from __future__ import annotations

import os
import shlex
import signal
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol

from .errors import SpawnError
from .model import ChallengeSpec
from .state import _pid_running

STOP_GRACE = 5.0


class RunnerBackend(Protocol):
    def spawn(self, spec: ChallengeSpec, port: int, replica_id: str): ...

    def stop(self, handle) -> None: ...

    def alive(self, handle) -> bool: ...

    def adopt(self, pid: int): ...

    def detach(self, handle) -> None: ...


class _ReplicaProcess(subprocess.Popen):
    """A replica's child process; once detached it outlives its handle quietly.

    A Popen dropped while its child runs warns that the child leaked. A
    replica that a one-shot command leaves running has not leaked: it is
    recorded in the state directory for the next process to adopt.
    """

    detached = False

    def __del__(self) -> None:
        if not self.detached:
            super().__del__()


@dataclass
class ProcessHandle:
    pid: int
    process: subprocess.Popen | None = None


class SubprocessRunner:
    """Runs each replica as a detached child process.

    Children are started in their own session so a whole replica process
    group can be stopped at once and so replicas survive the spawning CLI
    process. stdout/stderr go to ``logs/<replica_id>.log``.
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
        try:
            with open(log_path, "ab") as log:
                process = _ReplicaProcess(
                    argv, stdin=subprocess.DEVNULL, stdout=log,
                    stderr=subprocess.STDOUT, env=env, start_new_session=True)
        except OSError as exc:
            raise SpawnError(f"cannot spawn {replica_id}: {exc}") from exc
        return ProcessHandle(pid=process.pid, process=process)

    def stop(self, handle: ProcessHandle) -> None:
        if not self.alive(handle):
            if handle.process is not None:
                handle.process.poll()
            return
        try:
            os.killpg(handle.pid, signal.SIGTERM)
        except (ProcessLookupError, PermissionError):
            return
        if handle.process is not None:
            try:
                handle.process.wait(timeout=STOP_GRACE)
                return
            except subprocess.TimeoutExpired:
                pass
        else:
            deadline = STOP_GRACE
            while deadline > 0 and _pid_running(handle.pid):
                time.sleep(0.05)
                deadline -= 0.05
            if not _pid_running(handle.pid):
                return
        try:
            os.killpg(handle.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        if handle.process is not None:
            handle.process.wait()

    def alive(self, handle: ProcessHandle) -> bool:
        if handle.process is not None:
            return handle.process.poll() is None
        return _pid_running(handle.pid)

    def adopt(self, pid: int) -> ProcessHandle:
        return ProcessHandle(pid=pid, process=None)

    def detach(self, handle: ProcessHandle) -> None:
        """Let the replica run on after this process lets go of it."""
        if handle.process is not None:
            handle.process.detached = True


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

    def detach(self, handle: MockHandle) -> None:
        pass

    def kill(self, replica_id: str) -> None:
        self.handles[replica_id].running = False
        self.events.append(("died", replica_id))
