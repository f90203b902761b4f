"""SubprocessRunner against real processes: what a replica inherits, how it
is stopped whether this process spawned or adopted it, and how its exit is
collected."""

from __future__ import annotations

import errno
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from flagforge import runner as runner_module
from flagforge import state
from flagforge.errors import SpawnError
from flagforge.model import ChallengeSpec, ProbeSpec
from flagforge.runner import ProcessHandle, SubprocessRunner

SRC = Path(__file__).resolve().parents[1] / "src"
# a replica that ignores SIGTERM, so only the SIGKILL after the grace ends it
IGNORES_TERM = "sh -c 'trap \"\" TERM; exec sleep 30'"


def spec_running(command: str) -> ChallengeSpec:
    return ChallengeSpec(name="alpha", version="v1", replica_count=1,
                         external_port=9000,
                         backend="worker", run_command=command,
                         probe=ProbeSpec())


@pytest.fixture
def runner(tmp_path):
    """A runner whose replicas are killed and reaped when the test ends."""
    spawned: list[int] = []
    real = SubprocessRunner(tmp_path / "logs", "127.0.0.1")
    spawn = real.spawn

    def recording(spec, port, replica_id):
        handle = spawn(spec, port, replica_id)
        spawned.append(handle.pid)
        return handle

    real.spawn = recording
    yield real
    for pid in spawned:
        try:
            os.killpg(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except OSError:
            pass


def ignores(pid: int, signum: int) -> bool:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("SigIgn:"):
            return bool(int(line.split()[1], 16) & (1 << (signum - 1)))
    raise AssertionError(f"no SigIgn in /proc/{pid}/status")


def wait_until(condition, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


def timed_stop(runner: SubprocessRunner, handle: ProcessHandle) -> float:
    start = time.monotonic()
    runner.stop(handle)
    return time.monotonic() - start


# --- what a spawned replica starts with ---------------------------------------


def test_a_replica_leads_its_own_session(runner):
    handle = runner.spawn(spec_running("sleep 30"), 0, "alpha-1")
    assert os.getsid(handle.pid) == handle.pid
    assert os.getpgid(handle.pid) == handle.pid


def test_a_replica_gets_default_sigpipe_and_sigxfsz(runner):
    assert signal.getsignal(signal.SIGPIPE) == signal.SIG_IGN  # as Python sets
    handle = runner.spawn(spec_running("sleep 30"), 0, "alpha-1")
    assert not ignores(handle.pid, signal.SIGPIPE)
    assert not ignores(handle.pid, signal.SIGXFSZ)


def test_a_replica_inherits_no_descriptor_above_stderr(runner, tmp_path):
    read_end, write_end = os.pipe()
    os.set_inheritable(write_end, True)
    try:
        handle = runner.spawn(spec_running("sleep 30"), 0, "alpha-1")
        fds = {int(fd) for fd in os.listdir(f"/proc/{handle.pid}/fd")}
    finally:
        os.close(read_end)
        os.close(write_end)
    assert fds == {0, 1, 2}
    assert os.readlink(f"/proc/{handle.pid}/fd/0") == os.devnull
    assert os.readlink(f"/proc/{handle.pid}/fd/1") == str(
        tmp_path / "logs" / "alpha-1.log")


def test_a_replica_writes_to_its_log(runner, tmp_path):
    handle = runner.spawn(spec_running("sh -c 'echo out; echo err >&2'"), 0,
                          "alpha-1")
    wait_until(lambda: not runner.alive(handle))
    log = tmp_path / "logs" / "alpha-1.log"
    assert sorted(log.read_text().split()) == ["err", "out"]


def test_a_missing_binary_is_a_spawn_error(runner):
    with pytest.raises(SpawnError, match="cannot spawn alpha-1"):
        runner.spawn(spec_running("flagforge-no-such-binary --port {PORT}"),
                     0, "alpha-1")


# --- one stop path --------------------------------------------------------------


def test_a_spawned_replica_that_ignores_sigterm_is_killed(runner, monkeypatch):
    monkeypatch.setattr(runner_module, "STOP_GRACE", 0.3)
    handle = runner.spawn(spec_running(IGNORES_TERM), 0, "alpha-1")
    wait_until(lambda: ignores(handle.pid, signal.SIGTERM))
    elapsed = timed_stop(runner, handle)
    assert 0.3 <= elapsed < 3.0
    assert not runner.alive(handle)
    with pytest.raises(ChildProcessError):  # reaped, no zombie left
        os.waitpid(handle.pid, os.WNOHANG)


def adopted_elsewhere(tmp_path: Path) -> int:
    """The pid of a replica another process spawned, then exited: it is not a
    child of this process."""
    code = (
        "from flagforge.runner import SubprocessRunner\n"
        "from flagforge.model import ChallengeSpec, ProbeSpec\n"
        "spec = ChallengeSpec('alpha', 'v1', 1, 9000, 'worker',"
        f" {IGNORES_TERM!r}, ProbeSpec())\n"
        f"runner = SubprocessRunner({str(tmp_path / 'logs')!r}, '127.0.0.1')\n"
        "print(runner.spawn(spec, 0, 'alpha-1').pid)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=30, check=True)
    return int(done.stdout)


def test_an_adopted_replica_that_ignores_sigterm_is_killed(runner, tmp_path,
                                                           monkeypatch):
    monkeypatch.setattr(runner_module, "STOP_GRACE", 0.3)
    pid = adopted_elsewhere(tmp_path)
    try:
        wait_until(lambda: ignores(pid, signal.SIGTERM))
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
        handle = runner.adopt(pid)
        elapsed = timed_stop(runner, handle)
        assert 0.3 <= elapsed < 3.0
        assert not runner.alive(handle)
        assert not state._pid_running(pid)
    finally:
        try:
            os.killpg(pid, signal.SIGKILL)
        except OSError:
            pass


def test_stopping_a_dead_replica_returns_at_once(runner):
    handle = runner.spawn(spec_running("true"), 0, "alpha-1")
    wait_until(lambda: not runner.alive(handle))
    assert timed_stop(runner, handle) < 0.1
    assert timed_stop(runner, runner.adopt(handle.pid)) < 0.1


# --- reaping --------------------------------------------------------------------


def test_a_replica_that_exits_is_reaped_and_stays_dead(runner):
    handle = runner.spawn(spec_running("true"), 0, "alpha-1")
    wait_until(lambda: not runner.alive(handle))
    with pytest.raises(ChildProcessError):  # no zombie left behind
        os.waitpid(handle.pid, os.WNOHANG)
    # the pid reused by a process group leader: the pidfd still names the
    # replica, so the handle reads dead and its stop signals nobody
    stranger = subprocess.Popen(["sleep", "30"], start_new_session=True)
    try:
        handle.pid = stranger.pid
        assert not runner.alive(handle)
        runner.stop(handle)
        assert stranger.poll() is None
    finally:
        stranger.kill()
        stranger.wait()


def test_a_spawn_whose_pidfd_cannot_open_kills_its_child(runner, monkeypatch):
    spawned = []
    spawn = os.posix_spawnp

    def recording(*args, **kwargs):
        spawned.append(spawn(*args, **kwargs))
        return spawned[-1]

    def exhausted(pid):
        raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))

    monkeypatch.setattr(os, "posix_spawnp", recording)
    monkeypatch.setattr(os, "pidfd_open", exhausted)
    with pytest.raises(SpawnError, match="alpha-1"):
        runner.spawn(spec_running("sleep 30"), 0, "alpha-1")
    assert len(spawned) == 1
    with pytest.raises(ChildProcessError):  # killed and reaped
        os.waitpid(spawned[0], os.WNOHANG)


# --- pidfds ---------------------------------------------------------------------


def test_a_pidfd_above_fd_setsize_is_waited_on(runner):
    soft, _ = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft < 1300:
        pytest.skip(f"RLIMIT_NOFILE is {soft}, below 1300")
    held = [os.open(os.devnull, os.O_RDONLY) for _ in range(1100)]
    try:
        handle = runner.spawn(spec_running("sleep 30"), 0, "alpha-1")
        assert handle.pidfd > 1023
        assert runner.alive(handle)
        runner.stop(handle)
        assert not runner.alive(handle)
        with pytest.raises(ChildProcessError):  # reaped, no zombie left
            os.waitpid(handle.pid, os.WNOHANG)
    finally:
        for fd in held:
            os.close(fd)
