"""Operator command behavior: exit codes, output formats, delegation."""

from __future__ import annotations

import fnmatch
import gc
import itertools
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

from flagforge._net import (LOOP_THREAD_NAME, event_loop,
                            render_proxy_header)
from flagforge.cli import _stop_on_signals, main
from flagforge.model import parse_topology
from flagforge.registry import HEALTH_HEALTHY
from flagforge.runtime import Cluster, NodeService, StateStore
from flagforge.state import PortMapping, _pid_running

FIXTURE = Path(__file__).with_name("fixture_server.py")

_block = itertools.count()


def fresh_ports() -> tuple[int, int]:
    """Non-overlapping (external, backend) port blocks per test.

    Both blocks sit below the kernel ephemeral range (32768+) so short-lived
    client sockets cannot collide with ports the stack needs to bind.
    """
    n = next(_block)
    return 19000 + 10 * n, 21000 + 100 * n


def topology_text(external: int, backend_base: int, replicas: int = 1) -> str:
    run = f"{sys.executable} {FIXTURE} --port {{PORT}}"
    return (
        f"node edge role=frontend bind=127.0.0.1"
        f" ports={external}-{external + 9}\n"
        f"node worker role=backend bind=127.0.0.1"
        f" ports={backend_base}-{backend_base + 99}\n"
        f"challenge alpha version=v1 replicas={replicas} internal_port=4000"
        f" external_port={external} backend=worker"
        f' run="{run}" probe=tcp\n')


@pytest.fixture
def workspace(tmp_path):
    """Paths for one test; kills any replicas left running afterwards."""
    state = tmp_path / "state"
    yield tmp_path, state
    for records_file in state.glob("replicas-*.json"):
        for record in json.loads(records_file.read_text()):
            try:
                os.killpg(record["pid"], signal.SIGKILL)
                os.waitpid(record["pid"], 0)  # one this test process spawned
            except OSError:
                pass


def write_topology(root: Path, text: str) -> Path:
    path = root / "cluster.topology"
    path.write_text(text)
    return path


def wait_listening(port: int, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=0.5):
                return
        except OSError:
            time.sleep(0.05)
    raise AssertionError(f"nothing listening on {port}")


def greeting_on(port: int) -> str:
    with socket.create_connection(("127.0.0.1", port), timeout=5) as conn:
        conn.settimeout(5)
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = conn.recv(1)
            if not chunk:
                break
            buf += chunk
    return buf.decode().strip()


# --- apply -------------------------------------------------------------------


def test_apply_converges_and_exits_zero(workspace, capsys):
    root, state = workspace
    external, backend_base = fresh_ports()
    topo = write_topology(root, topology_text(external, backend_base))

    assert main(["apply", str(topo), "--state", str(state)]) == 0
    out = capsys.readouterr().out
    assert "create_network net-alpha on worker ok" in out
    assert f"bind_ingress {external} alpha ok" in out
    assert "3 changed, 0 failed, 0 skipped" in out

    store = StateStore(state)
    records = store.load_replicas("worker")
    assert len(records) == 1
    wait_listening(records[0]["port"])


def documented_state_entries() -> list[str]:
    """Glob patterns for the entries README's state-directory listing names."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    listing = readme.split("## The state directory", 1)[1].split("```")[1]
    patterns = []
    for line in listing.splitlines():
        if not line.startswith("  ") or line.startswith("   "):
            continue  # the state/ header, blank and continuation lines
        for word in line.split():
            if "." not in word and not word.endswith("/"):
                break  # the description starts
            patterns.append(word.rstrip("/").replace("<node>", "*"))
    return patterns


def test_apply_leaves_only_documented_state_files(workspace, capsys):
    root, state = workspace
    external, backend_base = fresh_ports()
    topo = write_topology(root, topology_text(external, backend_base))
    assert main(["apply", str(topo), "--state", str(state)]) == 0

    patterns = documented_state_entries()
    assert "networks.json" not in patterns
    for entry in state.iterdir():
        assert any(fnmatch.fnmatch(entry.name, p) for p in patterns), entry.name


def leak_warnings(run) -> list[str]:
    """The "still running" warnings of child processes dropped by ``run()``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run()
        gc.collect()
    return [str(w.message) for w in caught
            if issubclass(w.category, ResourceWarning)
            and "still running" in str(w.message)]


def test_apply_lets_go_of_the_replicas_it_leaves_running(workspace):
    root, state = workspace
    external, backend_base = fresh_ports()
    topo = write_topology(root, topology_text(external, backend_base,
                                              replicas=2))
    assert leak_warnings(
        lambda: main(["apply", str(topo), "--state", str(state)])) == []
    records = StateStore(state).load_replicas("worker")
    assert len(records) == 2 and all(_pid_running(r["pid"]) for r in records)


def test_apply_twice_is_idempotent(workspace, capsys):
    root, state = workspace
    external, backend_base = fresh_ports()
    topo = write_topology(root, topology_text(external, backend_base))

    assert main(["apply", str(topo), "--state", str(state)]) == 0
    before = (state / "ingress.map").read_bytes()
    capsys.readouterr()

    assert main(["apply", str(topo), "--state", str(state)]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "0 changed, 0 failed, 0 skipped"
    assert (state / "ingress.map").read_bytes() == before


def test_apply_rejects_duplicate_ports(workspace, capsys):
    root, state = workspace
    external, backend_base = fresh_ports()
    text = topology_text(external, backend_base) + (
        f"challenge beta version=v1 replicas=1 internal_port=4000"
        f" external_port={external} backend=worker run=\"true\" probe=tcp\n")
    topo = write_topology(root, text)

    assert main(["apply", str(topo), "--state", str(state)]) == 1
    err = capsys.readouterr().err
    assert "duplicate external_port" in err


def test_apply_missing_file_exits_one(workspace, capsys):
    root, state = workspace
    assert main(["apply", str(root / "absent"), "--state", str(state)]) == 1
    assert "error:" in capsys.readouterr().err


def test_apply_delegates_locked_nodes(workspace, capsys):
    root, state = workspace
    external, backend_base = fresh_ports()
    topo = write_topology(root, topology_text(external, backend_base))
    store = StateStore(state)
    store.acquire_lock("worker", os.getpid())
    store.acquire_lock("edge", os.getpid())

    assert main(["apply", str(topo), "--state", str(state)]) == 0
    out = capsys.readouterr().out
    assert "0 changed, 0 failed, 0 skipped" in out
    assert f"worker: delegated to serve process (pid {os.getpid()})" in out
    assert f"edge: delegated to serve process (pid {os.getpid()})" in out
    assert store.load_desired() is not None  # intent recorded for the owner


def test_apply_stops_the_replicas_of_a_retired_backend(workspace, capsys):
    root, state = workspace
    external, backend_base = fresh_ports()
    run = f"{sys.executable} {FIXTURE} --port {{PORT}}"
    nodes = (f"node edge role=frontend bind=127.0.0.1"
             f" ports={external}-{external + 9}\n"
             f"node worker role=backend bind=127.0.0.1"
             f" ports={backend_base}-{backend_base + 49}\n")
    retiring = (f"node w2 role=backend bind=127.0.0.1"
                f" ports={backend_base + 50}-{backend_base + 99}\n")

    def alpha_on(node: str) -> str:
        return (f"challenge alpha version=v1 replicas=2 internal_port=4000"
                f" external_port={external} backend={node}"
                f' run="{run}" probe=tcp\n')

    topo = write_topology(root, nodes + retiring + alpha_on("w2"))
    assert main(["apply", str(topo), "--state", str(state)]) == 0
    store = StateStore(state)
    pids = [r["pid"] for r in store.load_replicas("w2")]
    assert len(pids) == 2 and all(_pid_running(pid) for pid in pids)
    capsys.readouterr()

    # w2 leaves the topology, and alpha moves to worker
    topo = write_topology(root, nodes + alpha_on("worker"))
    assert main(["apply", str(topo), "--state", str(state)]) == 0
    out = capsys.readouterr().out
    assert out.count("stop_replica alpha on w2 ok") == 2
    assert "0 failed, 0 skipped" in out
    assert not any(_pid_running(pid) for pid in pids)
    assert store.load_replicas("w2") == []

    assert main(["apply", str(topo), "--state", str(state)]) == 0
    assert "0 changed, 0 failed, 0 skipped" in capsys.readouterr().out


def test_retiring_a_backend_judges_each_of_its_records_once(
        workspace, monkeypatch):
    root, state = workspace
    external, backend_base = fresh_ports()
    nodes = (f"node edge role=frontend bind=127.0.0.1"
             f" ports={external}-{external + 9}\n"
             f"node worker role=backend bind=127.0.0.1"
             f" ports={backend_base}-{backend_base + 49}\n")
    retiring = (f"node w2 role=backend bind=127.0.0.1"
                f" ports={backend_base + 50}-{backend_base + 99}\n"
                f"challenge alpha version=v1 replicas=2 internal_port=4000"
                f" external_port={external} backend=w2"
                f' run="sleep 30" probe=tcp\n')
    assert main(["apply", str(write_topology(root, nodes + retiring)),
                 "--state", str(state)]) == 0
    pids = {r["pid"] for r in StateStore(state).load_replicas("w2")}
    assert len(pids) == 2
    opened = []
    pidfd_open = os.pidfd_open

    def counting(pid, *args):
        opened.append(pid)
        return pidfd_open(pid, *args)

    monkeypatch.setattr(os, "pidfd_open", counting)
    assert main(["apply", str(write_topology(root, nodes)),
                 "--state", str(state)]) == 0
    monkeypatch.undo()
    assert sorted(p for p in opened if p in pids) == sorted(pids)
    assert not any(_pid_running(pid) for pid in pids)


# --- status ------------------------------------------------------------------


def test_status_without_state_says_so(workspace, capsys):
    root, state = workspace
    assert main(["status", "--state", str(state)]) == 0
    assert capsys.readouterr().out.strip() == "no deployments"


def test_status_human_and_porcelain_lines(workspace, capsys):
    root, state = workspace
    external, backend_base = fresh_ports()
    topo = write_topology(root, topology_text(external, backend_base))
    assert main(["apply", str(topo), "--state", str(state)]) == 0
    capsys.readouterr()

    assert main(["status", "--state", str(state)]) == 0
    line = capsys.readouterr().out.strip()
    assert line == f"alpha worker v1 1/1 deployed {external}"

    assert main(["status", "--porcelain", "--state", str(state)]) == 0
    line = capsys.readouterr().out.strip()
    assert line == (f"challenge=alpha backend=worker version=v1 healthy=1"
                    f" desired=1 state=deployed port={external} stick=0")


def test_status_env_var_overrides_state_flag(workspace, capsys, monkeypatch):
    root, state = workspace
    external, backend_base = fresh_ports()
    topo = write_topology(root, topology_text(external, backend_base))
    assert main(["apply", str(topo), "--state", str(state)]) == 0
    capsys.readouterr()

    monkeypatch.setenv("FLAGFORGE_STATE", str(state))
    assert main(["status", "--state", str(root / "elsewhere")]) == 0
    assert capsys.readouterr().out.startswith("alpha worker v1")


# --- scale -------------------------------------------------------------------


def test_scale_changes_replica_count(workspace, capsys):
    root, state = workspace
    external, backend_base = fresh_ports()
    topo = write_topology(root, topology_text(external, backend_base))
    assert main(["apply", str(topo), "--state", str(state)]) == 0
    capsys.readouterr()

    assert main(["scale", "alpha", "3", "--state", str(state)]) == 0
    out = capsys.readouterr().out
    assert out.count("start_replica alpha on worker ok") == 2
    store = StateStore(state)
    assert len(store.load_replicas("worker")) == 3
    topology, _ = store.load_desired()
    assert topology.challenges["alpha"].replica_count == 3

    assert main(["scale", "alpha", "1", "--state", str(state)]) == 0
    assert len(store.load_replicas("worker")) == 1


def test_scale_validates_input(workspace, capsys):
    root, state = workspace
    external, backend_base = fresh_ports()
    topo = write_topology(root, topology_text(external, backend_base))
    assert main(["scale", "alpha", "2", "--state", str(state)]) == 1
    assert "no applied topology" in capsys.readouterr().err

    assert main(["apply", str(topo), "--state", str(state)]) == 0
    capsys.readouterr()
    assert main(["scale", "ghost", "2", "--state", str(state)]) == 1
    assert "unknown challenge" in capsys.readouterr().err
    assert main(["scale", "alpha", "0", "--state", str(state)]) == 1
    assert "at least 1" in capsys.readouterr().err


def test_scale_past_the_port_range_changes_nothing(workspace, capsys):
    root, state = workspace
    external, backend_base = fresh_ports()
    text = topology_text(external, backend_base).replace(
        f"ports={backend_base}-{backend_base + 99}",
        f"ports={backend_base}-{backend_base + 9}")
    topo = write_topology(root, text)
    assert main(["apply", str(topo), "--state", str(state)]) == 0
    store = StateStore(state)
    desired = store.desired_path.read_bytes()
    records = store.load_replicas("worker")
    capsys.readouterr()

    assert main(["scale", "alpha", "50", "--state", str(state)]) == 1
    assert "port_range of worker too small" in capsys.readouterr().err
    assert store.desired_path.read_bytes() == desired
    assert store.load_replicas("worker") == records
    assert main(["status", "--state", str(state)]) == 0
    assert capsys.readouterr().out.startswith("alpha worker v1 1/1 ")


def test_scale_parses_the_applied_topology_once(workspace, capsys,
                                                monkeypatch):
    import flagforge.state as state_module
    root, state = workspace
    external, backend_base = fresh_ports()
    topo = write_topology(root, topology_text(external, backend_base))
    assert main(["apply", str(topo), "--state", str(state)]) == 0
    parses = []

    def counting(text):
        parses.append(text)
        return parse_topology(text)

    monkeypatch.setattr(state_module, "parse_topology", counting)
    assert main(["scale", "alpha", "2", "--state", str(state)]) == 0
    assert len(parses) == 1


# --- package and pipeline -------------------------------------------------------


def write_bundle_source(root: Path, version: str, created_at: str,
                        external: int) -> Path:
    source = root / f"alpha-{version}-src"
    source.mkdir()
    (source / "app.py").write_text(FIXTURE.read_text())
    run = f"{sys.executable} {{DIR}}/app.py --port {{PORT}}"
    (source / "challenge.meta").write_text("\n".join([
        "challenge=alpha",
        f"version={version}",
        "replicas=1",
        "internal_port=4000",
        f"external_port={external}",
        f"run={run}",
        f"created_at={created_at}",
    ]) + "\n")
    return source


def test_package_prints_bundle_path(workspace, capsys):
    root, state = workspace
    source = write_bundle_source(root, "v2", "2024-02-01T00:00:00+00:00", 9001)
    store_dir = root / "artifacts"

    assert main(["package", str(source), "--store", str(store_dir)]) == 0
    printed = Path(capsys.readouterr().out.strip())
    assert printed == store_dir / "alpha-v2.bundle"
    assert printed.is_file()


def test_package_without_meta_exits_one(workspace, capsys):
    root, state = workspace
    empty = root / "empty-src"
    empty.mkdir()
    assert main(["package", str(empty), "--store", str(root / "a")]) == 1
    assert "error:" in capsys.readouterr().err


def test_pipeline_requires_applied_topology(workspace, capsys):
    root, state = workspace
    assert main(["pipeline", "run-once", "--state", str(state),
                 "--store", str(root / "artifacts")]) == 1
    assert "no applied topology" in capsys.readouterr().err


def test_pipeline_run_once_promotes_new_version(workspace, capsys):
    root, state = workspace
    external, backend_base = fresh_ports()
    topo = write_topology(root, topology_text(external, backend_base))
    assert main(["apply", str(topo), "--state", str(state)]) == 0
    source = write_bundle_source(root, "v2", "2024-02-01T00:00:00+00:00",
                                 external)
    store_dir = root / "artifacts"
    assert main(["package", str(source), "--store", str(store_dir)]) == 0
    capsys.readouterr()

    assert main(["pipeline", "run-once", "--mode", "dev",
                 "--state", str(state), "--store", str(store_dir)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "1 updates"
    assert "alpha v2 deployed" in out

    records = StateStore(state).load_replicas("worker")
    assert [r["version"] for r in records] == ["v2"]
    wait_listening(records[0]["port"])
    assert greeting_on(records[0]["port"]).endswith(" v2")

    assert main(["pipeline", "run-once", "--mode", "dev",
                 "--state", str(state), "--store", str(store_dir)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "0 updates"


def test_pipeline_deploy_parses_the_applied_topology_once(workspace, capsys,
                                                         monkeypatch):
    import flagforge.state as state_module
    root, state = workspace
    external, backend_base = fresh_ports()
    topo = write_topology(root, topology_text(external, backend_base))
    assert main(["apply", str(topo), "--state", str(state)]) == 0
    source = write_bundle_source(root, "v2", "2024-02-01T00:00:00+00:00",
                                 external)
    store_dir = root / "artifacts"
    assert main(["package", str(source), "--store", str(store_dir)]) == 0
    parses = []

    def counting(text):
        parses.append(text)
        return parse_topology(text)

    monkeypatch.setattr(state_module, "parse_topology", counting)
    deploy = ["pipeline", "run-once", "--mode", "deploy", "--select", "alpha",
              "--state", str(state), "--store", str(store_dir)]
    assert main(deploy) == 0
    assert "alpha v2 deployed" in capsys.readouterr().out
    parses.clear()  # a promotion merges into desired.json as it is on disk
    assert main(deploy) == 0
    assert capsys.readouterr().out.splitlines()[0] == "0 updates"
    assert len(parses) == 1


def test_pipeline_select_rejects_bad_names(workspace, capsys):
    root, state = workspace
    external, backend_base = fresh_ports()
    topo = write_topology(root, topology_text(external, backend_base))
    assert main(["apply", str(topo), "--state", str(state)]) == 0
    capsys.readouterr()
    for select in ("ghost,", ",alpha", "alpha,,beta", "Alpha"):
        assert main(["pipeline", "run-once", "--mode", "deploy",
                     "--select", select, "--state", str(state),
                     "--store", str(root / "artifacts")]) == 1
        assert "bad challenge name" in capsys.readouterr().err
    assert not StateStore(state).status_path.exists()


def test_pipeline_dev_with_all_backends_served_delegates(workspace, capsys):
    root, state = workspace
    external, backend_base = fresh_ports()
    topo = write_topology(root, topology_text(external, backend_base))
    assert main(["apply", str(topo), "--state", str(state)]) == 0
    capsys.readouterr()
    store = StateStore(state)
    store.acquire_lock("worker", os.getpid())

    assert main(["pipeline", "run-once", "--mode", "dev",
                 "--state", str(state),
                 "--store", str(root / "artifacts")]) == 0
    out = capsys.readouterr().out
    assert f"worker: delegated to serve process (pid {os.getpid()})" in out


# --- serve ---------------------------------------------------------------------


def restore_signals():
    handlers = {s: signal.getsignal(s) for s in (signal.SIGINT, signal.SIGTERM)}

    def restore():
        for signum, handler in handlers.items():
            signal.signal(signum, handler)

    return restore


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def test_serve_backend_runs_until_signal(workspace, capsys):
    root, state = workspace
    external, backend_base = fresh_ports()
    topo = write_topology(root, topology_text(external, backend_base))
    restore = restore_signals()
    handlers = [signal.getsignal(s) for s in (signal.SIGINT, signal.SIGTERM)]
    event_loop()  # the data plane's loop keeps its descriptors once started
    gc.collect()
    fds = open_fds()
    timer = threading.Timer(2.0, lambda: os.kill(os.getpid(), signal.SIGINT))
    timer.start()
    try:
        code = main(["serve", "--node", "worker", "--topology", str(topo),
                     "--state", str(state)])
        after = [signal.getsignal(s) for s in (signal.SIGINT, signal.SIGTERM)]
    finally:
        timer.cancel()
        restore()
    assert code == 0
    # the serve left signal delivery and the descriptor table as it found them
    assert after == handlers
    assert signal.set_wakeup_fd(-1) == -1
    gc.collect()
    assert open_fds() <= fds

    store = StateStore(state)
    assert store.lock_owner("worker") is None
    assert store.load_replicas("worker") == []  # clean shutdown stops replicas
    balancer = store.load_balancer()["worker"]
    assert "alpha" in balancer["ports"]


def test_serve_frontend_exits_when_external_port_is_taken(workspace, capsys):
    root, state = workspace
    external, backend_base = fresh_ports()
    topo = write_topology(root, topology_text(external, backend_base))

    blocker = socket.socket()
    blocker.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    blocker.bind(("127.0.0.1", external))
    blocker.listen(1)
    StateStore(state).save_mappings([PortMapping(external, "alpha", "worker",
                                                 "127.0.0.1", backend_base)])
    restore = restore_signals()
    try:
        code = main(["serve", "--node", "edge", "--topology", str(topo),
                     "--state", str(state)])
    finally:
        restore()
        blocker.close()
    assert code == 1
    assert f"external port {external}" in capsys.readouterr().err
    assert StateStore(state).lock_owner("edge") is None


def test_served_replicas_take_players_without_waiting_for_a_tick(workspace):
    root, state = workspace
    external, backend_base = fresh_ports()
    topo = write_topology(root, topology_text(external, backend_base,
                                              replicas=3))
    service = NodeService(topo, "worker", state)
    stop, stopping = os.pipe()
    ticking = threading.Thread(target=service.run, args=(stop,))
    try:
        service.start()
        ticking.start()
        registry = service.cluster.backends["worker"].registry
        deadline = time.monotonic() + 3
        while not (len(registry.replicas_of("alpha")) == 3
                   and all(r.health == HEALTH_HEALTHY
                           for r in registry.replicas_of("alpha"))):
            assert time.monotonic() < deadline, "replicas still not healthy"
            time.sleep(0.01)
        pids = [r["pid"] for r in StateStore(state).load_replicas("worker")]
    finally:
        os.write(stopping, b"x")
        if ticking.is_alive():
            ticking.join(timeout=10)
        service.stop()
        os.close(stop)
        os.close(stopping)
    assert not ticking.is_alive()
    assert len(pids) == 3
    assert not any(_pid_running(pid) for pid in pids)


def test_commands_that_leave_replicas_running_leak_no_pidfd(workspace):
    root, state = workspace
    external, backend_base = fresh_ports()
    topology = parse_topology(topology_text(external, backend_base))
    store = StateStore(state)
    cluster = Cluster(topology, store, hosted=["worker"], bind_listeners=False)
    assert cluster.converge().all_ok
    cluster.shutdown()
    del cluster
    gc.collect()
    fds = open_fds()
    for _ in range(20):  # each adopts the replica, as a one-shot command does
        Cluster(topology, store, hosted=["worker"],
                bind_listeners=False).shutdown()
    gc.collect()
    assert open_fds() == fds
    pids = [r["pid"] for r in store.load_replicas("worker")]
    assert len(pids) == 1 and all(_pid_running(pid) for pid in pids)


def test_serve_unknown_node_leaves_the_state_directory_empty(workspace,
                                                            capsys):
    root, state = workspace
    external, backend_base = fresh_ports()
    topo = write_topology(root, topology_text(external, backend_base))
    restore = restore_signals()
    try:
        code = main(["serve", "--node", "typo", "--topology", str(topo),
                     "--state", str(state)])
    finally:
        restore()
    assert code == 1
    assert "error: unknown node 'typo'" in capsys.readouterr().err
    assert not state.exists() or not any(state.iterdir())


def test_serve_missing_topology_file_exits_one(workspace, capsys):
    root, state = workspace
    missing = root / "absent.topology"
    restore = restore_signals()
    try:
        code = main(["serve", "--node", "worker", "--topology", str(missing),
                     "--state", str(state)])
    finally:
        restore()
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"


# --- serve in a fresh interpreter ----------------------------------------------

# entered like the benchmark enters serve; SIGUSR1 prints the loaded modules,
# SIGUSR2 the names of the running threads
SERVE_ENTRY = (
    "import signal, sys, threading\n"
    "signal.signal(signal.SIGUSR1,"
    " lambda *_: print(*sorted(sys.modules), flush=True))\n"
    "signal.signal(signal.SIGUSR2, lambda *_: print(*sorted("
    "t.name for t in threading.enumerate()), flush=True))\n"
    "from flagforge.cli import main\n"
    "sys.exit(main(sys.argv[1:]))")


def src_env() -> dict:
    src = Path(__file__).resolve().parents[1] / "src"
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))


def serve_process(node: str, topo: Path, state: Path) -> subprocess.Popen:
    process = subprocess.Popen(
        [sys.executable, "-c", SERVE_ENTRY, "serve", "--node", node,
         "--topology", str(topo), "--state", str(state)],
        stdout=subprocess.PIPE, text=True, env=src_env())
    # a hung child ends its pipe instead of the test run
    watchdog = threading.Timer(60, process.kill)
    watchdog.daemon = True
    watchdog.start()
    return process


def test_pipeline_watch_stops_on_sigterm_after_its_pass(workspace):
    root, state = workspace
    external, backend_base = fresh_ports()
    topo = write_topology(root, "set poll_interval=1\n" + topology_text(
        external, backend_base))
    assert main(["apply", str(topo), "--state", str(state)]) == 0
    process = subprocess.Popen(
        [sys.executable, "-c", SERVE_ENTRY, "pipeline", "watch", "--mode",
         "dev", "--state", str(state), "--store", str(root / "artifacts")],
        stdout=subprocess.PIPE, text=True, env=src_env())
    try:
        assert process.stdout.readline().strip() == "0 updates"
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=5) == 0
    finally:
        process.kill()
        process.wait()
        process.stdout.close()


def test_serve_signalled_while_starting_still_stops_cleanly(workspace):
    root, state = workspace
    external, backend_base = fresh_ports()
    pids = root / "replica.pids"
    # each replica signals serve while serve is still starting its node
    run = (f"sh -c 'echo $$ >> {pids}; kill -TERM $PPID;"
           f" exec {sys.executable} {FIXTURE} --port {{PORT}}'")
    topo = write_topology(root, topology_text(external, backend_base,
                                              replicas=2).replace(
        f"{sys.executable} {FIXTURE} --port {{PORT}}", run))
    process = serve_process("worker", topo, state)
    try:
        out, _ = process.communicate(timeout=60)
    finally:
        replicas = [int(pid) for pid in pids.read_text().split()] \
            if pids.exists() else []
        for pid in replicas:
            try:
                os.killpg(pid, signal.SIGKILL)
            except OSError:
                pass
    assert process.returncode == 0
    assert out.startswith("serving worker")
    assert len(replicas) == 2
    assert not any(_pid_running(pid) for pid in replicas)
    assert not StateStore(state).lock_path("worker").exists()


def test_a_stop_signal_before_the_serve_runs_stops_it_once_up(workspace):
    root, state = workspace
    external, backend_base = fresh_ports()
    topo = write_topology(root, topology_text(external, backend_base))
    service = NodeService(topo, "edge", state)
    restore = restore_signals()
    try:
        with _stop_on_signals() as stop:
            signal.raise_signal(signal.SIGTERM)  # its handler writes the pipe
            started = time.monotonic()
            service.run(stop)
            elapsed = time.monotonic() - started
    finally:
        restore()
        service.stop()
    assert elapsed < 1.0


def greet_balancer(port: int) -> str:
    with socket.create_connection(("127.0.0.1", port), timeout=1) as conn:
        conn.sendall(render_proxy_header("10.9.0.1"))
        return conn.makefile().readline()


def test_a_replica_exit_wakes_its_serve_to_replace_it(workspace):
    root, state = workspace
    external, backend_base = fresh_ports()
    # no probe pass within the test: only the exit can bring the replacement
    topo = write_topology(root, "set probe_interval=30\n" + topology_text(
        external, backend_base))
    process = serve_process("worker", topo, state)
    try:
        assert process.stdout.readline().startswith("serving worker")
        store = StateStore(state)
        port = store.load_balancer()["worker"]["ports"]["alpha"]
        deadline = time.monotonic() + 10
        while True:
            try:
                victim = greet_balancer(port)
                break
            except OSError:
                assert time.monotonic() < deadline, "no replica ever greeted"
                time.sleep(0.01)
        time.sleep(1.0)  # past the first tick, which runs a probe pass
        [record] = store.load_replicas("worker")
        os.killpg(record["pid"], signal.SIGKILL)
        killed = time.monotonic()
        greeting = ""
        while not greeting.startswith("alpha-") or greeting == victim:
            assert time.monotonic() - killed < 2.0, "no replacement greeted"
            try:
                greeting = greet_balancer(port)
            except OSError:
                time.sleep(0.01)
    finally:
        process.send_signal(signal.SIGTERM)
        process.wait(timeout=30)
    assert process.returncode == 0


# a frontend runs no backend, pipeline, process-spawning or hashing code
FRONTEND_NEVER_LOADS = {
    "flagforge.pipeline", "flagforge.supervisor", "flagforge.balancer",
    "flagforge.registry", "flagforge.runner", "subprocess", "tarfile",
    "logging", "secrets", "hashlib", "_hashlib"}
# a backend without --store runs no promotion pass and no frontend code; it
# spawns replicas without subprocess and probes them without a resolver
BACKEND_NEVER_LOADS = {"flagforge.pipeline", "flagforge.ingress", "tarfile",
                       "subprocess", "encodings.idna"}


def test_each_serve_role_loads_only_its_own_code(workspace):
    root, state = workspace
    external, backend_base = fresh_ports()
    topo = write_topology(root, topology_text(external, backend_base))
    loaded: dict[str, set[str]] = {}
    processes = []
    try:
        # the backend first, as the frontend binds what it persisted
        for node in ("worker", "edge"):
            process = serve_process(node, topo, state)
            processes.append(process)
            assert process.stdout.readline().startswith(f"serving {node}")
            process.send_signal(signal.SIGUSR1)
            loaded[node] = set(process.stdout.readline().split())
    finally:
        for process in processes:
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=30)
    assert sorted(loaded["edge"] & FRONTEND_NEVER_LOADS) == []
    assert sorted(loaded["worker"] & BACKEND_NEVER_LOADS) == []
    assert "flagforge.ingress" in loaded["edge"]
    assert "flagforge.supervisor" in loaded["worker"]


def test_backend_serve_runs_its_ticks_on_the_main_thread(workspace):
    root, state = workspace
    external, backend_base = fresh_ports()
    topo = write_topology(root, topology_text(external, backend_base))
    process = serve_process("worker", topo, state)
    try:
        assert process.stdout.readline().startswith("serving worker")
        process.send_signal(signal.SIGUSR2)
        threads = process.stdout.readline().split()
    finally:
        process.send_signal(signal.SIGTERM)
        process.wait(timeout=30)
    # the data plane's loop, and the main thread ticking: nothing else
    assert sorted(threads) == sorted(["MainThread", LOOP_THREAD_NAME])
    assert process.returncode == 0


def record_calling_threads(obj, calls: list[tuple[str, str]]) -> None:
    """Wrap each public method of ``obj`` to note which thread called it."""
    for name in dir(type(obj)):
        method = getattr(obj, name)
        if name.startswith("_") or not callable(method):
            continue

        def wrapper(*args, _method=method,
                    _name=f"{type(obj).__name__}.{name}", **kwargs):
            calls.append((_name, threading.current_thread().name))
            return _method(*args, **kwargs)

        setattr(obj, name, wrapper)


def test_control_plane_objects_are_only_called_on_the_main_thread(workspace):
    # the supervisor, the port allocator and the balancer's listener table
    # take no lock: only the thread that converges and ticks may touch them
    root, state = workspace
    external, backend_base = fresh_ports()
    text = topology_text(external, backend_base, replicas=2)
    cluster = Cluster(parse_topology(text), StateStore(state))
    backend = cluster.backends["worker"]
    calls: list[tuple[str, str]] = []
    for obj in (backend.supervisor, backend.allocator, backend.server):
        record_calling_threads(obj, calls)
    try:
        assert cluster.converge().all_ok
        deadline = time.monotonic() + 10
        while backend.supervisor.booting():
            assert time.monotonic() < deadline, "replicas still booting"
            backend.supervisor.probe_starting()
            time.sleep(0.05)
        greetings = {greeting_on(external) for _ in range(6)}
        assert {g.split()[1] for g in greetings} == {"v1"}
        backend.tick()
        report = cluster.converge(parse_topology(
            text.replace("version=v1", "version=v2")))
        assert [r.action.kind for r in report.results] == ["roll_service"]
        assert report.all_ok and greeting_on(external).endswith(" v2")
        report = cluster.converge(parse_topology(
            text[:text.index("challenge ")]))
        assert "remove_network" in [r.action.kind for r in report.results]
        assert report.all_ok
    finally:
        cluster.shutdown(stop_replicas=True)
    called = {name for name, _ in calls}
    assert {"Supervisor.rolling_update", "Supervisor.probe_all",
            "PortAllocator.allocate", "PortAllocator.release",
            "BalancerServer.bind_service", "BalancerServer.unbind_service",
            "BalancerServer.close"} <= called
    assert {thread for _, thread in calls} == {"MainThread"}


# --- module entry point -------------------------------------------------------


@pytest.mark.parametrize("module", ["flagforge", "flagforge.cli"])
def test_module_entry_point_prints_usage(module):
    done = subprocess.run([sys.executable, "-m", module, "--help"],
                          capture_output=True, text=True, env=src_env(),
                          timeout=30)
    assert done.returncode == 0
    assert done.stdout.startswith("usage: flagforge")
