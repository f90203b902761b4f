"""Cluster convergence over a state directory: persistence, adoption, pipeline."""

from __future__ import annotations

import io
import itertools
import json
import os
import select
import signal
import socket
import sys
import tarfile
import threading
import time
from pathlib import Path

import pytest
from conftest import FREE_PORTS, line_events

from flagforge import ingress, runtime, state
from flagforge.backend import PORT_CONFLICT_LIMIT, BackendNode
from flagforge.errors import FlagforgeError
from flagforge.model import Action, diff, parse_topology
from flagforge.pipeline import (_payload_checksum, package_artifact,
                                read_status, write_status)
from flagforge.pipeline import StatusRecord
from flagforge.runner import MockRunner
from flagforge.runtime import Cluster
from flagforge.state import PortMapping, StateStore, load_mappings, status_rows

TOPOLOGY = """
node edge role=frontend bind=127.0.0.1 ports=9000-9099
node worker role=backend bind=127.0.0.1 ports=20000-20099
challenge alpha version=v1 replicas=2 internal_port=4000 external_port=9001 backend=worker run="run-a {PORT}" probe=tcp
challenge beta version=v1 replicas=1 internal_port=4100 external_port=9002 backend=worker run="run-b {PORT}" probe=tcp
"""

TWO_BACKENDS = """
node edge role=frontend bind=127.0.0.1 ports=9000-9099
node w1 role=backend bind=127.0.0.1 ports=20000-20099
node w2 role=backend bind=127.0.0.1 ports=21000-21099
challenge alpha version=v1 replicas=2 internal_port=4000 external_port=9001 backend={BACKEND}
"""


class OkProber:
    def probe(self, address, port, spec):
        return True


# the kernel's PID_MAX_LIMIT: no process holds a fake pid from here up, so
# an unhosted node's records read as dead wherever the tests run
FAKE_PIDS = 1 << 22


def make_cluster(root, text=TOPOLOGY, hosted=None, adoptable=(),
                 clock=time.time):
    store = StateStore(root / "state")
    runners = {}

    def factory(node, _store):
        runner = MockRunner(adoptable_pids=set(adoptable))
        runner._next_pid = FAKE_PIDS + 1000 * len(runners)  # per-node pid space
        runners[node.node_id] = runner
        return runner

    cluster = Cluster(parse_topology(text), store, hosted=hosted,
                      bind_listeners=False, runner_factory=factory,
                      prober=OkProber(), clock=clock)
    return cluster, store, runners


# a third challenge on the same backend
THREE_CHALLENGES = TOPOLOGY + (
    'challenge gamma version=v1 replicas=1 internal_port=4200 external_port=9003'
    ' backend=worker run="run-c {PORT}" probe=tcp\n')


def two_backend_topology(backend: str) -> str:
    return TWO_BACKENDS.replace("{BACKEND}",
                                f'{backend} run="run-a {{PORT}}" probe=tcp')


def kinds(report):
    return [(r.action.kind, r.outcome) for r in report.results]


# --- first converge and idempotence -----------------------------------------


def test_initial_converge_provisions_everything(tmp_path):
    cluster, store, runners = make_cluster(tmp_path)
    report = cluster.converge()
    assert report.all_ok
    assert report.ok == 2 + 3 + 2  # networks, replicas, ingress binds

    registry = cluster.backends["worker"].registry
    assert all(registry.replicas_of(name) for name in ("alpha", "beta"))

    records = store.load_replicas("worker")
    assert sorted(r["service"] for r in records) == ["alpha", "alpha", "beta"]
    assert all(20000 <= r["port"] <= 20099 for r in records)

    balancer = store.load_balancer()["worker"]
    assert sorted(balancer["ports"]) == ["alpha", "beta"]
    assert balancer["stick"] == [3600, 65536]

    lines = store.ingress_path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("9001 alpha worker 127.0.0.1:")
    assert lines[1].startswith("9002 beta worker 127.0.0.1:")


def test_second_converge_is_a_no_op(tmp_path):
    cluster, store, _ = make_cluster(tmp_path)
    cluster.converge()
    first = store.ingress_path.read_bytes()
    stat = store.ingress_path.stat()
    report = cluster.converge()
    assert report.results == []
    assert store.ingress_path.read_bytes() == first
    after = store.ingress_path.stat()
    assert (stat.st_ino, stat.st_mtime_ns) == (after.st_ino, after.st_mtime_ns)


def test_first_converge_writes_the_ingress_map_once(tmp_path, state_writes):
    cluster, store, _ = make_cluster(tmp_path)
    report = cluster.converge()
    assert [k for k, _ in kinds(report)].count("bind_ingress") == 2
    assert report.all_ok
    assert state_writes.count(store.ingress_path) == 1


def test_first_converge_writes_the_balancer_file_once(tmp_path, state_writes):
    cluster, store, _ = make_cluster(tmp_path, text=THREE_CHALLENGES)
    report = cluster.converge()
    assert [k for k, _ in kinds(report)].count("create_network") == 3
    assert report.all_ok
    assert state_writes.count(store.balancer_path) == 1
    assert sorted(store.load_balancer()["worker"]["ports"]) == [
        "alpha", "beta", "gamma"]


def test_frontend_converge_reads_the_balancer_file_once(tmp_path, monkeypatch):
    backend, store, _ = make_cluster(tmp_path, text=THREE_CHALLENGES,
                                     hosted=["worker"])
    assert backend.converge(only_node="worker").all_ok
    frontend, _, _ = make_cluster(tmp_path, text=THREE_CHALLENGES,
                                  hosted=["edge"])
    reads = []
    load = StateStore.load_balancer

    def counting(self):
        reads.append(self.balancer_path)
        return load(self)

    monkeypatch.setattr(StateStore, "load_balancer", counting)
    report = frontend.converge(only_node="edge")
    assert kinds(report) == [("bind_ingress", "ok")] * 3
    assert reads == [store.balancer_path]  # in observe, not once per bind


def test_each_replica_is_on_disk_by_the_end_of_its_start(tmp_path, monkeypatch):
    cluster, store, _ = make_cluster(tmp_path)
    on_disk = []
    apply = runtime.apply_changeset

    class Recording:
        def __init__(self, executor):
            self.executor = executor

        def execute(self, action):
            self.executor.execute(action)
            if action.kind == "start_replica":
                on_disk.append({r["pid"] for r in store.load_replicas("worker")})

    monkeypatch.setattr(runtime, "apply_changeset",
                        lambda changeset, executor: apply(changeset,
                                                          Recording(executor)))
    assert cluster.converge().all_ok
    # each start added exactly one pid, and the records end as the live set
    assert [len(pids) for pids in on_disk] == [1, 2, 3]
    assert on_disk[0] < on_disk[1] < on_disk[2]
    assert on_disk[-1] == {r["pid"] for r in
                           cluster.backends["worker"].supervisor.snapshot()}


def test_frontend_reads_its_map_only_when_built(tmp_path, monkeypatch):
    reads = []
    read_file = state.load_mappings

    def counting(path):
        reads.append(path)
        return read_file(path)

    for module in (state, ingress):
        monkeypatch.setattr(module, "load_mappings", counting)
    cluster, store, _ = make_cluster(tmp_path)
    assert reads == [store.ingress_path]  # adopted once, at construction
    reads.clear()
    first = cluster.converge()
    # a moved port: one unbind and one bind against the in-memory map
    moved = cluster.converge(parse_topology(
        TOPOLOGY.replace("external_port=9002", "external_port=9003")))
    assert [k for k, _ in kinds(first)].count("bind_ingress") == 2
    assert sorted(k for k, _ in kinds(moved)) == ["bind_ingress",
                                                  "unbind_ingress"]
    assert first.all_ok and moved.all_ok
    assert reads == []
    assert [line.split()[0] for line in
            store.ingress_path.read_text().splitlines()] == ["9001", "9003"]


def test_converge_after_restart_adopts_live_replicas(tmp_path):
    cluster, store, runners = make_cluster(tmp_path)
    cluster.converge()
    pids = {r["pid"] for r in store.load_replicas("worker")}
    assert len(pids) == 3

    fresh, store2, _ = make_cluster(tmp_path, adoptable=pids)
    report = fresh.converge()
    assert report.results == []
    assert len(fresh.backends["worker"].supervisor.instances_of("alpha")) == 2
    assert {r["pid"] for r in store2.load_replicas("worker")} == pids


def test_dead_replicas_are_not_adopted(tmp_path):
    cluster, store, _ = make_cluster(tmp_path)
    cluster.converge()
    old = {r["replica_id"] for r in store.load_replicas("worker")}

    fresh, _, _ = make_cluster(tmp_path)  # every old pid reads as dead
    report = fresh.converge()
    assert [k for k, _ in kinds(report)] == ["start_replica"] * 3
    assert report.all_ok
    replaced = {r["replica_id"] for r in store.load_replicas("worker")}
    assert len(replaced) == 3 and not (replaced & old)


SLEEPER = """
node edge role=frontend bind=127.0.0.1 ports=9000-9099
node worker role=backend bind=127.0.0.1 ports=20000-20099
challenge alpha version=v1 replicas=1 internal_port=4000 external_port=9001 backend=worker run="sleep 30" probe=tcp
"""


# a bad build: its run command names a binary that is not there
UNSPAWNABLE = SLEEPER + (
    'challenge broken version=v1 replicas=1 external_port=9002 backend=worker'
    ' run="flagforge-no-such-binary {PORT}" probe=tcp\n')


def timed(step):
    began = time.monotonic()
    result = step()
    return result, time.monotonic() - began


def test_an_unspawnable_challenge_does_not_stall_its_backend(tmp_path):
    cluster = Cluster(parse_topology(UNSPAWNABLE), StateStore(tmp_path / "state"),
                      hosted=["worker"], bind_listeners=False, prober=OkProber())
    backend = cluster.backends["worker"]
    supervisor = backend.supervisor
    try:
        report, took = timed(cluster.converge)
        assert took < 0.5
        assert [(r.action.kind, r.action.challenge) for r in report.results
                if r.outcome != "ok"] == [("start_replica", "broken")]
        for step in (supervisor.reconcile_all, backend.tick):
            _, took = timed(step)
            assert took < 0.5
        assert supervisor.instances_of("broken") == []

        # the healthy challenge still heals at once beside the broken one
        [victim] = supervisor.instances_of("alpha")
        os.killpg(victim.handle.pid, signal.SIGKILL)
        select.select([victim.handle.pidfd], [], [], 5)
        actions, took = timed(supervisor.reconcile_all)
        assert took < 0.5
        assert actions["alpha"][0] == f"stop {victim.replica_id} (dead)"
        assert [a.split()[0] for a in actions["alpha"]] == ["stop", "spawn"]
        assert actions["broken"][0].startswith("degraded: cannot spawn")
    finally:
        cluster.shutdown(stop_replicas=True)


def test_a_failed_spawn_leaves_no_empty_log(tmp_path):
    store = StateStore(tmp_path / "state")
    cluster = Cluster(parse_topology(UNSPAWNABLE), store, hosted=["worker"],
                      bind_listeners=False, prober=OkProber())
    backend = cluster.backends["worker"]
    try:
        cluster.converge()
        for _ in range(5):
            backend.tick()
        [alpha] = backend.supervisor.instances_of("alpha")
        assert backend.supervisor.instances_of("broken") == []
        assert sorted(p.name for p in store.logs_dir.iterdir()) == [
            f"{alpha.replica_id}.log"]
    finally:
        cluster.shutdown(stop_replicas=True)


def test_a_listener_skips_ports_that_foreign_sockets_hold(tmp_path, free_port):
    base = free_port()
    topology = parse_topology(TOPOLOGY.replace(
        "ports=20000-20099", f"ports={base}-{base + PORT_CONFLICT_LIMIT + 5}"))
    backend = BackendNode(topology, "worker", StateStore(tmp_path / "state"),
                          bind_listeners=True, runner=MockRunner())
    squatters = []
    try:
        squatters.append(socket.create_server(("127.0.0.1", base)))
        assert backend.open_listener("alpha") == base + 1
        for port in range(base + 2, base + 2 + PORT_CONFLICT_LIMIT):
            squatters.append(socket.create_server(("127.0.0.1", port)))
        with pytest.raises(OSError):
            backend.open_listener("beta")
        assert backend.balancer_ports == {"alpha": base + 1}
    finally:
        backend.close(stop_replicas=False)
        for squatter in squatters:
            squatter.close()


def test_adopting_a_recorded_port_that_is_taken_fails(tmp_path, free_port):
    bound, taken = free_port(), free_port()
    store = StateStore(tmp_path / "state")
    store.save_balancer({"worker": {"ports": {"alpha": bound, "beta": taken}}})
    with socket.create_server(("127.0.0.1", taken)):
        with pytest.raises(FlagforgeError,
                           match=f"cannot bind balancer port {taken} for beta"):
            Cluster(parse_topology(TOPOLOGY), store, hosted=["worker"],
                    runner_factory=lambda node, store: MockRunner())
    # the port adopted before it is not left open
    with socket.create_server(("127.0.0.1", bound)):
        pass


def test_a_record_whose_pid_was_reused_is_neither_adopted_nor_signalled(tmp_path):
    import subprocess
    topology = parse_topology(SLEEPER)
    store = StateStore(tmp_path / "state")
    # an unrelated process that leads a process group, as a replica does,
    # under a pid the record names with another start time
    stranger = subprocess.Popen(["sleep", "60"], start_new_session=True)
    try:
        stat = Path(f"/proc/{stranger.pid}/stat").read_bytes()
        started = int(stat.rsplit(b")", 1)[1].split()[19])  # field 22
        store.save_replicas("worker", [{
            "replica_id": "alpha-0badc0de", "service": "alpha",
            "pid": stranger.pid, "start": started + 1, "port": 20005,
            "version": "v1", "started_at": 0.0, "restarts": 0,
            "spec": topology.challenges["alpha"].fingerprint}])
        assert store.live_replicas("worker") == []

        cluster = Cluster(topology, store, hosted=["worker"],
                          bind_listeners=False, prober=OkProber())
        try:
            assert cluster.converge().all_ok
            replicas = cluster.backends["worker"].supervisor.instances_of("alpha")
            assert len(replicas) == 1
            assert replicas[0].handle.pid != stranger.pid
        finally:
            cluster.shutdown(stop_replicas=True)
        assert stranger.poll() is None
    finally:
        stranger.kill()
        stranger.wait()


def test_a_record_whose_pid_is_now_a_thread_reads_dead(tmp_path):
    from flagforge.runner import SubprocessRunner
    topology = parse_topology(SLEEPER)
    store = StateStore(tmp_path / "state")
    # a thread that leads no process, under the pid and start time a record
    # names: no pidfd opens for it, so it reads as no process at all
    done = threading.Event()
    helper = threading.Thread(target=done.wait)
    helper.start()
    try:
        tid = helper.native_id
        store.save_replicas("worker", [{
            "replica_id": "alpha-0badc0de", "service": "alpha",
            "pid": tid, "start": state._pid_start(tid), "port": 20005,
            "version": "v1", "started_at": 0.0, "restarts": 0,
            "spec": topology.challenges["alpha"].fingerprint}])
        assert store.live_replicas("worker") == []
        runner = SubprocessRunner(tmp_path / "logs", "127.0.0.1")
        assert runner.adopt(tid).pidfd is None

        cluster = Cluster(topology, store, hosted=["worker"],
                          bind_listeners=False, prober=OkProber())
        try:
            assert cluster.converge().all_ok
            assert [row["challenge"] for row in status_rows(store)] == ["alpha"]
        finally:
            cluster.shutdown(stop_replicas=True)
        assert helper.is_alive()
    finally:
        done.set()
        helper.join()


def test_adopting_a_recorded_replica_opens_one_pidfd(tmp_path, monkeypatch):
    import signal
    topology = parse_topology(SLEEPER.replace("replicas=1", "replicas=3"))
    store = StateStore(tmp_path / "state")
    earlier = Cluster(topology, store, hosted=["worker"], bind_listeners=False,
                      prober=OkProber())
    assert earlier.converge().all_ok
    earlier.shutdown()  # its replicas run on, as after a one-shot command
    pids = sorted(r["pid"] for r in store.load_replicas("worker"))
    opened = []
    pidfd_open = os.pidfd_open

    def counting(pid, *args):
        opened.append(pid)
        return pidfd_open(pid, *args)

    try:
        monkeypatch.setattr(os, "pidfd_open", counting)
        fresh = Cluster(topology, store, hosted=["worker"],
                        bind_listeners=False, prober=OkProber())
        monkeypatch.undo()
        assert len(fresh.backends["worker"].supervisor.instances_of("alpha")) == 3
        fresh.shutdown(stop_replicas=True)
        assert sorted(opened) == pids  # one pidfd per record, none to check it
        assert not any(state._pid_running(pid) for pid in pids)
    finally:
        for pid in pids:
            if state._pid_running(pid):
                os.killpg(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def test_networks_file_of_earlier_releases_is_ignored(tmp_path):
    cluster, store, _ = make_cluster(tmp_path)
    cluster.converge()
    pids = {r["pid"] for r in store.load_replicas("worker")}
    # earlier releases kept each challenge's network a second time, beside
    # balancer.json; "gone" is an entry whose challenge was already removed
    legacy = store.root / "networks.json"
    legacy.write_text(json.dumps({
        name: {"network_id": f"net-{name}", "node": "worker"}
        for name in ("alpha", "beta", "gone")}))
    before = legacy.read_text()

    upgraded, _, _ = make_cluster(tmp_path, adoptable=pids)
    assert upgraded.converge().results == []
    assert legacy.read_text() == before
    assert upgraded.backends["worker"].registry.replicas_of("gone") == []


# --- topology changes ---------------------------------------------------------


def test_scale_down_stops_excess_replicas(tmp_path):
    cluster, store, _ = make_cluster(tmp_path)
    cluster.converge()
    shrunk = parse_topology(TOPOLOGY.replace("replicas=2", "replicas=1"))
    report = cluster.converge(shrunk)
    assert kinds(report) == [("stop_replica", "ok")]
    records = store.load_replicas("worker")
    assert sorted(r["service"] for r in records) == ["alpha", "beta"]


def test_removed_challenge_is_torn_down(tmp_path):
    cluster, store, _ = make_cluster(tmp_path)
    cluster.converge()
    kept = "\n".join(line for line in TOPOLOGY.splitlines()
                     if not line.startswith("challenge beta")) + "\n"
    report = cluster.converge(parse_topology(kept))
    assert report.all_ok
    done = [k for k, _ in kinds(report)]
    # listener teardown rides on remove_network, so no balancer action here
    assert done == ["stop_replica", "unbind_ingress", "remove_network"]
    assert [r.action.node for r in report.results] == ["worker", "edge", "worker"]
    assert sorted(store.load_balancer()["worker"]["ports"]) == ["alpha"]
    assert store.ingress_path.read_text().splitlines()[0].startswith("9001 ")
    backend = cluster.backends["worker"]
    assert backend.registry.replicas_of("beta") == []
    assert backend.supervisor.services() == ["alpha"]


def test_stick_setting_change_is_detected_across_restarts(tmp_path):
    cluster, _, _ = make_cluster(tmp_path)
    cluster.converge()
    tuned = TOPOLOGY + "set stick_ttl=120\nset stick_capacity=16\n"
    pids = {r["pid"] for r in cluster.store.load_replicas("worker")}
    fresh, store, _ = make_cluster(tmp_path, text=tuned, adoptable=pids)
    report = fresh.converge()
    assert kinds(report) == [("update_balancer_config", "ok")]
    assert store.load_balancer()["worker"]["stick"] == [120, 16]
    assert fresh.converge().results == []


def test_challenge_move_between_backends(tmp_path):
    cluster, store, _ = make_cluster(tmp_path, text=two_backend_topology("w1"))
    cluster.converge()
    pids = {r["pid"] for r in store.load_replicas("w1")}

    moved, store2, _ = make_cluster(tmp_path, text=two_backend_topology("w2"),
                                    adoptable=pids)
    report = moved.converge()
    assert report.all_ok
    # the new listener opens first; the old one closes after ingress left it
    assert [(r.action.kind, r.action.node) for r in report.results] == [
        ("create_network", "w2"), ("start_replica", "w2"),
        ("start_replica", "w2"), ("bind_ingress", "edge"),
        ("stop_replica", "w1"), ("stop_replica", "w1"),
        ("remove_network", "w1")]
    assert report.results[-1].render() == "remove_network net-alpha on w1 ok"

    assert moved.backends["w2"].registry.replicas_of("alpha")
    assert moved.backends["w1"].supervisor.services() == []
    assert moved.backends["w1"].registry.replicas_of("alpha") == []
    assert len(moved.backends["w2"].supervisor.instances_of("alpha")) == 2
    balancer = store2.load_balancer()
    assert balancer["w1"]["ports"] == {}
    assert sorted(balancer["w2"]["ports"]) == ["alpha"]
    line = store2.ingress_path.read_text().splitlines()[0]
    assert line.split()[2] == "w2"
    assert moved.converge().results == []


def test_half_finished_move_only_closes_the_old_listener(tmp_path):
    cluster, store, _ = make_cluster(tmp_path, text=two_backend_topology("w1"))
    cluster.converge()
    pids = {r["pid"] for r in store.load_replicas("w1")}

    moved, store2, _ = make_cluster(tmp_path, text=two_backend_topology("w2"),
                                    adoptable=pids)
    # an earlier apply of the move stopped right after the ingress rebind
    for action in (Action("create_network", challenge="alpha", node="w2"),
                   Action("start_replica", challenge="alpha", node="w2"),
                   Action("start_replica", challenge="alpha", node="w2"),
                   Action("bind_ingress", challenge="alpha", node="edge",
                          external_port=9001)):
        moved.execute(action)
    assert moved.observe().balancers == {"w1": {"alpha"}, "w2": {"alpha"}}

    report = moved.converge()
    assert report.all_ok
    assert [(r.action.kind, r.action.node) for r in report.results] == [
        ("stop_replica", "w1"), ("stop_replica", "w1"), ("remove_network", "w1")]
    assert store2.load_balancer()["w1"]["ports"] == {}
    assert moved.converge().results == []


def test_retired_backend_takes_its_challenges_along(tmp_path):
    cluster, store, _ = make_cluster(tmp_path, text=two_backend_topology("w2"))
    cluster.converge()
    # w2 and its challenge leave the topology; its replicas are already gone,
    # and nothing is left to host the listener w2 had on record
    retired = "\n".join(TWO_BACKENDS.splitlines()[:3]) + "\n"
    fresh, _, _ = make_cluster(tmp_path, text=retired)
    report = fresh.converge()
    assert kinds(report) == [("unbind_ingress", "ok")]
    assert fresh.converge().results == []


DRIFTS = {
    "version": ("alpha version=v1", "alpha version=v9"),
    "run": ('run="run-a {PORT}"', 'run="run-a2 {PORT}"'),
    "version-and-scale": ("alpha version=v1 replicas=2",
                          "alpha version=v9 replicas=3"),
}


@pytest.mark.parametrize("drift", list(DRIFTS))
def test_apply_rolls_replicas_off_a_changed_spec(tmp_path, drift):
    cluster, store, runners = make_cluster(tmp_path)
    cluster.converge()
    text = TOPOLOGY.replace(*DRIFTS[drift])
    desired = parse_topology(text)
    alpha = desired.challenges["alpha"]

    report = cluster.converge(desired)
    assert report.all_ok
    assert [r.action.describe() for r in report.results
            if r.action.kind == "roll_service"] == ["roll_service alpha on worker"]
    records = store.load_replicas("worker")
    assert [r["spec"] for r in records if r["service"] == "alpha"] == \
        [alpha.fingerprint] * alpha.replica_count
    running = {h.version for h in runners["worker"].handles.values()
               if h.running and h.replica_id.startswith("alpha-")}
    assert running == {alpha.version}
    assert cluster.converge(desired).results == []

    pids = {r["pid"] for r in records}
    restarted, _, _ = make_cluster(tmp_path, text=text, adoptable=pids)
    assert restarted.converge().results == []


def test_failed_roll_of_a_single_replica_leaves_the_old_version_up(tmp_path):
    cluster, store, runners = make_cluster(tmp_path)
    cluster.converge()
    runners["worker"].dead_versions.add("v2")  # the new build exits at once
    bumped = TOPOLOGY.replace("beta version=v1", "beta version=v2")

    report = cluster.converge(parse_topology(bumped))
    assert not report.all_ok
    # right after apply, with no serve tick in between
    running = [h.version for h in runners["worker"].handles.values()
               if h.running and h.replica_id.startswith("beta-")]
    assert running == ["v1"]
    assert [r["version"] for r in store.load_replicas("worker")
            if r["service"] == "beta"] == ["v1"]


def test_failed_roll_in_a_new_process_refills_from_the_applied_spec(tmp_path):
    cluster, store, _ = make_cluster(tmp_path)
    cluster.converge()
    pids = {r["pid"] for r in store.load_replicas("worker")}
    bumped = TOPOLOGY.replace("beta version=v1", "beta version=v2")
    fresh, _, runners = make_cluster(tmp_path, text=bumped, adoptable=pids)
    runners["worker"].dead_versions.add("v2")

    report = fresh.converge()
    assert not report.all_ok
    # the lost slot is refilled from the spec the directory had applied
    assert [e[3] for e in runners["worker"].events
            if e[0] == "spawn" and e[1].startswith("beta-")] == ["v2", "v1"]
    assert [r["version"] for r in store.load_replicas("worker")
            if r["service"] == "beta"] == ["v1"]
    assert fresh.backends["worker"].supervisor.desired_spec("beta").version \
        == "v1"


GAMMA = ('challenge gamma version=v1 replicas=1 internal_port=4200'
         ' external_port=9003 backend=worker run="run-c {PORT}" probe=tcp\n')
ACTION_KINDS = ("create_network", "roll_service", "start_replica",
                "update_balancer_config", "bind_ingress", "stop_replica",
                "unbind_ingress", "remove_network")


@pytest.mark.parametrize("kind", ACTION_KINDS)
def test_every_action_kind_is_wired(tmp_path, kind):
    cluster, _, _ = make_cluster(tmp_path)
    cluster.converge()
    # drop beta, add gamma, bump alpha, retune the balancer: every kind at once
    edited = "".join(line + "\n" for line in TOPOLOGY.splitlines()
                     if not line.startswith("challenge beta"))
    cluster.topology = parse_topology(
        edited.replace("alpha version=v1", "alpha version=v2") + GAMMA
        + "set stick_ttl=120\n")
    plan = diff(cluster.topology, cluster.observe())
    assert {a.kind for a in plan} == set(ACTION_KINDS)

    action = next(a for a in plan if a.kind == kind)
    assert callable(getattr(cluster, f"_{kind}", None))
    assert action.node in cluster.topology.nodes
    assert "None" not in action.describe()


# --- node-scoped convergence ---------------------------------------------------


def test_only_node_converges_that_node_alone(tmp_path):
    cluster, store, _ = make_cluster(tmp_path)
    report = cluster.converge(only_node="worker")
    assert report.all_ok
    assert not store.ingress_path.exists()  # frontend actions filtered out

    report = cluster.converge(only_node="edge")
    assert [k for k, _ in kinds(report)] == ["bind_ingress", "bind_ingress"]
    assert report.all_ok
    assert len(store.ingress_path.read_text().splitlines()) == 2


def test_a_converge_runs_only_the_hosted_nodes_actions(tmp_path):
    backend, store, _ = make_cluster(tmp_path, hosted=["worker"])
    report = backend.converge()
    assert report.all_ok
    assert all(k != "bind_ingress" for k, _ in kinds(report))
    assert not store.ingress_path.exists()
    frontend, _, _ = make_cluster(tmp_path, hosted=["edge"])
    report = frontend.converge()
    assert kinds(report) == [("bind_ingress", "ok")] * 2
    assert len(load_mappings(store.ingress_path)) == 2


SPLIT = """
node edge role=frontend bind=127.0.0.1 ports=9000-9099
node w1 role=backend bind=127.0.0.1 ports=20000-20099
node w2 role=backend bind=127.0.0.1 ports=21000-21099
challenge alpha version=v1 replicas=2 internal_port=4000 external_port=9001 backend=w1 run="run-a {PORT}" probe=tcp
challenge beta version=v1 replicas=1 internal_port=4100 external_port=9002 backend=w2 run="run-b {PORT}" probe=tcp
"""


def recorded_pids(store) -> set[int]:
    return {r["pid"] for node in store.replica_nodes()
            for r in store.load_replicas(node)}


def whole_plan_for(tmp_path, text, node_id, pids) -> list[Action]:
    """What a cluster hosting every node over the directory plans for one."""
    whole, _, _ = make_cluster(tmp_path, text=text, adoptable=pids)
    try:
        return [a for a in diff(whole.topology, whole.observe())
                if a.node == node_id]
    finally:
        whole.shutdown()


def refuse(*_args, **_kwargs):
    raise AssertionError("a converge read a state file it does not plan from")


def test_a_frontend_converge_reads_no_replica_record(tmp_path, monkeypatch):
    for node_id in ("w1", "w2"):  # each backend by a process of its own
        backend, store, _ = make_cluster(tmp_path, text=SPLIT,
                                         hosted=[node_id])
        assert backend.converge().all_ok
    frontend, _, _ = make_cluster(tmp_path, text=SPLIT, hosted=["edge"])
    expected = whole_plan_for(tmp_path, SPLIT, "edge", recorded_pids(store))

    monkeypatch.setattr(StateStore, "load_replicas", refuse)
    monkeypatch.setattr(StateStore, "live_replicas", refuse)
    report = frontend.converge()
    assert report.all_ok
    assert [r.action for r in report.results] == expected
    assert [a.kind for a in expected] == ["bind_ingress"] * 2


def test_a_backend_converge_reads_no_shared_file(tmp_path, monkeypatch):
    seed, store, _ = make_cluster(tmp_path, text=SPLIT)
    assert seed.converge().all_ok
    edited = (SPLIT.replace("replicas=2", "replicas=3")
              .replace("alpha version=v1", "alpha version=v2")
              + "set stick_ttl=120\n")
    pids = recorded_pids(store)
    backend, _, _ = make_cluster(tmp_path, text=edited, hosted=["w1"],
                                 adoptable=pids)
    expected = whole_plan_for(tmp_path, edited, "w1", pids)

    monkeypatch.setattr(StateStore, "load_balancer", refuse)
    for module in (state, ingress, runtime):
        monkeypatch.setattr(module, "load_mappings", refuse, raising=False)
    # writing its entry merges into the shared file, after the plan has run
    persisted = []
    monkeypatch.setattr(type(backend.backends["w1"]), "persist_balancer",
                        lambda self: persisted.append(self.node_id))
    report = backend.converge()
    assert report.all_ok
    assert [r.action for r in report.results] == expected
    assert [a.kind for a in expected] == [
        "roll_service", "start_replica", "update_balancer_config"]
    assert persisted == ["w1"]


def test_ingress_bind_without_balancer_port_fails_cleanly(tmp_path):
    cluster, store, _ = make_cluster(tmp_path, hosted=["edge"])
    report = cluster.converge(only_node="edge")
    binds = [r for r in report.results if r.action.kind == "bind_ingress"]
    assert binds and all(r.outcome == "failed" for r in binds)
    assert "no balancer port bound" in binds[0].detail
    assert not store.ingress_path.exists()


# --- the supervision tick -------------------------------------------------------


def fleet(challenges: int) -> str:
    """A frontend and one backend holding ``challenges`` 2-replica challenges."""
    return "".join([
        "node edge role=frontend bind=127.0.0.1 ports=9000-9999\n",
        "node worker role=backend bind=127.0.0.1 ports=20000-23999\n",
    ] + [f"challenge c{i} version=v1 replicas=2 internal_port=4000"
         f" external_port={9000 + i} backend=worker run=\"run {{PORT}}\""
         f" probe=tcp\n" for i in range(challenges)])


def test_a_tick_costs_in_proportion_to_the_challenges(tmp_path):
    lines = {}
    for challenges in (50, 200):
        cluster, _, _ = make_cluster(tmp_path / str(challenges),
                                     text=fleet(challenges), hosted=["worker"])
        assert cluster.converge().all_ok
        backend = cluster.backends["worker"]
        backend.tick()  # the first finds every replica healthy
        lines[challenges] = line_events(backend.tick)
    assert lines[200] <= 6 * lines[50], lines


# --- artifact pipeline against a live cluster -----------------------------------


def write_bundle(root, store_dir, name, version, created_at, *, body,
                 replicas=2, internal=4000, external=9001):
    source = root / f"{name}-{version}-src"
    source.mkdir(parents=True, exist_ok=True)
    (source / "challenge.meta").write_text("\n".join([
        f"challenge={name}",
        f"version={version}",
        f"replicas={replicas}",
        f"internal_port={internal}",
        f"external_port={external}",
        "run=python3 {DIR}/app.py {PORT}",
        f"created_at={created_at}",
    ]) + "\n")
    (source / "app.py").write_text(body)
    return package_artifact(source, store_dir)


def test_dev_pipeline_updates_deployed_challenge(tmp_path):
    cluster, store, runners = make_cluster(tmp_path)
    cluster.converge()
    store_dir = tmp_path / "artifacts"
    write_bundle(tmp_path, store_dir, "alpha", "v2",
                 "2024-02-01T00:00:00+00:00", body="print('v2')\n")

    report = cluster.pipeline_once("dev", store_dir)
    assert report.updates == 1
    assert report.render().splitlines()[0] == "1 updates"

    supervisor = cluster.backends["worker"].supervisor
    versions = {i.version for i in supervisor.instances_of("alpha")}
    assert versions == {"v2"}
    spec = supervisor.desired_spec("alpha")
    assert "{DIR}" not in spec.run_command
    assert str(store.bundles_dir) in spec.run_command

    records, _ = read_status(store.status_path)
    by_key = {(r.challenge, r.backend): r for r in records}
    record = by_key[("alpha", "worker")]
    assert (record.version, record.state) == ("v2", "deployed")

    # the recorded artifact survives in the desired topology
    topology, checksums = store.load_desired()
    assert topology.challenges["alpha"].version == "v2"
    assert checksums["alpha"]["version"] == "v2"
    assert cluster.converge().results == []


def test_promotion_merges_into_the_desire_on_disk(tmp_path):
    cluster, store, _ = make_cluster(tmp_path)
    cluster.converge()
    # an apply this process has not read: beta goes from 1 to 3 replicas
    store.save_desired(parse_topology(TOPOLOGY.replace("replicas=1",
                                                       "replicas=3")), {})
    store_dir = tmp_path / "artifacts"
    write_bundle(tmp_path, store_dir, "alpha", "v2",
                 "2024-02-01T00:00:00+00:00", body="print('v2')\n")

    assert cluster.pipeline_once("dev", store_dir).updates == 1
    topology, checksums = store.load_desired()
    assert topology.challenges["alpha"].version == "v2"
    assert checksums["alpha"]["version"] == "v2"
    assert topology.challenges["beta"].replica_count == 3


def test_dev_pipeline_second_pass_is_quiet(tmp_path):
    cluster, store, _ = make_cluster(tmp_path)
    cluster.converge()
    store_dir = tmp_path / "artifacts"
    write_bundle(tmp_path, store_dir, "alpha", "v2",
                 "2024-02-01T00:00:00+00:00", body="print('v2')\n")
    cluster.pipeline_once("dev", store_dir)
    stat = store.status_path.stat()

    report = cluster.pipeline_once("dev", store_dir)
    assert report.updates == 0 and report.outcomes == ()
    after = store.status_path.stat()
    assert (stat.st_ino, stat.st_mtime_ns) == (after.st_ino, after.st_mtime_ns)


def test_dev_pipeline_failed_update_is_recorded_and_retried(tmp_path):
    cluster, store, runners = make_cluster(tmp_path)
    cluster.converge()
    store_dir = tmp_path / "artifacts"
    write_bundle(tmp_path, store_dir, "alpha", "v2",
                 "2024-02-01T00:00:00+00:00", body="print('v2')\n")

    runners["worker"].fail_spawns = 1  # the roll's spawn; its refill succeeds
    report = cluster.pipeline_once("dev", store_dir)
    assert [o.state for o in report.outcomes] == ["failed"]
    records, _ = read_status(store.status_path)
    assert [r.state for r in records if r.challenge == "alpha"] == ["failed"]

    retry = cluster.pipeline_once("dev", store_dir)
    assert [o.state for o in retry.outcomes] == ["deployed"]
    supervisor = cluster.backends["worker"].supervisor
    versions = [i.version for i in supervisor.instances_of("alpha")]
    assert versions == ["v2", "v2"]


def test_deploy_pipeline_provisions_from_scratch(tmp_path):
    bare = "\n".join(TOPOLOGY.splitlines()[:3]) + "\n"
    cluster, store, _ = make_cluster(tmp_path, text=bare)
    store_dir = tmp_path / "artifacts"
    write_bundle(tmp_path, store_dir, "alpha", "v1",
                 "2024-01-01T00:00:00+00:00", body="print('v1')\n")
    write_bundle(tmp_path, store_dir, "beta", "v1",
                 "2024-01-01T00:00:00+00:00", body="print('b')\n",
                 external=9002)

    report = cluster.pipeline_once("deploy", store_dir, select=["alpha"])
    assert [(o.challenge, o.state) for o in report.outcomes] == \
        [("alpha", "deployed")]

    topology, _ = store.load_desired()
    assert list(topology.challenges) == ["alpha"]
    supervisor = cluster.backends["worker"].supervisor
    assert len(supervisor.instances_of("alpha")) == 2
    assert store.ingress_path.read_text().startswith("9001 alpha worker ")
    records, _ = read_status(store.status_path)
    assert records[0].backend == "worker"


def test_deploy_pipeline_rolls_a_running_challenge(tmp_path, monkeypatch):
    cluster, store, _ = make_cluster(tmp_path)
    cluster.converge()
    store_dir = tmp_path / "artifacts"
    write_bundle(tmp_path, store_dir, "alpha", "v2",
                 "2024-02-01T00:00:00+00:00", body="print('v2')\n")

    report = cluster.pipeline_once("deploy", store_dir, select=["alpha"])
    assert [(o.challenge, o.version, o.state) for o in report.outcomes] == \
        [("alpha", "v2", "deployed")]
    supervisor = cluster.backends["worker"].supervisor
    assert [i.version for i in supervisor.instances_of("alpha")] == \
        ["v2", "v2"]
    monkeypatch.setattr(state, "_pid_running", lambda pid, start: True)
    row = {r["challenge"]: r for r in status_rows(store)}["alpha"]
    records, _ = read_status(store.status_path)
    record = {(r.challenge, r.backend): r for r in records}[("alpha", "worker")]
    assert (record.version, record.state) == (row["version"], row["state"]) \
        == ("v2", "deployed")
    assert cluster.converge().results == []


def test_deploy_pipeline_missing_bundle_fails_that_selection(tmp_path):
    bare = "\n".join(TOPOLOGY.splitlines()[:3]) + "\n"
    cluster, store, _ = make_cluster(tmp_path, text=bare)
    store_dir = tmp_path / "artifacts"
    store_dir.mkdir()

    report = cluster.pipeline_once("deploy", store_dir, select=["ghost"])
    outcome = report.outcomes[0]
    assert (outcome.challenge, outcome.version, outcome.state) == \
        ("ghost", "-", "failed")
    assert outcome.detail == "no bundle in store"
    records, _ = read_status(store.status_path)
    assert records[0].state == "failed"


# alpha v2's manifest as releases that required internal_port wrote it
OLD_MANIFEST = """challenge=alpha
version=v2
created_at=2024-02-01T00:00:00+00:00
checksum={checksum}
replicas=2
internal_port=4000
external_port=9001
run=python3 {{DIR}}/app.py {{PORT}}
probe=tcp
"""


def test_a_bundle_whose_manifest_carries_internal_port_deploys(tmp_path):
    cluster, store, _ = make_cluster(tmp_path)
    cluster.converge()
    store_dir = tmp_path / "artifacts"
    store_dir.mkdir()
    body = b"print('v2')\n"
    manifest = OLD_MANIFEST.format(
        checksum=_payload_checksum([("app.py", body)])).encode()
    bundle = store_dir / "alpha-v2.bundle"
    with tarfile.open(bundle, "w", format=tarfile.USTAR_FORMAT) as tar:
        for name, data in (("manifest", manifest), ("app.py", body)):
            info = tarfile.TarInfo(name)
            info.size, info.mtime, info.mode = len(data), 0, 0o644
            tar.addfile(info, io.BytesIO(data))
    packaged = bundle.read_bytes()

    report = cluster.pipeline_once("dev", store_dir)
    assert report.skipped == ()
    assert [(o.challenge, o.version, o.state) for o in report.outcomes] == [
        ("alpha", "v2", "deployed")]
    supervisor = cluster.backends["worker"].supervisor
    assert {i.version for i in supervisor.instances_of("alpha")} == {"v2"}
    # its source, internal_port and all, repackages to the same checksum
    write_bundle(tmp_path, store_dir, "alpha", "v2",
                 "2024-02-01T00:00:00+00:00", body=body.decode())
    assert bundle.read_bytes() == packaged


def test_a_desire_written_with_internal_port_converges_to_nothing(tmp_path):
    cluster, store, _ = make_cluster(tmp_path)
    cluster.converge()
    pids = {r["pid"] for r in store.load_replicas("worker")}
    # desired.json as releases that serialized internal_port wrote it
    older = ("set stick_ttl=3600 stick_capacity=65536 poll_interval=60"
             " probe_interval=5\n" + TOPOLOGY.lstrip())
    store.desired_path.write_text(json.dumps({"topology": older,
                                              "checksums": {}}))
    fresh, _, _ = make_cluster(tmp_path, text=older, adoptable=pids)
    assert fresh.converge().results == []


def test_dev_pipeline_repairs_stale_status_records(tmp_path):
    cluster, store, _ = make_cluster(tmp_path)
    cluster.converge()
    write_status([StatusRecord("alpha", "worker", "v9", "failed",
                               "2024-01-01T00:00:00+00:00")],
                 store.status_path)
    empty_store = tmp_path / "artifacts"
    empty_store.mkdir()

    cluster.pipeline_once("dev", empty_store)
    records, _ = read_status(store.status_path)
    record = {(r.challenge, r.backend): r for r in records}[("alpha", "worker")]
    assert (record.version, record.state) == ("v1", "deployed")


def test_a_promotion_pass_writes_the_desire_once(tmp_path, state_writes):
    bare = "\n".join(TOPOLOGY.splitlines()[:3]) + "\n"
    cluster, store, _ = make_cluster(tmp_path, text=bare)
    store_dir = tmp_path / "artifacts"
    write_bundle(tmp_path, store_dir, "alpha", "v1",
                 "2024-01-01T00:00:00+00:00", body="print('a')\n")
    write_bundle(tmp_path, store_dir, "beta", "v1",
                 "2024-01-01T00:00:00+00:00", body="print('b')\n",
                 external=9002)
    state_writes.clear()

    report = cluster.pipeline_once("deploy", store_dir,
                                   select=["alpha", "beta"])
    assert [(o.challenge, o.state) for o in report.outcomes] == \
        [("alpha", "deployed"), ("beta", "deployed")]
    assert state_writes.count(store.desired_path) == 1
    topology, checksums = store.load_desired()
    assert sorted(topology.challenges) == sorted(checksums) == ["alpha", "beta"]


def test_a_promotion_pass_reads_and_writes_the_status_file_once(tmp_path, monkeypatch):
    import flagforge.pipeline as pipeline
    cluster, store, _ = make_cluster(tmp_path)
    cluster.converge()
    write_status([StatusRecord("beta", "worker", "v9", "failed",
                               "2024-01-01T00:00:00+00:00")],
                 store.status_path)
    store_dir = tmp_path / "artifacts"
    write_bundle(tmp_path, store_dir, "alpha", "v2",
                 "2024-02-01T00:00:00+00:00", body="print('v2')\n")
    calls = []
    read, write = pipeline.read_status, pipeline.write_status

    def reading(path):
        calls.append(("read", path))
        return read(path)

    def writing(records, path, *existing):
        calls.append(("write", path))
        write(records, path, *existing)

    monkeypatch.setattr(pipeline, "read_status", reading)
    monkeypatch.setattr(pipeline, "write_status", writing)
    assert cluster.pipeline_once("dev", store_dir).updates == 1
    assert calls == [("read", store.status_path), ("write", store.status_path)]
    records, _ = read_status(store.status_path)
    assert {r.challenge: (r.version, r.state) for r in records} == \
        {"alpha": ("v2", "deployed"), "beta": ("v1", "deployed")}


def test_a_promotion_pass_calls_through_the_traced_module_names(
        tmp_path, monkeypatch):
    """The benchmark times each layer by wrapping these module attributes;
    a pass that bypassed one would leave that layer's spans empty."""
    import flagforge.pipeline as pipeline
    cluster, _, _ = make_cluster(tmp_path)
    cluster.converge()
    store_dir = tmp_path / "artifacts"
    write_bundle(tmp_path, store_dir, "alpha", "v2",
                 "2024-02-01T00:00:00+00:00", body="print('v2')\n")
    calls = {}

    def count(module, name):
        inner = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(pipeline, "scan_store")
    for name in ("extract_payload", "diff", "apply_changeset"):
        count(runtime, name)
    assert cluster.pipeline_once("dev", store_dir).updates == 1
    assert calls == {"scan_store": 1, "extract_payload": 1, "diff": 1,
                     "apply_changeset": 1}


# --- status view -----------------------------------------------------------------


def test_status_rows_join_desired_live_and_records(tmp_path, monkeypatch):
    cluster, store, _ = make_cluster(tmp_path)
    cluster.converge()
    write_status([StatusRecord("alpha", "worker", "v1", "deployed",
                               "2024-01-01T00:00:00+00:00")],
                 store.status_path)
    monkeypatch.setattr(state, "_pid_running", lambda pid, start: True)
    rows = status_rows(store)
    assert [r["challenge"] for r in rows] == ["alpha", "beta"]
    alpha, beta = rows
    assert (alpha["healthy"], alpha["desired"]) == (2, 2)
    assert (alpha["state"], alpha["port"]) == ("deployed", 9001)
    assert beta["state"] == "deployed"  # counts match even without a record


def test_status_rows_report_degraded_on_missing_replicas(tmp_path,
                                                        monkeypatch):
    cluster, store, _ = make_cluster(tmp_path)
    cluster.converge()
    monkeypatch.setattr(state, "_pid_running", lambda pid, start: False)
    rows = status_rows(store)
    assert all(r["healthy"] == 0 and r["state"] == "degraded" for r in rows)


def test_status_counts_only_pins_within_ttl(tmp_path, monkeypatch):
    now = [1000.0]
    cluster, store, _ = make_cluster(tmp_path, clock=lambda: now[0])
    cluster.converge()
    monkeypatch.setattr(state, "_pid_running", lambda pid, start: True)
    backend = cluster.backends["worker"]
    backend.tick()  # probes mark the replicas healthy
    backend.balancer.select_replica("alpha", "198.51.100.7")

    def stick() -> dict[str, int]:
        return {r["challenge"]: r["stick"] for r in status_rows(store)}

    backend.tick()
    assert stick() == {"alpha": 1, "beta": 0}
    now[0] += 3600 + 1  # past the default stick_ttl
    backend.tick()
    assert stick() == {"alpha": 0, "beta": 0}


def test_status_rows_empty_without_applied_topology(tmp_path):
    assert status_rows(StateStore(tmp_path / "state")) == []


# --- concurrent writers ------------------------------------------------------------


def _balancer_writer(tmp_path):
    store = StateStore(tmp_path / "state")
    return store.save_balancer, store.load_balancer, lambda n: {"w": {"n": n}}


def _mappings_writer(tmp_path):
    store = StateStore(tmp_path / "state")
    return (store.save_mappings, lambda: load_mappings(store.ingress_path),
            lambda n: (PortMapping(9000 + n, "alpha", "worker", "127.0.0.1",
                                   20000),))


@pytest.mark.parametrize("writer", [_balancer_writer, _mappings_writer],
                         ids=["state-store", "ingress-map"])
def test_concurrent_writers_of_one_file_never_collide(tmp_path, writer):
    save, load, payload = writer(tmp_path)
    errors: list[BaseException] = []

    def write_many(first: int) -> None:
        try:
            for n in range(first, first + 50):
                save(payload(n))
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=write_many, args=(50 * t,))
               for t in range(8)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert load() in [payload(n) for n in range(400)]


# --- serve locking ----------------------------------------------------------------


def test_serve_lock_lifecycle(tmp_path):
    import os

    store = StateStore(tmp_path / "state")
    assert store.lock_owner("worker") is None
    store.acquire_lock("worker", os.getpid())
    assert store.lock_owner("worker") == os.getpid()
    with pytest.raises(FlagforgeError, match=str(os.getpid())):
        store.acquire_lock("worker", os.getpid() + 1)
    store.release_lock("worker")
    assert store.lock_owner("worker") is None


def test_stale_lock_from_dead_pid_is_replaceable(tmp_path):
    import os
    import subprocess

    child = subprocess.Popen(["sleep", "0"])
    child.wait()  # reaped, so its pid no longer exists
    store = StateStore(tmp_path / "state")
    store.root.mkdir(parents=True)
    store.lock_path("worker").write_text(f"{child.pid}\n")
    assert store.lock_owner("worker") is None
    store.acquire_lock("worker", os.getpid())
    assert store.lock_owner("worker") == os.getpid()


def test_a_lock_file_naming_a_live_pid_that_holds_no_lock_is_replaceable(
        tmp_path):
    import subprocess

    # the pid a SIGKILLed serve wrote, since reused by an unrelated process
    child = subprocess.Popen(["sleep", "30"])
    try:
        store = StateStore(tmp_path / "state")
        store.root.mkdir(parents=True)
        store.lock_path("worker").write_text(f"{child.pid}\n")
        assert store.lock_owner("worker") is None
        store.acquire_lock("worker", os.getpid())
        assert store.lock_owner("worker") == os.getpid()
        store.release_lock("worker")
    finally:
        child.kill()
        child.wait()


# each racer says "ready" once imported, tries the lock when the test says
# "go", reports the outcome, and holds what it won until its stdin closes
LOCK_RACER = """
import os, sys
from flagforge.errors import FlagforgeError
from flagforge.state import StateStore
store = StateStore(sys.argv[1])
print("ready", flush=True)
sys.stdin.readline()
try:
    store.acquire_lock("worker", os.getpid())
except FlagforgeError:
    print("lost", flush=True)
else:
    print("won", flush=True)
sys.stdin.read()
"""


def test_processes_racing_for_a_node_lock_leave_exactly_one_owner(tmp_path):
    import subprocess
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    state_root = tmp_path / "state"
    racers = [subprocess.Popen([sys.executable, "-c", LOCK_RACER,
                                str(state_root)], env=env, text=True,
                               stdin=subprocess.PIPE, stdout=subprocess.PIPE)
              for _ in range(8)]
    try:
        assert [r.stdout.readline() for r in racers] == ["ready\n"] * 8
        for racer in racers:
            racer.stdin.write("go\n")
            racer.stdin.flush()
        verdicts = [r.stdout.readline().strip() for r in racers]
        owner = StateStore(state_root).lock_owner("worker")
    finally:
        for racer in racers:
            racer.communicate(timeout=30)  # closes its stdin: it lets go
    assert sorted(verdicts) == ["lost"] * 7 + ["won"]
    assert owner == racers[verdicts.index("won")].pid
    # the winner exited without releasing: its lock went with it
    assert StateStore(state_root).lock_owner("worker") is None


# --- the serve loop ------------------------------------------------------------


def test_serve_never_reverts_an_apply(tmp_path, state_writes):
    store = StateStore(tmp_path / "state")
    store.save_desired(parse_topology(TOPOLOGY), {})
    # applied a minute ago, so the next write shows a new mtime at any
    # timestamp granularity
    past = time.time() - 60
    os.utime(store.desired_path, (past, past))
    applied = parse_topology(TOPOLOGY.replace("version=v1", "version=v2", 1))
    # the clock jumps 1000 s per reading: each tick is due a frontend retry,
    # which runs while the binds fail for want of recorded backend ports
    service = runtime.NodeService(
        None, "edge", store.root, clock=itertools.count(step=1000).__next__)
    read_mtime = service._mtime
    landed = []

    def racing_apply():
        mtime = read_mtime()
        if not landed:  # the apply lands right after the tick's read
            store.save_desired(applied, {})
            landed.append(True)
        return mtime

    try:
        service.start()
        service._mtime = racing_apply
        state_writes.clear()
        for _ in range(4):  # the racing tick, then 3 more
            service.tick_once()
    finally:
        service.stop()
    topology, _ = store.load_desired()
    assert topology.challenges["alpha"].version == "v2"
    assert service.cluster.topology.challenges["alpha"].version == "v2"
    assert state_writes.count(store.desired_path) == 1  # the apply's own


def test_a_backend_serve_probes_once_at_start(tmp_path, monkeypatch):
    store = StateStore(tmp_path / "state")
    bare = "\n".join(TOPOLOGY.splitlines()[:3]) + "\n"
    store.save_desired(parse_topology(bare), {})
    now = [1000.0]
    service = runtime.NodeService(None, "worker", store.root,
                                  clock=lambda: now[0])
    ticks = []
    monkeypatch.setattr(service.backend, "tick", lambda: ticks.append(now[0]))
    try:
        service.start()
        service.tick_once()  # start's probe pass stands for this tick's
        assert ticks == []
        now[0] += service.cluster.topology.probe_interval
        service.tick_once()
        assert ticks == [now[0]]
    finally:
        service.stop()


def serve_state(tmp_path, free_port, *, record_ports: bool) -> StateStore:
    """An applied topology on free external ports, inside the frontend's
    ports, its backend served elsewhere."""
    store = StateStore(tmp_path / "state")
    text = (TOPOLOGY.replace("ports=9000-9099", "ports=%d-%d" % FREE_PORTS)
            .replace("external_port=9001", f"external_port={free_port()}")
            .replace("external_port=9002", f"external_port={free_port()}"))
    store.save_desired(parse_topology(text), {})
    if record_ports:
        record_backend_ports(store)
    return store


def record_backend_ports(store: StateStore) -> dict[str, int]:
    ports = {"alpha": 20001, "beta": 20002}
    store.save_balancer({"worker": {"ports": ports}})
    return ports


def test_idle_frontend_serve_does_not_converge(tmp_path, free_port,
                                               monkeypatch):
    store = serve_state(tmp_path, free_port, record_ports=True)
    # the clock jumps 1000 s per reading: every tick is past probe_interval
    service = runtime.NodeService(
        None, "edge", store.root, clock=itertools.count(step=1000).__next__)
    converges, reads = [], []
    converge, load = Cluster.converge, StateStore.load_balancer

    def counting_converge(self, *args, **kwargs):
        converges.append(args)
        return converge(self, *args, **kwargs)

    def counting_load(self):
        reads.append(self.balancer_path)
        return load(self)

    monkeypatch.setattr(Cluster, "converge", counting_converge)
    monkeypatch.setattr(StateStore, "load_balancer", counting_load)
    try:
        assert service.start() == []
        assert len(service.cluster.frontend.mappings) == 2
        converges.clear()
        reads.clear()
        for _ in range(5):
            service.tick_once()
    finally:
        service.stop()
    assert (converges, reads) == ([], [])


def test_a_serve_retries_a_desire_whose_converge_raised(tmp_path, free_port,
                                                        monkeypatch):
    store = serve_state(tmp_path, free_port, record_ports=True)
    service = runtime.NodeService(None, "edge", store.root,
                                  clock=lambda: 1000.0)
    converges = []
    converge = Cluster.converge

    def raising_once(self, *args, **kwargs):
        converges.append(args)
        if len(converges) == 1:
            raise OSError("disk full")
        return converge(self, *args, **kwargs)

    try:
        assert service.start() == []
        os.utime(store.desired_path, (1, 1))  # an apply's write, since start
        monkeypatch.setattr(Cluster, "converge", raising_once)
        with pytest.raises(OSError):
            service.tick_once()
        for _ in range(3):
            service.tick_once()
    finally:
        service.stop()
    assert len(converges) == 2  # the retry, and no converge after it


def test_frontend_serve_binds_once_its_backend_port_is_recorded(tmp_path,
                                                                free_port):
    store = serve_state(tmp_path, free_port, record_ports=False)
    service = runtime.NodeService(
        None, "edge", store.root, clock=itertools.count(step=1000).__next__)
    try:
        assert service.start() == []  # a port not yet recorded is not fatal
        assert service.cluster.frontend.mappings == {}
        service.tick_once()  # still nothing recorded: the retry fails again
        assert service.cluster.frontend.mappings == {}
        ports = record_backend_ports(store)
        service.tick_once()
        mappings = service.cluster.frontend.mappings
        assert {m.challenge: m.balancer_port for m in mappings.values()} == ports
        for external_port in mappings:
            socket.create_connection(("127.0.0.1", external_port),
                                     timeout=5).close()
    finally:
        service.stop()
    assert len(load_mappings(store.ingress_path)) == 2


def test_serve_parses_the_applied_topology_once(tmp_path, monkeypatch):
    store = StateStore(tmp_path / "state")
    topology_file = tmp_path / "cluster.topology"
    topology_file.write_text(TOPOLOGY)
    parses = []

    def counting(text):
        parses.append(text)
        return parse_topology(text)

    for module in (state, runtime):
        monkeypatch.setattr(module, "parse_topology", counting)
    # a fresh directory bootstrapped from --topology, then one that holds
    # the desired.json that bootstrap wrote
    for topology_path in (topology_file, None):
        parses.clear()
        runtime.NodeService(topology_path, "edge", store.root).stop()
        assert len(parses) == 1
    assert store.load_desired() is not None
