"""Supervisor reconciliation, probing, scaling, and rolling updates."""

from __future__ import annotations

import socket
from dataclasses import replace

import pytest

from flagforge import supervisor as supervisor_module
from flagforge.errors import PortExhaustedError, SupervisorError
from flagforge.model import ChallengeSpec, ProbeSpec
from flagforge.registry import (
    EVENT_DEREGISTERED,
    HEALTH_HEALTHY,
    HEALTH_STARTING,
    HEALTH_STOPPED,
    HEALTH_UNHEALTHY,
    Registry,
)
from flagforge.runner import MockRunner
from flagforge.supervisor import (DRAIN_TIMEOUT, PortAllocator, Supervisor,
                                  TcpProber)
from threaded_listener import TcpListener


class FakeClock:
    def __init__(self, start: float = 1000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class FakeProber:
    """Reports a port healthy iff the mock runner's handle on it is running."""

    def __init__(self, runner: MockRunner):
        self.runner = runner
        self.port_overrides: dict[int, bool] = {}

    def probe(self, address: str, port: int, probe: ProbeSpec) -> bool:
        if port in self.port_overrides:
            return self.port_overrides[port]
        return any(h.port == port and h.running
                   for h in self.runner.handles.values())


def make_spec(name: str = "web", version: str = "v1",
              replicas: int = 3) -> ChallengeSpec:
    return ChallengeSpec(
        name=name, version=version, replica_count=replicas,
        external_port=9001, backend="worker", run_command="serve {PORT}",
        probe=ProbeSpec())


def build(replicas: int = 3):
    registry = Registry()
    registry.create_service("web", "net-web")
    runner = MockRunner()
    allocator = PortAllocator((20000, 20099))
    clock = FakeClock()
    supervisor = Supervisor(
        "127.0.0.1", registry, runner, allocator,
        prober=FakeProber(runner), clock=clock,
        sleep=lambda s: clock.advance(s))
    supervisor.desire([make_spec(replicas=replicas)])
    return supervisor, runner, registry, clock


def scale(supervisor: Supervisor, count: int) -> None:
    supervisor.desire([replace(supervisor.desired_spec("web"),
                               replica_count=count)])


def replica_ids(supervisor: Supervisor, service: str = "web") -> list[str]:
    return [i.replica_id for i in supervisor.instances_of(service)]


def test_reconcile_from_zero():
    supervisor, runner, registry, _ = build(replicas=3)
    actions = supervisor.reconcile("web")
    # oracle: desired slots minus observed slots
    assert len([a for a in actions if a.startswith("spawn")]) == 3
    assert len(supervisor.instances_of("web")) == 3
    assert len(registry.replicas_of("web")) == 3


def test_instances_are_the_registry_records_oldest_first():
    supervisor, _, registry, clock = build(replicas=1)
    supervisor.reconcile("web")
    clock.advance(1)
    scale(supervisor, 3)
    supervisor.reconcile("web")
    instances = supervisor.instances_of("web")
    records = registry.replicas_of("web")
    assert len(instances) == len(records) == 3
    assert all(any(i is r for r in records) for i in instances)
    assert [i.started_at for i in instances] == sorted(
        i.started_at for i in instances)
    assert instances[0].started_at < instances[1].started_at
    assert {i.service for i in instances} == {"web"}
    assert supervisor.instances_of("ghost") == []


def test_reconcile_fixed_point():
    supervisor, _, _, _ = build()
    supervisor.reconcile("web")
    assert supervisor.reconcile("web") == []


def test_probe_marks_healthy():
    supervisor, _, registry, _ = build()
    supervisor.reconcile("web")
    supervisor.probe_all()
    assert all(r.health == HEALTH_HEALTHY
               for r in registry.replicas_of("web"))


def test_dead_replica_replaced():
    supervisor, runner, registry, _ = build()
    supervisor.reconcile("web")
    supervisor.probe_all()
    victim = replica_ids(supervisor)[0]
    runner.kill(victim)
    actions = supervisor.reconcile("web")
    assert actions[0] == f"stop {victim} (dead)"
    assert len([a for a in actions if a.startswith("spawn")]) == 1
    survivors = replica_ids(supervisor)
    assert victim not in survivors and len(survivors) == 3
    replacement = next(i for i in supervisor.instances_of("web")
                       if i.restarts == 1)
    assert replacement.replica_id != victim


def test_unhealthy_replica_replaced():
    supervisor, runner, registry, clock = build()
    supervisor.reconcile("web")
    supervisor.probe_all()
    target = supervisor.instances_of("web")[1]
    supervisor.prober.port_overrides[target.port] = False
    clock.advance(60)  # past the startup grace
    supervisor.probe_all()
    health = {r.replica_id: r.health for r in registry.replicas_of("web")}
    assert health[target.replica_id] == HEALTH_UNHEALTHY
    actions = supervisor.reconcile("web")
    assert f"stop {target.replica_id} (unhealthy)" in actions
    assert len(supervisor.instances_of("web")) == 3


def test_starting_grace_shields_fresh_replicas():
    supervisor, runner, _, clock = build(replicas=1)
    supervisor.reconcile("web")
    instance = supervisor.instances_of("web")[0]
    supervisor.prober.port_overrides[instance.port] = False
    supervisor.probe_all()  # within grace: stays starting, not replaced
    assert supervisor.reconcile("web") == []
    clock.advance(60)
    supervisor.probe_all()
    assert supervisor.reconcile("web") != []


# --- readiness pass ------------------------------------------------------------


def test_readiness_pass_promotes_starting_replicas_that_answer():
    supervisor, _, registry, _ = build()
    supervisor.reconcile("web")
    assert supervisor.booting()
    supervisor.probe_starting()
    assert all(r.health == HEALTH_HEALTHY for r in registry.replicas_of("web"))
    assert not supervisor.booting()


def test_readiness_pass_leaves_a_refusing_replica_starting():
    supervisor, _, _, clock = build(replicas=1)
    supervisor.reconcile("web")
    instance = supervisor.instances_of("web")[0]
    supervisor.prober.port_overrides[instance.port] = False
    supervisor.probe_starting()
    assert instance.health == HEALTH_STARTING
    clock.advance(60)  # past the startup grace: failing it is probe_all's call
    supervisor.probe_starting()
    assert instance.health == HEALTH_STARTING
    assert not supervisor.booting()
    assert supervisor.reconcile("web") == []


def test_readiness_pass_leaves_healthy_and_unhealthy_replicas_alone():
    supervisor, _, _, clock = build(replicas=2)
    supervisor.reconcile("web")
    up, down = supervisor.instances_of("web")
    overrides = supervisor.prober.port_overrides
    overrides[down.port] = False
    clock.advance(60)
    supervisor.probe_all()
    assert (up.health, down.health) == (HEALTH_HEALTHY, HEALTH_UNHEALTHY)
    overrides.update({up.port: False, down.port: True})  # both would flip
    probed: list[int] = []
    probe = supervisor.prober.probe
    supervisor.prober.probe = \
        lambda address, port, spec: probed.append(port) or probe(address, port,
                                                                 spec)
    supervisor.probe_starting()
    assert probed == []
    assert (up.health, down.health) == (HEALTH_HEALTHY, HEALTH_UNHEALTHY)


class UpProber:
    def probe(self, address: str, port: int, probe: ProbeSpec) -> bool:
        return True


def test_probe_passes_racing_scale_changes_keep_registry_and_instances_in_step():
    supervisor, _, registry, _ = build(replicas=2)
    supervisor.prober = UpProber()
    endpoints = []
    register = registry.register_replica

    def recording_register(service, endpoint):
        endpoints.append(endpoint)
        register(service, endpoint)

    registry.register_replica = recording_register
    supervisor.reconcile("web")
    # the order a serve's one control thread interleaves them in: probe
    # passes between each scale change and the reconcile that applies it
    for n in range(300):
        scale(supervisor, 1 + n % 4)
        supervisor.probe_all()
        supervisor.reconcile("web")
        supervisor.probe_starting()
    live = {i.replica_id for i in supervisor.instances_of("web")}
    assert {r.replica_id for r in registry.replicas_of("web")} == live
    # a verdict never lands on a replica after its stop
    assert all(e.health == HEALTH_STOPPED
               for e in endpoints if e.replica_id not in live)


def test_scale_up_spawns_difference():
    supervisor, _, _, _ = build(replicas=1)
    supervisor.reconcile("web")
    scale(supervisor, 3)
    actions = supervisor.reconcile("web")
    assert len(actions) == 2 and all(a.startswith("spawn") for a in actions)
    assert supervisor.reconcile("web") == []


def test_scale_down_stops_newest_first():
    supervisor, _, _, clock = build(replicas=1)
    supervisor.reconcile("web")
    oldest = replica_ids(supervisor)[0]
    clock.advance(10)
    scale(supervisor, 2)
    supervisor.reconcile("web")
    clock.advance(10)
    scale(supervisor, 3)
    supervisor.reconcile("web")
    by_age = supervisor.instances_of("web")  # sorted oldest first
    scale(supervisor, 1)
    actions = supervisor.reconcile("web")
    assert actions == [f"stop {by_age[2].replica_id} (scale-down)",
                       f"stop {by_age[1].replica_id} (scale-down)"]
    assert replica_ids(supervisor) == [oldest]


def test_scale_down_tie_break_by_replica_id():
    supervisor, _, _, _ = build(replicas=3)
    supervisor.reconcile("web")  # all three share one started_at tick
    ids = sorted(replica_ids(supervisor))
    scale(supervisor, 2)
    actions = supervisor.reconcile("web")
    assert actions == [f"stop {ids[0]} (scale-down)"]


def test_spawn_failure_marks_degraded_then_heals():
    supervisor, runner, _, _ = build(replicas=2)
    runner.fail_spawns = 10
    actions = supervisor.reconcile("web")
    assert any(a.startswith("degraded:") for a in actions)
    assert len(supervisor.instances_of("web")) < 2
    runner.fail_spawns = 0
    actions = supervisor.reconcile("web")
    assert not any(a.startswith("degraded:") for a in actions)
    assert len(supervisor.instances_of("web")) == 2


def test_spawn_retries_within_budget():
    supervisor, runner, _, _ = build(replicas=1)
    runner.fail_spawns = 2  # third attempt succeeds
    actions = supervisor.reconcile("web")
    assert not any(a.startswith("degraded:") for a in actions)
    assert len(supervisor.instances_of("web")) == 1


def test_rolling_update_replaces_all_one_at_a_time():
    supervisor, runner, registry, _ = build(replicas=3)
    supervisor.reconcile("web")
    supervisor.probe_all()
    old_ids = set(replica_ids(supervisor))
    deregistered: list[str] = []
    registry.add_listener(
        lambda service, rid, event:
        deregistered.append(rid) if event == EVENT_DEREGISTERED else None)
    runner.events.clear()
    supervisor.rolling_update("web", make_spec(version="v2"))
    # one at a time: each old replica stops before its successor spawns
    assert [event[0] for event in runner.events] == ["stop", "spawn"] * 3
    versions = {i.version for i in supervisor.instances_of("web")}
    assert versions == {"v2"}
    assert set(replica_ids(supervisor)).isdisjoint(old_ids)
    # every stopped replica's stick pins were invalidated at its stop
    assert set(deregistered) == old_ids
    # availability floor: never fewer than replica_count - 1 running
    running, floor = 3, 3
    for event in runner.events:
        if event[0] == "spawn":
            running += 1
        elif event[0] == "stop":
            running -= 1
        floor = min(floor, running)
    assert floor == 2


def test_a_rolled_replica_is_on_record_before_its_health_wait():
    supervisor, runner, _, _ = build(replicas=2)
    supervisor.reconcile("web")
    supervisor.probe_all()
    persisted: list[list[dict]] = []
    supervisor.on_change = lambda: persisted.append(supervisor.snapshot())
    on_record: list[bool] = []
    prober = FakeProber(runner)

    class RecordCheckingProber:
        def probe(self, address: str, port: int, probe: ProbeSpec) -> bool:
            # a serve killed now leaves a record the next serve adopts
            on_record.append(bool(persisted) and any(
                r["port"] == port and r["version"] == "v2"
                for r in persisted[-1]))
            return prober.probe(address, port, probe)

    supervisor.prober = RecordCheckingProber()
    supervisor.rolling_update("web", make_spec(version="v2", replicas=2))
    assert on_record == [True, True]


def test_stopped_replica_leaves_rotation_before_its_signal():
    supervisor, runner, registry, _ = build(replicas=3)
    supervisor.reconcile("web")
    supervisor.probe_all()
    stop = runner.stop
    seen: list[tuple[str, list[str], int]] = []

    def recording_stop(handle):
        # what the balancer could pick, and the port a new spawn would get,
        # at the moment the replica is signalled
        spare = supervisor.allocator.allocate()
        supervisor.allocator.release(spare)
        seen.append((handle.replica_id,
                     [r.replica_id for r in registry.replicas_of("web")], spare))
        stop(handle)

    runner.stop = recording_stop
    victims = {i.replica_id: i.port for i in supervisor.instances_of("web")}
    supervisor.rolling_update("web", make_spec(version="v2"))
    assert [v for v, _, _ in seen] == list(victims)
    for victim, routable, spare in seen:
        assert victim not in routable
        assert spare != victims[victim]  # its port stays held until it is gone


def test_rolling_update_drains_open_sessions_before_the_signal():
    supervisor, runner, _, clock = build(replicas=2)
    supervisor.reconcile("web")
    supervisor.probe_all()
    first, second = replica_ids(supervisor)
    # first's last session ends after 0.5 s; second's outlasts the drain
    ends = {first: clock.now + 0.5, second: clock.now + 60}
    supervisor.sessions = lambda replica_id: int(clock.now < ends[replica_id])
    stopped_at: dict[str, float] = {}
    stop = runner.stop

    def timed_stop(handle):
        stopped_at.setdefault(handle.replica_id, clock.now)
        stop(handle)

    runner.stop = timed_stop
    supervisor.rolling_update("web", make_spec(version="v2", replicas=2))
    assert ends[first] <= stopped_at[first] < ends[first] + 0.1
    assert stopped_at[second] - stopped_at[first] == \
        pytest.approx(DRAIN_TIMEOUT, abs=0.1)


def test_rolling_update_identical_spec_is_noop():
    supervisor, runner, _, _ = build()
    supervisor.reconcile("web")
    before = replica_ids(supervisor)
    runner.events.clear()
    supervisor.rolling_update("web", make_spec(version="v1"))
    assert runner.events == [] and replica_ids(supervisor) == before


def test_rolling_update_aborts_on_broken_version(monkeypatch):
    monkeypatch.setattr(supervisor_module, "ROLL_TIMEOUT", 0.5)
    supervisor, runner, _, clock = build(replicas=3)
    supervisor.reconcile("web")
    supervisor.probe_all()
    runner.dead_versions.add("v2")  # new binary exits immediately
    with pytest.raises(SupervisorError, match="not healthy within"):
        supervisor.rolling_update("web", make_spec(version="v2"))
    # oracle: the lost slot is refilled with the old version before the
    # abort raises, so no reconcile tick is needed
    survivors = supervisor.instances_of("web")
    assert len(survivors) == 3
    assert all(i.version == "v1" for i in survivors)
    assert supervisor.desired_spec("web").version == "v1"  # reverted
    assert supervisor.reconcile("web") == []


def test_adopt_snapshot_round_trip():
    supervisor, runner, _, _ = build(replicas=2)
    supervisor.reconcile("web")
    records = supervisor.snapshot()
    assert len(records) == 2
    assert {r["service"] for r in records} == {"web"}

    registry2 = Registry()
    registry2.create_service("web", "net-web")
    runner2 = MockRunner(adoptable_pids={r["pid"] for r in records})
    clock = FakeClock()
    supervisor2 = Supervisor(
        "127.0.0.1", registry2, runner2, PortAllocator((20000, 20099)),
        prober=FakeProber(runner2), clock=clock, sleep=lambda s: None)
    supervisor2.desire([make_spec(replicas=2)])
    supervisor2.adopt(records)
    assert supervisor2.reconcile("web") == []  # adopted pids count as alive
    assert sorted(replica_ids(supervisor2)) == sorted(r["replica_id"]
                                                      for r in records)
    # an adopted pid that is gone gets replaced
    runner2.adoptable_pids.discard(records[0]["pid"])
    actions = supervisor2.reconcile("web")
    assert actions[0].startswith(f"stop {records[0]['replica_id']}")
    assert len(supervisor2.instances_of("web")) == 2


def test_stop_all_clears_everything():
    supervisor, _, registry, _ = build()
    supervisor.reconcile("web")
    supervisor.stop_all()
    assert supervisor.instances_of("web") == []
    assert registry.replicas_of("web") == []


def test_port_allocator():
    allocator = PortAllocator((20000, 20002))
    assert [allocator.allocate() for _ in range(3)] == [20000, 20001, 20002]
    with pytest.raises(PortExhaustedError):
        allocator.allocate()
    allocator.release(20001)
    assert allocator.allocate() == 20001
    allocator.reserve(20000)  # idempotent with an existing reservation
    allocator.release(20000)
    assert allocator.allocate() == 20000


# --- TCP prober against real sockets -----------------------------------------


def greeting_listener(greeting: bytes) -> TcpListener:
    def handler(conn: socket.socket, peer) -> None:
        conn.sendall(greeting)

    return TcpListener("127.0.0.1", 0, handler)


def test_tcp_probe_connect_only():
    listener = greeting_listener(b"")
    try:
        assert TcpProber().probe("127.0.0.1", listener.port,
                                 ProbeSpec()) is True
    finally:
        listener.close()


def test_tcp_probe_banner_match_and_mismatch():
    prober = TcpProber()
    listener = greeting_listener(b"FLAGD v1\n")
    try:
        assert prober.probe("127.0.0.1", listener.port,
                            ProbeSpec(banner="FLAGD")) is True
        assert prober.probe("127.0.0.1", listener.port,
                            ProbeSpec(banner="HTTP/1.1")) is False
        # greeting shorter than the expected prefix
        assert prober.probe("127.0.0.1", listener.port,
                            ProbeSpec(banner="FLAGD v1 and more")) is False
    finally:
        listener.close()


def test_tcp_probe_closed_port(monkeypatch):
    monkeypatch.setattr(supervisor_module, "PROBE_TIMEOUT", 0.5)
    placeholder = socket.socket()
    placeholder.bind(("127.0.0.1", 0))
    port = placeholder.getsockname()[1]
    placeholder.close()
    assert TcpProber().probe("127.0.0.1", port, ProbeSpec()) is False


def test_tcp_probe_needs_no_resolver(monkeypatch):
    def no_resolver(*args, **kwargs):
        raise socket.gaierror("no resolver in this test")

    monkeypatch.setattr(socket, "getaddrinfo", no_resolver)
    prober = TcpProber()
    listener = greeting_listener(b"FLAGD v1\n")
    try:
        assert prober.probe("127.0.0.1", listener.port,
                            ProbeSpec(banner="FLAGD")) is True
    finally:
        listener.close()
    assert prober.probe("127.0.0.1", listener.port, ProbeSpec()) is False
