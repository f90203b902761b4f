"""Replica supervision for one backend node.

Keeps every service at its desired replica count, probes health, replaces
failed replicas, applies scale changes, and performs one-at-a-time rolling
updates. All mutating entry points serialize on one lock, so the supervisor
behaves as a single control actor per node; only the prober and runner do
real I/O. Probes run outside the lock: a replica whose banner stalls delays
only the probe pass, and a verdict lands only on a replica that is still
registered in the health it was probed in.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Protocol

from .errors import (PortExhaustedError, SpawnError, UnknownReplicaError,
                     UnknownServiceError)
from .model import ChallengeSpec, ProbeSpec
from .registry import (
    HEALTH_HEALTHY,
    HEALTH_STARTING,
    HEALTH_STOPPED,
    HEALTH_UNHEALTHY,
    Registry,
    ReplicaEndpoint,
)
from .runner import RunnerBackend

PROBE_TIMEOUT = 2.0
BANNER_READ_LIMIT = 64
SPAWN_RETRIES = 3
SPAWN_BACKOFF = 1.0
STARTUP_GRACE = 10.0
DRAIN_TIMEOUT = 2.0
DRAIN_POLL = 0.01
# how often a replica that has yet to answer its first probe is probed again
READY_POLL = 0.05


class PortAllocator:
    """Hands out ports from an inclusive range, lowest free first."""

    def __init__(self, port_range: tuple[int, int]):
        self._lo, self._hi = port_range
        self._in_use: set[int] = set()
        self._lock = threading.Lock()

    def allocate(self) -> int:
        with self._lock:
            for port in range(self._lo, self._hi + 1):
                if port not in self._in_use:
                    self._in_use.add(port)
                    return port
        raise PortExhaustedError(f"no free port in {self._lo}-{self._hi}")

    def reserve(self, port: int) -> None:
        with self._lock:
            self._in_use.add(port)

    def release(self, port: int) -> None:
        with self._lock:
            self._in_use.discard(port)


class Prober(Protocol):
    def probe(self, address: str, port: int, probe: ProbeSpec) -> bool: ...


class TcpProber:
    """TCP-connect health check with an optional expected banner prefix."""

    def __init__(self, timeout: float = PROBE_TIMEOUT):
        self.timeout = timeout

    def probe(self, address: str, port: int, probe: ProbeSpec) -> bool:
        # a node's bind is an IPv4 literal, so the connect needs no resolver
        try:
            with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
                sock.settimeout(self.timeout)
                sock.connect((address, port))
                if probe.banner is None:
                    return True
                expected = probe.banner.encode()
                buf = b""
                while len(buf) < min(BANNER_READ_LIMIT, len(expected)):
                    chunk = sock.recv(BANNER_READ_LIMIT - len(buf))
                    if not chunk:
                        break
                    buf += chunk
                return buf[:BANNER_READ_LIMIT].startswith(expected)
        except OSError:
            return False


@dataclass
class ReplicaInstance:
    endpoint: ReplicaEndpoint
    spec_name: str
    handle: object
    started_at: float
    spec_id: str  # fingerprint of the spec the replica was started from
    restarts: int = 0

    @property
    def replica_id(self) -> str:
        return self.endpoint.replica_id

    @property
    def port(self) -> int:
        return self.endpoint.port


@dataclass
class UpdateStep:
    stopped: str
    started: str | None
    outcome: str  # ok | failed
    detail: str = ""


@dataclass
class UpdateReport:
    service: str
    steps: list[UpdateStep] = field(default_factory=list)
    completed: bool = True


class Supervisor:
    def __init__(self, node_id: str, bind_address: str, registry: Registry,
                 runner: RunnerBackend, allocator: PortAllocator,
                 prober: Prober | None = None,
                 clock: Callable[[], float] = time.time,
                 sleep: Callable[[float], None] = time.sleep,
                 startup_grace: float = STARTUP_GRACE):
        self.node_id = node_id
        self.bind_address = bind_address
        self.registry = registry
        self.runner = runner
        self.allocator = allocator
        self.prober = prober or TcpProber()
        self.clock = clock
        self.sleep = sleep
        self.startup_grace = startup_grace
        self.on_change: Callable[[], None] | None = None
        # replica id -> sessions still open through the balancer, for draining
        self.sessions: Callable[[str], int] = lambda replica_id: 0
        self._desired: dict[str, ChallengeSpec] = {}
        self._instances: dict[str, ReplicaInstance] = {}
        self._lock = threading.RLock()

    # --- desired state ----------------------------------------------------

    def set_desired(self, spec: ChallengeSpec) -> None:
        with self._lock:
            self._desired[spec.name] = spec

    def drop_desired(self, service: str) -> None:
        with self._lock:
            self._desired.pop(service, None)

    def desired_spec(self, service: str) -> ChallengeSpec:
        with self._lock:
            spec = self._desired.get(service)
            if spec is None:
                raise UnknownServiceError(f"unknown service {service!r}")
            return spec

    def desired_count(self, service: str) -> int:
        return self.desired_spec(service).replica_count

    def services(self) -> list[str]:
        with self._lock:
            return sorted(self._desired)

    def instances_of(self, service: str) -> list[ReplicaInstance]:
        with self._lock:
            out = [i for i in self._instances.values() if i.spec_name == service]
            out.sort(key=lambda i: (i.started_at, i.replica_id))
            return out

    def adopt(self, service: str, records: list[dict]) -> None:
        """Rebuild instances recorded by a previous process (pid-based handles)."""
        with self._lock:
            for record in records:
                self.allocator.reserve(record["port"])
                endpoint = ReplicaEndpoint(
                    replica_id=record["replica_id"], address=self.bind_address,
                    port=record["port"], version=record["version"],
                    health=HEALTH_STARTING)
                self.registry.register_replica(service, endpoint)
                self._instances[endpoint.replica_id] = ReplicaInstance(
                    endpoint=endpoint, spec_name=service,
                    handle=self.runner.adopt(record["pid"]),
                    started_at=record.get("started_at", self.clock()),
                    restarts=record.get("restarts", 0),
                    spec_id=record.get("spec", ""))

    def snapshot(self) -> list[dict]:
        """Persistable view of running instances."""
        with self._lock:
            out = []
            for instance in self._instances.values():
                pid = getattr(instance.handle, "pid", 0)
                out.append({
                    "replica_id": instance.replica_id,
                    "service": instance.spec_name,
                    "pid": pid,
                    "port": instance.port,
                    "version": instance.endpoint.version,
                    "started_at": instance.started_at,
                    "restarts": instance.restarts,
                    "spec": instance.spec_id,
                })
            out.sort(key=lambda r: r["replica_id"])
            return out

    # --- reconciliation -----------------------------------------------------

    def reconcile(self, service: str) -> list[str]:
        """Converge one service to its desired count; returns actions taken."""
        with self._lock:
            spec = self.desired_spec(service)
            want = spec.replica_count
            actions: list[str] = []
            restarts = 0
            for instance in self.instances_of(service):
                dead = not self.runner.alive(instance.handle)
                failed = instance.endpoint.health == HEALTH_UNHEALTHY
                if dead or failed:
                    reason = "dead" if dead else "unhealthy"
                    restarts = max(restarts, instance.restarts + 1)
                    self._stop_instance(instance)
                    actions.append(f"stop {instance.replica_id} ({reason})")
            alive = self.instances_of(service)
            excess = len(alive) - want
            if excess > 0:
                # victims: newest first, replica_id ascending as the tie-break
                victims = sorted(alive, key=lambda i: (-i.started_at, i.replica_id))
                for instance in victims[:excess]:
                    self._stop_instance(instance)
                    actions.append(f"stop {instance.replica_id} (scale-down)")
            missing = want - len(self.instances_of(service))
            for _ in range(max(0, missing)):
                try:
                    instance = self._spawn(service, spec, restarts)
                except (SpawnError, PortExhaustedError) as exc:
                    actions.append(f"degraded: {exc}")
                    break
                actions.append(f"spawn {instance.replica_id}")
        if actions:
            self._changed()
        return actions

    def start_one(self, service: str) -> ReplicaInstance:
        """Spawn a single replica of a desired service (one converge step)."""
        with self._lock:
            spec = self.desired_spec(service)
            instance = self._spawn(service, spec, 0)
        self._changed()
        return instance

    def stop_one(self, service: str) -> str:
        """Stop the newest instance of a service (one converge step)."""
        with self._lock:
            instances = self.instances_of(service)
            if not instances:
                raise UnknownReplicaError(f"no running replicas of {service!r}")
            victim = sorted(instances,
                            key=lambda i: (-i.started_at, i.replica_id))[0]
            self._stop_instance(victim)
        self._changed()
        return victim.replica_id

    def reconcile_all(self) -> dict[str, list[str]]:
        with self._lock:
            services = self.services()
        report = {}
        for service in services:
            actions = self.reconcile(service)
            if actions:
                report[service] = actions
        return report

    def probe_all(self, now: float | None = None) -> None:
        """Probe every replica: one that answers is healthy, one that does
        not is unhealthy unless it is still in its startup grace."""
        self._probe(self.clock() if now is None else now, starting_only=False)

    def probe_starting(self) -> None:
        """Readiness pass: probe only replicas still in their startup grace,
        and mark the ones that answer healthy. Failing a replica stays with
        ``probe_all``."""
        self._probe(self.clock(), starting_only=True)

    def booting(self) -> bool:
        """Whether a replica is in its startup grace and has not answered."""
        now = self.clock()
        with self._lock:
            return any(self._booting(i, now) for i in self._instances.values())

    # --- rolling update ------------------------------------------------------

    def rolling_update(self, service: str, new_spec: ChallengeSpec,
                       timeout: float = 30.0) -> UpdateReport:
        """Replace, oldest first, each replica started from another spec.

        One replica at a time leaves the rotation, is drained of its open
        sessions (up to ``DRAIN_TIMEOUT``), stopped, respawned from
        ``new_spec`` and waited on until healthy. The first failed
        replacement aborts: the old spec is desired again and the lost slot
        is refilled from it before this returns.
        """
        with self._lock:
            old_spec = self.desired_spec(service)
            self._desired[service] = new_spec
            stale = [i for i in self.instances_of(service)  # oldest first
                     if i.spec_id != new_spec.fingerprint]
            report = UpdateReport(service=service)
            for old in stale:
                old_id = old.replica_id
                self._stop_instance(old, drain=True)
                try:
                    fresh = self._spawn(service, new_spec, old.restarts + 1)
                except (SpawnError, PortExhaustedError) as exc:
                    report.steps.append(UpdateStep(old_id, None, "failed", str(exc)))
                    return self._abort_update(service, old_spec, report)
                if not self._wait_healthy(fresh, new_spec, timeout):
                    self._stop_instance(fresh)
                    report.steps.append(UpdateStep(
                        old_id, fresh.replica_id, "failed",
                        f"not healthy within {timeout:g}s"))
                    return self._abort_update(service, old_spec, report)
                report.steps.append(UpdateStep(old_id, fresh.replica_id, "ok"))
        if stale:
            self._changed()
        return report

    def _abort_update(self, service: str, old_spec: ChallengeSpec,
                      report: UpdateReport) -> UpdateReport:
        # the remaining old replicas stay untouched
        self._desired[service] = old_spec
        if not self.reconcile(service):  # a reconcile that acted persisted
            self._changed()
        report.completed = False
        return report

    def _wait_healthy(self, instance: ReplicaInstance, spec: ChallengeSpec,
                      timeout: float) -> bool:
        deadline = self.clock() + timeout
        while True:
            if not self.runner.alive(instance.handle):
                return False
            if self.prober.probe(instance.endpoint.address, instance.port,
                                 spec.probe):
                self.registry.mark_health(instance.replica_id, HEALTH_HEALTHY)
                return True
            if self.clock() >= deadline:
                return False
            self.sleep(READY_POLL)

    # --- shutdown ------------------------------------------------------------

    def stop_all(self) -> None:
        with self._lock:
            for instance in list(self._instances.values()):
                self._stop_instance(instance)
        self._changed()

    # --- internals ------------------------------------------------------------

    def _spawn(self, service: str, spec: ChallengeSpec,
               restarts: int) -> ReplicaInstance:
        last_error: Exception | None = None
        for attempt in range(SPAWN_RETRIES):
            if attempt:
                self.sleep(SPAWN_BACKOFF)
            port = self.allocator.allocate()
            replica_id = f"{service}-{os.urandom(4).hex()}"
            try:
                handle = self.runner.spawn(spec, port, replica_id)
            except SpawnError as exc:
                self.allocator.release(port)
                last_error = exc
                continue
            endpoint = ReplicaEndpoint(
                replica_id=replica_id, address=self.bind_address, port=port,
                version=spec.version, health=HEALTH_STARTING)
            self.registry.register_replica(service, endpoint)
            instance = ReplicaInstance(endpoint=endpoint, spec_name=service,
                                       handle=handle, started_at=self.clock(),
                                       restarts=restarts,
                                       spec_id=spec.fingerprint)
            self._instances[replica_id] = instance
            return instance
        raise SpawnError(f"spawn of {service} failed after {SPAWN_RETRIES}"
                         f" attempts: {last_error}")

    def _stop_instance(self, instance: ReplicaInstance,
                       drain: bool = False) -> None:
        # out of rotation before the signal, so no new player reaches a
        # replica that is shutting down; the port is freed only once the
        # process is gone, so no successor can collide with it
        self.registry.mark_health(instance.replica_id, HEALTH_STOPPED)
        self.registry.deregister_replica(instance.replica_id)
        self._instances.pop(instance.replica_id, None)
        if drain:  # sessions routed before the deregistration finish first
            deadline = self.clock() + DRAIN_TIMEOUT
            while (self.sessions(instance.replica_id)
                   and self.runner.alive(instance.handle)
                   and self.clock() < deadline):
                self.sleep(DRAIN_POLL)
        self.runner.stop(instance.handle)
        self.allocator.release(instance.port)

    def _booting(self, instance: ReplicaInstance, now: float) -> bool:
        return (instance.endpoint.health == HEALTH_STARTING
                and now - instance.started_at < self.startup_grace)

    def _probe(self, now: float, starting_only: bool) -> None:
        """Probe without the lock, then judge each replica that is still
        registered in the health it was probed in."""
        with self._lock:
            targets = []
            for instance in self._instances.values():
                if not starting_only or self._booting(instance, now):
                    spec = self._desired.get(instance.spec_name)
                    probe = spec.probe if spec is not None else ProbeSpec()
                    targets.append((instance, instance.endpoint.health, probe))
        results = [(instance, health,
                    self.prober.probe(instance.endpoint.address, instance.port,
                                      probe))
                   for instance, health, probe in targets]
        with self._lock:
            for instance, health, up in results:
                if (self._instances.get(instance.replica_id) is not instance
                        or instance.endpoint.health != health):
                    continue  # stopped or re-marked while it was probed
                if up:
                    self.registry.mark_health(instance.replica_id, HEALTH_HEALTHY)
                elif not starting_only and not self._booting(instance, now):
                    # one still booting keeps its grace period
                    self.registry.mark_health(instance.replica_id,
                                              HEALTH_UNHEALTHY)

    def _changed(self) -> None:
        if self.on_change is not None:
            self.on_change()
