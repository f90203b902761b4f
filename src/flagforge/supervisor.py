"""Replica supervision for one backend node.

Keeps every service at its desired replica count, probes health, replaces
failed replicas, applies scale changes, and performs one-at-a-time rolling
updates. It runs the registry's replicas: a replica's one record is its
``ReplicaEndpoint``, which also carries the runner's handle, so the
supervisor keeps no table of its own. The node's control thread owns it, so
it takes no lock: only the registry and the balancer, which the data plane's
loop thread also reads, keep theirs. A probe pass probes each replica and
judges it in turn, and blocks that thread while it does: a replica whose
banner stalls holds the pass for up to ``PROBE_TIMEOUT``. A rolling update
blocks it until the last replacement is healthy or the roll is aborted, and
waits up to ``ROLL_TIMEOUT`` for each replacement. A replica that has not
yet answered a probe keeps its ``STARTUP_GRACE`` before a failed probe marks
it unhealthy. A spawn makes one attempt and never sleeps: the failures a
bad run command gives are permanent, and the next reconcile (the next tick,
or the next replica exit) is the retry.
"""

from __future__ import annotations

import os
import socket
import time
from typing import Callable, Iterable, Protocol

from .errors import (PortExhaustedError, SpawnError, SupervisorError,
                     UnknownReplicaError)
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
STARTUP_GRACE = 10.0
# how long a rolling update waits for each replacement to answer its probe
ROLL_TIMEOUT = 30.0
DRAIN_TIMEOUT = 2.0
DRAIN_POLL = 0.01
# how often a replica that has yet to answer its first probe is probed again
READY_POLL = 0.05


class PortAllocator:
    """Hands out ports from an inclusive range, lowest free first."""

    def __init__(self, port_range: tuple[int, int]):
        self._lo, self._hi = port_range
        self._in_use: set[int] = set()

    def allocate(self) -> int:
        for port in range(self._lo, self._hi + 1):
            if port not in self._in_use:
                self._in_use.add(port)
                return port
        raise PortExhaustedError(f"no free port in {self._lo}-{self._hi}")

    def reserve(self, port: int) -> None:
        self._in_use.add(port)

    def release(self, port: int) -> None:
        self._in_use.discard(port)


class Prober(Protocol):
    def probe(self, address: str, port: int, probe: ProbeSpec) -> bool: ...


class TcpProber:
    """TCP-connect health check with an optional expected banner prefix,
    within ``PROBE_TIMEOUT``."""

    def probe(self, address: str, port: int, probe: ProbeSpec) -> bool:
        # a node's bind is an IPv4 literal, so the connect needs no resolver
        try:
            with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
                sock.settimeout(PROBE_TIMEOUT)
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


class Supervisor:
    """Keeps a backend at the specs it is handed whole: the applied
    topology's on adoption, then once per converge, before its plan runs."""

    def __init__(self, bind_address: str, registry: Registry,
                 runner: RunnerBackend, allocator: PortAllocator,
                 prober: Prober | None = None,
                 clock: Callable[[], float] = time.time,
                 sleep: Callable[[float], None] = time.sleep):
        self.bind_address = bind_address
        self.registry = registry
        self.runner = runner
        self.allocator = allocator
        self.prober = prober or TcpProber()
        self.clock = clock
        self.sleep = sleep
        self.on_change: Callable[[], None] | None = None
        # replica id -> sessions still open through the balancer, for draining
        self.sessions: Callable[[str], int] = lambda replica_id: 0
        self._desired: dict[str, ChallengeSpec] = {}

    # --- desired state ----------------------------------------------------

    def desire(self, specs: Iterable[ChallengeSpec]) -> None:
        """Desire exactly ``specs``, one per service, from now on."""
        self._desired = {spec.name: spec for spec in specs}

    def desired_spec(self, service: str) -> ChallengeSpec:
        return self._desired[service]

    def desired_count(self, service: str) -> int:
        return self.desired_spec(service).replica_count

    def services(self) -> list[str]:
        return sorted(self._desired)

    def instances_of(self, service: str) -> list[ReplicaEndpoint]:
        """The registry's records of a service's replicas, oldest first."""
        return sorted(self.registry.replicas_of(service),
                      key=lambda i: (i.started_at, i.replica_id))

    def adopt(self, records: list[dict]) -> None:
        """Register the recorded replicas whose adopted handle reads alive,
        each under the service its record names."""
        for record in records:
            handle = self.runner.adopt(record["pid"], record.get("start"))
            if not self.runner.alive(handle):
                continue
            self.allocator.reserve(record["port"])
            self._register(record["service"], record["replica_id"],
                           record["port"], record["version"], handle,
                           started_at=record.get("started_at", self.clock()),
                           restarts=record.get("restarts", 0),
                           spec_id=record.get("spec", ""))

    def snapshot(self) -> list[dict]:
        """Persistable view of running instances."""
        out = []
        for instance in self.registry.replicas():
            out.append({
                "replica_id": instance.replica_id,
                "service": instance.service,
                "pid": instance.handle.pid,
                "start": instance.handle.start,
                "port": instance.port,
                "version": instance.version,
                "started_at": instance.started_at,
                "restarts": instance.restarts,
                "spec": instance.spec_id,
            })
        out.sort(key=lambda r: r["replica_id"])
        return out

    # --- reconciliation -----------------------------------------------------

    def reconcile(self, service: str) -> list[str]:
        """Converge one service to its desired count; returns actions taken."""
        spec = self.desired_spec(service)
        want = spec.replica_count
        actions: list[str] = []
        restarts = 0
        for instance in self.instances_of(service):
            dead = not self.runner.alive(instance.handle)
            failed = instance.health == HEALTH_UNHEALTHY
            if dead or failed:
                reason = "dead" if dead else "unhealthy"
                restarts = max(restarts, instance.restarts + 1)
                self._stop_instance(instance)
                actions.append(f"stop {instance.replica_id} ({reason})")
        excess = len(self.instances_of(service)) - want
        for instance in self._newest_first(service)[:max(0, excess)]:
            self._stop_instance(instance)
            actions.append(f"stop {instance.replica_id} (scale-down)")
        if actions:  # the stops; each spawn below records itself
            self._changed()
        missing = want - len(self.instances_of(service))
        for _ in range(max(0, missing)):
            try:
                instance = self._spawn(spec, restarts)
            except (SpawnError, PortExhaustedError) as exc:
                actions.append(f"degraded: {exc}")
                break
            actions.append(f"spawn {instance.replica_id}")
        return actions

    def start_one(self, spec: ChallengeSpec) -> ReplicaEndpoint:
        """Spawn a single replica from ``spec`` (one converge step)."""
        return self._spawn(spec, 0)

    def stop_one(self, service: str) -> None:
        """Stop the newest instance of a service (one converge step)."""
        victims = self._newest_first(service)
        if not victims:
            raise UnknownReplicaError(f"no running replicas of {service!r}")
        self._stop_instance(victims[0])
        self._changed()

    def reconcile_all(self) -> dict[str, list[str]]:
        report = {}
        for service in self.services():
            actions = self.reconcile(service)
            if actions:
                report[service] = actions
        return report

    def probe_all(self) -> None:
        """Probe every replica: one that answers is healthy, one that does
        not is unhealthy unless it is still in its startup grace."""
        self._probe(self.clock(), starting_only=False)

    def probe_starting(self) -> None:
        """Readiness pass: probe only replicas still in their startup grace,
        and mark the ones that answer healthy. Failing a replica stays with
        ``probe_all``."""
        self._probe(self.clock(), starting_only=True)

    def booting(self) -> bool:
        """Whether a replica is in its startup grace and has not answered."""
        now = self.clock()
        return any(self._booting(i, now) for i in self.registry.replicas())

    # --- rolling update ------------------------------------------------------

    def rolling_update(self, service: str, new_spec: ChallengeSpec) -> None:
        """Replace, oldest first, each replica started from another spec.

        One replica at a time leaves the rotation, is drained of its open
        sessions (up to ``DRAIN_TIMEOUT``), stopped, respawned from
        ``new_spec`` and waited on until healthy (up to ``ROLL_TIMEOUT``).
        The first failed replacement aborts: the old spec is desired again,
        the lost slot is refilled from it, and ``SupervisorError`` says what
        failed.
        """
        old_spec = self.desired_spec(service)
        self._desired[service] = new_spec
        stale = [i for i in self.instances_of(service)  # oldest first
                 if i.spec_id != new_spec.fingerprint]
        for old in stale:
            self._stop_instance(old, drain=True)
            try:
                fresh = self._spawn(new_spec, old.restarts + 1)
            except (SpawnError, PortExhaustedError) as exc:
                detail = str(exc)
            else:
                if self._wait_healthy(fresh, new_spec):
                    continue
                self._stop_instance(fresh)
                detail = f"not healthy within {ROLL_TIMEOUT:g}s"
            # the remaining old replicas stay untouched
            self._desired[service] = old_spec
            self._changed()  # the stops above; the refill records itself
            self.reconcile(service)
            raise SupervisorError(f"rolling update aborted: {detail}")

    def _wait_healthy(self, instance: ReplicaEndpoint,
                      spec: ChallengeSpec) -> bool:
        deadline = self.clock() + ROLL_TIMEOUT
        while True:
            if not self.runner.alive(instance.handle):
                return False
            if self.prober.probe(instance.address, instance.port, spec.probe):
                self.registry.mark_health(instance.replica_id, HEALTH_HEALTHY)
                return True
            if self.clock() >= deadline:
                return False
            self.sleep(READY_POLL)

    # --- shutdown ------------------------------------------------------------

    def stop_all(self) -> None:
        for instance in self.registry.replicas():
            self._stop_instance(instance)
        self._changed()

    # --- internals ------------------------------------------------------------

    def _spawn(self, spec: ChallengeSpec, restarts: int) -> ReplicaEndpoint:
        # one attempt: a failed spawn is retried by the next reconcile
        port = self.allocator.allocate()
        replica_id = f"{spec.name}-{os.urandom(4).hex()}"
        try:
            handle = self.runner.spawn(spec, port, replica_id)
        except SpawnError:
            self.allocator.release(port)
            raise
        instance = self._register(
            spec.name, replica_id, port, spec.version, handle,
            started_at=self.clock(), restarts=restarts,
            spec_id=spec.fingerprint)
        self._changed()  # on record before anything waits on it
        return instance

    def _register(self, service: str, replica_id: str, port: int,
                  version: str, handle: object, *, started_at: float,
                  restarts: int, spec_id: str) -> ReplicaEndpoint:
        instance = ReplicaEndpoint(
            replica_id=replica_id, address=self.bind_address, port=port,
            version=version, health=HEALTH_STARTING, handle=handle,
            started_at=started_at, spec_id=spec_id, restarts=restarts)
        self.registry.register_replica(service, instance)
        return instance

    def _newest_first(self, service: str) -> list[ReplicaEndpoint]:
        # the order replicas leave a shrinking service in: newest first,
        # replica_id ascending as the tie-break
        return sorted(self.instances_of(service),
                      key=lambda i: (-i.started_at, i.replica_id))

    def _stop_instance(self, instance: ReplicaEndpoint,
                       drain: bool = False) -> None:
        # out of rotation before the signal, so no new player reaches a
        # replica that is shutting down; the port is freed only once the
        # process is gone, so no successor can collide with it
        self.registry.mark_health(instance.replica_id, HEALTH_STOPPED)
        self.registry.deregister_replica(instance.replica_id)
        if drain:  # sessions routed before the deregistration finish first
            deadline = self.clock() + DRAIN_TIMEOUT
            while (self.sessions(instance.replica_id)
                   and self.runner.alive(instance.handle)
                   and self.clock() < deadline):
                self.sleep(DRAIN_POLL)
        self.runner.stop(instance.handle)
        self.allocator.release(instance.port)

    def _booting(self, instance: ReplicaEndpoint, now: float) -> bool:
        return (instance.health == HEALTH_STARTING
                and now - instance.started_at < STARTUP_GRACE)

    def _probe(self, now: float, starting_only: bool) -> None:
        """Probe each replica (each booting one, if ``starting_only``) and
        judge it before the next is probed."""
        for instance in self.registry.replicas():
            if starting_only and not self._booting(instance, now):
                continue
            spec = self._desired.get(instance.service)
            if self.prober.probe(instance.address, instance.port,
                                 spec.probe if spec is not None else ProbeSpec()):
                self.registry.mark_health(instance.replica_id, HEALTH_HEALTHY)
            elif not starting_only and not self._booting(instance, now):
                # one still booting keeps its grace period
                self.registry.mark_health(instance.replica_id,
                                          HEALTH_UNHEALTHY)

    def _changed(self) -> None:
        if self.on_change is not None:
            self.on_change()
