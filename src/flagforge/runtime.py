"""Live cluster runtime: persisted state plus converge over real nodes.

Everything a command needs sits under one state directory:

    desired.json        applied topology text + artifact checksums
    replicas-<node>.json  running replica records (pid, port, version, spec)
    balancer.json       per-node balancer ports, stick settings and counts;
                        a challenge's network lives with its listener here
    ingress.map         frontend port mappings
    latest-build.txt    deployment status records
    serve-<node>.lock   pid of the serve process hosting a node
    logs/, bundles/     replica logs and materialized artifact payloads

A ``Cluster`` hosts live runtimes for some of the topology's nodes (all of
them for one-shot converge, a single one inside ``serve``) and executes diff
actions against them. Replicas are detached processes, so state survives the
hosting process: the next command adopts them back by pid, together with the
fingerprint of the spec each one was started from, so spec drift (a new
version, run command or probe) is planned as a rolling update. Promotion
takes the same path: a pass records the new artifacts into the desired
topology, then converges.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from ._files import replacing
from .balancer import Balancer, BalancerServer
from .errors import FlagforgeError, IngressError, PipelineError, TopologyError
from .ingress import (IngressServer, MappingTable, PortMapping, load_mappings,
                      parse_mappings, save_mappings, serialize_mappings)
from .model import (ROLE_BACKEND, Action, ApplyReport, ChallengeSpec, ChangeSet,
                    ObservedState, Topology, apply_changeset, diff, network_id,
                    parse_topology, serialize_topology, validate_topology)
from .pipeline import (MODE_DEV, STATE_DEPLOYED, ArtifactManifest,
                       PipelineReport, StatusRecord, _now_iso,
                       extract_payload, read_status, run_pipeline,
                       write_status)
from .registry import Registry
from .runner import SubprocessRunner, _pid_running
from .supervisor import READY_POLL, PortAllocator, Supervisor

log = logging.getLogger(__name__)

# ports found occupied by foreign processes before giving up on a service
PORT_CONFLICT_LIMIT = 10


class StateStore:
    """Files under the state directory; writes are atomic and skip no-ops."""

    def __init__(self, root: Path):
        self.root = Path(root)

    @property
    def desired_path(self) -> Path:
        return self.root / "desired.json"

    @property
    def balancer_path(self) -> Path:
        return self.root / "balancer.json"

    @property
    def ingress_path(self) -> Path:
        return self.root / "ingress.map"

    @property
    def status_path(self) -> Path:
        return self.root / "latest-build.txt"

    @property
    def logs_dir(self) -> Path:
        return self.root / "logs"

    @property
    def bundles_dir(self) -> Path:
        return self.root / "bundles"

    def replicas_path(self, node_id: str) -> Path:
        return self.root / f"replicas-{node_id}.json"

    def lock_path(self, node_id: str) -> Path:
        return self.root / f"serve-{node_id}.lock"

    def _write(self, path: Path, text: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.exists() and path.read_text() == text:
            return
        with replacing(path) as f:
            f.write(text)

    def _write_json(self, path: Path, payload) -> None:
        self._write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")

    def _read_json(self, path: Path, default):
        if not path.exists():
            return default
        return json.loads(path.read_text())

    def save_desired(self, topology: Topology, checksums: dict) -> None:
        self._write_json(self.desired_path, {
            "topology": serialize_topology(topology),
            "checksums": checksums,
        })

    def load_desired(self) -> tuple[Topology, dict] | None:
        payload = self._read_json(self.desired_path, None)
        if payload is None:
            return None
        return parse_topology(payload["topology"]), payload.get("checksums", {})

    def save_replicas(self, node_id: str, records: list[dict]) -> None:
        self._write_json(self.replicas_path(node_id), records)

    def load_replicas(self, node_id: str) -> list[dict]:
        return self._read_json(self.replicas_path(node_id), [])

    def replica_nodes(self) -> list[str]:
        if not self.root.is_dir():
            return []
        return sorted(p.name[len("replicas-"):-len(".json")]
                      for p in self.root.glob("replicas-*.json"))

    def save_balancer(self, config: dict) -> None:
        self._write_json(self.balancer_path, config)

    def load_balancer(self) -> dict:
        return self._read_json(self.balancer_path, {})

    def lock_owner(self, node_id: str) -> int | None:
        """Pid holding the serve lock for a node, if that pid is alive."""
        path = self.lock_path(node_id)
        if not path.exists():
            return None
        try:
            pid = int(path.read_text().strip())
        except ValueError:
            return None
        return pid if _pid_running(pid) else None

    def acquire_lock(self, node_id: str, pid: int) -> None:
        owner = self.lock_owner(node_id)
        if owner is not None and owner != pid:
            raise FlagforgeError(
                f"node {node_id} is already served by pid {owner}")
        self.root.mkdir(parents=True, exist_ok=True)
        self.lock_path(node_id).write_text(f"{pid}\n")

    def release_lock(self, node_id: str) -> None:
        try:
            self.lock_path(node_id).unlink()
        except FileNotFoundError:
            pass


class BackendNode:
    """Live control plane of one backend: registry, supervisor, balancer."""

    def __init__(self, topology: Topology, node_id: str, store: StateStore, *,
                 bind_listeners: bool, clock: Callable[[], float] = time.time,
                 runner=None, prober=None,
                 pid_alive: Callable[[int], bool] = _pid_running):
        self.node_id = node_id
        self.node = topology.nodes[node_id]
        self.store = store
        self.pid_alive = pid_alive
        self.registry = Registry()
        self.allocator = PortAllocator(self.node.port_range)
        self.runner = runner or SubprocessRunner(store.logs_dir,
                                                 self.node.bind_address)
        self.supervisor = Supervisor(node_id, self.node.bind_address,
                                     self.registry, self.runner, self.allocator,
                                     prober=prober, clock=clock)
        self.supervisor.on_change = self._persist_replicas
        self.balancer = Balancer(self.registry, topology.stick_ttl,
                                 topology.stick_capacity, clock=clock)
        self.supervisor.sessions = self.balancer.sessions
        self.server = (BalancerServer(self.balancer, self.node.bind_address,
                                      require_proxy_header=True)
                       if bind_listeners else None)
        self._balancer_ports: dict[str, int] = {}

    @property
    def balancer_ports(self) -> dict[str, int]:
        return dict(self._balancer_ports)

    @property
    def stick_settings(self) -> tuple[int, int]:
        return (int(self.balancer.stick_ttl), int(self.balancer.stick_capacity))

    def adopt(self, desired: Topology | None) -> None:
        """Rebuild live state from the files a previous process left behind."""
        config = self.store.load_balancer().get(self.node_id, {})
        for service, port in sorted((config.get("ports") or {}).items()):
            self.allocator.reserve(port)
            self._balancer_ports[service] = port
        stick = config.get("stick")
        if stick:
            self.balancer.configure(stick[0], stick[1])

        records: dict[str, list[dict]] = {}
        for record in self.store.load_replicas(self.node_id):
            if self.pid_alive(record["pid"]):
                records.setdefault(record["service"], []).append(record)
        specs = {c.name: c for c in desired.challenges_on(self.node_id)} \
            if desired else {}

        for name in sorted(set(records) | set(specs) | set(self._balancer_ports)):
            if not self.registry.has_service(name):
                self.registry.create_service(name, network_id(name))
            if name in specs:
                self.supervisor.set_desired(specs[name])
            if name in records:
                self.supervisor.adopt(name, records[name])
        self._persist_replicas()

        if self.server is not None:
            for service, port in sorted(self._balancer_ports.items()):
                try:
                    self.server.bind_service(service, port)
                except OSError as exc:
                    raise FlagforgeError(
                        f"cannot bind balancer port {port} for {service}:"
                        f" {exc}") from exc

    def ensure_service(self, spec: ChallengeSpec) -> None:
        if not self.registry.has_service(spec.name):
            self.registry.create_service(spec.name, network_id(spec.name))
        self.supervisor.set_desired(spec)

    def open_listener(self, service: str) -> int:
        conflicts = 0
        while True:
            port = self.allocator.allocate()
            if self.server is not None:
                try:
                    self.server.bind_service(service, port)
                except OSError:
                    # a foreign process owns this port; leave it reserved so
                    # the allocator skips it and try the next one
                    conflicts += 1
                    if conflicts >= PORT_CONFLICT_LIMIT:
                        raise
                    continue
            self._balancer_ports[service] = port
            return port

    def remove_service(self, name: str) -> None:
        for _ in self.supervisor.instances_of(name):
            self.supervisor.stop_one(name)
        self.supervisor.drop_desired(name)
        if self.registry.has_service(name):
            self.registry.remove_service(name)
        port = self._balancer_ports.pop(name, None)
        if port is not None:
            if self.server is not None:
                self.server.unbind_service(name)
            self.allocator.release(port)

    def persist_balancer(self) -> None:
        config = self.store.load_balancer()
        config[self.node_id] = {
            "ports": dict(sorted(self._balancer_ports.items())),
            "stick": [int(self.balancer.stick_ttl),
                      int(self.balancer.stick_capacity)],
            "stick_counts": {service: self.balancer.stick_count(service)
                             for service in sorted(self._balancer_ports)},
        }
        self.store.save_balancer(config)

    def tick(self) -> None:
        """One supervision beat: probe, replace, drop aged pins, persist counters."""
        self.supervisor.probe_all()
        self.supervisor.reconcile_all()
        self.balancer.expire_entries()
        self.persist_balancer()

    def close(self, stop_replicas: bool) -> None:
        if stop_replicas:
            self.supervisor.stop_all()
        if self.server is not None:
            self.server.close()

    def _persist_replicas(self) -> None:
        self.store.save_replicas(self.node_id, self.supervisor.snapshot())


class FrontendNode:
    """Ingress host: applies the mapping file and keeps it in sync."""

    def __init__(self, topology: Topology, node_id: str, store: StateStore,
                 bind_listeners: bool):
        self.node_id = node_id
        self.node = topology.nodes[node_id]
        self.store = store
        self.server = (IngressServer(self.node.bind_address)
                       if bind_listeners else None)
        self._applied_text: str | None = None

    def adopt(self) -> None:
        self.refresh_from_file()

    def refresh_from_file(self) -> list[tuple[int, str]]:
        path = self.store.ingress_path
        text = path.read_text() if path.exists() else ""
        if self.server is None or text == self._applied_text:
            return []
        report = self.server.apply_table(parse_mappings(text))
        self._applied_text = text
        return report

    def bind_failures(self) -> list[str]:
        """Mapped external ports the live server failed to bind."""
        if self.server is None:
            return []
        want = {m.external_port for m in load_mappings(self.store.ingress_path)}
        missing = want - set(self.server.bound_ports())
        return [f"external port {port} could not be bound"
                for port in sorted(missing)]

    def bind(self, mapping: PortMapping) -> None:
        current = load_mappings(self.store.ingress_path)
        kept = [m for m in current if m.external_port != mapping.external_port]
        kept.append(mapping)
        kept.sort(key=lambda m: m.external_port)
        self._commit(MappingTable(tuple(kept)), check_port=mapping.external_port)

    def unbind(self, external_port: int) -> None:
        current = load_mappings(self.store.ingress_path)
        kept = tuple(m for m in current if m.external_port != external_port)
        self._commit(MappingTable(kept))

    def _commit(self, table: MappingTable, check_port: int | None = None) -> None:
        save_mappings(table, self.store.ingress_path)
        text = serialize_mappings(table)
        self._applied_text = text
        if self.server is None:
            return
        report = self.server.apply_table(table)
        if check_port is not None:
            for port, status in report:
                if port == check_port and status.startswith("failed"):
                    raise IngressError(f"port {port}: {status}")

    def close(self) -> None:
        if self.server is not None:
            self.server.close()


class Cluster:
    """Hosts live node runtimes over one state directory and converges them."""

    def __init__(self, topology: Topology, store: StateStore, *,
                 hosted: list[str] | None = None, bind_listeners: bool = True,
                 clock: Callable[[], float] = time.time, runner_factory=None,
                 prober=None, pid_alive: Callable[[int], bool] = _pid_running):
        self.topology = topology
        self.store = store
        self.clock = clock
        self.pid_alive = pid_alive
        persisted = store.load_desired()
        adopted, self.checksums = persisted if persisted else (topology, {})
        wanted = set(hosted) if hosted is not None else set(topology.nodes)
        self.backends: dict[str, BackendNode] = {}
        self.frontend: FrontendNode | None = None
        for node_id in sorted(wanted):
            node = topology.nodes[node_id]
            if node.role == ROLE_BACKEND:
                runner = runner_factory(node, store) if runner_factory else None
                backend = BackendNode(topology, node_id, store,
                                      bind_listeners=bind_listeners,
                                      clock=clock, runner=runner, prober=prober,
                                      pid_alive=pid_alive)
                backend.adopt(adopted)
                self.backends[node_id] = backend
            else:
                self.frontend = FrontendNode(topology, node_id, store,
                                             bind_listeners)
                self.frontend.adopt()

    # --- observation --------------------------------------------------------

    def observe(self) -> ObservedState:
        state = ObservedState()
        for node_id, config in self.store.load_balancer().items():
            state.balancers[node_id] = set(config.get("ports") or {})
            stick = config.get("stick")
            if stick:
                state.stick_settings[node_id] = (stick[0], stick[1])
        for node_id, backend in self.backends.items():
            state.balancers[node_id] = set(backend.balancer_ports)
            state.stick_settings[node_id] = backend.stick_settings
        for node_id, records in self._live_replicas().items():
            for record in records:
                counts = state.replicas.setdefault(record["service"], {})
                counts[node_id] = counts.get(node_id, 0) + 1
                specs = state.specs.setdefault(record["service"], {})
                specs.setdefault(node_id, set()).add(record.get("spec", ""))
        for mapping in load_mappings(self.store.ingress_path):
            state.ingress[mapping.external_port] = (mapping.challenge,
                                                    mapping.backend_node)
        return state

    def _live_replicas(self) -> dict[str, list[dict]]:
        """Replica records per node: hosted nodes from their supervisors."""
        live: dict[str, list[dict]] = {}
        for node_id in sorted(set(self.store.replica_nodes()) | set(self.backends)):
            if node_id in self.backends:
                live[node_id] = self.backends[node_id].supervisor.snapshot()
            else:
                live[node_id] = [r for r in self.store.load_replicas(node_id)
                                 if self.pid_alive(r["pid"])]
        return live

    # --- convergence ----------------------------------------------------------

    def converge(self, topology: Topology | None = None,
                 only_node: str | None = None,
                 exclude_nodes: set[str] | None = None) -> ApplyReport:
        if topology is not None:
            self.topology = topology
        self.checksums = {name: record for name, record in self.checksums.items()
                          if name in self.topology.challenges}
        self.store.save_desired(self.topology, self.checksums)
        changeset = ChangeSet(tuple(
            a for a in diff(self.topology, self.observe())
            if (only_node is None or a.node == only_node)
            and a.node not in (exclude_nodes or ())))
        return apply_changeset(changeset, _ClusterExecutor(self))

    def balancer_port_of(self, node_id: str, service: str) -> int | None:
        if node_id in self.backends:
            return self.backends[node_id].balancer_ports.get(service)
        config = self.store.load_balancer().get(node_id) or {}
        return (config.get("ports") or {}).get(service)

    # --- artifact deployment ---------------------------------------------------

    def pipeline_once(self, mode: str, store_dir: Path,
                      select: list[str] | None = None) -> PipelineReport:
        """One promotion pass (see run_pipeline), then status repair.

        The mode only picks the candidates: dev mode the challenges with
        replicas on a backend this process hosts, deploy mode the selection,
        deployed or not. A recorded checksum counts as deployed only while
        the live replicas (or, with none running, the desired spec) carry
        its version; anything else reads as unknown provenance.
        """
        live = self._live_replicas()
        if mode == MODE_DEV:
            names = {r["service"] for node_id in self.backends
                     for r in live[node_id]}
        else:
            names = set(select or ())
        view: dict[str, str | None] = {}
        for name in sorted(names):
            versions = {r["version"] for records in live.values()
                        for r in records if r["service"] == name}
            if not versions and name in self.topology.challenges:
                versions = {self.topology.challenges[name].version}
            if not versions:
                continue  # not deployed anywhere
            record = self.checksums.get(name)
            known = record is not None and versions == {record["version"]}
            view[name] = record["checksum"] if known else None
        report = run_pipeline(mode, store_dir, _Promoter(self, Path(store_dir)),
                              deployed_view=view, select=select,
                              status_path=self.store.status_path,
                              clock=self.clock)
        written = {o.challenge for o in report.outcomes}
        for node_id in sorted(self.backends):
            self._repair_status(node_id, written)
        return report

    @property
    def unhosted_nodes(self) -> set[str]:
        hosted = set(self.backends)
        if self.frontend is not None:
            hosted.add(self.frontend.node_id)
        return set(self.topology.nodes) - hosted

    def _repair_status(self, node_id: str, written: set[str]) -> None:
        """Correct stale records: live uniform state wins over old lines.

        The records of ``written``, the challenges this pass promoted, are
        fresh: a failed promotion stays on record although the abort left the
        old version running at full count.
        """
        records, _ = read_status(self.store.status_path)
        existing = {(r.challenge, r.backend): r for r in records}
        backend = self.backends[node_id]
        fixes = []
        for service in backend.supervisor.services():
            record = existing.get((service, node_id))
            if record is None or service in written:
                continue
            instances = backend.supervisor.instances_of(service)
            versions = {i.endpoint.version for i in instances}
            if (len(instances) == backend.supervisor.desired_count(service)
                    and len(versions) == 1):
                live = versions.pop()
                if record.version != live or record.state != STATE_DEPLOYED:
                    fixes.append(StatusRecord(service, node_id, live,
                                              STATE_DEPLOYED,
                                              _now_iso(self.clock)))
        if fixes:
            write_status(fixes, self.store.status_path)

    # --- lifecycle ---------------------------------------------------------------

    def shutdown(self, stop_replicas: bool = False) -> None:
        for backend in self.backends.values():
            backend.close(stop_replicas=stop_replicas)
        if self.frontend is not None:
            self.frontend.close()


@dataclass
class _ClusterExecutor:
    """Maps diff actions onto the hosted node runtimes."""

    cluster: Cluster

    def execute(self, action: Action) -> None:
        handler = getattr(self, f"_{action.kind}")
        handler(action)

    def _require_backend(self, node_id: str) -> BackendNode:
        backend = self.cluster.backends.get(node_id)
        if backend is None:
            raise FlagforgeError(f"node {node_id} is not hosted by this process")
        return backend

    def _create_network(self, action: Action) -> None:
        backend = self._require_backend(action.node)
        spec = self.cluster.topology.challenges[action.challenge]
        backend.ensure_service(spec)
        # the network is the service's listener
        backend.open_listener(spec.name)
        backend.persist_balancer()

    def _start_replica(self, action: Action) -> None:
        backend = self._require_backend(action.node)
        spec = self.cluster.topology.challenges[action.challenge]
        backend.ensure_service(spec)
        backend.supervisor.start_one(spec.name)

    def _stop_replica(self, action: Action) -> None:
        backend = self._require_backend(action.node)
        spec = self.cluster.topology.challenges.get(action.challenge)
        wanted_here = spec is not None and spec.backend == action.node
        if wanted_here:
            backend.supervisor.set_desired(spec)
        backend.supervisor.stop_one(action.challenge)
        if not wanted_here and not backend.supervisor.instances_of(action.challenge):
            backend.supervisor.drop_desired(action.challenge)
            if (action.challenge not in backend.balancer_ports
                    and backend.registry.has_service(action.challenge)):
                # the service leaves this node with its last replica; one
                # whose listener is still here goes with its remove_network
                backend.registry.remove_service(action.challenge)

    def _roll_service(self, action: Action) -> None:
        backend = self._require_backend(action.node)
        spec = self.cluster.topology.challenges[action.challenge]
        if spec.name not in backend.supervisor.services():
            # adopted replicas of a service this node held no spec for
            backend.ensure_service(spec)
        report = backend.supervisor.rolling_update(spec.name, spec)
        if not report.completed:
            raise FlagforgeError(
                f"rolling update aborted: {report.steps[-1].detail}")

    def _update_balancer_config(self, action: Action) -> None:
        backend = self._require_backend(action.node)
        topology = self.cluster.topology
        backend.balancer.configure(topology.stick_ttl, topology.stick_capacity)
        backend.persist_balancer()

    def _bind_ingress(self, action: Action) -> None:
        spec = self.cluster.topology.challenges[action.challenge]
        port = self.cluster.balancer_port_of(spec.backend, spec.name)
        if port is None:
            raise IngressError(
                f"{spec.name}: no balancer port bound on {spec.backend}")
        frontend = self._require_frontend()
        frontend.bind(PortMapping(
            external_port=action.external_port, challenge=spec.name,
            backend_node=spec.backend,
            backend_address=self.cluster.topology.nodes[spec.backend].bind_address,
            balancer_port=port))

    def _unbind_ingress(self, action: Action) -> None:
        self._require_frontend().unbind(action.external_port)

    def _remove_network(self, action: Action) -> None:
        backend = self._require_backend(action.node)
        backend.remove_service(action.challenge)
        backend.persist_balancer()

    def _require_frontend(self) -> FrontendNode:
        if self.cluster.frontend is None:
            raise FlagforgeError("the frontend node is not hosted by this process")
        return self.cluster.frontend


@dataclass
class _Promoter:
    """The pipeline's deployer: record artifacts, then converge the cluster."""

    cluster: Cluster
    store_dir: Path

    def backend_of(self, challenge: str) -> str:
        held = self.cluster.topology.challenges.get(challenge)
        if held is not None:
            return held.backend
        return min(n.node_id for n in self.cluster.topology.backends)

    def record(self, manifest: ArtifactManifest) -> None:
        """Extract a bundle's payload and record its spec as desired.

        The payload lands in a directory keyed by checksum, and ``{DIR}`` in
        the run command expands to it, so content changes always change the
        effective spec even under a reused version label.
        """
        cluster = self.cluster
        target = cluster.store.bundles_dir / (
            f"{manifest.challenge}-{manifest.checksum[:12]}")
        if not target.is_dir():
            bundle = self.store_dir / manifest.bundle_name
            if not bundle.is_file():
                raise PipelineError(f"bundle {manifest.bundle_name} not in store")
            extract_payload(bundle, target)
        spec = manifest.challenge_spec(
            self.backend_of(manifest.challenge),
            run_command=manifest.run_command.replace("{DIR}", str(target)))
        topology = replace(cluster.topology,
                           challenges={**cluster.topology.challenges,
                                       spec.name: spec})
        validate_topology(topology)
        cluster.topology = topology
        cluster.checksums[spec.name] = {"checksum": manifest.checksum,
                                        "version": manifest.version}
        cluster.store.save_desired(topology, cluster.checksums)

    def converge(self) -> dict[str, str]:
        report = self.cluster.converge(exclude_nodes=self.cluster.unhosted_nodes)
        failures: dict[str, str] = {}
        for result in report.results:
            if result.outcome != "ok" and result.action.challenge is not None:
                failures.setdefault(result.action.challenge, result.render())
        return failures


class NodeService:
    """What ``serve`` runs: host one node and keep it converged until stopped."""

    def __init__(self, topology_path: Path | None, node_id: str,
                 state_root: Path, store_dir: Path | None = None,
                 mode: str = MODE_DEV, pid: int | None = None,
                 clock: Callable[[], float] = time.time, tick: float = 0.5):
        self.store = StateStore(state_root)
        persisted = self.store.load_desired()
        if persisted is not None:
            topology, checksums = persisted
        elif topology_path is not None:
            topology = parse_topology(Path(topology_path).read_text())
            checksums = {}
            self.store.save_desired(topology, checksums)
        else:
            raise FlagforgeError("no applied topology and no --topology file")
        if node_id not in topology.nodes:
            raise TopologyError(f"unknown node {node_id!r}")
        self.node_id = node_id
        self.is_backend = topology.nodes[node_id].role == ROLE_BACKEND
        self.store_dir = Path(store_dir) if store_dir is not None else None
        self.mode = mode
        self.clock = clock
        self.tick = tick
        self.store.acquire_lock(node_id, pid if pid is not None else os.getpid())
        try:
            self.cluster = Cluster(topology, self.store, hosted=[node_id],
                                   bind_listeners=True, clock=clock)
        except Exception:
            self.store.release_lock(node_id)
            raise
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._desired_mtime = 0.0
        self._last_probe = 0.0
        self._last_poll = self.clock()

    def start(self) -> list[str]:
        """Initial converge plus loop start; returns fatal bind failures."""
        self.cluster.converge(only_node=self.node_id)
        failures: list[str] = []
        if self.is_backend:
            backend = self.cluster.backends[self.node_id]
            backend.supervisor.probe_all()
            backend.persist_balancer()
        else:
            failures = self.cluster.frontend.bind_failures()
        self._desired_mtime = self._mtime()
        self._thread = threading.Thread(target=self._loop,
                                        name=f"serve-{self.node_id}", daemon=True)
        self._thread.start()
        return failures

    def _mtime(self) -> float:
        try:
            return self.store.desired_path.stat().st_mtime
        except OSError:
            return 0.0

    def _booting(self) -> bool:
        return (self.is_backend
                and self.cluster.backends[self.node_id].supervisor.booting())

    def _loop(self) -> None:
        # while a replica has yet to answer, wake often enough that it takes
        # players within READY_POLL of its first passing probe
        while not self._stop.wait(READY_POLL if self._booting() else self.tick):
            try:
                self.tick_once()
            except Exception:
                log.exception("serve tick for %s failed", self.node_id)

    def tick_once(self) -> None:
        now = self.clock()
        mtime = self._mtime()
        if mtime != self._desired_mtime:
            self._desired_mtime = mtime
            persisted = self.store.load_desired()
            if persisted is not None:
                topology, self.cluster.checksums = persisted
                self.cluster.converge(topology, only_node=self.node_id)
                self._desired_mtime = self._mtime()
        if self.is_backend:
            topology = self.cluster.topology
            backend = self.cluster.backends[self.node_id]
            if now - self._last_probe >= topology.probe_interval:
                self._last_probe = now
                backend.tick()
            else:
                backend.supervisor.probe_starting()
            if (self.store_dir is not None
                    and now - self._last_poll >= topology.poll_interval):
                self._last_poll = now
                self.cluster.pipeline_once(self.mode, self.store_dir)
                self._desired_mtime = self._mtime()
        else:
            self.cluster.frontend.refresh_from_file()
            if now - self._last_probe >= self.cluster.topology.probe_interval:
                # a bind that failed because a backend was still coming up
                # gets retried here
                self._last_probe = now
                self.cluster.converge(only_node=self.node_id)
                self._desired_mtime = self._mtime()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=30)
        self.cluster.shutdown(stop_replicas=self.is_backend)
        self.store.release_lock(self.node_id)


def status_rows(store: StateStore,
                pid_alive: Callable[[int], bool] = _pid_running) -> list[dict]:
    """One row per desired challenge: live counts joined with status records."""
    persisted = store.load_desired()
    if persisted is None:
        return []
    topology, _ = persisted
    records, _ = read_status(store.status_path)
    by_key = {(r.challenge, r.backend): r for r in records}
    balancer_config = store.load_balancer()
    replica_cache: dict[str, list[dict]] = {}
    rows = []
    for name in sorted(topology.challenges):
        spec = topology.challenges[name]
        if spec.backend not in replica_cache:
            replica_cache[spec.backend] = [
                r for r in store.load_replicas(spec.backend)
                if pid_alive(r["pid"])]
        live = [r for r in replica_cache[spec.backend] if r["service"] == name]
        versions = {r["version"] for r in live}
        version = versions.pop() if len(versions) == 1 else spec.version
        record = by_key.get((name, spec.backend))
        if record is not None:
            state = record.state
        else:
            state = STATE_DEPLOYED if len(live) == spec.replica_count \
                else "degraded"
        node_config = balancer_config.get(spec.backend) or {}
        stick = (node_config.get("stick_counts") or {}).get(name, 0)
        rows.append({
            "challenge": name, "backend": spec.backend, "version": version,
            "healthy": len(live), "desired": spec.replica_count,
            "state": state, "port": spec.external_port, "stick": stick,
        })
    return rows
