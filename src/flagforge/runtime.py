"""Live cluster runtime: converge the nodes one process hosts.

A ``Cluster`` hosts live runtimes for some of the topology's nodes (those no
serve owns for a one-shot command, a single one inside ``serve``). A converge
plans and runs the actions of the nodes it hosts, from what they alone hold:
each action ``diff`` plans for a node reads only that node's observation. A
hosted backend plans from its live listeners, stick settings and registry,
and reads no state file to do so; a hosted frontend plans from its own
mappings, and reads ``balancer.json`` once for the ports of the backends it
binds to. So no converge reads another node's ``replicas-<node>.json`` or
``ingress.map``. Before the plan runs, each hosted backend is handed its
specs once. It imports ``backend`` only for a backend node it hosts,
``ingress`` only for a hosted frontend, and ``pipeline`` only for a
promotion pass. Replicas run in sessions of their own, so they and their
state (see ``state``) outlive the hosting process: the next command adopts
them back by pid, together with the fingerprint of the spec each one was
started from, so spec drift (a new version, run command or probe) is
planned as a rolling update. After its last action, a converge writes
``balancer.json`` and ``ingress.map`` once; only ``replicas-<node>.json`` is
written per action (see ``state``). It never writes ``desired.json``. A
promotion pass (``pipeline_once``) takes the path ``apply`` takes: it lets
``pipeline`` decide the winning bundles from every node's live replicas,
adds them to ``desired.json`` as it is on disk, writes that file once,
converges once and then writes ``latest-build.txt`` once. A ``serve`` ticks
on its main thread, beside the data plane's loop thread. A frontend
``serve`` converges when ``desired.json`` changes, and each
``probe_interval`` while its last converge had a failed action.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from .errors import FlagforgeError, IngressError, PipelineError, TopologyError
from .model import (MODE_DEV, ROLE_BACKEND, Action, ApplyReport,
                    ObservedState, Topology, apply_changeset, diff,
                    parse_topology, validate_topology)
from .state import PortMapping, StateStore, _wait_readable

if TYPE_CHECKING:
    from .backend import BackendNode
    from .ingress import FrontendNode
    from .pipeline import ArtifactManifest, PipelineReport, StatusRecord


def extract_payload(bundle: Path, target: Path) -> None:
    """``pipeline.extract_payload``; promotion calls it through this name."""
    from .pipeline import extract_payload
    extract_payload(bundle, target)


class Cluster:
    """Hosts live node runtimes over one state directory and converges them,
    executing each planned action on the node it names."""

    def __init__(self, topology: Topology, store: StateStore, *,
                 hosted: list[str] | None = None, bind_listeners: bool = True,
                 clock: Callable[[], float] = time.time, runner_factory=None,
                 prober=None, applied: tuple[Topology, dict] | None = None):
        self.topology = topology
        self.store = store
        self.clock = clock
        self.recorded_ports: dict[str, dict[str, int]] = {}  # see observe
        persisted = applied or store.load_desired()  # unless the caller read it
        if persisted is None:  # the first process on an empty directory
            store.save_desired(topology, {})
        adopted, self.checksums = persisted or (topology, {})
        wanted = set(hosted) if hosted is not None else set(topology.nodes)
        self.backends: dict[str, BackendNode] = {}
        self.frontend: FrontendNode | None = None
        for node_id in sorted(wanted):
            # a retired node, hosted to stop its replicas, is known only there
            home = topology if node_id in topology.nodes else adopted
            node = home.nodes[node_id]
            if node.role == ROLE_BACKEND:
                from .backend import BackendNode
                runner = runner_factory(node, store) if runner_factory else None
                backend = BackendNode(home, node_id, store,
                                      bind_listeners=bind_listeners,
                                      clock=clock, runner=runner, prober=prober)
                backend.adopt(adopted)
                self.backends[node_id] = backend
            else:
                from .ingress import FrontendNode
                self.frontend = FrontendNode(topology, node_id, store,
                                             bind_listeners)

    # --- observation --------------------------------------------------------

    def observe(self) -> ObservedState:
        """What the hosted nodes act on, each from its own live objects."""
        state = ObservedState()
        for node_id, backend in self.backends.items():
            state.balancers[node_id] = set(backend.balancer_ports)
            state.stick_settings[node_id] = backend.stick_settings
            for replica in backend.registry.replicas():
                counts = state.replicas.setdefault(replica.service, {})
                counts[node_id] = counts.get(node_id, 0) + 1
                specs = state.specs.setdefault(replica.service, {})
                specs.setdefault(node_id, set()).add(replica.spec_id)
        if self.frontend is not None:
            self.recorded_ports = {
                node_id: config.get("ports") or {}
                for node_id, config in self.store.load_balancer().items()}
            for mapping in self.frontend.mappings.values():
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
                live[node_id] = self.store.live_replicas(node_id)
        return live

    # --- convergence ----------------------------------------------------------

    def converge(self, topology: Topology | None = None,
                 only_node: str | None = None) -> ApplyReport:
        """Run the plan's actions on the hosted nodes (``only_node``'s alone)."""
        if topology is not None:
            self.topology = topology
        hosted = set(self.backends)
        if self.frontend is not None:
            hosted.add(self.frontend.node_id)
        plan = tuple(a for a in diff(self.topology, self.observe())
                     if a.node in hosted and only_node in (None, a.node))
        rolled = {(a.node, a.challenge) for a in plan if a.kind == "roll_service"}
        for node_id, backend in self.backends.items():
            if only_node not in (None, node_id):
                continue
            supervisor = backend.supervisor
            held = {name: supervisor.desired_spec(name)
                    for name in supervisor.services()}
            # a rolled service keeps a spec it has: its roll moves it on, or
            # back if the roll aborts
            supervisor.desire([held.get(s.name, s) if (node_id, s.name) in rolled
                               else s for s in self.topology.challenges_on(node_id)])
        mapped = dict(self.frontend.mappings) if self.frontend else None
        report = apply_changeset(plan, self)
        # each shared file once per converge, after its node's last action
        for node_id in sorted({a.node for a in plan} & set(self.backends)):
            self.backends[node_id].persist_balancer()
        if self.frontend is not None and self.frontend.mappings != mapped:
            self.store.save_mappings(self.frontend.mappings.values())
        return report

    # --- artifact deployment ---------------------------------------------------

    def pipeline_once(self, mode: str, store_dir: Path,
                      select: list[str] | None = None) -> PipelineReport:
        """One promotion pass: decide, write the desire once, converge once.

        The mode only picks the candidates: dev mode the challenges with
        replicas on a backend this process hosts, deploy mode the selection,
        deployed or not. A recorded checksum counts as deployed only while
        the live replicas (or, with none running, the desired spec) carry
        its version; anything else reads as unknown provenance. A winner
        whose bundle cannot be unpacked, whose spec makes the topology
        invalid, or whose converge actions fail, fails alone.
        """
        from .pipeline import (STATE_DEPLOYED, STATE_FAILED, PipelineOutcome,
                               PipelineReport, StatusRecord, _now_iso,
                               read_status, run_pipeline, write_status)
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
        store_dir = Path(store_dir)
        winners, missing, skipped = run_pipeline(mode, store_dir, view, select)

        failures: dict[str, str] = {}
        if winners:
            # merged into the desire as it is on disk, read once per pass
            self.topology, self.checksums = (self.store.load_desired()
                                             or (self.topology, self.checksums))
        for manifest in winners:
            try:
                self._admit(manifest, store_dir)
            except Exception as exc:
                failures[manifest.challenge] = str(exc)
        if len(failures) < len(winners):
            self.store.save_desired(self.topology, self.checksums)
            report = self.converge()
            for result in report.results:
                if result.outcome != "ok" and result.action.challenge is not None:
                    failures.setdefault(result.action.challenge, result.render())

        outcomes = [PipelineOutcome(name, "-", STATE_FAILED, "no bundle in store")
                    for name in missing]
        outcomes += [PipelineOutcome(
            m.challenge, m.version,
            STATE_FAILED if m.challenge in failures else STATE_DEPLOYED,
            failures.get(m.challenge, "")) for m in winners]
        moment = _now_iso(self.clock)
        records = [StatusRecord(o.challenge, self._backend_of(o.challenge),
                                o.version, o.state, moment) for o in outcomes]
        # this pass's own outcomes are fresh: a failed promotion stays on
        # record although the abort left the old version at full count
        existing, _ = read_status(self.store.status_path)
        written = {o.challenge for o in outcomes}
        stale = {(r.challenge, r.backend): r for r in existing
                 if r.challenge not in written}
        for node_id in sorted(self.backends):
            records += self._repair_status(node_id, stale, moment)
        if records:
            write_status(records, self.store.status_path, existing)
        return PipelineReport(mode=mode, outcomes=tuple(outcomes),
                              skipped=tuple(skipped))

    def _backend_of(self, challenge: str) -> str:
        """The backend a challenge's spec and status records name."""
        held = self.topology.challenges.get(challenge)
        if held is not None:
            return held.backend
        return min(n.node_id for n in self.topology.backends)

    def _admit(self, manifest: ArtifactManifest, store_dir: Path) -> None:
        """Extract a bundle's payload and add its spec to the topology.

        The payload lands in a directory keyed by checksum, and ``{DIR}`` in
        the run command expands to it, so content changes always change the
        effective spec even under a reused version label.
        """
        target = self.store.bundles_dir / (
            f"{manifest.challenge}-{manifest.checksum[:12]}")
        if not target.is_dir():
            bundle = store_dir / manifest.bundle_name
            if not bundle.is_file():
                raise PipelineError(f"bundle {manifest.bundle_name} not in store")
            extract_payload(bundle, target)
        spec = manifest.challenge_spec(
            self._backend_of(manifest.challenge),
            run_command=manifest.run_command.replace("{DIR}", str(target)))
        topology = replace(self.topology, challenges={
            **self.topology.challenges, spec.name: spec})
        validate_topology(topology)
        self.topology = topology
        self.checksums[spec.name] = {"checksum": manifest.checksum,
                                     "version": manifest.version}

    def _repair_status(self, node_id: str,
                       records: dict[tuple[str, str], StatusRecord],
                       moment: str) -> list[StatusRecord]:
        """Fixes for a node's records: live uniform state wins over old lines."""
        from .pipeline import STATE_DEPLOYED, StatusRecord
        backend = self.backends[node_id]
        fixes = []
        for service in backend.supervisor.services():
            record = records.get((service, node_id))
            if record is None:
                continue
            instances = backend.supervisor.instances_of(service)
            versions = {i.version for i in instances}
            if (len(instances) == backend.supervisor.desired_count(service)
                    and len(versions) == 1):
                live = versions.pop()
                if record.version != live or record.state != STATE_DEPLOYED:
                    fixes.append(StatusRecord(service, node_id, live,
                                              STATE_DEPLOYED, moment))
        return fixes

    # --- the executor of a converge's actions ----------------------------------

    def execute(self, action: Action) -> None:
        getattr(self, f"_{action.kind}")(action)

    def _create_network(self, action: Action) -> None:
        # the network is the service's listener
        self.backends[action.node].open_listener(action.challenge)

    def _start_replica(self, action: Action) -> None:
        spec = self.topology.challenges[action.challenge]
        self.backends[action.node].supervisor.start_one(spec)

    def _stop_replica(self, action: Action) -> None:
        self.backends[action.node].supervisor.stop_one(action.challenge)

    def _roll_service(self, action: Action) -> None:
        spec = self.topology.challenges[action.challenge]
        self.backends[action.node].supervisor.rolling_update(spec.name, spec)

    def _update_balancer_config(self, action: Action) -> None:
        self.backends[action.node].balancer.configure(
            self.topology.stick_ttl, self.topology.stick_capacity)

    def _bind_ingress(self, action: Action) -> None:
        spec = self.topology.challenges[action.challenge]
        backend = self.backends.get(spec.backend)
        port = (backend.balancer_ports if backend is not None else
                self.recorded_ports.get(spec.backend, {})).get(spec.name)
        if port is None:
            raise IngressError(
                f"{spec.name}: no balancer port bound on {spec.backend}")
        self.frontend.bind(PortMapping(
            external_port=action.external_port, challenge=spec.name,
            backend_node=spec.backend,
            backend_address=self.topology.nodes[spec.backend].bind_address,
            balancer_port=port))

    def _unbind_ingress(self, action: Action) -> None:
        self.frontend.unbind(action.external_port)

    def _remove_network(self, action: Action) -> None:
        self.backends[action.node].remove_service(action.challenge)

    # --- lifecycle ---------------------------------------------------------------

    def shutdown(self, stop_replicas: bool = False) -> None:
        for backend in self.backends.values():
            backend.close(stop_replicas=stop_replicas)
        if self.frontend is not None:
            self.frontend.close()


TICK = 0.5  # seconds between a serve's ticks once its replicas are up


class NodeService:
    """What ``serve`` runs: host one node and keep it converged until stopped.

    ``start`` converges once, ``run`` ticks on the calling thread until a
    stop signal, and ``stop`` shuts the node down; no thread of its own.
    """

    def __init__(self, topology_path: Path | None, node_id: str,
                 state_root: Path, store_dir: Path | None = None,
                 clock: Callable[[], float] = time.time):
        self.store = StateStore(state_root)
        # noted before the read: a write after it is seen by the next tick
        self._desired_mtime = self._mtime()
        persisted = self.store.load_desired()
        if persisted is not None:
            topology, _ = persisted
        elif topology_path is None:
            raise FlagforgeError("no applied topology and no --topology file")
        else:
            topology = parse_topology(Path(topology_path).read_text())
        if node_id not in topology.nodes:
            raise TopologyError(f"unknown node {node_id!r}")
        self.node_id = node_id
        self.store_dir = Path(store_dir) if store_dir is not None else None
        self.clock = clock
        self.store.acquire_lock(node_id, os.getpid())
        try:
            self.cluster = Cluster(topology, self.store, hosted=[node_id],
                                   bind_listeners=True, clock=clock,
                                   applied=persisted)
        except Exception:
            self.store.release_lock(node_id)
            raise
        self.backend = self.cluster.backends.get(node_id)
        self._last_probe = 0.0
        self._last_poll = self.clock()
        self._report = ApplyReport()  # of the last converge

    def start(self) -> list[str]:
        """The first converge; returns fatal bind failures."""
        self._report = self.cluster.converge()
        if self.backend is None:
            return self.cluster.frontend.bind_failures()
        # a probe pass like a tick's: the next one is a probe_interval away
        self._last_probe = self.clock()
        self.backend.supervisor.probe_all(self._last_probe)
        return []

    def _mtime(self) -> float:
        try:
            return self.store.desired_path.stat().st_mtime
        except OSError:
            return 0.0

    def _wait(self) -> float:
        # while a replica has yet to answer, wake often enough that it takes
        # players within READY_POLL of its first passing probe
        if self.backend is not None and self.backend.supervisor.booting():
            from .supervisor import READY_POLL
            return READY_POLL
        return TICK

    def run(self, stop: int) -> None:
        """Tick on the calling thread until ``stop``, a descriptor that the
        stop signals' handlers write to, is readable.

        The wait between ticks also ends when a replica of a desired service
        exits: the node is reconciled at once, so its replacement spawns
        without waiting for a probe pass. Each exit ends one wait.
        """
        woke: set[str] = set()  # replicas whose exit has ended a wait
        while True:
            exits = self._replica_exits()
            woke &= set(exits.values())
            ready = _wait_readable(
                [stop, *(fd for fd, r in exits.items() if r not in woke)],
                self._wait())
            if stop in ready:
                return
            exited = {exits[fd] for fd in ready if fd in exits}
            woke |= exited
            try:
                if exited:
                    self.backend.supervisor.reconcile_all()
                self.tick_once()
            except Exception:
                import traceback  # logging's last-resort output, unimported
                print(f"serve tick for {self.node_id} failed", file=sys.stderr)
                traceback.print_exc()

    def _replica_exits(self) -> dict[int, str]:
        """Replica ids of the desired services' replicas, by pidfd."""
        if self.backend is None:
            return {}
        desired = set(self.backend.supervisor.services())
        return {r.handle.pidfd: r.replica_id
                for r in self.backend.registry.replicas()
                if r.service in desired and r.handle.pidfd is not None}

    def tick_once(self) -> None:
        now = self.clock()
        mtime = self._mtime()
        if mtime != self._desired_mtime:
            persisted = self.store.load_desired()
            if persisted is not None:
                self.cluster.topology, self.cluster.checksums = persisted
                self._report = self.cluster.converge()
            self._desired_mtime = mtime  # not before: a raise is retried
        if self.backend is not None:
            topology = self.cluster.topology
            if now - self._last_probe >= topology.probe_interval:
                self._last_probe = now
                self.backend.tick()
            else:
                self.backend.supervisor.probe_starting()
            if (self.store_dir is not None
                    and now - self._last_poll >= topology.poll_interval):
                self._last_poll = now
                self.cluster.pipeline_once(MODE_DEV, self.store_dir)
        elif (not self._report.all_ok
              and now - self._last_probe >= self.cluster.topology.probe_interval):
            # a failed bind (its backend's port not on record yet, or its own
            # port taken) is not recorded, so this converge plans it again
            self._last_probe = now
            self._report = self.cluster.converge()

    def stop(self) -> None:
        self.cluster.shutdown(stop_replicas=self.backend is not None)
        self.store.release_lock(self.node_id)
