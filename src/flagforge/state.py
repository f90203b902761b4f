"""The state directory, through which commands coordinate, and its status.

    desired.json        applied topology text + artifact checksums, written
                        by apply/scale, a promotion and the first process on
                        an empty directory; serve only reads it
    replicas-<node>.json  running replica records (pid, port, version, spec),
                        written after each spawn or stop: every pid is on
                        disk before the next action runs
    balancer.json       per-node balancer ports, stick settings and counts,
                        written by a backend's host once per converge and
                        tick; a challenge's network lives with its listener
    ingress.map         frontend port mappings, written once per converge by
                        the frontend's host (when they changed)
    latest-build.txt    deployment status records
    serve-<node>.lock   pid of the serve process hosting a node
    logs/, bundles/     replica logs and materialized artifact payloads
"""

from __future__ import annotations

import ipaddress
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

from ._files import replacing
from .errors import FlagforgeError, IngressError
from .model import Topology, parse_topology, serialize_topology


def _pid_running(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            # field 3 is the state; Z/X means the pid only exists as a zombie
            state = fh.read().rsplit(b")", 1)[1].split()[0]
        return state not in (b"Z", b"X")
    except OSError:
        return True


@dataclass(frozen=True)
class PortMapping:
    """One ``ingress.map`` line: an external port and the listener behind it."""

    external_port: int
    challenge: str
    backend_node: str
    backend_address: str
    balancer_port: int

    def render(self) -> str:
        return (f"{self.external_port} {self.challenge} {self.backend_node}"
                f" {self.backend_address}:{self.balancer_port}")


def serialize_mappings(mappings: Iterable[PortMapping]) -> str:
    return "".join(m.render() + "\n" for m in mappings)


def parse_mappings(text: str) -> tuple[PortMapping, ...]:
    """The mappings of an ``ingress.map`` text, sorted by external port."""
    mappings = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) != 4:
            raise IngressError(f"line {lineno}: expected 4 fields, got {len(fields)}")
        address, sep, balancer_port = fields[3].rpartition(":")
        try:
            external_port = int(fields[0])
            backend_port = int(balancer_port) if sep else 0
            ipaddress.IPv4Address(address)
            if not (1 <= external_port <= 65535 and 1 <= backend_port <= 65535):
                raise ValueError
        except ValueError:
            raise IngressError(f"line {lineno}: malformed mapping {line!r}") from None
        mappings.append(PortMapping(
            external_port=external_port, challenge=fields[1],
            backend_node=fields[2], backend_address=address,
            balancer_port=backend_port))
    return tuple(sorted(mappings, key=lambda m: m.external_port))


def load_mappings(path: Path) -> tuple[PortMapping, ...]:
    path = Path(path)
    return parse_mappings(path.read_text()) if path.exists() else ()


class StateStore:
    """Files under the state directory; writes are atomic and skip no-ops."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self.desired_path = self.root / "desired.json"
        self.balancer_path = self.root / "balancer.json"
        self.ingress_path = self.root / "ingress.map"
        self.status_path = self.root / "latest-build.txt"
        self.logs_dir = self.root / "logs"
        self.bundles_dir = self.root / "bundles"

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
        self._write(path, json.dumps(payload, sort_keys=True) + "\n")

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

    def live_replicas(self, node_id: str,
                      pid_alive: Callable[[int], bool] = _pid_running
                      ) -> list[dict]:
        """The node's recorded replicas whose pid still runs."""
        return [r for r in self.load_replicas(node_id) if pid_alive(r["pid"])]

    def replica_nodes(self) -> list[str]:
        return sorted(p.name[len("replicas-"):-len(".json")]
                      for p in self.root.glob("replicas-*.json"))

    def save_balancer(self, config: dict) -> None:
        self._write_json(self.balancer_path, config)

    def load_balancer(self) -> dict:
        return self._read_json(self.balancer_path, {})

    def save_mappings(self, mappings: Iterable[PortMapping]) -> None:
        self._write(self.ingress_path, serialize_mappings(
            sorted(mappings, key=lambda m: m.external_port)))

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


def status_rows(store: StateStore,
                pid_alive: Callable[[int], bool] = _pid_running) -> list[dict]:
    """One row per desired challenge: live counts joined with status records."""
    persisted = store.load_desired()
    if persisted is None:
        return []
    from .pipeline import STATE_DEPLOYED, read_status
    topology, _ = persisted
    records, _ = read_status(store.status_path)
    by_key = {(r.challenge, r.backend): r for r in records}
    balancer_config = store.load_balancer()
    replica_cache: dict[str, list[dict]] = {}
    rows = []
    for name in sorted(topology.challenges):
        spec = topology.challenges[name]
        if spec.backend not in replica_cache:
            replica_cache[spec.backend] = store.live_replicas(spec.backend,
                                                              pid_alive)
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
