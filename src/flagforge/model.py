"""Declarative topology: parse, validate, serialize, diff, and apply.

The topology document is line-oriented text. Three declaration kinds exist,
one line each (wrapped here):

    node <node_id> role=<frontend|backend> bind=<ip> ports=<lo>-<hi>
    challenge <name> version=<v> replicas=<n> external_port=<q>
        backend=<node_id> run="<cmd with {PORT}>" probe=tcp[:<banner-prefix>]
    set stick_ttl=<s> stick_capacity=<n> poll_interval=<s> probe_interval=<s>

`#` starts a comment, blank lines are ignored, double quotes group a value
containing spaces. ``parse_topology`` and ``diff`` are pure; ``apply_changeset``
drives an executor and must be called from a single control actor at a time.
"""

from __future__ import annotations

import ipaddress
import re
from dataclasses import dataclass, field
from typing import Protocol

from .errors import TopologyError

NAME_RE = re.compile(r"[a-z0-9-]+\Z")
# versions appear unquoted in documents and status lines: no whitespace, quote,
# or comment characters
VERSION_RE = re.compile(r"[^\s\"#]+\Z")

DEFAULT_STICK_TTL = 3600
DEFAULT_STICK_CAPACITY = 65536
DEFAULT_POLL_INTERVAL = 60
DEFAULT_PROBE_INTERVAL = 5

ROLE_FRONTEND = "frontend"
ROLE_BACKEND = "backend"

# promotion modes: dev rolls what is deployed, deploy the selection
MODE_DEV = "dev"
MODE_DEPLOY = "deploy"


def network_id(challenge: str) -> str:
    """The private network of a challenge, named after it."""
    return f"net-{challenge}"


@dataclass(frozen=True)
class ProbeSpec:
    """Health probe, ``tcp`` or ``tcp:<banner>``: a TCP connect, optionally
    expecting a banner prefix. TCP is the only kind."""

    banner: str | None = None

    @classmethod
    def from_text(cls, text: str) -> "ProbeSpec":
        kind, sep, banner = text.partition(":")
        if kind != "tcp":
            raise ValueError(f"unsupported probe kind {kind!r}")
        return cls(banner=banner if sep and banner else None)

    def render(self) -> str:
        return "tcp" if self.banner is None else f"tcp:{self.banner}"


@dataclass(frozen=True)
class NodeSpec:
    node_id: str
    role: str
    bind_address: str
    port_range: tuple[int, int]

    @property
    def port_count(self) -> int:
        return self.port_range[1] - self.port_range[0] + 1


@dataclass(frozen=True)
class ChallengeSpec:
    name: str
    version: str
    replica_count: int
    external_port: int
    backend: str
    run_command: str
    probe: ProbeSpec

    @property
    def fingerprint(self) -> str:
        """Short digest of what a replica runs: version, run command, probe."""
        import hashlib  # only where replicas run: a frontend never loads it
        text = "\0".join((self.version, self.run_command, self.probe.render()))
        return hashlib.sha256(text.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class Topology:
    nodes: dict[str, NodeSpec]
    challenges: dict[str, ChallengeSpec]
    stick_ttl: int = DEFAULT_STICK_TTL
    stick_capacity: int = DEFAULT_STICK_CAPACITY
    poll_interval: int = DEFAULT_POLL_INTERVAL
    probe_interval: int = DEFAULT_PROBE_INTERVAL

    @property
    def frontend(self) -> NodeSpec:
        return next(n for n in self.nodes.values() if n.role == ROLE_FRONTEND)

    @property
    def backends(self) -> list[NodeSpec]:
        return [n for n in self.nodes.values() if n.role == ROLE_BACKEND]

    def challenges_on(self, node_id: str) -> list[ChallengeSpec]:
        out = [c for c in self.challenges.values() if c.backend == node_id]
        out.sort(key=lambda c: c.name)
        return out


@dataclass
class ObservedState:
    """Snapshot of what is actually running, gathered before a diff.

    ``replicas`` counts non-stopped replicas per challenge per node, and
    ``specs`` holds the spec fingerprints those replicas were started from;
    ``ingress`` maps an external port to the (challenge, backend node) it
    forwards to; ``balancers`` lists the services each backend has a listener
    for, and ``stick_settings`` the (ttl, capacity) those listeners run with.
    A challenge's network lives with its listener: it is provisioned exactly
    while a backend's listener set holds it.
    """

    replicas: dict[str, dict[str, int]] = field(default_factory=dict)
    specs: dict[str, dict[str, set[str]]] = field(default_factory=dict)
    ingress: dict[int, tuple[str, str]] = field(default_factory=dict)
    balancers: dict[str, set[str]] = field(default_factory=dict)
    stick_settings: dict[str, tuple[int, int]] = field(default_factory=dict)


@dataclass(frozen=True)
class Action:
    kind: str
    challenge: str | None = None
    node: str | None = None
    external_port: int | None = None

    def describe(self) -> str:
        if self.kind in ("create_network", "remove_network"):
            return f"{self.kind} {network_id(self.challenge)} on {self.node}"
        if self.kind in ("start_replica", "stop_replica", "roll_service"):
            return f"{self.kind} {self.challenge} on {self.node}"
        if self.kind == "update_balancer_config":
            return f"{self.kind} {self.node}"
        return f"{self.kind} {self.external_port} {self.challenge}"


class Executor(Protocol):
    def execute(self, action: Action) -> None: ...


@dataclass
class ActionResult:
    action: Action
    outcome: str  # ok | failed | skipped
    detail: str = ""

    def render(self) -> str:
        line = f"{self.action.describe()} {self.outcome}"
        return f"{line} ({self.detail})" if self.detail else line


@dataclass
class ApplyReport:
    results: list[ActionResult] = field(default_factory=list)

    @property
    def ok(self) -> int:
        return sum(1 for r in self.results if r.outcome == "ok")

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if r.outcome == "failed")

    @property
    def all_ok(self) -> bool:
        return self.failed == 0

    def render(self) -> str:
        lines = [r.render() for r in self.results]
        lines.append(f"{self.ok} changed, {self.failed} failed, "
                     f"{len(self.results) - self.ok - self.failed} skipped")
        return "\n".join(lines)


# --- parsing ---------------------------------------------------------------


def _split_fields(line: str, lineno: int) -> list[tuple[int, str]]:
    """Split one line into (column, text) fields, honoring quotes and comments."""
    fields: list[tuple[int, str]] = []
    start = -1
    parts: list[str] = []
    i, n = 0, len(line)
    while i < n:
        ch = line[i]
        if ch == '"':
            closing = line.find('"', i + 1)
            if closing < 0:
                raise TopologyError("unterminated quote", line=lineno, column=i + 1)
            if start < 0:
                start = i
            parts.append(line[i + 1:closing])
            i = closing + 1
        elif ch in " \t":
            if start >= 0:
                fields.append((start + 1, "".join(parts)))
                start, parts = -1, []
            i += 1
        elif ch == "#":
            break
        else:
            if start < 0:
                start = i
            parts.append(ch)
            i += 1
    if start >= 0:
        fields.append((start + 1, "".join(parts)))
    return fields


def _keyvalues(fields: list[tuple[int, str]], lineno: int,
               allowed: set[str]) -> dict[str, tuple[int, str]]:
    out: dict[str, tuple[int, str]] = {}
    for col, text in fields:
        key, sep, value = text.partition("=")
        if not sep or not key:
            raise TopologyError(f"expected key=value, got {text!r}",
                                line=lineno, column=col)
        if key not in allowed:
            raise TopologyError(f"unknown key {key!r}", line=lineno, column=col)
        if key in out:
            raise TopologyError(f"duplicate key {key!r}", line=lineno, column=col)
        out[key] = (col, value)
    return out


def _require(kv: dict[str, tuple[int, str]], keys: list[str], lineno: int) -> None:
    for key in keys:
        if key not in kv:
            raise TopologyError(f"missing required key {key!r}", line=lineno)


def _int_value(kv: dict[str, tuple[int, str]], key: str, lineno: int,
               minimum: int = 1, maximum: int = 2 ** 31) -> int:
    col, raw = kv[key]
    try:
        value = int(raw)
    except ValueError:
        raise TopologyError(f"{key} must be an integer, got {raw!r}",
                            line=lineno, column=col) from None
    if not minimum <= value <= maximum:
        raise TopologyError(f"{key} out of range: {value}", line=lineno, column=col)
    return value


def _parse_node(name_col: int, name: str, fields: list[tuple[int, str]],
                lineno: int) -> NodeSpec:
    if not NAME_RE.match(name):
        raise TopologyError(f"invalid node id {name!r}", line=lineno, column=name_col)
    kv = _keyvalues(fields, lineno, {"role", "bind", "ports"})
    _require(kv, ["role", "bind", "ports"], lineno)
    col, role = kv["role"]
    if role not in (ROLE_FRONTEND, ROLE_BACKEND):
        raise TopologyError(f"role must be frontend or backend, got {role!r}",
                            line=lineno, column=col)
    col, bind = kv["bind"]
    try:
        ipaddress.IPv4Address(bind)
    except ValueError:
        raise TopologyError(f"invalid IPv4 address {bind!r}",
                            line=lineno, column=col) from None
    col, ports = kv["ports"]
    m = re.match(r"(\d+)-(\d+)\Z", ports)
    if not m:
        raise TopologyError(f"ports must be <lo>-<hi>, got {ports!r}",
                            line=lineno, column=col)
    lo, hi = int(m.group(1)), int(m.group(2))
    if not (1 <= lo <= hi <= 65535):
        raise TopologyError(f"empty or invalid port range {ports}",
                            line=lineno, column=col)
    return NodeSpec(node_id=name, role=role, bind_address=bind, port_range=(lo, hi))


def _parse_challenge(name_col: int, name: str, fields: list[tuple[int, str]],
                     lineno: int) -> ChallengeSpec:
    if not NAME_RE.match(name):
        raise TopologyError(f"invalid challenge name {name!r}",
                            line=lineno, column=name_col)
    # internal_port, which older documents carry, is accepted and ignored
    kv = _keyvalues(fields, lineno, {"version", "replicas", "internal_port",
                                     "external_port", "backend", "run", "probe"})
    _require(kv, ["version", "replicas", "external_port", "backend", "run"],
             lineno)
    col, version = kv["version"]
    if not VERSION_RE.match(version):
        raise TopologyError(f"invalid version {version!r}", line=lineno, column=col)
    col, run_command = kv["run"]
    if not run_command:
        raise TopologyError("run command is empty", line=lineno, column=col)
    probe = ProbeSpec()
    if "probe" in kv:
        col, raw = kv["probe"]
        try:
            probe = ProbeSpec.from_text(raw)
        except ValueError as exc:
            raise TopologyError(str(exc), line=lineno, column=col) from None
    return ChallengeSpec(
        name=name,
        version=version,
        replica_count=_int_value(kv, "replicas", lineno),
        external_port=_int_value(kv, "external_port", lineno, maximum=65535),
        backend=kv["backend"][1],
        run_command=run_command,
        probe=probe,
    )


def validate_topology(topology: Topology) -> None:
    """Check cross-declaration invariants; raises TopologyError naming the rule."""
    frontends = [n for n in topology.nodes.values() if n.role == ROLE_FRONTEND]
    if len(frontends) != 1:
        raise TopologyError(f"exactly one frontend node required, found {len(frontends)}")
    lo, hi = frontends[0].port_range
    seen_ports: dict[int, str] = {}
    for spec in topology.challenges.values():
        owner = seen_ports.get(spec.external_port)
        if owner is not None:
            raise TopologyError(f"duplicate external_port {spec.external_port}")
        seen_ports[spec.external_port] = spec.name
        node = topology.nodes.get(spec.backend)
        if node is None:
            raise TopologyError(
                f"challenge {spec.name} references unknown backend {spec.backend!r}")
        if node.role != ROLE_BACKEND:
            raise TopologyError(
                f"challenge {spec.name} backend {spec.backend!r} is not a backend node")
        if not lo <= spec.external_port <= hi:
            raise TopologyError(
                f"challenge {spec.name} external_port {spec.external_port}"
                f" is outside {frontends[0].node_id}'s ports {lo}-{hi}")
        if not VERSION_RE.match(spec.version):
            raise TopologyError(f"challenge {spec.name} has invalid version")
        for label, text in (("run command", spec.run_command),
                            ("probe banner", spec.probe.banner or "")):
            if any(ch in text for ch in "\"\n\r"):
                raise TopologyError(
                    f"challenge {spec.name} {label} contains unsupported characters")
    for node in topology.backends:
        # each challenge needs its replicas plus one balancer listener port
        need = sum(c.replica_count + 1 for c in topology.challenges_on(node.node_id))
        if need > node.port_count:
            raise TopologyError(
                f"port_range of {node.node_id} too small: {need} ports needed, "
                f"{node.port_count} available")


def parse_topology(document: str) -> Topology:
    nodes: dict[str, NodeSpec] = {}
    challenges: dict[str, ChallengeSpec] = {}
    settings: dict[str, int] = {}
    for lineno, raw in enumerate(document.splitlines(), start=1):
        fields = _split_fields(raw, lineno)
        if not fields:
            continue
        col, head = fields[0]
        if head == "node":
            if len(fields) < 2:
                raise TopologyError("node declaration needs an id", line=lineno)
            name_col, name = fields[1]
            if name in nodes:
                raise TopologyError(f"duplicate node id {name!r}",
                                    line=lineno, column=name_col)
            nodes[name] = _parse_node(name_col, name, fields[2:], lineno)
        elif head == "challenge":
            if len(fields) < 2:
                raise TopologyError("challenge declaration needs a name", line=lineno)
            name_col, name = fields[1]
            if name in challenges:
                raise TopologyError(f"duplicate challenge {name!r}",
                                    line=lineno, column=name_col)
            challenges[name] = _parse_challenge(name_col, name, fields[2:], lineno)
        elif head == "set":
            kv = _keyvalues(fields[1:], lineno, {"stick_ttl", "stick_capacity",
                                                 "poll_interval", "probe_interval"})
            for key in kv:
                if key in settings:
                    raise TopologyError(f"duplicate key {key!r}", line=lineno)
                settings[key] = _int_value(kv, key, lineno)
        else:
            raise TopologyError(f"unknown declaration {head!r}",
                                line=lineno, column=col)
    topology = Topology(
        nodes=dict(sorted(nodes.items())),
        challenges=dict(sorted(challenges.items())),
        stick_ttl=settings.get("stick_ttl", DEFAULT_STICK_TTL),
        stick_capacity=settings.get("stick_capacity", DEFAULT_STICK_CAPACITY),
        poll_interval=settings.get("poll_interval", DEFAULT_POLL_INTERVAL),
        probe_interval=settings.get("probe_interval", DEFAULT_PROBE_INTERVAL),
    )
    validate_topology(topology)
    return topology


def serialize_topology(topology: Topology) -> str:
    """Render the canonical text form; parse(serialize(t)) == t."""
    lines = [
        f"set stick_ttl={topology.stick_ttl} stick_capacity={topology.stick_capacity}"
        f" poll_interval={topology.poll_interval}"
        f" probe_interval={topology.probe_interval}"
    ]
    for node in sorted(topology.nodes.values(), key=lambda n: n.node_id):
        lines.append(f"node {node.node_id} role={node.role} bind={node.bind_address}"
                     f" ports={node.port_range[0]}-{node.port_range[1]}")
    for spec in sorted(topology.challenges.values(), key=lambda c: c.name):
        probe = spec.probe.render()
        if any(ch in probe for ch in " \t#"):
            probe = f'"{probe}"'
        lines.append(
            f"challenge {spec.name} version={spec.version}"
            f" replicas={spec.replica_count} external_port={spec.external_port}"
            f" backend={spec.backend}"
            f' run="{spec.run_command}" probe={probe}')
    return "\n".join(lines) + "\n"


# --- convergence planning ---------------------------------------------------


def diff(desired: Topology, observed: ObservedState) -> tuple[Action, ...]:
    """Plan the minimal ordered actions turning observed state into desired.

    Phase order: create_network, roll_service, start_replica,
    update_balancer_config, bind_ingress, stop_replica, unbind_ingress,
    remove_network. Creation precedes binding so no ingress ever points at a
    service without replicas; removal stops replicas before dropping their
    ingress and network. A challenge's network is its listener: create_network
    opens it on the challenge's backend, remove_network closes it on any other
    backend, a retired one too, so a move closes the old listener only after
    ingress has left it.
    update_balancer_config only retunes a node's stick settings. One
    roll_service per challenge replaces the replicas on its backend that run
    another spec (version, run command or probe). It runs before the scale
    actions: the roll still sees the previous spec to revert to, replicas
    added by a scale-up start from the new spec, and a scale-down stops rolled
    replicas, so drift plus a count change converges in one apply. Every
    action names the node that carries it out: ingress actions the frontend.
    """
    actions: list[Action] = []
    frontend = desired.frontend.node_id
    backends = sorted(n.node_id for n in desired.backends)
    for name in sorted(desired.challenges):
        spec = desired.challenges[name]
        if name not in observed.balancers.get(spec.backend, set()):
            actions.append(Action("create_network", challenge=name,
                                  node=spec.backend))

    for name in sorted(desired.challenges):
        spec = desired.challenges[name]
        running = observed.specs.get(name, {}).get(spec.backend, set())
        if running and running - {spec.fingerprint}:
            actions.append(Action("roll_service", challenge=name, node=spec.backend))

    for name in sorted(desired.challenges):
        spec = desired.challenges[name]
        have = observed.replicas.get(name, {}).get(spec.backend, 0)
        for _ in range(max(0, spec.replica_count - have)):
            actions.append(Action("start_replica", challenge=name, node=spec.backend))

    stick = (desired.stick_ttl, desired.stick_capacity)
    for node in backends:
        if observed.stick_settings.get(node, stick) != stick:
            actions.append(Action("update_balancer_config", node=node))

    for spec in sorted(desired.challenges.values(), key=lambda c: c.external_port):
        if observed.ingress.get(spec.external_port) != (spec.name, spec.backend):
            actions.append(Action("bind_ingress", challenge=spec.name, node=frontend,
                                  external_port=spec.external_port))

    for name in sorted(set(observed.replicas) | set(desired.challenges)):
        spec = desired.challenges.get(name)
        for node in sorted(observed.replicas.get(name, {})):
            have = observed.replicas[name][node]
            want = spec.replica_count if spec and spec.backend == node else 0
            for _ in range(max(0, have - want)):
                actions.append(Action("stop_replica", challenge=name, node=node))

    desired_ports = {c.external_port for c in desired.challenges.values()}
    for port in sorted(observed.ingress):
        # a port rebound to another challenge is overwritten by its bind action
        if port not in desired_ports:
            actions.append(Action("unbind_ingress", node=frontend,
                                  challenge=observed.ingress[port][0],
                                  external_port=port))

    for node in sorted(observed.balancers):  # a retired node's too
        want = {c.name for c in desired.challenges_on(node)}
        for name in sorted(observed.balancers[node] - want):
            actions.append(Action("remove_network", challenge=name, node=node))
    return tuple(actions)


def apply_changeset(plan: tuple[Action, ...], executor: Executor) -> ApplyReport:
    """Run each action through the executor, collecting per-action outcomes.

    A failed action taints its challenge: later actions for that challenge are
    skipped (except unbind_ingress, which only reduces exposure), so a partial
    apply never leaves ingress bound to a challenge whose replicas failed.
    """
    report = ApplyReport()
    tainted: set[str] = set()
    for action in plan:
        if (action.challenge in tainted and action.kind != "unbind_ingress"):
            report.results.append(ActionResult(
                action, "skipped", f"earlier action for {action.challenge} failed"))
            continue
        try:
            executor.execute(action)
        except Exception as exc:
            if action.challenge is not None:
                tainted.add(action.challenge)
            report.results.append(ActionResult(action, "failed", str(exc)))
        else:
            report.results.append(ActionResult(action, "ok"))
    return report
