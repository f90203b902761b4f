"""Topology parsing, round-trip, diff planning, and apply bookkeeping."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagforge.errors import TopologyError
from flagforge.model import (
    Action,
    ChallengeSpec,
    NodeSpec,
    ObservedState,
    ProbeSpec,
    Topology,
    apply_changeset,
    diff,
    network_id,
    parse_topology,
    serialize_topology,
    validate_topology,
)

MINIMAL = """
# two nodes, nothing deployed
node edge role=frontend bind=127.0.0.1 ports=9000-9999
node worker role=backend bind=127.0.0.1 ports=20000-20999
"""

ONE_CHALLENGE = MINIMAL + (
    "challenge web-pwn version=v1 replicas=3 internal_port=8080"
    " external_port=9001 backend=worker"
    ' run="python3 server.py --port {PORT}" probe=tcp:hello\n')

TWO_CHALLENGES = MINIMAL + """
challenge alpha version=v1 replicas=2 internal_port=4000 external_port=9001 backend=worker run="run-a {PORT}" probe=tcp
challenge beta version=v2 replicas=3 internal_port=4000 external_port=9002 backend=worker run="run-b {PORT}" probe=tcp
"""


class StateExecutor:
    """Mirrors the runtime's bookkeeping onto an ObservedState.

    Lets diff/apply be exercised as a closed loop without sockets or
    processes: each action mutates the observed snapshot exactly the way the
    real executor mutates the world.
    """

    def __init__(self, desired: Topology, state: ObservedState,
                 fail_on: frozenset[tuple[str, str]] = frozenset()):
        self.desired = desired
        self.state = state
        self.fail_on = fail_on

    def execute(self, action: Action) -> None:
        if (action.kind, action.challenge) in self.fail_on:
            raise RuntimeError("injected failure")
        s, d = self.state, self.desired
        if action.kind == "create_network":
            s.balancers.setdefault(action.node, set()).add(action.challenge)
            # a node's first listener runs with the desired settings; an
            # existing node keeps its own until update_balancer_config
            s.stick_settings.setdefault(action.node, (d.stick_ttl, d.stick_capacity))
        elif action.kind == "start_replica":
            per_node = s.replicas.setdefault(action.challenge, {})
            per_node[action.node] = per_node.get(action.node, 0) + 1
        elif action.kind == "update_balancer_config":
            s.stick_settings[action.node] = (d.stick_ttl, d.stick_capacity)
        elif action.kind == "bind_ingress":
            spec = d.challenges[action.challenge]
            s.ingress[action.external_port] = (spec.name, spec.backend)
        elif action.kind == "stop_replica":
            per_node = s.replicas[action.challenge]
            per_node[action.node] -= 1
            if per_node[action.node] <= 0:
                del per_node[action.node]
            if not per_node:
                del s.replicas[action.challenge]
        elif action.kind == "unbind_ingress":
            del s.ingress[action.external_port]
        elif action.kind == "remove_network":
            s.balancers[action.node].discard(action.challenge)
        else:
            raise AssertionError(f"unknown action kind {action.kind}")


def converge(desired: Topology, state: ObservedState | None = None) -> ObservedState:
    state = state if state is not None else ObservedState()
    report = apply_changeset(diff(desired, state), StateExecutor(desired, state))
    assert report.all_ok
    return state


# --- parsing ----------------------------------------------------------------


def test_minimal_document():
    topo = parse_topology(MINIMAL)
    assert len(topo.nodes) == 2
    assert topo.challenges == {}
    assert topo.frontend.node_id == "edge"
    assert [n.node_id for n in topo.backends] == ["worker"]


def test_challenge_fields_echoed():
    topo = parse_topology(ONE_CHALLENGE)
    spec = topo.challenges["web-pwn"]
    assert spec.version == "v1"
    assert spec.replica_count == 3
    assert spec.internal_port == 8080
    assert spec.external_port == 9001
    assert spec.backend == "worker"
    assert spec.run_command == "python3 server.py --port {PORT}"
    assert spec.probe == ProbeSpec(banner="hello")
    assert network_id(spec.name) == "net-web-pwn"


def test_spec_fingerprints_are_pinned():
    # a fingerprint that changed would roll every adopted replica on upgrade
    topo = parse_topology(TWO_CHALLENGES.replace(
        'run-b {PORT}" probe=tcp', 'run-b {PORT}" probe=tcp:FLAGD'))
    alpha, beta = topo.challenges["alpha"], topo.challenges["beta"]
    assert (alpha.probe.render(), alpha.fingerprint) == ("tcp", "a29d7f3e4cb9")
    assert (beta.probe.render(), beta.fingerprint) == (
        "tcp:FLAGD", "657ac0b0a7c1")


def test_round_trip_example_field_by_field():
    first = parse_topology(ONE_CHALLENGE)
    second = parse_topology(serialize_topology(first))
    assert second.nodes == first.nodes
    assert second.challenges == first.challenges
    assert (second.stick_ttl, second.stick_capacity) == (first.stick_ttl,
                                                         first.stick_capacity)
    assert second == first


def test_duplicate_external_port():
    doc = MINIMAL + (
        "challenge a version=v1 replicas=1 internal_port=1 external_port=9001"
        " backend=worker run=\"x {PORT}\"\n"
        "challenge b version=v1 replicas=1 internal_port=1 external_port=9001"
        " backend=worker run=\"x {PORT}\"\n")
    with pytest.raises(TopologyError, match="duplicate external_port 9001"):
        parse_topology(doc)


def test_settings_defaults_and_overrides():
    topo = parse_topology(MINIMAL)
    assert (topo.stick_ttl, topo.stick_capacity) == (3600, 65536)
    assert (topo.poll_interval, topo.probe_interval) == (60, 5)
    topo = parse_topology("set stick_ttl=120 probe_interval=2\n" + MINIMAL)
    assert topo.stick_ttl == 120
    assert topo.probe_interval == 2
    assert topo.stick_capacity == 65536


@pytest.mark.parametrize("doc,message", [
    ("node edge role=frontend bind=127.0.0.1 ports=9000-9999\n"
     "node edge role=backend bind=127.0.0.1 ports=1-9\n", "duplicate node id"),
    ("bogus x y=1\n", "unknown declaration"),
    ("node edge role=frontend bind=127.0.0.1 ports=9000-8000\n", "port range"),
    ("node edge role=frontend bind=127.0.0.1.9 ports=1-2\n", "invalid IPv4"),
    ("node edge role=sideways bind=127.0.0.1 ports=1-2\n", "role must be"),
    ("node edge role=frontend bind=127.0.0.1\n", "missing required key"),
    ("node edge role=frontend bind=127.0.0.1 ports=1-2 color=red\n", "unknown key"),
    ('node Edge role=frontend bind=127.0.0.1 ports=1-2\n', "invalid node id"),
    ('challenge web version=v1 replicas=0 internal_port=1 external_port=2'
     ' backend=w run="x"\n', "replicas out of range"),
    ('challenge web version="a b" replicas=1 internal_port=1 external_port=2'
     ' backend=w run="x"\n', "invalid version"),
    ('node e role=frontend bind=127.0.0.1 ports="1-2\n', "unterminated quote"),
    ("set stick_ttl=1\nset stick_ttl=2\n" + MINIMAL, "duplicate key"),
    (MINIMAL + 'challenge web version=v1 replicas=1 internal_port=1'
     ' external_port=2 backend=ghost run="x"\n', "unknown backend"),
    (MINIMAL + 'challenge web version=v1 replicas=1 internal_port=1'
     ' external_port=2 backend=edge run="x"\n', "not a backend node"),
    ("node f role=frontend bind=127.0.0.1 ports=1-2\n", ""),  # valid: no backend
])
def test_parse_errors(doc, message):
    if not message:
        parse_topology(doc)
        return
    with pytest.raises(TopologyError, match=message):
        parse_topology(doc)


def test_error_carries_position():
    try:
        parse_topology("node edge role=nope bind=127.0.0.1 ports=1-2\n")
    except TopologyError as exc:
        assert exc.line == 1
        assert exc.column == 11
        assert "line 1" in str(exc)
    else:
        pytest.fail("expected TopologyError")


def test_frontend_count_enforced():
    with pytest.raises(TopologyError, match="exactly one frontend"):
        parse_topology("node w role=backend bind=127.0.0.1 ports=1-2\n")
    with pytest.raises(TopologyError, match="exactly one frontend"):
        parse_topology("node a role=frontend bind=127.0.0.1 ports=1-2\n"
                       "node b role=frontend bind=127.0.0.1 ports=1-2\n")


def test_port_capacity_check():
    doc = ("node e role=frontend bind=127.0.0.1 ports=9000-9001\n"
           "node w role=backend bind=127.0.0.1 ports=20000-20002\n"
           'challenge web version=v1 replicas=5 internal_port=1 external_port=9001'
           ' backend=w run="x {PORT}"\n')
    with pytest.raises(TopologyError, match="too small"):
        parse_topology(doc)


def test_comment_and_quote_handling():
    doc = MINIMAL + ('challenge web version=v1 replicas=1 internal_port=1 '
                     'external_port=9001 backend=worker '
                     'run="serve # not a comment" probe="tcp:a b" # trailing\n')
    spec = parse_topology(doc).challenges["web"]
    assert spec.run_command == "serve # not a comment"
    assert spec.probe.banner == "a b"


# --- round-trip property ----------------------------------------------------

names = st.from_regex(r"[a-z][a-z0-9-]{0,8}", fullmatch=True)
versions = st.from_regex(r"[a-zA-Z0-9][a-zA-Z0-9._-]{0,10}", fullmatch=True)
run_commands = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789 {}PORT#./_-",
    min_size=1, max_size=40)
banners = st.none() | st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789 :#._-",
    min_size=1, max_size=20)


@st.composite
def topologies(draw) -> Topology:
    node_ids = draw(st.lists(names, min_size=2, max_size=4, unique=True))
    frontend_id, backend_ids = node_ids[0], node_ids[1:]
    nodes = {frontend_id: NodeSpec(frontend_id, "frontend", "127.0.0.1",
                                   (9000, 9999))}
    for i, node_id in enumerate(backend_ids):
        lo = 20000 + 1000 * i
        nodes[node_id] = NodeSpec(node_id, "backend", "127.0.0.1", (lo, lo + 999))
    challenge_names = draw(st.lists(names, max_size=4, unique=True))
    external_ports = draw(st.lists(st.integers(1024, 8999),
                                   min_size=len(challenge_names),
                                   max_size=len(challenge_names), unique=True))
    challenges = {}
    for name, port in zip(challenge_names, external_ports):
        challenges[name] = ChallengeSpec(
            name=name,
            version=draw(versions),
            replica_count=draw(st.integers(1, 4)),
            internal_port=draw(st.integers(1, 65535)),
            external_port=port,
            backend=draw(st.sampled_from(backend_ids)),
            run_command=draw(run_commands),
            probe=ProbeSpec(banner=draw(banners)),
        )
    topology = Topology(
        nodes=nodes,
        challenges=challenges,
        stick_ttl=draw(st.integers(1, 10 ** 6)),
        stick_capacity=draw(st.integers(1, 10 ** 6)),
        poll_interval=draw(st.integers(1, 10 ** 4)),
        probe_interval=draw(st.integers(1, 10 ** 4)),
    )
    validate_topology(topology)
    return topology


@given(topologies())
@settings(max_examples=100)
def test_round_trip_property(topology):
    assert parse_topology(serialize_topology(topology)) == topology


@given(topologies())
@settings(max_examples=50)
def test_serialize_deterministic(topology):
    assert serialize_topology(topology) == serialize_topology(topology)


# --- diff -------------------------------------------------------------------


def test_diff_fixed_point():
    topo = parse_topology(ONE_CHALLENGE)
    state = converge(topo)
    assert diff(topo, state) == ()


def count_kind(plan: tuple[Action, ...], kind: str) -> int:
    return sum(1 for action in plan if action.kind == kind)


def test_diff_fresh_topology_action_counts():
    topo = parse_topology(TWO_CHALLENGES)
    plan = diff(topo, ObservedState())
    assert count_kind(plan, "create_network") == 2
    assert count_kind(plan, "start_replica") == sum(
        c.replica_count for c in topo.challenges.values())
    assert count_kind(plan, "bind_ingress") == 2
    assert count_kind(plan, "update_balancer_config") == 0


def test_diff_missing_replica():
    topo = parse_topology(ONE_CHALLENGE)
    state = converge(topo)
    state.replicas["web-pwn"]["worker"] -= 1
    plan = diff(topo, state)
    # oracle: desired slots minus observed slots
    missing = topo.challenges["web-pwn"].replica_count - 2
    assert [a.kind for a in plan] == ["start_replica"] * missing
    assert missing == 1


def test_diff_removed_challenge_dependency_order():
    both = parse_topology(TWO_CHALLENGES)
    state = converge(both)
    without_beta = Topology(
        nodes=both.nodes,
        challenges={"alpha": both.challenges["alpha"]},
        stick_ttl=both.stick_ttl, stick_capacity=both.stick_capacity,
        poll_interval=both.poll_interval, probe_interval=both.probe_interval)
    plan = diff(without_beta, state)
    kinds = [a.kind for a in plan]
    replicas = both.challenges["beta"].replica_count
    assert kinds == ["stop_replica"] * replicas + ["unbind_ingress",
                                                   "remove_network"]
    assert all(a.challenge == "beta" for a in plan)
    assert [a.node for a in plan] == ["worker"] * replicas + ["edge", "worker"]
    converge(without_beta, state)
    assert "beta" not in state.balancers["worker"]
    assert 9002 not in state.ingress


def test_diff_scale_down_counts():
    topo = parse_topology(ONE_CHALLENGE)
    state = converge(topo)
    state.replicas["web-pwn"]["worker"] = 5
    plan = diff(topo, state)
    assert [a.kind for a in plan] == ["stop_replica", "stop_replica"]


def test_diff_backend_move_repairs_balancers():
    doc = MINIMAL + (
        "node spare role=backend bind=127.0.0.1 ports=21000-21999\n"
        'challenge web version=v1 replicas=2 internal_port=1 external_port=9001'
        ' backend=worker run="x {PORT}" probe=tcp\n')
    topo = parse_topology(doc)
    state = converge(topo)
    moved = Topology(
        nodes=topo.nodes,
        challenges={"web": ChallengeSpec(
            name="web", version="v1", replica_count=2, internal_port=1,
            external_port=9001, backend="spare", run_command="x {PORT}",
            probe=ProbeSpec())},
        stick_ttl=topo.stick_ttl, stick_capacity=topo.stick_capacity,
        poll_interval=topo.poll_interval, probe_interval=topo.probe_interval)
    plan = diff(moved, state)
    # the new listener opens first, the old one closes after ingress left it
    assert [(a.kind, a.node) for a in plan] == [
        ("create_network", "spare"), ("start_replica", "spare"),
        ("start_replica", "spare"), ("bind_ingress", "edge"),
        ("stop_replica", "worker"), ("stop_replica", "worker"),
        ("remove_network", "worker")]
    converge(moved, state)
    assert diff(moved, state) == ()
    assert state.ingress[9001] == ("web", "spare")


def test_diff_stick_setting_drift_triggers_balancer_update():
    topo = parse_topology(ONE_CHALLENGE)
    state = converge(topo)
    state.stick_settings["worker"] = (1, 1)
    plan = diff(topo, state)
    assert [a.kind for a in plan] == ["update_balancer_config"]
    converge(topo, state)
    assert diff(topo, state) == ()


def test_diff_rolls_only_replicas_on_the_desired_backend():
    topo = parse_topology(TWO_CHALLENGES)
    state = converge(topo)
    alpha = topo.challenges["alpha"]
    # a stale replica left on a node alpha moved away from is stopped, not rolled
    state.replicas["alpha"]["old"] = 1
    state.specs = {"alpha": {"worker": {alpha.fingerprint}, "old": {"stale"}}}
    stop = Action("stop_replica", challenge="alpha", node="old")
    assert list(diff(topo, state)) == [stop]

    state.specs["alpha"]["worker"].add("stale")
    assert list(diff(topo, state)) == [
        Action("roll_service", challenge="alpha", node="worker"), stop]
    assert diff(topo, state)[0].describe() == "roll_service alpha on worker"


def test_diff_removes_the_listeners_of_a_retired_backend():
    topo = parse_topology(TWO_CHALLENGES)
    state = converge(topo)
    state.balancers["retired"] = {"alpha"}
    assert list(diff(topo, state)) == [
        Action("remove_network", challenge="alpha", node="retired")]
    converge(topo, state)
    assert diff(topo, state) == ()


def test_diff_deterministic_under_input_ordering():
    topo = parse_topology(TWO_CHALLENGES)
    state = converge(topo)
    state.replicas["beta"]["worker"] -= 1
    shuffled = ObservedState(
        replicas={k: dict(v) for k, v in reversed(list(state.replicas.items()))},
        ingress=dict(reversed(list(state.ingress.items()))),
        balancers={k: set(v) for k, v in reversed(list(state.balancers.items()))},
        stick_settings=dict(state.stick_settings),
    )
    assert diff(topo, state) == diff(topo, shuffled)


@given(topologies(), topologies())
@settings(max_examples=40)
def test_convergence_between_arbitrary_topologies(first, second):
    state = ObservedState()
    for desired in (first, second):
        # every action names a node the desired or the observed state knows
        known = (set(desired.nodes) | set(state.balancers)
                 | {node for _, node in state.ingress.values()}
                 | {node for per_node in state.replicas.values()
                    for node in per_node})
        plan = diff(desired, state)
        assert all(a.node in known for a in plan)
        # a listener is opened or closed on a node, never both in one plan
        created = {(a.challenge, a.node) for a in plan if a.kind == "create_network"}
        removed = {(a.challenge, a.node) for a in plan if a.kind == "remove_network"}
        assert not created & removed
        converge(desired, state)
    assert diff(second, state) == ()


@given(topologies(), st.data())
@settings(max_examples=40)
def test_convergence_through_backend_moves(first, data):
    backends = [n.node_id for n in first.backends]
    moved = replace(first, challenges={
        name: replace(spec, backend=data.draw(st.sampled_from(backends)))
        for name, spec in first.challenges.items()})
    state = converge(first)
    converge(moved, state)
    assert diff(moved, state) == ()
    # each challenge is left with exactly one listener, on its new backend
    assert {(name, node) for node, names in state.balancers.items()
            for name in names} == {(c.name, c.backend)
                                   for c in moved.challenges.values()}


RETIRED_NODE = "retired_node"  # outside the names strategy: never desired
RETIRED = "retired_challenge"


@st.composite
def observations(draw, topology: Topology) -> ObservedState:
    """Any observed state of the topology's nodes and of a retired backend."""
    backends = [n.node_id for n in topology.backends] + [RETIRED_NODE]
    names = sorted(topology.challenges) + [RETIRED]
    state = ObservedState()
    for name in names:
        spec = topology.challenges.get(name)
        ids = ["stale"] + ([spec.fingerprint] if spec else [])
        for node in draw(st.lists(st.sampled_from(backends), unique=True)):
            state.replicas.setdefault(name, {})[node] = draw(st.integers(1, 4))
            state.specs.setdefault(name, {})[node] = draw(
                st.sets(st.sampled_from(ids), min_size=1))
    desired_stick = (topology.stick_ttl, topology.stick_capacity)
    for node in draw(st.lists(st.sampled_from(backends), unique=True)):
        state.balancers[node] = draw(st.sets(st.sampled_from(names)))
        state.stick_settings[node] = draw(st.sampled_from([desired_stick,
                                                           (1, 1)]))
    ports = [c.external_port for c in topology.challenges.values()] + [9999]
    for port in draw(st.lists(st.sampled_from(ports), unique=True)):
        state.ingress[port] = (draw(st.sampled_from(names)),
                               draw(st.sampled_from(backends)))
    return state


def observed_by(state: ObservedState, hosted: set[str],
                frontend: str) -> ObservedState:
    """What a process hosting ``hosted`` observes: each hosted node's own
    state, and the mappings only where the frontend is hosted."""
    def own(per_name):
        kept = {name: {n: v for n, v in per_node.items() if n in hosted}
                for name, per_node in per_name.items()}
        return {name: per_node for name, per_node in kept.items() if per_node}
    return ObservedState(
        replicas=own(state.replicas), specs=own(state.specs),
        ingress=dict(state.ingress) if frontend in hosted else {},
        balancers={n: s for n, s in state.balancers.items() if n in hosted},
        stick_settings={n: s for n, s in state.stick_settings.items()
                        if n in hosted})


@given(topologies(), st.data())
@settings(max_examples=60, derandomize=True, deadline=None)
def test_a_nodes_plan_reads_only_its_own_observation(topology, data):
    # what lets each process observe only the nodes it hosts: a cross-node
    # precondition in diff has to widen observed_by, on purpose
    state = data.draw(observations(topology))
    nodes = sorted(topology.nodes) + [RETIRED_NODE]
    hosted = data.draw(st.sets(st.sampled_from(nodes)))
    frontend = topology.frontend.node_id
    whole = [a for a in diff(topology, state) if a.node in hosted]
    assert [a for a in diff(topology, observed_by(state, hosted, frontend))
            if a.node in hosted] == whole


# --- apply ------------------------------------------------------------------


def test_apply_empty_changeset():
    report = apply_changeset((), StateExecutor(
        parse_topology(MINIMAL), ObservedState()))
    assert report.results == []
    assert report.all_ok


def test_apply_idempotent():
    topo = parse_topology(TWO_CHALLENGES)
    state = ObservedState()
    first = apply_changeset(diff(topo, state), StateExecutor(topo, state))
    assert first.ok == len(first.results) > 0
    second = apply_changeset(diff(topo, state), StateExecutor(topo, state))
    assert len(second.results) == 0


def test_apply_partial_failure_skips_dependents():
    topo = parse_topology(TWO_CHALLENGES)
    state = ObservedState()
    executor = StateExecutor(topo, state,
                             fail_on=frozenset({("start_replica", "alpha")}))
    report = apply_changeset(diff(topo, state), executor)
    assert not report.all_ok
    by_action = {(r.action.kind, r.action.challenge): r.outcome
                 for r in report.results}
    # no ingress may be bound for the challenge whose replicas failed
    assert by_action[("bind_ingress", "alpha")] == "skipped"
    assert by_action[("bind_ingress", "beta")] == "ok"
    assert 9001 not in state.ingress
    assert state.ingress[9002] == ("beta", "worker")
    # the follow-up apply retries only what is still missing
    retry = apply_changeset(diff(topo, state), StateExecutor(topo, state))
    assert retry.all_ok
    assert diff(topo, state) == ()


def test_report_rendering():
    topo = parse_topology(ONE_CHALLENGE)
    state = ObservedState()
    report = apply_changeset(diff(topo, state), StateExecutor(topo, state))
    text = report.render()
    assert "create_network net-web-pwn on worker ok" in text
    assert text.strip().endswith("0 failed, 0 skipped")
