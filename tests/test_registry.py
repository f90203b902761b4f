"""Registry registration, replica order, health states, and listeners."""

from __future__ import annotations

from contextlib import nullcontext

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flagforge.errors import (
    DuplicateReplicaError,
    EndpointInUseError,
    UnknownReplicaError,
)
from flagforge.registry import (
    EVENT_DEREGISTERED,
    HEALTH_HEALTHY,
    HEALTH_STOPPED,
    HEALTH_UNHEALTHY,
    Registry,
    ReplicaEndpoint,
)


def endpoint(n: int, healthy: bool = True) -> ReplicaEndpoint:
    return ReplicaEndpoint(
        replica_id=f"r{n}", address="127.0.0.1", port=20000 + n, version="v1",
        health=HEALTH_HEALTHY if healthy else HEALTH_UNHEALTHY)


def fresh(n: int = 3) -> Registry:
    registry = Registry()
    registry.create_service("web", "net-web")
    for i in range(1, n + 1):
        registry.register_replica("web", endpoint(i))
    return registry


def ids(replicas) -> list[str]:
    return [r.replica_id for r in replicas]


def test_register_then_resolve():
    registry = Registry()
    registry.create_service("web", "net-web")
    registry.register_replica("web", endpoint(1))
    assert ids(registry.replicas_of("web")) == ["r1"]


def test_registration_order_preserved():
    registry = fresh(2)
    assert ids(registry.replicas_of("web")) == ["r1", "r2"]


def test_duplicate_replica_id_rejected():
    registry = fresh(1)
    with pytest.raises(DuplicateReplicaError):
        registry.register_replica("web", endpoint(1))


def test_endpoint_collision_rejected_until_stopped():
    registry = fresh(1)
    clone = ReplicaEndpoint("r9", "127.0.0.1", 20001, "v1", HEALTH_HEALTHY)
    with pytest.raises(EndpointInUseError):
        registry.register_replica("web", clone)
    registry.mark_health("r1", HEALTH_STOPPED)
    registry.register_replica("web", clone)  # uniqueness scoped to non-stopped


def test_unknown_service_and_replica():
    registry = Registry()
    assert registry.replicas_of("ghost") == []
    with pytest.raises(UnknownReplicaError):
        registry.mark_health("r1", HEALTH_HEALTHY)
    with pytest.raises(UnknownReplicaError):
        registry.deregister_replica("r1")
    registry.register_replica("ghost", endpoint(1))  # a new name is on record
    assert ids(registry.replicas_of("ghost")) == ["r1"]


def test_recovered_replica_reappears_at_registration_position():
    registry = fresh(3)
    registry.mark_health("r2", HEALTH_UNHEALTHY)
    registry.mark_health("r2", HEALTH_HEALTHY)
    assert ids(registry.replicas_of("web")) == ["r1", "r2", "r3"]


def test_deregister_updates_rotation():
    registry = fresh(3)
    registry.deregister_replica("r2")
    assert ids(registry.replicas_of("web")) == ["r1", "r3"]
    registry.deregister_replica("r1")
    registry.deregister_replica("r3")
    assert registry.replicas_of("web") == []


def test_reregister_freed_endpoint_under_new_id():
    registry = fresh(1)
    registry.deregister_replica("r1")
    replacement = ReplicaEndpoint("r2", "127.0.0.1", 20001, "v2", HEALTH_HEALTHY)
    registry.register_replica("web", replacement)
    assert ids(registry.replicas_of("web")) == ["r2"]


def test_listener_events():
    registry = fresh(2)
    seen: list[tuple[str, str, str]] = []
    registry.add_listener(lambda *event: seen.append(event))
    registry.mark_health("r1", HEALTH_UNHEALTHY)
    registry.mark_health("r1", HEALTH_UNHEALTHY)  # no change, no event
    registry.deregister_replica("r2")
    assert seen == [("web", "r1", HEALTH_UNHEALTHY),
                    ("web", "r2", EVENT_DEREGISTERED)]


def test_listener_may_reenter_registry():
    registry = fresh(2)
    snapshots: list[list[str]] = []
    registry.add_listener(
        lambda service, *_: snapshots.append(ids(registry.replicas_of(service))))
    registry.deregister_replica("r1")
    assert snapshots == [["r2"]]


# --- reference-loop equivalence ----------------------------------------------

SERVICES = ("web", "api")

# one service, each id on a port of its own
one_service = st.lists(
    st.one_of(
        st.tuples(st.just("list")),
        st.integers(0, 9).map(lambda n: ("register", "web", n, 20000 + n)),
        st.tuples(st.just("health"), st.integers(0, 9),
                  st.sampled_from(["healthy", "unhealthy", "starting"])),
        st.tuples(st.just("deregister"), st.integers(0, 9)),
    ),
    max_size=60)
# two services sharing a pool of three ports, so ids and endpoints collide,
# and a stopped replica's endpoint can be taken by another
colliding = st.lists(
    st.one_of(
        st.tuples(st.just("list")),
        st.tuples(st.just("register"), st.sampled_from(SERVICES),
                  st.integers(0, 5), st.sampled_from([20000, 20001, 20002])),
        st.tuples(st.just("health"), st.integers(0, 5),
                  st.sampled_from(["healthy", "unhealthy", "starting",
                                   "stopped"])),
        st.tuples(st.just("deregister"), st.integers(0, 5)),
    ),
    max_size=60)


@given(st.one_of(one_service, colliding))
# r1 stops, r2 takes its endpoint, r1 turns healthy again beside it: the
# endpoint stays taken after r2 stops
@example([("register", "web", 1, 20000), ("health", 1, "stopped"),
          ("register", "api", 2, 20000), ("health", 1, "healthy"),
          ("health", 2, "stopped"), ("register", "web", 3, 20000),
          ("register", "api", 1, 20001), ("list",)])
@settings(max_examples=300)
def test_resolution_matches_reference_loop(sequence):
    registry = Registry()
    # reference model: per service, [id, health, port] in registration order,
    # checked for conflicts by scanning every service
    model: dict[str, list[list]] = {}
    for service in SERVICES:
        registry.create_service(service)
        model[service] = []

    def held(n: int) -> tuple[str, list] | None:
        return next(((service, m) for service, replicas in model.items()
                     for m in replicas if m[0] == f"r{n}"), None)

    for op in sequence:
        if op[0] == "register":
            _, service, n, port = op
            refused: tuple[type, ...] = ()
            if held(n) is not None:
                refused += (DuplicateReplicaError,)
            if any(m[2] == port and m[1] != HEALTH_STOPPED
                   for replicas in model.values() for m in replicas):
                refused += (EndpointInUseError,)
            replica = ReplicaEndpoint(f"r{n}", "127.0.0.1", port, "v1",
                                      HEALTH_HEALTHY)
            # where both apply, the scan's order picks one
            with pytest.raises(refused) if refused else nullcontext():
                registry.register_replica(service, replica)
            if not refused:
                model[service].append([f"r{n}", HEALTH_HEALTHY, port])
        elif op[0] in ("health", "deregister"):
            found = held(op[1])
            with (pytest.raises(UnknownReplicaError) if found is None
                  else nullcontext()):
                if op[0] == "health":
                    registry.mark_health(f"r{op[1]}", op[2])
                else:
                    registry.deregister_replica(f"r{op[1]}")
            if found is not None and op[0] == "health":
                found[1][1] = op[2]
            elif found is not None:
                model[found[0]].remove(found[1])
        else:
            for service in SERVICES:
                assert [[r.replica_id, r.health]
                        for r in registry.replicas_of(service)] == \
                    [m[:2] for m in model[service]]
