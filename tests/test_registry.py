"""Registry registration, replica order, health states, and listeners."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagforge.errors import (
    DuplicateReplicaError,
    EndpointInUseError,
    UnknownReplicaError,
    UnknownServiceError,
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
    with pytest.raises(UnknownServiceError):
        registry.replicas_of("ghost")
    with pytest.raises(UnknownServiceError):
        registry.register_replica("ghost", endpoint(1))
    with pytest.raises(UnknownReplicaError):
        registry.mark_health("r1", HEALTH_HEALTHY)
    with pytest.raises(UnknownReplicaError):
        registry.deregister_replica("r1")


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


def test_remove_service_notifies_about_replicas():
    registry = fresh(2)
    seen: list[tuple[str, str, str]] = []
    registry.add_listener(lambda *event: seen.append(event))
    registry.remove_service("web")
    assert sorted(seen) == [("web", "r1", EVENT_DEREGISTERED),
                            ("web", "r2", EVENT_DEREGISTERED)]
    assert not registry.has_service("web")


# --- reference-loop equivalence ----------------------------------------------

ops = st.lists(
    st.one_of(
        st.tuples(st.just("list")),
        st.tuples(st.just("register"), st.integers(0, 9)),
        st.tuples(st.just("health"), st.integers(0, 9),
                  st.sampled_from(["healthy", "unhealthy", "starting"])),
        st.tuples(st.just("deregister"), st.integers(0, 9)),
    ),
    max_size=60)


@given(ops)
@settings(max_examples=150)
def test_resolution_matches_reference_loop(sequence):
    registry = Registry()
    registry.create_service("web", "net-web")
    # reference model: (id, health) pairs in registration order
    model: list[list] = []
    registered: set[int] = set()
    for op in sequence:
        if op[0] == "register" and op[1] not in registered:
            registered.add(op[1])
            registry.register_replica("web", endpoint(op[1]))
            model.append([f"r{op[1]}", "healthy"])
        elif op[0] == "health" and op[1] in registered:
            registry.mark_health(f"r{op[1]}", op[2])
            next(m for m in model if m[0] == f"r{op[1]}")[1] = op[2]
        elif op[0] == "deregister" and op[1] in registered:
            registered.discard(op[1])
            registry.deregister_replica(f"r{op[1]}")
            model[:] = [m for m in model if m[0] != f"r{op[1]}"]
        elif op[0] == "list":
            assert [[r.replica_id, r.health]
                    for r in registry.replicas_of("web")] == model
