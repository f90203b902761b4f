"""Per-layer measurements made by calling each layer's public functions.

Nothing here needs the deployed layout except ``connect_upstream``, which
dials the live replicas of a running stack. Sizes follow the workloads: the
returning crowd of 512 addresses, the churn table capacity of 4096, the
default capacity of 65,536 and the fleet of 300 challenges.
"""

from __future__ import annotations

import random
import time

from flagforge.balancer import Balancer, StickTable
from flagforge.ingress import (generate_mappings, parse_mappings,
                               serialize_mappings)
from flagforge.model import DEFAULT_STICK_CAPACITY, parse_topology
from flagforge.registry import (HEALTH_HEALTHY, HEALTH_STOPPED, Registry,
                                ReplicaEndpoint)

from common import median, timed
from dataplane import CHURN_CAPACITY, RETURNING_CROWD as CROWD
from loadgen import AddressBook
from stack import CHALLENGE as SERVICE, REPLICAS

TTL = 3600
UPSTREAM_CONNECTS = 300
# disjoint index ranges of the seeded address permutation
FILL_OFFSET = 1 << 16
FRESH_OFFSET = 1 << 17


def registry_with(endpoints: list[tuple[str, int]] | None = None) -> Registry:
    registry = Registry()
    registry.create_service(SERVICE, f"net-{SERVICE}")
    endpoints = endpoints or [("127.0.0.1", 30000 + i) for i in range(REPLICAS)]
    for i, (address, port) in enumerate(endpoints):
        registry.register_replica(SERVICE, ReplicaEndpoint(
            f"{SERVICE}-r{i}", address, port, "v1", HEALTH_HEALTHY))
    return registry


def addresses(seed: int, count: int, offset: int = 0) -> list[str]:
    book = AddressBook(seed, None, 0)
    return [book.nth(offset + i) for i in range(count)]


def filled_balancer(capacity: int, seed: int) -> tuple[Balancer, Registry]:
    registry = registry_with()
    balancer = Balancer(registry, TTL, capacity)
    for ip in addresses(seed, capacity, offset=FILL_OFFSET):
        balancer.select_replica(SERVICE, ip)
    return balancer, registry


def balancer_layer(seed: int) -> dict:
    out = {}
    rng = random.Random(seed)

    # sticky hits over the returning crowd, after every address is pinned
    balancer = Balancer(registry_with(), TTL, DEFAULT_STICK_CAPACITY)
    crowd = addresses(seed, CROWD)
    first = {ip: balancer.select_replica(SERVICE, ip).replica_id for ip in crowd}
    hits, samples = 0, []
    for _ in range(20 * CROWD):
        ip = crowd[rng.randrange(CROWD)]
        start = time.perf_counter()
        picked = balancer.select_replica(SERVICE, ip)
        samples.append(time.perf_counter() - start)
        hits += picked.replica_id == first[ip]
    out["balancer.select_hit_us"] = (median(samples) * 1e6, "us", len(samples))
    out["balancer.sticky_hit_ratio"] = (hits / len(samples), "ratio",
                                        len(samples))

    # first contacts on a table full at the churn workload's capacity
    balancer, _ = filled_balancer(CHURN_CAPACITY, seed)
    fresh = iter(addresses(seed, 2000, offset=FRESH_OFFSET))
    samples = timed(lambda: balancer.select_replica(SERVICE, next(fresh)), 2000)
    out["balancer.select_first_us"] = (median(samples) * 1e6, "us",
                                       len(samples))

    # eviction cost on a full default-size table
    table = StickTable(TTL, DEFAULT_STICK_CAPACITY)
    now = 0.0
    for ip in addresses(seed, DEFAULT_STICK_CAPACITY, offset=FILL_OFFSET):
        now += 0.001
        table.assign(ip, "r", now)
    fresh = iter(addresses(seed, 30, offset=FRESH_OFFSET))
    samples = timed(lambda: table.assign(next(fresh), "r", now + 1), 30)
    out[f"balancer.stick_assign_full_us.{DEFAULT_STICK_CAPACITY}"] = (
        median(samples) * 1e6, "us", len(samples))

    # invalidating one replica's pins, and the registry event that does it
    inval, marks = [], []
    for _ in range(15):
        balancer, registry = filled_balancer(CHURN_CAPACITY, seed)
        start = time.perf_counter()
        balancer.invalidate_replica(f"{SERVICE}-r0")
        inval.append(time.perf_counter() - start)
        balancer, registry = filled_balancer(CHURN_CAPACITY, seed)
        start = time.perf_counter()
        registry.mark_health(f"{SERVICE}-r1", HEALTH_STOPPED)
        marks.append(time.perf_counter() - start)
    out["balancer.invalidate_ms"] = (median(inval) * 1e3, "ms", len(inval))
    out["registry.mark_health_us"] = (median(marks) * 1e6, "us", len(marks))

    registry = registry_with()
    samples = timed(lambda: registry.replicas_of(SERVICE), 5000)
    out["registry.replicas_of_us"] = (median(samples) * 1e6, "us",
                                      len(samples))
    return out


def connect_upstream(endpoints: list[tuple[str, int]],
                     seed: int) -> tuple[float, int]:
    """Median ``Balancer.connect_upstream`` (select + TCP connect) in ms."""
    balancer = Balancer(registry_with(endpoints), TTL, DEFAULT_STICK_CAPACITY)
    samples = []
    for ip in addresses(seed, UPSTREAM_CONNECTS, offset=FRESH_OFFSET):
        start = time.perf_counter()
        _, upstream = balancer.connect_upstream(SERVICE, ip)
        samples.append(time.perf_counter() - start)
        upstream.close()
    return median(samples) * 1e3, len(samples)


def model_layer(document: str, topology, balancer_ports: dict) -> dict:
    samples = timed(lambda: parse_topology(document), 5)
    out = {"model.parse_ms": (median(samples) * 1e3, "ms", len(samples))}

    def mapping_round_trip():
        table, _ = generate_mappings(topology, balancer_ports)
        parse_mappings(serialize_mappings(table))

    samples = timed(mapping_round_trip, 20)
    out["ingress.mapping_ms"] = (median(samples) * 1e3, "ms", len(samples))
    return out
