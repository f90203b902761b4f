"""Brute-force reference model of sticky round-robin selection.

Kept deliberately naive: plain dicts and lists, recomputed from scratch per
event, so equivalence tests compare the production balancer against an
implementation too simple to share its bugs.
"""

from __future__ import annotations


class ReferenceSelector:
    """Replays connect/health/clock events and records every routing decision."""

    def __init__(self, replica_ids: list[str], ttl: float, capacity: int):
        self.order = list(replica_ids)
        self.health = {r: True for r in replica_ids}
        self.ttl = ttl
        self.capacity = capacity
        self.cursor = 0
        self.now = 0.0
        self.table: dict[str, list] = {}  # ip -> [replica_id, last_seen]

    def advance(self, dt: float) -> None:
        self.now += dt

    def set_health(self, replica_id: str, up: bool) -> None:
        self.health[replica_id] = up

    def expire(self) -> int:
        aged = [ip for ip, (_, seen) in self.table.items()
                if self.now - seen > self.ttl]
        for ip in aged:
            del self.table[ip]
        return len(aged)

    def connect(self, ip: str) -> str | None:
        entry = self.table.get(ip)
        if (entry is not None and self.now - entry[1] <= self.ttl
                and self.health[entry[0]]):
            entry[1] = self.now
            return entry[0]
        chosen = None
        for step in range(len(self.order)):
            candidate = self.order[(self.cursor + step) % len(self.order)]
            if self.health[candidate]:
                chosen = candidate
                self.cursor = (self.cursor + step + 1) % len(self.order)
                break
        if chosen is None:
            return None
        if ip not in self.table and len(self.table) >= self.capacity:
            victim = min(self.table.items(), key=lambda kv: (kv[1][1], kv[0]))[0]
            del self.table[victim]
        self.table[ip] = [chosen, self.now]
        return chosen


class ReferenceStickTable:
    """The stick table as a plain dict, every eviction and expiry a full scan."""

    def __init__(self, ttl: float, capacity: int):
        self.ttl = ttl
        self.capacity = capacity
        self.table: dict[str, list] = {}  # ip -> [replica_id, last_seen]

    def __len__(self) -> int:
        return len(self.table)

    def lookup(self, ip: str, now: float) -> str | None:
        entry = self.table.get(ip)
        if entry is None or now - entry[1] > self.ttl:
            return None
        return entry[0]

    def refresh(self, ip: str, now: float) -> None:
        self.table[ip][1] = now

    def assign(self, ip: str, replica_id: str, now: float) -> None:
        if ip not in self.table and len(self.table) >= self.capacity:
            victim = min(self.table.items(), key=lambda kv: (kv[1][1], kv[0]))[0]
            del self.table[victim]
        self.table[ip] = [replica_id, now]

    def expire(self, now: float) -> int:
        aged = [ip for ip, (_, seen) in self.table.items()
                if now - seen > self.ttl]
        for ip in aged:
            del self.table[ip]
        return len(aged)

    def invalidate_replica(self, replica_id: str) -> int:
        pinned = [ip for ip, (rid, _) in self.table.items() if rid == replica_id]
        for ip in pinned:
            del self.table[ip]
        return len(pinned)

    def entries(self) -> list[tuple[str, str, float]]:
        return sorted((ip, rid, seen) for ip, (rid, seen) in self.table.items())
