"""Load generator: one process, two threads and at most two connections.

Usage: ``python3 loadgen.py <config.json> <result.json>``

Each thread runs one session at a time. In a closed loop a thread starts its
next session when the previous one ends; in an open loop sessions are due at
a fixed rate, a free thread takes the next due one, and its latencies count
from the due time, so a stall also charges the sessions queued behind it.

A session connects from a source address in 127.0.0.0/8 (the whole block is
loopback), reads the replica's greeting line, makes ``rtts`` round trips of
``msg_size`` bytes and, for the sessions the plan marks, echoes ``bulk_bytes``
more. Every echo is compared byte for byte. The plan (source address, path,
bulk or not, payload bytes) is a function of the seed and the session index
only, so the same seed gives the same inputs.

After any warm-up the generator prints ``ready`` on stdout, measures for
``seconds`` and writes one record per session to the result file.
"""

from __future__ import annotations

import json
import random
import resource
import selectors
import socket
import sys
import threading
import time

from common import Tracer, read_greeting

THREADS = 2
TIMEOUT = 5.0
BULK_CHUNK = 65536
BULK_WINDOW = 262144
ADDRESS_SPACE = 1 << 24  # the host part of 127.0.0.0/8


class AddressBook:
    """Seeded source addresses: a fixed crowd, or a fresh one per session.

    Address n is the n-th usable value of ``i -> (a * i + b) mod 2**24``
    with a seeded odd ``a``, a bijection, so distinct indexes never share an
    address. Addresses in 127.0.0.0/16 (where the servers listen) and ones
    ending in .0 or .255 are skipped.
    """

    def __init__(self, seed: int, count: int | None, offset: int):
        rng = random.Random(seed)
        self.a = rng.randrange(ADDRESS_SPACE) | 1
        self.b = rng.randrange(ADDRESS_SPACE)
        self.count = count
        self.offset = offset
        self._addresses: list[str] = []
        self._next = 0

    def nth(self, n: int) -> str:
        while len(self._addresses) <= n:
            host = (self.a * self._next + self.b) % ADDRESS_SPACE
            self._next += 1
            if host >> 16 and host & 255 not in (0, 255):
                self._addresses.append(
                    f"127.{host >> 16}.{(host >> 8) & 255}.{host & 255}")
        return self._addresses[n]

    def crowd(self) -> list[str]:
        return [self.nth(self.offset + i) for i in range(self.count)]


class Plan:
    """Per-session inputs, generated in index order from one seeded stream."""

    def __init__(self, config: dict):
        self.config = config
        self.rng = random.Random(config["seed"] * 7919)
        self.book = AddressBook(config["seed"], config.get("crowd"),
                                config.get("ip_offset", 0))
        self.crowd = self.book.crowd() if config.get("crowd") else None
        self.paths = sorted(config.get("paths", {"ingress": 1.0}).items())
        self.sessions: list[dict] = []
        self.lock = threading.Lock()

    def get(self, index: int) -> dict:
        with self.lock:
            while len(self.sessions) <= index:
                self.sessions.append(self._make(len(self.sessions)))
            return self.sessions[index]

    def _make(self, index: int) -> dict:
        cfg = self.config
        if self.crowd is not None:
            address = self.crowd[self.rng.randrange(len(self.crowd))]
        else:
            address = self.book.nth(cfg.get("ip_offset", 0) + index)
        roll, path = self.rng.random(), self.paths[-1][0]
        for name, share in self.paths:
            if roll < share:
                path = name
                break
            roll -= share
        every = cfg.get("bulk_every", 0)
        bulk = bool(every) and index % every == self._bulk_slot(index // every)
        return {"address": address, "path": path, "bulk": bulk,
                "payload_seed": self.rng.getrandbits(64),
                "replica": self.rng.randrange(1 << 16)}

    def _bulk_slot(self, block: int) -> int:
        return random.Random(self.config["seed"] * 104729 + block).randrange(
            self.config["bulk_every"])


def recv_exact(sock: socket.socket, size: int) -> bytes:
    chunks, left = [], size
    while left:
        chunk = sock.recv(min(left, BULK_CHUNK))
        if not chunk:
            raise ConnectionError("EOF during echo")
        chunks.append(chunk)
        left -= len(chunk)
    return b"".join(chunks)


def bulk_echo(sock: socket.socket, data: bytes) -> bool:
    """Send ``data`` with a bounded window while reading the echo back."""
    sock.setblocking(False)
    sel = selectors.DefaultSelector()
    sel.register(sock, selectors.EVENT_READ | selectors.EVENT_WRITE)
    sent, received = 0, bytearray()
    deadline = time.monotonic() + TIMEOUT * 4
    try:
        while len(received) < len(data):
            if time.monotonic() > deadline:
                raise TimeoutError("bulk echo timed out")
            want_write = sent < len(data) and sent - len(received) < BULK_WINDOW
            sel.modify(sock, selectors.EVENT_READ
                       | (selectors.EVENT_WRITE if want_write else 0))
            for _, mask in sel.select(TIMEOUT):
                if mask & selectors.EVENT_READ:
                    chunk = sock.recv(BULK_CHUNK)
                    if not chunk:
                        raise ConnectionError("EOF during bulk echo")
                    received += chunk
                if mask & selectors.EVENT_WRITE and want_write:
                    sent += sock.send(data[sent:sent + BULK_CHUNK])
    finally:
        sel.close()
        sock.setblocking(True)
    return bytes(received) == data


class Generator:
    def __init__(self, config: dict):
        self.config = config
        self.plan = Plan(config)
        self.targets = config["targets"]
        self.tracer = Tracer() if config.get("trace") else None
        self.bulk_data = random.Random(config["seed"]).randbytes(
            config.get("bulk_bytes", 0))
        self.records: list[dict] = []
        self.lock = threading.Lock()
        self.next_index = 0
        self.stop_at = 0.0
        self.start_at = 0.0

    def take(self) -> int:
        with self.lock:
            index = self.next_index
            self.next_index += 1
            return index

    def session(self, index: int, due: float | None) -> dict:
        cfg = self.config
        plan = self.plan.get(index)
        path = plan["path"]
        record = {"i": index, "path": path, "ip": plan["address"], "ok": False,
                  "echo_ok": True}
        begin = time.perf_counter()
        origin = due if due is not None else begin
        record["late"] = begin - origin
        children: list[tuple[str, float, float]] = []
        if path == "direct":
            replicas = self.targets["replicas"]
            target = tuple(replicas[plan["replica"] % len(replicas)])
        else:
            target = tuple(self.targets[path])
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.settimeout(TIMEOUT)
            sock.bind((plan["address"], 0))
            sock.connect(target)
            connected = time.perf_counter()
            if path == "balancer":
                sock.sendall(f"PROXY4 {plan['address']}\n".encode())
            greeting = read_greeting(sock).decode().split()
            greeted = time.perf_counter()
            if not greeting:
                raise ConnectionError("empty greeting")
            record["replica"], record["version"] = greeting[0], greeting[-1]
            record["greet_ms"] = (greeted - origin) * 1e3
            children.append((f"connect.{path}", begin, connected))
            children.append((f"greeting.{path}", begin, greeted))
            rng = random.Random(plan["payload_seed"])
            rtts = []
            for _ in range(cfg.get("rtts", 0)):
                payload = rng.randbytes(cfg["msg_size"])
                t0 = time.perf_counter()
                sock.sendall(payload)
                echoed = recv_exact(sock, len(payload))
                t1 = time.perf_counter()
                rtts.append((t1 - t0) * 1e3)
                children.append((f"rtt.{path}", t0, t1))
                if echoed != payload:
                    record["echo_ok"] = False
                    raise ValueError("echo differs from what was sent")
            record["rtt_ms"] = rtts
            if plan["bulk"]:
                t0 = time.perf_counter()
                same = bulk_echo(sock, self.bulk_data)
                t1 = time.perf_counter()
                record["bulk"] = [len(self.bulk_data), t1 - t0]
                children.append((f"bulk.{path}", t0, t1))
                if not same:
                    record["echo_ok"] = False
                    raise ValueError("bulk echo differs from what was sent")
            record["ok"] = True
        except (OSError, ValueError, ConnectionError) as exc:
            record["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            sock.close()
        if self.tracer is not None:
            # the session span is the parent of every step; all share its id
            root = self.tracer.add("session", begin, time.perf_counter(),
                                   None, index)
            for name, start, end in children:
                self.tracer.add(name, start, end, root, index)
        return record

    def closed_worker(self) -> None:
        while time.perf_counter() < self.stop_at:
            record = self.session(self.take(), None)
            with self.lock:
                self.records.append(record)

    def open_worker(self) -> None:
        interval = 1.0 / self.config["rate"]
        while True:
            index = self.take()
            due = self.start_at + index * interval
            if due >= self.stop_at:
                return
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            record = self.session(index, due)
            with self.lock:
                self.records.append(record)

    def warm(self) -> None:
        """Unmeasured sessions from the warm-up plan, then reset the index."""
        count = self.config.get("warmup", 0)
        if not count:
            return
        warm_config = dict(self.config, **self.config.get("warmup_overrides", {}))
        real_plan, real_config = self.plan, self.config
        self.config, self.plan = warm_config, Plan(warm_config)
        failures = []
        self.warm_pins = {}

        def worker():
            while True:
                index = self.take()
                if index >= count:
                    return
                record = self.session(index, None)
                if record["ok"]:
                    self.warm_pins[record["ip"]] = record["replica"]
                else:
                    failures.append(record)

        saved_tracer, self.tracer = self.tracer, None
        self.start_at = time.perf_counter()
        threads = [threading.Thread(target=worker)
                   for _ in range(THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        self.tracer = saved_tracer
        self.config, self.plan = real_config, real_plan
        self.next_index = 0
        self.warm_failures = len(failures)

    def run(self) -> dict:
        self.warm_failures = 0
        self.warm_pins: dict[str, str] = {}
        self.warm()
        print("ready", flush=True)
        worker = (self.open_worker if self.config["mode"] == "open"
                  else self.closed_worker)
        usage0 = resource.getrusage(resource.RUSAGE_SELF)
        self.start_at = time.perf_counter()
        self.stop_at = self.start_at + self.config["seconds"]
        threads = [threading.Thread(target=worker)
                   for _ in range(THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - self.start_at
        usage1 = resource.getrusage(resource.RUSAGE_SELF)
        cpu = (usage1.ru_utime - usage0.ru_utime
               + usage1.ru_stime - usage0.ru_stime)
        self.records.sort(key=lambda r: r["i"])
        return {"records": self.records, "wall_s": wall, "cpu_s": cpu,
                "warm_failures": self.warm_failures,
                "warm_pins": self.warm_pins,
                "spans": self.tracer.spans if self.tracer else []}


def main() -> None:
    with open(sys.argv[1]) as fh:
        config = json.load(fh)
    result = Generator(config).run()
    with open(sys.argv[2], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
