"""fleet-apply: the control plane alone, in process.

A ``Cluster`` with ``MockRunner`` and no listeners converges a document of
300 challenges x 2 replicas on a fresh state directory, then converges the
same document again (it must plan nothing and only reads), then converges an
edit that adds 10%, removes 10% and scales up 10% of the challenges and
halves the stick TTL (so every action kind runs). No sockets or processes
are involved: this is ``model``, ``runtime``, ``supervisor`` bookkeeping,
``ingress.map`` and the state files. The seed picks the challenge names,
their order in the document and which challenges each edit touches.

Each converge action is also timed, by wrapping the executor that
``apply_changeset`` receives. ``setup_s`` is parsing the document and
building the ``Cluster`` on an empty state directory.
"""

from __future__ import annotations

import gc
import random
import shutil
import time
from pathlib import Path

import flagforge.runtime as runtime
from flagforge.ingress import load_mappings
from flagforge.model import parse_topology
from flagforge.runner import MockRunner
from flagforge.runtime import Cluster, StateStore

from common import (WORK, calibration_ms, check_lines, host_cpu, median,
                    metric_line, self_io, steal_share, timed)

CHALLENGES = 300
REPLICAS = 2
EDIT_SHARE = 0.10
SETUPS = 7
EXTERNAL_BASE = 20000
BACKEND_PORTS = (21000, 23499)


def fleet_document(seed: int, edited: bool = False) -> str:
    """The fleet topology for a seed, or its edit."""
    rng = random.Random(seed)
    names = [f"c{rng.getrandbits(40):010x}" for _ in range(CHALLENGES)]
    ports = rng.sample(range(EXTERNAL_BASE, EXTERNAL_BASE + 2 * CHALLENGES),
                       CHALLENGES)
    replicas = {name: REPLICAS for name in names}
    chosen = rng.sample(names, 3 * int(CHALLENGES * EDIT_SHARE))
    k = len(chosen) // 3
    removed, scaled = set(chosen[:k]), chosen[k:2 * k]
    added = [f"n{rng.getrandbits(40):010x}" for _ in range(k)]
    free_ports = sorted(set(range(EXTERNAL_BASE, EXTERNAL_BASE + 2 * CHALLENGES))
                        - set(ports))
    added_ports = rng.sample(free_ports, k)
    order = list(zip(names, ports))
    stick_ttl = 3600
    if edited:
        order = [(n, p) for n, p in order if n not in removed]
        order += list(zip(added, added_ports))
        rng.shuffle(order)
        replicas.update({name: REPLICAS for name in added})
        replicas.update({name: REPLICAS + 1 for name in scaled})
        stick_ttl = 1800
    lines = [
        "node edge role=frontend bind=127.0.0.1"
        f" ports={EXTERNAL_BASE}-{EXTERNAL_BASE + 2 * CHALLENGES}",
        f"node work role=backend bind=127.0.0.1"
        f" ports={BACKEND_PORTS[0]}-{BACKEND_PORTS[1]}",
        f"set stick_ttl={stick_ttl}",
    ]
    for name, port in order:
        lines.append(
            f"challenge {name} version=v1 replicas={replicas[name]}"
            f" internal_port=4000 external_port={port} backend=work"
            f' run="replica --port {{PORT}}" probe=tcp')
    return "\n".join(lines) + "\n"


class ActionClock:
    """Times every executor call made by ``model.apply_changeset``.

    ``Cluster.converge`` calls ``apply_changeset`` through the runtime
    module, so installing a wrapper there reaches each action without
    touching the program.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples: list[tuple[str, float]] = []

    def __enter__(self):
        original = runtime.apply_changeset
        clock = self

        class Timed:
            def __init__(self, inner):
                self.inner = inner

            def execute(self, action):
                start = time.perf_counter()
                try:
                    self.inner.execute(action)
                finally:
                    end = time.perf_counter()
                    clock.samples.append((action.kind, end - start))
                    if clock.tracer is not None:
                        clock.tracer.add(f"runtime.action.{action.kind}",
                                         start, end)

        def timed_apply(changeset, executor):
            return original(changeset, Timed(executor))

        self._original = original
        runtime.apply_changeset = timed_apply
        return self

    def __exit__(self, *exc):
        runtime.apply_changeset = self._original


def counts_problems(cluster: Cluster, topology, phase: str) -> list[str]:
    """Replica and mapping counts must match the document."""
    problems = []
    want_replicas = sum(c.replica_count for c in topology.challenges.values())
    have = len(cluster.store.load_replicas("work"))
    if have != want_replicas:
        problems.append(f"{phase}: {have} replicas recorded, document asks"
                        f" for {want_replicas}")
    mappings = len(load_mappings(cluster.store.ingress_path))
    if mappings != len(topology.challenges):
        problems.append(f"{phase}: {mappings} ingress mappings for"
                        f" {len(topology.challenges)} challenges")
    return problems


def build_cluster(state: Path, document: str):
    shutil.rmtree(state, ignore_errors=True)
    state.mkdir(parents=True)
    topology = parse_topology(document)
    cluster = Cluster(topology, StateStore(state), bind_listeners=False,
                      runner_factory=lambda node, store: MockRunner())
    return topology, cluster


def converge(cluster: Cluster, topology, tracer=None) -> dict:
    io0, cpu0 = self_io(), time.process_time()
    start = time.perf_counter()
    report = cluster.converge(topology)
    elapsed = time.perf_counter() - start
    io1, cpu1 = self_io(), time.process_time()
    if tracer is not None:
        tracer.add("runtime.converge", start, start + elapsed)
    return {"seconds": elapsed, "cpu_s": cpu1 - cpu0,
            "actions": len(report.results),
            "failed": [r.render() for r in report.results if r.outcome != "ok"],
            "write_bytes": io1[0] - io0[0], "write_calls": io1[1] - io0[1]}


def iteration(seed: int, index: int, tracer=None) -> dict:
    """Set-up, first apply, re-apply and edit on a fresh state directory."""
    state = WORK / "fleet" / f"state-{index}"
    first_doc = fleet_document(seed)
    edit_doc = fleet_document(seed, edited=True)
    # each apply starts from a collected heap, as a fresh process would
    gc.collect()
    start = time.perf_counter()
    topology, cluster = build_cluster(state, first_doc)
    setup = time.perf_counter() - start
    edited = parse_topology(edit_doc)
    problems: list[str] = []
    extra = {}
    if tracer is not None:
        tracer.wrap(cluster, "observe", "runtime.observe")
    with ActionClock(tracer) as clock:
        first = converge(cluster, topology, tracer)
        problems += counts_problems(cluster, topology, "first apply")
        if tracer is not None:
            backend = cluster.backends["work"]
            extra = {"snapshot": timed(backend.supervisor.snapshot, 5),
                     "topology": topology,
                     "balancer_ports": {"work": backend.balancer_ports}}
        again = converge(cluster, topology, tracer)
        if again["actions"]:
            problems.append(f"re-apply planned {again['actions']} actions")
        edit = converge(cluster, edited, tracer)
        problems += counts_problems(cluster, edited, "edit")
    for phase in (first, again, edit):
        problems += phase["failed"]
    cluster.shutdown()
    shutil.rmtree(state, ignore_errors=True)
    return {"setup": setup, "first": first, "again": again, "edit": edit,
            "actions": clock.samples, "problems": problems, **extra}


def measure(seed: int, seconds: float, tracer=None,
            setups: int = SETUPS) -> dict:
    """Iterate until ``seconds`` have passed (at least once)."""
    setup_s = []
    for index in range(setups):
        state = WORK / "fleet" / f"setup-{index}"
        gc.collect()
        start = time.perf_counter()
        _, cluster = build_cluster(state, fleet_document(seed))
        setup_s.append(time.perf_counter() - start)
        cluster.shutdown()
        shutil.rmtree(state, ignore_errors=True)
    iterations = []
    deadline = time.perf_counter() + seconds
    while not iterations or time.perf_counter() < deadline:
        iterations.append(iteration(seed, len(iterations), tracer))
    return {"setups": setup_s, "iterations": iterations}


def run(seed: int, seconds: float) -> dict:
    steal0, calibration = host_cpu(), [calibration_ms()]
    out = measure(seed, seconds)
    steal = steal_share(steal0, host_cpu())
    calibration.append(calibration_ms())
    its = out["iterations"]
    action_s = [d for it in its for _, d in it["actions"]]
    phases = ("first", "again", "edit")
    busy = sum(it[p]["seconds"] for it in its for p in phases)
    cpu_s = sum(it[p]["cpu_s"] for it in its for p in phases)
    problems = [p for it in its for p in it["problems"]]
    first = [it["first"]["seconds"] for it in its]
    again = [it["again"]["seconds"] * 1e3 for it in its]
    edit = [it["edit"]["seconds"] for it in its]
    attempted = len(action_s) + len(its)  # every action plus each re-apply
    failed = sum(len(it[p]["failed"]) for it in its for p in phases)
    lines = [
        metric_line("setup_s", median(out["setups"]), "s", len(out["setups"])),
        metric_line("apply_first_s", median(first), "s", len(first),
                    f" actions={its[0]['first']['actions']}"),
        metric_line("reapply_ms", median(again), "ms", len(again)),
        metric_line("apply_edit_s", median(edit), "s", len(edit),
                    f" actions={its[0]['edit']['actions']}"),
        metric_line("cpu_ms_per_action", cpu_s / len(action_s) * 1e3, "ms",
                    len(action_s)),
        metric_line("failed_ratio", failed / attempted, "-", attempted),
    ]
    for phase in phases:
        lines.append(f"note state writes {phase}: "
                     f"{its[0][phase]['write_bytes']} bytes in"
                     f" {its[0][phase]['write_calls']} write calls")
    lines.append(f"noise host_calibration_ms = {calibration}")
    lines.append(f"noise steal_share = {steal}")
    lines.append(f"noise converge_cpu_share = {cpu_s / busy}")
    lines += check_lines(["re-apply plans 0 actions",
                          "replica and mapping counts match the document",
                          "every converge action succeeds"], problems)
    return {
        "report": lines,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {"setup_s": (median(out["setups"]), "s"),
                    "apply_first_s": (median(first), "s"),
                    "reapply_ms": (median(again), "ms"),
                    "apply_edit_s": (median(edit), "s")},
    }
