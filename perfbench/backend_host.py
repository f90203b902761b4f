"""Backend host for the rolling-promotion workload.

Hosts one backend node through the public ``Cluster`` API with the calls
``flagforge serve`` makes (lock, converge of its own node, probe, persist
balancer ports, then a supervision tick every ``probe_interval``), but runs
a dev promotion pass (``Cluster.pipeline_once``) when told to on stdin, so a
pass starts on command instead of on the next ``poll_interval`` tick.

Commands, one per line; each gets one JSON line back:

* ``pass``   one dev pass over ``--store``; replies with its wall time;
* ``spans``  the spans recorded so far (with ``--trace``);
* ``quit``   stop replicas, release the node and exit.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import signal
import sys
import time
from pathlib import Path

import flagforge.pipeline as pipeline
import flagforge.runtime as runtime
from flagforge.model import parse_topology
from flagforge.pipeline import MODE_DEV
from flagforge.runtime import Cluster, StateStore

from common import Tracer

TICK = 0.5  # NodeService's default tick


def instrument(backend, tracer: Tracer) -> None:
    """Spans around runner, prober, supervisor and pipeline calls."""
    spawned: dict[int, float] = {}
    runner = backend.runner
    spawn, probe = runner.spawn, backend.supervisor.prober.probe

    def timed_spawn(spec, port, replica_id):
        start = time.perf_counter()
        handle = spawn(spec, port, replica_id)
        tracer.add("runner.spawn", start, time.perf_counter())
        spawned[port] = start
        return handle

    def timed_probe(address, port, spec):
        up = probe(address, port, spec)
        if up and port in spawned:
            tracer.add("runner.ready", spawned.pop(port), time.perf_counter())
        return up

    runner.spawn = timed_spawn
    backend.supervisor.prober.probe = timed_probe
    tracer.wrap(runner, "stop", "runner.stop")
    tracer.wrap(backend.supervisor, "probe_all", "supervisor.probe_all")
    tracer.wrap(pipeline, "scan_store", "pipeline.scan_store")
    tracer.wrap(runtime, "extract_payload", "pipeline.extract")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--node", required=True)
    parser.add_argument("--topology", required=True)
    parser.add_argument("--state", required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))

    store = StateStore(Path(args.state))
    topology = parse_topology(Path(args.topology).read_text())
    if store.load_desired() is None:
        store.save_desired(topology, {})
    store.acquire_lock(args.node, os.getpid())
    cluster = Cluster(topology, store, hosted=[args.node], bind_listeners=True)
    tracer = Tracer()
    try:
        backend = cluster.backends[args.node]
        if args.trace:
            instrument(backend, tracer)
        cluster.converge(only_node=args.node)
        backend.supervisor.probe_all()
        backend.persist_balancer()
        print("serving", flush=True)
        selector = selectors.DefaultSelector()
        selector.register(sys.stdin, selectors.EVENT_READ)
        last_probe = 0.0
        while True:
            ready = selector.select(TICK)
            now = time.time()
            if now - last_probe >= cluster.topology.probe_interval:
                last_probe = now
                with tracer.span("supervisor.tick"):
                    backend.tick()
            if not ready:
                continue
            command = sys.stdin.readline().strip()
            if command in ("", "quit"):
                break
            if command == "pass":
                with tracer.span("pipeline.pass"):
                    start = time.perf_counter()
                    report = cluster.pipeline_once(MODE_DEV, Path(args.store))
                    elapsed = time.perf_counter() - start
                reply = {"rollout_s": elapsed, "outcomes": [
                    [o.challenge, o.version, o.state, o.detail]
                    for o in report.outcomes]}
            elif command == "spans":
                reply = {"spans": tracer.spans if args.trace else []}
            else:
                reply = {"error": f"unknown command {command!r}"}
            print(json.dumps(reply), flush=True)
    finally:
        cluster.shutdown(stop_replicas=True)
        store.release_lock(args.node)
    return 0


if __name__ == "__main__":
    sys.exit(main())
