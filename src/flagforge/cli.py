"""Operator commands: converge, serve, inspect, scale, promote, package.

Commands coordinate through the state directory, never via RPC: `apply`,
`scale` and a `pipeline` pass that promotes a bundle write the desired
topology once, then converge the nodes they host, those no serve process
owns; a running `serve` only reads that file and, in a tick on its main
thread, converges its own node when it changes. The directory comes from
`--state` unless FLAGFORGE_STATE is set, which wins. A command imports the
modules it runs only when it runs them.
"""

from __future__ import annotations

import _thread
import argparse
import os
import signal
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from .errors import FlagforgeError
from .model import MODE_DEPLOY, MODE_DEV, parse_topology, validate_topology
from .state import StateStore, status_rows

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARTIAL = 2


def _state_store(args: argparse.Namespace) -> StateStore:
    root = os.environ.get("FLAGFORGE_STATE") or args.state
    return StateStore(Path(root))


@contextmanager
def _hosting(store: StateStore, topology, applied):
    """A Cluster of the nodes no serve process owns.

    A backend that left the topology with live replicas is hosted too, from
    the applied topology that still names it, so this command stops them.
    Each served node is named once the command is done.
    """
    from .runtime import Cluster
    retired = [n for n in (applied[0].nodes if applied else ())
               if n not in topology.nodes and store.live_replicas(n)]
    owners = {n: store.lock_owner(n) for n in [*topology.nodes, *retired]}
    served = {n: pid for n, pid in owners.items() if pid is not None}
    cluster = Cluster(topology, store, bind_listeners=False, applied=applied,
                      hosted=[n for n in owners if n not in served])
    try:
        yield cluster
    finally:
        cluster.shutdown()
    for node_id in sorted(served):
        print(f"{node_id}: delegated to serve process (pid {served[node_id]})")


def _converge(store: StateStore, topology, applied) -> int:
    with _hosting(store, topology, applied) as cluster:
        # recorded first: served nodes pick it up even if nothing here runs
        store.save_desired(topology, {n: r for n, r in cluster.checksums.items()
                                      if n in topology.challenges})
        report = cluster.converge()
        print(report.render())
    return EXIT_OK if report.all_ok else EXIT_PARTIAL


def cmd_apply(args: argparse.Namespace) -> int:
    topology = parse_topology(Path(args.topology).read_text())
    validate_topology(topology)
    store = _state_store(args)
    return _converge(store, topology, store.load_desired())


def _stop_on_signals() -> threading.Event:
    """An event that SIGINT and SIGTERM set.

    A handler runs on the main thread, which may be inside the event's own
    ``wait`` and hold its lock there, so the handler sets it from a new
    thread rather than wait on that lock forever.
    """
    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: _thread.start_new_thread(stop.set, ()))
    return stop


def cmd_serve(args: argparse.Namespace) -> int:
    from .runtime import NodeService
    # a signal that arrives while the node starts up stops it once it is up,
    # and one that arrives during a tick once that tick ends
    stop = _stop_on_signals()
    root = os.environ.get("FLAGFORGE_STATE") or args.state
    service = NodeService(
        topology_path=Path(args.topology) if args.topology else None,
        node_id=args.node, state_root=Path(root),
        store_dir=Path(args.store) if args.store else None)
    try:
        failures = service.start()
        if failures:
            for failure in failures:
                print(f"error: {failure}", file=sys.stderr)
            return EXIT_ERROR
        print(f"serving {args.node} from {root}", flush=True)
        service.run(stop)
    finally:
        service.stop()
    return EXIT_OK


def cmd_status(args: argparse.Namespace) -> int:
    rows = status_rows(_state_store(args))
    if not rows:
        print("no deployments")
        return EXIT_OK
    for row in rows:
        if args.porcelain:
            print("challenge={challenge} backend={backend} version={version}"
                  " healthy={healthy} desired={desired} state={state}"
                  " port={port} stick={stick}".format(**row))
        else:
            print(f"{row['challenge']} {row['backend']} {row['version']}"
                  f" {row['healthy']}/{row['desired']} {row['state']}"
                  f" {row['port']}")
    return EXIT_OK


def cmd_scale(args: argparse.Namespace) -> int:
    store = _state_store(args)
    persisted = store.load_desired()
    if persisted is None:
        print("error: no applied topology", file=sys.stderr)
        return EXIT_ERROR
    topology, _ = persisted
    if args.challenge not in topology.challenges:
        print(f"error: unknown challenge {args.challenge!r}", file=sys.stderr)
        return EXIT_ERROR
    if args.count < 1:
        print("error: replica count must be at least 1; remove the challenge"
              " from the topology instead", file=sys.stderr)
        return EXIT_ERROR
    spec = replace(topology.challenges[args.challenge],
                   replica_count=args.count)
    challenges = dict(topology.challenges)
    challenges[args.challenge] = spec
    return _converge(store, replace(topology, challenges=challenges),
                     persisted)


def cmd_pipeline(args: argparse.Namespace) -> int:
    store = _state_store(args)
    persisted = store.load_desired()
    if persisted is None:
        print("error: no applied topology (run apply first)", file=sys.stderr)
        return EXIT_ERROR
    select = args.select.split(",") if args.select else None
    with _hosting(store, persisted[0], persisted) as cluster:
        try:
            while True:
                report = cluster.pipeline_once(args.mode, Path(args.store),
                                               select=select)
                print(report.render(), flush=True)
                if args.action == "run-once":
                    break
                time.sleep(cluster.topology.poll_interval)
        except KeyboardInterrupt:
            return EXIT_OK
    failed = any(o.state == "failed" for o in report.outcomes)
    return EXIT_PARTIAL if failed else EXIT_OK


def cmd_package(args: argparse.Namespace) -> int:
    from .pipeline import package_artifact
    print(package_artifact(Path(args.source), Path(args.store)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--state", default="state",
                        help="state directory (FLAGFORGE_STATE wins over this)")

    parser = argparse.ArgumentParser(
        prog="flagforge",
        description="declarative hosting for CTF challenge services")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("apply", parents=[common],
                       help="converge the cluster to a topology file")
    p.add_argument("topology", help="topology document to apply")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("serve", parents=[common],
                       help="host one node until signaled")
    p.add_argument("--node", required=True, help="node id from the topology")
    p.add_argument("--topology", default=None,
                   help="topology file to bootstrap an empty state directory")
    p.add_argument("--store", default=None,
                   help="artifact store to poll in dev mode")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("status", parents=[common],
                       help="one line per challenge per backend")
    p.add_argument("--porcelain", action="store_true",
                   help="stable key=value output for scripts")
    p.set_defaults(func=cmd_status)

    p = sub.add_parser("scale", parents=[common],
                       help="change a challenge's replica count")
    p.add_argument("challenge")
    p.add_argument("count", type=int)
    p.set_defaults(func=cmd_scale)

    p = sub.add_parser("pipeline", parents=[common],
                       help="promote artifacts from the store")
    p.add_argument("action", choices=("run-once", "watch"))
    p.add_argument("--mode", choices=(MODE_DEV, MODE_DEPLOY), default=MODE_DEV)
    p.add_argument("--select", default=None,
                   help="comma-separated challenge names")
    p.add_argument("--store", default="store", help="artifact store directory")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("package", help="bundle a challenge source directory")
    p.add_argument("source", help="directory containing challenge.meta")
    p.add_argument("--store", default="store", help="artifact store directory")
    p.set_defaults(func=cmd_package)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FlagforgeError, OSError) as exc:  # e.g. a missing input file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def console() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console()
