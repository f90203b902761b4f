"""flagforge benchmark: one command, one workload, one JSON verdict.

Usage::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke        # short pass over every workload

Run it from the root of a checkout that holds ``src/flagforge``; the program
is imported from there (pure Python, nothing to build). Working files go to
``perfbench/.work``. The last line of stdout is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the human-readable report: every end-to-end metric of the workload with
its unit and sample count, the checks, and the noise record.

Workloads (see ``dataplane.py``, ``fleet.py`` and ``rolling.py``):

* ``returning-players``  sticky crowd, per-message relay cost;
* ``address-churn``      fresh source address per session, stick-table evictions;
* ``fleet-apply``        control plane alone: converge 300 challenges;
* ``rolling-promotion``  dev promotions under open-loop player traffic.

``BENCHMARK.json`` gates the two data-plane workloads. Their JSON verdict
(``--trace 0``) carries:

* ``setup_s``          median of three set-ups, each from an empty state
  directory until the first greeting arrives through the public port;
* ``sessions_per_s``   completed sessions per second (closed loop);
* ``greeting_p50_ms``  median time from ``connect()`` to the replica's
  greeting, through ingress, balancer and replica;
* ``cpu_ms_per_session``  CPU time of both serve processes per session.

The other two workloads run and report the same way, with their own metrics
in the verdict, but are not gated. rolling-promotion loses sessions during a
rollout (the supervisor stops an old replica while the balancer still routes
to it), and a gated workload must be one on which no operation fails.
fleet-apply's verdict metrics spread too far from run to run on a shared
2-vCPU host. Over ten 30 s runs (seeds 501-510), the distance between the
quartiles as a share of the median was 55.8% for setup_s, 13.2% for
apply_first_s, 41.2% for reapply_ms and 19.6% for apply_edit_s. Two of these
exceed the largest bound a gate may have (25%), and the other two come close
to it.

Tail latencies (p99 and the like) are printed in the report with their
sample counts but are not gated: their run-to-run spread follows the
neighbours' CPU steal.

With ``--trace 1`` the run records spans from the benchmark's own code around
calls into each layer and prints the per-layer metrics instead (``tracing.py``).
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import traceback

from common import SRC, WORK, become_subreaper, kill_leftovers

END_TO_END = {"setup_s": "s", "sessions_per_s": "1/s", "greeting_p50_ms": "ms",
              "cpu_ms_per_session": "ms"}
GATED = ("returning-players", "address-churn")
WORKLOADS = GATED + ("fleet-apply", "rolling-promotion")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        import tracing
        return tracing.run(name, seed, seconds)
    if name == "fleet-apply":
        import fleet
        return fleet.run(seed, seconds)
    if name == "rolling-promotion":
        import rolling
        return rolling.run(seed, seconds)
    import dataplane
    return dataplane.report(dataplane.run(name, seed, seconds))


def emit(outcome: dict) -> None:
    for line in outcome["report"]:
        print(line)
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in outcome["metrics"].items()}
    print(json.dumps({"correct": not outcome["problems"],
                      "attempted": int(outcome["attempted"]),
                      "failed": int(outcome["failed"]),
                      "metrics": metrics}))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="short run of every workload plus self-checks")
    args = parser.parse_args(argv)
    if not (SRC / "flagforge" / "cli.py").is_file():
        print(f"error: {SRC / 'flagforge'} not found; run from the root of a"
              f" flagforge checkout", file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    sys.path.insert(0, str(SRC))
    become_subreaper()
    # a SIGTERM from outside still runs the teardown below
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    outcome = smoke_code = None
    try:
        if args.smoke:
            import smoke
            smoke_code = smoke.run()
        else:
            outcome = run_workload(args.workload, args.seed, args.seconds,
                                   bool(args.trace))
    except Exception:
        traceback.print_exc()
    finally:
        killed, survivors = kill_leftovers()
        if killed:
            print(f"note: killed leftover processes {killed}", file=sys.stderr)
    if survivors:
        print(f"error: processes survived teardown: {survivors}",
              file=sys.stderr)
        return 1
    if args.smoke:
        return 1 if smoke_code is None else smoke_code
    if outcome is None:
        return 1
    if (not args.trace and args.workload in GATED
            and set(outcome["metrics"]) != set(END_TO_END)):
        print(f"error: {args.workload} reports {sorted(outcome['metrics'])},"
              f" not the gated {sorted(END_TO_END)}", file=sys.stderr)
        return 1
    emit(outcome)
    return 0


if __name__ == "__main__":
    sys.exit(main())
