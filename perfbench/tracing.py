"""The traced run: per-layer metrics, each measured from outside the layer.

Spans are recorded by the benchmark's own code around calls into the
program (the generator around each session step, ``fleet.ActionClock`` and
wrappers around ``diff``/``observe``, ``backend_host.py`` around runner, prober,
supervisor and pipeline calls); nothing inside ``src/`` is instrumented.

Every traced run prints every layer metric. The layers a workload exercises
are measured under that workload's own traffic for ``--seconds``; the others
come from a short pass of the workload that does exercise them:

* ``data``     hop, relay and serve-process metrics (returning-players or
               address-churn; returning-players when filling in);
* ``fleet``    model, runtime, supervisor bookkeeping and ingress.map
               (fleet-apply);
* ``rolling``  runner, prober, supervisor tick and pipeline (rolling-promotion);
* ``micro``    balancer and registry calls at the workloads' sizes.

The tracing overhead is the workload's own median operation time (greeting
for the data plane and rolling-promotion, one converge action for
fleet-apply) traced against an untraced phase of the same run, in percent.
"""

from __future__ import annotations

import time

import flagforge.runtime as runtime

import dataplane
import fleet
import layers
import rolling
from common import WORK, Tracer, check_lines, median, metric_line, write_spans
from stack import Stack, topology_text

FILL_SECONDS = 3.0
GROUP_OF = {"returning-players": "data", "address-churn": "data",
            "fleet-apply": "fleet", "rolling-promotion": "rolling"}
ACTION_KINDS = ("create_network", "start_replica", "update_balancer_config",
                "bind_ingress", "stop_replica", "unbind_ingress",
                "remove_network")

# name -> unit; BENCHMARK.json's per_layer lists the same names
LAYERS = {
    "model.parse_ms": "ms",
    "model.diff_ms": "ms",
    "model.actions": "count",
    "runtime.observe_ms": "ms",
    **{f"runtime.action_ms.{kind}": "ms" for kind in ACTION_KINDS},
    "runtime.state_write_bytes": "bytes",
    "runtime.state_write_calls": "count",
    "supervisor.snapshot_ms": "ms",
    "ingress.mapping_ms": "ms",
    "balancer.select_hit_us": "us",
    "balancer.select_first_us": "us",
    "balancer.stick_assign_full_us.65536": "us",
    "balancer.invalidate_ms": "ms",
    "balancer.connect_upstream_ms": "ms",
    "balancer.sticky_hit_ratio": "ratio",
    "replica.greeting_ms": "ms",
    "balancer.hop_ms": "ms",
    "ingress.hop_ms": "ms",
    "balancer.rtt_hop_ms": "ms",
    "ingress.rtt_hop_ms": "ms",
    "balancer.cpu_ms_per_session": "ms",
    "ingress.cpu_ms_per_session": "ms",
    "balancer.threads_peak": "count",
    "ingress.threads_peak": "count",
    "registry.replicas_of_us": "us",
    "registry.mark_health_us": "us",
    "supervisor.probe_all_ms": "ms",
    "supervisor.tick_ms": "ms",
    "runner.spawn_ms": "ms",
    "runner.ready_ms": "ms",
    "runner.stop_ms": "ms",
    "pipeline.scan_store_ms": "ms",
    "pipeline.extract_ms": "ms",
    "pipeline.package_ms": "ms",
    "trace.overhead_pct": "%",
}


def span_median_ms(spans, name: str) -> tuple[float, str, int]:
    durations = [end - start for n, start, end, *_ in spans if n == name]
    if not durations:
        raise RuntimeError(f"no {name} spans were recorded")
    return median(durations) * 1e3, "ms", len(durations)


def path_medians(records: list[dict], key: str) -> dict[str, float]:
    out = {}
    for path in ("direct", "balancer", "ingress"):
        values = [v for r in records if r["ok"] and r["path"] == path
                  for v in ((r[key],) if key == "greet_ms" else r[key])]
        out[path] = median(values) if values else float("nan")
    return out


class Tally:
    """Operations attempted and failed in a traced run, and failed checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def sessions(self, kind: str, result: dict) -> None:
        records = result["records"]
        self.attempted += len(records)
        self.failed += sum(1 for r in records if not r["ok"])
        self.problems += dataplane.check_sessions(kind, result)


def data_group(kind: str, seed: int, seconds: float, own: bool,
               tally: Tally) -> dict:
    """Hops, relay and serve-process metrics on a live stack of ``kind``."""
    stack = Stack(f"trace-{kind}", topology_text(**dataplane.PROFILES[kind]
                                                 ["topology"]))
    out = {}
    try:
        stack.start()
        dataplane.warm_time_wait()
        share = seconds / 3 if own else seconds / 2
        # phase A: untraced, public path only (serve CPU, threads, baseline)
        base = dataplane.run_generator(stack, dataplane.generator_config(
            kind, seed, share, stack), "untraced")
        tally.sessions(kind, base)
        ok = [r for r in base["records"] if r["ok"]]
        for role, layer in (("backend", "balancer"), ("frontend", "ingress")):
            out[f"{layer}.cpu_ms_per_session"] = (
                base["serve_cpu_s"][role] / len(ok) * 1e3, "ms", len(ok))
            out[f"{layer}.threads_peak"] = (base["threads_peak"][role],
                                            "count", 1)
        # a crowd keeps its pinned addresses; churn needs unseen ones
        churn = dataplane.PROFILES[kind]["generator"]["crowd"] is None
        offset = 200_000 if churn else 0
        spans = []
        if own:
            # phase B: the same traffic traced, for the overhead
            traced = dataplane.run_generator(stack, dataplane.generator_config(
                kind, seed, share, stack, warmup=False, trace=True,
                ip_offset=offset), "traced")
            tally.sessions(kind, traced)
            spans = traced["spans"]
            before = median([r["greet_ms"] for r in ok])
            after = median([r["greet_ms"] for r in traced["records"]
                            if r["ok"]])
            out["trace.overhead_pct"] = ((after - before) / before * 100,
                                         "%", len(traced["records"]))
            offset += 100_000 if churn else 0
        # phase C: a share of sessions straight to replicas and to the
        # balancer port, so each hop is a difference of medians
        mixed = dataplane.run_generator(stack, dataplane.generator_config(
            kind, seed, share, stack, warmup=False, trace=True,
            ip_offset=offset,
            paths={"direct": 0.25, "balancer": 0.25, "ingress": 0.5}),
            "mixed")
        tally.sessions(kind, mixed)
        records = mixed["records"]
        greet = path_medians(records, "greet_ms")
        rtt = path_medians(records, "rtt_ms")
        n = sum(1 for r in records if r["ok"])
        out["replica.greeting_ms"] = (greet["direct"], "ms", n)
        out["balancer.hop_ms"] = (greet["balancer"] - greet["direct"], "ms", n)
        out["ingress.hop_ms"] = (greet["ingress"] - greet["balancer"], "ms", n)
        out["balancer.rtt_hop_ms"] = (rtt["balancer"] - rtt["direct"], "ms", n)
        out["ingress.rtt_hop_ms"] = (rtt["ingress"] - rtt["balancer"], "ms", n)
        value, count = layers.connect_upstream(stack.replica_endpoints(), seed)
        out["balancer.connect_upstream_ms"] = (value, "ms", count)
        write_spans(WORK / f"spans-{kind}-traced.jsonl", spans)
        write_spans(WORK / f"spans-{kind}-mixed.jsonl", mixed["spans"])
    finally:
        stack.stop()
    return out


def fleet_group(seed: int, seconds: float, own: bool, tally: Tally) -> dict:
    out = {}
    tracer = Tracer()
    if own:
        untraced = fleet.iteration(seed, 0)
    original_diff = runtime.diff
    tracer.wrap(runtime, "diff", "model.diff")
    try:
        traced = fleet.measure(seed, seconds if own else 0.0, tracer=tracer,
                               setups=0)
    finally:
        runtime.diff = original_diff
    its = traced["iterations"]
    for it in its:
        tally.attempted += len(it["actions"]) + 1
        tally.failed += sum(len(it[p]["failed"])
                            for p in ("first", "again", "edit"))
        tally.problems += it["problems"]
    spans = tracer.spans
    out["model.diff_ms"] = span_median_ms(spans, "model.diff")
    out["runtime.observe_ms"] = span_median_ms(spans, "runtime.observe")
    for kind in ACTION_KINDS:
        out[f"runtime.action_ms.{kind}"] = span_median_ms(
            spans, f"runtime.action.{kind}")
    first = its[0]["first"]
    out["model.actions"] = (first["actions"], "count", len(its))
    out["runtime.state_write_bytes"] = (first["write_bytes"], "bytes", 1)
    out["runtime.state_write_calls"] = (first["write_calls"], "count", 1)
    out["supervisor.snapshot_ms"] = (median(its[0]["snapshot"]) * 1e3, "ms",
                                     len(its[0]["snapshot"]))
    document = fleet.fleet_document(seed)
    out.update(layers.model_layer(document, its[0]["topology"],
                                  its[0]["balancer_ports"]))
    if own:
        before = median([d for _, d in untraced["actions"]])
        after = median([d for it in its for _, d in it["actions"]])
        out["trace.overhead_pct"] = ((after - before) / before * 100, "%",
                                     len(its))
    tracer.dump(WORK / "spans-fleet.jsonl")
    return out


def rolling_group(seed: int, seconds: float, own: bool, tally: Tally) -> dict:
    out = {}
    if own:
        untraced = rolling.measure(seed, seconds / 2, setups=1)
        seconds /= 2
    traced = rolling.measure(seed, seconds, trace=True, setups=1)
    records = traced["result"]["records"]
    tally.attempted += len(records)
    tally.failed += sum(1 for r in records if not r["ok"])
    tally.problems += traced["promoter"].problems
    spans = traced["spans"]
    for layer, name in (("runner.spawn_ms", "runner.spawn"),
                        ("runner.ready_ms", "runner.ready"),
                        ("runner.stop_ms", "runner.stop"),
                        ("supervisor.probe_all_ms", "supervisor.probe_all"),
                        ("supervisor.tick_ms", "supervisor.tick"),
                        ("pipeline.scan_store_ms", "pipeline.scan_store"),
                        ("pipeline.extract_ms", "pipeline.extract")):
        out[layer] = span_median_ms(spans, name)
    packages = traced["promoter"].packages
    out["pipeline.package_ms"] = (median(packages) * 1e3, "ms", len(packages))
    if own:
        def p50(result):
            return median([r["greet_ms"] for r in result["records"] if r["ok"]])
        before, after = p50(untraced["result"]), p50(traced["result"])
        out["trace.overhead_pct"] = ((after - before) / before * 100, "%",
                                     len(traced["result"]["records"]))
    write_spans(WORK / "spans-rolling.jsonl", spans)
    return out


def run(name: str, seed: int, seconds: float) -> dict:
    own = GROUP_OF[name]
    measured: dict = {}
    started = time.perf_counter()
    # the verdict counts the workload's own operations; fill-in passes only
    # add their failed checks, and their counts go to the report
    tally, fill = Tally(), Tally()
    groups = {
        "data": lambda s, o, t: data_group(
            name if own == "data" else "returning-players", seed, s, o, t),
        "fleet": lambda s, o, t: fleet_group(seed, s, o, t),
        "rolling": lambda s, o, t: rolling_group(seed, s, o, t),
    }
    measured.update(groups[own](seconds, True, tally))
    for group, measure in groups.items():
        if group != own:
            measured.update(measure(FILL_SECONDS, False, fill))
    tally.problems += fill.problems
    measured.update(layers.balancer_layer(seed))
    missing = sorted(set(LAYERS) - set(measured))
    if missing:
        raise RuntimeError(f"layer metrics not measured: {missing}")
    lines = [metric_line(name, value, unit, n)
             for name, (value, unit, n) in sorted(measured.items())]
    lines.append(f"note traced run took {time.perf_counter() - started:.1f} s;"
                 f" spans in {WORK}")
    lines.append(f"note fill-in passes: {fill.failed} of {fill.attempted}"
                 f" operations failed")
    lines += check_lines(["echo byte-exact, stickiness and spread in every"
                          " data-plane phase", "fleet counts and re-apply",
                          "promotions reach every replica"], tally.problems)
    return {"report": lines, "problems": tally.problems,
            "attempted": tally.attempted, "failed": tally.failed,
            "metrics": {k: (measured[k][0], LAYERS[k]) for k in LAYERS}}
