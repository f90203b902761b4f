"""Data-plane workloads: returning players and address churn.

Both run the deployed layout (``stack.Stack``): players reach a replica
through the frontend's public port (ingress), the backend's balancer port
and the replica. The load generator is a separate process (``loadgen.py``).

* returning-players: a closed loop of 2 clients over a crowd of 512 source
  addresses, all pinned during warm-up, so every selection is a sticky hit.
  A session is the greeting plus 8 round trips of 64 B; one session in 16
  (the slot is seeded) also echoes 1 MiB.
* address-churn: the same loop, but every session comes from a source
  address never seen before. The topology caps the stick table at 4096 and
  warm-up fills it, so every measured connection is a first contact that
  evicts. A session is the greeting plus one 64 B round trip.
"""

from __future__ import annotations

import json
import socket
import sys
import time

from common import (BENCH_DIR, calibration_ms, check_lines, host_cpu, median,
                    metric_line, noise_lines, process_threads, steal_share,
                    time_wait_cap, time_wait_count, timing_lines)
from stack import EXTERNAL_PORT, LOOPBACK, REPLICAS, Child, Stack, topology_text

SETUPS = 3
RETURNING_CROWD = 512
CHURN_CAPACITY = 4096
ROLLING_CROWD = 64
TIME_WAIT_PORT = 23990

PROFILES = {
    "returning-players": {
        "topology": {},
        "generator": {"crowd": RETURNING_CROWD, "rtts": 8, "msg_size": 64,
                      "bulk_every": 16, "bulk_bytes": 1 << 20},
        # touch every crowd address once, in order, so all are pinned
        "warmup": RETURNING_CROWD,
        "warmup_overrides": {"crowd": None, "rtts": 0, "bulk_every": 0},
    },
    "address-churn": {
        "topology": {"stick_capacity": CHURN_CAPACITY},
        "generator": {"crowd": None, "rtts": 1, "msg_size": 64,
                      "bulk_every": 0, "bulk_bytes": 0},
        # fill the stick table with first contacts straight to the balancer,
        # from addresses the measured sessions never use
        "warmup": CHURN_CAPACITY,
        "warmup_overrides": {"rtts": 0, "paths": {"balancer": 1.0},
                             "ip_offset": 100_000},
    },
    # open loop (rate set by rolling.py) from a small sticky crowd
    "rolling-promotion": {
        "topology": {},
        "generator": {"crowd": ROLLING_CROWD, "rtts": 1, "msg_size": 64,
                      "bulk_every": 0, "bulk_bytes": 0},
        "warmup": ROLLING_CROWD,
        "warmup_overrides": {"crowd": None, "rtts": 0},
    },
}


def warm_time_wait() -> dict:
    """Top the TIME_WAIT table up to the kernel's cap before measuring.

    Loopback connections leave one TIME_WAIT entry each and back-to-back
    runs would otherwise start from whatever the previous run left behind.
    Filling the table with throwaway connections from distinct source
    addresses puts every run in the same state: new entries are dropped at
    the cap. No sysctl is read for writing or changed.
    """
    cap = time_wait_cap()
    before = time_wait_count()
    target = cap - cap // 64
    made = 0
    with socket.socket() as listener:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((LOOPBACK, TIME_WAIT_PORT))
        listener.listen(512)
        while time_wait_count() < target and made < 4 * cap:
            for _ in range(256):
                client = socket.socket()
                client.bind((f"127.254.{(made >> 8) & 255}.{made & 255 or 1}", 0))
                client.connect((LOOPBACK, TIME_WAIT_PORT))
                server, _ = listener.accept()
                client.close()
                server.close()
                made += 1
    after = time_wait_count()
    return {"tw_cap": cap, "tw_before_warm": before, "tw_start": after,
            "tw_condition": "warmed to the cap" if after >= target
            else "below the cap"}


def generator_config(kind: str, seed: int, seconds: float, stack: Stack, *,
                     paths: dict | None = None, ip_offset: int = 0,
                     warmup: bool = True, trace: bool = False,
                     mode: str = "closed", rate: float = 0.0) -> dict:
    profile = PROFILES[kind]
    config = dict(profile["generator"], seed=seed, seconds=seconds,
                  mode=mode, rate=rate, trace=trace,
                  ip_offset=ip_offset, paths=paths or {"ingress": 1.0},
                  targets={"ingress": [LOOPBACK, EXTERNAL_PORT],
                           "balancer": [LOOPBACK, stack.balancer_port()],
                           "replicas": stack.replica_endpoints()})
    if warmup:
        config["warmup"] = profile["warmup"]
        config["warmup_overrides"] = dict(profile["warmup_overrides"])
    return config


def run_generator(stack: Stack, config: dict, tag: str,
                  during=None) -> dict:
    """Run one generator process against the stack; returns its result.

    Once the generator reports ready (warm-up done), ``during`` runs in the
    harness if given (the promotion loop of rolling-promotion); then the
    serve processes' thread counts are sampled until the generator exits.
    """
    config_path = stack.dir / f"loadgen-{tag}.json"
    result_path = stack.dir / f"loadgen-{tag}.out.json"
    config_path.write_text(json.dumps(config))
    gen = Child([sys.executable, str(BENCH_DIR / "loadgen.py"),
                 str(config_path), str(result_path)],
                stack.dir / f"loadgen-{tag}.log")
    try:
        gen.read_line(300)  # "ready" after warm-up
        cpu0, steal0 = stack.serve_cpu_s(), host_cpu()
        threads = {role: 0 for role in stack.serve_pids()}
        if during is not None:
            during()
        while gen.process.poll() is None:
            for role, pid in stack.serve_pids().items():
                threads[role] = max(threads[role], process_threads(pid))
            time.sleep(0.05)
        cpu1, steal1 = stack.serve_cpu_s(), host_cpu()
        if gen.process.returncode != 0:
            raise RuntimeError(f"load generator exited with"
                               f" {gen.process.returncode}; see"
                               f" {stack.dir / f'loadgen-{tag}.log'}")
    finally:
        gen.stop()
    result = json.loads(result_path.read_text())
    result["serve_cpu_s"] = {role: cpu1[role] - cpu0[role] for role in cpu0}
    result["threads_peak"] = threads
    result["steal_share"] = steal_share(steal0, steal1)
    result["tw_end"] = time_wait_count()
    return result


def session_stats(records: list[dict]) -> dict:
    """Figures over the sessions that completed through the public port."""
    ok = [r for r in records if r["ok"] and r["path"] == "ingress"]
    rtts = [x for r in ok for x in r.get("rtt_ms", [])]
    bulk = [r["bulk"] for r in ok if "bulk" in r]
    bulk_bytes = sum(b[0] for b in bulk)
    bulk_time = sum(b[1] for b in bulk)
    return {
        "ok": ok,
        "greet_ms": [r["greet_ms"] for r in ok],
        "rtt_ms": rtts,
        "bulk_n": len(bulk),
        "relay_mb_per_s": bulk_bytes / bulk_time / 1e6 if bulk_time else None,
    }


def check_sessions(kind: str, result: dict) -> list[str]:
    """Correctness verdicts over one generator result; empty means all pass."""
    problems = []
    records = result["records"]
    bad_echo = [r for r in records if not r["echo_ok"]]
    if bad_echo:
        problems.append(f"{len(bad_echo)} sessions got an echo that differs"
                        f" from what they sent")
    relayed = [r for r in records if r["ok"] and r["path"] != "direct"]
    if kind == "returning-players":
        pins = result.get("warm_pins", {})
        seen: dict[str, set] = {}
        for r in relayed:
            seen.setdefault(r["ip"], set()).add(r["replica"])
        moved = [ip for ip, replicas in seen.items()
                 if len(replicas) > 1 or (ip in pins and pins[ip] not in replicas)]
        if moved:
            problems.append(f"{len(moved)} returning addresses left their"
                            f" first replica")
    if kind == "address-churn":
        counts: dict[str, int] = {}
        for r in relayed:
            counts[r["replica"]] = counts.get(r["replica"], 0) + 1
        if counts and max(counts.values()) - min(counts.values()) > 1:
            problems.append(f"first contacts spread unevenly: {sorted(counts.values())}")
        if len(counts) != REPLICAS and relayed:
            problems.append(f"first contacts reached {len(counts)} of"
                            f" {REPLICAS} replicas")
    return problems


def run(kind: str, seed: int, seconds: float, corrupt: bool = False) -> dict:
    """One untraced run: the end-to-end metrics and the checks.

    ``corrupt`` deploys replicas that alter what they echo (smoke test).
    """
    stack = Stack(kind, topology_text(corrupt=corrupt,
                                      **PROFILES[kind]["topology"]))
    setups = stack.start_repeatedly(SETUPS)
    try:
        calibration = [calibration_ms()]
        noise = warm_time_wait()
        config = generator_config(kind, seed, seconds, stack)
        result = run_generator(stack, config, "measure")
        calibration.append(calibration_ms())
    finally:
        stack.stop()
    stats = session_stats(result["records"])
    problems = check_sessions(kind, result)
    done = len(stats["ok"])
    if not done:
        problems.append("no measured session completed")
    failed = sum(1 for r in result["records"] if not r["ok"])
    noise.update(tw_end=result["tw_end"],
                 steal_share=result["steal_share"],
                 generator_cpu_share=result["cpu_s"] / result["wall_s"],
                 serve_cpu_s=result["serve_cpu_s"],
                 warmup_failures=result["warm_failures"],
                 host_calibration_ms=calibration,
                 unclean_stops=stack.unclean_stops,
                 leaked_replicas=stack.leaked_replicas)
    return {
        "kind": kind,
        "attempted": len(result["records"]),
        "failed": failed,
        "problems": problems,
        "setup_s": median(setups),
        "setup_samples": setups,
        "sessions_per_s": done / result["wall_s"],
        "cpu_ms_per_session": sum(result["serve_cpu_s"].values())
        / max(done, 1) * 1e3,
        "sessions": done,
        "greet_ms": stats["greet_ms"],
        "rtt_ms": stats["rtt_ms"],
        "bulk_n": stats["bulk_n"],
        "relay_mb_per_s": stats["relay_mb_per_s"],
        "noise": noise,
    }


def report(out: dict) -> dict:
    """End-to-end metrics and the report lines of one untraced run."""
    failed_ratio = out["failed"] / out["attempted"] if out["attempted"] else 0
    lines = [
        metric_line("setup_s", out["setup_s"], "s", len(out["setup_samples"])),
        metric_line("sessions_per_s", out["sessions_per_s"], "1/s",
                    out["sessions"]),
        metric_line("cpu_ms_per_session", out["cpu_ms_per_session"], "ms",
                    out["sessions"]),
        *timing_lines("greeting", out["greet_ms"]),
        *timing_lines("rtt", out["rtt_ms"]),
    ]
    if out["bulk_n"]:
        lines.append(metric_line("relay_mb_per_s", out["relay_mb_per_s"],
                                 "MB/s", out["bulk_n"]))
    lines.append(metric_line("failed_ratio", failed_ratio, "-",
                             out["attempted"]))
    lines += check_lines(
        ["echo byte-exact", "returning address stays on its first replica"
         if out["kind"] == "returning-players"
         else "first contacts spread evenly over the replicas"],
        out["problems"])
    lines += noise_lines(out["noise"])
    return {
        "report": lines,
        "problems": out["problems"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {"setup_s": (out["setup_s"], "s"),
                    "sessions_per_s": (out["sessions_per_s"], "1/s"),
                    "greeting_p50_ms": (median(out["greet_ms"] or [0.0]), "ms"),
                    "cpu_ms_per_session": (out["cpu_ms_per_session"], "ms")},
    }


