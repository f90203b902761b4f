"""Smoke test of the harness: ``python3 perfbench/run.py --smoke``.

Runs every workload for a few seconds, untraced, and one traced run, through
the same entry point the benchmark uses, and checks that

* each metric the workload names is printed with its unit and sample count,
  and the JSON verdict of a gated workload carries exactly the gated metrics;
* the traced run prints every per-layer metric;
* the metric and workload names match ``BENCHMARK.json``;
* the correctness checks trip on replicas that echo altered bytes.

Exits 0 when all hold.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import dataplane
from common import BENCH_DIR, ROOT, kill_leftovers

SECONDS = "3"
NAMED = {
    "returning-players": ("setup_s", "sessions_per_s", "greeting_p50_ms",
                          "greeting_p99_ms", "rtt_p50_ms", "rtt_p99_ms",
                          "relay_mb_per_s", "failed_ratio",
                          "cpu_ms_per_session"),
    "address-churn": ("setup_s", "sessions_per_s", "greeting_p50_ms",
                      "greeting_p99_ms", "failed_ratio",
                      "cpu_ms_per_session"),
    "fleet-apply": ("setup_s", "apply_first_s", "reapply_ms", "apply_edit_s",
                    "failed_ratio", "cpu_ms_per_action"),
    "rolling-promotion": ("setup_s", "rollout_s", "greeting_p50_ms",
                          "greeting_p99_ms", "rtt_p50_ms", "rtt_p99_ms",
                          "failed_ratio", "cpu_ms_per_session"),
}
METRIC_RE = re.compile(r"metric (\S+) = (\S+) (\S+) n=(\d+)")


def invoke(*args: str) -> tuple[int, list[str]]:
    process = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=600)
    return process.returncode, process.stdout.splitlines() + [
        "stderr: " + line for line in process.stderr.splitlines()]


def printed_metrics(lines: list[str]) -> dict[str, tuple[str, int]]:
    out = {}
    for line in lines:
        match = METRIC_RE.match(line)
        if match and match.group(2) != "n/a":
            out[match.group(1)] = (match.group(3), int(match.group(4)))
    return out


def verdict(lines: list[str]) -> dict:
    return json.loads(lines[[i for i, line in enumerate(lines)
                             if not line.startswith("stderr: ")][-1]])


def run() -> int:
    from run import END_TO_END, GATED
    from tracing import LAYERS
    failures: list[str] = []
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if {m["name"] for m in bench["end_to_end"]} != set(END_TO_END):
        failures.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if {m["name"] for m in bench["per_layer"]} != set(LAYERS):
        failures.append("BENCHMARK.json per_layer differs from tracing.LAYERS")
    if [w["name"] for w in bench["workloads"]] != list(GATED):
        failures.append("BENCHMARK.json workloads differ from run.GATED")

    for workload, names in NAMED.items():
        code, lines = invoke("--workload", workload, "--seed", "7",
                             "--seconds", SECONDS, "--trace", "0")
        if code != 0:
            failures.append(f"{workload}: exit {code}: {lines[-5:]}")
            continue
        printed = printed_metrics(lines)
        for name in names:
            if name not in printed or printed[name][1] < 1:
                failures.append(f"{workload}: {name} not printed with a unit"
                                f" and sample count")
        result = verdict(lines)
        gated_ok = (set(result["metrics"]) == set(END_TO_END)
                    if workload in GATED else bool(result["metrics"]))
        if not gated_ok or not result["correct"]:
            failures.append(f"{workload}: verdict {result}")
        print(f"smoke {workload}: {len(printed)} metrics,"
              f" correct={result['correct']}", flush=True)

    code, lines = invoke("--workload", "fleet-apply", "--seed", "7",
                         "--seconds", "1", "--trace", "1")
    printed = printed_metrics(lines)
    missing = sorted(set(LAYERS) - set(printed))
    if code != 0 or missing:
        failures.append(f"traced run: exit {code}, missing {missing}")
    print(f"smoke traced: {len(printed)} layer metrics", flush=True)

    # the echo check must trip when replicas alter what they echo
    try:
        out = dataplane.run("returning-players", 7, 1.0, corrupt=True)
        tripped = any("echo" in problem for problem in out["problems"])
    finally:
        _, survivors = kill_leftovers()
    if survivors:
        failures.append(f"processes survived the corrupt-replica run:"
                        f" {survivors}")
    if not tripped:
        failures.append("echo check did not trip on corrupting replicas")
    print(f"smoke corrupt replicas: echo check tripped={tripped}", flush=True)

    for failure in failures:
        print(f"smoke FAILED: {failure}")
    print("smoke:", "FAIL" if failures else "PASS")
    return 1 if failures else 0
