"""rolling-promotion: dev promotions while players keep connecting.

One challenge with 3 subprocess replicas sits behind the real ingress
(``flagforge serve`` for the frontend) and balancer. The backend is hosted by
``backend_host.py``, which runs a dev promotion pass on command. Players arrive in
an open loop at 50 sessions/s from 64 sticky source addresses, at most 2 in
flight; a session is the greeting plus one 64 B round trip, and its greeting
latency counts from the time it was due.

The benchmark packages a build whose payload differs from every earlier one
(promotion is keyed on the content checksum, so a repackaged payload would
promote nothing), runs one pass, checks that every replica now greets with
the new version, and repeats until the measured window ends. The store also
holds ``IDLE_BUNDLES`` bundles of challenges that are not deployed, which
every pass's ``scan_store`` reads.

Sessions that fail during a rollout are counted, not hidden: a rolling
update stops an old replica before the balancer stops routing to it.
"""

from __future__ import annotations

import shutil
import sys
import time
from pathlib import Path

from flagforge.pipeline import package_artifact

from common import (BENCH_DIR, WORK, calibration_ms, check_lines, median,
                    metric_line, noise_lines, timing_lines)
from dataplane import generator_config, run_generator, warm_time_wait
from stack import (CHALLENGE, EXTERNAL_PORT, LOOPBACK, REPLICAS, Stack, greet,
                   topology_text)

RATE = 50.0
IDLE_BUNDLES = 200
SETUPS = 3
BASE_TIME = "2030-01-01T00:{:02d}:{:02d}+00:00"


def write_source(root: Path, challenge: str, version: str, build: str,
                 minute: int, second: int) -> Path:
    source = root / f"{challenge}-{version}"
    shutil.rmtree(source, ignore_errors=True)
    source.mkdir(parents=True)
    shutil.copy(BENCH_DIR / "replica.py", source / "replica.py")
    (source / "build.txt").write_text(build + "\n")
    (source / "challenge.meta").write_text("\n".join([
        f"challenge={challenge}", f"version={version}", f"replicas={REPLICAS}",
        "internal_port=4000", f"external_port={EXTERNAL_PORT}",
        f"run={sys.executable} {{DIR}}/replica.py --port {{PORT}}",
        f"created_at={BASE_TIME.format(minute, second)}"]) + "\n")
    return source


def fill_store(store: Path, seed: int) -> int:
    """Bundles of undeployed challenges, so scan_store reads a real store."""
    sources = WORK / "rolling" / "sources"
    for i in range(IDLE_BUNDLES):
        package_artifact(write_source(sources, f"idle-{i:03d}", "v1",
                                      f"idle {seed} {i}", 0, 0), store)
    shutil.rmtree(sources, ignore_errors=True)
    return len(list(store.glob("*.bundle")))


class Promoter:
    """Packages new builds and promotes them through the backend host."""

    def __init__(self, stack: Stack, store: Path, seed: int):
        self.stack = stack
        self.store = store
        self.seed = seed
        self.builds = 0
        self.rollouts: list[float] = []
        self.packages: list[float] = []
        self.problems: list[str] = []

    def promote(self) -> None:
        self.builds += 1
        version = f"v{self.builds + 1}"
        minute, second = divmod(self.builds, 60)
        source = write_source(WORK / "rolling" / "sources", CHALLENGE, version,
                              f"build {self.seed} {self.builds}", 1 + minute,
                              second)
        start = time.perf_counter()
        package_artifact(source, self.store)
        self.packages.append(time.perf_counter() - start)
        reply = self.stack.command("pass")
        self.rollouts.append(reply["rollout_s"])
        if reply["outcomes"] != [[CHALLENGE, version, "deployed", ""]]:
            self.problems.append(f"promotion of {version}: {reply['outcomes']}")
        versions = []
        for record in self.stack.note_replicas():
            try:
                versions.append(greet(LOOPBACK, record["port"]).split()[-1])
            except OSError as exc:
                versions.append(f"unreachable ({exc})")
        if versions != [version] * REPLICAS:
            self.problems.append(f"after promoting {version} the replicas"
                                 f" greet with {versions}")

    def until(self, deadline: float) -> None:
        while time.perf_counter() < deadline and not self.problems:
            self.promote()


def measure(seed: int, seconds: float, trace: bool = False,
            setups: int = SETUPS) -> dict:
    store = WORK / "rolling" / "store"
    shutil.rmtree(store, ignore_errors=True)
    bundles = fill_store(store, seed)
    stack = Stack("rolling-promotion", topology_text(), host_args=[
        "--store", str(store)] + (["--trace"] if trace else []))
    setup_s = stack.start_repeatedly(setups)
    promoter = Promoter(stack, store, seed)
    try:
        calibration = [calibration_ms()]
        noise = warm_time_wait()
        config = generator_config("rolling-promotion", seed, seconds, stack,
                                  mode="open", rate=RATE, trace=trace)

        def during():
            # leave the last promotion room to finish inside the window
            promoter.until(time.perf_counter() + seconds - 1.0)

        result = run_generator(stack, config, "measure", during=during)
        calibration.append(calibration_ms())
        spans = stack.command("spans")["spans"] if trace else []
    finally:
        stack.stop()
    noise.update(store_bundles=bundles, tw_end=result["tw_end"],
                 host_calibration_ms=calibration,
                 steal_share=result["steal_share"],
                 generator_cpu_share=result["cpu_s"] / result["wall_s"],
                 serve_cpu_s=result["serve_cpu_s"],
                 unclean_stops=stack.unclean_stops,
                 leaked_replicas=stack.leaked_replicas)
    return {"setups": setup_s, "result": result, "promoter": promoter,
            "noise": noise, "spans": spans}


def run(seed: int, seconds: float) -> dict:
    out = measure(seed, seconds)
    result, promoter = out["result"], out["promoter"]
    records = result["records"]
    ok = [r for r in records if r["ok"]]
    greet_ms = [r["greet_ms"] for r in ok]
    failed = len(records) - len(ok)
    late = [r["late"] * 1e3 for r in records]
    bad_echo = sum(1 for r in records if not r["echo_ok"])
    problems = list(promoter.problems)
    if bad_echo:
        problems.append(f"{bad_echo} sessions got an echo that differs from"
                        f" what they sent")
    if not promoter.rollouts:
        problems.append("no promotion completed inside the window")
    errors: dict[str, int] = {}
    for r in records:
        if not r["ok"]:
            errors[r["error"]] = errors.get(r["error"], 0) + 1
    rtts = [x for r in ok for x in r.get("rtt_ms", [])]
    cpu_ms = sum(result["serve_cpu_s"].values()) / max(len(ok), 1) * 1e3
    if not ok:
        problems.append("no measured session completed")
    lines = [
        metric_line("setup_s", median(out["setups"]), "s", len(out["setups"])),
        metric_line("rollout_s", median(promoter.rollouts) if promoter.rollouts
                    else None, "s", len(promoter.rollouts)),
        metric_line("sessions_per_s", len(ok) / result["wall_s"], "1/s",
                    len(ok), f" offered={RATE:g}/s"),
        *timing_lines("greeting", greet_ms),
        *timing_lines("rtt", rtts),
        metric_line("cpu_ms_per_session", cpu_ms, "ms", len(ok)),
        metric_line("failed_ratio", failed / len(records), "-", len(records)),
    ]
    lines += [f"note failed sessions: {count} x {error}"
              for error, count in sorted(errors.items())]
    lines += check_lines(["echo byte-exact",
                          "every pass deploys the new build",
                          "after each promotion every replica greets with"
                          " the new version"], problems)
    noise = dict(out["noise"], lateness_p50_ms=median(late),
                 lateness_max_ms=max(late))
    lines += noise_lines(noise)
    return {
        "report": lines,
        "problems": problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {"setup_s": (median(out["setups"]), "s"),
                    "rollout_s": (median(promoter.rollouts or [0.0]), "s"),
                    "greeting_p50_ms": (median(greet_ms or [0.0]), "ms"),
                    "cpu_ms_per_session": (cpu_ms, "ms")},
    }
