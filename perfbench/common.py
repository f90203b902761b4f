"""Shared pieces of the benchmark: statistics, spans, /proc readers, processes.

Everything here reads the kernel's accounting for this container only
(``/proc/net/sockstat``, ``/proc/stat``, ``/proc/<pid>/...``) and changes no
setting. Process handling relies on the harness being a child subreaper, so
replicas orphaned by a serve process are reparented to it and can be found,
killed and reaped at the end of every run.
"""

from __future__ import annotations

import ctypes
import json
import os
import signal
import time
from contextlib import contextmanager
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"

CLK_TCK = os.sysconf("SC_CLK_TCK")
PR_SET_CHILD_SUBREAPER = 36
KILL_GRACE = 3.0


# --- statistics -------------------------------------------------------------


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile of a non-empty list (q in [0, 1])."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return quantile(values, 0.5)


def timed(fn, repeat: int) -> list[float]:
    """Wall seconds of ``repeat`` calls of ``fn``."""
    samples = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return samples


# --- report lines ---------------------------------------------------------------


def metric_line(name: str, value, unit: str, n: int | None = None,
                extra: str = "") -> str:
    shown = "n/a" if value is None else f"{value:.6g}"
    count = "" if n is None else f" n={n}"
    return f"metric {name} = {shown} {unit}{count}{extra}"


def timing_lines(prefix: str, values_ms: list[float]) -> list[str]:
    """Median and p99 in ms; a p99 with fewer than ten samples beyond it is
    printed but flagged."""
    n = len(values_ms)
    if not n:
        return [f"metric {prefix}_p50_ms = n/a ms n=0"]
    beyond = int(n * 0.01)
    return [metric_line(f"{prefix}_p50_ms", median(values_ms), "ms", n),
            metric_line(f"{prefix}_p99_ms", quantile(values_ms, 0.99), "ms", n,
                        f" beyond={beyond}" + (" (fewer than 10 samples beyond)"
                                               if beyond < 10 else ""))]


def noise_lines(noise: dict) -> list[str]:
    return [f"noise {key} = {value}" for key, value in sorted(noise.items())]


def check_lines(names: list[str], problems: list[str]) -> list[str]:
    lines = [f"check {name}" for name in names]
    lines += [f"check FAILED: {problem}" for problem in problems]
    lines.append(f"verdict correct={not problems}")
    return lines


# --- sockets ------------------------------------------------------------------


def read_greeting(sock) -> bytes:
    """The replica's greeting line, up to and including its newline."""
    buf = b""
    while not buf.endswith(b"\n"):
        chunk = sock.recv(256)
        if not chunk:
            raise ConnectionError("EOF before the greeting")
        buf += chunk
        if len(buf) > 256:
            raise ConnectionError("greeting too long")
    return buf


# --- spans -------------------------------------------------------------------


class Tracer:
    """In-memory spans: name, start, end, parent span and session id.

    Spans are kept in a list and written out once, at the end of a run, so
    recording one costs an append and two clock reads.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []

    def add(self, name: str, start: float, end: float,
            parent: int | None = None, sid: int | None = None) -> int:
        self.spans.append((name, start, end, parent, sid))
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, start, time.perf_counter())

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a callable that records a span per call."""
        inner = getattr(owner, attr)

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                self.add(name, start, time.perf_counter())

        setattr(owner, attr, timed)

    def dump(self, path: Path) -> None:
        write_spans(path, self.spans)


def write_spans(path: Path, rows) -> None:
    """One JSON array per line: name, start, end, parent, session id."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(list(row)) + "\n")


# --- /proc readers (read only) ---------------------------------------------


def time_wait_count() -> int:
    with open("/proc/net/sockstat") as fh:
        for line in fh:
            if line.startswith("TCP:"):
                fields = line.split()
                return int(fields[fields.index("tw") + 1])
    return 0


def time_wait_cap() -> int:
    with open("/proc/sys/net/ipv4/tcp_max_tw_buckets") as fh:
        return int(fh.read())


def host_cpu() -> tuple[int, int]:
    """(total jiffies, steal jiffies) from the aggregate line of /proc/stat."""
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return sum(fields[:8]), fields[7]


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    total = after[0] - before[0]
    return (after[1] - before[1]) / total if total > 0 else 0.0


def process_cpu_s(pid: int) -> float:
    """utime + stime of one process, in seconds; 0 once it is gone."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            fields = fh.read().rsplit(b")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def process_threads(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def calibration_ms() -> float:
    """Wall time of a fixed pure-Python loop, recorded as a host-speed note.

    Runs on a shared host slow down when neighbours get busy, beyond what
    the steal counter shows; this number lets a reader see that. It is
    never used in a metric.
    """
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return (time.perf_counter() - start) * 1e3


def self_io() -> tuple[int, int]:
    """(wchar, syscw) of this process: bytes and calls of write(2) and kin."""
    values = {}
    with open("/proc/self/io") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            values[key] = int(value)
    return values["wchar"], values["syscw"]


# --- processes ------------------------------------------------------------------


def become_subreaper() -> None:
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def pid_alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            state = fh.read().rsplit(b")", 1)[1].split()[0]
    except OSError:
        return False
    return state not in (b"Z", b"X")


def children_of(parent: int) -> list[int]:
    """Pids whose parent is ``parent`` (direct children and adopted orphans)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                fields = fh.read().rsplit(b")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == parent:
            found.append(int(entry))
    return found


def signal_group(pid: int, signum: int) -> None:
    try:
        os.killpg(pid, signum)
    except (ProcessLookupError, PermissionError):
        try:
            os.kill(pid, signum)
        except (ProcessLookupError, PermissionError):
            pass


def reap() -> None:
    """Collect every exited child so none lingers as a zombie."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def kill_leftovers() -> tuple[list[int], list[int]]:
    """Kill every remaining child process group; returns (killed, survivors).

    Children are direct ones plus orphans adopted through the subreaper bit.
    SIGTERM first, SIGKILL after ``KILL_GRACE`` seconds; a survivor is a pid
    still alive after that.
    """
    me = os.getpid()
    killed = [pid for pid in children_of(me) if pid_alive(pid)]
    for pid in killed:
        signal_group(pid, signal.SIGTERM)
    deadline = time.monotonic() + KILL_GRACE
    while time.monotonic() < deadline:
        reap()
        if not any(pid_alive(pid) for pid in killed):
            break
        time.sleep(0.02)
    for pid in killed:
        if pid_alive(pid):
            signal_group(pid, signal.SIGKILL)
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        reap()
        if not any(pid_alive(pid) for pid in children_of(me)):
            break
        time.sleep(0.02)
    survivors = [pid for pid in children_of(me) if pid_alive(pid)]
    return killed, survivors
