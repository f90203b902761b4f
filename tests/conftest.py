"""Shared fixtures: bindable loopback ports, a port whose dials never finish,
a log of state writes, and a check that no event-loop callback raised during
a test; and ``line_events``, a deterministic operation count."""

from __future__ import annotations

import socket
import sys
import threading

import pytest

from flagforge._net import LOOP_THREAD_NAME

# 24000-25899: below the fixed blocks the CLI and acceptance tests carve out
_counter = [24000]


def line_events(fn) -> int:
    """The Python lines ``fn()`` runs in flagforge's own frames.

    A count of work that does not depend on the host's speed, for bounds on
    how a cost grows where a wall-clock bound would be flaky.
    """
    count = 0

    def in_flagforge(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return in_flagforge

    def on_call(frame, event, arg):
        name = frame.f_globals.get("__name__", "")
        return in_flagforge if name.split(".")[0] == "flagforge" else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return count


@pytest.fixture
def free_port():
    """Callable giving loopback ports that are bindable right now."""

    def get() -> int:
        while True:
            port = _counter[0]
            _counter[0] += 1
            if _counter[0] >= 25900:
                _counter[0] = 24000
            with socket.socket() as probe:
                try:
                    probe.bind(("127.0.0.1", port))
                except OSError:
                    continue
                return port

    return get


@pytest.fixture
def stuck_port():
    """A loopback port whose dials stay pending until the test ends.

    Its listener's queue has room for one connection, which is held and
    never accepted, so the kernel drops the SYN of every later dial.
    """
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(0)
        with socket.create_connection(listener.getsockname(), timeout=5):
            yield listener.getsockname()[1]


@pytest.fixture
def state_writes(monkeypatch):
    """The path of every ``StateStore._write`` call, in order, from any store."""
    from flagforge.state import StateStore

    paths = []
    write = StateStore._write

    def recording(self, path, text):
        paths.append(path)
        write(self, path, text)

    monkeypatch.setattr(StateStore, "_write", recording)
    return paths


@pytest.fixture(autouse=True)
def loop_callbacks_do_not_raise(monkeypatch):
    """Fails a test during which an exception escaped an event-loop callback.

    A test that means to raise one installs its own ``threading.excepthook``.
    """
    escaped = []
    report = threading.excepthook

    def record(args):
        if args.thread is not None and args.thread.name == LOOP_THREAD_NAME:
            escaped.append(args)
        report(args)

    monkeypatch.setattr(threading, "excepthook", record)
    yield
    if escaped:
        pytest.fail("event-loop callbacks raised: " + "; ".join(
            f"{a.exc_type.__name__}: {a.exc_value}" for a in escaped))


def pytest_terminal_summary(terminalreporter):
    """Repeat the acceptance verdict lines where capture cannot hide them."""
    module = sys.modules.get("test_acceptance")
    verdicts = getattr(module, "VERDICTS", None)
    if not verdicts:
        return
    terminalreporter.section("acceptance")
    for line in verdicts:
        terminalreporter.write_line(line)
