"""Bundle packaging, store scanning, update decisions, status records, and
the isolation of a failed promotion."""

from __future__ import annotations

import tarfile
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flagforge.errors import ManifestError, PipelineError, VersionConflictError
from flagforge.model import ProbeSpec, parse_topology
from flagforge.pipeline import (
    ArtifactManifest,
    PipelineOutcome,
    PipelineReport,
    StatusRecord,
    decide_updates,
    extract_payload,
    package_artifact,
    parse_manifest,
    read_status,
    run_pipeline,
    scan_store,
    write_status,
)

T1 = "2024-01-01T00:00:00+00:00"
T2 = "2024-02-01T00:00:00+00:00"
T3 = "2024-03-01T00:00:00+00:00"


def write_source(root: Path, name: str, version: str, files: dict[str, str],
                 created_at: str | None = None,
                 run: str = "python3 server.py {PORT}") -> Path:
    source = root / f"{name}-{version}-src"
    source.mkdir(parents=True, exist_ok=True)
    lines = [
        f"challenge={name}",
        f"version={version}",
        "replicas=3",
        "internal_port=7000",
        "external_port=9001",
        f"run={run}",
    ]
    if created_at is not None:
        lines.append(f"created_at={created_at}")
    (source / "challenge.meta").write_text("\n".join(lines) + "\n")
    for relative, content in files.items():
        target = source / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(content)
    return source


def mk_manifest(challenge: str = "web-pwn", version: str = "1",
                created_at: str = T1, checksum: str = "0" * 64,
                ) -> ArtifactManifest:
    return ArtifactManifest(
        challenge=challenge, version=version, created_at=created_at,
        checksum=checksum, replicas=3, external_port=9001,
        run_command="python3 server.py {PORT}", probe=ProbeSpec())


# --- packaging ----------------------------------------------------------------


def test_package_creates_named_bundle(tmp_path):
    source = write_source(tmp_path, "web-pwn", "1",
                          {"server.py": "print('hi')\n", "data/flag.txt": "F\n"},
                          created_at=T1)
    store = tmp_path / "store"
    bundle = package_artifact(source, store)
    assert bundle == store / "web-pwn-1.bundle"
    with tarfile.open(bundle) as tar:
        names = [m.name for m in tar.getmembers()]
        assert names[0] == "manifest"
        assert sorted(names[1:]) == ["data/flag.txt", "server.py"]
        manifest = parse_manifest(tar.extractfile("manifest").read().decode())
    assert manifest.challenge == "web-pwn"
    assert manifest.version == "1"
    assert manifest.created_at == T1
    assert manifest.replicas == 3
    assert manifest.probe == ProbeSpec()
    scanned, skipped = scan_store(store)
    assert skipped == [] and scanned == [manifest]


def test_package_identical_content_is_noop(tmp_path):
    store = tmp_path / "store"
    first = write_source(tmp_path / "a", "web-pwn", "1", {"server.py": "x\n"})
    package_artifact(first, store)
    original = (store / "web-pwn-1.bundle").read_bytes()
    second = write_source(tmp_path / "b", "web-pwn", "1", {"server.py": "x\n"})
    package_artifact(second, store)
    assert (store / "web-pwn-1.bundle").read_bytes() == original


def test_package_refuses_changed_content_same_version(tmp_path):
    store = tmp_path / "store"
    package_artifact(
        write_source(tmp_path / "a", "web-pwn", "1", {"server.py": "x\n"}),
        store)
    changed = write_source(tmp_path / "b", "web-pwn", "1", {"server.py": "y\n"})
    with pytest.raises(VersionConflictError,
                       match="version 1 already exists with different checksum"):
        package_artifact(changed, store)


def test_package_missing_mandatory_keys(tmp_path):
    source = tmp_path / "src"
    source.mkdir()
    (source / "challenge.meta").write_text("challenge=web-pwn\nversion=1\n")
    with pytest.raises(ManifestError, match="missing keys") as excinfo:
        package_artifact(source, tmp_path / "store")
    assert "run" in str(excinfo.value)


def test_package_a_meta_without_internal_port(tmp_path):
    source = write_source(tmp_path, "web-pwn", "1", {"server.py": "x\n"})
    meta = source / "challenge.meta"
    meta.write_text(meta.read_text().replace("internal_port=7000\n", ""))
    bundle = package_artifact(source, tmp_path / "store")
    with tarfile.open(bundle) as tar:
        text = tar.extractfile("manifest").read().decode()
    assert "internal_port" not in text
    assert parse_manifest(text).external_port == 9001


def test_package_rejects_unsafe_version(tmp_path):
    source = write_source(tmp_path, "web-pwn", "../1", {"server.py": "x\n"})
    with pytest.raises(ManifestError, match="bad version"):
        package_artifact(source, tmp_path / "store")


def test_extract_payload_round_trip(tmp_path):
    files = {"server.py": "print('hi')\n", "data/flag.txt": "F\n"}
    bundle = package_artifact(
        write_source(tmp_path, "web-pwn", "1", files), tmp_path / "store")
    target = tmp_path / "materialized"
    manifest = extract_payload(bundle, target)
    assert manifest.challenge == "web-pwn"
    for relative, content in files.items():
        assert (target / relative).read_text() == content
    assert not (target / "challenge.meta").exists()


# --- scanning -------------------------------------------------------------------


def test_scan_empty_store(tmp_path):
    assert scan_store(tmp_path) == ([], [])
    assert scan_store(tmp_path / "absent") == ([], [])


def test_scan_orders_by_challenge_then_created_at(tmp_path):
    store = tmp_path / "store"
    package_artifact(write_source(tmp_path / "a", "web-pwn", "2",
                                  {"s.py": "b\n"}, created_at=T2), store)
    package_artifact(write_source(tmp_path / "b", "web-pwn", "1",
                                  {"s.py": "a\n"}, created_at=T1), store)
    package_artifact(write_source(tmp_path / "c", "crypto", "9",
                                  {"s.py": "c\n"}, created_at=T3), store)
    manifests, skipped = scan_store(store)
    assert skipped == []
    assert [(m.challenge, m.version) for m in manifests] == [
        ("crypto", "9"), ("web-pwn", "1"), ("web-pwn", "2")]


def test_scan_skips_corrupt_bundles(tmp_path):
    store = tmp_path / "store"
    for name in ("alpha", "beta", "gamma"):
        package_artifact(
            write_source(tmp_path / name, name, "1",
                         {"server.py": f"MARKER {name}\n" * 40}),
            store)
    # cut into the payload member's data region
    victim = store / "beta-1.bundle"
    victim.write_bytes(victim.read_bytes()[:1024 + 600])
    # flip payload bytes without changing any size
    tampered = bytearray((store / "gamma-1.bundle").read_bytes())
    index = tampered.index(b"MARKER gamma")
    tampered[index:index + 6] = b"DOCTOR"
    (store / "gamma-1.bundle").write_bytes(bytes(tampered))

    manifests, skipped = scan_store(store)
    assert [m.challenge for m in manifests] == ["alpha"]
    assert len(skipped) == 2
    assert any("beta-1.bundle" in reason for reason in skipped)
    assert any("gamma-1.bundle" in reason and "checksum mismatch" in reason
               for reason in skipped)


def test_scan_ignores_non_bundle_files(tmp_path):
    store = tmp_path / "store"
    store.mkdir()
    (store / "notes.txt").write_text("not a bundle\n")
    assert scan_store(store) == ([], [])


# --- update decisions -----------------------------------------------------------


def test_decide_no_update_when_newest_deployed():
    v1 = mk_manifest(version="1", created_at=T1, checksum="a" * 64)
    v2 = mk_manifest(version="2", created_at=T2, checksum="b" * 64)
    assert decide_updates([v1, v2], {"web-pwn": "b" * 64}) == []


def test_decide_updates_to_newest():
    v1 = mk_manifest(version="1", created_at=T1, checksum="a" * 64)
    v2 = mk_manifest(version="2", created_at=T2, checksum="b" * 64)
    assert decide_updates([v1, v2], {"web-pwn": "a" * 64}) == [("web-pwn", v2)]
    assert decide_updates([v2, v1], {"web-pwn": "a" * 64}) == [("web-pwn", v2)]


def test_decide_checksum_difference_alone_triggers():
    # same version label, different payload (foreign store)
    local = mk_manifest(version="1", created_at=T1, checksum="a" * 64)
    foreign = mk_manifest(version="1", created_at=T2, checksum="c" * 64)
    assert decide_updates([local, foreign], {"web-pwn": "a" * 64}) \
        == [("web-pwn", foreign)]


def test_decide_created_at_tie_breaks_on_checksum():
    low = mk_manifest(version="1", created_at=T1, checksum="a" * 64)
    high = mk_manifest(version="1b", created_at=T1, checksum="f" * 64)
    assert decide_updates([low, high], {"web-pwn": "a" * 64}) \
        == [("web-pwn", high)]


def test_decide_unknown_provenance_always_updates():
    v1 = mk_manifest(version="1", created_at=T1, checksum="a" * 64)
    assert decide_updates([v1], {"web-pwn": None}) == [("web-pwn", v1)]


def test_decide_undeployed_only_when_asked():
    v1 = mk_manifest(version="1", created_at=T1, checksum="a" * 64)
    assert decide_updates([v1], {}) == []
    assert decide_updates([v1], {}, include_undeployed=True) \
        == [("web-pwn", v1)]


# --- status file ----------------------------------------------------------------


def test_status_line_format():
    record = StatusRecord("web-pwn", "backend-1", "v2", "deployed", T1)
    assert record.render() == (
        "challenge=web-pwn backend=backend-1 version=v2 "
        f"state=deployed ts={T1}")


def test_status_write_read_single(tmp_path):
    path = tmp_path / "latest-build.txt"
    record = StatusRecord("web-pwn", "backend-1", "v2", "deployed", T1)
    write_status([record], path)
    assert path.read_text() == record.render() + "\n"
    assert read_status(path) == ([record], [])


def test_status_upsert_keeps_newest(tmp_path):
    path = tmp_path / "latest-build.txt"
    old = StatusRecord("web-pwn", "backend-1", "v1", "deployed", T1)
    new = StatusRecord("web-pwn", "backend-1", "v2", "deployed", T2)
    write_status([old], path)
    write_status([new], path)
    assert read_status(path)[0] == [new]
    # an older record never overwrites a newer one
    write_status([old], path)
    assert read_status(path)[0] == [new]


def test_status_one_line_per_challenge_backend(tmp_path):
    path = tmp_path / "latest-build.txt"
    write_status([
        StatusRecord("web-pwn", "backend-1", "v1", "deployed", T1),
        StatusRecord("web-pwn", "backend-2", "v1", "pending", T1),
        StatusRecord("crypto", "backend-1", "v3", "failed", T1),
    ], path)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    assert lines == sorted(lines)  # deterministic (challenge, backend) order


def test_status_read_skips_malformed(tmp_path):
    path = tmp_path / "latest-build.txt"
    good = StatusRecord("web-pwn", "backend-1", "v1", "deployed", T1)
    path.write_text(
        good.render() + "\n"
        "challenge=web-pwn backend=backend-1 version=v1 state=wat ts=" + T1 + "\n"
        "complete nonsense\n")
    records, skipped = read_status(path)
    assert records == [good]
    assert len(skipped) == 2
    assert skipped[0].startswith("line 2:") and "wat" in skipped[0]
    assert skipped[1].startswith("line 3:")


names = st.text(alphabet="abcdefghij-0123456789", min_size=1, max_size=8)
versions = st.text(alphabet="abcdefv0123456789._", min_size=1, max_size=8)
states = st.sampled_from(["pending", "deployed", "failed"])
timestamps = st.integers(min_value=0, max_value=2 ** 31).map(
    lambda s: datetime.fromtimestamp(s, timezone.utc).isoformat())


@given(st.lists(
    st.tuples(names, names, versions, states, timestamps),
    max_size=30, unique_by=lambda t: (t[0], t[1])))
def test_status_round_trip_property(tmp_path_factory, rows):
    records = [StatusRecord(*row) for row in rows]
    path = tmp_path_factory.mktemp("status") / "latest-build.txt"
    write_status(records, path)
    read_back, skipped = read_status(path)
    assert skipped == []
    assert sorted(read_back, key=lambda r: (r.challenge, r.backend)) \
        == sorted(records, key=lambda r: (r.challenge, r.backend))


# --- promotion loop -------------------------------------------------------------


def seed_store(tmp_path, specs) -> Path:
    store = tmp_path / "store"
    for name, version, created_at, content in specs:
        package_artifact(
            write_source(tmp_path / f"{name}-{version}", name, version,
                         {"server.py": content}, created_at=created_at),
            store)
    return store


def test_pipeline_dev_nothing_new(tmp_path):
    store = seed_store(tmp_path, [("web-pwn", "1", T1, "x\n")])
    manifests, _ = scan_store(store)
    assert run_pipeline("dev", store,
                        {"web-pwn": manifests[0].checksum}) == ([], [], [])


def test_pipeline_dev_updates_only_stale_challenge(tmp_path):
    store = seed_store(tmp_path, [
        ("alpha", "1", T1, "a1\n"), ("alpha", "2", T2, "a2\n"),
        ("beta", "1", T1, "b1\n"),
        ("gamma", "1", T1, "c1\n"),
        ("delta", "1", T1, "d1\n"),  # in the store, not deployed
    ])
    manifests, _ = scan_store(store)
    by_key = {(m.challenge, m.version): m for m in manifests}
    deployed = {
        "alpha": by_key[("alpha", "1")].checksum,
        "beta": by_key[("beta", "1")].checksum,
        "gamma": by_key[("gamma", "1")].checksum,
    }
    before = sorted(store.iterdir())
    winners, missing, skipped = run_pipeline("dev", store, deployed)
    assert winners == [by_key[("alpha", "2")]]
    assert (missing, skipped) == ([], [])
    assert sorted(store.iterdir()) == before  # deciding writes nothing


def test_pipeline_failure_is_isolated(tmp_path):
    """beta's bundle claims alpha's external port: beta fails, alpha deploys."""
    from flagforge.runner import MockRunner
    from flagforge.runtime import Cluster, StateStore

    class OkProber:
        def probe(self, address, port, spec):
            return True

    cluster = Cluster(parse_topology(
        "node edge role=frontend bind=127.0.0.1 ports=9000-9099\n"
        "node worker role=backend bind=127.0.0.1 ports=20000-20099\n"
        'challenge alpha version=1 replicas=1 internal_port=7000'
        ' external_port=9001 backend=worker run="run-a {PORT}" probe=tcp\n'
        'challenge beta version=1 replicas=1 internal_port=7000'
        ' external_port=9002 backend=worker run="run-b {PORT}" probe=tcp\n'),
        StateStore(tmp_path / "state"), bind_listeners=False,
        runner_factory=lambda node, store: MockRunner(), prober=OkProber())
    assert cluster.converge().all_ok
    store = seed_store(tmp_path, [  # each bundle claims external port 9001
        ("alpha", "2", T2, "a2\n"), ("beta", "2", T2, "b2\n")])

    report = cluster.pipeline_once("dev", store)
    states = {o.challenge: o.state for o in report.outcomes}
    assert states == {"alpha": "deployed", "beta": "failed"}
    assert report.outcomes[1].detail == "duplicate external_port 9001"
    records, _ = read_status(cluster.store.status_path)
    assert {r.challenge: (r.version, r.state) for r in records} == \
        {"alpha": ("2", "deployed"), "beta": ("2", "failed")}
    supervisor = cluster.backends["worker"].supervisor
    assert {i.version for i in supervisor.instances_of("alpha")} == {"2"}
    assert [i.version for i in supervisor.instances_of("beta")] == ["1"]
    topology, _ = cluster.store.load_desired()
    assert topology.challenges["beta"].version == "1"
    cluster.shutdown()


def test_pipeline_deploy_requires_selection(tmp_path):
    store = seed_store(tmp_path, [("alpha", "1", T1, "a\n")])
    with pytest.raises(PipelineError, match="selection"):
        run_pipeline("deploy", store, {})
    with pytest.raises(PipelineError, match="mode"):
        run_pipeline("prod", store, {})
    for bad in ("", "Alpha", "a/b"):
        with pytest.raises(PipelineError, match="bad challenge name"):
            run_pipeline("deploy", store, {}, select=["alpha", bad])


def test_pipeline_deploy_provisions_selected_only(tmp_path):
    store = seed_store(tmp_path, [
        (name, "1", T1, f"{name}\n")
        for name in ("alpha", "beta", "gamma", "delta", "epsilon")])
    winners, missing, _ = run_pipeline("deploy", store, {},
                                       select=["beta", "delta"])
    assert [(m.challenge, m.version) for m in winners] == \
        [("beta", "1"), ("delta", "1")]
    assert missing == []


def test_pipeline_deploy_reports_missing_selection(tmp_path):
    store = seed_store(tmp_path, [("alpha", "1", T1, "a\n")])
    winners, missing, _ = run_pipeline("deploy", store, {},
                                       select=["alpha", "ghost"])
    assert [(m.challenge, m.version) for m in winners] == [("alpha", "1")]
    assert missing == ["ghost"]
    # a dev pass only narrows its candidates by a selection
    assert run_pipeline("dev", store, {"alpha": None},
                        select=["alpha", "ghost"])[1] == []


def test_pipeline_report_render_lists_outcomes():
    report = PipelineReport(mode="dev", outcomes=(
        PipelineOutcome("alpha", "2", "deployed"),
        PipelineOutcome("ghost", "-", "failed", "no bundle in store")),
        skipped=("junk.bundle: unreadable bundle",))
    assert report.render() == (
        "2 updates\nalpha 2 deployed\nghost - failed (no bundle in store)\n"
        "skipped: junk.bundle: unreadable bundle")
