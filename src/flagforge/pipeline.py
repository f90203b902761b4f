"""Artifact-driven deployments: package, scan, decide, record the outcome.

A challenge ships as a single ``<challenge>-<version>.bundle`` file: a ustar
archive whose first member is ``manifest`` (line-oriented ``key=value``)
followed by the payload files. Versions are immutable: one (challenge,
version) pair maps to exactly one payload checksum for the life of a store.

A promotion pass decides here and deploys in ``runtime``: ``run_pipeline``
scans the store and picks, per candidate, the newest bundle that differs
from what is deployed. The mode only picks the candidates: dev mode the
challenges that are already deployed, deploy mode the selection. Deciding
writes nothing; the caller adds the winners to the desired state and
converges once, as ``apply`` does.
"""

from __future__ import annotations

import hashlib
import io
import re
import tarfile
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Mapping

from ._files import replacing
from .errors import ManifestError, PipelineError, VersionConflictError
from .model import (MODE_DEPLOY, MODE_DEV, NAME_RE, VERSION_RE, ChallengeSpec,
                    ProbeSpec)

MANIFEST_KEYS = ("challenge", "version", "created_at", "checksum", "replicas",
                 "external_port", "run", "probe")
META_REQUIRED = ("challenge", "version", "replicas", "external_port", "run")

CHECKSUM_RE = re.compile(r"[0-9a-f]{64}\Z")

STATE_PENDING = "pending"
STATE_DEPLOYED = "deployed"
STATE_FAILED = "failed"
STATUS_STATES = (STATE_PENDING, STATE_DEPLOYED, STATE_FAILED)

STATUS_LINE_RE = re.compile(
    r"challenge=(?P<challenge>\S+) backend=(?P<backend>\S+) "
    r"version=(?P<version>\S+) state=(?P<state>\S+) ts=(?P<ts>\S+)\Z")


def _parse_timestamp(text: str) -> datetime:
    raw = text[:-1] + "+00:00" if text.endswith("Z") else text
    moment = datetime.fromisoformat(raw)
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    return moment


def _now_iso(clock=time.time) -> str:
    return datetime.fromtimestamp(clock(), tz=timezone.utc).isoformat()


@dataclass(frozen=True)
class ArtifactManifest:
    """Machine-readable face of a bundle: identity plus deployment shape."""

    challenge: str
    version: str
    created_at: str
    checksum: str
    replicas: int
    external_port: int
    run_command: str
    probe: ProbeSpec

    def render(self) -> str:
        values = {
            "challenge": self.challenge,
            "version": self.version,
            "created_at": self.created_at,
            "checksum": self.checksum,
            "replicas": str(self.replicas),
            "external_port": str(self.external_port),
            "run": self.run_command,
            "probe": self.probe.render(),
        }
        return "".join(f"{key}={values[key]}\n" for key in MANIFEST_KEYS)

    def challenge_spec(self, backend: str, run_command: str) -> ChallengeSpec:
        return ChallengeSpec(
            name=self.challenge, version=self.version,
            replica_count=self.replicas, external_port=self.external_port,
            backend=backend, run_command=run_command, probe=self.probe)

    @property
    def bundle_name(self) -> str:
        return f"{self.challenge}-{self.version}.bundle"


def _parse_keyvalues(text: str, context: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ManifestError(f"{context}: line {number} is not key=value")
        if key in values:
            raise ManifestError(f"{context}: duplicate key {key}")
        values[key] = value
    return values


def _check_identity(challenge: str, version: str, context: str) -> None:
    if not NAME_RE.match(challenge):
        raise ManifestError(f"{context}: bad challenge name {challenge!r}")
    if not VERSION_RE.match(version) or "/" in version:
        raise ManifestError(f"{context}: bad version {version!r}")


def parse_manifest(text: str, context: str = "manifest") -> ArtifactManifest:
    values = _parse_keyvalues(text, context)
    missing = [key for key in MANIFEST_KEYS if key not in values]
    if missing:
        raise ManifestError(f"{context}: missing keys: {', '.join(missing)}")
    # older manifests and challenge.meta files carry internal_port: ignored
    extra = sorted(set(values) - set(MANIFEST_KEYS) - {"internal_port"})
    if extra:
        raise ManifestError(f"{context}: unknown keys: {', '.join(extra)}")
    _check_identity(values["challenge"], values["version"], context)
    if not CHECKSUM_RE.match(values["checksum"]):
        raise ManifestError(f"{context}: checksum is not a sha256 hex digest")
    try:
        _parse_timestamp(values["created_at"])
    except ValueError:
        raise ManifestError(f"{context}: created_at is not ISO-8601") from None
    try:
        replicas = int(values["replicas"])
    except ValueError:
        raise ManifestError(f"{context}: replicas is not an integer") from None
    if replicas < 1:
        raise ManifestError(f"{context}: replicas must be positive")
    try:
        external_port = int(values["external_port"])
    except ValueError:
        raise ManifestError(f"{context}: external_port is not an integer") from None
    if not 1 <= external_port <= 65535:
        raise ManifestError(f"{context}: external_port out of range")
    run = values["run"]
    if not run or '"' in run:
        raise ManifestError(f"{context}: bad run command")
    try:
        probe = ProbeSpec.from_text(values["probe"])
    except ValueError as exc:
        raise ManifestError(f"{context}: {exc}") from None
    return ArtifactManifest(
        challenge=values["challenge"], version=values["version"],
        created_at=values["created_at"], checksum=values["checksum"],
        replicas=replicas, external_port=external_port,
        run_command=run, probe=probe)


def _payload_checksum(members: Iterable[tuple[str, bytes]]) -> str:
    # name and length are hashed too so member boundaries are unambiguous
    digest = hashlib.sha256()
    for name, data in members:
        digest.update(name.encode())
        digest.update(b"\0")
        digest.update(len(data).to_bytes(8, "big"))
        digest.update(data)
    return digest.hexdigest()


def _add_member(tar: tarfile.TarFile, name: str, data: bytes) -> None:
    info = tarfile.TarInfo(name)
    info.size = len(data)
    info.mtime = 0
    info.mode = 0o644
    tar.addfile(info, io.BytesIO(data))


def _read_bundle(path: Path) -> tuple[ArtifactManifest, list[tuple[str, bytes]]]:
    """Parse one bundle, verifying its recorded checksum against the payload."""
    with tarfile.open(path, mode="r") as tar:
        members = tar.getmembers()
        if not members or members[0].name != "manifest":
            raise ManifestError(f"{path.name}: first member is not manifest")
        handle = tar.extractfile(members[0])
        if handle is None:
            raise ManifestError(f"{path.name}: manifest is not a file")
        manifest = parse_manifest(handle.read().decode(), context=path.name)
        payload: list[tuple[str, bytes]] = []
        for member in members[1:]:
            if not member.isfile():
                continue
            data = tar.extractfile(member)
            payload.append((member.name, data.read() if data else b""))
    computed = _payload_checksum(payload)
    if computed != manifest.checksum:
        raise ManifestError(f"{path.name}: checksum mismatch")
    return manifest, payload


def package_artifact(source_dir: Path, store: Path) -> Path:
    """Bundle a challenge source tree into the artifact store.

    ``source_dir/challenge.meta`` declares the manifest fields (``key=value``
    lines; ``probe`` defaults to tcp, ``created_at`` to now). Every other
    file under the tree becomes payload. Repackaging identical content under
    an existing version is a no-op; different content is refused.
    """
    source_dir = Path(source_dir)
    meta_path = source_dir / "challenge.meta"
    if not meta_path.is_file():
        raise ManifestError(f"{source_dir} has no challenge.meta")
    values = _parse_keyvalues(meta_path.read_text(), context="challenge.meta")
    missing = [key for key in META_REQUIRED if key not in values]
    if missing:
        raise ManifestError(f"challenge.meta: missing keys: {', '.join(missing)}")
    if "checksum" in values:
        raise ManifestError("challenge.meta: checksum is computed, not declared")
    values.setdefault("probe", "tcp")
    values.setdefault("created_at", _now_iso())

    payload = []
    for path in sorted(source_dir.rglob("*")):
        if not path.is_file() or path == meta_path:
            continue
        payload.append((path.relative_to(source_dir).as_posix(),
                        path.read_bytes()))
    values["checksum"] = _payload_checksum(payload)
    manifest = parse_manifest(
        "".join(f"{k}={v}\n" for k, v in values.items()),
        context="challenge.meta")

    store = Path(store)
    store.mkdir(parents=True, exist_ok=True)
    bundle_path = store / manifest.bundle_name
    if bundle_path.exists():
        existing, _ = _read_bundle(bundle_path)
        if existing.checksum == manifest.checksum:
            return bundle_path
        raise VersionConflictError(
            f"version {manifest.version} already exists with different checksum")

    with replacing(bundle_path, "xb") as f, \
            tarfile.open(fileobj=f, mode="w", format=tarfile.USTAR_FORMAT) as tar:
        _add_member(tar, "manifest", manifest.render().encode())
        for name, data in payload:
            _add_member(tar, name, data)
    return bundle_path


def extract_payload(bundle_path: Path, target_dir: Path) -> ArtifactManifest:
    """Materialize a bundle's payload files under ``target_dir``."""
    manifest, payload = _read_bundle(Path(bundle_path))
    target_dir = Path(target_dir)
    for name, data in payload:
        relative = Path(name)
        if relative.is_absolute() or ".." in relative.parts:
            raise ManifestError(f"{bundle_path.name}: unsafe member path {name}")
        destination = target_dir / relative
        destination.parent.mkdir(parents=True, exist_ok=True)
        destination.write_bytes(data)
    return manifest


def scan_store(store: Path) -> tuple[list[ArtifactManifest], list[str]]:
    """Read every bundle in the store; malformed ones are skipped, reported."""
    store = Path(store)
    manifests: list[ArtifactManifest] = []
    skipped: list[str] = []
    if not store.is_dir():
        return [], []
    for path in sorted(store.glob("*.bundle")):
        try:
            manifest, _ = _read_bundle(path)
        except ManifestError as exc:
            skipped.append(str(exc))
        except (tarfile.TarError, OSError) as exc:
            skipped.append(f"{path.name}: unreadable bundle ({exc})")
        else:
            manifests.append(manifest)
    manifests.sort(key=lambda m: (m.challenge, _parse_timestamp(m.created_at),
                                  m.checksum))
    return manifests, skipped


def decide_updates(manifests: Iterable[ArtifactManifest],
                   deployed_view: Mapping[str, str | None],
                   include_undeployed: bool = False,
                   ) -> list[tuple[str, ArtifactManifest]]:
    """Pick, per challenge, the newest manifest that differs from deployment.

    ``deployed_view`` maps challenge name to the checksum of its deployed
    artifact; a ``None`` value means deployed but of unknown provenance, which
    always yields to the store. Challenges absent from the view are selected
    only when ``include_undeployed`` is set (deploy mode).
    """
    newest: dict[str, ArtifactManifest] = {}
    for manifest in manifests:
        held = newest.get(manifest.challenge)
        key = (_parse_timestamp(manifest.created_at), manifest.checksum)
        if held is None or key > (_parse_timestamp(held.created_at),
                                  held.checksum):
            newest[manifest.challenge] = manifest
    updates = []
    for challenge in sorted(newest):
        manifest = newest[challenge]
        if challenge not in deployed_view:
            if include_undeployed:
                updates.append((challenge, manifest))
            continue
        if deployed_view[challenge] != manifest.checksum:
            updates.append((challenge, manifest))
    return updates


# --- deployment status file ---------------------------------------------------


@dataclass(frozen=True)
class StatusRecord:
    """One deployment outcome: what version a backend holds and how it went."""

    challenge: str
    backend: str
    version: str
    state: str
    timestamp: str

    def render(self) -> str:
        return (f"challenge={self.challenge} backend={self.backend} "
                f"version={self.version} state={self.state} ts={self.timestamp}")


def _parse_status_line(line: str) -> StatusRecord:
    match = STATUS_LINE_RE.match(line)
    if not match:
        raise ValueError("does not match the status line format")
    fields = match.groupdict()
    if not NAME_RE.match(fields["challenge"]):
        raise ValueError(f"bad challenge name {fields['challenge']!r}")
    if not NAME_RE.match(fields["backend"]):
        raise ValueError(f"bad backend name {fields['backend']!r}")
    if not VERSION_RE.match(fields["version"]):
        raise ValueError(f"bad version {fields['version']!r}")
    if fields["state"] not in STATUS_STATES:
        raise ValueError(f"bad state {fields['state']!r}")
    try:
        _parse_timestamp(fields["ts"])
    except ValueError:
        raise ValueError(f"bad timestamp {fields['ts']!r}") from None
    return StatusRecord(challenge=fields["challenge"], backend=fields["backend"],
                        version=fields["version"], state=fields["state"],
                        timestamp=fields["ts"])


def read_status(path: Path) -> tuple[list[StatusRecord], list[str]]:
    path = Path(path)
    if not path.exists():
        return [], []
    records: list[StatusRecord] = []
    skipped: list[str] = []
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append(_parse_status_line(line))
        except ValueError as exc:
            skipped.append(f"line {number}: {exc}")
    return records, skipped


def write_status(records: Iterable[StatusRecord], path: Path,
                 existing: Iterable[StatusRecord] | None = None) -> None:
    """Upsert records into the status file: newest per (challenge, backend).

    ``existing`` is the file's records when the caller has just read them.
    """
    path = Path(path)
    merged: dict[tuple[str, str], StatusRecord] = {}
    if existing is None:
        existing, _ = read_status(path)
    for record in existing:
        merged[(record.challenge, record.backend)] = record
    for record in records:
        key = (record.challenge, record.backend)
        held = merged.get(key)
        if held is None or (_parse_timestamp(record.timestamp)
                            >= _parse_timestamp(held.timestamp)):
            merged[key] = record
    path.parent.mkdir(parents=True, exist_ok=True)
    with replacing(path) as f:
        f.write("".join(merged[key].render() + "\n" for key in sorted(merged)))


# --- the promotion decision -------------------------------------------------------


@dataclass(frozen=True)
class PipelineOutcome:
    challenge: str
    version: str
    state: str
    detail: str = ""


@dataclass(frozen=True)
class PipelineReport:
    mode: str
    outcomes: tuple[PipelineOutcome, ...]
    skipped: tuple[str, ...]

    @property
    def updates(self) -> int:
        return len(self.outcomes)

    def render(self) -> str:
        lines = [f"{self.updates} updates"]
        for outcome in self.outcomes:
            line = f"{outcome.challenge} {outcome.version} {outcome.state}"
            if outcome.detail:
                line += f" ({outcome.detail})"
            lines.append(line)
        for reason in self.skipped:
            lines.append(f"skipped: {reason}")
        return "\n".join(lines)


def run_pipeline(mode: str, store: Path,
                 deployed_view: Mapping[str, str | None],
                 select: list[str] | None = None,
                 ) -> tuple[list[ArtifactManifest], list[str], list[str]]:
    """Decide one promotion pass over the store; writes nothing.

    Dev mode picks challenges that are already deployed and differ from
    the newest store artifact. Deploy mode picks exactly the selected
    challenges (selection mandatory), deployed or not. Returns the winning
    manifests, the selected challenges with no bundle in the store (deploy
    mode) and the bundles skipped as malformed.
    """
    if mode not in (MODE_DEV, MODE_DEPLOY):
        raise PipelineError(f"unknown pipeline mode {mode!r}")
    if mode == MODE_DEPLOY and not select:
        raise PipelineError("deploy mode requires a challenge selection")
    for name in select or ():
        if not NAME_RE.match(name):
            raise PipelineError(f"bad challenge name {name!r} in the selection")

    manifests, skipped = scan_store(store)
    missing: list[str] = []
    if select is not None:
        manifests = [m for m in manifests if m.challenge in select]
        if mode == MODE_DEPLOY:
            missing = sorted(set(select) - {m.challenge for m in manifests})
    decided = decide_updates(manifests, deployed_view,
                             include_undeployed=(mode == MODE_DEPLOY))
    return [manifest for _, manifest in decided], missing, skipped
