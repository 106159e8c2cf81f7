"""Per-format artifact walkers: re-verify every durable byte.

One walker per artifact family, each returning an
:class:`~repro.integrity.findings.IntegrityReport` fragment that
:func:`~repro.integrity.fsck.run_fsck` (or the background scrubber)
merges.  Walkers only *observe* — they never move, truncate, or rewrite
anything; that is the repair planner's job — so a scan is always safe to
run against a live store.

Detection reuses the formats' own verification primitives (the store's
``verify_snapshot``, and for the journal and cassettes the line scanner
of :mod:`repro.store.envelope` with each format's record check) rather
than re-implementing them: what the loader would refuse to serve is
exactly what the walker reports.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.integrity.findings import (
    KIND_CROSS_REF,
    KIND_DUPLICATE,
    KIND_FORMAT,
    KIND_HASH_MISMATCH,
    KIND_MISSING_REFERENT,
    KIND_ORPHAN,
    KIND_PENDING_JOURNAL,
    KIND_STALE_SIDECAR,
    KIND_TORN_TAIL,
    Finding,
    IntegrityReport,
    Severity,
)

# ----------------------------------------------------------------------
# Snapshot stores
# ----------------------------------------------------------------------


def _classify_store_failure(failure: str) -> str:
    """Map one ``verify_snapshot`` failure string onto a finding kind."""
    if "sha256 mismatch" in failure:
        return KIND_HASH_MISMATCH
    if "unreadable" in failure or "missing" in failure:
        return KIND_MISSING_REFERENT
    return KIND_FORMAT


def walk_store(
    root: str | Path, *, expected_company: str | None = None
) -> IntegrityReport:
    """Hash-verify one snapshot store: manifest, artifacts, pointers.

    ``expected_company`` enables the cross-reference check a registry
    walk needs: the published snapshot's manifest must name the company
    the registry routed here (catching swapped store directories, which
    every per-file hash is blind to).
    """
    from repro.store.snapshot import (
        CURRENT_NAME,
        JOURNAL_NAME,
        MANIFEST_NAME,
        SnapshotStore,
        _SNAP_PREFIX,
        _TMP_PREFIX,
    )

    root = Path(root)
    report = IntegrityReport(root=str(root))
    report.count("stores")
    store = SnapshotStore(root)
    store_root = str(root)

    current = store.current_id()
    snapshot_ids = store.snapshot_ids()

    if (root / JOURNAL_NAME).exists():
        report.add(
            Finding(
                family="store",
                kind=KIND_PENDING_JOURNAL,
                severity=Severity.WARN,
                path=str(root / JOURNAL_NAME),
                root=store_root,
                detail="write-ahead update journal never resolved "
                "(crash mid-update); recovery rolls forward or back "
                "deterministically",
                repairable=True,
            )
        )

    if store.snapshots_dir.is_dir():
        for entry in sorted(store.snapshots_dir.iterdir(), key=lambda e: e.name):
            if entry.name.startswith(_TMP_PREFIX):
                report.add(
                    Finding(
                        family="store",
                        kind=KIND_ORPHAN,
                        severity=Severity.INFO,
                        path=str(entry),
                        root=store_root,
                        detail="staging directory left by an interrupted "
                        "commit; garbage-collected on repair",
                        repairable=True,
                    )
                )
            elif not entry.name.startswith(_SNAP_PREFIX):
                report.add(
                    Finding(
                        family="store",
                        kind=KIND_ORPHAN,
                        severity=Severity.INFO,
                        path=str(entry),
                        root=store_root,
                        detail="unexpected entry in the snapshots "
                        "directory (not a snapshot, not staging)",
                        repairable=False,
                    )
                )

    if store.quarantine_dir.is_dir():
        report.count(
            "quarantined",
            sum(1 for e in store.quarantine_dir.iterdir() if e.is_dir()),
        )

    # Verify every committed snapshot; validity drives severity below.
    failures_by_id: dict[str, list[str]] = {}
    cross_ref_ids: set[str] = set()
    for snapshot_id in snapshot_ids:
        report.count("snapshots")
        failures = store.verify_snapshot(snapshot_id)
        failures_by_id[snapshot_id] = failures
        if not failures:
            manifest = store.manifest(snapshot_id)
            artifacts = manifest.get("artifacts")
            report.count("manifests")
            report.count(
                "artifacts", len(artifacts) if isinstance(artifacts, dict) else 0
            )
            declared = manifest.get("snapshot_id")
            if declared != snapshot_id:
                # A swapped or copied snapshot directory: internally
                # hash-valid, so verify_snapshot cannot see it — only the
                # identity cross-reference can.
                failures_by_id[snapshot_id] = [
                    f"manifest names {declared!r}, directory is {snapshot_id}"
                ]
                cross_ref_ids.add(snapshot_id)

    valid_ids = [sid for sid, fails in failures_by_id.items() if not fails]
    any_valid = bool(valid_ids)

    for snapshot_id in snapshot_ids:
        failures = failures_by_id[snapshot_id]
        if not failures:
            continue
        if snapshot_id in cross_ref_ids:
            report.add(
                Finding(
                    family="store",
                    kind=KIND_CROSS_REF,
                    severity=Severity.ERROR if any_valid else Severity.CRITICAL,
                    path=str(store.snapshots_dir / snapshot_id),
                    root=store_root,
                    detail=failures[0] + " (swapped or copied snapshot "
                    "directory)",
                    subject=snapshot_id,
                    repairable=any_valid,
                )
            )
            continue
        is_current = snapshot_id == current
        if not any_valid:
            severity = Severity.CRITICAL
        elif is_current:
            severity = Severity.ERROR
        else:
            severity = Severity.WARN
        for failure in failures:
            report.add(
                Finding(
                    family="store",
                    kind=_classify_store_failure(failure),
                    severity=severity,
                    path=str(store.snapshots_dir / snapshot_id),
                    root=store_root,
                    detail=failure
                    + (
                        ""
                        if any_valid
                        else "; no hash-valid snapshot remains in this store"
                    ),
                    subject=snapshot_id,
                    repairable=any_valid,
                )
            )

    # Pointer checks: CURRENT must reference a committed snapshot.
    if current is not None and current not in snapshot_ids:
        report.add(
            Finding(
                family="store",
                kind=KIND_MISSING_REFERENT,
                severity=Severity.ERROR if any_valid else Severity.CRITICAL,
                path=str(root / CURRENT_NAME),
                root=store_root,
                detail=f"CURRENT names {current!r} but no such snapshot "
                "is committed",
                subject=current,
                repairable=any_valid,
            )
        )
    elif current is None and snapshot_ids:
        report.add(
            Finding(
                family="store",
                kind=KIND_CROSS_REF,
                severity=Severity.WARN,
                path=str(root / CURRENT_NAME),
                root=store_root,
                detail="published pointer missing while snapshots exist; "
                "load republishes the newest valid snapshot",
                repairable=any_valid,
            )
        )

    if expected_company is not None and current in failures_by_id and not (
        failures_by_id.get(current)
    ):
        manifest = store.manifest(current)
        company = manifest.get("company")
        if company != expected_company:
            report.add(
                Finding(
                    family="store",
                    kind=KIND_CROSS_REF,
                    severity=Severity.ERROR,
                    path=str(store.snapshots_dir / current / MANIFEST_NAME),
                    root=store_root,
                    detail=f"store serves company {company!r} but the "
                    f"registry routes {expected_company!r} here "
                    "(swapped store directories)",
                    subject=expected_company,
                    repairable=False,
                )
            )
    return report


# ----------------------------------------------------------------------
# Registry manifests
# ----------------------------------------------------------------------


def _looks_like_store(directory: Path) -> bool:
    from repro.store.snapshot import CURRENT_NAME

    return (directory / CURRENT_NAME).exists() or (
        directory / "snapshots"
    ).is_dir()


def _registry_store_dirs(root: Path) -> list[Path]:
    """Every directory under ``shards/`` that looks like a snapshot store."""
    shards = root / "shards"
    if not shards.is_dir():
        return []
    found = []
    for shard_dir in sorted(shards.iterdir()):
        if not shard_dir.is_dir():
            continue
        for store_dir in sorted(shard_dir.iterdir()):
            if store_dir.is_dir() and _looks_like_store(store_dir):
                found.append(store_dir)
    return found


def walk_registry(root: str | Path) -> IntegrityReport:
    """Cross-verify ``REGISTRY.json`` against the shard tree, then walk
    every referenced store (and report unreferenced ones as orphans)."""
    from repro.errors import RegistryError
    from repro.registry.manifest import MANIFEST_NAME, read_manifest, shard_for

    root = Path(root)
    report = IntegrityReport(root=str(root))
    registry_root = str(root)
    report.count("manifests")

    try:
        manifest = read_manifest(root)
    except RegistryError as exc:
        report.add(
            Finding(
                family="registry",
                kind=KIND_FORMAT,
                severity=Severity.CRITICAL,
                path=str(root / MANIFEST_NAME),
                root=registry_root,
                detail=f"manifest unreadable: {exc}; every company lookup "
                "fails until it is rebuilt from the surviving stores",
                repairable=True,
            )
        )
        # The index is gone but the stores are not: verify them anyway so
        # the rebuild plan knows what survives.
        for store_dir in _registry_store_dirs(root):
            report.merge(walk_store(store_dir))
        return report

    referenced: set[Path] = set()
    for company in manifest.companies():
        entry = manifest.entries[company]
        store_dir = root / entry.store_dir
        referenced.add(store_dir.resolve())
        expected_shard = shard_for(company, manifest.num_shards)
        if entry.shard != expected_shard:
            report.add(
                Finding(
                    family="registry",
                    kind=KIND_CROSS_REF,
                    severity=Severity.WARN,
                    path=str(root / MANIFEST_NAME),
                    root=registry_root,
                    detail=f"entry for {company!r} records shard "
                    f"{entry.shard!r} but sha256 assignment says "
                    f"{expected_shard!r}",
                    subject=company,
                    repairable=True,
                )
            )
        if not store_dir.is_dir():
            report.add(
                Finding(
                    family="registry",
                    kind=KIND_MISSING_REFERENT,
                    severity=Severity.ERROR,
                    path=str(store_dir),
                    root=registry_root,
                    detail=f"manifest entry for {company!r} points at a "
                    "store directory that does not exist",
                    subject=company,
                    repairable=True,  # drop + quarantine the entry's provenance
                )
            )
            continue
        sub = walk_store(store_dir, expected_company=company)
        report.merge(sub)

    for store_dir in _registry_store_dirs(root):
        if store_dir.resolve() in referenced:
            continue
        report.add(
            Finding(
                family="registry",
                kind=KIND_ORPHAN,
                severity=Severity.WARN,
                path=str(store_dir),
                root=registry_root,
                detail="store directory not referenced by any manifest "
                "entry (crash between store commit and manifest write); "
                "adoptable if its snapshots verify",
                repairable=True,
            )
        )

    quarantine = root / "quarantine"
    if quarantine.is_dir():
        report.count(
            "quarantined", sum(1 for _ in quarantine.iterdir())
        )
    return report


# ----------------------------------------------------------------------
# Checkpoint journals
# ----------------------------------------------------------------------


def walk_checkpoint(path: str | Path) -> IntegrityReport:
    """Scan one checkpoint journal (a directory or the file itself).

    Unlike :func:`repro.jobs.checkpoint.read_journal` — which stops at
    the first bad line because recovery is prefix-trust — the walker
    reads the whole file, so it distinguishes a torn *tail* (repairable
    truncation) from *mid-file* corruption (the trusted prefix ends and
    every later record, valid or not, is unserveable) and reports
    duplicate headers the reader silently ignores.
    """
    from repro.jobs.checkpoint import JOURNAL_NAME, KIND_HEADER, scan_journal

    path = Path(path)
    journal = path / JOURNAL_NAME if path.is_dir() else path
    root = str(journal.parent)
    report = IntegrityReport(root=str(path))
    report.count("journals")
    if not journal.exists():
        return report

    lines = scan_journal(journal)
    headers = 0
    seen_indices: set[int] = set()
    records = 0
    for line in lines:
        number, record = line.number, line.record
        if record is None:
            continue
        records += 1
        if record.get("kind") == KIND_HEADER:
            headers += 1
            if headers > 1:
                report.add(
                    Finding(
                        family="checkpoint",
                        kind=KIND_DUPLICATE,
                        severity=Severity.WARN,
                        path=str(journal),
                        root=root,
                        detail=f"duplicate header record at line {number}; "
                        "recovery trusts the first header only",
                        subject=f"line {number}",
                        repairable=True,
                    )
                )
            continue
        index = record["index"]
        if index in seen_indices:
            report.add(
                Finding(
                    family="checkpoint",
                    kind=KIND_DUPLICATE,
                    severity=Severity.WARN,
                    path=str(journal),
                    root=root,
                    detail=f"replayed append of record index {index} at "
                    f"line {number} (first occurrence wins)",
                    subject=f"index {index}",
                    repairable=True,
                )
            )
            continue
        seen_indices.add(index)
    report.count("journal_records", records)

    for line in lines:
        if line.record is not None:
            continue
        if line.torn:
            report.add(
                Finding(
                    family="checkpoint",
                    kind=KIND_TORN_TAIL,
                    severity=Severity.WARN,
                    path=str(journal),
                    root=root,
                    detail="final line cut mid-append by a crash; "
                    "truncating to the last complete record restores "
                    "the journal",
                    subject=f"line {line.number}",
                    repairable=True,
                )
            )
        else:
            report.add(
                Finding(
                    family="checkpoint",
                    kind=KIND_TORN_TAIL if line is lines[-1] else KIND_HASH_MISMATCH,
                    severity=Severity.ERROR,
                    path=str(journal),
                    root=root,
                    detail=f"line {line.number} fails its checksum mid-file; "
                    "the trusted prefix ends here and every later record "
                    "is re-executed on resume",
                    subject=f"line {line.number}",
                    repairable=True,  # compact to the trusted prefix
                )
            )

    if headers == 0 and records > 0:
        report.add(
            Finding(
                family="checkpoint",
                kind=KIND_CROSS_REF,
                severity=Severity.ERROR,
                path=str(journal),
                root=root,
                detail="journal carries records but no header: nothing "
                "binds them to a question suite or model identity, so "
                "no resume may trust them",
                repairable=False,
            )
        )
    return report


# ----------------------------------------------------------------------
# Cassettes
# ----------------------------------------------------------------------


def walk_cassette(path: str | Path) -> IntegrityReport:
    """Scan one cassette's JSONL envelopes, cross-checked with the damage
    sidecar its last real load persisted (if any)."""
    from repro.providers.cassette import (
        DIGEST_MISMATCH,
        scan_cassette,
        sidecar_path,
    )
    from repro.store.envelope import CHECKSUM

    path = Path(path)
    root = str(path)
    report = IntegrityReport(root=root)
    report.count("cassettes")
    if not path.exists():
        return report

    damaged = 0
    for line in scan_cassette(path):
        report.count("cassette_lines")
        if line.damage is None:
            continue
        damaged += 1
        if line.torn:
            kind = KIND_TORN_TAIL
        else:
            kind = {CHECKSUM: KIND_HASH_MISMATCH, DIGEST_MISMATCH: KIND_CROSS_REF}.get(
                line.damage.kind, KIND_FORMAT
            )
        report.add(
            Finding(
                family="cassette",
                kind=kind,
                severity=Severity.WARN,
                path=root,
                root=root,
                detail=f"line {line.number}: {line.damage.reason}; replay "
                "skips it (the cassette degrades, it never crashes)",
                subject=f"line {line.number}",
                repairable=True,
            )
        )

    side = sidecar_path(path)
    if side.exists():
        try:
            recorded = json.loads(side.read_text("utf-8"))
            recorded_skips = len(recorded.get("skipped", []))
        except (OSError, json.JSONDecodeError):
            recorded_skips = None
        if recorded_skips != damaged:
            report.add(
                Finding(
                    family="cassette",
                    kind=KIND_STALE_SIDECAR,
                    severity=Severity.INFO,
                    path=str(side),
                    root=root,
                    detail="damage sidecar disagrees with the cassette "
                    f"(sidecar records {recorded_skips} skipped lines, "
                    f"scan found {damaged}); refreshed on repair",
                    repairable=True,
                )
            )
    return report


# ----------------------------------------------------------------------
# Certification quarantines
# ----------------------------------------------------------------------


def walk_cert_quarantine(root: str | Path) -> IntegrityReport:
    """Verify a certification-quarantine directory: every ``cert-*`` dir
    must hold the formula and a report whose digest matches its bytes."""
    import hashlib

    root = Path(root)
    report = IntegrityReport(root=str(root))
    quarantine_root = str(root)
    if not root.is_dir():
        return report

    damaged_dir = root / "damaged"
    if damaged_dir.is_dir():
        report.count("quarantined", sum(1 for _ in damaged_dir.iterdir()))

    for entry in sorted(root.iterdir()):
        if not entry.is_dir() or not entry.name.startswith("cert-"):
            continue
        report.count("cert_dirs")
        formula = entry / "formula.smt2"
        cert_report = entry / "report.json"
        missing = [p.name for p in (formula, cert_report) if not p.exists()]
        if missing:
            report.add(
                Finding(
                    family="certs",
                    kind=KIND_MISSING_REFERENT,
                    severity=Severity.ERROR,
                    path=str(entry),
                    root=quarantine_root,
                    detail=f"quarantined certificate evidence incomplete: "
                    f"missing {', '.join(missing)}",
                    subject=entry.name,
                    repairable=False,
                )
            )
            continue
        try:
            payload = json.loads(cert_report.read_text("utf-8"))
            declared = payload.get("script_sha256")
        except (OSError, json.JSONDecodeError) as exc:
            report.add(
                Finding(
                    family="certs",
                    kind=KIND_FORMAT,
                    severity=Severity.ERROR,
                    path=str(cert_report),
                    root=quarantine_root,
                    detail=f"report.json unreadable: {exc}",
                    subject=entry.name,
                    repairable=False,
                )
            )
            continue
        actual = hashlib.sha256(formula.read_bytes()).hexdigest()
        if not isinstance(declared, str) or actual != declared:
            report.add(
                Finding(
                    family="certs",
                    kind=KIND_HASH_MISMATCH,
                    severity=Severity.ERROR,
                    path=str(formula),
                    root=quarantine_root,
                    detail="formula bytes do not hash to the report's "
                    "script_sha256; the quarantined evidence cannot be "
                    "trusted for triage",
                    subject=entry.name,
                    repairable=False,
                )
            )
        elif f"cert-{declared[:12]}" != entry.name:
            report.add(
                Finding(
                    family="certs",
                    kind=KIND_CROSS_REF,
                    severity=Severity.ERROR,
                    path=str(entry),
                    root=quarantine_root,
                    detail=f"directory name {entry.name} disagrees with "
                    f"the certified digest cert-{declared[:12]}",
                    subject=entry.name,
                    repairable=False,
                )
            )
    return report
