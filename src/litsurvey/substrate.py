"""Persist/load the knowledge substrate as a directory of JSON files.

This module owns the file layout, the commit record and hashing. Each
artifact's JSON form belongs to its type in ``model``: ``to_dict`` and
``from_dict(d, ids)``, where ``ids`` maps a canonical id to the retrieved
paper's ``PaperId``.

Layout, by the stage that writes each file::

    commit.json                   the commit record (below)
    papers.json                   retrieval
    keynotes.json                 understanding
    clusters.json analyses.json   analysis
    code_reports.json             code analysis, with code_overview.json
    outline.json drafts.json      writing
    refined_drafts.json           refinement

Each file holds one artifact for every paper or cluster, in canonical-id or
cluster-id order. Writes use stable key ordering and UTF-8 so diffs and
hashes are reproducible.

The commit record is the run directory's only state: its header holds the
run's config hash, topic and start time, and ``stages`` lists the committed
stages in run order, each with its seconds
(``KnowledgeSubstrate.stage_seconds``) and the sha256 of each of its files.
``substrate_reset`` commits a header with no stage; a run that does not
resume starts with it, so nothing an earlier run left in the directory is
loaded. ``substrate_save(substrate, directory, stage)`` writes only the
files that ``stage`` owns, each through a temporary file renamed over its
target, and then replaces ``commit.json`` the same way, carrying the header
forward; it reads no file another stage owns. Committing a stage drops it
and every later stage from the record. A crash before the record is
replaced leaves the previous record, and no stage writes a file another
stage owns, so the files it lists are intact and the stage simply runs
again on resume; refinement's drafts go to a file of their own so that
writing's survive a crash in refinement's save. ``substrate_load`` reads
only the files the record lists (writing's drafts only while refinement has
not committed), or only those of the stages it is asked for, checks each
against its sha256 and raises LoadError naming a file that is missing or
altered; files the record does not list are ignored. A reference to a paper that ``papers.json`` does not hold decodes
to a bare ``PaperId``, and ``KnowledgeSubstrate.validate`` then raises
IntegrityError naming the artifact that holds it.

Once a finished run has written its survey and sidecar from the committed
stages, ``record_survey`` adds their sha256 to the record as its optional
``survey`` entry; ``substrate_reset`` and every stage save write a record
without it. ``survey_verified`` tells a resume whether the entry still
matches both files, and if so checks every file a load would read against
its sha256 without decoding any: the files then hold the bytes a validated
save wrote, so the run has nothing to load, assemble or write again.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Collection, Iterator, Optional

from .errors import LoadError, PersistenceError
from .model import (
    STAGES,
    Cluster,
    ClusterAnalysis,
    DraftUnit,
    Keynote,
    KnowledgeSubstrate,
    OutlineNode,
    PaperRecord,
)

COMMIT_FILE = "commit.json"
#: the record's run header, next to its ``stages``
_HEADER_KEYS = ("config_hash", "topic", "created_at")
_RECORD_KEYS = {*_HEADER_KEYS, "stages"}
_ENTRY_KEYS = {"stage", "seconds", "files"}
#: the outputs of a finished run that the record's optional ``survey``
#: entry vouches for, each by its sha256: the survey and its sidecar
_SURVEY_KEYS = ("document", "sidecar")


def _dump(path: Path, payload: dict) -> str:
    """Atomic write of ``payload`` as one line of JSON (see :func:`_write`);
    returns the sha256 of the text."""
    # No indent: it forces json's pure-Python encoder.
    return _write(path, json.dumps(payload, ensure_ascii=False, separators=(",", ":")) + "\n")


def _write(path: Path, text: str) -> str:
    """Atomic write: a temporary file renamed over ``path``; returns the
    sha256 of the text. A file that already holds the same text is left
    alone: renaming over an existing file costs about twice as much as
    creating one on ext4, and a rerun finds most of the files it writes
    unchanged, as a finished run's resume finds its manifest."""
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    try:
        if path.read_text(encoding="utf-8") == text:
            return digest
    except (OSError, UnicodeDecodeError):
        pass  # missing or unreadable: write it
    try:
        tmp = path.with_suffix(".tmp")
        tmp.write_text(text, encoding="utf-8", newline="")
        tmp.replace(path)
    except OSError as exc:
        raise PersistenceError(path, exc) from exc
    return digest


def _drafts(drafts: list[DraftUnit]) -> dict:
    return {"drafts": [d.to_dict() for d in drafts]}


def _owned_files(stage: str, substrate: KnowledgeSubstrate) -> Iterator[tuple[str, dict]]:
    """(path in the directory, payload) of every file ``stage`` owns, one at
    a time so that a stage's payloads are never all held at once."""
    if stage == "retrieval":
        papers = substrate.papers
        yield "papers.json", {"papers": [papers[k].to_dict() for k in sorted(papers)]}
    elif stage == "understanding":
        keynotes = substrate.keynotes
        yield "keynotes.json", {"keynotes": [keynotes[k].to_dict() for k in sorted(keynotes)]}
    elif stage == "analysis":
        yield "clusters.json", {
            "clusters": [
                c.to_dict() for c in sorted(substrate.clusters, key=lambda c: c.cluster_id)
            ]
        }
        yield "analyses.json", {
            "analyses": [
                a.to_dict() for a in sorted(substrate.analyses, key=lambda a: a.cluster_id)
            ],
            "inter_cluster": substrate.inter_cluster,
        }
    elif stage == "code_analysis":
        reports = substrate.code_reports
        yield "code_reports.json", {"code_reports": {k: reports[k] for k in sorted(reports)}}
        yield "code_overview.json", {
            "code_overview": substrate.code_overview,
            "environment_overview": substrate.environment_overview,
        }
    elif stage == "writing":
        yield "outline.json", {
            "outline": substrate.outline.to_dict() if substrate.outline else None
        }
        yield "drafts.json", _drafts(substrate.drafts)
    else:
        yield "refined_drafts.json", _drafts(substrate.drafts)


def _is_survey_entry(entry) -> bool:
    """A sha256 in lowercase hex for each of ``_SURVEY_KEYS``, and nothing else."""
    return (
        isinstance(entry, dict)
        and sorted(entry) == sorted(_SURVEY_KEYS)
        and all(
            isinstance(d, str) and len(d) == 64 and set(d) <= set("0123456789abcdef")
            for d in entry.values()
        )
    )


def read_record(directory: str | Path) -> dict:
    """The commit record: the run header, the committed stages in run order
    and, once a finished run has written them, the ``survey`` entry. Raises
    LoadError for a missing, torn, incomplete or malformed record."""
    path = Path(directory) / COMMIT_FILE
    try:
        record = json.loads(path.read_bytes())
        if set(record) - {"survey"} != _RECORD_KEYS:
            raise ValueError(f"fields {sorted(record)}, expected {sorted(_RECORD_KEYS)}")
        for e in record["stages"]:
            if not (set(e) == _ENTRY_KEYS and e["stage"] in STAGES and isinstance(e["files"], dict)):
                raise ValueError(f"malformed stage entry {e!r}")
        if "survey" in record and not _is_survey_entry(record["survey"]):
            raise ValueError(f"malformed survey entry {record['survey']!r}")
    except FileNotFoundError as exc:
        raise LoadError(path, "file missing") from exc
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise LoadError(path, str(exc)) from exc
    return record


def _mkdir(root: Path) -> None:
    try:
        root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise PersistenceError(root, exc) from exc


def substrate_reset(
    directory: str | Path, *, config_hash: str, topic: str, created_at: str
) -> None:
    """Commit a record with this run's header and no stage: every file an
    earlier run left in ``directory`` is ignored until a stage rewrites it."""
    root = Path(directory)
    _mkdir(root)
    _dump(
        root / COMMIT_FILE,
        {"config_hash": config_hash, "topic": topic, "created_at": created_at, "stages": []},
    )


def substrate_save(
    substrate: KnowledgeSubstrate,
    directory: str | Path,
    stage: Optional[str] = None,
) -> None:
    """Write the files ``stage`` owns, then commit them on top of the stages
    before it in the existing record, under its header. Without a stage,
    write every stage's files and commit them all at once under an empty
    header, replacing any record; no run resumes from such a directory.
    Each entry takes its seconds from ``substrate.stage_seconds`` (0 when
    absent). Integrity is verified first, so nothing is written for a
    substrate with dangling references."""
    if stage is not None and stage not in STAGES:
        raise ValueError(f"unknown stage '{stage}'")
    substrate.validate()
    root = Path(directory)
    if stage is None:
        _mkdir(root)
        stages, record = STAGES, {**dict.fromkeys(_HEADER_KEYS, ""), "stages": []}
    else:
        stages, record = (stage,), read_record(root)
        record.pop("survey", None)  # what the survey is assembled from changes
        earlier = STAGES[: STAGES.index(stage)]
        record["stages"] = [e for e in record["stages"] if e["stage"] in earlier]
    entries = record["stages"]
    for name in stages:
        entries.append({
            "stage": name,
            "seconds": substrate.stage_seconds.get(name, 0.0),
            "files": {
                path: _dump(root / path, doc) for path, doc in _owned_files(name, substrate)
            },
        })
    _dump(root / COMMIT_FILE, record)


def record_survey(directory: str | Path, document: str, sidecar: str) -> None:
    """Commit the sha256 of a finished run's survey and of its sidecar, as
    just written from the committed stages, under the record's ``survey``
    entry. The next stage save drops the entry."""
    root = Path(directory)
    record = read_record(root)
    record["survey"] = dict(zip(_SURVEY_KEYS, (document, sidecar)))
    _dump(root / COMMIT_FILE, record)


def _check(path: Path, digest: str) -> bytes:
    """The bytes of a listed file, checked against the record's sha256."""
    try:
        data = path.read_bytes()
    except FileNotFoundError as exc:
        raise LoadError(path, "file missing") from exc
    except OSError as exc:
        raise LoadError(path, str(exc)) from exc
    if hashlib.sha256(data).hexdigest() != digest:
        raise LoadError(path, "contents differ from the commit record")
    return data


def _read(path: Path, digest: str) -> dict:
    """Parse a listed file, checking the bytes read against the record."""
    data = _check(path, digest)
    try:
        return json.loads(data)
    except ValueError as exc:
        raise LoadError(path, str(exc)) from exc


def _listed(entries: list[dict], record: dict) -> Iterator[tuple[str, str]]:
    """(name, sha256) of each file of ``entries``, committed in ``record``,
    that a load reads, in run order: writing's drafts only while refinement
    has not committed."""
    refined = any(e["stage"] == "refinement" for e in record["stages"])
    for entry in entries:
        for name, digest in entry["files"].items():
            if not (name == "drafts.json" and refined):
                yield name, digest


def survey_verified(directory: str | Path, record: dict, document: Path, sidecar: Path) -> bool:
    """Whether ``record`` vouches for the finished run's survey and sidecar,
    at the paths ``document`` and ``sidecar``, as they are now: its
    ``survey`` entry holds the sha256 of each. If it does, each file
    :func:`substrate_load` would read is then checked against its sha256,
    in the same order, and none is decoded: every one holds the bytes a
    validated save wrote, so it would load unchanged. A file missing or
    altered raises the LoadError ``substrate_load`` would."""
    vouched = record.get("survey")
    if vouched is None:
        return False
    try:
        for path, key in zip((document, sidecar), _SURVEY_KEYS):
            _check(path, vouched[key])
    except LoadError:
        return False
    root = Path(directory)
    for name, digest in _listed(record["stages"], record):
        _check(root / name, digest)
    return True


def substrate_load(
    directory: str | Path,
    record: Optional[dict] = None,
    stages: Optional[Collection[str]] = None,
) -> KnowledgeSubstrate:
    """Load the committed stages of a saved substrate, with each one's
    seconds in ``stage_seconds``; referential integrity is re-verified.
    ``record`` is the directory's commit record, when already read.
    ``stages``, when given, are the stages to load if committed: no file
    of another stage is read, and the others' fields stay empty."""
    root = Path(directory)
    record = read_record(root) if record is None else record
    entries = record["stages"]
    if stages is not None:
        entries = [e for e in entries if e["stage"] in stages]
    substrate = KnowledgeSubstrate(stage_seconds={e["stage"]: e["seconds"] for e in entries})
    ids: dict = {}  # canonical id -> the retrieved paper's PaperId
    # Each file becomes objects as it is read, so its parsed JSON is not
    # kept; the stages are in run order, so papers come first.
    for name, digest in _listed(entries, record):
        doc = _read(root / name, digest)
        if name == "papers.json":
            substrate.papers = {
                r["id"]["canonical"]: PaperRecord.from_dict(r) for r in doc["papers"]
            }
            ids = {k: rec.id for k, rec in substrate.papers.items()}
        elif name == "keynotes.json":
            substrate.keynotes = {
                k.paper_id.canonical: k for k in map(Keynote.from_dict, doc["keynotes"])
            }
        elif name == "clusters.json":
            substrate.clusters = [Cluster.from_dict(c, ids) for c in doc["clusters"]]
        elif name == "analyses.json":
            substrate.analyses = [ClusterAnalysis.from_dict(a, ids) for a in doc["analyses"]]
            substrate.inter_cluster = doc["inter_cluster"]
        elif name == "code_reports.json":
            substrate.code_reports = doc["code_reports"]
        elif name == "code_overview.json":
            substrate.code_overview = doc["code_overview"]
            substrate.environment_overview = doc["environment_overview"]
        elif name == "outline.json":
            outline = doc["outline"]
            substrate.outline = OutlineNode.from_dict(outline, ids) if outline else None
        else:
            substrate.drafts = [DraftUnit.from_dict(d, ids) for d in doc["drafts"]]
    substrate.validate()
    return substrate
