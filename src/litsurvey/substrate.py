"""Persist/load the knowledge substrate as a directory of JSON files.

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
(``KnowledgeSubstrate.stage_seconds``), the sha256 of each of its files and
the revision-log events it owns (those logged since the stage before it).
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
not committed), checks each against its sha256 and raises LoadError naming
a file that is missing or altered; files the record does not list are
ignored.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterator, Optional

from .errors import IntegrityError, LoadError, PersistenceError
from .model import (
    STAGES,
    Cluster,
    ClusterAnalysis,
    CitationMark,
    CitationStyle,
    CodeReportPair,
    ComparisonTable,
    DraftUnit,
    Granularity,
    Keynote,
    KnowledgeSubstrate,
    OutlineNode,
    PaperId,
    PaperRecord,
    QaItem,
    RelationEdge,
    TableRow,
)

COMMIT_FILE = "commit.json"
#: the record's run header, next to its ``stages``
_HEADER_KEYS = ("config_hash", "topic", "created_at")
_RECORD_KEYS = {*_HEADER_KEYS, "stages"}
_ENTRY_KEYS = {"stage", "seconds", "events", "files"}


def _dump(path: Path, payload: dict) -> str:
    """Atomic write: a temporary file renamed over ``path``; returns the
    sha256 of the text. A file that already holds the same text is left
    alone: renaming over an existing file costs about twice as much as
    creating one on ext4, and a zero-work resume rewrites an unchanged
    manifest."""
    text = json.dumps(payload, ensure_ascii=False, indent=2) + "\n"
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
        yield "code_reports.json", {
            "code_reports": [{"paper_id": k, **reports[k].to_dict()} for k in sorted(reports)]
        }
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


def read_record(directory: str | Path) -> dict:
    """The commit record: the run header and the committed stages, in run
    order. Raises LoadError for a missing, torn or incomplete record."""
    path = Path(directory) / COMMIT_FILE
    try:
        record = json.loads(path.read_bytes())
        if set(record) != _RECORD_KEYS:
            raise ValueError(f"fields {sorted(record)}, expected {sorted(_RECORD_KEYS)}")
        for e in record["stages"]:
            if not (
                set(e) == _ENTRY_KEYS
                and e["stage"] in STAGES
                and isinstance(e["files"], dict)
                and isinstance(e["events"], list)
            ):
                raise ValueError(f"malformed stage entry {e!r}")
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
            "events": substrate.revision_log[sum(len(e["events"]) for e in entries) :],
        })
    _dump(root / COMMIT_FILE, record)


def _resolve(canonical: str, registry: dict[str, PaperId], where: str) -> PaperId:
    pid = registry.get(canonical)
    if pid is None:
        raise IntegrityError(f"{where} references unknown paper '{canonical}'")
    return pid


def _load_outline(d: Optional[dict], registry: dict[str, PaperId]) -> Optional[OutlineNode]:
    if d is None:
        return None
    return OutlineNode(
        title=d["title"],
        description=d["description"],
        assigned={_resolve(c, registry, f"outline '{d['title']}'") for c in d.get("assigned", [])},
        children=[_load_outline(c, registry) for c in d.get("children", [])],
    )


def _load_analysis(d: dict, registry: dict[str, PaperId]) -> ClusterAnalysis:
    where = f"analysis {d['cluster_id']}"
    table = None
    if d.get("comparison_table"):
        td = d["comparison_table"]
        table = ComparisonTable(
            columns=list(td["columns"]),
            rows=[
                TableRow(paper=_resolve(r["paper_id"], registry, where), cells=dict(r["cells"]))
                for r in td["rows"]
            ],
        )
    return ClusterAnalysis(
        cluster_id=d["cluster_id"],
        relation_graph=[
            RelationEdge(
                src=_resolve(e["from"], registry, where),
                dst=_resolve(e["to"], registry, where),
                kind=e["kind"],
                label=e.get("label", ""),
                description=e.get("description", ""),
            )
            for e in d.get("relation_graph", [])
        ],
        comparison_table=table,
        qa_items=[
            QaItem(
                question=q["question"],
                related=[_resolve(c, registry, where) for c in q.get("related", [])],
                answer=q["answer"],
            )
            for q in d.get("qa_items", [])
        ],
        source_attributions={
            k: [_resolve(c, registry, where) for c in v]
            for k, v in d.get("source_attributions", {}).items()
        },
    )


def _read(path: Path, digest: str) -> dict:
    """Parse a listed file, checking the bytes read against the record."""
    try:
        data = path.read_bytes()
    except FileNotFoundError as exc:
        raise LoadError(path, "file missing") from exc
    except OSError as exc:
        raise LoadError(path, str(exc)) from exc
    if hashlib.sha256(data).hexdigest() != digest:
        raise LoadError(path, "contents differ from the commit record")
    try:
        return json.loads(data)
    except ValueError as exc:
        raise LoadError(path, str(exc)) from exc


def _load_draft(d: dict, registry: dict[str, PaperId]) -> DraftUnit:
    where = f"draft {' > '.join(d['node_path'])}"
    return DraftUnit(
        node_path=tuple(d["node_path"]),
        text=d["text"],
        citations=[
            CitationMark(
                style=CitationStyle(m["style"]),
                key=m["key"],
                paper=_resolve(m["paper"], registry, where),
            )
            for m in d["citations"]
        ],
        granularity=Granularity(d["granularity"]),
    )


def substrate_load(directory: str | Path, record: Optional[dict] = None) -> KnowledgeSubstrate:
    """Load the committed stages of a saved substrate, with each one's
    seconds in ``stage_seconds``; referential integrity is re-verified.
    ``record`` is the directory's commit record, when already read."""
    root = Path(directory)
    entries = (read_record(root) if record is None else record)["stages"]
    refined = any(e["stage"] == "refinement" for e in entries)
    papers: dict[str, PaperRecord] = {}
    keynotes: dict[str, Keynote] = {}
    code_reports: dict[str, CodeReportPair] = {}
    docs: dict[str, dict] = {}
    # Papers, keynotes and code reports become objects as each file is
    # read, so their parsed JSON is not kept.
    for entry in entries:
        for name, digest in entry["files"].items():
            if name == "drafts.json" and refined:
                continue
            doc = _read(root / name, digest)
            if name == "papers.json":
                papers = {r["id"]["canonical"]: PaperRecord.from_dict(r) for r in doc["papers"]}
            elif name == "keynotes.json":
                keynotes = {k.paper_id.canonical: k for k in map(Keynote.from_dict, doc["keynotes"])}
            elif name == "code_reports.json":
                code_reports = {
                    d["paper_id"]: CodeReportPair(d["code_report"], d["environment_report"])
                    for d in doc["code_reports"]
                }
            else:
                docs[name] = doc
    registry = {k: rec.id for k, rec in papers.items()}

    clusters = [
        Cluster(
            cluster_id=c["cluster_id"],
            name=c["name"],
            summary=c["summary"],
            members={
                _resolve(m, registry, f"cluster {c['cluster_id']}") for m in c["members"]
            },
        )
        for c in docs.get("clusters.json", {"clusters": []})["clusters"]
    ]
    analyses_doc = docs.get("analyses.json", {"analyses": []})
    overview_doc = docs.get("code_overview.json", {})
    outline_doc = docs.get("outline.json", {"outline": None})
    drafts_doc = docs.get("refined_drafts.json") or docs.get("drafts.json", {"drafts": []})

    substrate = KnowledgeSubstrate(
        papers=papers,
        keynotes=keynotes,
        clusters=clusters,
        analyses=[_load_analysis(a, registry) for a in analyses_doc["analyses"]],
        inter_cluster=analyses_doc.get("inter_cluster", ""),
        code_reports=code_reports,
        code_overview=overview_doc.get("code_overview", ""),
        environment_overview=overview_doc.get("environment_overview", ""),
        outline=_load_outline(outline_doc["outline"], registry),
        drafts=[_load_draft(d, registry) for d in drafts_doc["drafts"]],
        revision_log=[event for e in entries for event in e["events"]],
        stage_seconds={e["stage"]: e["seconds"] for e in entries},
    )
    substrate.validate()
    return substrate
