"""Persist/load the knowledge substrate as a directory of JSON files.

Layout::

    papers.json  clusters.json  analyses.json  outline.json  drafts.json
    revision_log.json  keynotes/<hash>.json  code_reports/<hash>.json

Per-paper artifact files are named by a stable hash of the canonical paper
id so they can be reused across sessions regardless of source. Writes use
stable key ordering and UTF-8 so diffs and hashes are reproducible.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from .errors import IntegrityError, LoadError, PersistenceError
from .model import (
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
    paper_hash,
)

INDEX_FILES = (
    "papers.json",
    "clusters.json",
    "analyses.json",
    "outline.json",
    "drafts.json",
    "revision_log.json",
)


def _dump(path: Path, payload: dict) -> None:
    """Atomic write: a temporary file renamed over ``path``. A file that
    already holds the same text is left alone; renaming over an existing
    file costs about twice as much as creating one on ext4."""
    text = json.dumps(payload, ensure_ascii=False, indent=2) + "\n"
    try:
        if path.read_text(encoding="utf-8") == text:
            return
    except (OSError, UnicodeDecodeError):
        pass  # missing or unreadable: write it
    try:
        tmp = path.with_suffix(".tmp")
        tmp.write_text(text, encoding="utf-8")
        tmp.replace(path)
    except OSError as exc:
        raise PersistenceError(path, exc) from exc


def _read(path: Path) -> dict:
    if not path.exists():
        raise LoadError(path, "file missing")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise LoadError(path, str(exc)) from exc


def substrate_save(substrate: KnowledgeSubstrate, directory: str | Path) -> None:
    """Write the substrate; integrity is verified first so nothing is
    written for a substrate with dangling references."""
    substrate.validate()
    root = Path(directory)
    try:
        for sub in ("keynotes", "code_reports"):
            (root / sub).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise PersistenceError(root, exc) from exc

    _dump(
        root / "papers.json",
        {"papers": [substrate.papers[k].to_dict() for k in sorted(substrate.papers)]},
    )
    _dump(
        root / "clusters.json",
        {
            "clusters": [
                c.to_dict() for c in sorted(substrate.clusters, key=lambda c: c.cluster_id)
            ]
        },
    )
    _dump(
        root / "analyses.json",
        {
            "analyses": [
                a.to_dict()
                for a in sorted(substrate.analyses, key=lambda a: a.cluster_id)
            ],
            "inter_cluster": substrate.inter_cluster,
            "code_overview": substrate.code_overview,
            "environment_overview": substrate.environment_overview,
        },
    )
    _dump(
        root / "outline.json",
        {"outline": substrate.outline.to_dict() if substrate.outline else None},
    )
    _dump(root / "drafts.json", {"drafts": [d.to_dict() for d in substrate.drafts]})
    _dump(root / "revision_log.json", {"events": substrate.revision_log})

    written: set[Path] = set()
    for canonical in sorted(substrate.keynotes):
        path = root / "keynotes" / f"{paper_hash(canonical)}.json"
        _dump(path, substrate.keynotes[canonical].to_dict())
        written.add(path)
    for canonical in sorted(substrate.code_reports):
        path = root / "code_reports" / f"{paper_hash(canonical)}.json"
        _dump(path, {"paper_id": canonical, **substrate.code_reports[canonical].to_dict()})
        written.add(path)
    # Stale files go only once every current one is written, so a crash
    # part-way through a save never leaves fewer artifacts than it found.
    try:
        for sub in ("keynotes", "code_reports"):
            for path in (root / sub).glob("*.json"):
                if path not in written:
                    path.unlink()
    except OSError as exc:
        raise PersistenceError(root, exc) from exc


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


def substrate_load(directory: str | Path) -> KnowledgeSubstrate:
    """Load a saved substrate; referential integrity is re-verified."""
    root = Path(directory)
    papers_doc = _read(root / "papers.json")
    papers = {r["id"]["canonical"]: PaperRecord.from_dict(r) for r in papers_doc["papers"]}
    registry = {k: rec.id for k, rec in papers.items()}

    clusters_doc = _read(root / "clusters.json")
    clusters = [
        Cluster(
            cluster_id=c["cluster_id"],
            name=c["name"],
            summary=c["summary"],
            members={
                _resolve(m, registry, f"cluster {c['cluster_id']}") for m in c["members"]
            },
        )
        for c in clusters_doc["clusters"]
    ]

    analyses_doc = _read(root / "analyses.json")
    analyses = [_load_analysis(a, registry) for a in analyses_doc["analyses"]]

    outline_doc = _read(root / "outline.json")
    outline = _load_outline(outline_doc["outline"], registry)

    drafts_doc = _read(root / "drafts.json")
    drafts = []
    for d in drafts_doc["drafts"]:
        where = f"draft {' > '.join(d['node_path'])}"
        drafts.append(
            DraftUnit(
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
        )

    log_doc = _read(root / "revision_log.json")

    keynotes: dict[str, Keynote] = {}
    keynote_dir = root / "keynotes"
    if keynote_dir.is_dir():
        for path in sorted(keynote_dir.glob("*.json")):
            doc = _read(path)
            keynote = Keynote.from_dict(doc)
            canonical = keynote.paper_id.canonical
            if canonical not in papers:
                raise IntegrityError(
                    f"keynote file {path.name} references unknown paper '{canonical}'"
                )
            keynotes[canonical] = keynote

    code_reports: dict[str, CodeReportPair] = {}
    reports_dir = root / "code_reports"
    if reports_dir.is_dir():
        for path in sorted(reports_dir.glob("*.json")):
            doc = _read(path)
            canonical = doc["paper_id"]
            if canonical not in papers:
                raise IntegrityError(
                    f"code report {path.name} references unknown paper '{canonical}'"
                )
            code_reports[canonical] = CodeReportPair(
                code_report=doc.get("code_report", ""),
                environment_report=doc.get("environment_report", ""),
            )

    substrate = KnowledgeSubstrate(
        papers=papers,
        keynotes=keynotes,
        clusters=clusters,
        analyses=analyses,
        inter_cluster=analyses_doc.get("inter_cluster", ""),
        code_reports=code_reports,
        code_overview=analyses_doc.get("code_overview", ""),
        environment_overview=analyses_doc.get("environment_overview", ""),
        outline=outline,
        drafts=drafts,
        revision_log=list(log_doc["events"]),
    )
    substrate.validate()
    return substrate
