"""Stage 3: cluster theme design, paper partitioning with verification and
repair, intra-cluster relation graphs / comparison tables / guided Q&A, and
inter-cluster synthesis.

Every artifact is source-attributed; the attribution monitor drops and
logs any reference to a paper outside the owning cluster or substrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import InvalidInputError, MalformedOutputError
from .fanout import Feed, merge_tree
from .gateway import (
    Gateway,
    extract_json_payload,
    nearest,
    request_validated,
)
from .marks import drop_marks, unresolved_keys
from .model import (
    Cluster,
    ClusterAnalysis,
    ComparisonTable,
    Keynote,
    PaperRecord,
    QaItem,
    RelationEdge,
    TableRow,
)
from .runlog import RunLog


@dataclass
class AnalysisConfig:
    design_batch_size: int = 20
    verify_max_rounds: int = 3
    questions_per_cluster: int = 1


@dataclass
class ClusterProposal:
    clusters: list[dict] = field(default_factory=list)  # {"name", "summary"}

    def names(self) -> list[str]:
        return [c["name"] for c in self.clusters]

    def is_empty(self) -> bool:
        return not self.clusters


@dataclass
class AssignmentVerdict:
    missing: set[str] = field(default_factory=set)
    hallucinated: set[str] = field(default_factory=set)


def _keynote_digest(keynote: Keynote) -> str:
    return keynote.tldr[:500]


def _parse_proposal(reply: str) -> ClusterProposal:
    payload = extract_json_payload(reply)
    if not isinstance(payload, list) or not payload:
        raise ValueError("cluster proposal must be a non-empty JSON list")
    clusters = []
    for item in payload:
        if not isinstance(item, dict):
            raise ValueError("cluster entries must be objects")
        name = str(item.get("cluster_name") or item.get("name") or "").strip()
        summary = str(item.get("summary", "")).strip()
        if not name:
            raise ValueError("cluster entry without a name")
        if not summary:
            raise ValueError(f"cluster '{name}' has an empty summary")
        clusters.append({"name": name, "summary": summary})
    names = [c["name"] for c in clusters]
    if len(names) != len(set(names)):
        raise ValueError("duplicate cluster names in proposal")
    return ClusterProposal(clusters)


def design_clusters(
    keynotes: Feed,
    papers: int,
    gateway: Gateway,
    feed: Feed,
    cfg: Optional[AnalysisConfig] = None,
    workers: int = 1,
) -> ClusterProposal:
    """Merge keynote batches into one cluster proposal.

    ``keynotes`` is understanding's feed: the keynote of each of the
    ``papers`` evidence papers under its place in paper-id order, None for
    a skipped paper. Batch j holds the keynotes at places [jS, (j + 1)S)
    for S = ``design_batch_size``, and is one call, sent once its keynotes
    are in and those of the calls it merges have returned (see
    :func:`merge_tree`, which ``feed``, analysis' own feed, stops once it is
    aborted). The call lists every distinct cluster those earlier calls
    proposed as the existing clusters, none for a leaf, and the agent may
    merge, split or add clusters; a batch with no keynote and nothing to
    merge proposes nothing and sends nothing. A call retries with the error
    memory of its own rejected replies only.
    """
    cfg = cfg or AnalysisConfig()

    def design(batch: list[Optional[Keynote]], merged: list[ClusterProposal]) -> ClusterProposal:
        listing = "\n".join(
            f"- {k.paper_id.canonical}: {_keynote_digest(k)}" for k in batch if k is not None
        )
        existing = "\n".join(
            dict.fromkeys(f"- {c['name']}: {c['summary']}" for p in merged for c in p.clusters)
        )
        if not listing and not existing:
            return ClusterProposal()
        prompt = (
            "Curate thematic clusters for a literature survey.\n"
            + f"Existing clusters:\n{existing or '(none yet)'}\n\n"
            + f"New batch of paper keynotes:\n{listing}\n\n"
            + "Update the cluster list (merge, split or add as needed; create "
            + "from scratch when none exist) so every new paper fits at least "
            + "one theme. A paper may sit in several clusters. Reply strictly "
            + 'as a JSON list: [{"cluster_name": "...", "summary": "..."}]. '
            + "Do not mention specific papers."
        )
        return request_validated(gateway, prompt, _parse_proposal, tag="analysis.design")

    return merge_tree(design, keynotes, papers, cfg.design_batch_size, workers, feed)


def _parse_assignment(reply: str, valid_names: list[str]) -> dict[str, list[str]]:
    payload = extract_json_payload(reply)
    if not isinstance(payload, list):
        raise ValueError("assignment must be a JSON list")
    out: dict[str, list[str]] = {}
    for item in payload:
        if not isinstance(item, dict) or "paper_id" not in item:
            raise ValueError("assignment entries need a paper_id")
        names = item.get("clusters")
        if not isinstance(names, list) or not names:
            raise ValueError(f"paper {item['paper_id']} assigned to no cluster")
        unknown = [n for n in names if n not in valid_names]
        if unknown:
            raise ValueError(f"unknown cluster names {unknown}")
        out[str(item["paper_id"])] = [str(n) for n in names]
    return out


def assign_papers(
    proposal: ClusterProposal,
    keynotes: dict[str, Keynote],
    gateway: Gateway,
    runlog: Optional[RunLog] = None,
    prompt_note: str = "",
) -> list[Cluster]:
    """Partition papers over the proposed clusters (multi-membership is
    fine). Defects never raise: omitted papers stay unassigned (see
    :func:`compute_verdict`) and fabricated ids are dropped, each logged as
    an attribution event."""
    runlog = runlog or RunLog()
    if proposal.is_empty():
        raise InvalidInputError("cannot assign papers without a cluster proposal")
    names = proposal.names()
    listing = "\n".join(
        f"- {k}: {_keynote_digest(keynotes[k])}" for k in sorted(keynotes)
    )
    themes = "\n".join(f"- {c['name']}: {c['summary']}" for c in proposal.clusters)

    prompt = (
        f"Assign every paper to one or more clusters. {prompt_note}\n"
        + f"Clusters:\n{themes}\n\nPapers:\n{listing}\n\n"
        + 'Reply strictly as JSON: [{"paper_id": "...", "clusters": ["name"]}]'
    )
    raw = request_validated(
        gateway,
        prompt,
        lambda reply: _parse_assignment(reply, names),
        tag="analysis.assign",
    )

    clusters = [
        Cluster(cluster_id=i + 1, name=c["name"], summary=c["summary"])
        for i, c in enumerate(proposal.clusters)
    ]
    by_name = {c.name: c for c in clusters}
    for paper_key, cluster_names in raw.items():
        if paper_key not in keynotes:
            runlog.attribution_event("analysis.assign", "assignment", paper_key)
            continue
        for name in cluster_names:
            by_name[name].members.add(keynotes[paper_key].paper_id)
    return clusters


def compute_verdict(clusters: list[Cluster], keynotes: dict[str, Keynote]) -> AssignmentVerdict:
    known = set(keynotes)
    members = {p for c in clusters for p in c.member_keys()}
    return AssignmentVerdict(missing=known - members, hallucinated=members - known)


def verify_and_repair(
    clusters: list[Cluster],
    keynotes: dict[str, Keynote],
    gateway: Gateway,
    cfg: Optional[AnalysisConfig] = None,
    runlog: Optional[RunLog] = None,
) -> list[Cluster]:
    """Correct missing and hallucinated assignments.

    Hallucinated ids are removed outright; missing papers are re-offered to
    the partitioning agent each round. Papers still missing after
    ``cfg.verify_max_rounds`` rounds attach to the cluster whose summary is
    nearest to their keynote by embedding cosine (ties to the lower cluster
    id), logged.
    """
    cfg = cfg or AnalysisConfig()
    if cfg.verify_max_rounds < 1:
        raise InvalidInputError("verification needs at least one round")
    runlog = runlog or RunLog()

    for round_no in range(1, cfg.verify_max_rounds + 1):
        verdict = compute_verdict(clusters, keynotes)
        for ghost in sorted(verdict.hallucinated):
            for cluster in clusters:
                cluster.members = {p for p in cluster.members if p.canonical != ghost}
            runlog.attribution_event("analysis.verify", "cluster membership", ghost)
        if not verdict.missing:
            return clusters
        proposal = ClusterProposal(
            [{"name": c.name, "summary": c.summary} for c in clusters]
        )
        subset = {k: keynotes[k] for k in sorted(verdict.missing)}
        runlog.add("repair_round", round=round_no, missing=sorted(verdict.missing))
        try:
            repaired = assign_papers(
                proposal, subset, gateway, runlog,
                prompt_note=f"(repair round {round_no})",
            )
        except MalformedOutputError:
            continue
        by_name = {c.name: c for c in clusters}
        for rc in repaired:
            by_name[rc.name].members |= rc.members

    verdict = compute_verdict(clusters, keynotes)
    if verdict.missing:
        leftover = sorted(verdict.missing)
        matches = nearest(
            gateway, [c.summary for c in clusters], [keynotes[k].tldr for k in leftover]
        )
        for paper_key, (best, similarity) in zip(leftover, matches):
            clusters[best].members.add(keynotes[paper_key].paper_id)
            runlog.add(
                "fallback_attachment",
                paper=paper_key,
                cluster=clusters[best].cluster_id,
                similarity=similarity,
            )
    return clusters


def _member_records(
    cluster: Cluster, papers: dict[str, PaperRecord]
) -> list[PaperRecord]:
    return [papers[k] for k in sorted(cluster.member_keys())]


def build_relation_graph(
    cluster: Cluster,
    keynotes: dict[str, Keynote],
    papers: dict[str, PaperRecord],
    gateway: Gateway,
    runlog: Optional[RunLog] = None,
) -> list[RelationEdge]:
    """Typed lineage edges between cluster members; edges naming
    non-members are dropped with a monitor event."""
    if not cluster.members:
        raise InvalidInputError("cluster has no members")
    runlog = runlog or RunLog()
    if len(cluster.members) < 2:
        return []
    member_keys = cluster.member_keys()
    listing = "\n".join(
        f"- {k}: {_keynote_digest(keynotes[k])}" for k in sorted(member_keys) if k in keynotes
    )

    prompt = (
        f"Map the technical lineage inside cluster '{cluster.name}'.\n"
        + f"Members:\n{listing}\n\n"
        + "Emit directed edges typed as foundation, extension or substitution "
        + "(other labels allowed) with a one-line description each. Reply "
        + 'strictly as JSON: [{"from": id, "to": id, "relation": "...", "description": "..."}]'
    )

    def parse(reply: str) -> list[dict]:
        payload = extract_json_payload(reply)
        if not isinstance(payload, list):
            raise ValueError("relation graph must be a JSON list")
        for item in payload:
            if not isinstance(item, dict) or "from" not in item or "to" not in item:
                raise ValueError("edges need from/to fields")
        return payload

    raw = request_validated(gateway, prompt, parse, tag="analysis.graph")
    edges: list[RelationEdge] = []
    for item in raw:
        src, dst = str(item["from"]), str(item["to"])
        if src not in member_keys or dst not in member_keys:
            outside = src if src not in member_keys else dst
            runlog.attribution_event(
                "analysis.graph", f"cluster {cluster.cluster_id} edge", outside
            )
            continue
        if src == dst:
            continue
        edges.append(
            RelationEdge(
                src=papers[src].id,
                dst=papers[dst].id,
                kind=str(item.get("relation", "other")),
                description=str(item.get("description", "")),
            )
        )
    return edges


def build_comparison_table(
    cluster: Cluster,
    keynotes: dict[str, Keynote],
    papers: dict[str, PaperRecord],
    gateway: Gateway,
    runlog: Optional[RunLog] = None,
) -> ComparisonTable:
    """Structured cross-paper comparison: one row per member, a model-chosen
    schema of at least three dimensions; rows for non-members are dropped."""
    if len(cluster.members) < 2:
        raise InvalidInputError("comparison tables need at least two members")
    runlog = runlog or RunLog()
    member_keys = cluster.member_keys()
    listing = "\n".join(
        f"- {k}: {_keynote_digest(keynotes[k])}" for k in sorted(member_keys) if k in keynotes
    )

    prompt = (
        f"Compare the papers of cluster '{cluster.name}' along the key "
        + "dimensions you judge most informative (at least three columns).\n"
        + f"Members:\n{listing}\n\n"
        + 'Reply strictly as JSON: {"columns": [...], '
        + '"rows": [{"paper_id": "...", "cells": {"column": "text"}}]}'
    )

    def parse(reply: str) -> dict:
        payload = extract_json_payload(reply)
        if not isinstance(payload, dict) or "columns" not in payload or "rows" not in payload:
            raise ValueError("table needs columns and rows")
        if len(payload["columns"]) < 3:
            raise ValueError("table schema needs at least three dimensions")
        return payload

    raw = request_validated(gateway, prompt, parse, tag="analysis.table")
    table = ComparisonTable(columns=[str(c) for c in raw["columns"]])
    for row in raw["rows"]:
        key = str(row.get("paper_id", ""))
        if key not in member_keys:
            runlog.attribution_event(
                "analysis.table", f"cluster {cluster.cluster_id} row", key
            )
            continue
        table.rows.append(
            TableRow(paper=papers[key].id, cells={str(k): str(v) for k, v in row.get("cells", {}).items()})
        )
    return table


def guided_qa(
    cluster: Cluster,
    keynotes: dict[str, Keynote],
    papers: dict[str, PaperRecord],
    gateway: Gateway,
    n_questions: int = 1,
    runlog: Optional[RunLog] = None,
) -> list[QaItem]:
    """Cross-paper questions answered strictly from member papers.

    An answer citing a non-member is regenerated once with error memory and
    dropped (with a monitor event) if it still violates attribution.
    """
    if n_questions < 1:
        raise InvalidInputError("need at least one question")
    runlog = runlog or RunLog()
    member_keys = cluster.member_keys()
    member_records = _member_records(cluster, papers)
    listing = "\n".join(
        f"- {k} | {papers[k].title}: {_keynote_digest(keynotes[k])}"
        for k in sorted(member_keys)
        if k in keynotes
    )

    prompt = (
        f"Pose {n_questions} high-value question(s) that cut across at least "
        + f"two papers of cluster '{cluster.name}' and answer them from the "
        + "member papers only, citing with <paper title> or <paper id> marks.\n"
        + f"Members:\n{listing}\n\n"
        + 'Reply strictly as JSON: [{"question": "...", "related": [paper ids], "answer": "..."}]'
    )

    def parse(reply: str) -> list[QaItem]:
        payload = extract_json_payload(reply)
        if not isinstance(payload, list) or len(payload) != n_questions:
            raise ValueError(f"expected exactly {n_questions} QA item(s)")
        items: list[QaItem] = []
        for entry in payload:
            related = [str(r) for r in entry.get("related", [])]
            if len(related) < 2:
                raise ValueError("each question must relate at least two papers")
            unknown_related = [r for r in related if r not in member_keys]
            if unknown_related:
                raise ValueError(f"related papers outside the cluster: {unknown_related}")
            answer = str(entry.get("answer", ""))
            unknown = unresolved_keys(answer, member_records)
            if unknown:
                raise ValueError(f"answer cites non-member '{unknown[0]}'")
            items.append(
                QaItem(
                    question=str(entry.get("question", "")),
                    related=[papers[r].id for r in related],
                    answer=answer,
                )
            )
        return items

    try:
        return request_validated(gateway, prompt, parse, tag="analysis.qa", max_retries=1)
    except MalformedOutputError as exc:
        runlog.attribution_event(
            "analysis.qa", f"cluster {cluster.cluster_id} answer", str(exc)
        )
        return []


def inter_cluster_analysis(
    clusters: list[Cluster],
    analyses: list[ClusterAnalysis],
    papers: dict[str, PaperRecord],
    gateway: Gateway,
    runlog: Optional[RunLog] = None,
) -> str:
    """Synthesis of cross-cluster differences, citing only substrate papers.

    Marks still unresolvable on the third attempt are stripped with a
    monitor event rather than failing the stage.
    """
    if len(clusters) < 2:
        raise InvalidInputError("inter-cluster analysis needs at least two clusters")
    runlog = runlog or RunLog()
    records = [papers[k] for k in sorted(papers)]
    overview = "\n".join(f"- {c.name}: {c.summary} ({len(c.members)} papers)" for c in clusters)

    prompt = (
        "Contrast the clusters below: shared assumptions, diverging methods, "
        + "open tensions. Cite evidence with <paper title> or <paper id> marks, "
        + "using only papers from this collection.\n"
        + f"Clusters:\n{overview}"
    )

    def parse(reply: str) -> str:
        if not reply.strip():
            raise ValueError("empty synthesis")
        unknown = unresolved_keys(reply, records)
        if unknown:
            raise ValueError(f"synthesis cites unknown paper '{unknown[0]}'")
        return reply

    def strip_unknown(reply: str) -> str:
        unknown = unresolved_keys(reply, records)
        for key in unknown:
            runlog.attribution_event("analysis.inter_cluster", "synthesis", key)
        return drop_marks(reply, unknown)

    return request_validated(
        gateway,
        prompt,
        parse,
        last_parse=strip_unknown,
        tag="analysis.inter_cluster",
        max_retries=2,
    )


def analyze_cluster(
    cluster: Cluster,
    keynotes: dict[str, Keynote],
    papers: dict[str, PaperRecord],
    gateway: Gateway,
    qa_items: list[QaItem],
    runlog: Optional[RunLog] = None,
) -> ClusterAnalysis:
    """All three per-cluster views: the relation graph and the comparison
    table, built here, and ``qa_items``, the cluster's guided Q&A, which
    the pipeline asks for every cluster first (writing reads only those)."""
    runlog = runlog or RunLog()
    edges = build_relation_graph(cluster, keynotes, papers, gateway, runlog)
    table = (
        build_comparison_table(cluster, keynotes, papers, gateway, runlog)
        if len(cluster.members) >= 2
        else None
    )
    return ClusterAnalysis(
        cluster_id=cluster.cluster_id,
        relation_graph=edges,
        comparison_table=table,
        qa_items=qa_items,
    )
