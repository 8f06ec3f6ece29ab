"""Domain types shared by every stage, plus the unified paper identifier.

All types are value objects: once constructed they are never mutated in
place by the pipeline (lists/dicts are replaced, not edited), which is what
makes the many-readers/single-writer substrate contract safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable, Optional

from .errors import IntegrityError, InvalidInputError


class IdSource(str, Enum):
    PREPRINT = "preprint-archive"
    GRAPH = "academic-graph"


#: value -> member, so that decoding an id is a dict lookup, not an Enum call
_ID_SOURCES = {source.value: source for source in IdSource}


@dataclass(frozen=True)
class PaperId:
    canonical: str
    source: IdSource = IdSource.GRAPH

    def __post_init__(self):
        if not self.canonical:
            raise InvalidInputError("PaperId.canonical must be non-empty")
        if not isinstance(self.source, IdSource):
            object.__setattr__(self, "source", IdSource(self.source))

    def to_dict(self) -> dict:
        return {"canonical": self.canonical, "source": self.source.value}

    @classmethod
    def from_dict(cls, d: dict) -> "PaperId":
        try:
            source = _ID_SOURCES[d["source"]]
        except (KeyError, TypeError):
            raise ValueError(f"{d['source']!r} is not a valid IdSource") from None
        return cls(canonical=d["canonical"], source=source)


def normalize_title(title: str) -> str:
    """A title as citation marks match it: whitespace collapsed, case folded."""
    return " ".join(title.split()).casefold()


def _known(ids: dict[str, PaperId], canonical: str) -> PaperId:
    """The known paper's id; an unknown one decodes bare, and
    ``KnowledgeSubstrate.validate`` reports it."""
    return ids.get(canonical) or PaperId(canonical)


def unify_paper_id(preprint_id: Optional[str], graph_id: Optional[str]) -> PaperId:
    """Pick the canonical id: the preprint-archive id wins when present.

    The same paper retrieved from different sources must map to one id so
    that caches and dedup work across the whole pipeline.
    """
    if preprint_id:
        return PaperId(preprint_id, IdSource.PREPRINT)
    if graph_id:
        return PaperId(graph_id, IdSource.GRAPH)
    raise InvalidInputError("unify_paper_id needs at least one identifier")


#: Pipeline stages in run order; each one owns its part of the substrate.
STAGES = ("retrieval", "understanding", "analysis", "code_analysis", "writing", "refinement")


def _dedup_ids(ids: Iterable[PaperId], own: PaperId) -> list[PaperId]:
    seen: set[str] = {own.canonical}
    out: list[PaperId] = []
    for pid in ids:
        if pid.canonical not in seen:
            seen.add(pid.canonical)
            out.append(pid)
    return out


@dataclass
class PaperRecord:
    id: PaperId
    title: str
    abstract: str = ""
    tldr: str = ""
    full_text_ref: Optional[str] = None
    in_citations: list[PaperId] = field(default_factory=list)
    out_citations: list[PaperId] = field(default_factory=list)
    repo_urls: list[str] = field(default_factory=list)
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        # Citation links never duplicate and never point at the paper itself.
        self.in_citations = _dedup_ids(self.in_citations, self.id)
        self.out_citations = _dedup_ids(self.out_citations, self.id)

    @cached_property
    def title_key(self) -> str:
        """``normalize_title(title)``, computed once per record."""
        return normalize_title(self.title)

    @property
    def citation_count(self) -> int:
        """The academic graph's count of citing papers when the record came
        with one, else the citing papers the record links."""
        count = self.metadata.get("citation_count", "")
        return int(count) if count.isdecimal() else len(self.in_citations)

    def search_text(self) -> str:
        return f"{self.title}\n{self.abstract}".strip()

    def to_dict(self) -> dict:
        return {
            "id": self.id.to_dict(),
            "title": self.title,
            "abstract": self.abstract,
            "tldr": self.tldr,
            "full_text_ref": self.full_text_ref,
            "in_citations": [p.to_dict() for p in self.in_citations],
            "out_citations": [p.to_dict() for p in self.out_citations],
            "repo_urls": list(self.repo_urls),
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PaperRecord":
        return cls(
            id=PaperId.from_dict(d["id"]),
            title=d["title"],
            abstract=d.get("abstract", ""),
            tldr=d.get("tldr", ""),
            full_text_ref=d.get("full_text_ref"),
            in_citations=[PaperId.from_dict(x) for x in d.get("in_citations", [])],
            out_citations=[PaperId.from_dict(x) for x in d.get("out_citations", [])],
            repo_urls=list(d.get("repo_urls", [])),
            metadata=dict(d.get("metadata", {})),
        )


class Provenance(str, Enum):
    FULL_TEXT = "full_text"
    ABSTRACT_FALLBACK = "abstract_fallback"
    TLDR_FALLBACK = "tldr_fallback"


#: Sections every keynote must carry; further keys are welcome (the digest
#: is open-keyed so domains can surface whatever matters to them).
MANDATORY_KEYNOTE_SECTIONS = (
    "contributions",
    "methodology",
    "experiments",
    "limitations",
    "critical_reflections",
    "tldr",
)


@dataclass
class Keynote:
    paper_id: PaperId
    sections: dict[str, str]
    provenance: Provenance = Provenance.FULL_TEXT

    def __post_init__(self):
        if not isinstance(self.provenance, Provenance):
            self.provenance = Provenance(self.provenance)
        for name in MANDATORY_KEYNOTE_SECTIONS:
            self.sections.setdefault(name, "")
        if not self.sections.get("tldr"):
            raise InvalidInputError(
                f"keynote for {self.paper_id.canonical} has an empty tldr"
            )

    @property
    def tldr(self) -> str:
        return self.sections["tldr"]

    def to_dict(self) -> dict:
        return {
            "paper_id": self.paper_id.to_dict(),
            "sections": dict(self.sections),
            "provenance": self.provenance.value,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Keynote":
        return cls(
            paper_id=PaperId.from_dict(d["paper_id"]),
            sections=dict(d["sections"]),
            provenance=Provenance(d["provenance"]),
        )


@dataclass
class Cluster:
    cluster_id: int
    name: str
    summary: str
    members: set[PaperId] = field(default_factory=set)

    def member_keys(self) -> set[str]:
        return {p.canonical for p in self.members}

    def to_dict(self) -> dict:
        return {
            "cluster_id": self.cluster_id,
            "name": self.name,
            "summary": self.summary,
            "members": sorted(p.canonical for p in self.members),
        }

    @classmethod
    def from_dict(cls, d: dict, ids: dict[str, PaperId]) -> "Cluster":
        return cls(
            cluster_id=d["cluster_id"],
            name=d["name"],
            summary=d["summary"],
            members={_known(ids, m) for m in d["members"]},
        )


RELATION_KINDS = ("foundation", "extension", "substitution", "other")


@dataclass
class RelationEdge:
    src: PaperId
    dst: PaperId
    kind: str
    description: str = ""
    label: str = ""  # free-form relation name when kind == "other"

    def __post_init__(self):
        if self.src.canonical == self.dst.canonical:
            raise InvalidInputError("relation edge endpoints must differ")
        if self.kind not in RELATION_KINDS:
            self.label = self.kind
            self.kind = "other"

    def to_dict(self) -> dict:
        return {
            "from": self.src.canonical,
            "to": self.dst.canonical,
            "kind": self.kind,
            "label": self.label,
            "description": self.description,
        }


@dataclass
class TableRow:
    paper: PaperId
    cells: dict[str, str]


@dataclass
class ComparisonTable:
    columns: list[str]
    rows: list[TableRow] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "columns": list(self.columns),
            "rows": [
                {"paper_id": r.paper.canonical, "cells": dict(r.cells)}
                for r in self.rows
            ],
        }

    def to_delimited(self, papers: dict[str, "PaperRecord"]) -> str:
        """Tab-separated export for human inspection (one line per member paper)."""
        header = "\t".join(["paper", *self.columns])
        lines = [header]
        for row in self.rows:
            title = papers[row.paper.canonical].title if row.paper.canonical in papers else row.paper.canonical
            lines.append("\t".join([title, *(row.cells.get(c, "") for c in self.columns)]))
        return "\n".join(lines) + "\n"


@dataclass
class QaItem:
    question: str
    related: list[PaperId]
    answer: str

    def to_dict(self) -> dict:
        return {
            "question": self.question,
            "related": [p.canonical for p in self.related],
            "answer": self.answer,
        }


@dataclass
class ClusterAnalysis:
    cluster_id: int
    relation_graph: list[RelationEdge] = field(default_factory=list)
    comparison_table: Optional[ComparisonTable] = None
    qa_items: list[QaItem] = field(default_factory=list)

    def referenced_ids(self) -> set[str]:
        out: set[str] = set()
        for e in self.relation_graph:
            out.add(e.src.canonical)
            out.add(e.dst.canonical)
        if self.comparison_table:
            out.update(r.paper.canonical for r in self.comparison_table.rows)
        for item in self.qa_items:
            out.update(p.canonical for p in item.related)
        return out

    def to_dict(self) -> dict:
        return {
            "cluster_id": self.cluster_id,
            "relation_graph": [e.to_dict() for e in self.relation_graph],
            "comparison_table": self.comparison_table.to_dict()
            if self.comparison_table
            else None,
            "qa_items": [q.to_dict() for q in self.qa_items],
        }

    @classmethod
    def from_dict(cls, d: dict, ids: dict[str, PaperId]) -> "ClusterAnalysis":
        table = d["comparison_table"]
        return cls(
            cluster_id=d["cluster_id"],
            relation_graph=[
                RelationEdge(
                    src=_known(ids, e["from"]),
                    dst=_known(ids, e["to"]),
                    kind=e["kind"],
                    description=e["description"],
                    label=e["label"],
                )
                for e in d["relation_graph"]
            ],
            comparison_table=ComparisonTable(
                columns=list(table["columns"]),
                rows=[
                    TableRow(paper=_known(ids, r["paper_id"]), cells=dict(r["cells"]))
                    for r in table["rows"]
                ],
            )
            if table
            else None,
            qa_items=[
                QaItem(
                    question=q["question"],
                    related=[_known(ids, c) for c in q["related"]],
                    answer=q["answer"],
                )
                for q in d["qa_items"]
            ],
        )


MAX_OUTLINE_DEPTH = 2  # section -> subsection; deeper nesting is rejected


@dataclass
class OutlineNode:
    title: str
    description: str
    children: list["OutlineNode"] = field(default_factory=list)
    assigned: set[PaperId] = field(default_factory=set)

    def validate(self, _depth: int = 0) -> None:
        if not self.title:
            raise InvalidInputError("outline node without a title")
        if not self.description:
            raise InvalidInputError(f"outline node '{self.title}' has no description")
        if _depth > MAX_OUTLINE_DEPTH:
            raise InvalidInputError(
                f"outline node '{self.title}' exceeds the section/subsection depth cap"
            )
        titles = [c.title for c in self.children]
        if len(titles) != len(set(titles)):
            raise InvalidInputError(f"duplicate sibling titles under '{self.title}'")
        for child in self.children:
            child.validate(_depth + 1)

    def walk(self, _path: tuple[str, ...] = ()) -> Iterable[tuple[tuple[str, ...], "OutlineNode"]]:
        """Yield (path, node) for every node below the root, depth-first."""
        for child in self.children:
            path = _path + (child.title,)
            yield path, child
            yield from child.walk(path)

    def find(self, path: tuple[str, ...]) -> Optional["OutlineNode"]:
        node = self
        for title in path:
            node = next((c for c in node.children if c.title == title), None)
            if node is None:
                return None
        return node

    def assigned_union(self) -> set[PaperId]:
        out = set(self.assigned)
        for child in self.children:
            out |= child.assigned_union()
        return out

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "description": self.description,
            "assigned": sorted(p.canonical for p in self.assigned),
            "children": [c.to_dict() for c in self.children],
        }

    @classmethod
    def from_dict(cls, d: dict, ids: dict[str, PaperId]) -> "OutlineNode":
        return cls(
            title=d["title"],
            description=d["description"],
            children=[cls.from_dict(c, ids) for c in d["children"]],
            assigned={_known(ids, c) for c in d["assigned"]},
        )


class CitationStyle(str, Enum):
    TITLE = "title_mark"
    ID = "id_mark"


@dataclass(frozen=True)
class CitationMark:
    style: CitationStyle
    key: str  # surface form as it appears between the angle brackets
    paper: PaperId  # resolved target

    def to_dict(self) -> dict:
        return {"style": self.style.value, "key": self.key, "paper": self.paper.canonical}


class Granularity(str, Enum):
    SUBSECTION = "subsection"
    SECTION = "section"
    SURVEY = "survey"


@dataclass
class DraftUnit:
    node_path: tuple[str, ...]
    text: str
    citations: list[CitationMark]
    granularity: Granularity = Granularity.SUBSECTION

    def __post_init__(self):
        self.node_path = tuple(self.node_path)
        if not isinstance(self.granularity, Granularity):
            self.granularity = Granularity(self.granularity)

    def cited_ids(self) -> set[str]:
        return {m.paper.canonical for m in self.citations}

    def to_dict(self) -> dict:
        return {
            "node_path": list(self.node_path),
            "text": self.text,
            "citations": [m.to_dict() for m in self.citations],
            "granularity": self.granularity.value,
        }

    @classmethod
    def from_dict(cls, d: dict, ids: dict[str, PaperId]) -> "DraftUnit":
        return cls(
            node_path=tuple(d["node_path"]),
            text=d["text"],
            citations=[
                CitationMark(
                    style=CitationStyle(m["style"]),
                    key=m["key"],
                    paper=_known(ids, m["paper"]),
                )
                for m in d["citations"]
            ],
            granularity=Granularity(d["granularity"]),
        )


ERROR_MEMORY_CAPACITY = 10


@dataclass(frozen=True)
class ErrorMemory:
    """Bounded, deduplicated list of recent failure messages.

    Injected into retry prompts so the model can adapt to prior failures.
    Capped at 10 entries, oldest evicted first.
    """

    entries: tuple[str, ...] = ()

    def record(self, msg: str) -> "ErrorMemory":
        if msg in self.entries:
            return self
        entries = self.entries + (msg,)
        if len(entries) > ERROR_MEMORY_CAPACITY:
            entries = entries[-ERROR_MEMORY_CAPACITY:]
        return ErrorMemory(entries)

    def render(self) -> str:
        """Prompt preamble listing past failures; empty string when empty."""
        if not self.entries:
            return ""
        lines = "\n".join(f"- {e}" for e in self.entries)
        return f"Avoid repeating these earlier failures:\n{lines}\n\n"

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class KnowledgeSubstrate:
    """The three-level store: paper / cluster / survey artifacts, linked by id.

    Referential integrity (every referenced paper id exists in ``papers``)
    is checked with :meth:`validate`, both before persisting and after
    loading, so the same dangling reference fails identically on both paths.
    """

    papers: dict[str, PaperRecord] = field(default_factory=dict)
    keynotes: dict[str, Keynote] = field(default_factory=dict)
    clusters: list[Cluster] = field(default_factory=list)
    analyses: list[ClusterAnalysis] = field(default_factory=list)
    inter_cluster: str = ""
    #: each repository's pseudocode, by canonical paper id
    code_reports: dict[str, str] = field(default_factory=dict)
    code_overview: str = ""
    environment_overview: str = ""
    outline: Optional[OutlineNode] = None
    drafts: list[DraftUnit] = field(default_factory=list)
    #: seconds of each committed stage, in run order. Run metadata, not
    #: content: left out of equality, so a substrate equals its saved and
    #: loaded copy whatever the stages took.
    stage_seconds: dict[str, float] = field(default_factory=dict, compare=False)

    def paper_ids(self) -> set[str]:
        return set(self.papers)

    def validate(self) -> None:
        known = self.paper_ids()

        def check(ids: Iterable[str], where: str) -> None:
            for cid in ids:
                if cid not in known:
                    raise IntegrityError(f"{where} references unknown paper '{cid}'")

        check(self.keynotes, "keynotes")
        for keynote in self.keynotes.values():
            check([keynote.paper_id.canonical], "keynote body")
        for cluster in self.clusters:
            check(cluster.member_keys(), f"cluster {cluster.cluster_id}")
        for analysis in self.analyses:
            check(analysis.referenced_ids(), f"analysis {analysis.cluster_id}")
        check(self.code_reports, "code reports")
        if self.outline is not None:
            self.outline.validate()
            check(
                (p.canonical for p in self.outline.assigned_union()),
                "outline assignment",
            )
        for draft in self.drafts:
            check(draft.cited_ids(), f"draft {' > '.join(draft.node_path)}")
