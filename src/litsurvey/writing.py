"""Stage 4: outline drafting, explicit citation assignment, bottom-up
drafting under localized evidence constraints, and survey assembly.

Each writing unit sees only its assigned papers; every generated unit is
verified (citation resolution, floors, no heading anchors) and regenerated
with error memory when it violates the contract. Assembly rewrites marks to
numeric references and builds the bibliography in first-appearance order.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .errors import AssemblyError, DraftingError, InvalidInputError
from .fanout import Feed, map_bounded, merge_tree
from .gateway import Gateway, extract_json_payload, nearest, request_validated
from .marks import (
    CitationVerdict,
    rewrite_to_numeric,
    verify_citations,
)
from .model import (
    CitationStyle,
    Cluster,
    ClusterAnalysis,
    DraftUnit,
    Granularity,
    Keynote,
    OutlineNode,
    PaperId,
    PaperRecord,
)
from .runlog import RunLog


@dataclass
class WritingConfig:
    outline_temperature: float = 0.5
    subsection_temperature: float = 0.7
    section_temperature: float = 0.3
    subsection_least_citations: int = 3
    subsection_least_words: int = 250
    section_least_citations: int = 3
    section_least_words: int = 150
    citation_style: CitationStyle = CitationStyle.TITLE
    max_citation_retries: int = 3
    outline_batch_size: int = 20

    def __post_init__(self):
        if not isinstance(self.citation_style, CitationStyle):
            self.citation_style = CitationStyle(self.citation_style)
        for name in (
            "subsection_least_citations",
            "subsection_least_words",
            "section_least_citations",
            "section_least_words",
        ):
            if getattr(self, name) <= 0:
                raise InvalidInputError(f"{name} must be positive")


@dataclass
class WritingContext:
    """What writing reads. Of the analyses it reads only the Q&A questions,
    so ``analyses`` may hold the Q&A alone (see ``pipeline``)."""

    papers: dict[str, PaperRecord]
    keynotes: dict[str, Keynote]
    clusters: list[Cluster]
    analyses: list[ClusterAnalysis]
    cfg: WritingConfig
    gateway: Gateway
    runlog: RunLog = field(default_factory=RunLog)
    extra_context: str = ""  # e.g. code/environment overviews when enabled

    @cached_property
    def analyses_digest(self) -> str:
        """The cluster landscape every outline step and subsection prompt
        carries: each cluster's name and summary, then each Q&A question,
        cut to 4000 characters. Built once."""
        parts = [f"- {cluster.name}: {cluster.summary}" for cluster in self.clusters]
        for analysis in self.analyses:
            for item in analysis.qa_items:
                parts.append(f"  Q: {item.question[:200]}")
        return "\n".join(parts)[:4000]

    def keynote_lines(self, ids: Optional[set[str]] = None) -> str:
        keys = sorted(ids) if ids is not None else sorted(self.keynotes)
        lines = []
        for key in keys:
            keynote = self.keynotes.get(key)
            if keynote is None:
                continue
            title = self.papers[key].title if key in self.papers else key
            lines.append(f"- {key} | {title}: {keynote.tldr[:400]}")
        return "\n".join(lines)


# -- outline ---------------------------------------------------------------


def _parse_outline(reply: str, topic: str) -> OutlineNode:
    payload = extract_json_payload(reply)
    if not isinstance(payload, dict) or "sections" not in payload:
        raise ValueError("outline must be a JSON object with a sections list")
    title = str(payload.get("title") or topic)
    sections = []
    for sec in payload["sections"]:
        if not isinstance(sec, dict) or not sec.get("title"):
            raise ValueError("every section needs a title")
        if not str(sec.get("description", "")).strip():
            raise ValueError(f"section '{sec.get('title')}' has no description")
        subsections = []
        for sub in sec.get("subsections", []) or []:
            if not sub.get("title"):
                raise ValueError("every subsection needs a title")
            if not str(sub.get("description", "")).strip():
                raise ValueError(f"subsection '{sub.get('title')}' has no description")
            if sub.get("subsections"):
                raise ValueError("outline deeper than section/subsection is rejected")
            subsections.append(
                OutlineNode(title=str(sub["title"]), description=str(sub["description"]))
            )
        sections.append(
            OutlineNode(
                title=str(sec["title"]),
                description=str(sec["description"]),
                children=subsections,
            )
        )
    root = OutlineNode(title=title, description=title, children=sections)
    root.validate()
    lowered = [s.title.lower() for s in sections]
    if not any("conclusion" in t for t in lowered):
        raise ValueError("outline lacks a conclusion section")
    future_titles = [t for _, node in root.walk() for t in [node.title.lower()]]
    if not any("future" in t for t in future_titles):
        raise ValueError("outline lacks a future-work section or subsection")
    return root


def draft_outline(ctx: WritingContext, topic: str, feed: Feed, workers: int = 1) -> OutlineNode:
    """Draft the outline from the cluster structure over keynote batches.

    The keynotes, in paper-id order, are cut into batches of
    ``outline_batch_size``, and each batch is one call, merged in a tree
    (see :func:`merge_tree`, which ``feed``, writing's own feed, stops once
    it is aborted): a call builds on every distinct outline of the earlier
    calls it merges, a leaf on none. Structural requirements (conclusion
    section, future-work node, per-node descriptions, depth cap) are
    enforced and echoed into error memory on retry; each call starts from
    its clean prompt, with no memory of another call's rejected replies."""
    cfg = ctx.cfg
    keys = Feed()
    for place, key in enumerate(sorted(ctx.keynotes)):
        keys.put(place, key)
    keys.close()

    def outline(batch: list[str], merged: list[OutlineNode]) -> OutlineNode:
        current_json = "\n".join(
            dict.fromkeys(json.dumps(o.to_dict(), ensure_ascii=False) for o in merged)
        )
        prompt = (
            f"Draft or update the outline of a survey on '{topic}'.\n"
            + "Requirements: multiple sections with described subsections, a "
            + "Conclusion section, a Future Work section or subsection, tight "
            + "topical scope, balanced structure, depth capped at "
            + "section/subsection. Build on the current outline when present.\n"
            + f"Current outline: {current_json or '(empty)'}\n\n"
            + "Reply strictly as JSON: {\"title\": str, \"sections\": "
            + "[{\"title\": str, \"description\": str, \"subsections\": "
            + "[{\"title\": str, \"description\": str}]}]}.\n"
        )
        context = (
            f"Cluster landscape:\n{ctx.analyses_digest}\n\n"
            + f"Paper keynotes:\n{ctx.keynote_lines(set(batch))}\n"
        )
        return request_validated(
            ctx.gateway,
            prompt,
            lambda reply: _parse_outline(reply, topic),
            tag="writing.outline",
            context=context,
            runlog=ctx.runlog,
            temperature=cfg.outline_temperature,
            max_retries=cfg.max_citation_retries,
        )

    return merge_tree(outline, keys, len(ctx.keynotes), cfg.outline_batch_size, workers, feed)


# -- citation assignment ---------------------------------------------------


def _parse_assignment_reply(
    reply: str, outline: OutlineNode, known: set[str], strict: bool
) -> dict:
    """Strict mode raises on exact-title mismatches (feeding error memory);
    lenient mode keeps the resolvable part and reports the rest."""
    payload = extract_json_payload(reply)
    if not isinstance(payload, list):
        raise ValueError("assignment must be a JSON list")
    section_titles = {s.title: s for s in outline.children}
    mapping: dict[tuple[str, ...], set[str]] = {}
    hallucinated: list[str] = []
    unmatched: list[str] = []
    for item in payload:
        if not isinstance(item, dict) or "paper_id" not in item or "assignment" not in item:
            raise ValueError("entries need paper_id and assignment fields")
        paper_key = str(item["paper_id"])
        if paper_key not in known:
            hallucinated.append(paper_key)
            continue
        assignment = item["assignment"]
        if not isinstance(assignment, dict) or not assignment:
            raise ValueError(f"paper {paper_key} has an empty assignment")
        for section_title, subsection_titles in assignment.items():
            section = section_titles.get(str(section_title))
            if section is None:
                if strict:
                    raise ValueError(
                        f"assignment names unknown section '{section_title}'; titles "
                        "must exactly match the outline"
                    )
                unmatched.append(str(section_title))
                continue
            subs = subsection_titles or []
            if not subs:
                mapping.setdefault((section.title,), set()).add(paper_key)
            for sub_title in subs:
                sub = next((c for c in section.children if c.title == str(sub_title)), None)
                if sub is None:
                    if strict:
                        raise ValueError(
                            f"assignment names unknown subsection '{sub_title}' under "
                            f"'{section.title}'; titles must exactly match the outline"
                        )
                    unmatched.append(str(sub_title))
                    continue
                mapping.setdefault((section.title, sub.title), set()).add(paper_key)
    return {"mapping": mapping, "hallucinated": hallucinated, "unmatched": unmatched}


def assign_citations(
    ctx: WritingContext, outline: OutlineNode
) -> dict[tuple[str, ...], set[PaperId]]:
    """Explicitly anchor every evidence paper to outline nodes.

    Node titles in the model's reply must exactly match the outline;
    mismatches retry with error memory. On the final attempt the resolvable
    part of the reply is kept and every paper still unplaced attaches to
    the leaf with the nearest description by embedding cosine (logged).
    Fabricated ids are dropped with a monitor event.
    """
    outline.validate()
    known = set(ctx.keynotes)
    outline_json = json.dumps(outline.to_dict(), ensure_ascii=False)

    prompt = (
        "Assign every paper below to one or more outline nodes for citation. "
        + "Section and subsection titles must EXACTLY match the outline.\n"
        + f"Outline: {outline_json}\n\n"
        + f"Papers:\n{ctx.keynote_lines()}\n\n"
        + 'Reply strictly as JSON: [{"paper_id": "...", "assignment": '
        + '{"Section title": ["Subsection title"]}}]'
    )
    parsed = request_validated(
        ctx.gateway,
        prompt,
        lambda reply: _parse_assignment_reply(reply, outline, known, strict=True),
        last_parse=lambda reply: _parse_assignment_reply(reply, outline, known, strict=False),
        tag="writing.assign",
        max_retries=ctx.cfg.max_citation_retries,
        on_retry=lambda attempt, problems: ctx.runlog.add(
            "assignment_retry", attempt=attempt + 1, error="; ".join(problems)
        ),
    )
    for ghost in parsed["hallucinated"]:
        ctx.runlog.attribution_event("writing.assign", "citation assignment", ghost)
    for title in parsed["unmatched"]:
        ctx.runlog.add("assignment_title_unmatched", title=title)

    mapping: dict[tuple[str, ...], set[PaperId]] = {
        path: {ctx.papers[k].id for k in keys}
        for path, keys in parsed["mapping"].items()
    }

    assigned_keys = {p.canonical for ids in mapping.values() for p in ids}
    residual = sorted(known - assigned_keys)
    if residual:
        leaves = [(path, node) for path, node in outline.walk() if not node.children]
        matches = nearest(
            ctx.gateway,
            [node.description for _, node in leaves],
            [ctx.keynotes[k].tldr for k in residual],
        )
        for paper_key, (best, similarity) in zip(residual, matches):
            path = leaves[best][0]
            mapping.setdefault(path, set()).add(ctx.papers[paper_key].id)
            ctx.runlog.add(
                "assignment_fallback",
                paper=paper_key,
                node=" > ".join(path),
                similarity=similarity,
            )
    return mapping


def apply_assignment(
    outline: OutlineNode, mapping: dict[tuple[str, ...], set[PaperId]]
) -> None:
    for path, ids in mapping.items():
        node = outline.find(path)
        if node is None:
            raise InvalidInputError(f"assignment names a missing node {path}")
        node.assigned = set(ids)


# -- drafting ---------------------------------------------------------------


def _assigned_records(ctx: WritingContext, ids: set[PaperId]) -> list[PaperRecord]:
    return [ctx.papers[p.canonical] for p in sorted(ids, key=lambda p: p.canonical)]


def _mark_hint(style: CitationStyle) -> str:
    if style is CitationStyle.TITLE:
        return "cite with the paper's exact title in angle brackets, e.g. <Some Paper Title>"
    return "cite with the paper's id in angle brackets, e.g. <2406.10252>"


def _check_unit(
    text: str,
    assigned: list[PaperRecord],
    style: CitationStyle,
    least_citations: int,
    least_words: int,
) -> tuple[list[str], CitationVerdict]:
    problems: list[str] = []
    if "#" in text:
        problems.append("output contains the reserved heading character '#'")
    verdict = verify_citations(text, assigned, style)
    for key in verdict.violations:
        problems.append(f"citation '{key}' is not in the assigned paper set")
    if len(verdict.distinct_papers()) < least_citations:
        problems.append(
            f"only {len(verdict.distinct_papers())} distinct assigned papers cited; "
            f"at least {least_citations} required"
        )
    if len(text.split()) < least_words:
        problems.append(
            f"only {len(text.split())} words; at least {least_words} required"
        )
    return problems, verdict


def _draft_with_verification(
    ctx: WritingContext,
    node_path: tuple[str, ...],
    prompt: str,
    assigned: list[PaperRecord],
    least_citations: int,
    least_words: int,
    temperature: float,
    granularity: Granularity,
    tag: str,
) -> DraftUnit:
    cfg = ctx.cfg

    def parse(text: str) -> DraftUnit:
        problems, verdict = _check_unit(
            text, assigned, cfg.citation_style, least_citations, least_words
        )
        if problems:
            raise ValueError(*problems)
        return DraftUnit(
            node_path=node_path,
            text=text,
            citations=verdict.marks,
            granularity=granularity,
        )

    return request_validated(
        ctx.gateway,
        prompt,
        parse,
        tag=tag,
        temperature=temperature,
        max_retries=cfg.max_citation_retries,
        error_factory=lambda reason: DraftingError(node_path, reason),
        on_retry=lambda attempt, problems: ctx.runlog.add(
            "draft_retry", node=" > ".join(node_path), attempt=attempt + 1, problems=problems
        ),
    )


def draft_subsection(
    ctx: WritingContext,
    section: OutlineNode,
    subsection: OutlineNode,
    outline: OutlineNode,
) -> DraftUnit:
    """Draft one leaf under its localized evidence constraint."""
    if subsection.children:
        raise InvalidInputError(f"'{subsection.title}' is not a leaf")
    if not subsection.assigned:
        raise InvalidInputError(f"'{subsection.title}' has no assigned papers")
    cfg = ctx.cfg
    assigned = _assigned_records(ctx, subsection.assigned)
    keynote_ctx = ctx.keynote_lines({r.id.canonical for r in assigned})
    extra = f"\nRepository findings:\n{ctx.extra_context}\n" if ctx.extra_context else ""

    prompt = (
        f"Write the body of subsection '{subsection.title}' "
        + f"(within section '{section.title}') of the survey "
        + f"'{outline.title}'.\nScope: {subsection.description}\n"
        + f"Assigned papers:\n{keynote_ctx}\n"
        + f"Cluster insights:\n{ctx.analyses_digest}\n{extra}\n"
        + f"Rules: {_mark_hint(cfg.citation_style)}; cite at least "
        + f"{cfg.subsection_least_citations} different assigned papers and no "
        + f"others; at least {cfg.subsection_least_words} words; plain prose "
        + "without any '#' characters; no heading, no reference list."
    )
    return _draft_with_verification(
        ctx,
        (section.title, subsection.title),
        prompt,
        assigned,
        cfg.subsection_least_citations,
        cfg.subsection_least_words,
        cfg.subsection_temperature,
        Granularity.SUBSECTION,
        "writing.subsection",
    )


def draft_section(
    ctx: WritingContext,
    section: OutlineNode,
    child_drafts: list[DraftUnit],
    outline: OutlineNode,
) -> DraftUnit:
    """Section preamble: roadmap over drafted children, citing only the
    section's assigned union."""
    drafted = {d.node_path[-1] for d in child_drafts}
    missing = [c.title for c in section.children if c.title not in drafted]
    if missing:
        raise InvalidInputError(f"children of '{section.title}' not drafted yet: {missing}")
    cfg = ctx.cfg
    union = section.assigned_union()
    if not union:
        raise InvalidInputError(f"section '{section.title}' has no assigned papers")
    assigned = _assigned_records(ctx, union)
    keynote_ctx = ctx.keynote_lines({r.id.canonical for r in assigned})
    roadmap = ", ".join(c.title for c in section.children) or "(no subsections)"

    prompt = (
        f"Write the opening preamble of section '{section.title}' of the "
        + f"survey '{outline.title}'. It frames scope and trends and roads "
        + f"through: {roadmap}. Do not retell the subsections.\n"
        + f"Scope: {section.description}\n"
        + f"Papers available:\n{keynote_ctx}\n\n"
        + f"Rules: {_mark_hint(cfg.citation_style)}; cite at least "
        + f"{cfg.section_least_citations} of the listed papers and no others; "
        + f"at least {cfg.section_least_words} words; no '#' characters."
    )
    return _draft_with_verification(
        ctx,
        (section.title,),
        prompt,
        assigned,
        cfg.section_least_citations,
        cfg.section_least_words,
        cfg.section_temperature,
        Granularity.SECTION,
        "writing.section",
    )


def draft_all_units(
    ctx: WritingContext, outline: OutlineNode, feed: Feed, workers: int = 1
) -> list[DraftUnit]:
    """Bottom-up pass: subsections first, then their section preambles.

    Every unit sees only its own evidence, so all subsections draft in one
    pass and all preambles in a second, each on ``workers`` threads. The
    result is in drafting order: every subsection in outline order, then
    every section preamble; each unit is put on ``feed``, which refinement
    reads, under its place there as soon as it is accepted.
    """
    sections = outline.children
    leaves = [(section, sub) for section in sections for sub in section.children]

    def drafted(place: int, unit: DraftUnit) -> DraftUnit:
        feed.put(place, unit)
        return unit

    subsections = map_bounded(
        lambda place: drafted(place, draft_subsection(ctx, *leaves[place], outline)),
        range(len(leaves)),
        workers,
    )
    rest = iter(subsections)
    own = [list(itertools.islice(rest, len(section.children))) for section in sections]
    preambles = map_bounded(
        lambda at: drafted(len(leaves) + at, draft_section(ctx, sections[at], own[at], outline)),
        range(len(sections)),
        workers,
    )
    return subsections + preambles


# -- assembly ---------------------------------------------------------------


@dataclass
class AssembledSurvey:
    document: str
    bibliography: list[PaperRecord]
    citation_map: dict

    def sidecar_json(self) -> str:
        return json.dumps(self.citation_map, ensure_ascii=False, indent=2) + "\n"


def compose_body(outline: OutlineNode, drafts: list[DraftUnit]) -> str:
    """Markdown body with title-marked citations, heading per outline node."""
    by_path = {d.node_path: d for d in drafts}
    parts: list[str] = []
    for section in outline.children:
        parts.append(f"## {section.title}")
        unit = by_path.get((section.title,))
        if unit is None:
            raise AssemblyError(f"no draft for section '{section.title}'")
        parts.append(unit.text.strip())
        for subsection in section.children:
            sub_unit = by_path.get((section.title, subsection.title))
            if sub_unit is None:
                raise AssemblyError(
                    f"no draft for subsection '{section.title} > {subsection.title}'"
                )
            parts.append(f"### {subsection.title}")
            parts.append(sub_unit.text.strip())
    return "\n\n".join(parts)


def assemble_survey(
    outline: OutlineNode,
    drafts: list[DraftUnit],
    papers: dict[str, PaperRecord],
    style: CitationStyle,
    topic: str,
    generated_at: str = "",
    config_hash: str = "",
) -> AssembledSurvey:
    """Final document: front matter, heading hierarchy mirroring the
    outline, numeric in-text references and a first-appearance bibliography.
    The body is the last survey-level draft when there is one, otherwise it
    is composed from the unit drafts.
    Deterministic: identical inputs produce identical bytes."""
    surveys = [d for d in drafts if d.granularity is Granularity.SURVEY]
    body = surveys[-1].text if surveys else compose_body(outline, drafts)
    try:
        rewritten, order = rewrite_to_numeric(body, papers.values(), style)
    except KeyError as exc:
        raise AssemblyError(f"unresolvable citation mark {exc}") from exc
    front = (
        "---\n"
        f"topic: {topic}\n"
        f"generated: {generated_at}\n"
        f"config: {config_hash}\n"
        "---\n\n"
    )
    bibliography_lines = [
        f"[{i + 1}] {record.title} ({record.id.canonical})"
        for i, record in enumerate(order)
    ]
    document = (
        front
        + f"# {outline.title}\n\n"
        + rewritten
        + "\n\n## References\n\n"
        + "\n".join(bibliography_lines)
        + "\n"
    )
    citation_map = {
        "style": style.value,
        "topic": topic,
        "entries": [
            {"number": i + 1, "paper_id": r.id.canonical, "title": r.title}
            for i, r in enumerate(order)
        ],
    }
    return AssembledSurvey(document=document, bibliography=order, citation_map=citation_map)


def check_evidence_locality(
    outline: OutlineNode, drafts: list[DraftUnit]
) -> list[str]:
    """Post-hoc invariant: no unit cites outside its node's assigned set
    (sections check against their descendant union; the survey unit against
    everything assigned anywhere). Returns violation descriptions."""
    violations = []
    for draft in drafts:
        if draft.granularity is Granularity.SURVEY:
            allowed = {p.canonical for p in outline.assigned_union()}
        else:
            node = outline.find(draft.node_path)
            if node is None:
                violations.append(f"draft for unknown node {draft.node_path}")
                continue
            allowed = {p.canonical for p in node.assigned_union()}
        for cited in sorted(draft.cited_ids()):
            if cited not in allowed:
                violations.append(
                    f"{' > '.join(draft.node_path)} cites '{cited}' outside its evidence set"
                )
    return violations
