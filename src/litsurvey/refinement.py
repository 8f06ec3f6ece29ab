"""Stage 5: planner-coordinated refinement with reader/reviewer/reviser
skills and per-unit memory, plus a simplified skill-loop fallback.

Safety contract: a revision only replaces the draft after re-passing
citation verification against the unit's evidence set, so refinement can
never degrade citation validity.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Optional

from .errors import ConfigError, InvalidInputError, MalformedOutputError
from .fanout import Feed, map_bounded
from .gateway import Gateway, extract_json_payload, request_validated
from .marks import verify_citations
from .model import (
    CitationStyle,
    DraftUnit,
    Granularity,
    Keynote,
    KnowledgeSubstrate,
    OutlineNode,
    PaperRecord,
)
from .runlog import RunLog
from .tokens import compress_context, estimate_tokens
from .writing import compose_body

SKILLS = ("read_keynotes", "review", "revise", "finish")

#: a section or subsection heading line of the composed survey body
HEADING_RE = re.compile(r"^#{2,3} .*$", re.M)


@dataclass
class LevelConfig:
    max_rounds: int
    planner_temperature: float
    reviewer_temperature: float
    reviser_temperature: float


@dataclass
class RefinementConfig:
    # Survey-level round cap is a system parameter; the section/subsection
    # caps are unspecified upstream and default to 3.
    section: LevelConfig = field(
        default_factory=lambda: LevelConfig(3, 0.7, 1.0, 0.5)
    )
    subsection: LevelConfig = field(
        default_factory=lambda: LevelConfig(3, 0.1, 0.1, 0.1)
    )
    survey: LevelConfig = field(
        default_factory=lambda: LevelConfig(5, 0.7, 1.0, 0.5)
    )
    enabled: tuple[str, ...] = ("section", "subsection", "survey")
    evidence_budget: int = 8000

    def __post_init__(self):
        levels = [g.value for g in Granularity]
        unknown = [name for name in self.enabled if name not in levels]
        if unknown:
            raise ConfigError(
                f"refinement.enabled names unknown levels {unknown}; "
                f"each must be one of {'|'.join(levels)}"
            )

    def level(self, granularity: Granularity) -> LevelConfig:
        return getattr(self, granularity.value)


@dataclass
class RefinementMemory:
    events: list[dict] = field(default_factory=list)
    compressed_state: str = ""

    def record(self, round_no: int, skill: str, summary: str, score_delta=None) -> None:
        event = {"round": round_no, "skill": skill, "summary": summary}
        if score_delta is not None:
            event["score_delta"] = score_delta
        self.events.append(event)

    def render(self, budget: int = 2000) -> str:
        lines = [
            f"round {e['round']}: {e['skill']} - {e['summary']}"
            + (f" (delta {e['score_delta']:+g})" if "score_delta" in e else "")
            for e in self.events
        ]
        text = "\n".join(lines)
        if estimate_tokens(text) > budget and len(lines) > 3:
            # Older rounds compress to a summary; the latest stay verbatim.
            recent = lines[-3:]
            self.compressed_state = f"[{len(lines) - 3} earlier refinement events elided]"
            text = "\n".join([self.compressed_state, *recent])
        return text or "(no history)"


@dataclass
class RefinementContext:
    papers: dict[str, PaperRecord]
    keynotes: dict[str, Keynote]
    outline: OutlineNode
    gateway: Gateway
    cfg: RefinementConfig = field(default_factory=RefinementConfig)
    style: CitationStyle = CitationStyle.TITLE
    code_reports: dict[str, str] = field(default_factory=dict)
    runlog: RunLog = field(default_factory=RunLog)
    #: the outline as every planner prompt shows it, built once
    outline_digest: str = field(init=False, repr=False)

    def __post_init__(self):
        self.outline_digest = json.dumps(self.outline.to_dict(), ensure_ascii=False)[:2000]

    @classmethod
    def from_substrate(
        cls, substrate: KnowledgeSubstrate, gateway: Gateway, **kwargs
    ) -> "RefinementContext":
        if substrate.outline is None:
            raise InvalidInputError("substrate has no outline to refine against")
        return cls(
            papers=substrate.papers,
            keynotes=substrate.keynotes,
            outline=substrate.outline,
            gateway=gateway,
            code_reports=substrate.code_reports,
            **kwargs,
        )

    def evidence_set(self, unit: DraftUnit) -> list[PaperRecord]:
        if unit.granularity is Granularity.SURVEY:
            ids = self.outline.assigned_union()
        else:
            node = self.outline.find(unit.node_path)
            if node is None:
                raise InvalidInputError(f"no outline node at {unit.node_path}")
            ids = node.assigned_union()
        return [self.papers[p.canonical] for p in sorted(ids, key=lambda p: p.canonical)]


def read_keynotes_skill(ctx: RefinementContext, ids: list[str]) -> str:
    """Evidence bundle for the requested papers, compressed to the
    evidence budget. Unknown ids are skipped with a monitor event."""
    budget = ctx.cfg.evidence_budget
    parts = []
    for key in ids:
        keynote = ctx.keynotes.get(key)
        if keynote is None:
            ctx.runlog.attribution_event("refine.read", "keynote request", key)
            continue
        block = f"## {key}\n" + "\n".join(
            f"{name}: {text}" for name, text in keynote.sections.items() if text
        )
        code = ctx.code_reports.get(key)
        if code:
            block += f"\ncode: {code}"
        parts.append(block)
    bundle = "\n\n".join(parts)
    if estimate_tokens(bundle) > budget:
        bundle = compress_context("", bundle, budget)
        ctx.runlog.add("evidence_compressed", papers=len(ids), budget=budget)
    return bundle


def review_skill(
    ctx: RefinementContext,
    unit: DraftUnit,
    memory: RefinementMemory,
    temperature: float,
    previous_scores: Optional[dict] = None,
) -> dict:
    """Structured quality verdict: per-dimension scores (0-10), suggestions,
    and an optional satisfactory flag. Out-of-range scores retry."""

    prompt = (
        f"Review this {unit.granularity.value} draft for analytical depth, "
        + "coherence, rigor and readability.\n"
        + f"History:\n{memory.render()}\n\nDraft:\n{unit.text}\n\n"
        + 'Reply strictly as JSON: {"scores": {"dimension": 0-10}, '
        + '"suggestions": ["..."], "satisfactory": false}'
    )

    def parse(reply: str) -> dict:
        payload = extract_json_payload(reply)
        if not isinstance(payload, dict) or "scores" not in payload:
            raise ValueError("review must be a JSON object with scores")
        scores = payload["scores"]
        if not isinstance(scores, dict) or not scores:
            raise ValueError("scores must be a non-empty object")
        for name, value in scores.items():
            if not isinstance(value, (int, float)) or not 0 <= value <= 10:
                raise ValueError(f"score {name}={value} outside [0, 10]")
        return {
            "scores": {str(k): float(v) for k, v in scores.items()},
            "suggestions": [str(s) for s in payload.get("suggestions", [])],
            "satisfactory": bool(payload.get("satisfactory", False)),
        }

    verdict = request_validated(
        ctx.gateway,
        prompt,
        parse,
        tag="refine.review",
        temperature=temperature,
    )
    if previous_scores:
        shared = set(previous_scores) & set(verdict["scores"])
        if shared:
            verdict["score_delta"] = sum(
                verdict["scores"][k] - previous_scores[k] for k in shared
            ) / len(shared)
    return verdict


def _revision_prompt(
    ctx: RefinementContext,
    unit: DraftUnit,
    instructions: str,
    suggestions: list[str],
    evidence: str,
) -> str:
    hint = (
        "cite with <paper title> marks" if ctx.style is CitationStyle.TITLE
        else "cite with <paper id> marks"
    )
    anchor_rule = (
        "; keep the existing heading structure"
        if unit.granularity is Granularity.SURVEY
        else "; no '#' characters"
    )
    return (
        f"Revise this {unit.granularity.value} draft.\n"
        + (f"Instructions: {instructions}\n" if instructions else "")
        + (("Reviewer suggestions:\n" + "\n".join(suggestions) + "\n") if suggestions else "")
        + (f"Evidence:\n{evidence}\n" if evidence else "")
        + f"Keep every claim supported; {hint}; cite only papers already "
        + f"available to this unit{anchor_rule}.\n\n"
        + f"Draft:\n{unit.text}"
    )


def _try_revision(
    ctx: RefinementContext,
    unit: DraftUnit,
    instructions: str,
    suggestions: list[str],
    evidence: str,
    temperature: float,
    memory: RefinementMemory,
    round_no: int,
) -> DraftUnit:
    """Apply a revision if and only if it re-passes citation verification
    and keeps the unit's headings: none in a section or subsection, the
    same '##'/'###' lines in the same order in the survey body. Two
    attempts that break either abandon the revision for this round."""
    assigned = ctx.evidence_set(unit)
    # The composed survey body carries heading anchors by design; unit
    # bodies must stay free of them.
    headings = HEADING_RE.findall(unit.text) if unit.granularity is Granularity.SURVEY else None

    def parse(revised: str) -> DraftUnit:
        verdict = verify_citations(revised, assigned, ctx.style)
        problems = []
        for key in verdict.violations:
            problems.append(f"revision cited out-of-set paper '{key}'")
            ctx.runlog.attribution_event("refine.revise", "revision", key)
        if headings is None and "#" in revised:
            problems.append("revision contains '#'")
        elif headings is not None and HEADING_RE.findall(revised) != headings:
            problems.append("revision changed the '##'/'###' heading lines; keep each one, in order")
        if problems:
            raise ValueError(*problems)
        return DraftUnit(
            node_path=unit.node_path,
            text=revised,
            citations=verdict.marks,
            granularity=unit.granularity,
        )

    try:
        revised = request_validated(
            ctx.gateway,
            _revision_prompt(ctx, unit, instructions, suggestions, evidence),
            parse,
            tag="refine.revise",
            temperature=temperature,
            max_retries=1,
        )
    except MalformedOutputError:
        memory.record(round_no, "revise", "revision rejected; original retained")
        ctx.runlog.add("revision_rejected", node=" > ".join(unit.node_path), round=round_no)
        return unit
    memory.record(round_no, "revise", "revision accepted")
    return revised


def _parse_plan(reply: str) -> list[dict]:
    payload = extract_json_payload(reply)
    if isinstance(payload, dict):
        payload = [payload]
    if not isinstance(payload, list) or not payload:
        raise ValueError("planner must reply with a JSON skill list")
    plan = []
    for item in payload:
        if not isinstance(item, dict) or item.get("skill") not in SKILLS:
            raise ValueError(f"unknown skill in plan: {item}")
        plan.append(item)
    return plan


def refine(
    unit: DraftUnit, ctx: RefinementContext
) -> tuple[DraftUnit, RefinementMemory]:
    """Planner loop: inspect draft/outline/memory, dispatch skills, stop on
    finish or round exhaustion. Returns the refined unit and its memory."""
    level = ctx.cfg.level(unit.granularity)
    if level.max_rounds < 1:
        raise InvalidInputError("refinement needs at least one round")
    memory = RefinementMemory()
    current = unit
    evidence = ""
    last_scores: Optional[dict] = None
    last_suggestions: list[str] = []

    for round_no in range(1, level.max_rounds + 1):
        prompt = (
            f"You coordinate refinement of a {unit.granularity.value} draft "
            + f"(round {round_no}/{level.max_rounds}).\n"
            + f"Outline: {ctx.outline_digest}\n"
            + f"History:\n{memory.render()}\n\nDraft:\n{current.text}\n\n"
            + "Dispatch skills in order: read_keynotes (with paper_ids), "
            + "review, revise (with instructions), or finish when satisfied. "
            + 'Reply strictly as JSON: [{"skill": "...", "paper_ids": [], '
            + '"instructions": ""}]'
        )
        plan = request_validated(
            ctx.gateway,
            prompt,
            _parse_plan,
            tag="refine.plan",
            temperature=level.planner_temperature,
        )
        finished = False
        for step in plan:
            skill = step["skill"]
            if skill == "finish":
                memory.record(round_no, "finish", "planner judged the draft satisfactory")
                finished = True
                break
            if skill == "read_keynotes":
                ids = [str(i) for i in step.get("paper_ids", [])]
                evidence = read_keynotes_skill(ctx, ids)
                memory.record(round_no, "read_keynotes", f"loaded {len(ids)} papers")
            elif skill == "review":
                verdict = review_skill(
                    ctx, current, memory, level.reviewer_temperature, last_scores
                )
                last_scores = verdict["scores"]
                last_suggestions = verdict["suggestions"]
                memory.record(
                    round_no,
                    "review",
                    "scores " + json.dumps(verdict["scores"], sort_keys=True),
                    score_delta=verdict.get("score_delta"),
                )
            elif skill == "revise":
                current = _try_revision(
                    ctx,
                    current,
                    str(step.get("instructions", "")),
                    last_suggestions,
                    evidence,
                    level.reviser_temperature,
                    memory,
                    round_no,
                )
        if finished:
            break
    return current, memory


def skill_loop_fallback(unit: DraftUnit, ctx: RefinementContext) -> DraftUnit:
    """Planner-free alternation of review and revise for weaker backbones.
    The reviewer may end the loop early by judging the draft satisfactory;
    the citation re-verification contract is identical to :func:`refine`."""
    level = ctx.cfg.level(unit.granularity)
    if level.max_rounds < 1:
        raise InvalidInputError("the skill loop needs at least one round")
    memory = RefinementMemory()
    current = unit
    last_scores: Optional[dict] = None
    for round_no in range(1, level.max_rounds + 1):
        verdict = review_skill(ctx, current, memory, level.reviewer_temperature, last_scores)
        last_scores = verdict["scores"]
        memory.record(
            round_no,
            "review",
            "scores " + json.dumps(verdict["scores"], sort_keys=True),
            score_delta=verdict.get("score_delta"),
        )
        if verdict["satisfactory"]:
            memory.record(round_no, "finish", "reviewer judged the draft satisfactory")
            break
        current = _try_revision(
            ctx, current, "", verdict["suggestions"], "", level.reviser_temperature,
            memory, round_no,
        )
    return current


def refine_all(
    drafts: list[DraftUnit] | Feed,
    ctx: RefinementContext,
    use_fallback_loop: bool = False,
    workers: int = 1,
) -> list[DraftUnit]:
    """Multi-granularity pass: each enabled level exactly once, the survey
    level last. Section and subsection units are independent of each other,
    so both levels refine in one fan-out on ``workers`` threads, in the
    order of ``drafts`` (drafting order: subsections, then sections), which
    also picks the error a failure raises. ``drafts`` may be a Feed that
    writing is still filling: each unit then starts once it and every
    earlier one are drafted. The survey level refines the body composed
    from the refined units; that unit comes last in the result."""
    def refine_one(unit: DraftUnit) -> DraftUnit:
        if use_fallback_loop:
            return skill_loop_fallback(unit, ctx)
        return refine(unit, ctx)[0]

    def at_unit_level(unit: DraftUnit) -> DraftUnit:
        return refine_one(unit) if unit.granularity.value in ctx.cfg.enabled else unit

    units = map_bounded(at_unit_level, drafts, workers)
    if Granularity.SURVEY.value in ctx.cfg.enabled:
        body = compose_body(ctx.outline, units)
        survey = DraftUnit(
            node_path=(ctx.outline.title,),
            text=body,
            citations=verify_citations(body, ctx.papers.values(), ctx.style).marks,
            granularity=Granularity.SURVEY,
        )
        units.append(refine_one(survey))
    return units
