"""In-text citation marks: extraction, resolution and numeric rewriting.

A mark is an angle-bracketed token, either a paper title (default style;
titles carry the semantic cues that keep generated citations valid) or a
canonical paper id. Title matching is exact after whitespace normalization
and case folding; there is deliberately no fuzzy repair.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .model import CitationMark, CitationStyle, PaperRecord, normalize_title

MARK_RE = re.compile(r"<([^<>\n]+)>")


def extract_mark_keys(text: str) -> list[str]:
    """All mark keys in reading order, duplicates preserved."""
    return [m.group(1).strip() for m in MARK_RE.finditer(text)]


def drop_marks(text: str, keys: Iterable[str]) -> str:
    """``text`` without the marks whose stripped key is one of ``keys``."""
    keys = set(keys)
    return MARK_RE.sub(lambda m: "" if m.group(1).strip() in keys else m.group(0), text)


def build_resolver(
    papers: Iterable[PaperRecord], style: CitationStyle
) -> dict[str, PaperRecord]:
    if style is CitationStyle.TITLE:
        return {p.title_key: p for p in papers}
    return {p.id.canonical: p for p in papers}


def resolve_key(
    key: str, resolver: dict[str, PaperRecord], style: CitationStyle
) -> Optional[PaperRecord]:
    lookup = normalize_title(key) if style is CitationStyle.TITLE else key.strip()
    return resolver.get(lookup)


def unresolved_keys(text: str, papers: list[PaperRecord]) -> list[str]:
    """The mark keys in ``text`` that name none of ``papers``, by title or by
    id, in reading order, duplicates preserved."""
    titles = build_resolver(papers, CitationStyle.TITLE)
    ids = build_resolver(papers, CitationStyle.ID)
    return [
        key
        for key in extract_mark_keys(text)
        if resolve_key(key, titles, CitationStyle.TITLE) is None
        and resolve_key(key, ids, CitationStyle.ID) is None
    ]


@dataclass
class CitationVerdict:
    ok: bool
    violations: list[str] = field(default_factory=list)
    marks: list[CitationMark] = field(default_factory=list)

    def distinct_papers(self) -> set[str]:
        return {m.paper.canonical for m in self.marks}


def verify_citations(
    text: str, assigned: Iterable[PaperRecord], style: CitationStyle
) -> CitationVerdict:
    """Check every mark against the assigned paper set. Exact matching only;
    a key that does not resolve, or resolves outside the set, is a violation.
    Zero marks is fine here (citation floors belong to the drafting ops)."""
    resolver = build_resolver(assigned, style)
    violations: list[str] = []
    marks: list[CitationMark] = []
    for key in extract_mark_keys(text):
        record = resolve_key(key, resolver, style)
        if record is None:
            violations.append(key)
        else:
            marks.append(CitationMark(style=style, key=key, paper=record.id))
    return CitationVerdict(ok=not violations, violations=violations, marks=marks)


def rewrite_to_numeric(
    text: str, papers: Iterable[PaperRecord], style: CitationStyle
) -> tuple[str, list[PaperRecord]]:
    """Replace marks with ``[n]`` references numbered by first appearance.

    Returns the rewritten text and the bibliography order. Raises KeyError
    for a mark that does not resolve against ``papers``.
    """
    resolver = build_resolver(papers, style)
    order: list[PaperRecord] = []
    numbers: dict[str, int] = {}

    def substitute(match: re.Match) -> str:
        key = match.group(1).strip()
        record = resolve_key(key, resolver, style)
        if record is None:
            raise KeyError(key)
        canonical = record.id.canonical
        if canonical not in numbers:
            order.append(record)
            numbers[canonical] = len(order)
        return f"[{numbers[canonical]}]"

    return MARK_RE.sub(substitute, text), order
