"""Stage 2: turn parsed full-text documents into structured keynotes.

The external PDF parser produces one Markdown file per paper; this stage
reads it (chunked if needed), asks the model for a strict-JSON digest and
falls back to the abstract or TLDR when no full text exists.
"""

from __future__ import annotations

import heapq
import json
import re
import threading
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import InvalidInputError, KeynoteError, PaperSkipped
from .gateway import (
    Feed,
    Gateway,
    extract_json_payload,
    map_bounded,
    request_validated,
)
from .model import (
    MANDATORY_KEYNOTE_SECTIONS,
    Keynote,
    PaperId,
    PaperRecord,
    Provenance,
)
from .runlog import RunLog
from .tokens import estimate_tokens

#: Model output may use this alternative name for the contributions field.
_SECTION_ALIASES = {"key_contributions": "contributions", "methods": "methodology"}

_HEADING_RE = re.compile(r"^# ", re.M)


@dataclass
class ParsedDocument:
    paper_id: PaperId
    markdown: str
    source_path: str = ""

    def __post_init__(self):
        if not self.markdown:
            raise InvalidInputError("parsed document must carry markdown text")


def _normalize_section(value) -> str:
    if isinstance(value, str):
        return value.strip()
    if isinstance(value, list):
        return "\n".join(_normalize_section(v) for v in value).strip()
    return json.dumps(value, ensure_ascii=False, sort_keys=True)


def parse_keynote_payload(reply: str, paper_id: PaperId) -> Keynote:
    """Strict keynote parse: mandatory fields must be present and non-empty;
    extra fields ride along verbatim in the model's order."""
    payload = extract_json_payload(reply)
    if not isinstance(payload, dict):
        raise ValueError("keynote must be a JSON object")
    sections: dict[str, str] = {}
    for raw_key, value in payload.items():
        key = _SECTION_ALIASES.get(raw_key, raw_key)
        sections[key] = _normalize_section(value)
    missing = [k for k in MANDATORY_KEYNOTE_SECTIONS if not sections.get(k)]
    if missing:
        raise ValueError(f"keynote missing mandatory fields: {missing}")
    return Keynote(paper_id=paper_id, sections=sections, provenance=Provenance.FULL_TEXT)


def split_document(markdown: str, chunk_budget: int) -> list[str]:
    """Split on top-level headings, packing blocks greedily into chunks that
    fit the budget; an oversize block is hard-split by characters."""
    if estimate_tokens(markdown) <= chunk_budget:
        return [markdown]
    starts = [m.start() for m in _HEADING_RE.finditer(markdown)]
    if not starts or starts[0] != 0:
        starts.insert(0, 0)
    blocks = [markdown[a:b] for a, b in zip(starts, starts[1:] + [len(markdown)])]
    chunks: list[str] = []
    current = ""
    for block in blocks:
        while estimate_tokens(block) > chunk_budget:
            if current:
                chunks.append(current)
                current = ""
            cut = chunk_budget * 4
            chunks.append(block[:cut])
            block = block[cut:]
        if not block:
            continue
        if current and estimate_tokens(current + block) > chunk_budget:
            chunks.append(current)
            current = block
        else:
            current += block
    if current:
        chunks.append(current)
    return chunks


_KEYNOTE_SCHEMA = (
    "Reply with a JSON object holding at least these non-empty fields: "
    + ", ".join(MANDATORY_KEYNOTE_SECTIONS)
    + ". Add further fields freely when the paper calls for them."
)


def extract_keynote(
    doc: ParsedDocument,
    gateway: Gateway,
    runlog: Optional[RunLog] = None,
) -> Keynote:
    """Digest one parsed paper into a keynote (provenance=full_text).

    Long documents are chunk-summarized first and merged by one
    consolidation call; missing mandatory fields trigger a retry with
    error memory before giving up.
    """
    runlog = runlog or RunLog()
    window = gateway.profile.context_window
    overhead = 600  # instructions, memory preamble, ids
    chunk_budget = max(256, window - overhead)
    chunks = split_document(doc.markdown, chunk_budget)

    if len(chunks) == 1:
        body = chunks[0]
    else:
        digests = []
        for index, chunk in enumerate(chunks):
            reply = gateway.complete_text(
                f"Condense this part ({index + 1}/{len(chunks)}) of paper "
                f"{doc.paper_id.canonical} into the facts a survey writer needs "
                f"(contributions, methods, experiments, limitations):\n\n{chunk}",
                tag="understanding.chunk",
            )
            digests.append(reply)
        runlog.add("document_chunked", paper=doc.paper_id.canonical, chunks=len(chunks))
        body = "\n\n".join(digests)

    prompt = (
        f"Produce the structured keynote for paper id {doc.paper_id.canonical}.\n"
        + _KEYNOTE_SCHEMA
        + "\n\nPaper text:\n"
    )
    rejected: list[int] = []
    keynote = request_validated(
        gateway,
        prompt,
        lambda reply: parse_keynote_payload(reply, doc.paper_id),
        tag="understanding.keynote",
        context=body,
        error_factory=KeynoteError,
        on_retry=lambda attempt, problems: rejected.append(attempt),
    )
    runlog.add("keynote_extracted", paper=doc.paper_id.canonical, calls=len(rejected) + 1)
    return keynote


def fallback_keynote(record: PaperRecord) -> Keynote:
    """Lightweight substitute when no full text exists: abstract first,
    TLDR second, otherwise the paper leaves the evidence set."""
    if record.abstract:
        provenance, text = Provenance.ABSTRACT_FALLBACK, record.abstract
    elif record.tldr:
        provenance, text = Provenance.TLDR_FALLBACK, record.tldr
    else:
        raise PaperSkipped(record.id.canonical, "no abstract and no TLDR")
    sections = {name: "" for name in MANDATORY_KEYNOTE_SECTIONS}
    sections["tldr"] = text
    return Keynote(paper_id=record.id, sections=sections, provenance=provenance)


def run_understanding(
    papers: dict[str, PaperRecord] | Feed,
    docs: Callable[[PaperRecord], Optional[ParsedDocument]],
    gateway: Gateway,
    runlog: Optional[RunLog] = None,
    workers: int = 1,
    feed: Optional[Feed] = None,
) -> dict[str, Keynote]:
    """Every evidence paper ends with exactly one keynote or one logged
    skip event; a paper for which ``docs`` finds no parsed document is
    demoted to fallback. Distinct papers digest in bounded parallel
    workers; the result is in paper-id order.

    ``papers`` is the evidence set by canonical id, or retrieval's feed of
    the papers each rerank batch keeps. At most ``workers`` papers are
    digested at once, pulled as slots free: the lowest id of the papers in
    and not yet started goes first (:func:`_understand_arrivals`). Each
    paper's keynote, or None for a skipped paper, is put on ``feed`` under
    the paper's place in paper-id order as soon as it is made and that
    place is known: from a feed, once the feed is closed (retrieval has
    committed). A failure raises the 1-worker run's error, the one of the
    first failing paper in paper-id order: once a paper has failed, only
    papers before it in that order still start.
    """
    runlog = runlog or RunLog()

    def keynote_of(record: PaperRecord) -> Optional[Keynote]:
        canonical = record.id.canonical
        doc = docs(record)
        try:
            if doc is not None:
                return extract_keynote(doc, gateway, runlog)
            if record.full_text_ref:
                runlog.add("full_text_unavailable", paper=canonical)
            return fallback_keynote(record)
        except PaperSkipped as skip:
            runlog.add("paper_skipped", paper=canonical, reason=skip.reason)
            return None

    if not isinstance(papers, Feed):  # a committed set: one batch, then the close
        committed, papers = papers, Feed()
        papers.put(0, list(committed.values()))
        papers.close()
    return _understand_arrivals(papers, keynote_of, workers, feed)


def _understand_arrivals(
    arrivals: Feed,
    keynote_of: Callable[[PaperRecord], Optional[Keynote]],
    workers: int,
    feed: Optional[Feed],
) -> dict[str, Keynote]:
    """:func:`run_understanding` over a feed of paper batches. As a slot
    frees, :func:`map_bounded` reads the paper with the lowest id not yet
    started of those the feed has brought, waiting for the feed only when
    none is left, so that the keynotes the design fold reads first come
    first."""
    feed = feed if feed is not None else Feed()  # one that no stage reads
    lock = threading.Lock()
    made: dict[str, Optional[Keynote]] = {}
    failed: dict[str, Exception] = {}
    place: dict[str, int] = {}  # paper-id order, once the feed is closed

    def papers():
        queue: list[tuple[str, PaperRecord]] = []  # a heap by canonical id
        seen, is_open = 0, True
        while queue or is_open:
            if is_open:
                if not queue:
                    arrivals.arrivals(seen)  # one more batch, or the close
                fresh, is_open = arrivals.poll(seen)
                seen += len(fresh)
                for record in (r for _, batch in fresh for r in batch):
                    heapq.heappush(queue, (record.id.canonical, record))
                if not is_open:  # every paper is in
                    ids = sorted(r.id.canonical for _, batch in arrivals.poll(0)[0] for r in batch)
                    with lock:
                        place.update((canonical, i) for i, canonical in enumerate(ids))
                        for canonical, keynote in made.items():
                            feed.put(place[canonical], keynote)
            if queue:
                canonical, record = heapq.heappop(queue)
                with lock:
                    if failed and canonical > min(failed):
                        continue
                yield canonical, record

    def one(pair: tuple[str, PaperRecord]) -> None:
        canonical, record = pair
        try:
            keynote = keynote_of(record)
        except Exception as exc:
            with lock:
                failed[canonical] = exc
            return
        with lock:
            made[canonical] = keynote
            if canonical in place:
                feed.put(place[canonical], keynote)

    map_bounded(one, papers(), workers)
    if failed:
        raise failed[min(failed)]
    return {c: made[c] for c in sorted(made) if made[c] is not None}
