"""Stage 1: seed search, judge filtering, bidirectional citation-graph
expansion and two-stage hybrid filtering.

The output is the evidence paper set: structurally connected through the
citation graph yet kept on-topic by a coarse embedding filter followed by
judge re-ranking.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from functools import partial
from typing import Optional

from .errors import JudgeError, RetrievalError, SourceUnavailableError, SurveyError
from .gateway import (
    Feed,
    Gateway,
    batched,
    cosine,
    extract_json_payload,
    map_bounded,
    request_validated,
)
from .model import PaperRecord
from .runlog import RunLog
from .sources import PaperSource


@dataclass
class RetrievalConfig:
    max_seed_papers: int = 15
    expansion_depth: int = 1
    per_seed_cap: int = 20
    coarse_similarity_threshold: float = 0.35  # recall-biased on purpose
    judge_batch_size: int = 20

    def __post_init__(self):
        if self.max_seed_papers <= 0 or self.per_seed_cap <= 0:
            raise ValueError("retrieval caps must be positive")
        if self.expansion_depth < 0:
            raise ValueError("expansion depth must be >= 0")


def _dedup(records: list[PaperRecord]) -> list[PaperRecord]:
    seen: set[str] = set()
    out = []
    for record in records:
        if record.id.canonical not in seen:
            seen.add(record.id.canonical)
            out.append(record)
    return out


def search_seeds(
    topic: str,
    cfg: RetrievalConfig,
    source: PaperSource,
    fallback: Optional[PaperSource] = None,
    runlog: Optional[RunLog] = None,
) -> list[PaperRecord]:
    """Collect at most ``max_seed_papers`` deduplicated seeds for a topic.

    When the primary source fails or returns nothing, the preprint-archive
    fallback supplements the pool (flagged in the log).
    """
    return _seed_pool(topic, cfg, source, fallback, runlog or RunLog())[0]


def _seed_pool(
    topic: str,
    cfg: RetrievalConfig,
    source: PaperSource,
    fallback: Optional[PaperSource],
    runlog: RunLog,
) -> tuple[list[PaperRecord], bool]:
    """The seeds of :func:`search_seeds`, and whether the primary failed."""
    if not topic:
        raise RetrievalError("topic must be non-empty")
    hits: list[PaperRecord] = []
    primary_error: Optional[Exception] = None
    try:
        hits = source.search(topic, cfg.max_seed_papers)
    except SurveyError as exc:
        primary_error = exc
        runlog.add("source_failure", query=topic, error=str(exc))

    if not hits:
        if fallback is None:
            raise RetrievalError(
                f"seed search failed for '{topic}': {primary_error or 'no hits'}"
            )
        try:
            hits = fallback.search(topic, cfg.max_seed_papers)
        except SurveyError as exc:
            raise RetrievalError(
                f"seed search failed on primary and fallback: {exc}"
            ) from exc
        runlog.add("fallback_source_used", topic=topic, hits=len(hits))

    return _dedup(hits)[: cfg.max_seed_papers], primary_error is not None


def _judge_prompt(batch: list[PaperRecord], topic: str, purpose: str) -> str:
    listing = "\n".join(
        f"- id: {p.id.canonical} | title: {p.title} | summary: {(p.abstract or p.tldr)[:400]}"
        for p in batch
    )
    return (
        f"Judge topical alignment with the research topic '{topic}' ({purpose}).\n"
        f"Papers:\n{listing}\n\n"
        "Reply with a JSON list, one object per paper, covering every id above:\n"
        '[{"paper_id": "...", "relevant": true, "note": "why"}]'
    )


def _judge_verdicts(
    papers: list[PaperRecord],
    topic: str,
    gateway: Gateway,
    cfg: RetrievalConfig,
    purpose: str,
) -> dict[str, tuple[bool, str]]:
    """Batched topical-alignment verdicts keyed by canonical id.

    The judge must answer for every paper in the batch in strict JSON; a
    malformed reply is retried with the error memory of that batch alone,
    so the batches are independent. A batch that still fails raises, and
    no later batch is sent.
    """
    tag = f"retrieval.{purpose}"

    def judge_batch(batch: list[PaperRecord]) -> dict[str, tuple[bool, str]]:
        ids = [p.id.canonical for p in batch]

        def parse(reply: str) -> dict[str, tuple[bool, str]]:
            payload = extract_json_payload(reply)
            if not isinstance(payload, list):
                raise ValueError("judge verdict must be a JSON list")
            got: dict[str, tuple[bool, str]] = {}
            for item in payload:
                if not isinstance(item, dict) or "paper_id" not in item or "relevant" not in item:
                    raise ValueError("verdict items need paper_id and relevant fields")
                got[str(item["paper_id"])] = (bool(item["relevant"]), str(item.get("note", "")))
            missing = [i for i in ids if i not in got]
            if missing:
                raise ValueError(f"judge verdict missing ids: {missing}")
            return got

        prompt = _judge_prompt(batch, topic, purpose)
        return request_validated(gateway, prompt, parse, tag=tag, error_factory=JudgeError)

    verdicts: dict[str, tuple[bool, str]] = {}
    for batch in batched(papers, cfg.judge_batch_size):
        verdicts.update(judge_batch(batch))
    return verdicts


def judge_filter(
    candidates: list[PaperRecord],
    topic: str,
    gateway: Gateway,
    cfg: Optional[RetrievalConfig] = None,
    runlog: Optional[RunLog] = None,
) -> list[PaperRecord]:
    """Keep candidates the judge marks topically aligned; order preserved."""
    if not candidates:
        return []
    cfg = cfg or RetrievalConfig()
    runlog = runlog or RunLog()
    verdicts = _judge_verdicts(candidates, topic, gateway, cfg, "seed_filter")
    kept = [p for p in candidates if verdicts[p.id.canonical][0]]
    for paper in candidates:
        relevant, note = verdicts[paper.id.canonical]
        if not relevant:
            runlog.add("seed_rejected", paper=paper.id.canonical, note=note)
    return kept


def neighbor_priority(record: PaperRecord) -> tuple[int, str]:
    """Deterministic truncation order: citation count desc, then id asc."""
    return (-record.citation_count, record.id.canonical)


def expand_graph(
    seeds: list[PaperRecord],
    cfg: RetrievalConfig,
    source: PaperSource,
    runlog: Optional[RunLog] = None,
    workers: int = 1,
) -> list[PaperRecord]:
    """Breadth-first bidirectional expansion to ``expansion_depth``.

    Each hop fetches the citations, then the references, of up to
    ``workers`` frontier papers at once, and merges the answers in frontier
    order, so the result is the same at every width. Per expanded paper at
    most ``per_seed_cap`` neighbors are retained, ranked by
    :func:`neighbor_priority`. New papers are appended in sorted id order.
    A neighbor fetch that still fails after the source's own retries raises
    RetrievalError naming the first such paper in frontier order, rather
    than leaving the evidence set short of its neighbors; a resume asks
    again. A fetch the source refuses for good (say, a paper it does not
    know) leaves that paper without neighbors, logged as
    ``neighbor_fetch_refused`` in frontier order, since asking again would
    not help.
    """
    runlog = runlog or RunLog()
    limit = cfg.per_seed_cap * 2

    def fetch(paper: PaperRecord) -> list[PaperRecord] | SurveyError:
        """The paper's neighbors, or the error of a refused fetch."""
        try:
            return source.citations(paper.id, limit) + source.references(paper.id, limit)
        except SourceUnavailableError as exc:
            raise RetrievalError(
                f"neighbor fetch for paper '{paper.id.canonical}' failed: {exc}"
            ) from exc
        except SurveyError as exc:
            return exc

    collected = {p.id.canonical: p for p in seeds}
    result = list(seeds)
    frontier = list(seeds)
    for _depth in range(cfg.expansion_depth):
        discovered: dict[str, PaperRecord] = {}
        for paper, neighbors in zip(frontier, map_bounded(fetch, frontier, workers)):
            if isinstance(neighbors, SurveyError):
                runlog.add("neighbor_fetch_refused", paper=paper.id.canonical, error=str(neighbors))
                continue
            unique: dict[str, PaperRecord] = {}
            for n in neighbors:
                unique.setdefault(n.id.canonical, n)
            ranked = sorted(unique.values(), key=neighbor_priority)[: cfg.per_seed_cap]
            for n in ranked:
                if n.id.canonical not in collected:
                    discovered.setdefault(n.id.canonical, n)
        frontier = [discovered[k] for k in sorted(discovered)]
        collected.update(discovered)
        result.extend(frontier)
    return result


def coarse_filter(
    papers: list[PaperRecord],
    topic: str,
    cfg: RetrievalConfig,
    gateway: Gateway,
) -> list[PaperRecord]:
    """High-recall semantic gate: cosine(title+abstract, topic) >= threshold.

    The topic is embedded on its own, then the papers in the gateway's
    batches. :func:`run_retrieval` runs it once per embedding batch (see
    :func:`_hybrid_filter`).
    """
    if not papers:
        return []
    topic_vec = gateway.embed([topic])[0]
    vectors = gateway.embed([p.search_text() for p in papers])
    return _passing(papers, vectors, topic_vec, cfg)


def _passing(
    papers: list[PaperRecord], vectors: list, topic_vec: list[float], cfg: RetrievalConfig
) -> list[PaperRecord]:
    return [
        p
        for p, v in zip(papers, vectors)
        if cosine(v, topic_vec) >= cfg.coarse_similarity_threshold
    ]


def llm_rerank_filter(
    papers: list[PaperRecord],
    topic: str,
    gateway: Gateway,
    cfg: Optional[RetrievalConfig] = None,
    runlog: Optional[RunLog] = None,
) -> list[PaperRecord]:
    """Fine-grained judge pass removing topically irrelevant papers; every
    retained paper gets its relevance note logged. :func:`run_retrieval`
    runs it once per judge batch (see :func:`_hybrid_filter`)."""
    if not papers:
        return []
    cfg = cfg or RetrievalConfig()
    runlog = runlog or RunLog()
    verdicts = _judge_verdicts(papers, topic, gateway, cfg, "rerank")
    kept = []
    for paper in papers:
        relevant, note = verdicts[paper.id.canonical]
        if relevant:
            kept.append(paper)
            runlog.add("rerank_retained", paper=paper.id.canonical, note=note)
        else:
            runlog.add("rerank_dropped", paper=paper.id.canonical, note=note)
    return kept


def _hybrid_filter(
    papers: list[PaperRecord],
    topic: str,
    cfg: RetrievalConfig,
    gateway: Gateway,
    runlog: RunLog,
    workers: int,
    feed: Optional[Feed],
) -> list[PaperRecord]:
    """The coarse filter, then the rerank, as one fan-out of at most
    ``workers`` calls; returns the kept papers in input order.

    The embedding batches are the gateway's cut of the texts missing from
    its cache (:meth:`Gateway.embed_batches`), and each is the coarse filter
    of its papers; the papers whose texts are cached are filtered at once by
    their cached vectors. The rerank batches are the papers that pass, in
    input order, cut every ``judge_batch_size``: each is queued behind the
    embedding batches as soon as every paper up to its last one has been
    filtered, and the papers it keeps go on ``feed`` under its index as soon
    as it is judged. So the calls are the serial run's, at one worker in
    the same order (the embedding batches, then the rerank batches), and a
    failure raises the serial run's error. Each rerank batch logs apart, and
    the logs join ``runlog`` in batch order.
    """
    cached, batches = gateway.embed_batches([p.search_text() for p in papers])
    passed: list[Optional[bool]] = [None] * len(papers)
    landed = threading.Condition()
    known = 0  # papers[:known] are all filtered
    failed = False

    def land(indices: list[int], kept: list[PaperRecord]) -> None:
        nonlocal known
        ids = {p.id.canonical for p in kept}
        with landed:
            for i in indices:
                passed[i] = papers[i].id.canonical in ids
            while known < len(papers) and passed[known] is not None:
                known += 1
            landed.notify_all()

    def gate(indices: list[int]) -> None:
        nonlocal failed
        try:
            kept = coarse_filter([papers[i] for i in indices], topic, cfg, gateway)
        except BaseException:
            with landed:
                failed = True
                landed.notify_all()
            raise
        land(indices, kept)

    if cached:
        hits = sorted(cached)
        topic_vec = gateway.embed([topic])[0]
        land(hits, _passing([papers[i] for i in hits], [cached[i] for i in hits], topic_vec, cfg))

    def passing():
        cursor = 0
        while cursor < len(papers):
            with landed:
                landed.wait_for(lambda: known > cursor or failed)
                if failed:
                    return
                upto = known
            yield from (papers[i] for i in range(cursor, upto) if passed[i])
            cursor = upto

    logs: list[RunLog] = []

    def judge(index: int, batch: list[PaperRecord]) -> list[PaperRecord]:
        kept = llm_rerank_filter(batch, topic, gateway, cfg, logs[index])
        if feed is not None:
            feed.put(index, kept)
        return kept

    def reranks():
        for index, batch in enumerate(batched(passing(), cfg.judge_batch_size)):
            logs.append(RunLog())
            yield partial(judge, index, batch)

    calls = itertools.chain((partial(gate, [i for i, _ in b]) for b in batches), reranks())
    results = map_bounded(lambda call: call(), calls, workers)
    for log in logs:
        runlog.events.extend(log.events)
    return [p for kept in results[len(batches):] for p in kept]


def run_retrieval(
    topic: str,
    cfg: RetrievalConfig,
    source: PaperSource,
    gateway: Gateway,
    fallback: Optional[PaperSource] = None,
    runlog: Optional[RunLog] = None,
    workers: int = 1,
    feed: Optional[Feed] = None,
) -> list[PaperRecord]:
    """Full Stage-1 pass; deterministic for a fixed source and judge, and
    the same at every ``workers`` width (the graph fetches, embedding
    batches and rerank batches fan out and merge in order).

    The topic's embedding needs only the topic, so it is sent beside the
    seed search, the seed judge and the graph expansion. The coarse filter
    and the rerank then run as one fan-out (:func:`_hybrid_filter`), which
    puts the papers each rerank batch keeps on ``feed`` under the batch's
    index as soon as it is judged.

    When the primary source failed the seed search, the seeds come from the
    fallback and the primary is not asked for their links: the evidence set
    is the judged seeds, and ``expansion_skipped`` is logged. When no paper
    passes the filters, RetrievalError is raised rather than an empty
    evidence set returned for the later stages to trip over.
    """
    runlog = runlog or RunLog()

    def collect() -> list[PaperRecord]:
        seeds, primary_failed = _seed_pool(topic, cfg, source, fallback, runlog)
        seeds = judge_filter(seeds, topic, gateway, cfg, runlog)
        if primary_failed:
            runlog.add("expansion_skipped", topic=topic, reason="primary source failed")
            return seeds
        return expand_graph(seeds, cfg, source, runlog, workers)

    expanded, _ = map_bounded(
        lambda call: call(), [collect, lambda: gateway.embed([topic])], workers
    )
    kept = _hybrid_filter(expanded, topic, cfg, gateway, runlog, workers, feed)
    if not kept:
        raise RetrievalError(f"no paper on '{topic}' passed the retrieval filters")
    return kept
