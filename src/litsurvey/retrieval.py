"""Stage 1: seed search, judge filtering, bidirectional citation-graph
expansion and two-stage hybrid filtering.

The output is the evidence paper set: structurally connected through the
citation graph yet kept on-topic by a coarse embedding filter followed by
judge re-ranking.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import JudgeError, RetrievalError, SourceUnavailableError, SurveyError
from .fanout import Feed, Pull, map_bounded
from .gateway import Gateway, batched, cosine, extract_json_payload, request_validated
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

    Each hop fetches each frontier paper's citations, then its references,
    up to ``workers`` at once as slots free (:class:`_Expansion`). A
    paper's references wait for its citations to come back unrefused and
    then go out ``workers`` places after them in frontier order, so that
    the last paper's references do not run alone at the end. The answers
    merge in frontier order, so the result is the same at every width. Per
    expanded paper at most ``per_seed_cap`` neighbors are retained, ranked
    by :func:`neighbor_priority`. New papers are appended in sorted id
    order. A neighbor fetch that still fails after the source's own retries
    raises RetrievalError naming the first such paper in frontier order, as
    a 1-worker run would (once a fetch has failed, only fetches before it in
    that order start), rather than leaving the evidence set short of its
    neighbors; a resume asks again. A fetch the source refuses for good
    (say, a paper it does not know) leaves that paper without neighbors,
    and its references unasked, logged as ``neighbor_fetch_refused`` in
    frontier order, since asking again would not help.
    """
    runlog = runlog or RunLog()
    return _Expansion(seeds, cfg, source, runlog, workers, cfg.expansion_depth, Feed()).run()


def _canonical(record: PaperRecord) -> str:
    return record.id.canonical


class _Expansion:
    """The graph expansion of :func:`expand_graph` as the calls of one
    :class:`Pull` of ``workers`` slots, which a subclass joins its own
    calls to through :meth:`joined` and :meth:`ended`.

    The papers found join a stream: first the seeds, then each frontier
    paper's new neighbors, in id order, once its fetches and those of
    every paper before it in frontier order have merged. :meth:`ended`
    follows the last merge. Each call's rank is a tuple, and every call
    ranks after the calls it waits for, so the Pull fails with the
    lowest-ranked failure, the 1-worker run's, at every width:

    - ``(hop, at, kind)``: the citations (kind 0) or the references (1) of
      paper ``at`` of hop ``hop``'s frontier;
    - ``(hop, at, 2, -1)``: the merge of that paper's neighbors; the seeds
      join as the merge of paper -1 of hop 0.

    No call starts once ``feed``, the feed the stage fills, is aborted.
    """

    def __init__(
        self, seeds, cfg: RetrievalConfig, source, runlog: RunLog, workers: int, depth: int,
        feed: Feed,
    ):
        self.cfg, self.source, self.runlog = cfg, source, runlog
        self.workers, self.depth, self.feed = workers, depth, feed
        self.found = list(seeds)  # the seeds, then each hop's new papers in id order
        self.collected = {p.id.canonical for p in seeds}
        self.lock = threading.Lock()  # held by each merge, and the hooks it calls
        self.pull = Pull(lambda rank, call: call(), (), self._key, feed=feed)

    def _key(self, rank: tuple) -> tuple:
        """The order calls go out in: a fetch by its paper's place in the
        frontier, the references ``workers`` places after the citations,
        and the stream's calls ahead of the fetches for later papers."""
        if len(rank) == 3:
            hop, at, kind = rank
            return hop, at + kind * self.workers
        return rank

    def run(self) -> list[PaperRecord]:
        with self.lock:
            merge = (0, -1, 2, -1)
            self.joined(merge, list(self.found))
            self._hop(0, list(self.found), merge)
        self.pull.run(self.workers)
        return self.found

    def joined(self, merge: tuple, papers: list[PaperRecord]) -> None:
        """``papers`` join the stream at the merge ranked ``merge``."""

    def ended(self, merge: tuple) -> None:
        """The stream ended with the merge ranked ``merge``."""

    def _push(self, rank: tuple, fn: Callable, *args) -> None:
        self.pull.push(rank, functools.partial(fn, rank, *args))

    def _hop(self, hop: int, frontier: list[PaperRecord], last: tuple) -> None:
        """Fetch the neighbors of ``frontier``, or end the stream after the
        merge ranked ``last``."""
        if hop == self.depth or not frontier:
            return self.ended(last)
        self.frontier, self.merged = frontier, 0
        self.fetched: list = [None] * len(frontier)  # neighbors, or a refusal
        self.discovered: list[PaperRecord] = []
        for at, paper in enumerate(frontier):
            self._push((hop, at, 0), self._fetch, paper, [])

    def _fetch(self, rank: tuple, paper: PaperRecord, cited: list[PaperRecord]) -> None:
        hop, at, kind = rank
        limit = self.cfg.per_seed_cap * 2
        try:
            if kind:
                neighbors = cited + self.source.references(paper.id, limit)
            else:
                neighbors = self.source.citations(paper.id, limit)
        except SourceUnavailableError as exc:
            raise RetrievalError(
                f"neighbor fetch for paper '{paper.id.canonical}' failed: {exc}"
            ) from exc
        except SurveyError as exc:
            neighbors = exc
        if not kind and not isinstance(neighbors, SurveyError):
            return self._push((hop, at, 1), self._fetch, paper, neighbors)
        with self.lock:
            self.fetched[at] = neighbors
            while self.merged < len(self.frontier) and self.fetched[self.merged] is not None:
                self._merge(hop, self.merged)
                self.merged += 1
            if self.merged == len(self.frontier):
                self.discovered.sort(key=_canonical)
                self.found.extend(self.discovered)
                self._hop(hop + 1, self.discovered, (hop, self.merged - 1, 2, -1))

    def _merge(self, hop: int, at: int) -> None:
        paper, neighbors = self.frontier[at], self.fetched[at]
        new: list[PaperRecord] = []
        if isinstance(neighbors, SurveyError):
            self.runlog.add(
                "neighbor_fetch_refused", paper=paper.id.canonical, error=str(neighbors)
            )
        else:
            unique: dict[str, PaperRecord] = {}
            for n in neighbors:
                unique.setdefault(n.id.canonical, n)
            ranked = sorted(unique.values(), key=neighbor_priority)[: self.cfg.per_seed_cap]
            new = [n for n in ranked if n.id.canonical not in self.collected]
            new.sort(key=_canonical)
            self.collected.update(map(_canonical, new))
            self.discovered += new
        self.joined((hop, at, 2, -1), new)


def coarse_filter(
    papers: list[PaperRecord],
    topic_vec: list[float],
    cfg: RetrievalConfig,
    gateway: Gateway,
) -> list[PaperRecord]:
    """High-recall semantic gate: cosine(title+abstract, topic) >= threshold.

    ``topic_vec`` is the topic's embedding, which :func:`run_retrieval`
    makes once per run. The papers go out as one batch sent without a
    cache lookup (:meth:`Gateway.embed_batch`): :func:`run_retrieval` runs
    this once per embedding batch, whose texts it has already found
    missing from the cache (see :class:`_Streamed`).
    """
    if not papers:
        return []
    vectors = gateway.embed_batch([p.search_text() for p in papers])
    return [p for p, v in zip(papers, vectors) if _passes(v, topic_vec, cfg)]


def _passes(vector: list[float], topic_vec: list[float], cfg: RetrievalConfig) -> bool:
    return cosine(vector, topic_vec) >= cfg.coarse_similarity_threshold


def llm_rerank_filter(
    papers: list[PaperRecord],
    topic: str,
    gateway: Gateway,
    cfg: Optional[RetrievalConfig] = None,
    runlog: Optional[RunLog] = None,
) -> list[PaperRecord]:
    """Fine-grained judge pass removing topically irrelevant papers; every
    retained paper gets its relevance note logged. :func:`run_retrieval`
    runs it once per judge batch (see :class:`_Streamed`)."""
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


class _Streamed(_Expansion):
    """The expansion with the hybrid filter in its Pull, each filter call
    going out once the papers it reads have joined the stream or been
    filtered.

    A paper whose text is cached is filtered by its cached vector as it
    joins. The other texts are cut into embedding batches of the gateway's
    ``embed_batch_size`` in stream order as the batches fill, each the
    coarse filter of its papers; the papers that pass, into rerank batches
    of ``judge_batch_size``, each once every paper up to its last one is
    filtered. The last batches are cut once the stream has ended, so the
    batches, and so their counts, are the same at every width. The papers
    a rerank batch keeps go on ``feed`` under its index once it is judged,
    and their ids into ``kept``; it logs into ``logs[index]``. Ranks,
    beside those of :class:`_Expansion`: ``(hop, at, 2, b)`` for embedding
    batch ``b``, filled at that merge; for rerank batch ``j``, the highest
    rank its papers were filtered under, plus ``(j,)``, so that it goes out
    ahead of the embedding batches still queued.
    """

    def __init__(self, seeds, cfg, source, runlog, workers, depth, topic, topic_vec, gateway, feed):
        super().__init__(seeds, cfg, source, runlog, workers, depth, feed)
        self.topic, self.topic_vec, self.gateway = topic, topic_vec, gateway
        self.stream: list[PaperRecord] = []
        self.filtered: list[Optional[tuple]] = []  # by stream place: (passed, rank filtered by)
        self.missing: list[int] = []  # the places of uncached texts in no batch yet
        self.asked: set[str] = set()  # every uncached text, so that a repeat is not looked up
        self.batches = 0
        self.known, self.since = 0, ()  # stream[:known] are filtered; their highest rank
        self.passing: list[tuple] = []  # (paper, since) of those passed, in no rerank batch yet
        self.end: Optional[tuple] = None
        self.logs: list[RunLog] = []
        self.kept: set[str] = set()

    def joined(self, merge, papers):
        for paper in papers:
            text = paper.search_text()
            vector = None if text in self.asked else self.gateway.cached_embedding(text)
            if vector is None:
                self.asked.add(text)
                self.missing.append(len(self.stream))
                self.filtered.append(None)
            else:
                self.filtered.append((_passes(vector, self.topic_vec, self.cfg), merge))
            self.stream.append(paper)
        self._cut(merge)

    def ended(self, merge):
        self.end = merge
        self._cut(merge)

    def _cut(self, merge: tuple) -> None:
        size = self.gateway.embed_batch_size
        while len(self.missing) >= size or self.missing and self.end is not None:
            places = self.missing[:size]
            del self.missing[:size]
            self._push(merge[:3] + (self.batches,), self._embed, places)
            self.batches += 1
        self._cut_reranks()

    def _cut_reranks(self) -> None:
        while self.known < len(self.stream) and self.filtered[self.known] is not None:
            passed, rank = self.filtered[self.known]
            self.since = max(self.since, rank)
            if passed:
                self.passing.append((self.stream[self.known], self.since))
            self.known += 1
        size = self.cfg.judge_batch_size
        done = self.end is not None and self.known == len(self.stream)
        while len(self.passing) >= size or self.passing and done:
            batch = self.passing[:size]
            del self.passing[:size]
            after = batch[-1][1] if len(batch) == size else max(self.since, self.end)
            self.logs.append(RunLog())  # before the push: the batch may start at once
            self._push(after + (len(self.logs) - 1,), self._rerank, [p for p, _ in batch])

    def _embed(self, rank: tuple, places: list[int]) -> None:
        papers = [self.stream[i] for i in places]
        passed = set(map(_canonical, coarse_filter(papers, self.topic_vec, self.cfg, self.gateway)))
        with self.lock:
            for i, paper in zip(places, papers):
                self.filtered[i] = (paper.id.canonical in passed, rank)
            self._cut_reranks()

    def _rerank(self, rank: tuple, papers: list[PaperRecord]) -> None:
        index = rank[-1]
        kept = llm_rerank_filter(papers, self.topic, self.gateway, self.cfg, self.logs[index])
        self.feed.put(index, kept)
        with self.lock:
            self.kept.update(map(_canonical, kept))


def run_retrieval(
    topic: str,
    cfg: RetrievalConfig,
    source: PaperSource,
    gateway: Gateway,
    feed: Feed,
    fallback: Optional[PaperSource] = None,
    runlog: Optional[RunLog] = None,
    workers: int = 1,
) -> list[PaperRecord]:
    """Full Stage-1 pass; deterministic for a fixed source and judge, and
    the same at every ``workers`` width.

    The topic's embedding needs only the topic, so it is made once, beside
    the seed search and the seed judge. Then the graph fetches, the
    embedding batches and the rerank batches run as one fan-out of at most
    ``workers`` calls (:class:`_Streamed`), each call going out as soon as
    its inputs are ready: a paper's neighbors are filtered while the
    neighbors of later papers are still being fetched. The papers each
    rerank batch keeps go on ``feed``, which understanding reads, under the
    batch's index as soon as it is judged. The fan-out pulls its calls as
    slots free and fails with the 1-worker run's error. The kept papers
    come back in the order of :func:`expand_graph`: the seeds, then each
    hop's new papers in id order.

    When the primary source failed the seed search, the seeds come from the
    fallback and the primary is not asked for their links: the evidence set
    is the judged seeds, and ``expansion_skipped`` is logged. When no paper
    passes the filters, RetrievalError is raised rather than an empty
    evidence set returned for the later stages to trip over.
    """
    runlog = runlog or RunLog()

    def judged_seeds() -> tuple[list[PaperRecord], bool]:
        seeds, primary_failed = _seed_pool(topic, cfg, source, fallback, runlog)
        seeds = judge_filter(seeds, topic, gateway, cfg, runlog)
        if primary_failed:
            runlog.add("expansion_skipped", topic=topic, reason="primary source failed")
        return seeds, primary_failed

    (seeds, primary_failed), topic_vec = map_bounded(
        lambda call: call(), [judged_seeds, lambda: gateway.embed([topic])[0]], workers
    )
    depth = 0 if primary_failed else cfg.expansion_depth
    streamed = _Streamed(
        seeds, cfg, source, runlog, workers, depth, topic, topic_vec, gateway, feed
    )
    found = streamed.run()
    for log in streamed.logs:
        runlog.events.extend(log.events)
    kept = [p for p in found if p.id.canonical in streamed.kept]
    if not kept:
        raise RetrievalError(f"no paper on '{topic}' passed the retrieval filters")
    return kept
