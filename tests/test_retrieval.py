from __future__ import annotations

import json
import sys
import threading
from collections import Counter

import pytest
import requests

from litsurvey.caching import DiskCache
from litsurvey.errors import BackendError, JudgeError, RetrievalError, SourceUnavailableError
from litsurvey.fanout import Feed
from litsurvey.gateway import TransportResponse, cosine
from litsurvey.model import PaperRecord
from litsurvey.retrieval import (
    RetrievalConfig,
    coarse_filter,
    expand_graph,
    judge_filter,
    llm_rerank_filter,
    neighbor_priority,
    run_retrieval,
    search_seeds,
)
from litsurvey.runlog import RunLog
from litsurvey.scripted import ScriptedTransport
from litsurvey.sources import AcademicGraphSource, CachedSource, FixtureSource

from conftest import CountingSource, make_paper, scripted_gateway
from doubles import FixtureEmbedder


def accept_all_judge() -> ScriptedTransport:
    """Scripted judge that accepts every listed paper, any batch size."""

    class _Transport(ScriptedTransport):
        def send(self, request):
            self.calls.append(request)
            ids = [
                line.split("|")[0].split("id:")[1].strip()
                for line in request.prompt.splitlines()
                if line.startswith("- id:")
            ]
            verdicts = [
                {"paper_id": i, "relevant": True, "note": f"on-topic: {i}"} for i in ids
            ]
            from litsurvey.gateway import TransportResponse

            return TransportResponse(200, json.dumps(verdicts))

    return _Transport()


def reject_judge(rejected: set[str]) -> ScriptedTransport:
    class _Transport(ScriptedTransport):
        def send(self, request):
            self.calls.append(request)
            ids = [
                line.split("|")[0].split("id:")[1].strip()
                for line in request.prompt.splitlines()
                if line.startswith("- id:")
            ]
            verdicts = [
                {"paper_id": i, "relevant": i not in rejected, "note": "n"} for i in ids
            ]
            from litsurvey.gateway import TransportResponse

            return TransportResponse(200, json.dumps(verdicts))

    return _Transport()


class TestSearchSeeds:
    def test_forty_hits_truncate_to_fifteen(self):
        records = [make_paper(f"s{i:02d}") for i in range(40)]
        source = FixtureSource(records)
        seeds = search_seeds("topic", RetrievalConfig(), source)
        assert len(seeds) == 15

    def test_under_cap_passthrough(self):
        source = FixtureSource([make_paper(f"s{i}") for i in range(3)])
        seeds = search_seeds("topic", RetrievalConfig(), source)
        assert len(seeds) == 3

    def test_fallback_source_used_on_failure(self):
        primary = CountingSource(FixtureSource([]), failures=1)
        fallback = FixtureSource([make_paper(f"f{i}") for i in range(5)])
        runlog = RunLog()
        seeds = search_seeds("topic", RetrievalConfig(), primary, fallback, runlog=runlog)
        assert len(seeds) == 5
        assert runlog.of_kind("fallback_source_used")

    def test_failure_without_fallback_raises(self):
        with pytest.raises(RetrievalError):
            search_seeds("topic", RetrievalConfig(), CountingSource(FixtureSource([]), failures=1))

    def test_duplicates_across_hits_removed(self):
        p = make_paper("dup")
        source = FixtureSource([p], search_results={"topic": ["dup", "dup"]})
        assert len(search_seeds("topic", RetrievalConfig(), source)) == 1


class TestJudgeFilter:
    def test_accept_all_is_identity(self, papers):
        candidates = list(papers.values())
        gw = scripted_gateway(accept_all_judge())
        assert judge_filter(candidates, "t", gw) == candidates

    def test_rejection_preserves_order_of_rest(self, papers):
        candidates = list(papers.values())
        gw = scripted_gateway(reject_judge({"p2"}))
        kept = judge_filter(candidates, "t", gw)
        assert [p.id.canonical for p in kept] == [
            p.id.canonical for p in candidates if p.id.canonical != "p2"
        ]

    def test_unparsable_then_valid_takes_two_calls(self, papers):
        candidates = [papers["p1"]]
        good = json.dumps([{"paper_id": "p1", "relevant": True, "note": "n"}])
        transport = ScriptedTransport().add("Judge topical alignment", "garbage", good)
        gw = scripted_gateway(transport)
        kept = judge_filter(candidates, "t", gw)
        assert [p.id.canonical for p in kept] == ["p1"]
        assert len(transport.calls) == 2

    def test_persistently_malformed_raises_judge_error(self, papers):
        transport = ScriptedTransport(default="garbage forever")
        gw = scripted_gateway(transport)
        with pytest.raises(JudgeError):
            judge_filter([papers["p1"]], "t", gw)


class TestExpandGraph:
    def test_depth_zero_returns_exactly_the_seeds(self, papers):
        source = FixtureSource(list(papers.values()))
        seeds = [papers["p1"]]
        out = expand_graph(seeds, RetrievalConfig(expansion_depth=0), source)
        assert out == seeds

    def test_expansion_matches_brute_force_union_under_cap(self, papers):
        source = FixtureSource(list(papers.values()))
        seeds = [papers["p1"], papers["p2"]]
        out = expand_graph(seeds, RetrievalConfig(expansion_depth=1, per_seed_cap=20), source)
        got = {p.id.canonical for p in out}
        expected = {p.id.canonical for p in seeds}
        for seed in seeds:
            expected |= {
                n.id.canonical
                for n in source.citations(seed.id, 100) + source.references(seed.id, 100)
            }
        assert got == expected
        assert len(out) == len(got), "no paper appears twice"

    def test_seed_with_twelve_neighbors_cap_twenty_keeps_all(self):
        neighbors_in = [f"in{i}" for i in range(7)]
        neighbors_out = [f"out{i}" for i in range(5)]
        hub = make_paper("hub", in_cits=neighbors_in, out_cits=neighbors_out)
        records = [hub] + [make_paper(k) for k in neighbors_in + neighbors_out]
        source = FixtureSource(records)
        out = expand_graph([hub], RetrievalConfig(), source)
        assert len(out) == 13  # hub + all 12 neighbors

    def test_thirty_neighbors_cap_twenty_keeps_highest_priority(self):
        neighbor_keys = [f"n{i:02d}" for i in range(30)]
        hub = make_paper("hub", out_cits=neighbor_keys)
        # Give each neighbor i in-citations so priority is n29 > n28 > ...
        neighbors = [
            make_paper(k, in_cits=[f"x{j}" for j in range(i)])
            for i, k in enumerate(neighbor_keys)
        ]
        source = FixtureSource([hub] + neighbors)
        out = expand_graph([hub], RetrievalConfig(per_seed_cap=20), source)
        kept = {p.id.canonical for p in out} - {"hub"}
        expected = set(
            sorted(neighbor_keys, key=lambda k: neighbor_priority(source.records[k]))[:20]
        )
        assert len(kept) == 20
        assert kept == expected
        # citation-count-descending means the 10 least-cited papers fall out
        assert kept == {f"n{i:02d}" for i in range(10, 30)}

    def test_raising_cap_never_drops_a_paper(self):
        neighbor_keys = [f"n{i:02d}" for i in range(30)]
        hub = make_paper("hub", out_cits=neighbor_keys)
        neighbors = [
            make_paper(k, in_cits=[f"x{j}" for j in range(i)])
            for i, k in enumerate(neighbor_keys)
        ]
        source = FixtureSource([hub] + neighbors)
        small = {
            p.id.canonical
            for p in expand_graph([hub], RetrievalConfig(per_seed_cap=10), source)
        }
        large = {
            p.id.canonical
            for p in expand_graph([hub], RetrievalConfig(per_seed_cap=20), source)
        }
        assert small <= large

    def test_unavailable_neighbor_fetch_raises_naming_the_paper(self, papers):
        source = CountingSource(FixtureSource(list(papers.values())), failures=1, failing="references")
        with pytest.raises(RetrievalError, match="neighbor fetch for paper 'p1' failed"):
            expand_graph([papers["p1"], papers["p2"]], RetrievalConfig(), source)

    def test_paper_the_graph_does_not_know_has_no_neighbors(self, monkeypatch):
        requested: list[str] = []

        class Reply:
            def __init__(self, status_code, doc=None):
                self.status_code, self.doc = status_code, doc

            def json(self):
                return self.doc

        def fake_get(url, **kwargs):
            requested.append(url)
            if "arXiv:ghost" in url:
                return Reply(404)
            edge = "citingPaper" if url.endswith("/citations") else "citedPaper"
            name = url.rsplit("/", 2)[-2].removeprefix("arXiv:") + "-" + edge
            return Reply(200, {"data": [{edge: {"paperId": name, "title": name}}]})

        monkeypatch.setattr(requests, "get", fake_get)
        source = AcademicGraphSource("http://graph", sleeper=lambda _: None)
        runlog = RunLog()
        out = expand_graph([make_paper("known"), make_paper("ghost")], RetrievalConfig(), source, runlog)
        assert [p.id.canonical for p in out] == [
            "known", "ghost", "known-citedPaper", "known-citingPaper",
        ]
        assert [e["paper"] for e in runlog.of_kind("neighbor_fetch_refused")] == ["ghost"]
        assert len(requested) == 3, "a refused fetch is not retried"

    def test_cap_keeps_the_neighbor_the_graph_counts_most_cited(self, monkeypatch):
        # Graph records link no citing papers, so only the API's
        # citationCount can rank them; "a-rare" sorts first by id.
        class Reply:
            status_code = 200

            def __init__(self, doc):
                self.doc = doc

            def json(self):
                return self.doc

        def fake_get(url, **kwargs):
            if url.endswith("/references"):
                return Reply({"data": []})
            found = [
                {"paperId": "a-rare", "title": "rare", "citationCount": 5},
                {"paperId": "b-famous", "title": "famous", "citationCount": 900},
            ]
            return Reply({"data": [{"citingPaper": item} for item in found]})

        monkeypatch.setattr(requests, "get", fake_get)
        source = AcademicGraphSource("http://graph", sleeper=lambda _: None)
        out = expand_graph([make_paper("seed")], RetrievalConfig(per_seed_cap=1), source)
        assert [p.id.canonical for p in out] == ["seed", "b-famous"]
        assert [p.citation_count for p in out[1:]] == [900]


class TestParallelExpansion:
    def test_rate_limited_graph_gives_the_serial_evidence_set(self, monkeypatch):
        """Every known URL answers 429 once and then 200; the two unknown
        papers answer 404. Two hops fan out at 8 workers as at 1."""
        seeds = ["s0", "ghost-b", "s1", "s2", "s3", "s4", "s5", "ghost-a"]

        class Reply:
            headers: dict = {}

            def __init__(self, status_code, doc=None):
                self.status_code, self.doc = status_code, doc

            def json(self):
                return self.doc

        def run(workers: int):
            requested: Counter = Counter()
            lock = threading.Lock()

            def fake_get(url, **kwargs):
                with lock:
                    requested[url] += 1
                    first = requested[url] == 1
                if "/ghost-" in url:
                    return Reply(404)
                if first:
                    return Reply(429)
                if url.endswith("/paper/search"):
                    return Reply(200, {"data": [{"paperId": k, "title": k} for k in seeds]})
                subject = url.rsplit("/", 2)[-2]
                edge = "citingPaper" if url.endswith("/citations") else "citedPaper"
                found = [
                    {"paperId": n, "title": n, "citationCount": len(n) % 5}
                    for n in (f"{subject}-{edge[:5]}{j}" for j in range(3))
                ]
                # Every paper links the hub, each under its own title: the
                # first in frontier order must win.
                found.append({"paperId": "hub", "title": f"hub via {subject}"})
                return Reply(200, {"data": [{edge: item} for item in found]})

            monkeypatch.setattr(requests, "get", fake_get)
            gateway = scripted_gateway(accept_all_judge())
            graph = AcademicGraphSource("http://graph", sleeper=lambda _: None)
            source = CachedSource(graph, gateway, "academic-graph http://graph")
            runlog = RunLog()
            cfg = RetrievalConfig(expansion_depth=2, coarse_similarity_threshold=-1.0)
            papers = run_retrieval(
                "topic", cfg, source, gateway, Feed(), runlog=runlog, workers=workers
            )
            return [p.to_dict() for p in papers], runlog.of_kind("neighbor_fetch_refused"), requested

        serial_papers, serial_refused, serial_requested = run(1)
        papers, refused, requested = run(8)
        assert papers == serial_papers
        assert refused == serial_refused
        assert [e["paper"] for e in refused] == ["ghost-b", "ghost-a"]
        assert requested == serial_requested
        known = {url: n for url, n in requested.items() if "/ghost-" not in url}
        assert len(known) > 50 and set(known.values()) == {2}
        assert requested["http://graph/paper/ghost-a/citations"] == 1
        [hub] = [p for p in papers if p["id"]["canonical"] == "hub"]
        assert hub["title"] == "hub via s0"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_paper_s_references_go_out_workers_places_after_its_citations(self, workers):
        # Every fetch waits until ``workers`` fetches are in flight, so they
        # go out in rounds of ``workers``, and the barrier breaks if the
        # last paper's references run alone.
        seeds = [make_paper(f"q{i}", in_cits=[f"n{i}"], out_cits=[f"m{i}"]) for i in range(4)]
        inner = FixtureSource(seeds + [make_paper(f"{k}{i}") for i in range(4) for k in "nm"])
        barrier = threading.Barrier(workers, timeout=10)
        sent: list[str] = []

        class Source:
            def citations(self, paper_id, limit):
                sent.append(f"c{paper_id.canonical[1:]}")
                barrier.wait()
                return inner.citations(paper_id, limit)

            def references(self, paper_id, limit):
                sent.append(f"r{paper_id.canonical[1:]}")
                barrier.wait()
                return inner.references(paper_id, limit)

        out = expand_graph(seeds, RetrievalConfig(), Source(), workers=workers)
        assert len(out) == 12
        rounds = [set(sent[at: at + workers]) for at in range(0, len(sent), workers)]
        assert rounds == {
            1: [{"c0"}, {"r0"}, {"c1"}, {"r1"}, {"c2"}, {"r2"}, {"c3"}, {"r3"}],
            2: [{"c0", "c1"}, {"r0", "c2"}, {"r1", "c3"}, {"r2", "r3"}],
        }[workers]


class TestOneWorkerErrors:
    """The graph fetches and the hybrid filter's calls are pulled as slots
    free, and fail with the error of the 1-worker run."""

    @pytest.mark.parametrize("workers", [1, 4])
    def test_the_first_unavailable_fetch_in_frontier_order_is_named(self, workers):
        # At four workers paper q3's citations are held until q5's have
        # failed, so q3's references, before them in frontier order, start
        # after that failure and fail too.
        seeds = [make_paper(f"q{i}", in_cits=[f"n{i}"], out_cits=[f"m{i}"]) for i in range(7)]
        inner = FixtureSource(seeds + [make_paper(f"{k}{i}") for i in range(7) for k in "nm"])
        q5_failed = threading.Event()

        class Source:
            def citations(self, paper_id, limit):
                if paper_id.canonical == "q5":
                    q5_failed.set()
                    raise SourceUnavailableError("citations of q5 unavailable")
                if paper_id.canonical == "q3" and workers > 1:
                    assert q5_failed.wait(timeout=10)
                return inner.citations(paper_id, limit)

            def references(self, paper_id, limit):
                if paper_id.canonical == "q3":
                    raise SourceUnavailableError("references of q3 unavailable")
                return inner.references(paper_id, limit)

        with pytest.raises(RetrievalError, match="paper 'q3' failed: references of q3"):
            expand_graph(seeds, RetrievalConfig(), Source(), workers=workers)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_a_refused_first_rerank_batch_outranks_a_later_embedding_failure(
        self, papers, workers
    ):
        # Six papers, two per embedding and per rerank batch. Embedding
        # batch 2 fails; at four workers batch 0 lands only after that, and
        # rerank batch 0, which a 1-worker run sends before batch 1, still
        # goes out and is refused.
        source = FixtureSource(list(papers.values()), search_results={"topic": ["p1", "p2"]})
        judge = accept_all_judge()
        send = judge.send

        def refusing_send(request):
            if "(rerank)" in request.prompt and "- id: p1 " in request.prompt:
                return TransportResponse(400, "refused")
            return send(request)

        judge.send = refusing_send
        embedder = FixtureEmbedder()
        encode, batch_2_failed = embedder.encode, threading.Event()

        def failing_encode(texts):
            if papers["p5"].search_text() in texts:
                batch_2_failed.set()
                raise BackendError("embedding backend down")
            if papers["p1"].search_text() in texts and workers > 1:
                assert batch_2_failed.wait(timeout=10)
            return encode(texts)

        embedder.encode = failing_encode
        gw = scripted_gateway(judge, embedder=embedder, embed_batch_size=2)
        cfg = RetrievalConfig(coarse_similarity_threshold=-1.0, judge_batch_size=2)
        with pytest.raises(BackendError, match="status 400"):
            run_retrieval("topic", cfg, source, gw, Feed(), workers=workers)


class TestStreamedRetrieval:
    """The graph fetches, the embedding batches and the rerank batches are
    one fan-out, cut in stream order: the batches, the requests, the kept
    papers and the log are those of the 1-worker run at every width."""

    SEEDS = ["s0", "s1", "s2"]

    @classmethod
    def _source(cls) -> FixtureSource:
        # Five new neighbors per seed, so that batches of 3 texts and of 2
        # papers end inside one seed's neighbors; s1 also cites a00, which
        # s0 found first. At depth 2, each a paper and the first two b
        # papers of each seed have one new neighbor more.
        records = []
        for k in range(3):
            cites = [f"b{k}{j}" for j in range(3)] + (["a00"] if k == 1 else [])
            citing = [f"a{k}{j}" for j in range(2)]
            records.append(make_paper(f"s{k}", in_cits=citing, out_cits=cites))
            for j in range(2):
                records.append(make_paper(f"a{k}{j}", in_cits=[f"d{k}{j}"], out_cits=[f"s{k}"]))
                records.append(make_paper(f"d{k}{j}", out_cits=[f"a{k}{j}"]))
                records.append(make_paper(f"e{k}{j}", in_cits=[f"b{k}{j}"]))
            for j in range(3):
                more = [f"e{k}{j}"] if j < 2 else []
                records.append(make_paper(f"b{k}{j}", in_cits=[f"s{k}"], out_cits=more))
        return FixtureSource(records, search_results={"topic": cls.SEEDS})

    @staticmethod
    def _cfg(depth: int) -> RetrievalConfig:
        return RetrievalConfig(
            expansion_depth=depth, coarse_similarity_threshold=0.0, judge_batch_size=2
        )

    @staticmethod
    def _warm(cache_dir: str, source: FixtureSource) -> set[str]:
        """Cache the topic's vector and those of a third of the papers;
        returns their ids."""
        cached = {k for at, k in enumerate(sorted(source.records)) if at % 3 == 0}
        texts = ["topic"] + [source.records[k].search_text() for k in sorted(cached)]
        scripted_gateway(cache_dir=cache_dir).embed(texts)
        return cached

    def _run(self, tmp_path, depth: int, workers: int, judge=None):
        source = self._source()
        cache_dir = str(tmp_path / f"depth{depth}-workers{workers}")
        cached = self._warm(cache_dir, source)
        embedder, judge = FixtureEmbedder(), judge or reject_judge({"b01", "b11", "d10"})
        gw = scripted_gateway(judge, embedder=embedder, cache_dir=cache_dir, embed_batch_size=3)
        runlog = RunLog()
        cfg = self._cfg(depth)
        papers = run_retrieval("topic", cfg, source, gw, Feed(), runlog=runlog, workers=workers)
        return [p.to_dict() for p in papers], runlog.events, judge.calls, embedder, cached

    def _expected(self, depth: int) -> tuple[list[PaperRecord], list[PaperRecord]]:
        """Every paper the expansion finds, and those that pass the coarse
        filter, in the order ``run_retrieval`` returns them."""
        source = self._source()
        found = expand_graph([source.records[k] for k in self.SEEDS], self._cfg(depth), source)
        gw = scripted_gateway()
        topic_vec = gw.embed(["topic"])[0]
        vectors = gw.embed([p.search_text() for p in found])
        return found, [p for p, v in zip(found, vectors) if cosine(v, topic_vec) >= 0.0]

    @pytest.mark.parametrize("depth", [1, 2])
    def test_every_width_sends_the_serial_batches_and_keeps_its_papers(self, tmp_path, depth):
        found, passing = self._expected(depth)
        assert 0 < len(passing) < len(found)
        serial = None
        for workers in (1, 2, 8):
            # A short switch interval makes a lost update of the stream show.
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                papers, events, calls, embedder, cached = self._run(tmp_path, depth, workers)
            finally:
                sys.setswitchinterval(interval)
            requests = Counter((c.tag, c.prompt) for c in calls)
            missing = [p for p in found if p.id.canonical not in cached]
            assert embedder.calls == -(-len(missing) // 3)
            assert sum(c.tag == "retrieval.rerank" for c in calls) == -(-len(passing) // 2)
            if serial is None:
                serial = papers, events, requests
                assert 0 < len(papers) < len(passing)
            assert (papers, events, requests) == serial, f"{workers} workers"

    @pytest.mark.parametrize("workers", [1, 4])
    def test_a_failing_rerank_batch_raises_the_serial_error(self, tmp_path, workers):
        # The rerank batch holding the first passing paper is refused with
        # 400, the one holding the last with 404; at four workers the first
        # is held until the last has been refused.
        _, passing = self._expected(1)
        assert len(passing) > 2
        first, last = passing[0].id.canonical, passing[-1].id.canonical
        later_refused = threading.Event()
        judge = accept_all_judge()
        send = judge.send

        def refusing_send(request):
            if request.tag == "retrieval.rerank" and f"- id: {last} " in request.prompt:
                later_refused.set()
                return TransportResponse(404, "refused")
            if request.tag == "retrieval.rerank" and f"- id: {first} " in request.prompt:
                if workers > 1:
                    assert later_refused.wait(timeout=10)
                return TransportResponse(400, "refused")
            return send(request)

        judge.send = refusing_send
        with pytest.raises(BackendError, match="status 400"):
            self._run(tmp_path, 1, workers, judge)


class TestCoarseFilter:
    def test_vacuous_threshold_keeps_everything(self, papers):
        cfg = RetrievalConfig(coarse_similarity_threshold=-1.0)
        gw = scripted_gateway()
        out = coarse_filter(list(papers.values()), gw.embed(["topic"])[0], cfg, gw)
        assert out == list(papers.values())

    def test_orthogonal_paper_dropped_at_half_threshold(self):
        on_topic = make_paper("on", title="On Topic", abstract="about the topic")
        off_topic = make_paper("off", title="Off Topic", abstract="something else")
        embedder = FixtureEmbedder(
            {
                "topic": [1.0, 0.0],
                on_topic.search_text(): [1.0, 0.0],
                off_topic.search_text(): [0.0, 1.0],  # cosine 0 < 0.5
            }
        )
        gw = scripted_gateway(embedder=embedder)
        cfg = RetrievalConfig(coarse_similarity_threshold=0.5)
        out = coarse_filter([on_topic, off_topic], gw.embed(["topic"])[0], cfg, gw)
        assert [p.id.canonical for p in out] == ["on"]

    def test_empty_input_empty_output(self):
        assert coarse_filter([], [1.0, 0.0], RetrievalConfig(), scripted_gateway()) == []


class TestRerank:
    def test_sixty_papers_batch_twenty_is_three_calls(self):
        records = [make_paper(f"r{i:02d}") for i in range(60)]
        transport = accept_all_judge()
        gw = scripted_gateway(transport)
        out = llm_rerank_filter(records, "t", gw)
        assert len(out) == 60
        assert len(transport.calls) == 3

    def test_retained_papers_carry_notes_in_log(self, papers):
        runlog = RunLog()
        gw = scripted_gateway(accept_all_judge())
        llm_rerank_filter(list(papers.values()), "t", gw, runlog=runlog)
        notes = runlog.of_kind("rerank_retained")
        assert len(notes) == len(papers)
        assert all(e["note"] for e in notes)


class TestFullStage:
    def test_output_within_neighborhood_and_deterministic(self, papers):
        source = FixtureSource(list(papers.values()), search_results={"topic": ["p1", "p2"]})
        cfg = RetrievalConfig(coarse_similarity_threshold=-1.0)

        def run_once():
            gw = scripted_gateway(accept_all_judge())
            return run_retrieval("topic", cfg, source, gw, Feed())

        first = [p.to_dict() for p in run_once()]
        second = [p.to_dict() for p in run_once()]
        assert json.dumps(first) == json.dumps(second), "byte-identical across runs"
        seeds = {"p1", "p2"}
        neighborhood = set(seeds)
        for s in seeds:
            rec = papers[s]
            neighborhood |= {p.canonical for p in rec.in_citations}
            neighborhood |= {p.canonical for p in rec.out_citations}
        assert {p["id"]["canonical"] for p in first} <= neighborhood

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_text_is_looked_up_once(self, papers, tmp_path, monkeypatch, workers):
        source = FixtureSource(list(papers.values()), search_results={"topic": ["p1", "p2"]})
        cfg = RetrievalConfig(coarse_similarity_threshold=-1.0)
        reads: Counter = Counter()
        disk_get = DiskCache.get
        monkeypatch.setattr(
            DiskCache, "get", lambda cache, key: reads.update([key]) or disk_get(cache, key)
        )
        embedder = FixtureEmbedder()
        gw = scripted_gateway(
            accept_all_judge(), embedder=embedder, cache_dir=str(tmp_path), embed_batch_size=2
        )
        out = run_retrieval("topic", cfg, source, gw, Feed(), workers=workers)
        assert len(out) == len(papers)
        # The topic and each paper's text are sent once, and no key is
        # read from the disk cache twice.
        sent = [text for batch in embedder.batches for text in batch]
        assert sorted(sent) == sorted(["topic"] + [p.search_text() for p in papers.values()])
        assert len(reads) > len(sent) and set(reads.values()) == {1}

    def test_fallback_seeds_after_a_primary_failure_are_not_expanded(self, papers):
        primary = CountingSource(FixtureSource(list(papers.values())), failures=99)
        fallback = FixtureSource(list(papers.values()), search_results={"topic": ["p1", "p2"]})
        cfg = RetrievalConfig(coarse_similarity_threshold=-1.0)
        runlog = RunLog()
        gw = scripted_gateway(accept_all_judge())
        out = run_retrieval("topic", cfg, primary, gw, Feed(), fallback, runlog)
        assert [p.id.canonical for p in out] == ["p1", "p2"]
        assert primary.calls == ["search"]
        assert runlog.of_kind("fallback_source_used") and runlog.of_kind("expansion_skipped")

    def test_fallback_seeds_after_an_empty_primary_search_are_expanded(self, papers):
        primary = FixtureSource(list(papers.values()), search_results={"topic": []})
        fallback = FixtureSource(list(papers.values()), search_results={"topic": ["p2"]})
        cfg = RetrievalConfig(coarse_similarity_threshold=-1.0)
        gw = scripted_gateway(accept_all_judge())
        out = run_retrieval("topic", cfg, primary, gw, Feed(), fallback)
        assert [p.id.canonical for p in out] == ["p2", "p4"]
