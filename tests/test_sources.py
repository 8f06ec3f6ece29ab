from __future__ import annotations

import pytest
import requests

from litsurvey.errors import RetrievalError
from litsurvey.model import IdSource, PaperId
from litsurvey.sources import (
    AcademicGraphSource,
    CachedSource,
    FixtureSource,
    PreprintSource,
    parse_graph_record,
    parse_preprint_feed,
)

from conftest import CountingSource, html_page, json_reply, make_paper, scripted_gateway


class TestGraphRecordParsing:
    def test_preprint_id_preferred(self):
        item = {
            "paperId": "74fdf80aa1c4",
            "externalIds": {"ArXiv": "2406.10252"},
            "title": "A Study",
            "abstract": "An abstract.",
            "tldr": {"text": "short"},
            "openAccessPdf": {"url": "https://host/x.pdf"},
            "year": 2024,
            "venue": "CONF",
            "citationCount": 42,
        }
        record = parse_graph_record(item)
        assert record.id == PaperId("2406.10252", IdSource.PREPRINT)
        assert record.title == "A Study"
        assert record.tldr == "short"
        assert record.full_text_ref == "https://host/x.pdf"
        assert record.metadata["graph_id"] == "74fdf80aa1c4"
        assert record.metadata["citation_count"] == "42"

    def test_graph_id_fallback_and_missing_fields(self):
        record = parse_graph_record({"paperId": "abc123", "title": None})
        assert record.id == PaperId("abc123", IdSource.GRAPH)
        assert record.title == "(untitled)"
        assert record.abstract == ""
        assert record.full_text_ref is None


class FakeResponse:
    def __init__(self, status_code: int, headers: dict | None = None):
        self.status_code = status_code
        self.headers = headers or {}

    def json(self) -> dict:
        return {"data": [{"paperId": "abc123", "title": "Found"}]}


class TestAcademicGraphRetry:
    @pytest.mark.parametrize(
        "outcomes, sleeps",
        [
            ([503, 503, 200], [1.0, 2.0]),
            ([requests.ConnectionError("reset"), 200], [1.0]),
        ],
    )
    def test_transient_failures_back_off_then_succeed(self, monkeypatch, outcomes, sleeps):
        calls = self.script(monkeypatch, outcomes)
        delays: list[float] = []
        source = AcademicGraphSource("http://graph", sleeper=delays.append, draw=lambda: 0.0)
        records = source.search("q", 5)
        assert [r.title for r in records] == ["Found"]
        assert len(calls) == len(outcomes)
        assert delays == sleeps

    def test_a_retry_after_longer_than_the_backoff_is_slept(self, monkeypatch):
        replies = iter([FakeResponse(429, {"Retry-After": "3"}), FakeResponse(200)])
        monkeypatch.setattr(requests, "get", lambda url, **kwargs: next(replies))
        delays: list[float] = []
        source = AcademicGraphSource("http://graph", sleeper=delays.append, draw=lambda: 0.0)
        assert [r.title for r in source.search("q", 5)] == ["Found"]
        assert delays == [3.0]

    @pytest.mark.parametrize(
        "outcomes, attempts, sleeps, reason",
        [
            ([404], 1, [], "status 404"),
            ([503] * 9, 5, [1.0, 2.0, 4.0, 8.0], "status 503"),
        ],
    )
    def test_failures_raise_retrieval_error(self, monkeypatch, outcomes, attempts, sleeps, reason):
        calls = self.script(monkeypatch, outcomes)
        delays: list[float] = []
        source = AcademicGraphSource("http://graph", sleeper=delays.append, draw=lambda: 0.0)
        with pytest.raises(RetrievalError, match=f"graph API paper/search failed: {reason}"):
            source.search("q", 5)
        assert len(calls) == attempts
        assert delays == sleeps

    def test_a_reply_that_is_not_json_is_a_retrieval_error(self, monkeypatch):
        monkeypatch.setattr(requests, "get", html_page)
        delays: list[float] = []
        source = AcademicGraphSource("http://graph", sleeper=delays.append, draw=lambda: 0.0)
        with pytest.raises(RetrievalError, match="graph API paper/search reply is not JSON"):
            source.search("q", 5)
        assert delays == []

    def test_a_reply_that_is_a_list_is_a_retrieval_error(self, monkeypatch):
        monkeypatch.setattr(requests, "get", json_reply([{"paperId": "abc123"}]))
        delays: list[float] = []
        source = AcademicGraphSource("http://graph", sleeper=delays.append, draw=lambda: 0.0)
        with pytest.raises(RetrievalError, match="paper/search reply has an unexpected shape"):
            source.search("q", 5)
        assert delays == []

    def test_a_citation_entry_that_is_not_an_object_is_a_retrieval_error(self, monkeypatch):
        monkeypatch.setattr(requests, "get", json_reply({"data": ["abc123"]}))
        delays: list[float] = []
        source = AcademicGraphSource("http://graph", sleeper=delays.append, draw=lambda: 0.0)
        with pytest.raises(RetrievalError, match="citations reply has an unexpected shape"):
            source.citations(PaperId("2406.10001", IdSource.PREPRINT), 5)
        assert delays == []

    @pytest.mark.parametrize(
        "method, entry, field, shape",
        [
            ("citations", {"citingPaper": "abc123"}, "citingPaper", "str"),
            ("references", {"citedPaper": "abc123"}, "citedPaper", "str"),
            ("search", {"paperId": "abc123", "externalIds": ["ArXiv"]}, "externalIds", "list"),
            ("search", {"paperId": "abc123", "tldr": ["Short."]}, "tldr", "list"),
            ("search", {"paperId": "abc123", "openAccessPdf": ["http://x/p.pdf"]}, "openAccessPdf", "list"),
        ],
    )
    def test_a_nested_field_of_the_wrong_shape_is_a_retrieval_error(
        self, monkeypatch, method, entry, field, shape
    ):
        monkeypatch.setattr(requests, "get", json_reply({"data": [entry]}))
        delays: list[float] = []
        source = AcademicGraphSource("http://graph", sleeper=delays.append, draw=lambda: 0.0)
        call = {
            "search": lambda: source.search("q", 5),
            "citations": lambda: source.citations(PaperId("2406.10001", IdSource.PREPRINT), 5),
            "references": lambda: source.references(PaperId("2406.10001", IdSource.PREPRINT), 5),
        }[method]
        with pytest.raises(RetrievalError, match=f"graph record field '{field}' is a {shape}, not an object"):
            call()
        assert delays == []

    @pytest.mark.parametrize(
        "method, entry, field, shape",
        [
            ("search", {"paperId": 7}, "paperId", "a int"),
            ("search", {"paperId": "abc123", "externalIds": {"ArXiv": 2406.1}}, "externalIds.ArXiv", "a float"),
            ("search", {"paperId": "abc123", "tldr": {"text": None}}, "tldr.text", "null"),
            ("citations", {"citingPaper": {"paperId": "abc123", "title": ["A", "B"]}}, "title", "a list"),
        ],
    )
    def test_a_scalar_field_of_the_wrong_type_is_a_retrieval_error(
        self, monkeypatch, method, entry, field, shape
    ):
        monkeypatch.setattr(requests, "get", json_reply({"data": [entry]}))
        delays: list[float] = []
        source = AcademicGraphSource("http://graph", sleeper=delays.append, draw=lambda: 0.0)
        call = {
            "search": lambda: source.search("q", 5),
            "citations": lambda: source.citations(PaperId("2406.10001", IdSource.PREPRINT), 5),
        }[method]
        with pytest.raises(RetrievalError, match=rf"graph record field '{field}' is {shape}, not a string"):
            call()
        assert delays == []

    def test_absent_and_null_scalars_keep_their_defaults(self, monkeypatch):
        entry = {
            "paperId": "abc123", "externalIds": {"ArXiv": None}, "title": None,
            "abstract": None, "tldr": None, "openAccessPdf": {"url": None}, "venue": None,
        }
        monkeypatch.setattr(requests, "get", json_reply({"data": [entry]}))
        [record] = AcademicGraphSource("http://graph").search("q", 5)
        assert (record.id.canonical, record.title, record.abstract, record.tldr) == (
            "abc123", "(untitled)", "", ""
        )
        assert record.full_text_ref is None
        assert record.metadata["venue"] == ""

    @staticmethod
    def script(monkeypatch, outcomes: list) -> list[str]:
        """Make requests.get play ``outcomes`` in order (status codes or
        exceptions to raise); returns the list of requested URLs."""
        calls: list[str] = []

        def fake_get(url, **kwargs):
            outcome = outcomes[len(calls)]
            calls.append(url)
            if isinstance(outcome, Exception):
                raise outcome
            return FakeResponse(outcome)

        monkeypatch.setattr(requests, "get", fake_get)
        return calls


ATOM_FEED = """<?xml version="1.0" encoding="UTF-8"?>
<feed xmlns="http://www.w3.org/2005/Atom">
  <entry>
    <id>http://arxiv.org/abs/2406.10252v2</id>
    <title>Automatic   Survey
      Writing</title>
    <summary>It writes
      surveys.</summary>
  </entry>
  <entry>
    <id>http://arxiv.org/abs/2501.00001v1</id>
    <title>Second Entry</title>
    <summary>Body.</summary>
  </entry>
</feed>
"""


def test_preprint_feed_parsing():
    records = parse_preprint_feed(ATOM_FEED)
    assert len(records) == 2
    assert records[0].id == PaperId("2406.10252", IdSource.PREPRINT)
    assert records[0].title == "Automatic Survey Writing"
    assert records[0].abstract == "It writes surveys."
    assert records[0].full_text_ref.endswith("2406.10252")


class TestFixtureSource:
    def test_citation_lookup_resolves_within_fixture(self):
        a = make_paper("a", in_cits=["b"], out_cits=["c", "ghost"])
        b = make_paper("b")
        c = make_paper("c")
        source = FixtureSource([a, b, c])
        assert [r.id.canonical for r in source.citations(a.id, 10)] == ["b"]
        # unreachable neighbor 'ghost' simply doesn't resolve
        assert [r.id.canonical for r in source.references(a.id, 10)] == ["c"]

    def test_round_trip_through_file(self, tmp_path):
        import json

        a = make_paper("a", in_cits=["b"])
        b = make_paper("b")
        path = tmp_path / "fixture.json"
        path.write_text(
            json.dumps(
                {
                    "papers": [a.to_dict(), b.to_dict()],
                    "search_results": {"q": ["b", "a"]},
                }
            )
        )
        source = FixtureSource.from_file(path)
        assert [r.id.canonical for r in source.search("q", 10)] == ["b", "a"]
        assert [r.id.canonical for r in source.search("other", 10)] == ["a", "b"]


def canonical_ids(records) -> list[str]:
    return [r.id.canonical for r in records]


class TestCachedSource:
    def test_hit_rebuilds_equal_records_without_a_call(self, tmp_path):
        a = make_paper("a", in_cits=["b"], out_cits=["b"], tldr="short")
        b = make_paper("b")
        fixture = FixtureSource([a, b])
        cold = CachedSource(fixture, scripted_gateway(cache_dir=str(tmp_path)), "fixture f")
        assert cold.search("q", 10) == [a, b]
        # A new gateway over the same directory reads the disk tier.
        inner = CountingSource(fixture)
        warm = CachedSource(inner, scripted_gateway(cache_dir=str(tmp_path)), "fixture f")
        assert warm.search("q", 10) == [a, b]
        assert inner.calls == []

    def test_failure_is_not_cached(self):
        inner = CountingSource(FixtureSource([make_paper("a")]), failures=1)
        source = CachedSource(inner, scripted_gateway(), "fixture f")
        with pytest.raises(RetrievalError):
            source.search("q", 10)
        assert canonical_ids(source.search("q", 10)) == ["a"]
        assert canonical_ids(source.search("q", 10)) == ["a"]
        assert inner.calls == ["search", "search"]

    def test_empty_result_is_served_from_the_cache(self):
        inner = CountingSource(FixtureSource([make_paper("a")]))
        source = CachedSource(inner, scripted_gateway(), "fixture f")
        ghost = PaperId("ghost", IdSource.PREPRINT)
        assert source.citations(ghost, 10) == []
        assert source.citations(ghost, 10) == []
        assert inner.calls == ["citations"]

    def test_method_limit_and_scope_partition_the_cache(self):
        a = make_paper("a", in_cits=["b"], out_cits=["c"])
        gateway = scripted_gateway()
        inner = CountingSource(FixtureSource([a, make_paper("b"), make_paper("c")]))
        primary = CachedSource(inner, gateway, "academic-graph https://graph")
        assert canonical_ids(primary.citations(a.id, 10)) == ["b"]
        assert canonical_ids(primary.references(a.id, 10)) == ["c"]
        assert canonical_ids(primary.search("q", 1)) == ["a"]
        assert canonical_ids(primary.search("q", 2)) == ["a", "b"]
        fallback = CachedSource(FixtureSource([make_paper("z")]), gateway, "preprint https://archive")
        assert canonical_ids(fallback.search("q", 2)) == ["z"]
        assert inner.calls == ["citations", "references", "search", "search"]


def test_a_preprint_reply_that_is_not_a_feed_is_a_retrieval_error(monkeypatch):
    monkeypatch.setattr(requests, "get", html_page)
    with pytest.raises(RetrievalError, match="preprint archive reply is not an Atom feed"):
        PreprintSource("http://archive").search("q", 5)
