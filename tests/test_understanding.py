from __future__ import annotations

import json

import pytest

from litsurvey.errors import BackendError, KeynoteError, PaperSkipped
from litsurvey.gateway import BackendProfile, Feed
from litsurvey.model import Provenance
from litsurvey.runlog import RunLog
from litsurvey.scripted import CannedReply, ScriptedTransport
from litsurvey.understanding import (
    ParsedDocument,
    extract_keynote,
    fallback_keynote,
    run_understanding,
    split_document,
)

from conftest import make_paper, scripted_gateway

FULL_KEYNOTE = {
    "title": "Alpha Methods",
    "key_contributions": ["introduces the alpha method", "benchmarks it broadly"],
    "methodology": "alpha decomposition over graphs",
    "experiments": {"setup": "ten datasets", "result": "strong"},
    "limitations": ["single-domain evaluation"],
    "critical_reflections": ["results may overfit the benchmark suite"],
    "tldr": "Alpha methods decompose graphs efficiently.",
}


def doc(key="p1", markdown="# Title\n\nBody of the paper.") -> ParsedDocument:
    return ParsedDocument(paper_id=make_paper(key).id, markdown=markdown)


class TestExtractKeynote:
    def test_full_shape_parses_with_aliases_and_extras(self):
        transport = ScriptedTransport().add("structured keynote", json.dumps(FULL_KEYNOTE))
        gw = scripted_gateway(transport)
        keynote = extract_keynote(doc(), gw)
        assert keynote.provenance is Provenance.FULL_TEXT
        assert keynote.sections["contributions"].startswith("introduces the alpha")
        assert keynote.sections["methodology"]
        assert keynote.sections["experiments"]
        assert keynote.sections["limitations"]
        assert keynote.sections["tldr"]
        assert keynote.sections["title"] == "Alpha Methods"  # extra field preserved

    def test_missing_tldr_retries_then_succeeds(self):
        incomplete = {k: v for k, v in FULL_KEYNOTE.items() if k != "tldr"}
        transport = ScriptedTransport().add(
            "structured keynote", json.dumps(incomplete), json.dumps(FULL_KEYNOTE)
        )
        gw = scripted_gateway(transport)
        keynote = extract_keynote(doc(), gw)
        assert keynote.sections["tldr"]
        assert len(transport.calls) == 2

    def test_persistently_incomplete_raises(self):
        incomplete = {"tldr": "only a tldr"}
        transport = ScriptedTransport(default=json.dumps(incomplete))
        gw = scripted_gateway(transport)
        with pytest.raises(KeynoteError):
            extract_keynote(doc(), gw)
        assert len(transport.calls) == 4  # the first attempt and 3 retries

    def test_long_document_chunks_then_consolidates(self):
        profile = BackendProfile(context_window=400)
        big = "# A\n" + "alpha " * 400 + "\n# B\n" + "beta " * 400
        transport = (
            ScriptedTransport()
            .add("Condense this part", "condensed facts")
            .add("structured keynote", json.dumps(FULL_KEYNOTE))
        )
        gw = scripted_gateway(transport, profile=profile)
        runlog = RunLog()
        keynote = extract_keynote(doc(markdown=big), gw, runlog=runlog)
        chunk_calls = transport.calls_matching("Condense this part")
        assert len(chunk_calls) >= 2, "oversized document needs several calls"
        assert keynote.sections["tldr"]
        assert runlog.of_kind("document_chunked")

    def test_rerun_hits_cache_with_zero_new_calls(self):
        transport = ScriptedTransport().add("structured keynote", json.dumps(FULL_KEYNOTE))
        gw = scripted_gateway(transport)
        first = extract_keynote(doc(), gw)
        calls_after_first = len(transport.calls)
        second = extract_keynote(doc(), gw)
        assert len(transport.calls) == calls_after_first
        assert first == second


class TestSplitDocument:
    def test_fits_whole(self):
        assert split_document("short text", 100) == ["short text"]

    def test_chunks_respect_budget(self):
        text = "# A\n" + "a" * 900 + "\n# B\n" + "b" * 900
        chunks = split_document(text, 100)
        from litsurvey.tokens import estimate_tokens

        assert all(estimate_tokens(c) <= 100 for c in chunks)
        assert "".join(chunks) == text


class TestFallbackKeynote:
    def test_abstract_branch(self):
        record = make_paper("p1", abstract="the abstract", tldr="the tldr")
        keynote = fallback_keynote(record)
        assert keynote.provenance is Provenance.ABSTRACT_FALLBACK
        assert keynote.tldr == "the abstract"

    def test_tldr_branch_when_abstract_empty(self):
        record = make_paper("p1", abstract="", tldr="the tldr")
        keynote = fallback_keynote(record)
        assert keynote.provenance is Provenance.TLDR_FALLBACK
        assert keynote.tldr == "the tldr"

    def test_both_empty_is_skip_signal(self):
        record = make_paper("p1", abstract="", tldr="")
        with pytest.raises(PaperSkipped):
            fallback_keynote(record)


class TestRunUnderstanding:
    def test_every_paper_gets_keynote_or_skip_event(self):
        papers = {
            "p1": make_paper("p1", abstract="a1"),
            "p2": make_paper("p2", abstract="", tldr=""),
            "p3": make_paper("p3", abstract="", tldr="t3"),
        }
        runlog = RunLog()
        keynotes = run_understanding(papers, lambda record: None, scripted_gateway(), runlog)
        skips = runlog.of_kind("paper_skipped")
        assert set(keynotes) == {"p1", "p3"}
        assert [e["paper"] for e in skips] == ["p2"]
        # exactly one outcome per paper: keynote xor skip
        assert set(keynotes) | {e["paper"] for e in skips} == set(papers)
        assert set(keynotes) & {e["paper"] for e in skips} == set()

    def test_full_text_provenance_implies_document(self):
        papers = {"p1": make_paper("p1", full_text_ref="http://x/p1.pdf")}
        docs = {"p1": doc("p1")}
        transport = ScriptedTransport().add("structured keynote", json.dumps(FULL_KEYNOTE))
        keynotes = run_understanding(
            papers, lambda record: docs.get(record.id.canonical), scripted_gateway(transport), RunLog()
        )
        assert keynotes["p1"].provenance is Provenance.FULL_TEXT


class TestUnderstandingFromAFeed:
    """From retrieval's feed, papers are keynoted as their batch arrives;
    the keynotes, the hand-off and the error stay the serial run's."""

    records = {k: make_paper(k, abstract=f"abstract of {k}") for k in ("p1", "p2", "p3", "p4")}
    docs = {k: doc(k) for k in ("p1", "p3")}

    def find(self, record):
        return self.docs.get(record.id.canonical)

    def test_keynotes_and_hand_off_are_the_serial_runs(self):
        def run(papers, workers):
            transport = ScriptedTransport().add("structured keynote", json.dumps(FULL_KEYNOTE))
            handed = Feed()
            keynotes = run_understanding(
                papers, self.find, scripted_gateway(transport), RunLog(), workers, handed
            )
            handed.close()
            return keynotes, list(handed)

        arrivals = Feed()
        arrivals.put(1, [self.records["p2"], self.records["p1"]])
        arrivals.put(0, [self.records["p4"], self.records["p3"]])
        arrivals.close()
        assert run(arrivals, 2) == run(self.records, 1)

    def test_a_failure_raises_the_first_failing_paper_in_paper_id_order(self):
        # p3 fails first; p1, which comes before it in paper-id order and
        # fails too, arrives only then, and still starts.
        def transport():
            return (
                ScriptedTransport()
                .add(r"paper id p1\.", CannedReply("no", 401))
                .add(r"paper id p3\.", CannedReply("no", 400))
                .add("structured keynote", json.dumps(FULL_KEYNOTE))
            )

        with pytest.raises(BackendError) as serial:
            run_understanding(self.records, self.find, scripted_gateway(transport()), RunLog())
        arrivals = Feed()
        arrivals.put(0, [self.records["p3"], self.records["p4"]])
        streamed = transport()
        send = streamed.send

        def send_then_arrive(request):
            try:
                return send(request)
            finally:
                if "paper id p3." in request.prompt:
                    arrivals.put(1, [self.records["p1"], self.records["p2"]])
                    arrivals.close()

        streamed.send = send_then_arrive
        with pytest.raises(BackendError) as parallel:
            run_understanding(arrivals, self.find, scripted_gateway(streamed), RunLog(), 2)
        assert "status 401" in str(serial.value)
        assert str(parallel.value) == str(serial.value)
