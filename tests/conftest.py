from __future__ import annotations

import json
import threading

import pytest
import requests

from litsurvey.errors import SourceUnavailableError
from litsurvey.gateway import BackendProfile, Gateway
from litsurvey.model import (
    IdSource,
    Keynote,
    KnowledgeSubstrate,
    PaperId,
    PaperRecord,
    Provenance,
)
from litsurvey.scripted import ScriptedTransport

from doubles import FixtureEmbedder


def html_page(*args, **kwargs) -> requests.Response:
    """A 200 reply whose body is an HTML page, as a captive portal or a
    misrouted proxy sends; stands in for ``requests.get`` or ``.post``."""
    resp = requests.Response()
    resp.status_code = 200
    resp._content = (
        b'<!DOCTYPE html><html><head><meta charset="utf-8"></head>'
        b"<body>Sign in to continue</body></html>"
    )
    resp.encoding = "utf-8"
    return resp


def json_reply(body):
    """Stands in for ``requests.get`` or ``.post``: a 200 reply whose body
    is ``body`` as JSON, well formed but perhaps of the wrong shape."""

    def reply(*args, **kwargs) -> requests.Response:
        resp = requests.Response()
        resp.status_code = 200
        resp._content = json.dumps(body).encode("utf-8")
        resp.encoding = "utf-8"
        return resp

    return reply


def make_paper(
    key: str,
    title: str | None = None,
    abstract: str | None = None,
    tldr: str = "",
    in_cits: list[str] = (),
    out_cits: list[str] = (),
    full_text_ref: str | None = None,
    source: IdSource = IdSource.PREPRINT,
    repo_urls: list[str] = (),
) -> PaperRecord:
    return PaperRecord(
        id=PaperId(key, source),
        title=title if title is not None else f"Study {key.upper()}",
        abstract=abstract if abstract is not None else f"Abstract of study {key}.",
        tldr=tldr,
        full_text_ref=full_text_ref,
        in_citations=[PaperId(k, source) for k in in_cits],
        out_citations=[PaperId(k, source) for k in out_cits],
        repo_urls=list(repo_urls),
    )


def make_keynote(record: PaperRecord, **sections) -> Keynote:
    base = {
        "contributions": f"contributions of {record.id.canonical}",
        "methodology": f"methodology of {record.id.canonical}",
        "experiments": f"experiments of {record.id.canonical}",
        "limitations": f"limitations of {record.id.canonical}",
        "critical_reflections": f"reflections on {record.id.canonical}",
        "tldr": record.abstract or f"tldr of {record.id.canonical}",
    }
    base.update(sections)
    return Keynote(paper_id=record.id, sections=base, provenance=Provenance.FULL_TEXT)


@pytest.fixture
def papers() -> dict[str, PaperRecord]:
    """Small citation graph: p1 cites p3/p4; p2 cites p4; p5, p6 cite p1."""
    records = [
        make_paper("p1", title="Alpha Methods", in_cits=["p5", "p6"], out_cits=["p3", "p4"]),
        make_paper("p2", title="Beta Systems", out_cits=["p4"]),
        make_paper("p3", title="Gamma Analysis", in_cits=["p1"]),
        make_paper("p4", title="Delta Benchmarks", in_cits=["p1", "p2"]),
        make_paper("p5", title="Epsilon Survey", out_cits=["p1"]),
        make_paper("p6", title="Zeta Review", out_cits=["p1"]),
    ]
    return {r.id.canonical: r for r in records}


@pytest.fixture
def keynotes(papers) -> dict[str, Keynote]:
    return {key: make_keynote(record) for key, record in papers.items()}


def scripted_gateway(
    transport: ScriptedTransport | None = None,
    embedder=None,
    profile: BackendProfile | None = None,
    **kwargs,
) -> Gateway:
    """Gateway wired for hermetic tests: scripted transport, fixture
    embedder and a no-op sleeper."""
    return Gateway(
        transport if transport is not None else ScriptedTransport(default="ok"),
        embedder=embedder or FixtureEmbedder(),
        profile=profile,
        sleeper=lambda _s: None,
        **kwargs,
    )


class CountingSource:
    """Paper source that records each call it passes on to ``inner``, from
    any number of threads; the first ``failures`` calls (of the method
    ``failing``, and for the paper ``paper``, when given) raise
    SourceUnavailableError instead, as a source still down after its
    retries does."""

    def __init__(self, inner, failures: int = 0, failing: str = "", paper: str = ""):
        self.inner = inner
        self.failures = failures
        self.failing = failing
        self.paper = paper
        self.calls: list[str] = []
        self._lock = threading.Lock()

    def _call(self, method: str, subject, limit):
        with self._lock:
            self.calls.append(method)
            fails = (
                self.failures > 0
                and self.failing in ("", method)
                and self.paper in ("", getattr(subject, "canonical", subject))
            )
            if fails:
                self.failures -= 1
        if fails:
            raise SourceUnavailableError("source unreachable")
        return getattr(self.inner, method)(subject, limit)

    def search(self, query, limit):
        return self._call("search", query, limit)

    def citations(self, paper_id, limit):
        return self._call("citations", paper_id, limit)

    def references(self, paper_id, limit):
        return self._call("references", paper_id, limit)


def build_substrate(papers, keynotes=None) -> KnowledgeSubstrate:
    substrate = KnowledgeSubstrate(papers=dict(papers))
    if keynotes:
        substrate.keynotes = dict(keynotes)
    return substrate
