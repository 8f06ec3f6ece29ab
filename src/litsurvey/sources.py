"""Paper-source clients: search and citation links.

Three implementations share one interface: the academic-graph HTTP API,
the preprint-archive API (fallback), and a fixture-file source for
hermetic runs. ``CachedSource`` wraps any of them so that its answers are
kept in the gateway's api tier.
"""

from __future__ import annotations

import json
import random
import time
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Callable, Optional, Protocol, Sequence

from .caching import cache_key
from .errors import ExhaustionError, RetrievalError, SourceUnavailableError
from .fanout import CallBudget
from .gateway import (
    RETRYABLE_STATUSES,
    BackendProfile,
    Gateway,
    TransientBackendError,
    parse_retry_after,
    with_backoff,
)
from .model import IdSource, PaperId, PaperRecord, unify_paper_id


class PaperSource(Protocol):
    def search(self, query: str, limit: int) -> list[PaperRecord]: ...

    def citations(self, paper_id: PaperId, limit: int) -> list[PaperRecord]: ...

    def references(self, paper_id: PaperId, limit: int) -> list[PaperRecord]: ...


class CachedSource:
    """A paper source whose answers are get-or-compute entries in the
    gateway's api tier, so a rerun over a warm cache makes no source call.

    ``scope`` names the source behind ``inner`` (its kind and endpoint) and
    keeps the entries of different sources apart; it must not name the run
    directory, so a copied cache still hits. Records are rebuilt from their
    stored form on a miss as on a hit, so both build identical objects. An
    error raised by ``inner`` is not cached: the next lookup asks again.
    A miss holds none of the gateway's call slots, so a slow source keeps
    no model call waiting; ``in_flight`` (if given) counts the misses
    that ``inner`` is answering, its own retries included, and bounds
    nothing.
    """

    def __init__(
        self,
        inner: PaperSource,
        gateway: Gateway,
        scope: str,
        in_flight: Optional[CallBudget] = None,
    ):
        self.inner = inner
        self.gateway = gateway
        self.scope = scope
        self.in_flight = in_flight or CallBudget()

    def _lookup(
        self, method: str, subject: str, limit: int, fetch: Callable[[], list[PaperRecord]]
    ) -> list[PaperRecord]:
        key = cache_key("source", self.scope, method, subject, limit)

        def produce() -> list[dict]:
            with self.in_flight.slot():
                records = fetch()
            return [r.to_dict() for r in records]

        return [PaperRecord.from_dict(d) for d in self.gateway.cached(key, produce)]

    def search(self, query: str, limit: int) -> list[PaperRecord]:
        return self._lookup("search", query, limit, lambda: self.inner.search(query, limit))

    def citations(self, paper_id: PaperId, limit: int) -> list[PaperRecord]:
        return self._lookup(
            "citations", paper_id.canonical, limit, lambda: self.inner.citations(paper_id, limit)
        )

    def references(self, paper_id: PaperId, limit: int) -> list[PaperRecord]:
        return self._lookup(
            "references", paper_id.canonical, limit, lambda: self.inner.references(paper_id, limit)
        )


class FixtureSource:
    """In-memory source built from a closed set of records.

    Citation links resolve against the fixture set; ids without a record
    are simply unreachable (mirroring dead links in the real graph).
    """

    def __init__(
        self,
        records: Sequence[PaperRecord],
        search_results: Optional[dict[str, list[str]]] = None,
    ):
        self.records = {r.id.canonical: r for r in records}
        self.search_results = search_results or {}

    def search(self, query: str, limit: int) -> list[PaperRecord]:
        if query in self.search_results:
            keys = self.search_results[query]
        else:
            keys = sorted(self.records)
        hits = [self.records[k] for k in keys if k in self.records]
        return hits[:limit]

    def citations(self, paper_id: PaperId, limit: int) -> list[PaperRecord]:
        record = self.records.get(paper_id.canonical)
        if record is None:
            return []
        found = [self.records[p.canonical] for p in record.in_citations if p.canonical in self.records]
        return found[:limit]

    def references(self, paper_id: PaperId, limit: int) -> list[PaperRecord]:
        record = self.records.get(paper_id.canonical)
        if record is None:
            return []
        found = [self.records[p.canonical] for p in record.out_citations if p.canonical in self.records]
        return found[:limit]

    @classmethod
    def from_file(cls, path: str | Path) -> "FixtureSource":
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        records = [PaperRecord.from_dict(r) for r in doc["papers"]]
        return cls(records, search_results=doc.get("search_results"))


_GRAPH_FIELDS = (
    "externalIds,title,abstract,tldr,openAccessPdf,citationCount"
)


def _graph_object(item: dict, name: str) -> dict:
    """``item[name]`` when it is an object, {} when it is absent or null; any
    other shape is a RetrievalError naming the field."""
    value = item.get(name)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise RetrievalError(
            f"graph record field '{name}' is a {type(value).__name__}, not an object"
        )
    return value


def _graph_string(value, name: str, required: bool = False) -> str:
    """``value``, the graph record field ``name``, when it is a string; ""
    when it is absent or null, unless ``required``; any other value is a
    RetrievalError naming the field."""
    if isinstance(value, str):
        return value
    if value is None and not required:
        return ""
    shape = "null" if value is None else f"a {type(value).__name__}"
    raise RetrievalError(f"graph record field '{name}' is {shape}, not a string")


def parse_graph_record(item: dict) -> PaperRecord:
    """Map one academic-graph API item onto a PaperRecord."""
    external = _graph_object(item, "externalIds")
    graph_id = _graph_string(item.get("paperId"), "paperId")
    pid = unify_paper_id(_graph_string(external.get("ArXiv"), "externalIds.ArXiv"), graph_id)
    tldr = item.get("tldr")
    if not isinstance(tldr, str):  # a plain string is the summary itself
        summary = _graph_object(item, "tldr")
        tldr = _graph_string(summary.get("text"), "tldr.text", required=bool(summary))
    pdf = _graph_object(item, "openAccessPdf")
    return PaperRecord(
        id=pid,
        title=_graph_string(item.get("title"), "title") or "(untitled)",
        abstract=_graph_string(item.get("abstract"), "abstract"),
        tldr=tldr,
        full_text_ref=_graph_string(pdf.get("url"), "openAccessPdf.url") or None,
        in_citations=[],
        out_citations=[],
        repo_urls=[],
        metadata={
            "graph_id": graph_id,
            "year": str(item.get("year") or ""),
            "venue": _graph_string(item.get("venue"), "venue"),
            "citation_count": str(item.get("citationCount") or 0),
        },
    )


class AcademicGraphSource:
    """Thin client for a Semantic-Scholar-style graph API. Safe to call
    from several threads at once; ``sleeper`` and ``draw`` are the clock
    and jitter source of :func:`with_backoff`."""

    def __init__(
        self,
        base_url: str = "https://api.semanticscholar.org/graph/v1",
        api_key: str = "",
        timeout: float = 30.0,
        sleeper: Callable[[float], None] = time.sleep,
        draw: Callable[[], float] = random.random,
    ):
        self.base_url = base_url.rstrip("/")
        self.api_key = api_key
        self.timeout = timeout
        self.profile = BackendProfile(max_attempts=5)
        self.sleeper = sleeper
        self.draw = draw

    def _get(self, path: str, params: dict) -> list[dict]:
        """The ``data`` entries of a graph reply. A reply that is not JSON,
        or whose entries are not objects, is a RetrievalError at once."""
        headers = {"x-api-key": self.api_key} if self.api_key else {}
        import requests  # only a run that asks an HTTP source pays for the import

        def attempt() -> list[dict]:
            try:
                resp = requests.get(
                    f"{self.base_url}/{path}", params=params, headers=headers, timeout=self.timeout
                )
            except requests.RequestException as exc:
                raise TransientBackendError(str(exc)) from exc
            if resp.status_code == 200:
                try:
                    doc = resp.json()
                except ValueError as exc:
                    raise RetrievalError(f"graph API {path} reply is not JSON") from exc
                data = doc.get("data", []) if isinstance(doc, dict) else None
                if isinstance(data, list) and all(isinstance(e, dict) for e in data):
                    return data
                raise RetrievalError(f"graph API {path} reply has an unexpected shape")
            if resp.status_code in RETRYABLE_STATUSES:
                raise TransientBackendError(
                    f"status {resp.status_code}", resp.status_code, parse_retry_after(resp)
                )
            raise RetrievalError(f"graph API {path} failed: status {resp.status_code}")

        try:
            return with_backoff(attempt, self.profile, self.sleeper, self.draw)
        except ExhaustionError as exc:
            raise SourceUnavailableError(f"graph API {path} failed: {exc.__cause__}") from exc

    def search(self, query: str, limit: int) -> list[PaperRecord]:
        data = self._get("paper/search", {"query": query, "limit": limit, "fields": _GRAPH_FIELDS})
        return [parse_graph_record(item) for item in data]

    def citations(self, paper_id: PaperId, limit: int) -> list[PaperRecord]:
        data = self._get(
            f"paper/{self._api_id(paper_id)}/citations",
            {"limit": limit, "fields": _GRAPH_FIELDS},
        )
        return [parse_graph_record(p) for e in data if (p := _graph_object(e, "citingPaper"))]

    def references(self, paper_id: PaperId, limit: int) -> list[PaperRecord]:
        data = self._get(
            f"paper/{self._api_id(paper_id)}/references",
            {"limit": limit, "fields": _GRAPH_FIELDS},
        )
        return [parse_graph_record(p) for e in data if (p := _graph_object(e, "citedPaper"))]

    @staticmethod
    def _api_id(paper_id: PaperId) -> str:
        if paper_id.source is IdSource.PREPRINT:
            return f"arXiv:{paper_id.canonical}"
        return paper_id.canonical


_ATOM_NS = {"atom": "http://www.w3.org/2005/Atom"}


def parse_preprint_feed(xml_text: str) -> list[PaperRecord]:
    """Parse a preprint-archive Atom feed into records."""
    records = []
    root = ET.fromstring(xml_text)
    for entry in root.findall("atom:entry", _ATOM_NS):
        raw_id = entry.findtext("atom:id", default="", namespaces=_ATOM_NS)
        short = raw_id.rsplit("/", 1)[-1].split("v")[0] if raw_id else ""
        if not short:
            continue
        title = " ".join((entry.findtext("atom:title", default="", namespaces=_ATOM_NS)).split())
        summary = " ".join((entry.findtext("atom:summary", default="", namespaces=_ATOM_NS)).split())
        records.append(
            PaperRecord(
                id=PaperId(short, IdSource.PREPRINT),
                title=title or "(untitled)",
                abstract=summary,
                full_text_ref=f"https://arxiv.org/pdf/{short}",
            )
        )
    return records


class PreprintSource:
    """Preprint-archive search used to supplement the evidence pool when
    the primary source fails or comes back empty. The archive API has no
    citation graph, so link expansion returns nothing here."""

    def __init__(
        self,
        base_url: str = "http://export.arxiv.org/api/query",
        timeout: float = 30.0,
    ):
        self.base_url = base_url
        self.timeout = timeout

    def search(self, query: str, limit: int) -> list[PaperRecord]:
        import requests
        try:
            resp = requests.get(
                self.base_url,
                params={"search_query": f"all:{query}", "max_results": limit},
                timeout=self.timeout,
            )
            resp.raise_for_status()
        except requests.RequestException as exc:
            raise RetrievalError(f"preprint archive search failed: {exc}") from exc
        try:
            return parse_preprint_feed(resp.text)
        except ET.ParseError as exc:
            raise RetrievalError(f"preprint archive reply is not an Atom feed: {exc}") from exc

    def citations(self, paper_id: PaperId, limit: int) -> list[PaperRecord]:
        return []

    def references(self, paper_id: PaperId, limit: int) -> list[PaperRecord]:
        return []
