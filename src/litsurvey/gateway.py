"""Uniform access to generation and embedding backends.

Adds what every stage relies on: jittered exponential-backoff retry on
recoverable HTTP statuses, api-tier response caching (runtime + disk),
unit-normalized embeddings, and :func:`request_validated`, the one path
every chat request of a stage takes and its one validate-and-retry
protocol. A stage hands it a prompt string, optionally a context string,
and a parse: the reply's structured reading, or :func:`free_text` for a
free-text tag. Each request is the retry preamble (attempt marker and
error memory), then the prompt, then the context fitted to what the
context window has left.

The gateway caches and counts; fan-outs, its own embedding batches too,
run in :mod:`litsurvey.fanout`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import operator
import random
import re
import struct
import threading
import time
from dataclasses import dataclass
from statistics import NormalDist
from typing import Any, Callable, Iterable, Iterator, Optional, Protocol, Sequence, TypeVar

from .caching import DiskCache, cache_key
from .errors import (
    BackendError,
    BudgetError,
    ExhaustionError,
    InvalidInputError,
    MalformedOutputError,
    TruncatedReply,
)
from .fanout import CallBudget, map_bounded
from .model import ErrorMemory
from .runlog import RunLog
from .tokens import compress_context, estimate_tokens

T = TypeVar("T")

RETRYABLE_STATUSES = frozenset({408, 429, 500, 502, 503, 504})


@dataclass
class CompletionRequest:
    prompt: str
    temperature: float = 0.0
    max_output_tokens: int = 4096
    tag: str = "general"  # pipeline stage label; partitions the cache

    def __post_init__(self):
        if not self.prompt:
            raise InvalidInputError("completion prompt must be non-empty")
        if not 0.0 <= self.temperature <= 2.0:
            raise InvalidInputError("temperature must be within [0, 2]")
        if self.max_output_tokens <= 0:
            raise InvalidInputError("max_output_tokens must be positive")


@dataclass
class BackendProfile:
    context_window: int = 512_000
    max_attempts: int = 10
    backoff_bounds: tuple[float, float] = (1.0, 300.0)

    def __post_init__(self):
        lo, hi = self.backoff_bounds
        if not lo < hi:
            raise InvalidInputError("backoff bounds must satisfy min < max")
        if self.max_attempts < 1:
            raise InvalidInputError("max_attempts must be >= 1")


@dataclass
class TransportResponse:
    status: int
    text: str
    #: why the backend stopped, when it says: "length" is a reply cut at
    #: the request's ``max_output_tokens``
    finish_reason: Optional[str] = None
    #: the seconds a refusing backend asks the caller to wait before
    #: retrying (its ``Retry-After`` header), when it says
    retry_after: Optional[float] = None


class Transport(Protocol):
    def send(self, request: CompletionRequest) -> TransportResponse: ...


class EmbeddingBackend(Protocol):
    def encode(self, texts: Sequence[str]) -> list[list[float]]: ...


class TransientBackendError(Exception):
    """A backend failure worth retrying; ``status`` is the HTTP status when
    the failure has one, and ``retry_after`` the seconds the backend asked
    the caller to wait, when it did."""

    def __init__(
        self, message: str, status: Optional[int] = None, retry_after: Optional[float] = None
    ):
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


def parse_retry_after(resp: Any) -> Optional[float]:
    """The seconds of a ``requests`` reply's ``Retry-After`` header, or None
    when it has none or the header is not a number of seconds (say, a date)."""
    try:
        seconds = float(resp.headers.get("Retry-After"))
    except (TypeError, ValueError):
        return None
    return seconds if 0.0 <= seconds < math.inf else None


def with_backoff(
    call: Callable[[], T],
    profile: BackendProfile,
    sleeper: Callable[[float], None],
    draw: Callable[[], float] = random.random,
) -> T:
    """Run ``call`` until it returns, sleeping between tries.

    The k-th sleep is ``min(hi, lo * 2**(k-1) * (1 + u))`` for the
    profile's ``backoff_bounds`` (lo, hi), where ``u`` in [0, 1) comes from
    one ``draw()`` per call. Callers refused at the same moment thus retry
    at different moments. A failure whose ``retry_after`` asks for longer
    gets that long, still at most hi; a sleep is never shorter than the
    one before, so each caller's delays stay nondecreasing and within the
    bounds.

    ``call`` raises TransientBackendError for a retryable failure; any
    other exception propagates at once. After ``profile.max_attempts``
    transient failures this raises ExhaustionError, chained to the last one.
    """
    delay, delay_max = profile.backoff_bounds
    spread = 1.0 + draw()
    slept = 0.0
    for attempt in range(1, profile.max_attempts + 1):
        try:
            return call()
        except TransientBackendError as exc:
            last = exc
        if attempt < profile.max_attempts:
            slept = min(max(delay * spread, last.retry_after or 0.0, slept), delay_max)
            sleeper(slept)
            delay = min(delay * 2, delay_max)
    status = last.status if last.status is not None else str(last)
    raise ExhaustionError(profile.max_attempts, status) from last


class HttpChatTransport:
    """Chat-completion-style HTTP endpoint. Auth token comes from the
    environment, never from config files."""

    def __init__(self, url: str, model: str, api_key: str = "", timeout: float = 120.0):
        self.url = url
        self.model = model
        self.api_key = api_key
        self.timeout = timeout

    def send(self, request: CompletionRequest) -> TransportResponse:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": request.temperature,
            "max_tokens": request.max_output_tokens,
        }
        import requests  # only a run that sends over HTTP pays for the import
        try:
            resp = requests.post(self.url, json=payload, headers=headers, timeout=self.timeout)
        except requests.RequestException as exc:
            # Transport-level failures behave like a retryable 503.
            return TransportResponse(503, f"transport error: {exc}")
        if resp.status_code != 200:
            wait = parse_retry_after(resp) if resp.status_code in RETRYABLE_STATUSES else None
            return TransportResponse(resp.status_code, resp.text, retry_after=wait)
        body = _json_body(resp, "chat completion")
        text = extract_chat_text(body)
        reason = body["choices"][0].get("finish_reason")
        return TransportResponse(200, text, reason if isinstance(reason, str) else None)


def _json_body(resp: Any, what: str) -> Any:
    """The JSON body of a 200 ``requests`` reply; a body that is not JSON
    (say, a proxy's HTML page) is a BackendError, not a retry."""
    try:
        return resp.json()
    except ValueError as exc:
        raise BackendError(f"{what} reply is not JSON: {resp.text[:200]!r}") from exc


def extract_chat_text(payload: dict) -> str:
    try:
        text = payload["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise BackendError(f"unexpected chat completion payload: {exc}") from exc
    if not isinstance(text, str):
        raise BackendError(f"chat completion content is not text: {text!r}")
    return text


_STANDARD_NORMAL = NormalDist()


def hashed_normals(text: str, dim: int) -> list[float]:
    """``dim`` standard-normal draws that depend on ``text`` alone: the
    ``shake_256`` digest of the text, cut into 8-byte words whose top 52
    bits place a uniform strictly inside (0, 1), each mapped through the
    normal quantile function."""
    digest = hashlib.shake_256(text.encode("utf-8")).digest(8 * dim)
    return [
        _STANDARD_NORMAL.inv_cdf(((word >> 12) + 0.5) * 2.0**-52)
        for word in struct.unpack(f">{dim}Q", digest)
    ]


class HashEmbedder:
    """Deterministic local embedding provider.

    Maps text to a reproducible pseudo-random direction (see
    :func:`hashed_normals`); good enough for thresholded cosine filtering
    in offline runs and tests. A text gets the same vector in every
    process, whatever ``PYTHONHASHSEED`` is. The vectors changed once,
    when this digest replaced a seeded array-library generator; the
    embedding cache keys gained the backend's scope at the same change, so
    a vector of the old generator is never read back next to a new one.
    """

    dim = 32

    def encode(self, texts: Sequence[str]) -> list[list[float]]:
        return [hashed_normals(text, self.dim) for text in texts]


class HttpEmbedder:
    def __init__(self, url: str, model: str, api_key: str = "", timeout: float = 60.0):
        self.url = url
        self.model = model
        self.api_key = api_key
        self.timeout = timeout

    def encode(self, texts: Sequence[str]) -> list[list[float]]:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        import requests
        try:
            resp = requests.post(
                self.url,
                json={"model": self.model, "input": list(texts)},
                headers=headers,
                timeout=self.timeout,
            )
        except requests.RequestException as exc:
            raise TransientBackendError(str(exc)) from exc
        if resp.status_code in RETRYABLE_STATUSES:
            raise TransientBackendError(
                f"status {resp.status_code}", resp.status_code, parse_retry_after(resp)
            )
        if resp.status_code != 200:
            raise BackendError(f"embedding backend status {resp.status_code}", resp.status_code)
        body = _json_body(resp, "embedding")
        try:
            vectors = [item["embedding"] for item in body["data"]]
        except (KeyError, TypeError) as exc:
            raise BackendError(f"unexpected embedding payload: {str(body)[:200]}") from exc
        if len(vectors) != len(texts):
            raise BackendError(f"embedding reply has {len(vectors)} vectors for {len(texts)} texts")
        return vectors


class Gateway:
    """Shared entry point for completions and embeddings.

    Thread-safe: one lock guards the runtime cache, the counters and the
    in-flight table (the disk cache has a lock of its own, held while it
    appends an entry or reads new ones), retries keep all state on
    the stack, and identical requests in flight at once share one backend
    call (see :meth:`cached`). ``sleeper`` and ``draw`` (the jitter source
    of :func:`with_backoff`) are injectable so tests run with a
    deterministic clock and fixed delays.

    ``transport_calls`` counts the requests handed to the backend, each
    just before it goes out, and ``cache_hits`` the answers served from the
    cache; a caller can wait for their sum with :meth:`wait_requests`.

    ``chat_scope`` and ``embed_scope`` name the backends behind
    ``transport`` and ``embedder`` (see :func:`pipeline.build_backends`)
    and enter every completion and embedding cache key, so a cache shared
    by runs over different backends serves each only its own answers.

    ``budget`` is the run's :class:`CallBudget` for model calls (unbounded
    if not given): a chat send and an embedding batch each hold one of its
    slots while the request is in flight. A cache hit, a wait for another
    caller's identical request and a backoff sleep hold none, and so does a
    paper-source call that :class:`sources.CachedSource` makes through
    :meth:`cached`.
    """

    def __init__(
        self,
        transport: Transport,
        embedder: Optional[EmbeddingBackend] = None,
        profile: Optional[BackendProfile] = None,
        cache_dir: Optional[str] = None,
        cache_expiry: Optional[float] = None,
        embed_batch_size: int = 32,
        sleeper: Callable[[float], None] = time.sleep,
        draw: Callable[[], float] = random.random,
        chat_scope: str = "",
        embed_scope: str = "",
        budget: Optional[CallBudget] = None,
    ):
        self.transport = transport
        self.embedder = embedder or HashEmbedder()
        self.profile = profile or BackendProfile()
        self.embed_batch_size = embed_batch_size
        self.chat_scope = chat_scope
        self.embed_scope = embed_scope
        self.sleeper = sleeper
        self.draw = draw
        self.budget = budget or CallBudget()
        self._runtime: dict[str, Any] = {}
        self._disk = DiskCache(f"{cache_dir}/api", cache_expiry) if cache_dir else None
        self._lock = threading.Lock()
        # Notified as a request goes out, while anyone waits for one.
        self._counted = threading.Condition(self._lock)
        self._waiters = 0
        self._in_flight: dict[str, threading.Event] = {}
        self.transport_calls = 0
        self.cache_hits = 0

    # -- completions -----------------------------------------------------

    def complete(self, request: CompletionRequest) -> str:
        if estimate_tokens(request.prompt) > self.profile.context_window:
            raise BudgetError(
                f"prompt of ~{estimate_tokens(request.prompt)} tokens exceeds the "
                f"{self.profile.context_window}-token context window"
            )
        key = cache_key(
            "complete",
            self.chat_scope,
            request.tag,
            request.temperature,
            request.max_output_tokens,
            request.prompt,
        )
        return self.cached(
            key,
            lambda: with_backoff(
                lambda: self._send_once(request), self.profile, self.sleeper, self.draw
            ),
        )

    def cached(self, key: str, produce: Callable[[], T]) -> T:
        """Get-or-compute on the api tier: the runtime cache, then the disk
        cache, else ``produce()``, whose value is stored in both.

        The value must be JSON-serializable and never None. Single-flight:
        while one caller runs ``produce()`` for a key, other callers with
        that key wait for it and then read the stored value. Nothing is
        stored when ``produce`` raises; the error goes to that caller alone,
        and a waiting caller (or the next lookup) runs ``produce()`` itself.
        """
        while True:
            value = self._cache_get(key)
            if value is not None:
                return value
            with self._lock:
                flight = self._in_flight.get(key)
                if flight is None:
                    # A leader that finished since the miss above stored
                    # its value before leaving the in-flight table.
                    value = self._runtime.get(key)
                    if value is not None:
                        self._count(hit=True)
                        return value
                    flight = self._in_flight[key] = threading.Event()
                    break
            flight.wait()
        try:
            value = produce()
            self._cache_set({key: value})
            return value
        finally:
            with self._lock:
                del self._in_flight[key]
            flight.set()

    def _cache_get(self, key: str) -> Optional[Any]:
        with self._lock:
            value = self._runtime.get(key)
            if value is not None:
                self._count(hit=True)
                return value
        if self._disk is None:
            return None
        value = self._disk.get(key)
        if value is not None:
            with self._lock:
                self._runtime[key] = value
                self._count(hit=True)
        return value

    def _cache_set(self, entries: dict[str, Any]) -> None:
        with self._lock:
            self._runtime.update(entries)
        if self._disk is not None:
            self._disk.set(entries)

    def _count(self, hit: bool) -> None:
        """Count one request out, a cache hit or a backend call; the caller
        holds the lock."""
        if hit:
            self.cache_hits += 1
        else:
            self.transport_calls += 1
        if self._waiters:
            self._counted.notify_all()

    def requests_out(self) -> int:
        """The requests handed to the backend plus the answers served from
        the cache, since the gateway was made: a retry or an embedding
        batch is one request, and so is each cache lookup that hits."""
        with self._lock:
            return self.transport_calls + self.cache_hits

    def wait_requests(self, count: int, ended: Callable[[], bool]) -> None:
        """Block until :meth:`requests_out` reaches ``count`` or ``ended()``
        is true; whoever makes ``ended()`` true calls :meth:`wake` then."""
        with self._counted:
            self._waiters += 1
            try:
                self._counted.wait_for(
                    lambda: self.transport_calls + self.cache_hits >= count or ended()
                )
            finally:
                self._waiters -= 1

    def wake(self) -> None:
        """Make every :meth:`wait_requests` check its ``ended`` again."""
        with self._counted:
            self._counted.notify_all()

    def _send_once(self, request: CompletionRequest) -> str:
        with self.budget.slot():
            with self._lock:
                self._count(hit=False)
            response = self.transport.send(request)
        if response.status == 200:
            if response.finish_reason == "length":
                # Raised, so that the cut reply is not cached.
                raise TruncatedReply(request.max_output_tokens)
            return response.text
        if response.status in RETRYABLE_STATUSES:
            raise TransientBackendError(
                f"status {response.status}", response.status, response.retry_after
            )
        raise BackendError(f"backend returned status {response.status}", response.status)

    # -- embeddings ------------------------------------------------------

    def embed(self, texts: Sequence[str]) -> list[list[float]]:
        """One unit-normalized vector per input text.

        The texts missing from the cache go to the backend in batches of
        ``embed_batch_size``, one after another.
        """
        if not texts:
            raise InvalidInputError("embed() requires at least one text")
        results: dict[int, list[float]] = {}
        missing: list[tuple[int, str]] = []
        for i, text in enumerate(texts):
            cached = self.cached_embedding(text)
            if cached is not None:
                results[i] = cached
            else:
                missing.append((i, text))
        batches = list(batched(missing, self.embed_batch_size))
        encoded = map_bounded(lambda batch: self.embed_batch([t for _, t in batch]), batches)
        for batch, units in zip(batches, encoded):
            for (i, _), unit in zip(batch, units):
                results[i] = unit
        return [results[i] for i in range(len(texts))]

    def cached_embedding(self, text: str) -> Optional[list[float]]:
        """The cached unit vector of ``text``, or None."""
        return self._cache_get(self._embed_key(text))

    def embed_batch(self, texts: Sequence[str]) -> list[list[float]]:
        """The unit-normalized vectors of texts missing from the cache, from
        one backend request, without looking them up again; the vectors are
        stored in the cache with one disk append."""
        texts = list(texts)
        vectors = with_backoff(
            lambda: self._encode_once(texts), self.profile, self.sleeper, self.draw
        )
        units = [_normalize(vector) for vector in vectors]
        self._cache_set({self._embed_key(text): unit for text, unit in zip(texts, units)})
        return units

    def _embed_key(self, text: str) -> str:
        return cache_key("embed", self.embed_scope, text)

    def _encode_once(self, texts: list[str]) -> list[list[float]]:
        with self.budget.slot():
            with self._lock:
                self._count(hit=False)
            return self.embedder.encode(texts)


def _normalize(vector: Sequence[float]) -> list[float]:
    norm = math.hypot(*vector)
    if norm == 0.0:
        raise BackendError("embedding backend returned a zero vector")
    return [x / norm for x in vector]


def cosine(a: Sequence[float], b: Sequence[float]) -> float:
    """The dot product of two vectors, which is their cosine once both are
    unit-normalized, as every vector the gateway hands out is."""
    return sum(map(operator.mul, a, b))


def nearest(
    gateway: Gateway, targets: Sequence[str], queries: Sequence[str]
) -> list[tuple[int, float]]:
    """For each query text, the index of the target text nearest to it by
    embedding cosine, ties to the lower index, and that similarity. The
    targets are embedded first, then the queries."""
    target_vecs = gateway.embed(targets)
    matches = []
    for vec in gateway.embed(queries):
        scores = [cosine(vec, target) for target in target_vecs]
        best = max(range(len(scores)), key=lambda i: (scores[i], -i))
        matches.append((best, scores[best]))
    return matches


def batched(items: Iterable[T], size: int) -> Iterator[list[T]]:
    """Successive lists of ``size`` items, the last one perhaps shorter,
    each as soon as it is complete."""
    items = iter(items)
    while batch := list(itertools.islice(items, size)):
        yield batch


# -- strict structured output with retry-with-error-memory ----------------

_FENCE_RE = re.compile(r"```(?:json)?\s*(.*?)```", re.S)


def extract_json_payload(text: str) -> Any:
    """Parse the JSON body of a model reply, tolerating code fences and
    surrounding prose. Raises ValueError when nothing parses."""
    candidates = [text.strip()]
    fenced = _FENCE_RE.search(text)
    if fenced:
        candidates.insert(0, fenced.group(1).strip())
    for candidate in candidates:
        try:
            return json.loads(candidate)
        except json.JSONDecodeError:
            pass
    # Last attempt: widest bracketed span.
    for opener, closer in (("[", "]"), ("{", "}")):
        start, end = text.find(opener), text.rfind(closer)
        if start != -1 and end > start:
            try:
                return json.loads(text[start : end + 1])
            except json.JSONDecodeError:
                continue
    raise ValueError("reply carries no parsable JSON payload")


def free_text(reply: str) -> str:
    """The parse of a free-text tag: the reply as it is, refusing a blank one."""
    if not reply.strip():
        raise ValueError("reply is empty")
    return reply


def request_validated(
    gateway: Gateway,
    prompt: str,
    parse: Callable[[str], T],
    *,
    tag: str,
    context: str = "",
    runlog: Optional[RunLog] = None,
    temperature: float = 0.0,
    max_retries: int = 3,
    error_factory: Callable[[str], Exception] = MalformedOutputError,
    last_parse: Optional[Callable[[str], T]] = None,
    on_retry: Optional[Callable[[int, list[str]], None]] = None,
) -> T:
    """Call the backend until ``parse`` accepts the reply.

    Every request is the retry preamble, then ``prompt``, then ``context``
    cut by :func:`compress_context` to what the context window has left; a
    cut is logged to ``runlog`` as ``context_compressed``. The preamble is
    empty on the first attempt; from the second attempt on it is the
    attempt marker (so a retry never collides with the cached failing
    request) followed by the rendered error memory of this call's rejected
    replies. The memory lives and dies with the call: no request of
    another call ever carries it.

    ``parse`` signals a violation by raising ValueError; each message in its
    args is recorded, in order, as its own error-memory entry. A reply the
    backend cut at its ``max_output_tokens`` is not cached and is rejected
    as well, with the entry "reply cut at N tokens; answer more briefly".
    ``last_parse``,
    when given, replaces ``parse`` on the final attempt, e.g. a lenient
    reading that keeps what it can. ``on_retry(attempt, problems)`` runs
    after every rejected reply. Returns the accepted value.
    """
    memory = ErrorMemory()
    problems = ["no attempt made"]
    for attempt in range(max_retries + 1):
        marker = f"(attempt {attempt + 1})\n" if attempt else ""
        head = marker + memory.render() + prompt
        request = compress_context(head, context, gateway.profile.context_window)
        if len(request) < len(head) + len(context) and runlog is not None:
            runlog.add("context_compressed", stage=tag)
        accept = last_parse if last_parse is not None and attempt == max_retries else parse
        try:
            reply = gateway.complete(
                CompletionRequest(prompt=request, temperature=temperature, tag=tag)
            )
        except TruncatedReply as exc:
            problems = [str(exc)]
        else:
            try:
                return accept(reply)
            except ValueError as exc:
                problems = [str(a) for a in exc.args] if len(exc.args) > 1 else [str(exc)]
        for problem in problems:
            memory = memory.record(problem)
        if on_retry is not None:
            on_retry(attempt, problems)
    raise error_factory(
        f"output still invalid after {max_retries + 1} attempts: {'; '.join(problems)}"
    )
