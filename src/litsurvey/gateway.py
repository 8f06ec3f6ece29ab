"""Uniform access to generation and embedding backends.

Adds what every stage relies on: jittered exponential-backoff retry on
recoverable HTTP statuses, api-tier response caching (runtime + disk),
unit-normalized embeddings, and :func:`request_validated`, the one
validate-and-retry protocol for structured output. A stage hands it a
prompt string and, optionally, a context string; each request is the retry
preamble (attempt marker and error memory), then the prompt, then the
context fitted to what the context window has left.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional, Protocol, Sequence, Sized, TypeVar

import numpy as np
import requests

from .caching import DiskCache, cache_key
from .errors import (
    BackendError,
    BudgetError,
    ExhaustionError,
    InvalidInputError,
    MalformedOutputError,
    TruncatedReply,
)
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


class Transport(Protocol):
    def send(self, request: CompletionRequest) -> TransportResponse: ...


class EmbeddingBackend(Protocol):
    def encode(self, texts: Sequence[str]) -> list[list[float]]: ...


class TransientBackendError(Exception):
    """A backend failure worth retrying; ``status`` is the HTTP status when
    the failure has one."""

    def __init__(self, message: str, status: Optional[int] = None):
        super().__init__(message)
        self.status = status


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
    at different moments, while each caller's delays stay nondecreasing and
    within the bounds.

    ``call`` raises TransientBackendError for a retryable failure; any
    other exception propagates at once. After ``profile.max_attempts``
    transient failures this raises ExhaustionError, chained to the last one.
    """
    delay, delay_max = profile.backoff_bounds
    spread = 1.0 + draw()
    for attempt in range(1, profile.max_attempts + 1):
        try:
            return call()
        except TransientBackendError as exc:
            last = exc
        if attempt < profile.max_attempts:
            sleeper(min(delay * spread, delay_max))
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
        try:
            resp = requests.post(self.url, json=payload, headers=headers, timeout=self.timeout)
        except requests.RequestException as exc:
            # Transport-level failures behave like a retryable 503.
            return TransportResponse(503, f"transport error: {exc}")
        if resp.status_code != 200:
            return TransportResponse(resp.status_code, resp.text)
        body = _json_body(resp, "chat completion")
        text = extract_chat_text(body)
        reason = body["choices"][0].get("finish_reason")
        return TransportResponse(200, text, reason if isinstance(reason, str) else None)


def _json_body(resp: requests.Response, what: str) -> Any:
    """The JSON body of a 200 reply; a body that is not JSON (say, a proxy's
    HTML page) is a BackendError, not a retry."""
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


class HashEmbedder:
    """Deterministic local embedding provider.

    Maps text to a reproducible pseudo-random direction; good enough for
    thresholded cosine filtering in offline runs and tests.
    """

    dim = 32

    def encode(self, texts: Sequence[str]) -> list[list[float]]:
        out = []
        for text in texts:
            seed = int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")
            rng = np.random.default_rng(seed)
            out.append(rng.standard_normal(self.dim).tolist())
        return out


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
            raise TransientBackendError(f"status {resp.status_code}", resp.status_code)
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
    ):
        self.transport = transport
        self.embedder = embedder or HashEmbedder()
        self.profile = profile or BackendProfile()
        self.embed_batch_size = embed_batch_size
        self.sleeper = sleeper
        self.draw = draw
        self._runtime: dict[str, Any] = {}
        self._disk = DiskCache(f"{cache_dir}/api", cache_expiry) if cache_dir else None
        self._lock = threading.Lock()
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
            "complete", request.tag, request.temperature, request.max_output_tokens, request.prompt
        )
        return self.cached(
            key,
            lambda: with_backoff(
                lambda: self._send_once(request), self.profile, self.sleeper, self.draw
            ),
        )

    def complete_text(self, prompt: str, tag: str, temperature: float = 0.0) -> str:
        return self.complete(CompletionRequest(prompt=prompt, temperature=temperature, tag=tag))

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
                        self.cache_hits += 1
                        return value
                    flight = self._in_flight[key] = threading.Event()
                    break
            flight.wait()
        try:
            value = produce()
            self._cache_set(key, value)
            return value
        finally:
            with self._lock:
                del self._in_flight[key]
            flight.set()

    def _cache_get(self, key: str) -> Optional[Any]:
        with self._lock:
            value = self._runtime.get(key)
            if value is not None:
                self.cache_hits += 1
                return value
        if self._disk is None:
            return None
        value = self._disk.get(key)
        if value is not None:
            with self._lock:
                self._runtime[key] = value
                self.cache_hits += 1
        return value

    def _cache_set(self, key: str, value: Any) -> None:
        with self._lock:
            self._runtime[key] = value
        if self._disk is not None:
            self._disk.set(key, value)

    def _send_once(self, request: CompletionRequest) -> str:
        response = self.transport.send(request)
        with self._lock:
            self.transport_calls += 1
        if response.status == 200:
            if response.finish_reason == "length":
                # Raised, so that the cut reply is not cached.
                raise TruncatedReply(request.max_output_tokens)
            return response.text
        if response.status in RETRYABLE_STATUSES:
            raise TransientBackendError(f"status {response.status}", response.status)
        raise BackendError(f"backend returned status {response.status}", response.status)

    # -- embeddings ------------------------------------------------------

    def embed(self, texts: Sequence[str], workers: int = 1) -> list[list[float]]:
        """One unit-normalized vector per input text.

        The texts missing from the cache go to the backend in the batches
        of :meth:`embed_batches`, up to ``workers`` batches at once.
        """
        if not texts:
            raise InvalidInputError("embed() requires at least one text")
        results, batches = self.embed_batches(texts)

        def encode(batch: list[tuple[int, str]]) -> list[list[float]]:
            batch_texts = [t for _, t in batch]
            vectors = with_backoff(
                lambda: self._encode_once(batch_texts), self.profile, self.sleeper, self.draw
            )
            units = [_normalize(vector) for vector in vectors]
            for text, unit in zip(batch_texts, units):
                self._cache_set(cache_key("embed", text), unit)
            return units

        for batch, units in zip(batches, map_bounded(encode, batches, workers)):
            for (i, _), unit in zip(batch, units):
                results[i] = unit
        return [results[i] for i in range(len(texts))]

    def embed_batches(
        self, texts: Sequence[str]
    ) -> tuple[dict[int, list[float]], list[list[tuple[int, str]]]]:
        """The cached vector of each text that has one, by index, and the
        other texts as (index, text) batches of ``embed_batch_size``: the
        same batches at every width."""
        results: dict[int, list[float]] = {}
        missing: list[tuple[int, str]] = []
        for i, text in enumerate(texts):
            cached = self._cache_get(cache_key("embed", text))
            if cached is not None:
                results[i] = cached
            else:
                missing.append((i, text))
        return results, list(batched(missing, self.embed_batch_size))

    def _encode_once(self, texts: list[str]) -> list[list[float]]:
        with self._lock:
            self.transport_calls += 1
        return self.embedder.encode(texts)


def _normalize(vector: Sequence[float]) -> list[float]:
    arr = np.asarray(vector, dtype=float)
    norm = float(np.linalg.norm(arr))
    if norm == 0.0:
        raise BackendError("embedding backend returned a zero vector")
    return (arr / norm).tolist()


def cosine(a: Sequence[float], b: Sequence[float]) -> float:
    return float(np.dot(np.asarray(a, dtype=float), np.asarray(b, dtype=float)))


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


class FeedAborted(Exception):
    """The stage that fills a :class:`Feed` failed; its consumer stops."""


class Feed:
    """Hands one stage's results to the next stage while the first one is
    still producing them.

    The producer puts each item under its index in the producer's own
    result, in any order; the feed's owner then closes it, once every index
    from 0 up has been put, or aborts it. A consumer iterates the feed,
    getting the items in index order, each as soon as it and every earlier
    one are in, or hands it to :func:`map_bounded`, which reads it the same
    way. Both raise FeedAborted once the feed is aborted.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._arrived: list[tuple[int, Any]] = []
        self._state = "open"  # then "closed" or "aborted", for good

    def put(self, index: int, item: Any) -> None:
        with self._cond:
            self._arrived.append((index, item))
            self._cond.notify_all()

    def close(self) -> None:
        self._end("closed")

    def abort(self) -> None:
        """End the feed unfinished; a feed already closed stays closed."""
        self._end("aborted")

    def _end(self, state: str) -> None:
        with self._cond:
            if self._state == "open":
                self._state = state
                self._cond.notify_all()

    def arrivals(self, seen: int = 0) -> list[tuple[int, Any]]:
        """The (index, item) pairs put after the first ``seen``, waiting
        until there is one; empty once the feed is closed and all are seen."""
        with self._cond:
            self._cond.wait_for(lambda: len(self._arrived) > seen or self._state != "open")
            if self._state == "aborted":
                raise FeedAborted()
            return self._arrived[seen:]

    def wait_closed(self) -> None:
        """Wait until the feed is closed; raises FeedAborted once it is
        aborted."""
        with self._cond:
            self._cond.wait_for(lambda: self._state != "open")
            if self._state == "aborted":
                raise FeedAborted()

    def __iter__(self):
        held: dict[int, Any] = {}
        seen = 0
        for index in itertools.count():
            while index not in held:
                fresh = self.arrivals(seen)
                if not fresh:
                    return
                seen += len(fresh)
                held.update(fresh)
            yield held.pop(index)


def map_bounded(fn: Callable[[Any], Any], items: Iterable[Any], workers: int = 1) -> list[Any]:
    """Apply ``fn`` over ``items`` with at most ``workers`` calls in flight;
    results keep the input order so downstream merging stays deterministic.

    ``items`` is read in order: a sequence, or an iterator (a :class:`Feed`,
    say) that may wait before it gives its next item. Each item starts once
    it and every earlier one are in, and at one worker (or for a single
    item) the calls run one after another on the calling thread. The first
    ``workers`` items always start. Fails like the serial loop: once an item
    raises, no further item starts, and the error of the lowest-index
    failing item, a KeyboardInterrupt or SystemExit too, is re-raised after
    the running ones finish. An iterator that raises (a feed that is
    aborted raises FeedAborted) starts no further item, and its error is
    raised once the running ones finish.
    """
    if isinstance(items, Sized):
        workers = min(workers, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    results: dict[int, Any] = {}
    errors: dict[int, BaseException] = {}
    slots = threading.Semaphore(workers)

    def run(index: int, item: Any) -> None:
        try:
            results[index] = fn(item)
        except BaseException as exc:
            errors[index] = exc
        finally:
            slots.release()

    with ThreadPoolExecutor(max_workers=workers) as pool:
        for index, item in enumerate(items):
            slots.acquire()
            if errors and index >= workers:
                break
            pool.submit(run, index, item)
    if errors:
        raise errors[min(errors)]
    return [results[i] for i in range(len(results))]
