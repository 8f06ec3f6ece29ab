"""Test doubles: backends and helpers that only the tests use.

The backends the pipeline itself can run (``ScriptedTransport``,
``ConstantNli``, ``HashNli``) live in ``litsurvey.scripted``.
"""

from __future__ import annotations

import math
import threading
from typing import Optional, Sequence

from litsurvey.gateway import (
    CompletionRequest,
    TransientBackendError,
    TransportResponse,
    hashed_normals,
)
from litsurvey.scripted import CannedReply


class SequenceTransport:
    """Replies with a fixed status/text sequence regardless of the prompt;
    the minimal double for retry/backoff behavior."""

    def __init__(self, responses: Sequence[CannedReply | str | int]):
        self.responses = [
            r if isinstance(r, CannedReply)
            else CannedReply(r) if isinstance(r, str)
            else CannedReply("", r)
            for r in responses
        ]
        self.calls: list[CompletionRequest] = []

    def send(self, request: CompletionRequest) -> TransportResponse:
        self.calls.append(request)
        index = min(len(self.calls) - 1, len(self.responses) - 1)
        reply = self.responses[index]
        return TransportResponse(reply.status, reply.text)


class CutFirstReply:
    """Wraps a transport and cuts its first reply to a request tagged
    ``tag``: that reply comes back as a backend sends one that reached the
    request's ``max_output_tokens``, half its text with finish reason
    "length". Every later reply passes as it is; ``cut`` holds the request
    whose reply was cut."""

    def __init__(self, inner, tag: str):
        self.inner = inner
        self.tag = tag
        self.cut: list[CompletionRequest] = []
        self._lock = threading.Lock()

    def send(self, request: CompletionRequest) -> TransportResponse:
        response = self.inner.send(request)
        with self._lock:
            if request.tag != self.tag or self.cut:
                return response
            self.cut.append(request)
        return TransportResponse(200, response.text[: len(response.text) // 2], "length")


class FixtureEmbedder:
    """Hand-set vectors per exact text, hash-based fallback otherwise;
    records each batch it is sent, from any number of threads."""

    def __init__(self, mapping: Optional[dict[str, Sequence[float]]] = None, dim: int = 8):
        self.mapping = dict(mapping or {})
        self.dim = dim
        self.batches: list[tuple[str, ...]] = []
        self._lock = threading.Lock()

    @property
    def calls(self) -> int:
        return len(self.batches)

    def encode(self, texts: Sequence[str]) -> list[list[float]]:
        with self._lock:
            self.batches.append(tuple(texts))
        out = []
        for text in texts:
            if text in self.mapping:
                out.append([float(x) for x in self.mapping[text]])
            else:
                out.append(hashed_normals(text, self.dim))
        return out


class FlakyEmbedder:
    """Fails transiently a fixed number of times, then delegates."""

    def __init__(self, inner, failures: int):
        self.inner = inner
        self.failures = failures
        self.attempts = 0

    def encode(self, texts: Sequence[str]) -> list[list[float]]:
        self.attempts += 1
        if self.attempts <= self.failures:
            raise TransientBackendError(f"scripted transient failure {self.attempts}")
        return self.inner.encode(texts)


class FixtureNli:
    """Verdicts scripted per (claim text, frozen premise set)."""

    def __init__(self, table: dict[tuple[str, frozenset[str]], bool], default: bool = False):
        self.table = dict(table)
        self.default = default
        self.calls = 0

    def entails(self, claim: str, premises: Sequence[str]) -> bool:
        self.calls += 1
        return self.table.get((claim, frozenset(premises)), self.default)


def expected_batch_calls(n_inputs: int, batch_size: int = 5) -> int:
    """Backend calls the code report makes for ``n_inputs`` pseudocodes."""
    return math.ceil(n_inputs / batch_size)
