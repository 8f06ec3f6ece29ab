"""Deterministic scripted backends for hermetic runs and tests.

The transport matches prompts against an ordered rule table (regex ->
queue of canned replies); every request is recorded so tests can count
calls. The last reply of a queue is sticky so a rule can answer any
number of matching requests.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .gateway import CompletionRequest, TransientBackendError, TransportResponse


@dataclass
class CannedReply:
    text: str = ""
    status: int = 200


class ScriptError(AssertionError):
    """A prompt reached the scripted transport without a matching rule."""


class ScriptedTransport:
    def __init__(self, default: Optional[str] = None):
        self._rules: list[tuple[re.Pattern, list[CannedReply]]] = []
        self.default = default
        self.calls: list[CompletionRequest] = []
        self._lock = threading.Lock()  # concurrent sends share the reply queues

    def add(self, pattern: str, *replies: CannedReply | str) -> "ScriptedTransport":
        queue = [r if isinstance(r, CannedReply) else CannedReply(r) for r in replies]
        if not queue:
            raise ValueError("a rule needs at least one reply")
        self._rules.append((re.compile(pattern, re.S), queue))
        return self

    def send(self, request: CompletionRequest) -> TransportResponse:
        with self._lock:
            self.calls.append(request)
            for pattern, queue in self._rules:
                if pattern.search(request.prompt):
                    reply = queue.pop(0) if len(queue) > 1 else queue[0]
                    return TransportResponse(reply.status, reply.text)
        if self.default is not None:
            return TransportResponse(200, self.default)
        raise ScriptError(
            f"no scripted rule matches prompt (tag={request.tag!r}): "
            f"{request.prompt[:160]!r}"
        )

    def calls_matching(self, pattern: str) -> list[CompletionRequest]:
        rx = re.compile(pattern, re.S)
        return [c for c in self.calls if rx.search(c.prompt)]

    @classmethod
    def from_rules_file(cls, path: str | Path, default: Optional[str] = None) -> "ScriptedTransport":
        """Load rules from JSON: {"rules": [{"pattern", "replies": [str|{text,status}]}], "default"?}."""
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        transport = cls(default=doc.get("default", default))
        for rule in doc["rules"]:
            replies = [
                CannedReply(r["text"], r.get("status", 200)) if isinstance(r, dict) else CannedReply(r)
                for r in rule["replies"]
            ]
            transport.add(rule["pattern"], *replies)
        return transport


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


class FixtureEmbedder:
    """Hand-set vectors per exact text, hash-based fallback otherwise."""

    def __init__(self, mapping: Optional[dict[str, Sequence[float]]] = None, dim: int = 8):
        self.mapping = dict(mapping or {})
        self.dim = dim
        self.calls = 0

    def encode(self, texts: Sequence[str]) -> list[list[float]]:
        self.calls += 1
        out = []
        for text in texts:
            if text in self.mapping:
                out.append([float(x) for x in self.mapping[text]])
            else:
                seed = int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")
                rng = np.random.default_rng(seed)
                out.append(rng.standard_normal(self.dim).tolist())
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


class ConstantNli:
    """Entailment backend that answers the same verdict for everything."""

    def __init__(self, verdict: bool = True):
        self.verdict = verdict
        self.calls = 0

    def entails(self, claim: str, premises: Sequence[str]) -> bool:
        self.calls += 1
        return self.verdict


class FixtureNli:
    """Verdicts scripted per (claim text, frozen premise set)."""

    def __init__(self, table: dict[tuple[str, frozenset[str]], bool], default: bool = False):
        self.table = dict(table)
        self.default = default
        self.calls = 0

    def entails(self, claim: str, premises: Sequence[str]) -> bool:
        self.calls += 1
        return self.table.get((claim, frozenset(premises)), self.default)


class HashNli:
    """Deterministic pseudo-random verdicts; handy for stress fixtures."""

    def __init__(self, seed: int = 0, true_rate: float = 0.5):
        self.seed = seed
        self.true_rate = true_rate

    def entails(self, claim: str, premises: Sequence[str]) -> bool:
        blob = f"{self.seed}|{claim}|{sorted(premises)}".encode("utf-8")
        value = int.from_bytes(hashlib.sha256(blob).digest()[:4], "big") / 2**32
        return value < self.true_rate
