"""Deterministic scripted backends for hermetic runs: the transport
behind ``backend.kind: scripted`` and the ``constant`` NLI kind, which
entails every claim, and the ``hash`` kind.

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

from .gateway import CompletionRequest, TransportResponse


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
    def from_rules_file(cls, path: str | Path) -> "ScriptedTransport":
        """Load rules from JSON: {"rules": [{"pattern", "replies": [str|{text,status}]}], "default"?}."""
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        transport = cls(default=doc.get("default"))
        for rule in doc["rules"]:
            replies = [
                CannedReply(r["text"], r.get("status", 200)) if isinstance(r, dict) else CannedReply(r)
                for r in rule["replies"]
            ]
            transport.add(rule["pattern"], *replies)
        return transport


class ConstantNli:
    """Entailment backend that entails every claim."""

    def __init__(self):
        self.calls = 0

    def entails(self, claim: str, premises: Sequence[str]) -> bool:
        self.calls += 1
        return True


class HashNli:
    """Deterministic pseudo-random verdicts; handy for stress fixtures."""

    def __init__(self, seed: int = 0, true_rate: float = 0.5):
        self.seed = seed
        self.true_rate = true_rate

    def entails(self, claim: str, premises: Sequence[str]) -> bool:
        blob = f"{self.seed}|{claim}|{sorted(premises)}".encode("utf-8")
        value = int.from_bytes(hashlib.sha256(blob).digest()[:4], "big") / 2**32
        return value < self.true_rate
