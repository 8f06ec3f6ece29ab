"""Benchmark-owned stand-ins for the remote services.

``Responder`` is a chat transport that reads each prompt and synthesizes a
reply that the pipeline accepts, chosen by ``CompletionRequest.tag``. It
keeps no per-conversation state, so a reply depends only on the prompt and
parallel runs see exactly what serial runs see. Scripted behaviour:

* every judge verdict keeps every paper; every subsection draft cites all
  of its assigned papers;
* one unit in five (chosen by its title) first returns a draft that is too
  short, so the writing stage retries it once;
* the refinement planner asks for one review and one revision per unit,
  then finishes; each revision appends a sentence carrying a marker
  ``Revision note rv<8 hex digits>`` so its presence in ``survey.md`` can
  be checked.

``DelayedEmbedder`` and ``DelayedSource`` add a fixed delay, each its own,
to every embedding batch and paper-source call.
"""

from __future__ import annotations

import ast
import hashlib
import json
import re
import threading
import time
from typing import Callable, Sequence

from litsurvey.gateway import CompletionRequest, TransportResponse
from litsurvey.tokens import estimate_tokens

CLUSTER_THEMES = (
    ("Graph Retrieval", "citation-graph expansion and seed search"),
    ("Evidence Filtering", "embedding and judge based relevance filtering"),
    ("Agentic Writing", "planner driven drafting with language agents"),
    ("Citation Grounding", "attribution and claim level citation checks"),
    ("Refinement Loops", "review and revision cycles for drafts"),
    ("Evaluation Methods", "entailment metrics and judge agreement"),
)
SUBSECTIONS = ("Foundations", "Methods", "Open Problems")
CONCLUSION = ("Conclusion", "Future Directions")

REVISION_MARK_RE = re.compile(r"Revision note (rv[0-9a-f]{8})")

_FILLER = (
    "Taken together these results show how evidence selection shapes the written narrative",
    "The comparison highlights a recurring trade-off between coverage and faithfulness",
    "Several studies report that structured intermediate artifacts reduce unsupported claims",
    "A common thread is the reliance on explicit citation anchors during drafting",
    "Open questions remain about robustness when the retrieved collection is noisy",
    "Reported gains are largest when the planner can revisit earlier decisions",
    "Evaluation protocols differ in how strictly they verify each cited statement",
    "The surveyed systems vary widely in how much context they pass between stages",
)


def outline_units() -> list[tuple[str, ...]]:
    """Every section and subsection path the responder's outline yields."""
    units: list[tuple[str, ...]] = []
    for name, _ in CLUSTER_THEMES:
        units += [(name, f"{name} {sub}") for sub in SUBSECTIONS]
        units.append((name,))
    units += [CONCLUSION, CONCLUSION[:1]]
    return units


def _digest(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


def drafts_retry(node_title: str) -> bool:
    """Units whose first draft the responder makes too short."""
    return _digest(node_title) % 5 == 0


def _section(prompt: str, start: str, end: str = "\n\n") -> str:
    begin = prompt.index(start) + len(start)
    stop = prompt.find(end, begin)
    return prompt[begin:] if stop < 0 else prompt[begin:stop]


def _listed(block: str) -> list[tuple[str, str]]:
    """(id, title-or-digest) pairs from '- id | title: ...' or '- id: ...' lines."""
    out = []
    for line in block.splitlines():
        if not line.startswith("- "):
            continue
        head, _, rest = line[2:].partition(": ")
        key, _, title = head.partition(" | ")
        out.append((key.strip(), title.strip() or rest))
    return out


def _prose(cited: list[str], least_words: int, seed: str) -> str:
    """Sentences citing two marks each, padded with filler to the floor."""
    sentences = []
    for i in range(0, len(cited), 2):
        pair = " and ".join(f"<{c}>" for c in cited[i : i + 2])
        sentences.append(
            f"{_FILLER[(_digest(seed) + i) % len(_FILLER)]}, as discussed in {pair}."
        )
    k = 0
    while sum(len(s.split()) for s in sentences) < least_words + 10:
        sentences.append(_FILLER[(_digest(seed) + k) % len(_FILLER)] + ".")
        k += 1
    return " ".join(sentences)


def _int_after(prompt: str, pattern: str) -> int:
    return int(re.search(pattern, prompt).group(1))


class Responder:
    """Chat transport synthesizing a valid reply per request tag."""

    def __init__(self, delay: float = 0.0):
        self.delay = delay
        self.calls = 0
        self.prompt_tokens = 0
        self.synth_s = 0.0
        self._lock = threading.Lock()
        self._handlers: dict[str, Callable[[str], str]] = {
            "retrieval.seed_filter": self._verdicts,
            "retrieval.rerank": self._verdicts,
            "understanding.keynote": self._keynote,
            "analysis.design": self._design,
            "analysis.assign": self._assign_clusters,
            "analysis.graph": self._graph,
            "analysis.table": self._table,
            "analysis.qa": self._qa,
            "analysis.inter_cluster": self._inter_cluster,
            "code.plan": self._code_plan,
            "code.create": self._code_create,
            "code.review": lambda p: json.dumps(
                {"conciseness": 8, "logical_structure": 7,
                 "implementation_specificity": 7, "suggestions": ["name the core loop"]}
            ),
            "code.revise": lambda p: p.partition("Pseudocode:\n")[2] + "\ncore loop: step_i",
            "code.batch_report": self._code_batch,
            "code.integrate": self._code_integrate,
            "code.environment": lambda p: "numpy and requests pinned in every repository",
            "writing.outline": self._outline,
            "writing.assign": self._assign_outline,
            "writing.subsection": self._subsection,
            "writing.section": self._section_preamble,
            "refine.plan": self._refine_plan,
            "refine.review": self._refine_review,
            "refine.revise": self._refine_revise,
            "evaluation.judge": self._judge,
        }

    def send(self, request: CompletionRequest) -> TransportResponse:
        started = time.perf_counter()
        handler = self._handlers.get(request.tag)
        if handler is None:
            raise ValueError(f"responder has no reply for tag {request.tag!r}")
        text = handler(request.prompt)
        tokens = estimate_tokens(request.prompt)
        spent = time.perf_counter() - started
        with self._lock:
            self.calls += 1
            self.prompt_tokens += tokens
            self.synth_s += spent
        if self.delay:
            time.sleep(self.delay)
        return TransportResponse(200, text)

    # -- retrieval / understanding -----------------------------------------

    def _verdicts(self, prompt: str) -> str:
        ids = re.findall(r"^- id: (\S+) \|", prompt, re.M)
        return json.dumps([{"paper_id": i, "relevant": True, "note": "on topic"} for i in ids])

    def _keynote(self, prompt: str) -> str:
        paper = re.search(r"keynote for paper id (\S+)\.", prompt).group(1)
        heading = re.search(r"^# (.+)$", prompt, re.M)
        focus = heading.group(1) if heading else paper
        return json.dumps(
            {
                "contributions": f"{focus} contributes a grounded drafting component",
                "methodology": f"the method of {paper} combines retrieval with a judge",
                "experiments": f"experiments on {paper} report higher citation recall",
                "limitations": "depends on the coverage of the citation graph",
                "critical_reflections": "gains shrink when the evidence pool is noisy",
                "tldr": f"{focus} grounds survey drafting in retrieved evidence.",
            }
        )

    # -- analysis ------------------------------------------------------------

    def _design(self, prompt: str) -> str:
        return json.dumps([{"cluster_name": n, "summary": s} for n, s in CLUSTER_THEMES])

    def _assign_clusters(self, prompt: str) -> str:
        names = [k for k, _ in _listed(_section(prompt, "Clusters:\n"))]
        papers = [k for k, _ in _listed(_section(prompt, "Papers:\n"))]
        out = []
        for i, key in enumerate(papers):
            chosen = [names[i % len(names)]]
            if i % 9 == 0 and len(names) > 1:
                chosen.append(names[(i + 1) % len(names)])
            out.append({"paper_id": key, "clusters": chosen})
        return json.dumps(out)

    def _graph(self, prompt: str) -> str:
        members = [k for k, _ in _listed(_section(prompt, "Members:\n"))][:6]
        return json.dumps(
            [
                {"from": a, "to": b, "relation": "extension", "description": f"{b} extends {a}"}
                for a, b in zip(members, members[1:])
            ]
        )

    def _table(self, prompt: str) -> str:
        members = [k for k, _ in _listed(_section(prompt, "Members:\n"))]
        columns = ["focus", "method", "evidence"]
        return json.dumps(
            {
                "columns": columns,
                "rows": [
                    {"paper_id": k, "cells": {c: f"{c} of {k}" for c in columns}}
                    for k in members
                ],
            }
        )

    def _qa(self, prompt: str) -> str:
        n = _int_after(prompt, r"Pose (\d+) high-value")
        members = [k for k, _ in _listed(_section(prompt, "Members:\n"))]
        a, b = members[0], members[1]
        return json.dumps(
            [
                {
                    "question": f"What separates approaches in this cluster (question {i + 1})?",
                    "related": [a, b],
                    "answer": f"Both <{a}> and <{b}> trade coverage for faithfulness.",
                }
                for i in range(n)
            ]
        )

    def _inter_cluster(self, prompt: str) -> str:
        return (
            "The clusters share the assumption that explicit evidence anchors keep "
            "generated prose faithful, and diverge on where verification happens."
        )

    # -- code analysis ---------------------------------------------------------

    def _code_plan(self, prompt: str) -> str:
        files = _section(prompt, "Repository files:\n").splitlines()
        sources = [f for f in files if f.endswith(".py")][:3]
        return json.dumps(
            [{"op": "get_source_code", "path": f} for f in sources]
            + [{"op": "create"}, {"op": "review"}, {"op": "revise"}, {"op": "finish"}]
        )

    def _code_create(self, prompt: str) -> str:
        reads = re.findall(r"^read (\S+) \((\d+) chars\)$", prompt, re.M)
        steps = "\n".join(f"  step from {path}: {size} chars of logic" for path, size in reads)
        return f"module pipeline:\n{steps}\n  write report"

    def _code_batch(self, prompt: str) -> str:
        ids = re.findall(r"^### (\S+)$", prompt, re.M)
        return " ".join(f"Repository <{i}> layers its pipeline into steps." for i in ids)

    def _code_integrate(self, prompt: str) -> str:
        ids = sorted(set(re.findall(r"<([^<>\n]+)>", prompt)))
        return "Integrated findings: " + " ".join(f"<{i}> shares the step layout." for i in ids)

    # -- writing -------------------------------------------------------------

    def _outline(self, prompt: str) -> str:
        topic = re.search(r"outline of a survey on '(.+?)'", prompt).group(1)
        sections = [
            {
                "title": name,
                "description": summary,
                "subsections": [
                    {"title": f"{name} {sub}", "description": f"{sub.lower()} of {summary}"}
                    for sub in SUBSECTIONS
                ],
            }
            for name, summary in CLUSTER_THEMES
        ]
        sections.append(
            {
                "title": CONCLUSION[0],
                "description": "synthesis and outlook",
                "subsections": [{"title": CONCLUSION[1], "description": "open problems"}],
            }
        )
        return json.dumps({"title": f"{topic.title()}: A Survey", "sections": sections})

    def _assign_outline(self, prompt: str) -> str:
        outline = json.loads(_section(prompt, "Outline: ", "\n"))
        leaves = [
            (sec["title"], sub["title"])
            for sec in outline["children"]
            for sub in sec["children"]
        ]
        papers = [k for k, _ in _listed(_section(prompt, "Papers:\n"))]
        out = []
        for i, key in enumerate(papers):
            section, sub = leaves[i % len(leaves)]
            assignment = {section: [sub]}
            if i % 10 == 0:
                assignment.setdefault(CONCLUSION[0], [])
                if CONCLUSION[1] not in assignment[CONCLUSION[0]]:
                    assignment[CONCLUSION[0]].append(CONCLUSION[1])
            out.append({"paper_id": key, "assignment": assignment})
        return json.dumps(out)

    def _subsection(self, prompt: str) -> str:
        title = re.search(r"body of subsection '(.+?)' \(within", prompt).group(1)
        titles = [t for _, t in _listed(_section(prompt, "Assigned papers:\n", "\nCluster insights:"))]
        if drafts_retry(title) and not prompt.startswith("(attempt "):
            return f"A short note on {title.lower()} citing <{titles[0]}>."
        least = _int_after(prompt, r"at least (\d+) words")
        return _prose(titles, least, title)

    def _section_preamble(self, prompt: str) -> str:
        title = re.search(r"preamble of section '(.+?)' of", prompt).group(1)
        titles = [t for _, t in _listed(_section(prompt, "Papers available:\n"))]
        if drafts_retry(title) and not prompt.startswith("(attempt "):
            return f"This section covers {title.lower()}."
        least_cites = _int_after(prompt, r"cite at least (\d+) of the listed")
        least_words = _int_after(prompt, r"at least (\d+) words")
        return _prose(titles[: least_cites + 1], least_words, title)

    # -- refinement ------------------------------------------------------------

    def _refine_plan(self, prompt: str) -> str:
        round_no = _int_after(prompt, r"\(round (\d+)/\d+\)")
        if round_no == 1:
            return json.dumps(
                [{"skill": "review"}, {"skill": "revise", "instructions": "sharpen the comparison"}]
            )
        return json.dumps([{"skill": "finish"}])

    def _refine_review(self, prompt: str) -> str:
        d = _digest(prompt)
        return json.dumps(
            {
                "scores": {"depth": 5 + d % 4, "coherence": 6 + d % 3, "rigor": 6},
                "suggestions": ["contrast the cited methods more directly"],
                "satisfactory": False,
            }
        )

    def _refine_revise(self, prompt: str) -> str:
        draft = prompt.rpartition("\n\nDraft:\n")[2]
        mark = f"rv{_digest(draft) % 16**8:08x}"
        return f"{draft} Revision note {mark} makes the comparison explicit."

    # -- evaluation ------------------------------------------------------------

    def _judge(self, prompt: str) -> str:
        dims = ast.literal_eval(_section(prompt, "Dimensions: ", "\n"))
        d = _digest(prompt[:400])
        return json.dumps(
            {
                dim: {sub: 6 + (d >> (3 * i)) % 4 for i, sub in enumerate(subs)}
                for dim, subs in dims.items()
            }
        )


#: every request tag the responder answers
TAGS = tuple(Responder()._handlers)


class DelayedEmbedder:
    """Wraps an embedding backend; each batch pays the fixed delay."""

    def __init__(self, inner, delay: float = 0.0):
        self.inner = inner
        self.delay = delay
        self.batches = 0
        self.tokens = 0
        self._lock = threading.Lock()

    def encode(self, texts: Sequence[str]) -> list[list[float]]:
        vectors = self.inner.encode(texts)
        tokens = sum(estimate_tokens(t) for t in texts)
        with self._lock:
            self.batches += 1
            self.tokens += tokens
        if self.delay:
            time.sleep(self.delay)
        return vectors


class DelayedSource:
    """Wraps a paper source; each search/citations/references call pays the
    fixed delay."""

    def __init__(self, inner, delay: float = 0.0):
        self.inner = inner
        self.delay = delay

    def _serve(self, fn, *args):
        result = fn(*args)
        if self.delay:
            time.sleep(self.delay)
        return result

    def search(self, query, limit):
        return self._serve(self.inner.search, query, limit)

    def citations(self, paper_id, limit):
        return self._serve(self.inner.citations, paper_id, limit)

    def references(self, paper_id, limit):
        return self._serve(self.inner.references, paper_id, limit)


class CountingNli:
    """Wraps an entailment backend and counts verdicts."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self._lock = threading.Lock()

    def entails(self, claim: str, premises: Sequence[str]) -> bool:
        with self._lock:
            self.calls += 1
        return self.inner.entails(claim, premises)
