"""Span tracing from outside the program, and the per-layer numbers.

``Tracer.install()`` replaces the public functions and methods listed in
``TRACED`` with wrappers that record one span per call: (id, parent id,
name, start, end, run id, attributes). Module-level functions are replaced
wherever a ``litsurvey`` module holds a reference to them, so names
imported with ``from .x import f`` are covered too; ``uninstall()`` puts
the originals back. Spans are recorded only inside ``recording(run_id)``,
stay in memory, and are written out by the caller at the end.

Parents come from a per-thread stack. ``map_bounded`` hands its own span to
the worker threads it starts, so per-paper and per-cluster work keeps its
parent when it runs in parallel.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from statistics import fmean
from typing import Callable, Optional

from litsurvey.model import Granularity

from responder import REVISION_MARK_RE

#: layer (module of ``litsurvey``) -> public functions and methods traced
TRACED = {
    "pipeline": ("run_pipeline", "evaluate_run"),
    "gateway": ("Gateway.complete", "Gateway.embed", "request_validated", "map_bounded"),
    "caching": ("cache_key", "DiskCache.get", "DiskCache.set"),
    "retrieval": (
        "run_retrieval", "search_seeds", "judge_filter", "expand_graph",
        "coarse_filter", "llm_rerank_filter",
    ),
    "understanding": ("run_understanding", "extract_keynote", "fallback_keynote"),
    "analysis": (
        "design_clusters", "assign_papers", "verify_and_repair",
        "analyze_cluster", "inter_cluster_analysis",
    ),
    "code_analysis": ("run_pseudocode_loop", "batch_code_report", "environment_report"),
    "writing": (
        "draft_outline", "assign_citations", "draft_all_units", "draft_subsection",
        "draft_section", "compose_body", "assemble_survey",
    ),
    "refinement": ("refine_all", "refine", "review_skill"),
    "substrate": ("substrate_save", "substrate_load"),
    "evaluation": ("evaluate_survey", "extract_claims", "collect_verdicts", "score_content"),
}

STAGES = ("retrieval", "understanding", "analysis", "code_analysis", "writing", "refinement")

#: span names of the calls that leave the program (benchmark-owned objects)
SEND, EMBED, NLI = "transport.send", "transport.embed", "evaluation.nli"
SOURCE_PREFIX = "sources."


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (sid, parent, name, start, end, run, attrs)
        self.run_id: Optional[str] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def recording(self, run_id: str):
        self.run_id = run_id
        try:
            yield
        finally:
            self.run_id = None

    def wrap(
        self,
        fn: Callable,
        name: str,
        attrs: Optional[Callable] = None,
        after: Optional[Callable] = None,
        hands_down: bool = False,
    ) -> Callable:
        """Span-recording wrapper. ``attrs(args)`` and ``after(args, result)``
        add attributes (``after`` runs once the span has ended);
        ``hands_down`` makes the first argument, a callable run on worker
        threads, inherit this span as its parent."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            run = tracer.run_id
            if run is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            if hands_down:
                args = (tracer._inherit(args[0], sid),) + args[1:]
            info = attrs(args) if attrs else None
            stack.append(sid)
            start = time.perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if after is not None and ok:
                    info = {**(info or {}), **after(args, result)}
                tracer.spans.append((sid, parent, name, start, end, run, info))

        return traced

    def _inherit(self, fn: Callable, sid: int) -> Callable:
        def run(item):
            stack = self._stack()
            stack.append(sid)
            try:
                return fn(item)
            finally:
                stack.pop()

        return run

    def install(self) -> None:
        """Wrap every entry of TRACED, with the attributes of TRACE_HOOKS."""
        for layer, names in TRACED.items():
            module = importlib.import_module(f"litsurvey.{layer}")
            for name in names:
                span = f"{layer}.{name}"
                extra = dict(TRACE_HOOKS.get(span, {}))
                if name == "map_bounded":
                    extra["hands_down"] = True
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    setattr(cls, meth, self.wrap(original, span, **extra))
                    self._restore.append((cls, meth, original))
                    continue
                original = getattr(module, name)
                wrapper = self.wrap(original, span, **extra)
                for mod in list(sys.modules.values()):
                    if not getattr(mod, "__name__", "").startswith("litsurvey"):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def _refine_outcome(args, result) -> dict:
    unit, memory = result
    accepted = sum(
        1 for e in memory.events if e["skill"] == "revise" and e["summary"] == "revision accepted"
    )
    return {
        "accepted": accepted,
        "survey": unit.granularity is Granularity.SURVEY,
        "marks": REVISION_MARK_RE.findall(unit.text) if accepted else [],
    }


#: attributes that layer_metrics reads, by span name
TRACE_HOOKS = {
    "gateway.Gateway.complete": {"attrs": lambda a: {"tag": a[1].tag}},
    "gateway.Gateway.embed": {"attrs": lambda a: {"texts": len(a[1])}},
    "substrate.substrate_save": {"after": lambda a, r: {"bytes": _dir_bytes(a[1])}},
    "refinement.refine": {"after": _refine_outcome},
}


def union_length(intervals) -> float:
    """Total time covered by possibly overlapping (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans: list[tuple], tags: tuple[str, ...]) -> dict[str, float]:
    """Per-layer numbers of one traced iteration."""
    by_id = {s[0]: s for s in spans}
    children: dict[int, list[tuple]] = defaultdict(list)
    for s in spans:
        children[s[1]].append(s)
    stage_memo: dict[int, Optional[str]] = {}

    def stage_of(sid: int) -> Optional[str]:
        chain = []
        found = None
        while sid and sid in by_id:
            if sid in stage_memo:
                found = stage_memo[sid]
                break
            chain.append(sid)
            layer = _layer(by_id[sid][2])
            if layer in STAGES:
                found = layer
                break
            sid = by_id[sid][1]
        for c in chain:
            stage_memo[c] = found
        return found

    named = defaultdict(list)
    for s in spans:
        named[s[2]].append(s)
    out: dict[str, float] = {}
    sends = [s for s in spans if s[2] == SEND]
    embeds = [s for s in spans if s[2] == EMBED]
    backend = sends + embeds

    # stages and evaluation: busy time, self time, calls on the serial path
    for layer in STAGES + ("evaluation",):
        own = [s for s in spans if _layer(s[2]) == layer]
        top = [s for s in own if s[1] not in by_id or _layer(by_id[s[1]][2]) != layer]
        out[f"{layer}.wall_s"] = union_length((s[3], s[4]) for s in top)
        out[f"{layer}.self_s"] = sum(
            (s[4] - s[3])
            - union_length((max(c[3], s[3]), min(c[4], s[4])) for c in children[s[0]])
            for s in own
        )
    for stage in STAGES:
        calls = [s for s in backend if stage_of(s[1]) == stage]
        out[f"{stage}.calls"] = len(calls)
        # Union of in-flight intervals over the mean call length: equals
        # the call count when nothing overlaps.
        out[f"{stage}.serial_calls"] = (
            union_length((s[3], s[4]) for s in calls) / fmean(s[4] - s[3] for s in calls)
            if calls else 0.0
        )

    # writing and refinement outcomes
    drafting = sum(
        1 for s in named["gateway.Gateway.complete"]
        if s[6]["tag"] in ("writing.subsection", "writing.section")
    )
    units = len(named["writing.draft_subsection"]) + len(named["writing.draft_section"])
    out["writing.draft_retries"] = drafting - units
    out["refinement.revisions_accepted"] = sum(
        s[6]["accepted"] for s in named["refinement.refine"] if s[6] and not s[6]["survey"]
    )

    # evaluation
    out["evaluation.nli_verdicts"] = len(named[NLI])
    out["evaluation.judge_calls"] = sum(1 for s in sends if s[6]["tag"] == "evaluation.judge")

    # gateway
    hits = misses = 0
    hit_time = miss_overhead = 0.0
    retries = 0
    for s in named["gateway.Gateway.complete"]:
        sent = [c for c in children[s[0]] if c[2] == SEND]
        if not sent:
            hits += 1
            hit_time += s[4] - s[3]
        else:
            misses += 1
            retries += len(sent) - 1
            miss_overhead += (s[4] - s[3]) - sum(c[4] - c[3] for c in sent)
    embed_texts = embed_sent = 0
    for s in named["gateway.Gateway.embed"]:
        embed_texts += s[6]["texts"]
        embed_sent += sum(c[6]["texts"] for c in children[s[0]] if c[2] == EMBED)
    embed_hits = embed_texts - embed_sent
    lookups = hits + misses + embed_texts
    out["gateway.transport_calls"] = len(backend)
    out["gateway.embed_batches"] = len(embeds)
    out["gateway.retries"] = retries
    out["gateway.cache_hits.complete"] = hits
    out["gateway.cache_hits.embed"] = embed_hits
    out["gateway.hit_ratio"] = (hits + embed_hits) / lookups if lookups else 0.0
    out["gateway.hit_us"] = hit_time / hits * 1e6 if hits else 0.0
    out["gateway.miss_overhead_us"] = miss_overhead / misses * 1e6 if misses else 0.0
    tag_calls = defaultdict(int)
    tag_tokens = defaultdict(int)
    for s in sends:
        tag_calls[s[6]["tag"]] += 1
        tag_tokens[s[6]["tag"]] += s[6]["tokens"]
    for s in embeds:
        tag_calls["embed"] += 1
        tag_tokens["embed"] += s[6]["tokens"]
    for tag in tags + ("embed",):
        out[f"gateway.tag.{tag}.calls"] = tag_calls[tag]
        out[f"gateway.tag.{tag}.prompt_tokens"] = tag_tokens[tag]

    # caching, substrate, sources
    for method, kind in (("get", "read"), ("set", "write")):
        group = named[f"caching.DiskCache.{method}"]
        out[f"caching.disk_{kind}s"] = len(group)
        out[f"caching.disk_{kind}_s"] = sum(s[4] - s[3] for s in group)
    saves = named["substrate.substrate_save"]
    out["substrate.saves"] = len(saves)
    out["substrate.save_s"] = sum(s[4] - s[3] for s in saves)
    out["substrate.save_bytes"] = sum(s[6]["bytes"] for s in saves if s[6])
    out["substrate.load_s"] = sum(s[4] - s[3] for s in named["substrate.substrate_load"])
    source_spans = [s for s in spans if s[2].startswith(SOURCE_PREFIX)]
    out["sources.calls"] = len(source_spans)
    out["sources.wait_s"] = sum(s[4] - s[3] for s in source_spans)
    return out


def spans_as_records(spans: list[tuple]) -> list[dict]:
    return [
        {"id": s[0], "parent": s[1], "name": s[2], "start": s[3], "end": s[4],
         "run": s[5], **({"attrs": s[6]} if s[6] else {})}
        for s in spans
    ]
