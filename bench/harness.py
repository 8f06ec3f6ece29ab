"""Workloads, timed iterations, output checks and metrics.

One iteration is a closed loop run by one caller that waits for each step:
``generate`` (``run_pipeline``), ``evaluate`` (``evaluate_run``) and a
zero-work ``resume`` (``run_pipeline(..., resume=True)``), each with fresh
backends, as three command-line invocations would have. Only those three
calls are timed; workdir preparation and output checks are not.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import re
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Optional

from litsurvey import pipeline
from litsurvey.caching import cache_key
from litsurvey.config import load_config
from litsurvey.gateway import CompletionRequest, Gateway
from litsurvey.substrate import substrate_load, substrate_save
from litsurvey.tokens import estimate_tokens
from litsurvey.writing import check_evidence_locality

from corpus import CorpusInfo, write_corpus
from responder import (
    CLUSTER_THEMES,
    CountingNli,
    DelayedEmbedder,
    DelayedSource,
    TAGS,
    Responder,
    drafts_retry,
    outline_units,
)
from tracing import EMBED, NLI, SEND, STAGES, Tracer, layer_metrics, spans_as_records

EVALUATES = 5  # evaluates per untraced iteration
RESUMES = 15  # zero-work resumes per untraced iteration
DELAY = 0.020  # injected latency of each chat call and embedding batch
SOURCE_DELAY = 0.100  # injected latency of each paper-source call on the warm workload
MICRO_PAPERS = 1000  # papers in the substrate the micro-timings save and load


@dataclass(frozen=True)
class Workload:
    name: str
    papers: int
    delay: float  # per chat call and embedding batch
    source_delay: float  # per paper-source call
    workers: int
    warm: bool
    setups: int  # set-ups per run; setup_s is their median
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cold-200-latency", 200, DELAY, DELAY, 2, False, 3,
            "200 papers, 20 ms per call, 2 workers, cold: latency-bound; stage calls, "
            "serial_calls and judge_calls move generate_s/evaluate_s, substrate and "
            "cache-key costs should not",
        ),
        Workload(
            "warm-100-rerun", 100, DELAY, SOURCE_DELAY, 1, True, 3,
            "100 papers, warm api cache, 100 ms per source call: the 31 uncached source "
            "calls and the hit path move generate_s, substrate_load moves resume_s",
        ),
    )
}

END_TO_END = {
    "generate_s": "s",
    "evaluate_s": "s",
    "resume_s": "s",
    "backend_calls": "count",
    "prompt_tokens": "tokens",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ops_ok_ratio": "ok/attempted",
}

class CheckFailed(Exception):
    """An output of the program is not what the benchmark expects."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- expected backend calls -----------------------------------------------


def expected_generate_calls(info: CorpusInfo, config) -> int:
    """Chat sends plus embedding batches a cold generate must make, derived
    from the corpus and the responder's script."""
    n, units = info.papers, outline_units()
    rc, ac, wc, cc = config.retrieval, config.analysis, config.writing, config.code_analysis
    retrieval = (
        math.ceil(info.seeds / rc.judge_batch_size)  # seed filter
        + 1 + math.ceil(n / config.embedding.batch_size)  # topic + papers
        + math.ceil(n / rc.judge_batch_size)  # rerank
    )
    understanding = info.full_texts
    k = len(CLUSTER_THEMES)
    analysis = math.ceil(n / ac.design_batch_size) + 1 + 3 * k + 1
    code = 4 * info.repos + math.ceil(info.repos / cc.report_batch_size) + 2 if info.repos else 0
    writing = (
        math.ceil(n / wc.outline_batch_size) + 1
        + len(units) + sum(drafts_retry(u[-1]) for u in units)
    )
    refinement = 4 * (len(units) + 1)  # plan, review, revise, plan per unit
    return retrieval + understanding + analysis + code + writing + refinement


# -- backends ----------------------------------------------------------------


@dataclass
class Fakes:
    responder: Responder
    embedder: DelayedEmbedder
    source: DelayedSource
    nli: CountingNli

    @property
    def calls(self) -> int:
        return self.responder.calls + self.embedder.batches

    @property
    def tokens(self) -> int:
        return self.responder.prompt_tokens + self.embedder.tokens


def make_backends(config, delay: float, source_delay: float, tracer: Optional[Tracer] = None):
    """The program's own backends with the remote ends swapped for the
    benchmark's responder and delayed wrappers."""
    backends = pipeline.build_backends(config)
    fakes = Fakes(
        Responder(delay),
        DelayedEmbedder(backends.gateway.embedder, delay),
        DelayedSource(backends.source, source_delay),
        CountingNli(backends.nli),
    )
    if tracer is not None:
        r, e, s, n = fakes.responder, fakes.embedder, fakes.source, fakes.nli
        r.send = tracer.wrap(
            r.send, SEND,
            attrs=lambda a: {"tag": a[0].tag, "tokens": estimate_tokens(a[0].prompt)},
        )
        e.encode = tracer.wrap(
            e.encode, EMBED,
            attrs=lambda a: {"texts": len(a[0]), "tokens": sum(estimate_tokens(t) for t in a[0])},
        )
        for method in ("search", "citations", "references"):
            setattr(s, method, tracer.wrap(getattr(s, method), f"sources.{method}"))
        n.entails = tracer.wrap(n.entails, NLI)
    backends.gateway.transport = fakes.responder
    backends.gateway.embedder = fakes.embedder
    backends.source = fakes.source
    backends.nli = fakes.nli
    return backends, fakes


# -- set-up ------------------------------------------------------------------


@dataclass
class Prepared:
    corpus: CorpusInfo
    pristine: Optional[Path] = None  # warm workdir whose cache iterations reuse
    pristine_digest: str = ""


def body_digest(survey: str) -> str:
    """Digest of the survey without its front matter, whose timestamp and
    config hash (which covers the workdir) change on every run."""
    check(survey.startswith("---\n"), "survey has no front matter")
    end = survey.index("\n---\n", 4)
    return hashlib.sha256(survey[end + 5 :].encode("utf-8")).hexdigest()


def load_run_config(corpus: CorpusInfo, workdir: Path, workers: Optional[int] = None):
    config = load_config(corpus.config_path)
    config.workdir = str(workdir)
    if workers is not None:
        config.stage_workers = workers
    return config


def warm_up(corpus: CorpusInfo, workdir: Path, delay: float, source_delay: float) -> str:
    """A cold 2-worker generate with the given delays; returns the survey's
    body digest."""
    config = load_run_config(corpus, workdir, workers=2)
    backends, fakes = make_backends(config, delay, source_delay)
    pipeline.run_pipeline(config, backends=backends)
    expected = expected_generate_calls(corpus, config)
    check(fakes.calls == expected, f"warm-up made {fakes.calls} calls, expected {expected}")
    return body_digest(config.survey_path.read_text(encoding="utf-8"))


def setup(wl: Workload, seed: int, root: Path) -> Prepared:
    """Write the corpus and run one delayed cold generate, so that lazy
    initialization is paid before timing and set-up time is dominated by
    the injected latency. The warm workload keeps that run's api cache: its
    timed 1-worker rerun must then hit on every request, which also checks
    that parallel and serial runs send identical prompts."""
    corpus = write_corpus(root / "corpus", wl.papers, seed, stage_workers=wl.workers)
    prepared = Prepared(corpus)
    workdir = root / "warm-up"
    digest = warm_up(corpus, workdir, wl.delay, wl.source_delay)
    if wl.warm:
        prepared.pristine, prepared.pristine_digest = workdir, digest
    return prepared


def fresh_workdir(prepared: Prepared, workdir: Path) -> None:
    if prepared.pristine is None:
        return
    # Hard links are safe: the disk cache replaces files, never edits them.
    shutil.copytree(prepared.pristine / "cache", workdir / "cache", copy_function=os.link)


# -- one iteration -------------------------------------------------------------


@dataclass
class Iteration:
    generate_s: float = 0.0
    evaluate_s: list[float] = field(default_factory=list)
    resume_s: list[float] = field(default_factory=list)
    calls: int = 0  # one generate, one evaluate and one resume
    tokens: int = 0
    digest: str = ""
    attempted: int = 0
    failed: int = 0
    responder_s: float = 0.0
    errors: list[str] = field(default_factory=list)
    survey: str = ""


def check_generate(config, result, fakes: Fakes, expected_calls: int) -> str:
    check(result.survey_path is not None, "generate wrote no survey")
    survey = config.survey_path.read_text(encoding="utf-8")
    sidecar = json.loads(config.sidecar_path.read_text(encoding="utf-8"))
    check(fakes.calls == expected_calls, f"generate made {fakes.calls} backend calls, expected {expected_calls}")

    # substrate_load re-validates referential integrity on its own
    substrate = substrate_load(config.substrate_dir)
    n = len(substrate.papers)
    check(len(substrate.keynotes) == n, f"{len(substrate.keynotes)} keynotes for {n} papers")
    violations = check_evidence_locality(substrate.outline, substrate.drafts)
    check(not violations, f"evidence locality violated: {violations[:3]}")

    # citation closure: body marks, bibliography and sidecar agree
    entries = sidecar["entries"]
    numbers = [e["number"] for e in entries]
    check(numbers == list(range(1, len(entries) + 1)), "sidecar numbering has gaps")
    check(all(e["paper_id"] in substrate.papers for e in entries), "sidecar cites unknown papers")
    body, _, bibliography = survey.partition("\n## References\n")
    cited = {int(m) for m in re.findall(r"\[(\d+)\]", body)}
    check(cited == set(numbers), "body citations and sidecar entries differ")
    expected_bib = [f"[{e['number']}] {e['title']} ({e['paper_id']})" for e in entries]
    check(bibliography.split() == "\n".join(expected_bib).split(), "bibliography and sidecar differ")
    return survey


def check_serial_calls(layer: dict[str, float], workers: int) -> None:
    """Nothing overlaps at 1 worker, so every call is on the serial path;
    with more workers, at most every call is."""
    for stage in STAGES:
        calls, serial = layer[f"{stage}.calls"], layer[f"{stage}.serial_calls"]
        slack = 1e-6 * max(calls, 1)
        if workers == 1:
            check(abs(serial - calls) <= slack, f"{stage}: {serial} serial of {calls} calls")
        else:
            check(serial <= calls + slack, f"{stage}: {serial} serial of {calls} calls")


def run_iteration(
    wl: Workload,
    prepared: Prepared,
    workdir: Path,
    tracer: Optional[Tracer] = None,
    run_id: str = "",
) -> Iteration:
    """generate once, then evaluate ``EVALUATES`` times, each evaluate
    followed by ``RESUMES // EVALUATES`` zero-work resumes (one of each when
    traced). Every evaluate gets an empty api cache of its own, so each
    repeat makes the same judge calls as the first."""
    it = Iteration()
    fresh_workdir(prepared, workdir)
    config = load_run_config(prepared.corpus, workdir)
    expected = 0 if wl.warm else expected_generate_calls(prepared.corpus, config)
    evaluates, resumes = (1, 1) if tracer else (EVALUATES, RESUMES)

    def timed(op: str, call, backends_config=config):
        backends, fakes = make_backends(backends_config, wl.delay, wl.source_delay, tracer)
        gc.collect()
        it.attempted += 1
        started = time.perf_counter()
        if tracer is None:
            result = call(backends)
        else:
            with tracer.recording(f"{run_id}.{op}"):
                result = call(backends)
        elapsed = time.perf_counter() - started
        it.responder_s += fakes.responder.synth_s
        return result, fakes, elapsed

    op = "generate"
    try:
        result, fakes, it.generate_s = timed(op, lambda b: pipeline.run_pipeline(config, backends=b))
        it.calls, it.tokens = fakes.calls, fakes.tokens
        it.survey = check_generate(config, result, fakes, expected)
        it.digest = body_digest(it.survey)
        if wl.warm:
            check(it.digest == prepared.pristine_digest, "warm rerun changed the survey")

        rounds = config.evaluation.judge_rounds
        for k in range(evaluates):
            op = f"evaluate{k}"
            judge_cache = load_run_config(prepared.corpus, workdir / f"judge-cache-{k}")
            report, fakes, elapsed = timed(
                op, lambda b: pipeline.evaluate_run(config, config.survey_path, backends=b),
                judge_cache,
            )
            it.evaluate_s.append(elapsed)
            check(not report.metric_errors, f"evaluation errors: {report.metric_errors}")
            check(report.n_claims > 0 and fakes.nli.calls > 0, "evaluation found no claims")
            check(fakes.calls == rounds, f"evaluate made {fakes.calls} calls, expected {rounds}")
            if k == 0:
                it.calls += fakes.calls
                it.tokens += fakes.tokens

            # Resumes take ~15 ms and the host's CPU speed swings over
            # fractions of a second, so they are spread between the evaluates
            # rather than timed in one burst.
            for j in range(resumes // evaluates):
                op = f"resume{k}.{j}"
                result, fakes, elapsed = timed(
                    op, lambda b: pipeline.run_pipeline(config, backends=b, resume=True)
                )
                it.resume_s.append(elapsed)
                check(fakes.calls == 0, f"zero-work resume made {fakes.calls} backend calls")
                resumed = config.survey_path.read_text(encoding="utf-8")
                check(body_digest(resumed) == it.digest, "resume changed the survey")
    except Exception as exc:  # every failure is reported, none is fatal
        it.failed += 1
        it.errors.append(f"{op}: {type(exc).__name__}: {exc}")
    return it


# -- micro-timings -------------------------------------------------------------


def _median_time(fn, reps: int) -> float:
    samples = []
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return median(samples)


def micro_timings(seed: int, root: Path) -> dict[str, float]:
    """Isolated timings of the Python-side hot paths; the substrate ones on
    the substrate of a ``MICRO_PAPERS``-paper generate without delay."""
    corpus = write_corpus(root / "corpus", MICRO_PAPERS, seed, stage_workers=2)
    warm_up(corpus, root / "run", 0.0, 0.0)
    substrate_dir = load_run_config(corpus, root / "run").substrate_dir
    save_dir = root / "saved"
    prompt = ("Contrast the clusters below and cite the collection. " * 800)[:40_000]
    request = CompletionRequest(prompt=prompt, tag="analysis.inter_cluster")
    gateway = Gateway(Responder(), cache_dir=None)
    gateway.complete(request)  # fill the runtime cache
    substrate = substrate_load(substrate_dir)
    out = {
        "micro.cache_key_40k_us": 1e6 * _median_time(
            lambda: cache_key("complete", request.tag, 0.0, 4096, prompt), 200
        ),
        "micro.gateway_hit_40k_us": 1e6 * _median_time(lambda: gateway.complete(request), 200),
        "micro.substrate_save_s": _median_time(lambda: substrate_save(substrate, save_dir), 3),
        "micro.substrate_load_s": _median_time(lambda: substrate_load(save_dir), 3),
    }
    return out


# -- a run ---------------------------------------------------------------------


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    errors: list[str]
    notes: list[str] = field(default_factory=list)


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = []
    for stage in STAGES:
        names += [f"{stage}.{m}" for m in ("wall_s", "self_s", "calls", "serial_calls")]
    names += ["writing.draft_retries", "refinement.revisions_accepted", "refinement.revisions_in_survey"]
    names += ["evaluation.wall_s", "evaluation.self_s", "evaluation.nli_verdicts", "evaluation.judge_calls"]
    names += [
        "gateway.transport_calls", "gateway.embed_batches", "gateway.retries",
        "gateway.cache_hits.complete", "gateway.cache_hits.embed", "gateway.hit_ratio",
        "gateway.hit_us", "gateway.miss_overhead_us",
    ]
    for tag in TAGS + ("embed",):
        names += [f"gateway.tag.{tag}.calls", f"gateway.tag.{tag}.prompt_tokens"]
    names += ["caching.disk_reads", "caching.disk_read_s", "caching.disk_writes", "caching.disk_write_s"]
    names += ["substrate.saves", "substrate.save_s", "substrate.save_bytes", "substrate.load_s"]
    names += ["sources.calls", "sources.wait_s"]
    names += [
        "micro.cache_key_40k_us", "micro.gateway_hit_40k_us",
        "micro.substrate_save_s", "micro.substrate_load_s",
    ]
    names += ["harness.responder_s", "harness.tracing_overhead_s"]
    return names


def _unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("prompt_tokens"):
        return "tokens"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def run(wl: Workload, seed: int, seconds: float, trace: bool, work: Path, spans_path: Optional[Path]) -> RunResult:
    setup_times: list[float] = []

    def timed_setup() -> Prepared:
        gc.collect()
        started = time.perf_counter()
        prepared = setup(wl, seed, work / f"setup{len(setup_times)}")
        setup_times.append(time.perf_counter() - started)
        return prepared

    prepared = timed_setup()
    # The other set-ups run between the first iterations, so that their
    # samples spread over the run as the iterations' do.
    per_gap = max(1, (wl.setups - 1) // 3)
    tracer = Tracer() if trace else None
    plain: list[Iteration] = []
    traced: list[tuple[Iteration, dict]] = []
    iterations: list[Iteration] = []
    traced_attempts = 0
    measured = 0.0  # loop time spent in iterations
    index = 0
    while True:
        for _ in range(min(per_gap, wl.setups - len(setup_times))):
            timed_setup()
        started = time.perf_counter()
        use_trace = trace and index % 2 == 1
        workdir = work / f"it{index}"
        if use_trace:
            tracer.spans = []
            tracer.install()
            try:
                it = run_iteration(wl, prepared, workdir, tracer, run_id=f"it{index}")
            finally:
                tracer.uninstall()
            traced_attempts += 1
            if not it.failed:
                traced.append((it, _traced_metrics(it, tracer)))
            if spans_path is not None:
                with spans_path.open("a", encoding="utf-8") as fh:
                    for record in spans_as_records(tracer.spans):
                        fh.write(json.dumps(record) + "\n")
        else:
            it = run_iteration(wl, prepared, workdir)
            plain.append(it)
        iterations.append(it)
        index += 1
        # Workdirs are removed only after the run, so that no file deletion
        # overlaps a timed operation.
        measured += time.perf_counter() - started
        if measured >= seconds and (not trace or traced_attempts):
            break
    while len(setup_times) < wl.setups:
        timed_setup()

    errors = [e for it in iterations for e in it.errors]
    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    good = [it for it in iterations if not it.failed]
    attempted += 1  # the cross-checks below
    try:
        check(bool(good), "no iteration completed")
        digests = {it.digest for it in good}
        check(len(digests) == 1, "survey body differs between repeats of one seed")
        check(len({(it.calls, it.tokens) for it in good}) == 1, "backend calls or tokens differ between repeats")
        if wl.workers > 1:
            # The same corpus serially, without delay (the warm workload
            # makes this check against its 2-worker set-up instead). When
            # tracing, it also checks that serial_calls equals calls at 1 worker.
            config = load_run_config(prepared.corpus, work / "serial-check", workers=1)
            serial_tracer = Tracer() if trace else None
            backends, _ = make_backends(config, 0.0, 0.0, serial_tracer)
            if serial_tracer is None:
                pipeline.run_pipeline(config, backends=backends)
            else:
                serial_tracer.install()
                try:
                    with serial_tracer.recording("serial-check"):
                        pipeline.run_pipeline(config, backends=backends)
                finally:
                    serial_tracer.uninstall()
                check_serial_calls(layer_metrics(serial_tracer.spans, TAGS), workers=1)
            serial = body_digest(config.survey_path.read_text(encoding="utf-8"))
            check(serial in digests, f"survey differs between stage_workers={wl.workers} and 1")
        for _, layer in traced:
            check_serial_calls(layer, wl.workers)
    except Exception as exc:
        failed += 1
        errors.append(f"cross-check: {type(exc).__name__}: {exc}")

    metrics: dict[str, tuple[float, str]] = {}
    if not trace:
        source = good or iterations
        values = {
            "generate_s": _median([it.generate_s for it in source]),
            "evaluate_s": _median([t for it in source for t in it.evaluate_s]),
            "resume_s": _median([t for it in source for t in it.resume_s]),
            "backend_calls": source[0].calls,
            "prompt_tokens": source[0].tokens,
            "setup_s": median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ops_ok_ratio": (attempted - failed) / attempted if attempted else 0.0,
        }
        metrics = {k: (values[k], unit) for k, unit in END_TO_END.items()}
    elif traced and plain:
        layer = {
            name: median(m[name] for _, m in traced)
            for name in traced[0][1]
        }
        layer.update(micro_timings(seed, work / "micro"))
        layer["harness.tracing_overhead_s"] = median(it.generate_s for it, _ in traced) - median(
            it.generate_s for it in plain
        )
        metrics = {name: (layer[name], _unit(name)) for name in per_layer_names()}
    return RunResult(
        correct=failed == 0,
        attempted=max(attempted, 1),
        failed=failed,
        metrics=metrics,
        errors=errors,
        notes=[
            "generate_s per iteration: " + " ".join(f"{it.generate_s:.4f}" for it in iterations),
            "evaluate_s samples: " + " ".join(f"{t:.4f}" for it in iterations for t in it.evaluate_s),
            "resume_s samples: " + " ".join(f"{t:.4f}" for it in iterations for t in it.resume_s),
        ],
    )


def _median(values: list[float]) -> float:
    """Median, or 0 when a failed run took no sample."""
    return median(values) if values else 0.0


def _traced_metrics(it: Iteration, tracer: Tracer) -> dict[str, float]:
    out = layer_metrics(tracer.spans, TAGS)
    marks = [
        m
        for s in tracer.spans
        if s[2] == "refinement.refine" and s[6] and not s[6]["survey"]
        for m in s[6]["marks"]
    ]
    out["refinement.revisions_in_survey"] = sum(1 for m in marks if m in it.survey)
    out["harness.responder_s"] = it.responder_s
    return out
