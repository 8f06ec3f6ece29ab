"""Acceptance criteria, one test per criterion, each printing a pass/fail
line (visible with ``pytest -s`` and in the captured-output section on
failure). Tolerances are pinned in the assertions themselves."""

from __future__ import annotations

import functools
import json
import random
import re
import time

import pytest

from litsurvey.errors import ExhaustionError
from litsurvey.evaluation import (
    ContentScores,
    NliVerdictTable,
    RatingMatrix,
    citation_precision,
    citation_recall,
    coefficient_of_variation,
    cohens_kappa,
    fleiss_kappa,
    needed_subsets,
    weighted_content_score,
)
from litsurvey.gateway import CompletionRequest, Gateway
from litsurvey.model import CitationStyle, Granularity
from litsurvey.pipeline import build_backends, run_pipeline
from litsurvey.retrieval import RetrievalConfig, expand_graph
from litsurvey.scripted import ScriptedTransport
from litsurvey.sources import FixtureSource
from litsurvey.substrate import substrate_load
from litsurvey.tokens import compress_context, estimate_tokens
from litsurvey.writing import check_evidence_locality

from conftest import make_paper, scripted_gateway
from doubles import FixtureEmbedder, SequenceTransport
from e2e_fixture import make_config
from test_evaluation import oracle_precision, oracle_recall, random_instance


def criterion(number: int, summary: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE FAIL {number:>2}: {summary}")
                raise
            print(f"ACCEPTANCE PASS {number:>2}: {summary}")

        return wrapper

    return decorate


@criterion(1, "weighted-total formula reproduces the reference triples within 1e-3")
def test_criterion_1_weighted_totals():
    started = time.monotonic()
    cases = [
        ((9.100, 8.356, 8.333), 8.644),
        ((9.083, 8.311, 8.450), 8.676),
        ((8.938, 8.417, 8.063), 8.483),
    ]
    for (core, writing, depth), expected in cases:
        total = weighted_content_score(ContentScores(core=core, writing=writing, depth=depth))
        assert abs(total - expected) <= 1e-3, (core, writing, depth, total, expected)
    assert time.monotonic() - started < 1.0


@criterion(2, "recall/precision match the brute-force oracle on 1000 random instances")
def test_criterion_2_citation_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(424242)
    for _ in range(1000):
        claims, raw = random_instance(rng)  # <=6 claims, <=4 refs each
        table = NliVerdictTable(raw)
        assert abs(citation_recall(claims, table) - oracle_recall(claims, raw)) <= 1e-12
        assert (
            abs(citation_precision(claims, table) - oracle_precision(claims, raw))
            <= 1e-12
        )
    assert time.monotonic() - started < 10.0


@criterion(3, "kappa statistics: identity, zero fixture, symmetry, panel limits")
def test_criterion_3_kappa_correctness():
    started = time.monotonic()
    assert cohens_kappa(list("ABTAB"), list("ABTAB")) == 1.0
    assert abs(cohens_kappa(list("AABB"), list("ABAB"))) <= 1e-12
    rng = random.Random(99)
    for _ in range(100):
        n = rng.randint(1, 40)
        a = [rng.choice("ABT") for _ in range(n)]
        b = [rng.choice("ABT") for _ in range(n)]
        assert abs(cohens_kappa(a, b) - cohens_kappa(b, a)) <= 1e-12
    unanimous = RatingMatrix.from_labels([["A"] * 3, ["B"] * 3, ["T"] * 3])
    assert fleiss_kappa(unanimous) == 1.0
    rng = random.Random(20260808)
    rows = [[rng.choice("ABT") for _ in range(3)] for _ in range(10_000)]
    assert abs(fleiss_kappa(RatingMatrix.from_labels(rows))) <= 0.05
    assert time.monotonic() - started < 10.0


@criterion(4, "coefficient of variation: zero, scale-invariant, golden pair")
def test_criterion_4_cv_properties():
    constant = coefficient_of_variation([7.5] * 5)
    assert constant.std == 0.0 and constant.cv_percent == 0.0 and constant.range == 0.0
    rng = random.Random(4)
    for _ in range(50):
        samples = [rng.uniform(0.5, 20) for _ in range(rng.randint(2, 10))]
        k = rng.uniform(0.01, 100)
        assert (
            abs(
                coefficient_of_variation(samples).cv_percent
                - coefficient_of_variation([k * x for x in samples]).cv_percent
            )
            < 1e-9
        )
    golden = coefficient_of_variation([8, 10])  # sample (n-1) convention
    assert abs(golden.cv_percent - 15.713) <= 1e-3
    assert abs(golden.std - 1.41421) <= 1e-5
    assert golden.max_abs_dev == 1.0 and golden.range == 2.0


@criterion(5, "graph expansion equals brute force; seed/per-seed caps exact; deterministic")
def test_criterion_5_retrieval_expansion():
    rng = random.Random(17)
    keys = [f"g{i:03d}" for i in range(60)]
    edges_out = {k: rng.sample([x for x in keys if x != k], rng.randint(0, 8)) for k in keys}
    edges_in: dict[str, list[str]] = {k: [] for k in keys}
    for src, targets in edges_out.items():
        for dst in targets:
            edges_in[dst].append(src)
    records = [
        make_paper(k, in_cits=edges_in[k], out_cits=edges_out[k]) for k in keys
    ]
    source = FixtureSource(records)
    by_key = {r.id.canonical: r for r in records}

    # seed cap: 40 search hits truncate to exactly 15
    from litsurvey.retrieval import search_seeds

    hits = FixtureSource(records, search_results={"t": keys[:40]})
    seeds = search_seeds("t", RetrievalConfig(), hits)
    assert len(seeds) == 15

    cfg = RetrievalConfig(expansion_depth=1, per_seed_cap=20)
    expanded = expand_graph(seeds, cfg, source)
    got = {p.id.canonical for p in expanded}
    # brute force: union of each seed with its full bidirectional neighborhood
    expected = {p.id.canonical for p in seeds}
    for seed in seeds:
        neighborhood = {
            n for n in edges_in[seed.id.canonical] + edges_out[seed.id.canonical]
        }
        assert len(neighborhood) <= 20, "fixture stays under the per-seed cap"
        expected |= neighborhood
    assert got == expected
    assert len(expanded) == len(got), "no duplicates"

    # per-seed cap honored exactly on an over-connected seed
    hub = make_paper("hub", out_cits=[f"n{i:02d}" for i in range(30)])
    neighbors = [
        make_paper(f"n{i:02d}", in_cits=[f"c{j}" for j in range(i)]) for i in range(30)
    ]
    hub_source = FixtureSource([hub] + neighbors)
    capped = expand_graph([hub], cfg, hub_source)
    assert len(capped) == 21  # hub + exactly 20 neighbors

    # determinism: byte-identical serialized output across repeated runs
    first = json.dumps([p.to_dict() for p in expand_graph(seeds, cfg, source)])
    second = json.dumps([p.to_dict() for p in expand_graph(seeds, cfg, source)])
    assert first == second


@criterion(6, "12-paper hermetic run: citation closure and evidence locality hold")
def test_criterion_6_end_to_end(tmp_path):
    started = time.monotonic()
    config = make_config(tmp_path)
    result = run_pipeline(config, backends=build_backends(config))
    assert result.survey_path is not None

    document = result.survey_path.read_text()
    sidecar = json.loads(config.sidecar_path.read_text())
    body, _, bibliography = document.partition("## References")
    in_text = [int(n) for n in re.findall(r"\[(\d+)\]", body)]
    listed = {e["number"] for e in sidecar["entries"]}
    assert in_text, "survey cites evidence"
    assert set(in_text) == listed, "closure: marks <-> bibliography, both ways"
    bib_numbers = {int(n) for n in re.findall(r"^\[(\d+)\]", bibliography, re.M)}
    assert bib_numbers == listed

    from litsurvey.evaluation import valid_citation_ratio

    universe = set(result.substrate.papers)
    numbers = {e["number"]: e["paper_id"] for e in sidecar["entries"]}
    assert valid_citation_ratio(document, numbers, universe) == 1.0

    units = [
        d for d in result.substrate.drafts if d.granularity is not Granularity.SURVEY
    ]
    assert units and check_evidence_locality(result.substrate.outline, units) == []
    # the substrate is reusable: it reloads and re-validates
    assert substrate_load(config.substrate_dir) == result.substrate
    assert time.monotonic() - started < 60.0


@criterion(7, "injected out-of-set citation: one retry, key in memory, clean survey")
def test_criterion_7_citation_verification_loop(papers, keynotes):
    from litsurvey.model import OutlineNode
    from litsurvey.writing import (
        WritingConfig,
        WritingContext,
        assemble_survey,
        draft_section,
        draft_subsection,
    )
    from litsurvey.runlog import RunLog

    outline = OutlineNode(
        title="Survey",
        description="Survey",
        children=[
            OutlineNode(
                title="Methods",
                description="d",
                assigned={papers["p4"].id},
                children=[
                    OutlineNode(
                        title="Graph Methods",
                        description="d",
                        assigned={papers["p1"].id, papers["p2"].id},
                    )
                ],
            )
        ],
    )
    bad = (
        "Smuggles the unassigned <Zeta Review> next to <Alpha Methods> and "
        "<Beta Systems> in one passage of text."
    )
    good = (
        "Cites the assigned <Alpha Methods> and <Beta Systems> only, with "
        "enough prose to clear the configured word floor."
    )
    transport = (
        ScriptedTransport()
        .add("Write the body of subsection", bad, good)
        .add("opening preamble of section", "Framing via <Delta Benchmarks> here.")
    )
    cfg = WritingConfig(
        subsection_least_citations=2,
        subsection_least_words=10,
        section_least_citations=1,
        section_least_words=4,
    )
    ctx = WritingContext(
        papers=papers, keynotes=keynotes, clusters=[], analyses=[],
        cfg=cfg, gateway=scripted_gateway(transport), runlog=RunLog(),
    )
    section = outline.children[0]
    sub_unit = draft_subsection(ctx, section, section.children[0], outline)
    draft_calls = transport.calls_matching("Write the body of subsection")
    assert len(draft_calls) == 2, "exactly one retry"
    assert "Zeta Review" in draft_calls[1].prompt, "offending key echoed via error memory"

    sec_unit = draft_section(ctx, section, [sub_unit], outline)
    assembled = assemble_survey(
        outline, [sec_unit, sub_unit], papers, CitationStyle.TITLE,
        topic="t", generated_at="now", config_hash="h",
    )
    assert "Zeta Review" not in assembled.document
    assert check_evidence_locality(outline, [sec_unit, sub_unit]) == []


@criterion(8, "refinement stops at exactly five rounds; breaking revisions rejected")
def test_criterion_8_refinement_safety(papers, keynotes):
    from litsurvey.model import DraftUnit, OutlineNode
    from litsurvey.refinement import RefinementContext, refine
    from litsurvey.runlog import RunLog

    outline = OutlineNode(
        title="Survey",
        description="Survey",
        children=[
            OutlineNode(
                title="Methods", description="d",
                assigned={papers["p1"].id, papers["p2"].id},
            )
        ],
    )
    survey_unit = DraftUnit(
        node_path=("Survey",),
        text="## Methods\n\nEvidence from <Alpha Methods> and <Beta Systems>.",
        citations=[],
        granularity=Granularity.SURVEY,
    )
    never_finishing = (
        ScriptedTransport()
        .add("coordinate refinement", json.dumps([{"skill": "review"}]))
        .add("Review this", json.dumps({"scores": {"overall": 6}, "suggestions": []}))
    )
    ctx = RefinementContext(
        papers=papers, keynotes=keynotes, outline=outline,
        gateway=scripted_gateway(never_finishing), runlog=RunLog(),
    )
    refine(survey_unit, ctx)  # survey-level default cap
    assert len(never_finishing.calls_matching("coordinate refinement")) == 5

    breaking = (
        ScriptedTransport()
        .add("coordinate refinement",
             json.dumps([{"skill": "revise", "instructions": "x"}]),
             json.dumps([{"skill": "finish"}]))
        .add("Revise this", "Revision cites phantom <Gamma Analysis> work.")
    )
    ctx2 = RefinementContext(
        papers=papers, keynotes=keynotes, outline=outline,
        gateway=scripted_gateway(breaking), runlog=RunLog(),
    )
    unit = DraftUnit(
        node_path=("Methods",),
        text="Original grounded in <Alpha Methods>.",
        citations=[],
        granularity=Granularity.SECTION,
    )
    refined, memory = refine(unit, ctx2)
    assert refined.text == unit.text, "citation-breaking revision rejected"
    assert any("rejected" in e["summary"] for e in memory.events)


@criterion(9, "pseudocode loop legality and code-report batch arithmetic")
def test_criterion_9_code_analysis_legality():
    from litsurvey.code_analysis import (
        RepoSnapshot,
        batch_code_report,
        run_pseudocode_loop,
    )
    from doubles import expected_batch_calls
    from litsurvey.model import PaperId
    from litsurvey.runlog import RunLog

    files = {
        "main.py": "entry",
        "core.py": "core",
        "util.py": "util",
        "README.md": "readme",
    }
    repo = RepoSnapshot(paper_id=PaperId("2406.00001"), files=files)
    review = json.dumps(
        {"conciseness": 7, "logical_structure": 7, "implementation_specificity": 7,
         "suggestions": []}
    )

    def plan(*ops):
        return json.dumps([o if isinstance(o, dict) else {"op": o} for o in ops])

    # (a) create before three reads is rejected, then a legal trace completes
    transport = (
        ScriptedTransport()
        .add(
            "planning repository-level pseudocode",
            plan("create"),
            plan({"op": "get_source_code", "path": "main.py"}),
            plan({"op": "get_source_code", "path": "core.py"}),
            plan({"op": "get_source_code", "path": "util.py"}),
            plan("create"),
            plan("finish"),
        )
        .add("Write repository-level pseudocode", "PSEUDO")
        .add("Score this pseudocode", review)
        .add("Revise this pseudocode", "PSEUDO'")
    )
    runlog = RunLog()
    pseudocode, trace = run_pseudocode_loop(repo, scripted_gateway(transport), runlog=runlog)
    assert pseudocode == "PSEUDO"
    rejected = [e for e in runlog.of_kind("op_rejected") if e["op"] == "create"]
    assert len(rejected) == 1
    creates = [t for t in trace if t["op"] == "create"]
    reads_before = [t for t in trace if t["op"] == "get_source_code" and t["round"] < creates[0]["round"]]
    assert len(reads_before) >= 3

    # (b) revise cadence: forced revise on the 4th consecutive non-revise round
    transport2 = (
        ScriptedTransport()
        .add(
            "planning repository-level pseudocode",
            plan({"op": "get_source_code", "path": "main.py"}),
            plan({"op": "get_source_code", "path": "core.py"}),
            plan({"op": "get_source_code", "path": "util.py"}),
            plan("create"),
            plan("review"),
        )
        .add("Write repository-level pseudocode", "PSEUDO")
        .add("Score this pseudocode", review)
        .add("Revise this pseudocode", "PSEUDO'")
    )
    runlog2 = RunLog()
    _, trace2 = run_pseudocode_loop(repo, scripted_gateway(transport2), max_rounds=10, runlog=runlog2)
    assert max(t["round"] for t in trace2) == 10, "round cap honored exactly"
    forced = runlog2.of_kind("forced_revise")
    assert forced and forced[0]["round"] == 8, "forced revise on 4th post-create round"
    revise_rounds = [t["round"] for t in trace2 if t["op"] == "revise"]
    gap = 0
    create_round = next(t["round"] for t in trace2 if t["op"] == "create")
    for round_no in range(create_round + 1, 11):
        if round_no in revise_rounds:
            gap = 0
        else:
            gap += 1
        assert gap <= 3, "never more than three rounds without a revise"

    # (c) batch arithmetic: ceil(n/5) batch calls for the code report
    for n in (1, 5, 12):
        transport3 = (
            ScriptedTransport()
            .add("Analyze this pseudocode batch", "batch")
            .add("Integrate these code-analysis reports", "integrated")
        )
        batch_code_report(
            [(f"24{i:02d}.0{i:04d}", f"p{i}") for i in range(n)],
            "topic",
            scripted_gateway(transport3),
        )
        made = len(transport3.calls_matching("Analyze this pseudocode batch"))
        assert made == expected_batch_calls(n) == -(-n // 5)


@criterion(10, "gateway retry/caching/compression contracts and zero-work resume")
def test_criterion_10_gateway_behaviors(tmp_path):
    delays: list[float] = []
    transport = SequenceTransport([429] * 15)
    gateway = Gateway(transport, embedder=FixtureEmbedder(), sleeper=delays.append)
    with pytest.raises(ExhaustionError):
        gateway.complete(CompletionRequest(prompt="p", tag="t"))
    assert len(transport.calls) == 10, "retry stops at exactly 10 attempts"
    assert delays == sorted(delays), "delays nondecreasing"
    assert all(1.0 <= d <= 300.0 for d in delays)

    cached_transport = SequenceTransport(["one"])
    gateway2 = Gateway(cached_transport, embedder=FixtureEmbedder(), sleeper=lambda s: None)
    gateway2.complete(CompletionRequest(prompt="identical", tag="t"))
    gateway2.complete(CompletionRequest(prompt="identical", tag="t"))
    assert len(cached_transport.calls) == 1, "identical requests -> one transport call"

    rng = random.Random(10)
    for _ in range(200):
        core = "c" * rng.randint(1, 100)
        aux = "a" * rng.randint(0, 500)
        budget = estimate_tokens(core) + rng.randint(0, 50)
        once = compress_context(core, aux, budget)
        assert estimate_tokens(once) <= budget, "compression never exceeds budget"
        assert compress_context(core, once[len(core):], budget) == once, "idempotent"

    config = make_config(tmp_path)
    run_pipeline(config, backends=build_backends(config))
    resumed = build_backends(config)
    run_pipeline(config, backends=resumed, resume=True)
    assert resumed.gateway.transport_calls == 0, "completed stages issue zero calls"
