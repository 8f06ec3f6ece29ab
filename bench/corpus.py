"""Seeded synthetic corpus for the benchmark.

``write_corpus(root, papers, seed, stage_workers)`` materializes everything the
pipeline is given: a paper fixture file (records plus the seed search
result), a parsed full-text tree, a repository tree and a YAML config.
The same seed always yields byte-identical files.

Graph shape: ``SEEDS`` seed papers are returned by the topic search; every
other paper is a one-hop neighbour (citing or cited) of exactly one seed,
so depth-1 expansion with ``per_seed_cap`` set to the largest neighbour
count reaches the whole corpus with 1 + 2 * SEEDS source calls.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from litsurvey.config import PipelineConfig, dump_config
from litsurvey.model import IdSource, PaperId, PaperRecord

TOPIC = "automated literature survey generation"
SEEDS = 15  # papers the topic search returns
FULL_TEXT_SHARE = 0.25  # papers with a parsed full text
REPOS = 4  # full-text papers that also have a code repository
JUDGE_ROUNDS = 3

_ADJECTIVES = (
    "Adaptive", "Scalable", "Grounded", "Iterative", "Hierarchical", "Robust",
    "Faithful", "Efficient", "Interactive", "Modular", "Contrastive", "Sparse",
    "Neural", "Agentic", "Structured", "Incremental", "Calibrated", "Unified",
)
_NOUNS = (
    "Retrieval", "Citation Graphs", "Outline Planning", "Evidence Selection",
    "Claim Verification", "Survey Drafting", "Keynote Extraction", "Clustering",
    "Reranking", "Attribution", "Refinement", "Evaluation", "Summarization",
    "Topic Modeling", "Query Expansion", "Entailment Scoring",
)
_OBJECTS = (
    "Scientific Literature", "Research Surveys", "Paper Collections",
    "Long Documents", "Citation Networks", "Review Articles", "Open Corpora",
    "Preprint Archives", "Technical Reports", "Domain Benchmarks",
)
_METHODS = (
    "Language Agents", "Graph Expansion", "Dense Embeddings", "Judge Models",
    "Error Memory", "Planner Loops", "Weak Supervision", "Contrastive Pretraining",
    "Self Critique", "Bidirectional Search", "Hybrid Filtering", "Tool Use",
)
_WORDS = (
    "model", "survey", "evidence", "citation", "graph", "retrieval", "agent",
    "outline", "section", "claim", "benchmark", "accuracy", "recall", "precision",
    "coverage", "baseline", "pipeline", "assessor", "planner", "corpus", "query",
    "filter", "judge", "embedding", "cluster", "keynote", "draft", "revision",
    "latency", "budget", "context", "window", "token", "document", "abstract",
    "method", "experiment", "ablation", "dataset", "annotation", "agreement",
    "stability", "faithfulness", "attribution", "structure", "synthesis",
)


@dataclass(frozen=True)
class CorpusInfo:
    """What was generated; the numbers the call-count oracle needs."""

    root: Path
    config_path: Path
    papers: int
    seeds: int
    full_texts: int
    repos: int


def _sentence(rng: random.Random) -> str:
    words = [rng.choice(_WORDS) for _ in range(rng.randint(9, 16))]
    return words[0].capitalize() + " " + " ".join(words[1:]) + "."


def _paper_ids(rng: random.Random, n: int) -> list[str]:
    numbers = rng.sample(range(10000, 99999), n)
    return [f"24{1 + i % 12:02d}.{num}" for i, num in enumerate(numbers)]


def _titles(rng: random.Random, n: int) -> list[str]:
    titles: list[str] = []
    seen: set[str] = set()
    while len(titles) < n:
        title = (
            f"{rng.choice(_ADJECTIVES)} {rng.choice(_NOUNS)} for "
            f"{rng.choice(_OBJECTS)} with {rng.choice(_METHODS)}"
        )
        if title.casefold() in seen:
            title = f"{title} Revisited {len(titles)}"
        seen.add(title.casefold())
        titles.append(title)
    return titles


def _full_text(rng: random.Random, title: str, pool: list[str]) -> str:
    parts = [f"# {title}\n"]
    for heading in ("Introduction", "Method", "Experiments", "Limitations", "Conclusion"):
        body = " ".join(rng.choice(pool) for _ in range(rng.randint(10, 18)))
        parts.append(f"# {heading}\n\n{body}\n")
    return "\n".join(parts)


def _repo_files(rng: random.Random, canonical: str, pool: list[str]) -> dict[str, str]:
    def code(name: str) -> str:
        lines = [f'"""{name} for {canonical}."""', ""]
        for i in range(rng.randint(8, 14)):
            lines.append(f"def step_{i}(state):")
            lines.append(f"    # {rng.choice(pool)}")
            lines.append(f"    return state + {i}")
        return "\n".join(lines) + "\n"

    return {
        "main.py": code("entry point"),
        "core.py": code("core algorithm"),
        "util.py": code("utilities"),
        "requirements.txt": "numpy==1.26\nrequests==2.31\n",
        "README.md": f"# Code for {canonical}\n\n{rng.choice(pool)}\n",
    }


def write_corpus(root: Path, papers: int, seed: int, stage_workers: int) -> CorpusInfo:
    """Write the fixture, parsed docs, repos and config under ``root``."""
    if papers <= SEEDS:
        raise ValueError("the corpus needs more papers than seeds")
    rng = random.Random(seed)
    pool = [_sentence(rng) for _ in range(240)]
    ids = _paper_ids(rng, papers)
    titles = _titles(rng, papers)
    seed_ids = ids[:SEEDS]
    others = ids[SEEDS:]

    in_cits: dict[str, list[str]] = {k: [] for k in ids}
    out_cits: dict[str, list[str]] = {k: [] for k in ids}
    for i, key in enumerate(others):
        owner = seed_ids[i % SEEDS]
        if rng.random() < 0.5:  # key cites its seed
            out_cits[key].append(owner)
            in_cits[owner].append(key)
        else:  # the seed cites key
            out_cits[owner].append(key)
            in_cits[key].append(owner)
    for key in others:  # extra links between non-seeds vary citation counts
        for other in rng.sample(others, 2):
            if other != key:
                out_cits[key].append(other)
                in_cits[other].append(key)

    with_text = set(rng.sample(ids, round(papers * FULL_TEXT_SHARE)))
    with_repo = sorted(with_text)[:REPOS]

    root.mkdir(parents=True, exist_ok=True)
    docs_dir = root / "parsed"
    repos_dir = root / "repos"
    records = []
    for key, title in zip(ids, titles):
        abstract = " ".join(rng.choice(pool) for _ in range(rng.randint(5, 8)))
        records.append(
            PaperRecord(
                id=PaperId(key, IdSource.PREPRINT),
                title=title,
                abstract=abstract,
                tldr=rng.choice(pool),
                full_text_ref=f"pdf/{key}.pdf" if key in with_text else None,
                in_citations=[PaperId(k, IdSource.PREPRINT) for k in in_cits[key]],
                out_citations=[PaperId(k, IdSource.PREPRINT) for k in out_cits[key]],
            )
        )
        if key in with_text:
            (docs_dir / key).mkdir(parents=True, exist_ok=True)
            (docs_dir / key / "full.md").write_text(
                _full_text(rng, title, pool), encoding="utf-8"
            )
    for key in with_repo:
        repo = repos_dir / key
        repo.mkdir(parents=True, exist_ok=True)
        for name, text in _repo_files(rng, key, pool).items():
            (repo / name).write_text(text, encoding="utf-8")

    fixture_path = root / "papers.json"
    fixture_path.write_text(
        json.dumps(
            {"papers": [r.to_dict() for r in records], "search_results": {TOPIC: seed_ids}}
        ),
        encoding="utf-8",
    )
    # The scripted transport built from this empty table is replaced by the
    # benchmark's responder before any call is made.
    rules_path = root / "no-rules.json"
    rules_path.write_text(json.dumps({"rules": []}), encoding="utf-8")

    config = PipelineConfig(topic=TOPIC, workdir=str(root / "run"))
    config.backend.kind = "scripted"
    config.backend.rules_path = str(rules_path)
    config.source.kind = "fixture"
    config.source.fixture_path = str(fixture_path)
    config.parsed_docs_dir = str(docs_dir)
    config.repos_dir = str(repos_dir)
    config.code_analysis_enabled = True
    config.stage_workers = stage_workers
    config.retrieval.max_seed_papers = SEEDS
    config.retrieval.expansion_depth = 1
    config.retrieval.per_seed_cap = math.ceil(len(others) / SEEDS)
    config.retrieval.coarse_similarity_threshold = -1.0  # hashed embeddings
    config.evaluation.nli_kind = "hash"
    config.evaluation.judge_rounds = JUDGE_ROUNDS
    config_path = root / "config.yaml"
    dump_config(config, config_path)
    return CorpusInfo(
        root=root,
        config_path=config_path,
        papers=papers,
        seeds=SEEDS,
        full_texts=len(with_text),
        repos=len(with_repo),
    )
