"""Pipeline configuration with the full system-parameter defaults.

Config files are YAML; secrets never live in them (only the names of the
environment variables that hold them). The config hash covers everything
that changes what a run computes, so a resume under a different
configuration is refused. Fields that only say where a run lives, how
wide it fans out or how long it waits (``workdir``, ``stage_workers``,
``cache_expiry_seconds`` and the backend's timeout and backoff bounds) are
left out of it, so a moved run directory or a new timeout still resumes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Optional, Union, get_args, get_origin, get_type_hints

import yaml

from .analysis import AnalysisConfig
from .code_analysis import CodeAnalysisConfig
from .errors import ConfigError
from .model import STAGES, CitationStyle
from .refinement import RefinementConfig
from .retrieval import RetrievalConfig
from .writing import WritingConfig


@dataclass
class BackendConfig:
    kind: str = "http"  # http | scripted
    url: str = ""
    model: str = ""
    api_key_env: str = "LITSURVEY_API_KEY"
    rules_path: str = ""  # scripted transport rules file
    context_window: int = 512_000
    max_attempts: int = 10
    backoff_min: float = 1.0
    backoff_max: float = 300.0
    request_timeout: float = 120.0


@dataclass
class EmbeddingConfig:
    kind: str = "hashed"  # hashed | http
    url: str = ""
    model: str = ""
    api_key_env: str = "LITSURVEY_EMBED_KEY"
    batch_size: int = 32


@dataclass
class SourceConfig:
    kind: str = "academic-graph"  # academic-graph | fixture
    base_url: str = "https://api.semanticscholar.org/graph/v1"
    api_key_env: str = "LITSURVEY_S2_KEY"
    fixture_path: str = ""
    preprint_fallback: bool = True
    preprint_url: str = "http://export.arxiv.org/api/query"


PREMISE_SOURCES = ("abstract", "keynote", "tldr")


def _require_int(name: str, value, minimum: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")


@dataclass
class EvaluationRunConfig:
    judge_rounds: int = 1
    explanations: bool = False
    nli_kind: str = "constant"  # constant | hash
    premise_source: str = "abstract"  # one of PREMISE_SOURCES

    def __post_init__(self):
        _require_int("evaluation.judge_rounds", self.judge_rounds, 0)
        if self.premise_source not in PREMISE_SOURCES:
            raise ConfigError(
                f"evaluation.premise_source must be one of {'|'.join(PREMISE_SOURCES)}, "
                f"got {self.premise_source!r}"
            )


@dataclass
class PipelineConfig:
    topic: str = ""
    workdir: str = "litsurvey-run"
    code_analysis_enabled: bool = False
    use_skill_loop_fallback: bool = False
    # Sizes the run's call budget (fanout.call_slots: 1 at one worker, else
    # 2 x stage_workers model calls in flight over the whole run), which is
    # also the width of each fan-out of independent per-unit calls
    # (citation-graph fetches, embedding batches, rerank judge batches,
    # papers, clusters, repositories, drafts, refinement units, evaluate's
    # judge rounds). Above 1, each stage also starts as soon as what it
    # reads is ready (see pipeline._INPUTS), so stages overlap and the
    # manifest's stage_seconds may sum to more than the wall time. Outputs
    # do not depend on it, so it stays out of the config hash.
    stage_workers: int = 1
    parsed_docs_dir: str = ""
    repos_dir: str = ""
    backend: BackendConfig = field(default_factory=BackendConfig)
    embedding: EmbeddingConfig = field(default_factory=EmbeddingConfig)
    source: SourceConfig = field(default_factory=SourceConfig)
    retrieval: RetrievalConfig = field(default_factory=RetrievalConfig)
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)
    code_analysis: CodeAnalysisConfig = field(default_factory=CodeAnalysisConfig)
    writing: WritingConfig = field(default_factory=WritingConfig)
    refinement: RefinementConfig = field(default_factory=RefinementConfig)
    evaluation: EvaluationRunConfig = field(default_factory=EvaluationRunConfig)
    cache_expiry_seconds: Optional[float] = None

    def __post_init__(self):
        _require_int("stage_workers", self.stage_workers, 1)

    # Paths all hang off the workdir unless overridden by the caller.
    @property
    def substrate_dir(self) -> Path:
        return Path(self.workdir) / "substrate"

    @property
    def cache_dir(self) -> Path:
        return Path(self.workdir) / "cache"

    @property
    def survey_path(self) -> Path:
        return Path(self.workdir) / "survey.md"

    @property
    def sidecar_path(self) -> Path:
        return Path(self.workdir) / "survey.citations.json"

    @property
    def manifest_path(self) -> Path:
        return Path(self.workdir) / "manifest.json"

    def enabled_stages(self) -> list[str]:
        return [s for s in STAGES if s != "code_analysis" or self.code_analysis_enabled]

    def config_hash(self) -> str:
        plain = _plain(self)
        # Where a run lives, how wide it fans out and how long it waits
        # never change what it computes.
        for name in ("workdir", "stage_workers", "cache_expiry_seconds"):
            del plain[name]
        for name in ("request_timeout", "backoff_min", "backoff_max"):
            del plain["backend"][name]
        return hashlib.sha256(json.dumps(plain, sort_keys=True).encode("utf-8")).hexdigest()[:16]


def _plain(obj):
    if is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, tuple):
        return list(obj)
    if isinstance(obj, CitationStyle):
        return obj.value
    return obj


def _check_scalar(key: str, value, kind) -> None:
    """Refuse a YAML scalar whose type does not match the field's: an int
    field takes no bool, a float field takes an int but no bool. Other
    kinds (enums) are left to the dataclass."""
    if get_origin(kind) is Union:  # Optional[X]
        if value is None:
            return
        [kind] = [arg for arg in get_args(kind) if arg is not type(None)]
    if kind not in (bool, int, float, str):
        return
    accepted = (int, float) if kind is float else (kind,)
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise ConfigError(f"{key} must be {kind.__name__}, got {value!r} ({type(value).__name__})")


def _build(cls, data: dict, prefix: str = ""):
    """``cls`` from a YAML mapping, led by the field types: a dataclass
    field is built from its own mapping, a tuple field from a list, and a
    scalar must have its field's type."""
    if not isinstance(data, dict):
        raise ConfigError(f"expected a mapping for {cls.__name__}, got {type(data).__name__}")
    types = get_type_hints(cls)
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    kwargs = {}
    for name, value in data.items():
        kind, key = types[name], prefix + name
        if is_dataclass(kind):
            value = _build(kind, value, f"{key}.")
        elif get_origin(kind) is tuple:
            if not isinstance(value, list):
                raise ConfigError(f"{key} must be a list, got {value!r} ({type(value).__name__})")
            [element, _] = get_args(kind)  # tuple[X, ...]
            for item in value:
                _check_scalar(key, item, element)
            value = tuple(value)
        else:
            _check_scalar(key, value, kind)
        kwargs[name] = value
    return cls(**kwargs)


def load_config(path: str | Path) -> PipelineConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = yaml.safe_load(path.read_text(encoding="utf-8")) or {}
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    try:
        return _build(PipelineConfig, data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config {path}: {exc}") from exc


def dump_config(config: PipelineConfig, path: str | Path) -> None:
    Path(path).write_text(
        yaml.safe_dump(_plain(config), sort_keys=False), encoding="utf-8"
    )
