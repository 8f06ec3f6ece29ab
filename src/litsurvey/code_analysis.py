"""Optional Stage-3 extension: repository pseudocode via a planner loop,
plus batched code reports and environment reports.

The planner picks one of five operations per step (read a source file,
create, revise, review, finish) and may emit several steps at once as a
sub-plan. The harness enforces the legality rules: at least three reads
before the first create, a revise at least once every three rounds after
creation, and a hard round cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .errors import BudgetError, InvalidInputError
from .gateway import (
    Gateway,
    batched,
    extract_json_payload,
    free_text,
    request_validated,
)
from .marks import drop_marks, extract_mark_keys
from .model import PaperId
from .runlog import RunLog
from .tokens import estimate_tokens

PLANNER_OPS = ("get_source_code", "create", "revise", "review", "finish")

CONFIG_FILE_NAMES = (
    "requirements.txt",
    "pyproject.toml",
    "setup.py",
    "setup.cfg",
    "environment.yml",
    "package.json",
    "Cargo.toml",
    "Dockerfile",
)


@dataclass
class CodeAnalysisConfig:
    max_rounds: int = 10
    min_reads_before_create: int = 3
    revise_cadence: int = 3  # rounds after creation without a revise
    report_batch_size: int = 5
    planner_temperature: float = 0.0
    reviewer_temperature: float = 0.0
    reviser_temperature: float = 0.0
    creator_temperature: float = 0.3
    memory_token_threshold: int = 8000
    memory_keep_recent: int = 6


@dataclass
class PlannerOp:
    op: str
    path: str = ""  # repository-relative file for get_source_code
    rationale: str = ""

    def __post_init__(self):
        if self.op not in PLANNER_OPS:
            raise ValueError(f"unknown planner op '{self.op}'")
        if self.op == "get_source_code" and not self.path:
            raise ValueError("get_source_code needs a path")


@dataclass
class PseudocodeReview:
    conciseness: int
    logical_structure: int
    implementation_specificity: int
    suggestions: list[str] = field(default_factory=list)

    def __post_init__(self):
        for name in ("conciseness", "logical_structure", "implementation_specificity"):
            value = getattr(self, name)
            if not 0 <= value <= 10:
                raise ValueError(f"review score {name}={value} outside [0, 10]")


@dataclass
class RepoSnapshot:
    paper_id: PaperId
    files: dict[str, str]

    def __post_init__(self):
        for path in self.files:
            parts = Path(path).parts
            if Path(path).is_absolute() or ".." in parts:
                raise InvalidInputError(f"repository path '{path}' is not repo-relative")

    @property
    def config_files(self) -> dict[str, str]:
        out = {}
        for path, text in self.files.items():
            name = Path(path).name
            if name in CONFIG_FILE_NAMES or name.lower().startswith("readme"):
                out[path] = text
        return out

    @classmethod
    def from_directory(cls, paper_id: PaperId, root: str | Path) -> "RepoSnapshot":
        root = Path(root)
        files = {}
        for path in sorted(root.rglob("*")):
            if path.is_file():
                files[str(path.relative_to(root))] = path.read_text(
                    encoding="utf-8", errors="replace"
                )
        return cls(paper_id=paper_id, files=files)


@dataclass
class LoopState:
    rounds: int = 0
    reads: int = 0
    pseudocode: Optional[str] = None
    last_review: Optional[PseudocodeReview] = None
    rounds_since_revise: int = 0
    memory: list[str] = field(default_factory=list)
    trace: list[dict] = field(default_factory=list)

    def remember(self, line: str) -> None:
        self.memory.append(line)

    def compress_memory(self, threshold: int, keep_recent: int) -> bool:
        """Truncate old entries once the estimate crosses the threshold;
        recent actions survive verbatim behind a compact summary line."""
        if estimate_tokens("\n".join(self.memory)) <= threshold:
            return False
        recent = self.memory[-keep_recent:]
        dropped = len(self.memory) - len(recent)
        summary = f"[compressed: {dropped} earlier memory entries elided]"
        self.memory = [summary, *recent]
        while (
            estimate_tokens("\n".join(self.memory)) > threshold and len(self.memory) > 1
        ):
            self.memory.pop(1)
        return True


def _parse_plan(reply: str) -> list[PlannerOp]:
    payload = extract_json_payload(reply)
    if isinstance(payload, dict):
        payload = [payload]
    if not isinstance(payload, list) or not payload:
        raise ValueError("planner must reply with a JSON op list")
    ops = []
    for item in payload:
        if not isinstance(item, dict) or "op" not in item:
            raise ValueError("each plan step needs an 'op' field")
        ops.append(
            PlannerOp(
                op=str(item["op"]),
                path=str(item.get("path", "")),
                rationale=str(item.get("rationale", "")),
            )
        )
    return ops


def _parse_review(reply: str) -> PseudocodeReview:
    payload = extract_json_payload(reply)
    if not isinstance(payload, dict):
        raise ValueError("review must be a JSON object")
    try:
        return PseudocodeReview(
            conciseness=int(payload["conciseness"]),
            logical_structure=int(payload["logical_structure"]),
            implementation_specificity=int(payload["implementation_specificity"]),
            suggestions=[str(s) for s in payload.get("suggestions", [])],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed review: {exc}") from exc


def run_pseudocode_loop(
    repo: RepoSnapshot,
    gateway: Gateway,
    cfg: Optional[CodeAnalysisConfig] = None,
    max_rounds: Optional[int] = None,
    runlog: Optional[RunLog] = None,
) -> tuple[str, list[dict]]:
    """Drive the planner until finish or round exhaustion.

    Returns the final pseudocode (empty string if the planner never created
    any) and the executed-op trace. One round = one planner consultation;
    its sub-plan executes in order, aborting on the first rejected op.
    """
    cfg = cfg or CodeAnalysisConfig()
    rounds_cap = max_rounds if max_rounds is not None else cfg.max_rounds
    if rounds_cap < 1:
        raise InvalidInputError("the loop needs at least one round")
    if not repo.files:
        raise InvalidInputError("repository snapshot is empty")
    runlog = runlog or RunLog()
    state = LoopState()
    file_listing = "\n".join(sorted(repo.files))

    while state.rounds < rounds_cap:
        state.rounds += 1
        if state.compress_memory(cfg.memory_token_threshold, cfg.memory_keep_recent):
            runlog.add("memory_compressed", repo=repo.paper_id.canonical, round=state.rounds)

        if (
            state.pseudocode is not None
            and state.rounds_since_revise >= cfg.revise_cadence
        ):
            # Cadence guard: the planner has gone too long without revising.
            runlog.add("forced_revise", repo=repo.paper_id.canonical, round=state.rounds)
            _execute_op(
                PlannerOp(op="revise", rationale="cadence guard"),
                state, repo, gateway, cfg, runlog, forced=True,
            )
            state.rounds_since_revise = 0
            continue

        plan = _consult_planner(state, repo, file_listing, gateway, cfg)
        finished = False
        revised_this_round = False
        for op in plan:
            accepted = _execute_op(op, state, repo, gateway, cfg, runlog)
            if not accepted:
                break  # violation recorded; re-prompt the planner next round
            if op.op in ("create", "revise"):
                revised_this_round = True
            if op.op == "finish":
                finished = True
                break
        if state.pseudocode is not None:
            state.rounds_since_revise = (
                0 if revised_this_round else state.rounds_since_revise + 1
            )
        if finished:
            return state.pseudocode or "", state.trace

    runlog.add("loop_exhausted", repo=repo.paper_id.canonical, rounds=state.rounds)
    return state.pseudocode or "", state.trace


def _consult_planner(
    state: LoopState,
    repo: RepoSnapshot,
    file_listing: str,
    gateway: Gateway,
    cfg: CodeAnalysisConfig,
) -> list[PlannerOp]:
    memory_text = "\n".join(state.memory) or "(empty)"
    status = (
        f"round {state.rounds}; files read: {state.reads}; "
        f"pseudocode exists: {state.pseudocode is not None}"
    )

    prompt = (
        f"You are planning repository-level pseudocode for {repo.paper_id.canonical}.\n"
        + f"Status: {status}\nRepository files:\n{file_listing}\n\n"
        + f"Working memory:\n{memory_text}\n\n"
        + "Pick the next operation(s): get_source_code (with a path), create, "
        + "revise, review, finish. Read at least three key source files before "
        + "creating, and revise at least once every three rounds afterwards. "
        + "You may return several steps as a sub-plan, executed in order. "
        + 'Reply strictly as JSON: [{"op": "...", "path": "...", "rationale": "..."}]'
    )
    return request_validated(
        gateway,
        prompt,
        _parse_plan,
        tag="code.plan",
        temperature=cfg.planner_temperature,
    )


def _execute_op(
    op: PlannerOp,
    state: LoopState,
    repo: RepoSnapshot,
    gateway: Gateway,
    cfg: CodeAnalysisConfig,
    runlog: RunLog,
    forced: bool = False,
) -> bool:
    """Run one accepted op; returns False when the op is rejected."""
    if op.op == "create" and state.reads < cfg.min_reads_before_create:
        violation = (
            f"create rejected: only {state.reads} of {cfg.min_reads_before_create} "
            "required source files were read first"
        )
        state.remember(violation)
        runlog.add("op_rejected", op="create", round=state.rounds, reason=violation)
        return False

    record = {"round": state.rounds, "op": op.op, "forced": forced}

    if op.op == "get_source_code":
        text = repo.files.get(op.path)
        if text is None:
            state.remember(f"read failed: no file '{op.path}'")
            runlog.add("op_rejected", op="get_source_code", round=state.rounds, reason=op.path)
            return False
        state.reads += 1
        state.remember(f"read {op.path} ({len(text)} chars)")
        record["path"] = op.path
    elif op.op == "create":
        state.pseudocode = request_validated(
            gateway,
            "Write repository-level pseudocode capturing module structure and "
            f"core algorithms, grounded in the files you read.\nMemory:\n"
            + "\n".join(state.memory),
            free_text,
            tag="code.create",
            temperature=cfg.creator_temperature,
        )
        state.remember("created initial pseudocode")
    elif op.op == "review":
        review = _review_pseudocode(state, gateway, cfg)
        state.last_review = review
        state.remember(
            "review scores: "
            f"conciseness={review.conciseness}, structure={review.logical_structure}, "
            f"specificity={review.implementation_specificity}"
        )
        record["scores"] = [
            review.conciseness,
            review.logical_structure,
            review.implementation_specificity,
        ]
    elif op.op == "revise":
        if state.pseudocode is None:
            state.remember("revise rejected: nothing created yet")
            runlog.add("op_rejected", op="revise", round=state.rounds, reason="no pseudocode")
            return False
        suggestions = "\n".join(state.last_review.suggestions) if state.last_review else ""
        state.pseudocode = request_validated(
            gateway,
            f"Revise this pseudocode.\nSuggestions:\n{suggestions}\n\nPseudocode:\n{state.pseudocode}",
            free_text,
            tag="code.revise",
            temperature=cfg.reviser_temperature,
        )
        state.remember("revised pseudocode")
    elif op.op == "finish":
        state.remember("finished")

    state.trace.append(record)
    return True


def _review_pseudocode(
    state: LoopState, gateway: Gateway, cfg: CodeAnalysisConfig
) -> PseudocodeReview:
    prompt = (
        "Score this pseudocode 0-10 on conciseness, logical_structure and "
        + "implementation_specificity, with concrete suggestions.\n"
        + f"Pseudocode:\n{state.pseudocode or '(none)'}\n\n"
        + 'Reply strictly as JSON: {"conciseness": n, "logical_structure": n, '
        + '"implementation_specificity": n, "suggestions": ["..."]}'
    )
    return request_validated(
        gateway,
        prompt,
        _parse_review,
        tag="code.review",
        temperature=cfg.reviewer_temperature,
    )


def batch_code_report(
    pseudocodes: list[tuple[str, str]],
    topic: str,
    gateway: Gateway,
    cfg: Optional[CodeAnalysisConfig] = None,
    runlog: Optional[RunLog] = None,
) -> str:
    """Integrated code report over (paper id, pseudocode) pairs.

    Inputs go through the backend in batches of five; batch reports merge
    in one integration call, falling back to pairwise merging when the
    combined text would not fit the window. Claims must reference the
    pseudocode they come from via <paper id> marks; unknown marks are
    stripped with a monitor event.
    """
    if not pseudocodes:
        raise InvalidInputError("no pseudocode to report on")
    cfg = cfg or CodeAnalysisConfig()
    runlog = runlog or RunLog()
    known = {pid for pid, _ in pseudocodes}

    batch_reports = []
    batches = list(batched(pseudocodes, cfg.report_batch_size))
    for index, batch in enumerate(batches):
        body = "\n\n".join(f"### {pid}\n{code}" for pid, code in batch)
        batch_reports.append(
            request_validated(
                gateway,
                f"Analyze this pseudocode batch ({index + 1}/{len(batches)}) for the "
                f"topic '{topic}': problem modeling, core algorithm classification, "
                "optimization strategies, and topic-specific patterns. Reference "
                "every claim to its pseudocode with <paper id> marks.\n\n" + body,
                free_text,
                tag="code.batch_report",
            )
        )

    merged = _merge_reports(batch_reports, topic, gateway, runlog)
    unknown = [key for key in extract_mark_keys(merged) if key not in known]
    for key in unknown:
        runlog.attribution_event("code.report", "integrated report", key)
    return drop_marks(merged, unknown)


def _merge_reports(reports: list[str], topic: str, gateway: Gateway, runlog: RunLog) -> str:
    def integrate(parts: list[str]) -> str:
        return request_validated(
            gateway,
            f"Integrate these code-analysis reports for '{topic}' into one "
            "coherent report, keeping the <paper id> attributions intact.\n\n"
            + "\n\n---\n\n".join(parts),
            free_text,
            tag="code.integrate",
        )

    try:
        return integrate(reports)
    except BudgetError:  # the combined reports do not fit the window
        runlog.add("pairwise_merge_fallback", reports=len(reports))
        merged = list(reports)
        while len(merged) > 1:
            merged = [pair[0] if len(pair) == 1 else integrate(pair) for pair in batched(merged, 2)]
        return merged[0]


def environment_report(
    repos: list[RepoSnapshot],
    gateway: Gateway,
) -> str:
    """Synthesize frameworks, dependency versions and deployment patterns
    from configuration files only (manifests and readmes)."""
    entries = []
    for repo in repos:
        config = repo.config_files
        if not config:
            entries.append(f"## {repo.paper_id.canonical}\nno configuration found")
            continue
        body = "\n".join(f"--- {path} ---\n{text}" for path, text in sorted(config.items()))
        entries.append(f"## {repo.paper_id.canonical}\n{body}")
    if not repos:
        return "no repositories analyzed"
    return request_validated(
        gateway,
        "From the configuration files below, report framework selection, "
        "dependency versions and deployment patterns across the repositories.\n\n"
        + "\n\n".join(entries),
        free_text,
        tag="code.environment",
    )
