"""Metrics engine: claim extraction, entailment-based citation recall and
precision (with the reference-necessity rule), valid-citation ratio,
weighted content scoring, and agreement/stability statistics.

Citation metrics follow the entailment formulation exactly:

* recall   = |claims whose full reference set entails them| / |claims|
* a reference is *necessary* when it alone entails the claim, or when
  removing it makes the remaining set fail to entail
* precision sums, over all (claim, reference) pairs, the cases where the
  full set entails the claim AND the reference is necessary, divided by
  the total number of references.
"""

from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Protocol, Sequence

from .errors import EvaluationError, InvalidInputError
from .fanout import map_bounded
from .gateway import Gateway, extract_json_payload, request_validated

# -- claims ------------------------------------------------------------------


@dataclass(frozen=True)
class ClaimRecord:
    claim_id: int
    text: str
    refs: tuple[str, ...]  # cited paper ids, de-duplicated, order of appearance


_SENTENCE_SPLIT = re.compile(r"(?<=[.!?])\s+")
_NUMERIC_MARK = re.compile(r"\[([^\[\]]*)\]")
_REFERENCES_HEADING = re.compile(r"^#+\s*References\s*$", re.I | re.M)
_FRONT_MATTER = re.compile(r"\A---\n.*?\n---\n\n?", re.S)


def survey_body(text: str) -> str:
    """Everything before the references heading; the bibliography itself is
    not claim-bearing prose."""
    match = _REFERENCES_HEADING.search(text)
    return text[: match.start()] if match else text


def strip_front_matter(text: str) -> str:
    """The survey without its leading ``---`` metadata block (topic,
    generation time, config hash)."""
    return _FRONT_MATTER.sub("", text, count=1)


def _sentence_candidates(text: str) -> Iterable[str]:
    for block in survey_body(text).split("\n"):
        block = block.strip()
        if not block or block.startswith("#"):
            continue
        yield from _SENTENCE_SPLIT.split(block)


def extract_claims(survey_text: str, citation_map: dict) -> list[ClaimRecord]:
    """One claim per sentence that carries at least one resolvable citation;
    the claim's refs are exactly that sentence's citations."""
    numbers = {
        int(entry["number"]): str(entry["paper_id"])
        for entry in citation_map.get("entries", [])
    }
    claims: list[ClaimRecord] = []
    for sentence in _sentence_candidates(survey_text):
        refs: list[str] = []
        for match in _NUMERIC_MARK.finditer(sentence):
            for part in match.group(1).split(","):
                part = part.strip()
                if part.isdigit() and int(part) in numbers:
                    paper = numbers[int(part)]
                    if paper not in refs:
                        refs.append(paper)
        if refs:
            claims.append(ClaimRecord(claim_id=len(claims), text=sentence, refs=tuple(refs)))
    return claims


# -- entailment verdicts -------------------------------------------------------


class NliBackend(Protocol):
    def entails(self, claim: str, premises: Sequence[str]) -> bool: ...


class NliVerdictTable:
    """Verdicts keyed by (claim_id, frozen reference subset).

    The empty subset is defined as non-entailing without a backend query.
    Missing verdicts raise, naming the pair, rather than guessing.
    """

    def __init__(self, entries: Optional[dict[tuple[int, frozenset[str]], bool]] = None):
        self.entries = dict(entries or {})

    def set(self, claim_id: int, refs: Iterable[str], verdict: bool) -> None:
        self.entries[(claim_id, frozenset(refs))] = bool(verdict)

    def get(self, claim_id: int, refs: Iterable[str]) -> bool:
        subset = frozenset(refs)
        if not subset:
            return False
        try:
            return self.entries[(claim_id, subset)]
        except KeyError:
            raise EvaluationError(
                f"no verdict for claim {claim_id} with refs {sorted(subset)}"
            ) from None


def needed_subsets(claim: ClaimRecord) -> list[frozenset[str]]:
    """Exactly the subsets the metrics query: the full set, every singleton,
    and every leave-one-out set. Never the full power set."""
    refs = list(claim.refs)
    subsets = {frozenset(refs)}
    for ref in refs:
        subsets.add(frozenset([ref]))
        rest = frozenset(r for r in refs if r != ref)
        if rest:
            subsets.add(rest)
    return sorted(subsets, key=lambda s: (len(s), sorted(s)))


def collect_verdicts(
    claims: Sequence[ClaimRecord],
    nli: NliBackend,
    premises: dict[str, str],
) -> NliVerdictTable:
    """Query the backend for every needed (claim, subset) pair.

    ``premises`` maps a reference id to its evidence text (abstract,
    keynote or full text, per configuration).
    """
    table = NliVerdictTable()
    for claim in claims:
        for subset in needed_subsets(claim):
            texts = [premises.get(r, r) for r in sorted(subset)]
            table.set(claim.claim_id, subset, nli.entails(claim.text, texts))
    return table


# -- citation metrics ----------------------------------------------------------


def citation_recall(claims: Sequence[ClaimRecord], verdicts: NliVerdictTable) -> float:
    """Share of claims whose full reference set entails them. Defined as
    1.0 for a survey with no claims (flagged upstream)."""
    if not claims:
        return 1.0
    supported = sum(1 for c in claims if verdicts.get(c.claim_id, c.refs))
    return supported / len(claims)


def reference_is_necessary(
    claim: ClaimRecord, ref: str, verdicts: NliVerdictTable
) -> bool:
    """A reference earns its place when it alone entails the claim, or when
    the remaining references fail to entail once it is removed."""
    if ref not in claim.refs:
        raise InvalidInputError(f"'{ref}' is not cited by claim {claim.claim_id}")
    alone = verdicts.get(claim.claim_id, [ref])
    rest = [r for r in claim.refs if r != ref]
    return alone or not verdicts.get(claim.claim_id, rest)


def citation_precision(claims: Sequence[ClaimRecord], verdicts: NliVerdictTable) -> float:
    """Necessity-weighted precision over all (claim, reference) pairs.
    Defined as 1.0 when there are no references at all (flagged upstream)."""
    total_refs = sum(len(c.refs) for c in claims)
    if total_refs == 0:
        return 1.0
    hits = 0
    for claim in claims:
        full = verdicts.get(claim.claim_id, claim.refs)
        for ref in claim.refs:
            if full and reference_is_necessary(claim, ref, verdicts):
                hits += 1
    return hits / total_refs


def valid_citation_ratio(
    survey_text: str,
    bibliography: dict[int, str],
    universe: set[str],
) -> float:
    """Fraction of in-text citation tokens that parse and resolve to a real
    paper. Bracketed tokens containing a digit count as citation attempts;
    anything that fails to parse as a bibliography number, or resolves to a
    paper outside the universe, is invalid. No citations at all -> 1.0."""
    total = 0
    valid = 0
    for match in _NUMERIC_MARK.finditer(survey_body(survey_text)):
        content = match.group(1)
        if not any(ch.isdigit() for ch in content):
            continue
        for part in content.split(","):
            part = part.strip()
            total += 1
            if not part.isdigit():
                continue
            paper = bibliography.get(int(part))
            if paper is not None and paper in universe:
                valid += 1
    if total == 0:
        return 1.0
    return valid / total


# -- content scoring -----------------------------------------------------------

CONTENT_WEIGHTS = {"core": 0.4, "writing": 0.2, "depth": 0.4}

#: Sub-dimension inventory per aggregated dimension; rubric text is a
#: configurable asset, deliberately approximate.
RUBRIC_DIMENSIONS = {
    "core": ("synthesis", "organization", "comprehensiveness", "relevance"),
    "writing": ("readability", "academic_rigor", "clarity", "coherence"),
    "depth": ("critical_analysis", "novelty_insights", "specificity", "future_directions"),
}


@dataclass
class ContentScores:
    core: float
    writing: float
    depth: float
    sub_scores: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("core", "writing", "depth"):
            value = getattr(self, name)
            if not 1.0 <= value <= 10.0:
                raise InvalidInputError(f"{name} score {value} outside [1, 10]")


def weighted_content_score(scores: ContentScores) -> float:
    """0.4 x core + 0.2 x writing + 0.4 x depth."""
    return (
        CONTENT_WEIGHTS["core"] * scores.core
        + CONTENT_WEIGHTS["writing"] * scores.writing
        + CONTENT_WEIGHTS["depth"] * scores.depth
    )


def _rubric_score(name: str, value: object) -> float:
    """One judge score: a number in [1, 10]. JSON null, lists, objects and
    booleans raise ValueError, so the judge is asked again."""
    try:
        if isinstance(value, bool):
            raise TypeError
        score = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} is not a number: {value!r}") from None
    if not 1.0 <= score <= 10.0:
        raise ValueError(f"{name}={score} outside [1, 10]")
    return score


def score_content(
    survey_text: str,
    gateway: Gateway,
    explanations: bool = False,
) -> ContentScores:
    """Rubric judge pass. Default is no-explanation mode: the judge emits
    scores only, which measurably stabilizes repeated runs."""
    dims = {dim: list(subs) for dim, subs in RUBRIC_DIMENSIONS.items()}
    explain = (
        "Add a short justification per dimension under 'notes'."
        if explanations
        else "Reply with scores only; no explanations."
    )

    prompt = (
        "Score this survey on a 1-10 scale per sub-dimension.\n"
        + f"Dimensions: {dims}\n{explain}\n"
        + 'Reply strictly as JSON: {"core": {"synthesis": n, ...}, '
        + '"writing": {...}, "depth": {...}}\n\n'
        + f"Survey:\n{survey_text}"
    )

    def parse(reply: str) -> ContentScores:
        payload = extract_json_payload(reply)
        if not isinstance(payload, dict):
            raise ValueError("judge reply must be a JSON object")
        sub_scores: dict[str, float] = {}
        totals: dict[str, float] = {}
        for dim, subs in RUBRIC_DIMENSIONS.items():
            block = payload.get(dim)
            if isinstance(block, dict):
                values = []
                for sub in subs:
                    if sub not in block:
                        raise ValueError(f"missing sub-dimension {dim}.{sub}")
                    value = _rubric_score(f"{dim}.{sub}", block[sub])
                    sub_scores[f"{dim}.{sub}"] = value
                    values.append(value)
                totals[dim] = sum(values) / len(values)
            elif isinstance(block, (int, float)):  # a JSON boolean is refused here
                totals[dim] = _rubric_score(dim, block)
            else:
                raise ValueError(f"missing dimension '{dim}'")
        return ContentScores(
            core=totals["core"],
            writing=totals["writing"],
            depth=totals["depth"],
            sub_scores=sub_scores,
        )

    return request_validated(gateway, prompt, parse, tag="evaluation.judge")


def judge_survey(
    survey_text: str,
    gateway: Gateway,
    rounds: int,
    explanations: bool = False,
    workers: int = 1,
    stop: Optional[threading.Event] = None,
) -> list[ContentScores]:
    """Score the survey in ``rounds`` independent judge rounds, up to
    ``workers`` at once; the scores come back in round order.

    The judge scores the survey, not its metadata: the front matter's
    timestamp would also keep a rerun of an unchanged survey from hitting
    the cache. Rounds after the first carry a ``(scoring round k)`` marker,
    so each is a request of its own. A failing round fails the call with
    the first failing round's error, and rounds not yet started are
    cancelled. A round that starts once ``stop`` is set raises instead of
    calling the judge.
    """
    judged = strip_front_matter(survey_text)

    def score_round(round_no: int) -> ContentScores:
        if stop is not None and stop.is_set():
            raise EvaluationError(f"judge round {round_no + 1} not started: evaluation stopped")
        return score_content(
            f"(scoring round {round_no + 1})\n{judged}" if round_no else judged,
            gateway,
            explanations=explanations,
        )

    return map_bounded(score_round, list(range(rounds)), workers)


# -- stability and agreement statistics ----------------------------------------


@dataclass
class DispersionStats:
    std: float
    cv_percent: float
    max_abs_dev: float
    range: float


def coefficient_of_variation(samples: Sequence[float], ddof: int = 1) -> DispersionStats:
    """Judge-stability statistics over repeated scores.

    The sample (n-1) standard deviation is the default; pass ddof=0 for the
    population variant.
    """
    if len(samples) < 2:
        raise InvalidInputError("need at least two samples")
    mean = sum(samples) / len(samples)
    if mean == 0:
        raise InvalidInputError("coefficient of variation undefined for zero mean")
    variance = sum((x - mean) ** 2 for x in samples) / (len(samples) - ddof)
    std = math.sqrt(variance)
    return DispersionStats(
        std=std,
        cv_percent=100.0 * std / mean,
        max_abs_dev=max(abs(x - mean) for x in samples),
        range=max(samples) - min(samples),
    )


def cohens_kappa(labels_a: Sequence[str], labels_b: Sequence[str]) -> float:
    """Chance-corrected pairwise agreement; chance from marginal products."""
    if len(labels_a) != len(labels_b):
        raise InvalidInputError("label sequences must have equal length")
    if not labels_a:
        raise InvalidInputError("need at least one item")
    n = len(labels_a)
    observed = sum(1 for a, b in zip(labels_a, labels_b) if a == b) / n
    categories = set(labels_a) | set(labels_b)
    expected = sum(
        (labels_a.count(c) / n) * (labels_b.count(c) / n) for c in categories
    )
    if expected == 1.0:
        # Both raters constant and equal: perfect agreement by definition.
        return 1.0
    return (observed - expected) / (1.0 - expected)


class RatingMatrix:
    """Items x raters categorical labels, stored as per-item category counts."""

    def __init__(self, counts: list[dict[str, int]], raters_per_item: int):
        if raters_per_item < 2:
            raise InvalidInputError("need at least two raters per item")
        for i, row in enumerate(counts):
            if sum(row.values()) != raters_per_item:
                raise InvalidInputError(
                    f"item {i} has {sum(row.values())} labels, expected {raters_per_item}"
                )
        self.counts = counts
        self.raters_per_item = raters_per_item

    @classmethod
    def from_labels(cls, rows: list[Sequence[str]]) -> "RatingMatrix":
        if not rows:
            raise InvalidInputError("need at least one item")
        n = len(rows[0])
        counts = []
        for row in rows:
            if len(row) != n:
                raise InvalidInputError("inconsistent rater counts across items")
            tally: dict[str, int] = {}
            for label in row:
                tally[label] = tally.get(label, 0) + 1
            counts.append(tally)
        return cls(counts, n)


def fleiss_kappa(matrix: RatingMatrix) -> float:
    """Panel agreement: mean per-item agreement corrected by the chance
    agreement implied by the pooled category frequencies."""
    n = matrix.raters_per_item
    n_items = len(matrix.counts)
    per_item = [
        (sum(v * (v - 1) for v in row.values())) / (n * (n - 1))
        for row in matrix.counts
    ]
    mean_agreement = sum(per_item) / n_items
    categories = sorted({c for row in matrix.counts for c in row})
    frequencies = {
        c: sum(row.get(c, 0) for row in matrix.counts) / (n_items * n) for c in categories
    }
    expected = sum(f * f for f in frequencies.values())
    if expected == 1.0:
        if mean_agreement == 1.0:
            return 1.0
        raise EvaluationError("chance agreement is 1 with imperfect observed agreement")
    return (mean_agreement - expected) / (1.0 - expected)


# -- report orchestration --------------------------------------------------------


@dataclass
class EvaluationReport:
    recall: Optional[float] = None
    precision: Optional[float] = None
    valid_ratio: Optional[float] = None
    n_claims: int = 0
    total_refs: int = 0
    content: Optional[ContentScores] = None
    weighted_total: Optional[float] = None
    stability: Optional[DispersionStats] = None
    judge_rounds: int = 0
    warnings: list[str] = field(default_factory=list)
    metric_errors: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "citation": {
                "recall": self.recall,
                "precision": self.precision,
                "valid_ratio": self.valid_ratio,
                "claims": self.n_claims,
                "total_refs": self.total_refs,
            },
            "content": {
                "weighted_total": self.weighted_total,
                "core": self.content.core if self.content else None,
                "writing": self.content.writing if self.content else None,
                "depth": self.content.depth if self.content else None,
                "sub_scores": dict(self.content.sub_scores) if self.content else {},
            },
            "stability": {
                "judge_rounds": self.judge_rounds,
                "std": self.stability.std if self.stability else None,
                "cv_percent": self.stability.cv_percent if self.stability else None,
                "max_abs_dev": self.stability.max_abs_dev if self.stability else None,
                "range": self.stability.range if self.stability else None,
            },
            "warnings": list(self.warnings),
            "metric_errors": dict(self.metric_errors),
        }

    def to_table(self) -> str:
        """Delimited two-table rendering: citation metrics, content scores."""
        def fmt(x):
            return "n/a" if x is None else f"{x:.3f}"

        lines = [
            "metric\tvalue",
            f"citation_recall\t{fmt(self.recall)}",
            f"citation_precision\t{fmt(self.precision)}",
            f"valid_citation_ratio\t{fmt(self.valid_ratio)}",
            f"weighted_total\t{fmt(self.weighted_total)}",
            f"core_quality\t{fmt(self.content.core if self.content else None)}",
            f"writing_quality\t{fmt(self.content.writing if self.content else None)}",
            f"content_depth\t{fmt(self.content.depth if self.content else None)}",
        ]
        for warning in self.warnings:
            lines.append(f"warning\t{warning}")
        for metric, error in sorted(self.metric_errors.items()):
            lines.append(f"error:{metric}\t{error}")
        return "\n".join(lines) + "\n"


def evaluate_survey(
    survey_text: str,
    citation_map: dict,
    nli: NliBackend,
    premises: dict[str, str],
    universe: set[str],
    judge: Callable[[], list[ContentScores]] = list,
) -> EvaluationReport:
    """Full metric pass; backend failures degrade to per-metric error
    markers instead of sinking the whole report.

    ``judge`` returns the content scores of every judge round in round
    order (by default there is no round), e.g. the ``result`` of a future
    running :func:`judge_survey`; it is called after the citation metrics,
    and its error is reported as the ``content`` metric's.
    """
    report = EvaluationReport()
    claims = extract_claims(survey_text, citation_map)
    report.n_claims = len(claims)
    report.total_refs = sum(len(c.refs) for c in claims)
    if not claims:
        report.warnings.append("survey has no citation-bearing claims")

    try:
        verdicts = collect_verdicts(claims, nli, premises)
        report.recall = citation_recall(claims, verdicts)
        report.precision = citation_precision(claims, verdicts)
    except Exception as exc:  # partial report on backend exhaustion
        report.metric_errors["citation"] = str(exc)

    try:
        bibliography = {
            int(e["number"]): str(e["paper_id"]) for e in citation_map.get("entries", [])
        }
        report.valid_ratio = valid_citation_ratio(survey_text, bibliography, universe)
        if report.total_refs == 0:
            report.warnings.append("no references; ratio metrics defaulted to 1.0")
    except Exception as exc:
        report.metric_errors["valid_ratio"] = str(exc)

    try:
        rounds = judge()
        totals = [weighted_content_score(scores) for scores in rounds]
        if rounds:
            report.content = rounds[-1]
            report.weighted_total = totals[-1]
            report.judge_rounds = len(rounds)
        if len(totals) >= 2:
            report.stability = coefficient_of_variation(totals)
    except Exception as exc:
        report.metric_errors["content"] = str(exc)
    return report
