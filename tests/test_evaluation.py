from __future__ import annotations

import json
import random

import pytest

from litsurvey.errors import EvaluationError, InvalidInputError
from litsurvey.evaluation import (
    ClaimRecord,
    ContentScores,
    NliVerdictTable,
    RatingMatrix,
    citation_precision,
    citation_recall,
    coefficient_of_variation,
    cohens_kappa,
    collect_verdicts,
    evaluate_survey,
    extract_claims,
    fleiss_kappa,
    judge_survey,
    needed_subsets,
    reference_is_necessary,
    score_content,
    valid_citation_ratio,
    weighted_content_score,
)
from litsurvey.scripted import ConstantNli, ScriptedTransport

from conftest import scripted_gateway
from doubles import FixtureNli, SequenceTransport

# -- independent brute-force oracle for the citation formulas ----------------


def oracle_recall(claims, table: dict) -> float:
    if not claims:
        return 1.0
    supported = sum(1 for c in claims if table[(c.claim_id, frozenset(c.refs))])
    return supported / len(claims)


def oracle_precision(claims, table: dict) -> float:
    total = sum(len(c.refs) for c in claims)
    if total == 0:
        return 1.0
    numerator = 0
    for claim in claims:
        full = table[(claim.claim_id, frozenset(claim.refs))]
        for ref in claim.refs:
            alone = table[(claim.claim_id, frozenset([ref]))]
            rest = frozenset(r for r in claim.refs if r != ref)
            rest_supports = table[(claim.claim_id, rest)] if rest else False
            necessary = alone or (not rest_supports)
            if full and necessary:
                numerator += 1
    return numerator / total


def random_instance(rng: random.Random):
    claims = []
    table: dict = {}
    for claim_id in range(rng.randint(1, 6)):
        n_refs = rng.randint(1, 4)
        refs = tuple(f"r{claim_id}_{i}" for i in range(n_refs))
        claim = ClaimRecord(claim_id=claim_id, text=f"claim {claim_id}", refs=refs)
        claims.append(claim)
        for subset in needed_subsets(claim):
            table[(claim_id, subset)] = rng.random() < 0.5
    return claims, table


def claim(claim_id: int, *refs: str) -> ClaimRecord:
    return ClaimRecord(claim_id=claim_id, text=f"claim {claim_id}", refs=tuple(refs))


class TestRecall:
    def test_all_supported_is_one(self):
        claims = [claim(0, "a"), claim(1, "b")]
        table = NliVerdictTable()
        for c in claims:
            table.set(c.claim_id, c.refs, True)
        assert citation_recall(claims, table) == 1.0

    def test_two_of_three_supported(self):
        claims = [claim(0, "a"), claim(1, "b"), claim(2, "c")]
        table = NliVerdictTable()
        for c, verdict in zip(claims, (True, False, True)):
            table.set(c.claim_id, c.refs, verdict)
        assert citation_recall(claims, table) == pytest.approx(2 / 3)

    def test_no_claims_defaults_to_one(self):
        assert citation_recall([], NliVerdictTable()) == 1.0

    def test_missing_verdict_names_the_pair(self):
        with pytest.raises(EvaluationError) as err:
            citation_recall([claim(7, "a")], NliVerdictTable())
        assert "claim 7" in str(err.value)

    def test_flipping_full_set_verdict_never_decreases_recall(self):
        rng = random.Random(5)
        for _ in range(50):
            claims, table = random_instance(rng)
            base = oracle_recall(claims, table)
            flip = rng.choice(claims)
            key = (flip.claim_id, frozenset(flip.refs))
            if not table[key]:
                table[key] = True
                assert oracle_recall(claims, table) >= base


class TestNecessity:
    def test_each_ref_necessary_when_neither_singleton_suffices(self):
        c = claim(0, "r1", "r2")
        table = NliVerdictTable()
        table.set(0, ["r1"], False)
        table.set(0, ["r2"], False)
        table.set(0, ["r1", "r2"], True)
        assert reference_is_necessary(c, "r1", table) is True
        assert reference_is_necessary(c, "r2", table) is True

    def test_redundant_ref_not_necessary(self):
        c = claim(0, "r1", "r2")
        table = NliVerdictTable()
        table.set(0, ["r1"], True)
        table.set(0, ["r2"], False)
        table.set(0, ["r1", "r2"], True)
        # r2 neither supports alone nor is needed: removing it leaves r1 which supports.
        assert reference_is_necessary(c, "r2", table) is False

    def test_singleton_supporting_ref_is_necessary(self):
        c = claim(0, "r1")
        table = NliVerdictTable()
        table.set(0, ["r1"], True)
        assert reference_is_necessary(c, "r1", table) is True

    def test_ref_not_in_claim_rejected(self):
        with pytest.raises(InvalidInputError):
            reference_is_necessary(claim(0, "r1"), "r9", NliVerdictTable())


class TestPrecision:
    def test_hand_worked_half(self):
        c = claim(0, "r1", "r2")
        table = NliVerdictTable()
        table.set(0, ["r1", "r2"], True)
        table.set(0, ["r1"], True)
        table.set(0, ["r2"], False)
        # g(r1)=1 (alone suffices); g(r2)=[0] or [h({r1})=0]=0 -> P = 1/2
        assert citation_precision([c], table) == pytest.approx(0.5)

    def test_all_singletons_and_full_support_gives_one(self):
        c = claim(0, "r1", "r2")
        table = NliVerdictTable()
        for subset in needed_subsets(c):
            table.set(0, subset, True)
        assert citation_precision([c], table) == 1.0

    def test_unsupported_full_set_zeroes_the_claim(self):
        c = claim(0, "r1", "r2")
        table = NliVerdictTable()
        table.set(0, ["r1", "r2"], False)
        table.set(0, ["r1"], True)
        table.set(0, ["r2"], True)
        assert citation_precision([c], table) == 0.0

    def test_zero_total_refs_defaults_to_one(self):
        assert citation_precision([], NliVerdictTable()) == 1.0


def test_oracle_equivalence_on_seeded_random_instances():
    rng = random.Random(20260808)
    for _ in range(300):
        claims, raw = random_instance(rng)
        table = NliVerdictTable(raw)
        assert citation_recall(claims, table) == pytest.approx(
            oracle_recall(claims, raw), abs=1e-12
        )
        assert citation_precision(claims, table) == pytest.approx(
            oracle_precision(claims, raw), abs=1e-12
        )


class TestExtractClaims:
    CITATION_MAP = {
        "entries": [
            {"number": 1, "paper_id": "p1", "title": "Alpha"},
            {"number": 2, "paper_id": "p2", "title": "Beta"},
            {"number": 3, "paper_id": "p3", "title": "Gamma"},
        ]
    }

    def test_sentence_with_two_citations_one_claim(self):
        claims = extract_claims("Methods improved [1] [2].", self.CITATION_MAP)
        assert len(claims) == 1
        assert claims[0].refs == ("p1", "p2")

    def test_uncited_sentence_yields_no_claim(self):
        claims = extract_claims("Background prose. Cited fact [1].", self.CITATION_MAP)
        assert len(claims) == 1

    def test_three_cited_sentences_three_claims(self):
        text = "First [1]. Second [2]. Third [3]."
        claims = extract_claims(text, self.CITATION_MAP)
        assert [c.refs for c in claims] == [("p1",), ("p2",), ("p3",)]

    def test_duplicate_refs_within_sentence_deduplicated(self):
        claims = extract_claims("Twice [1] and again [1].", self.CITATION_MAP)
        assert claims[0].refs == ("p1",)

    def test_headings_ignored(self):
        claims = extract_claims("## Section [1]\n\nReal claim [2].", self.CITATION_MAP)
        assert [c.refs for c in claims] == [("p2",)]


class TestCollectVerdicts:
    def test_queries_exactly_the_needed_subsets(self):
        claims = [claim(0, "a", "b", "c"), claim(1, "d")]
        nli = ConstantNli()
        collect_verdicts(claims, nli, premises={})
        # claim 0: full {a,b,c}; singletons a,b,c; leave-one-out ab,ac,bc -> 7
        # claim 1: {d} only -> 1
        assert nli.calls == 8

    def test_fixture_nli_keyed_by_premises(self):
        claims = [claim(0, "a", "b")]
        premises = {"a": "text of a", "b": "text of b"}
        nli = FixtureNli(
            {
                ("claim 0", frozenset(["text of a", "text of b"])): True,
                ("claim 0", frozenset(["text of a"])): True,
                ("claim 0", frozenset(["text of b"])): False,
            }
        )
        table = collect_verdicts(claims, nli, premises)
        assert citation_precision(claims, table) == pytest.approx(0.5)


class TestValidRatio:
    BIB = {1: "p1", 2: "p2", 3: "p3"}
    UNIVERSE = {"p1", "p2", "p3"}

    def test_all_resolvable_is_one(self):
        assert valid_citation_ratio("A [1]. B [2] [3].", self.BIB, self.UNIVERSE) == 1.0

    def test_nine_of_ten(self):
        text = " ".join(f"[{i}]" for i in [1, 2, 3, 1, 2, 3, 1, 2, 3, 9])
        assert valid_citation_ratio(text, self.BIB, self.UNIVERSE) == pytest.approx(0.9)

    def test_malformed_token_counts_invalid(self):
        assert valid_citation_ratio("Bad [1a].", self.BIB, self.UNIVERSE) == 0.0

    def test_unresolvable_number_counts_invalid(self):
        assert valid_citation_ratio("[4]", self.BIB, self.UNIVERSE) == 0.0

    def test_bibliography_entry_outside_universe_invalid(self):
        assert valid_citation_ratio("[1]", {1: "ghost"}, self.UNIVERSE) == 0.0

    def test_no_citations_defaults_to_one(self):
        assert valid_citation_ratio("Plain prose only.", self.BIB, self.UNIVERSE) == 1.0

    def test_comma_groups_count_each_number(self):
        assert valid_citation_ratio("[1, 2]", self.BIB, self.UNIVERSE) == 1.0
        assert valid_citation_ratio("[1, 9]", self.BIB, self.UNIVERSE) == 0.5


class TestWeightedScore:
    @pytest.mark.parametrize(
        "core,writing,depth,expected",
        [
            (9.100, 8.356, 8.333, 8.644),
            (9.083, 8.311, 8.450, 8.676),
            (8.938, 8.417, 8.063, 8.483),
        ],
    )
    def test_reference_triples(self, core, writing, depth, expected):
        scores = ContentScores(core=core, writing=writing, depth=depth)
        assert weighted_content_score(scores) == pytest.approx(expected, abs=1e-3)

    def test_affine_identity_when_all_equal(self):
        for v in (1.0, 5.5, 10.0):
            scores = ContentScores(core=v, writing=v, depth=v)
            assert weighted_content_score(scores) == pytest.approx(v)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidInputError):
            ContentScores(core=0.5, writing=5, depth=5)

    def test_common_shift_preserves_ranking(self):
        rng = random.Random(2)
        systems = [
            ContentScores(
                core=rng.uniform(2, 8), writing=rng.uniform(2, 8), depth=rng.uniform(2, 8)
            )
            for _ in range(6)
        ]
        base = [weighted_content_score(s) for s in systems]
        shifted = [
            weighted_content_score(
                ContentScores(core=s.core + 1, writing=s.writing + 1, depth=s.depth + 1)
            )
            for s in systems
        ]
        assert [sorted(base).index(b) for b in base] == [
            sorted(shifted).index(s) for s in shifted
        ]
        for b, s in zip(base, shifted):
            assert s - b == pytest.approx(1.0)


class TestCoefficientOfVariation:
    def test_constant_samples(self):
        stats = coefficient_of_variation([4.2, 4.2, 4.2])
        assert stats.std == 0 and stats.cv_percent == 0 and stats.range == 0

    def test_golden_pair(self):
        stats = coefficient_of_variation([8, 10])
        assert stats.std == pytest.approx(1.41421, abs=1e-5)
        assert stats.cv_percent == pytest.approx(15.713, abs=1e-3)
        assert stats.max_abs_dev == pytest.approx(1.0)
        assert stats.range == pytest.approx(2.0)

    def test_scale_invariance(self):
        rng = random.Random(9)
        for _ in range(30):
            samples = [rng.uniform(1, 10) for _ in range(rng.randint(2, 12))]
            k = rng.uniform(0.1, 50)
            a = coefficient_of_variation(samples).cv_percent
            b = coefficient_of_variation([k * x for x in samples]).cv_percent
            assert abs(a - b) < 1e-9

    def test_population_variant_exposed(self):
        sample = coefficient_of_variation([8, 10], ddof=1)
        population = coefficient_of_variation([8, 10], ddof=0)
        assert population.std < sample.std

    def test_fewer_than_two_samples_invalid(self):
        with pytest.raises(InvalidInputError):
            coefficient_of_variation([1.0])

    def test_zero_mean_undefined(self):
        with pytest.raises(InvalidInputError):
            coefficient_of_variation([-1.0, 1.0])


class TestCohensKappa:
    def test_identical_sequences(self):
        assert cohens_kappa(list("AABB"), list("AABB")) == 1.0

    def test_hand_derived_zero_fixture(self):
        assert cohens_kappa(list("AABB"), list("ABAB")) == pytest.approx(0.0)

    def test_symmetric_under_rater_swap(self):
        rng = random.Random(31)
        for _ in range(100):
            n = rng.randint(1, 30)
            a = [rng.choice("ABT") for _ in range(n)]
            b = [rng.choice("ABT") for _ in range(n)]
            assert cohens_kappa(a, b) == pytest.approx(cohens_kappa(b, a))

    def test_invariant_under_relabeling(self):
        rng = random.Random(13)
        relabel = {"A": "X", "B": "Y", "T": "Z"}
        for _ in range(50):
            n = rng.randint(2, 25)
            a = [rng.choice("ABT") for _ in range(n)]
            b = [rng.choice("ABT") for _ in range(n)]
            mapped = cohens_kappa([relabel[x] for x in a], [relabel[x] for x in b])
            assert cohens_kappa(a, b) == pytest.approx(mapped)

    def test_constant_equal_raters_defined_as_one(self):
        assert cohens_kappa(["A", "A"], ["A", "A"]) == 1.0

    def test_length_mismatch_invalid(self):
        with pytest.raises(InvalidInputError):
            cohens_kappa(["A"], ["A", "B"])


class TestFleissKappa:
    def test_unanimous_agreement_is_one(self):
        matrix = RatingMatrix.from_labels([["A", "A", "A"], ["B", "B", "B"]])
        assert fleiss_kappa(matrix) == 1.0

    def test_two_rater_fixture_matches_direct_evaluation(self):
        # Same label fixture as the pairwise zero case: per-item agreement
        # (1, 0, 0, 1) -> mean 0.5; pooled frequencies 0.5/0.5 -> chance 0.5.
        matrix = RatingMatrix.from_labels(
            [["A", "A"], ["A", "B"], ["B", "A"], ["B", "B"]]
        )
        assert fleiss_kappa(matrix) == pytest.approx(0.0)

    def test_uniform_random_labels_near_zero(self):
        rng = random.Random(12345)
        rows = [
            [rng.choice("ABT") for _ in range(3)] for _ in range(10_000)
        ]
        kappa = fleiss_kappa(RatingMatrix.from_labels(rows))
        assert abs(kappa) <= 0.05

    def test_inconsistent_rater_counts_invalid(self):
        with pytest.raises(InvalidInputError):
            RatingMatrix.from_labels([["A", "B"], ["A"]])

    def test_single_rater_invalid(self):
        with pytest.raises(InvalidInputError):
            RatingMatrix.from_labels([["A"], ["B"]])


JUDGE_REPLY = json.dumps(
    {
        "core": {"synthesis": 9, "organization": 9, "comprehensiveness": 9, "relevance": 9.4},
        "writing": {"readability": 8, "academic_rigor": 8.9, "clarity": 8.1, "coherence": 8.2},
        "depth": {"critical_analysis": 8.8, "novelty_insights": 8.2, "specificity": 8, "future_directions": 8.3},
    }
)


class TestJudge:
    def test_sub_scores_average_into_dimensions(self):
        transport = ScriptedTransport().add("Score this survey", JUDGE_REPLY)
        scores = score_content("text", scripted_gateway(transport))
        assert scores.core == pytest.approx((9 + 9 + 9 + 9.4) / 4)
        assert scores.writing == pytest.approx((8 + 8.9 + 8.1 + 8.2) / 4)
        assert len(scores.sub_scores) == 12

    def test_no_explanation_mode_is_default(self):
        transport = ScriptedTransport().add("Score this survey", JUDGE_REPLY)
        score_content("text", scripted_gateway(transport))
        assert "no explanations" in transport.calls[0].prompt.lower()

    def test_out_of_range_sub_score_retries(self):
        bad = json.dumps(
            {
                "core": {"synthesis": 12, "organization": 9, "comprehensiveness": 9, "relevance": 9},
                "writing": {"readability": 8, "academic_rigor": 8, "clarity": 8, "coherence": 8},
                "depth": {"critical_analysis": 8, "novelty_insights": 8, "specificity": 8, "future_directions": 8},
            }
        )
        transport = ScriptedTransport().add("Score this survey", bad, JUDGE_REPLY)
        score_content("text", scripted_gateway(transport))
        assert len(transport.calls) == 2

    @pytest.mark.parametrize("value", [None, [7], True], ids=["null", "list", "true"])
    def test_non_numeric_sub_score_retries_naming_it(self, value):
        bad = json.loads(JUDGE_REPLY)
        bad["core"]["synthesis"] = value
        transport = ScriptedTransport().add("Score this survey", json.dumps(bad), JUDGE_REPLY)
        scores = score_content("text", scripted_gateway(transport))
        assert len(transport.calls) == 2
        assert "core.synthesis is not a number" in transport.calls[1].prompt
        assert scores.sub_scores["core.synthesis"] == 9.0

    def test_boolean_dimension_retries_naming_it(self):
        bad = json.loads(JUDGE_REPLY)
        bad["depth"] = True
        transport = ScriptedTransport().add("Score this survey", json.dumps(bad), JUDGE_REPLY)
        scores = score_content("text", scripted_gateway(transport))
        assert len(transport.calls) == 2
        assert "depth is not a number" in transport.calls[1].prompt
        assert scores.depth == pytest.approx((8.8 + 8.2 + 8 + 8.3) / 4)


SURVEY = "Claim one [1]. Claim two [1] [2].\n\n## References\n\n[1] Alpha (p1)\n[2] Beta (p2)"
CITATION_MAP = {
    "entries": [
        {"number": 1, "paper_id": "p1", "title": "Alpha"},
        {"number": 2, "paper_id": "p2", "title": "Beta"},
    ]
}


class TestEvaluateSurvey:
    def test_all_true_nli_and_fixed_judge(self):
        transport = ScriptedTransport().add("Score this survey", JUDGE_REPLY)
        report = evaluate_survey(
            SURVEY,
            CITATION_MAP,
            nli=ConstantNli(),
            premises={"p1": "alpha text", "p2": "beta text"},
            universe={"p1", "p2"},
            judge=lambda: judge_survey(SURVEY, scripted_gateway(transport), 1),
        )
        assert report.recall == 1.0
        assert report.precision == 1.0
        assert report.valid_ratio == 1.0
        expected = 0.4 * report.content.core + 0.2 * report.content.writing + 0.4 * report.content.depth
        assert report.weighted_total == pytest.approx(expected)
        assert report.n_claims == 2

    def test_fixture_table_matches_oracle(self):
        rng = random.Random(77)
        claims, raw = random_instance(rng)
        table = NliVerdictTable(raw)
        assert citation_recall(claims, table) == pytest.approx(oracle_recall(claims, raw))
        assert citation_precision(claims, table) == pytest.approx(
            oracle_precision(claims, raw)
        )

    def test_zero_claim_survey_warns_and_defaults(self):
        report = evaluate_survey(
            "No citations here at all.",
            {"entries": []},
            nli=ConstantNli(),
            premises={},
            universe=set(),
        )
        assert report.recall == 1.0 and report.precision == 1.0
        assert report.valid_ratio == 1.0
        assert report.warnings

    def test_judge_exhaustion_degrades_to_partial_report(self):
        transport = SequenceTransport([503] * 30)
        gw = scripted_gateway(transport)
        report = evaluate_survey(
            SURVEY,
            CITATION_MAP,
            nli=ConstantNli(),
            premises={},
            universe={"p1", "p2"},
            judge=lambda: judge_survey(SURVEY, gw, 1),
        )
        assert report.recall == 1.0  # citation metrics unaffected
        assert "content" in report.metric_errors
        assert report.weighted_total is None

    def test_repeated_judge_rounds_produce_stability_stats(self):
        second = json.dumps(
            {
                "core": {"synthesis": 9, "organization": 9, "comprehensiveness": 9, "relevance": 9},
                "writing": {"readability": 8, "academic_rigor": 8, "clarity": 8, "coherence": 8},
                "depth": {"critical_analysis": 8, "novelty_insights": 8, "specificity": 8, "future_directions": 8},
            }
        )
        transport = ScriptedTransport().add("Score this survey", JUDGE_REPLY, second)
        report = evaluate_survey(
            SURVEY,
            CITATION_MAP,
            nli=ConstantNli(),
            premises={},
            universe={"p1", "p2"},
            judge=lambda: judge_survey(SURVEY, scripted_gateway(transport), 2),
        )
        assert report.stability is not None
        assert report.stability.cv_percent >= 0
        assert report.judge_rounds == 2

    def test_report_rendering(self):
        report = evaluate_survey(
            SURVEY,
            CITATION_MAP,
            nli=ConstantNli(),
            premises={},
            universe={"p1", "p2"},
        )
        table = report.to_table()
        assert "citation_recall\t1.000" in table
        assert "valid_citation_ratio\t1.000" in table
        doc = report.to_dict()
        assert doc["citation"]["recall"] == 1.0
