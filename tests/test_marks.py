from __future__ import annotations

import pytest

from litsurvey.marks import (
    drop_marks,
    extract_mark_keys,
    normalize_title,
    rewrite_to_numeric,
    verify_citations,
)
from litsurvey.model import CitationStyle

from conftest import make_paper


@pytest.fixture
def assigned():
    return [
        make_paper("p1", title="Alpha Methods"),
        make_paper("p2", title="Beta Systems"),
    ]


def test_extract_keeps_reading_order_and_duplicates():
    text = "First <A Paper>, then <B Paper>, then <A Paper> again."
    assert extract_mark_keys(text) == ["A Paper", "B Paper", "A Paper"]


def test_drop_marks_matches_the_stripped_key():
    text = "See < ghost >, <ghost>, <Alpha Methods> and < Alpha Methods >."
    assert drop_marks(text, {"ghost"}) == "See , , <Alpha Methods> and < Alpha Methods >."


def test_title_matching_is_whitespace_and_case_insensitive(assigned):
    verdict = verify_citations("See <alpha   METHODS>.", assigned, CitationStyle.TITLE)
    assert verdict.ok
    assert verdict.marks[0].paper.canonical == "p1"


def test_no_fuzzy_matching(assigned):
    verdict = verify_citations("See <Alpha Method>.", assigned, CitationStyle.TITLE)
    assert not verdict.ok
    assert verdict.violations == ["Alpha Method"]


def test_two_valid_marks_ok(assigned):
    verdict = verify_citations(
        "<Alpha Methods> and <Beta Systems> agree.", assigned, CitationStyle.TITLE
    )
    assert verdict.ok and len(verdict.marks) == 2


def test_out_of_set_mark_is_a_violation(assigned):
    verdict = verify_citations(
        "<Alpha Methods> and <Gamma Analysis>.", assigned, CitationStyle.TITLE
    )
    assert verdict.violations == ["Gamma Analysis"]


def test_zero_marks_is_ok_with_empty_citations(assigned):
    verdict = verify_citations("No citations at all.", assigned, CitationStyle.TITLE)
    assert verdict.ok and verdict.marks == []


def test_id_style_resolves_canonical_ids(assigned):
    verdict = verify_citations("See <p2>.", assigned, CitationStyle.ID)
    assert verdict.ok
    assert verdict.marks[0].paper.canonical == "p2"


def test_rewrite_numbers_by_first_appearance(assigned):
    extra = make_paper("p3", title="Gamma Analysis")
    text = "<Beta Systems> first, then <Alpha Methods>, then <Beta Systems>."
    rewritten, order = rewrite_to_numeric(text, assigned + [extra], CitationStyle.TITLE)
    assert rewritten == "[1] first, then [2], then [1]."
    assert [p.id.canonical for p in order] == ["p2", "p1"]


def test_rewrite_raises_on_unresolvable(assigned):
    with pytest.raises(KeyError):
        rewrite_to_numeric("<Unknown Paper>", assigned, CitationStyle.TITLE)


def test_normalize_title_collapses_whitespace():
    assert normalize_title("  Alpha\n  Methods ") == "alpha methods"
