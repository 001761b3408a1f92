from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from asploop import fixtures
from asploop.asp import GroundAtom
from asploop.matching import (
    GroundTruth,
    edit_distance,
    levenshtein_match,
    match_solution,
    normalize_surface,
)


@pytest.mark.parametrize(
    "raw, expected",
    [
        ("$35", "35"),
        ("ISON-X42", "ison_x42"),
        ("Dr. Golden", "dr_golden"),
        ("Bale-Hahn SSC", "bale_hahn_ssc"),
        ("  spaced  out  ", "spaced_out"),
        ("9am", "9am"),
        ("--", ""),
        ("already_fine", "already_fine"),
    ],
)
def test_normalize_surface(raw, expected):
    assert normalize_surface(raw) == expected


def test_normalize_is_idempotent_on_examples():
    for raw in ["$35", "Dr. Golden", "Egert Facility", "x--y__z"]:
        once = normalize_surface(raw)
        assert normalize_surface(once) == once


@pytest.mark.parametrize(
    "a, b, expected",
    [
        ("", "", 0),
        ("", "abc", 3),
        ("abc", "", 3),
        ("kitten", "sitting", 3),
        ("ison_x42", "ison_x42", 0),
        ("ison_x42", "ISON-X42", 6),
        ("ison_x42", "2016", 8),
        ("flaw", "lawn", 2),
    ],
)
def test_edit_distance_values(a, b, expected):
    assert edit_distance(a, b) == expected


short = st.text(alphabet="abcxyz_019", max_size=8)


@given(short, short)
def test_edit_distance_symmetry_and_identity(a, b):
    assert edit_distance(a, b) == edit_distance(b, a)
    assert edit_distance(a, a) == 0
    assert (edit_distance(a, b) == 0) == (a == b)


@given(short, short, short)
def test_edit_distance_triangle_inequality(a, b, c):
    assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)


@given(short, short)
def test_edit_distance_bounds(a, b):
    d = edit_distance(a, b)
    assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))


def test_levenshtein_match_row_permutation():
    gt = [("wedding", "herbert"), ("birthday", "joel")]
    model = [("birthday", "joel"), ("wedding", "herbert")]
    report = levenshtein_match(gt, model)
    assert report.matched
    assert report.method == "levenshtein"
    assert report.assignment_map == {1: 2, 2: 1}


def test_levenshtein_match_tolerates_surface_noise():
    gt = [("ison_x42", "golden"), ("egert_facility", "owens")]
    model = [("ISON-X42", "Dr. Golden"), ("Egert Facility", "Dr. Owens")]
    report = levenshtein_match(gt, model)
    assert report.matched
    assert report.assignment_map == {1: 1, 2: 2}


def test_levenshtein_containment_breaks_distance_ties():
    # "x42" sits inside "ison_x42"; a bare distance argmin could pick either row
    gt = [("x42", "a"), ("zzz", "b")]
    model = [("ison_x42", "a"), ("qqq", "b")]
    report = levenshtein_match(gt, model)
    assert report.assignment_map[1] == 1


def test_levenshtein_rejects_row_disagreement():
    # items of gt row 1 point at different model rows
    gt = [("wedding", "joel"), ("birthday", "herbert")]
    model = [("wedding", "herbert"), ("birthday", "joel")]
    report = levenshtein_match(gt, model)
    assert not report.matched
    assert report.diagnostics


def test_levenshtein_rejects_non_injective_maps():
    gt = [("wedding", "herbert"), ("wedding_b", "herbert_b")]
    model = [("wedding", "herbert"), ("zzzzzzzz", "qqqqqqqq")]
    report = levenshtein_match(gt, model)
    assert not report.matched


def test_levenshtein_match_without_model_items():
    for model_rows in ([], [(), ()]):
        report = levenshtein_match([("wedding", "herbert")], model_rows)
        assert not report.matched
        assert report.method == "levenshtein"
        assert report.diagnostics


def test_levenshtein_item_matrix_shape():
    gt = [("a", "b"), ("c", "d")]
    model = [("a", "b"), ("c", "d")]
    report = levenshtein_match(gt, model)
    assert len(report.item_matrix) == 2
    assert all(len(row) == 2 for row in report.item_matrix)


def test_observatory_row_mapping():
    instance = fixtures.puzzle("observatory")
    gt_rows = sorted(instance.solution, key=lambda row: row[2])
    model_rows = [gt_rows[0], gt_rows[3], gt_rows[1], gt_rows[2]]
    report = levenshtein_match(gt_rows, model_rows)
    assert report.matched
    assert report.assignment_map == {1: 1, 2: 3, 3: 4, 4: 2}


def test_match_solution_exact(gateway, event_ref):
    instance = fixtures.puzzle("event_planning")
    verdict = gateway.solve(event_ref.full_program)
    assert verdict.model_count == 1
    report = match_solution(verdict.models[0], instance)
    assert report.matched
    assert report.method == "exact"


def test_match_solution_rejects_other_models(gateway, event_ref):
    instance = fixtures.puzzle("event_planning")
    verdict = gateway.solve(event_ref.base)
    assert verdict.model_count == instance.expected_model_count
    outcomes = [match_solution(m, instance).matched for m in verdict.models]
    assert outcomes.count(True) == 1


def test_match_solution_column_permutation(gateway, event_ref):
    instance = fixtures.puzzle("event_planning")
    verdict = gateway.solve(event_ref.full_program)
    swapped = frozenset(
        GroundAtom(a.pred, (a.args[1], a.args[0], a.args[2]))
        if a.pred == "assignment"
        else a
        for a in verdict.models[0]
    )
    report = match_solution(swapped, instance)
    assert report.matched
    assert report.method == "exact"


def test_match_solution_arity_mismatch(gateway):
    instance = fixtures.puzzle("event_planning")
    verdict = gateway.solve("assignment(a, b).")
    with pytest.raises(ValueError):
        match_solution(verdict.models[0], instance, target_predicate="assignment")


# event_planning's solution with a prefix on every event, so only the
# edit-distance stage can match it
EVENT_DRIFTED = "\n".join(
    f"assignment({e}, {p}, {a})."
    for e, p, a in [
        ("the_wedding", "herbert", 50),
        ("the_birthday", "joel", 100),
        ("the_anniversary", "susan", 75),
        ("the_graduation", "teresa", 125),
    ]
)


def test_match_solution_levenshtein_fallback(gateway):
    instance = fixtures.puzzle("event_planning")
    verdict = gateway.solve(EVENT_DRIFTED)
    report = match_solution(verdict.models[0], instance)
    assert report.matched
    assert report.method == "levenshtein"


def test_shared_ground_truth_reports_equal_fresh_reports(gateway, event_ref):
    instance = fixtures.puzzle("event_planning")
    truth = GroundTruth(instance)
    programs = [
        event_ref.base,
        "\n\n".join((event_ref.base, event_ref.hints[0])),
        EVENT_DRIFTED,
    ]
    reports = []
    for text in programs:
        for model in gateway.solve(text).models:
            report = match_solution(model, instance, None, truth)
            assert report == match_solution(model, instance)
            reports.append(report)
    assert {(r.method, r.matched) for r in reports} == {
        ("exact", True), ("levenshtein", True), ("levenshtein", False)
    }


surfaces = st.text(alphabet="ab_1", max_size=4)
surface_rows = st.lists(st.tuples(surfaces, surfaces), min_size=1, max_size=3)


@given(surface_rows, st.lists(surface_rows, min_size=1, max_size=4))
def test_shared_closeness_table_matches_a_fresh_one(gt_rows, models):
    closeness = {}
    for model_rows in models:
        assert levenshtein_match(gt_rows, model_rows, closeness) == levenshtein_match(
            gt_rows, model_rows
        )
    for (gt_item, model_item), close in closeness.items():
        contained = gt_item in model_item or model_item in gt_item
        assert close == (edit_distance(gt_item, model_item), 0 if contained else 1)
