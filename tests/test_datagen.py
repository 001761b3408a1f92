from __future__ import annotations

import statistics

import pytest

from asploop import fixtures, matching
from asploop.datagen import (
    DfsConfig,
    PreferenceRecord,
    SftRecord,
    classification_cap,
    classify,
    classify_base,
    export,
    load_records,
    run_dfs,
    target_predicate_for,
)
from asploop.generators import ScriptedGenerator
from asploop.trajectory import CandidateEncoding, Step, Trajectory, build_base_prompt

EXPECTED_STEP_ROWS = [
    (0, "", None, 2, 3),
    (1, "0", 0, 1, 4),
    (2, "0.0", 1, 3, 2),
    (3, "0.0.0", 2, 4, 1),
    (4, "0.0.0.0", 3, 1, 4),
    (4, "0.0.0.1", 3, 1, 4),
    (3, "0.0.1", 2, 2, 3),
    (4, "0.0.1.0", 3, 1, 4),
    (4, "0.0.1.1", 3, 1, 4),
    (1, "1", 0, 0, 5),
    (1, "1", 1, 5, 0),
    (2, "1.0", 2, 1, 4),
    (3, "1.0.0", 3, 1, 4),
    (2, "1.1", 2, 1, 4),
    (3, "1.1.0", 3, 1, 4),
]


@pytest.fixture(scope="module")
def dfs_run(gateway):
    instance = fixtures.puzzle("event_planning")
    generator = ScriptedGenerator(fixtures.scripted_path("datagen_splits"))
    return run_dfs(instance, generator, DfsConfig(), gateway)


def test_dfs_step_table(dfs_run):
    _, _, stats = dfs_run
    rows = [
        (r["step"], r["branch"], r["hint"], r["chosen"], r["rejected"])
        for r in stats["steps"]
    ]
    assert rows == EXPECTED_STEP_ROWS


def test_dfs_record_totals(dfs_run):
    sft, pref, stats = dfs_run
    assert len(sft) == 25
    assert len(pref) == 54
    assert stats["sft_records"] == 25
    assert stats["pref_records"] == 54
    assert stats["aborted_reason"] is None


def test_dfs_summary_statistics(dfs_run):
    _, _, stats = dfs_run
    chosen = [r["chosen"] for r in stats["steps"]]
    rejected = [r["rejected"] for r in stats["steps"]]
    assert stats["chosen_mean"] == pytest.approx(statistics.mean(chosen))
    assert stats["chosen_std"] == pytest.approx(statistics.pstdev(chosen))
    assert stats["rejected_mean"] == pytest.approx(statistics.mean(rejected))
    assert stats["rejected_std"] == pytest.approx(statistics.pstdev(rejected))


def test_sft_counts_track_chosen_column(dfs_run):
    sft, _, stats = dfs_run
    for row in stats["steps"]:
        key = (row["step"], row["branch"])
        got = sum(1 for r in sft if (r.step_index, r.branch_id) == key)
        want = sum(
            r["chosen"]
            for r in stats["steps"]
            if (r["step"], r["branch"]) == key
        )
        assert got == want, key


def test_preference_pairing_law(dfs_run):
    _, pref, stats = dfs_run
    for row in stats["steps"]:
        key = (row["step"], row["branch"])
        got = sum(1 for r in pref if (r.step_index, r.branch_id) == key)
        want = sum(
            min(r["chosen"], 2) * r["rejected"]
            for r in stats["steps"]
            if (r["step"], r["branch"]) == key
        )
        assert got == want, key


def test_branch_ids_are_dotted_paths(dfs_run):
    sft, pref, _ = dfs_run
    for record in list(sft) + list(pref):
        if record.step_index == 0:
            assert record.branch_id == ""
        else:
            parts = record.branch_id.split(".")
            assert len(parts) == record.step_index
            assert all(p.isdigit() for p in parts)


def test_dropped_hint_leaves_no_records(dfs_run):
    sft, pref, stats = dfs_run
    instance = fixtures.puzzle("event_planning")
    dropped_rows = [r for r in stats["steps"] if r["chosen"] == 0]
    assert len(dropped_rows) == 1
    dropped = dropped_rows[0]
    assert (dropped["step"], dropped["branch"], dropped["hint"]) == (1, "1", 0)
    hint_text = instance.hints[0]
    affected = [r for r in list(sft) + list(pref) if r.branch_id.split(".")[0] == "1"]
    assert affected
    for record in affected:
        assert f"Clue: {hint_text}" not in record.prompt
        texts = [record.completion] if isinstance(record, SftRecord) else [
            record.chosen,
            record.rejected,
        ]
        del texts  # completions may mention anything; only prompts carry clues


def test_chosen_and_rejected_differ(dfs_run):
    _, pref, _ = dfs_run
    for record in pref:
        assert record.chosen != record.rejected


def test_replays_are_deterministic(gateway):
    instance = fixtures.puzzle("event_planning")

    def run():
        generator = ScriptedGenerator(fixtures.scripted_path("datagen_splits"))
        return run_dfs(instance, generator, DfsConfig(), gateway)

    first = run()
    second = run()
    assert first[0] == second[0]
    assert first[1] == second[1]
    assert first[2] == second[2]


def test_dfs_computes_each_edit_distance_once(gateway, monkeypatch):
    pairs = []
    edit_distance = matching.edit_distance

    def counted(a, b):
        pairs.append((a, b))
        return edit_distance(a, b)

    monkeypatch.setattr(matching, "edit_distance", counted)
    instance = fixtures.puzzle("event_planning")
    generator = ScriptedGenerator(fixtures.scripted_path("datagen_splits"))
    sft, pref, _ = run_dfs(instance, generator, DfsConfig(), gateway)
    assert (len(sft), len(pref)) == (25, 54)
    assert pairs, "the run no longer reaches the edit-distance stage"
    assert len(pairs) == len(set(pairs))


def test_classification_cap_scales_with_instance():
    event = fixtures.puzzle("event_planning")
    assert classification_cap(event, None) == 4 * event.expected_model_count
    assert classification_cap(event, 99) == 99


def test_classify_base_accepts_only_the_expected_count(gateway):
    instance = fixtures.puzzle("event_planning")
    reference = fixtures.reference_blocks("event_planning")
    cap = classification_cap(instance, None)
    good = CandidateEncoding(text=reference.base)
    assert classify_base(good, instance, cap, gateway) == "chosen"
    assert classify_base(CandidateEncoding(text="p(a. "), instance, cap, gateway) == "rejected"
    assert classify_base(CandidateEncoding(text="p(a)."), instance, cap, gateway) == "rejected"


def test_classify_requires_ground_truth_to_survive(gateway):
    instance = fixtures.puzzle("event_planning")
    reference = fixtures.reference_blocks("event_planning")
    cap = classification_cap(instance, None)
    trajectory = Trajectory(instance_ref=instance.id)
    step = Step(input_text=build_base_prompt(instance))
    step.candidates.append(CandidateEncoding(text=reference.base))
    step.selected_index = 0
    trajectory.steps.append(step)

    good = CandidateEncoding(text=reference.hints[0])
    assert classify(good, trajectory, instance, cap, gateway, "assignment") == "chosen"
    killer = CandidateEncoding(text=":- assignment(wedding, herbert, 50).")
    assert classify(killer, trajectory, instance, cap, gateway, "assignment") == "rejected"
    wipe = CandidateEncoding(text=":- assignment(_, _, _).")
    assert classify(wipe, trajectory, instance, cap, gateway, "assignment") == "rejected"


def test_target_predicate_inference():
    reference = fixtures.reference_blocks("event_planning")
    assert target_predicate_for(reference.base) == "assignment"
    assert target_predicate_for("p(a). q(X) :- p(X).") is None


def test_preference_record_rejects_equal_texts():
    with pytest.raises(ValueError):
        PreferenceRecord("p", "same", "same", "i", 0, "")


def test_export_and_reload_round_trip(tmp_path, dfs_run):
    sft, pref, _ = dfs_run
    sft_path = tmp_path / "sft.jsonl"
    pref_path = tmp_path / "pref.jsonl"
    assert export(sft, sft_path, format="sft-jsonl") == 25
    assert export(pref, pref_path, format="pref-jsonl") == 54
    assert load_records(sft_path, format="sft-jsonl") == list(sft)
    assert load_records(pref_path, format="pref-jsonl") == list(pref)


def test_dfs_aborts_on_unusable_base(gateway):
    instance = fixtures.puzzle("event_planning")

    class Garbage:
        name = "garbage"

        def complete(self, prompt, n, temperature):
            from asploop.generators import RawCompletion

            return [RawCompletion(f"junk{i}(a. ", 1) for i in range(n)]

    sft, pref, stats = run_dfs(instance, Garbage(), DfsConfig(), gateway)
    assert sft == []
    assert pref == []
    assert stats["aborted_reason"]
