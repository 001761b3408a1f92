from __future__ import annotations

import statistics

import pytest

from asploop import datagen, fixtures, matching
from asploop.asp.solve import Models
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
from asploop.gateway import SolverGateway
from asploop.generators import GeneratorError, ScriptedGenerator
from asploop.matching import GroundTruth, match_solution
from asploop.trajectory import CandidateEncoding, Step, Trajectory, build_base_prompt

from conftest import REFSOLVER_CMD

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


def test_dfs_edit_distances_stay_within_the_vocabulary(gateway, monkeypatch):
    calls = 0
    met = set()
    edit_distance = matching.edit_distance
    levenshtein_match = matching.levenshtein_match

    def counted(a, b):
        nonlocal calls
        calls += 1
        return edit_distance(a, b)

    def recording(gt_rows, model_rows, *rest):
        met.update(item for row in model_rows for item in row)
        return levenshtein_match(gt_rows, model_rows, *rest)

    monkeypatch.setattr(matching, "edit_distance", counted)
    monkeypatch.setattr(matching, "levenshtein_match", recording)
    instance = fixtures.puzzle("event_planning")
    generator = ScriptedGenerator(fixtures.scripted_path("datagen_splits"))
    run_dfs(instance, generator, DfsConfig(), gateway)
    gt_items = {str(item) for row in instance.solution for item in row}
    assert met, "the run no longer reaches the edit-distance stage"
    assert 0 < calls <= len(gt_items) * len(met)


def test_dfs_builds_one_closest_items_table(gateway, monkeypatch):
    # every model that reaches the edit-distance stage holds the same items
    tables = []
    closest_items = matching.closest_items

    def recording(gt_rows, items):
        tables.append(items)
        return closest_items(gt_rows, items)

    monkeypatch.setattr(matching, "closest_items", recording)
    instance = fixtures.puzzle("event_planning")
    generator = ScriptedGenerator(fixtures.scripted_path("datagen_splits"))
    run_dfs(instance, generator, DfsConfig(), gateway)
    assert len(tables) == 1


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


def test_config_rejects_a_negative_cap():
    with pytest.raises(ValueError, match="cap must be non-negative"):
        DfsConfig(cap=-1)
    assert DfsConfig(cap=0).cap == 0


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


def test_dfs_aborts_on_unusable_base(gateway, caplog):
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
    assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
        ("asploop.datagen", "WARNING", "datagen aborted for event_planning: no usable base encoding")]


def test_dfs_stats_count_no_records_after_a_generator_failure(gateway, caplog):
    instance = fixtures.puzzle("event_planning")
    scripted = ScriptedGenerator(fixtures.scripted_path("datagen_splits"))

    class FailsOnFifthCall:
        name = "fails-on-fifth-call"
        calls = 0

        def complete(self, prompt, n, temperature):
            self.calls += 1
            if self.calls == 5:
                raise GeneratorError("backend went away")
            return scripted.complete(prompt, n, temperature)

    sft, pref, stats = run_dfs(instance, FailsOnFifthCall(), DfsConfig(), gateway)
    assert (sft, pref) == ([], [])
    assert (stats["sft_records"], stats["pref_records"]) == (0, 0)
    assert stats["aborted_reason"] == "backend went away"
    assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
        ("asploop.datagen", "WARNING", "datagen aborted for event_planning: backend went away")]
    # the rows of the steps walked before the failure are kept
    assert len(stats["steps"]) == 4


def fresh_member(model, instance, predicate) -> bool:
    """A fresh match of one model; a wrong arity reads as not matched."""
    try:
        return match_solution(model, instance, predicate).matched
    except ValueError:
        return False


def reference_label(verdict, instance, predicate) -> str:
    """classify's label from a fresh match of every model."""
    matched = verdict.flagless and any(
        fresh_member(model, instance, predicate) for model in verdict.models
    )
    return "chosen" if matched else "rejected"


def on_base(instance, base_text: str) -> Trajectory:
    trajectory = Trajectory(instance_ref=instance.id)
    step = Step(input_text=build_base_prompt(instance))
    step.candidates.append(CandidateEncoding(text=base_text))
    step.selected_index = 0
    trajectory.steps.append(step)
    return trajectory


def counted_matches(monkeypatch) -> list:
    """Record the model of every call to `datagen.match_solution`."""
    calls = []
    match = datagen.match_solution

    def counted(model, *rest):
        calls.append(model)
        return match(model, *rest)

    monkeypatch.setattr(datagen, "match_solution", counted)
    return calls


def test_dfs_labels_equal_a_fresh_match_of_every_model(gateway, monkeypatch):
    seen = []
    classify_once = datagen.classify

    def recording(candidate, trajectory, instance, cap, gateway, predicate=None, truth=None):
        label = classify_once(candidate, trajectory, instance, cap, gateway, predicate, truth)
        seen.append((label, reference_label(candidate.verdict, instance, predicate)))
        return label

    monkeypatch.setattr(datagen, "classify", recording)
    instance = fixtures.puzzle("event_planning")
    generator = ScriptedGenerator(fixtures.scripted_path("datagen_splits"))
    sft, pref, _ = run_dfs(instance, generator, DfsConfig(), gateway)
    assert (len(sft), len(pref)) == (25, 54)
    labels, references = zip(*seen)
    assert labels == references
    assert {"chosen", "rejected"} == set(labels)


# event_planning's solution as facts, and the same with two planners swapped:
# one atom list each, the same ids and masks, different atoms
EVENT_ROWS = [("anniversary", "susan", 75), ("birthday", "joel", 100),
              ("graduation", "teresa", 125), ("wedding", "herbert", 50)]
EVENT_SWAPPED = [("anniversary", "joel", 75), ("birthday", "susan", 100),
                 ("graduation", "teresa", 125), ("wedding", "herbert", 50)]


def as_facts(rows) -> str:
    return " ".join(f"assignment({e}, {p}, {a})." for e, p, a in rows)


@pytest.mark.parametrize("predicate", ["assignment", None])
@pytest.mark.parametrize("backend", ["internal", "external"])
def test_one_ground_truth_labels_every_skeleton_as_a_fresh_match(backend, predicate):
    gateway = SolverGateway(backend=backend, solver_cmd=REFSOLVER_CMD)
    instance = fixtures.puzzle("event_planning")
    reference = fixtures.reference_blocks("event_planning")
    cap = classification_cap(instance, None)
    truth = GroundTruth(instance)
    prefix = "\n\n".join((reference.base, *reference.hints[:2]))  # 18 models
    kill = ":- assignment(wedding, herbert, 50)."
    # each hint after the first adds a fact or a choice, so new atom ids
    cases = [
        (prefix, reference.hints[2], "chosen"),
        (prefix, f"extra. {kill}", "rejected"),
        (prefix, "{extra}.", "chosen"),
        (prefix, f"{{extra}}. {kill}", "rejected"),
        (prefix, "extra.", "chosen"),
        (as_facts(EVENT_ROWS), "", "chosen"),
        (as_facts(EVENT_SWAPPED), "", "rejected"),
        (as_facts(EVENT_ROWS), "", "chosen"),
    ]
    for base, hint, want in cases:
        candidate = CandidateEncoding(text=hint)
        trajectory = on_base(instance, base)
        label = classify(candidate, trajectory, instance, cap, gateway, predicate, truth)
        assert label == reference_label(candidate.verdict, instance, predicate) == want, hint
        assert isinstance(candidate.verdict.models, Models) == (backend == "internal")


def test_a_wrong_arity_model_is_rejected_on_every_read(gateway, monkeypatch):
    calls = counted_matches(monkeypatch)
    instance = fixtures.puzzle("event_planning")
    cap = classification_cap(instance, None)
    trajectory = on_base(instance, "assignment(a, b).")
    truth = GroundTruth(instance)
    for shared in (truth, truth, None):
        candidate = CandidateEncoding(text="")
        assert classify(candidate, trajectory, instance, cap, gateway, "assignment", shared) == "rejected"
    assert len(calls) == 2  # once for the shared truth, once for classify's own


@pytest.mark.parametrize("predicate, matches", [("assignment", 1), (None, 2)])
def test_models_with_the_same_target_atoms_are_matched_once(gateway, monkeypatch,
                                                            predicate, matches):
    calls = counted_matches(monkeypatch)
    instance = fixtures.puzzle("event_planning")
    cap = classification_cap(instance, None)
    candidate = CandidateEncoding(text="{other}.")
    trajectory = on_base(instance, "assignment(a, b, c).")
    assert classify(candidate, trajectory, instance, cap, gateway, predicate) == "rejected"
    assert candidate.verdict.model_count == 2
    assert len(calls) == matches


def test_classify_builds_one_ground_truth_per_call(gateway, monkeypatch):
    builds = 0
    init = GroundTruth.__init__

    def counted(self, instance):
        nonlocal builds
        builds += 1
        init(self, instance)

    monkeypatch.setattr(GroundTruth, "__init__", counted)
    instance = fixtures.puzzle("event_planning")
    reference = fixtures.reference_blocks("event_planning")
    cap = classification_cap(instance, None)
    candidate = CandidateEncoding(text=reference.hints[1])
    trajectory = on_base(instance, reference.base)
    assert classify(candidate, trajectory, instance, cap, gateway, "assignment") == "chosen"
    assert candidate.verdict.model_count > 1
    assert builds == 1


def test_dfs_matches_each_distinct_model_once(monkeypatch):
    gateway = SolverGateway()
    lists = []  # each solve's atom list, kept alive so that ids stay distinct
    calls = []
    reached = set()
    solve = gateway.solve
    match = datagen.match_solution
    classify_once = datagen.classify

    def solving(*args, **kwargs):
        verdict = solve(*args, **kwargs)
        lists.append(getattr(verdict.models, "atom_of", None))
        return verdict

    def matching_model(model, instance, predicate, *rest):
        calls.append((id(lists[-1]), frozenset(a for a in model if a.pred == predicate)))
        return match(model, instance, predicate, *rest)

    def walking(candidate, trajectory, instance, cap, gateway, predicate=None, truth=None):
        label = classify_once(candidate, trajectory, instance, cap, gateway, predicate, truth)
        if candidate.verdict.flagless:
            for model in candidate.verdict.models:
                reached.add((id(lists[-1]), frozenset(a for a in model if a.pred == predicate)))
                if fresh_member(model, instance, predicate):
                    break
        return label

    monkeypatch.setattr(gateway, "solve", solving)
    monkeypatch.setattr(datagen, "match_solution", matching_model)
    monkeypatch.setattr(datagen, "classify", walking)
    instance = fixtures.puzzle("event_planning")
    generator = ScriptedGenerator(fixtures.scripted_path("datagen_splits"))
    sft, pref, _ = run_dfs(instance, generator, DfsConfig(), gateway)
    assert (len(sft), len(pref)) == (25, 54)
    assert len(calls) == len(set(calls))
    assert set(calls) == reached
    assert len(calls) == 550
