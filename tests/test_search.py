from __future__ import annotations

import pytest

from asploop import fixtures
from asploop.gateway import SolverGateway
from asploop.generators import ScriptedGenerator
from asploop.search import (
    SearchConfig,
    SearchError,
    SearchOutcome,
    evaluate_accuracy,
    run_search,
)

RANKED = SearchConfig(n=5)
PLAIN = SearchConfig(n=5, backtrack_limit=0, enable_regeneration=False)


def replay(name, config, gateway, instance_id="event_planning"):
    instance = fixtures.puzzle(instance_id)
    generator = ScriptedGenerator(fixtures.scripted_path(name))
    outcome = run_search(instance, generator, config, gateway)
    return instance, outcome


def kinds(outcome):
    return [event["event"] for event in outcome.trace]


def test_clean_run_alternates_step_and_rank(gateway):
    instance, outcome = replay("search_clean", RANKED, gateway)
    assert kinds(outcome) == ["step", "rank"] * 5 + ["final"]
    assert outcome.final_verdict.flagless
    assert outcome.final_verdict.model_count == 1
    final = outcome.trace[-1]
    assert final == {"event": "final", "models": 1, "flagless": True, "backtracks": 0}
    report = evaluate_accuracy([outcome], [instance])
    assert report["accuracy"] == 1.0


def test_clean_run_trace_payloads(gateway):
    _, outcome = replay("search_clean", RANKED, gateway)
    steps = [e for e in outcome.trace if e["event"] == "step"]
    ranks = [e for e in outcome.trace if e["event"] == "rank"]
    assert [e["step"] for e in steps] == [0, 1, 2, 3, 4]
    assert all(e["pool"] == 5 for e in steps)
    for event in ranks:
        assert len(event["rewards"]) >= 2
        assert 0 <= event["selected"] < len(event["rewards"])
        best = max(event["rewards"])
        assert event["rewards"][event["selected"]] == best


def test_clean_run_is_identical_without_recovery(gateway):
    _, ranked = replay("search_clean", RANKED, gateway)
    instance, plain = replay("search_clean", PLAIN, gateway)
    assert ranked.trace == plain.trace
    assert ranked.final_program == plain.final_program
    assert evaluate_accuracy([plain], [instance])["accuracy"] == 1.0


def test_regeneration_recovers_a_stuck_step(gateway):
    instance, outcome = replay("search_regen", RANKED, gateway)
    regens = [e for e in outcome.trace if e["event"] == "regenerate"]
    assert len(regens) == 1
    assert regens[0]["step"] == 2
    assert regens[0]["added"] == 10
    assert not [e for e in outcome.trace if e["event"] == "backtrack"]
    assert outcome.final_verdict.model_count == 1
    assert evaluate_accuracy([outcome], [instance])["accuracy"] == 1.0


def test_without_regeneration_the_stuck_step_is_accepted(gateway):
    instance, outcome = replay("search_regen", PLAIN, gateway)
    assert not [e for e in outcome.trace if e["event"] == "regenerate"]
    assert [e for e in outcome.trace if e["event"] == "accept_exhausted"]
    assert evaluate_accuracy([outcome], [instance])["accuracy"] == 0.0


def test_backtracking_rewinds_to_the_best_earlier_step(gateway):
    instance, outcome = replay("search_backtrack", RANKED, gateway)
    backtracks = [e for e in outcome.trace if e["event"] == "backtrack"]
    assert len(backtracks) == 1
    assert backtracks[0]["to_step"] == 1
    assert backtracks[0]["selected"] == 1
    final = outcome.trace[-1]
    assert final["backtracks"] == 1
    assert final["models"] == 1 and final["flagless"]
    assert evaluate_accuracy([outcome], [instance])["accuracy"] == 1.0


def test_without_backtracking_the_poisoned_path_sticks(gateway):
    instance, outcome = replay("search_backtrack", PLAIN, gateway)
    assert not [e for e in outcome.trace if e["event"] == "backtrack"]
    assert [e for e in outcome.trace if e["event"] == "accept_exhausted"]
    assert evaluate_accuracy([outcome], [instance])["accuracy"] == 0.0


def test_token_accounting_is_positive(gateway):
    _, outcome = replay("search_clean", RANKED, gateway)
    assert outcome.total_output_tokens > 0


def test_exhausted_fixture_is_a_search_error(gateway):
    instance = fixtures.puzzle("event_planning")
    generator = ScriptedGenerator(fixtures.scripted_path("search_clean"))
    run_search(instance, generator, RANKED, gateway)
    with pytest.raises(SearchError) as info:
        run_search(instance, generator, RANKED, gateway)
    assert isinstance(info.value.trace, list)


def test_single_sample_config_runs(gateway):
    instance = fixtures.puzzle("event_planning")
    generator = ScriptedGenerator(fixtures.scripted_path("search_e2e"))
    outcome = run_search(instance, generator, SearchConfig(n=5), gateway)
    assert outcome.final_verdict.model_count == 1



class PromptLog:
    """A scripted generator that keeps every prompt it is asked for."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.prompts = []

    def complete(self, prompt, n, temperature):
        self.prompts.append(prompt)
        return self.inner.complete(prompt, n, temperature)


def test_hint_prompts_carry_the_puzzle_once(gateway):
    instance = fixtures.puzzle("harbor_cruises")
    generator = PromptLog(ScriptedGenerator(fixtures.scripted_path("search_e2e")))
    run_search(instance, generator, SearchConfig(n=1), gateway)
    assert len(generator.prompts) == len(instance.hints) + 1
    for prompt in generator.prompts:
        assert prompt.count(instance.description) == 1


def synthetic(gateway, text, cap=None):
    solver = gateway if cap is None else SolverGateway(cap=cap)
    verdict = solver.solve(text)
    return SearchOutcome(final_program=text, final_verdict=verdict)


def test_bucket_classification(gateway):
    instance = fixtures.puzzle("event_planning")
    reference = fixtures.reference_blocks("event_planning")
    wrong_rows = "\n".join(
        f"assignment({e}, {p}, {a})."
        for e, p, a in [
            ("anniversary", "herbert", 50),
            ("wedding", "susan", 75),
            ("birthday", "joel", 100),
            ("graduation", "teresa", 125),
        ]
    )
    outcomes = [
        synthetic(gateway, "p(a. "),
        synthetic(gateway, "item(a). 1 {pick(X) : item(X)} 1. :- pick(a)."),
        synthetic(gateway, reference.base),
        synthetic(gateway, wrong_rows),
        synthetic(gateway, "item(a;b;c). {pick(X) : item(X)}.", cap=2),
    ]
    report = evaluate_accuracy(outcomes, [instance] * 5)
    assert report["total"] == 5
    assert report["correct"] == 0
    assert report["buckets"] == {
        "error": 1,
        "unsat": 1,
        "multiple-models": 1,
        "wrong-unique-model": 1,
        "cap-exceeded": 1,
    }
    rows = report["per_instance"]
    assert [r["bucket"] for r in rows] == [
        "error",
        "unsat",
        "multiple-models",
        "wrong-unique-model",
        "cap-exceeded",
    ]


def test_correct_requires_a_unique_matching_model(gateway):
    instance = fixtures.puzzle("event_planning")
    reference = fixtures.reference_blocks("event_planning")
    unique = synthetic(gateway, reference.full_program)
    report = evaluate_accuracy([unique], [instance])
    assert report["correct"] == 1
    assert report["per_instance"][0]["bucket"] is None


def test_report_groups_by_size_and_difficulty(gateway):
    event = fixtures.puzzle("event_planning")
    chess = fixtures.puzzle("chess_club")
    good = synthetic(gateway, fixtures.reference_blocks("event_planning").full_program)
    bad = synthetic(gateway, "p(a. ")
    report = evaluate_accuracy([good, bad], [event, chess])
    assert report["by_size"][event.size]["correct"] == 1
    assert report["by_size"][chess.size]["total"] == 1
    assert report["by_difficulty"]["medium"]["accuracy"] == 1.0
    assert report["by_difficulty"]["easy"]["accuracy"] == 0.0


def test_mean_output_tokens(gateway):
    a = synthetic(gateway, "p(a).")
    a.total_output_tokens = 10
    b = synthetic(gateway, "q(b).")
    b.total_output_tokens = 30
    instance = fixtures.puzzle("event_planning")
    report = evaluate_accuracy([a, b], [instance, instance])
    assert report["mean_output_tokens"] == 20.0


def test_mismatched_lengths_are_rejected(gateway):
    instance = fixtures.puzzle("event_planning")
    with pytest.raises(ValueError):
        evaluate_accuracy([], [instance])


def test_config_rejects_a_negative_cap():
    with pytest.raises(ValueError, match="cap must be non-negative"):
        SearchConfig(cap=-1)
    assert SearchConfig(cap=0).cap == 0
