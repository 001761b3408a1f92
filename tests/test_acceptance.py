"""One test per release criterion. Each test prints nothing of its own; the
terminal summary (see conftest) reports PASS/FAIL per criterion. Budgets are
asserted inside the tests, with solver caches cleared first so the timings
are honest.
"""
from __future__ import annotations

import json
import random
import time

import pytest

from asploop import cli, fixtures, gateway as gateway_mod
from asploop.asp import (
    GroundAtom,
    brute_force_models,
    enumerate_models,
    ground_program,
    parse_program,
    render_ground_atom,
)
from asploop.asp.ground import _ground_skeleton
from asploop.asp.parser import _parse_block
from asploop.datagen import DfsConfig, run_dfs
from asploop.gateway import SolverGateway, SolverVerdict
from asploop.generators import ScriptedGenerator
from asploop.matching import edit_distance, levenshtein_match
from asploop.puzzles import save_dataset
from asploop.rewards import choice_rule_reward, reward
from asploop.search import SearchConfig, evaluate_accuracy, run_search
from conftest import REFSOLVER_CMD

EVENT_ATOMS = {
    "assignment(anniversary,susan,75)",
    "assignment(wedding,herbert,50)",
    "assignment(birthday,joel,100)",
    "assignment(graduation,teresa,125)",
}


def fresh_caches():
    gateway_mod._solve_in_process.cache_clear()
    _ground_skeleton.cache_clear()
    _parse_block.cache_clear()


def flags_of(verdict):
    return (verdict.is_unsat, verdict.cap_exceeded, verdict.has_error)


def model_set(verdict):
    return set(verdict.models)


def test_criterion_01_golden_encoding_unique_model():
    fresh_caches()
    started = time.perf_counter()
    text = fixtures.reference_blocks("event_planning").full_program

    backends = [SolverGateway(), SolverGateway(backend="external", solver_cmd=REFSOLVER_CMD)]
    for solver in backends:
        verdict = solver.solve(text)
        assert verdict.model_count == 1
        assert flags_of(verdict) == (False, False, False)
        atoms = {
            render_ground_atom(a)
            for a in verdict.models[0]
            if a.pred == "assignment"
        }
        assert atoms == EVENT_ATOMS
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_02_unconstrained_model_counts():
    fresh_caches()
    started = time.perf_counter()
    solver = SolverGateway()
    for instance_id in ("event_planning", "tattoo_parlor"):
        instance = fixtures.puzzle(instance_id)
        base = fixtures.reference_blocks(instance_id).base
        verdict = solver.solve(base)
        assert verdict.flagless, instance_id
        assert verdict.model_count == instance.expected_model_count, instance_id
    assert fixtures.puzzle("event_planning").expected_model_count == 576
    assert fixtures.puzzle("tattoo_parlor").expected_model_count == 13824
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_03_oracle_and_backend_equivalence():
    fresh_caches()
    started = time.perf_counter()
    programs = fixtures.crosscheck_programs()
    assert len(programs) >= 20

    internal = SolverGateway()
    external = SolverGateway(backend="external", solver_cmd=REFSOLVER_CMD)
    for name, text in programs:
        result = parse_program(text)
        assert not result.diagnostics, name
        gp = ground_program(result.statements)
        models, exhausted = enumerate_models(gp, cap=100_000)
        assert exhausted, name
        assert set(models) == set(brute_force_models(gp)), name

        a = internal.solve(text)
        assert model_set(a) == set(models), name
        b = external.solve(text)
        assert model_set(a) == model_set(b), name
        assert flags_of(a) == flags_of(b), name
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_04_constraint_monotonicity():
    rng = random.Random(0)
    bases = [
        "item(a;b;c). {pick(X) : item(X)}.",
        "item(a;b;c). 1 {pick(X) : item(X)} 1.",
        "item(a;b;c). 1 {pick(X) : item(X)} 2. mark(X) :- pick(X).",
        "item(a;b;c). 0 {pick(X) : item(X)} 3. mark(X) :- pick(X).",
    ]
    constraints = [
        ":- pick(a).",
        ":- pick(b).",
        ":- pick(c).",
        ":- pick(a), pick(b).",
        ":- not pick(a), pick(c).",
        ":- pick(X), X == b.",
        ":- pick(X), pick(Y), (X, Y) != (a, a), X != c, Y != c.",
    ]

    def models_for(text):
        result = parse_program(text)
        assert not result.diagnostics, text
        models, exhausted = enumerate_models(ground_program(result.statements))
        assert exhausted
        return set(models)

    checked = 0
    for _ in range(100):
        base = rng.choice(bases)
        existing = rng.sample(constraints, rng.randint(0, 3))
        extra = rng.choice([c for c in constraints if c not in existing])
        program = base + " " + " ".join(existing)
        narrowed = program + " " + extra
        assert models_for(narrowed) <= models_for(program), (program, extra)
        checked += 1
    assert checked == 100


def _dummy_verdict(count):
    models = tuple(
        frozenset({GroundAtom("m", (i,))}) for i in range(count)
    )
    verdict = SolverVerdict(models=models, cap=count)
    assert verdict.flag is None and verdict.model_count == count
    return verdict


def test_criterion_05_reward_table():
    solver = SolverGateway()
    unique = solver.solve("item(a). 1 {pick(X) : item(X)} 1.")
    assert reward(unique).value == 1.0

    assert reward(_dummy_verdict(576)).value == 1 / 576

    unsat = solver.solve("item(a). 1 {pick(X) : item(X)} 1. :- pick(a).")
    assert reward(unsat).value == -1.0

    broken = solver.solve("p(a. ")
    assert reward(broken).value == -1.0

    capped = SolverGateway(cap=2).solve("item(a;b). {pick(X) : item(X)}.")
    assert reward(capped).value == -1.0

    assert choice_rule_reward(_dummy_verdict(576), 576).value == 1.0
    assert choice_rule_reward(_dummy_verdict(575), 576).value == 0.0


def test_criterion_06_levenshtein_heuristic():
    assert edit_distance("ison_x42", "ISON-X42") == 6
    assert edit_distance("ison_x42", "2016") == 8

    instance = fixtures.puzzle("observatory")
    gt_rows = sorted(instance.solution, key=lambda row: row[2])
    model_rows = [gt_rows[0], gt_rows[3], gt_rows[1], gt_rows[2]]
    report = levenshtein_match(gt_rows, model_rows)
    assert report.matched
    assert report.assignment_map == {1: 1, 2: 3, 3: 4, 4: 2}

    rng = random.Random(6)
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789_- ."

    def sample():
        return "".join(
            rng.choice(alphabet) for _ in range(rng.randint(0, 12))
        )

    for _ in range(1000):
        a, b, c = sample(), sample(), sample()
        d_ab = edit_distance(a, b)
        assert d_ab >= 0
        assert d_ab == edit_distance(b, a)
        assert (d_ab == 0) == (a == b)
        assert edit_distance(a, c) <= d_ab + edit_distance(b, c)


def test_criterion_07_pairing_law_and_hint_drop():
    instance = fixtures.puzzle("event_planning")
    generator = ScriptedGenerator(fixtures.scripted_path("datagen_splits"))
    sft, pref, stats = run_dfs(instance, generator, DfsConfig(), SolverGateway())

    splits = set()
    for row in stats["steps"]:
        splits.add((row["chosen"], row["rejected"]))
        # a retried hint reuses its (step, branch) key, so compare sums per key
        got = sum(
            1
            for r in pref
            if (r.step_index, r.branch_id) == (row["step"], row["branch"])
        )
        want = sum(
            min(r["chosen"], 2) * r["rejected"]
            for r in stats["steps"]
            if (r["step"], r["branch"]) == (row["step"], row["branch"])
        )
        assert got == want
    assert splits == {(0, 5), (1, 4), (2, 3), (3, 2), (4, 1), (5, 0)}

    dropped_hint = instance.hints[0]
    cue = f"Clue: {dropped_hint}"
    on_dropped_branch = [
        r for r in list(sft) + list(pref) if r.branch_id.split(".")[0] == "1"
    ]
    assert on_dropped_branch
    assert all(cue not in r.prompt for r in on_dropped_branch)
    # positive control: the same hint is present on the branch that kept it
    kept = [
        r
        for r in list(sft) + list(pref)
        if r.branch_id.split(".")[0] == "0" and r.step_index >= 2
    ]
    assert kept
    assert all(cue in r.prompt for r in kept)


def test_criterion_08_search_scenarios():
    started = time.perf_counter()
    instance = fixtures.puzzle("event_planning")
    ranked = SearchConfig(n=5)
    plain = SearchConfig(n=5, backtrack_limit=0, enable_regeneration=False)

    def replay(name, config):
        generator = ScriptedGenerator(fixtures.scripted_path(name))
        return run_search(instance, generator, config, SolverGateway())

    clean = replay("search_clean", ranked)
    assert [e["event"] for e in clean.trace] == ["step", "rank"] * 5 + ["final"]
    assert clean.trace[-1] == {
        "event": "final",
        "models": 1,
        "flagless": True,
        "backtracks": 0,
    }
    assert evaluate_accuracy([clean], [instance])["accuracy"] == 1.0

    regen = replay("search_regen", ranked)
    regen_events = [e for e in regen.trace if e["event"] == "regenerate"]
    assert len(regen_events) == 1
    assert regen_events[0] == {"event": "regenerate", "step": 2, "added": 10}
    assert not [e for e in regen.trace if e["event"] == "backtrack"]
    assert evaluate_accuracy([regen], [instance])["accuracy"] == 1.0

    backtrack = replay("search_backtrack", ranked)
    backtrack_events = [e for e in backtrack.trace if e["event"] == "backtrack"]
    assert len(backtrack_events) == 1
    assert backtrack_events[0]["to_step"] == 1
    assert backtrack_events[0]["selected"] == 1
    assert backtrack.trace[-1]["backtracks"] == 1
    assert evaluate_accuracy([backtrack], [instance])["accuracy"] == 1.0

    clean_plain = replay("search_clean", plain)
    assert clean_plain.trace == clean.trace
    assert evaluate_accuracy([clean_plain], [instance])["accuracy"] == 1.0
    for name in ("search_regen", "search_backtrack"):
        outcome = replay(name, plain)
        kinds = {e["event"] for e in outcome.trace}
        assert "regenerate" not in kinds and "backtrack" not in kinds
        assert "accept_exhausted" in kinds
        assert evaluate_accuracy([outcome], [instance])["accuracy"] == 0.0

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_09_artifact_determinism(tmp_path):
    dataset = tmp_path / "event_only.json"
    save_dataset([fixtures.puzzle("event_planning")], dataset)

    def run(command, fixture_name, out):
        code = cli.main(
            [
                command,
                "--dataset",
                str(dataset),
                "--out",
                str(out),
                "--generator-fixture",
                str(fixtures.scripted_path(fixture_name)),
            ]
        )
        assert code == 0

    artifacts = {
        "datagen": ("datagen_splits", ["sft.jsonl", "pref.jsonl", "stats.json"]),
        "search": ("search_clean", ["traces.jsonl", "metrics.json", "per_instance.csv"]),
    }
    for command, (fixture_name, files) in artifacts.items():
        first = tmp_path / f"{command}_1"
        second = tmp_path / f"{command}_2"
        run(command, fixture_name, first)
        run(command, fixture_name, second)
        for name in files:
            assert (first / name).read_bytes() == (second / name).read_bytes(), (
                command,
                name,
            )


def test_criterion_10_ranked_search_beats_single_sample():
    corpus = fixtures.puzzles()
    assert len(corpus) >= 6

    def evaluate(n):
        outcomes = []
        for instance in corpus:
            generator = ScriptedGenerator(fixtures.scripted_path("search_e2e"))
            outcomes.append(
                run_search(instance, generator, SearchConfig(n=n), SolverGateway())
            )
        return evaluate_accuracy(outcomes, corpus)

    ranked = evaluate(5)
    single = evaluate(1)
    assert ranked["accuracy"] == 1.0
    assert single["accuracy"] < ranked["accuracy"]
    weak = {
        row["instance_id"]
        for row in single["per_instance"]
        if not row["correct"]
    }
    assert weak == set(fixtures.E2E_WEAK_FIRST)
