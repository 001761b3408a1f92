from __future__ import annotations

import pytest

from asploop.gateway import SolverGateway
from asploop.rewards import choice_rule_reward, is_negative, reward

UNIQUE = "item(a). 1 {pick(X) : item(X)} 1."
FOUR = "item(a;b). {pick(X) : item(X)}."
UNSAT = "item(a). 1 {pick(X) : item(X)} 1. :- pick(a)."
BROKEN = "p(a. "
TRIPLE = "item(a;b;c). 1 {pick(X) : item(X)} 1."


@pytest.fixture(scope="module")
def solver():
    return SolverGateway()


def test_unique_model_scores_one(solver):
    value = reward(solver.solve(UNIQUE))
    assert value.value == 1.0
    assert value.recip_term == 1.0
    assert not is_negative(value)


def test_multiple_models_score_reciprocal(solver):
    value = reward(solver.solve(FOUR))
    assert value.value == 0.25
    assert value.recip_term == 0.25
    assert not is_negative(value)


def test_unsat_scores_minus_one(solver):
    value = reward(solver.solve(UNSAT))
    assert value.value == -1.0
    assert value.flag == "unsat"
    assert is_negative(value)


def test_error_scores_minus_one(solver):
    value = reward(solver.solve(BROKEN))
    assert value.value == -1.0
    assert value.flag == "error"
    assert is_negative(value)


def test_cap_exceeded_scores_minus_one():
    verdict = SolverGateway(cap=2).solve(FOUR)
    value = reward(verdict)
    assert value.value == -1.0
    assert value.flag == "cap-exceeded"
    assert is_negative(value)


def test_reward_is_monotone_in_model_count(solver):
    counts_and_rewards = []
    for n in (1, 2, 3):
        items = ";".join("abc"[:n])
        text = f"item({items}). 1 {{pick(X) : item(X)}} 1."
        verdict = solver.solve(text)
        counts_and_rewards.append((verdict.model_count, reward(verdict).value))
    assert counts_and_rewards == [(1, 1.0), (2, 0.5), (3, pytest.approx(1 / 3))]


def test_choice_reward_requires_exact_count(solver):
    verdict = solver.solve(TRIPLE)
    assert choice_rule_reward(verdict, 3).value == 1.0
    assert choice_rule_reward(verdict, 4).value == 0.0
    assert choice_rule_reward(verdict, 2).value == 0.0


def test_choice_reward_zero_is_not_negative(solver):
    value = choice_rule_reward(solver.solve(TRIPLE), 4)
    assert not is_negative(value)


def test_choice_reward_propagates_failures(solver):
    assert choice_rule_reward(solver.solve(BROKEN), 3).value == -1.0
    assert choice_rule_reward(solver.solve(UNSAT), 1).value == -1.0
    capped = SolverGateway(cap=2).solve(FOUR)
    assert choice_rule_reward(capped, 4).value == -1.0


def test_indicators_are_mutually_exclusive(solver):
    for text in (UNIQUE, FOUR, UNSAT, BROKEN):
        verdict = solver.solve(text)
        assert reward(verdict).flag == verdict.flag
        flags = [verdict.has_error, verdict.is_unsat, verdict.cap_exceeded]
        assert sum(flags) <= 1
