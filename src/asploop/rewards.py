"""Reward for a solved candidate encoding.

value = recip - 1[flag], where recip is 1/M for a clean verdict with at
least one model and 0 otherwise, and the flag is the verdict's error, unsat
or cap-exceeded flag (at most one is set). The strict variant used at the
choice-rule step replaces 1/M with an exact count check against the expected
model count of the unconstrained grid.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gateway import SolverVerdict


@dataclass(frozen=True)
class RewardValue:
    recip_term: float
    flag: str | None

    @property
    def value(self) -> float:
        return self.recip_term - (self.flag is not None)


def reward(verdict: SolverVerdict) -> RewardValue:
    """1/M reward with a unit penalty for an error, unsat or cap overflow.
    The reciprocal contributes only when no flag is set and M >= 1."""
    if verdict.flagless and verdict.model_count >= 1:
        recip = 1.0 / verdict.model_count
    else:
        recip = 0.0
    return RewardValue(recip, verdict.flag)


def choice_rule_reward(verdict: SolverVerdict, expected_count: int) -> RewardValue:
    """Strict reward for the base (choice rule) step: full credit only when
    enumeration finished cleanly with exactly `expected_count` models. A
    flagless verdict implies the enumeration was exhausted, so the count is
    trustworthy."""
    if expected_count < 1:
        raise ValueError(f"expected_count must be >= 1, got {expected_count}")
    recip = 1.0 if (verdict.flagless and verdict.model_count == expected_count) else 0.0
    return RewardValue(recip, verdict.flag)


def is_negative(value: RewardValue) -> bool:
    """Strictly below zero; a 0.0 reward is not negative."""
    return value.value < 0
