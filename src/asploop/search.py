"""Greedy test-time search: best-of-N per step with two recovery moves.

Each step samples N candidate encodings, scores every candidate by solving
the partial program, and keeps the reward maximum. When a whole pool scores
negative the search first regenerates extra candidates into the same pool,
then backtracks: it revisits the earlier hint step whose selected candidate
had the highest reward and still has an untried alternative, switches that
selection, and rebuilds everything after it. Backtracking is budgeted;
past the budget the search accepts the least-bad candidate and moves on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .datagen import classification_cap
from .gateway import SolverGateway, SolverVerdict
from .generators import Generator, GeneratorError
from .matching import match_solution
from .puzzles import PuzzleInstance
from .rewards import choice_rule_reward, is_negative, reward
from .trajectory import (
    CandidateEncoding,
    Step,
    Trajectory,
    build_base_prompt,
    build_hint_prompt,
    combine,
    generate,
)


@dataclass
class SearchConfig:
    n: int = 5
    temperature: float = 1.0
    backtrack_limit: int = 5
    regen_multiplier: int = 2
    enable_regeneration: bool = True
    cap: int | None = None
    shots: tuple = ()
    preamble: str | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.regen_multiplier < 1:
            raise ValueError("regen_multiplier must be at least 1")
        if self.backtrack_limit < 0:
            raise ValueError("backtrack_limit must be non-negative")


@dataclass
class SearchOutcome:
    final_program: str
    final_verdict: SolverVerdict
    trace: list[dict] = field(default_factory=list)
    total_output_tokens: int = 0


class SearchError(RuntimeError):
    """Hard generator or gateway failure; carries the trace gathered so far."""

    def __init__(self, message: str, trace: list[dict]):
        super().__init__(message)
        self.trace = trace


def _ranking(candidates: list[CandidateEncoding]) -> list[int]:
    """Candidate indices from the highest reward down, ties to the lowest
    index; the first is the step's selection."""
    return sorted(range(len(candidates)), key=lambda i: (-candidates[i].reward.value, i))


def _next_best_untried(step: Step, tried: set[int]) -> int | None:
    """Highest-reward candidate not yet selected at this step. A negative
    candidate is not an alternative worth revisiting, so none is returned
    once only flagged or unsatisfiable candidates remain.
    """
    for index in _ranking(step.candidates):
        if index not in tried and not is_negative(step.candidates[index].reward):
            return index
    return None


def _all_negative(candidates: list[CandidateEncoding]) -> bool:
    return all(is_negative(c.reward) for c in candidates)


def run_search(
    instance: PuzzleInstance,
    generator: Generator,
    config: SearchConfig | None = None,
    gateway: SolverGateway | None = None,
) -> SearchOutcome:
    """Search one puzzle and return the final program with its verdict.

    Step k >= 1 translates hint k-1; its prompt carries each earlier input
    and selected block once. Examples of the trace shapes this produces:
    - every step has a flag-free candidate: only step/rank events, no
      regenerate or backtrack entries, final model count 1;
    - one step's first pool is all-negative but the regeneration batch
      recovers: exactly one regenerate event;
    - only an alternate earlier selection admits a valid continuation:
      exactly one backtrack event naming that step, later steps rebuilt.
    """
    config = config or SearchConfig()
    gateway = gateway or SolverGateway()
    cap = classification_cap(instance, config.cap)
    trace: list[dict] = []
    trajectory = Trajectory(instance_ref=instance.id)
    tokens = 0
    backtracks = 0
    tried: dict[int, set[int]] = {}
    regenerated: set[int] = set()

    def sample(prompt: str, n: int) -> list[CandidateEncoding]:
        """Generate n candidates for the next step and score each against
        the trajectory before it; step 0 uses the strict expected-count
        reward."""
        nonlocal tokens
        candidates = generate(generator, prompt, n, config.temperature)
        for candidate in candidates:
            if trajectory.steps:
                candidate.verdict = gateway.solve(combine(trajectory, candidate), cap=cap)
                candidate.reward = reward(candidate.verdict)
            else:
                candidate.verdict = gateway.solve(candidate.text, cap=cap)
                candidate.reward = choice_rule_reward(
                    candidate.verdict, instance.expected_model_count
                )
            tokens += candidate.token_count
        return candidates

    try:
        while len(trajectory.steps) <= len(instance.hints):
            step_index = len(trajectory.steps)
            if step_index == 0:
                input_text = prompt = build_base_prompt(instance, config.shots, config.preamble)
            else:
                input_text = instance.hints[step_index - 1]
                prompt = build_hint_prompt(trajectory, input_text)
            candidates = sample(prompt, config.n)
            trace.append({"event": "step", "step": step_index, "pool": len(candidates)})
            if (_all_negative(candidates) and config.enable_regeneration
                    and step_index not in regenerated):
                regenerated.add(step_index)
                extra_n = config.regen_multiplier * config.n
                candidates += sample(prompt, extra_n)
                trace.append({"event": "regenerate", "step": step_index, "added": extra_n})
            step = Step(input_text, candidates, selected_index=_ranking(candidates)[0])
            trajectory.steps.append(step)

            if _all_negative(candidates):
                eligible = [
                    i
                    for i in range(1, step_index)
                    if backtracks < config.backtrack_limit
                    and len(trajectory.steps[i].candidates) >= 2
                    and _next_best_untried(trajectory.steps[i], tried[i]) is not None
                ]
                if eligible:
                    target = max(
                        eligible, key=lambda i: (trajectory.steps[i].selected.reward.value, i)
                    )
                    backtracks += 1
                    switch_to = _next_best_untried(trajectory.steps[target], tried[target])
                    trajectory.steps[target].selected_index = switch_to
                    tried[target].add(switch_to)
                    trace.append(
                        {
                            "event": "backtrack",
                            "count": backtracks,
                            "to_step": target,
                            "selected": switch_to,
                        }
                    )
                    for removed in range(target + 1, step_index + 1):
                        tried.pop(removed, None)
                        regenerated.discard(removed)
                    del trajectory.steps[target + 1 :]
                    continue
                trace.append(
                    {
                        "event": "accept_exhausted",
                        "step": step_index,
                        "selected": step.selected_index,
                    }
                )

            if len(candidates) >= 2:
                trace.append(
                    {
                        "event": "rank",
                        "step": step_index,
                        "rewards": [c.reward.value for c in candidates],
                        "selected": step.selected_index,
                    }
                )
            tried[step_index] = {step.selected_index}
    except GeneratorError as exc:
        raise SearchError(str(exc), trace) from exc

    final_program = combine(trajectory)
    final_verdict = gateway.solve(final_program, cap=cap)
    trace.append(
        {
            "event": "final",
            "models": final_verdict.model_count,
            "flagless": final_verdict.flagless,
            "backtracks": backtracks,
        }
    )
    return SearchOutcome(
        final_program=final_program,
        final_verdict=final_verdict,
        trace=trace,
        total_output_tokens=tokens,
    )


def evaluate_accuracy(
    outcomes: list[SearchOutcome], instances: list[PuzzleInstance]
) -> dict:
    """Exact-match accuracy plus failure buckets and per-split breakdowns.

    An outcome is correct only when its final program has exactly one model
    and that model matches the ground truth; several models are wrong even
    if one of them matches.
    """
    if len(outcomes) != len(instances):
        raise ValueError(
            f"{len(outcomes)} outcomes paired with {len(instances)} instances"
        )
    buckets = {
        "error": 0,
        "unsat": 0,
        "multiple-models": 0,
        "wrong-unique-model": 0,
        "cap-exceeded": 0,
    }
    by_size: dict[str, dict] = {}
    by_difficulty: dict[str, dict] = {}
    correct = 0
    per_instance = []
    for outcome, instance in zip(outcomes, instances):
        verdict = outcome.final_verdict
        bucket = verdict.flag
        if bucket is None and verdict.model_count > 1:
            bucket = "multiple-models"
        elif bucket is None and not _final_match(verdict, instance):
            bucket = "wrong-unique-model"
        ok = bucket is None
        if ok:
            correct += 1
        else:
            buckets[bucket] += 1
        per_instance.append(
            {
                "instance_id": instance.id,
                "size": instance.size,
                "correct": ok,
                "bucket": bucket,
                "models": verdict.model_count,
                "tokens": outcome.total_output_tokens,
            }
        )
        _bump(by_size, instance.size, ok)
        difficulty = instance.meta.get("difficulty") if instance.meta else None
        if difficulty is not None:
            _bump(by_difficulty, str(difficulty), ok)
    total = len(outcomes)
    return {
        "total": total,
        "correct": correct,
        "accuracy": correct / total if total else 0.0,
        "buckets": buckets,
        "by_size": by_size,
        "by_difficulty": by_difficulty,
        "mean_output_tokens": (
            sum(o.total_output_tokens for o in outcomes) / total if total else 0.0
        ),
        "per_instance": per_instance,
    }


def _final_match(verdict: SolverVerdict, instance: PuzzleInstance) -> bool:
    try:
        return match_solution(verdict.models[0], instance).matched
    except ValueError:
        return False


def _bump(table: dict, key: str, ok: bool) -> None:
    row = table.setdefault(key, {"total": 0, "correct": 0, "accuracy": 0.0})
    row["total"] += 1
    row["correct"] += int(ok)
    row["accuracy"] = row["correct"] / row["total"]
