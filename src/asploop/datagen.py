"""Depth-first training-data generation.

Per puzzle: sample candidate encodings step by step, let the solver label
each one chosen or rejected, emit SFT records for chosen candidates and
chosen x rejected preference pairs, then branch the search on up to two
chosen candidates. A hint whose candidates all fail is dropped; the walk
continues with the next hint using the same partial encoding, and the
dropped hint never reappears in a prompt.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
from pathlib import Path

from .asp import parse_program
from .gateway import DEFAULT_CAP, SolverGateway
from .generators import Generator, GeneratorError
from .matching import GroundTruth, match_solution
from .puzzles import PuzzleInstance
from .rewards import choice_rule_reward
from .trajectory import (
    CandidateEncoding,
    Step,
    Trajectory,
    build_base_prompt,
    build_hint_prompt,
    combine,
    generate,
)
from .value_types import set_field, value_type


def _warn(message: str, *args) -> None:
    import logging  # loaded only when a run aborts

    logging.getLogger(__name__).warning(message, *args)


@value_type(frozen=True)
class SftRecord:
    def __init__(self, prompt: str, completion: str, instance_id: str, step_index: int, branch_id: str):
        set_field(self, "prompt", prompt)
        set_field(self, "completion", completion)
        set_field(self, "instance_id", instance_id)
        set_field(self, "step_index", step_index)
        set_field(self, "branch_id", branch_id)


@value_type(frozen=True)
class PreferenceRecord:
    def __init__(self, prompt: str, chosen: str, rejected: str, instance_id: str, step_index: int,
                 branch_id: str):
        set_field(self, "prompt", prompt)
        set_field(self, "chosen", chosen)
        set_field(self, "rejected", rejected)
        set_field(self, "instance_id", instance_id)
        set_field(self, "step_index", step_index)
        set_field(self, "branch_id", branch_id)
        if self.chosen == self.rejected:
            raise ValueError("chosen and rejected texts must differ")


@value_type
class DfsConfig:
    def __init__(self, n_samples: int = 5, temperature: float = 0.8, max_chosen_branch: int = 2,
                 cap: int | None = None, shots: tuple = (), preamble: str | None = None):
        self.n_samples = n_samples
        self.temperature = temperature
        self.max_chosen_branch = max_chosen_branch
        self.cap = cap
        self.shots = shots
        self.preamble = preamble
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        if self.max_chosen_branch < 0:
            raise ValueError("max_chosen_branch must be non-negative")
        if self.cap is not None and self.cap < 0:
            raise ValueError("cap must be non-negative")


def classification_cap(instance: PuzzleInstance, cap: int | None) -> int:
    """Solving cap for labeling: headroom of 4x the expected model count so
    blowups surface as cap_exceeded quickly, never above the gateway default.
    """
    if cap is not None:
        return cap
    return min(4 * instance.expected_model_count, DEFAULT_CAP)


def target_predicate_for(base_text: str) -> str | None:
    """The predicate generated by the base block's first choice rule; the
    answer matcher falls back to arity inference when there is none.
    """
    result = parse_program(base_text)
    for statement in result.statements:
        if statement.kind == "choice-rule" and statement.elements:
            return statement.elements[0].atom.pred
    return None


def _matches_ground_truth(verdict, instance, predicate, truth) -> bool:
    """Whether some model matches, each distinct model key once per `truth`."""
    truth = truth or GroundTruth(instance)
    for i, key in enumerate(truth.model_keys(verdict.models, predicate)):
        matched = truth.members.get(key)
        if matched is None:
            try:  # a wrong arity does not match
                matched = match_solution(verdict.models[i], instance, predicate, truth).matched
            except ValueError:
                matched = False
            truth.members[key] = matched
        if matched:
            return True
    return False


def classify(
    candidate: CandidateEncoding,
    trajectory: Trajectory,
    instance: PuzzleInstance,
    cap: int,
    gateway: SolverGateway,
    target_predicate: str | None = None,
    truth: GroundTruth | None = None,
) -> str:
    """Label one hint-step candidate: chosen iff the partial program solves
    without flags and the ground truth is still among its models. `truth`
    is the instance's `GroundTruth`, shared across one run's candidates;
    without it, one is built for this call."""
    verdict = candidate.verdict = gateway.solve(combine(trajectory, candidate), cap=cap)
    matched = verdict.flagless and _matches_ground_truth(
        verdict, instance, target_predicate, truth
    )
    candidate.label = "chosen" if matched else "rejected"
    return candidate.label


def classify_base(
    candidate: CandidateEncoding,
    instance: PuzzleInstance,
    cap: int,
    gateway: SolverGateway,
) -> str:
    """Label a step-0 candidate. Membership of the ground truth is too weak
    for the unconstrained base, so the criterion is search's step-0 reward:
    full credit only for the exact expected model count (n!)^(m-1).
    """
    verdict = candidate.verdict = gateway.solve(candidate.text, cap=cap)
    full = choice_rule_reward(verdict, instance.expected_model_count).recip_term == 1.0
    candidate.label = "chosen" if full else "rejected"
    return candidate.label


def _emit(
    records_sft: list,
    records_pref: list,
    prompt: str,
    chosen: list[CandidateEncoding],
    rejected: list[CandidateEncoding],
    instance_id: str,
    step_index: int,
    branch_id: str,
    max_chosen_branch: int,
) -> None:
    for candidate in chosen:
        records_sft.append(
            SftRecord(prompt, candidate.text, instance_id, step_index, branch_id)
        )
    if chosen and rejected:
        for winner in chosen[:max_chosen_branch]:
            for loser in rejected:
                if winner.text == loser.text:
                    continue
                records_pref.append(
                    PreferenceRecord(
                        prompt, winner.text, loser.text, instance_id, step_index, branch_id
                    )
                )


def run_dfs(
    instance: PuzzleInstance,
    generator: Generator,
    config: DfsConfig | None = None,
    gateway: SolverGateway | None = None,
) -> tuple[list[SftRecord], list[PreferenceRecord], dict]:
    """Generate SFT and preference records for one puzzle.

    Returns (sft_records, pref_records, stats). Stats carries one row per
    visited step with its chosen/rejected counts plus means and population
    standard deviations, and an abort reason when the instance produced no
    usable base encoding or the generator failed.
    """
    config = config or DfsConfig()
    gateway = gateway or SolverGateway()
    cap = classification_cap(instance, config.cap)
    sft: list[SftRecord] = []
    pref: list[PreferenceRecord] = []
    step_rows: list[dict] = []

    def stats(aborted_reason: str | None = None) -> dict:
        chosen_counts = [row["chosen"] for row in step_rows]
        rejected_counts = [row["rejected"] for row in step_rows]
        return {
            "instance_id": instance.id,
            "steps": step_rows,
            "chosen_mean": statistics.mean(chosen_counts) if chosen_counts else 0.0,
            "chosen_std": statistics.pstdev(chosen_counts) if chosen_counts else 0.0,
            "rejected_mean": statistics.mean(rejected_counts) if rejected_counts else 0.0,
            "rejected_std": statistics.pstdev(rejected_counts) if rejected_counts else 0.0,
            "sft_records": len(sft),
            "pref_records": len(pref),
            "aborted_reason": aborted_reason,
        }

    def record(prompt: str, candidates: list[CandidateEncoding], step_index: int,
               branch_id: str, hint_pos: int | None) -> list[CandidateEncoding]:
        """Split a labeled pool, add its stats row and records; returns the
        chosen candidates."""
        chosen = [c for c in candidates if c.label == "chosen"]
        rejected = [c for c in candidates if c.label == "rejected"]
        step_rows.append(
            {"step": step_index, "branch": branch_id, "hint": hint_pos,
             "chosen": len(chosen), "rejected": len(rejected)}
        )
        _emit(sft, pref, prompt, chosen, rejected, instance.id, step_index, branch_id,
              config.max_chosen_branch)
        return chosen

    def branch(trajectory: Trajectory, input_text: str, candidates: list[CandidateEncoding],
               chosen: list[CandidateEncoding], step_index: int, branch_id: str,
               next_hint: int) -> None:
        """Continue the walk once per branching chosen candidate, each on its
        own copy of the trajectory with that candidate selected."""
        for branch_index, candidate in enumerate(chosen[: config.max_chosen_branch]):
            selected_index = next(i for i, c in enumerate(candidates) if c is candidate)
            child = Trajectory(
                instance_ref=instance.id,
                steps=[*trajectory.steps, Step(input_text, candidates, selected_index)],
            )
            child_branch = f"{branch_id}.{branch_index}" if branch_id else str(branch_index)
            walk(child, next_hint, step_index + 1, child_branch)

    # a branch's base block never changes, so parse each one once
    predicate_of = functools.lru_cache(maxsize=None)(target_predicate_for)
    # every candidate's models are matched against this one ground truth
    truth = GroundTruth(instance)

    def walk(trajectory: Trajectory, hint_pos: int, step_index: int, branch_id: str):
        if hint_pos >= len(instance.hints):
            return
        hint = instance.hints[hint_pos]
        prompt = build_hint_prompt(trajectory, hint)
        candidates = generate(generator, prompt, config.n_samples, config.temperature)
        predicate = predicate_of(trajectory.steps[0].selected.text)
        for candidate in candidates:
            classify(candidate, trajectory, instance, cap, gateway, predicate, truth)
        chosen = record(prompt, candidates, step_index, branch_id, hint_pos)
        if chosen:
            branch(trajectory, hint, candidates, chosen, step_index, branch_id, hint_pos + 1)
        else:
            walk(trajectory, hint_pos + 1, step_index, branch_id)

    base_prompt = build_base_prompt(instance, config.shots, config.preamble)
    try:
        candidates = generate(generator, base_prompt, config.n_samples, config.temperature)
        for candidate in candidates:
            classify_base(candidate, instance, cap, gateway)
        chosen = record(base_prompt, candidates, 0, "", None)
        if not chosen:
            _warn("datagen aborted for %s: no usable base encoding", instance.id)
            return sft, pref, stats(aborted_reason="no usable base encoding")
        branch(Trajectory(instance_ref=instance.id), base_prompt, candidates, chosen, 0, "", 0)
    except GeneratorError as exc:
        _warn("datagen aborted for %s: %s", instance.id, exc)
        # the records so far are discarded, and the stats count what is returned
        sft.clear()
        pref.clear()
        return sft, pref, stats(aborted_reason=str(exc))
    return sft, pref, stats()


# per export format: the record type and the fields written before "meta".
# Every format writes the _META keys, each read from its record attribute;
# a record's fields are its format's fields, then the _META attributes.
_FORMATS = {
    "sft-jsonl": (SftRecord, ("prompt", "completion")),
    "pref-jsonl": (PreferenceRecord, ("prompt", "chosen", "rejected")),
}
_META = (("instance_id", "instance_id"), ("step", "step_index"), ("branch", "branch_id"))


def _format(format: str):
    if format not in _FORMATS:
        raise ValueError(f"unknown export format {format!r}")
    return _FORMATS[format]


def export(records, path: str | Path, format: str) -> int:
    """Write records as JSONL with a stable field order. On I/O failure the
    partial file is removed before the error propagates.
    """
    _, names = _format(format)
    path = Path(path)
    written = 0
    try:
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                row = {name: getattr(record, name) for name in names}
                row["meta"] = {key: getattr(record, attr) for key, attr in _META}
                handle.write(json.dumps(row, ensure_ascii=False) + "\n")
                written += 1
    except OSError:
        try:
            os.unlink(path)
        except OSError:
            pass
        raise
    return written


def load_records(path: str | Path, format: str):
    """Inverse of export, for round-trip checks and downstream tooling."""
    record_type, names = _format(format)
    out = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            row = json.loads(line)
            meta = row["meta"]
            out.append(
                record_type(*(row[name] for name in names), *(meta[key] for key, _ in _META))
            )
    return out
