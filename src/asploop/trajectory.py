"""Prompt assembly and trajectory state for stepwise encoding generation.

A trajectory records, per puzzle, the alternating sequence of inputs and
selected encoding blocks: step 0 is the base prompt (description plus the
entity catalog) whose selection is the constants-and-choice-rule block, and
each later step translates one clue. Hints whose candidates all failed are
dropped and leave no trace in later prompts.
"""

from __future__ import annotations

import re
from importlib import resources

from .asp import parse_program
from .asp.parser import _parse_whole
from .gateway import SolverVerdict
from .generators import Generator, GeneratorError, GeneratorTransportError, RawCompletion
from .puzzles import PuzzleInstance
from .rewards import RewardValue
from .value_types import FRESH, value_type

TRANSPORT_RETRIES = 3


class TrajectoryStateError(RuntimeError):
    pass


@value_type
class CandidateEncoding:
    def __init__(self, text: str, verdict: SolverVerdict | None = None, reward: RewardValue | None = None,
                 label: str | None = None, token_count: int = 0):
        self.text = text
        self.verdict = verdict
        self.reward = reward
        self.label = label
        self.token_count = token_count
        if self.label is not None and self.verdict is None:
            raise ValueError("a labeled candidate must carry its verdict")
        if self.reward is not None and self.verdict is None:
            raise ValueError("a scored candidate must carry its verdict")
        if self.label not in (None, "chosen", "rejected"):
            raise ValueError(f"unknown label {self.label!r}")


@value_type
class Step:
    def __init__(self, input_text: str, candidates: list[CandidateEncoding] = FRESH,
                 selected_index: int | None = None):
        self.input_text = input_text
        self.candidates = [] if candidates is FRESH else candidates
        self.selected_index = selected_index

    @property
    def selected(self) -> CandidateEncoding:
        if self.selected_index is None:
            raise TrajectoryStateError("step has no selected candidate")
        return self.candidates[self.selected_index]


@value_type
class Trajectory:
    def __init__(self, instance_ref: str, steps: list[Step] = FRESH):
        self.instance_ref = instance_ref
        self.steps = [] if steps is FRESH else steps


def default_preamble() -> str:
    return (
        resources.files("asploop")
        .joinpath("templates/preamble.txt")
        .read_text(encoding="utf-8")
    )


def _render_catalog(instance: PuzzleInstance) -> str:
    lines = ["Categories:"]
    for category in instance.categories:
        lines.append(f"- {category.name}: " + ", ".join(str(m) for m in category.members))
    return "\n".join(lines)


def build_base_prompt(
    instance: PuzzleInstance,
    shots: list[tuple[str, str]] | tuple = (),
    preamble: str | None = None,
) -> str:
    """Assemble the step-0 prompt: preamble, up to two exemplars, the puzzle
    description, the entity catalog, and the base-encoding request.
    """
    if len(shots) > 2:
        raise ValueError("at most two exemplars are supported")
    parts = [preamble if preamble is not None else default_preamble()]
    for shown_puzzle, shown_encoding in shots:
        parts.append(f"Example puzzle:\n{shown_puzzle}\nExample encoding:\n{shown_encoding}")
    parts.append(f"Puzzle:\n{instance.description}")
    parts.append(_render_catalog(instance))
    parts.append(
        "Write the ASP facts for these entities and one choice rule that "
        "assigns the categories to each other, including the rule that keeps "
        "all assignments disjoint. Output only ASP code."
    )
    return "\n\n".join(parts)


def build_hint_prompt(trajectory: Trajectory, hint: str) -> str:
    """Render the full history of inputs and selected encodings, then the new
    clue and the request for its translation.
    """
    if not trajectory.steps:
        raise TrajectoryStateError("trajectory has no base step")
    parts = []
    for index, step in enumerate(trajectory.steps):
        if step.selected_index is None:
            raise TrajectoryStateError(f"step {index} has no selected candidate")
        if index == 0:
            parts.append(step.input_text)
        else:
            parts.append(f"Clue: {step.input_text}\nASP:")
        parts.append(step.selected.text)
    parts.append(f"Clue: {hint}\nASP:")
    return "\n\n".join(parts)


def combine(trajectory: Trajectory, extra: CandidateEncoding | None = None) -> str:
    """Concatenate the selected encoding blocks in step order, plus `extra`
    if given. No deduplication and no reordering; the solver does not care.
    """
    if not trajectory.steps or trajectory.steps[0].selected_index is None:
        raise TrajectoryStateError("base step has no selected encoding")
    blocks = [step.selected.text for step in trajectory.steps if step.selected_index is not None]
    if extra is not None:
        blocks.append(extra.text)
    return "\n\n".join(blocks)


_FENCE = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)


def extract_code(raw_completion: str) -> str:
    """Pull the ASP block out of a model completion.

    First fenced code block wins; failing that, a completion that already
    parses is returned unchanged, then line filtering keeps statement lines
    out of surrounding prose. Total: anything else comes back verbatim and
    the solver reports the problem. Lines are parsed outside the block
    cache, which a long prose completion would otherwise flush.
    """
    match = _FENCE.search(raw_completion)
    if match:
        return match.group(1).strip("\n")
    result = parse_program(raw_completion)
    if result.ok and result.statements:
        return raw_completion
    kept = []
    for line in raw_completion.splitlines():
        if not line.strip():
            continue
        line_result = _parse_whole(line)
        if line_result.ok and line_result.statements:
            kept.append(line)
    if kept:
        return "\n".join(kept)
    return raw_completion


def generate(
    generator: Generator, prompt: str, n: int, temperature: float
) -> list[CandidateEncoding]:
    """Sample n completions and post-process each into a candidate block."""
    if n < 1:
        raise ValueError("n must be positive")
    completions: list[RawCompletion] | None = None
    for attempt in range(TRANSPORT_RETRIES):
        try:
            completions = generator.complete(prompt, n, temperature)
            break
        except GeneratorTransportError:
            if attempt == TRANSPORT_RETRIES - 1:
                raise
    if len(completions) < n:
        raise GeneratorError(
            f"{generator.name} backend returned {len(completions)} completions, {n} requested"
        )
    return [
        CandidateEncoding(text=extract_code(c.text), token_count=c.token_count)
        for c in completions
    ]
