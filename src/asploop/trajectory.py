"""Prompt assembly and trajectory state for stepwise encoding generation.

A trajectory records, per puzzle, the alternating sequence of inputs and
selected encoding blocks: step 0 is the base prompt (description plus the
entity catalog) whose selection is the constants-and-choice-rule block, and
each later step translates one clue. Hints whose candidates all failed are
dropped and leave no trace in later prompts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources

from .asp import parse_program
from .gateway import SolverVerdict
from .generators import Generator, GeneratorError, GeneratorTransportError, RawCompletion
from .puzzles import PuzzleInstance
from .rewards import RewardValue

TRANSPORT_RETRIES = 3


class TrajectoryStateError(RuntimeError):
    pass


@dataclass
class CandidateEncoding:
    text: str
    verdict: SolverVerdict | None = None
    reward: RewardValue | None = None
    label: str | None = None
    token_count: int = 0

    def __post_init__(self):
        if self.label is not None and self.verdict is None:
            raise ValueError("a labeled candidate must carry its verdict")
        if self.reward is not None and self.verdict is None:
            raise ValueError("a scored candidate must carry its verdict")
        if self.label not in (None, "chosen", "rejected"):
            raise ValueError(f"unknown label {self.label!r}")


@dataclass
class Step:
    input_text: str
    candidates: list[CandidateEncoding] = field(default_factory=list)
    selected_index: int | None = None

    @property
    def selected(self) -> CandidateEncoding:
        if self.selected_index is None:
            raise TrajectoryStateError("step has no selected candidate")
        return self.candidates[self.selected_index]


@dataclass
class Trajectory:
    instance_ref: str
    steps: list[Step] = field(default_factory=list)


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
    the solver reports the problem.
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
        line_result = parse_program(line)
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
