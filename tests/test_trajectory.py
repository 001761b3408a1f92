from __future__ import annotations

import pytest

from asploop import fixtures
from asploop.asp import parse_program
from asploop.asp.parser import _parse_block
from asploop.generators import (
    GeneratorError,
    GeneratorTransportError,
    RawCompletion,
)
from asploop.trajectory import (
    CandidateEncoding,
    Step,
    Trajectory,
    TrajectoryStateError,
    build_base_prompt,
    build_hint_prompt,
    combine,
    default_preamble,
    extract_code,
    generate,
)


@pytest.fixture
def event():
    return fixtures.puzzle("event_planning")


def started(instance, first_text="p(a)."):
    trajectory = Trajectory(instance_ref=instance.id)
    step = Step(input_text=build_base_prompt(instance))
    step.candidates.append(CandidateEncoding(text=first_text, token_count=2))
    step.selected_index = 0
    trajectory.steps.append(step)
    return trajectory


def test_base_prompt_layout(event):
    prompt = build_base_prompt(event)
    assert prompt.startswith(default_preamble().splitlines()[0])
    assert "Puzzle:\n" + event.description in prompt
    assert "Categories:" in prompt
    for category in event.categories:
        line = f"- {category.name}: " + ", ".join(category.members)
        assert line in prompt
    assert prompt.endswith("Output only ASP code.")


def test_base_prompt_custom_preamble(event):
    prompt = build_base_prompt(event, preamble="Short preamble.")
    assert prompt.startswith("Short preamble.")
    assert "Puzzle:" in prompt


def test_base_prompt_shots_appear_between_preamble_and_puzzle(event):
    shots = [("toy puzzle", "toy(a).")]
    prompt = build_base_prompt(event, shots=shots)
    assert "toy puzzle" in prompt
    assert "toy(a)." in prompt
    assert prompt.index("toy(a).") < prompt.index("Puzzle:")


def test_more_than_two_shots_is_rejected(event):
    shots = [(f"puzzle {i}", f"code{i}(a).") for i in range(3)]
    with pytest.raises(ValueError):
        build_base_prompt(event, shots=shots)
    two = build_base_prompt(event, shots=shots[:2])
    assert "code0(a)." in two and "code1(a)." in two


def test_hint_prompt_embeds_history_and_ends_with_cue(event):
    trajectory = started(event, first_text="event(wedding).")
    hint = event.hints[0]
    prompt = build_hint_prompt(trajectory, hint)
    assert "event(wedding)." in prompt
    assert prompt.endswith(f"Clue: {hint}\nASP:")


def test_hint_prompt_includes_every_selected_block(event):
    trajectory = started(event, first_text="event(wedding).")
    step2 = Step(input_text=build_hint_prompt(trajectory, "first clue"))
    step2.candidates.append(
        CandidateEncoding(text=":- assignment(wedding, susan, _).", token_count=5)
    )
    step2.selected_index = 0
    trajectory.steps.append(step2)
    prompt = build_hint_prompt(trajectory, "second clue")
    assert "event(wedding)." in prompt
    assert ":- assignment(wedding, susan, _)." in prompt
    assert "Clue: first clue" in prompt
    assert prompt.endswith("Clue: second clue\nASP:")


def test_combine_joins_selected_blocks(event):
    trajectory = started(event, first_text="p(a).")
    step2 = Step(input_text="x")
    step2.candidates.append(CandidateEncoding(text="q(b).", token_count=2))
    step2.selected_index = 0
    trajectory.steps.append(step2)
    assert combine(trajectory) == "p(a).\n\nq(b)."


def test_combine_with_extra_candidate(event):
    trajectory = started(event, first_text="p(a).")
    extra = CandidateEncoding(text="r(c).", token_count=2)
    assert combine(trajectory, extra) == "p(a).\n\nr(c)."


def test_combine_requires_selections():
    trajectory = Trajectory(instance_ref="x")
    trajectory.steps.append(Step(input_text="prompt"))
    with pytest.raises(TrajectoryStateError):
        combine(trajectory)


def test_hint_prompt_requires_selections():
    trajectory = Trajectory(instance_ref="x")
    trajectory.steps.append(Step(input_text="prompt"))
    with pytest.raises(TrajectoryStateError):
        build_hint_prompt(trajectory, "clue")


def test_extract_code_prefers_fenced_block():
    raw = "Here you go:\n```asp\np(a).\nq(b).\n```\nHope that helps!"
    assert extract_code(raw) == "p(a).\nq(b)."


def test_extract_code_plain_fence():
    assert extract_code("```\np(a).\n```") == "p(a)."


def test_extract_code_keeps_clean_completions():
    text = "p(a).\nq(X) :- p(X)."
    assert extract_code(text) == text


def test_extract_code_filters_prose_lines():
    raw = "The encoding is:\np(a).\nalso this line is prose\nq(b)."
    assert extract_code(raw) == "p(a).\nq(b)."


def test_extract_code_leaves_the_block_cache_as_it_was():
    # a long prose completion is filtered line by line outside the cache,
    # so the blocks a program parsed before stay cached
    program = fixtures.reference_blocks("event_planning").full_program
    _parse_block.cache_clear()
    parse_program(program)
    before = _parse_block.cache_info()
    prose = "\n".join(f"Line {i} of the answer explains nothing" for i in range(300))
    assert extract_code(prose) == prose
    assert extract_code(f"{prose}\np(a).") == "p(a)."
    parse_program(program)
    after = _parse_block.cache_info()
    assert (after.misses, after.currsize) == (before.misses + 2, before.currsize + 2)
    assert after.hits - before.hits == program.count("\n\n") + 1


def test_extract_code_falls_back_to_verbatim():
    raw = "total nonsense with no dots"
    assert extract_code(raw) == raw


class FlakyGenerator:
    name = "flaky"

    def __init__(self, failures, n_texts=("p(a).",)):
        self.failures = failures
        self.calls = 0
        self.n_texts = n_texts

    def complete(self, prompt, n, temperature):
        self.calls += 1
        if self.calls <= self.failures:
            raise GeneratorTransportError("connection dropped")
        return [RawCompletion(self.n_texts[i % len(self.n_texts)], 3) for i in range(n)]


def test_generate_retries_transport_errors():
    generator = FlakyGenerator(failures=2)
    candidates = generate(generator, "prompt", n=2, temperature=0.5)
    assert generator.calls == 3
    assert [c.text for c in candidates] == ["p(a).", "p(a)."]


def test_generate_gives_up_after_three_attempts():
    generator = FlakyGenerator(failures=3)
    with pytest.raises(GeneratorTransportError):
        generate(generator, "prompt", n=1, temperature=0.5)
    assert generator.calls == 3


def test_generate_rejects_short_batches():
    class Shorting:
        name = "shorting"

        def complete(self, prompt, n, temperature):
            return [RawCompletion("p(a).", 1)]

    with pytest.raises(GeneratorError):
        generate(Shorting(), "prompt", n=3, temperature=0.5)


def test_generate_extracts_each_completion():
    class Fenced:
        name = "fenced"

        def complete(self, prompt, n, temperature):
            return [RawCompletion("```\nq(b).\n```", 7)] * n

    candidates = generate(Fenced(), "prompt", n=2, temperature=0.0)
    assert all(c.text == "q(b)." for c in candidates)
    assert all(c.token_count == 7 for c in candidates)


def test_generate_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        generate(FlakyGenerator(0), "prompt", n=0, temperature=0.5)
