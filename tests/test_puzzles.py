from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from asploop.puzzles import (
    EntityCategory,
    PuzzleFormatError,
    PuzzleInstance,
    expected_model_count,
    instance_from_dict,
    instance_to_dict,
    load_dataset,
    save_dataset,
)


def make_instance(**overrides):
    fields = dict(
        id="tiny",
        description="a tiny puzzle",
        categories=(
            EntityCategory("letters", ("a", "b")),
            EntityCategory("numbers", ("1", "2")),
        ),
        hints=("a goes with 1.",),
        solution=(("a", "1"), ("b", "2")),
        meta={},
    )
    fields.update(overrides)
    return PuzzleInstance(**fields)


def test_size_and_counts():
    inst = make_instance()
    assert inst.m == 2
    assert inst.n == 2
    assert inst.size == "2x2"
    assert inst.expected_model_count == 2


def test_expected_model_count_values():
    assert expected_model_count(3, 4) == 576
    assert expected_model_count(4, 4) == 13824
    assert expected_model_count(2, 3) == 6
    assert expected_model_count(1, 5) == 1
    with pytest.raises(ValueError):
        expected_model_count(0, 3)


def test_validation_rejects_single_category():
    with pytest.raises(PuzzleFormatError):
        make_instance(
            categories=(EntityCategory("letters", ("a", "b")),),
            solution=(("a",), ("b",)),
        )


def test_validation_rejects_uneven_categories():
    with pytest.raises(PuzzleFormatError):
        make_instance(
            categories=(
                EntityCategory("letters", ("a", "b", "c")),
                EntityCategory("numbers", ("1", "2")),
            )
        )


def test_validation_rejects_duplicate_member():
    with pytest.raises(PuzzleFormatError):
        make_instance(
            categories=(
                EntityCategory("letters", ("a", "a")),
                EntityCategory("numbers", ("1", "2")),
            )
        )


def test_validation_rejects_foreign_solution_item():
    with pytest.raises(PuzzleFormatError):
        make_instance(solution=(("a", "1"), ("b", "9")))


def test_validation_rejects_repeated_column_entry():
    with pytest.raises(PuzzleFormatError):
        make_instance(solution=(("a", "1"), ("a", "2")))


def test_validation_requires_hints():
    with pytest.raises(PuzzleFormatError):
        make_instance(hints=())


def test_dict_round_trip_drops_empty_meta():
    inst = make_instance()
    data = instance_to_dict(inst)
    assert "meta" not in data
    assert instance_from_dict(data) == inst


def test_dict_round_trip_keeps_meta():
    inst = make_instance(meta={"difficulty": "easy"})
    data = instance_to_dict(inst)
    assert data["meta"] == {"difficulty": "easy"}
    back = instance_from_dict(data)
    assert back.meta == {"difficulty": "easy"}


def test_save_and_load_json(tmp_path):
    instances = [make_instance(), make_instance(id="tiny2")]
    path = tmp_path / "set.json"
    save_dataset(instances, path)
    assert load_dataset(path) == instances
    # the file is a plain JSON array
    assert isinstance(json.loads(path.read_text()), list)


def test_load_jsonl_lines(tmp_path):
    instances = [make_instance(), make_instance(id="tiny2")]
    path = tmp_path / "set.jsonl"
    lines = [json.dumps(instance_to_dict(i)) for i in instances]
    path.write_text("\n".join(lines) + "\n")
    assert load_dataset(path) == instances


def test_missing_field_is_reported():
    data = instance_to_dict(make_instance())
    del data["solution"]
    with pytest.raises(PuzzleFormatError, match="solution"):
        instance_from_dict(data)


def with_field(field, value):
    data = instance_to_dict(make_instance())
    data[field] = value
    return data


# an entry whose shape is wrong, and what the error says
MALFORMED_ENTRIES = {
    "entry-not-an-object": ([1], "entry must be an object"),
    "categories-a-number": (with_field("categories", 5), "categories must be an array"),
    "category-not-an-object": (with_field("categories", [["a", "b"], ["1", "2"]]),
                               "category must be an object"),
    "members-a-string": (with_field("categories", [{"name": "letters", "members": "ab"},
                                                   {"name": "numbers", "members": ["1", "2"]}]),
                         "members must be an array"),
    "members-not-strings": (with_field("categories", [{"name": "letters", "members": [["a"], ["b"]]},
                                                      {"name": "numbers", "members": ["1", "2"]}]),
                            "members of category 'letters' must be strings"),
    "name-not-a-string": (with_field("categories", [{"name": ["letters"], "members": ["a", "b"]},
                                                    {"name": "numbers", "members": ["1", "2"]}]),
                          "category name must be a non-empty string"),
    "hints-a-string": (with_field("hints", "abc"), "hints must be an array"),
    "hints-not-strings": (with_field("hints", [1]), "hints must be strings"),
    "solution-a-number": (with_field("solution", 5), "solution must be an array"),
    "solution-rows-strings": (with_field("solution", ["a1", "b2"]), "solution row must be an array"),
    "meta-a-number": (with_field("meta", 5), "meta must be an object"),
}


@pytest.mark.parametrize("data, message", MALFORMED_ENTRIES.values(), ids=MALFORMED_ENTRIES.keys())
def test_malformed_entry_is_reported(data, message):
    with pytest.raises(PuzzleFormatError, match=message):
        instance_from_dict(data)


names = st.text(alphabet="abcdefghij", min_size=1, max_size=6)


@st.composite
def instances(draw):
    m = draw(st.integers(min_value=2, max_value=4))
    n = draw(st.integers(min_value=2, max_value=4))
    bases = draw(st.lists(names, min_size=m * n, max_size=m * n))
    # suffix with the position so members are unique without rejection sampling
    member_pool = [f"{base}{k}" for k, base in enumerate(bases)]
    categories = tuple(
        EntityCategory(f"cat{j}", tuple(member_pool[j * n : (j + 1) * n]))
        for j in range(m)
    )
    rows = []
    for i in range(n):
        rows.append(tuple(categories[j].members[i] for j in range(m)))
    return PuzzleInstance(
        id=draw(names),
        description=draw(st.text(max_size=40)),
        categories=categories,
        hints=tuple(draw(st.lists(st.text(min_size=1, max_size=20), min_size=1, max_size=4))),
        solution=tuple(rows),
        meta=draw(st.dictionaries(names, st.integers(), max_size=2)),
    )


@given(instances())
def test_round_trip_property(inst):
    assert instance_from_dict(instance_to_dict(inst)) == inst
