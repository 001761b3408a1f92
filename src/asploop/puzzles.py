"""Grid puzzle instances and dataset IO.

A puzzle has m categories of n members each; the ground truth is a table of
n rows, one member per category per row, where every member appears exactly
once. Datasets are JSON arrays or JSONL files of instance objects.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .value_types import FRESH, set_field, value_type


class PuzzleFormatError(ValueError):
    pass


@value_type(frozen=True)
class EntityCategory:
    def __init__(self, name: str, members: tuple[str, ...]):
        set_field(self, "name", name)
        set_field(self, "members", members)


@value_type(frozen=True, skip_compare=("meta",))
class PuzzleInstance:
    def __init__(self, id: str, description: str, categories: tuple[EntityCategory, ...],
                 hints: tuple[str, ...], solution: tuple[tuple[str, ...], ...], meta: dict = FRESH):
        set_field(self, "id", id)
        set_field(self, "description", description)
        set_field(self, "categories", categories)
        set_field(self, "hints", hints)
        set_field(self, "solution", solution)
        set_field(self, "meta", {} if meta is FRESH else meta)
        _validate_instance(self)

    @property
    def m(self) -> int:
        return len(self.categories)

    @property
    def n(self) -> int:
        return len(self.categories[0].members)

    @property
    def size(self) -> str:
        return f"{self.m}x{self.n}"

    @property
    def expected_model_count(self) -> int:
        return expected_model_count(self.m, self.n)


def expected_model_count(m: int, n: int) -> int:
    """Stable-model count of an unconstrained-but-bijective m x n grid
    encoding: (n!)^(m-1). Exact integer arithmetic."""
    if m < 1 or n < 1:
        raise ValueError(f"grid dimensions must be positive, got {m}x{n}")
    return math.factorial(n) ** (m - 1)


def _validate_instance(inst: PuzzleInstance) -> None:
    ident = inst.id or "<missing id>"
    if not inst.id or not isinstance(inst.id, str):
        raise PuzzleFormatError("instance id must be a non-empty string")
    if not isinstance(inst.description, str):
        raise PuzzleFormatError(f"{ident}: description must be a string")
    if len(inst.categories) < 2:
        raise PuzzleFormatError(f"{ident}: needs at least 2 categories")
    n = None
    seen_names = set()
    for cat in inst.categories:
        if not cat.name or not isinstance(cat.name, str):
            raise PuzzleFormatError(f"{ident}: category name must be a non-empty string")
        if cat.name in seen_names:
            raise PuzzleFormatError(f"{ident}: duplicate category name {cat.name!r}")
        seen_names.add(cat.name)
        if not all(isinstance(member, str) for member in cat.members):
            raise PuzzleFormatError(f"{ident}: members of category {cat.name!r} must be strings")
        if len(cat.members) < 2:
            raise PuzzleFormatError(f"{ident}: category {cat.name!r} needs >= 2 members")
        if len(set(cat.members)) != len(cat.members):
            raise PuzzleFormatError(f"{ident}: duplicate members in category {cat.name!r}")
        if n is None:
            n = len(cat.members)
        elif len(cat.members) != n:
            raise PuzzleFormatError(
                f"{ident}: category {cat.name!r} has {len(cat.members)} members, expected {n}"
            )
    if not inst.hints:
        raise PuzzleFormatError(f"{ident}: hints must be non-empty")
    if not all(isinstance(hint, str) for hint in inst.hints):
        raise PuzzleFormatError(f"{ident}: hints must be strings")
    if len(inst.solution) != n:
        raise PuzzleFormatError(
            f"{ident}: solution has {len(inst.solution)} rows, expected {n}"
        )
    m = len(inst.categories)
    for i, row in enumerate(inst.solution):
        if len(row) != m:
            raise PuzzleFormatError(
                f"{ident}: solution row {i + 1} has {len(row)} items, expected {m}"
            )
        for j, item in enumerate(row):
            if item not in inst.categories[j].members:
                raise PuzzleFormatError(
                    f"{ident}: solution row {i + 1} item {item!r} is not a member of "
                    f"category {inst.categories[j].name!r}"
                )
    for j, cat in enumerate(inst.categories):
        column = [row[j] for row in inst.solution]
        if len(set(column)) != len(column):
            raise PuzzleFormatError(
                f"{ident}: solution column for category {cat.name!r} repeats a member"
            )


# --------------------------------------------------------------------------
# Serialization

def instance_from_dict(data: dict) -> PuzzleInstance:
    _expect(data, dict, "entry")
    ident = data.get("id", "<missing id>")
    try:
        categories = tuple(
            EntityCategory(
                name=_expect(c, dict, f"{ident}: category")["name"],
                members=tuple(_expect(c["members"], list, f"{ident}: members")),
            )
            for c in _expect(data["categories"], list, f"{ident}: categories")
        )
        meta = data.get("meta")
        return PuzzleInstance(
            id=data["id"],
            description=data["description"],
            categories=categories,
            hints=tuple(_expect(data["hints"], list, f"{ident}: hints")),
            solution=tuple(
                tuple(_expect(row, list, f"{ident}: solution row"))
                for row in _expect(data["solution"], list, f"{ident}: solution")
            ),
            meta={} if meta is None else dict(_expect(meta, dict, f"{ident}: meta")),
        )
    except KeyError as exc:
        raise PuzzleFormatError(f"{ident}: missing field {exc.args[0]!r}") from None


def _expect(value, kind: type, what: str):
    """`value`, if it is a JSON array (`list`) or object (`dict`) as `kind`
    says; otherwise a PuzzleFormatError saying `what` it should have been."""
    if not isinstance(value, kind):
        wanted = "an array" if kind is list else "an object"
        raise PuzzleFormatError(f"{what} must be {wanted}, not {type(value).__name__}")
    return value


def instance_to_dict(inst: PuzzleInstance) -> dict:
    out = {
        "id": inst.id,
        "description": inst.description,
        "categories": [{"name": c.name, "members": list(c.members)} for c in inst.categories],
        "hints": list(inst.hints),
        "solution": [list(row) for row in inst.solution],
    }
    if inst.meta:
        out["meta"] = dict(inst.meta)
    return out


def load_dataset(path: str | Path) -> list[PuzzleInstance]:
    """Load a dataset file: a JSON array of instances, or JSONL with one
    instance per line."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    stripped = text.lstrip()
    if not stripped:
        raise PuzzleFormatError(f"{path}: empty dataset file")
    instances: list[PuzzleInstance] = []
    if stripped.startswith("["):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PuzzleFormatError(f"{path}: invalid JSON: {exc}") from None
        if not isinstance(raw, list):
            raise PuzzleFormatError(f"{path}: expected a JSON array")
        entries = raw
    else:
        entries = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise PuzzleFormatError(f"{path}:{lineno}: invalid JSON: {exc}") from None
    for idx, entry in enumerate(entries):
        try:
            instances.append(instance_from_dict(entry))
        except PuzzleFormatError as exc:
            raise PuzzleFormatError(f"{path} entry {idx}: {exc}") from None
    seen = set()
    for inst in instances:
        if inst.id in seen:
            raise PuzzleFormatError(f"{path}: duplicate instance id {inst.id!r}")
        seen.add(inst.id)
    return instances


def save_dataset(instances: list[PuzzleInstance], path: str | Path) -> None:
    path = Path(path)
    data = [instance_to_dict(i) for i in instances]
    path.write_text(json.dumps(data, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
