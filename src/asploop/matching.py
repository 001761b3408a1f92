"""Decide whether an answer set encodes a puzzle's ground-truth solution.

Two stages. First an exact comparison against the ground truth rendered the
way entity names usually appear in encodings (lowercase, underscores). When
surface forms drift further (dropped honorifics, abbreviations), a
Levenshtein pass matches every ground-truth item to its closest computed
item and accepts iff the induced row map is a permutation.

What both stages need of the ground truth is fixed per instance: a
`GroundTruth` holds the raw rows, the normalized row set of every column
order, and a per-instance closeness table with each (ground-truth item,
model item) pair's edit distance and containment, computed when first seen.
The models of one instance's programs share a small vocabulary, so datagen
builds one `GroundTruth` per `run_dfs` and passes it to every
`match_solution` call; nothing here caches across calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations

from .asp import GroundAtom
from .puzzles import PuzzleInstance


def normalize_surface(item) -> str:
    """Render a ground-truth item the way it would be spelled in an
    encoding: lowercased, with every run of non-alphanumerics collapsed to
    one underscore.
    """
    text = str(item).lower()
    out = []
    pending_sep = False
    for ch in text:
        if ch.isalnum():
            if pending_sep and out:
                out.append("_")
            pending_sep = False
            out.append(ch)
        else:
            pending_sep = True
    return "".join(out)


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance with unit-cost insert, delete, replace."""
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost))
        previous = current
    return previous[-1]


def _value_surface(value) -> str:
    if isinstance(value, tuple):
        return "(" + ",".join(_value_surface(v) for v in value) + ")"
    return str(value)


@dataclass
class MatchReport:
    matched: bool
    method: str | None = None
    assignment_map: dict[int, int] = field(default_factory=dict)
    item_matrix: list[list[tuple[int, int]]] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)


def levenshtein_match(
    gt_rows: list[tuple[str, ...]],
    model_rows: list[tuple[str, ...]],
    closeness: dict[tuple[str, str], tuple[int, int]] | None = None,
) -> MatchReport:
    """Match ground-truth rows to model rows by per-item edit distance.

    Every ground-truth item is compared against every item of every model
    row; the cell records (gt_row, model_row) for the closest item. Among
    equal distances a pair where one string contains the other wins, then
    the lowest model row. The match holds iff each ground-truth row's cells
    agree on a single model row and no model row is claimed twice. Model
    rows without a single item match nothing.

    `closeness` maps (gt_item, model_item) to (distance, not-contained); a
    pair missing from it is computed and added. Pass the same dict to
    calls over one ground truth to compute each pair once (see
    `GroundTruth`); without one, the pairs are computed for this call.
    """
    items = [(j, item) for j, row in enumerate(model_rows, start=1) for item in row]
    if not items:
        return MatchReport(
            matched=False, method="levenshtein", diagnostics=["model rows have no items"]
        )
    if closeness is None:
        closeness = {}

    matrix: list[list[tuple[int, int]]] = []
    for i, row in enumerate(gt_rows, start=1):
        cells = []
        for gt_item in row:
            keys = []  # (distance, not-contained, row) per model item
            for j, model_item in items:
                pair = (gt_item, model_item)
                close = closeness.get(pair)
                if close is None:
                    contained = gt_item in model_item or model_item in gt_item
                    close = edit_distance(gt_item, model_item), 0 if contained else 1
                    closeness[pair] = close
                keys.append((*close, j))
            cells.append((i, min(keys)[2]))
        matrix.append(cells)

    assignment: dict[int, int] = {}
    ok = True
    for i, cells in enumerate(matrix, start=1):
        rows = {j for (_, j) in cells}
        if len(rows) != 1:
            ok = False
            continue
        assignment[i] = rows.pop()
    if ok and len(set(assignment.values())) != len(assignment):
        ok = False
    report = MatchReport(
        matched=ok, method="levenshtein", assignment_map=assignment, item_matrix=matrix
    )
    if not ok:
        report.diagnostics.append("edit-distance row map is not a permutation")
    return report


def _model_rows(model, predicate: str) -> list[tuple[str, ...]]:
    """The predicate's atoms as rows of argument surfaces, sorted."""
    return sorted(
        tuple(_value_surface(v) for v in atom.args) for atom in model if atom.pred == predicate
    )


class GroundTruth:
    """One instance's ground truth in the forms `match_solution` compares
    models against, for matching many models of that instance.

    `rows` are the solution rows as strings, for the Levenshtein stage.
    `exact` maps the normalized ground truth's row set under each column
    order to its rows in that order; when two orders give one set, the
    first in `permutations` order keeps it. `closeness` is the Levenshtein
    stage's (gt_item, model_item) table, filled as pairs are first seen.
    It grows with the distinct model items met, so a `GroundTruth` should
    live as long as one batch of matching, not longer.
    """

    def __init__(self, instance: PuzzleInstance):
        self.rows = [tuple(str(item) for item in row) for row in instance.solution]
        normalized = [tuple(normalize_surface(item) for item in row) for row in self.rows]
        self.exact: dict[frozenset, list[tuple[str, ...]]] = {}
        for perm in permutations(range(instance.m)):
            permuted = [tuple(row[c] for c in perm) for row in normalized]
            self.exact.setdefault(frozenset(permuted), permuted)
        self.closeness: dict[tuple[str, str], tuple[int, int]] = {}


def _pick_predicate(model, arity: int) -> str | None:
    candidates = {atom.pred for atom in model if atom.arity == arity}
    if "assignment" in candidates:
        return "assignment"
    if len(candidates) == 1:
        return candidates.pop()
    return None


def match_solution(
    model,
    instance: PuzzleInstance,
    target_predicate: str | None = None,
    truth: GroundTruth | None = None,
) -> MatchReport:
    """Compare one answer set against the instance's ground truth.

    The solution atoms are those of `target_predicate` (inferred from the
    model when omitted: the predicate named assignment, else the only one
    whose arity equals the category count). Raises ValueError when the
    predicate's atoms do not have one argument per category. `truth` is
    the instance's `GroundTruth`, shared by a caller that matches many
    models of the instance; without it one is built for this call.
    """
    m, n = instance.m, instance.n
    predicate = target_predicate or _pick_predicate(model, m)
    if predicate is None:
        return MatchReport(
            matched=False,
            diagnostics=[f"no unique predicate of arity {m} to read a solution from"],
        )
    model_rows = _model_rows(model, predicate)
    if not model_rows:
        return MatchReport(
            matched=False, diagnostics=[f"model has no {predicate} atoms"]
        )
    bad_arity = [row for row in model_rows if len(row) != m]
    if bad_arity:
        raise ValueError(
            f"{predicate} atoms must have {m} arguments, found one with {len(bad_arity[0])}"
        )
    if len(model_rows) != n:
        return MatchReport(
            matched=False,
            diagnostics=[f"expected {n} {predicate} atoms, model has {len(model_rows)}"],
        )

    if truth is None:
        truth = GroundTruth(instance)
    # exact: some column order of the normalized ground truth equals the
    # model rows as sets of rows
    permuted = truth.exact.get(frozenset(model_rows))
    if permuted is not None:
        assignment = {
            i: model_rows.index(row) + 1 for i, row in enumerate(permuted, start=1)
        }
        matrix = [[(i, j)] * m for i, j in sorted(assignment.items())]
        return MatchReport(
            matched=True,
            method="exact",
            assignment_map=assignment,
            item_matrix=matrix,
        )

    return levenshtein_match(truth.rows, model_rows, truth.closeness)
