"""Decide whether an answer set encodes a puzzle's ground-truth solution.

Two stages. First an exact comparison against the ground truth rendered the
way entity names usually appear in encodings (lowercase, underscores). When
surface forms drift further (dropped honorifics, abbreviations), a
Levenshtein pass matches every ground-truth item to its closest computed
item and accepts iff the induced row map is a permutation.

The models of one instance's programs share a small vocabulary: the same
atoms, and so the same items, recur from model to model. A `GroundTruth`
holds what both stages need of the ground truth (the raw rows, and the
normalized row set of every column order) and what recurs in the models:
each atom's surface row, rendered when the atom is first met, and for each
distinct set of model items its `closest_items` table: each ground-truth
item's least (edit distance, not-contained) tier of those items. A model
is then matched by looking up the lowest row holding an item of each
tier. Datagen builds one `GroundTruth` per `run_dfs`, passes it to every
`match_solution` call, and keeps in it whether each distinct model matched
(`GroundTruth.members`); nothing else here caches across calls.
"""

from __future__ import annotations

from itertools import permutations

from .asp import GroundAtom
from .asp.solve import Models
from .asp.syntax import render_ground_value
from .puzzles import PuzzleInstance
from .value_types import FRESH, value_type


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


@value_type
class MatchReport:
    def __init__(self, matched: bool, method: str | None = None, assignment_map: dict[int, int] = FRESH,
                 item_matrix: list[list[tuple[int, int]]] = FRESH, diagnostics: list[str] = FRESH):
        self.matched = matched
        self.method = method
        self.assignment_map = {} if assignment_map is FRESH else assignment_map
        self.item_matrix = [] if item_matrix is FRESH else item_matrix
        self.diagnostics = [] if diagnostics is FRESH else diagnostics


def closest_items(gt_rows: list[tuple[str, ...]], items: frozenset[str]) -> dict[str, list[str]]:
    """For each ground-truth item, the model `items` in its least (edit
    distance, 0 if one string contains the other else 1) tier."""
    table = {}
    for gt_item in dict.fromkeys(gt_item for row in gt_rows for gt_item in row):
        keys = {
            item: (edit_distance(gt_item, item), 0 if gt_item in item or item in gt_item else 1)
            for item in items
        }
        least = min(keys.values())
        table[gt_item] = [item for item, key in keys.items() if key == least]
    return table


def levenshtein_match(
    gt_rows: list[tuple[str, ...]],
    model_rows: list[tuple[str, ...]],
    closest: dict[frozenset, dict[str, list[str]]] | None = None,
) -> MatchReport:
    """Match ground-truth rows to model rows by per-item edit distance.

    Each ground-truth item's cell records (gt_row, model_row) for the
    closest item of any model row. Among equal distances a pair where one
    string contains the other wins, then the lowest model row. The match
    holds iff each ground-truth row's cells agree on a single model row and
    no model row is claimed twice. Model rows without a single item match
    nothing.

    `closest` maps each set of model items met to its `closest_items`
    table for `gt_rows`, and is extended with the model's. Pass the same
    one to calls over one ground truth to build each set's table once (see
    `GroundTruth`); without one, the table is built for this call.
    """
    lowest: dict[str, int] = {}  # model item -> the lowest row holding it
    for j, row in enumerate(model_rows, start=1):
        for item in row:
            lowest.setdefault(item, j)
    if not lowest:
        return MatchReport(
            matched=False, method="levenshtein", diagnostics=["model rows have no items"]
        )
    closest = {} if closest is None else closest
    items = frozenset(lowest)
    table = closest.get(items)
    if table is None:
        table = closest[items] = closest_items(gt_rows, items)

    matrix = [
        [(i, min(map(lowest.__getitem__, table[gt_item]))) for gt_item in row]
        for i, row in enumerate(gt_rows, start=1)
    ]

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


def _model_rows(
    model, predicate: str, surfaces: dict[GroundAtom, tuple[str, ...]]
) -> list[tuple[str, ...]]:
    """The predicate's atoms as rows of argument surfaces, sorted.
    `surfaces` caches each atom's row."""
    rows = []
    for atom in model:
        if atom.pred == predicate:
            row = surfaces.get(atom)
            if row is None:
                row = surfaces[atom] = tuple(render_ground_value(v) for v in atom.args)
            rows.append(row)
    rows.sort()
    return rows


class GroundTruth:
    """One instance's ground truth in the forms `match_solution` compares
    models against, for matching many models of that instance.

    `rows` are the solution rows as strings, for the Levenshtein stage.
    `exact` maps the normalized ground truth's row set under each column
    order to its rows in that order; when two orders give one set, the
    first in `permutations` order keeps it. `surfaces` caches each model
    atom's row of argument surfaces, rendered when the atom is first met.
    `closest` is the Levenshtein stage's memo of `closest_items` over
    `rows`, keyed by the frozenset of a model's items. `members` maps a
    model's key (`model_keys`: its atoms of the target predicate, all
    `match_solution` reads once the predicate is fixed) to whether it
    matched. All grow with the distinct atoms, item sets, models and
    skeletons met, so a `GroundTruth` should live as long as one batch of
    matching, not longer.
    """

    def __init__(self, instance: PuzzleInstance):
        self.rows = [tuple(str(item) for item in row) for row in instance.solution]
        normalized = [tuple(normalize_surface(item) for item in row) for row in self.rows]
        self.exact: dict[frozenset, list[tuple[str, ...]]] = {}
        for perm in permutations(range(instance.m)):
            permuted = [tuple(row[c] for c in perm) for row in normalized]
            self.exact.setdefault(frozenset(permuted), permuted)
        self.surfaces: dict[GroundAtom, tuple[str, ...]] = {}
        self.closest: dict[frozenset, dict[str, list[str]]] = {}
        self.members: dict = {}  # model key -> matched
        self._lists: dict = {}  # (id(atom_of), predicate) -> (atom_of, predicate mask)

    def model_keys(self, models, predicate: str | None):
        """Each model's key in `members`, in order, reading no model: its
        atoms of `predicate` (all of them when None) as a mask over a
        `Models`' atom list, whose ids are per skeleton, else a frozenset."""
        if not isinstance(models, Models):
            return ((predicate, model if predicate is None else frozenset(
                a for a in model if a.pred == predicate)) for model in models)
        slot = (id(models.atom_of), predicate)
        if slot not in self._lists:  # holding the list keeps its id from being reused
            self._lists[slot] = models.atom_of, -1 if predicate is None else sum(
                1 << i for i, atom in enumerate(models.atom_of) if atom.pred == predicate)
        keep = self._lists[slot][1]
        return ((slot, mask & keep) for mask in models.masks)


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
    if truth is None:
        truth = GroundTruth(instance)
    model_rows = _model_rows(model, predicate, truth.surfaces)
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

    return levenshtein_match(truth.rows, model_rows, truth.closest)
