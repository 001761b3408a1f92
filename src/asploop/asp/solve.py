"""Model enumeration for ground programs.

Two engines live here on purpose. `enumerate_models` is the production
path: backtracking over choice groups with incremental constraint pruning.
`brute_force_models` is the test oracle: it walks the full cartesian product
of per-group selections and checks each complete candidate, sharing no
search logic with the enumerator. Tests compare the two on the same ground
programs.

A model is facts + one bounded selection per active choice group + the
definite-rule closure. Candidates are verified against the reduct of the
definite rules before being emitted, so negation on derived atoms cannot
smuggle in an unstable model.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .ground import GroundChoice, GroundConstraint, GroundProgram, GroundRule
from .syntax import GroundAtom, ground_atom_key


class EnumerationBudgetError(Exception):
    """Raised when the search walked more nodes than the caller allowed."""


class BruteForceRefusal(Exception):
    """Raised when the cartesian search space exceeds the oracle's bound."""


BRUTE_FORCE_BOUND = 10_000_000


@dataclass
class _Compiled:
    """Interned, index-accelerated view of a ground program."""

    atom_of: list[GroundAtom]
    id_of: dict[GroundAtom, int]
    fact_ids: frozenset[int]
    groups: list[tuple[int, int | None, tuple[int, ...]]]
    rules: list[tuple[int, tuple[int, ...], tuple[int, ...]]]
    pair_partners: dict[int, set[int]]
    deferred: list[tuple[frozenset[int], frozenset[int]]]  # checked on complete models
    all_constraints: list[tuple[frozenset[int], frozenset[int]]]
    always_violated: bool
    has_rules: bool
    groups_overlap: bool


def _compile(gp: GroundProgram) -> _Compiled:
    id_of: dict[GroundAtom, int] = {}
    atom_of: list[GroundAtom] = []

    def intern(atom: GroundAtom) -> int:
        if atom not in id_of:
            id_of[atom] = len(atom_of)
            atom_of.append(atom)
        return id_of[atom]

    fact_ids = frozenset(intern(a) for a in sorted(gp.facts, key=ground_atom_key))
    groups = [
        (ch.lower, ch.upper, tuple(intern(c) for c in ch.candidates)) for ch in gp.choices
    ]
    rules = [
        (intern(r.head), tuple(intern(a) for a in r.pos), tuple(intern(a) for a in r.neg))
        for r in gp.rules
    ]
    derivable = {head for head, _, _ in rules}

    always_violated = False
    forbidden_single: set[int] = set()
    pair_partners: dict[int, set[int]] = {}
    deferred: list[tuple[frozenset[int], frozenset[int]]] = []
    all_constraints: list[tuple[frozenset[int], frozenset[int]]] = []

    for cons in gp.constraints:
        pos = [intern(a) for a in cons.pos]
        neg = [intern(a) for a in cons.neg]
        # facts are in every model: positive fact literals vanish, a negated
        # fact makes the constraint unviolatable
        if any(n in fact_ids for n in neg):
            continue
        pos = [p for p in pos if p not in fact_ids]
        key = (frozenset(pos), frozenset(neg))
        all_constraints.append(key)
        if not pos and not neg:
            always_violated = True
            continue
        if not neg and len(pos) == 1:
            forbidden_single.add(pos[0])
            continue
        if not neg and len(pos) == 2:
            a, b = pos
            pair_partners.setdefault(a, set()).add(b)
            pair_partners.setdefault(b, set()).add(a)
            continue
        deferred.append(key)

    # A singly-forbidden atom that no rule can derive is just a dead
    # candidate; drop it from the choice groups instead of searching it.
    pruned_groups = []
    for lower, upper, cands in groups:
        kept = tuple(c for c in cands if not (c in forbidden_single and c not in derivable))
        pruned_groups.append((lower, upper, kept))
    for atom_id in forbidden_single:
        if atom_id in derivable:
            deferred.append((frozenset([atom_id]), frozenset()))

    candidate_total = sum(len(c) for _, _, c in pruned_groups)
    candidate_distinct = len({c for _, _, cands in pruned_groups for c in cands})
    groups_overlap = candidate_total != candidate_distinct

    return _Compiled(
        atom_of=atom_of,
        id_of=id_of,
        fact_ids=fact_ids,
        groups=pruned_groups,
        rules=rules,
        pair_partners=pair_partners,
        deferred=deferred,
        all_constraints=all_constraints,
        always_violated=always_violated,
        has_rules=bool(rules),
        groups_overlap=groups_overlap,
    )


def _selections(lower: int, upper: int | None, cands: tuple[int, ...]):
    hi = len(cands) if upper is None else min(upper, len(cands))
    for size in range(lower, hi + 1):
        yield from itertools.combinations(cands, size)


def _rule_closure(base: set[int], rules, neg_reference: set[int] | None) -> set[int]:
    """Least fixpoint of the rules over `base`. Negated literals are checked
    against `neg_reference` when given (the reduct), else against the growing
    set itself."""
    out = set(base)
    changed = True
    while changed:
        changed = False
        for head, pos, neg in rules:
            if head in out:
                continue
            if not all(p in out for p in pos):
                continue
            ref = out if neg_reference is None else neg_reference
            if any(n in ref for n in neg):
                continue
            out.add(head)
            changed = True
    return out


def _complete_model(comp: _Compiled, selected: set[int]) -> frozenset[int] | None:
    """Close a full selection under the rules and verify everything that the
    incremental pruning could not decide. Returns the model or None."""
    model = set(comp.fact_ids) | selected
    if comp.has_rules:
        model = _rule_closure(model, comp.rules, neg_reference=None)
        # stability: the model must equal the closure of its own reduct
        reduct_lfp = _rule_closure(set(comp.fact_ids) | selected, comp.rules, neg_reference=model)
        if reduct_lfp != model:
            return None
        for pos, neg in comp.all_constraints:
            if pos <= model and not (neg & model):
                return None
    else:
        for pos, neg in comp.deferred:
            if pos <= model and not (neg & model):
                return None
    if comp.has_rules or comp.groups_overlap:
        for lower, upper, cands in comp.groups:
            inside = sum(1 for c in cands if c in model)
            if inside < lower or (upper is not None and inside > upper):
                return None
    return frozenset(model)


def _externalize(comp: _Compiled, models: list[frozenset[int]]) -> list[frozenset[GroundAtom]]:
    """Sort models by their sorted atom keys. Atoms are ranked once by
    `ground_atom_key`, and a model sorts by its sorted ranks, the same order."""
    atom_of = comp.atom_of
    rank = [0] * len(atom_of)
    for r, i in enumerate(sorted(range(len(atom_of)), key=lambda i: ground_atom_key(atom_of[i]))):
        rank[i] = r
    models = sorted(set(models), key=lambda m: sorted([rank[i] for i in m]))
    return [frozenset(atom_of[i] for i in m) for m in models]


def enumerate_models(
    gp: GroundProgram, cap: int = 1_000_000, node_budget: int | None = None
) -> tuple[list[frozenset[GroundAtom]], bool]:
    """Enumerate stable models, stopping after cap+1 distinct models.

    Returns (models, exhausted). `exhausted` is True when the search space
    was fully explored; in that case the model list is complete. Models are
    returned sorted by their sorted atom vector, so the order never depends
    on search order.
    """
    comp = _compile(gp)
    if comp.always_violated:
        return [], True

    found: set[frozenset[int]] = set()
    exhausted = True
    budget = [node_budget if node_budget is not None else -1]
    groups = comp.groups
    partners = comp.pair_partners

    current: set[int] = set(comp.fact_ids)

    def walk(level: int) -> bool:
        """Returns False to stop the whole search (cap or budget)."""
        nonlocal exhausted
        if budget[0] == 0:
            raise EnumerationBudgetError("enumeration exceeded the node budget")
        if budget[0] > 0:
            budget[0] -= 1
        if level == len(groups):
            model = _complete_model(comp, current - comp.fact_ids)
            if model is not None:
                found.add(model)
                if len(found) >= cap + 1:
                    exhausted = False
                    return False
            return True
        lower, upper, cands = groups[level]
        for sel in _selections(lower, upper, cands):
            added = []
            ok = True
            for a in sel:
                if a not in current:
                    pset = partners.get(a)
                    if pset is not None and not pset.isdisjoint(current):
                        ok = False
                        break
                    current.add(a)
                    added.append(a)
            if ok:
                if not walk(level + 1):
                    for a in added:
                        current.discard(a)
                    return False
            for a in added:
                current.discard(a)
        return True

    try:
        walk(0)
    finally:
        # walk refers to itself; without this the search state (the compiled
        # program, the models found) stays in a reference cycle until the
        # next full garbage collection
        del walk
    return _externalize(comp, list(found)), exhausted


def brute_force_models(
    gp: GroundProgram, bound: int = BRUTE_FORCE_BOUND
) -> list[frozenset[GroundAtom]]:
    """Oracle enumerator: try every per-group selection combination and keep
    the candidates that verify. Refuses search spaces larger than `bound`.
    """
    comp = _compile(gp)

    space = 1
    for lower, upper, cands in comp.groups:
        hi = len(cands) if upper is None else min(upper, len(cands))
        count = sum(math.comb(len(cands), size) for size in range(lower, hi + 1))
        space *= count
        if space > bound:
            raise BruteForceRefusal(
                f"search space {space} exceeds the brute-force bound {bound}"
            )
    if comp.always_violated:
        return []

    # Fast path for the common shape: no rules, no overlapping groups. The
    # constraint residue is indexed by one positive atom so each candidate
    # only pays for constraints it could actually violate.
    by_atom: dict[int, list[tuple[frozenset[int], frozenset[int]]]] = {}
    always_check: list[tuple[frozenset[int], frozenset[int]]] = []
    if not comp.has_rules:
        for pos, neg in comp.deferred:
            if pos:
                by_atom.setdefault(next(iter(pos)), []).append((pos, neg))
            else:
                always_check.append((pos, neg))
        for a, ps in comp.pair_partners.items():
            for b in ps:
                if a < b:
                    by_atom.setdefault(a, []).append((frozenset((a, b)), frozenset()))

    found: list[frozenset[int]] = []
    selection_lists = [list(_selections(l, u, c)) for l, u, c in comp.groups]
    for combo in itertools.product(*selection_lists):
        selected = {a for sel in combo for a in sel}
        if comp.has_rules or comp.groups_overlap:
            model = _complete_model(comp, selected)
            if model is not None:
                found.append(model)
            continue
        model_set = selected | comp.fact_ids
        ok = True
        for a in selected:
            for pos, neg in by_atom.get(a, ()):
                if pos <= model_set and not (neg & model_set):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            for pos, neg in always_check:
                if pos <= model_set and not (neg & model_set):
                    ok = False
                    break
        if ok:
            found.append(frozenset(model_set))
    return _externalize(comp, found)
