"""Model enumeration for ground programs.

Two engines live here, and they share nothing but the `GroundProgram` they
read. `enumerate_models` is the production path: it interns atoms, routes
each constraint once, to search-time pruning or to a check on complete
models, and backtracks over choice groups (at most NODE_BUDGET nodes). It
closes each full selection under the rules to the well-founded model, as
the grounder does. `brute_force_models` is the test oracle, written from the
definition of a stable model (Gelfond-Lifschitz 1988): it guesses each
choice's selection and the truth of each negated rule head, takes the least
model of the reduct, and keeps it when that model reproduces the guess and
fires no constraint. Both read the same grounder's output, so comparing them
checks enumeration, not grounding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .ground import GroundProgram, UnsupportedProgram
from .syntax import GroundAtom, ground_atom_key


class EnumerationBudgetError(Exception):
    """Raised when the search walked more nodes than the caller allowed."""


class BruteForceRefusal(Exception):
    """Raised when the oracle would have to try more guesses than its bound."""


BRUTE_FORCE_BOUND = 10_000_000
NODE_BUDGET = 20_000_000


@dataclass
class _Compiled:
    """Interned, index-accelerated view of a ground program."""

    atom_of: list[GroundAtom]
    fact_ids: frozenset[int]
    groups: list[tuple[int, int | None, tuple[int, ...]]]
    rules: list[tuple[int, tuple[int, ...], tuple[int, ...]]]
    pair_partners: dict[int, set[int]]
    deferred: list[tuple[frozenset[int], frozenset[int]]]  # checked on complete models
    always_violated: bool
    # some candidate can be true other than through its own group's selection
    check_bounds: bool


def _compile(gp: GroundProgram) -> _Compiled:
    id_of: dict[GroundAtom, int] = {}  # in id order

    def intern(atom: GroundAtom) -> int:
        return id_of.setdefault(atom, len(id_of))

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
    forbidden: set[int] = set()
    pair_partners: dict[int, set[int]] = {}
    deferred: list[tuple[frozenset[int], frozenset[int]]] = []

    for cons in gp.constraints:
        pos = [intern(a) for a in cons.pos]
        neg = [intern(a) for a in cons.neg]
        # facts are in every model: positive fact literals vanish, a negated
        # fact makes the constraint unviolatable
        if any(n in fact_ids for n in neg):
            continue
        pos = [p for p in pos if p not in fact_ids]
        if not pos and not neg:
            always_violated = True
        elif neg or len(pos) > 2 or not derivable.isdisjoint(pos):
            deferred.append((frozenset(pos), frozenset(neg)))
        # the rest names atoms that only a selection makes true: a forbidden
        # atom is a dead candidate, a forbidden pair prunes during search
        elif len(pos) == 1:
            forbidden.add(pos[0])
        else:
            a, b = pos
            pair_partners.setdefault(a, set()).add(b)
            pair_partners.setdefault(b, set()).add(a)

    groups = [(lower, upper, tuple(c for c in cands if c not in forbidden))
              for lower, upper, cands in groups]
    candidates = [c for _, _, cands in groups for c in cands]
    check_bounds = (len(candidates) != len(set(candidates))
                    or not (derivable | fact_ids).isdisjoint(candidates))

    return _Compiled(
        atom_of=list(id_of),
        fact_ids=fact_ids,
        groups=groups,
        rules=rules,
        pair_partners=pair_partners,
        deferred=deferred,
        always_violated=always_violated,
        check_bounds=check_bounds,
    )


def _selections(lower: int, upper: int | None, cands: tuple[int, ...]):
    hi = len(cands) if upper is None else min(upper, len(cands))
    for size in range(lower, hi + 1):
        yield from itertools.combinations(cands, size)


def _rule_closure(base: frozenset[int], rules, negative_against) -> frozenset[int]:
    """The least model of `base` and the reduct of `rules` by `negative_against`."""
    out = set(base)
    changed = True
    while changed:
        changed = False
        for head, pos, neg in rules:
            if head in out:
                continue
            if not all(p in out for p in pos):
                continue
            if any(n in negative_against for n in neg):
                continue
            out.add(head)
            changed = True
    return frozenset(out)


def _complete_model(comp: _Compiled, base: frozenset[int]) -> frozenset[int] | None:
    """Close facts plus a full selection under the rules and check what
    search-time pruning could not decide. Returns the model or None."""
    model = base
    if comp.rules:
        high = _rule_closure(base, comp.rules, frozenset())
        model = _rule_closure(base, comp.rules, high)
        while (upper := _rule_closure(base, comp.rules, model)) != high:
            high, model = upper, _rule_closure(base, comp.rules, upper)
        if model != high:
            raise UnsupportedProgram(comp.atom_of[i] for i in high - model)
    for pos, neg in comp.deferred:
        if pos <= model and not (neg & model):
            return None
    if comp.check_bounds:
        for lower, upper, cands in comp.groups:
            inside = sum(1 for c in cands if c in model)
            if inside < lower or (upper is not None and inside > upper):
                return None
    return model


def _externalize(comp: _Compiled, models: set[frozenset[int]]) -> list[frozenset[GroundAtom]]:
    """Sort models by their sorted atom keys. Atoms are ranked once by
    `ground_atom_key`, and a model sorts by its sorted ranks, the same order."""
    atom_of = comp.atom_of
    rank = [0] * len(atom_of)
    for r, i in enumerate(sorted(range(len(atom_of)), key=lambda i: ground_atom_key(atom_of[i]))):
        rank[i] = r
    ordered = sorted(models, key=lambda m: sorted([rank[i] for i in m]))
    return [frozenset(atom_of[i] for i in m) for m in ordered]


def enumerate_models(gp: GroundProgram, cap: int = 1_000_000) -> tuple[list[frozenset[GroundAtom]], bool]:
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
    budget = NODE_BUDGET
    groups = comp.groups
    partners = comp.pair_partners

    current: set[int] = set(comp.fact_ids)

    def walk(level: int) -> bool:
        """Returns False to stop the whole search (cap or budget)."""
        nonlocal exhausted, budget
        if budget == 0:
            raise EnumerationBudgetError(f"enumeration exceeded the budget of {NODE_BUDGET} search nodes")
        budget -= 1
        if level == len(groups):
            model = _complete_model(comp, frozenset(current))
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
            if ok and not walk(level + 1):
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
    return _externalize(comp, found), exhausted


def brute_force_models(
    gp: GroundProgram, bound: int = BRUTE_FORCE_BOUND
) -> list[frozenset[GroundAtom]]:
    """Oracle enumerator: the stable models of `gp` by definition.

    A guess is a selection per choice and a truth value per negated rule
    head. The guess fixes the reduct; its least model is kept when it
    selects exactly the guessed candidates, makes exactly the guessed
    negated heads true and fires no constraint. Refuses when the number of
    guesses exceeds `bound`.
    """
    heads = {rule.head for rule in gp.rules}
    # A candidate that a one-atom constraint forbids, and that no fact or
    # rule can make true, is false in every stable model: never guess it.
    forbidden = {c.pos[0] for c in gp.constraints if len(c.pos) == 1 and not c.neg}
    dead = forbidden - gp.facts - heads
    choices = [(ch.lower, ch.upper, [c for c in ch.candidates if c not in dead]) for ch in gp.choices]
    negated = sorted({n for rule in gp.rules for n in rule.neg} & heads, key=ground_atom_key)
    # (smallest size, largest size, atoms) of each guessed subset
    parts = [(lower, len(cands) if upper is None else min(upper, len(cands)), cands)
             for lower, upper, cands in choices]
    parts.append((0, len(negated), negated))

    space = math.prod(sum(math.comb(len(atoms), k) for k in range(lo, hi + 1)) for lo, hi, atoms in parts)
    if space > bound:
        raise BruteForceRefusal(f"search space {space} exceeds the brute-force bound {bound}")

    # a constraint can fire only when its first positive atom is true: file
    # each under that atom, so a guess checks what its own atoms could fire
    filed: dict[GroundAtom | None, list] = {}
    for c in gp.constraints:
        filed.setdefault(c.pos[0] if c.pos else None, []).append((frozenset(c.pos), frozenset(c.neg)))

    def filed_under(atoms):
        return [cons for atom in atoms for cons in filed.get(atom, ())]

    guesses = [[(frozenset(sel), filed_under(sel)) for k in range(lo, hi + 1)
                for sel in itertools.combinations(atoms, k)] for lo, hi, atoms in parts]
    scopes = [frozenset(atoms) for _, _, atoms in parts]
    always = filed_under([None, *gp.facts])
    rules = [(rule.head, frozenset(rule.pos), frozenset(rule.neg)) for rule in gp.rules]
    found = []
    for guess in itertools.product(*guesses):
        *selections, assumed = [subset for subset, _ in guess]
        given = gp.facts.union(*selections)
        # a negated atom that no rule derives is true exactly when given
        reduct = [(head, pos) for head, pos, neg in rules
                  if neg.isdisjoint(given) and neg.isdisjoint(assumed)]
        model = set(given)
        grew = True
        while grew:
            grew = False
            for head, pos in reduct:
                if head not in model and pos <= model:
                    model.add(head)
                    grew = True
        fired = itertools.chain(always, filed_under(model - given), *(cons for _, cons in guess))
        if any(pos <= model and neg.isdisjoint(model) for pos, neg in fired):
            continue
        # stable: the least model of the reduct reproduces the guess
        if all(model & scope == subset for scope, (subset, _) in zip(scopes, guess)):
            found.append(frozenset(model))
    return sorted(found, key=lambda m: sorted(map(ground_atom_key, m)))
