"""Model enumeration for ground programs.

Two engines live here, and they share nothing but the `GroundProgram` they
read. `enumerate_models` is the production path. It works on the
skeleton's atoms interned to ints (`gp.symbols`) and merges the routes the
grounder compiled once per constraint statement (`gp.routes`): pruning
during search, or a check on complete models. It backtracks over choice
groups (at most NODE_BUDGET nodes), closes each full selection under the
rules to the well-founded model, as the grounder does, and builds the
models' GroundAtom sets only in `_externalize`. `brute_force_models` is the
test oracle, written from the definition of a stable model
(Gelfond-Lifschitz 1988): it guesses each choice's selection and the truth
of each negated rule head, takes the least model of the reduct, and keeps
it when that model reproduces the guess and fires no constraint. It reads
the ground atoms, rules and constraints, never the interned tables. Both
read the same grounder's output, so comparing them checks enumeration, not
grounding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .ground import GroundProgram, Symbols, UnsupportedProgram
from .syntax import GroundAtom, ground_atom_key


class EnumerationBudgetError(Exception):
    """Raised when the search walked more nodes than the caller allowed."""


class BruteForceRefusal(Exception):
    """Raised when the oracle would have to try more guesses than its bound."""


BRUTE_FORCE_BOUND = 10_000_000
NODE_BUDGET = 20_000_000


@dataclass
class _Search:
    """One solve's tables: the skeleton's interned atoms, facts and rules,
    and the program's constraint routes merged."""

    symbols: Symbols
    groups: list[tuple[int, int | None, tuple[int, ...]]]  # dead candidates dropped
    pair_partners: dict[int, set[int]]
    deferred: list[tuple[frozenset[int], frozenset[int]]]  # checked on complete models
    # some candidate can be true other than through its own group's selection
    check_bounds: bool


def _search(gp: GroundProgram) -> _Search:
    """Merge the routes of `gp`'s constraint statements over its symbols."""
    symbols = gp.symbols
    forbidden = frozenset().union(*(route.forbidden for route in gp.routes))
    pair_partners: dict[int, set[int]] = {}
    for route in gp.routes:
        for a, partners in route.partners.items():
            pair_partners.setdefault(a, set()).update(partners)
    groups = [(lower, upper, tuple(c for c in cands if c not in forbidden))
              for lower, upper, cands in symbols.groups]
    candidates = [c for _, _, cands in groups for c in cands]
    check_bounds = (len(candidates) != len(set(candidates))
                    or not (symbols.derivable | symbols.fact_ids).isdisjoint(candidates))
    return _Search(
        symbols=symbols,
        groups=groups,
        pair_partners=pair_partners,
        # statements can share a constraint: check each once
        deferred=list(dict.fromkeys(cons for route in gp.routes for cons in route.deferred)),
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


def _complete_model(comp: _Search, base: frozenset[int]) -> frozenset[int] | None:
    """Close facts plus a full selection under the rules and check what
    search-time pruning could not decide. Returns the model or None."""
    model = base
    rules = comp.symbols.rules
    if rules:
        high = _rule_closure(base, rules, frozenset())
        model = _rule_closure(base, rules, high)
        while (upper := _rule_closure(base, rules, model)) != high:
            high, model = upper, _rule_closure(base, rules, upper)
        if model != high:
            raise UnsupportedProgram(comp.symbols.atom_of[i] for i in high - model)
    for pos, neg in comp.deferred:
        if pos <= model and not (neg & model):
            return None
    if comp.check_bounds:
        for lower, upper, cands in comp.groups:
            inside = sum(1 for c in cands if c in model)
            if inside < lower or (upper is not None and inside > upper):
                return None
    return model


def _externalize(symbols: Symbols, models: set[frozenset[int]]) -> list[frozenset[GroundAtom]]:
    """Sort models by their sorted atom keys: ids follow `ground_atom_key`
    order, so a model's sorted ids sort the same way."""
    atom_of = symbols.atom_of
    return [frozenset([atom_of[i] for i in m]) for m in sorted(models, key=sorted)]


def enumerate_models(gp: GroundProgram, cap: int = 1_000_000) -> tuple[list[frozenset[GroundAtom]], bool]:
    """Enumerate stable models, stopping after cap+1 distinct models.

    Returns (models, exhausted). `exhausted` is True when the search space
    was fully explored; in that case the model list is complete. Models are
    returned sorted by their sorted atom vector, so the order never depends
    on search order.
    """
    if any(route.always_violated for route in gp.routes):
        return [], True
    comp = _search(gp)

    found: set[frozenset[int]] = set()
    exhausted = True
    budget = NODE_BUDGET
    groups = comp.groups
    partners = comp.pair_partners

    current: set[int] = set(comp.symbols.fact_ids)

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
    return _externalize(comp.symbols, found), exhausted


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
