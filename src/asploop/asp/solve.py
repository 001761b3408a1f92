"""Model enumeration for ground programs.

Two engines live here, and they share nothing but the `GroundProgram` they
read. `enumerate_models` is the production path. It works on the
skeleton's atoms interned to ints (`gp.symbols`) and merges the routes the
grounder compiled once per constraint statement (`gp.routes`): pruning
during search, or a check on complete models. The search is forward
checking (Haralick & Elliott, AIJ 1980) over int bitsets: each choice
group's domain is an int over its candidate positions, choosing a
candidate clears its pair partners from every later group's domain, and a
later group left with fewer open positions than its lower bound prunes the
branch. Groups are taken in order, selections by size and then
lexicographically, so models are found in the order of a plain
backtracking walk over the groups, minus subtrees that hold no full
selection, and a capped search keeps the same first cap+1 models. The
search counts one node per accepted selection, plus the root, and stops
at NODE_BUDGET. Each full selection is closed under the rules to the
well-founded model, as the grounder does, and checked for what pruning
cannot decide: deferred constraints, and each group's bounds when a
candidate can be true other than through its own group's selection. A
model stays one int bitmask of atom ids; `Models` sorts the masks and
builds a model's GroundAtom set only when a caller reads it.

`brute_force_models` is the test oracle, written from the definition of a
stable model (Gelfond-Lifschitz 1988): it guesses each choice's selection
and the truth of each negated rule head, takes the least model of the
reduct, and keeps it when that model reproduces the guess and fires no
constraint. It reads the ground atoms, rules and constraints, never the
interned tables. Both read the same grounder's output, so comparing them
checks enumeration, not grounding.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

from .ground import GroundProgram, UnsupportedProgram
from .syntax import GroundAtom, ground_atom_key


class EnumerationBudgetError(Exception):
    """Raised when the search visited more nodes than the caller allowed."""


class BruteForceRefusal(Exception):
    """Raised when the oracle would have to try more guesses than its bound."""


BRUTE_FORCE_BOUND = 10_000_000
NODE_BUDGET = 20_000_000


def _ids(mask: int) -> list[int]:
    """The set bits of `mask`, ascending."""
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return ids


_SET_FIRST = str.maketrans("01", "10")


def _order_key(mask: int) -> str:
    """A key that sorts masks as their lists of sorted ids sort: bit i of
    `mask` at index i, "0" where set and "1" where clear, ending at the
    highest set bit. At the first index two keys differ, the mask holding
    that id sorts first, unless the other mask has no id beyond it: then
    the other's key is a prefix of this one, and sorts first."""
    return bin(mask)[:1:-1].translate(_SET_FIRST) if mask else ""


class Models(Sequence):
    """A solve's models, each kept as an int bitmask of atom ids. The masks
    are sorted by their sorted ids on first read: ids follow
    `ground_atom_key` order, so models come sorted by their sorted atom
    keys. A model's GroundAtom set is built each time it is read. Equal to
    a list or tuple of the same models in the same order."""

    __slots__ = ("_atom_of", "_masks", "_sorted")

    def __init__(self, atom_of: list[GroundAtom], masks: list[int]):
        self._atom_of = atom_of
        self._masks = masks
        self._sorted = False

    def _ordered(self) -> list[int]:
        if not self._sorted:
            # a new list, never sorted in place: threads share cached models
            self._masks = sorted(self._masks, key=_order_key)
            self._sorted = True
        return self._masks

    def _atoms(self, mask: int) -> frozenset[GroundAtom]:
        atom_of = self._atom_of
        return frozenset([atom_of[i] for i in _ids(mask)])

    def __len__(self) -> int:
        return len(self._masks)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._atoms(m) for m in self._ordered()[index]]
        return self._atoms(self._ordered()[index])

    def __iter__(self):
        return map(self._atoms, self._ordered())

    def __eq__(self, other):
        if not isinstance(other, (Models, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"Models({list(self)!r})"


@dataclass
class _Search:
    """One solve's tables over the skeleton's atom ids and each choice
    group's candidate positions, and the forward-checking search over them."""

    groups: list[tuple[int, int | None, int]]  # (lower, upper, candidates' atom-id mask)
    domains: list[int]  # each group's open positions: dead candidates closed
    bits: list[list[int]]  # [g][p]: the atom-id bit of group g's candidate p
    within: list[list[int]]  # [g][p]: the positions of g that p leaves open
    keep: list[list[tuple[int, ...]]]  # [g][p]: the positions p leaves open in each later group
    later_lowers: list[list[int]]  # [g]: the lower bounds of the groups after g
    atom_of: list[GroundAtom]
    facts: int
    rules: list[tuple[int, int, int]]  # (head bit, pos mask, neg mask)
    deferred: list[tuple[int, int]]  # (pos mask, neg mask), checked on complete models
    # some live candidate can be true other than through its own group's selection
    check_bounds: bool
    cap: int = 0
    budget: int = 0
    found: set[int] = field(default_factory=set)

    def run(self, cap: int) -> tuple[Models, bool]:
        self.cap, self.budget = cap, NODE_BUDGET
        self.node()  # the root
        if self.groups:
            exhausted = self.descend(0, self.domains, self.facts)
        else:
            exhausted = self.leaf(self.facts)
        return Models(self.atom_of, list(self.found)), exhausted

    def node(self) -> None:
        if self.budget == 0:
            raise EnumerationBudgetError(f"enumeration exceeded the budget of {NODE_BUDGET} search nodes")
        self.budget -= 1

    def descend(self, level: int, domains: list[int], model: int) -> bool:
        """Try each selection of group `level` from its open positions,
        domains[0]; domains[1:] are the later groups'. `model` holds the
        facts and the earlier groups' selections. Returns False once cap+1
        models are found."""
        later, later_lowers = domains[1:], self.later_lowers[level]
        last = not later
        for kept, chosen in self.selections(level, _ids(domains[0])):
            self.node()
            if last:
                if not self.leaf(model | chosen):
                    return False
                continue
            rest = list(map(int.__and__, later, kept))
            if any(map(int.__lt__, map(int.bit_count, rest), later_lowers)):
                continue
            if not self.descend(level + 1, rest, model | chosen):
                return False
        return True

    def selections(self, level: int, positions: list[int]):
        """Group `level`'s selections from its open `positions` with no pair
        inside, by size and then lexicographically, each as the positions it
        leaves open in each later group and the atom-id bits it chooses."""
        lower, upper, _ = self.groups[level]
        keep, bits = self.keep[level], self.bits[level]
        if lower == upper == 1:
            return zip(map(keep.__getitem__, positions), map(bits.__getitem__, positions))
        return self._selections(level, lower, upper, positions)

    def _selections(self, level, lower, upper, positions):
        keep, bits, within = self.keep[level], self.bits[level], self.within[level]
        hi = len(positions) if upper is None else min(upper, len(positions))
        for size in range(lower, hi + 1):
            for sel in itertools.combinations(positions, size):
                chosen = sum(1 << p for p in sel)
                if any(within[p] & chosen != chosen for p in sel):
                    continue  # two partners in one selection
                kept = (-1,) * len(self.later_lowers[level])
                for p in sel:
                    kept = tuple(map(int.__and__, kept, keep[p]))
                yield kept, sum(bits[p] for p in sel)

    def leaf(self, base: int) -> bool:
        """Close facts plus a full selection under the rules, check what
        search-time pruning could not decide, and keep the model. Returns
        False once cap+1 models are found."""
        model = base
        rules = self.rules
        if rules:
            high = _rule_closure(base, rules, 0)
            model = _rule_closure(base, rules, high)
            while (upper := _rule_closure(base, rules, model)) != high:
                high, model = upper, _rule_closure(base, rules, upper)
            if model != high:
                raise UnsupportedProgram(self.atom_of[i] for i in _ids(high & ~model))
        for pos, neg in self.deferred:
            if model & pos == pos and not model & neg:
                return True
        if self.check_bounds:
            for lower, upper, cands in self.groups:
                inside = (model & cands).bit_count()
                if inside < lower or (upper is not None and inside > upper):
                    return True
        self.found.add(model)
        return len(self.found) <= self.cap


def _search(gp: GroundProgram) -> _Search:
    """Merge the routes of `gp`'s constraint statements over its symbols."""
    symbols = gp.symbols
    forbidden = frozenset().union(*(route.forbidden for route in gp.routes))
    live = [c for _, _, cands in symbols.groups for c in cands if c not in forbidden]
    tables = [route.partners for route in gp.routes if route.partners]
    n = len(symbols.groups)
    groups, domains, bits, within, keep = [], [], [], [], []
    for g, (lower, upper, cands) in enumerate(symbols.groups):
        groups.append((lower, upper, sum(1 << c for c in cands)))
        domains.append(sum(1 << p for p, c in enumerate(cands) if c not in forbidden))
        bits.append([1 << c for c in cands])
        rows = []
        for c in cands:
            row = (-1,) * (n - g)
            for table in tables:
                if (kept := table.get(c)) is not None:
                    row = tuple(map(int.__and__, row, kept[g:]))
            rows.append(row)
        within.append([row[0] for row in rows])
        keep.append([row[1:] for row in rows])
    return _Search(
        groups=groups,
        domains=domains,
        bits=bits,
        within=within,
        keep=keep,
        later_lowers=[[lower for lower, _, _ in groups[g + 1:]] for g in range(n)],
        atom_of=symbols.atom_of,
        facts=sum(1 << i for i in symbols.fact_ids),
        rules=[(1 << head, sum(1 << p for p in pos), sum(1 << q for q in neg))
               for head, pos, neg in symbols.rules],
        # statements can share a constraint: check each once
        deferred=list(dict.fromkeys((sum(1 << p for p in pos), sum(1 << q for q in neg))
                                    for route in gp.routes for pos, neg in route.deferred)),
        check_bounds=(len(live) != len(set(live))
                      or not (symbols.derivable | symbols.fact_ids).isdisjoint(live)),
    )


def _rule_closure(base: int, rules: list[tuple[int, int, int]], negative_against: int) -> int:
    """The least model of `base` and the reduct of `rules` by `negative_against`."""
    out = base
    changed = True
    while changed:
        changed = False
        for head, pos, neg in rules:
            if out & head or out & pos != pos or neg & negative_against:
                continue
            out |= head
            changed = True
    return out


def enumerate_models(gp: GroundProgram, cap: int = 1_000_000) -> tuple[Models, bool]:
    """Enumerate stable models, stopping after cap+1 distinct models.

    Returns (models, exhausted). `exhausted` is True when the search space
    was fully explored; in that case the models are complete. Models read
    sorted by their sorted atom vector, so the order never depends on
    search order.
    """
    if any(route.always_violated for route in gp.routes):
        return Models(gp.symbols.atom_of, []), True
    return _search(gp).run(cap)


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
