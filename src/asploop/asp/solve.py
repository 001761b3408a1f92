"""Model enumeration for ground programs.

Two engines live here, and they share nothing but the `GroundProgram` they
read. `enumerate_models` is the production path. It works on the
skeleton's atoms interned to ints (`gp.symbols`) and merges the routes the
grounder compiled once per constraint statement (`gp.routes`): pruning
during search, or a check on complete models. The search is forward
checking (Haralick & Elliott, AIJ 1980) over int bitmasks of atom ids:
each choice group's domain is the mask of its open candidates, choosing a
candidate clears its pair partners from every later group's domain, and a
later group left with fewer open candidates than its lower bound prunes the
branch. Groups are taken in order, selections by size and then
lexicographically, so models are found in the order of a plain
backtracking walk over the groups, minus subtrees that hold no full
selection, and a capped search keeps the same first cap+1 models. The
search counts one node per accepted selection, plus the root, and stops
at NODE_BUDGET, or as soon as it has counted more than cap models.

A search state is a group's level and the open candidates, one int. When
no rule, deferred constraint or bound check can make a model depend on
more than its selections, the models below a state depend on the state
alone, so the search is memoized on it, as component-caching model
counters are (Thurley, sharpSAT, SAT 2006): each distinct state is
searched once and records its model count and, in selection order, its
selections that lead to a model. A repeat visit adds the recorded count
and searches nothing. A count needs no model, so `Models` keeps the
recorded DAG and walks it in selection order, on the first read of a model,
for the first cap+1 models, the ones the search without memo finds.
Otherwise each full selection is closed under the rules to the
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


# each byte's bits in reverse order and inverted: bit 0 first, set before clear
_SET_FIRST = bytes(int(f"{byte:08b}"[::-1], 2) ^ 0xFF for byte in range(256))


def _sorted_masks(masks: list[int], width: int) -> list[int]:
    """`masks`, whose ids are all below `width`, sorted as their lists of
    sorted ids sort. A mask's key reads its bits from bit 0 up, a set bit
    before a clear one, with every bit above its highest id set, and then
    its id count. Let d be the lowest bit two masks differ in, and A the
    one holding it. When B has an id beyond d, A sorts first, as its list
    does. When B has none, B's list is a prefix of A's: B's key sets every
    bit from its highest id up, so it sorts first at the first bit A
    clears, or ties there and sorts first by its count."""
    size = (width + 7) // 8
    full = (1 << 8 * size) - 1

    def key(mask: int) -> bytes:
        top = mask.bit_length()
        return ((mask | full >> top << top).to_bytes(size, "little").translate(_SET_FIRST)
                + mask.bit_count().to_bytes(4, "big"))

    return sorted(masks, key=key)


class Models(Sequence):
    """A solve's models, each kept as an int bitmask of atom ids. The masks
    are sorted by their sorted ids on first read: ids follow
    `ground_atom_key` order, so models come sorted by their sorted atom
    keys. A memoized solve gives its count and the memo's root `record`
    instead: the first read walks it into masks and drops it, and a count
    never walks. With `in_order`, the walk gives the masks sorted already.
    A model's GroundAtom set is built each time it is read. Equal to a
    list or tuple of the same models in the same order."""

    __slots__ = ("_atom_of", "_masks", "_sorted", "_count", "_record", "_in_order")

    def __init__(self, atom_of: list[GroundAtom], masks: list[int], count: int | None = None,
                 record: tuple[list, int, int] | None = None, in_order: bool = False):
        self._atom_of = atom_of
        self._masks = masks
        self._count = len(masks) if count is None else count
        self._record = record  # (root record, facts mask, depth)
        self._in_order = in_order
        self._sorted = False

    def _ordered(self) -> list[int]:
        if not self._sorted:
            # a new list, never sorted in place: threads share cached models;
            # the record is read first and dropped last, once the masks are set
            pending = self._record
            if pending is None:
                masks = self._masks
            else:
                masks = []
                _walk(*pending, masks, self._count)
                del masks[self._count:]
            self._masks = masks if self._in_order else _sorted_masks(masks, len(self._atom_of))
            self._sorted = True
            self._record = None
        return self._masks

    # read-only: the skeleton's atom of each id, and the masks in model order
    atom_of = property(lambda self: self._atom_of)
    masks = property(_ordered)

    def _atoms(self, mask: int) -> frozenset[GroundAtom]:
        atom_of = self._atom_of
        return frozenset([atom_of[i] for i in _ids(mask)])

    def __len__(self) -> int:
        return self._count

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


class _Search:
    """One solve's tables over the skeleton's atom ids, built from the
    routes of `gp`'s constraint statements merged over its symbols, and the
    forward-checking search over them, memoized on its states when a
    model is its selections."""

    def __init__(self, gp: GroundProgram):
        symbols = gp.symbols
        forbidden = frozenset().union(*(route.forbidden for route in gp.routes))
        live = [c for _, _, cands in symbols.groups for c in cands if c not in forbidden]
        self.bit = symbols.bits
        # [id]: the atom ids left open once that atom is chosen
        allowed = self.allowed = [-1] * len(symbols.atom_of)
        for route in gp.routes:
            for a, partners in route.partners.items():
                allowed[a] &= ~partners
        # (lower, upper, candidates' atom-id mask)
        groups = self.groups = [(lower, upper, sum(1 << c for c in cands))
                                for lower, upper, cands in symbols.groups]
        self.live = sum(1 << c for c in set(live))  # the candidates no constraint kills on its own
        # [g]: the candidate masks of the groups after g
        self.later = [[cands for _, _, cands in groups[g + 1:]] for g in range(len(groups))]
        # [g]: the lower bounds of the groups after g
        self.later_lowers = [[lower for lower, _, _ in groups[g + 1:]] for g in range(len(groups))]
        # [g]: the candidates of group g and the groups after it
        self.below = list(itertools.accumulate(reversed([cands for _, _, cands in groups]), int.__or__))[::-1]
        self.atom_of = symbols.atom_of
        self.facts = sum(1 << i for i in symbols.fact_ids)
        # (head bit, pos mask, neg mask)
        self.rules = [(1 << head, sum(1 << p for p in pos), sum(1 << q for q in neg))
                      for head, pos, neg in symbols.rules]
        # (pos mask, neg mask), checked on complete models; statements can
        # share a constraint: check each once
        self.deferred = list(dict.fromkeys((sum(1 << p for p in pos), sum(1 << q for q in neg))
                                           for route in gp.routes for pos, neg in route.deferred))
        # some live candidate can be true other than through its own group's selection
        self.check_bounds = (len(live) != len(set(live))
                             or not (symbols.derivable | symbols.fact_ids).isdisjoint(live))
        # [g]: (count, record) of each searched state at group g by its open
        # candidates, or None when a leaf can depend on more than its selection
        self.memo = (None if self.rules or self.deferred or self.check_bounds or not groups
                     else [{} for _ in groups])
        # the memo's walk gives models sorted when every group selects one
        # size and its candidates' ids exceed every earlier group's: two
        # models then differ first in the group where their walk parts, and
        # the one walked first holds the lowest id of the two selections'
        # difference, while the other holds an id beyond it
        earlier = itertools.accumulate((cands for _, _, cands in groups), int.__or__, initial=0)
        self.walk_sorted = all(lower == upper and seen < cands & -cands
                               for (lower, upper, cands), seen in zip(groups, earlier))
        self.cap = self.budget = 0
        self.total = 0  # the models counted so far
        self.found: set[int] = set()

    def run(self, cap: int) -> tuple[Models, bool]:
        self.cap, self.budget = cap, NODE_BUDGET
        self.node()  # the root
        if not self.groups:
            self.leaf(self.facts)
            return Models(self.atom_of, list(self.found)), self.total <= cap
        record = self.descend(0, self.live, self.facts)
        if self.memo is None:
            return Models(self.atom_of, list(self.found)), self.total <= cap
        # the memo goes with the search; Models keeps the records for a read
        depth = len(self.groups) - 1
        return Models(self.atom_of, [], min(self.total, cap + 1), (record, self.facts, depth),
                      self.walk_sorted), self.total <= cap

    def node(self) -> None:
        if self.budget == 0:
            raise EnumerationBudgetError(f"enumeration exceeded the budget of {NODE_BUDGET} search nodes")
        self.budget -= 1

    def descend(self, level: int, open_: int, model: int) -> list:
        """Search the state of group `level` and the open candidates
        `open_`: try each selection of the group's open candidates. `model`
        holds the facts and the earlier groups' selections. Stops once more
        than cap models are counted. Returns the state's record for
        `_walk`: at the last group, the atom-id bits of each selection
        counted; before it, each selection that leads to a model, as its
        atom-id bits followed by the next state's record, in one flat list.
        Both in selection order."""
        cap = self.cap
        if level == len(self.groups) - 1:
            leaves = []
            for chosen, _ in self.selections(level, open_):
                self.node()
                self.leaf(model | chosen)
                leaves.append(chosen)
                if self.total > cap:
                    break
            return leaves
        memo = None if self.memo is None else self.memo[level + 1]
        below, later, later_lowers = self.below[level + 1], self.later[level], self.later_lowers[level]
        children = []
        for chosen, kept in self.selections(level, open_):
            self.node()
            rest = open_ & kept
            state = None if memo is None else memo.get(rest & below)
            if state is None:
                if any(map(int.__lt__, map(int.bit_count, map(rest.__and__, later)), later_lowers)):
                    continue
                start = self.total
                record = self.descend(level + 1, rest, model | chosen)
                state = self.total - start, record
                if memo is not None:
                    memo[rest & below] = state
            else:
                self.total += state[0]  # a repeat visit: its count, and no node
            if state[0] and memo is not None:
                children += chosen, state[1]
            if self.total > cap:
                break
        return children

    def selections(self, level: int, open_: int):
        """Group `level`'s selections from the open candidates in `open_`
        with no pair inside, by size and then lexicographically, each as
        the atom-id bits it chooses and the atom ids it leaves open."""
        lower, upper, cands = self.groups[level]
        ids = _ids(open_ & cands)
        bit, allowed = self.bit, self.allowed
        if lower == upper == 1:
            return ((bit[c], allowed[c]) for c in ids)
        return self._selections(lower, upper, ids)

    def _selections(self, lower, upper, ids):
        allowed = self.allowed
        hi = len(ids) if upper is None else min(upper, len(ids))
        for size in range(lower, hi + 1):
            for sel in itertools.combinations(ids, size):
                chosen, kept = 0, -1
                for c in sel:
                    chosen |= 1 << c
                    kept &= allowed[c]
                if kept & chosen != chosen:
                    continue  # two partners in one selection
                yield chosen, kept

    def leaf(self, base: int) -> None:
        """Count a full selection's model. With the memo, a selection is
        its own model, and is counted only. Otherwise close facts plus the
        selection under the rules, check what search-time pruning could not
        decide, and keep the model."""
        if self.memo is not None:
            self.total += 1
            return
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
                return
        if self.check_bounds:
            for lower, upper, cands in self.groups:
                inside = (model & cands).bit_count()
                if inside < lower or (upper is not None and inside > upper):
                    return
        self.found.add(model)
        self.total = len(self.found)


def _walk(record: list, model: int, depth: int, masks: list[int], limit: int) -> None:
    """Append the models below a state's `record`, in search order, to
    `masks` until it holds at least `limit`. `model` holds the facts and the
    earlier groups' selections; `depth` counts the groups after the
    record's."""
    if not depth:
        masks.extend(map(model.__or__, record))
        return
    pairs = iter(record)
    for chosen, child in zip(pairs, pairs):
        _walk(child, model | chosen, depth - 1, masks, limit)
        if len(masks) >= limit:
            return


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
    search order. A program whose models are its selections is counted on
    a memo of search states, so its count costs one node per selection of
    each distinct state, not one per model. Its `Models` keeps the memo's
    records and walks them into masks only when a model is read, so a
    caller that reads only `len()` never walks.
    """
    if any(route.always_violated for route in gp.routes):
        return Models(gp.symbols.atom_of, []), True
    return _Search(gp).run(cap)


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
