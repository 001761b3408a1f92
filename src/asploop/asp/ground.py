"""Grounding: from parsed statements to a variable-free program.

Safety discipline: the compiler checks each variable where it reads it
(`_Plan`). A positive body atom binds its variables outside arithmetic, and
inside a choice element so do the element's own positive conditions. The
positive atoms join in the first order in which each one's arithmetic reads
only variables already bound, by earlier atoms or earlier arguments of its
own. Heads, negated atoms, comparisons and cardinality elements read only
variables the join binds; facts read none. The anonymous variable binds
nothing, so it stands only as a positive atom's argument, outside
arithmetic. A violation raises GroundingError naming the variable, or
saying that the positive literals cannot be ordered when each variable is
bound somewhere. Fact, Rule and Choice statements are all checked before
any is grounded, and a constraint statement before it is grounded.

The grounder classifies predicates into "independent" (defined by facts and
rules that never touch a choice head) and "choice-dependent" (everything
downstream of a choice head). Choice rule bodies and element conditions must
be independent, so choice activity and candidate sets are fixed at ground
time. Constraints and cardinality heads may freely mix both kinds; their
independent literals are resolved here and only the choice-dependent residue
survives into the ground program.

Cardinality-equality heads compile away entirely: for each ground body
instantiation the element comparisons are already decided, so an instance
either holds for every model (dropped) or forbids its body atoms (kept as a
plain ground constraint).

Each statement is compiled once, before its join runs, into closures: a
matcher per positive atom in join order, an instantiator per negated atom
and head, a test per comparison (`_Plan`). Comparisons run after the full
join, in body order, and every cardinality element is evaluated: deciding
either earlier could skip an instance whose arithmetic raises.

A constraint statement that swapping its variables maps onto itself, such
as every puzzle's pairwise rule `{P1 = P2; ...} = 0 :- a(P1, ..), a(P2, ..),
(P1, ..) != (P2, ..)`, joins only one match of each mirrored pair
(`_mirror`): the one whose first swapped atom comes first in its bucket,
which the full join meets first. Each unordered pair is joined, evaluated
and keyed once, and the ground constraints, their order and any error stay
those of the full join.

Rules are evaluated one way, as the least model of the reduct (`_least`).
The atoms true in every model are the well-founded model of the facts and
independent rules (Van Gelder, Ross & Schlipf 1991), found by alternating
that least model; an atom it leaves undecided means negation loops and
raises UnsupportedProgram. Rules grow an index to GROUND_ATOM_BUDGET at most.

The Fact, Rule and Choice statements are grounded once per content and the
last result kept (`_ground_skeleton`), their atoms interned to ints for the
enumerator (`Symbols`). Each constraint statement is compiled against it
once (`_compile_statement`): its ground constraints, keyed for
deduplication, and their `Route` over the interned atoms. Candidates adding
constraints to one prefix share all of it: a ground program lists its
statements' routes, and the enumerator merges them.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass, field
from operator import eq, ge, gt, itemgetter, le, lt, ne

from .syntax import (
    Anon,
    Arith,
    Atom,
    AtomLit,
    CardinalityRule,
    Choice,
    CmpLit,
    Constraint,
    Fact,
    GroundAtom,
    GroundValue,
    Literal,
    Num,
    Rule,
    Statement,
    Sym,
    Term,
    Tup,
    Var,
    ground_atom_key,
    value_order_key,
)


class GroundingError(Exception):
    def __init__(self, message: str, source: str = ""):
        detail = f"{message} in statement: {source}" if source else message
        super().__init__(detail)
        self.message = message
        self.source = source


class UnsupportedProgram(GroundingError):
    """Negation loops: the well-founded model leaves atoms undecided."""

    def __init__(self, undecided):
        atom = min(undecided, key=ground_atom_key)
        super().__init__(f"negation loops through {atom}, which the well-founded model leaves undecided")


GROUND_ATOM_BUDGET = 100_000


@dataclass(frozen=True)
class GroundChoice:
    lower: int
    upper: int | None
    candidates: tuple[GroundAtom, ...]
    source: str = field(default="", compare=False)


@dataclass(frozen=True)
class GroundRule:
    head: GroundAtom
    pos: tuple[GroundAtom, ...]
    neg: tuple[GroundAtom, ...]
    source: str = field(default="", compare=False)


@dataclass(frozen=True)
class GroundConstraint:
    """Violated when all of pos are in the model and none of neg are."""

    pos: tuple[GroundAtom, ...]
    neg: tuple[GroundAtom, ...]
    source: str = field(default="", compare=False)


class Symbols:
    """The skeleton's atoms interned to ints, and its facts, choice groups
    and rules over them, for the enumerator. Built once per skeleton and
    never changed after, so threads share it. Facts, choice candidates and
    rule atoms are interned; any other atom is false in every model. Ids
    follow `ground_atom_key` order, so sorting ids sorts their atoms."""

    __slots__ = ("atom_of", "id_of", "fact_ids", "groups", "slots", "rules", "derivable")

    def __init__(self, facts, choices: list[GroundChoice], rules: list[GroundRule]):
        atoms = dict.fromkeys(itertools.chain(
            facts, *(ch.candidates for ch in choices), *((r.head, *r.pos, *r.neg) for r in rules)))
        self.atom_of = sorted(atoms, key=ground_atom_key)
        id_of = self.id_of = {atom: i for i, atom in enumerate(self.atom_of)}
        self.fact_ids = frozenset(id_of[a] for a in facts)
        self.groups = [(ch.lower, ch.upper, tuple(id_of[c] for c in ch.candidates)) for ch in choices]
        # where each candidate sits: (group, bit of its position) pairs
        self.slots: dict[int, list[tuple[int, int]]] = {}
        for g, (_, _, cands) in enumerate(self.groups):
            for p, c in enumerate(cands):
                self.slots.setdefault(c, []).append((g, 1 << p))
        self.rules = [
            (id_of[r.head], tuple(id_of[a] for a in r.pos), tuple(id_of[a] for a in r.neg))
            for r in rules
        ]
        self.derivable = frozenset(head for head, _, _ in self.rules)


@dataclass(frozen=True)
class Route:
    """One constraint statement's ground constraints over the skeleton's
    atom ids, routed for the enumerator. A constraint needing an uninterned
    atom or negating a fact never fires and is dropped; negated uninterned
    atoms and positive facts always hold and vanish. A constraint left
    empty fails every model (`always_violated`). One or two atoms that only
    a selection makes true prune during search: a dead candidate
    (`forbidden`) or a forbidden pair (`partners`: for an atom id, the
    positions each choice group keeps open once that atom is chosen, one
    int bitmask per group, with its partners' bits cleared). The rest is
    checked on complete models (`deferred`)."""

    always_violated: bool
    forbidden: frozenset[int]
    partners: dict[int, tuple[int, ...]]
    deferred: tuple[tuple[frozenset[int], frozenset[int]], ...]


@dataclass
class GroundProgram:
    facts: frozenset[GroundAtom]
    choices: list[GroundChoice]
    rules: list[GroundRule]
    constraints: list[GroundConstraint]
    possible: frozenset[GroundAtom]
    # the enumerator's view, shared with the skeleton: its interned atoms and
    # the route of each constraint statement, in program order
    symbols: Symbols = field(compare=False, repr=False)
    routes: tuple[Route, ...] = field(compare=False, repr=False)

    @property
    def choice_candidate_count(self) -> int:
        return sum(len(c.candidates) for c in self.choices)


# --------------------------------------------------------------------------
# Compiling statements into joins
#
# Each body is compiled once, before its join runs, into closures over the
# binding dict. Which variables the binding holds is fixed at every point of
# the join order, so each variable occurrence is compiled as either a lookup
# or a first binding, and a failed match needs no undo: whatever it bound is
# overwritten before anything reads it. The same walk is the safety check: a
# variable read before anything binds it raises GroundingError.

class _Index:
    def __init__(self):
        self.by_pred: dict[tuple[str, int], list[GroundAtom]] = {}
        self.atoms: set[GroundAtom] = set()

    def add(self, atom: GroundAtom) -> bool:
        if atom in self.atoms:
            return False
        self.atoms.add(atom)
        self.by_pred.setdefault((atom.pred, atom.arity), []).append(atom)
        return True


def _split_body(body: tuple[Literal, ...]):
    pos = [l.atom for l in body if isinstance(l, AtomLit) and not l.negated]
    neg = [l.atom for l in body if isinstance(l, AtomLit) and l.negated]
    cmps = [l for l in body if isinstance(l, CmpLit)]
    return pos, neg, cmps


def _term_vars(terms) -> set[str]:
    """The variables that evaluating `terms` reads; the anonymous variable,
    which nothing binds, as `_`."""
    out: set[str] = set()
    for term in terms:
        if isinstance(term, Var):
            out.add(term.name)
        elif isinstance(term, Anon):
            out.add("_")
        elif isinstance(term, Tup):
            out |= _term_vars(term.items)
        elif isinstance(term, Arith):
            out |= _term_vars((term.lhs, term.rhs))
    return out


def _require_bound(terms, bound, source: str) -> None:
    """Raise GroundingError unless evaluating `terms` reads only variables
    in `bound`."""
    unsafe = _term_vars(terms) - bound
    if "_" in unsafe:
        raise GroundingError("unsafe variable _", source)
    if unsafe:
        names = ", ".join(sorted(unsafe))
        raise GroundingError(f"unsafe variable{'s' if len(unsafe) > 1 else ''} {names}", source)


def _term_fn(term: Term, source: str):
    """Compile a term into a function of the binding. The caller has checked
    that the binding holds every variable whenever the function runs."""
    if isinstance(term, (Num, Sym)):
        value = term.value if isinstance(term, Num) else term.name
        return lambda binding: value
    if isinstance(term, Var):
        return itemgetter(term.name)
    if isinstance(term, Tup):
        items = term.items
        if len(items) > 1 and all(isinstance(t, Var) for t in items):
            return itemgetter(*(t.name for t in items))
        fns = [_term_fn(t, source) for t in items]
        return lambda binding: tuple([f(binding) for f in fns])
    if isinstance(term, Arith):
        lhs = _term_fn(term.lhs, source)
        rhs = _term_fn(term.rhs, source)
        add = term.op == "+"

        def arith(binding):
            x = lhs(binding)
            y = rhs(binding)
            if not isinstance(x, int) or not isinstance(y, int):
                raise GroundingError("arithmetic over a symbolic constant", source)
            return x + y if add else x - y
        return arith
    raise TypeError(f"not a term: {term!r}")


def _atom_fn(atom: Atom, bound, source: str):
    """Compile an atom whose variables must all be in `bound` into a
    function from the binding to its ground atom."""
    _require_bound(atom.args, bound, source)
    pred = atom.pred
    args = _term_fn(Tup(atom.args), source)
    return lambda binding: GroundAtom(pred, args(binding))


_ORDER_TESTS = {"<": lt, ">": gt, "<=": le, ">=": ge}


def _test_fn(op: str, negated: bool):
    """The comparison of two ground values that a comparison literal makes."""
    if op in ("==", "="):
        test = eq
    elif op == "!=":
        test = ne
    else:
        order = _ORDER_TESTS[op]

        def test(lhs, rhs):
            return order(value_order_key(lhs), value_order_key(rhs))
    if negated:
        return lambda lhs, rhs: not test(lhs, rhs)
    return test


def _cmp_fn(lit: CmpLit, bound, source: str):
    _require_bound((lit.lhs, lit.rhs), bound, source)
    lhs = _term_fn(lit.lhs, source)
    rhs = _term_fn(lit.rhs, source)
    test = _test_fn(lit.op, lit.negated)
    return lambda binding: test(lhs(binding), rhs(binding))


def _step_fn(pattern: Term, bound: set[str], unready: list, source: str):
    """Compile one argument pattern of a positive atom into step(value,
    binding) -> bool, or None when it accepts anything. A variable's first
    occurrence binds it and is added to `bound`; later ones compare. An
    arithmetic pattern reading a variable not bound before it is appended
    to `unready`, which makes the whole matcher unusable."""
    if isinstance(pattern, Var):
        name = pattern.name
        if name in bound:
            return lambda value, binding: binding[name] == value
        bound.add(name)

        def bind(value, binding):
            binding[name] = value
            return True
        return bind
    if isinstance(pattern, Anon):
        return None
    # ground values are int, str or tuple, and values of different kinds
    # never compare equal, so a constant needs no type check
    if isinstance(pattern, (Num, Sym)):
        constant = pattern.value if isinstance(pattern, Num) else pattern.name
        return lambda value, binding: value == constant
    if isinstance(pattern, Tup):
        size = len(pattern.items)
        steps = _steps(pattern.items, bound, unready, source)

        def tup(value, binding):
            if not isinstance(value, tuple) or len(value) != size:
                return False
            for i, step in steps:
                if not step(value[i], binding):
                    return False
            return True
        return tup
    if isinstance(pattern, Arith):
        # arithmetic binds nothing: it reads variables bound before it
        if not _term_vars((pattern,)) <= bound:
            unready.append(pattern)
            return None
        evaluate = _term_fn(pattern, source)
        return lambda value, binding: evaluate(binding) == value
    raise TypeError(f"not a term: {pattern!r}")


def _steps(patterns: tuple[Term, ...], bound: set[str], unready: list, source: str) -> list:
    steps = []
    for i, pattern in enumerate(patterns):
        step = _step_fn(pattern, bound, unready, source)
        if step is not None:
            steps.append((i, step))
    return steps


def _match_fn(atom: Atom, bound: set[str], unready: list, source: str):
    """Compile a positive atom into match(args, binding) -> bool, which
    checks a ground atom's arguments and binds first occurrences. Adds the
    variables it binds to `bound`, and its arithmetic that reads a variable
    not yet bound to `unready`."""
    names = [a.name for a in atom.args if isinstance(a, Var)]
    if len(names) == len(atom.args) and len(set(names)) == len(names) and not bound.intersection(names):
        bound.update(names)

        def bind_all(values, binding):
            binding.update(zip(names, values))
            return True
        return bind_all
    steps = _steps(atom.args, bound, unready, source)

    def match(values, binding):
        for i, step in steps:
            if not step(values[i], binding):
                return False
        return True
    return match


class _Plan:
    """A body compiled for its join, plus the atom it instantiates.

    levels holds one (predicate key, matcher, choice-dependent) triple per
    positive atom, in join order: each pass takes the first remaining atom
    whose arithmetic reads only variables bound before it. atoms holds those
    atoms in join order. negs holds one (choice-dependent, instantiator)
    pair per negated atom and cmps one test per comparison, both in body
    order; bound is the set of variables a full match binds, starting from
    `bound`. A variable that the head, a negated atom or a comparison reads
    must be in it, and the join must be orderable; otherwise GroundingError."""

    __slots__ = ("levels", "atoms", "negs", "cmps", "head", "bound")

    def __init__(self, body, dependent, source, bound=frozenset(), head: Atom | None = None):
        pos, neg, cmps = _split_body(body)
        bound = set(bound)
        self.levels = []
        self.atoms = []
        while pos:
            stuck = []
            for i, atom in enumerate(pos):
                binds, unready = set(bound), []
                match = _match_fn(atom, binds, unready, source)
                if not unready:
                    break
                stuck.append((binds, unready))
            else:
                # name a variable that no remaining atom binds, if one is read
                binders = bound.union(*[binds for binds, _ in stuck])
                for _, unready in stuck:
                    _require_bound(unready, binders, source)
                raise GroundingError("cannot order positive literals for grounding", source)
            del pos[i]
            bound = binds
            key = (atom.pred, atom.arity)
            self.levels.append((key, match, key in dependent))
            self.atoms.append(atom)
        self.head = None if head is None else _atom_fn(head, bound, source)
        self.negs = [((a.pred, a.arity) in dependent, _atom_fn(a, bound, source)) for a in neg]
        self.cmps = [_cmp_fn(c, bound, source) for c in cmps]
        self.bound = bound

    def matches(self, index: _Index, binding: dict, mirror: tuple[int, int] | None = None):
        """Yield once for every way the positive atoms match the index,
        with `binding` extended in place and the matched atoms as a list in
        level order. Both are reused: consume each result before the next.
        Buckets are iterated live: an atom appended to a bucket while a
        level walks it is still matched. With `mirror` = (i, j), level j
        walks its bucket from the position of level i's match on, so only
        the matches whose level-i atom comes no later than their level-j
        atom are yielded (`_mirror`); the index must not grow meanwhile."""
        levels = self.levels
        if not levels:
            yield []
            return
        last = len(levels) - 1
        matched = [None] * len(levels)
        buckets = index.by_pred
        first, second = mirror or (None, None)
        if mirror is not None:
            position = {ga: p for p, ga in enumerate(buckets.get(levels[first][0], ()))}
        iters = [iter(buckets.get(levels[0][0], ()))] + [None] * last
        i = 0
        while True:
            match = levels[i][1]
            for ga in iters[i]:
                if match(ga.args, binding):
                    matched[i] = ga
                    break
            else:
                if i == 0:
                    return
                i -= 1
                continue
            if i == last:
                yield matched
            else:
                i += 1
                bucket = buckets.get(levels[i][0], ())
                if i == second:
                    iters[i] = itertools.islice(bucket, position[matched[first]], None)
                else:
                    iters[i] = iter(bucket)


# --------------------------------------------------------------------------
# Symmetric statements
#
# A constraint statement may be its own mirror image: in `:- a(X), a(Y),
# X != Y.` swapping X and Y gives the same statement, so each pair of
# matches gives one ground constraint twice. Such a statement joins only one
# match of each mirrored pair.

def _mirror(stmt: Constraint | CardinalityRule, plan: _Plan) -> tuple[int, int] | None:
    """The join levels (i, j), i < j, of two positive atoms that a symmetry
    of the statement swaps, or None.

    A symmetry is an involution σ of the variables that maps the atom at
    level i onto the atom at level j argument by argument, fixes every atom
    joined before level i, and maps the body literals and the cardinality
    elements, as multisets, onto themselves. σ then maps each match of the
    join to a match, its mirror, with the same residue and the same element
    outcomes: both give the same dedup key, both fire or neither does, and
    both raise or neither does. The two differ first at level i, so the one
    whose level-i atom comes first in the bucket comes first in the join.
    Keeping the matches whose level-i atom comes no later than their
    level-j atom thus keeps the first match of every dedup key, in order,
    and the first that raises.

    In the body, `==` is `=`, and `=` and `!=` have unordered sides. An
    element's sides are unordered only for `=` and `==`, which are false
    whenever swapping the sides changes them: equal instances of elements
    count once, so swapping the sides of a true `!=` could merge two. For
    the same reason no element may be negated, since `not X = Y` and `X =
    Y` instantiate alike. The body may do no arithmetic: comparisons and
    negated atoms are evaluated only up to the first that decides, so
    arithmetic there could raise on a match and not on its mirror."""
    elements = () if isinstance(stmt, Constraint) else stmt.elements
    terms = [t for lit in stmt.body for t in (lit.atom.args if isinstance(lit, AtomLit) else (lit.lhs, lit.rhs))]
    if _has_arith(terms) or any(el.negated for el in elements):
        return None
    body = Counter(_literal_form(lit, {}) for lit in stmt.body)
    cards = Counter(_element_form(el, {}) for el in elements)
    atoms = plan.atoms
    for i, a in enumerate(atoms):
        for j in range(i + 1, len(atoms)):
            b = atoms[j]
            sigma: dict[str, str] = {}
            if (a != b and (a.pred, a.arity) == (b.pred, b.arity)
                    and all(_swap(x, y, sigma) for x, y in zip(a.args, b.args))
                    and all(_renamed(Tup(c.args), sigma) == Tup(c.args) for c in atoms[:i])
                    and Counter(_literal_form(lit, sigma) for lit in stmt.body) == body
                    and Counter(_element_form(el, sigma) for el in elements) == cards):
                return i, j
    return None


def _has_arith(terms) -> bool:
    return any(isinstance(t, Arith) or isinstance(t, Tup) and _has_arith(t.items) for t in terms)


def _swap(a: Term, b: Term, sigma: dict[str, str]) -> bool:
    """Extend the involution `sigma` so that it maps term a onto term b;
    False when no involution can."""
    if isinstance(a, Var) and isinstance(b, Var):
        return sigma.setdefault(a.name, b.name) == b.name and sigma.setdefault(b.name, a.name) == a.name
    if isinstance(a, Tup) and isinstance(b, Tup):
        return len(a.items) == len(b.items) and all(_swap(x, y, sigma) for x, y in zip(a.items, b.items))
    return a == b


def _renamed(term: Term, sigma: dict[str, str]) -> Term:
    if isinstance(term, Var):
        return Var(sigma.get(term.name, term.name))
    if isinstance(term, Tup):
        return Tup(tuple(_renamed(t, sigma) for t in term.items))
    if isinstance(term, Arith):
        return Arith(term.op, _renamed(term.lhs, sigma), _renamed(term.rhs, sigma))
    return term


def _literal_form(lit: Literal, sigma: dict[str, str]) -> tuple:
    """A body literal renamed by `sigma`, in a form equal for literals
    that hold on the same bindings."""
    if isinstance(lit, AtomLit):
        return lit.negated, lit.atom.pred, _renamed(Tup(lit.atom.args), sigma)
    op = "=" if lit.op == "==" else lit.op
    return lit.negated, op, _sides(lit, sigma, op in ("=", "!="))


def _element_form(el: CmpLit, sigma: dict[str, str]) -> tuple:
    """A cardinality element renamed by `sigma`, in a form equal for
    elements whose true instances are the same."""
    return el.op, _sides(el, sigma, el.op in ("=", "=="))


def _sides(lit: CmpLit, sigma: dict[str, str], unordered: bool):
    lhs, rhs = _renamed(lit.lhs, sigma), _renamed(lit.rhs, sigma)
    return frozenset((lhs, rhs)) if unordered else (lhs, rhs)


# --------------------------------------------------------------------------
# Dependency classification

def _dependent_preds(statements: list[Statement]) -> set[tuple[str, int]]:
    dependent: set[tuple[str, int]] = set()
    for stmt in statements:
        if isinstance(stmt, Choice):
            for el in stmt.elements:
                dependent.add((el.atom.pred, el.atom.arity))
    rules = [s for s in statements if isinstance(s, Rule)]
    changed = True
    while changed:
        changed = False
        for rule in rules:
            key = (rule.head.pred, rule.head.arity)
            if key in dependent:
                continue
            pos, neg, _ = _split_body(rule.body)
            if any((a.pred, a.arity) in dependent for a in pos + neg):
                dependent.add(key)
                changed = True
    return dependent


# --------------------------------------------------------------------------
# The grounder proper

def ground_program(statements: list[Statement]) -> GroundProgram:
    skeleton = _ground_skeleton(tuple(
        (stmt, stmt.source_text) for stmt in statements if isinstance(stmt, (Fact, Rule, Choice))
    ))
    # each dedup key's first constraint, across statements; copying the
    # first statement's dict keeps its keys' stored hashes
    merged: dict[tuple, GroundConstraint] = {}
    routes: list[Route] = []
    for stmt in statements:
        if isinstance(stmt, (Constraint, CardinalityRule)):
            key = (stmt, stmt.source_text)
            compiled = skeleton.constraints.get(key)
            if compiled is None:
                # errors are not stored; threads racing here store equal entries
                compiled = skeleton.constraints[key] = _compile_statement(stmt, skeleton)
            keyed, route = compiled
            if not routes:
                merged = dict(keyed)
            else:
                for dedup_key, cons in keyed.items():
                    merged.setdefault(dedup_key, cons)
            routes.append(route)
    gp = skeleton.program
    return GroundProgram(gp.facts, list(gp.choices), list(gp.rules), list(merged.values()), gp.possible,
                         gp.symbols, tuple(routes))


@dataclass
class _Skeleton:
    """Fact, Rule and Choice statements grounded (`program`, no constraints,
    its atoms interned), the indices constraint statements are grounded
    against, and each one's compiled form so far, keyed by (statement,
    source text): its ground constraints by dedup key, in order, and their
    route."""

    program: GroundProgram
    dependent: set[tuple[str, int]]
    base: _Index
    possible: _Index
    constraints: dict[tuple[Statement, str], tuple[dict[tuple, GroundConstraint], Route]] = field(
        default_factory=dict)


@functools.lru_cache(maxsize=1)
def _ground_skeleton(key: tuple[tuple[Statement, str], ...]) -> _Skeleton:
    """Ground the Fact, Rule and Choice statements that `key` lists."""
    statements = [stmt for stmt, _ in key]
    dependent = _dependent_preds(statements)

    # Check and compile every statement before grounding any, in statement
    # order, so that an unsafe variable is reported whether or not grounding
    # reaches its statement. Facts keep the order they first appear in, so
    # that everything grounded from them comes out in an order that does
    # not depend on hashing.
    facts: dict[GroundAtom, None] = {}
    rules: list[tuple[Rule, _Plan]] = []
    choice_plans: list[tuple[Choice, _Plan, list[_Plan]]] = []
    for stmt in statements:
        source = stmt.source_text
        if isinstance(stmt, Fact):
            facts[_atom_fn(stmt.atom, frozenset(), source)({})] = None
        elif isinstance(stmt, Rule):
            rules.append((stmt, _Plan(stmt.body, dependent, source, head=stmt.head)))
        else:
            body_plan = _Plan(stmt.body, dependent, source)
            choice_plans.append((stmt, body_plan, [
                _Plan(el.conditions, dependent, source, body_plan.bound, el.atom) for el in stmt.elements
            ]))

    independent_rules = [(r, p) for r, p in rules if (r.head.pred, r.head.arity) not in dependent]

    # D0: the well-founded model of the facts and independent rules
    high = _least(facts, independent_rules, frozenset())
    base = _least(facts, independent_rules, high.atoms)
    while (upper := _least(facts, independent_rules, base.atoms)).atoms != high.atoms:
        high, base = upper, _least(facts, independent_rules, upper.atoms)
    if base.atoms != high.atoms:
        raise UnsupportedProgram(high.atoms - base.atoms)

    # Ground the choice rules; bodies and conditions must stay independent.
    choices: list[GroundChoice] = []
    for stmt, body_plan, element_plans in choice_plans:
        _require_independent(stmt.body, dependent, stmt.source_text)
        for el in stmt.elements:
            _require_independent(el.conditions, dependent, stmt.source_text)
        for body_binding in _body_instantiations(body_plan, base, {}, base.atoms):
            candidates: list[GroundAtom] = []
            seen: set[GroundAtom] = set()
            for el_plan in element_plans:
                for el_binding in _body_instantiations(el_plan, base, body_binding, base.atoms):
                    atom = el_plan.head(el_binding)
                    if atom not in seen:
                        seen.add(atom)
                        candidates.append(atom)
            candidates.sort(key=ground_atom_key)
            choices.append(GroundChoice(stmt.lower, stmt.upper, tuple(candidates), stmt.source_text))

    # Possible atoms: facts, choice candidates, then every rule, optimistically.
    seeds = itertools.chain(facts, *(ch.candidates for ch in choices))
    possible = _least(seeds, rules, frozenset())

    # Ground definite rules over the possible atoms.
    ground_rules: list[GroundRule] = []
    seen_rules: set[tuple] = set()
    for stmt, rule_plan in rules:
        for binding, pos_dep, neg_dep in _residual_instances(rule_plan, possible, base):
            head = rule_plan.head(binding)
            key = (head, tuple(pos_dep), tuple(neg_dep))
            if key in seen_rules:
                continue
            seen_rules.add(key)
            ground_rules.append(GroundRule(head, tuple(pos_dep), tuple(neg_dep), stmt.source_text))

    symbols = Symbols(facts, choices, ground_rules)
    program = GroundProgram(frozenset(facts), choices, ground_rules, [], frozenset(possible.atoms), symbols, ())
    return _Skeleton(program, dependent, base, possible)


def _compile_statement(stmt: Constraint | CardinalityRule, skeleton: _Skeleton):
    """A constraint statement's ground constraints by dedup key, and their route."""
    keyed = _ground_constraints(stmt, skeleton)
    return keyed, _route(keyed, skeleton.program.symbols)


def _route(keyed: dict[tuple, GroundConstraint], symbols: Symbols) -> Route:
    """Route ground constraints, given by their dedup keys, as `Route`
    says. An id key lists the constraint's atom ids; only one keyed by its
    sets, which holds an atom the skeleton did not intern, is read atom by
    atom. Reads `symbols` only."""
    id_of = symbols.id_of
    fact_ids = symbols.fact_ids
    derivable = symbols.derivable
    always_violated = False
    forbidden: set[int] = set()
    partners: dict[int, set[int]] = {}
    deferred: list[tuple[frozenset[int], frozenset[int]]] = []
    for key, cons in keyed.items():
        if key and isinstance(key[0], frozenset):
            if not all(a in id_of for a in cons.pos):
                continue
            key = sorted([id_of[a] for a in cons.pos] + [~id_of[a] for a in cons.neg if a in id_of])
        neg = ()
        if key and key[0] < 0:
            # sorted: the negated atoms, as ~id, come first
            neg = [~k for k in key if k < 0]
            if not fact_ids.isdisjoint(neg):
                continue
            pos = [k for k in key if k >= 0 and k not in fact_ids]
        elif fact_ids.isdisjoint(key):
            pos = key
        else:
            pos = [k for k in key if k not in fact_ids]
        if not pos and not neg:
            always_violated = True
        elif neg or len(pos) > 2 or not derivable.isdisjoint(pos):
            deferred.append((frozenset(pos), frozenset(neg)))
        elif len(pos) == 1:
            forbidden.add(pos[0])
        else:
            a, b = pos
            partners.setdefault(a, set()).add(b)
            partners.setdefault(b, set()).add(a)
    slots = symbols.slots
    keep: dict[int, tuple[int, ...]] = {}
    for a, bs in partners.items():
        cleared = [0] * len(symbols.groups)
        for b in bs:
            for g, bit in slots.get(b, ()):
                cleared[g] |= bit
        keep[a] = tuple(~m for m in cleared)
    return Route(always_violated, frozenset(forbidden), keep, tuple(deferred))


def _ground_constraints(stmt: Constraint | CardinalityRule, skeleton: _Skeleton) -> dict[tuple, GroundConstraint]:
    """A constraint's instances, or a cardinality-equality head's instances
    whose count is off, as ground constraints in order, each keyed by its
    dedup key (pos and neg as sets), so each pair of sets comes once."""
    source = stmt.source_text
    stmt_plan = _Plan(stmt.body, skeleton.dependent, source)
    is_constraint = isinstance(stmt, Constraint)
    elements = []
    if not is_constraint:
        for e, el in enumerate(stmt.elements):
            _require_bound((el.lhs, el.rhs), stmt_plan.bound, source)
            # a false element can hide a later true one only if that one
            # instantiates alike, so has the same op, and is negated otherwise
            hides = any(later.op == el.op and later.negated != el.negated for later in stmt.elements[e + 1:])
            elements.append((_term_fn(el.lhs, source), el.op, _term_fn(el.rhs, source),
                             _test_fn(el.op, el.negated), hides))
    id_of = skeleton.program.symbols.id_of
    out: dict[tuple, GroundConstraint] = {}
    mirror = _mirror(stmt, stmt_plan)
    for binding, pos_dep, neg_dep in _residual_instances(stmt_plan, skeleton.possible, skeleton.base, mirror):
        if not is_constraint:
            # ground elements form a set: two element comparisons that
            # instantiate identically collapse to one, as in clingo, and the
            # first decides; only true ones and those that can hide a later
            # one need remembering
            seen_elements: set[tuple] = set()
            true_count = 0
            for lhs_fn, op, rhs_fn, test, hides in elements:
                lhs = lhs_fn(binding)
                rhs = rhs_fn(binding)
                holds = test(lhs, rhs)
                if holds or hides:
                    key = (lhs, op, rhs)
                    if key not in seen_elements:
                        seen_elements.add(key)
                        true_count += holds
            if true_count == stmt.count:
                continue
        key = _dedup_key(pos_dep, neg_dep, id_of)
        if key not in out:
            out[key] = GroundConstraint(tuple(pos_dep), tuple(neg_dep), source)
    return out


def _dedup_key(pos, neg, id_of: dict[GroundAtom, int]) -> tuple:
    """What a constraint is as a pair of sets, pos and neg, in a form equal
    across statements: its sorted atom ids, a negated one as ~id. An atom
    the skeleton did not intern has no id (the shared table is never
    written), so a constraint holding one is keyed by the sets themselves,
    a key no id tuple equals. Every key as a pair of frozensets would cost
    about 13 MB more peak memory on a 4x4 search (BENCH_10.json)."""
    try:
        ids = [id_of[a] for a in pos]
        if neg:
            ids += [~id_of[a] for a in neg]
    except KeyError:
        return frozenset(pos), frozenset(neg)
    ids.sort()
    return tuple(ids)


def _require_independent(body: tuple[Literal, ...], dependent: set[tuple[str, int]], source: str) -> None:
    pos, neg, _ = _split_body(body)
    for atom in itertools.chain(pos, neg):
        if (atom.pred, atom.arity) in dependent:
            raise GroundingError(
                f"choice rule depends on choice-derived atoms ({atom.pred}/{atom.arity})", source
            )


def _body_instantiations(plan: _Plan, index: _Index, initial: dict, negative_against):
    """All bindings extending `initial` whose positive atoms are in `index`
    and whose negated atoms are not in `negative_against`."""
    binding = dict(initial)
    for _ in plan.matches(index, binding):
        if any(neg(binding) in negative_against for _, neg in plan.negs):
            continue
        if not all(cmp(binding) for cmp in plan.cmps):
            continue
        yield dict(binding)


def _residual_instances(plan: _Plan, possible: _Index, base: _Index, mirror: tuple[int, int] | None = None):
    """Instantiate a body over the possible atoms, resolving independent
    literals against the deterministic base. Yields (binding, pos_residue,
    neg_residue) for instances that can still fire in some model; the
    binding is reused, so consume it before the next instance. `mirror`
    restricts the join as `_Plan.matches` says."""
    levels = plan.levels
    cmps = plan.cmps
    negs = plan.negs
    base_atoms = base.atoms
    binding: dict[str, GroundValue] = {}
    for matched in plan.matches(possible, binding, mirror):
        for cmp in cmps:
            if not cmp(binding):
                break
        else:
            pos_dep: list[GroundAtom] = []
            for (_, _, dep), ga in zip(levels, matched):
                if dep:
                    # atoms matched from one index are equal only when
                    # they are the same object
                    for seen in pos_dep:
                        if seen is ga:
                            break
                    else:
                        pos_dep.append(ga)
                elif ga not in base_atoms:
                    break  # independent atom that can never be true
            else:
                neg_dep: list[GroundAtom] = []
                for dep, neg in negs:
                    ga = neg(binding)
                    if dep:
                        if ga not in neg_dep:
                            neg_dep.append(ga)
                    elif ga in base_atoms:
                        break  # negated independent atom that is always true
                else:
                    yield binding, pos_dep, neg_dep


def _least(seeds, rules: list[tuple[Rule, _Plan]], negative_against) -> _Index:
    """The least model of `seeds` and the reduct of `rules`, each with its
    plan, by `negative_against`, forward-chained to a fixpoint."""
    index = _Index()
    for atom in seeds:
        index.add(atom)
    changed = True
    while changed:
        changed = False
        for rule, rule_plan in rules:
            for binding in _body_instantiations(rule_plan, index, {}, negative_against):
                if index.add(rule_plan.head(binding)):
                    changed = True
                    if len(index.atoms) > GROUND_ATOM_BUDGET:
                        message = f"grounding exceeded the budget of {GROUND_ATOM_BUDGET} ground atoms"
                        raise GroundingError(message, rule.source_text)
    return index
