"""Grounding: from parsed statements to a variable-free program.

Safety discipline: every variable must be bound by a positive body atom (or,
inside a choice element, by the element's own positive conditions). The
anonymous variable binds nothing and is only allowed in positive atom
argument positions. Violations raise GroundingError naming the variable.

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

    __slots__ = ("atom_of", "id_of", "fact_ids", "groups", "rules", "derivable")

    def __init__(self, facts, choices: list[GroundChoice], rules: list[GroundRule]):
        atoms = dict.fromkeys(itertools.chain(
            facts, *(ch.candidates for ch in choices), *((r.head, *r.pos, *r.neg) for r in rules)))
        self.atom_of = sorted(atoms, key=ground_atom_key)
        id_of = self.id_of = {atom: i for i, atom in enumerate(self.atom_of)}
        self.fact_ids = frozenset(id_of[a] for a in facts)
        self.groups = [(ch.lower, ch.upper, tuple(id_of[c] for c in ch.candidates)) for ch in choices]
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
    (`forbidden`) or a forbidden pair (`partners`). The rest is checked on
    complete models (`deferred`)."""

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
# Variable collection for safety analysis

def _vars_binding(term: Term) -> set[str]:
    """Variables a positive-atom argument position can bind."""
    if isinstance(term, Var):
        return {term.name}
    if isinstance(term, Tup):
        out: set[str] = set()
        for t in term.items:
            out |= _vars_binding(t)
        return out
    return set()


def _vars_all(term: Term) -> set[str]:
    if isinstance(term, Var):
        return {term.name}
    if isinstance(term, (Tup,)):
        out: set[str] = set()
        for t in term.items:
            out |= _vars_all(t)
        return out
    if isinstance(term, Arith):
        return _vars_all(term.lhs) | _vars_all(term.rhs)
    return set()


def _contains_anon(term: Term) -> bool:
    if isinstance(term, Anon):
        return True
    if isinstance(term, Tup):
        return any(_contains_anon(t) for t in term.items)
    if isinstance(term, Arith):
        return _contains_anon(term.lhs) or _contains_anon(term.rhs)
    return False


def _atom_binding_vars(atom: Atom) -> set[str]:
    out: set[str] = set()
    for a in atom.args:
        out |= _vars_binding(a)
    return out


def _atom_all_vars(atom: Atom) -> set[str]:
    out: set[str] = set()
    for a in atom.args:
        out |= _vars_all(a)
    return out


def _atom_arith_vars(atom: Atom) -> set[str]:
    """Variables occurring only under arithmetic inside the atom's arguments;
    these cannot be bound by matching and must come from elsewhere."""
    out: set[str] = set()
    for a in atom.args:
        out |= _vars_all(a) - _vars_binding(a)
    return out


def _cmp_vars(lit: CmpLit) -> set[str]:
    return _vars_all(lit.lhs) | _vars_all(lit.rhs)


def _split_body(body: tuple[Literal, ...]):
    pos = [l.atom for l in body if isinstance(l, AtomLit) and not l.negated]
    neg = [l.atom for l in body if isinstance(l, AtomLit) and l.negated]
    cmps = [l for l in body if isinstance(l, CmpLit)]
    return pos, neg, cmps


def _check_unsafe(needed: set[str], bound: set[str], source: str) -> None:
    unsafe = sorted(needed - bound)
    if unsafe:
        names = ", ".join(unsafe)
        raise GroundingError(f"unsafe variable{'s' if len(unsafe) > 1 else ''} {names}", source)


def _check_body_safety(body: tuple[Literal, ...], bound: set[str], source: str) -> None:
    pos, neg, cmps = _split_body(body)
    for atom in pos:
        _check_unsafe(_atom_arith_vars(atom), bound, source)
        for a in atom.args:
            if isinstance(a, Arith) and _contains_anon(a):
                raise GroundingError("unsafe variable _", source)
    for atom in neg:
        if any(_contains_anon(a) for a in atom.args):
            raise GroundingError("unsafe variable _", source)
        _check_unsafe(_atom_all_vars(atom), bound, source)
    for cmp in cmps:
        if _contains_anon(cmp.lhs) or _contains_anon(cmp.rhs):
            raise GroundingError("unsafe variable _", source)
        _check_unsafe(_cmp_vars(cmp), bound, source)


def check_safety(stmt: Statement) -> None:
    source = stmt.source_text or ""
    if isinstance(stmt, Fact):
        if any(_contains_anon(a) for a in stmt.atom.args):
            raise GroundingError("unsafe variable _", source)
        _check_unsafe(_atom_all_vars(stmt.atom), set(), source)
        return
    if isinstance(stmt, Rule):
        pos, _, _ = _split_body(stmt.body)
        bound = set().union(*[_atom_binding_vars(a) for a in pos]) if pos else set()
        if any(_contains_anon(a) for a in stmt.head.args):
            raise GroundingError("unsafe variable _", source)
        _check_unsafe(_atom_all_vars(stmt.head), bound, source)
        _check_body_safety(stmt.body, bound, source)
        return
    if isinstance(stmt, Constraint):
        pos, _, _ = _split_body(stmt.body)
        bound = set().union(*[_atom_binding_vars(a) for a in pos]) if pos else set()
        _check_body_safety(stmt.body, bound, source)
        return
    if isinstance(stmt, Choice):
        pos, _, _ = _split_body(stmt.body)
        bound = set().union(*[_atom_binding_vars(a) for a in pos]) if pos else set()
        _check_body_safety(stmt.body, bound, source)
        for el in stmt.elements:
            cond_pos, _, _ = _split_body(el.conditions)
            local = bound | (set().union(*[_atom_binding_vars(a) for a in cond_pos]) if cond_pos else set())
            if any(_contains_anon(a) for a in el.atom.args):
                raise GroundingError("unsafe variable _", source)
            _check_unsafe(_atom_all_vars(el.atom), local, source)
            _check_body_safety(el.conditions, local, source)
        return
    if isinstance(stmt, CardinalityRule):
        pos, _, _ = _split_body(stmt.body)
        bound = set().union(*[_atom_binding_vars(a) for a in pos]) if pos else set()
        _check_body_safety(stmt.body, bound, source)
        for el in stmt.elements:
            if _contains_anon(el.lhs) or _contains_anon(el.rhs):
                raise GroundingError("unsafe variable _", source)
            _check_unsafe(_cmp_vars(el), bound, source)
        return
    raise TypeError(f"not a statement: {stmt!r}")


# --------------------------------------------------------------------------
# Compiling statements into joins
#
# Each body is compiled once, before its join runs, into closures over the
# binding dict. Which variables the binding holds is fixed at every point of
# the join order, so each variable occurrence is compiled as either a lookup
# or a first binding, and a failed match needs no undo: whatever it bound is
# overwritten before anything reads it.

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


def _term_fn(term: Term, source: str):
    """Compile a term into a function of the binding. Safety checking has
    made sure the binding holds every variable whenever the function runs."""
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


def _atom_fn(atom: Atom, source: str):
    """Compile an atom into a function from the binding to its ground atom."""
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


def _cmp_fn(lit: CmpLit, source: str):
    lhs = _term_fn(lit.lhs, source)
    rhs = _term_fn(lit.rhs, source)
    test = _test_fn(lit.op, lit.negated)
    return lambda binding: test(lhs(binding), rhs(binding))


def _step_fn(pattern: Term, bound: set[str]):
    """Compile one argument pattern of a positive atom into step(value,
    binding) -> bool, or None when it accepts anything. A variable's first
    occurrence binds it and is added to `bound`; later ones compare."""
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
        steps = _steps(pattern.items, bound)

        def tup(value, binding):
            if not isinstance(value, tuple) or len(value) != size:
                return False
            for i, step in steps:
                if not step(value[i], binding):
                    return False
            return True
        return tup
    if isinstance(pattern, Arith):
        # arith args cannot bind; their variables must already be bound
        evaluate = _term_fn(pattern, "")
        return lambda value, binding: evaluate(binding) == value
    raise TypeError(f"not a term: {pattern!r}")


def _steps(patterns: tuple[Term, ...], bound: set[str]) -> list:
    steps = []
    for i, pattern in enumerate(patterns):
        step = _step_fn(pattern, bound)
        if step is not None:
            steps.append((i, step))
    return steps


def _match_fn(atom: Atom, bound: set[str]):
    """Compile a positive atom into match(args, binding) -> bool, which
    checks a ground atom's arguments and binds first occurrences. Adds the
    variables it binds to `bound`."""
    names = [a.name for a in atom.args if isinstance(a, Var)]
    if len(names) == len(atom.args) and len(set(names)) == len(names) and not bound.intersection(names):
        bound.update(names)

        def bind_all(values, binding):
            binding.update(zip(names, values))
            return True
        return bind_all
    steps = _steps(atom.args, bound)

    def match(values, binding):
        for i, step in steps:
            if not step(values[i], binding):
                return False
        return True
    return match


def _order_for_matching(atoms: list[Atom], initially_bound: set[str], source: str) -> list[Atom]:
    """Order positive atoms so arithmetic arguments only use bound variables."""
    remaining = list(atoms)
    ordered: list[Atom] = []
    bound = set(initially_bound)
    while remaining:
        for i, atom in enumerate(remaining):
            if _atom_arith_vars(atom) <= bound:
                ordered.append(atom)
                bound |= _atom_binding_vars(atom)
                del remaining[i]
                break
        else:
            raise GroundingError("cannot order positive literals for grounding", source)
    return ordered


class _Plan:
    """A body compiled for its join, plus the atom it instantiates.

    levels holds one (predicate key, matcher, choice-dependent) triple per
    positive atom, in `_order_for_matching`'s order; negs one
    (choice-dependent, instantiator) pair per negated atom and cmps one test
    per comparison, both in body order; bound is the set of variables a full
    match binds."""

    __slots__ = ("levels", "negs", "cmps", "head", "bound")

    def __init__(self, body, dependent, source, bound=frozenset(), head: Atom | None = None):
        pos, neg, cmps = _split_body(body)
        bound = set(bound)
        self.levels = []
        for atom in _order_for_matching(pos, bound, source):
            key = (atom.pred, atom.arity)
            self.levels.append((key, _match_fn(atom, bound), key in dependent))
        self.negs = [((a.pred, a.arity) in dependent, _atom_fn(a, source)) for a in neg]
        self.cmps = [_cmp_fn(c, source) for c in cmps]
        self.head = None if head is None else _atom_fn(head, source)
        self.bound = bound

    def matches(self, index: _Index, binding: dict):
        """Yield once for every way the positive atoms match the index,
        with `binding` extended in place and the matched atoms as a list in
        level order. Both are reused: consume each result before the next.
        Buckets are iterated live: an atom appended to a bucket while a
        level walks it is still matched."""
        levels = self.levels
        if not levels:
            yield []
            return
        last = len(levels) - 1
        matched = [None] * len(levels)
        buckets = index.by_pred
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
                iters[i] = iter(buckets.get(levels[i][0], ()))


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
    for stmt in statements:
        check_safety(stmt)
    skeleton = _ground_skeleton(tuple(
        (stmt, stmt.source_text) for stmt in statements if isinstance(stmt, (Fact, Rule, Choice))
    ))
    constraints: list[GroundConstraint] = []
    routes: list[Route] = []
    seen: set[tuple] = set()  # dedup keys, across statements
    for stmt in statements:
        if isinstance(stmt, (Constraint, CardinalityRule)):
            key = (stmt, stmt.source_text)
            compiled = skeleton.constraints.get(key)
            if compiled is None:
                # errors are not stored; threads racing here store equal entries
                compiled = skeleton.constraints[key] = _compile_statement(stmt, skeleton)
            keyed, route = compiled
            constraints += [cons for dedup_key, cons in keyed.items() if dedup_key not in seen]
            seen.update(keyed)
            routes.append(route)
    gp = skeleton.program
    return GroundProgram(gp.facts, list(gp.choices), list(gp.rules), constraints, gp.possible,
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

    # facts in the order they first appear, so that everything grounded
    # from them comes out in an order that does not depend on hashing
    facts: dict[GroundAtom, None] = {}
    for stmt in statements:
        if isinstance(stmt, Fact):
            facts[_atom_fn(stmt.atom, stmt.source_text)({})] = None

    # Each body is compiled on first use, so an unorderable body raises only
    # once grounding reaches it, after any error raised before that point.
    # The key holds every statement, so their ids stay unique while it runs.
    plans: dict[tuple[int, int], _Plan] = {}

    def plan(stmt: Statement, element: int = -1) -> _Plan:
        key = (id(stmt), element)
        compiled = plans.get(key)
        if compiled is None:
            source = stmt.source_text
            if element < 0:
                head = stmt.head if isinstance(stmt, Rule) else None
                compiled = _Plan(stmt.body, dependent, source, head=head)
            else:
                el = stmt.elements[element]
                compiled = _Plan(el.conditions, dependent, source, plan(stmt).bound, el.atom)
            plans[key] = compiled
        return compiled

    rules = [s for s in statements if isinstance(s, Rule)]
    independent_rules = [r for r in rules if (r.head.pred, r.head.arity) not in dependent]

    # D0: the well-founded model of the facts and independent rules
    high = _least(facts, independent_rules, plan, frozenset())
    base = _least(facts, independent_rules, plan, high.atoms)
    while (upper := _least(facts, independent_rules, plan, base.atoms)).atoms != high.atoms:
        high, base = upper, _least(facts, independent_rules, plan, upper.atoms)
    if base.atoms != high.atoms:
        raise UnsupportedProgram(high.atoms - base.atoms)

    # Ground the choice rules; bodies and conditions must stay independent.
    choices: list[GroundChoice] = []
    for stmt in statements:
        if not isinstance(stmt, Choice):
            continue
        _require_independent(stmt.body, dependent, stmt.source_text)
        for el in stmt.elements:
            _require_independent(el.conditions, dependent, stmt.source_text)
        for body_binding in _body_instantiations(plan(stmt), base, {}, base.atoms):
            candidates: list[GroundAtom] = []
            seen: set[GroundAtom] = set()
            for k in range(len(stmt.elements)):
                el_plan = plan(stmt, k)
                for el_binding in _body_instantiations(el_plan, base, body_binding, base.atoms):
                    atom = el_plan.head(el_binding)
                    if atom not in seen:
                        seen.add(atom)
                        candidates.append(atom)
            candidates.sort(key=ground_atom_key)
            choices.append(GroundChoice(stmt.lower, stmt.upper, tuple(candidates), stmt.source_text))

    # Possible atoms: facts, choice candidates, then every rule, optimistically.
    seeds = itertools.chain(facts, *(ch.candidates for ch in choices))
    possible = _least(seeds, rules, plan, frozenset())

    # Ground definite rules over the possible atoms.
    ground_rules: list[GroundRule] = []
    seen_rules: set[tuple] = set()
    for stmt in rules:
        rule_plan = plan(stmt)
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
    return keyed, _route(keyed.values(), skeleton.program.symbols)


def _route(constraints, symbols: Symbols) -> Route:
    """Route ground constraints as `Route` says. Reads `symbols` only."""
    id_of = symbols.id_of
    fact_ids = symbols.fact_ids
    derivable = symbols.derivable
    always_violated = False
    forbidden: set[int] = set()
    partners: dict[int, set[int]] = {}
    deferred: list[tuple[frozenset[int], frozenset[int]]] = []
    for cons in constraints:
        if not all(a in id_of for a in cons.pos):
            continue
        neg = [id_of[a] for a in cons.neg if a in id_of]
        if any(n in fact_ids for n in neg):
            continue
        pos = [p for p in map(id_of.__getitem__, cons.pos) if p not in fact_ids]
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
    return Route(always_violated, frozenset(forbidden),
                 {a: tuple(bs) for a, bs in partners.items()}, tuple(deferred))


def _ground_constraints(stmt: Constraint | CardinalityRule, skeleton: _Skeleton) -> dict[tuple, GroundConstraint]:
    """A constraint's instances, or a cardinality-equality head's instances
    whose count is off, as ground constraints in order, each keyed by its
    dedup key (pos and neg as sets), so each pair of sets comes once."""
    source = stmt.source_text
    stmt_plan = _Plan(stmt.body, skeleton.dependent, source)
    is_constraint = isinstance(stmt, Constraint)
    elements = [] if is_constraint else [
        (_term_fn(el.lhs, source), el.op, _term_fn(el.rhs, source), _test_fn(el.op, el.negated))
        for el in stmt.elements
    ]
    id_of = skeleton.program.symbols.id_of
    out: dict[tuple, GroundConstraint] = {}
    for binding, pos_dep, neg_dep in _residual_instances(stmt_plan, skeleton.possible, skeleton.base):
        if not is_constraint:
            # ground elements form a set: two element comparisons that
            # instantiate identically collapse to one, as in clingo
            seen_elements: set[tuple] = set()
            true_count = 0
            for lhs_fn, op, rhs_fn, test in elements:
                lhs = lhs_fn(binding)
                rhs = rhs_fn(binding)
                key = (lhs, op, rhs)
                if key in seen_elements:
                    continue
                seen_elements.add(key)
                if test(lhs, rhs):
                    true_count += 1
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
        return tuple(sorted([id_of[a] for a in pos] + [~id_of[a] for a in neg]))
    except KeyError:
        return frozenset(pos), frozenset(neg)


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


def _residual_instances(plan: _Plan, possible: _Index, base: _Index):
    """Instantiate a body over the possible atoms, resolving independent
    literals against the deterministic base. Yields (binding, pos_residue,
    neg_residue) for instances that can still fire in some model; the
    binding is reused, so consume it before the next instance."""
    levels = plan.levels
    cmps = plan.cmps
    negs = plan.negs
    base_atoms = base.atoms
    binding: dict[str, GroundValue] = {}
    for matched in plan.matches(possible, binding):
        for cmp in cmps:
            if not cmp(binding):
                break
        else:
            pos_dep: list[GroundAtom] = []
            for (_, _, dep), ga in zip(levels, matched):
                if dep:
                    if ga not in pos_dep:
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


def _least(seeds, rules: list[Rule], plan, negative_against) -> _Index:
    """The least model of `seeds` and the reduct of `rules` by
    `negative_against`, forward-chained to a fixpoint."""
    index = _Index()
    for atom in seeds:
        index.add(atom)
    changed = True
    while changed:
        changed = False
        for rule in rules:
            rule_plan = plan(rule)
            for binding in _body_instantiations(rule_plan, index, {}, negative_against):
                if index.add(rule_plan.head(binding)):
                    changed = True
                    if len(index.atoms) > GROUND_ATOM_BUDGET:
                        message = f"grounding exceeded the budget of {GROUND_ATOM_BUDGET} ground atoms"
                        raise GroundingError(message, rule.source_text)
    return index
