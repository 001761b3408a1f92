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

Each statement's join is compiled once, before it runs, into one Python
function (`_Plan`, `_Join`): nested loops over the index buckets in join
order, with every argument test, binding, comparison and cardinality
element inline. Its source holds no program text, so statements of one
shape share one code object. Comparisons run after the full join, in body
order, and every cardinality element is evaluated: deciding either earlier
could skip an instance whose arithmetic raises. A join that tries more than
JOIN_BUDGET atoms raises GroundingError.

A constraint statement's join walks the possible atoms with their interned
ids alongside (`_Buckets`), so it never looks an id up. A level whose atom
has a constant, or a variable an earlier level bound, at a position that
no arithmetic argument precedes walks only the atoms with that value
there, in bucket order: an atom it skips fails that test, and could not
have raised before it, so the matches, their order and the first error
stay those of the full walk. Such a level still counts its whole bucket
against JOIN_BUDGET, so the same joins are refused.

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
once (`_compile_statement`): its join files each ground constraint into the
statement's `Route` over the interned atoms (`_Router`), which is all the
enumerator reads. Its ground constraints as (pos, neg) pairs, keyed for
deduplication, are built only when something reads them, by running the
same join again keeping every key (`_Keyed`). Candidates adding constraints
to one prefix share all of it: a ground program refers to its statements'
compiled forms, the enumerator merges their routes, and their ground
constraints are merged and built only when read (`Constraints`).
"""

from __future__ import annotations

import functools
import itertools
import threading
from collections import Counter
from collections.abc import Mapping
from typing import Callable

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
from ..value_types import FRESH, set_field, value_type


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


@value_type(frozen=True, skip_compare=("source",))
class GroundChoice:
    def __init__(self, lower: int, upper: int | None, candidates: tuple[GroundAtom, ...],
                 source: str = ""):
        set_field(self, "lower", lower)
        set_field(self, "upper", upper)
        set_field(self, "candidates", candidates)
        set_field(self, "source", source)


@value_type(frozen=True, skip_compare=("source",))
class GroundRule:
    def __init__(self, head: GroundAtom, pos: tuple[GroundAtom, ...], neg: tuple[GroundAtom, ...],
                 source: str = ""):
        set_field(self, "head", head)
        set_field(self, "pos", pos)
        set_field(self, "neg", neg)
        set_field(self, "source", source)


@value_type(frozen=True, skip_compare=("source",))
class GroundConstraint:
    """Violated when all of pos are in the model and none of neg are."""

    def __init__(self, pos: tuple[GroundAtom, ...], neg: tuple[GroundAtom, ...], source: str = ""):
        set_field(self, "pos", pos)
        set_field(self, "neg", neg)
        set_field(self, "source", source)


class Symbols:
    """The skeleton's atoms interned to ints, and its facts, choice groups
    and rules over them, for the enumerator. Built once per skeleton and
    never changed after, so threads share it. Facts, choice candidates and
    rule atoms are interned; any other atom is false in every model. Ids
    follow `ground_atom_key` order, so sorting ids sorts their atoms.
    `special` holds the fact and derivable ids, and None, an uninterned
    atom's id: a constraint on them is routed atom by atom. `bits` holds
    each id's bit, one int shared by every mask that sets it."""

    __slots__ = ("atom_of", "id_of", "fact_ids", "groups", "rules", "derivable", "special", "bits")

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
        self.special = self.fact_ids | self.derivable | {None}
        self.bits = [1 << i for i in range(len(self.atom_of))]


@value_type(frozen=True)
class Route:
    """One constraint statement's ground constraints over the skeleton's
    atom ids, routed for the enumerator. A constraint needing an uninterned
    atom or negating a fact never fires and is dropped; negated uninterned
    atoms and positive facts always hold and vanish. A constraint left
    empty fails every model (`always_violated`). One or two atoms that only
    a selection makes true prune during search: a dead candidate
    (`forbidden`) or a forbidden pair (`partners`: for an atom id, the
    int bitmask of the atom ids it cannot be true with). The rest is
    checked on complete models (`deferred`). The statement's join files
    each constraint (`_Router`)."""

    def __init__(self, always_violated: bool, forbidden: frozenset[int], partners: dict[int, int],
                 deferred: tuple[tuple[frozenset[int], frozenset[int]], ...]):
        set_field(self, "always_violated", always_violated)
        set_field(self, "forbidden", forbidden)
        set_field(self, "partners", partners)
        set_field(self, "deferred", deferred)


class Constraints:
    """A ground program's constraints, iterable: each dedup key's first
    (pos, neg) across its constraint statements, in order, as a
    GroundConstraint with its statement's source; `ends` holds len(pairs)
    once each statement's pairs are merged. The length builds none; the
    first iteration builds them all."""

    def __init__(self, pairs: dict[tuple, tuple], ends: list[int], sources: tuple[str, ...]):
        self._pairs, self._ends, self._sources = pairs, ends, sources
        self._built: list[GroundConstraint] | None = None

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self):
        if self._built is None:
            pairs = list(self._pairs.values())
            self._built = [GroundConstraint(pos, neg, source) for start, end, source in zip(
                [0, *self._ends], self._ends, self._sources) for pos, neg in pairs[start:end]]
        return iter(self._built)


@value_type(skip_compare=("sources", "symbols", "routes"), skip_repr=("sources", "symbols", "routes"))
class GroundProgram:
    """A ground program that refers to its skeleton's facts, choices, rules
    and possible atoms, and to each constraint statement's compiled form, in
    program order: its route (`routes`), which is all the enumerator reads,
    and its ground constraints as (pos, neg) by dedup key (`keyed`), built
    on first read (`_Keyed`). `constraints` is merged across statements on
    read (`Constraints`)."""

    def __init__(self, facts: frozenset[GroundAtom], choices: list[GroundChoice], rules: list[GroundRule],
                 possible: frozenset[GroundAtom], keyed: tuple[Mapping[tuple, tuple], ...],
                 sources: tuple[str, ...], symbols: Symbols, routes: tuple[Route, ...]):
        self.facts = facts
        self.choices = choices
        self.rules = rules
        self.possible = possible
        self.keyed = keyed
        self.sources = sources  # each constraint statement's text
        # the enumerator's view, shared with the skeleton: its interned atoms
        # and the route of each constraint statement, in program order
        self.symbols = symbols
        self.routes = routes

    @functools.cached_property
    def constraints(self) -> Constraints:
        # copying the first statement's dict keeps its keys' stored hashes
        merged = self.keyed[0].copy() if self.keyed else {}
        ends = [len(merged)]
        for keyed in self.keyed[1:]:
            for dedup_key, pair in keyed.items():
                merged.setdefault(dedup_key, pair)
            ends.append(len(merged))
        return Constraints(merged, ends, self.sources)

    @property
    def choice_candidate_count(self) -> int:
        return sum(len(c.candidates) for c in self.choices)


# --------------------------------------------------------------------------
# Compiling statements into joins
#
# Each body is compiled once, before its join runs, into the source of one
# Python function: a loop per positive atom in join order, nested, over the
# index bucket of its predicate; each argument's test and first binding
# inline, with variables as locals; then the comparisons, the negated atoms
# and what the join produces. Which variables are bound is fixed at every
# point of the join order, so each variable occurrence is compiled as either
# a test or a first binding. Ordering the body is the safety check: a
# variable read before anything binds it raises GroundingError before any
# source is written (`_Plan`).
#
# The source holds no program text. Predicate names and constants reach the
# function through a tuple, and locals are named by position: v for
# variables, a for matched atoms, i for their ids, k for constants and t for
# temporaries. The source thus depends only on the statement's shape, and
# statements that differ only in names and constants share one code object
# (`_factory`). A generated function keeps no state, so threads share it.
#
# Every loop counts the atoms it tries against JOIN_BUDGET, per call. A
# constraint join's buckets do not grow while it runs, so its levels may
# walk an index by one argument's value (`indexed_loops`); an indexed level
# adds its whole bucket's length to the count as it starts, which is what a
# walk of the whole bucket adds by its end.

JOIN_BUDGET = 1_000_000


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


def _bind_vars(patterns, bound: dict[str, None], unready: list) -> None:
    """Matching `patterns` in order: add to `bound` each variable it binds,
    in the order it binds them, and append to `unready` each arithmetic
    pattern that reads a variable bound neither before it nor by an earlier
    pattern."""
    for pattern in patterns:
        if isinstance(pattern, Var):
            bound.setdefault(pattern.name)
        elif isinstance(pattern, Tup):
            _bind_vars(pattern.items, bound, unready)
        elif isinstance(pattern, Arith) and _term_vars((pattern,)) - bound.keys():
            unready.append(pattern)


class _Plan:
    """A body ordered for its join, plus the atom it instantiates.

    levels holds one (atom, predicate key, choice-dependent) triple per
    positive atom, in join order: each pass takes the first remaining atom
    whose arithmetic reads only variables bound before it. atoms holds those
    atoms. negs holds one (atom, choice-dependent) pair per negated atom and
    cmps the comparisons, both in body order. variables lists the variables
    a full match binds in the order it binds them, starting with `outer`,
    those an enclosing join binds. A variable that the head, a negated atom
    or a comparison reads must be in it, and the join must be orderable;
    otherwise GroundingError."""

    __slots__ = ("levels", "atoms", "negs", "cmps", "head", "outer", "variables", "source")

    def __init__(self, body, dependent, source, outer=(), head: Atom | None = None):
        pos, neg, cmps = _split_body(body)
        bound = dict.fromkeys(outer)
        self.levels = []
        while pos:
            stuck = []
            for i, atom in enumerate(pos):
                binds, unready = dict(bound), []
                _bind_vars(atom.args, binds, unready)
                if not unready:
                    break
                stuck.append((binds, unready))
            else:
                # name a variable that no remaining atom binds, if one is read
                binders = set(bound).union(*[binds for binds, _ in stuck])
                for _, unready in stuck:
                    _require_bound(unready, binders, source)
                raise GroundingError("cannot order positive literals for grounding", source)
            del pos[i]
            bound = binds
            key = (atom.pred, atom.arity)
            self.levels.append((atom, key, key in dependent))
        self.atoms = [atom for atom, _, _ in self.levels]
        names = set(bound)
        if head is not None:
            _require_bound(head.args, names, source)
        for atom in neg:
            _require_bound(atom.args, names, source)
        for cmp in cmps:
            _require_bound((cmp.lhs, cmp.rhs), names, source)
        self.negs = [(atom, (atom.pred, atom.arity) in dependent) for atom in neg]
        self.cmps = cmps
        self.head = head
        self.outer = tuple(outer)
        self.variables = tuple(bound)
        self.source = source


def _index_position(args, bound) -> int | None:
    """The first position of `args` that holds a constant or a variable in
    `bound`, unless an argument before it holds arithmetic; else None."""
    for position, arg in enumerate(args):
        if isinstance(arg, (Num, Sym)) or isinstance(arg, Var) and arg.name in bound:
            return position
        if _has_arith((arg,)):
            return None
    return None


def _symbolic(source: str):
    raise GroundingError("arithmetic over a symbolic constant", source)


def _over_budget(source: str):
    raise GroundingError(f"grounding exceeded the budget of {JOIN_BUDGET} atoms tried in one join", source)


# loops nested in one generated function, below Python's limit of 20 blocks
_NESTED_LOOPS = 16


@functools.lru_cache(maxsize=256)
def _factory(source: str):
    """make(constants, statement source) -> the join function that
    `source` defines, compiled once per source text. The function reads
    this module's globals (GroundAtom, value_order_key, JOIN_BUDGET, ...)."""
    namespace: dict = {}
    exec(compile(source, "<join>", "exec"), globals(), namespace)
    return namespace["make"]


class _Join:
    """The source of one plan's join function, written line by line, and
    the constants it reads (see "Compiling statements into joins")."""

    def __init__(self, plan: _Plan, generator: bool = False):
        self.plan = plan
        self.generator = generator
        # (level, depth) of each function that later levels are nested in
        self.deeper: list[tuple[int, int]] = []
        # each bound variable's local, so far
        self.names = {name: self.local(name) for name in plan.outer}
        self.constants: list = []
        self.temps = 0
        self.lines: list[str] = []
        # lines run once per call, before the loops
        self.prologue: list[str] = []
        self.depth = 2
        # how an instance is dropped: inside the loops, or with no loops
        self.reject = "continue" if plan.levels else "return"

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def local(self, name: str) -> str:
        return f"v{self.plan.variables.index(name)}"

    def constant(self, value) -> str:
        self.constants.append(value)
        return f"k{len(self.constants) - 1}"

    def temp(self) -> str:
        self.temps += 1
        return f"t{self.temps - 1}"

    def term(self, term: Term) -> str:
        """An expression for a term whose variables are all bound. Arithmetic
        raises GroundingError on an operand that is not an integer."""
        if isinstance(term, Num):
            return self.constant(term.value)
        if isinstance(term, Sym):
            return self.constant(term.name)
        if isinstance(term, Var):
            return self.names[term.name]
        if isinstance(term, Tup):
            return self.display(self.term(t) for t in term.items)
        if isinstance(term, Arith):
            operands = []
            for side in (term.lhs, term.rhs):
                expr = self.term(side)
                if not expr.isidentifier():
                    name = self.temp()
                    operands.append((name, f"({name} := {expr})"))
                else:
                    operands.append((expr, expr))
            (x, x_in), (y, y_in) = operands
            return (f"({x} {term.op} {y} if isinstance({x_in}, int) and isinstance({y_in}, int)"
                    " else _symbolic(source))")
        raise TypeError(f"not a term: {term!r}")

    @staticmethod
    def display(items) -> str:
        """A tuple display of the expressions `items`."""
        items = list(items)
        return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"

    def value(self, term: Term) -> str:
        """A name holding the term's value, evaluated here."""
        expr = self.term(term)
        if expr.isidentifier():
            return expr
        name = self.temp()
        self.emit(f"{name} = {expr}")
        return name

    def atom(self, atom: Atom) -> str:
        return f"GroundAtom({self.constant(atom.pred)}, {self.display(self.term(t) for t in atom.args)})"

    @staticmethod
    def compare(lhs: str, op: str, rhs: str, negated: bool) -> str:
        if op in ("=", "=="):
            test = f"{lhs} == {rhs}"
        elif op == "!=":
            test = f"{lhs} != {rhs}"
        else:
            test = f"value_order_key({lhs}) {op} value_order_key({rhs})"
        return f"(not {test})" if negated else f"({test})"

    def test(self, cmp: CmpLit) -> str:
        lhs, rhs = cmp.lhs, cmp.rhs
        if (cmp.op in ("=", "==", "!=") and isinstance(lhs, Tup) and isinstance(rhs, Tup)
                and len(lhs.items) == len(rhs.items) > 0 and not _has_arith((lhs, rhs))):
            # item by item, building neither tuple: nothing here can raise
            ne = cmp.op == "!="
            items = [self.compare(self.term(x), cmp.op, self.term(y), False) for x, y in zip(lhs.items, rhs.items)]
            test = f"({' or '.join(items) if ne else ' and '.join(items)})"
            return f"(not {test})" if cmp.negated else test
        return self.compare(self.term(lhs), cmp.op, self.term(rhs), cmp.negated)

    def match(self, patterns, values: str, indexed: int | None = None) -> None:
        """Unpack `values`, a tuple the size of `patterns`, and test it
        against them in order. A variable's first occurrence is unpacked
        into its local; a later occurrence, a constant, arithmetic or a
        tuple pattern into a temporary that is then tested. The pattern at
        position `indexed` is skipped: the index walked holds only matches."""
        bound = dict.fromkeys(self.names)
        targets, fresh, tests = [], [], []
        for position, pattern in enumerate(patterns):
            if isinstance(pattern, Var) and pattern.name not in bound:
                targets.append(self.local(pattern.name))
                fresh.append(pattern.name)
            elif isinstance(pattern, Anon) or position == indexed:
                targets.append("_")
            else:
                targets.append(self.temp())
                tests.append((pattern, targets[-1]))
            _bind_vars((pattern,), bound, [])
        if any(target != "_" for target in targets):
            self.emit(f"{', '.join(targets)}, = {values}")
        self.names.update((name, self.local(name)) for name in fresh)
        for pattern, name in tests:
            if isinstance(pattern, Tup):
                self.emit(f"if not isinstance({name}, tuple) or len({name}) != {len(pattern.items)}: {self.reject}")
                self.match(pattern.items, name)
            else:
                self.emit(f"if {name} != {self.term(pattern)}: {self.reject}")

    def loops(self) -> None:
        """One loop per level, each nested in the one before, over the
        index `by_pred`. Buckets are walked live: an atom appended to a
        bucket while its loop runs is still tried."""
        self.prologue.append("get = by_pred.get")
        for level, (atom, key, _) in enumerate(self.plan.levels):
            self.nest(level)
            self.emit(f"for a{level} in get({self.constant(key)}, ()):")
            self.depth += 1
            self.emit("tried += 1")
            self.emit("if tried > budget: _over_budget(source)")
            if atom.args:
                self.match(atom.args, f"a{level}.args")

    def indexed_loops(self, mirror: tuple[int, int] | None = None) -> None:
        """One loop per level, each nested in the one before, over the
        fixed index `buckets` (`_Buckets`), reading each atom with its id as
        a{level}, i{level}. A level whose atom has a constant, or a variable
        an earlier level bound, at a position that no arithmetic precedes
        walks only the atoms with that value there, in bucket order, and
        counts the whole bucket against JOIN_BUDGET as it starts. With
        `mirror` = (i, j), level j walks its bucket from the position of
        level i's atom on (`_mirror`), and neither level is narrowed."""
        self.prologue.append("pairs, by_value = buckets.pairs.get, buckets.by_value")
        for level, (atom, key, _) in enumerate(self.plan.levels):
            self.nest(level)
            k = self.constant(key)
            position = None if mirror and level in mirror else _index_position(atom.args, self.names)
            if position is None:
                self.prologue.append(f"b{level} = pairs({k}, ())")
                if mirror and level == mirror[0]:
                    self.emit(f"for p{level}, (a{level}, i{level}) in enumerate(b{level}):")
                elif mirror and level == mirror[1]:
                    self.emit(f"for a{level}, i{level} in itertools.islice(b{level}, p{mirror[0]}, None):")
                else:
                    self.emit(f"for a{level}, i{level} in b{level}:")
                self.depth += 1
                self.emit("tried += 1")
                self.emit("if tried > budget: _over_budget(source)")
            else:
                self.prologue.append(f"n{level} = len(pairs({k}, ()))")
                value = atom.args[position]
                if isinstance(value, Var):
                    self.prologue.append(f"s{level} = by_value({k}, {position})")
                    bucket = f"s{level}.get({self.names[value.name]}, ())"
                else:  # a constant: the same atoms on every pass
                    self.prologue.append(f"b{level} = by_value({k}, {position}).get({self.term(value)}, ())")
                    bucket = f"b{level}"
                self.emit(f"tried += n{level}")
                self.emit("if tried > budget: _over_budget(source)")
                self.emit(f"for a{level}, i{level} in {bucket}:")
                self.depth += 1
            if atom.args:
                self.match(atom.args, f"a{level}.args", position)

    def nest(self, level: int) -> None:
        if level and level % _NESTED_LOOPS == 0:
            # Python nests at most 20 blocks in one function: the levels
            # from here on go in a function of their own
            self.emit(f"def deeper{level}(tried):")
            self.depth += 1
            self.deeper.append((level, self.depth))

    def residue(self) -> tuple[list[str], list[str]]:
        """Emit the checks of an instance over the possible atoms against
        the base, in order: comparisons, independent positive atoms, then
        negated atoms, which an independent one ends. Return the names of
        the choice-dependent positive atoms and negated atoms, which stay.
        Positive atoms matched from one index are equal only when they are
        the same object."""
        plan = self.plan
        for cmp in plan.cmps:
            self.emit(f"if not {self.test(cmp)}: {self.reject}")
        pos = []
        for level, (_, _, dep) in enumerate(plan.levels):
            if dep:
                pos.append(f"a{level}")
            else:
                self.emit(f"if a{level} not in base: {self.reject}")
        neg = []
        for atom, dep in plan.negs:
            if dep:
                neg.append(self.temp())
                self.emit(f"{neg[-1]} = {self.atom(atom)}")
            else:
                self.emit(f"if {self.atom(atom)} in base: {self.reject}")
        return pos, neg

    def distinct(self, target: str, names: list[str], same: str) -> None:
        """Emit `target` = the tuple of `names` in order, each dropped when
        it is `same` as an earlier one."""
        if len(names) < 2:
            self.emit(f"{target} = {self.display(names)}")
            return
        self.emit(f"{target} = [{names[0]}]")
        for k, name in enumerate(names[1:], 1):
            unseen = " and ".join(f"{name} {same} {earlier}" for earlier in names[:k])
            self.emit(f"if {unseen}: {target}.append({name})")
        self.emit(f"{target} = tuple({target})")

    def function(self, params: str) -> Callable:
        """The compiled join function, taking `params`."""
        for level, depth in reversed(self.deeper):
            self.depth = depth
            self.emit("return tried")
            self.depth -= 1
            self.emit(f"tried = {'yield from ' if self.generator else ''}deeper{level}(tried)")
        constants = "".join(f"k{i}, " for i in range(len(self.constants)))
        lines = ["def make(K, source):"]
        if constants:
            lines.append(f"    {constants}= K")
        lines.append(f"    def join({params}):")
        lines += [f"        {line}" for line in ("budget = JOIN_BUDGET", "tried = 0", *self.prologue)]
        lines += self.lines
        lines.append("    return join")
        try:
            make = _factory("\n".join(lines) + "\n")
        except SyntaxError as exc:  # nested past what Python compiles
            raise GroundingError(f"cannot compile the join: {exc.msg}", self.plan.source) from None
        return make(tuple(self.constants), self.plan.source)


def _instances(plan: _Plan) -> Callable:
    """join(by_pred, negative, init): a generator of the body's instances
    over the index `by_pred` whose negated atoms are not in `negative`:
    each one's head atom, or with no head, its values of plan.variables.
    `init` holds the values of plan.outer."""
    join = _Join(plan, generator=True)
    join.loops()
    for atom, _ in plan.negs:
        join.emit(f"if {join.atom(atom)} in negative: {join.reject}")
    for cmp in plan.cmps:
        join.emit(f"if not {join.test(cmp)}: {join.reject}")
    if plan.head is not None:
        join.emit(f"yield {join.atom(plan.head)}")
    else:
        join.emit(f"yield {join.display(join.names[name] for name in plan.variables)}")
    if plan.outer:
        join.prologue.append(f"{', '.join(join.local(name) for name in plan.outer)}, = init")
    return join.function("by_pred, negative, init")


def _rule_instances(plan: _Plan) -> Callable:
    """join(by_pred, base, out): the rule's instances over the possible
    atoms `by_pred` that can still fire, resolved against the base atoms:
    each one's GroundRule, of its choice-dependent body atoms, added to
    `out` under the key (head, pos, neg) unless it is there."""
    join = _Join(plan)
    join.loops()
    pos, neg = join.residue()
    join.distinct("pos", pos, "is not")
    join.distinct("neg", neg, "!=")
    join.emit(f"head = {join.atom(plan.head)}")
    join.emit("key = (head, pos, neg)")
    join.emit("if key not in out:")
    join.emit("    out[key] = GroundRule(head, pos, neg, source)")
    return join.function("by_pred, base, out")


def _constraint_instances(stmt: Constraint | CardinalityRule, plan: _Plan) -> Callable:
    """join(buckets, base, out, router, keep): a constraint's instances, or
    a cardinality-equality head's instances whose count is off, over the
    possible atoms `buckets` that can still fire, resolved against the base
    atoms, each filed in `router` by its dedup key (`_dedup_key`): a key
    of one or two atom ids outside `Symbols.special` inline, and any other
    through `router.file`, once, after its (pos, neg) is added to `out`
    under it. With `keep`, nothing is filed and each key's first (pos, neg)
    is added to `out`, in order. A symmetric statement joins one match of
    each mirrored pair (`_mirror`)."""
    elements = () if isinstance(stmt, Constraint) else stmt.elements
    for el in elements:
        _require_bound((el.lhs, el.rhs), set(plan.variables), plan.source)
    dep = [level for level, (_, _, dependent) in enumerate(plan.levels) if dependent]
    # with at most two choice-dependent positive atoms and no choice-dependent
    # negated one, the dedup key is built here from the ids the buckets carry
    inline = len(dep) <= 2 and not any(dependent for _, dependent in plan.negs)
    join = _Join(plan)
    join.indexed_loops(_mirror(stmt, plan))
    pos, neg = join.residue()
    if elements:
        _count(join, stmt)
    if not inline:
        join.distinct("pos", pos, "is not")
        join.distinct("neg", neg, "!=")
        join.emit("key = _dedup_key(pos, neg, id_of)")
    elif not dep:
        join.emit("pos = neg = key = ()")
    else:
        a, i = f"a{dep[0]}", f"i{dep[0]}"
        one = [f"pos = ({a},)", f"key = ({i},) if {i} is not None else (frozenset(pos), frozenset(neg))"]
        fast, filed = f"{i} not in special", f"forbidden.add({i})"
        if len(dep) > 1:
            b, j = f"a{dep[1]}", f"i{dep[1]}"
            fast = f"{b} is not {a} and {i} not in special and {j} not in special"
            filed = f"partners[{i}] = partner({i}, 0) | bit[{j}]; partners[{j}] = partner({j}, 0) | bit[{i}]"
        # one or two interned atom ids are filed inline, which filing again
        # leaves as it is, so their key is stored only with `keep`
        join.emit(f"if not keep and {fast}:")
        join.emit(f"    {filed}")
        join.emit(f"    {join.reject}")
        join.emit("neg = ()")
        if len(dep) == 1:
            for line in one:
                join.emit(line)
        else:
            # the same atom at both levels is one positive atom
            join.emit(f"if {b} is {a}:")
            for line in one:
                join.emit(f"    {line}")
            join.emit("else:")
            join.emit(f"    pos = ({a}, {b})")
            join.emit(f"    key = ((frozenset(pos), frozenset(neg)) if {i} is None or {j} is None"
                      f" else ({i}, {j}) if {i} < {j} else ({j}, {i}))")
    # a key not filed inline is stored, so that it is filed once; with
    # `keep`, every key is stored and none filed
    join.emit("if key not in out:")
    join.emit("    out[key] = pos, neg")
    join.emit("    if not keep: file(key, pos, neg)")
    join.prologue += [
        "id_of, special, bit, file = router.symbols.id_of, router.symbols.special, router.symbols.bits, router.file",
        "forbidden, partners, partner = router.forbidden, router.partners, router.partners.get"]
    return join.function("buckets, base, out, router, keep")


def _count(join: _Join, stmt: CardinalityRule) -> None:
    """Emit the check that drops an instance with exactly stmt.count true
    elements. Ground elements form a set: two element comparisons that
    instantiate identically collapse to one, as in clingo, and the first
    decides. Every element is evaluated, since a skipped one could be one
    whose arithmetic raises; only where nothing can raise, with no
    arithmetic and no negated element, does a count of 0 stop at the first
    true element."""
    elements = stmt.elements
    if stmt.count == 0 and not any(el.negated for el in elements) and not _has_arith(
            _literal_terms((*stmt.body, *elements))):
        join.emit(f"if not ({' or '.join(join.test(el) for el in elements)}): {join.reject}")
        return
    sides, holds = [], []
    for el in elements:
        sides.append((join.value(el.lhs), join.value(el.rhs)))
        holds.append(join.temp())
        join.emit(f"{holds[-1]} = {join.compare(sides[-1][0], el.op, sides[-1][1], el.negated)}")
    join.emit("n = 0")
    for e, el in enumerate(elements):
        counts = holds[e]
        for d, earlier in enumerate(elements[:e]):
            if earlier.op == el.op:
                same = f"{sides[e][0]} == {sides[d][0]} and {sides[e][1]} == {sides[d][1]}"
                # an earlier element's instance is in the set if it holds,
                # or always if it can hide a later one: one with the same op
                # and the other negation
                hides = any(later.op == earlier.op and later.negated != earlier.negated
                            for later in elements[d + 1:])
                counts += f" and not ({same})" if hides else f" and not ({holds[d]} and {same})"
        join.emit(f"if {counts}: n += 1")
    join.emit(f"if n == {join.constant(stmt.count)}: {join.reject}")


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
    if _has_arith(_literal_terms(stmt.body)) or any(el.negated for el in elements):
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


def _literal_terms(literals) -> list[Term]:
    return [t for lit in literals for t in (lit.atom.args if isinstance(lit, AtomLit) else (lit.lhs, lit.rhs))]


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
    keys = [(stmt, stmt.source_text) for stmt in statements if isinstance(stmt, (Constraint, CardinalityRule))]
    compiled: list[tuple[Mapping[tuple, tuple], Route]] = []
    for key in keys:
        entry = skeleton.constraints.get(key)
        if entry is None:
            # errors are not stored; threads racing here store equal entries
            entry = skeleton.constraints[key] = _compile_statement(key[0], skeleton)
        compiled.append(entry)
    return GroundProgram(skeleton.facts, skeleton.choices, skeleton.rules, skeleton.possible,
                         tuple(keyed for keyed, _ in compiled), tuple(source for _, source in keys),
                         skeleton.symbols, tuple(r for _, r in compiled))


@value_type
class _Skeleton:
    """Fact, Rule and Choice statements grounded, their atoms interned
    (`symbols`), what constraint statements are grounded against, and each
    one's compiled form so far, keyed by (statement, source text): its
    ground constraints as (pos, neg) by dedup key, in order, built on first
    read, and their route. Ground programs share all of it, so none of it
    changes once stored, apart from that first read."""

    def __init__(self, facts: frozenset[GroundAtom], choices: list[GroundChoice], rules: list[GroundRule],
                 possible: frozenset[GroundAtom], symbols: Symbols, dependent: set[tuple[str, int]],
                 base: set[GroundAtom], buckets: _Buckets,
                 constraints: dict[tuple[Statement, str], tuple[Mapping[tuple, tuple], Route]] = FRESH):
        self.facts = facts
        self.choices = choices
        self.rules = rules
        self.possible = possible
        self.symbols = symbols
        self.dependent = dependent
        self.base = base  # the atoms true in every model
        self.buckets = buckets  # the possible atoms, as constraint joins walk them
        self.constraints = {} if constraints is FRESH else constraints


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
    # each rule with its join over an index and its join over the possible atoms
    rules: list[tuple[Rule, Callable, Callable]] = []
    choice_joins: list[tuple[Choice, Callable, list[Callable]]] = []
    for stmt in statements:
        source = stmt.source_text
        if isinstance(stmt, Fact):
            facts[next(_instances(_Plan((), dependent, source, head=stmt.atom))({}, (), ()))] = None
        elif isinstance(stmt, Rule):
            plan = _Plan(stmt.body, dependent, source, head=stmt.head)
            rules.append((stmt, _instances(plan), _rule_instances(plan)))
        else:
            body_plan = _Plan(stmt.body, dependent, source)
            choice_joins.append((stmt, _instances(body_plan), [
                _instances(_Plan(el.conditions, dependent, source, body_plan.variables, el.atom))
                for el in stmt.elements
            ]))

    independent_rules = [rule for rule in rules if (rule[0].head.pred, rule[0].head.arity) not in dependent]

    # D0: the well-founded model of the facts and independent rules
    high = _least(facts, independent_rules, frozenset())
    base = _least(facts, independent_rules, high.atoms)
    while (upper := _least(facts, independent_rules, base.atoms)).atoms != high.atoms:
        high, base = upper, _least(facts, independent_rules, upper.atoms)
    if base.atoms != high.atoms:
        raise UnsupportedProgram(high.atoms - base.atoms)

    # Ground the choice rules; bodies and conditions must stay independent.
    choices: list[GroundChoice] = []
    for stmt, body_join, element_joins in choice_joins:
        _require_independent(stmt.body, dependent, stmt.source_text)
        for el in stmt.elements:
            _require_independent(el.conditions, dependent, stmt.source_text)
        for values in body_join(base.by_pred, base.atoms, ()):
            candidates: list[GroundAtom] = []
            seen: set[GroundAtom] = set()
            for element_join in element_joins:
                for atom in element_join(base.by_pred, base.atoms, values):
                    if atom not in seen:
                        seen.add(atom)
                        candidates.append(atom)
            candidates.sort(key=ground_atom_key)
            choices.append(GroundChoice(stmt.lower, stmt.upper, tuple(candidates), stmt.source_text))

    # Possible atoms: facts, choice candidates, then every rule, optimistically.
    seeds = itertools.chain(facts, *(ch.candidates for ch in choices))
    possible = _least(seeds, rules, frozenset())

    # Ground definite rules over the possible atoms.
    keyed_rules: dict[tuple, GroundRule] = {}
    for _, _, residual_join in rules:
        residual_join(possible.by_pred, base.atoms, keyed_rules)
    ground_rules = list(keyed_rules.values())
    symbols = Symbols(facts, choices, ground_rules)

    return _Skeleton(frozenset(facts), choices, ground_rules, frozenset(possible.atoms),
                     symbols, dependent, base.atoms, _Buckets(possible.by_pred, symbols.id_of))


def _compile_statement(stmt: Constraint | CardinalityRule, skeleton: _Skeleton):
    """A constraint's instances, or a cardinality-equality head's instances
    whose count is off, as (pos, neg) pairs in order, each keyed by its
    dedup key (pos and neg as sets), so each pair of sets comes once, built
    when first read (`_Keyed`); and their route, filed by the join."""
    plan = _Plan(stmt.body, skeleton.dependent, stmt.source_text)
    join = _constraint_instances(stmt, plan)
    router = _Router(skeleton.symbols)
    join(skeleton.buckets, skeleton.base, {}, router, False)
    route = Route(router.always_violated, frozenset(router.forbidden), router.partners, tuple(router.deferred))
    return _Keyed(join, skeleton.buckets, skeleton.base, skeleton.symbols), route


class _Keyed(Mapping):
    """One constraint statement's (pos, neg) pairs by dedup key, in order,
    read-only. The enumerator reads only the route, so the dict is built on
    first read, by running the statement's join again with `keep` and a
    throwaway router, and then kept; threads reading at once build it once.
    It refers to what the join reads and not to the skeleton, which holds
    it, so an evicted skeleton is freed without the cycle collector."""

    __slots__ = ("_args", "_dict", "_lock")

    def __init__(self, join: Callable, buckets: _Buckets, base, symbols: Symbols):
        self._args = join, buckets, base, symbols
        self._dict: dict[tuple, tuple] | None = None
        self._lock = threading.Lock()

    @property
    def _keyed(self) -> dict[tuple, tuple]:
        if self._dict is None:
            with self._lock:
                if self._dict is None:
                    self._dict = self._build()
        return self._dict

    def _build(self) -> dict[tuple, tuple]:
        join, buckets, base, symbols = self._args
        keyed: dict[tuple, tuple] = {}
        join(buckets, base, keyed, _Router(symbols), True)
        return keyed

    def __getitem__(self, key: tuple) -> tuple:
        return self._keyed[key]

    def __iter__(self):
        return iter(self._keyed)

    def __len__(self) -> int:
        return len(self._keyed)

    def items(self):  # the dict's own view: merging reads every item
        return self._keyed.items()

    def copy(self) -> dict[tuple, tuple]:  # a dict's copy, not one lookup per key
        return self._keyed.copy()


class _Buckets:
    """The possible atoms by predicate as constraint joins walk them, each
    paired with its interned id, or None: in bucket order (`pairs`), and
    grouped by their value at one argument position, each group in bucket
    order (`by_value`, built on first use). None changes once built, so
    threads share them; threads racing to build a grouping keep equal ones."""

    __slots__ = ("pairs", "_by_value")

    def __init__(self, by_pred: dict[tuple[str, int], list[GroundAtom]], id_of: dict[GroundAtom, int]):
        id_get = id_of.get
        self.pairs = {key: [(atom, id_get(atom)) for atom in atoms] for key, atoms in by_pred.items()}
        self._by_value: dict[tuple[tuple[str, int], int], dict] = {}

    def by_value(self, key: tuple[str, int], position: int) -> dict:
        groups = self._by_value.get((key, position))
        if groups is None:
            groups = {}
            for pair in self.pairs.get(key, ()):
                groups.setdefault(pair[0].args[position], []).append(pair)
            groups = self._by_value.setdefault((key, position), groups)
        return groups


class _Router:
    """One constraint statement's `Route`, filed by its join: a lone atom
    id or a pair of them inline, unless one is in `Symbols.special`, and
    any other dedup key through `file`, once per key."""

    def __init__(self, symbols: Symbols):
        self.symbols = symbols
        self.always_violated = False
        self.forbidden, self.partners, self.deferred = set(), {}, []

    def file(self, key: tuple, pos: tuple[GroundAtom, ...], neg: tuple[GroundAtom, ...]) -> None:
        """Route one ground constraint by its dedup key, as `Route` says: an
        id key lists its atom ids, a negated one as ~id; only one keyed by
        its sets, which holds an atom the skeleton did not intern, is read
        atom by atom."""
        id_of, fact_ids = self.symbols.id_of, self.symbols.fact_ids
        if key and isinstance(key[0], frozenset):
            if not all(a in id_of for a in pos):
                return
            key = [id_of[a] for a in pos] + [~id_of[a] for a in neg if a in id_of]
        neg = [~k for k in key if k < 0]
        if not fact_ids.isdisjoint(neg):
            return
        pos = [k for k in key if k >= 0 and k not in fact_ids]
        if not pos and not neg:
            self.always_violated = True
        elif neg or len(pos) > 2 or not self.symbols.derivable.isdisjoint(pos):
            self.deferred.append((frozenset(pos), frozenset(neg)))
        elif len(pos) == 1:
            self.forbidden.add(pos[0])
        else:
            a, b = pos
            self.partners[a] = self.partners.get(a, 0) | 1 << b
            self.partners[b] = self.partners.get(b, 0) | 1 << a


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


def _least(seeds, rules: list[tuple[Rule, Callable, Callable]], negative_against) -> _Index:
    """The least model of `seeds` and the reduct of `rules`, each with its
    joins, by `negative_against`, forward-chained to a fixpoint."""
    index = _Index()
    for atom in seeds:
        index.add(atom)
    changed = True
    while changed:
        changed = False
        for rule, derive, _ in rules:
            for head in derive(index.by_pred, negative_against, ()):
                if index.add(head):
                    changed = True
                    if len(index.atoms) > GROUND_ATOM_BUDGET:
                        message = f"grounding exceeded the budget of {GROUND_ATOM_BUDGET} ground atoms"
                        raise GroundingError(message, rule.source_text)
    return index
