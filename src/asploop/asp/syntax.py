"""AST for the ASP fragment: terms, literals, statements, and rendering.

The fragment covers exactly what grid-puzzle encodings use: pooled facts,
definite rules, constraints, bounded choice rules, cardinality-equality
heads over comparisons, integer +/- arithmetic, and tuple (in)equality.
Statement dataclasses carry their source text for diagnostics, but source
positions are excluded from equality so structural comparison works.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

# --------------------------------------------------------------------------
# Terms

@dataclass(frozen=True)
class Num:
    value: int


@dataclass(frozen=True)
class Sym:
    name: str


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Anon:
    """The anonymous variable `_`; matches anything, binds nothing."""


@dataclass(frozen=True)
class Arith:
    op: str  # "+" or "-"
    lhs: "Term"
    rhs: "Term"


@dataclass(frozen=True)
class Tup:
    items: tuple["Term", ...]


Term = Union[Num, Sym, Var, Anon, Arith, Tup]

# Ground values are plain Python data: int, str (symbolic constant), or a
# tuple of ground values.
GroundValue = Union[int, str, tuple]


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple[Term, ...] = ()

    @property
    def arity(self) -> int:
        return len(self.args)


# --------------------------------------------------------------------------
# Literals

@dataclass(frozen=True)
class AtomLit:
    atom: Atom
    negated: bool = False


@dataclass(frozen=True)
class CmpLit:
    lhs: Term
    op: str  # one of == = != < > <= >=
    rhs: Term
    negated: bool = False


Literal = Union[AtomLit, CmpLit]

CMP_OPS = ("==", "=", "!=", "<=", ">=", "<", ">")


@dataclass(frozen=True)
class ChoiceElement:
    atom: Atom
    conditions: tuple[Literal, ...] = ()


# --------------------------------------------------------------------------
# Statements

@dataclass(frozen=True)
class Fact:
    atom: Atom
    source_text: str = field(default="", compare=False)

    kind = "fact"


@dataclass(frozen=True)
class Rule:
    head: Atom
    body: tuple[Literal, ...]
    source_text: str = field(default="", compare=False)

    kind = "rule"


@dataclass(frozen=True)
class Constraint:
    body: tuple[Literal, ...]
    source_text: str = field(default="", compare=False)

    kind = "constraint"


@dataclass(frozen=True)
class Choice:
    lower: int
    upper: int | None  # None means unbounded
    elements: tuple[ChoiceElement, ...]
    body: tuple[Literal, ...] = ()
    source_text: str = field(default="", compare=False)

    kind = "choice-rule"


@dataclass(frozen=True)
class CardinalityRule:
    """`{ cmp; ... } = count :- body.` Acts as a per-instance check: whenever
    the body holds, exactly `count` of the instantiated comparisons must be
    true. Derives nothing."""

    elements: tuple[CmpLit, ...]
    count: int
    body: tuple[Literal, ...] = ()
    source_text: str = field(default="", compare=False)

    kind = "cardinality-head-rule"


Statement = Union[Fact, Rule, Constraint, Choice, CardinalityRule]


# --------------------------------------------------------------------------
# Ground atoms

@dataclass(frozen=True)
class GroundAtom:
    pred: str
    args: tuple[GroundValue, ...] = ()
    # the dataclass hash of (pred, args), computed once: ground atoms live in
    # the grounder's and the enumerator's sets and dicts
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.pred, self.args)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # a str hash differs between processes: recompute it on unpickling
        return GroundAtom, (self.pred, self.args)

    @property
    def arity(self) -> int:
        return len(self.args)

    def __str__(self) -> str:
        return render_ground_atom(self)


def value_order_key(value: GroundValue):
    """Total order over ground values: integers by value, then symbolic
    constants lexicographically, then tuples componentwise."""
    if isinstance(value, bool):  # guard: bool is an int subclass
        value = int(value)
    if isinstance(value, int):
        return (0, value)
    if isinstance(value, str):
        return (1, value)
    return (2, tuple(value_order_key(v) for v in value))


def ground_atom_key(atom: GroundAtom):
    return (atom.pred, tuple(value_order_key(a) for a in atom.args))


def render_ground_value(value: GroundValue) -> str:
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    return "(" + ",".join(render_ground_value(v) for v in value) + ")"


def render_ground_atom(atom: GroundAtom) -> str:
    if not atom.args:
        return atom.pred
    return atom.pred + "(" + ",".join(render_ground_value(a) for a in atom.args) + ")"


# --------------------------------------------------------------------------
# Rendering (the pretty-printer; parse(render(ast)) must reproduce ast)

def render_term(term: Term) -> str:
    if isinstance(term, Num):
        return str(term.value)
    if isinstance(term, Sym):
        return term.name
    if isinstance(term, Var):
        return term.name
    if isinstance(term, Anon):
        return "_"
    if isinstance(term, Arith):
        lhs = render_term(term.lhs)
        rhs = term.rhs
        rhs_text = render_term(rhs)
        # parenthesize a right-nested arithmetic term so "-" stays left-assoc
        if isinstance(rhs, Arith):
            rhs_text = "(" + rhs_text + ")"
        return f"{lhs} {term.op} {rhs_text}"
    if isinstance(term, Tup):
        return "(" + ", ".join(render_term(t) for t in term.items) + ")"
    raise TypeError(f"not a term: {term!r}")


def render_atom(atom: Atom) -> str:
    if not atom.args:
        return atom.pred
    return atom.pred + "(" + ", ".join(render_term(a) for a in atom.args) + ")"


def render_literal(lit: Literal) -> str:
    if isinstance(lit, AtomLit):
        text = render_atom(lit.atom)
    else:
        text = f"{render_term(lit.lhs)} {lit.op} {render_term(lit.rhs)}"
    return ("not " + text) if lit.negated else text


def render_body(body: tuple[Literal, ...]) -> str:
    return ", ".join(render_literal(l) for l in body)


def render_statement(stmt: Statement) -> str:
    if isinstance(stmt, Fact):
        return render_atom(stmt.atom) + "."
    if isinstance(stmt, Rule):
        return f"{render_atom(stmt.head)} :- {render_body(stmt.body)}."
    if isinstance(stmt, Constraint):
        return f":- {render_body(stmt.body)}."
    if isinstance(stmt, Choice):
        parts = []
        for el in stmt.elements:
            if el.conditions:
                parts.append(render_atom(el.atom) + " : " + render_body(el.conditions))
            else:
                parts.append(render_atom(el.atom))
        inner = "{" + "; ".join(parts) + "}"
        lower = f"{stmt.lower} " if stmt.lower > 0 else ""
        upper = f" {stmt.upper}" if stmt.upper is not None else ""
        text = f"{lower}{inner}{upper}"
        if stmt.body:
            text += " :- " + render_body(stmt.body)
        return text + "."
    if isinstance(stmt, CardinalityRule):
        inner = "; ".join(render_literal(e) for e in stmt.elements)
        text = "{" + inner + "}" + f" = {stmt.count}"
        if stmt.body:
            text += " :- " + render_body(stmt.body)
        return text + "."
    raise TypeError(f"not a statement: {stmt!r}")


def render_program(statements: list[Statement]) -> str:
    return "\n".join(render_statement(s) for s in statements) + ("\n" if statements else "")
