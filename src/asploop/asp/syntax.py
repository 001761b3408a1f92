"""AST for the ASP fragment: terms, literals, statements, and rendering.

The fragment covers exactly what grid-puzzle encodings use: pooled facts,
definite rules, constraints, bounded choice rules, cardinality-equality
heads over comparisons, integer +/- arithmetic, and tuple (in)equality.
Statements carry their source text for diagnostics, but it is left out of
equality and hashing so structural comparison works. Every AST type is a
frozen value type (`asploop.value_types`).
"""

from __future__ import annotations

from typing import Union

from ..value_types import set_field, value_type

# --------------------------------------------------------------------------
# Terms

@value_type(frozen=True)
class Num:
    def __init__(self, value: int):
        set_field(self, "value", value)


@value_type(frozen=True)
class Sym:
    def __init__(self, name: str):
        set_field(self, "name", name)


@value_type(frozen=True)
class Var:
    def __init__(self, name: str):
        set_field(self, "name", name)


@value_type(frozen=True)
class Anon:
    """The anonymous variable `_`; matches anything, binds nothing."""

    def __init__(self):
        pass


@value_type(frozen=True)
class Arith:
    def __init__(self, op: str, lhs: Term, rhs: Term):
        set_field(self, "op", op)  # "+" or "-"
        set_field(self, "lhs", lhs)
        set_field(self, "rhs", rhs)


@value_type(frozen=True)
class Tup:
    def __init__(self, items: tuple[Term, ...]):
        set_field(self, "items", items)


Term = Union[Num, Sym, Var, Anon, Arith, Tup]

# Ground values are plain Python data: int, str (symbolic constant), or a
# tuple of ground values.
GroundValue = Union[int, str, tuple]


@value_type(frozen=True)
class Atom:
    def __init__(self, pred: str, args: tuple[Term, ...] = ()):
        set_field(self, "pred", pred)
        set_field(self, "args", args)

    @property
    def arity(self) -> int:
        return len(self.args)


# --------------------------------------------------------------------------
# Literals

@value_type(frozen=True)
class AtomLit:
    def __init__(self, atom: Atom, negated: bool = False):
        set_field(self, "atom", atom)
        set_field(self, "negated", negated)


@value_type(frozen=True)
class CmpLit:
    def __init__(self, lhs: Term, op: str, rhs: Term, negated: bool = False):
        set_field(self, "lhs", lhs)
        set_field(self, "op", op)  # one of == = != < > <= >=
        set_field(self, "rhs", rhs)
        set_field(self, "negated", negated)


Literal = Union[AtomLit, CmpLit]

CMP_OPS = ("==", "=", "!=", "<=", ">=", "<", ">")


@value_type(frozen=True)
class ChoiceElement:
    def __init__(self, atom: Atom, conditions: tuple[Literal, ...] = ()):
        set_field(self, "atom", atom)
        set_field(self, "conditions", conditions)


# --------------------------------------------------------------------------
# Statements (`source_text` is left out of equality and hashing). A statement
# keeps its hash: `ground_program` hashes every statement on every call.

@value_type(frozen=True, skip_compare=("source_text",), cache_hash=True)
class Fact:
    kind = "fact"

    def __init__(self, atom: Atom, source_text: str = ""):
        set_field(self, "atom", atom)
        set_field(self, "source_text", source_text)


@value_type(frozen=True, skip_compare=("source_text",), cache_hash=True)
class Rule:
    kind = "rule"

    def __init__(self, head: Atom, body: tuple[Literal, ...], source_text: str = ""):
        set_field(self, "head", head)
        set_field(self, "body", body)
        set_field(self, "source_text", source_text)


@value_type(frozen=True, skip_compare=("source_text",), cache_hash=True)
class Constraint:
    kind = "constraint"

    def __init__(self, body: tuple[Literal, ...], source_text: str = ""):
        set_field(self, "body", body)
        set_field(self, "source_text", source_text)


@value_type(frozen=True, skip_compare=("source_text",), cache_hash=True)
class Choice:
    kind = "choice-rule"

    def __init__(self, lower: int, upper: int | None, elements: tuple[ChoiceElement, ...],
                 body: tuple[Literal, ...] = (), source_text: str = ""):
        set_field(self, "lower", lower)
        set_field(self, "upper", upper)  # None means unbounded
        set_field(self, "elements", elements)
        set_field(self, "body", body)
        set_field(self, "source_text", source_text)


@value_type(frozen=True, skip_compare=("source_text",), cache_hash=True)
class CardinalityRule:
    """`{ cmp; ... } = count :- body.` Acts as a per-instance check: whenever
    the body holds, exactly `count` of the instantiated comparisons must be
    true. Derives nothing."""

    kind = "cardinality-head-rule"

    def __init__(self, elements: tuple[CmpLit, ...], count: int, body: tuple[Literal, ...] = (),
                 source_text: str = ""):
        set_field(self, "elements", elements)
        set_field(self, "count", count)
        set_field(self, "body", body)
        set_field(self, "source_text", source_text)


Statement = Union[Fact, Rule, Constraint, Choice, CardinalityRule]


# --------------------------------------------------------------------------
# Ground atoms

@value_type(frozen=True)
class GroundAtom:
    def __init__(self, pred: str, args: tuple[GroundValue, ...] = ()):
        set_field(self, "pred", pred)
        set_field(self, "args", args)
        # the hash of (pred, args), computed once: ground atoms live in the
        # grounder's and the enumerator's sets and dicts
        set_field(self, "_hash", hash((pred, args)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.pred, self.args) == (other.pred, other.args)
        return NotImplemented

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
