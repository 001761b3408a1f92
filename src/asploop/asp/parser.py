"""Tokenizer and recursive-descent parser for the ASP fragment.

Parsing never raises on bad input: malformed or out-of-fragment statements
become diagnostics (severity "error" or "unsupported") and the parser
resynchronizes at the next ".". Generated encodings are routinely messy, so
the caller decides what a diagnostic means.

A solved program is a trajectory's selected blocks plus one candidate,
joined by blank lines, so the same blocks recur from solve to solve:
`parse_program` parses each blank-line-separated block once and joins the
results.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

from .syntax import (
    Anon,
    Arith,
    Atom,
    AtomLit,
    CardinalityRule,
    Choice,
    ChoiceElement,
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
    CMP_OPS,
)


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" or "unsupported"
    message: str
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.severity}: {self.message}"


@dataclass
class ParseResult:
    statements: list[Statement] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def unsupported(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "unsupported"]

    @property
    def ok(self) -> bool:
        return not self.diagnostics


# --------------------------------------------------------------------------
# Tokenizer

@dataclass(frozen=True)
class Token:
    type: str
    text: str
    line: int
    col: int


# Constructs we can name when refusing them. Everything here is valid ASP
# somewhere, just outside the fragment this evaluator implements.
_UNSUPPORTED_TOKENS = {
    "#": "directive",
    "*": "multiplication",
    "/": "division",
    "\\": "modulo",
    "@": "external function call",
    "|": "absolute value or disjunction",
    "..": "interval",
    ":~": "weak constraint",
    "?": "'?' operator",
    "&": "theory atom",
    '"': "quoted string literal",
    "'": "quoted literal",
}

_TWO_CHAR = (":-", ":~", "==", "!=", "<=", ">=", "..")
_ONE_CHAR = ".,;:(){}=<>+-#*/\\@|?&"


class LexError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("NUM", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word == "not":
                ttype = "NOT"
            elif word == "_":
                ttype = "ANON"
            elif word[0] == "_":
                ttype = "USCORE_IDENT"
            elif word[0].isupper():
                ttype = "VAR"
            else:
                ttype = "IDENT"
            tokens.append(Token(ttype, word, start_line, start_col))
            col += j - i
            i = j
            continue
        two = text[i : i + 2]
        if two in _TWO_CHAR:
            tokens.append(Token("OP", two, start_line, start_col))
            i += 2
            col += 2
            continue
        if ch in _ONE_CHAR or ch in "\"'":
            tokens.append(Token("OP", ch, start_line, start_col))
            i += 1
            col += 1
            continue
        raise LexError(f"unexpected character {ch!r}", start_line, start_col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


# --------------------------------------------------------------------------
# Parser

class _StatementError(Exception):
    """Internal: abort the current statement and resync at the next '.'."""

    def __init__(self, diag: Diagnostic):
        self.diag = diag


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        # token index just past the last statement parsed, or past the '.'
        # the last resync stopped on: parsing the tokens from here on does
        # not depend on anything before it
        self.boundary = 0

    # -- token helpers ----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        idx = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[idx]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.type != "EOF":
            self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text or tok.type == "EOF":
            self.check_unsupported(tok)
            raise self.error(f"expected {text!r}, found {tok.text!r}" if tok.text else f"expected {text!r}, found end of input", tok)
        return self.next()

    def error(self, message: str, tok: Token | None = None) -> _StatementError:
        tok = tok or self.peek()
        return _StatementError(Diagnostic("error", message, tok.line, tok.col))

    def unsupported(self, what: str, tok: Token | None = None) -> _StatementError:
        tok = tok or self.peek()
        return _StatementError(Diagnostic("unsupported", f"unsupported construct: {what}", tok.line, tok.col))

    def check_unsupported(self, tok: Token) -> None:
        if tok.type == "USCORE_IDENT":
            raise self.unsupported("underscore-prefixed identifier", tok)
        if tok.type == "OP" and tok.text in _UNSUPPORTED_TOKENS:
            raise self.unsupported(_UNSUPPORTED_TOKENS[tok.text], tok)

    # -- statement-level driver -------------------------------------------

    def parse(self) -> ParseResult:
        result = ParseResult()
        while self.peek().type != "EOF":
            start = self.pos
            try:
                stmts = self.statement()
                end = self.pos
                source = self.source_span(start, end)
                result.statements.extend(replace(s, source_text=source) for s in stmts)
                self.boundary = end
            except _StatementError as exc:
                result.diagnostics.append(exc.diag)
                self.resync(start)
        return result

    def source_span(self, start: int, end: int) -> str:
        toks = self.tokens[start:end]
        return " ".join(t.text for t in toks)

    def resync(self, start: int) -> None:
        # skip to just past the next '.', or to EOF
        if self.pos == start:
            self.pos += 1
        while True:
            tok = self.peek()
            if tok.type == "EOF":
                return
            self.pos += 1
            if tok.type == "OP" and tok.text == ".":
                self.boundary = self.pos
                return

    # -- statements ---------------------------------------------------------

    def statement(self) -> list[Statement]:
        tok = self.peek()
        self.check_unsupported(tok)
        if tok.type == "OP" and tok.text == ":-":
            return [self.constraint()]
        if tok.type == "NUM" or (tok.type == "OP" and tok.text == "{"):
            return self.braced_rule()
        if tok.type == "IDENT":
            return self.fact_or_rule()
        raise self.error(f"cannot start a statement with {tok.text!r}", tok)

    def constraint(self) -> Constraint:
        self.expect(":-")
        body = self.body()
        self.expect(".")
        return Constraint(body=body)

    def fact_or_rule(self) -> list[Statement]:
        pred_tok = self.next()
        pools = self.atom_args_pools()
        nxt = self.peek()
        if nxt.type == "OP" and nxt.text == ".":
            self.next()
            return [Fact(atom=Atom(pred_tok.text, args)) for args in pools]
        if nxt.type == "OP" and nxt.text == ":-":
            if len(pools) != 1:
                raise self.unsupported("pooling outside a fact", nxt)
            self.next()
            body = self.body()
            self.expect(".")
            return [Rule(head=Atom(pred_tok.text, pools[0]), body=body)]
        raise self.error(f"expected '.' or ':-' after atom, found {nxt.text!r}", nxt)

    def braced_rule(self) -> list[Statement]:
        lower = 0
        tok = self.peek()
        if tok.type == "NUM":
            lower = int(self.next().text)
        self.expect("{")
        elements: list[tuple[object, tuple[Literal, ...] | None]] = []
        if not (self.peek().type == "OP" and self.peek().text == "}"):
            while True:
                elements.append(self.brace_element())
                tok = self.peek()
                if tok.type == "OP" and tok.text == ";":
                    self.next()
                    continue
                break
        self.expect("}")
        nxt = self.peek()
        if nxt.type == "OP" and nxt.text == "=":
            # cardinality-equality head
            self.next()
            count_tok = self.peek()
            if count_tok.type != "NUM":
                raise self.error(f"expected an integer after '=', found {count_tok.text!r}", count_tok)
            count = int(self.next().text)
            body: tuple[Literal, ...] = ()
            if self.peek().text == ":-":
                self.next()
                body = self.body()
            self.expect(".")
            cmps: list[CmpLit] = []
            for item, conds in elements:
                if not isinstance(item, CmpLit) or conds:
                    raise self.error("cardinality-equality head elements must be comparisons", nxt)
                cmps.append(item)
            return [CardinalityRule(elements=tuple(cmps), count=count, body=body)]
        upper: int | None = None
        if nxt.type == "NUM":
            upper = int(self.next().text)
        body = ()
        if self.peek().text == ":-":
            self.next()
            body = self.body()
        self.expect(".")
        choice_elements: list[ChoiceElement] = []
        for item, conds in elements:
            if isinstance(item, CmpLit):
                raise self.error("choice elements must be atoms", nxt)
            choice_elements.append(ChoiceElement(atom=item, conditions=conds or ()))
        return [Choice(lower=lower, upper=upper, elements=tuple(choice_elements), body=body)]

    def brace_element(self) -> tuple[object, tuple[Literal, ...] | None]:
        """One `{...}` element: either `atom [: conditions]` or a comparison."""
        item = self.atom_or_comparison()
        if isinstance(item, AtomLit):
            conds: tuple[Literal, ...] = ()
            if self.peek().type == "OP" and self.peek().text == ":":
                self.next()
                conds = self.body()
            return (item.atom, conds)
        return (item, None)

    # -- bodies and literals ------------------------------------------------

    def body(self) -> tuple[Literal, ...]:
        lits = [self.literal()]
        while self.peek().type == "OP" and self.peek().text == ",":
            self.next()
            lits.append(self.literal())
        return tuple(lits)

    def literal(self) -> Literal:
        negated = False
        if self.peek().type == "NOT":
            self.next()
            if self.peek().type == "NOT":
                raise self.unsupported("double negation")
            negated = True
        lit = self.atom_or_comparison()
        if isinstance(lit, AtomLit):
            return AtomLit(atom=lit.atom, negated=negated)
        return CmpLit(lhs=lit.lhs, op=lit.op, rhs=lit.rhs, negated=negated)

    def atom_or_comparison(self) -> AtomLit | CmpLit:
        tok = self.peek()
        term, was_atom_shape = self.term_or_atom()
        if self._cmp_op_next():
            op = self.next().text
            rhs = self.term()
            if was_atom_shape and isinstance(term, Sym):
                pass  # plain constant on the left of a comparison is fine
            elif was_atom_shape:
                raise self.error("comparison over a compound atom is not supported", tok)
            return CmpLit(lhs=term, op=op, rhs=rhs)
        if was_atom_shape:
            if isinstance(term, Sym):
                return AtomLit(atom=Atom(term.name, ()))
            assert isinstance(term, _FuncShape)
            return AtomLit(atom=Atom(term.pred, term.args))
        raise self.error("expected an atom or a comparison", tok)

    def _cmp_ahead(self, ahead: int) -> bool:
        t = self.peek(ahead)
        return t.type == "OP" and t.text in CMP_OPS

    def _cmp_op_next(self) -> bool:
        return self._cmp_ahead(0)

    # -- terms ----------------------------------------------------------------

    def term(self) -> Term:
        term, was_atom_shape = self.term_or_atom()
        if was_atom_shape and not isinstance(term, Sym):
            raise self.error("function terms are not supported here")
        return term

    def term_or_atom(self) -> tuple[Term, bool]:
        """Parse an additive term. The bool flags whether the parse could also
        be read as an atom (bare identifier or identifier with arguments)."""
        left, atom_shape = self.primary()
        while self.peek().type == "OP" and self.peek().text in ("+", "-"):
            op = self.next().text
            right, _ = self.primary()
            if isinstance(left, _FuncShape) or isinstance(right, _FuncShape):
                raise self.error("arithmetic over a function term is not supported")
            left = Arith(op=op, lhs=left, rhs=right)
            atom_shape = False
        return left, atom_shape

    def primary(self) -> tuple[Term, bool]:
        tok = self.peek()
        self.check_unsupported(tok)
        if tok.type == "NUM":
            self.next()
            return Num(int(tok.text)), False
        if tok.type == "VAR":
            self.next()
            return Var(tok.text), False
        if tok.type == "ANON":
            self.next()
            return Anon(), False
        if tok.type == "OP" and tok.text == "-":
            self.next()
            inner = self.peek()
            if inner.type == "NUM":
                self.next()
                return Num(-int(inner.text)), False
            raise self.error("unary '-' is only supported on integers", inner)
        if tok.type == "IDENT":
            self.next()
            if self.peek().type == "OP" and self.peek().text == "(":
                pools = self.atom_args_pools()
                if len(pools) != 1:
                    raise self.unsupported("pooling outside a fact", tok)
                return _FuncShape(tok.text, pools[0]), True
            return Sym(tok.text), True
        if tok.type == "OP" and tok.text == "(":
            self.next()
            items = [self.term()]
            while self.peek().type == "OP" and self.peek().text == ",":
                self.next()
                items.append(self.term())
            self.expect(")")
            if len(items) == 1:
                return items[0], False
            return Tup(items=tuple(items)), False
        raise self.error(f"expected a term, found {tok.text!r}", tok)

    def atom_args_pools(self) -> list[tuple[Term, ...]]:
        """Parse `( t, t ; t, t ; ... )` after a predicate name; returns one
        tuple of terms per pool alternative. No parens means zero arity."""
        if not (self.peek().type == "OP" and self.peek().text == "("):
            return [()]
        self.next()
        pools: list[tuple[Term, ...]] = []
        current: list[Term] = []
        if self.peek().type == "OP" and self.peek().text == ")":
            raise self.error("empty argument list")
        while True:
            current.append(self.term())
            tok = self.peek()
            if tok.type == "OP" and tok.text == ",":
                self.next()
                continue
            if tok.type == "OP" and tok.text == ";":
                self.next()
                pools.append(tuple(current))
                current = []
                continue
            if tok.type == "OP" and tok.text == ")":
                self.next()
                pools.append(tuple(current))
                return pools
            self.check_unsupported(tok)
            raise self.error(f"expected ',', ';' or ')' in arguments, found {tok.text!r}", tok)


@dataclass(frozen=True)
class _FuncShape:
    """Transient parse node: identifier with arguments, contextually either an
    atom or (rejected) a function term. Never leaves the parser."""

    pred: str
    args: tuple[Term, ...]


def parse_program(text: str) -> ParseResult:
    """Parse a full program. Never raises on malformed statements; returns
    them as diagnostics instead so callers can decide severity.

    Each block between blank lines comes from `_parse_block`'s cache. The
    whole text is parsed at once only where joining the block parses could
    differ from it: a block before the last ends inside a statement (`p(1)`
    then `:- q.` is the rule `p(1) :- q.`, and a resync runs on into the
    next block), or a block does not tokenize."""
    blocks = text.split("\n\n")
    last = len(blocks) - 1
    result = ParseResult()
    offset = 0
    for index, block in enumerate(blocks):
        parsed = _parse_block(block)
        if parsed is None or not (parsed[2] or index == last):
            return _parse_whole(text)
        statements, diagnostics, _ = parsed
        result.statements.extend(statements)
        result.diagnostics.extend(replace(d, line=d.line + offset) for d in diagnostics)
        offset += block.count("\n") + 2
    return result


@functools.lru_cache(maxsize=256)
def _parse_block(block: str) -> tuple[tuple[Statement, ...], tuple[Diagnostic, ...], bool] | None:
    """One block's statements and diagnostics, diagnostic lines counted from
    the block's first line, and whether the block ends between statements;
    None when it does not tokenize. A block's tokens are those of the same
    span of the whole text: no token or comment spans a blank line."""
    try:
        parser = _Parser(block)
    except LexError:
        return None
    result = parser.parse()
    return tuple(result.statements), tuple(result.diagnostics), parser.boundary == len(parser.tokens) - 1


def _parse_whole(text: str) -> ParseResult:
    try:
        return _Parser(text).parse()
    except LexError as exc:
        result = ParseResult()
        result.diagnostics.append(Diagnostic("error", exc.message, exc.line, exc.col))
        return result


def parse_ground_atom(text: str) -> GroundAtom:
    """Parse a single ground atom like `assignment(anniversary,susan,75)`.

    Used to normalize atoms printed by an external solver. Raises ValueError
    on anything that is not a ground atom. Parsed whole, outside the block
    cache: a solver prints many atoms, each seen once.
    """
    result = _parse_whole(text.strip() + ".")
    if result.diagnostics or len(result.statements) != 1 or not isinstance(result.statements[0], Fact):
        raise ValueError(f"not a ground atom: {text!r}")
    atom = result.statements[0].atom
    values = []
    for arg in atom.args:
        values.append(_term_to_value(arg, text))
    return GroundAtom(pred=atom.pred, args=tuple(values))


def _term_to_value(term: Term, origin: str):
    if isinstance(term, Num):
        return term.value
    if isinstance(term, Sym):
        return term.name
    if isinstance(term, Tup):
        return tuple(_term_to_value(t, origin) for t in term.items)
    raise ValueError(f"not ground: {origin!r}")
