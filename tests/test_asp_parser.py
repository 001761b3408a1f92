from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from asploop.asp import parse_program, parser, render_program, render_statement
from asploop.asp.parser import _parse_block, _parse_whole
from asploop.asp.syntax import (
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
    Num,
    Rule,
    Sym,
    Tup,
    Var,
)


def parse_ok(text):
    result = parse_program(text)
    assert not result.diagnostics, [str(d) for d in result.diagnostics]
    return result.statements


def test_pooled_fact_expands():
    statements = parse_ok("p(a;b;c).")
    assert [s.kind for s in statements] == ["fact"] * 3
    assert {s.atom.args[0].name for s in statements} == {"a", "b", "c"}


def test_tuple_pool_expands_groupwise():
    statements = parse_ok("pair(a, 1; b, 2).")
    assert len(statements) == 2
    assert statements[0].atom.args == (Sym("a"), Num(1))
    assert statements[1].atom.args == (Sym("b"), Num(2))


def test_zero_arity_fact():
    statements = parse_ok("go.")
    assert statements[0].atom == Atom("go")


def test_rule_with_negation():
    (stmt,) = parse_ok("q(X) :- p(X), not r(X).")
    assert stmt.kind == "rule"
    assert stmt.head == Atom("q", (Var("X"),))
    assert stmt.body[1] == AtomLit(Atom("r", (Var("X"),)), negated=True)


def test_constraint_with_arithmetic_comparison():
    (stmt,) = parse_ok(":- p(A1), q(A2), not A1 == A2 - 25.")
    assert stmt.kind == "constraint"
    cmp = stmt.body[2]
    assert isinstance(cmp, CmpLit)
    assert cmp.negated
    assert cmp.rhs == Arith("-", Var("A2"), Num(25))


def test_tuple_inequality():
    (stmt,) = parse_ok(":- p(X, Y), (X, Y) != (a, b).")
    cmp = stmt.body[1]
    assert cmp.op == "!="
    assert cmp.lhs == Tup((Var("X"), Var("Y")))
    assert cmp.rhs == Tup((Sym("a"), Sym("b")))


def test_choice_rule_bounds():
    (stmt,) = parse_ok("1 {pick(X) : item(X)} 1 :- slot(X).")
    assert stmt.kind == "choice-rule"
    assert (stmt.lower, stmt.upper) == (1, 1)
    assert stmt.elements[0].atom.pred == "pick"
    assert stmt.body[0].atom.pred == "slot"


def test_choice_rule_without_upper_bound():
    (stmt,) = parse_ok("1 {pick(X) : item(X)}.")
    assert stmt.upper is None


def test_headless_choice_defaults_to_open_bounds():
    (stmt,) = parse_ok("{pick(X) : item(X)}.")
    assert stmt.lower == 0
    assert stmt.upper is None


def test_cardinality_head_rule():
    (stmt,) = parse_ok("{E = a; P = b} = 1 :- assignment(E, P).")
    assert stmt.kind == "cardinality-head-rule"
    assert stmt.count == 1
    assert len(stmt.elements) == 2
    assert all(isinstance(e, CmpLit) for e in stmt.elements)


def test_comments_and_blank_lines_are_skipped():
    statements = parse_ok("% header\np(a). % trailing\n\n% more\nq(b).")
    assert len(statements) == 2


def test_anonymous_variable():
    (stmt,) = parse_ok(":- p(_, X), X < 2.")
    assert stmt.body[0].atom.args[0] == Anon()


def test_missing_period_is_an_error():
    result = parse_program("p(a)")
    assert result.errors
    assert not result.ok


def test_unbalanced_paren_is_an_error():
    result = parse_program("p(a.")
    assert result.errors


def test_error_carries_position():
    result = parse_program("p(a).\nq(.")
    assert result.errors
    diagnostic = result.errors[0]
    assert diagnostic.line == 2
    assert str(diagnostic).startswith("2:")


@pytest.mark.parametrize(
    "text",
    [
        "p(1..4).",
        "#show p/1.",
        ":~ p(X).",
        "p(X) :- q(X), X = Y * 2.",
        'name("quoted").',
    ],
)
def test_out_of_fragment_constructs_are_unsupported(text):
    result = parse_program(text)
    assert result.unsupported, text
    assert not result.errors, text


@pytest.mark.parametrize(
    "text, diagnostics, atoms",
    [
        ("p($).", [("error", "unexpected character '$'", 1, 3)], []),
        (
            "p :- not not q.",
            [("unsupported", "unsupported construct: double negation", 1, 10)],
            [],
        ),
        (
            "p(a;b) :- q.",
            [("unsupported", "unsupported construct: pooling outside a fact", 1, 8)],
            [],
        ),
        ("p(-X).", [("error", "unary '-' is only supported on integers", 1, 4)], []),
        ("p(-3).", [], [Atom("p", (Num(-3),))]),
        # a constant followed by + or - starts a term, not a 0-ary atom
        ("q :- b - 1.", [("error", "expected an atom or a comparison", 1, 6)], []),
    ],
)
def test_diagnostics_name_the_construct_and_position(text, diagnostics, atoms):
    result = parse_program(text)
    assert [(d.severity, d.message, d.line, d.col) for d in result.diagnostics] == diagnostics
    assert [s.atom for s in result.statements] == atoms


def test_recovery_continues_after_bad_statement():
    result = parse_program("p(a. q(b).")
    assert result.errors
    # the parser resynchronizes at the period and still reads q(b).
    assert any(s.kind == "fact" and s.atom.pred == "q" for s in result.statements)


def test_block_ending_inside_a_statement_joins_the_next_block():
    # `p(1)` has no final '.', so the whole text is the one rule
    (stmt,) = parse_ok("p(1)\n\n:- q.")
    assert stmt == Rule(Atom("p", (Num(1),)), (AtomLit(Atom("q")),))
    assert stmt.source_text == "p ( 1 ) :- q ."


def test_lone_period_block_resyncs_into_the_next_block():
    # the resync skips the '.' and then runs on to the next '.', past q(2)
    result = parse_program("p(1).\n\n.\n\nq(2).\n\nr(3).")
    assert [(d.message, d.line, d.col) for d in result.diagnostics] == [
        ("cannot start a statement with '.'", 3, 1)
    ]
    assert [s.atom.pred for s in result.statements] == ["p", "r"]


def test_each_block_is_tokenized_once(monkeypatch):
    _parse_block.cache_clear()
    tokenized = []

    def counting_tokenize(text):
        tokenized.append(text)
        return original(text)

    original = parser.tokenize
    monkeypatch.setattr(parser, "tokenize", counting_tokenize)
    first = parse_program("p(1).\n\nq(2).")
    second = parse_program("p(1).\n\n\nr(3).")
    assert tokenized == ["p(1).", "q(2).", "\nr(3)."]
    assert [s.atom.pred for s in first.statements + second.statements] == ["p", "q", "p", "r"]


def test_render_round_trip_on_reference(event_ref):
    first = parse_ok(event_ref.full_program)
    rendered = render_program(first)
    second = parse_ok(rendered)
    assert second == first
    assert render_program(second) == rendered


# --------------------------------------------------------------------------
# Property: print . parse . print is a fixed point over generated programs

lowers = st.sampled_from("pqrstuv")
const_names = st.sampled_from(["a", "b", "c", "d", "e25"])
var_names = st.sampled_from(["X", "Y", "Z", "A1", "A2"])


def terms(allow_var=True):
    options = [
        st.builds(Num, st.integers(min_value=0, max_value=99)),
        st.builds(Sym, const_names),
    ]
    if allow_var:
        options.append(st.builds(Var, var_names))
        options.append(st.just(Anon()))
    return st.one_of(options)


def atoms(allow_var=True):
    return st.builds(
        Atom, lowers, st.lists(terms(allow_var), max_size=3).map(tuple)
    )


comparisons = st.builds(
    CmpLit,
    st.builds(Var, var_names),
    st.sampled_from(["==", "!=", "<", ">", "<=", ">="]),
    st.one_of(
        terms(),
        st.builds(Arith, st.sampled_from(["+", "-"]), st.builds(Var, var_names),
                  st.builds(Num, st.integers(min_value=1, max_value=9))),
    ),
    st.booleans(),
)

literals = st.one_of(st.builds(AtomLit, atoms(), st.booleans()), comparisons)
bodies = st.lists(literals, min_size=1, max_size=3).map(tuple)

statements = st.one_of(
    st.builds(Fact, atoms(allow_var=False)),
    st.builds(Rule, atoms(), bodies),
    st.builds(Constraint, bodies),
    st.builds(
        Choice,
        st.integers(min_value=0, max_value=2),
        st.one_of(st.none(), st.integers(min_value=2, max_value=4)),
        st.lists(
            st.builds(ChoiceElement, atoms(), st.lists(literals, max_size=2).map(tuple)),
            min_size=1,
            max_size=2,
        ).map(tuple),
        bodies,
    ),
    st.builds(
        CardinalityRule,
        st.lists(comparisons.map(lambda c: CmpLit(c.lhs, c.op, c.rhs)), min_size=1, max_size=3).map(tuple),
        st.integers(min_value=0, max_value=3),
        bodies,
    ),
)


@given(st.lists(statements, max_size=6))
def test_print_parse_print_fixed_point(program):
    rendered = render_program(program)
    result = parse_program(rendered)
    assert not result.diagnostics, (rendered, [str(d) for d in result.diagnostics])
    assert result.statements == program
    assert render_program(result.statements) == rendered


@given(st.lists(statements, max_size=5))
def test_statement_renderers_agree(program):
    joined = "".join(render_statement(s) + "\n" for s in program)
    assert joined == render_program(program)


# --------------------------------------------------------------------------
# Property: joining the cached block parses equals parsing the whole text

def full_parse(result):
    return (
        [(s, s.source_text) for s in result.statements],
        [(d.severity, d.message, d.line, d.col) for d in result.diagnostics],
    )


blocks = st.one_of(
    st.lists(statements, min_size=1, max_size=3).map(lambda ss: "\n".join(map(render_statement, ss))),
    statements.map(lambda s: render_statement(s)[:-1]),  # missing its final '.'
    st.sampled_from([
        ".",  # resync skips it and runs into the next block
        "$",  # lex error
        "p(a). $",
        "p(a",  # errors at end of input
        ":- p(X),",
        "q :-",
        "p(a. q(b).",  # resyncs within the block
        "% comment only",
        "% one\n% two",
        "",
    ]),
)


@given(st.lists(blocks, min_size=1, max_size=5), st.lists(st.sampled_from(["\n\n", "\n\n\n"]), min_size=4, max_size=4))
def test_block_parse_equals_whole_text_parse(parts, separators):
    text = parts[0] + "".join(sep + block for sep, block in zip(separators, parts[1:]))
    assert full_parse(parse_program(text)) == full_parse(_parse_whole(text))
