from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import asploop
from asploop.asp import (
    BruteForceRefusal,
    EnumerationBudgetError,
    GroundingError,
    brute_force_models,
    enumerate_models,
    ground_atom_key,
    ground_program,
    parse_ground_atom,
    parse_program,
    render_ground_atom,
)


def grounded(text):
    result = parse_program(text)
    assert not result.diagnostics, [str(d) for d in result.diagnostics]
    return ground_program(result.statements)


def models_of(text, **kwargs):
    models, exhausted = enumerate_models(grounded(text), **kwargs)
    assert exhausted
    return {frozenset(render_ground_atom(a) for a in model) for model in models}


def count_of(text):
    return len(models_of(text))


def test_facts_and_rules_give_one_model():
    models = models_of("p(a;b). q(X) :- p(X). r :- q(a), q(b).")
    assert models == {frozenset({"p(a)", "p(b)", "q(a)", "q(b)", "r"})}


def test_pick_exactly_one():
    assert count_of("item(a;b;c). 1 {pick(X) : item(X)} 1.") == 3


def test_choice_zero_to_two():
    # C(3,0) + C(3,1) + C(3,2)
    assert count_of("item(a;b;c). 0 {pick(X) : item(X)} 2.") == 7


def test_choice_lower_bound_only():
    assert count_of("item(a;b;c). 2 {pick(X) : item(X)}.") == 4


def test_headless_choice_is_free():
    assert count_of("item(a;b;c). {pick(X) : item(X)}.") == 8


def test_choice_body_gates_the_choice():
    models = models_of("item(a). 1 {pick(X) : item(X)} 1 :- go.")
    assert models == {frozenset({"item(a)"})}


def test_constraint_prunes():
    assert count_of("item(a;b;c). 1 {pick(X) : item(X)} 1. :- pick(b).") == 2


def test_arithmetic_guard():
    text = (
        "slot(1;2;3). 1 {at(X) : slot(X)} 1. "
        ":- at(X), not X == 1 + 1."
    )
    assert models_of(text) == {
        frozenset({"slot(1)", "slot(2)", "slot(3)", "at(2)"})
    }


def test_tuple_guard():
    text = (
        "p(a;b). q(a;b). 1 {m(X, Y) : p(X), q(Y)} 1. "
        ":- m(X, Y), (X, Y) != (b, a)."
    )
    assert models_of(text) == {
        frozenset({"p(a)", "p(b)", "q(a)", "q(b)", "m(b,a)"})
    }


def test_negation_in_rule_body():
    models = models_of(
        "item(a;b). banned(b). ok(X) :- item(X), not banned(X)."
    )
    assert models == {frozenset({"item(a)", "item(b)", "banned(b)", "ok(a)"})}


def test_negation_over_chosen_atoms():
    text = (
        "item(a;b). {pick(X) : item(X)}. "
        "rest(X) :- item(X), not pick(X). "
        ":- rest(a), rest(b)."
    )
    assert count_of(text) == 3


def test_cardinality_head_forbids_equal_pair():
    text = (
        "color(red;blue). "
        "1 {paint(left, C) : color(C)} 1. "
        "1 {paint(right, C) : color(C)} 1. "
        "{C1 = C2} = 0 :- paint(left, C1), paint(right, C2)."
    )
    assert count_of(text) == 2


def test_cardinality_head_counts_true_comparisons():
    text = (
        "v(1;2). 1 {a(X) : v(X)} 1. 1 {b(X) : v(X)} 1. "
        "{A = 1; B = 2} = 1 :- a(A), b(B)."
    )
    # exactly one of a(1), b(2) may hold
    models = models_of(text)
    assert len(models) == 2
    for model in models:
        assert ("a(1)" in model) != ("b(2)" in model)


def test_cardinality_elements_collapse_as_a_set():
    # both elements ground to Y = a, so they count once, not twice
    text = "item(a;b). 1 {pick(Y) : item(Y)} 1. {Y = a; Y = a} = 1 :- pick(Y)."
    models = models_of(text)
    assert len(models) == 1
    assert "pick(a)" in next(iter(models))


def test_unsat_program_has_no_models():
    assert count_of("item(a). 1 {pick(X) : item(X)} 1. :- pick(a).") == 0


def test_cap_truncates_enumeration():
    gp = grounded("item(a;b;c). {pick(X) : item(X)}.")
    models, exhausted = enumerate_models(gp, cap=3)
    assert not exhausted
    assert len(models) == 4
    models, exhausted = enumerate_models(gp, cap=8)
    assert exhausted
    assert len(models) == 8


def test_node_budget_raises():
    gp = grounded("item(a;b;c;d;e). {pick(X) : item(X)}.")
    with pytest.raises(EnumerationBudgetError):
        enumerate_models(gp, node_budget=3)


def test_unsafe_variable_is_a_grounding_error():
    result = parse_program(":- item(X), not X == Y.")
    assert not result.diagnostics
    with pytest.raises(GroundingError, match="unsafe variable Y"):
        ground_program(result.statements)


def test_unsafe_head_variable_is_a_grounding_error():
    result = parse_program("q(X, Y) :- item(X).")
    with pytest.raises(GroundingError, match="unsafe variable"):
        ground_program(result.statements)


# Join shapes the compiled matcher handles itself: a repeated variable in one
# atom, a tuple pattern with an anonymous part, arithmetic in a positive
# atom, ordering across numbers and symbols, and arithmetic over a symbolic
# constant from a rule head, a body comparison and a cardinality element.
# Each case gives its models projected on one predicate, or the error.
JOIN_CASES = [
    ("e(1,1). e(1,2). e(2,2). loop(X) :- e(X, X).", "loop", {("loop(1)", "loop(2)")}),
    ("p((a,1)). p((b,2)). p(c). q(X) :- p((X, _)).", "q", {("q(a)", "q(b)")}),
    ("n(1;2;3). m(2;3;4). s(X) :- n(X), m(X+1).", "s", {("s(1)", "s(2)", "s(3)")}),
    ("v(1;a). 1 {s(X) : v(X)} 1. :- s(X), X < a.", "s", {("s(a)",)}),
    ("v(1;a). w(X+1) :- v(X).", "w", "arithmetic over a symbolic constant"),
    ("v(1;a). w(X) :- v(X), X + 1 > 0.", "w", "arithmetic over a symbolic constant"),
    # the instance for 1 already has one true element, one more than the
    # count, and its second element must still be evaluated for `a`
    ("v(1;a). {X = X; X + 1 = 5} = 0 :- v(X).", "v", "arithmetic over a symbolic constant"),
]


@pytest.mark.parametrize(
    "text, pred, expected", JOIN_CASES, ids=[f"case{i}" for i in range(len(JOIN_CASES))]
)
def test_compiled_join_shapes(text, pred, expected):
    if isinstance(expected, str):
        with pytest.raises(GroundingError, match=expected):
            grounded(text)
        return
    shown = {tuple(sorted(a for a in model if a.startswith(pred + "("))) for model in models_of(text)}
    assert shown == expected


def test_ground_order_does_not_depend_on_string_hashing():
    script = (
        "import json\n"
        "from asploop import fixtures\n"
        "from asploop.asp import ground_program, parse_program\n"
        "text = fixtures.reference_blocks('event_planning').full_program\n"
        "gp = ground_program(parse_program(text).statements)\n"
        "print(json.dumps([[str(r.head), list(map(str, r.pos)), list(map(str, r.neg))] for r in gp.rules]))\n"
        "print(json.dumps([[list(map(str, c.pos)), list(map(str, c.neg))] for c in gp.constraints]))\n"
    )
    src = str(Path(asploop.__file__).resolve().parent.parent)
    outputs = []
    for seed in ("7", "8"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert len(json.loads(outputs[0].splitlines()[1])) > 1000


def test_brute_force_refuses_large_spaces():
    gp = grounded("item(a;b;c). {pick(X) : item(X)}.")
    with pytest.raises(BruteForceRefusal):
        brute_force_models(gp, bound=4)


@pytest.mark.parametrize(
    "text",
    [
        "p(a;b). q(X) :- p(X).",
        "item(a;b;c). 1 {pick(X) : item(X)} 1. :- pick(b).",
        "item(a;b). {pick(X) : item(X)}. ok(X) :- item(X), not pick(X).",
        "v(1;2;3). 1 {a(X) : v(X)} 1. 1 {b(X) : v(X)} 1. {A = B} = 0 :- a(A), b(B).",
        "slot(1;2). 1 {at(X) : slot(X)} 1. :- at(X), X >= 2.",
    ],
)
def test_enumeration_matches_brute_force(text):
    gp = grounded(text)
    models, exhausted = enumerate_models(gp)
    assert exhausted
    assert set(models) == set(brute_force_models(gp))


def test_ground_atom_round_trip():
    atom = parse_ground_atom("assignment(wedding, herbert, 50)")
    assert atom.pred == "assignment"
    assert atom.args == ("wedding", "herbert", 50)
    assert render_ground_atom(atom) == "assignment(wedding,herbert,50)"


def test_ground_atom_key_orders_numbers_before_symbols():
    atoms = [parse_ground_atom(t) for t in ["p(z)", "p(10)", "p(2)", "p(a)"]]
    ordered = sorted(atoms, key=ground_atom_key)
    assert [render_ground_atom(a) for a in ordered] == [
        "p(2)",
        "p(10)",
        "p(a)",
        "p(z)",
    ]


# --------------------------------------------------------------------------
# Properties

BASE_TEXT = (
    "item(a;b;c). "
    "1 {pick(X) : item(X)} 1. "
    "tag(X) :- pick(X). "
    ":- pick(c). "
    "extra(a;b). "
    "seen(X) :- extra(X), not pick(X)."
)


@given(st.permutations(parse_program(BASE_TEXT).statements))
def test_statement_order_does_not_change_models(shuffled):
    expected = models_of(BASE_TEXT)
    models, exhausted = enumerate_models(ground_program(list(shuffled)))
    assert exhausted
    got = {frozenset(render_ground_atom(a) for a in m) for m in models}
    assert got == expected


@given(
    n_items=st.integers(min_value=1, max_value=5),
    lower=st.integers(min_value=0, max_value=5),
    span=st.integers(min_value=0, max_value=5),
)
def test_choice_counts_follow_binomials(n_items, lower, span):
    upper = lower + span
    items = ";".join(chr(ord("a") + i) for i in range(n_items))
    text = f"item({items}). {lower} {{pick(X) : item(X)}} {upper}."
    expected = sum(
        math.comb(n_items, k)
        for k in range(lower, min(upper, n_items) + 1)
    )
    assert count_of(text) == expected


CONSTRAINTS = [":- pick(a).", ":- pick(b), pick(c).", ":- not pick(a), pick(b)."]


@given(st.lists(st.sampled_from(CONSTRAINTS), unique=True, max_size=3))
def test_adding_constraints_never_adds_models(extra):
    base = "item(a;b;c). {pick(X) : item(X)}."
    baseline = count_of(base)
    narrowed = count_of(base + " " + " ".join(extra))
    assert narrowed <= baseline
