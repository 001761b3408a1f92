from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import asploop
from asploop import fixtures
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
    solve,
)
from asploop.asp import ground
from asploop.asp.ground import _ground_skeleton
from asploop.asp.syntax import AtomLit, Rule
from asploop.gateway import SolverGateway
from conftest import REFSOLVER_CMD


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


def test_node_budget_raises(monkeypatch):
    monkeypatch.setattr(solve, "NODE_BUDGET", 3)
    gp = grounded("item(a;b;c;d;e). {pick(X) : item(X)}.")
    with pytest.raises(EnumerationBudgetError, match="budget of 3 search nodes"):
        enumerate_models(gp)


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


def run_script(script, **env):
    """The standard output of `script` run by a fresh interpreter on this
    checkout's asploop, with `env` added to the environment."""
    src = str(Path(asploop.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, **env, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


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
    outputs = [run_script(script, PYTHONHASHSEED=seed) for seed in ("7", "8")]
    assert outputs[0] == outputs[1]
    assert len(json.loads(outputs[0].splitlines()[1])) > 1000


def test_ground_atom_budget_stops_an_unbounded_program():
    # in a subprocess with a timeout, so that a missing budget fails the
    # test instead of hanging it
    script = (
        "from asploop.gateway import SolverGateway\n"
        "verdict = SolverGateway().solve('n(1). n(X+1) :- n(X).')\n"
        "print(verdict.has_error, verdict.diagnostics)\n"
    )
    output = run_script(script)
    assert output.startswith("True ")
    assert "grounding exceeded the budget of 100000 ground atoms" in output
    assert "n ( X + 1 ) :- n ( X )" in output


# --------------------------------------------------------------------------
# The skeleton cache: facts, rules and choices are grounded once per content,
# constraint statements once per skeleton

def ground_snapshot(text, models=False):
    """The ordered ground program, sources included, or the error message;
    with `models`, paired with the ordered models or the enumerator's error."""
    try:
        gp = grounded(text)
    except GroundingError as exc:
        return f"GroundingError: {exc}"
    snapshot = (
        gp.facts,
        gp.possible,
        tuple((c.lower, c.upper, c.candidates, c.source) for c in gp.choices),
        tuple((r.head, r.pos, r.neg, r.source) for r in gp.rules),
        tuple((c.pos, c.neg, c.source) for c in gp.constraints),
    )
    if not models:
        return snapshot
    try:
        return snapshot, tuple(enumerate_models(gp)[0])
    except (GroundingError, EnumerationBudgetError) as exc:
        return snapshot, f"{type(exc).__name__}: {exc}"


def reference_prefixes(instance_ids=None):
    """Every puzzle's base plus its first k hints, for each k."""
    out = []
    for instance_id in instance_ids or [instance.id for instance in fixtures.puzzles()]:
        blocks = fixtures.reference_blocks(instance_id)
        out += ["\n\n".join((blocks.base, *blocks.hints[:k])) for k in range(len(blocks.hints) + 1)]
    return out


def test_warm_ground_equals_cold_ground():
    programs = reference_prefixes() + [text for _, text in fixtures.crosscheck_programs()]
    assert len(programs) == 41 + 27
    # hashes, not snapshots: keeping 68 cold snapshots would keep every
    # ground constraint of every prefix alive at once
    cold = {}
    for text in programs:
        _ground_skeleton.cache_clear()
        cold[text] = hash(ground_snapshot(text, models=True))
    shuffled = list(programs)
    random.Random(4).shuffle(shuffled)
    _ground_skeleton.cache_clear()
    for text in programs + shuffled:
        assert hash(ground_snapshot(text, models=True)) == cold[text], text


def test_threads_sharing_the_skeleton_cache_get_the_cold_result():
    programs = reference_prefixes(["event_planning", "chess_club"])
    cold = {}
    for text in programs:
        _ground_skeleton.cache_clear()
        cold[text] = ground_snapshot(text, models=True)
    _ground_skeleton.cache_clear()

    def work(seed):
        order = programs * 3
        random.Random(seed).shuffle(order)
        return [text for text in order if ground_snapshot(text, models=True) != cold[text]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(work, seed) for seed in range(4)]
            mismatches = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert mismatches == [[]] * 4


DELTA_BASE = "v(1;2;3). 1 {s(X) : v(X)} 1. "

# (programs grounded one after another, how many of them raise, how many
# skeletons the sequence grounds)
DELTA_CASES = {
    "error-raised-again": (
        [DELTA_BASE, DELTA_BASE + ":- s(X), X + a > 1.", DELTA_BASE + ":- s(X), X + a > 1."], 2, 1,
    ),
    "fact-or-rule-hint": (
        [DELTA_BASE, DELTA_BASE + "v(4).", DELTA_BASE + "w(X) :- s(X). :- w(2)."], 0, 3,
    ),
    # equal statements whose source texts differ
    "same-constraint-other-text": (
        [DELTA_BASE + ":- s(X), X > 2.", DELTA_BASE + ":- s(X), (X) > 2."], 0, 1,
    ),
    "hint-appended-twice": (
        [DELTA_BASE + ":- s(1).", DELTA_BASE + ":- s(1). :- s(1).", DELTA_BASE + ":- s(1). :- s(X), X < 2."],
        0, 1,
    ),
}


@pytest.mark.parametrize("programs, errors, skeletons", DELTA_CASES.values(), ids=DELTA_CASES.keys())
def test_constraint_delta_on_a_warm_skeleton(programs, errors, skeletons):
    cold = []
    for text in programs:
        _ground_skeleton.cache_clear()
        cold.append(ground_snapshot(text))
    _ground_skeleton.cache_clear()
    warm = [ground_snapshot(text) for text in programs]
    assert warm == cold
    assert _ground_skeleton.cache_info().misses == skeletons
    failed = [snap for snap in warm if isinstance(snap, str)]
    assert len(failed) == errors
    assert all("arithmetic over a symbolic constant" in snap for snap in failed)
    for snap in warm:
        if not isinstance(snap, str):
            constraints = snap[4]
            assert len({(frozenset(p), frozenset(n)) for p, n, _ in constraints}) == len(constraints)


def test_same_constraint_keeps_each_programs_source():
    _ground_skeleton.cache_clear()
    sources = [{c.source for c in grounded(DELTA_BASE + text).constraints} for text in
               (":- s(X), X > 2.", ":- s(X), (X) > 2.")]
    assert sources == [{":- s ( X ) , X > 2 ."}, {":- s ( X ) , ( X ) > 2 ."}]


def test_a_warm_solve_compiles_only_its_new_statement(monkeypatch):
    compiled = []
    compile_statement = ground._compile_statement

    def counting(stmt, skeleton):
        compiled.append(stmt.source_text)
        return compile_statement(stmt, skeleton)

    monkeypatch.setattr(ground, "_compile_statement", counting)
    blocks = fixtures.reference_blocks("event_planning")
    _ground_skeleton.cache_clear()
    for k in (0, 1):
        models_of("\n\n".join((blocks.base, *blocks.hints[:k])))
    compiled.clear()
    assert len(models_of("\n\n".join((blocks.base, *blocks.hints[:2])))) == 18
    assert compiled == [stmt.source_text for stmt in parse_program(blocks.hints[1]).statements]
    assert len(compiled) == 1


# The ordered models, or the error, of every reference prefix and
# cross-check program, as one sha256 each of
# json.dumps([exhausted, [[rendered atom, ...] sorted by ground_atom_key, ...]])
# or of json.dumps("ErrorType: message"). Recorded with the enumerator that
# compiled every constraint on each solve; re-record on purpose only.
MODEL_ORDER = Path(__file__).with_name("model_order.json")


def model_order_digests():
    programs = {}
    for instance in fixtures.puzzles():
        blocks = fixtures.reference_blocks(instance.id)
        for k in range(len(blocks.hints) + 1):
            programs[f"{instance.id}+{k}"] = "\n\n".join((blocks.base, *blocks.hints[:k]))
    programs.update(fixtures.crosscheck_programs())
    digests = {}
    for name, text in programs.items():
        try:
            models, exhausted = enumerate_models(grounded(text))
            outcome = [exhausted, [[render_ground_atom(a) for a in sorted(m, key=ground_atom_key)]
                                   for m in models]]
        except (GroundingError, EnumerationBudgetError) as exc:
            outcome = f"{type(exc).__name__}: {exc}"
        digests[name] = hashlib.sha256(json.dumps(outcome).encode("utf-8")).hexdigest()
    return digests


def test_model_order_is_pinned():
    pinned = json.loads(MODEL_ORDER.read_text(encoding="utf-8"))
    assert len(pinned) == 41 + 27
    assert model_order_digests() == pinned


@pytest.mark.parametrize("instance_id", ["tattoo_parlor", "harbor_cruises"])
def test_models_come_sorted_by_their_sorted_atom_keys(instance_id):
    models, exhausted = enumerate_models(grounded(fixtures.reference_blocks(instance_id).base))
    assert exhausted
    assert len(models) == fixtures.puzzle(instance_id).expected_model_count
    assert models == sorted(models, key=lambda m: tuple(sorted(ground_atom_key(a) for a in m)))


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


def test_fact_candidate_counts_toward_the_bound():
    # c(a) is a fact, so it fills the choice's one slot and c(b) stays false
    assert models_of("c(a). d(a;b). 1 {c(X) : d(X)} 1.") == {frozenset({"c(a)", "d(a)", "d(b)"})}


# Programs whose stable models were counted by hand from the definition.
# Each negates an atom that a rule derives, some before the rule that
# derives it.
HAND_COUNTED = {
    "{d}. p :- d, not q. q :- d.": [set(), {"d", "q"}],
    "{d}. p :- d, not q. q :- r. r :- d.": [set(), {"d", "q", "r"}],
    "{d}. p :- d, not q. q :- d, not p.": [set(), {"d", "p"}, {"d", "q"}],
    "d(a). 0 {c(X) : d(X)}. h(X) :- d(X), not k(X). k(X) :- d(X), not c(X).": [
        {"d(a)", "c(a)", "h(a)"}, {"d(a)", "k(a)"},
    ],
    "a :- not b. b :- c. c. :- a.": [{"b", "c"}],
    "d(1;2). e(X) :- d(X), not f(X). f(X) :- d(X), X > 1. 1 {s(X) : e(X)} 1.": [
        {"d(1)", "d(2)", "e(1)", "f(2)", "s(1)"},
    ],
}
# the one whose negation loops once d is chosen
LOOPS_AFTER_A_CHOICE = "{d}. p :- d, not q. q :- d, not p."


@pytest.mark.parametrize(
    "text, expected", HAND_COUNTED.items(), ids=[f"prog{i}" for i in range(len(HAND_COUNTED))]
)
def test_oracle_counts_stable_models_by_definition(text, expected):
    models = brute_force_models(grounded(text))
    assert {frozenset(map(render_ground_atom, m)) for m in models} == {frozenset(m) for m in expected}
    assert len(models) == len(expected)


def test_gateway_agrees_with_the_oracle_on_hand_counted_programs():
    for text in [text for text in HAND_COUNTED if text != LOOPS_AFTER_A_CHOICE]:
        verdict = SolverGateway().solve(text)
        assert not verdict.has_error, verdict.diagnostics
        assert verdict.models == brute_force_models(grounded(text)), text
    internal = SolverGateway().solve(LOOPS_AFTER_A_CHOICE)
    assert internal.has_error
    assert internal.diagnostics == ["negation loops through p, which the well-founded model leaves undecided"]
    auto = SolverGateway(backend="auto", solver_cmd=REFSOLVER_CMD).solve(LOOPS_AFTER_A_CHOICE)
    assert auto.model_count == 3
    assert auto.models == brute_force_models(grounded(LOOPS_AFTER_A_CHOICE))


def test_a_constraint_only_an_underivable_atom_satisfies_leaves_no_models():
    # r needs q, which nothing derives, so `:- not r.` fires in every model:
    # there is no model, and the negation loop behind {p} is never reached
    gp = grounded("{p}. a :- p, not b. b :- p, not a. r :- p, q. :- not r.")
    assert [(c.pos, c.neg) for c in gp.constraints] == [((), (parse_ground_atom("r"),))]
    assert enumerate_models(gp) == ([], True)
    assert brute_force_models(gp) == []


def test_a_constraint_two_statements_share_is_checked_once():
    gp = grounded("{p; q}. r :- p. :- r, q. :- q, r.")
    assert len(gp.constraints) == 1
    assert len(gp.routes) == 2
    assert len(solve._search(gp).deferred) == 1
    assert models_of("{p; q}. r :- p. :- r, q. :- q, r.") == {frozenset(), frozenset({"p", "r"}), frozenset({"q"})}


@pytest.mark.parametrize("text", ["p :- not q. q :- not p.", "p :- not p."])
def test_negation_looping_through_facts_is_an_error_from_both_backends(text):
    with pytest.raises(GroundingError, match="negation loops through p"):
        grounded(text)
    for gateway in (SolverGateway(), SolverGateway(backend="external", solver_cmd=REFSOLVER_CMD)):
        verdict = gateway.solve(text)
        assert verdict.has_error
        assert any("negation loops through p" in line for line in verdict.diagnostics), verdict.diagnostics


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


# Random tiny programs: facts over at most three constants, one or two choice
# rules with random bounds, two rules in random order and up to three
# constraints. Rule bodies may negate choice atoms and rule heads alike; a
# rule negating a head that a later rule derives is what a closure checking
# negation against a half-built model gets wrong.
CONSTANTS = ["a", "b", "c"]
CHOICE_PREDS = ["c1", "c2"]
RULE_HEADS = ["h1", "h2"]


def literal(negatable, positive_only):
    return st.one_of(
        st.tuples(st.just(""), st.sampled_from(positive_only + negatable)),
        st.tuples(st.just("not "), st.sampled_from(negatable)),
    ).map(lambda pair: f"{pair[0]}{pair[1]}(X)")


@st.composite
def tiny_programs(draw):
    facts = draw(st.lists(st.sampled_from(CONSTANTS), min_size=1, unique=True))
    lines = [f"d({';'.join(facts)})."]
    for _ in range(draw(st.integers(1, 2))):
        lower = draw(st.integers(0, 2))
        upper = draw(st.one_of(st.just(""), st.integers(lower, 3).map(str)))
        lines.append(f"{lower} {{{draw(st.sampled_from(CHOICE_PREDS))}(X) : d(X)}} {upper}.")
    for head in draw(st.permutations(RULE_HEADS)):
        body = draw(st.lists(literal([*CHOICE_PREDS, *RULE_HEADS], ["d"]), min_size=1, max_size=2))
        lines.append(f"{head}(X) :- d(X), {', '.join(body)}.")
    for _ in range(draw(st.integers(0, 3))):
        body = draw(st.lists(literal(["d", *CHOICE_PREDS, *RULE_HEADS], []), min_size=1, max_size=3))
        lines.append(f":- d(X), {', '.join(body)}.")
    return "\n".join(lines)


def negation_loops(text):
    """Whether the predicate dependency graph has a cycle through a negated
    literal: some rule negates a predicate that depends on the rule's head."""
    depends_on: dict[str, set[str]] = {}
    negated = []
    for stmt in parse_program(text).statements:
        if isinstance(stmt, Rule):
            for lit in stmt.body:
                if isinstance(lit, AtomLit):
                    depends_on.setdefault(stmt.head.pred, set()).add(lit.atom.pred)
                    if lit.negated:
                        negated.append((stmt.head.pred, lit.atom.pred))

    def reaches(pred, goal):
        seen, todo = set(), [pred]
        while todo:
            pred = todo.pop()
            if pred == goal:
                return True
            if pred not in seen:
                seen.add(pred)
                todo.extend(depends_on.get(pred, ()))
        return False
    return any(reaches(body, head) for head, body in negated)


@settings(max_examples=300, deadline=None)
@given(tiny_programs())
def test_gateway_agrees_with_the_oracle_on_random_programs(text):
    verdict = SolverGateway().solve(text)
    if verdict.has_error:
        assert negation_loops(text), verdict.diagnostics
        assert "negation loops" in verdict.diagnostics[0]
        return
    assert verdict.models == brute_force_models(grounded(text))
