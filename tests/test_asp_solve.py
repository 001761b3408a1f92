from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

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
from asploop.asp.ground import UnsupportedProgram, _ground_skeleton
from asploop.asp.syntax import AtomLit, GroundAtom, Rule
from asploop.gateway import SolverGateway
from asploop.rewards import reward
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


def test_memo_hits_cost_no_nodes(monkeypatch):
    # 16 groups of two candidates and no constraint: each group has one
    # state, searched once at two nodes, so 33 nodes count all 2**16 models
    monkeypatch.setattr(solve, "NODE_BUDGET", 100)
    gp = grounded(f"i({';'.join(map(str, range(1, 17)))}). c(0;1). 1 {{a(I,C) : c(C)}} 1 :- i(I).")
    models, exhausted = enumerate_models(gp, cap=1000)
    assert (len(models), exhausted) == (1001, False)
    models, exhausted = enumerate_models(gp)
    assert (len(models), exhausted) == (2**16, True)


# A variable read where nothing binds it, in each place that reads a term.
UNSAFE_CASES = [
    pytest.param(":- item(X), not X == Y.", "unsafe variable Y in statement: :- item ( X ) , not X == Y .",
                 id="comparison"),
    pytest.param("q(X, Y) :- item(X).", "unsafe variable Y in statement: q ( X , Y ) :- item ( X ) .", id="head"),
    pytest.param("p(X).", "unsafe variable X in statement: p ( X ) .", id="fact"),
    pytest.param("p(_).", "unsafe variable _ in statement: p ( _ ) .", id="fact-anonymous"),
    pytest.param(":- p(X+1).", "unsafe variable X in statement: :- p ( X + 1 ) .", id="positive-arithmetic"),
    pytest.param("{X = Y} = 1 :- p(X).", "unsafe variable Y in statement: { X = Y } = 1 :- p ( X ) .",
                 id="cardinality-element"),
    pytest.param("1 {a(X,Y) : b(X)} 1 :- c(Z).",
                 "unsafe variable Y in statement: 1 { a ( X , Y ) : b ( X ) } 1 :- c ( Z ) .",
                 id="choice-element"),
    pytest.param("1 {a(X) : b(X)} 1 :- c(Z), not d(W).",
                 "unsafe variable W in statement: 1 { a ( X ) : b ( X ) } 1 :- c ( Z ) , not d ( W ) .",
                 id="choice-body-negation"),
]


@pytest.mark.parametrize("text, message", UNSAFE_CASES)
def test_unsafe_variable_is_a_grounding_error(text, message):
    result = parse_program(text)
    assert not result.diagnostics
    with pytest.raises(GroundingError) as excinfo:
        ground_program(result.statements)
    assert str(excinfo.value) == message


# Join shapes the compiled matcher handles itself: a repeated variable in one
# atom, a tuple pattern with an anonymous part, arithmetic in a positive
# atom (after the argument binding its variable, too, but not before it),
# ordering across numbers and symbols, and arithmetic over a symbolic
# constant from a rule head, a body comparison, a cardinality element and a
# positive atom. Each case gives its models projected on one predicate, or
# the error.
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
    ("p(1,2). p(2,3). q(X) :- p(X, X+1).", "q", {("q(1)", "q(2)")}),
    ("p((2,1)). p((3,2)). q(X) :- p((X+1, X)).", "q", "cannot order positive literals for grounding"),
    ("n(1;a). m(2). s(X) :- n(X), m(X+1).", "s", "arithmetic over a symbolic constant in statement"),
    # a comparison whose left side starts with a constant parses as a term
    ("p(1). :- p(X), b - 1 < X.", "p", "arithmetic over a symbolic constant in statement"),
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


def test_a_body_longer_than_python_nests_loops():
    # Python nests at most 20 blocks in a function: a 25-atom rule body and a
    # 21-atom constraint body each join in more than one generated function
    facts = " ".join(f"e({i},{i + 1})." for i in range(30))
    path = ", ".join(f"e(X{i}, X{i + 1})" for i in range(25))
    text = f"{facts} h(X0, X25) :- {path}. {{c(X) : e(X, _)}} 1. :- {', '.join(['c(X)'] * 20)}, h(X, _)."
    assert [c.pos for c in grounded(text).constraints] == [(parse_ground_atom(f"c({i})"),) for i in range(6)]
    assert len(models_of(text)) == 25


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


def test_join_budget_stops_a_large_join():
    # 60^4 bindings: without the budget, grounding runs for minutes
    script = (
        "import time\n"
        "from asploop.gateway import SolverGateway\n"
        "start = time.perf_counter()\n"
        f"verdict = SolverGateway().solve('p({';'.join(map(str, range(1, 61)))}).\\n'\n"
        "                               ':- p(X), p(Y), p(Z), p(W), X + Y + Z + W < 0.')\n"
        "print(time.perf_counter() - start)\n"
        "print(verdict.has_error, verdict.diagnostics)\n"
    )
    elapsed, output = run_script(script).split("\n", 1)
    assert float(elapsed) < 5
    assert output.startswith("True ")
    assert "grounding exceeded the budget of 1000000 atoms tried in one join" in output


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


def test_threads_reading_shared_models_first_see_them_sorted():
    # the verdict cache hands one Models to every thread, and each may be
    # the first to read it, which sorts its masks
    masks = random.Random(7).sample(range(1, 2**16), 3000)
    expected = sorted(({i for i in range(16) if m >> i & 1} for m in masks), key=sorted)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            models = solve.Models(list(range(16)), list(masks))
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(lambda: (len(models), list(models))) for _ in range(8)]
                reads = [future.result(timeout=60) for future in futures]
            assert reads == [(len(masks), expected)] * 8
    finally:
        sys.setswitchinterval(interval)


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


def pinned_programs():
    """Every reference prefix and cross-check program, by name."""
    programs = {}
    for instance in fixtures.puzzles():
        blocks = fixtures.reference_blocks(instance.id)
        for k in range(len(blocks.hints) + 1):
            programs[f"{instance.id}+{k}"] = "\n\n".join((blocks.base, *blocks.hints[:k]))
    programs.update(fixtures.crosscheck_programs())
    return programs


def digest(outcome) -> str:
    return hashlib.sha256(json.dumps(outcome).encode("utf-8")).hexdigest()


# The ground constraints in order, or the error, of every reference prefix
# and cross-check program, as one sha256 each of
# json.dumps([[[rendered pos atom, ...], [rendered neg atom, ...], source], ...])
# or of json.dumps("GroundingError: message"). Recorded with the grounder
# that joined every statement in full, both orders of each mirrored pair;
# re-record on purpose only.
GROUND_ORDER = Path(__file__).with_name("ground_order.json")


def ground_order_digests():
    digests = {}
    for name, text in pinned_programs().items():
        try:
            outcome = [[[render_ground_atom(a) for a in c.pos], [render_ground_atom(a) for a in c.neg], c.source]
                       for c in grounded(text).constraints]
        except GroundingError as exc:
            outcome = f"{type(exc).__name__}: {exc}"
        digests[name] = digest(outcome)
    return digests


def test_ground_order_is_pinned():
    pinned = json.loads(GROUND_ORDER.read_text(encoding="utf-8"))
    assert len(pinned) == 41 + 27
    assert ground_order_digests() == pinned


# The ordered models, or the error, of every reference prefix and
# cross-check program, as one sha256 each of
# json.dumps([exhausted, [[rendered atom, ...] sorted by ground_atom_key, ...]])
# or of json.dumps("ErrorType: message"). Recorded with the enumerator that
# compiled every constraint on each solve; re-record on purpose only.
MODEL_ORDER = Path(__file__).with_name("model_order.json")


def model_order_digests(**kwargs):
    digests = {}
    for name, text in pinned_programs().items():
        try:
            models, exhausted = enumerate_models(grounded(text), **kwargs)
            outcome = [exhausted, [[render_ground_atom(a) for a in sorted(m, key=ground_atom_key)]
                                   for m in models]]
        except (GroundingError, EnumerationBudgetError) as exc:
            outcome = f"{type(exc).__name__}: {exc}"
        digests[name] = digest(outcome)
    return digests


def test_model_order_is_pinned():
    pinned = json.loads(MODEL_ORDER.read_text(encoding="utf-8"))
    assert len(pinned) == 41 + 27
    assert model_order_digests() == pinned


# The same digests under caps 0 and 3, keyed by cap: a capped search must keep
# the first cap+1 models a full backtracking walk over the choice groups
# finds, so a cap-exceeded verdict holds the same models. Recorded with that
# walk; re-record on purpose only.
MODEL_ORDER_CAPPED = Path(__file__).with_name("model_order_capped.json")


def test_capped_model_order_is_pinned():
    pinned = json.loads(MODEL_ORDER_CAPPED.read_text(encoding="utf-8"))
    assert sorted(pinned) == ["0", "3"]
    assert all(len(digests) == 41 + 27 for digests in pinned.values())
    assert {cap: model_order_digests(cap=int(cap)) for cap in pinned} == pinned


@pytest.mark.parametrize("instance_id", ["tattoo_parlor", "harbor_cruises"])
def test_models_come_sorted_by_their_sorted_atom_keys(instance_id):
    models, exhausted = enumerate_models(grounded(fixtures.reference_blocks(instance_id).base))
    assert exhausted
    assert len(models) == fixtures.puzzle(instance_id).expected_model_count
    assert models == sorted(models, key=lambda m: tuple(sorted(ground_atom_key(a) for a in m)))


@given(st.lists(st.integers(0, 2**12 - 1), unique=True))
def test_models_read_sorted_by_their_sorted_ids(masks):
    read = list(solve.Models(list(range(12)), masks))
    assert read == sorted(({i for i in range(12) if m >> i & 1} for m in masks), key=sorted)


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
# rules with random bounds, two rules in random order, up to three
# constraints and up to one constraint over a pair of choice atoms. Rule
# bodies may negate choice atoms and rule heads alike; a rule negating a head
# that a later rule derives is what a closure checking negation against a
# half-built model gets wrong. A pair over one choice predicate forbids two
# candidates of one group together, which a group selecting more than one
# candidate must check inside its own selection.
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
    for _ in range(draw(st.integers(0, 1))):
        first, second = draw(st.lists(st.sampled_from(CHOICE_PREDS), min_size=2, max_size=2))
        lines.append(f":- d(X), d(Y), {first}(X), {second}(Y), X < Y.")
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


@settings(max_examples=300, deadline=None)
@given(tiny_programs(), st.integers(0, 3))
def test_capped_enumeration_agrees_with_the_oracle(text, cap):
    verdict = SolverGateway().solve(text, cap=cap)
    if verdict.has_error:
        assert negation_loops(text), verdict.diagnostics
        return
    gp = grounded(text)
    oracle = brute_force_models(gp)
    total = len(oracle)
    models, exhausted = enumerate_models(gp, cap=cap)
    assert set(models) <= set(oracle)
    assert len(models) == min(total, cap + 1)
    assert exhausted == (total <= cap)
    assert verdict.model_count == min(total, cap + 1)
    assert (verdict.is_unsat, verdict.cap_exceeded) == (total == 0, total > cap)
    recip = 1 / total if 0 < total <= cap else 0.0
    assert reward(verdict).value == recip - (total == 0) - (total > cap)


@dataclass
class ReferenceSearch:
    """The enumerator before its search was memoized, kept verbatim as the
    reference: every path of the search reaches its own leaf, which checks
    and keeps its model."""

    groups: list[tuple[int, int | None, int]]  # (lower, upper, candidates' atom-id mask)
    domains: list[int]  # each group's open candidates: dead candidates cleared
    allowed: list[int]  # [id]: the atom ids left open once that atom is chosen
    later_lowers: list[list[int]]  # [g]: the lower bounds of the groups after g
    atom_of: list[GroundAtom]
    facts: int
    rules: list[tuple[int, int, int]]  # (head bit, pos mask, neg mask)
    deferred: list[tuple[int, int]]  # (pos mask, neg mask), checked on complete models
    # some live candidate can be true other than through its own group's selection
    check_bounds: bool
    cap: int = 0
    budget: int = 0
    found: set[int] = field(default_factory=set)

    def run(self, cap: int) -> tuple[solve.Models, bool]:
        self.cap, self.budget = cap, solve.NODE_BUDGET
        self.node()  # the root
        exhausted = self.descend(0, self.domains, self.facts) if self.groups else self.leaf(self.facts)
        return solve.Models(self.atom_of, list(self.found)), exhausted

    def node(self) -> None:
        if self.budget == 0:
            raise EnumerationBudgetError(f"enumeration exceeded the budget of {solve.NODE_BUDGET} search nodes")
        self.budget -= 1

    def descend(self, level: int, domains: list[int], model: int) -> bool:
        """Try each selection of group `level` from its open candidates,
        domains[0]; domains[1:] are the later groups'. `model` holds the
        facts and the earlier groups' selections. Returns False once cap+1
        models are found."""
        later, later_lowers = domains[1:], self.later_lowers[level]
        last = not later
        for chosen, kept in self.selections(level, solve._ids(domains[0])):
            self.node()
            if last:
                if not self.leaf(model | chosen):
                    return False
                continue
            rest = list(map(kept.__and__, later))
            if any(map(int.__lt__, map(int.bit_count, rest), later_lowers)):
                continue
            if not self.descend(level + 1, rest, model | chosen):
                return False
        return True

    def selections(self, level: int, ids: list[int]):
        """Group `level`'s selections from its open candidate `ids` with no
        pair inside, by size and then lexicographically, each as the atom-id
        bits it chooses and the atom ids it leaves open."""
        lower, upper, _ = self.groups[level]
        allowed = self.allowed
        if lower == upper == 1:
            return ((1 << c, allowed[c]) for c in ids)
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

    def leaf(self, base: int) -> bool:
        """Close facts plus a full selection under the rules, check what
        search-time pruning could not decide, and keep the model. Returns
        False once cap+1 models are found."""
        model = base
        rules = self.rules
        if rules:
            high = solve._rule_closure(base, rules, 0)
            model = solve._rule_closure(base, rules, high)
            while (upper := solve._rule_closure(base, rules, model)) != high:
                high, model = upper, solve._rule_closure(base, rules, upper)
            if model != high:
                raise UnsupportedProgram(self.atom_of[i] for i in solve._ids(high & ~model))
        for pos, neg in self.deferred:
            if model & pos == pos and not model & neg:
                return True
        if self.check_bounds:
            for lower, upper, cands in self.groups:
                inside = (model & cands).bit_count()
                if inside < lower or (upper is not None and inside > upper):
                    return True
        self.found.add(model)
        return len(self.found) <= self.cap


def reference_search(gp) -> ReferenceSearch:
    """Merge the routes of `gp`'s constraint statements over its symbols."""
    symbols = gp.symbols
    forbidden = frozenset().union(*(route.forbidden for route in gp.routes))
    live = [c for _, _, cands in symbols.groups for c in cands if c not in forbidden]
    allowed = [-1] * len(symbols.atom_of)
    for route in gp.routes:
        for a, partners in route.partners.items():
            allowed[a] &= ~partners
    groups = [(lower, upper, sum(1 << c for c in cands)) for lower, upper, cands in symbols.groups]
    return ReferenceSearch(
        groups=groups,
        domains=[sum(1 << c for c in cands if c not in forbidden) for _, _, cands in symbols.groups],
        allowed=allowed,
        later_lowers=[[lower for lower, _, _ in groups[g + 1:]] for g in range(len(groups))],
        atom_of=symbols.atom_of,
        facts=sum(1 << i for i in symbols.fact_ids),
        rules=[(1 << head, sum(1 << p for p in pos), sum(1 << q for q in neg))
               for head, pos, neg in symbols.rules],
        # statements can share a constraint: check each once
        deferred=list(dict.fromkeys((sum(1 << p for p in pos), sum(1 << q for q in neg))
                                    for route in gp.routes for pos, neg in route.deferred)),
        check_bounds=(len(live) != len(set(live))
                      or not (symbols.derivable | symbols.fact_ids).isdisjoint(live)),
    )


def reference_enumerate(gp, cap=1_000_000):
    if any(route.always_violated for route in gp.routes):
        return solve.Models(gp.symbols.atom_of, []), True
    return reference_search(gp).run(cap)


# Choice groups of one or two predicates per item, each with cardinality
# bounds, and constraints the search prunes with: pairs across groups and
# inside one, and dead candidates. Programs that meet the memo's conditions
# are drawn with `memo=True`; otherwise each line of BREAKS_MEMO may be
# added, and each one alone makes a leaf depend on more than its selection.
PAIRWISE = [
    ":- a(I,V), a(J,V), I < J.",
    ":- a(I,V), a(J,W), J = I + 1, W = V + 1.",
    ":- a(I,V), b(I,V).",
    ":- a(I,V), b(J,V), I != J.",
    ":- b(I,V), b(I,W), V < W.",
    ":- a(1,1).",
    ":- b(I,V), I = V.",
]
BREAKS_MEMO = [
    "{a(I,V) : i(I)} 1 :- v(V).",  # candidates shared between groups
    "a(1,2).",  # a candidate that is a fact
    "h(I) :- a(I,V), V > 1.",  # a rule
    ":- i(I), not a(I,1).",  # a constraint with negation, checked on models
    ":- a(1,V), a(2,V), b(3,V).",  # a constraint on three atoms, checked on models
    "h(I) :- i(I), not b(I,2). :- h(1), a(1,2).",  # a rule head in a constraint
]


@st.composite
def search_programs(draw, memo=False, space=4096):
    items, values = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    lines = [f"i({';'.join(map(str, range(1, items + 1)))}). v({';'.join(map(str, range(1, values + 1)))})."]
    selections = 1
    for pred in draw(st.lists(st.sampled_from(["a", "b"]), min_size=1, unique=True)):
        lower = draw(st.integers(0, 2))
        upper = draw(st.one_of(st.none(), st.integers(lower, 2)))
        lines.append(f"{lower} {{{pred}(I,V) : v(V)}} {'' if upper is None else upper} :- i(I).")
        hi = values if upper is None else min(upper, values)
        selections *= sum(math.comb(values, k) for k in range(lower, hi + 1)) ** items
    assume(selections <= space)
    lines += draw(st.lists(st.sampled_from(PAIRWISE), max_size=3, unique=True))
    if not memo:
        lines += draw(st.lists(st.sampled_from(BREAKS_MEMO), max_size=2, unique=True))
    return "\n".join(lines)


ALL_DIFFERENT = "i(1;2;3). v(1;2;3). 1 {a(I,V) : v(V)} 1 :- i(I). :- a(I,V), a(J,V), I < J."


@settings(max_examples=400, deadline=None)
@given(search_programs(), st.one_of(st.none(), st.integers(0, 5)))
# the last group's state after a(1,1), a(2,2) is met again after a(1,2),
# a(2,1); a cap of 2 stops the count inside that repeat visit
@example(ALL_DIFFERENT, 2)
def test_memoized_search_matches_the_reference_search(text, cap):
    gp = grounded(text)
    kwargs = {} if cap is None else {"cap": cap}
    models, exhausted = enumerate_models(gp, **kwargs)
    expected, expected_exhausted = reference_enumerate(gp, **kwargs)
    assert (len(models), exhausted) == (len(expected), expected_exhausted)
    assert list(models) == list(expected)


@settings(max_examples=200, deadline=None)
@given(search_programs(memo=True, space=512))
def test_memoized_count_agrees_with_the_oracle(text):
    gp = grounded(text)
    assert solve._search(gp).memo is not None
    models, exhausted = enumerate_models(gp)
    oracle = brute_force_models(gp)
    assert exhausted
    assert len(models) == len(oracle)
    assert models == oracle


def test_the_memo_searches_each_state_once():
    # three all-different groups: the last group's three states are each met
    # twice. The root, the first group's 3 selections, 2 in each of the
    # second group's 3 states and 1 in each last state: 13 nodes, where the
    # search without the memo visits each last state twice, 16 nodes
    search = solve._search(grounded(ALL_DIFFERENT))
    assert search.run(1_000_000)[0] == brute_force_models(grounded(ALL_DIFFERENT))
    assert solve.NODE_BUDGET - search.budget == 13
    reference = reference_search(grounded(ALL_DIFFERENT))
    reference.run(1_000_000)
    assert solve.NODE_BUDGET - reference.budget == 16


# Random programs whose terms are drawn from variables, `_`, constants,
# arithmetic and tuples, in positive and negated atoms, comparisons, rule
# heads and choice elements, so that many are unsafe, unorderable or add a
# symbolic constant. Whatever the program, the gateway returns a verdict, and
# a flagless one agrees with the oracle. No rule body reads a rule head, and
# the one choice rule picks at most one candidate, so that grounding ends and
# the oracle's search stays small.
# X is drawn most often and most bodies begin by binding it, so that enough
# programs are safe to reach the join
LEAF = st.sampled_from(["X", "X", "X", "X", "Y", "1", "2", "a", "_"])
ARITH = st.tuples(LEAF, st.sampled_from(["+", "-"]), LEAF).map(" ".join)
TUPLE = st.tuples(st.one_of(LEAF, ARITH), st.one_of(LEAF, ARITH)).map(", ".join).map("({})".format)
TERM = st.one_of(LEAF, LEAF, ARITH, TUPLE)
POSITIVE = st.one_of(
    TUPLE.map("p({})".format), TERM.map("p({})".format), st.tuples(TERM, TERM).map(", ".join).map("q({})".format)
)
COMPARISON = st.tuples(TERM, st.sampled_from(["=", "!=", "<"]), TERM).map(" ".join)
BINDING = st.sampled_from(["p(X)", "q(X, Y)", "p((X, Y))", "p(1)"])


def bodies(negatable):
    negated = st.tuples(st.sampled_from(negatable), TERM).map("not {0[0]}({0[1]})".format)
    literals = st.lists(st.one_of(POSITIVE, negated, COMPARISON), max_size=2)
    return st.tuples(BINDING, literals).map(lambda pair: ", ".join([pair[0], *pair[1]]))


ELEMENT_BODY, RULE_BODY, CONSTRAINT_BODY = bodies(["p", "q"]), bodies(["p", "c"]), bodies(["p", "c", "h"])


@st.composite
def term_programs(draw):
    lines = ["p(1;2;3;a). p((2,1)). p((a,1)). q(1,2). q(2,a). q((1,2),1)."]
    if draw(st.booleans()):
        lines.append(f"0 {{c({draw(TERM)}) : {draw(ELEMENT_BODY)}}} 1.")
    for _ in range(draw(st.integers(1, 2))):
        lines.append(f"h({draw(TERM)}) :- {draw(RULE_BODY)}.")
    if draw(st.booleans()):
        lines.append(f":- {draw(CONSTRAINT_BODY)}.")
    return "\n".join(lines)


@settings(max_examples=400, deadline=None)
@given(term_programs())
def test_any_program_gets_a_verdict(text):
    verdict = SolverGateway().solve(text)
    if verdict.flagless:
        assert verdict.models == brute_force_models(grounded(text))
