"""The grounder's symmetric statements, constraint routes and generated
join source.

A constraint statement that a swap of its variables maps onto itself joins
only one match of each mirrored pair (`ground._mirror`). These tests pin
which statements it finds symmetric, and that restricting the join changes
nothing: each symmetric statement grounds exactly as the same statement with
a literal added that holds on every binding but breaks the symmetry.
"""

from __future__ import annotations

import io
import itertools
import json
import tokenize
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from asploop import fixtures
from asploop.asp import GroundingError, ground_program, parse_program
from asploop.asp import ground
from asploop.asp.syntax import CardinalityRule, Choice, CmpLit, Constraint, Fact, GroundAtom, Num, Rule, Var
from asploop.value_types import replace


def statements(text):
    result = parse_program(text)
    assert not result.diagnostics, [str(d) for d in result.diagnostics]
    return result.statements


def mirror_of(stmt):
    return ground._mirror(stmt, ground._Plan(stmt.body, set(), stmt.source_text))


def last_mirror(text):
    return mirror_of(statements(text)[-1])


def ground_outcome(text):
    """The ground program without statement sources, routes included, or
    the error message without its statement."""
    try:
        gp = ground_program(statements(text))
    except GroundingError as exc:
        return exc.message
    return (
        gp.facts,
        gp.possible,
        [(c.lower, c.upper, c.candidates) for c in gp.choices],
        [(r.head, r.pos, r.neg) for r in gp.rules],
        [(c.pos, c.neg) for c in gp.constraints],
        gp.routes,
    )


# --------------------------------------------------------------------------
# Which statements are symmetric

@pytest.mark.parametrize("instance", [p.id for p in fixtures.puzzles()])
def test_every_puzzle_bases_pairwise_rule_is_symmetric(instance):
    pairwise = [s for s in statements(fixtures.reference_blocks(instance).base) if isinstance(s, CardinalityRule)]
    assert len(pairwise) == 1
    assert mirror_of(pairwise[0]) == (0, 1)


@pytest.mark.parametrize("hint", [2, 5])
def test_tattoo_parlor_clues_on_two_atoms_are_not_symmetric(hint):
    clues = statements(fixtures.reference_blocks("tattoo_parlor").hints[hint - 1])
    assert clues
    assert [mirror_of(stmt) for stmt in clues] == [None] * len(clues)


NOT_SYMMETRIC = {
    "ordered-comparison": ":- a(X), a(Y), X < Y.",
    "different-constants": ":- a(X, 1), a(Y, 2).",
    "third-atom-not-fixed": ":- a(X), a(Y), b(X).",
    "arithmetic-in-the-body": ":- a(X), a(Y), X + 1 != Y + 1.",
    # swapping the sides of only the first `!=` element would merge its
    # instance with the second's whenever A = D and B = C
    "ordered-sides-of-an-inequality-element": "{A != B; C != D} = 2 :- a(A), a(B), b(C, D).",
    # X <-> Y, U <-> V swaps the a atoms but moves b(X), joined first
    "an-atom-moved-before-the-swapped-pair": ":- b(X), a(X, U), a(Y, V), b(Y).",
}


@pytest.mark.parametrize("text", NOT_SYMMETRIC.values(), ids=NOT_SYMMETRIC.keys())
def test_statements_without_a_symmetry(text):
    assert last_mirror(text) is None


SYMMETRIC = {
    "pairwise": (":- a(X), a(Y), X != Y.", (0, 1)),
    "swapped-arguments": (":- a(X, Y), a(Y, X).", (0, 1)),
    "fixed-atom-first": (":- b(Z), a(X, Z), a(Y, Z), not c(X), not c(Y).", (1, 2)),
    "fixed-atom-between": (":- a(X, _), b(1), a(Y, _).", (0, 2)),
    "double-equals-and-swapped-sides": ("{X == Y; X = 1; 1 = Y} = 1 :- a((X, a)), a((Y, a)), Y = X.", (0, 1)),
    "ordered-elements-in-both-orders": ("{X < Y; Y < X; X != Y; Y != X} = 0 :- a(X), a(Y).", (0, 1)),
}


def test_a_negated_element_breaks_a_symmetry():
    # the parser reads no negated element, so negate one by hand:
    # `not X = Y` and `X = Y` instantiate to the same ground element
    stmt = statements("{X = Y} = 0 :- a(X), a(Y).")[0]
    assert mirror_of(stmt) == (0, 1)
    negated = replace(stmt, elements=(replace(stmt.elements[0], negated=True),))
    assert mirror_of(negated) is None


@pytest.mark.parametrize("text, levels", SYMMETRIC.values(), ids=SYMMETRIC.keys())
def test_statements_with_a_symmetry(text, levels):
    assert last_mirror(text) == levels


def test_swapped_arguments_ground_as_the_full_join():
    facts = "a(1,2). a(2,1). a(3,3). {a(2,3); a(3,2); a(1,1); a(3,1)}. "
    assert last_mirror(facts + ":- a(X, Y), a(Y, X).") == (0, 1)
    assert last_mirror(facts + ":- a(X, Y), a(Y, X), X = X.") is None
    symmetric = ground_outcome(facts + ":- a(X, Y), a(Y, X).")
    assert symmetric == ground_outcome(facts + ":- a(X, Y), a(Y, X), X = X.")
    assert len(symmetric[4]) == 4


# Statements that a looser symmetry would get wrong, each with a literal
# that holds on every binding: the first two ground in a different order or
# to other constraints when only one match of each swapped pair is joined,
# the third raises only on the match that would be skipped.
FULL_JOINS = {
    "inequality-elements-merge": (
        "p(1;2). {q(X) : p(X)}. r(2,1). {A != B; C != D} = 2 :- q(A), q(B), r(C, D).", "A = A"),
    "atom-moved-before-the-pair": ("b(2). b(1). {a(1,u); a(2,v)}. :- b(X), a(X, U), a(Y, V), b(Y).", "X = X"),
    "arithmetic-in-comparisons": (
        "p(1;a). {q(X) : p(X)}. :- q(X), q(Y), Y = 1, X + 1 = 2, X = 1, Y + 1 = 2.", "X = X"),
}


@pytest.mark.parametrize("text, neutral", FULL_JOINS.values(), ids=FULL_JOINS.keys())
def test_statements_a_looser_symmetry_gets_wrong_ground_as_the_full_join(text, neutral):
    assert last_mirror(text) is None
    assert ground_outcome(text) == ground_outcome(text[:-1] + f", {neutral}.")


# --------------------------------------------------------------------------
# A symmetric statement grounds as the full join

VALUES = ["1", "2", "a", "(1,a)", "(2,1)"]
CONSTANTS = ["1", "a"]


@st.composite
def symmetric_statements(draw):
    """A program over a/k, and a statement joining two a atoms that
    swapping each X_i with its Y_i maps onto itself. Returns (program,
    statement, the swapped variable pairs)."""
    arity = draw(st.integers(1, 4))
    kinds = draw(st.lists(st.sampled_from(["var", "var", "tuple", "shared", "const", "anon"]),
                          min_size=arity, max_size=arity))
    if not {"var", "tuple"} & set(kinds):
        kinds[draw(st.integers(0, arity - 1))] = "var"
    left, right, pairs, shared = [], [], [], []
    for i, kind in enumerate(kinds):
        x, y, z = f"X{i}", f"Y{i}", f"Z{i}"
        if kind == "var":
            left.append(x), right.append(y), pairs.append((x, y))
        elif kind == "tuple":
            rest = draw(st.sampled_from(["1", "a", "_"]))
            left.append(f"({x}, {rest})"), right.append(f"({y}, {rest})"), pairs.append((x, y))
        elif kind == "shared":
            left.append(z), right.append(z), shared.append(z)
        else:
            constant = draw(st.sampled_from(CONSTANTS)) if kind == "const" else "_"
            left.append(constant), right.append(constant)

    value_tuples = st.lists(st.sampled_from(VALUES), min_size=arity, max_size=arity).map(", ".join)
    facts = draw(st.lists(value_tuples, max_size=3, unique=True))
    candidates = draw(st.lists(value_tuples, min_size=1, max_size=4, unique=True))
    lower = draw(st.integers(0, 1))
    program = [f"a({args})." for args in facts]
    program.append(f"{lower} {{{'; '.join(f'a({args})' for args in candidates)}}} {lower + 2}.")
    program.append("e(1). e((1,a)). {e(a); e(2)}.")

    def mirrored(templates):
        """A template over one variable pair, instantiated both ways round."""
        x, y = draw(st.sampled_from(pairs))
        template = draw(st.sampled_from(templates))
        return [template.format(x, y), template.format(y, x)]

    body = [f"a({', '.join(left)})", f"a({', '.join(right)})"]
    if shared and draw(st.booleans()):
        body.append(f"e({draw(st.sampled_from(shared))})")
    elif draw(st.booleans()):
        body.append("e(1)")
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["distinct", "unordered", "both", "negated"]))
        if kind == "distinct":
            body.append(f"({', '.join(xs)}) != ({', '.join(ys)})" if len(pairs) > 1 else f"{xs[0]} != {ys[0]}")
        elif kind == "unordered":
            body.append(mirrored(["{0} = {1}", "{0} == {1}", "{0} != {1}"])[0])
        elif kind == "both":
            body.extend(mirrored(["{0} != 1", "not {0} = a", "{0} > 1"]))
        else:
            body.extend(mirrored(["not e({0})"]))
    body = draw(st.permutations(body))

    if draw(st.booleans()):
        head = ""
    else:
        elements = []
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(["unordered", "both", "shared"] if shared else ["unordered", "both"]))
            if kind == "unordered":
                elements.append(mirrored(["{0} = {1}", "{0} == {1}"])[0])
            elif kind == "both":
                elements.extend(mirrored(["{0} = 1", "{0} == a", "{0} != {1}", "{0} != 1", "{0} < {1}",
                                          "{0} + 1 = 2", "{0} - 1 = {1}"]))
            else:
                elements.append(f"{draw(st.sampled_from(shared))} = 1")
        head = f"{{{'; '.join(draw(st.permutations(elements)))}}} = {draw(st.integers(0, 3))} "
    statement = f"{head}:- {', '.join(body)}."
    return "\n".join(program), statement, pairs


@settings(max_examples=400, deadline=None)
@given(symmetric_statements())
def test_a_symmetric_statement_grounds_as_its_full_join(case):
    program, statement, pairs = case
    # x = x holds on every binding, raises nothing, and breaks the symmetry
    twin = statement[:-1] + f", {pairs[0][0]} = {pairs[0][0]}."
    assert last_mirror(statement) is not None
    assert last_mirror(twin) is None
    assert ground_outcome(f"{program}\n{statement}") == ground_outcome(f"{program}\n{twin}")


# --------------------------------------------------------------------------
# Cardinality elements count as a set

def reference_count(elements, binding):
    """True elements, counting elements that instantiate alike once: the
    first of them decides, whether negated or not. Values are integers."""
    seen, count = set(), 0
    for lhs, op, rhs, negated in elements:
        key = (binding.get(lhs, lhs), op, binding.get(rhs, rhs))
        if key not in seen:
            seen.add(key)
            lhs, rhs = key[0], key[2]
            holds = {"=": lhs == rhs, "==": lhs == rhs, "!=": lhs != rhs, "<": lhs < rhs}[op]
            count += holds != negated
    return count


# the parser reads no negated element, so elements are built by hand, with
# every op and either negation
ELEMENTS = st.lists(st.tuples(st.sampled_from(["X", "Y", 1]), st.sampled_from(["=", "==", "!=", "<"]),
                              st.sampled_from(["X", "Y", 1]), st.booleans()), min_size=1, max_size=4)


@settings(max_examples=300, deadline=None)
@given(ELEMENTS, st.integers(0, 3))
def test_elements_that_instantiate_alike_count_once(elements, count):
    *program, stmt = statements("p(1;2). {q(X) : p(X)}. {X = Y} = 0 :- q(X), q(Y).")
    term = {"X": Var("X"), "Y": Var("Y"), 1: Num(1)}
    stmt = replace(stmt, count=count, elements=tuple(
        CmpLit(term[lhs], op, term[rhs], negated) for lhs, op, rhs, negated in elements))
    expected = {}
    for x, y in itertools.product((1, 2), repeat=2):
        if reference_count(elements, {"X": x, "Y": y}) != count:
            atoms = [GroundAtom("q", (v,)) for v in dict.fromkeys((x, y))]
            expected.setdefault(frozenset(atoms), tuple(atoms))
    assert [c.pos for c in ground_program([*program, stmt]).constraints] == list(expected.values())


# --------------------------------------------------------------------------
# Routing from dedup keys

def reference_route(constraints, symbols):
    """Route ground constraints, given as (pos, neg) pairs, atom by atom, as
    `ground.Route` says."""
    id_of = symbols.id_of
    always_violated = False
    forbidden, partners, deferred = set(), {}, set()
    for cons in constraints:
        if not all(a in id_of for a in cons[0]):
            continue
        neg = [id_of[a] for a in cons[1] if a in id_of]
        if any(n in symbols.fact_ids for n in neg):
            continue
        pos = [id_of[a] for a in cons[0] if id_of[a] not in symbols.fact_ids]
        if not pos and not neg:
            always_violated = True
        elif neg or len(pos) > 2 or not symbols.derivable.isdisjoint(pos):
            deferred.add((frozenset(pos), frozenset(neg)))
        elif len(pos) == 1:
            forbidden.add(pos[0])
        else:
            a, b = pos
            partners.setdefault(a, set()).add(b)
            partners.setdefault(b, set()).add(a)
    masks = {a: sum(1 << b for b in bs) for a, bs in partners.items()}
    return always_violated, forbidden, masks, deferred


def assert_routes_match_the_reference(text):
    """Check the route of each constraint statement of `text` that grounds
    against `reference_route`, and return how many were checked."""
    stmts = statements(text)
    try:
        skeleton = ground._ground_skeleton(tuple(
            (s, s.source_text) for s in stmts if isinstance(s, (Fact, Rule, Choice))))
    except GroundingError:
        return 0
    checked = 0
    for stmt in stmts:
        if isinstance(stmt, (Constraint, CardinalityRule)):
            try:
                keyed, route = ground._compile_statement(stmt, skeleton)
            except GroundingError:
                continue
            routed = (route.always_violated, route.forbidden, route.partners, set(route.deferred))
            assert routed == reference_route(keyed.values(), skeleton.symbols), stmt.source_text
            checked += 1
    return checked


def constraint_statements(text):
    return sum(isinstance(s, (Constraint, CardinalityRule)) for s in statements(text))


ROUTED = [
    # r is never derivable, so the skeleton does not intern it: a
    # constraint negating it is keyed by its sets
    "{p}. a :- p, not b. b :- p, not a. r :- p, q. :- not r. :- not r, not a. :- p, not r.",
    "d(1;2). {c(X) : d(X)}. h(X) :- c(X). :- c(1), not h(2). :- c(X), not g(X). :- d(1), not c(2).",
    "d(1;2;3). 1 {c(X) : d(X)} 2. c(3). :- c(X), c(Y), c(Z), X < Y, Y < Z. :- c(3), c(1). :- c(2). :- d(1).",
]


@pytest.mark.parametrize("text", ROUTED, ids=[f"case{i}" for i in range(len(ROUTED))])
def test_routes_from_dedup_keys_match_routing_atom_by_atom(text):
    assert assert_routes_match_the_reference(text) == constraint_statements(text)


def test_puzzle_routes_match_routing_atom_by_atom():
    for instance in ("tattoo_parlor", "event_planning"):
        text = fixtures.reference_blocks(instance).full_program
        assert assert_routes_match_the_reference(text) == constraint_statements(text)


def test_routes_of_random_programs_and_reference_prefixes_match_routing_atom_by_atom():
    # the random programs route derivable atoms, constraints keyed by their
    # sets and the same atom at both levels of a pair; ROUTED above routes
    # facts inside a pair
    pinned = json.loads(Path(__file__).with_name("ground_random.json").read_text(encoding="utf-8"))
    assert sum(assert_routes_match_the_reference(text) for text, _ in pinned) == 218
    prefixes = []
    for instance in fixtures.puzzles():
        blocks = fixtures.reference_blocks(instance.id)
        prefixes += ["\n\n".join((blocks.base, *blocks.hints[:k])) for k in range(len(blocks.hints) + 1)]
    assert len(prefixes) == 41
    for text in prefixes:
        assert assert_routes_match_the_reference(text) == constraint_statements(text), text


# --------------------------------------------------------------------------
# Indexed joins walk only the atoms a bound argument can match

PINNED_RANDOM = Path(__file__).with_name("ground_random.json")


def tattoo_parlor_statements():
    """tattoo_parlor's skeleton, its pairwise statement, and its clue on
    two atoms, each narrowed by a constant to 64 of the 256 atoms."""
    blocks = fixtures.reference_blocks("tattoo_parlor")
    base = statements(blocks.base)
    skeleton = ground._ground_skeleton(tuple(
        (s, s.source_text) for s in base if isinstance(s, (Fact, Rule, Choice))))
    clue = next(stmt for hint in blocks.hints for stmt in statements(hint)
                if stmt.source_text.startswith("{ Co1 = pink"))
    return skeleton, base[-1], clue


class Walked(list):
    """A bucket that logs its length each time a loop walks it."""

    def __init__(self, items, log):
        super().__init__(items)
        self.log = log

    def __iter__(self):
        self.log.append(len(self))
        return super().__iter__()


def walked(skeleton, stmt):
    """The length of each bucket that compiling `stmt` walks, in order."""
    log, buckets = [], skeleton.buckets

    class Logging(ground._Buckets):
        def by_value(self, key, position):
            return {value: Walked(group, log) for value, group in buckets.by_value(key, position).items()}

    logging = Logging({}, {})
    logging.pairs = {key: Walked(pairs, log) for key, pairs in buckets.pairs.items()}
    ground._compile_statement(stmt, replace(skeleton, buckets=logging))
    return log


def test_a_join_walks_only_the_atoms_a_constant_or_a_bound_variable_matches():
    skeleton, pairwise, clue = tattoo_parlor_statements()
    # the 50s once, then the virgos once per match
    assert walked(skeleton, clue) == [64] * 65
    # the pisces once, then per match the atoms of its customer
    bound, = statements(":- assignment(_, C, _, pisces), assignment(_, C, black, _).")
    assert walked(skeleton, bound) == [64] * 65
    # the two levels a symmetry swaps walk the whole bucket
    assert ground._mirror(pairwise, ground._Plan(pairwise.body, skeleton.dependent, pairwise.source_text))
    assert walked(skeleton, pairwise) == [256] * 257


def test_an_indexed_join_counts_the_atoms_of_the_whole_bucket_against_the_budget(monkeypatch):
    skeleton, _, clue = tattoo_parlor_statements()
    # 256 atoms at level 0, and 256 at level 1 for each of the 64 matches,
    # as a walk of the whole buckets tries them
    tried = 256 + 64 * 256
    monkeypatch.setattr(ground, "JOIN_BUDGET", tried)
    ground._compile_statement(clue, skeleton)
    monkeypatch.setattr(ground, "JOIN_BUDGET", tried - 1)
    with pytest.raises(GroundingError, match=f"budget of {tried - 1} atoms tried in one join"):
        ground._compile_statement(clue, skeleton)


def test_arithmetic_before_a_bound_argument_keeps_the_level_unindexed():
    # with X = a, q((1, 2), 1) raises at X - 1 before its X is tested, so
    # its level may not skip the atoms whose second argument is not X
    text, pinned = next((text, outcome) for text, outcome in json.loads(PINNED_RANDOM.read_text(encoding="utf-8"))
                        if "q((Y, X - 1), X)" in text)
    assert pinned.startswith("GroundingError: arithmetic over a symbolic constant")
    assert ground_outcome(text) == "arithmetic over a symbolic constant"


def test_indexing_changes_no_outcome(monkeypatch):
    texts = [text for text, _ in json.loads(PINNED_RANDOM.read_text(encoding="utf-8"))]
    texts += [fixtures.reference_blocks(instance.id).full_program for instance in fixtures.puzzles()]
    ground._ground_skeleton.cache_clear()
    indexed = [ground_outcome(text) for text in texts]
    monkeypatch.setattr(ground, "_index_position", lambda args, bound: None)
    try:
        ground._ground_skeleton.cache_clear()
        assert [ground_outcome(text) for text in texts] == indexed
    finally:
        monkeypatch.undo()
        ground._ground_skeleton.cache_clear()


# --------------------------------------------------------------------------
# Generated join source holds no program text

def generated_sources(monkeypatch, text):
    """The source of every join function that grounding `text` compiles
    from a cold skeleton, in order."""
    sources = []
    factory = ground._factory

    def recording(source):
        sources.append(source)
        return factory(source)

    monkeypatch.setattr(ground, "_factory", recording)
    ground._ground_skeleton.cache_clear()
    ground_program(statements(text))
    monkeypatch.undo()
    return sources


def identifiers(text):
    return {tok.string for tok in tokenize.generate_tokens(io.StringIO(text).readline) if tok.type == tokenize.NAME}


# one shape in two spellings: a fact with arithmetic, a pooled fact, a rule
# with a tuple and a negated atom, a choice with element conditions and a
# body, a cardinality head with arithmetic and a plain constraint
SHAPES = (
    "f(1 + 2). g(3; 4). h(X, (X, 5)) :- g(X), not k(X). {c(X, Y) : g(Y), X != Y} 1 :- g(X). "
    "{X = Y; X + 1 = Y} = 1 :- c(X, Y), h(X, _). :- c(X, Y), c(Y, X), X < Y.",
    "fact(7 + 8). gen(10; 20). hold(Z, (Z, six)) :- gen(Z), not knot(Z). {choose(Z, W) : gen(W), Z != W} 1 "
    ":- gen(Z). {Z = W; Z + 1 = W} = 1 :- choose(Z, W), hold(Z, _). :- choose(Z, W), choose(W, Z), Z < W.",
)


def test_statements_of_one_shape_share_their_join_source(monkeypatch):
    first, second = (generated_sources(monkeypatch, text) for text in SHAPES)
    assert len(first) == 9
    assert first == second
    # the pairwise rules of two puzzle bases, and two clues of one shape
    bases = [generated_sources(monkeypatch, fixtures.reference_blocks(instance).base)
             for instance in ("tattoo_parlor", "harbor_cruises")]
    assert bases[0][-1] == bases[1][-1]
    blocks = fixtures.reference_blocks("tattoo_parlor")
    clues = [stmt.source_text for hint in blocks.hints for stmt in statements(hint)
             if stmt.source_text.startswith(("{ Co1 = pink", "{ Co1 = violet"))]
    assert len(clues) == 2
    pink, violet = (generated_sources(monkeypatch, f"{blocks.base}\n\n{clue}")[-1] for clue in clues)
    assert pink == violet


def test_join_source_holds_no_program_identifier(monkeypatch):
    for text in (*SHAPES, fixtures.reference_blocks("tattoo_parlor").full_program):
        # `_` and `not` are the syntax of both languages
        program = identifiers(text) - {"_", "not"}
        for source in generated_sources(monkeypatch, text):
            assert not program & identifiers(source), source


# --------------------------------------------------------------------------
# Ground programs refer to their skeleton's compiled statements

def test_the_same_text_grounded_cold_and_warm_compares_equal():
    text = fixtures.reference_blocks("event_planning").full_program
    ground._ground_skeleton.cache_clear()
    cold = ground_program(statements(text))
    warm = ground_program(statements(text))
    assert warm is not cold
    # the warm program shares the compiled statements instead of copying them
    assert all(w is c for w, c in zip(warm.keyed, cold.keyed, strict=True))
    assert warm == cold
    assert [(c.pos, c.neg, c.source) for c in warm.constraints] == [
        (c.pos, c.neg, c.source) for c in cold.constraints]


@pytest.mark.parametrize("other", [
    "{p; q; r}. :- p, r.",  # one constraint statement replaced
    "{p; q; r}. :- p, q. :- q, r.",  # one added
    "{p; q; r}.",  # the only one removed
])
def test_programs_that_differ_by_one_constraint_statement_compare_unequal(other):
    text = "{p; q; r}. :- p, q."
    assert ground_program(statements(text)) == ground_program(statements(text))
    assert ground_program(statements(other)) != ground_program(statements(text))
