"""The grounder's symmetric statements and constraint routes.

A constraint statement that a swap of its variables maps onto itself joins
only one match of each mirrored pair (`ground._mirror`). These tests pin
which statements it finds symmetric, and that restricting the join changes
nothing: each symmetric statement grounds exactly as the same statement with
a literal added that holds on every binding but breaks the symmetry.
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from asploop import fixtures
from asploop.asp import GroundingError, ground_program, parse_program
from asploop.asp import ground
from asploop.asp.syntax import CardinalityRule, Choice, CmpLit, Constraint, Fact, GroundAtom, Num, Rule, Var


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
    negated = dataclasses.replace(stmt, elements=(dataclasses.replace(stmt.elements[0], negated=True),))
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
    first of them decides, whether negated or not."""
    seen, count = set(), 0
    for lhs, op, rhs, negated in elements:
        key = (binding.get(lhs, lhs), op, binding.get(rhs, rhs))
        if key not in seen:
            seen.add(key)
            count += ground._test_fn(op, negated)(key[0], key[2])
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
    stmt = dataclasses.replace(stmt, count=count, elements=tuple(
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
    """Route ground constraints atom by atom, as `ground.Route` says."""
    id_of = symbols.id_of
    always_violated = False
    forbidden, partners, deferred = set(), {}, set()
    for cons in constraints:
        if not all(a in id_of for a in cons.pos):
            continue
        neg = [id_of[a] for a in cons.neg if a in id_of]
        if any(n in symbols.fact_ids for n in neg):
            continue
        pos = [id_of[a] for a in cons.pos if id_of[a] not in symbols.fact_ids]
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
    keep = {}
    for a, bs in partners.items():
        cleared = [0] * len(symbols.groups)
        for b in bs:
            for g, bit in symbols.slots.get(b, ()):
                cleared[g] |= bit
        keep[a] = tuple(~m for m in cleared)
    return always_violated, forbidden, keep, deferred


def assert_routes_match_the_reference(text):
    stmts = statements(text)
    try:
        skeleton = ground._ground_skeleton(tuple(
            (s, s.source_text) for s in stmts if isinstance(s, (Fact, Rule, Choice))))
    except GroundingError:
        return
    for stmt in stmts:
        if isinstance(stmt, (Constraint, CardinalityRule)):
            keyed, route = ground._compile_statement(stmt, skeleton)
            routed = (route.always_violated, route.forbidden, route.partners, set(route.deferred))
            assert routed == reference_route(keyed.values(), skeleton.program.symbols), stmt.source_text


ROUTED = [
    # r is never derivable, so the skeleton does not intern it: a
    # constraint negating it is keyed by its sets
    "{p}. a :- p, not b. b :- p, not a. r :- p, q. :- not r. :- not r, not a. :- p, not r.",
    "d(1;2). {c(X) : d(X)}. h(X) :- c(X). :- c(1), not h(2). :- c(X), not g(X). :- d(1), not c(2).",
    "d(1;2;3). 1 {c(X) : d(X)} 2. c(3). :- c(X), c(Y), c(Z), X < Y, Y < Z. :- c(3), c(1). :- c(2). :- d(1).",
]


@pytest.mark.parametrize("text", ROUTED, ids=[f"case{i}" for i in range(len(ROUTED))])
def test_routes_from_dedup_keys_match_routing_atom_by_atom(text):
    assert_routes_match_the_reference(text)


def test_puzzle_routes_match_routing_atom_by_atom():
    for instance in ("tattoo_parlor", "event_planning"):
        assert_routes_match_the_reference(fixtures.reference_blocks(instance).full_program)
