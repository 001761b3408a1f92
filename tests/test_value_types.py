"""Each value type behaves as the dataclass it replaces.

For every class, a `dataclasses.make_dataclass` twin is declared with the
fields and options of the old `@dataclass` declaration. Instances built
from the same arguments must agree on equality, hashing, repr, `replace`,
defaults and (for frozen types) rejecting assignment.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import subprocess
import sys
from dataclasses import field
from pathlib import Path
from typing import Any

import pytest

import asploop
from asploop import fixtures
from asploop.asp.ground import (
    GroundChoice,
    GroundConstraint,
    GroundProgram,
    GroundRule,
    Route,
    _Skeleton,
)
from asploop.asp.parser import Diagnostic, ParseResult, Token, _FuncShape
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
    GroundAtom,
    Num,
    Rule,
    Sym,
    Tup,
    Var,
)
from asploop.datagen import DfsConfig, PreferenceRecord, SftRecord
from asploop.fixtures import ReferenceEncoding
from asploop.fixtures.build import PuzzleSpec
from asploop.gateway import SolverVerdict
from asploop.generators import RawCompletion
from asploop.matching import MatchReport
from asploop.puzzles import EntityCategory, PuzzleInstance
from asploop.rewards import RewardValue
from asploop.search import SearchConfig, SearchOutcome
from asploop.trajectory import CandidateEncoding, Step, Trajectory
from asploop.value_types import FRESH, replace, set_field, value_type


def opt(name, default=dataclasses.MISSING, factory=dataclasses.MISSING, **options):
    return (name, Any, field(default=default, default_factory=factory, **options))


def source(name):
    return opt(name, "", compare=False)


def hidden(name):
    return opt(name, compare=False, repr=False)


def _ground_atom_hash(self):
    object.__setattr__(self, "_hash", hash((self.pred, self.args)))


def _drop_models_on_error(self):
    if self.has_error:
        self.models = []


# the old declarations' extra members that change behaviour
TWIN_NAMESPACES = {
    GroundAtom: {"__post_init__": _ground_atom_hash, "__hash__": lambda self: self._hash},
    SolverVerdict: {"__post_init__": _drop_models_on_error},
}
TWIN_EXTRA_FIELDS = {GroundAtom: [("_hash", Any, field(init=False, repr=False, compare=False))]}

ATOM = Atom("p", (Var("X"), Num(1)))
LIT = AtomLit(ATOM, True)
CMP = CmpLit(Var("X"), "<", Num(3))
ELEMENT = ChoiceElement(ATOM, (LIT,))
GA = GroundAtom("p", (1, "a"))
VERDICT = SolverVerdict([frozenset({GA})], 10)
INSTANCE = fixtures.puzzles()[0]
INSTANCE_ARGS = (INSTANCE.id, INSTANCE.description, INSTANCE.categories, INSTANCE.hints,
                 INSTANCE.solution)

# class, frozen, the old fields in order, and two argument tuples that differ
# in every compared field (a pair of them mixes into valid arguments)
SPECS = [
    (Num, True, ["value"], (1,), (2,)),
    (Sym, True, ["name"], ("a",), ("b",)),
    (Var, True, ["name"], ("X",), ("Y",)),
    (Anon, True, [], (), ()),
    (Arith, True, ["op", "lhs", "rhs"], ("+", Num(1), Var("X")), ("-", Var("Y"), Num(2))),
    (Tup, True, ["items"], ((Num(1), Sym("a")),), ((Num(1),),)),
    (Atom, True, ["pred", opt("args", ())], ("p", (Var("X"),)), ("q", ())),
    (AtomLit, True, ["atom", opt("negated", False)], (ATOM, False), (Atom("q"), True)),
    (CmpLit, True, ["lhs", "op", "rhs", opt("negated", False)],
     (Var("X"), "<", Num(3), False), (Num(1), "!=", Var("Y"), True)),
    (ChoiceElement, True, ["atom", opt("conditions", ())], (ATOM, (LIT,)), (Atom("q"), ())),
    (Fact, True, ["atom", source("source_text")], (ATOM, "p(X, 1)."), (Atom("q"), "q.")),
    (Rule, True, ["head", "body", source("source_text")], (ATOM, (LIT,), "r"), (Atom("q"), (), "")),
    (Constraint, True, ["body", source("source_text")], ((LIT,), ":- p."), ((), "")),
    (Choice, True, ["lower", "upper", "elements", opt("body", ()), source("source_text")],
     (1, 2, (ELEMENT,), (LIT,), "{p}."), (0, None, (), (), "")),
    (CardinalityRule, True, ["elements", "count", opt("body", ()), source("source_text")],
     ((CMP,), 1, (LIT,), "c"), ((), 0, (), "")),
    (GroundAtom, True, ["pred", opt("args", ())], ("p", (1, "a")), ("q", ((1, 2),))),
    (Diagnostic, True, ["severity", "message", "line", "col"],
     ("error", "bad", 1, 2), ("unsupported", "worse", 3, 4)),
    (ParseResult, False, [opt("statements", factory=list), opt("diagnostics", factory=list)],
     ([Fact(ATOM)], [Diagnostic("error", "bad", 1, 2)]), ([], [])),
    (Token, True, ["type", "text", "line", "col"], ("IDENT", "p", 1, 1), ("OP", ".", 2, 3)),
    (_FuncShape, True, ["pred", "args"], ("f", (Num(1),)), ("g", ())),
    (GroundChoice, True, ["lower", "upper", "candidates", source("source")],
     (0, None, (GA,), "{p}."), (1, 1, (), "")),
    (GroundRule, True, ["head", "pos", "neg", source("source")],
     (GA, (GA,), (), "r"), (GroundAtom("q"), (), (GA,), "")),
    (GroundConstraint, True, ["pos", "neg", source("source")], ((GA,), (), "c"), ((), (GA,), "")),
    (Route, True, ["always_violated", "forbidden", "partners", "deferred"],
     (False, frozenset({1}), {1: 2}, ()), (True, frozenset(), {}, ((frozenset({1}), frozenset()),))),
    (GroundProgram, False,
     ["facts", "choices", "rules", "possible", "keyed", hidden("sources"), hidden("symbols"),
      hidden("routes")],
     (frozenset({GA}), [], [], frozenset({GA}), ({},), ("c",), "symbols", ()),
     (frozenset(), [GroundChoice(0, None, ())], [GroundRule(GA, (), ())], frozenset(), (), (), None,
      (Route(True, frozenset(), {}, ()),))),
    (_Skeleton, False,
     ["facts", "choices", "rules", "possible", "symbols", "dependent", "base", "buckets",
      opt("constraints", factory=dict)],
     (frozenset({GA}), [], [], frozenset({GA}), None, set(), {GA}, {}, {}),
     (frozenset(), [GroundChoice(0, None, ())], [GroundRule(GA, (), ())], frozenset(), "symbols",
      {("p", 1)}, set(), {("p", 2): [GA]}, {"k": 1})),
    (EntityCategory, True, ["name", "members"], ("color", ("red", "blue")), ("size", ("s",))),
    (PuzzleInstance, True,
     ["id", "description", "categories", "hints", "solution", opt("meta", factory=dict, compare=False)],
     (*INSTANCE_ARGS, {"source": "a"}), ("other", "another", *INSTANCE_ARGS[2:], {})),
    (ReferenceEncoding, True, ["instance_id", "base", "hints"], ("id", "base", ("h",)), ("x", "", ())),
    (PuzzleSpec, True, ["instance", "base", "blocks"], (INSTANCE, "base", ("b",)), (None, "", ())),
    (RawCompletion, True, ["text", opt("token_count", 0)], ("text", 3), ("other", 0)),
    (RewardValue, True, ["recip_term", "flag"], (0.5, None), (0.0, "unsat")),
    (MatchReport, False,
     ["matched", opt("method", None), opt("assignment_map", factory=dict),
      opt("item_matrix", factory=list), opt("diagnostics", factory=list)],
     (True, "exact", {0: 1}, [[(0, 1)]], ["d"]), (False, None, {}, [], [])),
    (SearchConfig, False,
     [opt("n", 5), opt("temperature", 1.0), opt("backtrack_limit", 5), opt("regen_multiplier", 2),
      opt("enable_regeneration", True), opt("cap", None), opt("shots", ()), opt("preamble", None)],
     (3, 0.5, 2, 1, False, 10, ("s",), "pre"), (4, 1.0, 5, 2, True, None, (), None)),
    (SearchOutcome, False,
     ["final_program", "final_verdict", opt("trace", factory=list), opt("total_output_tokens", 0)],
     ("prog", VERDICT, [{"a": 1}], 7), ("other", None, [], 0)),
    (CandidateEncoding, False,
     ["text", opt("verdict", None), opt("reward", None), opt("label", None), opt("token_count", 0)],
     ("t", VERDICT, RewardValue(1.0, None), "chosen", 3), ("u", SolverVerdict([], 5), None, None, 0)),
    (Step, False,
     ["input_text", opt("candidates", factory=list), opt("selected_index", None)],
     ("in", [CandidateEncoding("t")], 0), ("other", [], None)),
    (Trajectory, False, ["instance_ref", opt("steps", factory=list)], ("ref", [Step("in")]), ("x", [])),
    (SftRecord, True, ["prompt", "completion", "instance_id", "step_index", "branch_id"],
     ("p", "c", "id", 0, "b"), ("q", "d", "other", 1, "")),
    (PreferenceRecord, True,
     ["prompt", "chosen", "rejected", "instance_id", "step_index", "branch_id"],
     ("p", "yes", "no", "id", 0, "b"), ("q", "maybe", "never", "other", 1, "")),
    (DfsConfig, False,
     [opt("n_samples", 5), opt("temperature", 0.8), opt("max_chosen_branch", 2), opt("cap", None),
      opt("shots", ()), opt("preamble", None)],
     (3, 0.5, 1, 10, ("s",), "pre"), (4, 0.8, 2, None, (), None)),
    (SolverVerdict, False,
     ["models", "cap", opt("diagnostics", factory=list), opt("has_error", False),
      opt("wall_time", 0.0)],
     ([frozenset({GA})], 10, ["d"], False, 0.5), ((), 5, [], True, 0.0)),
]


def twin_of(cls, frozen, declared):
    specs = [(f, Any) if isinstance(f, str) else f for f in declared]
    return dataclasses.make_dataclass(cls.__name__, specs + TWIN_EXTRA_FIELDS.get(cls, []),
                                      frozen=frozen, namespace=TWIN_NAMESPACES.get(cls, {}))


def hashed(obj):
    try:
        return hash(obj)
    except TypeError as exc:
        return str(exc).replace(type(obj).__name__, "<type>")


def values(obj, names):
    return [getattr(obj, name) for name in names]


def required(twin):
    """How many of the twin's fields have no default."""
    return sum(1 for f in dataclasses.fields(twin) if f.init and f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING)


@pytest.mark.parametrize("cls, frozen, declared, a, b", SPECS, ids=[s[0].__name__ for s in SPECS])
def test_a_value_type_behaves_as_its_dataclass_twin(cls, frozen, declared, a, b):
    twin = twin_of(cls, frozen, declared)
    names = tuple(f.name for f in dataclasses.fields(twin) if f.init)
    assert cls.__match_args__ == names
    for args in (a, b):
        ours, theirs = cls(*args), twin(*args)
        assert repr(ours) == repr(theirs)
        assert hashed(ours) == hashed(theirs)
        assert ours != theirs and theirs != ours
        assert replace(ours) == ours and replace(ours) is not ours
    for p in (a, b):
        for q in (a, b):
            assert (cls(*p) == cls(*q)) is (twin(*p) == twin(*q))
    # one field at a time from b
    for name, value in zip(names, b):
        ours = replace(cls(*a), **{name: value})
        theirs = dataclasses.replace(twin(*a), **{name: value})
        assert repr(ours) == repr(theirs)
        assert (ours == cls(*a)) is (theirs == twin(*a))
        assert values(ours, names) == values(theirs, names)
    # only the arguments without defaults
    ours, theirs = cls(*a[:required(twin)]), twin(*a[:required(twin)])
    assert repr(ours) == repr(theirs)
    assert values(ours, names) == values(theirs, names)
    # assignment
    ours, theirs = cls(*a), twin(*a)
    for obj in (ours, theirs):
        if frozen:
            for name in (*names, "other"):
                with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                    setattr(obj, name, None)
                with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                    delattr(obj, name)
        else:
            for name in names:
                setattr(obj, name, None)
    assert repr(ours) == repr(theirs)


@value_type(frozen=True)
class _Empty:
    def __init__(self):
        pass


@value_type(frozen=True, skip_compare=("note",), skip_repr=("note",))
class _One:
    def __init__(self, name, note=""):
        set_field(self, "name", name)
        set_field(self, "note", note)


@value_type
class _Two:
    def __init__(self, name, items=FRESH):
        self.name = name
        self.items = [] if items is FRESH else items


@pytest.mark.parametrize("cls, frozen, declared, a, b", [
    (_Empty, True, [], (), ()),
    (_One, True, ["name", opt("note", "", compare=False, repr=False)], ("x",), ("y", "note")),
    (_Two, False, ["name", opt("items", factory=list)], ("x", [1]), ("y",)),
], ids=["no-field", "one-compared-field", "mutable"])
def test_the_shared_methods_behave_as_a_dataclass_for_any_field_count(cls, frozen, declared, a, b):
    # value_type's key takes one path for no compared field, one for one, one for more
    twin = twin_of(cls, frozen, declared)
    for p in (a, b):
        assert repr(cls(*p)) == repr(twin(*p))
        assert hashed(cls(*p)) == hashed(twin(*p))
        for q in (a, b):
            assert (cls(*p) == cls(*q)) is (twin(*p) == twin(*q))
    assert cls(*a).__eq__(twin(*a)) is NotImplemented
    # an instance of a subclass is of another type, so never equal
    sub, twin_sub = type("Sub", (cls,), {}), type("Sub", (twin,), {})
    assert (sub(*a) == cls(*a)) is (twin_sub(*a) == twin(*a)) is False


def test_default_containers_are_not_shared():
    for cls, frozen, declared, a, _ in SPECS:
        twin = twin_of(cls, frozen, declared)
        factories = [f.name for f in dataclasses.fields(twin)
                     if f.default_factory is not dataclasses.MISSING]
        if not factories:
            continue
        first, second = cls(*a[:required(twin)]), cls(*a[:required(twin)])
        for name in factories:
            assert getattr(first, name) == getattr(second, name) and not getattr(first, name)
            assert getattr(first, name) is not getattr(second, name), (cls.__name__, name)


def test_terms_of_different_types_with_equal_fields_differ():
    assert Var("X") != Sym("X")
    assert len({Var("X"), Sym("X")}) == 2
    assert Num(1) != 1 and Tup((Num(1),)) != (Num(1),)


def test_statements_differing_only_in_source_text_are_equal():
    a, b = Fact(ATOM, "p(X,1)."), Fact(ATOM, "p(X, 1).")
    assert a == b and hash(a) == hash(b) == hash((ATOM,))
    assert {a: 1}[b] == 1


def test_a_ground_atom_survives_pickling_across_hash_seeds():
    atom = GroundAtom("p", ("a", (1, "b")))
    assert pickle.loads(pickle.dumps(atom)) == atom
    # pickled where str hashes differ: the cached hash is recomputed here
    env = {**os.environ, "PYTHONPATH": str(Path(asploop.__file__).parents[1]), "PYTHONHASHSEED": "1"}
    code = ("import pickle, sys; from asploop.asp.syntax import GroundAtom; "
            "sys.stdout.buffer.write(pickle.dumps(GroundAtom('p', ('a', (1, 'b')))))")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True,
                         timeout=60)
    loaded = pickle.loads(run.stdout)
    assert loaded == atom and hash(loaded) == hash(atom) == hash(("p", ("a", (1, "b"))))
    assert loaded in {atom}


def test_a_statement_keeps_its_hash_but_does_not_pickle_it():
    rule = Rule(ATOM, (AtomLit(Atom("q", (Sym("a"),))),), "p(X,1) :- q(a).")
    assert hash(rule) == hash(rule) == hash((rule.head, rule.body))
    assert "_hash" in vars(rule) and replace(rule) == rule
    # pickled where str hashes differ: the hash is computed again here
    env = {**os.environ, "PYTHONPATH": str(Path(asploop.__file__).parents[1]), "PYTHONHASHSEED": "1"}
    code = ("import pickle, sys; from asploop.asp.syntax import *; "
            "stmt = Rule(Atom('p', (Var('X'), Num(1))), (AtomLit(Atom('q', (Sym('a'),))),), "
            "'p(X,1) :- q(a).'); hash(stmt); sys.stdout.buffer.write(pickle.dumps(stmt))")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True,
                         timeout=60)
    loaded = pickle.loads(run.stdout)
    assert "_hash" not in vars(loaded) and loaded.source_text == rule.source_text
    assert loaded == rule and hash(loaded) == hash(rule)
    assert loaded in {rule}
