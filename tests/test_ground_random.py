"""The grounder's output on random programs, pinned.

`tests/ground_order.json` pins the 68 corpus programs, which have no rules,
arithmetic, tuples or negation. These programs have all of them: facts with
arithmetic, rules (one of them recursive), choices with element conditions
and bodies, constraints and cardinality heads whose elements do arithmetic,
over the building blocks of `term_programs` in test_asp_solve.py. Each
program's ground choices, rules and constraints, in order, or its error
message, is pinned in `tests/ground_random.json`.

Re-record on purpose only, with

    PYTHONPATH=src python tests/test_ground_random.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from asploop.asp import GroundingError, ground_program, parse_program, render_ground_atom

PINNED = Path(__file__).with_name("ground_random.json")
PROGRAMS = 500

LEAVES = ["X", "X", "X", "X", "Y", "1", "2", "a", "_"]
# what heads, negated atoms and comparisons read: never `_`, rarely `a`
READ_LEAVES = ["X", "X", "X", "Y", "Y", "1", "2", "a"]
NUMBERS = ["X", "X", "Y", "1", "2", "2", "2", "2", "2", "2", "2", "2", "a"]
OPS = ["=", "==", "!=", "<", "<=", ">", ">="]
FACTS = "p(1;2;3;a). p((2,1)). p((a,1)). q(1,2). q(2,a). q((1,2),1). n(1;2;3)."
BINDINGS = ("p(X)", "q(X, Y)", "p((X, Y))", "p(1)", "n(X), n(Y)", "n(X), n(Y)", "n(X), n(Y)", "n(X), q(X, Y)",
            "n(Y), p(X)")
DEPENDENT = ("c(X)", "c(X), c(Y)", "c(X, Y)", "c(X), n(Y)", "h(X)", "h(X), c(Y)", "n(X), h(Y)")
PAIRS = ("p(X), p(Y)", "n(X), n(Y)", "q(X, Z), q(Y, Z)", "c(X), c(Y)", "h(X), h(Y)", "c(X), h(X)")


def random_program(rng: random.Random) -> str:
    def term(leaves=LEAVES):
        kind = rng.randrange(8)
        if kind < 6:
            return rng.choice(leaves)
        if kind < 7:
            return f"{rng.choice(NUMBERS)} {rng.choice('+-')} {rng.choice(NUMBERS)}"
        return f"({term(leaves)}, {term(leaves)})"

    def read():
        return term(READ_LEAVES)

    def positive():
        return rng.choice([lambda: f"p(({term()}, {term()}))", lambda: f"p({term()})",
                           lambda: f"q({term()}, {term()})", lambda: f"n({term()})"])()

    def comparison():
        negation = "not " if rng.random() < 0.15 else ""
        return f"{negation}{read()} {rng.choice(OPS)} {read()}"

    def body(negatable, bindings=BINDINGS):
        literals = [rng.choice(bindings)]
        for _ in range(rng.randint(0, 2)):
            kind = rng.randrange(3)
            if kind == 0:
                literals.append(positive())
            elif kind == 1:
                literals.append(f"not {rng.choice(negatable)}({read()})")
            else:
                literals.append(comparison())
        return ", ".join(literals)

    def constant():
        return rng.choice(["1", "2", "a", "1 + 1", "2 - 1", "(1, a)", "(1 + 1, 2)", "a + 1"])

    lines = [FACTS, "{c(X) : p(X)} 2."]
    if rng.random() < 0.3:
        lines.append(f"p({constant()}).")
    if rng.random() < 0.6:
        head = rng.choice(["c({})", "c({}, Y)"]).format(read())
        choice_body = f" :- {body(['p', 'q'])}" if rng.random() < 0.3 else ""
        lines.append(f"0 {{{head} : {body(['p', 'q'])}}} {rng.randint(1, 2)}{choice_body}.")
    for _ in range(rng.randint(1, 2)):
        # only the one recursive rule reads h, so that grounding ends
        lines.append(f"h({read()}) :- {body(['p', 'c', 'h'], BINDINGS + DEPENDENT[:4])}.")
    if rng.random() < 0.2:
        lines.append("h(X) :- h(Y), q(Y, X).")
    for _ in range(rng.randint(0, 2)):
        kind = rng.randrange(5)
        if kind < 2:
            lines.append(f":- {body(['p', 'c', 'h'], BINDINGS + DEPENDENT * 2)}.")
        elif kind == 2:
            # a statement that swapping X and Y maps onto itself
            op, k, pair = rng.choice(OPS), rng.randint(0, 2), rng.choice(PAIRS[:5] + PAIRS[3:4] * 2)
            lines.append(f"{{X = Y; X {op} 1; Y {op} 1}} = {k} :- {pair}, X != Y.")
        else:
            elements = "; ".join(f"{read()} {rng.choice(OPS)} {read()}" for _ in range(rng.randint(1, 3)))
            lines.append(f"{{{elements}}} = {rng.randint(0, 2)} :- {body(['p', 'c', 'h'], PAIRS)}.")
    return "\n".join(lines)


def random_programs() -> list[str]:
    """The first PROGRAMS programs, by seed, that parse cleanly."""
    out = []
    seed = 0
    while len(out) < PROGRAMS:
        text = random_program(random.Random(seed))
        seed += 1
        if not parse_program(text).diagnostics:
            out.append(text)
    return out


def ground_outcome(text: str):
    try:
        gp = ground_program(parse_program(text).statements)
    except GroundingError as exc:
        return f"{type(exc).__name__}: {exc}"

    def atoms(items):
        return [render_ground_atom(a) for a in items]
    return {
        "choices": [[c.lower, c.upper, atoms(c.candidates), c.source] for c in gp.choices],
        "rules": [[render_ground_atom(r.head), atoms(r.pos), atoms(r.neg), r.source] for r in gp.rules],
        "constraints": [[atoms(c.pos), atoms(c.neg), c.source] for c in gp.constraints],
    }


def outcomes() -> list[list]:
    return [[text, ground_outcome(text)] for text in random_programs()]


def test_random_programs_ground_as_pinned():
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    assert len(pinned) == PROGRAMS
    for (text, outcome), (pinned_text, pinned_outcome) in zip(outcomes(), pinned):
        assert text == pinned_text
        assert outcome == pinned_outcome, text


if __name__ == "__main__":
    PINNED.write_text(json.dumps(outcomes(), indent=0) + "\n", encoding="utf-8")
