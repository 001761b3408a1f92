"""Rebuild the fixture data directory.

Usage:
    python3 -m asploop.fixtures.build [--verbose]

The puzzle definitions live here, as do the candidate pools behind the
scripted generator fixtures. Solutions are never typed in: every puzzle's
solution table is produced by solving its reference encoding, and the
tattoo parlor instance is additionally cross-checked against a permutation
oracle that never touches the ASP engine. The scripted JSONL files are
recorded by running the real datagen and search pipelines over
deterministic candidate pools, with the expected outcomes asserted before
anything is written.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path
from textwrap import dedent

from ..datagen import DfsConfig, run_dfs
from ..gateway import SolverGateway
from ..generators import RecordingGenerator, merge_recordings, write_fixture
from ..matching import normalize_surface
from ..puzzles import PuzzleInstance, EntityCategory, save_dataset
from ..search import SearchConfig, evaluate_accuracy, run_search
from . import (
    E2E_WEAK_FIRST,
    data_dir,
    member_lookup,
    solution_rows_from_model,
    solve_reference,
    tattoo_oracle_rows,
    verify_fixtures,
)


class BuildError(Exception):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise BuildError(message)


# --------------------------------------------------------------------------
# Puzzle definitions. Category order always matches the argument order of
# the assignment atoms so solved models map straight onto solution rows.

@dataclass(frozen=True)
class PuzzleSpec:
    id: str
    difficulty: str
    description: str
    categories: tuple[tuple[str, tuple[str, ...]], ...]
    base: str
    clues: tuple[tuple[str, str], ...]
    driver: int  # category index the choice rule iterates over
    surface_map: dict[str, str] = field(default_factory=dict)

    @property
    def m(self) -> int:
        return len(self.categories)


EVENT_PLANNING = PuzzleSpec(
    id="event_planning",
    difficulty="medium",
    description=(
        "A party planning firm has four functions on this month's calendar: "
        "an anniversary, a birthday, a graduation, and a wedding. Using the "
        "clues, match each event to the planner running it and to its "
        "number of guests."
    ),
    categories=(
        ("events", ("Anniversary", "Birthday", "Graduation", "Wedding")),
        ("planners", ("Herbert", "Joel", "Susan", "Teresa")),
        ("people", ("50", "75", "100", "125")),
    ),
    base=dedent("""\
        people(50;75;100;125).
        planners(herbert;joel;susan;teresa).
        events(anniversary;birthday;
               graduation;wedding).

        1 {assignment(Event, Planner, Attendees)
          : planners(Planner), people(Attendees)} 1
          :- events(Event).

        {E1 = E2; P1 = P2; A1 = A2} = 0
          :- assignment(E1, P1, A1),
             assignment(E2, P2, A2),
             (E1, P1, A1) != (E2, P2, A2)."""),
    clues=(
        (
            "Of the anniversary event and the event with 100 attendees, one "
            "will be handled by Joel and the other will be handled by Susan.",
            dedent("""\
                {E = anniversary; A = 100} = 1
                  :- assignment(E, joel, A).

                {E = anniversary; A = 100} = 1
                  :- assignment(E, susan, A)."""),
        ),
        (
            "Herbert's assignment will involve 25 fewer people than Susan's "
            "assignment.",
            dedent("""\
                :- assignment(_, herbert, A1),
                   assignment(_, susan, A2),
                   not A1 == A2 - 25."""),
        ),
        (
            "Of the assignment with 75 attendees and the assignment with "
            "100 attendees, one will be handled by Susan and the other is "
            "the birthday.",
            dedent("""\
                {E = birthday; P = susan} = 1
                  :- assignment(E, P, 75).

                {E = birthday; P = susan} = 1
                  :- assignment(E, P, 100)."""),
        ),
        (
            "Herbert's event is either the event with 50 attendees or the "
            "graduation job.",
            dedent("""\
                {E = graduation; A = 50} = 1
                  :- assignment(E, herbert, A)."""),
        ),
    ),
    driver=0,
)

# The same program as a single listing, except the guest-difference
# constraint lost its first body atom, which leaves A1 unbound.
UNSAFE_EVENT_LISTING = dedent("""\
    people(50;75;100;125).
    planners(herbert;joel;susan;teresa).
    events(anniversary;birthday;
           graduation;wedding).

    1 {assignment(Event, Planner, Attendees)
    : planners(Planner), people(Attendees)} 1
      :- events(Event).

    {E1 = E2; P1 = P2; A1 = A2} = 0
    :- assignment(E1, P1, A1),
       assignment(E2, P2, A2),
       (E1, P1, A1) != (E2, P2, A2).

    {E = anniversary; A = 100} = 1
    :- assignment(E, joel, A).

    {E = anniversary; A = 100} = 1
    :- assignment(E, susan, A).

    :- assignment(_, susan, A2),
    not A1 == A2 - 25.

    {E = birthday; P = susan} = 1
    :- assignment(E, P, 75).

    {E = birthday; P = susan} = 1
    :- assignment(E, P, 100).

    {E = graduation; A = 50} = 1
    :- assignment(E, herbert, A).
""")

TATTOO_PARLOR = PuzzleSpec(
    id="tattoo_parlor",
    difficulty="hard",
    description=(
        "Four customers each booked a tattoo of their own star sign today. "
        "Using the clues, match each price to the customer who paid it, the "
        "ink color they picked, and their zodiac sign. No option in any "
        "category is used more than once."
    ),
    categories=(
        ("prices", ("$35", "$40", "$45", "$50")),
        ("customers", ("Bonita", "Carole", "Kendra", "Neil")),
        ("colors", ("black", "pink", "red", "violet")),
        ("zodiac signs", ("Pisces", "Sagittarius", "Taurus", "Virgo")),
    ),
    base=dedent("""\
        price(35;40;45;50).
        customer(bonita;carole;kendra;neil).
        color(black;pink;red;violet).
        zodiac_sign(pisces;sagittarius;
          taurus;virgo).

        1 {assignment(P, C, CO, Z) :
          price(P), customer(C), color(CO)} 1
          :- zodiac_sign(Z).

        { P1 = P2; C1 = C2; CO1 = CO2; Z1 = Z2 }
        = 0
          :- assignment(P1, C1, CO1, Z1),
            assignment(P2, C2, CO2, Z2),
            (P1, C1, CO1, Z1) !=
                  (P2, C2, CO2, Z2)."""),
    clues=(
        (
            "Bonita was the Taurus.",
            dedent("""\
                :- assignment(_, bonita, _, Z),
                      Z != taurus."""),
        ),
        (
            "Of the person who paid $50 and the Virgo, one got the pink "
            "tattoo and the other got the violet tattoo.",
            dedent("""\
                { Co1 = pink; Co2 = pink}  = 1
                  :- assignment(50, _, Co1, _),
                     assignment(_, _, Co2, virgo).
                { Co1 = violet; Co2 = violet } = 1
                  :- assignment(50, _, Co1, _),
                     assignment(_, _, Co2, virgo)."""),
        ),
        (
            "The Taurus was either the customer who got the red tattoo or "
            "the customer who got the violet tattoo.",
            dedent("""\
                { Co = red; Co = violet } = 1
                  :- assignment(_, _, Co, taurus)."""),
        ),
        (
            "Kendra was either the person who paid $50 or the Pisces.",
            dedent("""\
                { P = 50; Z = pisces } = 1
                  :- assignment(P, kendra, _, Z)."""),
        ),
        (
            "Of the customer who paid $35 and Neil, one got the red tattoo "
            "and the other was the Pisces.",
            dedent("""\
                { Co1 = red; Co2 = red}  = 1
                  :- assignment(35, _, Co1, _),
                     assignment(_, neil, Co2, _).

                { Z1 = pisces; Z2 = pisces } = 1
                  :- assignment(35, _, _, Z1),
                    assignment(_, neil, _, Z2)."""),
        ),
        (
            "Neil paid 10 dollars more than the customer who got the black "
            "tattoo.",
            dedent("""\
                :- assignment(P1, neil, _, _),
                  assignment(P2, _, black, _),
                  P1 != P2 + 10."""),
        ),
    ),
    driver=3,
)

OBSERVATORY = PuzzleSpec(
    id="observatory",
    difficulty="medium",
    description=(
        "An astronomy archive records four comet discoveries made in "
        "consecutive years. Match each comet to the astronomer who first "
        "spotted it and to the year of the sighting."
    ),
    categories=(
        ("comets", ("ISON-X42", "Egert Facility", "Zynga Complex", "Bale-Hahn SSC")),
        ("astronomers", ("Dr. Golden", "Dr. Owens", "Dr. Weber", "Dr. Farley")),
        ("years", ("2016", "2017", "2018", "2019")),
    ),
    base=dedent("""\
        year(2016;2017;2018;2019).
        comet(ison_x42;egert_facility;zynga_complex;bale_hahn_ssc).
        astronomer(golden;owens;weber;farley).

        1 {assignment(Comet, Astronomer, Year)
          : comet(Comet), astronomer(Astronomer)} 1
          :- year(Year).

        {C1 = C2; A1 = A2; Y1 = Y2} = 0
          :- assignment(C1, A1, Y1),
             assignment(C2, A2, Y2),
             (C1, A1, Y1) != (C2, A2, Y2)."""),
    clues=(
        (
            "Dr. Golden made their discovery in 2016.",
            ":- assignment(_, golden, Y), Y != 2016.",
        ),
        (
            "ISON-X42 was discovered by Dr. Golden.",
            ":- assignment(ison_x42, A, _), A != golden.",
        ),
        (
            "The Egert Facility sighting came one year after Dr. Golden's "
            "discovery.",
            dedent("""\
                :- assignment(egert_facility, _, Y1),
                   assignment(_, golden, Y2),
                   not Y1 == Y2 + 1."""),
        ),
        (
            "Of Dr. Weber and Dr. Farley, one discovered the Zynga Complex "
            "and the other made the 2019 discovery.",
            dedent("""\
                {C = zynga_complex; Y = 2019} = 1
                  :- assignment(C, weber, Y).

                {C = zynga_complex; Y = 2019} = 1
                  :- assignment(C, farley, Y)."""),
        ),
        (
            "Dr. Weber did not make the 2019 discovery.",
            ":- assignment(_, weber, 2019).",
        ),
    ),
    driver=2,
    surface_map={
        "golden": "Dr. Golden",
        "owens": "Dr. Owens",
        "weber": "Dr. Weber",
        "farley": "Dr. Farley",
    },
)

MARINA_BERTHS = PuzzleSpec(
    id="marina_berths",
    difficulty="medium",
    description=(
        "Four boats moor along a marina pier in berths numbered 1 through "
        "4. Match each boat to its owner and its berth."
    ),
    categories=(
        ("boats", ("Calypso", "Meltemi", "Sirocco", "Zephyr")),
        ("owners", ("Ana", "Boris", "Chen", "Dara")),
        ("berths", ("1", "2", "3", "4")),
    ),
    base=dedent("""\
        berth(1;2;3;4).
        boat(calypso;meltemi;sirocco;zephyr).
        owner(ana;boris;chen;dara).

        1 {assignment(Boat, Owner, Berth)
          : boat(Boat), owner(Owner)} 1
          :- berth(Berth).

        {B1 = B2; O1 = O2; N1 = N2} = 0
          :- assignment(B1, O1, N1),
             assignment(B2, O2, N2),
             (B1, O1, N1) != (B2, O2, N2)."""),
    clues=(
        (
            "The Calypso sits in berth 2.",
            ":- assignment(calypso, _, N), N != 2.",
        ),
        (
            "Ana's berth number is two higher than Boris's.",
            dedent("""\
                :- assignment(_, ana, N1),
                   assignment(_, boris, N2),
                   not N1 == N2 + 2."""),
        ),
        (
            "The Zephyr is either in berth 1 or owned by Dara.",
            dedent("""\
                {N = 1; O = dara} = 1
                  :- assignment(zephyr, O, N)."""),
        ),
        (
            "Chen owns the Meltemi.",
            ":- assignment(meltemi, O, _), O != chen.",
        ),
        (
            "Boris does not use berth 3.",
            ":- assignment(_, boris, 3).",
        ),
        (
            "The Sirocco's berth number is one higher than the Zephyr's.",
            dedent("""\
                :- assignment(sirocco, _, N1),
                   assignment(zephyr, _, N2),
                   not N1 == N2 + 1."""),
        ),
    ),
    driver=2,
)

SCIENCE_FAIR = PuzzleSpec(
    id="science_fair",
    difficulty="easy",
    description=(
        "Three students entered the school science fair, one from each of "
        "grades 6, 7, and 8. Match each student to their project and grade."
    ),
    categories=(
        ("students", ("Ivy", "Mateo", "Noor")),
        ("projects", ("garden", "robot", "volcano")),
        ("grades", ("6", "7", "8")),
    ),
    base=dedent("""\
        grade(6;7;8).
        student(ivy;mateo;noor).
        project(garden;robot;volcano).

        1 {assignment(Student, Project, Grade)
          : student(Student), project(Project)} 1
          :- grade(Grade).

        {S1 = S2; P1 = P2; G1 = G2} = 0
          :- assignment(S1, P1, G1),
             assignment(S2, P2, G2),
             (S1, P1, G1) != (S2, P2, G2)."""),
    clues=(
        (
            "Ivy is in grade 7.",
            ":- assignment(ivy, _, G), G != 7.",
        ),
        (
            "The robot builder is one grade above Noor.",
            dedent("""\
                :- assignment(noor, _, G1),
                   assignment(_, robot, G2),
                   not G2 == G1 + 1."""),
        ),
        (
            "Mateo did not build the garden.",
            ":- assignment(mateo, garden, _).",
        ),
    ),
    driver=2,
)

HARBOR_CRUISES = PuzzleSpec(
    id="harbor_cruises",
    difficulty="hard",
    description=(
        "A harbor runs four sightseeing cruises today, one per departure "
        "slot. Match each captain to the vessel they sail, the pier they "
        "leave from, and the hour they cast off."
    ),
    categories=(
        ("captains", ("Alvarez", "Ishii", "Moreau", "Okafor")),
        ("vessels", ("Heron", "Kestrel", "Osprey", "Pelican")),
        ("piers", ("north", "south", "east", "west")),
        ("hours", ("9", "10", "11", "13")),
    ),
    base=dedent("""\
        hour(9;10;11;13).
        captain(alvarez;ishii;moreau;okafor).
        vessel(heron;kestrel;osprey;pelican).
        pier(north;south;east;west).

        1 {assignment(Captain, Vessel, Pier, Hour)
          : captain(Captain), vessel(Vessel), pier(Pier)} 1
          :- hour(Hour).

        {C1 = C2; V1 = V2; P1 = P2; H1 = H2} = 0
          :- assignment(C1, V1, P1, H1),
             assignment(C2, V2, P2, H2),
             (C1, V1, P1, H1) != (C2, V2, P2, H2)."""),
    clues=(
        (
            "Captain Ishii casts off at 10.",
            ":- assignment(ishii, _, _, H), H != 10.",
        ),
        (
            "The Kestrel leaves four hours after the Pelican.",
            dedent("""\
                :- assignment(_, kestrel, _, H1),
                   assignment(_, pelican, _, H2),
                   not H1 == H2 + 4."""),
        ),
        (
            "Captain Moreau either uses the north pier or sails the "
            "Osprey, but not both.",
            dedent("""\
                {P = north; V = osprey} = 1
                  :- assignment(moreau, V, P, _)."""),
        ),
        (
            "The Heron sails from the south pier.",
            ":- assignment(_, heron, P, _), P != south.",
        ),
        (
            "Captain Okafor avoids the east pier.",
            ":- assignment(okafor, _, east, _).",
        ),
        (
            "The Osprey departs one hour before the Heron.",
            dedent("""\
                :- assignment(_, osprey, _, H1),
                   assignment(_, heron, _, H2),
                   not H2 == H1 + 1."""),
        ),
        (
            "Captain Okafor sails the Pelican.",
            ":- assignment(okafor, V, _, _), V != pelican.",
        ),
    ),
    driver=3,
)

CHESS_CLUB = PuzzleSpec(
    id="chess_club",
    difficulty="easy",
    description=(
        "Four club players take boards 1 through 4 for the weekly match. "
        "Work out who sits at which board."
    ),
    categories=(
        ("players", ("Priya", "Quinn", "Rosa", "Sam")),
        ("boards", ("1", "2", "3", "4")),
    ),
    base=dedent("""\
        board(1;2;3;4).
        player(priya;quinn;rosa;sam).

        1 {assignment(Player, Board) : player(Player)} 1
          :- board(Board).

        {P1 = P2; B1 = B2} = 0
          :- assignment(P1, B1),
             assignment(P2, B2),
             (P1, B1) != (P2, B2)."""),
    clues=(
        (
            "Priya sits at board 2.",
            ":- assignment(priya, B), B != 2.",
        ),
        (
            "Rosa's board number is two lower than Sam's.",
            dedent("""\
                :- assignment(rosa, B1),
                   assignment(sam, B2),
                   not B1 == B2 - 2."""),
        ),
        (
            "Quinn is not at board 1.",
            ":- assignment(quinn, 1).",
        ),
    ),
    driver=1,
)

SPECS = (
    EVENT_PLANNING,
    TATTOO_PARLOR,
    OBSERVATORY,
    MARINA_BERTHS,
    SCIENCE_FAIR,
    HARBOR_CRUISES,
    CHESS_CLUB,
)


# --------------------------------------------------------------------------
# Candidate block builders for the scripted scenarios

def _tok(text: str) -> int:
    return len(text.split())


def _unsafe_block(spec: PuzzleSpec, variant: int) -> str:
    anons = ", ".join(["_"] * (spec.m - 1))
    return (
        f"% attempt {variant}\n"
        f":- assignment({anons}, V), not W == V."
    )


def _unsat_block(spec: PuzzleSpec, variant: int) -> str:
    anons = ", ".join(["_"] * spec.m)
    return f"% attempt {variant}\n:- assignment({anons})."


def _noop_block(spec: PuzzleSpec, variant: int) -> str:
    """A constraint the base block already implies: two assignment atoms
    sharing the driver entity must agree everywhere else. Valid, flag free,
    and it never removes a model."""
    m = spec.m
    left = [f"X{i}" for i in range(1, m + 1)]
    right = [f"Y{i}" for i in range(1, m + 1)]
    right[spec.driver] = left[spec.driver]
    rest_left = [v for i, v in enumerate(left) if i != spec.driver]
    rest_right = [v for i, v in enumerate(right) if i != spec.driver]
    if len(rest_left) == 1:
        guard = f"{rest_left[0]} != {rest_right[0]}"
    else:
        guard = f"({', '.join(rest_left)}) != ({', '.join(rest_right)})"
    return (
        f"% restating uniqueness, take {variant}\n"
        f":- assignment({', '.join(left)}), "
        f"assignment({', '.join(right)}), {guard}."
    )


def _kill_block(spec: PuzzleSpec, solved_rows) -> str:
    """A flag-free constraint that bans the solved first row, so the ground
    truth drops out of the answer space."""
    maps = {}
    for (name, members) in spec.categories:
        for member in members:
            maps.setdefault(member, normalize_surface(member))
    for constant, member in spec.surface_map.items():
        maps[member] = constant
    args = ", ".join(maps[item] for item in solved_rows[0])
    return f"% confident guess\n:- assignment({args})."


def _marked(marker: str, block: str) -> str:
    return f"{marker}\n{block}"


def _is_base_request(prompt: str) -> bool:
    return prompt.rstrip().endswith("Output only ASP code.")


def _last_clue(prompt: str) -> str:
    tail = prompt.rsplit("Clue: ", 1)[1]
    return tail.split("\nASP:", 1)[0]


def _clue_index(spec: PuzzleSpec, clue: str) -> int:
    for i, (text, _block) in enumerate(spec.clues):
        if text == clue:
            return i
    raise BuildError(f"{spec.id}: unknown clue in prompt: {clue!r}")


# --------------------------------------------------------------------------
# Stage 1: solve the definitions and write the static data

def derive_instances(verbose: bool) -> tuple[list[PuzzleInstance], dict[str, tuple]]:
    instances = []
    solved: dict[str, tuple] = {}
    for spec in SPECS:
        full = "\n\n".join([spec.base, *(block for _, block in spec.clues)])
        models = solve_reference(full)
        check(len(models) == 1, f"{spec.id}: reference encoding admits {len(models)} models")
        meta = {"difficulty": spec.difficulty}
        if spec.surface_map:
            meta["surface_map"] = dict(spec.surface_map)
        draft = PuzzleInstance(
            id=spec.id,
            description=spec.description,
            categories=tuple(
                EntityCategory(name=name, members=tuple(members))
                for name, members in spec.categories
            ),
            hints=tuple(text for text, _ in spec.clues),
            solution=tuple(
                tuple(members[k] for _, members in spec.categories)
                for k in range(len(spec.categories[0][1]))
            ),
            meta=meta,
        )
        # The draft solution is a placeholder; replace it with the solved
        # rows and validate the real instance.
        rows = solution_rows_from_model(models[0], draft)
        inst = PuzzleInstance(
            id=draft.id,
            description=draft.description,
            categories=draft.categories,
            hints=draft.hints,
            solution=rows,
            meta=meta,
        )
        base_models = solve_reference(spec.base)
        check(
            len(base_models) == inst.expected_model_count,
            f"{spec.id}: base admits {len(base_models)} models, "
            f"expected {inst.expected_model_count}",
        )
        solved[spec.id] = rows
        instances.append(inst)
        if verbose:
            print(f"{spec.id}: {inst.size}, {len(base_models)} base models, solved")

    oracle = tattoo_oracle_rows()
    tattoo = next(i for i in instances if i.id == "tattoo_parlor")
    maps = member_lookup(tattoo)
    oracle_rows = tuple(
        tuple(maps[j][normalize_surface(v)] for j, v in enumerate(row))
        for row in oracle
    )
    check(
        oracle_rows == tattoo.solution,
        "tattoo_parlor: permutation oracle disagrees with the solved encoding",
    )
    return instances, solved


def write_static(out: Path, instances: list[PuzzleInstance], verbose: bool) -> None:
    save_dataset(instances, out / "puzzles.json")
    for spec in SPECS:
        root = out / "encodings" / spec.id
        root.mkdir(parents=True, exist_ok=True)
        (root / "base.lp").write_text(spec.base + "\n", encoding="utf-8")
        for k, (_text, block) in enumerate(spec.clues, start=1):
            (root / f"hint_{k}.lp").write_text(block + "\n", encoding="utf-8")
    unsafe_path = out / "encodings" / "event_planning" / "unsafe_consolidated.lp"
    unsafe_path.write_text(UNSAFE_EVENT_LISTING, encoding="utf-8")
    if verbose:
        print(f"wrote {len(instances)} puzzles and their encoding blocks")


# --------------------------------------------------------------------------
# Stage 2: crosscheck corpus

CROSSCHECK = (
    ("facts_only", "p(a;b;c). q(1)."),
    ("rule_chain", "p(a). q(X) :- p(X). r(X) :- q(X)."),
    ("choice_pick_one", "item(a;b;c). 1 {pick(X) : item(X)} 1."),
    ("choice_zero_two", "item(a;b). 0 {pick(X) : item(X)} 2."),
    ("choice_no_upper", "item(a;b). 1 {pick(X) : item(X)}."),
    (
        "two_groups_disjoint",
        "item(a;b). 1 {pick(X) : item(X)} 1. 1 {mark(X) : item(X)} 1. "
        ":- pick(X), mark(X).",
    ),
    ("unsat_direct", "p(a). :- p(a)."),
    ("negation_forcing", "item(a;b). 1 {pick(X) : item(X)} 1. :- not pick(a)."),
    ("negation_in_rule", "p(a). q(a) :- p(a), not r(a)."),
    ("less_than", "num(1;2;3). 1 {pick(X) : num(X)} 1. :- pick(X), X < 2."),
    ("less_equal", "num(1;2;3). 1 {pick(X) : num(X)} 1. :- pick(X), 2 <= X."),
    (
        "tuple_guard",
        "p(a;b). 1 {choose(X, Y) : p(X), p(Y)} 1. "
        ":- choose(X, Y), (X, Y) != (a, b).",
    ),
    (
        "plus_one_chain",
        "num(1;2;3;4). 1 {pick(X) : num(X)} 1. 1 {mate(X) : num(X)} 1. "
        ":- pick(X), mate(Y), not Y == X + 1.",
    ),
    (
        "minus_one_chain",
        "num(1;2;3;4). 1 {pick(X) : num(X)} 1. 1 {mate(X) : num(X)} 1. "
        ":- pick(X), mate(Y), not Y == X - 1.",
    ),
    (
        "pair_disequality",
        "item(a;b). 1 {pick(X) : item(X)} 1. 1 {mark(Y) : item(Y)} 1. "
        "{X = Y} = 0 :- pick(X), mark(Y).",
    ),
    (
        "impossible_count",
        "n(1;2;3). 1 {pick(X) : n(X)} 3. {X = 1; X = 2} = 2 :- pick(X).",
    ),
    (
        "collapsed_elements",
        "p(a;b). 1 {q(X) : p(X)} 1. {Y = a; Y = a} = 1 :- q(Y).",
    ),
    ("anonymous_projection", "pair(a, 1). pair(b, 2). n(X) :- pair(_, X)."),
    ("negated_filter", "p(a;b). q(a). r(X) :- p(X), not q(X)."),
    (
        "sixteen_models",
        "d(1;2;3;4). 1 {pick(X) : d(X)} 1. 1 {mark(X) : d(X)} 1.",
    ),
    ("derived_candidates", "seed(a). grow(X) :- seed(X). 1 {use(X) : grow(X)} 1."),
    (
        "forced_equal",
        "a(1;2). b(1;2). 1 {f(X) : a(X)} 1. 1 {g(X) : b(X)} 1. "
        ":- f(X), g(Y), X != Y.",
    ),
    ("pooled_pairs", "pair(a, 1; b, 2). n(X) :- pair(_, X)."),
    ("negated_head_derived_later", "a :- not b. b :- c. c. :- a."),
    ("negated_derived_guard", "d(1;2). e(X) :- d(X), not f(X). f(X) :- d(X), X > 1. 1 {s(X) : e(X)} 1."),
    ("negation_over_choice", "d(a). 0 {c(X) : d(X)}. h(X) :- d(X), not k(X). k(X) :- d(X), not c(X)."),
    ("negated_dependent_head", "{d}. p :- d, not q. q :- d."),
)


def write_crosscheck(out: Path, verbose: bool) -> None:
    root = out / "crosscheck"
    root.mkdir(parents=True, exist_ok=True)
    for index, (name, text) in enumerate(CROSSCHECK, start=1):
        (root / f"prog_{index:02d}_{name}.lp").write_text(text + "\n", encoding="utf-8")
    if verbose:
        print(f"wrote {len(CROSSCHECK)} crosscheck programs")


# --------------------------------------------------------------------------
# Stage 3: scripted datagen fixture covering every chosen/rejected split

BASE_A_MARK = "% layout a"
BASE_B_MARK = "% layout b"


def _datagen_pools(spec: PuzzleSpec, kill: str):
    base = spec.base
    good = {i: block for i, (_t, block) in enumerate(spec.clues)}

    def opt(clue: int, k: int) -> str:
        return _marked(f"% clue{clue + 1} option {k}", good[clue])

    def pools(prompt: str) -> list[tuple[str, int]]:
        if _is_base_request(prompt):
            texts = [
                _marked(BASE_A_MARK, base),
                _marked(BASE_B_MARK, base),
                base + "\n" + _unsat_block(spec, 1),
                # overreach: the base plus a clue nobody asked for yet, so
                # the model count lands below the expected one
                _marked("% overreach", base + "\n\n" + good[3]),
                base + "\n" + _unsafe_block(spec, 1),
            ]
        else:
            clue = _clue_index(spec, _last_clue(prompt))
            layout_a = BASE_A_MARK in prompt
            if clue == 0:
                if layout_a:
                    texts = [
                        opt(0, 1),
                        kill,
                        _unsafe_block(spec, 1),
                        _unsat_block(spec, 1),
                        _unsafe_block(spec, 2),
                    ]
                else:
                    texts = [
                        kill,
                        _unsafe_block(spec, 1),
                        _unsat_block(spec, 1),
                        _unsafe_block(spec, 2),
                        _unsat_block(spec, 2),
                    ]
            elif clue == 1:
                if layout_a:
                    texts = [
                        opt(1, 1),
                        opt(1, 2),
                        opt(1, 3),
                        _unsafe_block(spec, 1),
                        _unsat_block(spec, 1),
                    ]
                else:
                    texts = [opt(1, k) for k in range(1, 6)]
            elif clue == 2:
                if not layout_a:
                    texts = [
                        opt(2, 1),
                        kill,
                        _unsafe_block(spec, 1),
                        _unsat_block(spec, 1),
                        _unsafe_block(spec, 2),
                    ]
                elif "% clue2 option 1" in prompt:
                    texts = [
                        opt(2, 1),
                        opt(2, 2),
                        opt(2, 3),
                        opt(2, 4),
                        _unsafe_block(spec, 1),
                    ]
                else:
                    texts = [
                        opt(2, 1),
                        opt(2, 2),
                        _unsafe_block(spec, 1),
                        _unsat_block(spec, 1),
                        kill,
                    ]
            else:
                texts = [
                    opt(3, 1),
                    kill,
                    _unsafe_block(spec, 1),
                    _unsat_block(spec, 1),
                    _unsafe_block(spec, 2),
                ]
        return [(text, _tok(text)) for text in texts]

    return pools


DATAGEN_EXPECTED_ROWS = [
    (0, "", None, 2, 3),
    (1, "0", 0, 1, 4),
    (2, "0.0", 1, 3, 2),
    (3, "0.0.0", 2, 4, 1),
    (4, "0.0.0.0", 3, 1, 4),
    (4, "0.0.0.1", 3, 1, 4),
    (3, "0.0.1", 2, 2, 3),
    (4, "0.0.1.0", 3, 1, 4),
    (4, "0.0.1.1", 3, 1, 4),
    (1, "1", 0, 0, 5),
    (1, "1", 1, 5, 0),
    (2, "1.0", 2, 1, 4),
    (3, "1.0.0", 3, 1, 4),
    (2, "1.1", 2, 1, 4),
    (3, "1.1.0", 3, 1, 4),
]


def record_datagen(out: Path, instances, solved, gateway, verbose: bool) -> int:
    spec = EVENT_PLANNING
    instance = next(i for i in instances if i.id == spec.id)
    kill = _kill_block(spec, solved[spec.id])
    recorder = RecordingGenerator(_datagen_pools(spec, kill))
    sft, pref, stats = run_dfs(instance, recorder, DfsConfig(), gateway)

    check(stats["aborted_reason"] is None, f"datagen aborted: {stats['aborted_reason']}")
    rows = [
        (r["step"], r["branch"], r["hint"], r["chosen"], r["rejected"])
        for r in stats["steps"]
    ]
    check(
        rows == DATAGEN_EXPECTED_ROWS,
        "datagen step table drifted:\n" + "\n".join(map(str, rows)),
    )
    check(len(sft) == 25, f"datagen produced {len(sft)} sft records, expected 25")
    check(len(pref) == 54, f"datagen produced {len(pref)} pairs, expected 54")
    dropped_clue = spec.clues[0][0]
    for record in list(sft) + list(pref):
        if record.branch_id == "1" or record.branch_id.startswith("1."):
            check(
                dropped_clue not in record.prompt,
                "dropped hint still appears in a later prompt",
            )
    path = out / "scripted" / "datagen_splits.jsonl"
    rows_written = write_fixture(recorder.recorded(), path)
    if verbose:
        print(f"datagen_splits: {rows_written} prompt queues, 25 sft, 54 pairs")
    return rows_written


# --------------------------------------------------------------------------
# Stage 4: scripted search scenarios

def _search_pools_clean(spec: PuzzleSpec):
    def pools(prompt: str) -> list[tuple[str, int]]:
        if _is_base_request(prompt):
            texts = [
                spec.base,
                spec.base + "\n" + _unsafe_block(spec, 1),
                spec.base + "\n" + _unsat_block(spec, 1),
                spec.base + "\n" + _unsafe_block(spec, 2),
                spec.base + "\n" + _unsat_block(spec, 2),
            ]
        else:
            clue = _clue_index(spec, _last_clue(prompt))
            texts = [
                spec.clues[clue][1],
                _unsafe_block(spec, 1),
                _unsat_block(spec, 1),
                _unsafe_block(spec, 2),
                _unsat_block(spec, 2),
            ]
        return [(text, _tok(text)) for text in texts]

    return pools


def _negatives(spec: PuzzleSpec, count: int, start: int = 1) -> list[str]:
    out = []
    for k in range(count):
        variant = start + k // 2
        if k % 2 == 0:
            out.append(_unsafe_block(spec, variant))
        else:
            out.append(_unsat_block(spec, variant))
    return out


def _search_pools_regen(spec: PuzzleSpec, stuck_clue: int):
    clean = _search_pools_clean(spec)

    def pools(prompt: str) -> list[tuple[str, int]]:
        if not _is_base_request(prompt) and _clue_index(spec, _last_clue(prompt)) == stuck_clue:
            # first batch of five fails; the regeneration batch recovers
            texts = _negatives(spec, 5) + [spec.clues[stuck_clue][1]] + _negatives(spec, 9, start=20)
            return [(text, _tok(text)) for text in texts]
        return clean(prompt)

    return pools


G1A_EXTRA = ":- assignment(anniversary, joel, A)."


def _search_pools_backtrack(spec: PuzzleSpec):
    stricter_first = spec.clues[0][1] + "\n" + G1A_EXTRA

    def pools(prompt: str) -> list[tuple[str, int]]:
        if _is_base_request(prompt):
            texts = [spec.base] + _negatives(spec, 4)
        else:
            clue = _clue_index(spec, _last_clue(prompt))
            if clue == 0:
                texts = [stricter_first, spec.clues[0][1]] + _negatives(spec, 3)
            elif clue == 2 and G1A_EXTRA in prompt:
                # under the stricter first selection, every batch for the
                # third clue fails, forcing a backtrack
                texts = _negatives(spec, 15)
            else:
                texts = [spec.clues[clue][1]] + _negatives(spec, 4)
        return [(text, _tok(text)) for text in texts]

    return pools


def _trace_kinds(trace) -> list[str]:
    return [event["event"] for event in trace]


def _run_both_configs(pools, instance, gateway):
    """Record one scenario under the recovery config and under plain
    best-of-N (no regeneration, no backtracking), merged into one fixture
    so tests can replay either. Returns both outcomes and the recording."""
    recorder = RecordingGenerator(pools)
    outcome = run_search(instance, recorder, SearchConfig(n=5), gateway)
    plain_recorder = RecordingGenerator(pools)
    plain = run_search(
        instance,
        plain_recorder,
        SearchConfig(n=5, backtrack_limit=0, enable_regeneration=False),
        gateway,
    )
    kinds = _trace_kinds(plain.trace)
    check(kinds.count("regenerate") == 0, f"plain run regenerated: {kinds}")
    check(kinds.count("backtrack") == 0, f"plain run backtracked: {kinds}")
    merged = merge_recordings([recorder.recorded(), plain_recorder.recorded()])
    return outcome, plain, merged


def record_search_scenarios(out: Path, instances, gateway, verbose: bool) -> dict[str, int]:
    spec = EVENT_PLANNING
    instance = next(i for i in instances if i.id == spec.id)
    written = {}

    outcome, plain, merged = _run_both_configs(_search_pools_clean(spec), instance, gateway)
    kinds = _trace_kinds(outcome.trace)
    check(
        kinds == ["step", "rank"] * 5 + ["final"],
        f"clean scenario trace drifted: {kinds}",
    )
    check(outcome.final_verdict.model_count == 1, "clean scenario is not unique")
    report = evaluate_accuracy([outcome], [instance])
    check(report["accuracy"] == 1.0, "clean scenario missed the solution")
    # with nothing to recover from, plain best-of-N walks the same path
    check(_trace_kinds(plain.trace) == kinds, "plain clean run diverged")
    check(
        evaluate_accuracy([plain], [instance])["accuracy"] == 1.0,
        "plain clean run missed the solution",
    )
    written["search_clean"] = write_fixture(merged, out / "scripted" / "search_clean.jsonl")

    outcome, plain, merged = _run_both_configs(
        _search_pools_regen(spec, stuck_clue=1), instance, gateway
    )
    kinds = _trace_kinds(outcome.trace)
    check(kinds.count("regenerate") == 1, f"regen scenario trace drifted: {kinds}")
    check(kinds.count("backtrack") == 0, f"regen scenario backtracked: {kinds}")
    regen_event = next(e for e in outcome.trace if e["event"] == "regenerate")
    check(regen_event["step"] == 2, f"regen happened at step {regen_event['step']}")
    check(regen_event["added"] == 10, "regeneration batch size drifted")
    report = evaluate_accuracy([outcome], [instance])
    check(report["accuracy"] == 1.0, "regen scenario missed the solution")
    plain_kinds = _trace_kinds(plain.trace)
    check("accept_exhausted" in plain_kinds, f"plain regen run drifted: {plain_kinds}")
    check(
        evaluate_accuracy([plain], [instance])["accuracy"] == 0.0,
        "plain regen run should fail without recovery",
    )
    written["search_regen"] = write_fixture(merged, out / "scripted" / "search_regen.jsonl")

    outcome, plain, merged = _run_both_configs(_search_pools_backtrack(spec), instance, gateway)
    kinds = _trace_kinds(outcome.trace)
    check(kinds.count("backtrack") == 1, f"backtrack scenario trace drifted: {kinds}")
    back = next(e for e in outcome.trace if e["event"] == "backtrack")
    check(back["to_step"] == 1, f"backtrack went to step {back['to_step']}")
    check(back["selected"] == 1, "backtrack did not switch to the plain first clue")
    final = outcome.trace[-1]
    check(final["event"] == "final" and final["backtracks"] == 1, "final event drifted")
    report = evaluate_accuracy([outcome], [instance])
    check(report["accuracy"] == 1.0, "backtrack scenario missed the solution")
    plain_kinds = _trace_kinds(plain.trace)
    check("accept_exhausted" in plain_kinds, f"plain backtrack run drifted: {plain_kinds}")
    check(
        evaluate_accuracy([plain], [instance])["accuracy"] == 0.0,
        "plain backtrack run should fail without recovery",
    )
    written["search_backtrack"] = write_fixture(
        merged, out / "scripted" / "search_backtrack.jsonl"
    )

    if verbose:
        for name, rows in written.items():
            print(f"{name}: {rows} prompt queues")
    return written


# --------------------------------------------------------------------------
# Stage 5: end-to-end fixture serving both ranked and single-sample runs

def _e2e_pools(spec: PuzzleSpec):
    weak_first = spec.id in E2E_WEAK_FIRST

    def pools(prompt: str) -> list[tuple[str, int]]:
        if _is_base_request(prompt):
            texts = [spec.base] + [
                spec.base + "\n" + block for block in _negatives(spec, 4)
            ]
        else:
            clue = _clue_index(spec, _last_clue(prompt))
            good = spec.clues[clue][1]
            if weak_first:
                texts = [
                    _noop_block(spec, 1),
                    good,
                    _unsafe_block(spec, 1),
                    _unsat_block(spec, 1),
                    _noop_block(spec, 2),
                ]
            else:
                texts = [
                    good,
                    _unsafe_block(spec, 1),
                    _unsat_block(spec, 1),
                    _noop_block(spec, 1),
                    _noop_block(spec, 2),
                ]
        return [(text, _tok(text)) for text in texts]

    return pools


def _e2e_dispatch(instances):
    by_id = {}
    for spec in SPECS:
        by_id[spec.id] = _e2e_pools(spec)
    descriptions = {spec.id: spec.description for spec in SPECS}

    def pools(prompt: str) -> list[tuple[str, int]]:
        for instance_id, description in descriptions.items():
            if description in prompt:
                return by_id[instance_id](prompt)
        raise BuildError("prompt does not mention any fixture puzzle")

    return pools


def record_e2e(out: Path, instances, gateway, verbose: bool) -> int:
    dispatch = _e2e_dispatch(instances)
    recordings = []

    outcomes_ranked = []
    for instance in instances:
        recorder = RecordingGenerator(dispatch)
        outcomes_ranked.append(run_search(instance, recorder, SearchConfig(n=5), gateway))
        recordings.append(recorder.recorded())
    ranked = evaluate_accuracy(outcomes_ranked, instances)
    check(
        ranked["accuracy"] == 1.0,
        f"ranked end-to-end run solved {ranked['correct']}/{ranked['total']}",
    )

    outcomes_single = []
    for instance in instances:
        recorder = RecordingGenerator(dispatch)
        outcomes_single.append(run_search(instance, recorder, SearchConfig(n=1), gateway))
        recordings.append(recorder.recorded())
    single = evaluate_accuracy(outcomes_single, instances)
    failed = {
        row["instance_id"] for row in single["per_instance"] if not row["correct"]
    }
    check(
        failed == set(E2E_WEAK_FIRST),
        f"single-sample failures drifted: {sorted(failed)}",
    )
    check(single["accuracy"] < ranked["accuracy"], "single-sample run did not lose")

    merged = merge_recordings(recordings)
    rows = write_fixture(merged, out / "scripted" / "search_e2e.jsonl")
    if verbose:
        print(
            f"search_e2e: {rows} prompt queues, ranked {ranked['accuracy']:.2f}, "
            f"single {single['accuracy']:.2f}"
        )
    return rows


# --------------------------------------------------------------------------

def build_all(out: Path, verbose: bool = False) -> None:
    if out.exists():
        shutil.rmtree(out)
    (out / "scripted").mkdir(parents=True)

    gateway = SolverGateway()
    instances, solved = derive_instances(verbose)
    write_static(out, instances, verbose)
    write_crosscheck(out, verbose)

    scripted_rows = {}
    scripted_rows["datagen_splits"] = record_datagen(out, instances, solved, gateway, verbose)
    scripted_rows.update(record_search_scenarios(out, instances, gateway, verbose))
    scripted_rows["search_e2e"] = record_e2e(out, instances, gateway, verbose)

    manifest = {
        "puzzles": len(instances),
        "crosscheck": len(CROSSCHECK),
        "scripted_rows": scripted_rows,
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rebuild the packaged fixture data")
    parser.add_argument(
        "--out",
        default=None,
        help="target data directory (default: the packaged data/ directory)",
    )
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    out = Path(args.out) if args.out else data_dir()
    build_all(out, verbose=args.verbose)
    if args.out is None:
        report = verify_fixtures(verbose=args.verbose)
        print(f"fixture data rebuilt and verified ({len(report)} checks)")
    else:
        print(f"fixture data rebuilt at {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
