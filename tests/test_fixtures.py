from __future__ import annotations

import pytest

from asploop import fixtures
from asploop.asp import ground_program, parse_program
from asploop.fixtures import build
from asploop.gateway import SolverGateway
from asploop.matching import normalize_surface


def test_verify_fixtures_is_green():
    report = fixtures.verify_fixtures()
    assert report
    failing = {name: ok for name, ok in report.items() if not ok}
    assert not failing


def test_corpus_shape(corpus):
    assert len(corpus) >= 6
    ids = {i.id for i in corpus}
    assert "event_planning" in ids
    assert "tattoo_parlor" in ids
    sizes = {i.size for i in corpus}
    assert {"3x4", "4x4"} <= sizes
    difficulties = {i.meta.get("difficulty") for i in corpus}
    assert len(difficulties) >= 2


def test_every_instance_has_reference_blocks(corpus):
    for instance in corpus:
        blocks = fixtures.reference_blocks(instance.id)
        assert blocks.instance_id == instance.id
        assert len(blocks.hints) == len(instance.hints)
        assert blocks.full_program.count(blocks.base) == 1


def test_reference_hints_are_numerically_ordered(event_ref):
    # hint_10.lp must sort after hint_2.lp; the loader orders by number
    assert len(event_ref.hints) == 4
    joined = event_ref.full_program
    positions = [joined.index(h) for h in event_ref.hints]
    assert positions == sorted(positions)


def test_unknown_ids_raise_key_errors():
    with pytest.raises(KeyError):
        fixtures.puzzle("missing_puzzle")
    with pytest.raises(KeyError):
        fixtures.reference_blocks("missing_puzzle")
    with pytest.raises(KeyError):
        fixtures.scripted_path("missing_fixture")


def test_scripted_names_all_resolve():
    for name in fixtures.SCRIPTED_NAMES:
        assert fixtures.scripted_path(name).exists()


def test_full_reference_programs_are_unique(corpus, gateway):
    for instance in corpus:
        blocks = fixtures.reference_blocks(instance.id)
        verdict = gateway.solve(blocks.full_program)
        assert verdict.flagless, instance.id
        assert verdict.model_count == 1, instance.id


def test_base_programs_count_permutation_spaces(corpus, gateway):
    for instance in corpus:
        blocks = fixtures.reference_blocks(instance.id)
        verdict = gateway.solve(blocks.base)
        assert verdict.model_count == instance.expected_model_count, instance.id


# (possible atoms, ground rules, ground constraints, choice candidates) of
# each reference encoding's base and full program
GROUND_SIZES = [
    ("event_planning", (76, 0, 1152, 64), (76, 0, 1302, 64)),
    ("tattoo_parlor", (272, 0, 22272, 256), (272, 0, 25188, 256)),
    ("observatory", (76, 0, 1152, 64), (76, 0, 1274, 64)),
    ("marina_berths", (76, 0, 1152, 64), (76, 0, 1401, 64)),
    ("science_fair", (36, 0, 243, 27), (36, 0, 271, 27)),
    ("harbor_cruises", (272, 0, 22272, 256), (272, 0, 25455, 256)),
    ("chess_club", (24, 0, 48, 16), (24, 0, 62, 16)),
]


@pytest.mark.parametrize("instance_id, base, full", GROUND_SIZES, ids=[row[0] for row in GROUND_SIZES])
def test_reference_ground_sizes(instance_id, base, full):
    blocks = fixtures.reference_blocks(instance_id)
    for text, expected in ((blocks.base, base), (blocks.full_program, full)):
        gp = ground_program(parse_program(text).statements)
        sizes = (len(gp.possible), len(gp.rules), len(gp.constraints), gp.choice_candidate_count)
        assert sizes == expected


def test_solution_rows_come_from_the_unique_model(corpus, gateway):
    for instance in corpus:
        blocks = fixtures.reference_blocks(instance.id)
        verdict = gateway.solve(blocks.full_program)
        rows = fixtures.solution_rows_from_model(verdict.models[0], instance)
        assert tuple(rows) == instance.solution, instance.id


def test_member_lookup_covers_every_member(corpus):
    for instance in corpus:
        lookup = fixtures.member_lookup(instance)
        assert len(lookup) == instance.m
        for column, category in zip(lookup, instance.categories):
            for member in category.members:
                assert column[normalize_surface(member)] == member


def test_event_planning_published_atoms(gateway, event_ref):
    verdict = gateway.solve(event_ref.full_program)
    from asploop.asp import render_ground_atom

    atoms = {
        render_ground_atom(a)
        for a in verdict.models[0]
        if a.pred == "assignment"
    }
    assert atoms == {
        "assignment(anniversary,susan,75)",
        "assignment(wedding,herbert,50)",
        "assignment(birthday,joel,100)",
        "assignment(graduation,teresa,125)",
    }


def test_tattoo_oracle_agrees_with_the_solver(gateway):
    instance = fixtures.puzzle("tattoo_parlor")
    blocks = fixtures.reference_blocks(instance.id)
    verdict = gateway.solve(blocks.full_program)
    solved = fixtures.solution_rows_from_model(verdict.models[0], instance)
    lookup = fixtures.member_lookup(instance)
    oracle = [
        tuple(lookup[j][value] for j, value in enumerate(row))
        for row in fixtures.tattoo_oracle_rows()
    ]
    assert list(solved) == oracle


def test_unsafe_listing_parses_but_does_not_ground():
    text = fixtures.unsafe_event_listing()
    result = parse_program(text)
    assert not result.diagnostics
    verdict = SolverGateway().solve(text)
    assert verdict.has_error
    assert any("unsafe variable A1" in str(d) for d in verdict.diagnostics)


def test_crosscheck_corpus_is_wide_enough():
    programs = fixtures.crosscheck_programs()
    assert len(programs) >= 20
    names = [name for name, _ in programs]
    assert names == sorted(names)
    for name, text in programs:
        result = parse_program(text)
        assert not result.diagnostics, name


def test_solve_reference_guards_against_drift():
    with pytest.raises(fixtures.FixtureDriftError):
        fixtures.solve_reference("p(a. ")
    with pytest.raises(fixtures.FixtureDriftError):
        fixtures.solve_reference(
            "item(a;b;c;d;e;f;g). {pick(X) : item(X)}.", cap=5
        )


def test_solve_reference_returns_all_models():
    models = fixtures.solve_reference("item(a;b). {pick(X) : item(X)}.")
    assert len(models) == 4


def test_rebuilt_fixture_data_matches_the_packaged_data(tmp_path):
    """The drift check: rebuilding from the specs, which replays the
    scripted scenarios through search, datagen and the eval report, must
    reproduce every packaged file byte for byte. Takes about a minute."""
    out = tmp_path / "data"
    build.build_all(out)
    packaged = fixtures.data_dir()
    files = sorted(p.relative_to(packaged) for p in packaged.rglob("*") if p.is_file())
    assert sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file()) == files
    for name in files:
        assert (out / name).read_bytes() == (packaged / name).read_bytes(), name
