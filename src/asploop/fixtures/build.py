"""Rebuild the fixture data directory.

Usage:
    python3 -m asploop.fixtures.build [--out DIR] [--verbose]

data/ holds each puzzle's definition once: its description, categories,
clues and difficulty in puzzles.json, and its reference encoding as
encodings/<id>/base.lp plus one hint_<k>.lp per clue, next to the
cross-check programs and the unsafe event listing. Build reads all of it,
then re-derives and checks what the data must agree with. Solutions are
never typed in: every puzzle's solution table is produced by solving its
reference encoding, every base must admit (n!)^(m-1) models, and the
tattoo parlor instance is additionally cross-checked against a permutation
oracle that never touches the ASP engine. The scripted JSONL files are
recorded by running the real datagen and search pipelines over
deterministic candidate pools built from the reference blocks, with the
expected outcomes asserted before anything is written.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from ..asp import parse_program
from ..asp.syntax import Choice
from ..datagen import DfsConfig, run_dfs
from ..gateway import SolverGateway
from ..generators import RecordingGenerator, merge_recordings, write_fixture
from ..matching import normalize_surface
from ..puzzles import PuzzleInstance, save_dataset
from ..search import SearchConfig, evaluate_accuracy, run_search
from . import (
    E2E_WEAK_FIRST,
    crosscheck_programs,
    data_dir,
    member_lookup,
    puzzles,
    reference_blocks,
    solution_rows_from_model,
    solve_reference,
    tattoo_oracle_rows,
    unsafe_event_listing,
)


class BuildError(Exception):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise BuildError(message)


# --------------------------------------------------------------------------
# Puzzle definitions, read from data/. Category order always matches the
# argument order of the assignment atoms so solved models map straight onto
# solution rows.

@dataclass(frozen=True)
class PuzzleSpec:
    """A packaged puzzle with its reference blocks, as the candidate pools
    read them. Each block file ends in one newline that is not part of
    the block."""

    instance: PuzzleInstance
    base: str
    blocks: tuple[str, ...]  # one per clue, in clue order

    @property
    def driver(self) -> int:
        """Category index the base's choice rule iterates over: the position,
        in its element atom, of the variable the rule's body binds."""
        choice = next(s for s in parse_program(self.base).statements if isinstance(s, Choice))
        bound = {arg for literal in choice.body for arg in literal.atom.args}
        return next(i for i, arg in enumerate(choice.elements[0].atom.args) if arg in bound)


# --------------------------------------------------------------------------
# Candidate block builders for the scripted scenarios

def _tok(text: str) -> int:
    return len(text.split())


def _unsafe_block(spec: PuzzleSpec, variant: int) -> str:
    anons = ", ".join(["_"] * (spec.instance.m - 1))
    return (
        f"% attempt {variant}\n"
        f":- assignment({anons}, V), not W == V."
    )


def _unsat_block(spec: PuzzleSpec, variant: int) -> str:
    anons = ", ".join(["_"] * spec.instance.m)
    return f"% attempt {variant}\n:- assignment({anons})."


def _noop_block(spec: PuzzleSpec, variant: int) -> str:
    """A constraint the base block already implies: two assignment atoms
    sharing the driver entity must agree everywhere else. Valid, flag free,
    and it never removes a model."""
    m, driver = spec.instance.m, spec.driver
    left = [f"X{i}" for i in range(1, m + 1)]
    right = [f"Y{i}" for i in range(1, m + 1)]
    right[driver] = left[driver]
    rest_left = [v for i, v in enumerate(left) if i != driver]
    rest_right = [v for i, v in enumerate(right) if i != driver]
    if len(rest_left) == 1:
        guard = f"{rest_left[0]} != {rest_right[0]}"
    else:
        guard = f"({', '.join(rest_left)}) != ({', '.join(rest_right)})"
    return (
        f"% restating uniqueness, take {variant}\n"
        f":- assignment({', '.join(left)}), "
        f"assignment({', '.join(right)}), {guard}."
    )


def _kill_block(spec: PuzzleSpec) -> str:
    """A flag-free constraint that bans the solved first row, so the ground
    truth drops out of the answer space."""
    maps = member_lookup(spec.instance)
    constant = {member: c for by_constant in maps for c, member in by_constant.items()}
    args = ", ".join(constant[item] for item in spec.instance.solution[0])
    return f"% confident guess\n:- assignment({args})."


def _marked(marker: str, block: str) -> str:
    return f"{marker}\n{block}"


def _is_base_request(prompt: str) -> bool:
    return prompt.rstrip().endswith("Output only ASP code.")


def _last_clue(prompt: str) -> str:
    tail = prompt.rsplit("Clue: ", 1)[1]
    return tail.split("\nASP:", 1)[0]


def _clue_index(spec: PuzzleSpec, clue: str) -> int:
    try:
        return spec.instance.hints.index(clue)
    except ValueError:
        raise BuildError(f"{spec.instance.id}: unknown clue in prompt: {clue!r}") from None


# --------------------------------------------------------------------------
# Stage 1: read and solve the definitions, and write them back

def read_specs(verbose: bool) -> list[PuzzleSpec]:
    """Each packaged puzzle with its reference blocks. The stored solution
    is not trusted: it is re-derived from the reference encoding, after
    checking that the encoding has one model and its base the expected
    count."""
    specs = []
    for inst in puzzles():
        ref = reference_blocks(inst.id)
        check(
            len(ref.hints) == len(inst.hints),
            f"{inst.id}: {len(ref.hints)} hint blocks for {len(inst.hints)} clues",
        )
        base = ref.base.removesuffix("\n")
        blocks = tuple(block.removesuffix("\n") for block in ref.hints)
        models = solve_reference("\n\n".join((base, *blocks)))
        check(len(models) == 1, f"{inst.id}: reference encoding admits {len(models)} models")
        inst = replace(inst, solution=solution_rows_from_model(models[0], inst))
        base_models = solve_reference(base)
        check(
            len(base_models) == inst.expected_model_count,
            f"{inst.id}: base admits {len(base_models)} models, "
            f"expected {inst.expected_model_count}",
        )
        specs.append(PuzzleSpec(inst, base, blocks))
        if verbose:
            print(f"{inst.id}: {inst.size}, {len(base_models)} base models, solved")

    oracle = tattoo_oracle_rows()
    tattoo = next(s.instance for s in specs if s.instance.id == "tattoo_parlor")
    maps = member_lookup(tattoo)
    oracle_rows = tuple(
        tuple(maps[j][normalize_surface(v)] for j, v in enumerate(row))
        for row in oracle
    )
    check(
        oracle_rows == tattoo.solution,
        "tattoo_parlor: permutation oracle disagrees with the solved encoding",
    )
    return specs


def write_static(
    out: Path,
    specs: list[PuzzleSpec],
    crosscheck: list[tuple[str, str]],
    unsafe_listing: str,
    verbose: bool,
) -> None:
    save_dataset([spec.instance for spec in specs], out / "puzzles.json")
    for spec in specs:
        root = out / "encodings" / spec.instance.id
        root.mkdir(parents=True, exist_ok=True)
        (root / "base.lp").write_text(spec.base + "\n", encoding="utf-8")
        for k, block in enumerate(spec.blocks, start=1):
            (root / f"hint_{k}.lp").write_text(block + "\n", encoding="utf-8")
    unsafe_path = out / "encodings" / "event_planning" / "unsafe_consolidated.lp"
    unsafe_path.write_text(unsafe_listing, encoding="utf-8")
    root = out / "crosscheck"
    root.mkdir()
    for name, text in crosscheck:
        (root / f"{name}.lp").write_text(text, encoding="utf-8")
    if verbose:
        print(
            f"wrote {len(specs)} puzzles and their encoding blocks, "
            f"{len(crosscheck)} crosscheck programs"
        )


# --------------------------------------------------------------------------
# Stage 2: scripted datagen fixture covering every chosen/rejected split

BASE_A_MARK = "% layout a"
BASE_B_MARK = "% layout b"


def _datagen_pools(spec: PuzzleSpec, kill: str):
    base = spec.base
    good = spec.blocks

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


def record_datagen(out: Path, spec: PuzzleSpec, gateway, verbose: bool) -> int:
    instance = spec.instance
    recorder = RecordingGenerator(_datagen_pools(spec, _kill_block(spec)))
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
    dropped_clue = instance.hints[0]
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
# Stage 3: scripted search scenarios

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
                spec.blocks[clue],
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
            texts = _negatives(spec, 5) + [spec.blocks[stuck_clue]] + _negatives(spec, 9, start=20)
            return [(text, _tok(text)) for text in texts]
        return clean(prompt)

    return pools


G1A_EXTRA = ":- assignment(anniversary, joel, A)."


def _search_pools_backtrack(spec: PuzzleSpec):
    stricter_first = spec.blocks[0] + "\n" + G1A_EXTRA

    def pools(prompt: str) -> list[tuple[str, int]]:
        if _is_base_request(prompt):
            texts = [spec.base] + _negatives(spec, 4)
        else:
            clue = _clue_index(spec, _last_clue(prompt))
            if clue == 0:
                texts = [stricter_first, spec.blocks[0]] + _negatives(spec, 3)
            elif clue == 2 and G1A_EXTRA in prompt:
                # under the stricter first selection, every batch for the
                # third clue fails, forcing a backtrack
                texts = _negatives(spec, 15)
            else:
                texts = [spec.blocks[clue]] + _negatives(spec, 4)
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


def record_search_scenarios(out: Path, spec: PuzzleSpec, gateway, verbose: bool) -> dict[str, int]:
    instance = spec.instance
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
# Stage 4: end-to-end fixture serving both ranked and single-sample runs

def _e2e_pools(spec: PuzzleSpec):
    weak_first = spec.instance.id in E2E_WEAK_FIRST

    def pools(prompt: str) -> list[tuple[str, int]]:
        if _is_base_request(prompt):
            texts = [spec.base] + [
                spec.base + "\n" + block for block in _negatives(spec, 4)
            ]
        else:
            clue = _clue_index(spec, _last_clue(prompt))
            good = spec.blocks[clue]
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


def _e2e_dispatch(specs: list[PuzzleSpec]):
    by_description = {spec.instance.description: _e2e_pools(spec) for spec in specs}

    def pools(prompt: str) -> list[tuple[str, int]]:
        for description, spec_pools in by_description.items():
            if description in prompt:
                return spec_pools(prompt)
        raise BuildError("prompt does not mention any fixture puzzle")

    return pools


def record_e2e(out: Path, specs: list[PuzzleSpec], gateway, verbose: bool) -> int:
    instances = [spec.instance for spec in specs]
    dispatch = _e2e_dispatch(specs)
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
    # The default out is the packaged data directory itself, which is also
    # where every source is read from: read them all before clearing it.
    specs = read_specs(verbose)
    crosscheck = crosscheck_programs()
    unsafe_listing = unsafe_event_listing()
    if out.exists():
        shutil.rmtree(out)
    (out / "scripted").mkdir(parents=True)
    write_static(out, specs, crosscheck, unsafe_listing, verbose)

    gateway = SolverGateway()
    event = next(spec for spec in specs if spec.instance.id == "event_planning")
    scripted_rows = {}
    scripted_rows["datagen_splits"] = record_datagen(out, event, gateway, verbose)
    scripted_rows.update(record_search_scenarios(out, event, gateway, verbose))
    scripted_rows["search_e2e"] = record_e2e(out, specs, gateway, verbose)

    manifest = {
        "puzzles": len(specs),
        "crosscheck": len(crosscheck),
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
    print(f"fixture data rebuilt at {out}; tests/test_fixtures.py and the drift test check it")
    return 0


if __name__ == "__main__":
    sys.exit(main())
