"""Command-line front end.

Four subcommands: `solve` prints the verdict for one program file, `datagen`
writes SFT and preference JSONL for a dataset, `search` runs test-time
search and writes traces plus metrics, `eval` runs the same search but
reports only accuracy and failure buckets. Every artifact-producing command
leaves exactly one manifest.json in its output directory recording the
config, backend identities, dataset hash, and artifact paths.

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from .asp import ground_atom_key, render_ground_atom
from .datagen import DfsConfig, export, run_dfs
from .fixtures import data_dir
from .gateway import DEFAULT_CAP, SolverConfigError, SolverGateway
from .generators import GeneratorError, HttpGenerator, ScriptedGenerator
from .puzzles import PuzzleFormatError, load_dataset
from .rewards import reward
from .search import SearchConfig, SearchError, evaluate_accuracy, run_search

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


class CliConfigError(Exception):
    pass


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


# --------------------------------------------------------------------------
# Argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asploop",
        description="solver-in-the-loop encoding generation for grid puzzles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument(
        "--solver",
        choices=("internal", "external", "auto"),
        default="internal",
        help="solving backend (default: internal)",
    )
    solver.add_argument(
        "--solver-cmd",
        default=None,
        help="external solver command line (or set ASPLOOP_SOLVER_CMD)",
    )
    solver.add_argument(
        "--cap",
        type=int,
        default=None,
        help="model enumeration cap (default: per-instance classification cap)",
    )

    generator = argparse.ArgumentParser(add_help=False)
    generator.add_argument(
        "--generator",
        choices=("scripted", "http"),
        default="scripted",
        help="completion backend (default: scripted)",
    )
    generator.add_argument(
        "--generator-fixture",
        default=None,
        help="JSONL completions file for the scripted backend",
    )
    generator.add_argument("--generator-url", default=None, help="http backend endpoint")
    generator.add_argument(
        "--generator-model", default="default", help="model name for the http backend"
    )
    generator.add_argument(
        "--preamble", default=None, help="file whose text replaces the default preamble"
    )

    run = argparse.ArgumentParser(add_help=False)
    run.add_argument(
        "--dataset",
        default=str(data_dir() / "puzzles.json"),
        help="puzzle dataset, JSON or JSONL (default: the packaged corpus)",
    )
    run.add_argument("--seed", type=int, default=0, help="run seed, recorded in the manifest")
    run.add_argument("--jobs", type=int, default=1, help="parallel instances (default: 1)")
    run.add_argument("--out", required=True, help="output directory")

    p_solve = sub.add_parser("solve", parents=[solver], help="solve one program file")
    p_solve.add_argument("program", help="ASP program file")
    p_solve.add_argument(
        "--show-models", type=int, default=1, help="print up to this many models (default: 1)"
    )

    p_datagen = sub.add_parser(
        "datagen", parents=[run, generator, solver], help="emit SFT and preference data"
    )
    p_datagen.add_argument("--n-samples", type=int, default=5, help="candidates per step")
    p_datagen.add_argument("--temperature", type=float, default=0.8)
    p_datagen.add_argument(
        "--max-chosen-branch", type=int, default=2, help="chosen candidates to branch on"
    )

    search_knobs = argparse.ArgumentParser(add_help=False)
    search_knobs.add_argument("--n", type=int, default=5, help="candidates per step")
    search_knobs.add_argument("--temperature", type=float, default=1.0)
    search_knobs.add_argument("--backtrack-limit", type=int, default=5)
    search_knobs.add_argument("--regen-multiplier", type=int, default=2)
    search_knobs.add_argument(
        "--no-regeneration",
        action="store_true",
        help="skip the extra sampling pass on all-negative pools",
    )

    sub.add_parser(
        "search",
        parents=[run, generator, solver, search_knobs],
        help="test-time search with traces and metrics",
    )
    sub.add_parser(
        "eval",
        parents=[run, generator, solver, search_knobs],
        help="accuracy and failure buckets over a dataset",
    )
    return parser


# --------------------------------------------------------------------------
# Shared plumbing

def _make_gateway(args) -> SolverGateway:
    if args.cap is not None and args.cap < 0:
        raise CliConfigError("--cap must be non-negative")
    return SolverGateway(
        backend=args.solver,
        solver_cmd=args.solver_cmd,
        cap=args.cap if args.cap is not None else DEFAULT_CAP,
    )


def _generator_setup(args):
    """Returns (per-instance generator factory, manifest description)."""
    if args.generator == "scripted":
        if not args.generator_fixture:
            raise CliConfigError("--generator-fixture is required with the scripted backend")
        path = Path(args.generator_fixture)
        if not path.is_file():
            raise CliConfigError(f"generator fixture not found: {path}")
        description = {"kind": "scripted", "fixture": str(path)}
        return (lambda: ScriptedGenerator(path)), description
    if not args.generator_url:
        raise CliConfigError("--generator-url is required with the http backend")
    url, model = args.generator_url, args.generator_model
    description = {"kind": "http", "url": url, "model": model}
    return (lambda: HttpGenerator(url, model)), description


def _load_instances(args):
    path = Path(args.dataset)
    if not path.is_file():
        raise CliConfigError(f"dataset not found: {path}")
    try:
        instances = load_dataset(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise CliConfigError(f"cannot read {path}: {exc}") from exc
    except (PuzzleFormatError, json.JSONDecodeError) as exc:
        raise CliConfigError(f"bad dataset {path}: {exc}") from exc
    if not instances:
        raise CliConfigError(f"dataset {path} contains no instances")
    return path, instances


def _read_text(path: Path, missing: str) -> str:
    """A UTF-8 input file's text; a missing or unreadable one is a usage error."""
    if not path.is_file():
        raise CliConfigError(f"{missing} not found: {path}")
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliConfigError(f"cannot read {path}: {exc}") from exc


def _read_preamble(args) -> str | None:
    if args.preamble is None:
        return None
    return _read_text(Path(args.preamble), "preamble file")


def _config(cls, **fields):
    """A DfsConfig or SearchConfig; a value it rejects is a usage error."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise CliConfigError(str(exc)) from exc


def _map_ordered(fn, items, jobs: int) -> list:
    if jobs <= 1:
        return [fn(item) for item in items]
    # imported here: a --jobs 1 run never loads the thread pool
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _config_snapshot(args) -> dict:
    return {key: value for key, value in sorted(vars(args).items()) if key != "command"}


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_per_instance_csv(path: Path, report: dict, instances) -> None:
    difficulty = {
        inst.id: (inst.meta.get("difficulty") if inst.meta else None) for inst in instances
    }
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["instance_id", "size", "difficulty", "correct", "bucket", "models", "tokens"]
        )
        for row in report["per_instance"]:
            writer.writerow(
                [
                    row["instance_id"],
                    row["size"],
                    difficulty.get(row["instance_id"]) or "",
                    str(row["correct"]).lower(),
                    row["bucket"] or "",
                    row["models"],
                    row["tokens"],
                ]
            )


# --------------------------------------------------------------------------
# Subcommands

def cmd_solve(args) -> int:
    if args.show_models < 0:
        raise CliConfigError("--show-models must be non-negative")
    text = _read_text(Path(args.program), "program file")
    verdict = _make_gateway(args).solve(text)

    print(f"models: {verdict.model_count}")
    print(f"flags: {verdict.flag or 'none'}")
    for diagnostic in verdict.diagnostics:
        print(f"  {diagnostic}")
    if verdict.flag == "unsat":
        print("UNSAT")
    print(f"reward: {reward(verdict).value}")
    for index, model in enumerate(verdict.models[: args.show_models], start=1):
        atoms = " ".join(
            render_ground_atom(atom) for atom in sorted(model, key=ground_atom_key)
        )
        print(f"model {index}: {atoms}")
    return EXIT_RUNTIME if verdict.flag == "error" else EXIT_OK


def _run(args, command: str, make_config, write_artifacts) -> int:
    """The run every artifact command shares. Loading the dataset and
    setting up the generator, gateway and config come first; a failure
    there is a usage error and creates nothing. Then
    `write_artifacts(instances, factory, config, gateway, out_dir,
    artifacts)` writes into --out, naming each file it writes in
    `artifacts`, and returns the summary line. Once --out exists, the run
    leaves one manifest.json in it, complete or failed."""
    dataset, instances = _load_instances(args)
    factory, generator_desc = _generator_setup(args)
    gateway = _make_gateway(args)
    config = make_config(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    started_at = _utc_now()
    artifacts: dict[str, str] = {}

    def write_manifest(status: str, error: str | None = None) -> None:
        manifest = {
            "command": command,
            "config": _config_snapshot(args),
            "dataset": {"path": str(dataset), "sha256": _sha256_file(dataset)},
            "generator": generator_desc,
            "solver": {
                "backend": args.solver,
                "cmd": args.solver_cmd,
            },
            "seed": args.seed,
            "reproducible": generator_desc["kind"] == "scripted",
            "started_at": started_at,
            "finished_at": _utc_now(),
            "artifacts": artifacts,
            "status": status,
            "error": error,
        }
        _write_json(out_dir / "manifest.json", manifest)

    try:
        summary = write_artifacts(instances, factory, config, gateway, out_dir, artifacts)
    except (GeneratorError, SearchError, OSError) as exc:
        write_manifest("failed", str(exc))
        print(f"asploop {command}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except BaseException as exc:
        # a fault in the program: record it, and keep its traceback
        write_manifest("failed", f"{type(exc).__name__}: {exc}")
        raise
    write_manifest("complete")
    print(summary)
    return EXIT_OK


def _dfs_config(args) -> DfsConfig:
    return _config(
        DfsConfig,
        n_samples=args.n_samples,
        temperature=args.temperature,
        max_chosen_branch=args.max_chosen_branch,
        cap=args.cap,
        preamble=_read_preamble(args),
    )


def cmd_datagen(args) -> int:
    def write_artifacts(instances, factory, config, gateway, out_dir, artifacts) -> str:
        results = _map_ordered(
            lambda inst: run_dfs(inst, factory(), config, gateway), instances, args.jobs
        )
        sft_all, pref_all, stats_all = [], [], []
        for sft, pref, stats in results:
            sft_all.extend(sft)
            pref_all.extend(pref)
            stats_all.append(stats)
        export(sft_all, out_dir / "sft.jsonl", "sft-jsonl")
        artifacts["sft"] = "sft.jsonl"
        export(pref_all, out_dir / "pref.jsonl", "pref-jsonl")
        artifacts["pref"] = "pref.jsonl"
        aborted = [s["instance_id"] for s in stats_all if s["aborted_reason"]]
        _write_json(out_dir / "stats.json", {
            "instances": stats_all,
            "sft_records": len(sft_all),
            "pref_records": len(pref_all),
            "aborted_instances": aborted,
        })
        artifacts["stats"] = "stats.json"
        return (
            f"datagen: {len(instances)} instances, {len(sft_all)} sft records, "
            f"{len(pref_all)} preference pairs"
            + (f", {len(aborted)} aborted" if aborted else "")
        )

    return _run(args, "datagen", _dfs_config, write_artifacts)


def _search_config(args) -> SearchConfig:
    return _config(
        SearchConfig,
        n=args.n,
        temperature=args.temperature,
        backtrack_limit=args.backtrack_limit,
        regen_multiplier=args.regen_multiplier,
        enable_regeneration=not args.no_regeneration,
        cap=args.cap,
        preamble=_read_preamble(args),
    )


def _run_search_command(args, command: str) -> int:
    def write_artifacts(instances, factory, config, gateway, out_dir, artifacts) -> str:
        outcomes = _map_ordered(
            lambda inst: run_search(inst, factory(), config, gateway), instances, args.jobs
        )
        report = evaluate_accuracy(outcomes, instances)
        if command == "search":
            with open(out_dir / "traces.jsonl", "w", encoding="utf-8") as handle:
                for instance, outcome in zip(instances, outcomes):
                    row = {
                        "instance_id": instance.id,
                        "events": outcome.trace,
                        "final_program": outcome.final_program,
                        "models": outcome.final_verdict.model_count,
                        "flagless": outcome.final_verdict.flagless,
                        "tokens": outcome.total_output_tokens,
                    }
                    handle.write(json.dumps(row, ensure_ascii=False) + "\n")
            artifacts["traces"] = "traces.jsonl"
        _write_json(out_dir / "metrics.json", report)
        artifacts["metrics"] = "metrics.json"
        _write_per_instance_csv(out_dir / "per_instance.csv", report, instances)
        artifacts["per_instance"] = "per_instance.csv"
        if command == "eval":
            with open(out_dir / "buckets.csv", "w", encoding="utf-8", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(["bucket", "count"])
                for bucket, count in report["buckets"].items():
                    writer.writerow([bucket, count])
            artifacts["buckets"] = "buckets.csv"
        return (
            f"{command}: {report['correct']}/{report['total']} correct "
            f"(accuracy {report['accuracy']:.3f})"
        )

    return _run(args, command, _search_config, write_artifacts)


def cmd_search(args) -> int:
    return _run_search_command(args, "search")


def cmd_eval(args) -> int:
    return _run_search_command(args, "eval")


COMMANDS = {
    "solve": cmd_solve,
    "datagen": cmd_datagen,
    "search": cmd_search,
    "eval": cmd_eval,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (CliConfigError, SolverConfigError) as exc:
        print(f"asploop: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
