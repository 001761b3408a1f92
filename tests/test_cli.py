from __future__ import annotations

import csv
import json

import pytest

from asploop import cli, fixtures
from asploop.puzzles import save_dataset
from conftest import REFSOLVER_CMD_STR

GOLDEN = "item(a;b). 1 {pick(X) : item(X)} 1. :- pick(b).\n"
UNSAT = "item(a). 1 {pick(X) : item(X)} 1. :- pick(a).\n"
BROKEN = "p(a. \n"


@pytest.fixture
def program(tmp_path):
    def write(text, name="prog.lp"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


@pytest.fixture
def event_dataset(tmp_path):
    path = tmp_path / "event_only.json"
    save_dataset([fixtures.puzzle("event_planning")], path)
    return str(path)


def run_cli(args):
    return cli.main(args)


def test_solve_golden(program, capsys):
    assert run_cli(["solve", program(GOLDEN)]) == 0
    out = capsys.readouterr().out
    assert "models: 1" in out
    assert "flags: none" in out
    assert "reward: 1.0" in out
    assert "model 1: item(a) item(b) pick(a)" in out


def test_solve_show_models(program, capsys):
    path = program("item(a;b). 1 {pick(X) : item(X)} 1.\n")
    assert run_cli(["solve", path, "--show-models", "2"]) == 0
    out = capsys.readouterr().out
    assert "model 1:" in out
    assert "model 2:" in out


def test_solve_unsat(program, capsys):
    assert run_cli(["solve", program(UNSAT)]) == 0
    out = capsys.readouterr().out
    assert "flags: unsat" in out
    assert "UNSAT" in out
    assert "reward: -1.0" in out


def test_solve_broken_program(program, capsys):
    assert run_cli(["solve", program(BROKEN)]) == 1
    out = capsys.readouterr().out
    assert "flags: error" in out
    assert "error:" in out


def test_solve_missing_file(capsys):
    assert run_cli(["solve", "/no/such/file.lp"]) == 2
    assert "not found" in capsys.readouterr().err


def test_solve_external_backend(program, capsys):
    code = run_cli(
        ["solve", program(GOLDEN), "--solver", "external", "--solver-cmd", REFSOLVER_CMD_STR]
    )
    assert code == 0
    assert "models: 1" in capsys.readouterr().out


def test_solve_external_without_cmd_is_config_error(program, capsys):
    assert run_cli(["solve", program(GOLDEN), "--solver", "external"]) == 2
    assert "solver" in capsys.readouterr().err


def test_solve_cap_flag(program, capsys):
    path = program("item(a;b;c). {pick(X) : item(X)}.\n")
    assert run_cli(["solve", path, "--cap", "2"]) == 0
    out = capsys.readouterr().out
    assert "flags: cap-exceeded" in out


def datagen_args(dataset, out):
    return [
        "datagen",
        "--dataset",
        dataset,
        "--out",
        str(out),
        "--generator-fixture",
        str(fixtures.scripted_path("datagen_splits")),
    ]


def test_datagen_run(tmp_path, event_dataset, capsys):
    out = tmp_path / "run1"
    assert run_cli(datagen_args(event_dataset, out)) == 0
    sft_rows = (out / "sft.jsonl").read_text().splitlines()
    pref_rows = (out / "pref.jsonl").read_text().splitlines()
    assert len(sft_rows) == 25
    assert len(pref_rows) == 54
    stats = json.loads((out / "stats.json").read_text())
    assert stats["sft_records"] == 25
    assert stats["pref_records"] == 54
    assert stats["aborted_instances"] == []
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "complete"
    assert manifest["command"] == "datagen"
    assert manifest["reproducible"] is True
    assert manifest["generator"]["kind"] == "scripted"
    assert manifest["dataset"]["sha256"]
    assert set(manifest["artifacts"]) >= {"sft", "pref", "stats"}


def test_datagen_is_reproducible(tmp_path, event_dataset):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(datagen_args(event_dataset, out1)) == 0
    assert run_cli(datagen_args(event_dataset, out2)) == 0
    for name in ("sft.jsonl", "pref.jsonl", "stats.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_datagen_requires_fixture_path(tmp_path, event_dataset, capsys):
    code = run_cli(
        ["datagen", "--dataset", event_dataset, "--out", str(tmp_path / "x")]
    )
    assert code == 2
    assert "fixture" in capsys.readouterr().err


def test_datagen_missing_dataset(tmp_path, capsys):
    code = run_cli(
        [
            "datagen",
            "--dataset",
            "/no/such/dataset.json",
            "--out",
            str(tmp_path / "x"),
            "--generator-fixture",
            str(fixtures.scripted_path("datagen_splits")),
        ]
    )
    assert code == 2


def search_args(dataset, out, fixture_name, extra=()):
    return [
        "search",
        "--dataset",
        dataset,
        "--out",
        str(out),
        "--generator-fixture",
        str(fixtures.scripted_path(fixture_name)),
        *extra,
    ]


def test_search_run(tmp_path, event_dataset):
    out = tmp_path / "search"
    assert run_cli(search_args(event_dataset, out, "search_clean")) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["accuracy"] == 1.0
    assert metrics["total"] == 1
    traces = [json.loads(l) for l in (out / "traces.jsonl").read_text().splitlines()]
    assert len(traces) == 1
    assert traces[0]["instance_id"] == "event_planning"
    kinds = [e["event"] for e in traces[0]["events"]]
    assert kinds == ["step", "rank"] * 5 + ["final"]
    assert traces[0]["models"] == 1
    assert traces[0]["flagless"] is True
    with open(out / "per_instance.csv") as handle:
        rows = list(csv.DictReader(handle))
    assert rows[0]["instance_id"] == "event_planning"
    assert rows[0]["correct"] == "true"
    assert not (out / "buckets.csv").exists()


def test_search_backtrack_fixture_trace(tmp_path, event_dataset):
    out = tmp_path / "bt"
    assert run_cli(search_args(event_dataset, out, "search_backtrack")) == 0
    traces = [json.loads(l) for l in (out / "traces.jsonl").read_text().splitlines()]
    kinds = [e["event"] for e in traces[0]["events"]]
    assert "backtrack" in kinds
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["accuracy"] == 1.0


def test_search_failure_writes_failed_manifest(tmp_path, capsys):
    # the clean fixture only covers event_planning; the full corpus exhausts it
    out = tmp_path / "fail"
    code = run_cli(
        search_args(str(fixtures.data_dir() / "puzzles.json"), out, "search_clean")
    )
    assert code == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"]
    assert capsys.readouterr().err


def eval_args(out, fixture_name="search_e2e", extra=()):
    return [
        "eval",
        "--out",
        str(out),
        "--generator-fixture",
        str(fixtures.scripted_path(fixture_name)),
        *extra,
    ]


@pytest.fixture(scope="module")
def eval5_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "eval5"
    assert run_cli(eval_args(out)) == 0
    return out


def test_eval_over_packaged_corpus(eval5_out):
    metrics = json.loads((eval5_out / "metrics.json").read_text())
    assert metrics["total"] == 7
    assert metrics["accuracy"] == 1.0
    assert not (eval5_out / "traces.jsonl").exists()
    with open(eval5_out / "buckets.csv") as handle:
        rows = list(csv.DictReader(handle))
    assert {r["bucket"] for r in rows} == {
        "error",
        "unsat",
        "multiple-models",
        "wrong-unique-model",
        "cap-exceeded",
    }
    assert all(r["count"] == "0" for r in rows)


def test_eval_single_sample_is_weaker(tmp_path):
    out = tmp_path / "eval1"
    assert run_cli(eval_args(out, extra=("--n", "1"))) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["accuracy"] < 1.0
    assert metrics["correct"] == 4
    wrong = {
        row["instance_id"]
        for row in metrics["per_instance"]
        if not row["correct"]
    }
    assert wrong == set(fixtures.E2E_WEAK_FIRST)


def test_eval_jobs_flag_keeps_results(tmp_path, eval5_out):
    parallel = tmp_path / "parallel"
    assert run_cli(eval_args(parallel, extra=("--jobs", "4"))) == 0
    a = json.loads((eval5_out / "metrics.json").read_text())
    b = json.loads((parallel / "metrics.json").read_text())
    assert a == b


def test_manifest_records_config_and_solver(tmp_path, event_dataset):
    out = tmp_path / "cfg"
    assert (
        run_cli(
            search_args(
                event_dataset,
                out,
                "search_clean",
                extra=("--seed", "7", "--solver", "internal"),
            )
        )
        == 0
    )
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["solver"]["backend"] == "internal"
    assert manifest["config"]["n"] == 5
    assert manifest["started_at"] <= manifest["finished_at"]


def test_http_generator_requires_url(tmp_path, event_dataset, capsys):
    code = run_cli(
        [
            "search",
            "--dataset",
            event_dataset,
            "--out",
            str(tmp_path / "x"),
            "--generator",
            "http",
        ]
    )
    assert code == 2
    assert "url" in capsys.readouterr().err.lower()


def test_unknown_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        run_cli(["frobnicate"])
    assert info.value.code == 2


# command, the flag and its bad value, what the one error line names
BAD_NUMBERS = {
    "eval-n-zero": ("eval", ["--n", "0"], "n must be at least 1"),
    "search-negative-backtrack-limit": ("search", ["--backtrack-limit", "-1"], "backtrack_limit"),
    "datagen-no-samples": ("datagen", ["--n-samples", "0"], "n_samples must be at least 1"),
    "datagen-negative-branch": ("datagen", ["--max-chosen-branch", "-1"], "max_chosen_branch"),
    "solve-negative-cap": ("solve", ["--cap", "-1"], "--cap must be non-negative"),
}


@pytest.mark.parametrize("command, flag, message", BAD_NUMBERS.values(), ids=BAD_NUMBERS.keys())
def test_bad_numbers_are_usage_errors(tmp_path, event_dataset, program, capsys, command, flag, message):
    out = tmp_path / "out"
    if command == "solve":
        argv = ["solve", program(GOLDEN)]
    else:
        fixture = "datagen_splits" if command == "datagen" else "search_e2e"
        argv = [command, "--dataset", event_dataset, "--out", str(out),
                "--generator-fixture", str(fixtures.scripted_path(fixture))]
    assert run_cli(argv + flag) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("asploop: ") and captured.err.count("\n") == 1
    assert message in captured.err
    assert not out.exists()
