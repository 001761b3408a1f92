"""Smoke test of the benchmark harness, on eval_small cut down to chess_club.

    python3 -m pytest -q perfbench/test_smoke.py

Takes a few seconds. It runs the real harness loop and workers, so it checks
that every metric BENCHMARK.json names is reported with its unit and that the
output check passes on the current program, and fails on a wrong verdict.
"""

import copy
import json

import pytest

import run

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def chess_club_only(monkeypatch):
    monkeypatch.setattr(run, "instances_for", lambda *args: ["chess_club"])


@pytest.mark.parametrize("trace", [0, 1])
def test_run_reports_every_metric_and_passes_the_output_check(chess_club_only, capsys, trace):
    argv = ["--workload", "eval_small", "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    named = BENCH["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in named
    }
    if trace:
        # chess_club: 21 verdicts at --n 5, then 5 at --n 1
        assert result["metrics"]["gateway.calls"]["value"] == 26
        assert result["metrics"]["asp.ground.atoms"]["value"] > 0


def test_output_check_catches_a_changed_verdict():
    runner = run.Runner("eval_small", 0)
    try:
        result, _, problem = runner.worker(["chess_club"])
    finally:
        runner.close()
    assert problem is None
    expected = run.load_expected()
    assert run.check("eval_small", ["chess_club"], result, expected) == []
    wrong = copy.deepcopy(result)
    wrong["phases"]["n1"]["instances"]["chess_club"]["models"] = 1
    assert run.check("eval_small", ["chess_club"], wrong, expected)
    wrong = copy.deepcopy(result)
    wrong["phases"]["n5"]["instances"]["chess_club"]["verdicts"] = "0" * 64
    assert run.check("eval_small", ["chess_club"], wrong, expected)
