from __future__ import annotations

import sys

import pytest

from asploop import gateway as gateway_mod
from asploop import refsolver
from asploop.asp import GroundAtom, parse_program, render_ground_atom
from asploop.asp.parser import _parse_block
from asploop.gateway import (
    DEFAULT_CAP,
    SolverConfigError,
    SolverGateway,
    SolverVerdict,
)
from asploop.rewards import choice_rule_reward, reward
from conftest import REFSOLVER_CMD, REFSOLVER_CMD_STR

GOLDEN = "item(a;b). 1 {pick(X) : item(X)} 1. :- pick(b)."
UNSAT = "item(a). 1 {pick(X) : item(X)} 1. :- pick(a)."
MANY = "item(a;b;c). {pick(X) : item(X)}."
BROKEN = "p(a. "


def rendered(model):
    return sorted(render_ground_atom(a) for a in model)


def test_default_configuration():
    gateway = SolverGateway()
    assert gateway.cap == DEFAULT_CAP
    verdict = gateway.solve(GOLDEN)
    assert verdict.flagless
    assert verdict.model_count == 1
    assert rendered(verdict.models[0]) == ["item(a)", "item(b)", "pick(a)"]
    assert verdict.wall_time >= 0.0


def test_parse_errors_become_error_verdicts():
    verdict = SolverGateway().solve(BROKEN)
    assert verdict.has_error
    assert not verdict.flagless
    assert verdict.model_count == 0
    assert verdict.diagnostics


def test_unsat_verdict():
    verdict = SolverGateway().solve(UNSAT)
    assert verdict.is_unsat
    assert not verdict.flagless
    assert not verdict.has_error
    assert verdict.model_count == 0


def test_cap_exceeded_verdict():
    verdict = SolverGateway(cap=2).solve(MANY)
    assert verdict.cap_exceeded
    assert not verdict.has_error
    assert not verdict.flagless
    assert verdict.model_count == 3


def test_unsafe_program_is_an_error_not_a_crash():
    verdict = SolverGateway().solve(":- item(X), not X == Y.")
    assert verdict.has_error
    assert any("unsafe" in str(d) for d in verdict.diagnostics)


def test_repeat_solves_agree():
    gateway = SolverGateway()
    first = gateway.solve(GOLDEN)
    second = gateway.solve(GOLDEN)
    assert first.models == second.models
    assert first.flagless and second.flagless


def test_external_backend_requires_a_command():
    with pytest.raises(SolverConfigError):
        SolverGateway(backend="external")


def test_unknown_backend_is_rejected():
    with pytest.raises(SolverConfigError):
        SolverGateway(backend="sideways")


def test_env_var_supplies_the_command(monkeypatch):
    monkeypatch.setenv("ASPLOOP_SOLVER_CMD", REFSOLVER_CMD_STR)
    gateway = SolverGateway(backend="external")
    assert gateway.solve(GOLDEN).flagless


@pytest.mark.parametrize("from_env", [False, True], ids=["argument", "environment"])
def test_a_malformed_solver_command_is_a_config_error(monkeypatch, from_env):
    bad = 'python3 "x'
    monkeypatch.setenv("ASPLOOP_SOLVER_CMD", bad if from_env else REFSOLVER_CMD_STR)
    with pytest.raises(SolverConfigError, match="solver command 'python3 \"x'"):
        SolverGateway(backend="auto", solver_cmd=None if from_env else bad)


def test_auto_backend_without_command_runs_in_process(monkeypatch):
    monkeypatch.delenv("ASPLOOP_SOLVER_CMD", raising=False)
    gateway = SolverGateway(backend="auto")
    assert gateway.solve(GOLDEN).flagless


def test_auto_backend_parses_each_program_once(monkeypatch):
    monkeypatch.delenv("ASPLOOP_SOLVER_CMD", raising=False)
    calls = []

    def counting_parse(text):
        calls.append(text)
        return parse_program(text)

    monkeypatch.setattr(gateway_mod, "parse_program", counting_parse)
    gateway = SolverGateway(backend="auto")
    # texts no other test solves, so the in-process cache starts cold
    text = "parse_once(a;b). 1 {pick(X) : parse_once(X)} 1."
    assert gateway.solve(text).model_count == 2
    assert len(calls) == 1
    assert gateway.solve(text).model_count == 2
    assert len(calls) == 1
    unsupported = gateway.solve("parse_once(a). #show parse_once/1.")
    assert unsupported.has_error
    assert "no external solver configured" in unsupported.diagnostics[-1]
    assert len(calls) == 2


MALFORMED = {
    "superscript digit": "p(²).",
    "superscript bound": "² {a}.",
    "arabic-indic digit": "p(١).",
    "accented letter": "p(é).",
    "5000-digit literal": "p(" + "9" * 5000 + ").",
    "68-term sum": "p(" + "+".join(["1"] * 68) + ").",
    "1500-term sum": "p(" + "+".join(["1"] * 1500) + ").",
    "tuple nested 197 deep": "p(" + "(" * 197 + "1" + ",1)" * 197 + ").",
    "1200 parentheses": "p(" + "(" * 1200 + "1" + ")" * 1200 + ").",
    "92 positive body atoms": "".join(f"q{i}.\n" for i in range(92))
    + ":- " + ", ".join(f"q{i}" for i in range(92)) + ".",
}


@pytest.mark.parametrize("backend", ["internal", "auto"])
@pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_programs_are_error_verdicts(monkeypatch, backend, text):
    monkeypatch.delenv("ASPLOOP_SOLVER_CMD", raising=False)
    verdict = SolverGateway(backend=backend).solve(text)
    assert verdict.has_error
    assert verdict.diagnostics


def test_a_thirty_term_sum_solves():
    verdict = SolverGateway().solve("p(" + "+".join(["1"] * 30) + ").")
    assert [rendered(model) for model in verdict.models] == [["p(30)"]]


@pytest.mark.parametrize("cmd", [REFSOLVER_CMD_STR, REFSOLVER_CMD], ids=["str", "list"])
def test_external_backend_matches_internal(cmd):
    internal = SolverGateway()
    external = SolverGateway(backend="external", solver_cmd=cmd)
    for text in (GOLDEN, UNSAT, MANY, BROKEN):
        a = internal.solve(text)
        b = external.solve(text)
        assert set(a.models) == set(b.models), text
        assert (a.is_unsat, a.cap_exceeded, a.has_error) == (
            b.is_unsat,
            b.cap_exceeded,
            b.has_error,
        ), text


def test_external_solve_leaves_the_block_cache_alone():
    # the atoms a solver prints are parsed outside the block cache, so
    # they cannot evict the blocks of the programs being solved
    _parse_block.cache_clear()
    verdict = SolverGateway(backend="external", solver_cmd=REFSOLVER_CMD).solve(MANY)
    assert verdict.model_count == 8
    assert _parse_block.cache_info().currsize == 0


def test_external_cap_exceeded():
    gateway = SolverGateway(backend="external", solver_cmd=REFSOLVER_CMD, cap=2)
    verdict = gateway.solve(MANY)
    assert verdict.cap_exceeded
    assert verdict.model_count == 3


def test_external_timeout_is_an_error():
    gateway = SolverGateway(
        backend="external",
        solver_cmd=[sys.executable, "-c", "import time; time.sleep(5)"],
        timeout=0.3,
    )
    verdict = gateway.solve(GOLDEN)
    assert verdict.has_error
    assert any("timed out" in str(d) for d in verdict.diagnostics)


def test_external_bad_exit_code_is_an_error():
    gateway = SolverGateway(
        backend="external", solver_cmd=[sys.executable, "-c", "import sys; sys.exit(1)"]
    )
    verdict = gateway.solve(GOLDEN)
    assert verdict.has_error
    assert "solver exited with status 1" in verdict.diagnostics


def test_external_unparseable_output_is_an_error():
    gateway = SolverGateway(
        backend="external", solver_cmd=[sys.executable, "-c", "print('nonsense')"]
    )
    verdict = gateway.solve(GOLDEN)
    assert verdict.has_error
    assert verdict.model_count == 0
    assert "no models parsed and no UNSATISFIABLE marker" in verdict.diagnostics


def test_verdict_flagless_property():
    one = (frozenset(),)
    assert SolverVerdict(one, cap=1).flagless
    assert not SolverVerdict((), cap=1).flagless
    assert not SolverVerdict(one, cap=1, has_error=True).flagless
    assert not SolverVerdict(one, cap=0).flagless


CAP = 3

# models given, has_error -> model_count, flag, reward, choice-rule reward
# against an expected count of CAP
VERDICT_TABLE = [
    (0, False, 0, "unsat", -1.0, -1.0),
    (1, False, 1, None, 1.0, 0.0),
    (CAP, False, CAP, None, 1 / CAP, 1.0),
    (CAP + 1, False, CAP + 1, "cap-exceeded", -1.0, -1.0),
    (0, True, 0, "error", -1.0, -1.0),
    (1, True, 0, "error", -1.0, -1.0),
    (CAP, True, 0, "error", -1.0, -1.0),
    (CAP + 1, True, 0, "error", -1.0, -1.0),
]


@pytest.mark.parametrize("given_models, error, count, flag, value, choice_value", VERDICT_TABLE)
def test_verdict_derives_its_count_and_flags(given_models, error, count, flag, value, choice_value):
    models = [frozenset({GroundAtom("m", (i,))}) for i in range(given_models)]
    verdict = SolverVerdict(models, CAP, has_error=error)
    assert verdict.model_count == len(verdict.models) == count
    flags = {
        "error": verdict.has_error,
        "unsat": verdict.is_unsat,
        "cap-exceeded": verdict.cap_exceeded,
    }
    assert sum(flags.values()) <= 1
    assert verdict.flag == next((name for name, on in flags.items() if on), None) == flag
    assert verdict.flagless == (flag is None)
    assert reward(verdict).flag == flag
    assert reward(verdict).value == value
    assert choice_rule_reward(verdict, CAP).value == choice_value


@pytest.mark.parametrize("backend", ["internal", "external", "auto"])
def test_a_negative_cap_is_rejected(backend):
    with pytest.raises(SolverConfigError, match="cap must be non-negative"):
        SolverGateway(backend=backend, solver_cmd=REFSOLVER_CMD, cap=-1)
    gateway = SolverGateway(backend=backend, solver_cmd=REFSOLVER_CMD)
    with pytest.raises(SolverConfigError, match="cap must be non-negative"):
        gateway.solve(MANY, cap=-1)
    assert gateway.solve(MANY, cap=0).flag == "cap-exceeded"


def test_external_atom_that_does_not_parse_is_an_error():
    verdict = gateway_mod.parse_external_output("Answer: 1\np(\nSATISFIABLE\n", "", 10, 5)
    assert verdict.has_error and verdict.model_count == 0
    assert any("not a ground atom" in d for d in verdict.diagnostics)


def test_external_info_line_is_an_error():
    info = "x.lp:1:1-2: info: atom does not occur in any rule head:"
    verdict = gateway_mod.parse_external_output("UNSATISFIABLE\n", info + "\n", 20, 5)
    assert verdict.has_error and not verdict.is_unsat
    assert info in verdict.diagnostics


def test_external_solver_that_cannot_start_is_an_error():
    gateway = SolverGateway(backend="external", solver_cmd=["/nonexistent/solver"])
    verdict = gateway.solve("p.")
    assert verdict.has_error and verdict.model_count == 0
    assert verdict.diagnostics[0].startswith("external solver could not run")


def test_verdict_flag_names_the_one_flag_set():
    gateway = SolverGateway()
    assert gateway.solve(GOLDEN).flag is None
    assert gateway.solve(BROKEN).flag == "error"
    assert gateway.solve(UNSAT).flag == "unsat"
    assert gateway.solve(MANY, cap=2).flag == "cap-exceeded"
    # a program without models is unsat under any cap, even the least,
    # never cap-exceeded with zero models
    assert gateway.solve(UNSAT, cap=0).flag == "unsat"


def test_refsolver_rejects_a_negative_model_count(tmp_path, capsys):
    path = tmp_path / "many.lp"
    path.write_text(MANY, encoding="utf-8")
    assert refsolver.main([str(path), "-1"]) == refsolver.EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: MAX_MODELS must be non-negative, got -1\n"


def test_refsolver_rejects_a_model_count_that_is_not_an_integer(tmp_path, capsys):
    path = tmp_path / "many.lp"
    path.write_text(MANY, encoding="utf-8")
    assert refsolver.main([str(path), "abc"]) == refsolver.EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: argument max_models: invalid int value: 'abc'\n"


def test_refsolver_without_a_file_is_an_error(capsys):
    assert refsolver.main([]) == refsolver.EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the following arguments are required: file\n"
