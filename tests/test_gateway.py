from __future__ import annotations

import sys

import pytest

from asploop import gateway as gateway_mod
from asploop.asp import parse_program, render_ground_atom
from asploop.gateway import (
    DEFAULT_CAP,
    SolverConfigError,
    SolverGateway,
    SolverVerdict,
)
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


def _verdict(**overrides):
    base = dict(
        models=(),
        model_count=0,
        is_unsat=False,
        cap_exceeded=False,
        has_error=False,
        diagnostics=[],
        wall_time=0.0,
    )
    base.update(overrides)
    return SolverVerdict(**base)


def test_verdict_flagless_property():
    assert _verdict(models=(frozenset(),), model_count=1).flagless
    assert not _verdict(is_unsat=True).flagless
    assert not _verdict(has_error=True).flagless
    assert not _verdict(models=(frozenset(),), model_count=1, cap_exceeded=True).flagless


def test_verdict_rejects_count_mismatch():
    with pytest.raises(ValueError):
        _verdict(model_count=1)


def test_verdict_rejects_error_with_unsat():
    with pytest.raises(ValueError):
        _verdict(is_unsat=True, has_error=True)


def test_verdict_rejects_unsat_with_models():
    with pytest.raises(ValueError):
        _verdict(models=(frozenset(),), model_count=1, is_unsat=True)


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
    # a negative cap is invalid input; a program without models is unsat
    # under any cap, never cap-exceeded with zero models
    assert gateway.solve(UNSAT, cap=-1).flag == "unsat"
