"""Uniform solving interface over the in-process evaluator and an external
clingo-style solver subprocess.

Every path ends in a SolverVerdict whose flags are mutually consistent by
construction: unsat means zero models and no error, an error empties the
model list, and at most one of unsat/cap-exceeded can be set. Warnings from
an external solver count as errors; a wrong encoding that merely provokes a
warning must not look healthy downstream.
"""

from __future__ import annotations

import functools
import os
import re
import shlex
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from .asp import (
    BruteForceRefusal,
    EnumerationBudgetError,
    GroundAtom,
    GroundingError,
    enumerate_models,
    ground_program,
    parse_ground_atom,
    parse_program,
)

DEFAULT_CAP = 1_000_000
DEFAULT_TIMEOUT = 30.0
DEFAULT_NODE_BUDGET = 20_000_000

SOLVER_CMD_ENV = "ASPLOOP_SOLVER_CMD"

# exit codes an unmodified clasp/clingo uses for normal terminations
_OK_EXIT_CODES = {0, 10, 20, 30}


class SolverConfigError(Exception):
    pass


@dataclass
class SolverVerdict:
    models: list[frozenset[GroundAtom]]
    model_count: int
    is_unsat: bool = False
    cap_exceeded: bool = False
    has_error: bool = False
    diagnostics: list[str] = field(default_factory=list)
    wall_time: float = 0.0

    def __post_init__(self):
        if self.model_count != len(self.models):
            raise ValueError("model_count must equal len(models)")
        if self.has_error and (self.is_unsat or self.cap_exceeded):
            raise ValueError("has_error excludes is_unsat and cap_exceeded")
        if self.is_unsat and self.cap_exceeded:
            raise ValueError("is_unsat and cap_exceeded are mutually exclusive")
        if self.is_unsat and (self.models or self.has_error):
            raise ValueError("is_unsat requires zero models and no error")
        if self.has_error and self.models:
            raise ValueError("has_error requires an empty model list")

    @property
    def flagless(self) -> bool:
        return not (self.is_unsat or self.cap_exceeded or self.has_error)


def _error_verdict(diagnostics: list[str], wall_time: float = 0.0) -> SolverVerdict:
    return SolverVerdict(
        models=[],
        model_count=0,
        has_error=True,
        diagnostics=diagnostics,
        wall_time=wall_time,
    )


# --------------------------------------------------------------------------
# In-process solving (cached: candidate texts repeat across runs and tests)

@functools.lru_cache(maxsize=512)
def _solve_in_process(text: str, cap: int):
    """Returns (models tuple, error diagnostics tuple, unsupported):
    unsupported is true when the parse reported only out-of-fragment
    constructs, whose diagnostics are then the errors."""
    result = parse_program(text)
    if result.errors:
        return (), tuple(str(d) for d in result.errors), False
    if result.unsupported:
        return (), tuple(str(d) for d in result.unsupported), True
    try:
        gp = ground_program(result.statements)
        models, _ = enumerate_models(gp, cap=cap, node_budget=DEFAULT_NODE_BUDGET)
    except (GroundingError, EnumerationBudgetError) as exc:
        return (), (str(exc),), False
    return tuple(models), (), False


def _internal_verdict(models: tuple, error_diags: tuple, cap: int, elapsed: float) -> SolverVerdict:
    if error_diags:
        return _error_verdict(list(error_diags), elapsed)
    model_list = list(models)
    if len(model_list) > cap:
        return SolverVerdict(
            models=model_list,
            model_count=len(model_list),
            cap_exceeded=True,
            wall_time=elapsed,
        )
    if not model_list:
        return SolverVerdict(models=[], model_count=0, is_unsat=True, wall_time=elapsed)
    return SolverVerdict(models=model_list, model_count=len(model_list), wall_time=elapsed)


class SolverGateway:
    """Solve program text via the configured backend.

    backend: "internal", "external", or "auto". Auto solves in-process
    unless the parse reports an out-of-fragment construct, in which case the
    external solver takes over (or, with none configured, the verdict is an
    error explaining what was unsupported).
    """

    def __init__(
        self,
        backend: str = "internal",
        solver_cmd: list[str] | str | None = None,
        cap: int = DEFAULT_CAP,
        timeout: float = DEFAULT_TIMEOUT,
    ):
        if backend not in ("internal", "external", "auto"):
            raise SolverConfigError(f"unknown backend {backend!r}")
        self.backend = backend
        if solver_cmd is None:
            solver_cmd = os.environ.get(SOLVER_CMD_ENV) or None
        if isinstance(solver_cmd, str):
            solver_cmd = shlex.split(solver_cmd)
        self.solver_cmd = solver_cmd
        self.cap = cap
        self.timeout = timeout
        self._subprocess_slots = threading.Semaphore(os.cpu_count() or 4)
        if backend == "external" and not self.solver_cmd:
            raise SolverConfigError(
                f"external backend needs a solver command; pass solver_cmd or set {SOLVER_CMD_ENV}"
            )

    def solve(self, program_text: str, cap: int | None = None, backend: str | None = None) -> SolverVerdict:
        cap = self.cap if cap is None else cap
        backend = backend or self.backend
        if backend == "external":
            if not self.solver_cmd:
                raise SolverConfigError(
                    f"external backend needs a solver command; pass solver_cmd or set {SOLVER_CMD_ENV}"
                )
            return self._solve_external(program_text, cap)
        # internal, and auto, which prefers in-process and falls back on
        # unsupported constructs: both take the one cached parse
        t0 = time.perf_counter()
        models, error_diags, unsupported = _solve_in_process(program_text, cap)
        elapsed = time.perf_counter() - t0
        if backend == "auto" and unsupported:
            if self.solver_cmd:
                return self._solve_external(program_text, cap)
            return _error_verdict(
                list(error_diags)
                + [f"no external solver configured (set {SOLVER_CMD_ENV}) for out-of-fragment programs"],
            )
        return _internal_verdict(models, error_diags, cap, elapsed)

    # -- external ----------------------------------------------------------

    def _solve_external(self, text: str, cap: int) -> SolverVerdict:
        t0 = time.perf_counter()
        with tempfile.NamedTemporaryFile(
            "w", suffix=".lp", prefix="asploop_", delete=False, encoding="utf-8"
        ) as handle:
            handle.write(text)
            path = handle.name
        cmd = list(self.solver_cmd) + [path, str(cap + 1)]
        try:
            with self._subprocess_slots:
                proc = subprocess.run(
                    cmd,
                    capture_output=True,
                    text=True,
                    timeout=self.timeout,
                )
        except subprocess.TimeoutExpired:
            return _error_verdict(
                [f"external solver timed out after {self.timeout}s"],
                time.perf_counter() - t0,
            )
        except OSError as exc:
            return _error_verdict(
                [f"external solver could not run: {exc}"],
                time.perf_counter() - t0,
            )
        finally:
            try:
                os.unlink(path)
            except OSError:
                pass
        verdict = parse_external_output(proc.stdout, proc.stderr, proc.returncode, cap)
        verdict.wall_time = time.perf_counter() - t0
        return verdict


# --------------------------------------------------------------------------
# Clingo-style output parsing

_INFO_TAG = re.compile(r"(^|[\s:])info:", re.IGNORECASE)


def _stderr_is_error(line: str) -> bool:
    low = line.lower()
    if "error" in low or "warning" in low:
        return True
    # clingo tags soft diagnostics (undefined atoms etc.) at info severity;
    # the pipeline treats those as errors too
    return bool(_INFO_TAG.search(line))


def parse_external_output(stdout: str, stderr: str, returncode: int, cap: int) -> SolverVerdict:
    """Interpret clingo-style solver output.

    Models come from "Answer: N" marker lines, each followed by one line of
    space-separated atoms. Any stderr line carrying an error, warning, or
    info tag makes the verdict an error, as does an exit status outside the
    documented {0, 10, 20, 30} family.
    """
    diagnostics = [line for line in stderr.splitlines() if line.strip()]
    error = any(_stderr_is_error(line) for line in diagnostics)
    if returncode not in _OK_EXIT_CODES:
        error = True
        diagnostics.append(f"solver exited with status {returncode}")

    lines = stdout.splitlines()
    models: list[frozenset[GroundAtom]] = []
    unsat_marker = False
    parse_problems: list[str] = []
    i = 0
    while i < len(lines):
        line = lines[i].strip()
        if line.startswith("Answer:"):
            atom_line = lines[i + 1] if i + 1 < len(lines) else ""
            atoms = []
            for chunk in atom_line.split():
                try:
                    atoms.append(parse_ground_atom(chunk))
                except ValueError as exc:
                    parse_problems.append(str(exc))
            if not parse_problems:
                models.append(frozenset(atoms))
            i += 2
            continue
        if line == "UNSATISFIABLE":
            unsat_marker = True
        i += 1
    if parse_problems:
        error = True
        diagnostics.extend(parse_problems)

    if error:
        return SolverVerdict(models=[], model_count=0, has_error=True, diagnostics=diagnostics)
    if unsat_marker and not models:
        return SolverVerdict(models=[], model_count=0, is_unsat=True, diagnostics=diagnostics)
    if not models:
        return _error_verdict(diagnostics + ["no models parsed and no UNSATISFIABLE marker"])
    if len(models) > cap:
        return SolverVerdict(
            models=models,
            model_count=len(models),
            cap_exceeded=True,
            diagnostics=diagnostics,
        )
    return SolverVerdict(models=models, model_count=len(models), diagnostics=diagnostics)
