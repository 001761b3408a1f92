"""Uniform solving interface over the in-process evaluator and an external
clingo-style solver subprocess.

A SolverVerdict stores what a solve returned (its models, the cap it was
judged against, diagnostics and whether it failed) and derives its count and
flags from them: an error drops every model; otherwise no models means
unsat, and more than `cap` models means cap-exceeded. So no verdict can
contradict itself. Warnings from an external solver count as errors; a wrong
encoding that merely provokes a warning must not look healthy downstream.
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
from collections.abc import Sequence
from dataclasses import dataclass, field

from .asp import (
    EnumerationBudgetError,
    GroundAtom,
    GroundingError,
    enumerate_models,
    ground_program,
    parse_ground_atom,
    parse_program,
)
from .asp.ground import UnsupportedProgram

DEFAULT_CAP = 1_000_000
DEFAULT_TIMEOUT = 30.0

SOLVER_CMD_ENV = "ASPLOOP_SOLVER_CMD"

# exit codes an unmodified clasp/clingo uses for normal terminations
_OK_EXIT_CODES = {0, 10, 20, 30}


class SolverConfigError(Exception):
    pass


@dataclass
class SolverVerdict:
    # the in-process backend's `Models` builds each model when it is read
    models: Sequence[frozenset[GroundAtom]]
    cap: int
    diagnostics: list[str] = field(default_factory=list)
    has_error: bool = False
    wall_time: float = 0.0

    def __post_init__(self):
        if self.has_error:
            self.models = []

    @property
    def model_count(self) -> int:
        return len(self.models)

    @property
    def is_unsat(self) -> bool:
        return not (self.has_error or self.models)

    @property
    def cap_exceeded(self) -> bool:
        return bool(self.models) and len(self.models) > self.cap

    @property
    def flag(self) -> str | None:
        """The flag set, as "error", "unsat" or "cap-exceeded"; None if none is."""
        if self.has_error:
            return "error"
        if self.is_unsat:
            return "unsat"
        return "cap-exceeded" if self.cap_exceeded else None

    @property
    def flagless(self) -> bool:
        return self.flag is None


def _check_cap(cap: int) -> int:
    if cap < 0:
        raise SolverConfigError(f"cap must be non-negative, got {cap}")
    return cap


# --------------------------------------------------------------------------
# In-process solving (cached: candidate texts repeat across runs and tests)

@functools.lru_cache(maxsize=512)
def _solve_in_process(text: str, cap: int):
    """Returns (models, error diagnostics tuple, unsupported):
    unsupported is true when the parse reported only out-of-fragment
    constructs, or negation loops, and the diagnostics then say which."""
    result = parse_program(text)
    if result.errors:
        return (), tuple(str(d) for d in result.errors), False
    if result.unsupported:
        return (), tuple(str(d) for d in result.unsupported), True
    try:
        gp = ground_program(result.statements)
        models, _ = enumerate_models(gp, cap=cap)
    except UnsupportedProgram as exc:
        return (), (str(exc),), True
    except (GroundingError, EnumerationBudgetError) as exc:
        return (), (str(exc),), False
    return models, (), False


class SolverGateway:
    """Solve program text via the configured backend.

    backend: "internal", "external", or "auto". Auto solves in-process
    unless the parse reports an out-of-fragment construct or negation loops,
    in which case the external solver takes over (or, with none configured,
    the verdict is an error explaining what was unsupported).
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
        self.cap = _check_cap(cap)
        self.timeout = timeout
        self._subprocess_slots = threading.Semaphore(os.cpu_count() or 4)
        if backend == "external" and not self.solver_cmd:
            raise SolverConfigError(
                f"external backend needs a solver command; pass solver_cmd or set {SOLVER_CMD_ENV}"
            )

    def solve(self, program_text: str, cap: int | None = None) -> SolverVerdict:
        cap = self.cap if cap is None else _check_cap(cap)
        if self.backend == "external":
            return self._solve_external(program_text, cap)
        # internal, and auto, which prefers in-process and falls back on
        # unsupported programs: both take the one cached parse
        t0 = time.perf_counter()
        models, error_diags, unsupported = _solve_in_process(program_text, cap)
        elapsed = time.perf_counter() - t0
        if self.backend == "auto" and unsupported:
            if self.solver_cmd:
                return self._solve_external(program_text, cap)
            missing = f"no external solver configured (set {SOLVER_CMD_ENV}) for unsupported programs"
            return SolverVerdict((), cap, [*error_diags, missing], has_error=True)
        return SolverVerdict(models, cap, list(error_diags), has_error=bool(error_diags),
                             wall_time=elapsed)

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
            return SolverVerdict((), cap, [f"external solver timed out after {self.timeout}s"],
                                 has_error=True, wall_time=time.perf_counter() - t0)
        except OSError as exc:
            return SolverVerdict((), cap, [f"external solver could not run: {exc}"],
                                 has_error=True, wall_time=time.perf_counter() - t0)
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
    documented {0, 10, 20, 30} family, or output with neither a model nor an
    UNSATISFIABLE marker.
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
            models.append(frozenset(atoms))
            i += 2
            continue
        if line == "UNSATISFIABLE":
            unsat_marker = True
        i += 1
    if parse_problems:
        error = True
        diagnostics.extend(parse_problems)
    if not (error or models or unsat_marker):
        error = True
        diagnostics.append("no models parsed and no UNSATISFIABLE marker")
    return SolverVerdict(models, cap, diagnostics, has_error=error)
