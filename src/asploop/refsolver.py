"""Reference solver with a clingo-shaped command line.

Enumerates models with the brute-force oracle rather than the main search,
so driving it as an external solver cross-checks the two engines. Usage:

    asploop-refsolver FILE [MAX_MODELS]

MAX_MODELS limits how many models are printed (0 means all, like clingo;
a negative count is an error).
Exit status follows the clasp convention: 10 satisfiable, 20 unsatisfiable,
30 satisfiable with the search exhausted, 65 on any error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .asp import (
    BruteForceRefusal,
    GroundingError,
    brute_force_models,
    ground_program,
    ground_atom_key,
    parse_program,
)

EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_SAT_EXHAUSTED = 30
EXIT_ERROR = 65


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_ERROR


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="asploop-refsolver", description=__doc__)
    parser.add_argument("file", type=Path)
    parser.add_argument("max_models", nargs="?", type=int, default=1)
    args = parser.parse_args(argv)
    if args.max_models < 0:
        return _fail(f"MAX_MODELS must be non-negative, got {args.max_models}")

    try:
        text = args.file.read_text(encoding="utf-8")
    except OSError as exc:
        return _fail(str(exc))

    print(f"asploop-refsolver reading from {args.file}")
    result = parse_program(text)
    for diag in result.diagnostics:
        print(f"error: {diag}", file=sys.stderr)
    if not result.ok:
        return EXIT_ERROR

    try:
        models = brute_force_models(ground_program(result.statements))
    except (GroundingError, BruteForceRefusal) as exc:
        return _fail(str(exc))

    print("Solving...")
    limit = len(models) if args.max_models == 0 else min(args.max_models, len(models))
    for index in range(limit):
        atoms = sorted(models[index], key=ground_atom_key)
        print(f"Answer: {index + 1}")
        print(" ".join(str(atom) for atom in atoms))

    if not models:
        print("UNSATISFIABLE")
        print()
        print("Models       : 0")
        return EXIT_UNSAT
    print("SATISFIABLE")
    print()
    print(f"Models       : {limit}")
    exhausted = limit == len(models)
    return EXIT_SAT_EXHAUSTED if exhausted else EXIT_SAT


if __name__ == "__main__":
    sys.exit(main())
