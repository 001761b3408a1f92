"""asploop benchmark: drives the CLI end to end and checks its outputs.

    python3 perfbench/run.py --workload eval_small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --record      # re-record perfbench/expected.json

Run from the root of a checkout; asploop is imported from `src/`, nothing
needs installing. Each iteration runs in a fresh worker process (see
worker.py), one at a time: a closed loop with a single client. The run
starts iterations while they are expected to end within `--seconds`, and at
least two.

With `--trace 0` the last stdout line reports the end-to-end metrics:
wall_s (median wall time of one iteration's CLI calls), peak_rss_mb (median
of the workers' peak RSS) and setup_s (median set-up time over every worker
started, including set-up-only ones). Both times are paced: measured at a
fixed reference speed of the machine (see worker.Pace); the raw wall-clock
times are printed as raw_wall_s and raw_setup_s. With `--trace 1` it reports per-layer
metrics from traced iterations, with the tracing overhead each worker
measures (spans times the cost of one span). Every iteration's outputs are
checked against expected.json; a mismatch, a non-zero exit or a per-layer count that differs
between two traced iterations counts as a failed iteration and makes the
result not correct. A worker that crashes or times out ends the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from worker import EVAL_SMALL, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
SCRATCH = ROOT / ".perfbench_work"

MIN_ITERATIONS = 2
SETUP_ONLY_WORKERS = 6
# every run must end within 180 s; no iteration starts that could pass this
HARD_LIMIT_S = 150.0

# eval_small instances that a single sample (--n 1) gets wrong
E2E_WEAK_FIRST = {"observatory", "science_fair", "chess_club"}

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
LAYER_SELF = ("generators", "trajectory", "rewards", "search", "datagen", "cli")
PER_LAYER_UNITS = {
    "asp.parser.calls": "count", "asp.parser.self_s": "s", "asp.parser.statements": "count",
    "asp.ground.calls": "count", "asp.ground.self_s": "s", "asp.ground.atoms": "count",
    "asp.ground.rules": "count", "asp.ground.constraints": "count",
    "asp.ground.choice_candidates": "count",
    "asp.solve.calls": "count", "asp.solve.self_s": "s", "asp.solve.models": "count",
    "gateway.calls": "count", "gateway.self_s": "s", "gateway.verdict_p50_ms": "ms",
    "gateway.verdict_p90_ms": "ms", "gateway.cache_hit_ratio": "ratio",
    "gateway.flagged_verdicts": "count",
    "matching.calls": "count", "matching.self_s": "s", "matching.levenshtein_calls": "count",
    **{f"{layer}.self_s": "s" for layer in LAYER_SELF},
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot produce a result (no program, no working worker)."""


# --------------------------------------------------------------------------
# Inputs from the seed

def instances_for(workload: str, seed: int, iteration: int, trace: bool) -> list[str]:
    """eval_small: the seed orders the five instances. search_4x4: the seed
    picks which 4x4 puzzle runs first; untraced iterations alternate between
    the two so that every run weighs both alike. Traced runs keep the first
    one, so that their per-layer counts must repeat exactly."""
    pool = list(WORKLOADS[workload][2])
    random.Random(seed).shuffle(pool)
    if workload == "search_4x4":
        return [pool[0 if trace else iteration % len(pool)]]
    return pool


# --------------------------------------------------------------------------
# Workers

class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.perf_counter()
        self.dir = SCRATCH / f"{workload}-{seed}-{os.getpid()}"
        self.count = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def worker(self, instances: list[str], *, setup_only=False, trace=False):
        """Runs one worker; returns (result, spans, problem)."""
        work = self.dir / str(self.count)
        self.count += 1
        work.mkdir(parents=True)
        spec = {
            "workload": self.workload, "setup_only": setup_only, "instances": instances,
            "seed": self.seed, "trace": trace, "dir": str(work),
        }
        (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(work / "spec.json")],
                cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=max(HARD_LIMIT_S + 20 - self.elapsed(), 1.0),
            )
        except subprocess.TimeoutExpired:
            return None, None, "worker timed out"
        if proc.returncode != 0:
            tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
            return None, None, f"worker exited {proc.returncode}: {tail}"
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
        spans = None
        if trace:
            with open(work / "spans.jsonl", encoding="utf-8") as handle:
                spans = [json.loads(line) for line in handle]
        shutil.rmtree(work)
        return result, spans, None

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass


# --------------------------------------------------------------------------
# Output check

def load_expected() -> dict:
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    validate_expected(expected)
    return expected


def validate_expected(expected: dict) -> None:
    """The recorded values must show the results this corpus is known to
    give, so that a recording made from a broken program is refused."""
    def correct(workload, phase):
        return {i for i, row in expected[workload][phase]["instances"].items() if row["correct"]}

    problems = []
    if correct("eval_small", "n5") != set(EVAL_SMALL):
        problems.append("eval_small --n 5 must solve all five instances")
    if correct("eval_small", "n1") != set(EVAL_SMALL) - E2E_WEAK_FIRST:
        problems.append(f"eval_small --n 1 must fail exactly {sorted(E2E_WEAK_FIRST)}")
    for iid, row in expected["search_4x4"]["search"]["instances"].items():
        if not (row["correct"] and row["models"] == 1):
            problems.append(f"search_4x4 {iid} must end with exactly one correct model")
    datagen = expected["datagen_event"]["datagen"]
    if (datagen["sft"]["count"], datagen["pref"]["count"]) != (25, 54):
        problems.append("datagen_event must export 25 SFT and 54 preference records")
    if problems:
        raise BenchError("expected.json: " + "; ".join(problems))


def check(workload: str, instances: list[str], result: dict, expected: dict) -> list[str]:
    """Problems with one iteration's outputs; empty when they are right."""
    problems = [f"exit code {c}" for c in result["exit_codes"] if c != 0]
    for phase, want in expected[workload].items():
        got = result["phases"][phase]
        for iid in instances:
            if got["instances"].get(iid) != want["instances"][iid]:
                problems.append(f"{phase} {iid}: got {got['instances'].get(iid)}")
        if "report" in want:
            rows = [want["instances"][iid] for iid in instances]
            buckets = dict.fromkeys(want["report"]["buckets"], 0)
            buckets.update(Counter(r["bucket"] for r in rows if not r["correct"]))
            correct = sum(r["correct"] for r in rows)
            report = {"accuracy": correct / len(rows), "buckets": buckets,
                      "correct": correct, "total": len(rows)}
            if got.get("report") != report:
                problems.append(f"{phase} report: got {got.get('report')}, want {report}")
            if got.get("order") != instances:
                problems.append(f"{phase} instance order: got {got.get('order')}")
        for key in ("sft", "pref", "stats"):
            if key in want and got.get(key) != want[key]:
                problems.append(f"{phase} {key}: got {got.get(key)}, want {want[key]}")
    return problems


# --------------------------------------------------------------------------
# Per-layer metrics from spans

def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Spans are [name, layer, start, end, parent, counts]. A layer's self
    time is the sum over its spans of duration minus child-span time."""
    child_time = [0.0] * len(spans)
    parsed = set()
    for name, layer, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
            if layer == "asp.parser":
                parsed.add(parent)
    self_s: dict[str, float] = defaultdict(float)
    out: dict[str, float] = defaultdict(int)
    solve_ms, hits = [], 0
    for index, (name, layer, start, end, parent, counts) in enumerate(spans):
        self_s[layer] += end - start - child_time[index]
        calls = "levenshtein_calls" if name.endswith("levenshtein_match") else "calls"
        out[f"{layer}.{calls}"] += 1
        for key, value in (counts or {}).items():
            out[f"{layer}.{key}"] += value
        if layer == "gateway":
            solve_ms.append((end - start) * 1000)
            hits += index not in parsed
    for layer, value in self_s.items():
        out[f"{layer}.self_s"] = value
    if len(solve_ms) >= 2:
        deciles = statistics.quantiles(solve_ms, n=10, method="inclusive")
        out["gateway.verdict_p50_ms"] = statistics.median(solve_ms)
        out["gateway.verdict_p90_ms"] = deciles[8]
    out["gateway.cache_hit_ratio"] = hits / len(solve_ms) if solve_ms else 0.0
    return {name: out.get(name, 0) for name in PER_LAYER_UNITS if name != "trace.overhead_s"}


def is_count(name: str) -> bool:
    return PER_LAYER_UNITS[name] in ("count", "ratio")


# --------------------------------------------------------------------------
# The run

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    expected = load_expected()
    runner = Runner(workload, seed)
    try:
        return _run(runner, workload, seed, seconds, trace, expected)
    finally:
        runner.close()


def _run(runner: Runner, workload, seed, seconds, trace, expected) -> dict:
    # the first worker compiles bytecode, which users pay once: not measured
    _, _, problem = runner.worker(instances_for(workload, seed, 0, trace), setup_only=True)
    if problem:
        raise BenchError(f"set-up failed: {problem}")
    samples: dict[str, list[float]] = defaultdict(list)
    if not trace:
        for _ in range(SETUP_ONLY_WORKERS):
            result, _, problem = runner.worker(instances_for(workload, seed, 0, trace), setup_only=True)
            if problem:
                raise BenchError(f"set-up failed: {problem}")
            samples["setup_s"].append(result["setup_s"])
            samples["raw_setup_s"].append(result["raw_setup_s"])

    attempted = failed = 0
    traced: list[dict[str, float]] = []
    window = runner.elapsed()
    longest = 0.0
    # another iteration starts only if, taking as long as the longest so far,
    # it ends within the measuring window; a traced run needs two to compare counts
    while attempted < MIN_ITERATIONS or runner.elapsed() - window + longest <= seconds:
        if runner.elapsed() + 1.5 * longest > HARD_LIMIT_S:
            print(f"stopping early: another iteration could pass {HARD_LIMIT_S} s",
                  file=sys.stderr)
            break
        instances = instances_for(workload, seed, attempted, trace)
        started = runner.elapsed()
        result, spans, problem = runner.worker(instances, trace=trace)
        longest = max(longest, runner.elapsed() - started)
        attempted += 1
        if problem:
            failed += 1
            print(f"iteration {attempted} failed: {problem}", file=sys.stderr)
            break
        # an iteration with wrong outputs still ran: its times count, and the
        # result says it is not correct
        problems = check(workload, instances, result, expected)
        if trace:
            metrics = layer_metrics(spans)
            problems += [
                f"per-layer count {name} differs between traced iterations: "
                f"{traced[0][name]} then {metrics[name]}"
                for name in metrics
                if traced and is_count(name) and metrics[name] != traced[0][name]
            ]
            metrics["trace.overhead_s"] = result["trace_overhead_s"]
            traced.append(metrics)
        if problems:
            failed += 1
            for line in problems:
                print(f"iteration {attempted} failed: {line}", file=sys.stderr)
        for name in ("wall_s", "raw_wall_s", "cpu_s", "setup_s", "raw_setup_s", "peak_rss_mb"):
            samples[name].append(result[name])
    if not samples["wall_s"] or (trace and not traced):
        raise BenchError("no iteration ran to the end")

    print(f"workload {workload}, seed {seed}: {attempted} iterations, {failed} failed "
          f"(failed_share {failed / attempted:.3f}); {environment()}")
    for name, values in sorted(samples.items()):
        q1, q2, q3 = quartiles(values)
        print(f"  {name:<22} n={len(values):<3} q1={q1:.4f} median={q2:.4f} q3={q3:.4f}")

    if trace:
        # counts repeat exactly (checked above); times take the median
        metrics = {
            name: value if is_count(name) else statistics.median(run[name] for run in traced)
            for name, value in traced[0].items()
        }
        units = PER_LAYER_UNITS
    else:
        metrics = {name: statistics.median(samples[name]) for name in END_TO_END}
        units = END_TO_END
    for name, value in metrics.items():
        print(f"  {name:<30} {value:.6g} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def environment() -> str:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return f"python {platform.python_version()}, nproc {os.cpu_count()}, commit {commit}"


# --------------------------------------------------------------------------
# Recording expected.json

def record() -> None:
    """Run every workload once per input and store what the outputs were."""
    expected: dict = {}
    for workload, (_, _, pool) in WORKLOADS.items():
        runs = [list(EVAL_SMALL)] if workload == "eval_small" else [[iid] for iid in pool]
        runner = Runner(workload, 0)
        try:
            for instances in runs:
                result, _, problem = runner.worker(instances)
                if problem or any(result["exit_codes"]):
                    raise BenchError(f"{workload}: {problem or result['exit_codes']}")
                for phase, seen in result["phases"].items():
                    entry = expected.setdefault(workload, {}).setdefault(phase, {"instances": {}})
                    entry["instances"].update(seen["instances"])
                    for key in ("report", "sft", "pref", "stats"):
                        if key in seen:
                            entry[key] = seen[key]
        finally:
            runner.close()
    validate_expected(expected)
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {EXPECTED}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="re-record expected.json")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "asploop" / "cli.py").is_file():
        print(f"perfbench: no asploop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.record:
            record()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # on SIGTERM, unwind: subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
