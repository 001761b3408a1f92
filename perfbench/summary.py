"""Run every workload over seeds 1 to 10 and print each metric's spread.

    python3 perfbench/summary.py

For each workload in BENCHMARK.json and each end-to-end metric it prints the
unit, the sample count, the quartiles over the seeds, the spread
(q3 - q1) / median and the metric's bound; a spread above a third of its
bound is flagged, as the benchmark is steady when none is. It also prints
failed_share, the failed iterations over those attempted. Each seed is one
run of perfbench/run.py with BENCHMARK.json's run_seconds. Per-layer metrics
come from one `perfbench/run.py --trace 1` run instead: their counts are
checked to repeat within that run, and they differ from seed to seed.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in bench["workloads"]):
        results = []
        for seed in SEEDS:
            results.append(run_once(workload, seed, bench["run_seconds"]))
            print(f"{workload} seed {seed}: {json.dumps(results[-1]['metrics'])}", file=sys.stderr)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"{workload}: {len(results)} runs, {attempted} iterations, "
              f"failed_share {failed / attempted:.3f}, "
              f"all correct {all(r['correct'] for r in results)}")
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            line = (f"  {metric['name']:<12} {metric['unit']:<3} n={len(values)} "
                    f"median={median:.6g} q1={q1:.6g} q3={q3:.6g} "
                    f"spread={spread:.4f} bound={metric['bound']}")
            if spread > metric["bound"] / 3:
                line += "  <- above a third of the bound"
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
