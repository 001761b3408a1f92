"""One iteration of a perfbench workload, in a process of its own.

    python3 perfbench/worker.py SPEC.json

SPEC.json names the workload, whether to stop after set-up, the instance ids in
run order, the seed, whether to trace, and a scratch directory inside the
checkout. The worker imports asploop from `src/`, writes the dataset file and
a copy of the scripted fixture, then drives `asploop.cli.main` in process
exactly as the shell command would, and writes `result.json` (and, when
tracing, `spans.jsonl`) into the scratch directory. Its times are paced
(see Pace), with the raw wall-clock times beside them. perfbench/run.py starts
one worker per iteration, because peak RSS is a high-water mark and the
solver's in-process cache must start empty, as in a fresh `asploop` process.
"""

import time

T0 = time.perf_counter()  # set-up time counts the asploop imports below

import array  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

EVAL_SMALL = ("event_planning", "observatory", "marina_berths", "science_fair", "chess_club")
FOUR_BY_FOUR = ("tattoo_parlor", "harbor_cruises")

# workload -> (scripted fixture, [(phase, asploop subcommand argv)], instance pool)
WORKLOADS = {
    "eval_small": (
        "search_e2e",
        [("n5", ["eval", "--n", "5"]), ("n1", ["eval", "--n", "1"])],
        EVAL_SMALL,
    ),
    "search_4x4": ("search_e2e", [("search", ["search", "--n", "1"])], FOUR_BY_FOUR),
    "datagen_event": (
        "datagen_splits",
        [("datagen", ["datagen"])],
        ("event_planning",),
    ),
}


class Pace:
    """Tracks how fast the machine runs while the worker runs.

    The vCPUs of a shared host can switch, every few seconds, between full
    speed and about two thirds of it; CPU time grows with wall time then, so
    this is not preemption, and it makes one iteration's wall time vary by
    half. A timer interrupts the worker every PERIOD_S seconds and times a
    fixed pure-Python reference loop (run twice, the second run timed, so
    that it runs warm). `seconds(a, b)` scales each stretch of [a, b] by
    NOMINAL_S over the reference time measured at its end, a median over
    five samples so that one disturbed sample does not count, and leaves
    out the time of the interrupts. The result is the time [a, b] would have
    taken at the speed where the reference loop takes NOMINAL_S.
    """

    PERIOD_S = 0.05
    NOMINAL_S = 0.0001
    SMOOTH = 5

    def __init__(self):
        # per sample: when its interrupt ended, how long it took, and the
        # reference time; arrays, so that the samples make no garbage
        self.ends = array.array("d")
        self.ticks = array.array("d")
        self.refs = array.array("d")

    # the reference loop reads these and allocates no containers: allocating
    # at random moments of the program moved its peak RSS by up to 4%
    KEYS = [(i & 15, i >> 4, f"k{i}") for i in range(64)]
    TABLE = {key: i for i, key in enumerate(KEYS)}
    MARKED = frozenset(KEYS[::3])

    @classmethod
    def reference(cls) -> int:
        acc = 0
        for i in range(300):
            key = cls.KEYS[i & 63]
            acc = (acc + cls._step(key, cls.TABLE[key]) + len(key[2])) & 255
        return acc

    @classmethod
    def _step(cls, key, value: int) -> int:
        return value if key in cls.MARKED else -value

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.reference()
        t1 = time.perf_counter()
        self.reference()
        t2 = time.perf_counter()
        self.ends.append(t2)
        self.ticks.append(t2 - t0)
        self.refs.append(t2 - t1)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def seconds(self, a: float, b: float) -> float:
        """[a, b] at nominal speed, the interrupts left out."""
        refs = self.refs
        if not refs:
            return b - a
        half = self.SMOOTH // 2
        total = 0.0
        start = a
        for i, (end, tick) in enumerate(zip(self.ends, self.ticks)):
            if end <= a:
                continue
            ref = statistics.median(refs[max(i - half, 0):i + half + 1])
            stop = min(end - tick, b)
            if stop > start:
                total += (stop - start) * self.NOMINAL_S / ref
            start = max(start, end)
            if start >= b:
                return total
        ref = statistics.median(refs[-self.SMOOTH:])
        return total + (b - start) * self.NOMINAL_S / ref


def digest(rows) -> str:
    text = "\n".join(json.dumps(row, sort_keys=True) for row in rows)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Probe:
    """Wraps asploop functions at the attribute their caller looks up.

    Always records each verdict's (model_count, flags, reward) under the
    current phase and instance, for the output check. With tracing on it
    also records one span per wrapped call: [name, layer, start, end,
    parent index, counts]. Spans stay in memory until the iteration ends.
    """

    def __init__(self, trace: bool):
        self.trace = trace
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.verdicts: dict[str, dict[str, list]] = {}
        self.phase = ""
        self.instance = ""

    def span(self, owner, attr: str, layer: str, count=None, before=None) -> None:
        original = getattr(owner, attr)
        name = f"{owner.__name__}.{attr}"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            if not self.trace:
                result = original(*args, **kwargs)
                if count is not None:
                    count(result)
                return result
            record = [name, layer, 0.0, 0.0, self.stack[-1] if self.stack else -1, None]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            record[2] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                self.stack.pop()
            if count is not None:
                record[5] = count(result)
            return result

        setattr(owner, attr, wrapper)

    @staticmethod
    def span_cost(calls: int = 20000, repeats: int = 5) -> float:
        """Seconds one traced span adds to a call: the best of `repeats`
        loops of a no-op called through the tracing wrapper, less the best
        loop of the bare no-op, per call."""

        class Target:
            @staticmethod
            def noop():
                return None

        probe = Probe(trace=True)

        def best(fn) -> float:
            times = []
            for _ in range(repeats):
                probe.spans.clear()
                t0 = time.perf_counter()
                for _ in range(calls):
                    fn()
                times.append(time.perf_counter() - t0)
            return min(times)

        bare = best(Target.noop)
        probe.span(Target, "noop", "overhead")
        return (best(Target.noop) - bare) / calls

    def install(self) -> None:
        from asploop import cli, datagen, gateway, matching, search, trajectory
        from asploop.generators import ScriptedGenerator
        from asploop.rewards import reward

        def enter_instance(args):
            self.instance = args[0].id

        def statements(result):
            return {"statements": len(result.statements)}

        def ground_sizes(gp):
            return {
                "atoms": len(gp.possible),
                "rules": len(gp.rules),
                "constraints": len(gp.constraints),
                "choice_candidates": gp.choice_candidate_count,
            }

        def models(result):
            return {"models": len(result[0])}

        def verdict(v):
            row = [v.model_count, v.is_unsat, v.cap_exceeded, v.has_error, reward(v).value]
            self.verdicts.setdefault(self.phase, {}).setdefault(self.instance, []).append(row)
            return {"flagged_verdicts": int(not v.flagless)}

        self.span(cli, "run_search", "search", before=enter_instance)
        self.span(cli, "run_dfs", "datagen", before=enter_instance)
        self.span(gateway.SolverGateway, "solve", "gateway", count=verdict)
        if not self.trace:
            return
        self.span(cli, "main", "cli")
        self.span(cli, "ScriptedGenerator", "generators")
        self.span(ScriptedGenerator, "complete", "generators")
        self.span(cli, "evaluate_accuracy", "search")
        self.span(cli, "export", "datagen")
        self.span(gateway, "parse_program", "asp.parser", count=statements)
        self.span(gateway, "ground_program", "asp.ground", count=ground_sizes)
        self.span(gateway, "enumerate_models", "asp.solve", count=models)
        for module in (search, datagen):
            for attr in ("generate", "combine", "build_base_prompt", "build_hint_prompt"):
                self.span(module, attr, "trajectory")
            self.span(module, "match_solution", "matching")
        for module in (datagen, trajectory):
            self.span(module, "parse_program", "asp.parser", count=statements)
        self.span(matching, "levenshtein_match", "matching")
        for attr in ("reward", "choice_rule_reward"):
            self.span(search, attr, "rewards")


def _record_digest(path: Path) -> dict:
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]
    return {"count": len(rows), "digest": digest(rows)}


def observe(out: Path, instance_ids: list[str], verdicts: dict) -> dict:
    """What the output check compares: per instance, the verdict digest and
    the report row; per phase, the report totals and the exported records."""
    seen: dict = {"instances": {}}
    rows = {iid: verdicts.get(iid, []) for iid in instance_ids}
    for iid, vs in rows.items():
        seen["instances"][iid] = {"verdicts": digest(vs), "verdict_count": len(vs)}
    metrics = out / "metrics.json"
    if metrics.is_file():
        report = json.loads(metrics.read_text(encoding="utf-8"))
        seen["order"] = [row["instance_id"] for row in report["per_instance"]]
        seen["report"] = {k: report[k] for k in ("accuracy", "buckets", "correct", "total")}
        for row in report["per_instance"]:
            seen["instances"][row["instance_id"]].update(
                {k: row[k] for k in ("correct", "bucket", "models")}
            )
    if (out / "sft.jsonl").is_file():
        seen["sft"] = _record_digest(out / "sft.jsonl")
        seen["pref"] = _record_digest(out / "pref.jsonl")
        stats = json.loads((out / "stats.json").read_text(encoding="utf-8"))
        seen["stats"] = {k: stats[k] for k in ("sft_records", "pref_records", "aborted_instances")}
    return seen


def main() -> int:
    pace = Pace()
    pace.start()
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    work = Path(spec["dir"])
    work.mkdir(parents=True, exist_ok=True)
    from asploop import cli, fixtures
    from asploop.puzzles import save_dataset

    fixture_name, commands, _ = WORKLOADS[spec["workload"]]
    corpus = {instance.id: instance for instance in fixtures.puzzles()}
    dataset = work / "dataset.json"
    save_dataset([corpus[iid] for iid in spec["instances"]], dataset)
    fixture = work / "fixture.jsonl"
    shutil.copyfile(fixtures.scripted_path(fixture_name), fixture)
    t0 = time.perf_counter()
    result: dict = {"raw_setup_s": t0 - T0, "setup_s": pace.seconds(T0, t0)}

    if not spec["setup_only"]:
        probe = Probe(bool(spec["trace"]))
        probe.install()
        codes = []
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        for phase, argv in commands:
            probe.phase = phase
            codes.append(cli.main(argv + [
                "--dataset", str(dataset), "--generator-fixture", str(fixture),
                "--out", str(work / phase), "--solver", "internal", "--jobs", "1",
                "--seed", str(spec["seed"]),
            ]))
        t1 = time.perf_counter()
        result["cpu_s"] = time.process_time() - cpu0
        pace.stop()
        result["raw_wall_s"] = t1 - t0
        result["wall_s"] = pace.seconds(t0, t1)
        result["exit_codes"] = codes
        result["phases"] = {
            phase: observe(work / phase, spec["instances"], probe.verdicts.get(phase, {}))
            for phase, _ in commands
        }
        if probe.trace:
            # measured after the timed calls, so it does not slow them
            result["trace_overhead_s"] = len(probe.spans) * Probe.span_cost()
            with open(work / "spans.jsonl", "w", encoding="utf-8") as handle:
                for record in probe.spans:
                    handle.write(json.dumps(record) + "\n")

    pace.stop()
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result["peak_rss_mb"] = peak_kb / 1024
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
