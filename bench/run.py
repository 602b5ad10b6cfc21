"""bipower benchmark: one closed-loop workload per run, every output checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports bipower from ``src/``.  Set-up
imports the package and generates every input from the seed; it is done once
before the first round and once after each of the next ten, and the median is
reported.  The run repeats whole rounds of the workload's operations, one
after another, until ``--seconds`` have passed, and checks every output
against ``reference.py``.  With ``--trace 0`` the last line of stdout is a
JSON object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics, from three further pairs of untraced and traced passes over
the workload's in-process operations, and the spans go to ``.bench_trace/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11
MIN_ROUNDS = 4
TRACE_PASSES = 3
CLI_PROBES = 5
CPUS = frozenset(os.sched_getaffinity(0))
MODULES = ("core", "intervals", "mca", "chordal_power", "harness", "cli")

# Per-layer rate metrics: one per input set, measured untraced.
RATE_METRICS = (
    "t3_trials_per_s", "t4_trials_per_s", "t5_trials_per_s", "kchordal_trials_per_s",
    "t5_parallel_trials_per_s", "mca_random_per_s", "mca_staircase_per_s",
    "nocycle_verdicts_per_s", "cycle_verdicts_per_s", "cli_call_ms",
)


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name == "peak_rss_mb":
        return "MB"
    return "count"


def loaded_bipower() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "bipower" or n.startswith("bipower.")}


def import_bipower() -> SimpleNamespace:
    """Import the package afresh, so that each set-up pays the import."""
    for name in loaded_bipower():
        del sys.modules[name]
    importlib.import_module("bipower")
    return SimpleNamespace(**{m: importlib.import_module(f"bipower.{m}") for m in MODULES})


@dataclasses.dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    checked: int = 0
    wrong: list[str] = dataclasses.field(default_factory=list)
    faults: dict[str, str] = dataclasses.field(default_factory=dict)


def run_pass(ops, cpu: int | None = None) -> tuple[list[float], dict, dict]:
    """Call every operation once, in order; per-operation seconds, outputs
    and the errors of the calls that raised.  With ``cpu`` the process is
    pinned to that CPU, except around operations that start a worker pool."""
    clock = time.perf_counter
    times, outs, errors = [], {}, {}
    everywhere = os.sched_getaffinity(0)
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    for op in ops:
        if op.pool:
            os.sched_setaffinity(0, CPUS)
        start = clock()
        try:
            outs[op.name] = op.call()
        except Exception as exc:  # counted failed, never fatal to the run
            errors[op.name] = f"{type(exc).__name__}: {exc}"
        times.append(clock() - start)
        if op.pool and cpu is not None:
            os.sched_setaffinity(0, {cpu})
    os.sched_setaffinity(0, everywhere)
    return times, outs, errors


def check_pass(ops, outs: dict, errors: dict, tally: Tally, count: bool) -> None:
    for op in ops:
        if op.name in errors:
            reason = errors[op.name]
        else:
            try:
                reason = op.check(outs[op.name], outs)
            except Exception as exc:  # a malformed output
                reason = f"unreadable output: {type(exc).__name__}: {exc}"
        tally.checked += 1
        if reason is not None and op.known_fault:
            tally.faults[op.name] = reason
        elif reason is not None:
            tally.wrong.append(f"{op.name}: {reason}")
        if count:
            tally.attempted += op.count
            if reason is not None and (op.known_fault or op.name in errors):
                tally.failed += op.count


def fast_times(rounds: list[list[float]]) -> list[float]:
    """Each operation's fastest time over the rounds.  Co-tenants slow a
    shared machine like the reference one (see README) by about half, in
    phases of seconds that can fill most of a run, so that a median or mean
    flips between the two speeds from run to run; the minimum over rounds
    stays with the uncontended speed whenever the run saw it at all."""
    return [min(column) for column in zip(*rounds)]


def set_rates(ops, fast: list[float], rates: dict[str, str]) -> dict[str, float]:
    """Per input set: operations per second of the operations' fast times,
    or for a ``_ms`` metric the median fast time of one operation."""
    out = {}
    for kind, metric in rates.items():
        index = [p for p, op in enumerate(ops) if op.set == kind]
        if metric.endswith("_ms"):
            out[metric] = statistics.median(fast[p] for p in index) * 1e3
        else:
            out[metric] = sum(ops[p].count for p in index) / sum(fast[p] for p in index)
    return out


def cli_probe_ms(work: Path, code: str) -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(CLI_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=work, env=env, check=True, timeout=60)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e3


def measure(args, work: Path) -> tuple[dict, Tally, list[str]]:
    from workloads import WORKLOADS
    import spans

    build = WORKLOADS[args.workload]
    setups = []

    def setup():
        start = time.perf_counter()
        mods = import_bipower()
        rnd = build(mods, args.seed, work)
        setups.append(time.perf_counter() - start)
        return rnd

    rnd = setup()
    tally = Tally()
    rounds = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or len(setups) < SETUP_REPEATS or time.perf_counter() - start < args.seconds:
        # Rounds take turns on the CPUs: a co-tenant often slows one CPU
        # while the other runs at full speed.
        times, outs, errors = run_pass(rnd.ops, sorted(CPUS)[len(rounds) % len(CPUS)])
        check_pass(rnd.ops, outs, errors, tally, count=True)
        rounds.append(times)
        if len(setups) < SETUP_REPEATS:
            # Set-ups are spread over the first rounds, so that their median
            # samples more than one phase of a co-tenant's load.  The rounds
            # keep the first import, which worker pools and the tracer find.
            in_use = loaded_bipower()
            setup()
            for name in loaded_bipower():
                del sys.modules[name]
            sys.modules.update(in_use)
    round_s = [sum(times) for times in rounds]
    fast = fast_times(rounds)
    notes = rnd.notes + [f"rounds: {len(rounds)}, {min(round_s):.3f} to {max(round_s):.3f} s each, "
                         f"median {statistics.median(round_s):.3f} s; set-up {min(setups):.3f} to "
                         f"{max(setups):.3f} s"]

    if not args.trace:
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        ops = sum(op.count for op in rnd.ops)
        metrics = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss_kb / 1024,
            "ops_per_s": ops / sum(fast),
        }
        return metrics, tally, notes

    metrics = dict.fromkeys(RATE_METRICS, 0.0)
    metrics.update(set_rates(rnd.ops, fast, rnd.rates))
    # Alternate untraced and traced passes; the fastest of each gives the
    # overhead, and the fastest traced pass gives the layer figures.
    untraced, traced = [], []
    for _ in range(TRACE_PASSES):
        times, outs, errors = run_pass(rnd.traced)
        check_pass(rnd.traced, outs, errors, tally, count=False)
        untraced.append(sum(times))
        candidate = spans.Tracer()
        candidate.install()
        try:
            times, outs, errors = run_pass(rnd.traced)
        finally:
            candidate.uninstall()
        check_pass(rnd.traced, outs, errors, tally, count=False)
        if not traced or sum(times) < min(traced):
            tracer = candidate
        traced.append(sum(times))
    metrics.update(tracer.metrics())
    cli_used = args.workload == "cli-verbs"
    metrics["cli.interpreter_ms"] = cli_probe_ms(work, "pass") if cli_used else 0.0
    metrics["cli.import_ms"] = cli_probe_ms(work, "import bipower.cli") if cli_used else 0.0
    metrics["trace.overhead_s"] = min(traced) - min(untraced)
    out_dir = ROOT / ".bench_trace"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"{args.workload}-seed{args.seed}.tsv")
    return metrics, tally, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=["fuzz-gate", "arrangement-search", "chordal-decision", "cli-verbs"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (SRC / "bipower" / "__init__.py").is_file():
        print(f"bench: no bipower package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    os.environ["TMPDIR"] = str(work)  # keep the program's and its children's files in the checkout
    try:
        metrics, tally, notes = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for note in notes:
        print(note)
    print(f"checks: {tally.checked} outputs checked, {len(tally.wrong)} wrong, "
          f"{len(tally.faults)} known-fault operations failing")
    for name, reason in sorted(tally.faults.items()):
        print(f"  known fault {name}: {reason}")
    for line in tally.wrong[:20]:
        print(f"  WRONG {line}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} = {value} {unit_of(name)}")
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
