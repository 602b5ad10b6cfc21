"""The four workloads.  Each workload function takes the imported bipower
modules, the workload seed and a working directory, generates every input, and
returns a ``Round``: the operations one closed-loop round performs, each with
the reference check its output must pass.

Operations call bipower through module attributes (``mods.mca.find_mca``), so
the tracer's rebinding reaches them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import inputs
import reference as ref

# Campaigns per theorem per round, at the acceptance gate's bounds: five
# small campaigns rather than one large one, so that each timed operation is
# short enough to be sampled many times in a run.  The parallel campaign is
# one of all the trials, as a pool is started per campaign.
FUZZ_CAMPAIGNS = 5
FUZZ_TRIALS = 100
FUZZ_SUITES = {
    "t3": ("T3", dict(max_x=7, max_y=7, span=12)),
    "t4": ("T4", dict(max_x=8, max_y=8)),
    "t5": ("T5", dict(max_x=7, max_y=7, k_set=(1, 3, 5))),
    "kchordal": ("KCHORDAL", dict(max_x=7, max_y=7, k_chordal_k=6)),
}

# arrangement-search: matrices of the oracle criterion's distribution, and
# shuffled staircases cycling through sizes 6..12 (the search's cap).  Every
# REPEAT_EVERY-th staircase has one row run repeated (the heavy tail).
MCA_RANDOM = 4000
MCA_STAIRCASES = 560
STAIRCASE_SIZES = range(6, 13)
REPEAT_EVERY = 4

# chordal-decision: (family, side size n, power k, graphs per round).  Every
# graph has n + n vertices; n = 32 is the cycle search's 64-vertex cap.  The
# planted-cycle set uses the same specifications with a cycle inside.
CHORDAL_SPECS = (
    ("interval", 32, 5, 2),
    ("interval", 24, 5, 4),
    ("interval", 16, 1, 4),
    ("interval", 16, 3, 8),
    ("band", 24, 5, 4),
    ("band", 16, 5, 4),
    ("band", 16, 3, 4),
)
CYCLE_LENGTHS = (6, 8, 10, 12)

# cli-verbs: the campaign the fuzz verb runs.
CLI_FUZZ_TRIALS = 300


@dataclass
class Op:
    """One call into bipower.  ``count`` is the number of operations it
    attempts (a campaign attempts one per trial); ``check`` returns None for
    a right output and the reason otherwise.  A ``known_fault`` operation
    fails today because of a named defect and is counted failed, not wrong."""

    name: str
    set: str
    count: int
    call: Callable[[], object]
    check: Callable[[object, dict], str | None]
    known_fault: bool = False
    pool: bool = False  # starts a worker pool, so it runs on every CPU


@dataclass
class Round:
    ops: list[Op]
    traced: list[Op]  # run in-process under the tracer
    rates: dict[str, str]  # input set -> per-layer metric reporting its rate
    notes: list[str] = field(default_factory=list)


# --- fuzz-gate -------------------------------------------------------------


def _edges_from_graph_json(text: str):
    obj = json.loads(text)
    xi = {s: i for i, s in enumerate(obj["x"])}
    yi = {s: j for j, s in enumerate(obj["y"])}
    return len(xi), len(yi), [(xi[a], yi[b]) for a, b in obj["edges"]]


def _check_kchordal_record(rec: dict) -> str | None:
    """A k-chordal record claims the k-power has no chordless cycle longer
    than K while the (k+2)-power has one; recheck both by subset search."""
    nx, ny, edges = _edges_from_graph_json(rec["graph"])
    k, kc = rec["k"], rec["k_chordal_k"]
    limit = kc - kc % 2

    def longest(power: int) -> int:
        return max(ref.induced_cycle_lengths(nx, ny, ref.bfs_power(nx, ny, edges, power)), default=0)

    if longest(k) > limit or longest(k + 2) <= limit:
        return f"k-chordal record at trial {rec['trial']} does not recheck"
    return None


def fuzz_gate(mods, seed: int, work: Path) -> Round:
    h = mods.harness
    rng = random.Random(seed)
    nproc = len(os.sched_getaffinity(0))
    campaigns = {
        f"{name}#{t}": (name, h.Campaign(getattr(h.Theorem, theorem), FUZZ_TRIALS, rng.getrandbits(32),
                                         h.Bounds(**bounds)))
        for name, (theorem, bounds) in FUZZ_SUITES.items()
        for t in range(FUZZ_CAMPAIGNS)
    }
    parallel = dataclasses.replace(campaigns["t5#0"][1], trials=FUZZ_CAMPAIGNS * FUZZ_TRIALS, parallelism=nproc)
    campaigns["t5_parallel"] = ("t5_parallel", parallel)
    serial_twin: list[str] = []

    def fuzz(campaign):
        def call():
            report = mods.harness.run_campaign(campaign)
            return report, mods.harness.report_json(report)
        return call

    def check(kind: str, campaign):
        def run(out, outs):
            report, text = out
            obj = json.loads(text)
            if report.executed + report.skipped != campaign.trials:
                return f"executed + skipped = {report.executed + report.skipped}, not {campaign.trials}"
            if (obj["executed"], obj["skipped"]) != (report.executed, report.skipped):
                return "report JSON disagrees with the report"
            if kind == "kchordal":
                for rec in report.counterexamples:
                    reason = _check_kchordal_record(rec)
                    if reason:
                        return reason
            elif report.counterexamples:
                return f"{len(report.counterexamples)} counterexamples to a theorem"
            if kind == "t5_parallel":
                if not serial_twin:  # the same campaign run serially, once, untimed
                    serial = dataclasses.replace(campaign, parallelism=1)
                    serial_twin.append(mods.harness.report_json(mods.harness.run_campaign(serial), False))
                if mods.harness.report_json(report, False) != serial_twin[0]:
                    return "parallel report differs from the serial one"
            return None
        return run

    ops = [Op(name, kind, c.trials, fuzz(c), check(kind, c), pool=c.parallelism > 1)
           for name, (kind, c) in campaigns.items()]
    return Round(
        ops=ops,
        traced=[op for op in ops if op.set != "t5_parallel"],
        rates={kind: f"{kind}_trials_per_s" for kind in [*FUZZ_SUITES, "t5_parallel"]},
        notes=[f"fuzz-gate: {FUZZ_CAMPAIGNS} campaigns of {FUZZ_TRIALS} trials each of t3, t4, t5 and "
               f"kchordal serially, and one of {FUZZ_CAMPAIGNS * FUZZ_TRIALS} t5 trials at parallelism "
               f"{nproc}; campaign seeds drawn from the workload seed"],
    )


# --- arrangement-search ------------------------------------------------------


def arrangement_search(mods, seed: int, work: Path) -> Round:
    rng = random.Random(seed)
    random_set = [inputs.nonzero_matrix(rng, 5, 5) for _ in range(MCA_RANDOM)]
    sizes = list(STAIRCASE_SIZES)
    staircases = []
    for t in range(MCA_STAIRCASES):
        n = sizes[t % len(sizes)]
        copies = 2 if t % REPEAT_EVERY == REPEAT_EVERY - 1 else 1
        staircases.append(inputs.shuffled_staircase(rng, n, n, copies))
    oracle: dict[str, bool] = {}

    def op(name: str, kind: str, entries):
        mat = mods.mca.ArrangedMatrix(entries, tuple(range(len(entries))), tuple(range(len(entries[0]))))

        def check(out, outs):
            if out is None:
                if kind == "staircase":
                    return "no arrangement found for a staircase"
                if name not in oracle:
                    oracle[name] = ref.mca_exists_by_columns(entries)
                return "no arrangement found, but one exists" if oracle[name] else None
            found, _cert = out
            if found.entries != entries:
                return "arrangement of a different matrix"
            if not ref.is_monotone_consecutive(ref.display(entries, found.row_perm, found.col_perm)):
                return "returned arrangement is not monotone consecutive"
            return None

        return Op(name, kind, 1, lambda: mods.mca.find_mca(mat), check)

    ops = [op(f"random{t}", "random", e) for t, e in enumerate(random_set)]
    ops += [op(f"staircase{t}", "staircase", e) for t, e in enumerate(staircases)]
    repeated = sum(1 for e in staircases if len(set(e)) < len(e))
    return Round(
        ops=ops,
        traced=ops,
        rates={"random": "mca_random_per_s", "staircase": "mca_staircase_per_s"},
        notes=[f"arrangement-search: {MCA_RANDOM} random nonzero matrices up to 5x5; {MCA_STAIRCASES} "
               f"shuffled staircases of sizes 6..12, {repeated} ({repeated / MCA_STAIRCASES:.0%}) "
               f"with one row repeated"],
    )


# --- chordal-decision ----------------------------------------------------------


def _chordal_base(rng: random.Random, family: str, n: int):
    if family == "interval":
        return inputs.interval_bigraph(rng, n, n, 2 * n, n // 2)[2]
    return inputs.band_bigraph(rng, n, 10)


def chordal_decision(mods, seed: int, work: Path) -> Round:
    rng = random.Random(seed)
    ops = []

    def op(name: str, kind: str, nx: int, ny: int, edges):
        g = mods.core.build_graph(nx, ny, sorted(edges))

        def check(out, outs):
            chordal, cert = out
            if kind == "nocycle":
                return None if chordal and cert is None else "power of a chordal bigraph judged not chordal"
            if chordal or cert is None:
                return "planted chordless cycle not found"
            cycle = [(v.side.value, v.index) for v in cert.vertices]
            return None if ref.is_chordless_cycle(nx, ny, edges, cycle) else "witness is not a chordless cycle"

        def call():
            # A fresh graph object, so that no round reuses the adjacency the last one cached.
            return mods.chordal_power.is_chordal_bipartite(dataclasses.replace(g))

        ops.append(Op(name, kind, 1, call, check))

    near_cap = total = 0
    for family, n, k, count in CHORDAL_SPECS:
        for t in range(count):
            power = ref.bfs_power(n, n, _chordal_base(rng, family, n), k)
            op(f"{family}{n}k{k}#{t}", "nocycle", n, n, power)
            length = rng.choice(CYCLE_LENGTHS)
            half = length // 2
            base = ref.bfs_power(n - half, n - half, _chordal_base(rng, family, n - half), k)
            op(f"{family}{n}k{k}#{t}+C{length}", "cycle", *inputs.plant_cycle(rng, n - half, n - half, base, length))
            total += 1
            near_cap += n == 32
    return Round(
        ops=ops,
        traced=ops,
        rates={"nocycle": "nocycle_verdicts_per_s", "cycle": "cycle_verdicts_per_s"},
        notes=[f"chordal-decision: {total} odd powers (k in 1, 3, 5) of interval and staircase bigraphs of "
               f"16+16 to 32+32 vertices, {near_cap} ({near_cap / total:.0%}) at the 64-vertex cap, and as "
               f"many of the same sizes with a planted chordless cycle of length 6..12"],
    )


# --- cli-verbs -------------------------------------------------------------------


def _graph_json(nx: int, ny: int, edges) -> str:
    obj = {
        "x": [f"x{i + 1}" for i in range(nx)],
        "y": [f"y{j + 1}" for j in range(ny)],
        "edges": [[f"x{i + 1}", f"y{j + 1}"] for i, j in sorted(edges)],
    }
    return json.dumps(obj) + "\n"


def _matrix_text(rows) -> str:
    return f"{len(rows)} {len(rows[0])}\n" + "".join("".join(map(str, r)) + "\n" for r in rows)


def _parse_matrix(text: str):
    lines = text.split()
    n, m = int(lines[0]), int(lines[1])
    return tuple(tuple(int(ch) for ch in row) for row in lines[2 : 2 + n]), m


def _vertex(label: str):
    return ("X" if label[0] == "x" else "Y", int(label[1:]) - 1)


def _subdivided_cycle(segments):
    """Cycle of sum(segments) vertices, vertex t on X (t even) or Y (t odd)
    with index t // 2, and the segment endpoints as corner labels."""
    total = sum(segments)
    edges = []
    for t in range(total):
        u, v = t, (t + 1) % total
        if u % 2:
            u, v = v, u
        edges.append((u // 2, v // 2))
    corners, pos = [], 0
    for s in segments:
        corners.append(("x" if pos % 2 == 0 else "y") + str(pos // 2 + 1))
        pos += s
    return total // 2, edges, corners


def _connected(nx: int, ny: int, edges) -> bool:
    return all(ref.distance(nx, ny, edges, 0, v) is not None for v in range(nx + ny))


def _one_line_error(out, outs) -> str | None:
    code, _stdout, stderr = out
    lines = stderr.strip().splitlines()
    if code == 2 and len(lines) == 1 and "Traceback" not in stderr:
        return None
    return f"exit {code} and {len(lines)} stderr lines ({lines[-1] if lines else ''}), not exit 2 and one line"


def cli_verbs(mods, seed: int, work: Path) -> Round:
    rng = random.Random(seed)

    def write(name: str, text: str) -> str:
        (work / name).write_text(text, encoding="utf-8")
        return str(work / name)

    while True:
        xs, ys, g_edges = inputs.interval_bigraph(rng, 6, 6, 12, 4)
        if _connected(6, 6, g_edges):
            break
    graph = write("graph.json", _graph_json(6, 6, g_edges))
    rep = write("rep.tsv", "".join(f"X\tx{i + 1}\t{a}\t{b}\n" for i, (a, b) in enumerate(xs))
                + "".join(f"Y\ty{j + 1}\t{a}\t{b}\n" for j, (a, b) in enumerate(ys)))
    cyc_nx, cyc_ny, cyc_edges = inputs.plant_cycle(rng, 4, 4, inputs.interval_bigraph(rng, 4, 4, 8, 3)[2], 8)
    cyc = write("cycle-graph.json", _graph_json(cyc_nx, cyc_ny, cyc_edges))
    stair_runs = inputs.staircase_runs(rng, 8, 8)
    stair_rows = tuple(tuple(1 if a <= j <= b else 0 for j in range(8)) for a, b in stair_runs)
    stair = write("staircase.mat", _matrix_text(stair_rows))
    shuffled_rows = inputs.shuffled_staircase(rng, 9, 9, 1)
    shuffled = write("shuffled.mat", _matrix_text(shuffled_rows))
    segments = rng.choice(([3] * 6, [5, 3] * 3, [3] * 8, [5] * 6))
    lift_k = max(segments) - 2
    ring_n, ring_edges, corners = _subdivided_cycle(segments)
    ring = write("ring.json", _graph_json(ring_n, ring_n, ring_edges))
    corners_file = write("corners.json", json.dumps({"k": max(segments), "cycle": corners}) + "\n")
    campaign = write("campaign.json", json.dumps({
        "theorem": "t5", "trials": CLI_FUZZ_TRIALS, "seed": rng.getrandbits(32),
        "bounds": {"max_x": 6, "max_y": 6, "k_set": [1, 3]}}) + "\n")
    gen_seed = str(rng.getrandbits(32))
    # Inputs of the known-fault calls do not depend on the seed.
    fixed_ring_n, fixed_ring_edges, fixed_corners = _subdivided_cycle([3] * 6)
    fixed_ring = write("fixed-ring.json", _graph_json(fixed_ring_n, fixed_ring_n, fixed_ring_edges))
    bad_k = write("bad-k.json", json.dumps({"k": "a", "cycle": fixed_corners}) + "\n")
    bad_trailer = write("bad-trailer.mat", "2 2\n11\n11\nrows: x y\n")
    missing_out = str(work / "missing" / "out.json")

    power3 = ref.bfs_power(6, 6, g_edges, 3)

    def graph_payload_is(expected, nx, ny):
        def check(out, outs):
            code, stdout, _ = out
            if code != 0:
                return f"exit {code}"
            got_nx, got_ny, got = _edges_from_graph_json(stdout)
            return None if (got_nx, got_ny, set(got)) == (nx, ny, set(expected)) else "power differs from BFS power"
        return check

    def verdict_is(expected: dict):
        def check(out, outs):
            code, stdout, _ = out
            return None if code == 0 and json.loads(stdout) == expected else f"exit {code}, payload {stdout!r}"
        return check

    def cycle_payload(nx, ny, edges, min_length):
        def check(out, outs):
            code, stdout, _ = out
            if code != 1:
                return f"exit {code}, expected 1 with a cycle"
            cycle = [_vertex(label) for label in json.loads(stdout)["cycle"]]
            return None if ref.is_chordless_cycle(nx, ny, edges, cycle, min_length) else "cycle is not chordless"
        return check

    def power_intervals(out, outs):
        code, stdout, _ = out
        if code != 0:
            return f"exit {code}"
        got = {"X": [], "Y": []}
        for line in stdout.splitlines():
            side, _label, left, right = line.split("\t")
            got[side].append((int(left), int(right)))
        return None if ref.interval_edges(got["X"], got["Y"]) == power3 else "intervals do not realise the power"

    def verify_intervals(out, outs):
        if ref.interval_edges(xs, ys) != frozenset(g_edges):
            return "fixture intervals do not realise the graph"
        return verdict_is({"valid": True})(out, outs)

    def mca_verify(out, outs):
        code, stdout, _ = out
        if code != 0:
            return f"exit {code}"
        cert = json.loads(stdout)
        runs = ref.row_runs(stair_rows)
        return None if list(zip(cert["a"], cert["b"])) == [(a + 1, b + 1) for a, b in runs] else "row runs differ"

    def mca_find(out, outs):
        code, stdout, _ = out
        if code != 0:
            return f"exit {code}"
        obj = json.loads(stdout)
        shown = ref.display(shuffled_rows, obj["rows"], obj["cols"])
        return None if ref.is_monotone_consecutive(shown) else "found arrangement is not monotone consecutive"

    def mca_power(out, outs):
        code, stdout, _ = out
        if code != 0:
            return f"exit {code}"
        rows, m = _parse_matrix(stdout)
        stair_edges = [(i, j) for i, r in enumerate(stair_rows) for j, v in enumerate(r) if v]
        want = ref.bfs_power(8, 8, stair_edges, 3)
        got = {(i, j) for i, r in enumerate(rows) for j, v in enumerate(r) if v}
        if got != want:
            return "powered matrix differs from the BFS power"
        return None if ref.is_monotone_consecutive(rows) else "powered matrix lost its arrangement"

    def classify(out, outs):
        code, stdout, _ = out
        if code != 0:
            return f"exit {code}"
        obj = json.loads(stdout)
        classes = []
        for edge in obj["edges"]:
            (su, iu), (sv, iv) = _vertex(edge["u"]), _vertex(edge["v"])
            gu = iu if su == "X" else ring_n + iu
            gv = iv if sv == "X" else ring_n + iv
            d = ref.distance(ring_n, ring_n, ring_edges, gu, gv)
            if edge["distance"] != d:
                return f"distance {edge['distance']} for {edge['u']}-{edge['v']}, BFS says {d}"
            classes.append("high" if d == lift_k + 2 else "mid" if d == lift_k else "low")
        if [e["class"] for e in obj["edges"]] != classes:
            return "edge classes differ"
        return None if [obj["k1"], obj["k2"], obj["k3"]] == [classes.count(c) for c in ("high", "mid", "low")] \
            else "class counts differ"

    def lift(out, outs):
        code, stdout, _ = out
        if code != 0:
            return f"exit {code}"
        cycle = [_vertex(label) for label in json.loads(stdout)["cycle"]]
        host = ref.bfs_power(ring_n, ring_n, ring_edges, lift_k)
        return None if ref.is_chordless_cycle(ring_n, ring_n, host, cycle) else "lifted cycle is not chordless"

    def fuzz(out, outs):
        code, stdout, _ = out
        if code != 0:
            return f"exit {code}"
        obj = json.loads(stdout)
        ok = obj["executed"] + obj["skipped"] == CLI_FUZZ_TRIALS and obj["counterexamples"] == []
        return None if ok else "campaign report is wrong"

    def gen(out, outs):
        code, stdout, _ = out
        if code != 0:
            return f"exit {code}"
        rows, _m = _parse_matrix(stdout)
        return None if ref.is_monotone_consecutive(rows) else "generated staircase is not monotone consecutive"

    calls = [
        ("power", ["power", "-k", "3", graph], graph_payload_is(power3, 6, 6)),
        ("power-even-k", ["power", "-k", "2", graph], _one_line_error),
        ("check-chordal", ["check-chordal", graph], verdict_is({"chordal_bipartite": True})),
        ("check-chordal-cycle", ["check-chordal", cyc], cycle_payload(cyc_nx, cyc_ny, cyc_edges, 6)),
        ("check-kchordal", ["check-kchordal", "--kchordal-k", "6", cyc],
         cycle_payload(cyc_nx, cyc_ny, cyc_edges, 8)),
        ("verify-intervals", ["verify-intervals", graph, rep], verify_intervals),
        ("power-intervals", ["power-intervals", "-k", "3", graph, rep], power_intervals),
        ("mca-verify", ["mca-verify", stair], mca_verify),
        ("mca-find", ["mca-find", shuffled], mca_find),
        ("mca-power", ["mca-power", "-k", "3", stair], mca_power),
        ("classify-cycle", ["classify-cycle", "-k", str(lift_k), ring, corners_file], classify),
        ("lift-cycle", ["lift-cycle", "-k", str(lift_k), ring, corners_file], lift),
        ("fuzz", ["fuzz", campaign], fuzz),
        ("gen", ["gen", "--theorem", "t4", "--seed", gen_seed, "--max-x", "8", "--max-y", "8"], gen),
    ]
    faults = [
        ("fault-matrix-trailer", ["mca-verify", bad_trailer]),
        ("fault-output-dir", ["power", "-k", "3", fixed_ring, "--output", missing_out]),
        ("fault-cycle-k", ["lift-cycle", "-k", "1", fixed_ring, bad_k]),
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(mods.core.__file__).parents[1]))

    def subprocess_call(argv):
        def call():
            proc = subprocess.run([sys.executable, "-m", "bipower.cli", *argv], cwd=work, env=env,
                                  capture_output=True, text=True, timeout=120)
            return proc.returncode, proc.stdout, proc.stderr
        return call

    def in_process_call(argv):
        def call():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = mods.cli.dispatch(argv)
                except Exception as exc:  # uncaught, so the CLI process would exit 1 with a traceback
                    print(f"uncaught {type(exc).__name__}: {exc}", file=sys.stderr)
                    code = 1
            return code, stdout.getvalue(), stderr.getvalue()
        return call

    def ops_for(make_call) -> list[Op]:
        out = [Op(name, "cli", 1, make_call(argv), check) for name, argv, check in calls]
        out += [Op(name, "cli", 1, make_call(argv), _one_line_error, known_fault=True) for name, argv in faults]
        return out

    return Round(
        ops=ops_for(subprocess_call),
        traced=ops_for(in_process_call),
        rates={"cli": "cli_call_ms"},
        notes=[f"cli-verbs: {len(calls) + len(faults)} cold `python -m bipower.cli` calls per round covering "
               f"every verb, {len(faults)} of them on the known-fault inputs (expected: exit 2, one stderr line)"],
    )


WORKLOADS = {
    "fuzz-gate": fuzz_gate,
    "arrangement-search": arrangement_search,
    "chordal-decision": chordal_decision,
    "cli-verbs": cli_verbs,
}
