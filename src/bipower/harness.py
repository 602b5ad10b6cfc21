"""Deterministic generators, exhaustive small-instance enumeration, and
seeded fuzz campaigns hunting for counterexamples to the closure properties.

Every trial derives its own random stream from (campaign seed, trial index),
so trials are independent and a campaign's report is a pure function of the
campaign, whatever the parallelism.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from functools import partial
from operator import itemgetter
from typing import Callable, Iterator, Sequence

try:
    # hashlib loads OpenSSL at import; the built-in blake2b is the same function.
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b

from .chordal_power import _check_k_chordal_closure, _check_strong_closure
from .core import (
    BipartiteGraph,
    CycleCertificate,
    Side,
    VertexId,
    _graph_from_rows,
    _randint,
    _read_json,
    bipartite_power,
    build_graph,
    is_connected,
)
from .errors import CapacityError, InputError, TheoremCounterexample
from .intervals import _check_power_representation, intervals_to_graph, random_interval_representation
from .mca import ArrangedMatrix, _arrangement_holds, _check_matrix_power, identity_arrangement, matrix_to_graph

ENUMERATION_CAP = 16  # max nx * ny for exhaustive edge-subset streaming
MAX_PARALLELISM = 256  # most worker processes one campaign may ask for


def gen_random_bipartite(seed: int, nx: int, ny: int, edge_probability: float) -> BipartiteGraph:
    """Independent per-pair coin flips, deterministic for a fixed seed:
    pair (i, j) is flipped i-major, j-minor, and row i's flips make its bitset."""
    if not 0.0 <= edge_probability <= 1.0:
        raise InputError(f"edge probability must lie in [0, 1], got {edge_probability}")
    if nx < 0 or ny < 0:
        raise InputError("side sizes must be non-negative")
    flip = random.Random(seed).random
    rows = []
    for _ in range(nx):
        row = 0
        for j in range(ny):
            if flip() < edge_probability:
                row |= 1 << j
        rows.append(row)
    return _graph_from_rows(rows, ny)


def gen_staircase_matrix(seed: int, n: int, m: int) -> ArrangedMatrix:
    """Random matrix that is monotone consecutive by construction.

    Row runs [a_i, b_i] are drawn as a non-decreasing random walk with
    a_1 = 1, a_{i+1} <= b_i + 1 and b_n = m, which leaves no zero column.
    """
    if n < 1 or m < 1:
        raise InputError("staircase matrices need n, m >= 1")
    bits = random.Random(seed).getrandbits
    a = [1]
    b = [_randint(bits, 1, m)]
    for _ in range(1, n):
        ai = _randint(bits, a[-1], min(b[-1] + 1, m))
        bi = _randint(bits, max(ai, b[-1]), m)
        a.append(ai)
        b.append(bi)
    b[-1] = m
    return identity_arrangement(
        tuple((0,) * (ai - 1) + (1,) * (bi - ai + 1) + (0,) * (m - bi) for ai, bi in zip(a, b))
    )


def gen_subdivided_cycle(segment_lengths: list[int] | tuple[int, ...]) -> tuple[BipartiteGraph, CycleCertificate]:
    """Cycle of total length sum(segment_lengths) with the segment endpoints
    marked as corners.

    An even number of odd segment lengths keeps corner sides alternating; the
    corner certificate claims the corner cycle in the power of the longest
    segment.
    """
    segments = tuple(segment_lengths)
    if len(segments) % 2 or len(segments) < 4:
        raise InputError("need an even number (>= 4) of segments")
    if any(s < 1 or s % 2 == 0 for s in segments):
        raise InputError("every segment length must be odd and >= 1")
    total = sum(segments)
    nx = ny = total // 2
    # Vertex t of the cycle: X index t//2 when t even, Y index t//2 when odd.
    edges = []
    for t in range(total):
        u, v = t, (t + 1) % total
        if u % 2:
            u, v = v, u
        edges.append((u // 2, v // 2))
    g = build_graph(nx, ny, edges)
    corners = []
    pos = 0
    for s in segments:
        side = Side.X if pos % 2 == 0 else Side.Y
        corners.append(VertexId(side, pos // 2))
        pos += s
    return g, CycleCertificate(tuple(corners), max(segments))


def enumerate_bipartite(nx: int, ny: int) -> Iterator[BipartiteGraph]:
    """Stream all 2^(nx*ny) edge subsets in binary-counter order (bit t is the
    pair (t // ny, t % ny)); no isomorphism reduction."""
    if nx < 0 or ny < 0:
        raise InputError("side sizes must be non-negative")
    if nx * ny > ENUMERATION_CAP:
        raise CapacityError(f"enumeration capped at nx*ny <= {ENUMERATION_CAP}, got {nx * ny}")
    # Row i is the ny mask bits from bit i * ny up.
    full = (1 << ny) - 1
    for mask in range(1 << (nx * ny)):
        yield _graph_from_rows([mask >> i * ny & full for i in range(nx)], ny)


class Theorem(str, Enum):
    """Which closure property a campaign attacks.

    t3: interval representations stay valid under odd powers.
    t4: monotone consecutive arrangements survive odd powers unchanged.
    t5: chordal-bipartite strong closure (power chordal => next power chordal).
    kchordal: the same implication for k-chordality at a configured k.
    """

    T3 = "t3"
    T4 = "t4"
    T5 = "t5"
    KCHORDAL = "kchordal"


@dataclass(frozen=True)
class Bounds:
    max_x: int = 6
    max_y: int = 6
    span: int = 12
    k_set: tuple[int, ...] = ()
    k_chordal_k: int = 4


# The integer bounds and the least value each may take, in checking order.
_BOUND_LEAST = (("max_x", 1), ("max_y", 1), ("span", 1), ("k_chordal_k", 4))


def _is_int(value: object) -> bool:
    """True for a Python int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class Campaign:
    theorem: Theorem
    trials: int = 1
    seed: int = 0
    bounds: Bounds = field(default_factory=Bounds)
    parallelism: int = 1

    def __post_init__(self) -> None:
        if not _is_int(self.trials) or self.trials < 1:
            raise InputError(f"campaign trials must be an integer >= 1, got {self.trials!r}")
        if not _is_int(self.seed):
            raise InputError(f"campaign seed must be an integer, got {self.seed!r}")
        if not _is_int(self.parallelism) or not 1 <= self.parallelism <= MAX_PARALLELISM:
            raise InputError(
                f"campaign parallelism must be an integer from 1 to {MAX_PARALLELISM}, got {self.parallelism!r}"
            )
        if any(not _is_int(k) or k < 1 or k % 2 == 0 for k in self.bounds.k_set):
            raise InputError(f"k_set may contain only odd naturals, got {list(self.bounds.k_set)!r}")
        repeated = [k for t, k in enumerate(self.bounds.k_set) if k in self.bounds.k_set[:t]]
        if repeated:
            raise InputError(f"k_set may contain each k once, but repeats {repeated[0]}")
        for name, least in _BOUND_LEAST:
            value = getattr(self.bounds, name)
            if not _is_int(value) or value < least:
                raise InputError(f"campaign bound {name} must be an integer >= {least}, got {value!r}")

    def k_set(self) -> tuple[int, ...]:
        return self.bounds.k_set or _TRIALS[self.theorem][1]


@dataclass(frozen=True)
class FuzzReport:
    campaign: Campaign
    executed: int
    skipped: int
    counterexamples: tuple[dict, ...]
    wall_time: float


def trial_seed(seed: int, index: int) -> int:
    h = blake2b(f"{seed}|{index}".encode(), digest_size=8)
    return int.from_bytes(h.digest(), "big")


@dataclass(frozen=True)
class TrialOutcome:
    skipped: bool
    records: tuple[dict, ...]


def _draw_t3(campaign: Campaign, rng: random.Random) -> tuple[Callable[[int], object], Sequence[int]] | None:
    b, bits = campaign.bounds, rng.getrandbits
    nx, ny = _randint(bits, 1, b.max_x), _randint(bits, 1, b.max_y)
    span = _randint(bits, 1, b.span)
    rep = random_interval_representation(rng.getrandbits(63), nx, ny, span)
    g = intervals_to_graph(rep)
    if not is_connected(g):
        return None
    # The powers stop changing at the largest cross-side distance D, and the
    # diameter is D or D + 1, so odd k <= diameter + 2 is odd k <= D + 2.
    top = 3
    while bipartite_power(g, top - 2) is not bipartite_power(g, top):
        top += 2
    ks = [k for k in campaign.k_set() or range(1, top + 1, 2) if k <= top]
    return partial(_check_power_representation, g, rep), ks


def _draw_t4(campaign: Campaign, rng: random.Random) -> tuple[Callable[[int], object], Sequence[int]]:
    b, bits = campaign.bounds, rng.getrandbits
    n, m = _randint(bits, 1, b.max_x), _randint(bits, 1, b.max_y)
    mat = gen_staircase_matrix(rng.getrandbits(63), n, m)
    g = matrix_to_graph(mat)
    if not _arrangement_holds(g, mat):
        raise AssertionError("a generated staircase matrix is not monotone consecutive")
    return partial(_check_matrix_power, g, mat), campaign.k_set()


def _random_graph_for_trial(campaign: Campaign, rng: random.Random) -> BipartiteGraph:
    b, bits = campaign.bounds, rng.getrandbits
    nx, ny = _randint(bits, 1, b.max_x), _randint(bits, 1, b.max_y)
    return gen_random_bipartite(rng.getrandbits(63), nx, ny, rng.random())


def _draw_t5(campaign: Campaign, rng: random.Random) -> tuple[Callable[[int], object], Sequence[int]]:
    return partial(_check_strong_closure, _random_graph_for_trial(campaign, rng)), campaign.k_set()


def _draw_kchordal(campaign: Campaign, rng: random.Random) -> tuple[Callable[[int], object], Sequence[int]]:
    g = _random_graph_for_trial(campaign, rng)
    return partial(_check_k_chordal_closure, g, campaign.bounds.k_chordal_k), campaign.k_set()


# Each theorem's draw and the k_set it runs when the bounds give none.  A
# draw takes a trial's random stream and returns its claim's check bound to
# the instance drawn, with the ks to run it at, or None to skip the trial.
_TRIALS = {
    Theorem.T3: (_draw_t3, ()),  # derived per instance: all odd k up to diameter + 2
    Theorem.T4: (_draw_t4, (3, 5, 7)),
    Theorem.T5: (_draw_t5, (1, 3, 5)),
    Theorem.KCHORDAL: (_draw_kchordal, (1, 3, 5)),
}


def _trial(campaign: Campaign, index: int) -> TrialOutcome:
    """Draw trial ``index``'s instance and run its claim's check at each k;
    a refutation is recorded as the report the check raised, with the trial
    index in front."""
    drawn = _TRIALS[campaign.theorem][0](campaign, random.Random(trial_seed(campaign.seed, index)))
    if drawn is None:
        return TrialOutcome(True, ())
    check, ks = drawn
    records = []
    for k in ks:
        try:
            check(k)
        except TheoremCounterexample as exc:
            records.append({"trial": index, **exc.report})
    return TrialOutcome(False, tuple(records))


def _run_share(campaign: Campaign, first: int, step: int) -> tuple[int, list[dict]]:
    """Run trials ``first``, ``first + step``, ... of the campaign: how many
    were skipped, and the records of the rest in trial order."""
    skipped, records = 0, []
    for index in range(first, campaign.trials, step):
        outcome = _trial(campaign, index)
        skipped += outcome.skipped
        records += outcome.records
    return skipped, records


def _share_worker(campaign: Campaign, first: int, step: int, sender) -> None:
    """A worker process's whole job: run one share and send back, as one
    message, its result or the exception that stopped it."""
    try:
        result = _run_share(campaign, first, step)
    except Exception as exc:
        result = exc
    sender.send(result)


def run_campaign(campaign: Campaign) -> FuzzReport:
    """Execute every trial and merge outcomes by trial index.

    ``parallelism`` is the number of processes that run trials, the caller
    included.  With w = min(parallelism, trials), share s is trials s,
    s + w, s + 2w, ...; the caller runs share 0, and one worker process
    runs each other share and sends its result back once.  Each trial draws from
    its own seed, so the report is the same at any w.  An exception in a
    worker's share is raised here, a worker that dies is a RuntimeError, and
    no worker outlives the call.

    Counterexamples are data, not errors: each record embeds the serialized
    instance so a single CLI invocation can re-check it.
    """
    start = time.perf_counter()
    width = min(campaign.parallelism, campaign.trials)
    workers = []
    try:
        if width > 1:
            import multiprocessing  # only parallel campaigns pay its import

            for first in range(1, width):
                receiver, sender = multiprocessing.Pipe(duplex=False)
                worker = multiprocessing.Process(target=_share_worker, args=(campaign, first, width, sender))
                worker.start()
                sender.close()
                workers.append((worker, receiver))
        shares = [_run_share(campaign, 0, width)]
        for first, (worker, receiver) in enumerate(workers, 1):
            try:
                result = receiver.recv()
            except EOFError:
                worker.join()
                raise RuntimeError(
                    f"campaign worker {first} of {width - 1} died with exit code {worker.exitcode}"
                    " before sending its share"
                ) from None
            if isinstance(result, BaseException):
                raise result
            shares.append(result)
            worker.join()
    finally:
        for worker, receiver in workers:
            if worker.exitcode is None:
                worker.terminate()
            worker.join()
            receiver.close()
    skipped = sum(share[0] for share in shares)
    counterexamples = tuple(sorted((rec for share in shares for rec in share[1]), key=itemgetter("trial")))
    return FuzzReport(
        campaign,
        executed=campaign.trials - skipped,
        skipped=skipped,
        counterexamples=counterexamples,
        wall_time=time.perf_counter() - start,
    )


# --- campaign / report JSON --------------------------------------------------
#
# The campaign echo deliberately leaves parallelism out: it is an execution
# knob, not part of what was tested, and reports from different worker
# counts must stay byte-identical.


def campaign_echo(campaign: Campaign) -> dict:
    return {
        "theorem": campaign.theorem.value,
        "trials": campaign.trials,
        "seed": campaign.seed,
        "bounds": {**asdict(campaign.bounds), "k_set": list(campaign.k_set())},
    }


def report_json(report: FuzzReport, include_wall_time: bool = True) -> str:
    obj = {
        "campaign": campaign_echo(report.campaign),
        "executed": report.executed,
        "skipped": report.skipped,
        "counterexamples": list(report.counterexamples),
    }
    if include_wall_time:
        obj["wall_time"] = report.wall_time
    return json.dumps(obj, indent=2) + "\n"


def _refuse_unknown_keys(obj: dict, schema: type, where: str) -> None:
    """Refuse the first key of ``obj`` that names no field of ``schema``: a
    misspelt key would otherwise run the campaign at its default."""
    names = {f.name for f in fields(schema)}
    unknown = next((key for key in obj if key not in names), None)
    if unknown is not None:
        raise InputError(f"{where} has an unknown key {json.dumps(unknown)}")


def campaign_from_json(text: str) -> Campaign:
    """The campaign a JSON file describes: the fields of ``Campaign``, with
    ``bounds`` holding those of ``Bounds``; a key left out takes the
    field's default."""
    obj = _read_json(text, "campaign")
    if not isinstance(obj, dict):
        raise InputError("campaign JSON must be an object")
    _refuse_unknown_keys(obj, Campaign, "campaign JSON")
    raw_bounds = obj.get("bounds", {})
    if isinstance(raw_bounds, dict):
        _refuse_unknown_keys(raw_bounds, Bounds, 'campaign JSON "bounds"')
    try:
        theorem = Theorem(obj["theorem"])
    except (KeyError, ValueError):
        raise InputError("campaign JSON needs a theorem in {t3, t4, t5, kchordal}") from None
    if not isinstance(raw_bounds, dict):
        raise InputError('campaign JSON "bounds" must be an object')
    k_set = raw_bounds.get("k_set", [])
    if not isinstance(k_set, list):
        raise InputError('campaign JSON "k_set" must be an array')
    bounds = Bounds(**{**raw_bounds, "k_set": tuple(k_set)})
    return Campaign(**{**obj, "theorem": theorem, "bounds": bounds})
