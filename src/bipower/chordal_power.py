"""Chordal-bipartite and k-chordal recognition, and the strong-closure
machinery: classifying the edges of a chordless cycle found in a higher
power by their true distances, lifting such a cycle down two power levels,
and checking that chordality of a power propagates up.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .core import (
    BipartiteGraph,
    CycleCertificate,
    Side,
    VertexId,
    _bfs_layers,
    _read_json,
    _require_odd_k,
    bipartite_power,
    find_chordless_cycle,
    graph_to_json,
    verify_chordless,
)
from .errors import InputError, TheoremCounterexample


class ChordalityVerdict(NamedTuple):
    chordal: bool
    certificate: CycleCertificate | None


def is_chordal_bipartite(g: BipartiteGraph) -> ChordalityVerdict:
    """True iff every cycle longer than 4 has a chord; otherwise the verdict
    carries a chordless cycle of length >= 6 as the witness.

    This is ``find_chordless_cycle(g, 6)`` as a verdict: a Γ-free doubly
    lexical ordering decides "yes" in polynomial time (Lubiw, SIAM J.
    Comput. 16, 1987), and only a "no" is searched for its witness, once
    per graph.
    """
    cert = find_chordless_cycle(g, 6)
    return ChordalityVerdict(cert is None, cert)


def is_k_chordal(g: BipartiteGraph, k: int) -> ChordalityVerdict:
    """True iff the graph has no chordless cycle with more than k vertices;
    otherwise the verdict carries such a cycle as the witness.

    Accepts k >= 4.  Bipartite cycles are even, so odd k asks what k - 1
    asks: this is ``find_chordless_cycle`` at the least even length above k,
    and k = 4 is the chordal-bipartite test.
    """
    if k < 4:
        raise InputError(f"k-chordality needs k >= 4, got {k}")
    cert = find_chordless_cycle(g, k + 2 - k % 2)
    return ChordalityVerdict(cert is None, cert)


class EdgeClass(str, Enum):
    LOW = "low"    # distance at most k - 2
    MID = "mid"    # distance exactly k
    HIGH = "high"  # distance exactly k + 2


@dataclass(frozen=True)
class EdgePowerClass:
    distance: int
    cls: EdgeClass


@dataclass(frozen=True)
class CycleClassification:
    """Per-edge distance classes of a cycle living in the (k+2)-power, with
    one canonical shortest path in the base graph per mid/high edge."""

    k: int
    edges: tuple[EdgePowerClass, ...]
    k1: int  # high edges
    k2: int  # mid edges
    k3: int  # low edges
    witnesses: tuple[tuple[VertexId, ...] | None, ...]


def _canonical_shortest_path(g: BipartiteGraph, u: VertexId, v: VertexId) -> tuple[VertexId, ...]:
    """Lexicographically canonical shortest u-v path: walking back from v,
    each predecessor is the smallest-global-index neighbour one layer closer
    to u."""
    adj = g.global_adj
    su, sv = g.global_id(u), g.global_id(v)
    layers = list(_bfs_layers(g, su))
    d = next((d for d, layer in enumerate(layers) if layer >> sv & 1), None)
    if d is None:
        raise InputError("no path between the requested vertices")
    path = [sv]
    for layer in reversed(layers[:d]):
        closer = adj[path[-1]] & layer
        path.append((closer & -closer).bit_length() - 1)
    path.reverse()
    return tuple(g.vertex_of_global(w) for w in path)


def classify_cycle_edges(g: BipartiteGraph, k: int, cert: CycleCertificate) -> CycleClassification:
    """Classify each edge of a chordless cycle of the (k+2)-power by the exact
    distance of its endpoints in ``g``: the first power level that holds the
    edge."""
    _require_odd_k(k)
    power = bipartite_power(g, k + 2)
    if not verify_chordless(power, cert):
        raise InputError("certificate is not a chordless cycle of the (k+2)-power")
    levels = [g._level(d) for d in range(1, k + 3, 2)]
    verts = cert.vertices
    length = len(verts)
    edges = []
    witnesses: list[tuple[VertexId, ...] | None] = []
    counts = {EdgeClass.LOW: 0, EdgeClass.MID: 0, EdgeClass.HIGH: 0}
    for p in range(length):
        u, v = verts[p], verts[(p + 1) % length]
        x, y = (u, v) if u.side is Side.X else (v, u)
        d = next((2 * t + 1 for t, level in enumerate(levels) if level.has_edge(x.index, y.index)), None)
        if d is None:
            raise AssertionError(f"edge {p} of a chordless (k+2)-power cycle has base distance {d}")
        if d == k + 2:
            cls = EdgeClass.HIGH
        elif d == k:
            cls = EdgeClass.MID
        else:
            cls = EdgeClass.LOW
        counts[cls] += 1
        edges.append(EdgePowerClass(d, cls))
        witnesses.append(_canonical_shortest_path(g, u, v) if cls is not EdgeClass.LOW else None)
    return CycleClassification(
        k,
        tuple(edges),
        counts[EdgeClass.HIGH],
        counts[EdgeClass.MID],
        counts[EdgeClass.LOW],
        tuple(witnesses),
    )


class LiftMethod(str, Enum):
    CASE1 = "Case1Construction"
    CASE2 = "Case2Construction"
    FALLBACK = "FallbackSearch"


@dataclass(frozen=True)
class LiftResult:
    lifted: CycleCertificate
    method: LiftMethod
    predicted_length: int | None
    anomaly: bool = False


def lift_chordless_cycle(g: BipartiteGraph, k: int, cert: CycleCertificate) -> LiftResult:
    """Turn a chordless cycle of the (k+2)-power into one of the k-power.

    When no cycle edge is short (distance below k), the construction is
    direct: every distance-(k+2) edge is replaced by a three-edge detour
    through the last two interior vertices of its witness path (the detour's
    first hop has distance exactly k), and every distance-k edge is kept as
    a single k-power edge.  A cycle with 2n edges, m of them kept, comes out
    at length 2(3n - m).  The constructed walk is verified chordless rather
    than trusted; on any failure, and always when short edges are present,
    the lift falls back to searching the k-power directly.  A fallback that
    finds nothing is raised as a TheoremCounterexample.
    """
    n2 = len(cert.vertices)
    if n2 < 6:
        raise InputError(f"lift needs a cycle of length >= 6, got {n2}")
    classification = classify_cycle_edges(g, k, cert)
    if not _lift_applies(classification):
        raise InputError("k = 1 lifts are supported only when every cycle edge has distance k + 2")
    lift = _lift(k, cert, classification, bipartite_power(g, k))
    if lift is None:
        raise TheoremCounterexample(
            f"power at k={k} is chordal bipartite although the (k+2)-power is not",
            {"kind": "cycle-lift", "k": k, "graph": graph_to_json(g), "cycle": cycle_json(g, cert)},
        )
    return lift


def _lift_applies(classification: CycleClassification) -> bool:
    """A lift to k = 1 needs every cycle edge at distance 3: the k-power is
    then the graph itself, and only high edges have a detour in it."""
    return classification.k >= 3 or (classification.k2 == 0 and classification.k3 == 0)


def _lift(
    k: int, cert: CycleCertificate, classification: CycleClassification, power_k: BipartiteGraph
) -> LiftResult | None:
    """The lift of ``cert`` given its classification and the k-power, or
    None when the k-power has no chordless cycle of length >= 6."""
    anomaly = False
    if classification.k3 == 0:
        walk: list[VertexId] = []
        for p, edge in enumerate(classification.edges):
            u = cert.vertices[p]
            walk.append(u)
            if edge.cls is EdgeClass.HIGH:
                witness = classification.witnesses[p]
                if witness is None or len(witness) != k + 3:
                    raise AssertionError(f"high edge {p} has no shortest-path witness of {k + 3} vertices")
                walk.append(witness[-3])
                walk.append(witness[-2])
        lifted = CycleCertificate(tuple(walk), k)
        predicted = 2 * (3 * (len(cert.vertices) // 2) - classification.k2)
        if len(walk) != predicted:
            raise AssertionError(f"lifted walk has {len(walk)} vertices, predicted 2(3n - m) = {predicted}")
        if verify_chordless(power_k, lifted):
            method = LiftMethod.CASE1 if classification.k2 == 0 else LiftMethod.CASE2
            return LiftResult(lifted, method, predicted)
        anomaly = True  # constructed walk had a repeat or a chord

    found = find_chordless_cycle(power_k, 6)
    return None if found is None else LiftResult(found.with_host_power(k), LiftMethod.FALLBACK, None, anomaly)


@dataclass(frozen=True)
class StrongClosureReport:
    """Outcome of the strong-closure implication for one graph and one k:
    if the k-power is chordal bipartite, the (k+2)-power must be too."""

    k: int
    base_chordal: bool
    next_chordal: bool
    counterexample: bool
    base_cycle: CycleCertificate | None
    next_cycle: CycleCertificate | None
    lift_applicable: bool
    lift: LiftResult | None


def strongly_closed_check(g: BipartiteGraph, k: int) -> StrongClosureReport:
    """Evaluate the strong-closure implication on ``g`` at level ``k``.

    The implication is refuted only when the k-power is chordal bipartite
    and the (k+2)-power is not.  Whenever the (k+2)-power fails, the found
    cycle is additionally lifted down to the k-power as a cross-check of the
    contrapositive; lifting is skipped as inapplicable at k = 1 when the
    cycle mixes edge classes.
    """
    power_k = bipartite_power(g, k)
    base_chordal, base_raw = is_chordal_bipartite(power_k)
    base_cycle = base_raw.with_host_power(k) if base_raw is not None else None
    next_chordal, next_raw = is_chordal_bipartite(bipartite_power(g, k + 2))
    counterexample = base_chordal and not next_chordal

    lift_applicable = False
    lift: LiftResult | None = None
    next_cycle = next_raw.with_host_power(k + 2) if next_raw is not None else None
    if next_cycle is not None:
        classification = classify_cycle_edges(g, k, next_cycle)
        lift_applicable = _lift_applies(classification)
        if lift_applicable:
            # None: the k-power has no chordless cycle, the refutation above.
            lift = _lift(k, next_cycle, classification, power_k)
            if lift is not None and base_chordal:
                raise AssertionError("lift produced a cycle in a chordal power")
    return StrongClosureReport(
        k,
        base_chordal,
        next_chordal,
        counterexample,
        base_cycle,
        next_cycle,
        lift_applicable,
        lift,
    )


def _check_strong_closure(g: BipartiteGraph, k: int) -> None:
    """Raise the instance as a TheoremCounterexample if ``g``'s k-power is
    chordal bipartite and its (k+2)-power is not.

    The claim is an implication, so only a (k+2)-power that fails can
    refute it: that level is decided first.  A chordal (k+2)-power refutes
    nothing and has no cycle to lift, and the k-power is then not decided
    at all; only a (k+2)-power that fails pays for the full report, which
    decides the k-power, and its lift.
    """
    if is_chordal_bipartite(bipartite_power(g, k + 2)).chordal:
        return
    if strongly_closed_check(g, k).counterexample:
        raise TheoremCounterexample(
            f"power at k={k} is chordal bipartite although the (k+2)-power is not",
            {"kind": "strong-closure", "k": k, "graph": graph_to_json(g)},
        )


def _check_k_chordal_closure(g: BipartiteGraph, kc: int, k: int) -> None:
    """Raise the instance as a TheoremCounterexample if ``g``'s k-power is
    ``kc``-chordal and its (k+2)-power is not.

    The (k+2)-power is decided first, and the k-power only when that level
    fails, the one case in which the implication can be refuted.
    """
    # Adjacent k share a level, and a level keeps its answer.
    if not is_k_chordal(bipartite_power(g, k + 2), kc).chordal and is_k_chordal(bipartite_power(g, k), kc).chordal:
        raise TheoremCounterexample(
            f"power at k={k} is {kc}-chordal although the (k+2)-power is not",
            {"kind": "k-chordal-closure", "k": k, "k_chordal_k": kc, "graph": graph_to_json(g)},
        )


# --- cycle / lift JSON -------------------------------------------------------


def cycle_json(g: BipartiteGraph, cert: CycleCertificate) -> str:
    obj = {"k": cert.host_power, "cycle": [g.label(v) for v in cert.vertices]}
    return json.dumps(obj, indent=2) + "\n"


def cycle_from_json(g: BipartiteGraph, text: str) -> CycleCertificate:
    obj = _read_json(text, "cycle")
    if not isinstance(obj, dict) or "k" not in obj or "cycle" not in obj:
        raise InputError('cycle JSON must be an object with keys "k" and "cycle"')
    if not isinstance(obj["cycle"], list):
        raise InputError('cycle JSON "cycle" must be an array of vertex labels')
    k = obj["k"]
    if not isinstance(k, int) or isinstance(k, bool):
        raise InputError(f'cycle JSON "k" must be an integer, got {k!r}')
    verts = tuple(g.vertex_by_label(label) for label in obj["cycle"])
    return CycleCertificate(verts, k)


def lift_json(g: BipartiteGraph, result: LiftResult) -> str:
    obj = {
        "k": result.lifted.host_power,
        "cycle": [g.label(v) for v in result.lifted.vertices],
        "method": result.method.value,
        "predicted_length": result.predicted_length,
        "anomaly": result.anomaly,
    }
    return json.dumps(obj, indent=2) + "\n"
