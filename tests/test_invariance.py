"""Answers that must not depend on how a graph is numbered.

The fast paths are not symmetric in their inputs: powers grow X rows, the
doubly lexical ordering sorts rows first, and the chordless-cycle search
runs on the twin-free core, mapping each class back to its lowest member.
These volumes compare a graph's answers with those of its relabelled copy,
its side swap and the graph with twins added, on powers past the reach of
the brute-force oracles: random graphs up to 40+40, long subdivided cycles
and bands with extra edges.
"""

from __future__ import annotations

import random
import time

import bipower as bp
from bipower import Side, VertexId
from conftest import band_with_extra_edges
from oracles import full_graph_chordless_cycle, reindexed_graph

KS = (1, 3, 5)
LENGTHS = (6, 8)
OTHER_SIDE = {Side.X: Side.Y, Side.Y: Side.X}


def volume(seed: int, count: int) -> list[bp.BipartiteGraph]:
    """``count`` graphs in turn: a sparse random graph up to 40+40, a
    subdivided cycle of 4 to 8 odd segments (every other one with an edge
    added), and a band up to 40+40 with one to four extra edges."""
    rng = random.Random(seed)
    graphs = []
    for t in range(count):
        if t % 3 == 0:
            nx, ny = rng.randint(1, 40), rng.randint(1, 40)
            graphs.append(bp.gen_random_bipartite(rng.getrandbits(63), nx, ny, rng.uniform(0.02, 0.12)))
        elif t % 3 == 1:
            g, _ = bp.gen_subdivided_cycle([rng.choice((1, 3, 5, 7)) for _ in range(rng.choice((4, 6, 8)))])
            if t % 2:
                g = bp.build_graph(g.x_count, g.y_count, [*g.edges(), (rng.randrange(g.x_count), rng.randrange(g.y_count))])
            graphs.append(g)
        else:
            graphs.append(band_with_extra_edges(rng, rng.randint(8, 40), rng.randint(1, 4)))
    return graphs


def swapped(g: bp.BipartiteGraph) -> bp.BipartiteGraph:
    """``g`` with its sides exchanged: X vertex i becomes Y vertex i."""
    return bp.build_graph(g.y_count, g.x_count, [(j, i) for i, j in g.edges()], g.y_labels, g.x_labels)


def with_twin(g: bp.BipartiteGraph, side: Side, of: int, at: int) -> bp.BipartiteGraph:
    """``g`` with a new vertex at index ``at`` of ``side`` (vertices from
    ``at`` on move up) whose neighbours are those of vertex ``of`` there.
    The labels are the defaults, x1.. and y1.."""
    shift = lambda index: index + (index >= at)  # noqa: E731
    if side is Side.X:
        edges = [(shift(i), j) for i, j in g.edges()] + [(at, j) for i, j in g.edges() if i == of]
        return bp.build_graph(g.x_count + 1, g.y_count, edges)
    edges = [(i, shift(j)) for i, j in g.edges()] + [(i, at) for i, j in g.edges() if j == of]
    return bp.build_graph(g.x_count, g.y_count + 1, edges)


def check_cycle(g: bp.BipartiteGraph, cert, length: int) -> None:
    assert cert is None or len(cert) >= length and bp.verify_chordless(g, cert), (g, cert)


class TestRelabellingAndSideSwap:
    def test_powers_commute_with_relabelling_and_side_swap(self):
        rng = random.Random(1001)
        start = time.perf_counter()
        for g in volume(1001, 90):
            x_perm, y_perm = rng.sample(range(g.x_count), g.x_count), rng.sample(range(g.y_count), g.y_count)
            relabelled, flipped = reindexed_graph(g, x_perm, y_perm), swapped(g)
            for k in KS:
                power = bp.bipartite_power(g, k)
                assert bp.bipartite_power(relabelled, k) == reindexed_graph(power, x_perm, y_perm), (g, k)
                assert bp.bipartite_power(flipped, k) == swapped(power), (g, k)
        assert time.perf_counter() - start < 2

    def test_cycle_verdict_is_the_same_on_all_three_graphs(self):
        # A relabelled or swapped copy may meet its cycles in another order,
        # so only the verdict must agree; every certificate must verify, the
        # copies' ones also mapped back onto the graph itself.
        rng = random.Random(1002)
        start = time.perf_counter()
        found = none = 0
        for g in volume(1002, 60):
            x_perm, y_perm = rng.sample(range(g.x_count), g.x_count), rng.sample(range(g.y_count), g.y_count)
            perm = {Side.X: x_perm, Side.Y: y_perm}
            for k in KS:
                power = bp.bipartite_power(g, k)
                relabelled, flipped = reindexed_graph(power, x_perm, y_perm), swapped(power)
                for length in LENGTHS:
                    cert = bp.find_chordless_cycle(power, length)
                    on_relabelled = bp.find_chordless_cycle(relabelled, length)
                    on_flipped = bp.find_chordless_cycle(flipped, length)
                    assert (cert is None) == (on_relabelled is None) == (on_flipped is None), (g, k, length)
                    check_cycle(power, cert, length)
                    check_cycle(relabelled, on_relabelled, length)
                    check_cycle(flipped, on_flipped, length)
                    if cert is None:
                        none += 1
                        continue
                    found += 1
                    back = [VertexId(v.side, perm[v.side][v.index]) for v in on_relabelled.vertices]
                    check_cycle(power, bp.CycleCertificate(tuple(back)), length)
                    back = [VertexId(OTHER_SIDE[v.side], v.index) for v in on_flipped.vertices]
                    check_cycle(power, bp.CycleCertificate(tuple(back)), length)
        assert found > 150 and none > 130, (found, none)
        assert time.perf_counter() - start < 2


class TestTwins:
    def test_appended_twins_leave_the_certificate_unchanged(self):
        # The search maps each twin class to its lowest member, so a twin
        # appended after every vertex is never on the certificate.
        rng = random.Random(1003)
        start = time.perf_counter()
        found = 0
        for g in volume(1003, 60):
            for k in KS:
                power = bp.bipartite_power(g, k)
                x_twin = with_twin(power, Side.X, rng.randrange(power.x_count), power.x_count)
                both = with_twin(x_twin, Side.Y, rng.randrange(power.y_count), power.y_count)
                y_twin = with_twin(power, Side.Y, rng.randrange(power.y_count), power.y_count)
                for length in LENGTHS:
                    cert = bp.find_chordless_cycle(power, length)
                    check_cycle(power, cert, length)
                    for twinned in (x_twin, y_twin, both):
                        assert bp.find_chordless_cycle(twinned, length) == cert, (g, k, length)
                    found += cert is not None
        assert found > 150, found
        assert time.perf_counter() - start < 2

    def test_a_lower_index_twin_keeps_the_verdict_and_the_whole_graph_search(self):
        # A twin inserted before its class's other members moves the class
        # in the core's order, and the search may then meet another cycle
        # first; the certificate is still the whole graph's first one.
        rng = random.Random(1004)
        start = time.perf_counter()
        found = 0
        for g in volume(1004, 30):
            for k in KS:
                power = bp.bipartite_power(g, k)
                side = rng.choice((Side.X, Side.Y))
                count = power.x_count if side is Side.X else power.y_count
                of = rng.randrange(count)
                twinned = with_twin(power, side, of, rng.randint(0, of))
                for length in LENGTHS:
                    cert = bp.find_chordless_cycle(twinned, length)
                    assert (cert is None) == (bp.find_chordless_cycle(power, length) is None), (g, k, length)
                    check_cycle(twinned, cert, length)
                    assert cert == full_graph_chordless_cycle(twinned, length), (g, k, length)
                    found += cert is not None
        assert found > 70, found
        assert time.perf_counter() - start < 2
