from __future__ import annotations

import random
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

import bipower as bp
from bipower import core
from bipower.errors import InputError
from conftest import (
    SAMPLE_EDGES,
    band_graph,
    band_with_extra_edges,
    cycle_graph,
    cycle_vertex,
    fresh_copy,
    labelled_graphs,
    plant_cycle,
    random_tree,
)
from oracles import (
    cycle_bearing_per_block,
    distance_table,
    doubly_lexical_ordering,
    full_graph_chordless_cycle,
    has_gamma,
    has_induced_cycle,
    induced_cycle_lengths,
    lex_keyed_ordering,
    pairwise_verify_chordless,
    path_distance,
    tarjan_blocks,
    twin_free_core,
    unconfined_chordless_cycle,
)


class TestBuildGraph:
    def test_single_edge(self):
        g = bp.build_graph(1, 1, [(0, 0)])
        assert g.has_edge(0, 0) and g.edge_count() == 1

    def test_sample_graph_edges(self, sample_graph):
        assert sorted(sample_graph.edges()) == sorted(SAMPLE_EDGES)
        assert sample_graph.x_labels == ("x1", "x2", "x3", "x4", "x5", "x6")

    def test_edgeless_is_valid(self):
        g = bp.build_graph(2, 2, [])
        assert g.edge_count() == 0

    def test_duplicates_collapse(self):
        g = bp.build_graph(1, 2, [(0, 1), (0, 1), (0, 0)])
        assert g.edge_count() == 2

    def test_out_of_range_edge(self):
        with pytest.raises(InputError):
            bp.build_graph(2, 2, [(2, 0)])
        with pytest.raises(InputError):
            bp.build_graph(2, 2, [(0, -1)])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(InputError):
            bp.build_graph(2, 1, [(0, 0)], x_labels=("a", "a"))

    def test_label_on_both_sides_rejected(self):
        # A printed cycle names vertices by label, so a label may name only one.
        with pytest.raises(InputError, match="'b' is used on both sides"):
            bp.build_graph(2, 2, [(0, 0)], x_labels=("a", "b"), y_labels=("c", "b"))
        with pytest.raises(InputError, match="both sides"):
            bp.build_graph(1, 1, [], y_labels=("x1",))


class TestDefaultLabels:
    def test_default_labelled_graph_equals_labels_written_out(self):
        # Default labels skip the label checks; the graph is the one that
        # build_graph makes when given x1..xn and y1..ym.
        rng = random.Random(4242)
        for _ in range(300):
            nx, ny = rng.randint(0, 9), rng.randint(0, 9)
            edges = [(i, j) for i in range(nx) for j in range(ny) if rng.random() < 0.4]
            written = tuple(f"x{i + 1}" for i in range(nx)), tuple(f"y{j + 1}" for j in range(ny))
            want = bp.build_graph(nx, ny, edges, *written)
            assert bp.build_graph(nx, ny, edges) == want
            assert core._graph_from_rows(list(want.x_adj), ny) == want

    def test_one_given_side_is_still_checked(self):
        # Only both sides defaulted skip the checks.
        with pytest.raises(InputError, match="'y1' is used on both sides"):
            core._graph_from_rows([0], 1, x_labels=("y1",))
        with pytest.raises(InputError, match="label count"):
            core._graph_from_rows([0, 0], 1, y_labels=("a", "b"))
        with pytest.raises(InputError, match="holds a tab"):
            core._graph_from_rows([0], 1, y_labels=("a\rb",))


class TestRandint:
    """``core._randint`` is ``random.Random.randint`` drawn through
    ``getrandbits``: the same value, and the stream left where it would be."""

    # Sizes 1, 2^j and 2^j + 1, where the bit length and the rejection
    # rate change, at several offsets.
    SIZES = (1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 1023, 1024, 1025, 2**31, 2**31 + 1, 2**64 + 1)

    def test_matches_randint_over_a_seeded_volume(self):
        ranges = [(low, low + size - 1) for size in self.SIZES for low in (-7, 0, 1, 12)]
        pick = random.Random(2024)
        ranges += [(low, low + pick.randint(0, 200)) for low in (pick.randint(-50, 50) for _ in range(200))]
        for seed, (low, high) in enumerate(ranges):
            ours, theirs = random.Random(seed), random.Random(seed)
            draws = [core._randint(ours.getrandbits, low, high) for _ in range(40)]
            assert draws == [theirs.randint(low, high) for _ in range(40)], (low, high)
            assert ours.getstate() == theirs.getstate(), (low, high)

    def test_empty_range_is_refused(self):
        rng = random.Random(1)
        with pytest.raises(ValueError, match="empty range"):
            core._randint(rng.getrandbits, 3, 2)


def power_rows(g: bp.BipartiteGraph, table: list[list[int | None]], k: int) -> tuple[int, ...]:
    """The k-power's X rows read off an all-pairs distance table."""
    nx = g.x_count
    return tuple(
        sum(1 << j for j in range(g.y_count) if table[i][nx + j] is not None and table[i][nx + j] <= k)
        for i in range(nx)
    )


# Every odd k up to 11, in ascending and descending order and mixed, each
# order on a fresh copy, so that levels are grown, resumed and saturated in
# every order.
LEVEL_ORDERS = (tuple(range(1, 12, 2)), tuple(range(11, 0, -2)), (7, 3, 11, 1, 9, 5))


def assert_distances_match(g: bp.BipartiteGraph, table: list[list[int | None]]) -> None:
    n = g.vertex_count
    for u in range(n):
        got = bp.bfs_distance(g, g.vertex_of_global(u))
        assert list(got.x_dist) + list(got.y_dist) == table[u]
    for order in LEVEL_ORDERS:
        copy = fresh_copy(g)
        for k in order:
            power = bp.bipartite_power(copy, k)
            assert power.x_adj == power_rows(g, table, k)
            assert (power.x_labels, power.y_labels) == (g.x_labels, g.y_labels)
    connected = all(d is not None for row in table for d in row)
    assert bp.is_connected(g) == connected
    if n and connected:
        assert bp.diameter(g) == max(map(max, table))
    else:
        with pytest.raises(InputError):
            bp.diameter(g)


def assert_classes_match(g: bp.BipartiteGraph, table: list[list[int | None]], k: int, cert) -> None:
    cls = bp.classify_cycle_edges(g, k, cert)
    verts = cert.vertices
    for p, edge in enumerate(cls.edges):
        u, v = g.global_id(verts[p]), g.global_id(verts[(p + 1) % len(verts)])
        assert edge.distance == table[u][v]
        if cls.witnesses[p] is not None:
            # Canonical: walking back from v, the smallest neighbour one layer closer to u.
            want = [v]
            while want[-1] != u:
                closer = table[u][want[-1]] - 1
                want.append(min(w for w, d in enumerate(table[want[-1]]) if d == 1 and table[u][w] == closer))
            assert [g.global_id(w) for w in cls.witnesses[p]] == want[::-1]


class TestBfsDistance:
    def test_sample_from_x4(self, sample_graph):
        table = bp.bfs_distance(sample_graph, bp.x_vertex(3))
        assert table.y_dist[0] == 1
        assert table.y_dist[1] == 3
        assert table.y_dist[4] == 3

    def test_source_distance_zero(self, sample_graph):
        table = bp.bfs_distance(sample_graph, bp.y_vertex(2))
        assert table.of(bp.y_vertex(2)) == 0

    def test_cycle_antipode(self):
        g = cycle_graph(18)
        table = bp.bfs_distance(g, cycle_vertex(0))
        assert table.of(cycle_vertex(9)) == 9

    def test_agrees_with_path_enumeration(self):
        # Every graph up to 3+3, including one-sided, empty and disconnected
        # ones: the oracle's all-pairs table agrees with simple-path
        # enumeration, and distances, powers (every odd k up to 11, asked in
        # several orders), connectivity and diameter agree with the table.
        for nx in range(4):
            for ny in range(4):
                for g in bp.enumerate_bipartite(nx, ny):
                    n = g.vertex_count
                    table = distance_table(g)
                    assert table == [[path_distance(g, u, v) for v in range(n)] for u in range(n)]
                    assert_distances_match(g, table)

    def test_unreachable_is_none(self):
        g = bp.build_graph(2, 2, [(0, 0)])
        table = bp.bfs_distance(g, bp.x_vertex(0))
        assert table.x_dist[1] is None and table.y_dist[1] is None

    def test_parity_across_sides(self, sample_graph):
        table = bp.bfs_distance(sample_graph, bp.x_vertex(0))
        assert all(d % 2 == 0 for d in table.x_dist)
        assert all(d % 2 == 1 for d in table.y_dist)


class TestDistancesMatchTable:
    """Powers, single-source distances, connectivity, diameter and edge
    classes against the all-pairs table of ``tests/oracles.py``, itself
    checked against simple-path enumeration; every graph up to 3+3 is
    checked the same way in ``TestBfsDistance``."""

    def test_seeded_volume_up_to_9_plus_9(self):
        rng = random.Random(8181)
        seen = dict.fromkeys(("disconnected", "one-sided", "classified"), 0)
        for t in range(400):
            if t % 5 == 0:  # one side empty
                nx, ny = (0, rng.randint(1, 9)) if t % 10 else (rng.randint(1, 9), 0)
                g = bp.build_graph(nx, ny, [])
            elif t % 5 == 1:
                parts = [
                    bp.gen_random_bipartite(rng.getrandbits(63), rng.randint(1, 4), rng.randint(1, 4), rng.random())
                    for _ in range(2)
                ]
                g = disjoint_union(parts, False, rng)
            elif t % 5 == 2:  # a long cycle with a few extra edges, whose powers hold cycles
                g = cycle_graph(2 * rng.randint(5, 9))
                extra = [(rng.randrange(g.x_count), rng.randrange(g.y_count)) for _ in range(rng.randint(0, 2))]
                g = bp.build_graph(g.x_count, g.y_count, list(g.edges()) + extra)
            else:
                nx, ny = rng.randint(1, 9), rng.randint(1, 9)
                g = bp.gen_random_bipartite(rng.getrandbits(63), nx, ny, rng.uniform(0.1, 0.7))
            table = distance_table(g)
            n = g.vertex_count
            assert table == [[path_distance(g, u, v) for v in range(n)] for u in range(n)]
            assert_distances_match(g, table)
            seen["disconnected"] += not bp.is_connected(g)
            seen["one-sided"] += (g.x_count == 0) != (g.y_count == 0)
            for k in (1, 3, 5):
                cert = bp.find_chordless_cycle(bp.bipartite_power(g, k + 2), 6)
                if cert is not None:
                    assert_classes_match(g, table, k, cert)
                    seen["classified"] += 1
        assert all(seen.values()), seen

    def test_connectivity_on_a_seeded_volume_up_to_40_plus_40(self):
        # is_connected grows the part reached from x_0 over the X rows
        # alone; the table decides connectivity from every vertex.  The
        # volume holds one-sided graphs, isolated vertices, several
        # components and long paths, whose growth takes many steps.
        rng = random.Random(3030)
        seen = dict.fromkeys(("connected", "disconnected", "isolated", "one-sided"), 0)
        for t in range(120):
            if t % 6 == 0:  # one side empty
                nx, ny = (0, rng.randint(1, 40)) if t % 12 else (rng.randint(1, 40), 0)
                g = bp.build_graph(nx, ny, [])
            elif t % 6 == 1:
                parts = [
                    bp.gen_random_bipartite(rng.getrandbits(63), rng.randint(1, 20), rng.randint(1, 20), rng.uniform(0.2, 0.6))
                    for _ in range(2)
                ]
                g = disjoint_union(parts, False, rng)
            elif t % 6 == 2:  # a long cycle cut once (a path) or twice
                g = cycle_graph(2 * rng.randint(10, 40))
                edges = list(g.edges())
                for _ in range(rng.randint(1, 2)):
                    edges.pop(rng.randrange(len(edges)))
                g = bp.build_graph(g.x_count, g.y_count, edges)
            else:
                nx, ny = rng.randint(1, 40), rng.randint(1, 40)
                g = bp.gen_random_bipartite(rng.getrandbits(63), nx, ny, rng.uniform(0.02, 0.25))
            table = distance_table(g)
            assert_distances_match(g, table)
            seen["connected" if bp.is_connected(g) else "disconnected"] += 1
            seen["isolated"] += any(row.count(None) == len(row) - 1 for row in table) and len(table) > 1
            seen["one-sided"] += (g.x_count == 0) != (g.y_count == 0)
        assert min(seen.values()) >= 10, seen

    def test_subdivided_cycle_classes(self):
        rng = random.Random(77)
        classified = 0
        for _ in range(60):
            g, corners = bp.gen_subdivided_cycle([rng.choice((1, 3, 5, 7)) for _ in range(2 * rng.randint(2, 4))])
            table = distance_table(g)
            for k in range(max(1, corners.host_power - 2), 9, 2):
                if bp.verify_chordless(bp.bipartite_power(g, k + 2), corners):
                    assert_classes_match(g, table, k, corners.with_host_power(k + 2))
                    classified += 1
        assert classified > 30


class TestPowerLadder:
    def test_each_level_built_once(self):
        g = cycle_graph(18)
        assert bp.bipartite_power(g, 1) is g
        p7 = bp.bipartite_power(g, 7)
        p3 = bp.bipartite_power(g, 3)
        assert bp.bipartite_power(g, 3) is p3 and bp.bipartite_power(g, 7) is p7
        assert bp.bipartite_power(g, 5) is bp.bipartite_power(g, 5)
        assert not hasattr(g, "distances")  # no all-pairs table is kept

    def test_growth_stops_at_saturation(self):
        # The 18-cycle's farthest cross pair is at distance 9, so level 9 is
        # complete and answers every higher k without growing further.
        g = cycle_graph(18)
        p9 = bp.bipartite_power(g, 9)
        assert p9.edge_count() == 81
        assert bp.bipartite_power(g, 10**9 + 1) is p9 and bp.bipartite_power(g, 11) is p9
        edgeless = bp.build_graph(3, 3, [])
        assert bp.bipartite_power(edgeless, 10**9 + 1) is edgeless

    def test_two_hop_table_is_the_union_of_each_columns_rows(self):
        # The table is built in one pass over the rows' bits; entry j must
        # be the union of the rows of y_j's neighbours.
        rng = random.Random(29)
        graphs = [bp.gen_random_bipartite(rng.getrandbits(63), rng.randint(1, 40), rng.randint(1, 40), rng.random())
                  for _ in range(300)]
        graphs += [bp.build_graph(0, 3, []), bp.build_graph(3, 0, []), bp.build_graph(0, 0, [])]
        graphs += [band_graph(random.Random(s), 128, 6) for s in (1, 2)]
        for g in map(fresh_copy, graphs):
            two_hop = g._two_hop
            assert two_hop == tuple(core._union(g.x_adj, col) for col in g.y_adj)

    def test_ladder_builds_no_transpose(self):
        rng = random.Random(30)
        graphs = [cycle_graph(18), band_graph(rng, 40, 6), bp.gen_random_bipartite(rng.getrandbits(63), 9, 9, 0.2)]
        for g in map(fresh_copy, graphs):
            bp.bipartite_power(g, 7)
            assert "y_adj" not in g.__dict__ and "global_adj" not in g.__dict__

    def test_connectivity_builds_no_transpose(self):
        rng = random.Random(31)
        graphs = [cycle_graph(18), band_graph(rng, 40, 6), bp.gen_random_bipartite(rng.getrandbits(63), 9, 9, 0.2),
                  bp.build_graph(3, 3, [(0, 0), (2, 2)]), bp.build_graph(0, 3, [])]
        for g in map(fresh_copy, graphs):
            bp.is_connected(g)
            assert "y_adj" not in g.__dict__ and "global_adj" not in g.__dict__

    def test_one_shot_power_of_a_long_path_within_budget(self):
        # x_i is path vertex 2i and y_j is 2j + 1, so x_i y_j is an edge of
        # the 3-power iff |2i - 2j - 1| <= 3.  With the all-pairs table of
        # the earlier design this took about 1.5 s.
        n = 1000
        g = bp.build_graph(n, n, [(i, i) for i in range(n)] + [(i + 1, i) for i in range(n - 1)])
        start = time.perf_counter()
        text = bp.graph_to_json(bp.bipartite_power(g, 3))
        elapsed = time.perf_counter() - start
        want = tuple(sum(1 << j for j in range(max(0, i - 2), min(n, i + 2))) for i in range(n))
        assert bp.graph_from_json(text).x_adj == want
        assert elapsed < 0.5, f"took {elapsed:.2f}s"

    def test_threads_share_one_graph(self):
        # Four threads (more than the cores CI has) grow one fresh graph's
        # ladder in different orders with frequent switches; a level lost or
        # published half-grown would give a wrong power.
        rng = random.Random(4)
        g = bp.gen_random_bipartite(rng.getrandbits(63), 9, 9, 0.2)
        table = distance_table(g)
        orders = [list(range(1, 16, 2)) for _ in range(4)]
        for order in orders:
            rng.shuffle(order)
        barrier = threading.Barrier(len(orders), timeout=30)
        results: list[list[tuple[int, bp.BipartiteGraph]]] = [[] for _ in orders]

        def request(slot: int) -> None:
            barrier.wait()
            for _ in range(20):
                for k in orders[slot]:
                    results[slot].append((k, bp.bipartite_power(g, k)))

        threads = [threading.Thread(target=request, args=(slot,)) for slot in range(len(orders))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(len(got) == 20 * 8 for got in results)
        for got in results:
            for k, power in got:
                assert power.x_adj == power_rows(g, table, k)


class TestBipartitePower:
    def test_identity_power(self, sample_graph):
        assert bp.bipartite_power(sample_graph, 1).x_adj == sample_graph.x_adj

    def test_sample_cubes_to_complete(self, sample_graph):
        p = bp.bipartite_power(sample_graph, 3)
        assert p.edge_count() == 30
        assert all(p.has_edge(i, j) for i in range(6) for j in range(5))

    def test_cycle_corners_induce_six_cycle(self):
        g, corners = bp.gen_subdivided_cycle([3] * 6)
        p = bp.bipartite_power(g, 3)
        assert bp.verify_chordless(p, corners)

    @pytest.mark.parametrize("k", [0, 2, 4, -1])
    def test_even_or_nonpositive_k_rejected(self, sample_graph, k):
        with pytest.raises(InputError, match="odd"):
            bp.bipartite_power(sample_graph, k)

    @pytest.mark.parametrize("k", [0, 2, -1])
    def test_one_odd_k_rule(self, sample_graph, sample_rep, k):
        # Every function taking a power level refuses a bad k with one message.
        g18, corners = bp.gen_subdivided_cycle([3] * 6)
        calls = [
            lambda: bp.classify_cycle_edges(g18, k, corners),
            lambda: bp.strongly_closed_check(sample_graph, k),
            lambda: bp.raw_right_endpoint(sample_graph, sample_rep, bp.x_vertex(0), k),
            lambda: bp.power_representation(sample_graph, sample_rep, k),
        ]
        message = rf"^bipartite powers are defined only for odd k >= 1 .*; got k={k}$"
        for call in calls:
            with pytest.raises(InputError, match=message):
                call()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32), nx=st.integers(1, 5), ny=st.integers(1, 5), k=st.sampled_from([1, 3, 5]))
    def test_monotone_under_k(self, seed, nx, ny, k):
        g = bp.gen_random_bipartite(seed, nx, ny, 0.4)
        lo = bp.bipartite_power(g, k)
        hi = bp.bipartite_power(g, k + 2)
        assert all(lo.x_adj[i] & ~hi.x_adj[i] == 0 for i in range(nx))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32), nx=st.integers(1, 5), ny=st.integers(1, 5))
    def test_saturates_beyond_diameter(self, seed, nx, ny):
        g = bp.gen_random_bipartite(seed, nx, ny, 0.6)
        if not bp.is_connected(g):
            return
        d = bp.diameter(g)
        k = d if d % 2 else d + 1
        assert bp.bipartite_power(g, k).x_adj == bp.bipartite_power(g, k + 4).x_adj

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32), k=st.sampled_from([3, 5]))
    def test_no_within_side_edges(self, seed, k):
        g = bp.gen_random_bipartite(seed, 4, 4, 0.5)
        p = bp.bipartite_power(g, k)
        # The derived views must stay mutually consistent cross-side maps.
        assert len(p.y_adj) == p.y_count
        for j, col in enumerate(p.y_adj):
            for i in range(p.x_count):
                assert bool(col >> i & 1) == p.has_edge(i, j)


class TestChordlessCycleSearch:
    def test_six_cycle_found(self):
        g = cycle_graph(6)
        cert = bp.find_chordless_cycle(g, 6)
        assert cert is not None and len(cert) == 6
        assert bp.verify_chordless(g, cert)

    def test_four_cycle_too_short(self):
        assert bp.find_chordless_cycle(cycle_graph(4), 6) is None

    def test_chord_kills_six_cycle(self):
        g = cycle_graph(6)
        chorded = bp.build_graph(3, 3, list(g.edges()) + [(0, 1)])
        assert bp.find_chordless_cycle(chorded, 6) is None
        assert has_induced_cycle(chorded, 6) is False

    def test_longer_minimum(self):
        assert bp.find_chordless_cycle(cycle_graph(8), 8) is not None
        assert bp.find_chordless_cycle(cycle_graph(6), 8) is None

    def test_min_length_validated(self):
        g = cycle_graph(6)
        with pytest.raises(InputError):
            bp.find_chordless_cycle(g, 4)
        with pytest.raises(InputError):
            bp.find_chordless_cycle(g, 7)

    def test_no_vertex_cap(self):
        assert bp.find_chordless_cycle(bp.build_graph(40, 40, []), 6) is None

    def test_cycle_longer_than_the_recursion_limit(self):
        # The search keeps its path on a list, not on the call stack, so a
        # chordless cycle with more vertices than Python allows frames is
        # found whole.
        length = sys.getrecursionlimit() // 2 * 2 + 100
        g = cycle_graph(length)
        whole = tuple(cycle_vertex(t) for t in range(length))
        assert bp.find_chordless_cycle(g, 8).vertices == whole
        assert bp.is_chordal_bipartite(g).certificate.vertices == whole

    def test_deterministic(self):
        g = bp.gen_random_bipartite(11, 6, 6, 0.4)
        assert bp.find_chordless_cycle(g, 6) == bp.find_chordless_cycle(g, 6)

    def test_agrees_with_subset_enumeration(self):
        rng = random.Random(424242)
        for _ in range(150):
            nx = rng.randint(1, 6)
            ny = rng.randint(1, 6)
            g = bp.gen_random_bipartite(rng.getrandbits(63), nx, ny, rng.random())
            assert (bp.find_chordless_cycle(g, 6) is not None) == has_induced_cycle(g, 6)


def disjoint_union(parts: list[bp.BipartiteGraph], glue: bool, rng: random.Random) -> bp.BipartiteGraph:
    """The parts side by side with both sides' indices shuffled.  With
    ``glue``, each part's first X vertex is merged into the last X vertex of
    the part before it, which becomes a cut vertex."""
    edges: list[tuple[int, int]] = []
    nx = ny = 0
    for part in parts:
        x_at = nx
        if glue and nx:
            x_at -= 1  # the part's X vertex 0 lands on the last X vertex so far
        edges.extend((x_at + i, ny + j) for i, j in part.edges())
        nx, ny = x_at + part.x_count, ny + part.y_count
    x_perm, y_perm = list(range(nx)), list(range(ny))
    rng.shuffle(x_perm)
    rng.shuffle(y_perm)
    return bp.build_graph(nx, ny, [(x_perm[i], y_perm[j]) for i, j in edges])


class TestConfinedSearchMatchesUnconfined:
    """``find_chordless_cycle`` searches only the blocks of the twin-free
    core that are not chordal bipartite; the certificate must be the
    unconfined search's and the whole-graph search's, None too."""

    def test_every_4_plus_4_graph(self):
        found = dict.fromkeys((6, 8), 0)
        for g in bp.enumerate_bipartite(4, 4):
            for min_length in found:
                cert = bp.find_chordless_cycle(g, min_length)
                assert cert == unconfined_chordless_cycle(g, min_length) == full_graph_chordless_cycle(g, min_length)
                found[min_length] += cert is not None
        assert all(found.values())

    def test_random_graphs_up_to_9_plus_9(self):
        rng = random.Random(990)
        found = dict.fromkeys((6, 8, 10, 12), 0)
        for _ in range(2000):
            g = bp.gen_random_bipartite(rng.getrandbits(63), rng.randint(1, 9), rng.randint(1, 9), rng.random())
            for min_length in found:
                cert = bp.find_chordless_cycle(g, min_length)
                assert cert == unconfined_chordless_cycle(g, min_length) == full_graph_chordless_cycle(g, min_length)
                found[min_length] += cert is not None
        # A chordless 12-cycle takes 6+6 of at most 9+9 vertices and is rare
        # here, so 12 checks the search's "none"; the banded volume finds them.
        assert found[6] and found[8] and found[10]

    def test_banded_graphs_up_to_16_plus_16(self):
        # An edge across a band closes long cycles, which the search must
        # tell from the many long paths that cannot close.
        rng = random.Random(1616)
        found = dict.fromkeys((6, 8, 10, 12), 0)
        for _ in range(200):
            g = band_with_extra_edges(rng, rng.randint(6, 16), rng.randint(1, 3))
            for min_length in found:
                cert = bp.find_chordless_cycle(g, min_length)
                assert cert == unconfined_chordless_cycle(g, min_length) == full_graph_chordless_cycle(g, min_length)
                found[min_length] += cert is not None
        assert all(found.values())

    def test_planted_bridged_cycles_up_to_32_plus_32(self):
        rng = random.Random(3232)
        for t in range(24):
            length = rng.choice((6, 8, 10, 12))
            n = (8, 14, 20, 32 - length // 2)[t % 4]
            if t % 3:
                base = bp.intervals_to_graph(bp.random_interval_representation(rng.getrandbits(32), n, n, 3 * n))
            else:
                base = band_graph(rng, n, 6)
            power = bp.bipartite_power(base, rng.choice((1, 3, 5)))
            # Mid-range cycles only where the unconfined search stays fast.
            at = rng.randrange(n + 1) if n <= 14 else 0
            g = plant_cycle(power, length, rng, at)
            cert = bp.find_chordless_cycle(g, 6)
            assert cert is not None and len(cert) == length
            for min_length in (6, 8, 10, 12):
                cert = bp.find_chordless_cycle(g, min_length)
                assert cert == unconfined_chordless_cycle(g, min_length) == full_graph_chordless_cycle(g, min_length)

    def test_blocks_sharing_a_cut_vertex(self):
        rng = random.Random(2)
        for _ in range(150):
            parts = [cycle_graph(2 * rng.randint(3, 5)) for _ in range(2)]
            parts.insert(rng.randrange(3), bp.gen_random_bipartite(rng.getrandbits(63), 3, 3, rng.random()))
            g = disjoint_union(parts, True, rng)
            for min_length in (6, 8, 10, 12):
                cert = bp.find_chordless_cycle(g, min_length)
                assert cert == unconfined_chordless_cycle(g, min_length) == full_graph_chordless_cycle(g, min_length)

    def test_disconnected_graphs(self):
        rng = random.Random(3)
        found = 0
        for _ in range(150):
            parts = [
                bp.gen_random_bipartite(rng.getrandbits(63), rng.randint(1, 5), rng.randint(1, 5), rng.random())
                for _ in range(rng.randint(2, 3))
            ]
            g = disjoint_union(parts, False, rng)
            for min_length in (6, 8, 10, 12):
                cert = bp.find_chordless_cycle(g, min_length)
                assert cert == unconfined_chordless_cycle(g, min_length) == full_graph_chordless_cycle(g, min_length)
                found += cert is not None
        assert found > 0

    def test_odd_powers_with_twins(self):
        # Odd powers of bands and of interval bigraphs, each with a cycle
        # bridged on before the power is taken, have many twins; the search
        # over the core must find the whole-graph search's cycle, which
        # passes through the lowest member of each class it meets.
        rng = random.Random(2424)
        found, none, twins = dict.fromkeys((6, 8, 10, 12), 0), 0, 0
        for t in range(50):
            n = rng.randint(8, 16)
            if t % 2:
                base = band_graph(rng, n, 6)
            else:
                base = bp.intervals_to_graph(bp.random_interval_representation(rng.getrandbits(32), n, n, 2 * n))
            k = rng.choice((3, 5))
            g = bp.bipartite_power(plant_cycle(base, rng.randrange(8, 4 * k + 14, 2), rng, rng.randrange(n + 1)), k)
            twins += twin_free_core(g).vertex_count < g.vertex_count
            for min_length in found:
                cert = bp.find_chordless_cycle(g, min_length)
                assert cert == full_graph_chordless_cycle(g, min_length)
                found[min_length] += cert is not None
                none += cert is None
        assert all(found.values()) and none and twins == 50

    def test_chain_heavy_graphs(self):
        # Subdivided cycles are chains of vertices with one way on, which the
        # search enters without looking for a way back to the start; a chord
        # splits the cycle in two, and a bridged band adds branching beside it.
        rng = random.Random(1919)
        found, none = dict.fromkeys((6, 8, 10, 12), 0), dict.fromkeys((6, 8, 10, 12), 0)
        for t in range(150):
            cycle, _ = bp.gen_subdivided_cycle([rng.randrange(1, 10, 2) for _ in range(2 * rng.randint(2, 4))])
            if t % 2:
                edges = set(cycle.edges())
                while len(edges) == cycle.edge_count():
                    edges.add((rng.randrange(cycle.x_count), rng.randrange(cycle.y_count)))
                g = bp.build_graph(cycle.x_count, cycle.y_count, sorted(edges))
            else:
                band = band_graph(rng, rng.randint(4, 12), 4)
                # A path x - y - x glued to both: two bridges.
                bridge = bp.build_graph(2, 1, [(0, 0), (1, 0)])
                g = disjoint_union([cycle, bridge, band], True, rng)
            for min_length in found:
                cert = bp.find_chordless_cycle(g, min_length)
                assert cert == full_graph_chordless_cycle(g, min_length)
                found[min_length] += cert is not None
                none[min_length] += cert is None
        assert all(found.values()) and all(none.values())

    def test_chordal_graph_needs_no_search(self):
        g = bp.bipartite_power(band_graph(random.Random(5), 32, 6), 1)
        start = time.perf_counter()
        assert bp.find_chordless_cycle(g, 6) is None
        assert time.perf_counter() - start < 0.5

    def test_bridged_cycle_in_band_within_budget(self):
        # 24+24 band at k = 1 with an 8-cycle bridged in mid-range: 28+28.
        # Every start vertex below the cycle costs the unconfined search an
        # exhaustive pass; it takes seconds on this graph.
        rng = random.Random(25)
        g = plant_cycle(bp.bipartite_power(band_graph(rng, 24, 6), 1), 8, rng, 12)
        start = time.perf_counter()
        cert = bp.find_chordless_cycle(g, 6)
        elapsed = time.perf_counter() - start
        assert cert is not None and bp.verify_chordless(g, cert)
        assert sorted(v.index for v in cert.vertices) == [12, 12, 13, 13, 14, 14, 15, 15]
        assert elapsed < 0.5, f"took {elapsed:.2f}s"


class TestSearchIsPolynomial:
    """Past ``min_length`` - 1 path vertices the pruned search backtracks
    only out of forced chains, so long thresholds on large graphs stay
    fast.  The unpruned search took seconds on the first inputs, and the
    second ones were refused for size.  A long cycle is one forced chain:
    its ordering takes about n/4 sort passes, and its search no
    breadth-first search at all."""

    @pytest.mark.parametrize("seed, edge, min_length, length", [
        (6, (9, 3), 8, 8),
        (6, (9, 3), 10, None),
        (5, (5, 22), 8, 10),
        (5, (5, 22), 10, 10),
    ])
    def test_band_with_one_extra_edge_within_budget(self, seed, edge, min_length, length):
        band = band_graph(random.Random(seed), 28, 6)
        g = bp.build_graph(28, 28, [*band.edges(), edge])
        start = time.perf_counter()
        cert = bp.find_chordless_cycle(g, min_length)
        elapsed = time.perf_counter() - start
        assert (None if cert is None else len(cert)) == length
        assert cert is None or bp.verify_chordless(g, cert)
        assert elapsed < 0.5, f"took {elapsed:.2f}s"

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    @pytest.mark.parametrize("min_length", [6, 10])
    def test_128_plus_128_band_within_budget(self, seed, min_length):
        g = band_with_extra_edges(random.Random(seed), 128, 2)
        start = time.perf_counter()
        cert = bp.find_chordless_cycle(g, min_length)
        elapsed = time.perf_counter() - start
        assert cert is not None and len(cert) >= min_length and bp.verify_chordless(g, cert)
        assert elapsed < 0.5, f"took {elapsed:.2f}s"


    @pytest.mark.parametrize("seed, n, count", [(1024, 40, 2), (1108, 39, 3), (1099, 39, 3)])
    def test_long_threshold_on_a_band_power_within_budget(self, seed, n, count):
        # A "no" at length 12 rules out every induced path of up to 11
        # vertices that could still close; the whole-graph search took 7 to
        # 28 s on these 3-powers, most of its paths running through twins.
        g = bp.bipartite_power(band_with_extra_edges(random.Random(seed), n, count), 3)
        start = time.perf_counter()
        cert = bp.find_chordless_cycle(g, 12)
        elapsed = time.perf_counter() - start
        assert cert is None
        assert elapsed < 1, f"took {elapsed:.2f}s"

    def test_1100_cycle_within_budget(self):
        # About n/4 sort passes build the ordering; each pass joins one
        # side's strings once and slices every key out of that one string.
        g = bp.gen_subdivided_cycle([1] * 1100)[0]
        start = time.perf_counter()
        cert = bp.find_chordless_cycle(g, 6)
        elapsed = time.perf_counter() - start
        assert cert.vertices == tuple(cycle_vertex(t) for t in range(1100))
        assert elapsed < 1.5, f"took {elapsed:.2f}s"

    @pytest.mark.parametrize("length", [100, 200])
    def test_forced_steps_run_no_breadth_first_search(self, monkeypatch, length):
        # Every step round a cycle has one way on, which needs no search for
        # a way back to the start; a search at each step would walk the rest
        # of the cycle, n²/2 layers in all.
        calls = []
        union = core._union
        monkeypatch.setattr(core, "_union", lambda rows, mask: calls.append(mask) or union(rows, mask))
        assert len(bp.find_chordless_cycle(cycle_graph(length), 6)) == length
        assert len(calls) <= length


def seeded_block_graphs(rng: random.Random, count: int, side: int) -> list[bp.BipartiteGraph]:
    """Random graphs up to side+side, a third each: one random graph (sparse
    ones have isolated vertices), disjoint parts, and parts glued at cut
    vertices."""
    graphs = []
    for t in range(count):
        if t % 3 == 0:
            nx, ny = rng.randint(0, side), rng.randint(0, side)
            graphs.append(bp.gen_random_bipartite(rng.getrandbits(63), nx, ny, rng.uniform(0.05, 0.9)))
            continue
        parts, nx, ny = [], 0, 0
        while nx < side - 3 and ny < side - 3:
            a, b = rng.randint(1, min(6, side - nx)), rng.randint(1, min(6, side - ny))
            parts.append(bp.gen_random_bipartite(rng.getrandbits(63), a, b, rng.uniform(0.2, 0.9)))
            nx, ny = nx + a, ny + b
        graphs.append(disjoint_union(parts, t % 3 == 2, rng))
    return graphs


class TestOrderingMatchesIntegerKeys:
    """The ordering built on the twin-free core, with each class expanded
    to its members in index order, must return the row order, column order
    and shown rows of the integer-keyed sorts on the whole matrix."""

    @staticmethod
    def ordering(rows: list[int], m: int) -> tuple[list[int], list[int], list[int]]:
        return doubly_lexical_ordering(core._graph_from_rows(rows, m))

    def test_every_matrix_up_to_4x4(self):
        for n in range(5):
            for m in range(5):
                for mask in range(1 << (n * m)):
                    rows = [mask >> (i * m) & ((1 << m) - 1) for i in range(n)]
                    assert self.ordering(rows, m) == lex_keyed_ordering(rows, m)

    def test_seeded_volume_up_to_14x14(self):
        rng = random.Random(1414)
        shapes = [(0, 5), (5, 0), (0, 0), (14, 14)]
        shapes += [(rng.randint(0, 14), rng.randint(0, 14)) for _ in range(596)]
        for t, (n, m) in enumerate(shapes):
            density = 0.0 if t % 50 == 1 else 0.1 + 0.8 * (t % 9) / 8
            rows = [sum(1 << j for j in range(m) if rng.random() < density) for _ in range(n)]
            assert self.ordering(rows, m) == lex_keyed_ordering(rows, m)

    def test_seeded_volume_with_repeated_rows_and_columns(self):
        # Each matrix copies a few distinct rows and a few distinct columns
        # to random places, so most of its rows and columns have twins.
        rng = random.Random(2121)
        twins = 0
        for t in range(1500):
            n, m = rng.randint(1, 16), rng.randint(1, 16)
            kinds = rng.randint(1, 4)
            density = 0.1 + 0.8 * (t % 9) / 8
            base = [[rng.random() < density for _ in range(kinds)] for _ in range(rng.randint(1, 4))]
            row_kind = [rng.randrange(len(base)) for _ in range(n)]
            col_kind = [rng.randrange(kinds) for _ in range(m)]
            rows = [sum(1 << j for j in range(m) if base[row_kind[i]][col_kind[j]]) for i in range(n)]
            row_classes, col_classes = core._graph_from_rows(rows, m)._ordering[:2]
            twins += len(row_classes) < n and len(col_classes) < m
            assert self.ordering(rows, m) == lex_keyed_ordering(rows, m)
        assert twins > 1000

    def test_sparse_long_matrices(self):
        # Cycles, chorded cycles and banded graphs take many sort passes,
        # about n/4 on an n-cycle, where the volumes above take a few.
        rng = random.Random(4848)
        for length in range(6, 201, 2):
            rows, m = list(cycle_graph(length).x_adj), length // 2
            assert self.ordering(rows, m) == lex_keyed_ordering(rows, m)
            chorded = rows[:]
            for _ in range(rng.randint(1, 3)):
                chorded[rng.randrange(m)] |= 1 << rng.randrange(m)
            rng.shuffle(chorded)
            assert self.ordering(chorded, m) == lex_keyed_ordering(chorded, m)
        for n in range(6, 49):
            rows = list(band_with_extra_edges(rng, n, rng.randint(1, 3)).x_adj)
            assert self.ordering(rows, n) == lex_keyed_ordering(rows, n)


class TestFewDistinctRows:
    """A power with fewer than three distinct non-empty rows is answered
    chordal without building an ordering: a chordless cycle of length 2n >=
    6 has n X vertices with non-empty, pairwise distinct rows."""

    def test_saturated_powers_against_brute_force(self):
        rng = random.Random(3377)
        early = late = 0
        for _ in range(300):
            g = bp.gen_random_bipartite(rng.getrandbits(63), rng.randint(1, 7), rng.randint(1, 7), rng.random())
            for k in (3, 5, 7):
                p = fresh_copy(bp.bipartite_power(g, k))
                few = len(set(p.x_adj) - {0}) < 3
                assert bp.is_chordal_bipartite(p).chordal == (not has_induced_cycle(p, 6))
                assert ("_ordering" in p.__dict__) != few
                early += few
                late += not few
        assert early > 600 and late > 20


class TestBlocksMatchHopcroftTarjan:
    """The prefix-bitset block search must find the blocks of the search
    that steps through every edge."""

    def test_every_4_plus_4_graph(self):
        for g in bp.enumerate_bipartite(4, 4):
            assert sorted(core._biconnected_blocks(g.global_adj)) == sorted(tarjan_blocks(g.global_adj))

    def test_seeded_volume_up_to_16_plus_16(self):
        shapes = dict.fromkeys(("isolated", "disconnected", "several blocks"), 0)
        for g in seeded_block_graphs(random.Random(1616), 600, 16):
            blocks = sorted(core._biconnected_blocks(g.global_adj))
            assert blocks == sorted(tarjan_blocks(g.global_adj))
            shapes["isolated"] += not all(g.global_adj)
            shapes["disconnected"] += not bp.is_connected(g)
            shapes["several blocks"] += len(blocks) > 1
        assert all(shapes.values())


class TestRestrictionScan:
    """``_cycle_bearing_vertices`` keeps each block of the twin-free core
    whose restriction of the graph's ordering has a Γ.  That is a superset
    of the blocks that are not chordal bipartite; these volumes check that
    it keeps no more than deciding every block of the core on its own
    ordering keeps."""

    def test_every_4_plus_4_graph(self):
        for g in bp.enumerate_bipartite(4, 4):
            core_graph = twin_free_core(g)
            assert g._core_adj == list(core_graph.global_adj)
            for min_length in (6, 8):
                assert core._cycle_bearing_vertices(g, min_length) == cycle_bearing_per_block(core_graph, min_length)

    def test_seeded_volume_up_to_14_plus_14(self):
        kept = 0
        for g in seeded_block_graphs(random.Random(1400), 450, 14):
            core_graph = twin_free_core(g)
            assert not (g.x_count and g.y_count) or g._core_adj == list(core_graph.global_adj)
            for min_length in (6, 8):
                want = cycle_bearing_per_block(core_graph, min_length)
                assert core._cycle_bearing_vertices(g, min_length) == want
                kept += want != 0
        assert kept > 0

    def test_cleared_blocks_have_no_long_chordless_cycle(self):
        rng = random.Random(66)
        graphs = list(bp.enumerate_bipartite(3, 4)) + seeded_block_graphs(rng, 300, 6)
        cleared = kept = 0
        for g in graphs:
            core_graph = twin_free_core(g)
            nx = core_graph.x_count
            for block in tarjan_blocks(core_graph.global_adj):
                if block.bit_count() < 6:
                    continue
                if has_gamma(core._block_restriction(g, block), len(g._ordering[1])):
                    kept += 1
                    continue
                xs = [i for i in range(nx) if block >> i & 1]
                ys = [j for j in range(core_graph.y_count) if block >> (nx + j) & 1]
                edges = [(a, b) for a, i in enumerate(xs) for b, j in enumerate(ys) if core_graph.has_edge(i, j)]
                assert max(induced_cycle_lengths(bp.build_graph(len(xs), len(ys), edges)), default=0) < 6
                cleared += 1
        assert cleared > 0 and kept > 0


class TestVerifyChordless:
    def test_six_cycle_own_list(self):
        g = cycle_graph(6)
        cert = bp.CycleCertificate(tuple(cycle_vertex(t) for t in range(6)))
        assert bp.verify_chordless(g, cert)

    def test_chord_detected(self):
        g = cycle_graph(6)
        chorded = bp.build_graph(3, 3, list(g.edges()) + [(0, 1)])
        cert = bp.CycleCertificate(tuple(cycle_vertex(t) for t in range(6)))
        assert not bp.verify_chordless(chorded, cert)

    def test_repeated_vertex_rejected(self):
        g = cycle_graph(6)
        verts = tuple(cycle_vertex(t) for t in (0, 1, 2, 3, 0, 1))
        assert not bp.verify_chordless(g, bp.CycleCertificate(verts))

    def test_odd_or_short_rejected(self):
        g = cycle_graph(6)
        assert not bp.verify_chordless(g, bp.CycleCertificate(tuple(cycle_vertex(t) for t in range(3))))
        assert not bp.verify_chordless(g, bp.CycleCertificate((cycle_vertex(0), cycle_vertex(1))))

    def test_out_of_range_vertex_rejected(self):
        g = cycle_graph(4)
        verts = (bp.x_vertex(0), bp.y_vertex(0), bp.x_vertex(9), bp.y_vertex(1))
        assert not bp.verify_chordless(g, bp.CycleCertificate(verts))


class TestVerifyChordlessMatchesPairwiseOracle:
    @staticmethod
    def certificates(rng: random.Random, g: bp.BipartiteGraph, found: bp.CycleCertificate):
        """The found cycle, turned and reversed, shuffled, and broken: odd
        or short, an index out of range or negative, a vertex repeated."""
        verts = list(found.vertices)
        turn = rng.randrange(len(verts))
        yield verts[turn:] + verts[:turn]
        yield verts[::-1]
        for _ in range(3):
            yield rng.sample(verts, len(verts))
        yield verts[:-1]
        yield verts[:rng.randint(0, 3)]
        at = rng.randrange(len(verts))
        side = verts[at].side
        bound = g.x_count if side is bp.Side.X else g.y_count
        for index in (bound, bound + rng.randint(1, 5), -1, -rng.randint(2, 5)):
            yield verts[:at] + [bp.VertexId(side, index)] + verts[at + 1:]
        yield verts[:at] + [verts[at - 2]] + verts[at + 1:]
        yield verts[:-2] + verts[:2]
        yield [bp.VertexId(rng.choice(list(bp.Side)), rng.randrange(-1, 9)) for _ in range(rng.randint(0, 10))]

    @staticmethod
    def with_chord(rng: random.Random, g: bp.BipartiteGraph, found: bp.CycleCertificate) -> bp.BipartiteGraph:
        """``g`` plus one chord of the found cycle, between an X and a Y
        vertex an odd number >= 3 of steps apart on it."""
        verts = found.vertices
        p = rng.randrange(len(verts))
        q = (p + rng.randrange(3, len(verts) - 2, 2)) % len(verts)
        x, y = sorted((verts[p], verts[q]), key=lambda v: v.side is bp.Side.Y)
        return bp.build_graph(g.x_count, g.y_count, [*g.edges(), (x.index, y.index)])

    def test_seeded_volume(self):
        rng = random.Random(531)
        outcomes = []
        for trial in range(400):
            g = plant_cycle(random_tree(rng, rng.randint(2, 12)), 2 * rng.randint(3, 8), rng, rng.randint(0, 1))
            if trial % 2:
                g = bp.gen_random_bipartite(rng.getrandbits(32), rng.randint(3, 9), rng.randint(3, 9), rng.random())
            found = core.find_chordless_cycle(g, 6)
            if found is None:
                continue
            checks = [(g, verts) for verts in [found.vertices, *self.certificates(rng, g, found)]]
            checks.append((self.with_chord(rng, g, found), found.vertices))
            for host, verts in checks:
                cert = bp.CycleCertificate(tuple(verts))
                verdict = bp.verify_chordless(host, cert)
                assert verdict == pairwise_verify_chordless(host, cert), (host, verts)
                outcomes.append(verdict)
        assert len(outcomes) > 3000 and 0.1 < sum(outcomes) / len(outcomes) < 0.9


class TestConnectivity:
    def test_single_edge_connected(self):
        assert bp.is_connected(bp.build_graph(1, 1, [(0, 0)]))

    def test_two_disjoint_edges(self):
        assert not bp.is_connected(bp.build_graph(2, 2, [(0, 0), (1, 1)]))

    def test_sample_connected(self, sample_graph):
        assert bp.is_connected(sample_graph)

    def test_empty_graph_connected(self):
        assert bp.is_connected(bp.build_graph(0, 0, []))

    def test_diameter_of_cycle(self):
        assert bp.diameter(cycle_graph(18)) == 9

    def test_diameter_requires_connected(self):
        with pytest.raises(InputError):
            bp.diameter(bp.build_graph(2, 2, [(0, 0)]))


class TestGraphJson:
    def test_round_trip_values(self, sample_graph):
        again = bp.graph_from_json(bp.graph_to_json(sample_graph))
        assert again == sample_graph

    def test_round_trip_bytes(self, sample_graph):
        text = bp.graph_to_json(sample_graph)
        assert bp.graph_to_json(bp.graph_from_json(text)) == text

    @settings(max_examples=300, deadline=None)
    @given(labelled_graphs())
    def test_any_graph_round_trips(self, g):
        # What graph_to_json writes parses back to an equal graph and is
        # written again as the same bytes.
        text = bp.graph_to_json(g)
        assert bp.graph_from_json(text) == g
        assert bp.graph_to_json(bp.graph_from_json(text)) == text

    def test_parse_errors_cite_position(self):
        with pytest.raises(InputError, match="line 1"):
            bp.graph_from_json("{nope")

    def test_unknown_label_rejected(self):
        with pytest.raises(InputError, match="ghost"):
            bp.graph_from_json('{"x": ["a"], "y": ["b"], "edges": [["ghost", "b"]]}')

    def test_label_on_both_sides_rejected(self):
        with pytest.raises(InputError, match="'a' is used on both sides"):
            bp.graph_from_json('{"x": ["a", "b"], "y": ["b", "a"], "edges": [["a", "a"]]}')
