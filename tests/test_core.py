from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import bipower as bp
from bipower.errors import CapacityError, InputError
from conftest import SAMPLE_EDGES, band_graph, cycle_graph, cycle_vertex, plant_cycle
from oracles import has_induced_cycle, path_distance, unconfined_chordless_cycle


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
        # ones: distances, powers, connectivity and diameter all read the one
        # distance table, and all agree with simple-path enumeration.
        for nx in range(4):
            for ny in range(4):
                for g in bp.enumerate_bipartite(nx, ny):
                    n = g.vertex_count
                    want = [[path_distance(g, u, v) for v in range(n)] for u in range(n)]
                    for u in range(n):
                        table = bp.bfs_distance(g, g.vertex_of_global(u))
                        assert [table.of(g.vertex_of_global(v)) for v in range(n)] == want[u]
                    for k in (1, 3, 5):
                        power = bp.bipartite_power(g, k)
                        for i in range(nx):
                            for j in range(ny):
                                d = want[i][nx + j]
                                assert power.has_edge(i, j) == (d is not None and d <= k)
                    connected = all(d is not None for row in want for d in row)
                    assert bp.is_connected(g) == connected
                    if n and connected:
                        assert bp.diameter(g) == max(map(max, want))
                    else:
                        with pytest.raises(InputError):
                            bp.diameter(g)

    def test_unreachable_is_none(self):
        g = bp.build_graph(2, 2, [(0, 0)])
        table = bp.bfs_distance(g, bp.x_vertex(0))
        assert table.x_dist[1] is None and table.y_dist[1] is None

    def test_parity_across_sides(self, sample_graph):
        table = bp.bfs_distance(sample_graph, bp.x_vertex(0))
        assert all(d % 2 == 0 for d in table.x_dist)
        assert all(d % 2 == 1 for d in table.y_dist)


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

    def test_vertex_cap(self):
        g = bp.build_graph(40, 40, [])
        with pytest.raises(CapacityError):
            bp.find_chordless_cycle(g, 6)

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
    """``find_chordless_cycle`` searches only the blocks that are not chordal
    bipartite; the certificate must be the unconfined search's, None too."""

    def test_every_4_plus_4_graph(self):
        found = 0
        for g in bp.enumerate_bipartite(4, 4):
            cert = bp.find_chordless_cycle(g, 6)
            assert cert == unconfined_chordless_cycle(g, 6)
            found += cert is not None
        assert found > 0

    def test_random_graphs_up_to_9_plus_9(self):
        rng = random.Random(990)
        found = dict.fromkeys((6, 8, 10), 0)
        for _ in range(600):
            g = bp.gen_random_bipartite(rng.getrandbits(63), rng.randint(1, 9), rng.randint(1, 9), rng.random())
            for min_length in found:
                cert = bp.find_chordless_cycle(g, min_length)
                assert cert == unconfined_chordless_cycle(g, min_length)
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
            assert cert == unconfined_chordless_cycle(g, 6)

    def test_blocks_sharing_a_cut_vertex(self):
        rng = random.Random(2)
        for _ in range(150):
            parts = [cycle_graph(2 * rng.randint(3, 5)) for _ in range(2)]
            parts.insert(rng.randrange(3), bp.gen_random_bipartite(rng.getrandbits(63), 3, 3, rng.random()))
            g = disjoint_union(parts, True, rng)
            for min_length in (6, 8):
                assert bp.find_chordless_cycle(g, min_length) == unconfined_chordless_cycle(g, min_length)

    def test_disconnected_graphs(self):
        rng = random.Random(3)
        found = 0
        for _ in range(150):
            parts = [
                bp.gen_random_bipartite(rng.getrandbits(63), rng.randint(1, 5), rng.randint(1, 5), rng.random())
                for _ in range(rng.randint(2, 3))
            ]
            g = disjoint_union(parts, False, rng)
            cert = bp.find_chordless_cycle(g, 6)
            assert cert == unconfined_chordless_cycle(g, 6)
            found += cert is not None
        assert found > 0

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

    def test_parse_errors_cite_position(self):
        with pytest.raises(InputError, match="line 1"):
            bp.graph_from_json("{nope")

    def test_unknown_label_rejected(self):
        with pytest.raises(InputError, match="ghost"):
            bp.graph_from_json('{"x": ["a"], "y": ["b"], "edges": [["ghost", "b"]]}')

    def test_label_on_both_sides_rejected(self):
        with pytest.raises(InputError, match="'a' is used on both sides"):
            bp.graph_from_json('{"x": ["a", "b"], "y": ["b", "a"], "edges": [["a", "a"]]}')
