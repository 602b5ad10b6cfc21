from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import bipower as bp
from bipower import chordal_power, cli, core
from bipower.chordal_power import (
    EdgeClass,
    LiftMethod,
    cycle_from_json,
    cycle_json,
    lift_json,
)
from bipower.errors import InputError, TheoremCounterexample
from bipower.intervals import intervals_to_graph, random_interval_representation
from bipower.mca import matrix_to_graph
from conftest import (
    band_graph,
    band_with_extra_edges,
    counted_searches,
    cycle_graph,
    cycle_vertex,
    fresh_copy,
    labelled_graphs,
    plant_cycle,
    random_tree,
)
from oracles import doubly_lexical_ordering, has_induced_cycle, induced_cycle_lengths, unconfined_chordless_cycle


class TestIsChordalBipartite:
    def test_four_cycle(self):
        assert bp.is_chordal_bipartite(cycle_graph(4)).chordal

    def test_six_cycle_with_witness(self):
        verdict = bp.is_chordal_bipartite(cycle_graph(6))
        assert not verdict.chordal
        assert bp.verify_chordless(cycle_graph(6), verdict.certificate)

    def test_chord_restores_chordality(self):
        g = cycle_graph(6)
        chorded = bp.build_graph(3, 3, list(g.edges()) + [(0, 1)])
        assert bp.is_chordal_bipartite(chorded).chordal

    def test_matches_subset_oracle(self):
        rng = random.Random(8080)
        for _ in range(100):
            g = bp.gen_random_bipartite(rng.getrandbits(63), rng.randint(1, 6), rng.randint(1, 6), rng.random())
            want = not any(length >= 6 for length in induced_cycle_lengths(g))
            assert bp.is_chordal_bipartite(g).chordal == want


class TestDoublyLexicalDecision:
    def test_matches_brute_force_on_every_4_plus_4_graph(self):
        start = time.perf_counter()
        non_chordal = 0
        for g in bp.enumerate_bipartite(4, 4):
            verdict = bp.is_chordal_bipartite(g)
            # A chordless cycle of length >= 6 needs 6 edges; sparser graphs
            # are chordal without asking the oracle.
            want = g.edge_count() >= 6 and has_induced_cycle(g, 6)
            assert verdict.chordal is not want
            if want:
                non_chordal += 1
                assert len(verdict.certificate) >= 6 and bp.verify_chordless(g, verdict.certificate)
        assert non_chordal > 0
        elapsed = time.perf_counter() - start
        assert elapsed < 60, f"took {elapsed:.1f}s"

    def test_matches_cycle_search_on_chordal_families(self):
        # Odd powers of interval and staircase bigraphs up to 32+32 are
        # chordal bipartite; each verdict is checked against the search.
        rng = random.Random(2024)
        for t in range(12):
            n = (8, 16, 24, 32)[t // 3]
            if t % 2:
                g = matrix_to_graph(bp.gen_staircase_matrix(rng.getrandbits(32), n, n))
            else:
                g = intervals_to_graph(random_interval_representation(rng.getrandbits(32), n, n, 4 * n))
            for k in (1, 3, 5):
                power = bp.bipartite_power(g, k)
                verdict = bp.is_chordal_bipartite(power)
                assert verdict.chordal
                assert bp.find_chordless_cycle(power, 6) is None

    def test_planted_cycles_are_found(self):
        rng = random.Random(99)
        for t in range(16):
            n = (8, 16, 22, 27)[t % 4]  # at most 32+32 with the cycle
            base = intervals_to_graph(random_interval_representation(rng.getrandbits(32), n, n, 3 * n))
            g = plant_cycle(bp.bipartite_power(base, rng.choice((1, 3))), rng.choice((6, 8, 10)), rng)
            verdict = bp.is_chordal_bipartite(g)
            assert not verdict.chordal
            assert verdict.certificate == bp.find_chordless_cycle(g, 6) == unconfined_chordless_cycle(g, 6)
            assert bp.verify_chordless(g, verdict.certificate)

    def test_matches_cycle_search_on_random_powers(self):
        # Every query, at every length, against the search over the whole
        # graph with no Γ gate and no cut.
        rng = random.Random(7007)
        for _ in range(300):
            g = bp.gen_random_bipartite(rng.getrandbits(63), rng.randint(1, 7), rng.randint(1, 7), rng.random())
            for k in (1, 3, 5):
                power = bp.bipartite_power(g, k)
                want = {min_length: unconfined_chordless_cycle(power, min_length) for min_length in (6, 8, 10)}
                for min_length, cert in want.items():
                    assert bp.find_chordless_cycle(power, min_length) == cert
                for kc in range(4, 10):
                    cert = want[kc + 2 - kc % 2]
                    assert bp.is_k_chordal(power, kc) == (cert is None, cert)
                assert bp.is_chordal_bipartite(power) == (want[6] is None, want[6])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 2**64 - 1))
    def test_ordering_is_doubly_lexical(self, nx, ny, bits):
        edges = [(t // ny, t % ny) for t in range(nx * ny) if bits >> t & 1] if ny else []
        g = bp.build_graph(nx, ny, edges)
        rows, cols, shown_bits = doubly_lexical_ordering(g)
        assert sorted(rows) == list(range(nx)) and sorted(cols) == list(range(ny))
        shown = [tuple(int(g.has_edge(i, j)) for j in cols) for i in rows]
        assert shown == sorted(shown, reverse=True)
        columns = list(zip(*shown))
        assert columns == sorted(columns, reverse=True)
        assert shown_bits == [int("".join(map(str, row)) or "0", 2) for row in shown]

    def test_no_vertex_cap(self):
        assert bp.is_chordal_bipartite(bp.build_graph(33, 32, [])) == (True, None)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_power_of_a_128_plus_128_band_within_budget(self, seed):
        # The 3-power of a band with two extra edges: 256 dense vertices,
        # decided "no" and searched for a witness.
        g = bp.bipartite_power(band_with_extra_edges(random.Random(seed), 128, 2), 3)
        start = time.perf_counter()
        verdict = bp.is_chordal_bipartite(g)
        elapsed = time.perf_counter() - start
        assert not verdict.chordal and bp.verify_chordless(g, verdict.certificate)
        assert elapsed < 3, f"took {elapsed:.2f}s"

    def test_no_builds_one_ordering(self, monkeypatch):
        # A chordal 26+26 band with a 12-cycle bridged on: 32+32.  Every
        # block of the twin-free core, the cycle's included, is scanned on
        # its restriction of the whole graph's ordering; no block is ordered
        # on its own.
        rng = random.Random(12)
        g = plant_cycle(band_graph(rng, 26, 6), 12, rng)
        assert g.vertex_count == 64
        big = [b for b in core._biconnected_blocks(g._core_adj) if b.bit_count() >= 6]
        gamma = [b for b in big if not core._gamma_free(core._block_restriction(g, b))]
        assert len(big) >= 2 and [b.bit_count() for b in gamma] == [12]
        assert len(g._core_adj) < g.vertex_count
        built = []
        original = core._twin_free_ordering

        def counted(x_rows, y_count):
            built.append(x_rows)
            return original(x_rows, y_count)

        monkeypatch.setattr(core, "_twin_free_ordering", counted)
        verdict = bp.is_chordal_bipartite(fresh_copy(g))
        assert not verdict.chordal and len(verdict.certificate) == 12
        assert built == [g.x_adj]

    def test_no_builds_no_transpose(self):
        # The decision and the search read the core's rows and columns from
        # the ordering's strings; the whole graph's transpose is never built.
        rng = random.Random(12)
        graphs = [plant_cycle(band_graph(rng, 26, 6), 12, rng), cycle_graph(6)]
        graphs += [bp.bipartite_power(band_with_extra_edges(random.Random(s), 128, 2), 3) for s in (1, 2)]
        for g in map(fresh_copy, graphs):
            verdict = bp.is_chordal_bipartite(g)
            assert not verdict.chordal
            assert "y_adj" not in g.__dict__ and "global_adj" not in g.__dict__
            assert bp.verify_chordless(g, verdict.certificate)

    def test_decision_without_witness_is_a_defect(self, monkeypatch):
        # A search that keeps no block of a graph with a Γ finds no cycle.
        monkeypatch.setattr(core, "_cycle_bearing_vertices", lambda g, min_length: 0)
        with pytest.raises(AssertionError, match="no chordless cycle"):
            bp.is_chordal_bipartite(cycle_graph(6))
        with pytest.raises(AssertionError, match="no chordless cycle"):
            bp.is_k_chordal(cycle_graph(6), 4)

    def test_defect_guard_survives_optimized_mode(self):
        script = (
            "import bipower as bp\n"
            "from bipower import core\n"
            "core._cycle_bearing_vertices = lambda g, min_length: 0\n"
            "g, _ = bp.gen_subdivided_cycle([1] * 6)\n"
            "try:\n"
            "    bp.is_chordal_bipartite(g)\n"
            "except AssertionError:\n"
            "    raise SystemExit(7)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(bp.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True, timeout=60)
        assert proc.returncode == 7, proc.stderr


class TestOneChordlessCycleQuery:
    """Every chordal and k-chordal verdict is ``find_chordless_cycle``: a
    Γ-free graph is answered without a search, and any other graph is
    searched once per length."""

    def test_gamma_free_graph_is_never_searched(self, monkeypatch):
        # Chordal graphs whose biconnected blocks are long enough for every
        # length asked.
        rng = random.Random(41)
        graphs = [bp.bipartite_power(band_graph(rng, 24, 4), k) for k in (1, 3)] + [
            intervals_to_graph(random_interval_representation(rng.getrandbits(32), 20, 20, 40)),
            bp.build_graph(6, 6, [(i, j) for i in range(6) for j in range(6)]),
        ]
        searched = counted_searches(monkeypatch)
        for g in graphs:
            assert any(b.bit_count() >= 10 for b in core._biconnected_blocks(g.global_adj))
            for min_length in (6, 8, 10):
                assert bp.find_chordless_cycle(g, min_length) is None
            for k in range(4, 10):
                assert bp.is_k_chordal(g, k) == (True, None)
        assert searched == []

    def test_graph_with_a_gamma_is_searched_once_per_length(self, monkeypatch, capsys, tmp_path):
        g = cycle_graph(10)
        searched = counted_searches(monkeypatch)
        monkeypatch.setattr(cli, "_load_graph", lambda path: g)
        for _ in range(3):
            answers = [bp.find_chordless_cycle(g, min_length) for min_length in (6, 8, 10, 12)]
            assert [len(cert) if cert else None for cert in answers] == [10, 10, 10, None]
            for k in range(4, 12):
                assert bp.is_k_chordal(g, k) == (k >= 10, None if k >= 10 else answers[0])
            assert cli.dispatch(["check-chordal", "--min-length", "8", str(tmp_path / "c10.json")]) == 1
            assert len(json.loads(capsys.readouterr().out)["cycle"]) == 10
        assert sorted(min_length for h, min_length in searched) == [6, 8, 10, 12]
        assert all(h is g for h, _ in searched)


class TestIsKChordal:
    def test_eight_cycle(self):
        g = cycle_graph(8)
        assert bp.is_k_chordal(g, 8) == (True, None)
        verdict = bp.is_k_chordal(g, 6)
        assert not verdict.chordal
        assert len(verdict.certificate) == 8 and bp.verify_chordless(g, verdict.certificate)

    def test_chorded_six_cycle_is_4_chordal(self):
        g = cycle_graph(6)
        chorded = bp.build_graph(3, 3, list(g.edges()) + [(0, 1)])
        assert bp.is_k_chordal(chorded, 4).chordal

    def test_4_chordal_matches_chordal_bipartite(self):
        rng = random.Random(4444)
        for _ in range(60):
            g = bp.gen_random_bipartite(rng.getrandbits(63), rng.randint(1, 5), rng.randint(1, 5), rng.random())
            assert bp.is_k_chordal(g, 4) == bp.is_chordal_bipartite(g)

    def test_odd_k_normalizes_down(self):
        g = cycle_graph(8)
        assert bp.is_k_chordal(g, 9) == bp.is_k_chordal(g, 8)
        assert bp.is_k_chordal(g, 7) == bp.is_k_chordal(g, 6)

    def test_monotone_in_k(self):
        rng = random.Random(12)
        for _ in range(40):
            g = bp.gen_random_bipartite(rng.getrandbits(63), rng.randint(1, 6), rng.randint(1, 6), rng.random())
            held = False
            for k in (4, 6, 8, 10):
                now = bp.is_k_chordal(g, k).chordal
                assert not (held and not now)
                held = held or now

    def test_small_k_rejected(self):
        with pytest.raises(InputError):
            bp.is_k_chordal(cycle_graph(4), 3)


class TestClassifyCycleEdges:
    def test_uniform_spacing_all_high(self):
        g, corners = bp.gen_subdivided_cycle([3] * 6)
        cls = bp.classify_cycle_edges(g, 1, corners)
        assert (cls.k1, cls.k2, cls.k3) == (6, 0, 0)
        assert all(edge.distance == 3 and edge.cls is EdgeClass.HIGH for edge in cls.edges)

    def test_alternating_spacing_high_and_mid(self):
        g, corners = bp.gen_subdivided_cycle([5, 3, 5, 3, 5, 3])
        cls = bp.classify_cycle_edges(g, 3, corners)
        assert (cls.k1, cls.k2, cls.k3) == (3, 3, 0)
        assert [edge.distance for edge in cls.edges] == [5, 3, 5, 3, 5, 3]

    def test_short_edge_is_low(self):
        # One genuine edge on an otherwise long-spaced corner cycle.
        g, corners = bp.gen_subdivided_cycle([1, 5, 5, 5, 5, 5])
        cls = bp.classify_cycle_edges(g, 3, corners)
        assert (cls.k1, cls.k2, cls.k3) == (5, 0, 1)
        assert cls.edges[0].cls is EdgeClass.LOW and cls.edges[0].distance == 1
        assert cls.witnesses[0] is None

    def test_counts_cover_all_edges(self):
        g, corners = bp.gen_subdivided_cycle([3] * 8)
        cls = bp.classify_cycle_edges(g, 1, corners)
        assert cls.k1 + cls.k2 + cls.k3 == len(corners.vertices)
        assert all(edge.distance % 2 == 1 and edge.distance <= 3 for edge in cls.edges)

    def test_witnesses_realize_distances(self):
        g, corners = bp.gen_subdivided_cycle([5, 3, 5, 3, 5, 3])
        cls = bp.classify_cycle_edges(g, 3, corners)
        for p, witness in enumerate(cls.witnesses):
            assert witness is not None
            assert len(witness) == cls.edges[p].distance + 1
            assert witness[0] == corners.vertices[p]
            assert witness[-1] == corners.vertices[(p + 1) % 6]
            for u, v in zip(witness, witness[1:]):
                xi, yj = (u.index, v.index) if u.side is bp.Side.X else (v.index, u.index)
                assert g.has_edge(xi, yj)

    def test_precondition_requires_chordless_cycle(self):
        g = cycle_graph(6)
        cert = bp.CycleCertificate(tuple(cycle_vertex(t) for t in range(6)), 3)
        # In the cube of a 6-cycle everything is close, so the cycle has chords.
        with pytest.raises(InputError):
            bp.classify_cycle_edges(g, 1, cert)


class TestLiftChordlessCycle:
    def test_pure_high_lift_unrolls_whole_cycle(self):
        g, corners = bp.gen_subdivided_cycle([3] * 6)
        result = bp.lift_chordless_cycle(g, 1, corners)
        assert result.method is LiftMethod.CASE1
        assert result.predicted_length == 18
        assert len(result.lifted) == 18
        assert not result.anomaly
        assert bp.verify_chordless(g, result.lifted)

    def test_mixed_lift_keeps_mid_edges(self):
        g, corners = bp.gen_subdivided_cycle([5, 3, 5, 3, 5, 3])
        result = bp.lift_chordless_cycle(g, 3, corners)
        assert result.method is LiftMethod.CASE2
        assert result.predicted_length == 12
        assert len(result.lifted) == 12
        assert bp.verify_chordless(bp.bipartite_power(g, 3), result.lifted)

    def test_low_edges_fall_back_to_search(self):
        g, corners = bp.gen_subdivided_cycle([1, 5, 5, 5, 5, 5])
        result = bp.lift_chordless_cycle(g, 3, corners)
        assert result.method is LiftMethod.FALLBACK
        assert result.predicted_length is None
        assert not result.anomaly  # no construction was attempted
        assert bp.verify_chordless(bp.bipartite_power(g, 3), result.lifted)

    def test_short_cycle_rejected(self):
        g, corners = bp.gen_subdivided_cycle([3] * 6)
        short = bp.CycleCertificate(corners.vertices[:4], corners.host_power)
        with pytest.raises(InputError, match=">= 6"):
            bp.lift_chordless_cycle(g, 1, short)

    def test_k1_mixed_classes_rejected(self):
        g, corners = bp.gen_subdivided_cycle([3, 1, 3, 1, 3, 1])
        assert bp.verify_chordless(bp.bipartite_power(g, 3), corners)
        with pytest.raises(InputError, match="k = 1"):
            bp.lift_chordless_cycle(g, 1, corners)

    def test_unit_k_family_always_constructs(self):
        # Cycles subdivided into distance-3 segments lift at k=1 without the
        # fallback, and the lifted length is the whole host cycle: 6n.
        for n in (3, 4, 5, 6):
            g, corners = bp.gen_subdivided_cycle([3] * (2 * n))
            result = bp.lift_chordless_cycle(g, 1, corners)
            assert result.method is LiftMethod.CASE1
            assert len(result.lifted) == 6 * n == g.vertex_count
            assert bp.verify_chordless(g, result.lifted)

    def test_lift_sound_on_random_subdivided_cycles(self):
        rng = random.Random(321)
        for _ in range(40):
            n2 = 2 * rng.randint(3, 5)
            k = rng.choice([3, 5])
            segments = [rng.choice([k, k + 2]) for _ in range(n2)]
            g, corners = bp.gen_subdivided_cycle(segments)
            if not bp.verify_chordless(bp.bipartite_power(g, k + 2), corners):
                continue
            result = bp.lift_chordless_cycle(g, k, corners)
            assert bp.verify_chordless(bp.bipartite_power(g, k), result.lifted)
            assert len(result.lifted) >= 6
            if result.method is not LiftMethod.FALLBACK:
                assert len(result.lifted) == result.predicted_length


class TestStronglyClosedCheck:
    def test_eight_cycle_vacuous_at_k1(self):
        report = bp.strongly_closed_check(cycle_graph(8), 1)
        assert not report.base_chordal
        assert report.next_chordal  # the cube of an 8-cycle is complete bipartite
        assert not report.counterexample

    def test_four_cycle_holds_trivially(self):
        for k in (1, 3):
            report = bp.strongly_closed_check(cycle_graph(4), k)
            assert report.base_chordal and report.next_chordal
            assert not report.counterexample

    def test_trees_stay_chordal_at_every_level(self):
        rng = random.Random(77)
        for _ in range(30):
            g = random_tree(rng, rng.randint(2, 14))
            for k in (1, 3, 5):
                report = bp.strongly_closed_check(g, k)
                assert report.base_chordal and report.next_chordal
                assert not report.counterexample

    def test_long_cycle_lift_cross_check(self):
        report = bp.strongly_closed_check(cycle_graph(18), 1)
        assert not report.base_chordal and not report.next_chordal
        assert report.next_cycle is not None and report.next_cycle.host_power == 3
        if report.lift_applicable:
            assert report.lift is not None
            assert bp.verify_chordless(cycle_graph(18), report.lift.lifted)

    def test_random_graphs_never_refute(self):
        rng = random.Random(20240101)
        for _ in range(200):
            g = bp.gen_random_bipartite(rng.getrandbits(63), rng.randint(1, 7), rng.randint(1, 7), rng.random())
            for k in (1, 3):
                report = bp.strongly_closed_check(g, k)
                assert not report.counterexample
                if report.lift is not None:
                    assert bp.verify_chordless(bp.bipartite_power(g, k), report.lift.lifted)

    def test_even_k_rejected(self):
        with pytest.raises(InputError):
            bp.strongly_closed_check(cycle_graph(4), 2)

    def test_each_level_searched_once(self, monkeypatch):
        # Levels 1, 3, 5 and 7 of the 18-cycle are four graphs, none chordal.
        # Each level's witness is searched once, though levels 3 and 5 are
        # asked twice and the lift falls back to a search of the k-power.
        g = cycle_graph(18)
        searched = counted_searches(monkeypatch)
        reports = [bp.strongly_closed_check(g, k) for k in (1, 3, 5)]
        levels = [bp.bipartite_power(g, k) for k in (1, 3, 5, 7)]
        assert len({id(level) for level in levels}) == 4
        assert [(levels.index(h), min_length) for h, min_length in searched] == [(t, 6) for t in range(4)]
        assert any(r.lift is not None and r.lift.method is LiftMethod.FALLBACK for r in reports)
        # Searching anew at every call, as the unconfined reference does,
        # gives the same reports, lifts included.
        monkeypatch.setattr(chordal_power, "find_chordless_cycle", unconfined_chordless_cycle)
        fresh = fresh_copy(g)
        assert reports == [bp.strongly_closed_check(fresh, k) for k in (1, 3, 5)]

    def test_lift_classified_once(self, monkeypatch):
        calls = []
        for name in ("classify_cycle_edges", "bipartite_power"):
            original = getattr(chordal_power, name)

            def counted(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(chordal_power, name, counted)
        g = cycle_graph(24)
        report = bp.strongly_closed_check(g, 3)
        assert report.lift is not None
        # The k- and (k+2)-powers, and the (k+2)-power the classification verifies.
        assert sorted(calls) == ["bipartite_power"] * 3 + ["classify_cycle_edges"]
        assert report.lift == bp.lift_chordless_cycle(g, 3, report.next_cycle)


class TestPlantedCycleLiftRefutation:
    """A planted fault at the lift's fallback: the chordless-cycle search
    answers None on the 3-power of a subdivided cycle whose low edge sends
    the lift to that search.  ``lift-cycle`` must then print the cycle-lift
    record with exit 3, the record must replay through the same verb, and
    ``strongly_closed_check`` must count the refutation without raising;
    without the plant the lift succeeds."""

    SEGMENTS = [1, 5, 5, 5, 5, 5]

    def plant(self, monkeypatch, g: bp.BipartiteGraph) -> None:
        power, search = bp.bipartite_power(g, 3), chordal_power.find_chordless_cycle
        # Equal, not identical: a replay builds the 3-power anew from JSON.
        monkeypatch.setattr(chordal_power, "find_chordless_cycle", lambda h, n: None if h == power else search(h, n))

    def test_lift_cycle_prints_the_record_and_it_replays(self, monkeypatch, capsys, tmp_path):
        g, corners = bp.gen_subdivided_cycle(self.SEGMENTS)
        (tmp_path / "g.json").write_text(bp.graph_to_json(g))
        (tmp_path / "c.json").write_text(cycle_json(g, corners))
        argv = ["lift-cycle", "-k", "3", str(tmp_path / "g.json"), str(tmp_path / "c.json")]
        self.plant(monkeypatch, g)
        assert cli.dispatch(argv) == cli.EXIT_COUNTEREXAMPLE
        out, err = capsys.readouterr()
        record = json.loads(out)
        assert record == {"kind": "cycle-lift", "k": 3, "graph": bp.graph_to_json(g), "cycle": cycle_json(g, corners)}
        assert err == "counterexample: power at k=3 is chordal bipartite although the (k+2)-power is not\n"

        (tmp_path / "rg.json").write_text(record["graph"])
        (tmp_path / "rc.json").write_text(record["cycle"])
        replay = ["lift-cycle", "-k", str(record["k"]), str(tmp_path / "rg.json"), str(tmp_path / "rc.json")]
        assert cli.dispatch(replay) == cli.EXIT_COUNTEREXAMPLE
        assert json.loads(capsys.readouterr().out) == record

        monkeypatch.undo()
        assert cli.dispatch(replay) == cli.EXIT_OK
        lifted = json.loads(capsys.readouterr().out)
        assert lifted["method"] == LiftMethod.FALLBACK.value and lifted["k"] == 3
        assert bp.verify_chordless(bp.bipartite_power(g, 3), cycle_from_json(g, json.dumps(lifted)))

    def test_strong_closure_check_counts_it_without_raising(self, monkeypatch):
        g, _ = bp.gen_subdivided_cycle(self.SEGMENTS)
        self.plant(monkeypatch, g)
        report = bp.strongly_closed_check(g, 3)
        assert report.base_chordal and not report.next_chordal
        assert report.counterexample and report.lift_applicable and report.lift is None


class TestStrongClosureCheckMatchesReport:
    """The campaign's ``_check_strong_closure`` builds no report when the
    (k+2)-power is chordal.  It must still raise exactly when
    ``strongly_closed_check`` counts a refutation, and lift every cycle of a
    (k+2)-power that fails, as the report does."""

    @staticmethod
    def volume():
        """Subdivided cycles of 4 or 6 odd segments and total length up to
        14, each alone and with one seeded extra edge, then seeded random
        graphs up to 9+9."""
        rng = random.Random(1414)
        for count in (4, 6):
            for segments in itertools.product(range(1, 12, 2), repeat=count):
                if sum(segments) <= 14:
                    g, _ = bp.gen_subdivided_cycle(segments)
                    yield g
                    absent = [(i, j) for i in range(g.x_count) for j in range(g.y_count) if not g.has_edge(i, j)]
                    if absent:
                        yield bp.build_graph(g.x_count, g.y_count, [*g.edges(), rng.choice(absent)])
        for _ in range(300):
            yield bp.gen_random_bipartite(rng.getrandbits(63), rng.randint(1, 9), rng.randint(1, 9), rng.random())

    @staticmethod
    def raises(g: bp.BipartiteGraph, k: int) -> bool:
        try:
            chordal_power._check_strong_closure(g, k)
        except TheoremCounterexample as exc:
            assert exc.report == {"kind": "strong-closure", "k": k, "graph": bp.graph_to_json(g)}
            return True
        return False

    def test_raises_iff_the_report_refutes(self, monkeypatch):
        lifts: list[int] = []
        original = chordal_power._lift

        def counted(k, cert, classification, power_k):
            lifts.append(k)
            return original(k, cert, classification, power_k)

        monkeypatch.setattr(chordal_power, "_lift", counted)
        failing = lifted = 0
        for g in self.volume():
            for k in (1, 3, 5):
                before = len(lifts)
                raised = self.raises(fresh_copy(g), k)
                by_check, before = len(lifts) - before, len(lifts)
                report = bp.strongly_closed_check(fresh_copy(g), k)
                assert raised == report.counterexample, (bp.graph_to_json(g), k)
                assert by_check == len(lifts) - before == report.lift_applicable, (bp.graph_to_json(g), k)
                failing += not report.next_chordal
                lifted += report.lift is not None
        assert failing > 300 and lifted > 150, (failing, lifted)

    def test_planted_refutation_raises(self, monkeypatch):
        # TestPlantedCycleLiftRefutation's plant: the 3-power's search answers None.
        g, _ = bp.gen_subdivided_cycle(TestPlantedCycleLiftRefutation.SEGMENTS)
        TestPlantedCycleLiftRefutation().plant(monkeypatch, g)
        assert bp.strongly_closed_check(g, 3).counterexample
        assert self.raises(g, 3)


class TestCycleJson:
    def test_round_trip(self):
        g, corners = bp.gen_subdivided_cycle([3] * 6)
        text = cycle_json(g, corners)
        assert cycle_from_json(g, text) == corners
        assert cycle_json(g, cycle_from_json(g, text)) == text

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_any_cycle_round_trips(self, data):
        # The file names vertices by label, so any vertex list of any
        # labelled graph, and any k, read back as they were written.
        g = data.draw(labelled_graphs())
        vertices = data.draw(st.lists(st.sampled_from(list(g.vertices())), max_size=12)) if g.vertex_count else []
        cert = bp.CycleCertificate(tuple(vertices), data.draw(st.integers()))
        text = cycle_json(g, cert)
        again = cycle_from_json(g, text)
        assert again.vertices == cert.vertices and again.host_power == cert.host_power
        assert cycle_json(g, again) == text

    def test_lift_json_fields(self):
        import json

        g, corners = bp.gen_subdivided_cycle([3] * 6)
        obj = json.loads(lift_json(g, bp.lift_chordless_cycle(g, 1, corners)))
        assert obj["method"] == "Case1Construction"
        assert obj["predicted_length"] == 18
        assert obj["anomaly"] is False
        assert obj["k"] == 1 and len(obj["cycle"]) == 18

    def test_unknown_label_rejected(self):
        g, _ = bp.gen_subdivided_cycle([3] * 6)
        with pytest.raises(InputError):
            cycle_from_json(g, '{"k": 3, "cycle": ["nope"]}')
