from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
import pickle
import random
import time

import pytest

import bipower as bp
from bipower import chordal_power, cli, core, harness, intervals, mca
from bipower.errors import CapacityError, InputError, TheoremCounterexample
from bipower.harness import (
    MAX_PARALLELISM,
    Bounds,
    Campaign,
    Theorem,
    TrialOutcome,
    campaign_from_json,
    report_json,
    trial_seed,
)
from conftest import counted_searches, cycle_graph, fresh_copy
from oracles import edge_list_enumeration


class TestGenRandomBipartite:
    def test_probability_one_is_complete(self):
        g = bp.gen_random_bipartite(0, 3, 4, 1.0)
        assert g.edge_count() == 12

    def test_probability_zero_is_edgeless(self):
        assert bp.gen_random_bipartite(0, 3, 4, 0.0).edge_count() == 0

    def test_seed_reproduces_identical_json(self):
        a = bp.graph_to_json(bp.gen_random_bipartite(99, 5, 5, 0.5))
        b = bp.graph_to_json(bp.gen_random_bipartite(99, 5, 5, 0.5))
        assert a == b

    def test_probability_validated(self):
        with pytest.raises(InputError):
            bp.gen_random_bipartite(0, 2, 2, 1.5)

    @pytest.mark.parametrize("nx, ny", [(-1, 3), (3, -1), (-2, -2)])
    def test_negative_sizes_refused_with_build_graphs_message(self, nx, ny):
        with pytest.raises(InputError) as refused:
            bp.gen_random_bipartite(0, nx, ny, 0.5)
        assert str(refused.value) == "side sizes must be non-negative"
        # The probability is checked first, as before.
        with pytest.raises(InputError, match="edge probability"):
            bp.gen_random_bipartite(0, nx, ny, 1.5)


def randint_staircase(seed: int, n: int, m: int) -> tuple[tuple[int, ...], ...]:
    """gen_staircase_matrix's entries drawn with randint and built cell by cell."""
    rng = random.Random(seed)
    a, b = [1], [rng.randint(1, m)]
    for _ in range(1, n):
        a.append(rng.randint(a[-1], min(b[-1] + 1, m)))
        b.append(rng.randint(max(a[-1], b[-1]), m))
    b[-1] = m
    return tuple(tuple(1 if a[i] <= j + 1 <= b[i] else 0 for j in range(m)) for i in range(n))


class TestGeneratorsMatchTheirPlainForms:
    """The generators draw integers through core._randint and build rows
    directly; each must give what randint and an edge list or a cell grid
    give from the same seed."""

    def test_random_bipartite_is_its_edge_list(self):
        for seed in range(400):
            nx, ny, p = seed % 10, seed // 10 % 10, seed % 7 / 6
            rng = random.Random(seed)
            edges = [(i, j) for i in range(nx) for j in range(ny) if rng.random() < p]
            assert bp.gen_random_bipartite(seed, nx, ny, p) == bp.build_graph(nx, ny, edges)

    def test_staircase_is_its_randint_grid(self):
        for seed in range(400):
            n, m = 1 + seed % 9, 1 + seed // 9 % 9
            assert bp.gen_staircase_matrix(seed, n, m).entries == randint_staircase(seed, n, m)

    def test_interval_endpoints_are_randint_draws(self):
        for seed in range(400):
            nx, ny, span = seed % 7, seed // 7 % 7, 1 + seed % 13
            rng = random.Random(seed)
            spans = [sorted((rng.randint(0, span), rng.randint(0, span))) for _ in range(nx + ny)]
            rep = intervals.random_interval_representation(seed, nx, ny, span)
            assert [[iv.left, iv.right] for iv in rep.x_intervals + rep.y_intervals] == spans


class TestGenStaircase:
    def test_always_verifies(self):
        for seed in range(200):
            mat = bp.gen_staircase_matrix(seed, 1 + seed % 8, 1 + (seed * 7) % 8)
            assert bp.verify_mca(mat) is not None

    def test_single_row_covers_every_column(self):
        mat = bp.gen_staircase_matrix(5, 1, 6)
        assert mat.entries == ((1, 1, 1, 1, 1, 1),)

    def test_seed_stable(self):
        assert bp.gen_staircase_matrix(4, 5, 5) == bp.gen_staircase_matrix(4, 5, 5)

    def test_sizes_validated(self):
        with pytest.raises(InputError):
            bp.gen_staircase_matrix(0, 0, 3)


class TestGenSubdividedCycle:
    def test_uniform_three_spacing(self):
        g, corners = bp.gen_subdivided_cycle([3] * 6)
        assert g.vertex_count == 18 and g.edge_count() == 18
        assert len(corners) == 6 and corners.host_power == 3

    def test_alternating_fixture(self):
        g, corners = bp.gen_subdivided_cycle([5, 3, 5, 3, 5, 3])
        assert g.vertex_count == 24
        assert corners.host_power == 5

    def test_unit_segments_mark_every_vertex(self):
        g, corners = bp.gen_subdivided_cycle([1, 1, 1, 1])
        assert g.vertex_count == 4
        assert len(corners) == 4 and corners.host_power == 1
        assert bp.verify_chordless(g, corners)

    def test_parity_violations(self):
        with pytest.raises(InputError):
            bp.gen_subdivided_cycle([3, 3, 3])  # odd segment count
        with pytest.raises(InputError):
            bp.gen_subdivided_cycle([3, 2, 3, 2])  # even lengths

    def test_corners_alternate_sides(self):
        _, corners = bp.gen_subdivided_cycle([3, 5, 1, 3, 5, 1])
        sides = [v.side for v in corners.vertices]
        assert all(a != b for a, b in zip(sides, sides[1:] + sides[:1]))


class TestEnumerateBipartite:
    def test_counts(self):
        assert sum(1 for _ in bp.enumerate_bipartite(1, 1)) == 2
        assert sum(1 for _ in bp.enumerate_bipartite(2, 2)) == 16

    def test_binary_counter_order(self):
        graphs = list(bp.enumerate_bipartite(1, 2))
        assert [g.edge_count() for g in graphs] == [0, 1, 1, 2]
        assert graphs[1].has_edge(0, 0) and graphs[2].has_edge(0, 1)

    def test_cap(self):
        with pytest.raises(CapacityError):
            next(iter(bp.enumerate_bipartite(5, 4)))

    @pytest.mark.parametrize("nx, ny", [(-1, 3), (3, -1), (-2, -2)])
    def test_negative_side_refused(self, nx, ny):
        with pytest.raises(InputError, match="side sizes must be non-negative"):
            next(iter(bp.enumerate_bipartite(nx, ny)))

    def test_graphs_match_edge_lists(self):
        # Row bitsets cut from the counter give the graphs, labels included,
        # that the counter's edge lists give.  A matrix keeps no column count
        # without a row, so only graphs with both sides survive its round trip.
        for nx in range(4):
            for ny in range(4):
                graphs = list(bp.enumerate_bipartite(nx, ny))
                assert graphs == list(edge_list_enumeration(nx, ny))
                if nx and ny:
                    assert all(bp.matrix_to_graph(bp.graph_to_matrix(g)) == g for g in graphs)


class TestCampaigns:
    def test_trial_seed_is_stable_and_spread(self):
        assert trial_seed(1, 0) == trial_seed(1, 0)
        assert trial_seed(1, 0) != trial_seed(1, 1) != trial_seed(2, 1)

    @pytest.mark.parametrize("theorem", list(Theorem))
    def test_small_campaigns_run_clean(self, theorem):
        campaign = Campaign(theorem, trials=60, seed=5, bounds=Bounds(max_x=5, max_y=5, span=8))
        report = bp.run_campaign(campaign)
        assert report.executed + report.skipped == 60
        assert report.counterexamples == ()

    def test_single_trial_report(self):
        report = bp.run_campaign(Campaign(Theorem.T4, trials=1, seed=3))
        assert report.executed == 1 and report.skipped == 0

    def test_disconnected_interval_instances_are_skipped(self):
        report = bp.run_campaign(Campaign(Theorem.T3, trials=200, seed=11, bounds=Bounds(max_x=7, max_y=7, span=12)))
        assert report.skipped > 0
        assert report.executed + report.skipped == 200

    def test_parallelism_does_not_change_the_report(self):
        serial = Campaign(Theorem.T5, trials=40, seed=21, bounds=Bounds(max_x=5, max_y=5))
        parallel = Campaign(Theorem.T5, trials=40, seed=21, bounds=Bounds(max_x=5, max_y=5), parallelism=3)
        assert report_json(bp.run_campaign(serial), include_wall_time=False) == report_json(
            bp.run_campaign(parallel), include_wall_time=False
        )

    def test_even_k_in_k_set_rejected(self):
        with pytest.raises(InputError):
            Campaign(Theorem.T5, trials=1, seed=0, bounds=Bounds(k_set=(2,)))

    def test_repeated_k_in_k_set_rejected(self):
        # A repeated k would run, and record its counterexamples, twice a trial.
        with pytest.raises(InputError, match="^k_set may contain each k once, but repeats 3$"):
            Campaign(Theorem.T5, trials=10, bounds=Bounds(k_set=(1, 3, 5, 3)))

    @pytest.mark.parametrize("bound", ["max_x", "max_y", "span"])
    def test_side_and_span_bounds_validated(self, bound):
        with pytest.raises(InputError, match=bound):
            Campaign(Theorem.T3, trials=1, seed=0, bounds=Bounds(**{bound: 0}))

    @pytest.mark.parametrize(
        "field, value",
        [("trials", "a"), ("trials", True), ("seed", 1.7), ("seed", "1"),
         ("parallelism", -3), ("parallelism", 0), ("parallelism", MAX_PARALLELISM + 1), ("parallelism", 2.0)],
    )
    def test_campaign_fields_validated(self, field, value):
        # Construction only: a bad parallelism must be refused before any
        # worker process could start.
        with pytest.raises(InputError, match=field):
            Campaign(Theorem.T4, **{"trials": 1, "seed": 0, field: value})

    def test_parallelism_bound_admits_worker_counts(self):
        for workers in (1, 4, MAX_PARALLELISM):
            assert Campaign(Theorem.T5, trials=1, seed=0, parallelism=workers).parallelism == workers

    @pytest.mark.parametrize(
        "bounds, word",
        [(Bounds(k_set=("a",)), "k_set"), (Bounds(k_set=(True,)), "k_set"),
         (Bounds(k_chordal_k="x"), "k_chordal_k"), (Bounds(k_chordal_k=3), "k_chordal_k")],
    )
    def test_bound_types_validated(self, bounds, word):
        with pytest.raises(InputError, match=word):
            Campaign(Theorem.T4, trials=1, seed=0, bounds=bounds)

    def test_campaign_json_round_trip(self):
        text = json.dumps(
            {
                "theorem": "t4",
                "trials": 12,
                "seed": 7,
                "bounds": {"max_x": 4, "max_y": 5, "k_set": [3, 5]},
                "parallelism": 2,
            }
        )
        campaign = campaign_from_json(text)
        assert campaign.theorem is Theorem.T4
        assert campaign.trials == 12 and campaign.parallelism == 2
        assert campaign.k_set() == (3, 5)

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"theorem": "t5", "trails": 10000, "bounds": {"max-x": 12}}', 'campaign JSON has an unknown key "trails"'),
            ('{"theorem": "t5", "bounds": {"max_x": 3, "max-x": 12, "kset": []}}',
             'campaign JSON "bounds" has an unknown key "max-x"'),
            ('{"parallel": 2, "theorem": "t9", "bounds": 5}', 'campaign JSON has an unknown key "parallel"'),
        ],
    )
    def test_unknown_campaign_key_is_refused(self, text, message):
        # A misspelt key would otherwise run the campaign at its default.
        with pytest.raises(InputError) as caught:
            campaign_from_json(text)
        assert str(caught.value) == message

    @pytest.mark.parametrize("theorem", list(Theorem))
    @pytest.mark.parametrize("bounds", [Bounds(), Bounds(max_x=4, max_y=5, span=7, k_set=(3, 5), k_chordal_k=6)])
    def test_campaign_echo_loads_back(self, theorem, bounds):
        report = report_json(bp.run_campaign(Campaign(theorem, trials=15, seed=4, bounds=bounds)), False)
        echo = json.dumps(json.loads(report)["campaign"])
        assert report_json(bp.run_campaign(campaign_from_json(echo)), False) == report

    def test_report_json_shape(self):
        report = bp.run_campaign(Campaign(Theorem.T4, trials=2, seed=1))
        obj = json.loads(report_json(report))
        assert obj["campaign"]["theorem"] == "t4"
        assert "parallelism" not in obj["campaign"]
        assert obj["executed"] == 2 and obj["counterexamples"] == []
        assert "wall_time" in obj
        assert "wall_time" not in json.loads(report_json(report, include_wall_time=False))

    def test_kchordal_campaign_with_custom_k(self):
        campaign = Campaign(
            Theorem.KCHORDAL, trials=40, seed=2, bounds=Bounds(max_x=5, max_y=5, k_chordal_k=6)
        )
        report = bp.run_campaign(campaign)
        assert report.executed == 40

    def test_kchordal_volume_has_no_record(self):
        # The k-chordal claim at k_chordal_k 6 goes beyond the paper; this is
        # its one volume run, at c6's sizes and ks.
        campaign = Campaign(
            Theorem.KCHORDAL, trials=10_000, seed=29, bounds=Bounds(max_x=7, max_y=7, k_set=(1, 3, 5), k_chordal_k=6)
        )
        report = bp.run_campaign(campaign)
        assert report.executed == 10_000 and report.skipped == 0
        assert report.counterexamples == ()


def test_counterexample_survives_pickling():
    # A worker process sends a refutation back pickled.
    exc = TheoremCounterexample("fails at k=3", {"kind": "power-representation", "k": 3})
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is TheoremCounterexample
    assert str(back) == str(exc) and back.report == exc.report


# A worker runs the trial function it inherits: a patched one only when forked.
fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="workers see a patched trial only when forked"
)


class PlantedFault(Exception):
    """Raised by a patched trial."""


class Unreadable(Exception):
    """Pickles as ``Unreadable(message)``, which cannot be called, so the
    caller's receive fails."""

    def __init__(self, message: str, detail: str):
        super().__init__(message)


def patch_trial(monkeypatch, fault) -> None:
    """Run ``fault(index)`` before each trial."""
    trial = harness._trial

    def patched(campaign: Campaign, index: int) -> TrialOutcome:
        fault(index)
        return trial(campaign, index)

    monkeypatch.setattr(harness, "_trial", patched)


class TestCampaignShares:
    """With w = min(parallelism, trials), share s is trials s, s + w, ...;
    the caller runs share 0 and one forked worker each other share.  The
    report must not depend on the split, an exception in any share must
    reach the caller, and no path may leave a worker running."""

    @pytest.fixture(autouse=True)
    def no_worker_left(self):
        yield
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("theorem", list(Theorem))
    @pytest.mark.parametrize("parallelism, trials", [(2, 31), (3, 47), (8, 5)])
    def test_report_is_the_serial_report(self, monkeypatch, theorem, parallelism, trials):
        started = []
        start = multiprocessing.Process.start

        def counted(process):
            started.append(process)
            start(process)

        monkeypatch.setattr(multiprocessing.Process, "start", counted)
        serial = Campaign(theorem, trials=trials, seed=13, bounds=Bounds(max_x=6, max_y=6, span=10))
        parallel = dataclasses.replace(serial, parallelism=parallelism)
        assert report_json(bp.run_campaign(parallel), False) == report_json(bp.run_campaign(serial), False)
        assert len(started) == min(parallelism, trials) - 1

    @fork_only
    @pytest.mark.parametrize("parallelism", [2, 3, 8])
    def test_records_merge_in_trial_order(self, monkeypatch, parallelism):
        # Up to three records a trial, in the order its ks ran; every fourth
        # trial is skipped.
        def planted(campaign: Campaign, index: int) -> TrialOutcome:
            if index % 4 == 1:
                return TrialOutcome(True, ())
            return TrialOutcome(False, tuple({"trial": index, "k": k} for k in (5, 1, 3)[: index % 3 + 1]))

        monkeypatch.setattr(harness, "_trial", planted)
        campaign = Campaign(Theorem.T5, trials=23, seed=4, parallelism=parallelism)
        report = bp.run_campaign(campaign)
        expected = [rec for index in range(23) for rec in planted(campaign, index).records]
        assert list(report.counterexamples) == expected
        assert (report.executed, report.skipped) == (17, 6)
        serial = bp.run_campaign(dataclasses.replace(campaign, parallelism=1))
        assert report_json(report, False) == report_json(serial, False)

    @fork_only
    @pytest.mark.parametrize("index", [7, 8, 6], ids=["worker-1", "worker-2", "caller"])
    def test_fault_in_any_share_is_raised(self, monkeypatch, index):
        def fault(at: int) -> None:
            if at == index:
                raise PlantedFault(f"trial {at}")

        patch_trial(monkeypatch, fault)
        with pytest.raises(PlantedFault, match=f"^trial {index}$"):
            bp.run_campaign(Campaign(Theorem.T5, trials=20, seed=3, parallelism=3))

    @fork_only
    def test_fault_in_the_callers_share_stops_running_workers(self, monkeypatch):
        # The workers' first trials would take 30 s; they are terminated.
        def fault(at: int) -> None:
            if at == 0:
                raise PlantedFault("trial 0")
            if at < 3:
                time.sleep(30)

        patch_trial(monkeypatch, fault)
        begun = time.perf_counter()
        with pytest.raises(PlantedFault):
            bp.run_campaign(Campaign(Theorem.T5, trials=20, seed=3, parallelism=3))
        assert time.perf_counter() - begun < 10

    @fork_only
    def test_dead_worker_is_one_line_naming_its_exit_code(self, monkeypatch):
        def fault(at: int) -> None:
            if at == 5:
                os._exit(3)

        patch_trial(monkeypatch, fault)
        with pytest.raises(RuntimeError) as raised:
            bp.run_campaign(Campaign(Theorem.T5, trials=20, seed=3, parallelism=3))
        message = str(raised.value)
        assert "\n" not in message and "exit code 3" in message and "worker 2 of 2" in message

    @fork_only
    def test_refutation_in_a_workers_share_is_raised_as_itself(self, monkeypatch):
        # Raised outside the trial's own handler, so it crosses the pipe as
        # an exception; it must arrive with its report, not as a TypeError.
        report = {"kind": "planted", "trial": 1}
        run_share = harness._run_share

        def planted(campaign: Campaign, first: int, step: int):
            if first == 1:
                raise TheoremCounterexample("planted refutation", report)
            return run_share(campaign, first, step)

        monkeypatch.setattr(harness, "_run_share", planted)
        with pytest.raises(TheoremCounterexample, match="^planted refutation$") as raised:
            bp.run_campaign(Campaign(Theorem.T5, trials=20, seed=3, parallelism=2))
        assert raised.value.report == report

    @fork_only
    def test_failed_receive_stops_the_other_workers(self, monkeypatch):
        # Worker 1 sends an exception that cannot be unpickled; worker 2's
        # share would take 30 s.
        def fault(at: int) -> None:
            if at == 1:
                raise Unreadable("trial 1", "detail")
            if at == 2:
                time.sleep(30)

        patch_trial(monkeypatch, fault)
        begun = time.perf_counter()
        with pytest.raises(TypeError):
            bp.run_campaign(Campaign(Theorem.T5, trials=20, seed=3, parallelism=3))
        assert time.perf_counter() - begun < 10


class TestT3KRange:
    """A t3 trial checks the odd k up to diameter + 2, read off the power
    ladder: the powers stop changing at the largest cross-side distance D,
    and the diameter is D (odd) or D + 1 (even)."""

    @pytest.mark.parametrize("k_set", [(), (1, 3, 5, 7, 9, 11)])
    def test_ks_end_at_diameter_plus_two(self, monkeypatch, k_set):
        graphs: list[bp.BipartiteGraph] = []
        asked: list[list[int]] = []
        make, check = harness.intervals_to_graph, harness._check_power_representation

        def made(rep):
            graphs.append(make(rep))
            asked.append([])
            return graphs[-1]

        def recorded(g, rep, k):
            asked[-1].append(k)
            return check(g, rep, k)

        monkeypatch.setattr(harness, "intervals_to_graph", made)
        monkeypatch.setattr(harness, "_check_power_representation", recorded)
        campaign = Campaign(Theorem.T3, trials=300, seed=5, bounds=Bounds(max_x=6, max_y=6, k_set=k_set))
        parities, cut = set(), 0
        for index in range(campaign.trials):
            harness._trial(campaign, index)
            if not bp.is_connected(graphs[-1]):
                assert asked[-1] == []
                continue
            top = bp.diameter(graphs[-1]) + 2
            assert asked[-1] == [k for k in k_set or range(1, top + 1, 2) if k <= top]
            parities.add(top % 2)
            cut += max(k_set, default=0) > top
        assert parities == {0, 1}
        assert cut > 0 or not k_set


class TestInputCheckedOncePerTrial:
    """A t3 trial builds its graph from its representation and checks it
    for nothing but connectivity; a t4 trial checks its staircase's
    arrangement once.  Each then checks each k's power from that input, on
    the power's row bitsets."""

    @staticmethod
    def counting(monkeypatch, module, name: str, calls: list[str]) -> None:
        original = getattr(module, name)

        def counted(*args):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(module, name, counted)

    def test_t3_trial(self, monkeypatch):
        calls: list[str] = []
        self.counting(monkeypatch, intervals, "verify_representation", calls)
        self.counting(monkeypatch, intervals, "is_connected", calls)
        self.counting(monkeypatch, harness, "is_connected", calls)
        self.counting(monkeypatch, harness, "_check_power_representation", calls)
        self.counting(monkeypatch, intervals, "_reach_lefts", calls)
        campaign = Campaign(Theorem.T3, trials=200, seed=7, bounds=Bounds(max_x=6, max_y=6))
        several = 0
        for index in range(campaign.trials):
            calls.clear()
            outcome = harness._trial(campaign, index)
            if outcome.skipped:
                assert calls == ["is_connected"]
                continue
            ks = calls.count("_check_power_representation")
            assert calls == ["is_connected"] + ["_check_power_representation", "_reach_lefts"] * ks
            several += ks > 1
        assert several > 0

    def test_t4_trial(self, monkeypatch):
        calls: list[str] = []
        for module in (harness, mca):
            self.counting(monkeypatch, module, "_arrangement_holds", calls)
            self.counting(monkeypatch, module, "_check_matrix_power", calls)
        for name in ("_row_condition", "verify_mca", "_biadjacency"):
            self.counting(monkeypatch, mca, name, calls)
        campaign = Campaign(Theorem.T4, trials=100, seed=7, bounds=Bounds(max_x=6, max_y=6))
        ks = len(campaign.k_set())
        assert ks > 1
        for index in range(campaign.trials):
            calls.clear()
            harness._trial(campaign, index)
            assert calls == (["_arrangement_holds", "_row_condition"]
                             + ["_check_matrix_power", "_arrangement_holds", "_row_condition"] * ks)

    def test_failed_trial_check_is_a_defect(self, monkeypatch):
        # A t4 trial builds its graph from the staircase it checks, so a
        # failed check is a fault in bipower, not an input error.
        monkeypatch.setattr(harness, "_arrangement_holds", lambda g, mat: False)
        with pytest.raises(AssertionError, match="not monotone consecutive"):
            harness._trial(Campaign(Theorem.T4, trials=1, seed=7), 0)


class TestEachLevelDecidedOnce:
    """Adjacent levels share a power: t5 and kchordal at k_set (1, 3, 5)
    need levels 1, 3, 5 and 7 only, and ask each one at most once.  The
    claims are implications, so each check decides the (k+2)-power first
    and the k-power only where the (k+2)-power fails.  On the 18-cycle
    (diameter 9) levels 1 to 7 are four different graphs, none of them
    chordal; a random graph's levels often stop changing sooner, and a
    level equal to the one below is then the same object."""

    def trial_graphs(self, monkeypatch, graph: bp.BipartiteGraph | None = None) -> list[bp.BipartiteGraph]:
        made: list[bp.BipartiteGraph] = []
        original = harness._random_graph_for_trial

        def recorded(campaign, rng):
            made.append(original(campaign, rng) if graph is None else fresh_copy(graph))
            return made[-1]

        monkeypatch.setattr(harness, "_random_graph_for_trial", recorded)
        return made

    def gamma_calls(self, monkeypatch) -> list[object]:
        """Rows of every doubly lexical ordering built: a graph's Γ decision
        reads the one ordering of its own rows."""
        calls: list[object] = []
        original = core._twin_free_ordering

        def counted(x_rows, y_count):
            calls.append(x_rows)
            return original(x_rows, y_count)

        monkeypatch.setattr(core, "_twin_free_ordering", counted)
        return calls

    @staticmethod
    def whole_graph_decisions(calls: list[object], g: bp.BipartiteGraph) -> list[int]:
        """Positions of the levels of ``g`` decided; every ordering built is
        of a level's own rows, as the blocks of a "no" are scanned on their
        restrictions of it."""
        levels = [bp.bipartite_power(g, k) for k in (1, 3, 5, 7)]
        return sorted(next(t for t, level in enumerate(levels) if level.x_adj is rows) for rows in calls)

    def test_t5_trial_decides_four_levels(self, monkeypatch):
        made = self.trial_graphs(monkeypatch, cycle_graph(18))
        calls = self.gamma_calls(monkeypatch)
        campaign = Campaign(Theorem.T5, trials=1, seed=8, bounds=Bounds(max_x=9, max_y=9, k_set=(1, 3, 5)))
        harness._trial(campaign, 0)
        assert self.whole_graph_decisions(calls, made[-1]) == [0, 1, 2, 3]

    def test_t5_campaign_decides_each_level_once(self, monkeypatch):
        # Ordered are the (k+2)-power at each k, and the k-power wherever
        # the (k+2)-power is not chordal, each level once.  A level with
        # fewer than three distinct non-empty rows has no chordless cycle of
        # length 6 or more and is answered unordered.  No (k+2)-power fails
        # in the 7+7 campaign; two do in the 12+12 one.
        made = self.trial_graphs(monkeypatch)
        calls = self.gamma_calls(monkeypatch)
        for campaign, failing in [
            (Campaign(Theorem.T5, trials=80, seed=8, bounds=Bounds(max_x=7, max_y=7, k_set=(1, 3, 5))), 0),
            (Campaign(Theorem.T5, trials=100, seed=12, bounds=Bounds(max_x=12, max_y=12, k_set=(1, 3, 5))), 2),
        ]:
            unordered = undecided = base_read = 0
            for index in range(campaign.trials):
                calls.clear()
                harness._trial(campaign, index)
                g = made[-1]
                decided = self.whole_graph_decisions(calls, g)
                levels = [bp.bipartite_power(g, k) for k in (1, 3, 5, 7)]
                first = {id(level): levels.index(level) for level in levels}
                asked = {first[id(levels[t + 1])] for t in range(3)}
                failed = {first[id(levels[t])] for t in range(3) if not bp.is_chordal_bipartite(levels[t + 1]).chordal}
                ordered = sorted(t for t in asked | failed if len(set(levels[t].x_adj) - {0}) >= 3)
                assert decided == ordered
                unordered += len(asked | failed) - len(ordered)
                undecided += len(first) - len(asked | failed)
                base_read += len(failed - asked)
            assert unordered > 0 and undecided > 0
            assert base_read == failing

    def test_kchordal_trial_asks_each_level_once(self, monkeypatch):
        # An 18-vertex path: every level is chordal, so levels 3, 5 and 7
        # are ordered, level 1 is never asked, and none is searched, at
        # either k_chordal_k.
        path = bp.build_graph(9, 9, [(i, i) for i in range(9)] + [(i + 1, i) for i in range(8)])
        made = self.trial_graphs(monkeypatch, path)
        calls = self.gamma_calls(monkeypatch)
        searched = counted_searches(monkeypatch)
        for kc in (4, 6):
            campaign = Campaign(
                Theorem.KCHORDAL, trials=1, seed=9, bounds=Bounds(max_x=9, max_y=9, k_set=(1, 3, 5), k_chordal_k=kc)
            )
            calls.clear()
            harness._trial(campaign, 0)
            assert self.whole_graph_decisions(calls, made[-1]) == [1, 2, 3]
            assert searched == []
        # A random campaign: each level is ordered at most once and searched
        # at most once.
        made = self.trial_graphs(monkeypatch)
        campaign = Campaign(Theorem.KCHORDAL, trials=60, seed=9, bounds=Bounds(max_x=7, max_y=7, k_chordal_k=6))
        for index in range(campaign.trials):
            calls.clear()
            searched.clear()
            harness._trial(campaign, index)
            g = made[-1]
            decided = self.whole_graph_decisions(calls, g)
            assert len(decided) == len(set(decided)) <= len({id(bp.bipartite_power(g, k)) for k in (1, 3, 5, 7)})
            assert len(searched) == len({id(h) for h, _ in searched})
            assert all(min_length == 8 and not h._is_gamma_free for h, min_length in searched)


class TestPinnedDigests:
    """One small campaign per theorem, pinned by the sha256 of its report
    and of the instances its trials drew.  A change to a generator, to the
    trial seeds or to a report shows here as a named, intended change."""

    # Each campaign, the sha256 of its report, and that of its trials' instances.
    PINNED = [
        (
            Campaign(Theorem.T3, trials=60, seed=31),
            "09ca85696f53893d4e2edd7cee78b3ebfae5dc886f3ccec69dcb70ddbc8a2b9c",
            "deff299952ceb2f110d473b42147da9ec08f99cfc5844930abfbb98832294513",
        ),
        (
            Campaign(Theorem.T4, trials=60, seed=32),
            "3728e33cd3cf678aa47647864a4f68a2ae03f0333671b5d6e883409e896c0491",
            "8d80deea9b590aa573a8d555773a2f48d19e94ad3ea1d5f4f4a7aa24a55b67b3",
        ),
        (
            Campaign(Theorem.T5, trials=60, seed=33, bounds=Bounds(max_x=6, max_y=6)),
            "0a9999340da444494903a1a1333b3fc5595cf3a395aecdb26a2b559a44f8033b",
            "ab5453faa5d4b42e98f0d295f25aeff1c7c9c39fafe2ba88370fb537284a0263",
        ),
        (
            Campaign(Theorem.KCHORDAL, trials=60, seed=34, bounds=Bounds(k_chordal_k=6)),
            "083b576dc6b244935a4da87d3d5b5d317cc0aaac5d6b1a539b36ebfbd0f617c4",
            "a9e97b89aebe49ca3b81396318207ddaf8e1957e92676d695078ba2ed9864a38",
        ),
    ]

    def drawn_instances(self, monkeypatch) -> list[str]:
        """The instance of every trial run, in the form a record embeds."""
        drawn: list[str] = []
        make_graph, make_staircase = harness._random_graph_for_trial, harness.gen_staircase_matrix

        def to_graph(rep):
            g = intervals.intervals_to_graph(rep)
            drawn.append(intervals.intervals_tsv(rep, g.x_labels, g.y_labels))
            return g

        def staircase(seed, n, m):
            mat = make_staircase(seed, n, m)
            drawn.append(mca.matrix_text(mat))
            return mat

        def random_graph(campaign, rng):
            g = make_graph(campaign, rng)
            drawn.append(bp.graph_to_json(g))
            return g

        monkeypatch.setattr(harness, "intervals_to_graph", to_graph)
        monkeypatch.setattr(harness, "gen_staircase_matrix", staircase)
        monkeypatch.setattr(harness, "_random_graph_for_trial", random_graph)
        return drawn

    @pytest.mark.parametrize(
        "campaign, report_digest, instances_digest", PINNED, ids=[c.theorem.value for c, _, _ in PINNED]
    )
    def test_report_and_instances(self, monkeypatch, campaign, report_digest, instances_digest):
        drawn = self.drawn_instances(monkeypatch)
        report = report_json(harness.run_campaign(campaign), False)
        assert len(drawn) == campaign.trials
        assert hashlib.sha256(report.encode()).hexdigest() == report_digest
        assert hashlib.sha256("".join(drawn).encode()).hexdigest() == instances_digest


class TestPlantedStrongClosureRefutation:
    """A planted fault at the narrowest seam: the 3-power of each trial
    graph, wherever it differs from the graph, reads "not chordal".  Every
    trial whose graph is chordal then refutes strong closure at k = 1, and
    the refutation must reach the report and the fuzz exit code; with the
    plant removed, each record replays to the clean verdict."""

    CAMPAIGN = Campaign(Theorem.T5, trials=12, seed=5, bounds=Bounds(max_x=5, max_y=5, k_set=(1,)))
    ARGV = ["fuzz", "--theorem", "t5", "--trials", "12", "--seed", "5", "--max-x", "5", "--max-y", "5", "-k", "1"]

    def plant(self, monkeypatch) -> list[bp.BipartiteGraph]:
        made: list[bp.BipartiteGraph] = []
        drawn, decide = harness._random_graph_for_trial, chordal_power.is_chordal_bipartite

        def recorded(campaign, rng):
            made.append(drawn(campaign, rng))
            return made[-1]

        def planted(h):
            if h is bp.bipartite_power(made[-1], 3) and h is not made[-1]:
                return chordal_power.ChordalityVerdict(False, None)
            return decide(h)

        monkeypatch.setattr(harness, "_random_graph_for_trial", recorded)
        monkeypatch.setattr(chordal_power, "is_chordal_bipartite", planted)
        return made

    def test_refutation_is_reported_and_replays_clean(self, monkeypatch, capsys, tmp_path):
        made = self.plant(monkeypatch)
        report = harness.run_campaign(self.CAMPAIGN)
        refuted = [
            t for t, g in enumerate(made)
            if bp.is_chordal_bipartite(g).chordal and bp.bipartite_power(g, 3) is not g
        ]
        assert 0 < len(refuted) < self.CAMPAIGN.trials
        assert report.executed == 12 and report.skipped == 0
        assert report.counterexamples == tuple(
            {"trial": t, "kind": "strong-closure", "k": 1, "graph": bp.graph_to_json(made[t])} for t in refuted
        )
        assert cli.dispatch(self.ARGV) == cli.EXIT_COUNTEREXAMPLE
        printed = json.loads(capsys.readouterr().out)
        assert printed.pop("wall_time") >= 0
        assert printed == json.loads(report_json(report, False))

        monkeypatch.undo()
        for record in report.counterexamples:
            g = bp.graph_from_json(record["graph"])
            check = bp.strongly_closed_check(g, record["k"])
            assert check.base_chordal and check.next_chordal and not check.counterexample
            path = tmp_path / f"power{record['trial']}.json"
            path.write_text(bp.graph_to_json(bp.bipartite_power(g, record["k"] + 2)))
            assert cli.dispatch(["check-chordal", str(path)]) == cli.EXIT_OK
            assert json.loads(capsys.readouterr().out) == {"chordal_bipartite": True}
        assert cli.dispatch(self.ARGV) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["counterexamples"] == []


def call(capsys, *argv: str) -> tuple[int, str]:
    """Exit code and stdout of one command-line call."""
    code = cli.dispatch(list(argv))
    return code, capsys.readouterr().out


def in_order(records) -> list[list[tuple]]:
    """Records as their (key, value) pairs in order, so that a comparison
    sees the key order a report is written in."""
    return [list(record.items()) for record in records]


def fuzz_argv(campaign: Campaign) -> list[str]:
    """The ``fuzz`` flags that run ``campaign``."""
    b = campaign.bounds
    argv = ["fuzz", "--theorem", campaign.theorem.value, "--trials", str(campaign.trials),
            "--seed", str(campaign.seed), "--max-x", str(b.max_x), "--max-y", str(b.max_y),
            "--span", str(b.span), "--kchordal-k", str(b.k_chordal_k)]
    return argv + [arg for k in b.k_set for arg in ("-k", str(k))]


def reported_by_fuzz(capsys, campaign: Campaign) -> tuple[int, dict]:
    """Exit code and report of ``fuzz`` on ``campaign``, without its wall time."""
    code, out = call(capsys, *fuzz_argv(campaign))
    printed = json.loads(out)
    assert printed.pop("wall_time") >= 0
    return code, printed


class TestPlantedIntervalRefutation:
    """A planted fault in the interval power: ``_reach_lefts`` lowers x1's
    new right endpoint to its left endpoint.  That breaks the new intervals
    exactly where x1's row in the k-power holds a Y vertex whose interval
    starts to the right of x1's, and the first such Y vertex is the
    offending pair's.  The campaign and ``power-intervals`` both go through
    the plant; without it, each record replays clean."""

    CAMPAIGN = Campaign(Theorem.T3, trials=12, seed=3, bounds=Bounds(max_x=4, max_y=4, span=8, k_set=(1, 3)))

    def plant(self, monkeypatch) -> list[tuple[bp.BipartiteGraph, intervals.IntervalRepresentation]]:
        drawn: list[tuple[bp.BipartiteGraph, intervals.IntervalRepresentation]] = []
        make, reach = harness.intervals_to_graph, intervals._reach_lefts

        def recorded(rep):
            drawn.append((make(rep), rep))
            return drawn[-1][0]

        def planted(power, rep):
            x_reach, y_reach = reach(power, rep)
            x_reach[0] = min(x_reach[0], rep.x_intervals[0].left)
            return x_reach, y_reach

        monkeypatch.setattr(harness, "intervals_to_graph", recorded)
        monkeypatch.setattr(intervals, "_reach_lefts", planted)
        return drawn

    @staticmethod
    def expected(trial: int, g: bp.BipartiteGraph, rep, k: int) -> dict | None:
        row, left = bp.bipartite_power(g, k).x_adj[0], rep.x_intervals[0].left
        later = [j for j in range(g.y_count) if row >> j & 1 and rep.y_intervals[j].left > left]
        if not later:
            return None
        return {
            "trial": trial,
            "kind": "power-representation",
            "k": k,
            "graph": bp.graph_to_json(g),
            "intervals": intervals.intervals_tsv(rep, g.x_labels, g.y_labels),
            "offending_pair": [g.x_labels[0], g.y_labels[later[0]]],
            "edge_in_power": True,
        }

    def test_refutation_is_reported_and_replays(self, monkeypatch, capsys, tmp_path):
        drawn = self.plant(monkeypatch)
        report = harness.run_campaign(self.CAMPAIGN)
        drawn = drawn[:self.CAMPAIGN.trials]
        connected = [t for t, (g, _) in enumerate(drawn) if bp.is_connected(g)]
        expected = [
            record for t in connected for k in self.CAMPAIGN.k_set()
            if (record := self.expected(t, *drawn[t], k)) is not None
        ]
        refuted = {record["trial"] for record in expected}
        assert 0 < len(refuted) < len(connected) < self.CAMPAIGN.trials
        assert report.skipped == self.CAMPAIGN.trials - len(connected)
        assert in_order(report.counterexamples) == in_order(expected)
        code, printed = reported_by_fuzz(capsys, self.CAMPAIGN)
        assert code == cli.EXIT_COUNTEREXAMPLE
        assert printed == json.loads(report_json(report, False))

        graph, tsv = tmp_path / "g.json", tmp_path / "i.tsv"
        for record in report.counterexamples:
            graph.write_text(record["graph"])
            tsv.write_text(record["intervals"])
            code, out = call(capsys, "power-intervals", "-k", str(record["k"]), str(graph), str(tsv))
            assert code == cli.EXIT_COUNTEREXAMPLE
            assert in_order([json.loads(out)]) == in_order([{k: v for k, v in record.items() if k != "trial"}])

        monkeypatch.undo()
        for record in report.counterexamples:
            graph.write_text(record["graph"])
            tsv.write_text(record["intervals"])
            code, out = call(capsys, "power-intervals", "-k", str(record["k"]), str(graph), str(tsv))
            assert code == cli.EXIT_OK
            g = bp.graph_from_json(record["graph"])
            rep, _, _ = intervals.parse_intervals_tsv(out)
            assert intervals.verify_representation(bp.bipartite_power(g, record["k"]), rep)
        code, printed = reported_by_fuzz(capsys, self.CAMPAIGN)
        assert code == cli.EXIT_OK and printed["counterexamples"] == []


class TestPlantedArrangementRefutation:
    """A planted fault in the matrix power: at k = 3, ``mca``'s power puts
    a one two columns past the end of row x1's run, which breaks that run
    exactly when the column exists.  A trial's staircase is shown in index
    order, and so is the record's matrix, so the campaign and ``mca-power``
    both go through the plant; without it, each record replays clean."""

    CAMPAIGN = Campaign(Theorem.T4, trials=12, seed=7, bounds=Bounds(max_x=6, max_y=10))

    def plant(self, monkeypatch) -> list[mca.ArrangedMatrix]:
        drawn: list[mca.ArrangedMatrix] = []
        make, power = harness.gen_staircase_matrix, mca.bipartite_power

        def recorded(seed, n, m):
            drawn.append(make(seed, n, m))
            return drawn[-1]

        def planted(g, k):
            p = power(g, k)
            past = p.x_adj[0].bit_length() + 1
            if k != 3 or past >= p.y_count:
                return p
            rows = [p.x_adj[0] | 1 << past, *p.x_adj[1:]]
            return core._graph_from_rows(rows, p.y_count, p.x_labels, p.y_labels)

        monkeypatch.setattr(harness, "gen_staircase_matrix", recorded)
        monkeypatch.setattr(mca, "bipartite_power", planted)
        return drawn

    def test_refutation_is_reported_and_replays(self, monkeypatch, capsys, tmp_path):
        drawn = self.plant(monkeypatch)
        report = harness.run_campaign(self.CAMPAIGN)
        drawn = drawn[:self.CAMPAIGN.trials]
        refuted = [
            t for t, mat in enumerate(drawn)
            if bp.bipartite_power(mca.matrix_to_graph(mat), 3).x_adj[0].bit_length() + 1 < mat.m
        ]
        assert 0 < len(refuted) < self.CAMPAIGN.trials
        assert report.executed == self.CAMPAIGN.trials and report.skipped == 0
        assert in_order(report.counterexamples) == in_order(
            {"trial": t, "kind": "matrix-power", "k": 3, "matrix": mca.matrix_text(drawn[t])} for t in refuted
        )
        code, printed = reported_by_fuzz(capsys, self.CAMPAIGN)
        assert code == cli.EXIT_COUNTEREXAMPLE
        assert printed == json.loads(report_json(report, False))

        path = tmp_path / "m.mat"
        for record in report.counterexamples:
            path.write_text(record["matrix"])
            code, out = call(capsys, "mca-power", "-k", "3", str(path))
            assert code == cli.EXIT_COUNTEREXAMPLE
            assert in_order([json.loads(out)]) == in_order([{k: v for k, v in record.items() if k != "trial"}])

        monkeypatch.undo()
        powered = tmp_path / "p.mat"
        for record in report.counterexamples:
            path.write_text(record["matrix"])
            code, out = call(capsys, "mca-power", "-k", "3", str(path))
            assert code == cli.EXIT_OK
            powered.write_text(out)
            assert call(capsys, "mca-verify", str(powered))[0] == cli.EXIT_OK
        code, printed = reported_by_fuzz(capsys, self.CAMPAIGN)
        assert code == cli.EXIT_OK and printed["counterexamples"] == []


class TestPlantedKChordalRefutation:
    """A planted fault in k-chordality: ``is_k_chordal`` answers "not
    k-chordal", with an empty witness, on its target, the 3-power of the
    instance at hand wherever that differs from the instance.  Every trial
    whose graph is 6-chordal then refutes the implication at k = 1.  The
    campaign and ``check-kchordal`` on the record's ``power -k 3`` both go
    through the plant; without it, each record replays clean."""

    CAMPAIGN = Campaign(
        Theorem.KCHORDAL, trials=12, seed=6, bounds=Bounds(max_x=5, max_y=5, k_set=(1,), k_chordal_k=6)
    )
    WITNESS = bp.CycleCertificate((), 3)

    def plant(self, monkeypatch) -> tuple[list[bp.BipartiteGraph], list[str | None]]:
        made: list[bp.BipartiteGraph] = []
        target: list[str | None] = [None]
        draw, decide = harness._random_graph_for_trial, chordal_power.is_k_chordal

        def recorded(campaign, rng):
            made.append(draw(campaign, rng))
            target[0] = self.level_above(made[-1])
            return made[-1]

        def planted(h, kc):
            if bp.graph_to_json(h) == target[0]:
                return chordal_power.ChordalityVerdict(False, self.WITNESS)
            return decide(h, kc)

        monkeypatch.setattr(harness, "_random_graph_for_trial", recorded)
        monkeypatch.setattr(chordal_power, "is_k_chordal", planted)
        return made, target

    @staticmethod
    def level_above(g: bp.BipartiteGraph) -> str | None:
        """The graph JSON of g's 3-power, if it differs from g."""
        power = bp.bipartite_power(g, 3)
        return None if power is g else bp.graph_to_json(power)

    def test_refutation_is_reported_and_replays(self, monkeypatch, capsys, tmp_path):
        made, target = self.plant(monkeypatch)
        report = harness.run_campaign(self.CAMPAIGN)
        made = made[:self.CAMPAIGN.trials]
        refuted = [t for t, g in enumerate(made) if self.level_above(g) and bp.is_k_chordal(g, 6).chordal]
        assert 0 < len(refuted) < self.CAMPAIGN.trials
        assert report.executed == self.CAMPAIGN.trials and report.skipped == 0
        assert in_order(report.counterexamples) == in_order(
            {"trial": t, "kind": "k-chordal-closure", "k": 1, "k_chordal_k": 6, "graph": bp.graph_to_json(made[t])}
            for t in refuted
        )
        code, printed = reported_by_fuzz(capsys, self.CAMPAIGN)
        assert code == cli.EXIT_COUNTEREXAMPLE
        assert printed == json.loads(report_json(report, False))

        graph, power = tmp_path / "g.json", tmp_path / "p.json"
        for record in report.counterexamples:
            target[0] = self.level_above(bp.graph_from_json(record["graph"]))
            graph.write_text(record["graph"])
            code, out = call(capsys, "power", "-k", "3", str(graph))
            assert code == cli.EXIT_OK
            power.write_text(out)
            code, out = call(capsys, "check-kchordal", "--kchordal-k", "6", str(power))
            assert code == cli.EXIT_PROPERTY_FAILS
            assert json.loads(out) == {"k": 3, "cycle": []}

        monkeypatch.undo()
        for record in report.counterexamples:
            graph.write_text(record["graph"])
            code, out = call(capsys, "power", "-k", "3", str(graph))
            assert code == cli.EXIT_OK
            power.write_text(out)
            code, out = call(capsys, "check-kchordal", "--kchordal-k", "6", str(power))
            assert code == cli.EXIT_OK and json.loads(out) == {"k_chordal": True, "k": 6}
        code, printed = reported_by_fuzz(capsys, self.CAMPAIGN)
        assert code == cli.EXIT_OK and printed["counterexamples"] == []
