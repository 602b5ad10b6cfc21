from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

import bipower as bp
from bipower import intervals
from bipower.errors import InputError, TheoremCounterexample
from bipower.intervals import (
    Interval,
    IntervalRepresentation,
    intervals_tsv,
    parse_intervals_tsv,
)
from oracles import (
    intersects,
    pairwise_intervals_to_graph,
    pairwise_power_representation,
    pairwise_reach_lefts,
    pairwise_verify_representation,
)


class TestInterval:
    def test_touching_endpoints_intersect(self):
        assert intersects(Interval(4, 8), Interval(8, 9))

    def test_disjoint(self):
        assert not intersects(Interval(0, 1), Interval(2, 3))

    def test_inverted_rejected(self):
        with pytest.raises(InputError):
            Interval(3, 2)


class TestVerifyRepresentation:
    def test_sample_is_valid(self, sample_graph, sample_rep):
        assert bp.verify_representation(sample_graph, sample_rep)

    def test_moved_pendant_breaks_an_edge(self, sample_graph, sample_rep):
        # x4 must keep touching y1 = [2,5]; [6,6] leaves that edge unrepresented.
        broken = IntervalRepresentation(
            sample_rep.x_intervals[:3] + (Interval(6, 6),) + sample_rep.x_intervals[4:],
            sample_rep.y_intervals,
        )
        assert not bp.verify_representation(sample_graph, broken)

    def test_edgeless_with_disjoint_intervals(self):
        g = bp.build_graph(1, 1, [])
        rep = IntervalRepresentation((Interval(0, 1),), (Interval(2, 3),))
        assert bp.verify_representation(g, rep)

    def test_size_mismatch(self, sample_graph):
        with pytest.raises(InputError):
            bp.verify_representation(sample_graph, IntervalRepresentation((), ()))


class TestRawRightEndpoint:
    def test_sample_invalid_interval(self, sample_graph, sample_rep):
        out = bp.raw_right_endpoint(sample_graph, sample_rep, bp.y_vertex(2), 3)
        assert out.value == 7
        assert out.valid is False
        assert sample_rep.y_intervals[2].left == 8  # the unusable [8, 7]

    def test_sample_x1_neighbours(self, sample_graph, sample_rep):
        out = bp.raw_right_endpoint(sample_graph, sample_rep, bp.x_vertex(0), 1)
        assert out.value == 8 and out.valid

    def test_single_edge(self):
        g = bp.build_graph(1, 1, [(0, 0)])
        rep = IntervalRepresentation((Interval(0, 1),), (Interval(1, 2),))
        out = bp.raw_right_endpoint(g, rep, bp.x_vertex(0), 1)
        assert out.value == 1 and out.valid

    def test_no_vertex_in_range(self):
        g = bp.build_graph(1, 1, [])
        rep = IntervalRepresentation((Interval(0, 1),), (Interval(2, 3),))
        with pytest.raises(InputError):
            bp.raw_right_endpoint(g, rep, bp.x_vertex(0), 1)

    def test_even_k_rejected(self, sample_graph, sample_rep):
        with pytest.raises(InputError):
            bp.raw_right_endpoint(sample_graph, sample_rep, bp.x_vertex(0), 2)


class TestPowerRepresentation:
    def test_sample_cube(self, sample_graph, sample_rep):
        out = bp.power_representation(sample_graph, sample_rep, 3)
        assert [(iv.left, iv.right) for iv in out.x_intervals] == [
            (4, 9), (2, 9), (5, 9), (3, 9), (6, 9), (7, 9)]
        assert [(iv.left, iv.right) for iv in out.y_intervals] == [
            (2, 7), (5, 7), (8, 8), (0, 7), (9, 9)]
        assert bp.verify_representation(bp.bipartite_power(sample_graph, 3), out)

    def test_single_edge_clamp(self):
        g = bp.build_graph(1, 1, [(0, 0)])
        rep = IntervalRepresentation((Interval(0, 1),), (Interval(1, 2),))
        out = bp.power_representation(g, rep, 1)
        assert (out.x_intervals[0].left, out.x_intervals[0].right) == (0, 1)
        assert (out.y_intervals[0].left, out.y_intervals[0].right) == (1, 1)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_identity_power_reproduces_adjacency(self, seed):
        rep = bp.random_interval_representation(seed, 6, 6, 10)
        g = bp.intervals_to_graph(rep)
        if not bp.is_connected(g):
            return
        out = bp.power_representation(g, rep, 1)
        assert bp.verify_representation(g, out)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32), k=st.sampled_from([3, 5]))
    def test_odd_powers_validate(self, seed, k):
        rep = bp.random_interval_representation(seed, 5, 5, 9)
        g = bp.intervals_to_graph(rep)
        if not bp.is_connected(g):
            return
        out = bp.power_representation(g, rep, k)
        assert bp.verify_representation(bp.bipartite_power(g, k), out)

    def test_disconnected_rejected(self):
        g = bp.build_graph(2, 2, [(0, 0), (1, 1)])
        rep = IntervalRepresentation(
            (Interval(0, 1), Interval(5, 6)), (Interval(1, 2), Interval(6, 7))
        )
        with pytest.raises(InputError, match="connected"):
            bp.power_representation(g, rep, 1)

    @pytest.mark.parametrize("nx, ny", [(0, 1), (1, 0)])
    def test_one_sided_graph_rejected(self, nx, ny):
        # A lone vertex is connected but has nothing opposite to reach.
        g = bp.build_graph(nx, ny, [])
        rep = IntervalRepresentation((Interval(0, 3),) * nx, (Interval(0, 3),) * ny)
        with pytest.raises(InputError, match="no opposite-side vertex"):
            bp.power_representation(g, rep, 1)

    def test_invalid_rep_rejected(self, sample_graph):
        bad = IntervalRepresentation(
            tuple(Interval(0, 0) for _ in range(6)), tuple(Interval(5, 6) for _ in range(5))
        )
        with pytest.raises(InputError):
            bp.power_representation(sample_graph, bad, 1)


class TestMirroredRepresentation:
    """Mirroring a representation, [l, r] to [-r, -l], keeps every meeting
    pair, so it realises the same graph and is a second valid input to the
    construction, which keeps left endpoints and reaches rightwards: the
    mirror meets it from the other end of the line."""

    @staticmethod
    def mirror(rep: IntervalRepresentation) -> IntervalRepresentation:
        def flip(side: tuple[Interval, ...]) -> tuple[Interval, ...]:
            return tuple(Interval(-iv.right, -iv.left) for iv in side)

        return IntervalRepresentation(flip(rep.x_intervals), flip(rep.y_intervals))

    def test_seeded_representations_and_their_mirrors(self):
        rng = random.Random(1010)
        checks = 0
        for _ in range(400):
            rep = bp.random_interval_representation(
                rng.getrandbits(63), rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 12))
            mirrored = self.mirror(rep)
            g = bp.intervals_to_graph(rep)
            assert bp.intervals_to_graph(mirrored) == g
            if not bp.is_connected(g):
                continue
            # Every odd k up to the ladder's top, as a t3 trial checks.
            top = 3
            while bp.bipartite_power(g, top - 2) is not bp.bipartite_power(g, top):
                top += 2
            for k in range(1, top + 1, 2):
                power = bp.bipartite_power(g, k)
                for each in (rep, mirrored):
                    intervals._check_power_representation(g, each, k)
                    assert bp.verify_representation(power, bp.power_representation(g, each, k))
                    checks += 1
        assert checks > 1000


class TestIntervalsToGraph:
    def test_sample_round_trip(self, sample_graph, sample_rep):
        assert bp.intervals_to_graph(sample_rep) == sample_graph

    def test_disjoint_gives_edgeless(self):
        rep = IntervalRepresentation((Interval(0, 1),), (Interval(5, 6),))
        assert bp.intervals_to_graph(rep).edge_count() == 0

    def test_identical_gives_complete(self):
        rep = IntervalRepresentation(
            (Interval(0, 1), Interval(0, 1)), (Interval(0, 1), Interval(0, 1))
        )
        assert bp.intervals_to_graph(rep).edge_count() == 4

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32), nx=st.integers(0, 5), ny=st.integers(0, 5), span=st.integers(1, 12))
    def test_any_representation_round_trips(self, seed, nx, ny, span):
        rep = bp.random_interval_representation(seed, nx, ny, span)
        assert bp.verify_representation(bp.intervals_to_graph(rep), rep)


class TestRandomRepresentation:
    def test_seed_stable(self):
        assert bp.random_interval_representation(9, 4, 4, 7) == bp.random_interval_representation(9, 4, 4, 7)

    def test_empty_side(self):
        rep = bp.random_interval_representation(1, 0, 3, 5)
        assert rep.x_intervals == ()

    def test_normalized(self):
        rep = bp.random_interval_representation(3, 8, 8, 4)
        assert all(iv.left <= iv.right for iv in rep.x_intervals + rep.y_intervals)

    def test_span_validated(self):
        with pytest.raises(InputError):
            bp.random_interval_representation(0, 1, 1, 0)

    @pytest.mark.parametrize("nx, ny", [(-1, 2), (2, -1)])
    def test_negative_side_refused(self, nx, ny):
        with pytest.raises(InputError, match="non-negative"):
            bp.random_interval_representation(0, nx, ny, 5)


# Labels under the graph's label rule: any text without a tab, CR or LF.
tsv_labels = st.text(st.characters(blacklist_characters="\t\r\n"), max_size=4)


@st.composite
def interval_values(draw):
    """A representation with its X and Y labels, unique across both sides."""
    labels = draw(st.lists(tsv_labels, unique=True, max_size=10))
    nx = draw(st.integers(0, len(labels)))
    ends = st.tuples(st.integers(-10**12, 10**12), st.integers(0, 10**3)).map(lambda p: Interval(p[0], p[0] + p[1]))
    intervals = draw(st.lists(ends, min_size=len(labels), max_size=len(labels)))
    rep = IntervalRepresentation(tuple(intervals[:nx]), tuple(intervals[nx:]))
    return rep, tuple(labels[:nx]), tuple(labels[nx:])


@st.composite
def decorated_texts(draw, value) -> str:
    """An interval TSV that spells ``value`` otherwise than canonically: the
    two sides' lines interleaved, with comments and blank lines between them
    and LF or CRLF line ends, the last perhaps missing."""
    rep, x_labels, y_labels = value
    xs = [f"X\t{label}\t{iv.left}\t{iv.right}" for label, iv in zip(x_labels, rep.x_intervals)]
    ys = [f"Y\t{label}\t{iv.left}\t{iv.right}" for label, iv in zip(y_labels, rep.y_intervals)]
    lines = []
    while xs or ys:
        kind = draw(st.sampled_from(("entry", "entry", "comment", "blank")))
        if kind == "comment":
            lines.append("#" + draw(tsv_labels))
        elif kind == "blank":
            lines.append(draw(st.text(" \t", max_size=3)))
        else:
            side = xs if not ys or xs and draw(st.booleans()) else ys
            lines.append(side.pop(0))
    ends = draw(st.lists(st.sampled_from(("\n", "\r\n")), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text[: -len(ends[-1])] if lines and draw(st.booleans()) else text


class TestIntervalTsv:
    def test_canonical_round_trip(self, sample_graph, sample_rep):
        text = intervals_tsv(sample_rep, sample_graph.x_labels, sample_graph.y_labels)
        rep, x_labels, y_labels = parse_intervals_tsv(text)
        assert rep == sample_rep
        assert x_labels == sample_graph.x_labels

    @settings(max_examples=200, deadline=None)
    @given(interval_values())
    def test_canonical_texts_round_trip_byte_for_byte(self, value):
        text = intervals_tsv(*value)
        assert parse_intervals_tsv(text) == value
        assert intervals_tsv(*parse_intervals_tsv(text)) == text

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_every_accepted_text_serializes_to_the_same_value(self, data):
        value = data.draw(interval_values())
        text = data.draw(decorated_texts(value))
        assert parse_intervals_tsv(text) == value
        assert parse_intervals_tsv(intervals_tsv(*parse_intervals_tsv(text))) == value

    def test_comments_and_blank_lines_skipped(self):
        plain = "X\ta\t0\t1\nY\tb\t1\t2\nX\tc\t3\t4\n"
        noted = "# intervals for the 2+1 toy\n\nX\ta\t0\t1\n#X\tz\t0\t1\n  \nY\tb\t1\t2\n# note\nX\tc\t3\t4\n\n"
        parsed = parse_intervals_tsv(noted)
        assert parsed == parse_intervals_tsv(plain)
        assert parsed[1:] == (("a", "c"), ("b",))

    def test_bad_side_rejected(self):
        with pytest.raises(InputError, match="line 1"):
            parse_intervals_tsv("Z\ta\t0\t1\n")

    def test_bad_field_count_cites_line(self):
        with pytest.raises(InputError, match="line 2"):
            parse_intervals_tsv("X\ta\t0\t1\nX\tb\t0\n")

    def test_duplicate_label_rejected(self):
        with pytest.raises(InputError, match="duplicate"):
            parse_intervals_tsv("X\ta\t0\t1\nX\ta\t2\t3\n")

    def test_label_on_both_sides_rejected(self):
        with pytest.raises(InputError, match="line 3: label 'a' is used on both sides"):
            parse_intervals_tsv("X\ta\t0\t1\nY\tb\t0\t1\nY\ta\t2\t3\n")

    def test_label_holding_a_lone_cr_rejected(self):
        # The graph label rule: a tab splits a field and LF ends a line, so
        # only a lone CR can reach a label, and the line is refused for it.
        with pytest.raises(InputError, match=r"^interval TSV line 1: label 'a\\rb' holds a tab, CR or LF$"):
            parse_intervals_tsv("X\ta\rb\t0\t1\nY\ty1\t0\t1\n")
        with pytest.raises(InputError, match="^interval TSV line 3: label"):
            parse_intervals_tsv("X\ta\t0\t1\r\n# note\nY\t\rb\t0\t1\n")


class TestPowerCheckMatchesPairwiseOracle:
    """The t3 power check reads the power's X rows only: right endpoints
    from groups of left endpoints, and each X vertex's intersecting
    intervals as one bitset (intervals._check_power_representation).  The
    oracles loop over every opposite vertex and every cross pair with
    oracles.intersects.  Endpoints, verdicts and records must be equal."""

    @staticmethod
    def _outcome(check, g, rep, k):
        try:
            return check(g, rep, k)
        except TheoremCounterexample as exc:
            return str(exc), exc.report
        except InputError as exc:
            return str(exc)

    @staticmethod
    def _oracle_spans(g, rep, k):
        out = pairwise_power_representation(g, rep, k)
        return [(iv.left, iv.right) for iv in out.x_intervals], [(iv.left, iv.right) for iv in out.y_intervals]

    def _same(self, g, rep, k):
        want = self._outcome(self._oracle_spans, g, rep, k)
        assert self._outcome(intervals._check_power_representation, g, rep, k) == want, (g, rep, k)
        power = bp.bipartite_power(g, k)
        reach = intervals._reach_lefts(power, rep)
        assert reach == pairwise_reach_lefts(power, rep)
        for v in g.vertices():
            value = reach[v.side is bp.Side.Y][v.index]
            if value is None:
                with pytest.raises(InputError, match="no opposite-side vertex"):
                    bp.raw_right_endpoint(g, rep, v, k)
            else:
                assert bp.raw_right_endpoint(g, rep, v, k).value == value
        return want

    def test_seeded_valid_representations(self):
        rng = random.Random(303)
        held = 0
        for _ in range(500):
            rep = bp.random_interval_representation(
                rng.getrandbits(63), rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 12))
            g = bp.intervals_to_graph(rep)
            for k in (1, 3, 5, 7, 9):
                held += isinstance(self._same(g, rep, k)[0], list)
                if bp.is_connected(g):
                    assert bp.power_representation(g, rep, k) == pairwise_power_representation(g, rep, k)
        assert held > 1000

    def test_mismatched_pairs_fail_alike(self):
        # A representation checked against the graph of another one of the
        # same sizes: most powers then disagree with the new intervals, and
        # a vertex may have no opposite vertex within distance k.
        rng = random.Random(404)
        broke = refused = 0
        for _ in range(500):
            nx, ny, span = rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 12)
            rep = bp.random_interval_representation(rng.getrandbits(63), nx, ny, span)
            g = bp.intervals_to_graph(bp.random_interval_representation(rng.getrandbits(63), nx, ny, span))
            for k in (1, 3, 5):
                want = self._same(g, rep, k)
                broke += isinstance(want, tuple) and isinstance(want[1], dict)
                refused += isinstance(want, str)
        assert broke > 150 and refused > 200, (broke, refused)


class TestMeetingRowsMatchPairwiseOracle:
    """Verification, building and the power check share one kernel
    (intervals._meeting_rows).  The oracles test every cross pair with
    oracles.intersects and build graphs from edge lists: the graphs, labels
    included, and the verdicts must be equal."""

    @staticmethod
    def _same(rep):
        g = bp.intervals_to_graph(rep)
        assert g == pairwise_intervals_to_graph(rep), rep
        assert bp.verify_representation(g, rep)
        return g

    @staticmethod
    def _flips_rejected(g, rep, cells):
        # A graph one edge away from the realized one is never realized.
        for i, j in cells:
            rows = list(g.x_adj)
            rows[i] ^= 1 << j
            flipped = bp.BipartiteGraph(g.x_count, g.y_count, tuple(rows), g.x_labels, g.y_labels)
            assert not pairwise_verify_representation(flipped, rep)
            assert not bp.verify_representation(flipped, rep), (rep, i, j)

    def test_every_small_representation(self):
        # Every interval with endpoints in [0, 3], on up to 2+2 vertices.
        spans = [Interval(a, b) for a in range(4) for b in range(a, 4)]
        sides = [()] + [(iv,) for iv in spans] + [(a, b) for a in spans for b in spans]
        for xs in sides:
            for ys in sides:
                rep = IntervalRepresentation(xs, ys)
                cells = [(i, j) for i in range(len(xs)) for j in range(len(ys))]
                self._flips_rejected(self._same(rep), rep, cells)

    def test_seeded_volume_with_ties_and_empty_sides(self):
        rng = random.Random(1414)
        ties = empty = 0
        for _ in range(400):
            nx, ny = rng.randint(0, 16), rng.randint(0, 16)
            # A small span forces equal and touching endpoints.
            rep = bp.random_interval_representation(rng.getrandbits(63), nx, ny, rng.choice((1, 2, 4, 8, 40)))
            g = self._same(rep)
            cells = [(i, j) for i in range(nx) for j in range(ny)]
            self._flips_rejected(g, rep, rng.sample(cells, min(len(cells), 12)))
            ends = {iv.left for iv in rep.y_intervals} | {iv.right for iv in rep.y_intervals}
            ties += any(iv.left in ends or iv.right in ends for iv in rep.x_intervals)
            empty += not nx or not ny
        assert ties > 300 and empty > 10, (ties, empty)
