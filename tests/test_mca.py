from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import bipower as bp
from bipower import mca
from bipower.errors import InputError, TheoremCounterexample
from bipower.mca import certificate_json, identity_arrangement, matrix_text, parse_matrix
from conftest import block_diagonal, random_nonzero_matrix, shuffled, shuffled_staircase, stored_under
from oracles import (
    backtrack_mca,
    check_nonzero_grid,
    column_runs,
    display,
    grid_matrix_power,
    grid_row_condition,
    labeling_exists,
    labels_closed,
    mca_exists,
    mca_exists_literal,
    quadrant_labels,
)

# 0/1 matrices with 1 <= n, m <= 4 and no zero row or column: the sum over
# n, m of sum_k (-1)^k C(n, k) (2^(n-k) - 1)^m.
NONZERO_MATRICES_UP_TO_4X4 = 46312


def certificate_in_range(cert, n: int, m: int) -> bool:
    """Every row run (a, b) names a column 1..m and every column run (c, d)
    a row 1..n, so each composite such as a(c(j)) is defined."""
    return all(1 <= v <= m for v in cert.a + cert.b) and all(1 <= v <= n for v in cert.c + cert.d)


def labels_agree(mat, cert) -> bool:
    """The certificate's zero labels, worked out when read, are those
    label_zeros gives for its row runs and those read off ``mat``'s display."""
    return cert.zero_labels == bp.label_zeros(mat, cert.a, cert.b) == quadrant_labels(display(mat))


def nonzero_matrices_up_to_4x4():
    """Every n x m matrix with n, m <= 4 and no zero row or column."""
    for n in range(1, 5):
        for m in range(1, 5):
            for bits in range(1 << (n * m)):
                entries = tuple(tuple(bits >> (m * i + j) & 1 for j in range(m)) for i in range(n))
                if all(map(any, entries)) and all(map(any, zip(*entries))):
                    yield entries


# Frozen expected R/C labelling of the 6x7 staircase fixture, row-major,
# derived by applying the labelling rule by hand.
STAIRCASE_LABELS = tuple(
    (i, j, mark)
    for i, row_marks in enumerate(
        [
            {3: "R", 4: "R", 5: "R", 6: "R", 7: "R"},
            {4: "R", 5: "R", 6: "R", 7: "R"},
            {1: "C", 6: "R", 7: "R"},
            {1: "C", 2: "C", 6: "R", 7: "R"},
            {1: "C", 2: "C", 3: "C", 7: "R"},
            {1: "C", 2: "C", 3: "C", 4: "C"},
        ],
        start=1,
    )
    for j, mark in sorted(row_marks.items())
)


def randint_nonzero_matrix(rng: random.Random, max_n: int, max_m: int) -> tuple[tuple[int, ...], ...]:
    """conftest.random_nonzero_matrix's cell-by-cell ``randint`` form."""
    while True:
        n, m = rng.randint(1, max_n), rng.randint(1, max_m)
        entries = tuple(tuple(rng.randint(0, 1) for _ in range(m)) for _ in range(n))
        if all(any(row) for row in entries) and all(
            any(entries[i][j] for i in range(n)) for j in range(m)
        ):
            return entries


def test_random_nonzero_matrix_draws_as_randint():
    for max_n, max_m in ((5, 5), (1, 3), (7, 2)):
        fast, slow = random.Random(2718), random.Random(2718)
        for _ in range(2000):
            assert random_nonzero_matrix(fast, max_n, max_m) == randint_nonzero_matrix(slow, max_n, max_m)
        assert fast.getstate() == slow.getstate()


class TestGraphMatrixBridge:
    def test_single_edge(self):
        g = bp.build_graph(1, 1, [(0, 0)])
        assert bp.graph_to_matrix(g).entries == ((1,),)

    def test_sample_pendant_row(self, sample_graph):
        mat = bp.graph_to_matrix(sample_graph)
        assert mat.entries[3] == (1, 0, 0, 0, 0)

    def test_edgeless(self):
        mat = bp.graph_to_matrix(bp.build_graph(2, 2, []))
        assert all(v == 0 for row in mat.entries for v in row)

    def test_matrix_to_graph_round_trip(self, staircase_matrix):
        assert bp.graph_to_matrix(bp.matrix_to_graph(staircase_matrix)) == staircase_matrix

    def test_entries_match_edges(self):
        rng = random.Random(61)
        for _ in range(200):
            g = bp.gen_random_bipartite(rng.getrandbits(63), rng.randint(0, 7), rng.randint(0, 7), rng.random())
            want = tuple(tuple(int(g.has_edge(i, j)) for j in range(g.y_count)) for i in range(g.x_count))
            assert bp.graph_to_matrix(g) == bp.ArrangedMatrix(want, tuple(range(g.x_count)), tuple(range(g.y_count)))

    def test_y_side_kept_without_x_vertex(self):
        g = bp.build_graph(0, 3, [])
        mat = bp.graph_to_matrix(g)
        assert (mat.n, mat.m) == (0, 3)
        assert matrix_text(mat) == "0 3\ncols: 0 1 2\n"
        assert parse_matrix(matrix_text(mat)) == mat
        assert bp.matrix_to_graph(parse_matrix(matrix_text(mat))) == g
        with pytest.raises(InputError, match="bijections of matching size"):
            parse_matrix("0 3\ncols: 0 1\n")

    def test_x_side_kept_without_y_vertex(self):
        g = bp.build_graph(3, 0, [])
        mat = bp.graph_to_matrix(g)
        assert (mat.n, mat.m) == (3, 0)
        assert matrix_text(mat) == "3 0\n\n\n\n"
        assert parse_matrix(matrix_text(mat)) == mat
        assert bp.matrix_to_graph(parse_matrix(matrix_text(mat))) == g
        assert parse_matrix("2 0\n\n\nrows: 1 0\n").row_perm == (1, 0)
        with pytest.raises(InputError, match="bijections of matching size"):
            parse_matrix("3 0\n\n\n\ncols: 0\n")

    @pytest.mark.parametrize(
        "text, found",
        [("3 0\n", 0), ("3 0\n\n\n", 2), ("\n\n\n3 0\n\nrows: 0 1 2\n", 1), (f"{10**12} 0\n", 0)],
    )
    def test_rows_without_columns_are_held_by_the_text(self, text, found):
        # The header alone must not set the size: each of the n rows is a line.
        n = text.split()[0]
        with pytest.raises(InputError, match=f"^matrix text: expected {n} entry rows, found {found}$"):
            parse_matrix(text)

    @pytest.mark.parametrize("text", ["0 3\n", f"0 {10**15}\n", f"\n0 {10**15}\nrows:\n"])
    def test_columns_without_rows_are_held_by_the_text(self, text):
        # The header alone must not set the size: each column is listed.
        with pytest.raises(InputError, match="^matrix text: a matrix with no row must list its columns"):
            parse_matrix(text)
        with pytest.raises(InputError, match="^permutations must be bijections of matching size$"):
            parse_matrix(text + "cols: 0 1\n")

    def test_empty_matrix_round_trip(self):
        mat = bp.graph_to_matrix(bp.build_graph(0, 0, []))
        assert matrix_text(mat) == "0 0\ncols:\n"
        assert parse_matrix(matrix_text(mat)) == mat == parse_matrix("0 0\n")


class TestEntries:
    @pytest.mark.parametrize(
        "entries",
        [((1, True), (0, 1.0)), ((True,),), ((1.0,),), ((0, False),), ((1, 2),), ((1, "1"),), ((1, [1]),)],
    )
    def test_only_the_ints_0_and_1(self, entries):
        with pytest.raises(InputError, match="matrix entries must be 0 or 1"):
            bp.ArrangedMatrix(entries, tuple(range(len(entries))), tuple(range(len(entries[0]))))

    def test_unequal_rows_refused(self):
        with pytest.raises(InputError, match="unequal lengths"):
            identity_arrangement(((1, 0), (1,)))


class TestDerivedMatrix:
    """A matrix under other permutations is built by the constructor, which
    checks the permutations against the shape; find_mca's arrangement shares
    the entries of the matrix it was given."""

    def test_refuses_non_bijections(self, staircase_matrix):
        rows, cols = tuple(range(6)), tuple(range(7))
        for row_perm, col_perm in [
            ((0, 0, 1, 2, 3, 4), cols), (rows[:5], cols), ((*rows, 6), cols),
            (rows, (1, 2, 3, 4, 5, 6, 7)), (rows, cols[:6]), (rows, (0, 1, 2, 3, 4, 5, 5)),
        ]:
            with pytest.raises(InputError, match="^permutations must be bijections of matching size$"):
                bp.ArrangedMatrix(staircase_matrix.entries, row_perm, col_perm)

    def test_keeps_the_shape_without_rows(self):
        # With no row, the column count is that of col_perm.
        rowless = bp.ArrangedMatrix((), (), (2, 0, 1))
        assert (rowless.n, rowless.m) == (0, 3)
        assert parse_matrix(matrix_text(rowless)) == rowless
        with pytest.raises(InputError, match="^permutations must be bijections of matching size$"):
            bp.ArrangedMatrix((), (), (0, 2))

    def test_find_mca_shares_the_entries(self, staircase_matrix):
        mat = identity_arrangement(shuffled(random.Random(3), staircase_matrix.entries))
        assert bp.find_mca(mat)[0].entries is mat.entries


class TestRowIntervals:
    def test_staircase_fixture(self, staircase_matrix):
        cert = bp.verify_mca(staircase_matrix)
        assert grid_row_condition(display(staircase_matrix)) == (cert.a, cert.b)
        assert cert.a == (1, 1, 2, 3, 4, 5)
        assert cert.b == (2, 3, 5, 5, 6, 7)

    def test_gap_gives_none(self):
        # The gap's column holds a one in the second row, which verify_mca needs.
        gapped = ((1, 0, 1), (0, 1, 0))
        assert grid_row_condition(gapped) is None
        assert bp.verify_mca(identity_arrangement(gapped)) is None

    def test_all_ones(self):
        cert = bp.verify_mca(identity_arrangement(((1, 1), (1, 1))))
        assert grid_row_condition(((1, 1), (1, 1))) == (cert.a, cert.b) == ((1, 1), (2, 2))

    def test_zero_row_is_an_error_not_a_verdict(self):
        with pytest.raises(InputError, match="row 2"):
            bp.verify_mca(identity_arrangement(((1, 1), (0, 0))))
        with pytest.raises(InputError, match="column 2"):
            bp.verify_mca(identity_arrangement(((1, 0), (1, 0))))


class TestVerifyMca:
    def test_staircase_certificate(self, staircase_matrix):
        cert = bp.verify_mca(staircase_matrix)
        assert cert.a == (1, 1, 2, 3, 4, 5)
        assert cert.b == (2, 3, 5, 5, 6, 7)
        assert cert.c == (1, 1, 2, 3, 3, 5, 6)
        assert cert.d == (2, 3, 4, 5, 6, 6, 6)

    def test_antidiagonal_fails_in_place(self):
        assert bp.verify_mca(identity_arrangement(((0, 1), (1, 0)))) is None

    def test_antidiagonal_passes_with_rows_swapped(self):
        mat = bp.ArrangedMatrix(((0, 1), (1, 0)), (1, 0), (0, 1))
        cert = bp.verify_mca(mat)
        assert cert is not None and cert.a == (1, 2)

    def test_displayed_view_drives_verdict(self, staircase_matrix):
        shuffled = bp.ArrangedMatrix(staircase_matrix.entries, (3, 0, 1, 2, 4, 5), tuple(range(7)))
        assert bp.verify_mca(shuffled) is None


class TestLabelZeros:
    def test_staircase_printed_pattern(self, staircase_matrix):
        cert = bp.verify_mca(staircase_matrix)
        assert cert.zero_labels == STAIRCASE_LABELS

    def test_all_ones_empty(self):
        mat = identity_arrangement(((1, 1), (1, 1)))
        assert bp.label_zeros(mat, (1, 1), (2, 2)) == ()

    def test_identity_staircase(self):
        mat = identity_arrangement(((1, 0), (0, 1)))
        assert bp.label_zeros(mat, (1, 2), (1, 2)) == ((1, 2, "R"), (2, 1, "C"))


class TestCertificateValue:
    """A certificate is its four run tuples, as a named tuple; its zero
    labels are a property worked out from a, b and the column count."""

    def test_repr_names_the_four_runs(self, staircase_matrix):
        cert = bp.verify_mca(staircase_matrix)
        assert repr(cert) == (
            "McaCertificate(a=(1, 1, 2, 3, 4, 5), b=(2, 3, 5, 5, 6, 7), "
            "c=(1, 1, 2, 3, 3, 5, 6), d=(2, 3, 4, 5, 6, 6, 6))"
        )

    @pytest.mark.parametrize("name", ["a", "b", "c", "d", "zero_labels", "extra"])
    def test_attributes_cannot_be_set(self, staircase_matrix, name):
        cert = bp.verify_mca(staircase_matrix)
        with pytest.raises(AttributeError):
            setattr(cert, name, ())
        assert cert == bp.verify_mca(staircase_matrix)

    def test_equal_runs_are_equal_certificates(self, staircase_matrix):
        rng = random.Random(72)
        for _ in range(200):
            entries = shuffled_staircase(rng, rng.randint(1, 8), rng.randint(1, 8))
            arranged, cert = bp.find_mca(identity_arrangement(entries))
            again = bp.verify_mca(arranged)
            assert again == cert and hash(again) == hash(cert)
            assert bp.McaCertificate(cert.a, cert.b, cert.c, cert.d) == cert
            assert hash(bp.McaCertificate(*cert)) == hash(cert)
        cert = bp.verify_mca(staircase_matrix)
        assert bp.McaCertificate(cert.a, cert.b, cert.c, cert.d[:-1] + (5,)) != cert

    def test_labels_are_not_worked_out_by_the_search_or_the_check(self, staircase_matrix, monkeypatch):
        def refuse(*args):
            raise AssertionError("zero labels worked out")

        monkeypatch.setattr(mca, "_zero_labels", refuse)
        arranged, cert = bp.find_mca(staircase_matrix)
        assert bp.verify_mca(arranged) == cert
        with pytest.raises(AssertionError, match="zero labels worked out"):
            cert.zero_labels


class TestFindMca:
    def test_trivial_cell(self):
        arranged, cert = bp.find_mca(identity_arrangement(((1,),)))
        assert arranged.row_perm == (0,) and cert.a == (1,)

    def test_shuffled_staircase_recovered(self, staircase_matrix):
        rng = random.Random(7)
        rp = list(range(6))
        cp = list(range(7))
        rng.shuffle(rp)
        rng.shuffle(cp)
        shuffled = identity_arrangement(
            tuple(tuple(staircase_matrix.entries[i][j] for j in cp) for i in rp)
        )
        found = bp.find_mca(shuffled)
        assert found is not None
        arranged, cert = found
        assert bp.verify_mca(arranged) == cert

    def test_six_cycle_has_no_arrangement(self):
        c6 = ((1, 1, 0), (0, 1, 1), (1, 0, 1))
        assert bp.find_mca(identity_arrangement(c6)) is None
        assert mca_exists(c6) is False

    def test_deterministic(self):
        entries = ((1, 1, 0), (1, 1, 1), (0, 1, 1))
        first = bp.find_mca(identity_arrangement(entries))
        second = bp.find_mca(identity_arrangement(entries))
        assert first == second

    def test_repeated_rows_do_not_blow_up(self):
        # A shuffled 12x12 staircase whose middle run fills 8 rows: trying
        # every order of the identical rows once took seconds here.
        runs = [(0, 3), (1, 5), (3, 8), (6, 10), (9, 11)] + [(3, 8)] * 7
        rng = random.Random(0)
        rows = [tuple(1 if a <= j <= b else 0 for j in range(12)) for a, b in runs]
        rng.shuffle(rows)
        cols = list(range(12))
        rng.shuffle(cols)
        entries = tuple(tuple(row[j] for j in cols) for row in rows)
        start = time.perf_counter()
        found = bp.find_mca(identity_arrangement(entries))
        elapsed = time.perf_counter() - start
        assert found is not None and bp.verify_mca(found[0]) == found[1]
        assert elapsed < 0.5, f"took {elapsed:.2f}s"

    def test_three_staircase_components_within_budget(self):
        rng = random.Random(12)
        blocks = [shuffled_staircase(rng, 4, 4, copies) for copies in (2, 3, 2)]
        entries = shuffled(rng, block_diagonal(blocks))
        start = time.perf_counter()
        found = bp.find_mca(identity_arrangement(entries))
        elapsed = time.perf_counter() - start
        assert found is not None and bp.verify_mca(found[0]) == found[1]
        assert elapsed < 0.1, f"took {elapsed:.3f}s"

    def test_no_arrangement_within_budget(self):
        # A 24-cycle: every row is a start, and each start's extension runs
        # around the cycle until the last row reopens the first column.
        rng = random.Random(13)
        entries = shuffled(rng, [tuple(int(j in (i, (i + 1) % 12)) for j in range(12)) for i in range(12)])
        start = time.perf_counter()
        found = bp.find_mca(identity_arrangement(entries))
        elapsed = time.perf_counter() - start
        assert found is None
        assert elapsed < 0.1, f"took {elapsed:.3f}s"

    def test_unverified_order_raises(self, staircase_matrix, monkeypatch):
        # The forced order is checked, not trusted: a certificate kernel that
        # rejects its columns must surface as a defect, not as "no arrangement".
        monkeypatch.setattr(bp.mca, "_certificate_runs", lambda lines, width: None)
        with pytest.raises(AssertionError, match="does not verify"):
            bp.find_mca(staircase_matrix)

    def test_no_size_cap(self):
        ones = identity_arrangement(tuple(tuple(1 for _ in range(13)) for _ in range(13)))
        found = bp.find_mca(ones)
        assert found is not None and bp.verify_mca(found[0]) == found[1]

    def test_24x24_shuffled_staircase_within_budget(self):
        rng = random.Random(24)
        entries = shuffled_staircase(rng, 24, 24, copies=3)
        start = time.perf_counter()
        found = bp.find_mca(identity_arrangement(entries))
        elapsed = time.perf_counter() - start
        assert found is not None and bp.verify_mca(found[0]) == found[1]
        assert elapsed < 0.1, f"took {elapsed:.3f}s"

    def test_certificate_verifies_beyond_the_backtracker(self):
        # 13x13 to 24x24, past what oracles.backtrack_mca can check: shuffled
        # staircases, and block-diagonal displays of two to four staircases
        # with up to two random rows added across the blocks, which may join
        # them or leave no arrangement.  The certificate find_mca builds on
        # the display's columns must be the one verify_mca builds on its
        # rows, and match the runs and labels read off the grid.
        rng = random.Random(1324)
        found = 0
        for t in range(300):
            added = 0
            if t % 2:
                n = rng.randint(13, 24)
                entries = shuffled_staircase(rng, n, rng.randint(13, 24), rng.randint(1, min(4, n)))
            else:
                parts = rng.randint(2, 4)
                heights = self._split(rng, rng.randint(13, 22), parts)
                widths = self._split(rng, rng.randint(13, 24), parts)
                blocks = [shuffled_staircase(rng, h, w, rng.randint(1, min(2, h))) for h, w in zip(heights, widths)]
                rows = list(block_diagonal(blocks))
                for _ in range(rng.randint(0, 2)):
                    extra = tuple(int(rng.random() < 0.2) for _ in rows[0])
                    if any(extra):
                        rows.append(extra)
                        added += 1
                entries = shuffled(rng, rows)
            result = bp.find_mca(identity_arrangement(entries))
            if result is None:
                assert added, entries
                continue
            arranged, cert = result
            grid = display(arranged)
            assert arranged.entries is entries
            assert bp.verify_mca(arranged) == cert, entries
            assert certificate_in_range(cert, arranged.n, arranged.m), entries
            assert (cert.a, cert.b) == grid_row_condition(grid), entries
            assert (cert.c, cert.d) == column_runs(grid), entries
            assert labels_agree(arranged, cert), entries
            found += 1
        assert 200 < found < 300, found

    @staticmethod
    def _split(rng: random.Random, total: int, parts: int) -> list[int]:
        """``total`` cut into ``parts`` positive sizes at random."""
        cuts = sorted(rng.sample(range(1, total), parts - 1))
        return [b - a for a, b in zip([0, *cuts], [*cuts, total])]

    def test_exhaustive_3x3_against_both_oracles(self):
        for bits in range(1 << 9):
            entries = tuple(tuple(bits >> (3 * i + j) & 1 for j in range(3)) for i in range(3))
            if not all(any(r) for r in entries):
                continue
            if not all(any(entries[i][j] for i in range(3)) for j in range(3)):
                continue
            found = bp.find_mca(identity_arrangement(entries))
            want = mca_exists(entries)
            assert (found is not None) == want == mca_exists_literal(entries)
            if found is not None:
                assert bp.verify_mca(found[0]) is not None

    def test_sampled_5x5_against_oracle(self):
        rng = random.Random(31337)
        for _ in range(400):
            entries = random_nonzero_matrix(rng, 5, 5)
            assert (bp.find_mca(identity_arrangement(entries)) is not None) == mca_exists(entries)


class TestFindMcaMatchesBacktracker:
    """find_mca builds each component's forced row order; oracles.backtrack_mca
    searches row orders.  Both must return the same arrangement and
    certificate, None included."""

    @staticmethod
    def _same(entries) -> bool:
        mat = identity_arrangement(entries)
        found = bp.find_mca(mat)
        assert found == backtrack_mca(mat), entries
        assert found is None or labels_agree(*found), entries
        return found is not None

    def test_every_small_matrix(self):
        # The budget is find_mca's; the backtracker, about twice as slow
        # here, is the reference and not what is timed.
        elapsed = 0.0
        results = []
        for entries in nonzero_matrices_up_to_4x4():
            mat = identity_arrangement(entries)
            start = time.perf_counter()
            found = bp.find_mca(mat)
            elapsed += time.perf_counter() - start
            assert found == backtrack_mca(mat), entries
            assert found is None or labels_agree(*found), entries
            results.append(found is not None)
        assert len(results) == NONZERO_MATRICES_UP_TO_4X4
        assert 0 < sum(results) < len(results)
        assert elapsed < 20, f"find_mca took {elapsed:.1f}s"

    def test_seeded_volume_up_to_8x8(self):
        # The sparse draws often split into several components.
        rng = random.Random(808)
        found = split = 0
        for _ in range(3000):
            n, m = rng.randint(1, 8), rng.randint(1, 8)
            p = rng.choice((0.15, 0.3, 0.5, 0.7))
            rows = [row for row in ([int(rng.random() < p) for _ in range(m)] for _ in range(n)) if any(row)]
            cols = [j for j in range(m) if any(row[j] for row in rows)]
            if not rows:
                continue
            entries = tuple(tuple(row[j] for j in cols) for row in rows)
            found += self._same(entries)
            split += not bp.is_connected(bp.matrix_to_graph(identity_arrangement(entries)))
        assert found > 1000 and split > 500

    def test_shuffled_staircases_with_repeated_rows(self):
        rng = random.Random(1212)
        for _ in range(800):
            n, m = rng.randint(1, 12), rng.randint(1, 12)
            assert self._same(shuffled_staircase(rng, n, m, rng.randint(1, min(4, n))))

    def test_shuffled_block_diagonal_staircases(self):
        # One to three staircases, some rows repeated, some random rows added
        # across the blocks, which may join them or leave no arrangement.
        rng = random.Random(333)
        found = 0
        for _ in range(1500):
            blocks = []
            for _ in range(rng.randint(1, 3)):
                n = rng.randint(1, 4)
                blocks.append(shuffled_staircase(rng, n, rng.randint(1, 4), rng.randint(1, min(2, n))))
            rows = list(block_diagonal(blocks))
            for _ in range(rng.randint(0, 2)):
                extra = tuple(int(rng.random() < 0.3) for _ in rows[0])
                if any(extra):
                    rows.append(extra)
            if rng.random() < 0.5:
                rows.append(rng.choice(rows))
            found += self._same(shuffled(rng, rows[:12]))
        assert 500 < found < 1500


class TestGreedyDistance:
    def test_staircase_adjacent(self, staircase_matrix):
        cert = bp.verify_mca(staircase_matrix)
        assert bp.greedy_distance(staircase_matrix, cert, 1, 1) == 1

    def test_staircase_far_corner(self, staircase_matrix):
        cert = bp.verify_mca(staircase_matrix)
        assert bp.greedy_distance(staircase_matrix, cert, 1, 7) == 5

    def test_all_ones_distance_one(self):
        mat = identity_arrangement(((1, 1), (1, 1)))
        cert = bp.verify_mca(mat)
        assert all(bp.greedy_distance(mat, cert, i, j) == 1 for i in (1, 2) for j in (1, 2))

    def test_matches_bfs_on_generated_staircases(self):
        rng = random.Random(20240809)
        for _ in range(120):
            mat = bp.gen_staircase_matrix(rng.getrandbits(63), rng.randint(1, 8), rng.randint(1, 8))
            cert = bp.verify_mca(mat)
            g = bp.matrix_to_graph(mat)
            for i in range(mat.n):
                table = bp.bfs_distance(g, bp.x_vertex(i))
                for j in range(mat.m):
                    want = table.y_dist[j]
                    if want is None:
                        with pytest.raises(InputError):
                            bp.greedy_distance(mat, cert, i + 1, j + 1)
                    else:
                        assert bp.greedy_distance(mat, cert, i + 1, j + 1) == want

    def test_out_of_range_position(self, staircase_matrix):
        cert = bp.verify_mca(staircase_matrix)
        with pytest.raises(InputError):
            bp.greedy_distance(staircase_matrix, cert, 0, 1)


class TestMatrixPower:
    def test_staircase_cubed_verifies(self, staircase_matrix):
        g = bp.matrix_to_graph(staircase_matrix)
        out = bp.matrix_power(g, (staircase_matrix.row_perm, staircase_matrix.col_perm), 3)
        assert bp.verify_mca(out) is not None

    def test_identity_power_is_input(self, staircase_matrix):
        g = bp.matrix_to_graph(staircase_matrix)
        out = bp.matrix_power(g, (staircase_matrix.row_perm, staircase_matrix.col_perm), 1)
        assert out == staircase_matrix

    def test_path_grows_row_intervals(self):
        # Path on 4+3 vertices: x1-y1-x2-y2-x3-y3-x4.
        entries = ((1, 0, 0), (1, 1, 0), (0, 1, 1), (0, 0, 1))
        mat = identity_arrangement(entries)
        g = bp.matrix_to_graph(mat)
        out = bp.matrix_power(g, (mat.row_perm, mat.col_perm), 3)
        assert out.entries == ((1, 1, 0), (1, 1, 1), (1, 1, 1), (0, 1, 1))
        before = bp.verify_mca(mat)
        after = bp.verify_mca(out)
        assert all(x <= y for x, y in zip(after.a, before.a))
        assert all(x >= y for x, y in zip(after.b, before.b))

    def test_precondition_checked(self):
        c6 = identity_arrangement(((1, 1, 0), (0, 1, 1), (1, 0, 1)))
        g = bp.matrix_to_graph(c6)
        with pytest.raises(InputError):
            bp.matrix_power(g, (c6.row_perm, c6.col_perm), 3)

    def test_arrangement_unchanged(self, staircase_matrix):
        shuffled_rows = (5, 4, 3, 2, 1, 0)
        shuffled_cols = (6, 5, 4, 3, 2, 1, 0)
        upside_down = bp.ArrangedMatrix(staircase_matrix.entries, shuffled_rows, shuffled_cols)
        assert bp.verify_mca(upside_down) is not None
        g = bp.matrix_to_graph(staircase_matrix)
        out = bp.matrix_power(g, (shuffled_rows, shuffled_cols), 5)
        assert out.row_perm == shuffled_rows and out.col_perm == shuffled_cols
        assert bp.verify_mca(out) is not None


class TestArrangementSurvivesPowerWithoutFixingIt:
    def test_find_mca_succeeds_on_powers_of_arrangeable_graphs(self):
        rng = random.Random(90210)
        checked = 0
        for _ in range(150):
            entries = random_nonzero_matrix(rng, 5, 5)
            if bp.find_mca(identity_arrangement(entries)) is None:
                continue
            g = bp.matrix_to_graph(identity_arrangement(entries))
            for k in (3, 5):
                power = bp.bipartite_power(g, k)
                pmat = bp.graph_to_matrix(power)
                assert bp.find_mca(pmat) is not None
                checked += 1
        assert checked > 50


@st.composite
def arranged_matrices(draw) -> bp.ArrangedMatrix:
    """Any 0/1 matrix up to 6x6, rowless and column-less shapes included,
    under any row and column permutations."""
    n, m = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    cells = st.lists(st.integers(0, 1), min_size=m, max_size=m)
    entries = tuple(tuple(draw(cells)) for _ in range(n))
    return bp.ArrangedMatrix(entries, tuple(draw(st.permutations(range(n)))), tuple(draw(st.permutations(range(m)))))


class TestMatrixText:
    @settings(max_examples=300, deadline=None)
    @given(arranged_matrices())
    def test_any_matrix_round_trips(self, mat):
        # What matrix_text writes parses back to an equal matrix and is
        # written again as the same bytes.
        text = matrix_text(mat)
        assert parse_matrix(text) == mat
        assert matrix_text(parse_matrix(text)) == text

    def test_round_trip_bytes(self, staircase_matrix):
        text = matrix_text(staircase_matrix)
        assert matrix_text(parse_matrix(text)) == text

    def test_permutations_round_trip(self, staircase_matrix):
        mat = bp.ArrangedMatrix(staircase_matrix.entries, (5, 4, 3, 2, 1, 0), (6, 5, 4, 3, 2, 1, 0))
        text = matrix_text(mat)
        assert "rows: 5 4 3 2 1 0" in text
        assert matrix_text(parse_matrix(text)) == text

    def test_canonical_texts_round_trip(self):
        # What matrix_text writes, one ASCII space between tokens, parses
        # back to the same matrix and the same bytes, rowless and columnless
        # matrices included.
        rng = random.Random(23)
        for _ in range(400):
            n, m = rng.randint(0, 5), rng.randint(0, 5)
            entries = tuple(tuple(rng.randint(0, 1) for _ in range(m)) for _ in range(n))
            mat = bp.ArrangedMatrix(entries, tuple(rng.sample(range(n), n)), tuple(rng.sample(range(m), m)))
            text = matrix_text(mat)
            assert parse_matrix(text) == mat
            assert matrix_text(parse_matrix(text)) == text

    def test_bad_char_cites_line(self):
        with pytest.raises(InputError, match="line 2"):
            parse_matrix("1 2\nab\n")

    @pytest.mark.parametrize(
        "text, line",
        [("2 2\n\n10\n0x\n", 4), ("2 2\n10\n\n0x\n", 4), ("\n2 2\n10\n  \n\n01x\n", 6), ("1 1\n\n\n2\n", 4)],
    )
    def test_bad_row_cites_its_line_in_the_text(self, text, line):
        # Blank lines are skipped, but they are counted in the line number.
        with pytest.raises(InputError, match=f"^matrix text line {line}: expected \\d+ characters"):
            parse_matrix(text)

    @pytest.mark.parametrize("text, line", [("\n\n2 x\n", 3), ("2 x\n", 1), (" \n\t\n1\n", 3)])
    def test_bad_header_cites_its_line_in_the_text(self, text, line):
        with pytest.raises(InputError, match=f"^matrix text line {line}: expected 'n m'"):
            parse_matrix(text)

    @pytest.mark.parametrize("key", ["rows", "cols"])
    @pytest.mark.parametrize("first, second", [("0 1", "1 0"), ("1 0", "0 1"), ("1 0", "1 0")])
    def test_repeated_trailer_cites_its_line_in_the_text(self, key, first, second):
        # Neither line may win over the other: the text is refused.
        text = f"2 2\n10\n01\n{key}: {first}\n\n{key}: {second}\n"
        with pytest.raises(InputError, match=f"^matrix text line 6: a second '{key}:' trailer"):
            parse_matrix(text)

    def test_certificate_json_shape(self, staircase_matrix):
        cert = bp.verify_mca(staircase_matrix)
        import json

        obj = json.loads(certificate_json(cert))
        assert obj["a"] == [1, 1, 2, 3, 4, 5]
        assert [1, 3, "R"] in obj["labels"]


class TestFormulationEquivalence:
    """verify_mca evaluates the row condition only, on the displayed rows as
    bitsets.  Its verdict and row runs are checked against the same
    condition read off the grid, and its column runs and zero labels against
    the column condition, the labelling formulation and the closure check
    in oracles.py, which read the grid too."""

    @staticmethod
    def _agree(mat):
        grid = display(mat)
        cert = bp.verify_mca(mat)
        runs = grid_row_condition(grid)
        cols = column_runs(grid)
        assert (cert is not None) == (runs is not None) == (cols is not None) == labeling_exists(grid), grid
        if cert is not None:
            assert certificate_in_range(cert, mat.n, mat.m), grid
            assert (cert.a, cert.b) == runs, grid
            assert (cert.c, cert.d) == cols, grid
            assert labels_agree(mat, cert), grid
            assert labels_closed(grid, cert.zero_labels), grid
        return cert

    def test_agrees_with_oracles_on_every_small_matrix(self):
        # Every n x m matrix with n, m <= 4 and no zero row or column, shown
        # as stored; any other display of one of them is another of them.
        start = time.perf_counter()
        checked = certified = 0
        for entries in nonzero_matrices_up_to_4x4():
            checked += 1
            certified += self._agree(identity_arrangement(entries)) is not None
        elapsed = time.perf_counter() - start
        assert checked == NONZERO_MATRICES_UP_TO_4X4
        assert 0 < certified < checked
        assert elapsed < 20, f"took {elapsed:.1f}s"

    def test_agrees_with_oracles_on_t4_distribution(self):
        # The arrangement campaign's inputs: staircases and their odd powers
        # under the unchanged arrangement.
        rng = random.Random(4747)
        for _ in range(1000):
            mat = bp.gen_staircase_matrix(rng.getrandbits(63), rng.randint(1, 8), rng.randint(1, 8))
            assert self._agree(mat) is not None
            g = bp.matrix_to_graph(mat)
            for k in (3, 5, 7):
                assert self._agree(bp.matrix_power(g, (mat.row_perm, mat.col_perm), k)) is not None

    def test_agrees_with_oracles_on_shuffled_arrangements_up_to_12x12(self):
        # Shuffled staircases shown under the arrangement find_mca gives
        # them, with up to two neighbouring rows or columns then swapped:
        # some swaps keep the display monotone consecutive, most break it.
        rng = random.Random(1213)
        certified = 0
        for _ in range(400):
            n, m = rng.randint(1, 12), rng.randint(1, 12)
            arranged, _ = bp.find_mca(identity_arrangement(shuffled_staircase(rng, n, m, rng.randint(1, min(3, n)))))
            rows, cols = list(arranged.row_perm), list(arranged.col_perm)
            for _ in range(rng.randint(0, 2)):
                line = rows if rng.random() < 0.5 else cols
                if len(line) > 1:
                    p = rng.randrange(len(line) - 1)
                    line[p], line[p + 1] = line[p + 1], line[p]
            certified += self._agree(bp.ArrangedMatrix(arranged.entries, tuple(rows), tuple(cols))) is not None
        assert 100 < certified < 300

    def test_zero_lines_refused_as_on_the_grid(self):
        # Every 3x3 matrix with an all-zero row or column, under random
        # permutations: the message names the first such row, or else the
        # first such column, of the display.
        rng = random.Random(37)
        refused = 0
        for bits in range(1 << 9):
            entries = tuple(tuple(bits >> (3 * i + j) & 1 for j in range(3)) for i in range(3))
            rows, cols = [0, 1, 2], [0, 1, 2]
            rng.shuffle(rows)
            rng.shuffle(cols)
            mat = bp.ArrangedMatrix(entries, tuple(rows), tuple(cols))
            try:
                check_nonzero_grid(display(mat))
                continue
            except InputError as exc:
                want = str(exc)
            refused += 1
            for check in (bp.verify_mca, lambda mat: mca._arrangement_holds(bp.matrix_to_graph(mat), mat)):
                with pytest.raises(InputError) as got:
                    check(mat)
                assert str(got.value) == want
        assert refused > 200
        for empty in (bp.ArrangedMatrix((), (), ()), bp.ArrangedMatrix(((), ()), (0, 1), ())):
            with pytest.raises(InputError, match="at least one row and one column"):
                bp.verify_mca(empty)

    def test_row_condition_implies_column_condition(self):
        rng = random.Random(556)
        hits = 0
        for _ in range(300):
            entries = random_nonzero_matrix(rng, 5, 5)
            mat = identity_arrangement(entries)
            grid = display(mat)
            if grid_row_condition(grid) is not None:
                hits += 1
                cert = bp.verify_mca(mat)
                assert cert is not None and column_runs(grid) == (cert.c, cert.d)
        assert hits > 0


class TestPowerCheckMatchesGridOracle:
    """The t4 power check reads the power's row bitsets in display row
    order (mca._check_matrix_power): as they are under the identity column
    order, and through one column shift table under any other;
    oracles.grid_matrix_power builds the power's 0/1 grid and checks its
    display.  Both must give the same verdict and the same counterexample
    record, and matrix_power must return the grid the oracle builds."""

    @staticmethod
    def _outcome(check, *args):
        try:
            check(*args)
        except TheoremCounterexample as exc:
            return str(exc), exc.report
        except InputError as exc:
            return str(exc)
        return None

    def test_random_graphs_under_random_arrangements(self):
        rng = random.Random(4242)
        held = broke = refused = 0
        for t in range(1500):
            if t % 2:
                # A shuffled staircase under the arrangement find_mca gives it,
                # with a neighbouring row pair maybe swapped.
                entries = shuffled_staircase(rng, rng.randint(1, 8), rng.randint(1, 8))
                arranged, _ = bp.find_mca(identity_arrangement(entries))
                rows, cols = list(arranged.row_perm), list(arranged.col_perm)
                if len(rows) > 1 and rng.random() < 0.5:
                    p = rng.randrange(len(rows) - 1)
                    rows[p], rows[p + 1] = rows[p + 1], rows[p]
                g = bp.matrix_to_graph(arranged)
            else:
                g = bp.gen_random_bipartite(rng.getrandbits(63), rng.randint(1, 8), rng.randint(1, 8), rng.random())
                rows, cols = list(range(g.x_count)), list(range(g.y_count))
                rng.shuffle(rows)
                rng.shuffle(cols)
            base = bp.ArrangedMatrix(bp.graph_to_matrix(g).entries, tuple(rows), tuple(cols))
            verifies = self._outcome(grid_matrix_power, g, base, 1) is None
            for k in (1, 3, 5, 7):
                want = self._outcome(grid_matrix_power, g, base, k)
                assert self._outcome(mca._check_matrix_power, g, base, k) == want, (base, k)
                held += want is None
                broke += isinstance(want, tuple)
                refused += isinstance(want, str)
                if verifies:
                    assert bp.matrix_power(g, (rows, cols), k) == grid_matrix_power(g, base, k)
                else:
                    with pytest.raises(InputError):
                        bp.matrix_power(g, (rows, cols), k)
        assert held > 3000 and broke > 400 and refused > 1000, (held, broke, refused)


def staircases(n: int, m: int):
    """Every n x m display whose rows are runs [a_i, b_i] with a_1 = 1,
    b_n = m, a and b non-decreasing and a_{i+1} <= b_i + 1: every monotone
    consecutive display with no zero row or column."""
    runs = [[(1, b)] for b in range(1, m + 1)]
    for _ in range(n - 1):
        runs = [
            [*r, (a, b)]
            for r in runs
            for a in range(r[-1][0], min(r[-1][1] + 1, m) + 1)
            for b in range(max(a, r[-1][1]), m + 1)
        ]
    for r in runs:
        if r[-1][1] == m:
            yield tuple((0,) * (a - 1) + (1,) * (b - a + 1) + (0,) * (m - b) for a, b in r)


class TestIdentityOrderPath:
    """``_arrangement_holds`` reads a row bitset as its displayed row when
    the column order is the identity, as in every t4 trial, and shifts each
    column into place under any other order.  Both paths must give the
    verdict of the same display."""

    @staticmethod
    def verdicts(display, rng, shifted: list[int]) -> tuple[bool, bool]:
        """The identity path's and the shift-table path's verdicts on
        ``display``; ``shifted`` counts the shift tables built."""
        plain, stored = identity_arrangement(display), stored_under(display, rng)
        plain_graph, stored_graph = bp.matrix_to_graph(plain), bp.matrix_to_graph(stored)
        before = len(shifted)
        on_identity = mca._arrangement_holds(plain_graph, plain)
        assert len(shifted) == before
        on_shifts = mca._arrangement_holds(stored_graph, stored)
        assert len(shifted) == before + (len(display[0]) > 1)
        return on_identity, on_shifts

    @pytest.fixture
    def shifted(self, monkeypatch) -> list[int]:
        tables: list[int] = []
        original = mca._column_shifts

        def counted(col_perm):
            tables.append(len(col_perm))
            return original(col_perm)

        monkeypatch.setattr(mca, "_column_shifts", counted)
        return tables

    def test_every_staircase_up_to_5x5(self, shifted):
        rng = random.Random(5150)
        count = 0
        for n in range(1, 6):
            for m in range(1, 6):
                for display in staircases(n, m):
                    assert self.verdicts(display, rng, shifted) == (True, True), display
                    assert grid_row_condition(display) is not None
                    count += 1
        assert count > 5000

    def test_seeded_volume_of_shuffled_staircases(self, shifted):
        rng = random.Random(6060)
        seen = {True: 0, False: 0}
        for _ in range(1500):
            display = shuffled_staircase(rng, rng.randint(2, 8), rng.randint(1, 8), rng.randint(1, 2))
            on_identity, on_shifts = self.verdicts(display, rng, shifted)
            assert on_identity == on_shifts == (grid_row_condition(display) is not None), display
            assert on_identity == (bp.verify_mca(identity_arrangement(display)) is not None)
            seen[on_identity] += 1
        assert seen[True] > 100 and seen[False] > 500, seen


class TestArrangementInvariances:
    @staticmethod
    def volume(seed: int, count: int):
        """Shuffled staircases, which have an MCA, and random matrices with
        no zero line, most of which have none."""
        rng = random.Random(seed)
        for t in range(count):
            if t % 2:
                yield rng, shuffled_staircase(rng, rng.randint(2, 7), rng.randint(1, 7), rng.randint(1, 2))
            else:
                yield rng, random_nonzero_matrix(rng, 6, 6)

    def test_reversing_both_orders_keeps_an_mca(self):
        for n in range(1, 6):
            for m in range(1, 6):
                for display in staircases(n, m):
                    upside_down = bp.ArrangedMatrix(display, tuple(range(n))[::-1], tuple(range(m))[::-1])
                    assert bp.verify_mca(upside_down) is not None, display
        found = 0
        for _, entries in self.volume(7007, 600):
            result = bp.find_mca(identity_arrangement(entries))
            if result is not None:
                arranged, _ = result
                reversed_ = bp.ArrangedMatrix(entries, arranged.row_perm[::-1], arranged.col_perm[::-1])
                assert bp.verify_mca(reversed_) is not None, entries
                found += 1
        assert found > 300

    def test_existence_ignores_labels_and_transposition(self):
        seen = {True: 0, False: 0}
        for rng, entries in self.volume(8008, 1200):
            has = bp.find_mca(identity_arrangement(entries)) is not None
            rows = list(entries)
            rng.shuffle(rows)
            cols = list(range(len(entries[0])))
            rng.shuffle(cols)
            for other in (tuple(rows), tuple(tuple(row[j] for j in cols) for row in entries), tuple(zip(*entries))):
                assert (bp.find_mca(identity_arrangement(other)) is not None) == has, entries
            seen[has] += 1
        assert seen[True] > 400 and seen[False] > 200, seen
