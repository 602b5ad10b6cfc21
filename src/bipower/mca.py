"""Biadjacency matrices and monotone consecutive arrangements.

A 0/1 matrix with no zero row or column has a monotone consecutive
arrangement (MCA) when independent row and column permutations make the
ones of each row consecutive, with both the initial columns a_i and the
final columns b_i non-decreasing down the rows.  For one fixed display this
row condition is equivalent to the transposed column condition on c_j / d_j
and to an R/C labelling of zeros in which everything above-and-right of an
R is an R and everything below-and-left of a C is a C.  Only the row
condition is evaluated, by one kernel on the displayed rows held as integer
bitsets (``_row_condition``), which records each row's run in the same
pass, and one certificate kernel on a display's lines held as bitsets
(``_certificate_runs``) adds the runs across them: ``verify_mca`` runs it
on the displayed rows, ``find_mca`` on the displayed columns it already
holds, and the power check of ``matrix_power`` and of the t4 campaign
reads a power's row bitsets directly.  A certificate holds the four runs
alone; its R/C labels follow from the row runs and the column count, and
are worked out when they are read.  The row condition on a 0/1 grid and
the other two formulations are kept as independent oracles in the test
suite.

``find_mca`` builds each component's forced row order instead of searching:
the matrices with an MCA are those of proper interval bigraphs (Hell &
Huang, J. Graph Theory 46, 2004), and a connected one has one row order up
to reversal and identical rows, as the strong ordering of a bipartite
permutation graph (Spinrad, Brandstädt & Stewart, Discrete Appl. Math. 18,
1987).  It works on the rows as bitsets throughout: each greedy step is one
scan of the unplaced rows, and the column order comes from one pass over
the placed rows.  The arrangement it returns is built by the constructor
on the same entries, and is certified on its displayed columns, as the row
condition of the transpose, before it is returned.

Display coordinates in certificates are 1-based; storage is 0-based.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import reduce
from itertools import chain, compress
from operator import or_
from typing import Iterable, NamedTuple, Sequence

from .core import BipartiteGraph, _graph_from_rows, _read_int, _text_lines, _union, bipartite_power
from .errors import InputError, TheoremCounterexample


_INT = frozenset((int,))
_BITS = frozenset((0, 1))


@dataclass(frozen=True)
class ArrangedMatrix:
    """0/1 grid plus row/column permutations (display position -> original index).

    The column count is that of the rows, or, with no row, ``len(col_perm)``.
    Every entry must be the int 0 or 1; a bool or a float is refused.
    """

    entries: tuple[tuple[int, ...], ...]
    row_perm: tuple[int, ...]
    col_perm: tuple[int, ...]

    def __post_init__(self) -> None:
        entries = self.entries
        n = len(entries)
        m = len(entries[0]) if n else len(self.col_perm)
        if [*map(len, entries)].count(m) != n:
            raise InputError("matrix rows have unequal lengths")
        cells = [*chain.from_iterable(entries)]
        if not ({*map(type, cells)} <= _INT and {*cells} <= _BITS):
            raise InputError("matrix entries must be 0 or 1")
        # An identity, which most matrices carry, needs no sort.
        rows, cols = (*range(n),), (*range(m),)
        row_perm, col_perm = self.row_perm, self.col_perm
        if row_perm != rows and sorted(row_perm) != [*rows] or col_perm != cols and sorted(col_perm) != [*cols]:
            raise InputError("permutations must be bijections of matching size")

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def m(self) -> int:
        return len(self.col_perm)


def identity_arrangement(entries: tuple[tuple[int, ...], ...]) -> ArrangedMatrix:
    n = len(entries)
    m = len(entries[0]) if n else 0
    return ArrangedMatrix(entries, tuple(range(n)), tuple(range(m)))


def _biadjacency(g: BipartiteGraph) -> tuple[tuple[int, ...], ...]:
    """0/1 entries read off the X row bitsets: rows X, columns Y, index order."""
    columns = range(g.y_count)
    return tuple(tuple(row >> j & 1 for j in columns) for row in g.x_adj)


def graph_to_matrix(g: BipartiteGraph) -> ArrangedMatrix:
    """Biadjacency matrix: rows are X in index order, columns Y, identity perms."""
    return ArrangedMatrix(_biadjacency(g), tuple(range(g.x_count)), tuple(range(g.y_count)))


def matrix_to_graph(mat: ArrangedMatrix) -> BipartiteGraph:
    """Graph whose biadjacency matrix (in original orientation) is ``mat``."""
    return _graph_from_rows(_grid_bits(mat.entries, range(mat.m)), mat.m)


def _column_shifts(col_perm: Sequence[int]) -> list[int]:
    """The bit of each original column in a displayed row bitset: column
    ``col_perm[p]`` is shown at display column p + 1, as bit p."""
    shift = [0] * len(col_perm)
    for p, j in enumerate(col_perm):
        shift[j] = 1 << p
    return shift


def _grid_bits(rows: Iterable[Sequence[int]], col_perm: Sequence[int]) -> list[int]:
    """Each 0/1 grid row as a bitset, column ``col_perm[p]`` being bit p."""
    shift = _column_shifts(col_perm)
    return [sum(compress(shift, row)) for row in rows]


def _shown_rows(mat: ArrangedMatrix) -> list[int]:
    """The displayed rows of ``mat`` as bitsets, bit p being display column p + 1."""
    return _grid_bits((mat.entries[i] for i in mat.row_perm), mat.col_perm)


def _refuse_zero_lines(shown: Sequence[int], m: int) -> None:
    """Input error unless the ``m``-column row bitsets ``shown`` have a row,
    a column, and a one in every row and every column."""
    if not shown or not m:
        raise InputError("matrix must have at least one row and one column")
    if not all(shown):
        raise InputError(f"row {shown.index(0) + 1} is all zeros; arrangements require non-zero rows")
    empty = ((1 << m) - 1) ^ reduce(or_, shown)
    if empty:
        column = (empty & -empty).bit_length()
        raise InputError(f"column {column} is all zeros; arrangements require non-zero columns")


def _row_condition(shown: Sequence[int]) -> tuple[list[int], list[int]] | None:
    """The first one columns a_i and the last one columns b_i of the
    non-zero row bitsets ``shown`` (bit p = display column p + 1), if each
    row holds consecutive ones and a and b are both non-decreasing down the
    rows; None if not.  One pass checks the rows and records the runs.

    Adding a row's lowest one to the row carries through its lowest run of
    ones, so the sum shares a bit with the row iff another run lies above:
    the ones of r are consecutive iff ``r & (r + (r & -r)) == 0``.  The run
    is then a = the lowest one's position + 1 and b = ``r.bit_length()``.
    """
    first: list[int] = []
    last: list[int] = []
    prev_a = prev_b = 0
    for r in shown:
        low = r & -r
        a, b = low.bit_length(), r.bit_length()
        if r & (r + low) or a < prev_a or b < prev_b:
            return None
        first.append(a)
        last.append(b)
        prev_a, prev_b = a, b
    return first, last


def _zero_labels(a: Sequence[int], b: Sequence[int], m: int) -> tuple[tuple[int, int, str], ...]:
    """The R/C labels of the zeros of an ``m``-column display whose rows
    run from a_i to b_i: the columns before a_i are C and those after b_i
    are R, row-major."""
    after = m + 1
    labels: list[tuple[int, int, str]] = []
    add = labels.append
    for i, (first, last) in enumerate(zip(a, b), start=1):
        for j in range(1, first):
            add((i, j, "C"))
        for j in range(last + 1, after):
            add((i, j, "R"))
    return tuple(labels)


def label_zeros(
    mat: ArrangedMatrix, a: tuple[int, ...], b: tuple[int, ...]
) -> tuple[tuple[int, int, str], ...]:
    """Label each displayed zero R (right of its row's ones) or C (left of them).

    ``a`` and ``b`` are the first/last one columns of the displayed rows, as
    in a certificate, so the zeros of row i are the columns before a_i and
    after b_i; of ``mat`` only the column count is read.  Labels come out
    row-major.  On a monotone consecutive display everything above-and-right
    of an R is an R and everything below-and-left of a C is a C.  A
    certificate's ``zero_labels`` are worked out by the same kernel.
    """
    return _zero_labels(a, b, mat.m)


class McaCertificate(NamedTuple):
    """Witness that a displayed arrangement is monotone consecutive: the
    runs of its rows, a_i to b_i, and of its columns, c_j to d_j, 1-based.

    The R/C labels of the zeros follow from a, b and the column count, and
    are worked out when ``zero_labels`` is read.
    """

    a: tuple[int, ...]
    b: tuple[int, ...]
    c: tuple[int, ...]
    d: tuple[int, ...]

    @property
    def zero_labels(self) -> tuple[tuple[int, int, str], ...]:
        """The R/C label of each displayed zero, row-major, as ``label_zeros`` gives them."""
        return _zero_labels(self.a, self.b, len(self.c))


def _certificate_runs(lines: Sequence[int], width: int) -> tuple[tuple[int, ...], ...] | None:
    """The runs of a display's non-zero lines and the runs across them, if
    the lines meet the row condition; None if not.

    ``lines`` are bitsets of ``width`` positions, each position holding a
    one in some line.  For the displayed rows this gives (a, b, c, d): when
    the row condition holds, the ones of column j are the rows with
    a_i <= j (a prefix, as a is non-decreasing) that also have b_i >= j (a
    suffix, as b is), so c_j is the first row with b_i >= j and d_j the last
    row with a_i <= j.  The column condition is the row condition of the
    transpose, so the displayed columns give (c, d, a, b).
    """
    runs = _row_condition(lines)
    if runs is None:
        return None
    first, last = runs
    across = range(1, width + 1)
    # first and last are sorted: count the lines with last < j and those with first <= j.
    first_across = [bisect_left(last, j) + 1 for j in across]
    last_across = [bisect_right(first, j) for j in across]
    return (*first,), (*last,), (*first_across,), (*last_across,)


def verify_mca(mat: ArrangedMatrix) -> McaCertificate | None:
    """Certificate if the displayed arrangement is monotone consecutive, else None.

    Only the row condition is evaluated, on the displayed rows as bitsets;
    the column runs follow from the row runs, and so do the R/C labels,
    which the certificate works out only when they are read.
    """
    shown = _shown_rows(mat)
    _refuse_zero_lines(shown, mat.m)
    runs = _certificate_runs(shown, mat.m)
    if runs is None:
        return None
    return McaCertificate(*runs)


def _forced_order(bits: list[int], left: list[int]) -> list[int] | None:
    """The forced row order of the next component among the unplaced rows
    ``left`` (ascending): the first start row whose greedy extension passes;
    None if no start passes, when no component of ``left`` has an MCA.

    Start rows are tried in ascending index, skipping a row with an identical
    lower-index row.  The order grows greedily: next comes the unplaced row
    with the most started columns, then the fewest new ones, then the lowest
    index, until no unplaced row holds a started column.  One scan of the
    unplaced rows finds it, skipping those that share no started column and
    keeping the first best, which is the lowest index.  A start fails on a
    reopened column (a started column the previous row lacks) or when two
    column runs strictly nest; with consecutive column runs, no strict
    nesting is exactly the condition for monotone a and b.
    """
    tried = set()
    for start in left:
        if bits[start] in tried:
            continue
        tried.add(bits[start])
        order = [start]
        started = prev = bits[start]
        opened = [started]  # opened[p]: the columns started by the first p + 1 rows
        rest = [r for r in left if r != start]
        rows = [bits[r] for r in rest]
        while True:
            pick, most, fewest = -1, 1, 0
            for at, row in enumerate(rows):
                shared = (row & started).bit_count()
                if shared < most:
                    continue
                new = row.bit_count() - shared
                if shared > most or pick < 0 or new < fewest:
                    pick, most, fewest = at, shared, new
            if pick < 0:
                return order
            row = rows.pop(pick)
            if row & started & ~prev:
                break  # a started column that the previous row lacks reopens
            closing = prev & ~row
            if closing:
                # A closing column started after the oldest one going on nests in it.
                for cols in opened:
                    if cols & row:
                        break
                if closing & ~cols:
                    break
            order.append(rest.pop(pick))
            prev = row
            started |= row
            opened.append(started)
    return None


def find_mca(mat: ArrangedMatrix) -> tuple[ArrangedMatrix, McaCertificate] | None:
    """Row and column permutations exhibiting a monotone consecutive
    arrangement of ``mat.entries``; None if there is none.

    The row order is the lexicographically least, in original indices, of
    any MCA.  The rows of a component (rows joined by shared columns) are
    contiguous in every MCA, so the components take their forced orders one
    after another, by first row.  Columns are sorted by (first row, last row,
    original index), the only candidate display up to identical columns.
    One pass over the placed rows' bitsets gives each column its display
    rows as one int, whose lowest set bit is its first row and whose
    ``bit_length`` is its last.  Those ints, in display order, are the
    display's columns as bitsets, and the certificate kernel checks them
    before the arrangement, built by the constructor on ``mat.entries``, is
    returned.  The certificate holds the runs alone; no zero label is
    worked out until one is read.
    """
    n, m = mat.n, mat.m
    bits = _grid_bits(mat.entries, range(m))
    _refuse_zero_lines(bits, m)

    row_perm: list[int] = []
    while len(row_perm) < n:
        order = _forced_order(bits, [r for r in range(n) if r not in row_perm])
        if order is None:
            return None
        row_perm += order

    held = [0] * m  # held[j]: the display rows holding column j, row p as bit p
    for p, r in enumerate(row_perm):
        row = bits[r]
        while row:
            low = row & -row
            held[low.bit_length() - 1] |= 1 << p
            row ^= low
    col_perm = sorted(range(m), key=lambda j: ((held[j] & -held[j]).bit_length(), held[j].bit_length(), j))
    runs = _certificate_runs([held[j] for j in col_perm], n)
    if runs is None:
        raise AssertionError("the forced row order does not verify as monotone consecutive")
    c, d, a, b = runs
    return ArrangedMatrix(mat.entries, tuple(row_perm), tuple(col_perm)), McaCertificate(a, b, c, d)


def greedy_distance(mat: ArrangedMatrix, cert: McaCertificate, row: int, col: int) -> int:
    """Shortest-path length from display row ``row`` to display column ``col``
    (both 1-based) by extreme-neighbour stepping.

    While the target column is right of the current row's ones, hop to the
    row's final one column and from there to that column's final one row;
    symmetrically via initial columns/rows when the target is left.  Each
    hop strictly extends the reach, and the walk stops one step short of the
    target, so the returned length is odd.  Matches breadth-first distance
    on the underlying graph; a stalled walk means the target is unreachable.
    """
    n, m = len(cert.a), len(cert.c)
    if not (1 <= row <= n and 1 <= col <= m):
        raise InputError(f"position ({row}, {col}) outside a {n}x{m} display")
    a, b, c, d = cert.a, cert.b, cert.c, cert.d
    cur = row
    dist = 0
    while True:
        if a[cur - 1] <= col <= b[cur - 1]:
            return dist + 1
        if col > b[cur - 1]:
            via = b[cur - 1]
            nxt = d[via - 1]
            if b[nxt - 1] <= b[cur - 1]:
                raise InputError(f"column {col} unreachable from row {row}")
        else:
            via = a[cur - 1]
            nxt = c[via - 1]
            if a[nxt - 1] >= a[cur - 1]:
                raise InputError(f"column {col} unreachable from row {row}")
        dist += 2
        cur = nxt


def matrix_power(
    g: BipartiteGraph,
    arrangement: tuple[tuple[int, ...], tuple[int, ...]],
    k: int,
) -> ArrangedMatrix:
    """Biadjacency matrix of the k-th power displayed under the same arrangement.

    Requires the arrangement to be monotone consecutive for ``g`` itself.
    The power's matrix must stay monotone consecutive under the unchanged
    permutations; if it does not, the instance is raised as a
    TheoremCounterexample rather than returned.
    """
    row_perm, col_perm = map(tuple, arrangement)
    base = ArrangedMatrix(_biadjacency(g), row_perm, col_perm)
    if not _arrangement_holds(g, base):
        raise InputError("matrix_power requires an arrangement that verifies on the input graph")
    _check_matrix_power(g, base, k)
    return ArrangedMatrix(_biadjacency(bipartite_power(g, k)), row_perm, col_perm)


def _arrangement_holds(g: BipartiteGraph, base: ArrangedMatrix) -> bool:
    """``verify_mca``'s verdict on ``g``'s matrix shown under ``base``'s
    permutations, read off ``g``'s row bitsets; a zero row or column is an
    input error, as there.  Under the identity column order a row bitset
    is its displayed row, so only another order goes through the shifts."""
    rows, col_perm = g.x_adj, base.col_perm
    if col_perm != (*range(len(col_perm)),):
        shift = _column_shifts(col_perm)
        rows = [_union(shift, row) for row in rows]
    shown = [rows[i] for i in base.row_perm]
    _refuse_zero_lines(shown, base.m)
    return _row_condition(shown) is not None


def _check_matrix_power(g: BipartiteGraph, base: ArrangedMatrix, k: int) -> None:
    """Raise the instance as a TheoremCounterexample unless ``g``'s k-power
    stays monotone consecutive under ``base``, ``g``'s matrix under an
    arrangement that verifies."""
    if not _arrangement_holds(bipartite_power(g, k), base):
        raise TheoremCounterexample(
            f"power at k={k} broke a monotone consecutive arrangement",
            {"kind": "matrix-power", "k": k, "matrix": matrix_text(base)},
        )


# --- matrix text format ------------------------------------------------------
#
# First line "n m"; then n lines of m characters from {0,1}; then optional
# "rows: ..." / "cols: ..." lines giving display -> original permutations,
# 0-based.  In the header and the trailers one ASCII space, and only it,
# separates two tokens, and every number is 0 or [1-9][0-9]* in ASCII
# digits (``core._read_int``).  Identity permutations are omitted when
# writing, but a matrix with no row always lists its columns.  Blank lines
# are skipped elsewhere, but with m = 0 the n entry rows are blank lines,
# and the text must hold them; so the header alone never sets the size of
# what is built.  A line ends at LF or CRLF, and a blank line holds ASCII
# spaces and tabs alone (``core._text_lines``).  Messages cite a line by its
# number in the text, blank lines counted.


def matrix_text(mat: ArrangedMatrix) -> str:
    n, m = mat.n, mat.m
    out = [f"{n} {m}"]
    out.extend("".join(str(v) for v in row) for row in mat.entries)
    if mat.row_perm != tuple(range(n)):
        out.append("rows: " + " ".join(str(i) for i in mat.row_perm))
    if not n or mat.col_perm != tuple(range(m)):
        out.append(" ".join(["cols:", *map(str, mat.col_perm)]))
    return "\n".join(out) + "\n"


def parse_matrix(text: str) -> ArrangedMatrix:
    raw = _text_lines(text)
    lines = [(no, ln) for no, ln in raw if ln is not None]
    if not lines:
        raise InputError("matrix text is empty")
    (head_no, head), *body = lines
    size = [_read_int(p) for p in head.split(" ")]
    if len(size) != 2 or None in size:
        raise InputError(f"matrix text line {head_no}: expected 'n m', got {head!r}")
    n, m = size
    rows, trailers = body, body[n:]
    if not m:
        # With no column the n entry rows are the blank lines after the
        # header, which the filter above dropped; the text must still hold them.
        rows, trailers = [(no, "") for no, ln in raw[head_no:] if ln is None], body
    if len(rows) < n:
        raise InputError(f"matrix text: expected {n} entry rows, found {len(rows)}")
    entries = []
    for no, row in rows[:n]:
        if len(row) != m or any(ch not in "01" for ch in row):
            raise InputError(f"matrix text line {no}: expected {m} characters from {{0,1}}")
        entries.append(tuple(int(ch) for ch in row))
    perms = {}
    for no, extra in trailers:
        key, _, rest = extra.partition(":")
        first, *tokens = rest.split(" ")
        values = tuple(map(_read_int, tokens))
        if first or None in values:
            raise InputError(f"matrix text: trailer {extra!r} must list integer indices")
        if key not in ("rows", "cols"):
            raise InputError(f"matrix text: unrecognized trailer {extra!r}")
        if key in perms:
            raise InputError(f"matrix text line {no}: a second '{key}:' trailer; each trailer appears at most once")
        perms[key] = values
    row_perm, col_perm = perms.get("rows", tuple(range(n))), perms.get("cols")
    if col_perm is None:
        # A matrix with no row holds its column count on this line alone.
        if not n and m:
            raise InputError("matrix text: a matrix with no row must list its columns on a 'cols:' line")
        col_perm = tuple(range(m))
    if len(col_perm) != m:
        raise InputError("permutations must be bijections of matching size")
    return ArrangedMatrix(tuple(entries), row_perm, col_perm)


def certificate_object(cert: McaCertificate) -> dict:
    return {
        "a": list(cert.a),
        "b": list(cert.b),
        "c": list(cert.c),
        "d": list(cert.d),
        "labels": [[i, j, mark] for i, j, mark in cert.zero_labels],
    }


def certificate_json(cert: McaCertificate) -> str:
    return json.dumps(certificate_object(cert), indent=2) + "\n"
