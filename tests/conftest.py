from __future__ import annotations

import contextlib
import inspect
import random
import sys
from functools import partial
from itertools import islice
from typing import Iterator

import pytest
from hypothesis import strategies as st

import bipower as bp
from bipower import core
from bipower.intervals import Interval, IntervalRepresentation
from bipower.mca import identity_arrangement

# 6+5 interval bigraph used throughout: x1..x3 share y1..y3, x2 also meets y4,
# x3 also meets y5, and x4/x5/x6 are pendants on y1/y2/y3.
SAMPLE_EDGES = [
    (0, 0), (0, 1), (0, 2),
    (1, 0), (1, 1), (1, 2), (1, 3),
    (2, 0), (2, 1), (2, 2), (2, 4),
    (3, 0),
    (4, 1),
    (5, 2),
]

SAMPLE_X_INTERVALS = (Interval(4, 8), Interval(2, 8), Interval(5, 9), Interval(3, 4), Interval(6, 7), Interval(7, 8))
SAMPLE_Y_INTERVALS = (Interval(2, 5), Interval(5, 6), Interval(8, 9), Interval(0, 2), Interval(9, 10))

# 6x7 staircase matrix with a fully worked R/C zero labelling.
STAIRCASE_ROWS = (
    "1100000",
    "1110000",
    "0111100",
    "0011100",
    "0001110",
    "0000111",
)


@pytest.fixture
def sample_graph() -> bp.BipartiteGraph:
    return bp.build_graph(6, 5, SAMPLE_EDGES)


@pytest.fixture
def sample_rep() -> IntervalRepresentation:
    return IntervalRepresentation(SAMPLE_X_INTERVALS, SAMPLE_Y_INTERVALS)


@pytest.fixture
def staircase_matrix():
    return identity_arrangement(tuple(tuple(int(ch) for ch in row) for row in STAIRCASE_ROWS))


def cycle_graph(length: int) -> bp.BipartiteGraph:
    """Plain even cycle as a bigraph; vertex t sits at X t//2 (t even) / Y t//2."""
    g, _ = bp.gen_subdivided_cycle([1] * length)
    return g


@contextlib.contextmanager
def frames_to_spare(count: int) -> Iterator[None]:
    """Lower Python's recursion limit to ``count`` frames above the caller's
    depth for the duration, so code whose stack grows with its input fails."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + count)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def fresh_copy(g: bp.BipartiteGraph) -> bp.BipartiteGraph:
    """An equal graph with nothing derived or cached yet."""
    return bp.build_graph(g.x_count, g.y_count, list(g.edges()), g.x_labels, g.y_labels)


def counted_searches(monkeypatch) -> list[tuple[bp.BipartiteGraph, int]]:
    """The (graph, min_length) of every chordless-cycle search run."""
    searched: list[tuple[bp.BipartiteGraph, int]] = []
    original = core._search_chordless_cycle

    def counted(g, min_length):
        searched.append((g, min_length))
        return original(g, min_length)

    monkeypatch.setattr(core, "_search_chordless_cycle", counted)
    return searched


@st.composite
def labelled_graphs(draw, side_max: int = 8) -> bp.BipartiteGraph:
    """Any graph with up to ``side_max`` vertices a side, empty sides
    included, under any valid labels: unique strings, none on both sides,
    holding no tab, CR or LF; or the default labels."""
    n, m = draw(st.integers(0, side_max)), draw(st.integers(0, side_max))
    edges = [(i, j) for i in range(n) for j in range(m) if draw(st.booleans())]
    if draw(st.booleans()):
        return bp.build_graph(n, m, edges)
    label = st.text(st.characters(exclude_characters="\t\r\n"), max_size=4)
    labels = draw(st.lists(label, min_size=n + m, max_size=n + m, unique=True))
    return bp.build_graph(n, m, edges, tuple(labels[:n]), tuple(labels[n:]))


def cycle_vertex(position: int) -> bp.VertexId:
    side = bp.Side.X if position % 2 == 0 else bp.Side.Y
    return bp.VertexId(side, position // 2)


def random_tree(rng: random.Random, vertices: int) -> bp.BipartiteGraph:
    """Random tree, two-coloured by depth parity into the X/Y sides."""
    assert vertices >= 2, "both sides must be inhabited"
    parent = [0] * vertices
    depth = [0] * vertices
    for v in range(1, vertices):
        parent[v] = rng.randrange(v)
        depth[v] = depth[parent[v]] + 1
    side_index: list[int] = []
    counts = [0, 0]
    for v in range(vertices):
        side_index.append(counts[depth[v] % 2])
        counts[depth[v] % 2] += 1
    edges = []
    for v in range(1, vertices):
        if depth[v] % 2:  # v on Y, parent on X
            edges.append((side_index[parent[v]], side_index[v]))
        else:
            edges.append((side_index[v], side_index[parent[v]]))
    return bp.build_graph(max(counts[0], 1), max(counts[1], 1), edges)


def plant_cycle(g: bp.BipartiteGraph, length: int, rng: random.Random, at: int = 0) -> bp.BipartiteGraph:
    """``g`` with a chordless ``length``-cycle on new vertices at index ``at``
    of each side (old vertices from ``at`` on move up), joined to the old
    vertices by a single bridge edge."""
    half = length // 2

    def shift(index: int) -> int:
        return index if index < at else index + half

    edges = [(shift(i), shift(j)) for i, j in g.edges()]
    for t in range(half):
        edges.append((at + t, at + t))
        edges.append((at + (t + 1) % half, at + t))
    if g.x_count:
        edges.append((shift(rng.randrange(g.x_count)), at + rng.randrange(half)))
    return bp.build_graph(g.x_count + half, g.y_count + half, edges)


def band_graph(rng: random.Random, n: int, width: int) -> bp.BipartiteGraph:
    """n+n staircase bigraph: row i meets columns a_i..b_i, both ends
    non-decreasing, a_i advancing by 0..2 and runs up to ``width`` wide."""
    runs = []
    a, b = 0, min(rng.randint(0, width), n - 1)
    for i in range(n):
        if i:
            a = min(a + rng.randint(0, 2), b + 1, n - 1)
            b = max(b, min(a + rng.randint(0, width), n - 1))
        runs.append((a, b))
    runs[-1] = (runs[-1][0], n - 1)
    return bp.build_graph(n, n, [(i, j) for i, (a, b) in enumerate(runs) for j in range(a, b + 1)])


def band_with_extra_edges(rng: random.Random, n: int, count: int) -> bp.BipartiteGraph:
    """``band_graph(rng, n, 6)`` with ``count`` more edges, each a non-edge
    drawn uniformly by ``rng``.  An edge across the band closes long cycles,
    many of them chordless."""
    g = band_graph(rng, n, 6)
    edges = set(g.edges())
    if count > n * n - len(edges):
        raise ValueError(f"the band has fewer than {count} non-edges")
    target = len(edges) + count
    while len(edges) < target:
        edges.add((rng.randrange(n), rng.randrange(n)))
    return bp.build_graph(n, n, sorted(edges))


def random_nonzero_matrix(rng: random.Random, max_n: int, max_m: int) -> tuple[tuple[int, ...], ...]:
    """Uniform 0/1 entries, redrawn until no row or column is all zero.

    Each cell is the first draw of ``rng.getrandbits(2)`` below 2, which is
    what ``rng.randint(0, 1)`` draws, so the matrices are those of a
    cell-by-cell ``randint`` loop at a fraction of its cost.
    """
    bits = filter((2).__gt__, iter(partial(rng.getrandbits, 2), None))
    while True:
        n, m = rng.randint(1, max_n), rng.randint(1, max_m)
        entries = tuple(tuple(islice(bits, m)) for _ in range(n))
        if all(map(any, entries)) and all(map(any, zip(*entries))):
            return entries


def shuffled_staircase(rng: random.Random, n: int, m: int, copies: int = 1) -> tuple[tuple[int, ...], ...]:
    """A generated staircase of n - copies + 1 rows and m columns, one of its
    rows repeated to ``copies`` in all, rows and columns then shuffled."""
    rows = list(bp.gen_staircase_matrix(rng.getrandbits(63), n - copies + 1, m).entries)
    rows += [rng.choice(rows)] * (copies - 1)
    return shuffled(rng, rows)


def shuffled(rng: random.Random, rows) -> tuple[tuple[int, ...], ...]:
    """The 0/1 rows with their order and their column order shuffled."""
    rows = list(rows)
    rng.shuffle(rows)
    cols = list(range(len(rows[0])))
    rng.shuffle(cols)
    return tuple(tuple(row[j] for j in cols) for row in rows)


def block_diagonal(blocks) -> tuple[tuple[int, ...], ...]:
    """The matrices of ``blocks`` on the diagonal of one matrix, zeros elsewhere."""
    width = sum(len(block[0]) for block in blocks)
    rows, left = [], 0
    for block in blocks:
        m = len(block[0])
        rows += [(0,) * left + tuple(row) + (0,) * (width - left - m) for row in block]
        left += m
    return tuple(rows)


def stored_under(display: tuple[tuple[int, ...], ...], rng: random.Random) -> bp.ArrangedMatrix:
    """A matrix that shows ``display`` under a random row order and a column
    order other than the identity (there is none with one column)."""
    n, m = len(display), len(display[0])
    rows, cols = list(range(n)), list(range(m))
    rng.shuffle(rows)
    while m > 1 and cols == sorted(cols):
        rng.shuffle(cols)
    entries = [[0] * m for _ in range(n)]
    for p, i in enumerate(rows):
        for q, j in enumerate(cols):
            entries[i][j] = display[p][q]
    return bp.ArrangedMatrix(tuple(map(tuple, entries)), tuple(rows), tuple(cols))
