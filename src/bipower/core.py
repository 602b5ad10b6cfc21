"""Bipartite graphs with bitset adjacency, distances, odd powers, and
chordless-cycle search.

Vertices live on two sides X and Y; every edge crosses sides.  Adjacency is
stored once, as one integer bitset per X vertex, and the Y-side view is
derived on demand.  All operations are pure functions of immutable values.
A graph keeps what it derives: its odd powers, each grown once from the one
below and returned as the same object on every later request, its Γ
verdict, and its answer to each chordless-cycle query.  Distances from one
source come from one breadth-first search over the bitsets; no all-pairs
table is kept.  The Γ verdict and the chordless-cycle search read only the
graph's twin-free core, one vertex per class of twins: the first cycle a
search of the whole graph finds passes through the lowest member of each
class it meets, so the core's first cycle, mapped back, is that cycle.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Callable, Iterator, Sequence

from .errors import InputError


class Side(str, Enum):
    X = "X"
    Y = "Y"


@dataclass(frozen=True)
class VertexId:
    """A vertex named by its side and 0-based index within that side."""

    side: Side
    index: int


def x_vertex(index: int) -> VertexId:
    return VertexId(Side.X, index)


def y_vertex(index: int) -> VertexId:
    return VertexId(Side.Y, index)


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _randint(getrandbits: Callable[[int], int], low: int, high: int) -> int:
    """What ``random.Random.randint(low, high)`` returns, drawn the same
    way: the first ``getrandbits(k)`` below the range's size, k being the
    size's bit length, so the stream moves on exactly as it would there."""
    size = high - low + 1
    if size < 1:
        raise ValueError(f"empty range for randint({low}, {high})")
    k = size.bit_length()
    r = getrandbits(k)
    while r >= size:
        r = getrandbits(k)
    return low + r


def _union(rows: Sequence[int], mask: int) -> int:
    """Bitwise OR of ``rows[i]`` over the set bits i of ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out


@dataclass(frozen=True)
class BipartiteGraph:
    """Immutable two-sided graph.

    ``x_adj[i]`` has bit ``j`` set iff x_i y_j is an edge.  Instances may be
    shared freely across threads; their value never changes after
    construction.  Derived data (the Y-side view, the odd powers, the Γ
    verdict, the cycles found) is cached on first use, so a repeated power
    is the same object; a race between threads can only repeat that work.
    """

    x_count: int
    y_count: int
    x_adj: tuple[int, ...]
    x_labels: tuple[str, ...]
    y_labels: tuple[str, ...]

    @cached_property
    def y_adj(self) -> tuple[int, ...]:
        """Derived Y-side view: bit i of ``y_adj[j]`` iff x_i y_j is an edge."""
        cols = [0] * self.y_count
        for i, row in enumerate(self.x_adj):
            bit = 1 << i
            for j in _iter_bits(row):
                cols[j] |= bit
        return tuple(cols)

    @cached_property
    def global_adj(self) -> tuple[int, ...]:
        """Adjacency over global ids: X vertex i -> i, Y vertex j -> x_count + j."""
        return tuple(row << self.x_count for row in self.x_adj) + self.y_adj

    @cached_property
    def _two_hop(self) -> tuple[int, ...]:
        """Bit j' of ``_two_hop[j]`` iff y_j and y_j' have a common neighbour.

        One pass over the rows' bits: each X row is ORed into the entry of
        every Y vertex it holds, so the ladder builds no Y-side view."""
        two_hop = [0] * self.y_count
        for row in self.x_adj:
            mask = row
            while mask:
                low = mask & -mask
                two_hop[low.bit_length() - 1] |= row
                mask ^= low
        return tuple(two_hop)

    def _level(self, k: int) -> BipartiteGraph:
        """The k-power for odd ``k``; see ``bipartite_power``.

        Levels 1, 3, 5, ... are kept in a tuple, level 1 being this graph.
        Level k + 2 grows from level k: each row gains the two-hop reach of
        the Y vertices that first entered it at level k.  A level equal to
        the one below is saturated; it is stored once more as the last
        entry and answers every higher k.  A new level is published by
        replacing the tuple, so a race between threads can only repeat work.
        """
        levels = self.__dict__.get("_levels", (self,))
        if k // 2 < len(levels):
            return levels[k // 2]
        grown, two_hop = list(levels), self._two_hop
        while len(grown) <= k // 2 and (len(grown) == 1 or grown[-1] is not grown[-2]):
            rows = grown[-1].x_adj
            older = grown[-2].x_adj if len(grown) > 1 else (0,) * self.x_count
            step = tuple(row | _union(two_hop, row & ~old) for row, old in zip(rows, older))
            if step == rows:  # saturated
                grown.append(grown[-1])
            else:
                grown.append(BipartiteGraph(self.x_count, self.y_count, step, self.x_labels, self.y_labels))
        self.__dict__["_levels"] = tuple(grown)
        return grown[min(k // 2, len(grown) - 1)]

    @cached_property
    def _ordering(self) -> _Ordering:
        """This graph's doubly lexical ordering on its twin-free core, built
        once by ``_twin_free_ordering``.  Twins, vertices with equal
        neighbourhoods, are never the two rows or the two columns of one Γ,
        so the Γ decision and every block scan of the cycle search read the
        core alone."""
        return _twin_free_ordering(self.x_adj, self.y_count)

    @cached_property
    def _core_adj(self) -> list[int]:
        """The twin-free core's adjacency over its own global ids: core X
        vertex a is the a-th row class by lowest member, and core Y vertex b
        is the number of row classes plus b.  Read from the core's '0'/'1'
        and columns when a search first needs it; empty when a side has no
        vertex, as the core then has no edge."""
        x_strs = self._ordering[5]
        joined, width = "".join(x_strs), len(x_strs[0]) if x_strs else 0
        return [int(s[::-1], 2) << len(x_strs) for s in x_strs] + [
            int(joined[b::width][::-1], 2) for b in range(width)
        ]

    @cached_property
    def _is_gamma_free(self) -> bool:
        """True iff this graph is chordal bipartite: the core of its doubly
        lexical ordering is Γ-free (module-level ``_gamma_free``).

        A chordless cycle of length 2n >= 6 holds n X vertices whose rows
        are non-empty and pairwise distinct, since a twin of one would be a
        chord.  So a graph with fewer than three distinct non-empty rows is
        answered without building its ordering.
        """
        if len(set(self.x_adj) - {0}) < 3:
            return True
        return _gamma_free(self._ordering[2])

    @property
    def vertex_count(self) -> int:
        return self.x_count + self.y_count

    def has_edge(self, x_index: int, y_index: int) -> bool:
        return bool(self.x_adj[x_index] >> y_index & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for i, row in enumerate(self.x_adj):
            for j in _iter_bits(row):
                yield i, j

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.x_adj)

    def vertices(self) -> Iterator[VertexId]:
        for i in range(self.x_count):
            yield VertexId(Side.X, i)
        for j in range(self.y_count):
            yield VertexId(Side.Y, j)

    def label(self, v: VertexId) -> str:
        labels = self.x_labels if v.side is Side.X else self.y_labels
        return labels[v.index]

    def vertex_by_label(self, label: str) -> VertexId:
        try:
            return VertexId(Side.X, self.x_labels.index(label))
        except ValueError:
            pass
        try:
            return VertexId(Side.Y, self.y_labels.index(label))
        except ValueError:
            raise InputError(f"unknown vertex label {label!r}") from None

    def global_id(self, v: VertexId) -> int:
        self._check_vertex(v)
        return v.index if v.side is Side.X else self.x_count + v.index

    def vertex_of_global(self, gid: int) -> VertexId:
        if gid < self.x_count:
            return VertexId(Side.X, gid)
        return VertexId(Side.Y, gid - self.x_count)

    def _check_vertex(self, v: VertexId) -> None:
        bound = self.x_count if v.side is Side.X else self.y_count
        if not 0 <= v.index < bound:
            raise InputError(f"vertex {v.side.value}{v.index} out of range")


def build_graph(
    x_count: int,
    y_count: int,
    edges: list[tuple[int, int]] | tuple[tuple[int, int], ...],
    x_labels: tuple[str, ...] | None = None,
    y_labels: tuple[str, ...] | None = None,
) -> BipartiteGraph:
    """Build a graph from cross edges given as (x index, y index) pairs.

    Duplicate edges are allowed in the input and collapse; out-of-range
    indices are an input error.  Labels default to x1..xn / y1..ym; given
    labels must be unique, hold no tab, CR or LF, and differ across sides.
    """
    if x_count < 0 or y_count < 0:
        raise InputError("side sizes must be non-negative")
    rows = [0] * x_count
    for xi, yj in edges:
        if not (0 <= xi < x_count and 0 <= yj < y_count):
            raise InputError(f"edge ({xi}, {yj}) out of range for {x_count}+{y_count} graph")
        rows[xi] |= 1 << yj
    return _graph_from_rows(rows, y_count, x_labels, y_labels)


def _read_int(token: str, signed: bool = False) -> int | None:
    """The integer that ``token`` spells in the one decimal form the line
    formats write, else None: ASCII digits with no leading zero, after a
    ``-`` only where ``signed`` and never before ``0``.  No sign ``+``, no
    ``_``, no blank, no digit of another script and no number longer than
    ``int`` reads (``sys.get_int_max_str_digits()``) is read."""
    try:
        return int(token) if re.fullmatch("0|-?[1-9][0-9]*" if signed else "0|[1-9][0-9]*", token) else None
    except ValueError:
        return None


def _text_lines(text: str) -> list[tuple[int, str | None]]:
    """The lines of a text in a line format, numbered from 1, each blank one
    as None.  A line ends at ``\\n`` alone, or at ``\\r\\n``, and it is blank
    when it holds nothing but ASCII spaces and tabs; no other character
    breaks a line or reads as blank."""
    lines = re.split("\r?\n", text)
    if lines[-1] == "":
        lines.pop()
    return [(no, None if re.fullmatch("[ \t]*", ln) else ln) for no, ln in enumerate(lines, start=1)]


_SEPARATORS = frozenset("\t\r\n")


@lru_cache(maxsize=128)
def _default_labels(prefix: str, count: int) -> tuple[str, ...]:
    """The default labels of a side: ``prefix`` followed by 1..count."""
    return tuple(f"{prefix}{i + 1}" for i in range(count))


def _graph_from_rows(
    rows: Sequence[int],
    y_count: int,
    x_labels: tuple[str, ...] | None = None,
    y_labels: tuple[str, ...] | None = None,
) -> BipartiteGraph:
    """Graph whose X vertex i has the row bitset ``rows[i]`` over
    ``y_count`` Y vertices, each bit below ``1 << y_count``.  Labels default
    to x1..xn / y1..ym as in ``build_graph``, one shared tuple per side
    size; given labels are checked as there."""
    x_count = len(rows)
    if x_labels is None and y_labels is None:
        # x1..xn and y1..ym hold no separator, are unique, and differ across sides.
        x_labels, y_labels = _default_labels("x", x_count), _default_labels("y", y_count)
        return BipartiteGraph(x_count, y_count, tuple(rows), x_labels, y_labels)
    # A label is written as it is, and in the interval TSV a tab ends a
    # field and CR or LF a line.  Default labels hold none, so go unread.
    for given in (x_labels, y_labels):
        label = next((s for s in given or () if not _SEPARATORS.isdisjoint(s)), None)
        if label is not None:
            raise InputError(f"label {label!r} holds a tab, CR or LF")
    if x_labels is None:
        x_labels = _default_labels("x", x_count)
    if y_labels is None:
        y_labels = _default_labels("y", y_count)
    if len(x_labels) != x_count or len(y_labels) != y_count:
        raise InputError("label count does not match side size")
    if len(set(x_labels)) != x_count or len(set(y_labels)) != y_count:
        raise InputError("labels must be unique per side")
    # A label names one vertex, so that printed cycles parse back unchanged.
    shared = set(y_labels).intersection(x_labels)
    if shared:
        label = next(s for s in x_labels if s in shared)
        raise InputError(f"label {label!r} is used on both sides")
    return BipartiteGraph(x_count, y_count, tuple(rows), tuple(x_labels), tuple(y_labels))


@dataclass(frozen=True)
class DistanceTable:
    """Exact shortest-path distances from one source; None means unreachable."""

    source: VertexId
    x_dist: tuple[int | None, ...]
    y_dist: tuple[int | None, ...]

    def of(self, v: VertexId) -> int | None:
        return (self.x_dist if v.side is Side.X else self.y_dist)[v.index]


def _bfs_layers(g: BipartiteGraph, source: int) -> Iterator[int]:
    """Breadth-first layers from global id ``source``, as bitsets over global
    ids: the d-th layer yielded holds the vertices at distance d."""
    frontier = seen = 1 << source
    while frontier:
        yield frontier
        frontier = _union(g.global_adj, frontier) & ~seen
        seen |= frontier


def bfs_distance(g: BipartiteGraph, source: VertexId) -> DistanceTable:
    """Distances from ``source`` to every vertex, by one breadth-first search."""
    dist: list[int | None] = [None] * g.vertex_count
    for d, layer in enumerate(_bfs_layers(g, g.global_id(source))):
        for v in _iter_bits(layer):
            dist[v] = d
    nx = g.x_count
    return DistanceTable(source, tuple(dist[:nx]), tuple(dist[nx:]))


def bipartite_power(g: BipartiteGraph, k: int) -> BipartiteGraph:
    """Return the graph on the same vertices with x adjacent to y iff their
    distance in ``g`` is at most ``k``.

    Cross-side distances are always odd, so the parity requirement is
    automatic; ``k`` itself must be an odd positive integer because even
    powers of a bipartite graph stop being bipartite.  Vertices in different
    components stay non-adjacent.

    Each level is built once, from the level two below it, and kept on
    ``g``: asking again for the same k returns the same object, k = 1
    returns ``g`` itself, and every k beyond the level where the powers stop
    changing returns that level.
    """
    _require_odd_k(k)
    return g._level(k)


def _require_odd_k(k: int) -> None:
    if k < 1 or k % 2 == 0:
        raise InputError(
            f"bipartite powers are defined only for odd k >= 1 (even powers "
            f"introduce odd cycles); got k={k}"
        )


@dataclass(frozen=True)
class CycleCertificate:
    """An ordered vertex list claimed to be a chordless cycle in a stated
    odd power of a host graph."""

    vertices: tuple[VertexId, ...]
    host_power: int = 1

    def __len__(self) -> int:
        return len(self.vertices)

    def with_host_power(self, k: int) -> CycleCertificate:
        return CycleCertificate(self.vertices, k)


# Row classes, column classes, shown rows, row and column display orders,
# core rows as strings: see ``_twin_free_ordering``.
_Ordering = tuple[list[int], list[int], list[int], list[int], list[int], list[str]]


def _twin_free_ordering(x_rows: Sequence[int], y_count: int) -> _Ordering:
    """A doubly lexical ordering of the matrix whose rows are the bitsets
    ``x_rows`` over ``y_count`` columns, built on its twin-free core.

    Rows fall into classes of equal bitsets, and columns into classes of
    equal columns; the core keeps one row and one column per class, each
    side in order of the classes' lowest members.  The core's rows and
    columns are held once as '0'/'1' strings and stably sorted in turn,
    each keyed by its string read in the other side's display order, until
    a sort moves nothing (a row sort only once the columns have been
    sorted).  A pass joins the other side's strings once, in display order,
    and takes each key as a slice of that one string, strided by the other
    side's count; the column classes and the core's rows are read the same
    way.  Each sort can only increase the row-major reading of the core,
    and strictly does so whenever it moves something, so the loop ends, and
    its fixpoint is doubly lexical.  Returns the row classes and the column
    classes in core order, as bitsets of X and of Y indices; the core's rows
    as shown, each a bitset whose high bit is the first shown column; the
    display order of each side, as core indices; and the core's rows as
    '0'/'1' strings over its columns, both in core order.
    """
    row_class: dict[int, int] = {}  # row bitset -> its class, a bitset of X indices
    for i, row in enumerate(x_rows):
        row_class[row] = row_class.get(row, 0) | 1 << i
    col_class: dict[str, int] = {}  # column over the core's rows -> its class
    if y_count:
        spec = f"0{y_count}b"
        joined = "".join([format(row, spec)[::-1] for row in row_class])
        for j in range(y_count):
            col = joined[j::y_count]
            col_class[col] = col_class.get(col, 0) | 1 << j
    row_classes, col_classes = list(row_class.values()), list(col_class.values())
    rows, cols = list(range(len(row_classes))), list(range(len(col_classes)))
    if not row_classes or not col_classes:  # no cell to sort by
        return row_classes, col_classes, [0] * len(rows), rows, cols, []
    y_strs = list(col_class)
    height, width = len(rows), len(cols)
    joined = "".join(y_strs)
    # The core's rows are the row keys under the columns' first order.
    x_strs = row_key = [joined[a::height] for a in range(height)]
    cols_sorted = False  # whether cols were sorted under the current row order
    while True:
        new_rows = sorted(rows, key=row_key.__getitem__, reverse=True)
        if new_rows == rows and cols_sorted:
            # The columns were sorted under this very row order, so a
            # stable sort of them again would move nothing.
            break
        rows = new_rows
        joined = "".join(map(x_strs.__getitem__, rows))
        col_key = [joined[b::width] for b in range(width)]
        new_cols = sorted(cols, key=col_key.__getitem__, reverse=True)
        if new_cols == cols:
            # The rows were just sorted under these very columns.
            break
        cols, cols_sorted = new_cols, True
        joined = "".join(map(y_strs.__getitem__, cols))
        row_key = [joined[a::height] for a in range(height)]
    return row_classes, col_classes, [int(row_key[i], 2) for i in rows], rows, cols, x_strs


def _gamma_free(shown: Sequence[int]) -> bool:
    """True iff the rows ``shown``, top to bottom, have no Γ, here
    [[0,1],[1,1]] at rows i < i' and columns j < j' (Lubiw's [[1,1],[1,0]]
    with both orders reversed).

    Columns shown first are held in the high bits, so a row pair has a Γ
    iff some column where only the lower row has a one lies left of (in a
    higher bit than) some column where both do.  On the shown rows of a
    doubly lexical ordering this decides chordal bipartiteness; on any
    other row and column order, Γ-free still proves it.
    """
    for lower, below in enumerate(shown):
        for above in shown[:lower]:
            only_below = below & ~above
            both = below & above
            if only_below and both and (both & -both).bit_length() < only_below.bit_length():
                return False
    return True


def _biconnected_blocks(adj: Sequence[int]) -> Iterator[int]:
    """Vertex sets, as bitsets over global ids, of the biconnected blocks
    that hold an edge (Hopcroft & Tarjan, CACM 16, 1973).

    The depth-first search steps to the lowest undiscovered neighbour,
    ``adj[v] & ~seen``.  Non-tree edges join a vertex to ancestors, all on
    the path when it is discovered, so its low point is a depth taken then:
    the least d whose path prefix ``prefix[d]`` meets its neighbours, by
    binary search.  A child whose subtree reaches no higher than its parent
    closes a block: the parent and the child's still pending descendants.
    """
    seen = 0
    for root, root_adj in enumerate(adj):
        if seen >> root & 1 or not root_adj:
            continue
        seen |= 1 << root
        # Per path depth: the vertex, the path up to it, its low point, and
        # the vertices discovered before it.
        path, prefix, low, before = [root], [1 << root], [0], [0]
        pending = 0  # discovered, not yet in a closed block
        while path:
            fresh = adj[path[-1]] & ~seen
            if fresh:
                bit = fresh & -fresh
                w = bit.bit_length() - 1
                low.append(bisect_left(prefix, 1, key=adj[w].__and__))
                path.append(w)
                prefix.append(prefix[-1] | bit)
                before.append(seen)
                seen |= bit
                pending |= bit
                continue
            path.pop()
            prefix.pop()
            reach = low.pop()
            since = pending & ~before.pop()
            if path:
                if reach < low[-1]:
                    low[-1] = reach
                if reach >= len(path) - 1:
                    pending ^= since
                    yield since | 1 << path[-1]


def _block_restriction(g: BipartiteGraph, block: int) -> list[int]:
    """The rows of ``g``'s doubly lexical ordering restricted to ``block``,
    a set of core vertices: the shown core rows in it, masked to the shown
    core columns in it."""
    row_classes, _, shown, rows, cols, _ = g._ordering
    y_block, top = block >> len(row_classes), len(cols) - 1
    mask = sum(1 << (top - p) for p, b in enumerate(cols) if y_block >> b & 1)
    return [row & mask for a, row in zip(rows, shown) if block >> a & 1]


def _cycle_bearing_vertices(g: BipartiteGraph, min_length: int) -> int:
    """Union, as a bitset over the core's global ids (``_core_adj``), of the
    core's biconnected blocks that have at least ``min_length`` vertices
    and whose restriction of ``g``'s ordering has a Γ.

    Every chordless cycle lies inside one block, and a chordal bipartite
    block has none of length 6 or more.  A matrix with any Γ-free ordering
    is totally balanced (Lubiw 1987; Hoffman, Kolen & Sakarovitch 1985), so
    a block whose restriction is Γ-free holds no chordless cycle of length 6
    or more and is left out.  The union is thus a superset of the blocks
    that hold a chordless cycle of ``min_length`` or more, which is all the
    search needs to stay exact; whether a Γ in a restriction always marks
    such a cycle bounds only how much searching is done.
    """
    kept = 0
    for block in _biconnected_blocks(g._core_adj):
        if block.bit_count() >= min_length and not _gamma_free(_block_restriction(g, block)):
            kept |= block
    return kept


def _core_vertex(g: BipartiteGraph, u: int) -> VertexId:
    """The vertex of ``g`` that core vertex ``u`` stands for: its class's lowest member."""
    row_classes, col_classes = g._ordering[:2]
    side, cls = (Side.X, row_classes[u]) if u < len(row_classes) else (Side.Y, col_classes[u - len(row_classes)])
    return VertexId(side, (cls & -cls).bit_length() - 1)


def find_chordless_cycle(g: BipartiteGraph, min_length: int) -> CycleCertificate | None:
    """Find some induced cycle of length >= ``min_length``, or None.

    The one chordless-cycle query.  A graph with a Γ-free doubly lexical
    ordering is chordal bipartite (Lubiw, SIAM J. Comput. 16, 1987), so it
    gets None at any ``min_length`` without a search; any other graph is
    searched once per ``min_length``, and the answer is kept on it.

    Depth-first search over induced paths: a path grows only by vertices
    adjacent to its head and non-adjacent to every interior vertex, so any
    closure back to the start is automatically chordless.  Start vertices,
    second vertices, and extensions are all taken in ascending global index
    and only indices above the start are used, which makes the result a
    deterministic function of the graph.

    The search runs on the twin-free core (``_core_adj``), numbered in
    order of each class's lowest member, and maps its cycle back through
    those members: that is the cycle a search of the whole graph finds,
    None included.  Two twins are never both on a chordless cycle of length
    6 or more, as they would share its two neighbours of each, and swapping
    two twins maps the graph onto itself; so a cycle through any other
    member of a class becomes one through its lowest member, which the
    whole-graph search reaches first.

    Two cuts remove only branches that cannot close, so the cycle found is
    the one the uncut search finds.  The search stays inside the biconnected
    blocks with at least ``min_length`` vertices whose restriction of the
    graph's doubly lexical ordering has a Γ (``_cycle_bearing_vertices``),
    a superset of the blocks that hold such a cycle; with none there is no
    search.  And it cuts every extension from which no way on to a
    neighbour of the start runs through kept vertices above the start, off
    the path and not adjacent to the new interior; a forced chain, below,
    is cut where it ends.  Once a path has ``min_length`` - 1 vertices, a
    shortest such way closes a long enough chordless cycle (Nikolopoulos &
    Palios, "Detecting holes and antiholes in graphs", Algorithmica 47,
    2007), so past that depth the search backtracks only out of forced
    chains: it is polynomial for every fixed ``min_length``.

    An extension with no next step is never entered.  One with two or more
    is entered only if a bitset breadth-first search from them finds that
    way.  One with exactly one next step is entered without a search: a
    search from it would take that step and go on over the vertices that
    the search at the next step may use.  So a forced chain is entered
    without a search, and at its first step with two or more ways on, the
    search run there is the rest of the one skipped at its start.  A chain
    that dead-ends costs one step per vertex, no more than the search it
    replaces.
    """
    if min_length < 6 or min_length % 2:
        raise InputError(f"min_length must be even and >= 6, got {min_length}")
    if g._is_gamma_free:
        return None
    found = g.__dict__.setdefault("_chordless_cycles", {})
    if min_length not in found:
        found[min_length] = _search_chordless_cycle(g, min_length)
    return found[min_length]


def _search_chordless_cycle(g: BipartiteGraph, min_length: int) -> CycleCertificate | None:
    """The search of ``find_chordless_cycle``, on a graph with a Γ and
    arguments it has checked: finding no cycle at length 6 is a defect."""
    live = _cycle_bearing_vertices(g, min_length)
    adj = g._core_adj

    for v0 in _iter_bits(live):
        high_mask = live & (-1 << (v0 + 1))
        start_adj = adj[v0]
        for v1 in _iter_bits(start_adj & high_mask):
            path, path_mask = [v0, v1], 1 << v0 | 1 << v1
            # One frame per path vertex after the start: the untried extensions
            # of the path it heads, and the adjacency of their interior.
            frames = [(_iter_bits(adj[v1] & ~path_mask & high_mask), adj[v1])]
            while frames:
                cand, interior_adj = frames[-1]
                for w in cand:
                    if start_adj >> w & 1:
                        # Closing edge exists: either report the cycle or abandon w,
                        # since extending past it would leave a chord back to the start.
                        if len(path) + 1 >= min_length:
                            return CycleCertificate(tuple(_core_vertex(g, u) for u in path + [w]), 1)
                        continue
                    allowed = high_mask & ~path_mask & ~interior_adj
                    ahead = adj[w] & allowed
                    if not ahead:
                        continue
                    if ahead & (ahead - 1):
                        # Enter w only if a way on still reaches a neighbour of the start.  With
                        # one way on, the search at the next step is the rest of this one.
                        frontier, allowed = ahead, allowed & ~ahead
                        while frontier and not frontier & start_adj:
                            frontier = _union(adj, frontier) & allowed
                            allowed &= ~frontier
                        if not frontier:
                            continue
                    path.append(w)
                    path_mask |= 1 << w
                    frames.append((_iter_bits(ahead), interior_adj | adj[w]))
                    break
                else:
                    frames.pop()
                    path_mask ^= 1 << path.pop()
    if min_length == 6:
        raise AssertionError("doubly lexical ordering has a Γ but no chordless cycle of length >= 6 exists")
    return None


def verify_chordless(g: BipartiteGraph, cert: CycleCertificate) -> bool:
    """True iff the certificate's vertex list is a chordless cycle of ``g``.

    Checks even length >= 4 and distinct valid vertices, then that each
    vertex's row, cut down to the cycle's vertices, holds exactly its two
    cyclic neighbours.  Malformed certificates simply verify false.
    """
    verts = cert.vertices
    length = len(verts)
    if length < 4 or length % 2:
        return False
    gids = []
    for v in verts:
        bound = g.x_count if v.side is Side.X else g.y_count
        if not 0 <= v.index < bound:
            return False
        gids.append(g.global_id(v))
    if len(set(gids)) != length:
        return False
    adj = g.global_adj
    on_cycle = sum(1 << u for u in gids)
    return all(
        adj[u] & on_cycle == (1 << gids[p - 1] | 1 << gids[(p + 1) % length]) for p, u in enumerate(gids)
    )


def is_connected(g: BipartiteGraph) -> bool:
    """True iff every vertex is reachable from every other (or <= 1 vertex).

    Reads only the X rows.  The part reached from x_0 grows in alternating
    steps: the X vertices whose rows meet the Y vertices reached, then the
    union of the rows reached, until no X vertex is added."""
    if g.vertex_count <= 1:
        return True
    rows = g.x_adj
    if not rows or not g.y_count:
        return False  # two or more vertices, all on one side
    x_seen, y_seen = 1, rows[0]
    while True:
        x_next, bit = x_seen, 1
        for row in rows:
            if row & y_seen:
                x_next |= bit
            bit <<= 1
        if x_next == x_seen:
            return x_seen == (1 << len(rows)) - 1 and y_seen == (1 << g.y_count) - 1
        y_seen |= _union(rows, x_next ^ x_seen)
        x_seen = x_next


def diameter(g: BipartiteGraph) -> int:
    """Largest pairwise distance; input error on empty or disconnected graphs."""
    if g.vertex_count == 0:
        raise InputError("diameter of an empty graph is undefined")
    if not is_connected(g):
        raise InputError("diameter requires a connected graph")
    return max(sum(1 for _ in _bfs_layers(g, s)) for s in range(g.vertex_count)) - 1


# --- graph JSON format -------------------------------------------------------
#
# {"x": [labels], "y": [labels], "edges": [[xLabel, yLabel], ...]}
# Arrays are order-significant: positions define the index order per side.


def graph_to_json(g: BipartiteGraph) -> str:
    obj = {
        "x": list(g.x_labels),
        "y": list(g.y_labels),
        "edges": [[g.x_labels[i], g.y_labels[j]] for i, j in g.edges()],
    }
    return json.dumps(obj, indent=2) + "\n"


def _read_json(text: str, kind: str) -> object:
    """The value a JSON text holds, for the ``kind`` of file it is.  Every
    way the text can fail to be read is one InputError line naming the
    kind: a syntax error, a key repeated in one object (which would
    otherwise keep its last value silently), an integer longer than
    ``int`` reads, and nesting deeper than the parser's recursion."""

    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        obj: dict = {}
        for key, value in pairs:
            if key in obj:
                raise InputError(f"{kind} JSON repeats the key {json.dumps(key)} in one object")
            obj[key] = value
        return obj

    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise InputError(f"{kind} JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError:
        # json.loads reads every number it meets; int refuses one over its digit limit.
        raise InputError(f"{kind} JSON holds an integer with more digits than can be read") from None
    except RecursionError:
        raise InputError(f"{kind} JSON is nested too deeply to read") from None


def graph_from_json(text: str) -> BipartiteGraph:
    obj = _read_json(text, "graph")
    if not isinstance(obj, dict) or not {"x", "y", "edges"} <= set(obj):
        raise InputError('graph JSON must be an object with keys "x", "y", "edges"')
    x_labels = obj["x"]
    y_labels = obj["y"]
    if not all(isinstance(obj[key], list) for key in ("x", "y", "edges")):
        raise InputError('graph JSON "x", "y" and "edges" must be arrays')
    if not all(isinstance(s, str) for s in x_labels + y_labels):
        raise InputError("vertex labels must be strings")
    x_index = {s: i for i, s in enumerate(x_labels)}
    y_index = {s: j for j, s in enumerate(y_labels)}
    edges = []
    for pair in obj["edges"]:
        if not (isinstance(pair, list) and len(pair) == 2):
            raise InputError(f"edge {pair!r} is not a two-element [xLabel, yLabel] array")
        xl, yl = pair
        # A list or object endpoint is unhashable, so test the type first.
        if not isinstance(xl, str) or xl not in x_index:
            raise InputError(f"edge endpoint {xl!r} is not an x label")
        if not isinstance(yl, str) or yl not in y_index:
            raise InputError(f"edge endpoint {yl!r} is not a y label")
        edges.append((x_index[xl], y_index[yl]))
    return build_graph(len(x_labels), len(y_labels), edges, tuple(x_labels), tuple(y_labels))
