"""Bipartite graphs with bitset adjacency, distances, odd powers, and
chordless-cycle search.

Vertices live on two sides X and Y; every edge crosses sides.  Adjacency is
stored once, as one integer bitset per X vertex, and the Y-side view is
derived on demand.  All operations are pure functions of immutable values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterator

from .errors import CapacityError, InputError

DEFAULT_VERTEX_CAP = 64


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


@dataclass(frozen=True)
class BipartiteGraph:
    """Immutable two-sided graph.

    ``x_adj[i]`` has bit ``j`` set iff x_i y_j is an edge.  Instances may be
    shared freely across threads; nothing mutates after construction.
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
        nx = self.x_count
        out = [0] * (nx + self.y_count)
        for i, row in enumerate(self.x_adj):
            for j in _iter_bits(row):
                out[i] |= 1 << (nx + j)
                out[nx + j] |= 1 << i
        return tuple(out)

    @cached_property
    def distances(self) -> tuple[tuple[int | None, ...], ...]:
        """All-pairs distances over global ids: ``distances[u][v]`` is the
        length of a shortest u-v path, None when v is unreachable from u.

        Filled on first use by one breadth-first search per vertex; every
        power, reach set and edge class of this graph reads it.
        """
        adj = self.global_adj
        # Rows share one int object per distance, so the table costs a
        # pointer per entry even where distances exceed the small-int cache.
        depth = list(range(len(adj)))
        table = []
        for start in depth:
            dist: list[int | None] = [None] * len(adj)
            frontier = seen = 1 << start
            for d in depth:
                if not frontier:
                    break
                reach = 0
                for v in _iter_bits(frontier):
                    dist[v] = d
                    reach |= adj[v]
                frontier = reach & ~seen
                seen |= frontier
            table.append(tuple(dist))
        return tuple(table)

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
    indices are an input error.  Labels default to x1..xn / y1..ym.
    """
    if x_count < 0 or y_count < 0:
        raise InputError("side sizes must be non-negative")
    rows = [0] * x_count
    for xi, yj in edges:
        if not (0 <= xi < x_count and 0 <= yj < y_count):
            raise InputError(f"edge ({xi}, {yj}) out of range for {x_count}+{y_count} graph")
        rows[xi] |= 1 << yj
    if x_labels is None:
        x_labels = tuple(f"x{i + 1}" for i in range(x_count))
    if y_labels is None:
        y_labels = tuple(f"y{j + 1}" for j in range(y_count))
    if len(x_labels) != x_count or len(y_labels) != y_count:
        raise InputError("label count does not match side size")
    if len(set(x_labels)) != x_count or len(set(y_labels)) != y_count:
        raise InputError("labels must be unique per side")
    return BipartiteGraph(x_count, y_count, tuple(rows), tuple(x_labels), tuple(y_labels))


@dataclass(frozen=True)
class DistanceTable:
    """Exact shortest-path distances from one source; None means unreachable."""

    source: VertexId
    x_dist: tuple[int | None, ...]
    y_dist: tuple[int | None, ...]

    def of(self, v: VertexId) -> int | None:
        return (self.x_dist if v.side is Side.X else self.y_dist)[v.index]


def bfs_distance(g: BipartiteGraph, source: VertexId) -> DistanceTable:
    """Distances from ``source`` to every vertex: its row of ``g.distances``."""
    row = g.distances[g.global_id(source)]
    nx = g.x_count
    return DistanceTable(source, row[:nx], row[nx:])


def bipartite_power(g: BipartiteGraph, k: int) -> BipartiteGraph:
    """Return the graph on the same vertices with x adjacent to y iff their
    distance in ``g`` is at most ``k``.

    Cross-side distances are always odd, so the parity requirement is
    automatic; ``k`` itself must be an odd positive integer because even
    powers of a bipartite graph stop being bipartite.  Vertices in different
    components stay non-adjacent.
    """
    _require_odd_k(k)
    nx = g.x_count
    rows = []
    for dist in g.distances[:nx]:
        row = 0
        for j, d in enumerate(dist[nx:]):
            if d is not None and d <= k:
                row |= 1 << j
        rows.append(row)
    return BipartiteGraph(nx, g.y_count, tuple(rows), g.x_labels, g.y_labels)


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


def _check_vertex_cap(g: BipartiteGraph, vertex_cap: int = DEFAULT_VERTEX_CAP) -> None:
    n = g.vertex_count
    if n > vertex_cap:
        raise CapacityError(f"graph has {n} vertices, above the cycle-search cap {vertex_cap}")


def find_chordless_cycle(
    g: BipartiteGraph, min_length: int, *, vertex_cap: int = DEFAULT_VERTEX_CAP
) -> CycleCertificate | None:
    """Find some induced cycle of length >= ``min_length``, or None.

    Depth-first search over induced paths: a path grows only by vertices
    adjacent to its head and non-adjacent to every interior vertex, so any
    closure back to the start is automatically chordless.  Start vertices,
    second vertices, and extensions are all taken in ascending global index
    and only indices above the start are used, which makes the result a
    deterministic function of the graph.

    The search is exponential in the worst case, and the worst case is the
    one where no cycle exists: proving the negative visits every induced
    path.  Deciding chordal bipartiteness (``min_length`` 6) is therefore
    done polynomially by ``chordal_power.is_chordal_bipartite``, which calls
    this search only to extract the witness once the answer is known to be
    "no".  Longer thresholds (k-chordality for k >= 6) and the lift fallback
    still rely on it alone.
    """
    if min_length < 6 or min_length % 2:
        raise InputError(f"min_length must be even and >= 6, got {min_length}")
    _check_vertex_cap(g, vertex_cap)
    n = g.vertex_count
    adj = g.global_adj

    def extend(head: int, path: list[int], path_mask: int, interior_adj: int) -> list[int] | None:
        start_bit = 1 << path[0]
        cand = adj[head] & ~path_mask & ~interior_adj & high_mask
        for w in _iter_bits(cand):
            if adj[w] & start_bit:
                # Closing edge exists: either report the cycle or abandon w,
                # since extending past it would leave a chord back to the start.
                if len(path) + 1 >= min_length:
                    return path + [w]
                continue
            found = extend(w, path + [w], path_mask | 1 << w, interior_adj | adj[head])
            if found is not None:
                return found
        return None

    for v0 in range(n):
        high_mask = -1 << (v0 + 1)
        for v1 in _iter_bits(adj[v0] & high_mask):
            found = extend(v1, [v0, v1], (1 << v0) | (1 << v1), 0)
            if found is not None:
                return CycleCertificate(tuple(g.vertex_of_global(w) for w in found), 1)
    return None


def verify_chordless(g: BipartiteGraph, cert: CycleCertificate) -> bool:
    """True iff the certificate's vertex list is a chordless cycle of ``g``.

    Checks even length >= 4, distinct valid vertices, every cyclically
    consecutive pair an edge, and every other pair a non-edge.  Malformed
    certificates simply verify false.
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
    for p in range(length):
        for q in range(p + 1, length):
            consecutive = q - p == 1 or (p == 0 and q == length - 1)
            adjacent = bool(adj[gids[p]] >> gids[q] & 1)
            if adjacent != consecutive:
                return False
    return True


def is_connected(g: BipartiteGraph) -> bool:
    """True iff every vertex is reachable from every other (or <= 1 vertex)."""
    return g.vertex_count <= 1 or None not in g.distances[0]


def diameter(g: BipartiteGraph) -> int:
    """Largest pairwise distance; input error on empty or disconnected graphs."""
    if g.vertex_count == 0:
        raise InputError("diameter of an empty graph is undefined")
    if None in g.distances[0]:
        raise InputError("diameter requires a connected graph")
    return max(map(max, g.distances))


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


def graph_from_json(text: str) -> BipartiteGraph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"graph JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
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
    if len(x_index) != len(x_labels) or len(y_index) != len(y_labels):
        raise InputError("labels must be unique per side")
    edges = []
    for pair in obj["edges"]:
        if not (isinstance(pair, list) and len(pair) == 2):
            raise InputError(f"edge {pair!r} is not a two-element [xLabel, yLabel] array")
        xl, yl = pair
        if xl not in x_index:
            raise InputError(f"edge endpoint {xl!r} is not an x label")
        if yl not in y_index:
            raise InputError(f"edge endpoint {yl!r} is not a y label")
        edges.append((x_index[xl], y_index[yl]))
    return build_graph(len(x_labels), len(y_labels), edges, tuple(x_labels), tuple(y_labels))
