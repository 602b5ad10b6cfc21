"""Independent brute-force oracles.

Everything here recomputes results from first principles (path enumeration,
subset enumeration, exhaustive permutations) using only the public graph
surface, so the fast implementations are checked against genuinely separate
code paths.  The searches that fast paths replaced (the unconfined cycle
search, the row-order backtracker), the all-pairs distance table, and the
kernels of the chordal-bipartite decision (the integer-keyed ordering, the
graph's own ordering expanded from its twin-free core to every vertex, the
edge-scanning block search, a doubly lexical ordering per block), and the
cycle search over the whole graph that the search over the twin-free core
replaced are kept here too, as references that the fast paths must match result for result.
So are the tuple-grid forms of the arrangement and interval power checks,
which the bitset kernels replaced, with the displayed grid they read, and
the pair-by-pair chordless-cycle check that the row-per-vertex one replaced.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterator, Sequence

from bipower import BipartiteGraph, CycleCertificate, Side
from bipower.core import _biconnected_blocks, _gamma_free, _iter_bits, _union, bipartite_power, build_graph, graph_to_json
from bipower.errors import CapacityError, InputError, TheoremCounterexample
from bipower.intervals import Interval, IntervalRepresentation, intervals_tsv
from bipower.mca import ArrangedMatrix, McaCertificate, matrix_text, verify_mca

# The row-order backtracker is exponential, so it refuses larger matrices.
BACKTRACK_SIZE_CAP = 12


def plain_adjacency(g: BipartiteGraph) -> list[set[int]]:
    """Adjacency over global ids rebuilt edge by edge from has_edge."""
    n = g.x_count + g.y_count
    adj: list[set[int]] = [set() for _ in range(n)]
    for i in range(g.x_count):
        for j in range(g.y_count):
            if g.has_edge(i, j):
                adj[i].add(g.x_count + j)
                adj[g.x_count + j].add(i)
    return adj


def path_distance(g: BipartiteGraph, u: int, v: int) -> int | None:
    """Shortest u-v distance by exhaustive simple-path enumeration."""
    adj = plain_adjacency(g)
    best: int | None = None

    def walk(cur: int, seen: set[int], length: int) -> None:
        nonlocal best
        if cur == v:
            if best is None or length < best:
                best = length
            return
        if best is not None and length >= best:
            return
        for w in adj[cur]:
            if w not in seen:
                walk(w, seen | {w}, length + 1)

    walk(u, {u}, 0)
    return best


def distance_table(g: BipartiteGraph) -> list[list[int | None]]:
    """All-pairs distances over global ids, one breadth-first search per
    vertex over ``plain_adjacency``; None marks an unreachable pair.  This
    is the table the graph once kept for every power and distance query."""
    adj = plain_adjacency(g)
    table = []
    for source in range(len(adj)):
        dist: list[int | None] = [None] * len(adj)
        dist[source] = 0
        queue = [source]
        for u in queue:
            for w in sorted(adj[u]):
                if dist[w] is None:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        table.append(dist)
    return table


def induced_cycle_lengths(g: BipartiteGraph) -> set[int]:
    """Lengths of all chordless cycles, by checking every vertex subset.

    A subset induces a (single, automatically chordless) cycle exactly when
    every chosen vertex has exactly two chosen neighbours and the chosen
    part is connected.
    """
    adj = plain_adjacency(g)
    n = len(adj)
    masks = [sum(1 << w for w in nbrs) for nbrs in adj]
    lengths: set[int] = set()
    for mask in range(1 << n):
        size = mask.bit_count()
        if size < 4:
            continue
        ok = True
        for v in range(n):
            if mask >> v & 1 and (masks[v] & mask).bit_count() != 2:
                ok = False
                break
        if not ok:
            continue
        start = (mask & -mask).bit_length() - 1
        seen = 1 << start
        frontier = [start]
        while frontier:
            v = frontier.pop()
            fresh = masks[v] & mask & ~seen
            seen |= fresh
            while fresh:
                low = fresh & -fresh
                frontier.append(low.bit_length() - 1)
                fresh ^= low
        if seen == mask:
            lengths.add(size)
    return lengths


def has_induced_cycle(g: BipartiteGraph, min_length: int) -> bool:
    return any(length >= min_length for length in induced_cycle_lengths(g))


def pairwise_verify_chordless(g: BipartiteGraph, cert: CycleCertificate) -> bool:
    """``verify_chordless`` pair by pair: even length >= 4, distinct valid
    vertices, every cyclically consecutive pair an edge and every other
    pair a non-edge."""
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


def unconfined_chordless_cycle(g: BipartiteGraph, min_length: int) -> CycleCertificate | None:
    """Reference for ``find_chordless_cycle``, which searches only the
    biconnected blocks that are not chordal bipartite and cuts every branch
    that can no longer reach the start: the same depth-first search over
    every vertex of the graph, with no cut.  Both must return the same
    certificate, None included.

    Induced paths grow from each start vertex in ascending global index,
    through vertices above the start only, by neighbours of the head that
    see no interior vertex; the first closure back to the start at length
    ``min_length`` or more is the cycle.
    """
    adj = g.global_adj

    def extend(head: int, path: list[int], path_mask: int, interior_adj: int, high_mask: int) -> list[int] | None:
        start_bit = 1 << path[0]
        cand = adj[head] & ~path_mask & ~interior_adj & high_mask
        while cand:
            low = cand & -cand
            cand ^= low
            w = low.bit_length() - 1
            if adj[w] & start_bit:
                if len(path) + 1 >= min_length:
                    return path + [w]
                continue
            found = extend(w, path + [w], path_mask | low, interior_adj | adj[head], high_mask)
            if found is not None:
                return found
        return None

    for v0 in range(len(adj)):
        high_mask = -1 << (v0 + 1)
        for v1 in range(v0 + 1, len(adj)):
            if adj[v0] >> v1 & 1:
                found = extend(v1, [v0, v1], (1 << v0) | (1 << v1), 0, high_mask)
                if found is not None:
                    return CycleCertificate(tuple(g.vertex_of_global(w) for w in found), 1)
    return None


def _bits(mask: int) -> list[int]:
    return [p for p in range(mask.bit_length()) if mask >> p & 1]


def _lex_keys(bits: list[list[int]], order: list[int]) -> list[int]:
    """Each set of bit positions read as an integer under a display order of
    the positions: the position shown first becomes the most significant."""
    width = len(order)
    weight = [0] * width
    for p, orig in enumerate(order):
        weight[orig] = 1 << (width - 1 - p)
    return [sum(map(weight.__getitem__, row)) for row in bits]


def doubly_lexical_ordering(g: BipartiteGraph) -> tuple[list[int], list[int], list[int]]:
    """Row and column display orders (display position -> X / Y index) under
    which the biadjacency matrix is doubly lexical, plus the rows as shown.

    Doubly lexical here means rows and columns both in decreasing
    lexicographic order, first column / first row most significant; each
    shown row is a bitset whose high bit is the first shown column.  This
    is the ordering of the twin-free core that the graph keeps
    (``g._ordering``), with each class expanded to its members in index
    order.  Equal rows, and equal columns, sit together in any doubly
    lexical order, and two rows first differ at the first shown member of a
    column class; so the expansion is the ordering that the same sorts give
    on the whole matrix.
    """
    row_classes, col_classes, _, row_order, col_order, _ = g._ordering
    rows = [i for a in row_order for i in _iter_bits(row_classes[a])]
    cols = [j for b in col_order for j in _iter_bits(col_classes[b])]
    shown = [sum(1 << (len(cols) - 1 - p) for p, j in enumerate(cols) if g.x_adj[i] >> j & 1) for i in rows]
    return rows, cols, shown


def lex_keyed_ordering(x_rows: Sequence[int], y_count: int) -> tuple[list[int], list[int], list[int]]:
    """Reference for ``doubly_lexical_ordering``, the graph's ordering, which
    sorts the twin-free core by '0'/'1' string keys: the same alternating
    stable sorts on the whole matrix, on integer keys rebuilt from each
    row's and column's bit positions.  Both must return the same row order,
    column order and shown rows."""
    x_bits = [_bits(row) for row in x_rows]
    y_bits: list[list[int]] = [[] for _ in range(y_count)]
    for i, row in enumerate(x_bits):
        for j in row:
            y_bits[j].append(i)
    rows, cols = list(range(len(x_rows))), list(range(y_count))
    while True:
        row_key = _lex_keys(x_bits, cols)
        rows.sort(key=row_key.__getitem__, reverse=True)
        col_key = _lex_keys(y_bits, rows)
        new_cols = sorted(cols, key=col_key.__getitem__, reverse=True)
        if new_cols == cols:
            return rows, cols, [row_key[i] for i in rows]
        cols = new_cols


def tarjan_blocks(adj: Sequence[int]) -> Iterator[int]:
    """Reference for ``core._biconnected_blocks``, which takes low points
    from path prefixes: the vertex sets of the biconnected blocks that hold
    an edge, by a depth-first search that steps through every edge, keeping
    discovery times, low points and a vertex stack (Hopcroft & Tarjan, CACM
    16, 1973)."""
    disc = [0] * len(adj)  # 0: not yet discovered
    low = [0] * len(adj)
    clock = 0
    for root, root_adj in enumerate(adj):
        if disc[root] or not root_adj:
            continue
        clock += 1
        disc[root] = low[root] = clock
        path, todo, stack = [root], [root_adj], [root]
        while path:
            v = path[-1]
            rest = todo[-1]
            if rest:
                bit = rest & -rest
                todo[-1] = rest ^ bit
                w = bit.bit_length() - 1
                if disc[w]:
                    low[v] = min(low[v], disc[w])
                else:
                    clock += 1
                    disc[w] = low[w] = clock
                    path.append(w)
                    todo.append(adj[w])
                    stack.append(w)
                continue
            path.pop()
            todo.pop()
            if path:
                u = path[-1]
                low[u] = min(low[u], low[v])
                if low[v] >= disc[u]:
                    block = 1 << u
                    while True:
                        w = stack.pop()
                        block |= 1 << w
                        if w == v:
                            break
                    yield block


def has_gamma(shown: Sequence[int], width: int) -> bool:
    """A Γ, [[0,1],[1,1]] at rows i < i' and columns j < j', in the rows
    ``shown`` read as ``width``-bit strings, by trying every pair of rows
    and every pair of columns."""
    cells = [[row >> (width - 1 - p) & 1 for p in range(width)] for row in shown]
    return any(
        not top[j] and top[j2] and bottom[j] and bottom[j2]
        for i, top in enumerate(cells)
        for bottom in cells[i + 1:]
        for j in range(width)
        for j2 in range(j + 1, width)
    )


def cycle_bearing_per_block(g: BipartiteGraph, min_length: int) -> int:
    """Reference for ``core._cycle_bearing_vertices``, which scans each
    block on its restriction of the graph's ordering only: every block of
    at least ``min_length`` vertices decided on a doubly lexical ordering of
    its own rows, masked with its Y bits.  Where both keep the same union,
    a Γ in a block's restriction marked a block that is not chordal
    bipartite."""
    nx = g.x_count
    kept = 0
    for block in tarjan_blocks(g.global_adj):
        if block.bit_count() < min_length:
            continue
        y_bits = block >> nx
        rows = [g.x_adj[i] & y_bits for i in _bits(block & ((1 << nx) - 1))]
        if has_gamma(lex_keyed_ordering(rows, g.y_count)[2], g.y_count):
            kept |= block
    return kept


def twin_free_core(g: BipartiteGraph) -> BipartiteGraph:
    """The subgraph of ``g`` induced on the lowest member of each class of
    twins (X vertices with equal rows, Y vertices with equal columns),
    each side kept in index order: the graph over which
    ``BipartiteGraph._core_adj`` holds the adjacency, rebuilt edge by edge."""
    xs = [i for i in range(g.x_count) if g.x_adj[i] not in g.x_adj[:i]]
    columns = [[g.has_edge(i, j) for i in range(g.x_count)] for j in range(g.y_count)]
    ys = [j for j in range(g.y_count) if columns[j] not in columns[:j]]
    edges = [(a, b) for a, i in enumerate(xs) for b, j in enumerate(ys) if g.has_edge(i, j)]
    return build_graph(len(xs), len(ys), edges)


def full_graph_chordless_cycle(g: BipartiteGraph, min_length: int) -> CycleCertificate | None:
    """Reference for ``find_chordless_cycle``, which searches the graph's
    twin-free core: the same search over every vertex of the graph, twins
    included.  None for a graph whose whole doubly lexical ordering is
    Γ-free; otherwise the biconnected blocks of the whole graph with at
    least ``min_length`` vertices whose restriction of that ordering has a
    Γ, searched by the same pruned depth-first search.  Both must return
    the same certificate, None included."""
    if min_length < 6 or min_length % 2:
        raise InputError(f"min_length must be even and >= 6, got {min_length}")
    rows, cols, shown = lex_keyed_ordering(g.x_adj, g.y_count)
    if _gamma_free(shown):
        return None
    adj, nx, top = g.global_adj, g.x_count, len(cols) - 1
    live = 0
    for block in _biconnected_blocks(adj):
        mask = sum(1 << (top - p) for p, j in enumerate(cols) if block >> (nx + j) & 1)
        restriction = [row & mask for i, row in zip(rows, shown) if block >> i & 1]
        if block.bit_count() >= min_length and not _gamma_free(restriction):
            live |= block

    for v0 in _iter_bits(live):
        high_mask = live & (-1 << (v0 + 1))
        start_adj = adj[v0]
        for v1 in _iter_bits(start_adj & high_mask):
            path, path_mask = [v0, v1], 1 << v0 | 1 << v1
            frames = [(_iter_bits(adj[v1] & ~path_mask & high_mask), adj[v1])]
            while frames:
                cand, interior_adj = frames[-1]
                for w in cand:
                    if start_adj >> w & 1:
                        if len(path) + 1 >= min_length:
                            return CycleCertificate(tuple(g.vertex_of_global(u) for u in path + [w]), 1)
                        continue
                    allowed, frontier = high_mask & ~path_mask & ~interior_adj, 1 << w
                    while frontier and not frontier & start_adj:
                        frontier = _union(adj, frontier) & allowed
                        allowed &= ~frontier
                    if frontier:
                        path.append(w)
                        path_mask |= 1 << w
                        ahead = adj[w] & ~path_mask & ~interior_adj & high_mask
                        frames.append((_iter_bits(ahead), interior_adj | adj[w]))
                        break
                else:
                    frames.pop()
                    path_mask ^= 1 << path.pop()
    return None


def backtrack_mca(
    mat: ArrangedMatrix, *, size_cap: int = BACKTRACK_SIZE_CAP
) -> tuple[ArrangedMatrix, McaCertificate] | None:
    """Search for row and column permutations exhibiting a monotone
    consecutive arrangement of ``mat.entries``; None if there is none.

    Reference for ``find_mca``, which builds each component's forced row
    order instead of searching: both must return the same arrangement and
    certificate, None included.

    Backtracking over row display orders, trying candidate rows in ascending
    original index.  A partial order dies as soon as some column's placed
    ones have a gap, or its run has closed while ones remain unplaced.  For
    each complete row order the column order is forced: each column's ones
    must already be consecutive, and sorting columns by (first row, last
    row, original index) is the only candidate display up to identical
    columns.  The first arrangement that verifies is returned, so the result
    is the lexicographically least acceptable one under this candidate order.
    Identical rows are placed in ascending index only: swapping two of them
    gives the same subtree, so the skipped orders could add nothing and the
    first arrangement found is unchanged.
    """
    entries = mat.entries
    n = len(entries)
    m = len(entries[0]) if n else 0
    if max(n, m) > size_cap:
        raise CapacityError(f"matrix is {n}x{m}, above the arrangement-search cap {size_cap}")
    check_nonzero_grid(entries)

    col_rows = [[i for i in range(n) if entries[i][j]] for j in range(m)]
    total = [len(rows) for rows in col_rows]
    count = [0] * m
    last = [-1] * m
    placed: list[int] = []
    used = [False] * n
    # twin[r]: the nearest lower index holding a row identical to row r, or -1.
    seen: dict[tuple[int, ...], int] = {}
    twin = [-1] * n
    for r, row in enumerate(entries):
        twin[r] = seen.get(row, -1)
        seen[row] = r

    def place(orig_row: int) -> bool:
        pos = len(placed)
        touched = []
        for j in range(m):
            if entries[orig_row][j]:
                if count[j] and last[j] != pos - 1:
                    for jj in touched:  # undo before rejecting
                        count[jj] -= 1
                        last[jj] = pos - 1 if count[jj] else -1
                    return False
                count[j] += 1
                last[j] = pos
                touched.append(j)
        placed.append(orig_row)
        used[orig_row] = True
        return True

    def unplace(orig_row: int) -> None:
        pos = len(placed) - 1
        placed.pop()
        used[orig_row] = False
        for j in range(m):
            if entries[orig_row][j]:
                count[j] -= 1
                last[j] = pos - 1 if count[j] else -1

    def stuck() -> bool:
        pos = len(placed)
        return any(0 < count[j] < total[j] and last[j] != pos - 1 for j in range(m))

    def search() -> tuple[ArrangedMatrix, McaCertificate] | None:
        if len(placed) == n:
            # Runs are consecutive by the pruning invariant, so each column's
            # first placed one sits count-1 positions above its last.
            order = sorted(range(m), key=lambda j: (last[j] - count[j] + 1, last[j], j))
            candidate = ArrangedMatrix(entries, tuple(placed), tuple(order))
            cert = verify_mca(candidate)
            if cert is not None:
                return candidate, cert
            return None
        for r in range(n):
            if used[r] or (twin[r] >= 0 and not used[twin[r]]):
                continue
            if not place(r):
                continue
            if not stuck():
                found = search()
                if found is not None:
                    return found
            unplace(r)
        return None

    return search()


def mca_exists(entries: tuple[tuple[int, ...], ...]) -> bool:
    """Arrangement existence by exhausting column orders.

    For one fixed column order, a usable row order exists iff every row's
    ones are consecutive and the (first, last) pairs can be sorted with both
    coordinates non-decreasing, i.e. lexicographic sorting leaves the second
    coordinate monotone.
    """
    n = len(entries)
    m = len(entries[0])
    row_cols = [tuple(j for j in range(m) if row[j]) for row in entries]
    for col_order in permutations(range(m)):
        pos = [0] * m
        for p, j in enumerate(col_order):
            pos[j] = p
        runs = []
        ok = True
        for cols in row_cols:
            where = sorted(pos[j] for j in cols)
            if where[-1] - where[0] + 1 != len(where):
                ok = False
                break
            runs.append((where[0], where[-1]))
        if not ok:
            continue
        runs.sort()
        if all(prev[1] <= cur[1] for prev, cur in zip(runs, runs[1:])):
            return True
    return False


def mca_exists_literal(entries: tuple[tuple[int, ...], ...]) -> bool:
    """Fully literal oracle: every row order times every column order."""
    n = len(entries)
    m = len(entries[0])
    for row_order in permutations(range(n)):
        for col_order in permutations(range(m)):
            a_prev, b_prev = 0, 0
            ok = True
            for i in row_order:
                ones = [p for p, j in enumerate(col_order) if entries[i][j]]
                if ones[-1] - ones[0] + 1 != len(ones) or ones[0] < a_prev or ones[-1] < b_prev:
                    ok = False
                    break
                a_prev, b_prev = ones[0], ones[-1]
            if ok:
                return True
    return False


# --- the arrangement formulations verify_mca does not evaluate -------------
#
# verify_mca reads only the row runs of a display and derives the column
# runs and zero labels from them.  The functions below read the displayed
# grid directly (0/1 rows, display order), so each certificate field is
# checked against a separate formulation.


def display(mat: ArrangedMatrix) -> tuple[tuple[int, ...], ...]:
    """The 0/1 grid of ``mat`` as shown: row p is original row
    ``row_perm[p]``, column q original column ``col_perm[q]``."""
    return tuple(tuple(mat.entries[i][j] for j in mat.col_perm) for i in mat.row_perm)


def column_runs(grid: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Column condition: first/last one rows (1-based) of every column, when
    each column's ones are consecutive and both sequences are non-decreasing;
    None otherwise.  Every column must hold a one."""
    first, last = [], []
    for j in range(len(grid[0])):
        rows = [i + 1 for i, row in enumerate(grid) if row[j]]
        if rows[-1] - rows[0] + 1 != len(rows):
            return None
        first.append(rows[0])
        last.append(rows[-1])
    if any(x > y for x, y in zip(first, first[1:])) or any(x > y for x, y in zip(last, last[1:])):
        return None
    return tuple(first), tuple(last)


def _quadrant_has_one(grid: tuple[tuple[int, ...], ...], i: int, j: int, up_right: bool) -> bool:
    """Any one in rows <= i and columns >= j (up_right), or in rows >= i and
    columns <= j; 0-based, the cell itself included."""
    rows = range(i + 1) if up_right else range(i, len(grid))
    cols = range(j, len(grid[0])) if up_right else range(j + 1)
    return any(grid[r][c] for r in rows for c in cols)


def labeling_exists(grid: tuple[tuple[int, ...], ...]) -> bool:
    """Labelling formulation: every zero sees no one up-and-right of it (it
    may be an R) or no one down-and-left of it (it may be a C)."""
    return all(
        not _quadrant_has_one(grid, i, j, True) or not _quadrant_has_one(grid, i, j, False)
        for i, row in enumerate(grid)
        for j, v in enumerate(row)
        if not v
    )


def quadrant_labels(grid: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, int, str], ...]:
    """Row-major (row, column, mark) of every zero, 1-based: R when no one
    lies up-and-right of it, C otherwise."""
    return tuple(
        (i + 1, j + 1, "C" if _quadrant_has_one(grid, i, j, True) else "R")
        for i, row in enumerate(grid)
        for j, v in enumerate(row)
        if not v
    )


def labels_closed(grid: tuple[tuple[int, ...], ...], labels: tuple[tuple[int, int, str], ...]) -> bool:
    """Closure check on a zero labelling (1-based positions): every zero is
    labelled once, every cell up-and-right of an R is a zero labelled R, and
    every cell down-and-left of a C is a zero labelled C."""
    mark = {(i - 1, j - 1): m for i, j, m in labels}
    zeros = {(i, j) for i, row in enumerate(grid) for j, v in enumerate(row) if not v}
    if len(mark) != len(labels) or set(mark) != zeros:
        return False
    n, m = len(grid), len(grid[0])
    for (i, j), label in mark.items():
        if label == "R":
            region = ((r, c) for r in range(i + 1) for c in range(j, m))
        elif label == "C":
            region = ((r, c) for r in range(i, n) for c in range(j + 1))
        else:
            return False
        if any(mark.get(cell) != label for cell in region):
            return False
    return True


# --- the tuple-grid power checks ---------------------------------------------
#
# mca and intervals decide the t4 and t3 power checks on row bitsets.  These
# are the forms they replaced: 0/1 grids of tuples, one cell at a time.


def check_nonzero_grid(grid: tuple[tuple[int, ...], ...]) -> None:
    """The input errors of ``verify_mca`` on a displayed grid: no row or no
    column, then the first all-zero row, then the first all-zero column."""
    n = len(grid)
    m = len(grid[0]) if n else 0
    if n == 0 or m == 0:
        raise InputError("matrix must have at least one row and one column")
    for i, row in enumerate(grid):
        if not any(row):
            raise InputError(f"row {i + 1} is all zeros; arrangements require non-zero rows")
    for j, column in enumerate(zip(*grid)):
        if not any(column):
            raise InputError(f"column {j + 1} is all zeros; arrangements require non-zero columns")


def grid_row_condition(grid: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Row condition on a grid with no zero row: the first/last one columns
    (1-based) of every row, when each row's ones are consecutive and both
    sequences are non-decreasing; None otherwise."""
    first, last = [], []
    for row in grid:
        ones = [j for j, v in enumerate(row) if v]
        if ones[-1] - ones[0] + 1 != len(ones):
            return None
        first.append(ones[0] + 1)
        last.append(ones[-1] + 1)
    if any(x > y for x, y in zip(first, first[1:])) or any(x > y for x, y in zip(last, last[1:])):
        return None
    return tuple(first), tuple(last)


def grid_matrix_power(g: BipartiteGraph, base: ArrangedMatrix, k: int) -> ArrangedMatrix:
    """Reference for ``mca._check_matrix_power``: the k-power's 0/1 grid,
    read cell by cell from ``has_edge``, shown under ``base``'s permutations
    and checked by ``grid_row_condition``.  Raises the same
    TheoremCounterexample when the arrangement breaks."""
    power = bipartite_power(g, k)
    entries = tuple(tuple(int(power.has_edge(i, j)) for j in range(power.y_count)) for i in range(power.x_count))
    out = ArrangedMatrix(entries, base.row_perm, base.col_perm)
    grid = display(out)
    check_nonzero_grid(grid)
    if grid_row_condition(grid) is None:
        raise TheoremCounterexample(
            f"power at k={k} broke a monotone consecutive arrangement",
            {"kind": "matrix-power", "k": k, "matrix": matrix_text(base)},
        )
    return out


def pairwise_reach_lefts(
    power: BipartiteGraph, rep: IntervalRepresentation
) -> tuple[list[int | None], list[int | None]]:
    """Reference for ``intervals._reach_lefts``: per X and per Y vertex, the
    largest left endpoint over every opposite vertex adjacent in ``power``,
    read from its row (X) or its column (Y); None where there is none."""

    def largest(intervals: tuple[Interval, ...], reach: int) -> int | None:
        return max((iv.left for u, iv in enumerate(intervals) if reach >> u & 1), default=None)

    return (
        [largest(rep.y_intervals, row) for row in power.x_adj],
        [largest(rep.x_intervals, column) for column in power.y_adj],
    )


def intersects(a: Interval, b: Interval) -> bool:
    """Whether two closed intervals meet: the pairwise form of the row-bitset
    kernel ``intervals._meeting_rows``."""
    return a.left <= b.right and b.left <= a.right


def pairwise_power_representation(
    g: BipartiteGraph, rep: IntervalRepresentation, k: int
) -> IntervalRepresentation:
    """Reference for ``intervals._check_power_representation``: the right
    endpoints of ``pairwise_reach_lefts`` clamped to the left endpoints, then
    every cross pair tested with ``intersects`` in row-major order,
    and the first mismatch raised with the same record."""
    power = bipartite_power(g, k)

    def clamped(intervals: tuple[Interval, ...], reach: list[int | None], side: str) -> tuple[Interval, ...]:
        out = []
        for v, (iv, right) in enumerate(zip(intervals, reach)):
            if right is None:
                raise InputError(f"no opposite-side vertex within distance {k} of {side}{v}")
            out.append(Interval(iv.left, max(iv.left, right)))
        return tuple(out)

    x_reach, y_reach = pairwise_reach_lefts(power, rep)
    result = IntervalRepresentation(clamped(rep.x_intervals, x_reach, "X"), clamped(rep.y_intervals, y_reach, "Y"))
    for i, ix in enumerate(result.x_intervals):
        for j, iy in enumerate(result.y_intervals):
            if intersects(ix, iy) != power.has_edge(i, j):
                raise TheoremCounterexample(
                    f"power representation fails for pair ({g.x_labels[i]}, {g.y_labels[j]}) at k={k}",
                    {
                        "kind": "power-representation",
                        "k": k,
                        "graph": graph_to_json(g),
                        "intervals": intervals_tsv(rep, g.x_labels, g.y_labels),
                        "offending_pair": [g.x_labels[i], g.y_labels[j]],
                        "edge_in_power": power.has_edge(i, j),
                    },
                )
    return result


def pairwise_verify_representation(g: BipartiteGraph, rep: IntervalRepresentation) -> bool:
    """Reference for ``intervals.verify_representation`` on matching sizes:
    every cross pair tested with ``intersects`` against the edge."""
    return all(
        intersects(ix, iy) == g.has_edge(i, j)
        for i, ix in enumerate(rep.x_intervals)
        for j, iy in enumerate(rep.y_intervals)
    )


def pairwise_intervals_to_graph(rep: IntervalRepresentation) -> BipartiteGraph:
    """Reference for ``intervals.intervals_to_graph``: the edge list of every
    intersecting cross pair, through ``build_graph``."""
    edges = [
        (i, j)
        for i, ix in enumerate(rep.x_intervals)
        for j, iy in enumerate(rep.y_intervals)
        if intersects(ix, iy)
    ]
    return build_graph(len(rep.x_intervals), len(rep.y_intervals), edges)


def reindexed_graph(g: BipartiteGraph, x_perm: Sequence[int], y_perm: Sequence[int]) -> BipartiteGraph:
    """``g`` relabelled: its edges and labels moved so that new index p
    holds old index perm[p] on each side."""
    y_pos = {old: new for new, old in enumerate(y_perm)}
    edges = [(new, y_pos[j]) for new, old in enumerate(x_perm) for j in range(g.y_count) if g.has_edge(old, j)]
    return build_graph(
        g.x_count, g.y_count, edges, tuple(g.x_labels[i] for i in x_perm), tuple(g.y_labels[j] for j in y_perm)
    )


def edge_list_enumeration(nx: int, ny: int) -> Iterator[BipartiteGraph]:
    """Reference for ``harness.enumerate_bipartite``: bit t of the counter is
    the edge (t // ny, t % ny), every subset built from its edge list."""
    pairs = [(t // ny, t % ny) for t in range(nx * ny)]
    for mask in range(1 << (nx * ny)):
        yield build_graph(nx, ny, [pairs[t] for t in range(nx * ny) if mask >> t & 1])
