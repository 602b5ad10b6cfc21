"""Reference computations the benchmark checks bipower's outputs against.

Written from the definitions and independent of ``src/``: graphs are plain
edge sets over (x index, y index) pairs, matrices are tuples of 0/1 rows.
Nothing here is timed.
"""

from __future__ import annotations

from collections import deque
from itertools import permutations


def adjacency(nx: int, ny: int, edges) -> list[set[int]]:
    """Adjacency lists over global ids: x_i -> i, y_j -> nx + j."""
    adj: list[set[int]] = [set() for _ in range(nx + ny)]
    for i, j in edges:
        adj[i].add(nx + j)
        adj[nx + j].add(i)
    return adj


def bfs_power(nx: int, ny: int, edges, k: int) -> frozenset[tuple[int, int]]:
    """Edge set of the k-th bipartite power: x_i y_j whenever their distance
    is at most k, by one breadth-first search per X vertex."""
    adj = adjacency(nx, ny, edges)
    out = set()
    for i in range(nx):
        dist = {i: 0}
        queue = deque([i])
        while queue:
            v = queue.popleft()
            if dist[v] == k:
                continue
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        out.update((i, w - nx) for w, d in dist.items() if w >= nx and d <= k)
    return frozenset(out)


def distance(nx: int, ny: int, edges, u: int, v: int) -> int | None:
    """Shortest-path length between global ids u and v, None if unreachable."""
    adj = adjacency(nx, ny, edges)
    dist = {u: 0}
    queue = deque([u])
    while queue:
        w = queue.popleft()
        if w == v:
            return dist[w]
        for z in adj[w]:
            if z not in dist:
                dist[z] = dist[w] + 1
                queue.append(z)
    return None


def is_chordless_cycle(nx: int, ny: int, edges, cycle, min_length: int = 6) -> bool:
    """True iff ``cycle`` (a list of (side, index) pairs, side "X" or "Y") is
    a cycle of at least ``min_length`` vertices with no chord."""
    edge_set = set(edges)
    length = len(cycle)
    if length < min_length or length % 2 or len(set(cycle)) != length:
        return False
    for side, index in cycle:
        if side not in ("X", "Y") or not 0 <= index < (nx if side == "X" else ny):
            return False

    def adjacent(p, q) -> bool:
        if p[0] == q[0]:
            return False
        (_, i), (_, j) = (p, q) if p[0] == "X" else (q, p)
        return (i, j) in edge_set

    for p in range(length):
        for q in range(p + 1, length):
            consecutive = q == p + 1 or (p == 0 and q == length - 1)
            if adjacent(cycle[p], cycle[q]) != consecutive:
                return False
    return True


def induced_cycle_lengths(nx: int, ny: int, edges) -> set[int]:
    """Lengths of all chordless cycles, by testing every vertex subset.  A
    subset induces a cycle iff each member has two neighbours inside it and
    the subset is connected.  Exponential: only for graphs up to ~16 vertices."""
    adj = adjacency(nx, ny, edges)
    masks = [sum(1 << w for w in nbrs) for nbrs in adj]
    n = nx + ny
    lengths = set()
    for mask in range(1 << n):
        if mask.bit_count() < 4:
            continue
        if any(mask >> v & 1 and (masks[v] & mask).bit_count() != 2 for v in range(n)):
            continue
        start = (mask & -mask).bit_length() - 1
        seen, stack = 1 << start, [start]
        while stack:
            v = stack.pop()
            fresh = masks[v] & mask & ~seen
            seen |= fresh
            stack.extend(w for w in range(n) if fresh >> w & 1)
        if seen == mask:
            lengths.add(mask.bit_count())
    return lengths


def row_runs(grid) -> list[tuple[int, int]] | None:
    """(first, last) one column per row, or None if some row has a gap or no one."""
    runs = []
    for row in grid:
        ones = [j for j, v in enumerate(row) if v]
        if not ones or ones[-1] - ones[0] + 1 != len(ones):
            return None
        runs.append((ones[0], ones[-1]))
    return runs


def is_monotone_consecutive(grid) -> bool:
    """Every row's ones consecutive, first and last ones non-decreasing down
    the rows (the row formulation of a monotone consecutive arrangement)."""
    runs = row_runs(grid)
    return runs is not None and all(
        a0 <= a1 and b0 <= b1 for (a0, b0), (a1, b1) in zip(runs, runs[1:])
    )


def display(entries, row_perm, col_perm):
    """The matrix as shown under the permutations (display -> original index)."""
    return tuple(tuple(entries[i][j] for j in col_perm) for i in row_perm)


def mca_exists_by_columns(entries) -> bool:
    """Arrangement existence by trying every column order (up to 5 columns):
    for a fixed column order a row order exists iff every row run is
    consecutive and sorting the runs leaves both ends non-decreasing."""
    m = len(entries[0])
    if m > 5:
        raise ValueError("column-permutation oracle is limited to 5 columns")
    for order in permutations(range(m)):
        runs = row_runs(display(entries, range(len(entries)), order))
        if runs is None:
            continue
        runs.sort()
        if all(b0 <= b1 for (_, b0), (_, b1) in zip(runs, runs[1:])):
            return True
    return False


def interval_edges(x_intervals, y_intervals) -> frozenset[tuple[int, int]]:
    """Edges realised by closed intervals: x_i y_j iff the intervals meet."""
    return frozenset(
        (i, j)
        for i, (a, b) in enumerate(x_intervals)
        for j, (c, d) in enumerate(y_intervals)
        if a <= d and c <= b
    )
