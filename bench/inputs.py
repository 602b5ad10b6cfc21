"""Seeded input generators.  Every input the program sees is built here from
a ``random.Random`` the workload seeds, with no call into bipower."""

from __future__ import annotations

import random


def interval_bigraph(rng: random.Random, nx: int, ny: int, span: int, max_length: int):
    """Closed integer intervals of length 0..max_length inside [0, span];
    returns (x intervals, y intervals, edge list of meeting pairs)."""

    def draw(count: int) -> list[tuple[int, int]]:
        out = []
        for _ in range(count):
            length = rng.randint(0, max_length)
            left = rng.randint(0, span - length)
            out.append((left, left + length))
        return out

    xs, ys = draw(nx), draw(ny)
    edges = [(i, j) for i, (a, b) in enumerate(xs) for j, (c, d) in enumerate(ys) if a <= d and c <= b]
    return xs, ys, edges


def band_bigraph(rng: random.Random, n: int, width: int) -> list[tuple[int, int]]:
    """Edges of an n+n staircase bigraph: row i meets columns a_i..b_i with
    both ends non-decreasing, a_i advancing by 0..2 and runs up to ``width``
    wide.  Every such graph has a monotone consecutive arrangement."""
    runs = []
    a, b = 0, min(rng.randint(0, width), n - 1)
    for i in range(n):
        if i:
            a = min(a + rng.randint(0, 2), b + 1, n - 1)
            b = max(b, min(a + rng.randint(0, width), n - 1))
        runs.append((a, b))
    runs[-1] = (runs[-1][0], n - 1)
    return [(i, j) for i, (a, b) in enumerate(runs) for j in range(a, b + 1)]


def staircase_runs(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """n distinct row runs (first, last column, 0-based), n <= m, with both
    ends non-decreasing and every one of m columns covered: each step down
    moves the first column, the last column or both one to the right."""
    while True:
        moves = [rng.choice(((1, 0), (0, 1), (1, 1))) for _ in range(n - 1)]
        a, b = 0, m - 1 - sum(db for _, db in moves)
        runs = [(a, b)]
        for da, db in moves:
            a, b = a + da, b + db
            runs.append((a, b))
        if runs[0][1] >= 0 and all(a <= b for a, b in runs):
            return runs


def shuffled_staircase(rng: random.Random, n: int, m: int, copies: int) -> tuple[tuple[int, ...], ...]:
    """An n x m staircase whose rows and columns are shuffled.  With
    ``copies`` > 1 one row run appears that many times (repeated rows);
    all other runs are distinct."""
    runs = staircase_runs(rng, n - copies + 1, m)
    runs += [runs[rng.randrange(len(runs))]] * (copies - 1)
    runs.sort()
    rows = [tuple(1 if a <= j <= b else 0 for j in range(m)) for a, b in runs]
    rng.shuffle(rows)
    cols = list(range(m))
    rng.shuffle(cols)
    return tuple(tuple(row[j] for j in cols) for row in rows)


def nonzero_matrix(rng: random.Random, max_n: int, max_m: int) -> tuple[tuple[int, ...], ...]:
    """Uniform 0/1 matrix of random shape, redrawn until no row or column is
    zero: the distribution of the arrangement-search oracle criterion."""
    while True:
        n, m = rng.randint(1, max_n), rng.randint(1, max_m)
        entries = tuple(tuple(rng.randint(0, 1) for _ in range(m)) for _ in range(n))
        if all(any(row) for row in entries) and all(any(row[j] for row in entries) for j in range(m)):
            return entries


def plant_cycle(rng: random.Random, nx: int, ny: int, edges, length: int):
    """Insert a chordless cycle of ``length`` new vertices in the middle of
    each side's index range, joined to the rest by one bridge edge, so the
    cycle is the only chordless cycle through its vertices.  Returns
    (nx', ny', edges') with the old vertices renumbered around the cycle."""
    half = length // 2
    x_at, y_at = nx // 2, ny // 2

    def shift(index: int, at: int) -> int:
        return index if index < at else index + half

    out = [(shift(i, x_at), shift(j, y_at)) for i, j in edges]
    cycle_x = [x_at + t for t in range(half)]
    cycle_y = [y_at + t for t in range(half)]
    for t in range(half):
        out.append((cycle_x[t], cycle_y[t]))
        out.append((cycle_x[(t + 1) % half], cycle_y[t]))
    if nx:
        out.append((shift(rng.randrange(nx), x_at), cycle_y[rng.randrange(half)]))
    return nx + half, ny + half, out
