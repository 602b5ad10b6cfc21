"""Interval representations of bipartite graphs and their behaviour under
odd powers.

A representation assigns each vertex a closed integer interval; an x-y pair
is an edge exactly when the two intervals intersect (touching endpoints
count).  The power construction keeps every left endpoint and recomputes
right endpoints from distances; because the recomputed endpoint can land
left of the left endpoint, it is clamped, and the result is validated
against the actual power graph rather than trusted.

One kernel, ``_meeting_rows``, gives each X interval's row of met Y
intervals as a bitset: verification compares its rows with the graph's,
``intervals_to_graph`` builds the graph from them, and the power check
compares the new intervals' rows with the power's.  Right endpoints are
read off the power's X rows by groups of left endpoints, formed once per
representation.  The pairwise forms are kept as oracles in the test suite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from operator import xor
from typing import Iterable

from .core import (
    _SEPARATORS,
    BipartiteGraph,
    Side,
    VertexId,
    _graph_from_rows,
    _iter_bits,
    _randint,
    _read_int,
    _require_odd_k,
    _text_lines,
    _union,
    bipartite_power,
    graph_to_json,
    is_connected,
)
from .errors import InputError, TheoremCounterexample


@dataclass(frozen=True)
class Interval:
    """Closed interval with integer endpoints, left <= right."""

    left: int
    right: int

    def __post_init__(self) -> None:
        if self.left > self.right:
            raise InputError(f"interval [{self.left}, {self.right}] has left > right")

    def intersects(self, other: Interval) -> bool:
        return self.left <= other.right and other.left <= self.right


@dataclass(frozen=True)
class IntervalRepresentation:
    x_intervals: tuple[Interval, ...]
    y_intervals: tuple[Interval, ...]

    def of(self, v: VertexId) -> Interval:
        return (self.x_intervals if v.side is Side.X else self.y_intervals)[v.index]

    @cached_property
    def _left_groups(self) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """Per side, X then Y: (left endpoint, bitset of the vertices with
        that left endpoint), largest left endpoint first."""
        sides = []
        for intervals in (self.x_intervals, self.y_intervals):
            groups: dict[int, int] = {}
            for v, iv in enumerate(intervals):
                groups[iv.left] = groups.get(iv.left, 0) | 1 << v
            sides.append(sorted(groups.items(), reverse=True))
        return sides[0], sides[1]


@dataclass(frozen=True)
class RawEndpoint:
    """Unclamped right endpoint; ``valid`` is False when it falls left of the
    owning vertex's left endpoint (the interval it would define is empty)."""

    value: int
    valid: bool


def _check_sizes(g: BipartiteGraph, rep: IntervalRepresentation) -> None:
    if len(rep.x_intervals) != g.x_count or len(rep.y_intervals) != g.y_count:
        raise InputError(
            f"representation sizes {len(rep.x_intervals)}+{len(rep.y_intervals)} "
            f"do not match graph sides {g.x_count}+{g.y_count}"
        )


def _meeting_rows(x_spans: Iterable[tuple[int, int]], y_spans: Iterable[tuple[int, int]]) -> list[int]:
    """Per X span (left, right), the bitset of the Y spans it meets: bit j
    is set iff the closed spans share a point (touching endpoints count)."""
    ys = [(1 << j, left, right) for j, (left, right) in enumerate(y_spans)]
    return [sum(bit for bit, y_left, y_right in ys if y_left <= right and left <= y_right) for left, right in x_spans]


def _spans(intervals: tuple[Interval, ...]) -> list[tuple[int, int]]:
    return [(iv.left, iv.right) for iv in intervals]


def verify_representation(g: BipartiteGraph, rep: IntervalRepresentation) -> bool:
    """True iff for every cross pair, edge presence equals interval intersection."""
    _check_sizes(g, rep)
    return _meeting_rows(_spans(rep.x_intervals), _spans(rep.y_intervals)) == list(g.x_adj)


def _reach_lefts(power: BipartiteGraph, rep: IntervalRepresentation) -> tuple[list[int | None], list[int | None]]:
    """Per X and per Y vertex, the largest left endpoint among opposite-side
    vertices within distance k: its neighbours in ``power``, the k-power;
    None where there is none.

    Only the power's X rows are read.  An X row takes the first group of Y
    left endpoints, largest first, that it meets.  The X groups, largest
    left endpoint first, each give theirs to the Y vertices their rows
    reach that no larger one has reached.
    """
    x_rows = power.x_adj
    x_groups, y_groups = rep._left_groups
    x_reach = [next((left for left, ys in y_groups if row & ys), None) for row in x_rows]
    y_reach: list[int | None] = [None] * power.y_count
    unreached = (1 << power.y_count) - 1
    for left, xs in x_groups:
        reached = _union(x_rows, xs) & unreached
        unreached ^= reached
        for j in _iter_bits(reached):
            y_reach[j] = left
    return x_reach, y_reach


def _no_reach(k: int, side: Side, index: int) -> InputError:
    return InputError(f"no opposite-side vertex within distance {k} of {side.value}{index}")


def raw_right_endpoint(g: BipartiteGraph, rep: IntervalRepresentation, v: VertexId, k: int) -> RawEndpoint:
    """Largest left endpoint among opposite-side vertices within distance k of v.

    This is the unmodified right endpoint of the power construction; it is
    not always a usable endpoint, hence the validity flag.
    """
    _check_sizes(g, rep)
    _require_odd_k(k)
    g._check_vertex(v)
    x_reach, y_reach = _reach_lefts(bipartite_power(g, k), rep)
    value = (x_reach if v.side is Side.X else y_reach)[v.index]
    if value is None:
        raise _no_reach(k, v.side, v.index)
    return RawEndpoint(value, value >= rep.of(v).left)


def power_representation(g: BipartiteGraph, rep: IntervalRepresentation, k: int) -> IntervalRepresentation:
    """Interval representation for the k-th power of a connected graph.

    Every vertex keeps its left endpoint; the new right endpoint is the
    largest opposite-side left endpoint within distance k, clamped so the
    interval never becomes empty.  The output is checked against the actual
    power graph; a mismatch raises TheoremCounterexample carrying the
    offending instance instead of returning silently.
    """
    if not verify_representation(g, rep):
        raise InputError("power_representation requires a valid representation")
    if not is_connected(g):
        raise InputError("power_representation requires a connected graph")
    _require_odd_k(k)
    x_spans, y_spans = _check_power_representation(g, rep, k)
    return IntervalRepresentation(
        tuple(Interval(*span) for span in x_spans), tuple(Interval(*span) for span in y_spans)
    )


def _check_power_representation(
    g: BipartiteGraph, rep: IntervalRepresentation, k: int
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The (left, right) spans of ``power_representation``, X side then Y
    side, on arguments that pass its checks; raises TheoremCounterexample
    when the new intervals do not realize the k-power.

    The new intervals' rows from ``_meeting_rows`` are compared with the
    power's.  The offending pair is the lowest X index whose rows differ
    and the lowest Y index where they do, the first mismatch in row-major
    order.
    """
    power = bipartite_power(g, k)
    x_reach, y_reach = _reach_lefts(power, rep)
    for side, reach in ((Side.X, x_reach), (Side.Y, y_reach)):
        if None in reach:
            raise _no_reach(k, side, reach.index(None))
    x_spans = [(iv.left, max(iv.left, r)) for iv, r in zip(rep.x_intervals, x_reach)]
    y_spans = [(iv.left, max(iv.left, r)) for iv, r in zip(rep.y_intervals, y_reach)]
    for i, differ in enumerate(map(xor, power.x_adj, _meeting_rows(x_spans, y_spans))):
        if differ:
            j = (differ & -differ).bit_length() - 1
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
    return x_spans, y_spans


def intervals_to_graph(
    rep: IntervalRepresentation,
    x_labels: tuple[str, ...] | None = None,
    y_labels: tuple[str, ...] | None = None,
) -> BipartiteGraph:
    """Graph realized by the representation: edge iff closed intervals intersect."""
    rows = _meeting_rows(_spans(rep.x_intervals), _spans(rep.y_intervals))
    return _graph_from_rows(rows, len(rep.y_intervals), x_labels, y_labels)


def random_interval_representation(seed: int, nx: int, ny: int, span: int) -> IntervalRepresentation:
    """Seed-deterministic representation with endpoints uniform in [0, span]."""
    if nx < 0 or ny < 0:
        raise InputError("side sizes must be non-negative")
    if span < 1:
        raise InputError(f"span must be >= 1, got {span}")
    bits = random.Random(seed).getrandbits

    def draw(count: int) -> tuple[Interval, ...]:
        out = []
        for _ in range(count):
            a = _randint(bits, 0, span)
            b = _randint(bits, 0, span)
            out.append(Interval(min(a, b), max(a, b)))
        return tuple(out)

    return IntervalRepresentation(draw(nx), draw(ny))


# --- interval TSV format -----------------------------------------------------
#
# One line per vertex: side <TAB> label <TAB> left <TAB> right, side in {X, Y},
# integers in ASCII decimal, 0 or -?[1-9][0-9]* (``core._read_int``).  Line
# order defines index order per side.  Lines starting with '#' are comments
# and, like blank lines, are skipped.  A line ends at LF or CRLF, and a
# blank line holds ASCII spaces and tabs alone (``core._text_lines``).


def parse_intervals_tsv(text: str) -> tuple[IntervalRepresentation, tuple[str, ...], tuple[str, ...]]:
    """The representation an interval file gives, with its X and Y labels
    in index order."""
    intervals: dict[str, list[Interval]] = {"X": [], "Y": []}
    labels: dict[str, list[str]] = {"X": [], "Y": []}
    side_of: dict[str, str] = {}
    for lineno, raw in _text_lines(text):
        if raw is None or raw.startswith("#"):
            continue
        parts = raw.split("\t")
        if len(parts) != 4:
            raise InputError(f"interval TSV line {lineno}: expected 4 tab-separated fields, got {len(parts)}")
        side, label, left, right = parts
        if side not in ("X", "Y"):
            raise InputError(f"interval TSV line {lineno}: side must be X or Y, got {side!r}")
        # The graph label rule: only a lone CR gets this far, as a tab splits and LF ends the line.
        if not _SEPARATORS.isdisjoint(label):
            raise InputError(f"interval TSV line {lineno}: label {label!r} holds a tab, CR or LF")
        if side_of.get(label) == side:
            raise InputError(f"interval TSV line {lineno}: duplicate {side} label {label!r}")
        if label in side_of:
            raise InputError(f"interval TSV line {lineno}: label {label!r} is used on both sides")
        side_of[label] = side
        lv, rv = _read_int(left, signed=True), _read_int(right, signed=True)
        if lv is None or rv is None:
            raise InputError(f"interval TSV line {lineno}: endpoints must be integers")
        if lv > rv:
            raise InputError(f"interval TSV line {lineno}: left endpoint exceeds right")
        intervals[side].append(Interval(lv, rv))
        labels[side].append(label)
    rep = IntervalRepresentation(tuple(intervals["X"]), tuple(intervals["Y"]))
    return rep, tuple(labels["X"]), tuple(labels["Y"])


def intervals_tsv(
    rep: IntervalRepresentation, x_labels: tuple[str, ...], y_labels: tuple[str, ...]
) -> str:
    """Canonical serialization: the X block, then the Y block, no comments."""
    out = []
    for label, iv in zip(x_labels, rep.x_intervals):
        out.append(f"X\t{label}\t{iv.left}\t{iv.right}")
    for label, iv in zip(y_labels, rep.y_intervals):
        out.append(f"Y\t{label}\t{iv.left}\t{iv.right}")
    return "\n".join(out) + ("\n" if out else "")
