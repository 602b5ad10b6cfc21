"""Command-line front-end.

Exit codes are stable for scripting:
  0  success / the checked property holds
  1  the property fails (certificate on stdout)
  2  input or usage error, or a payload that cannot be written (a
     counterexample report included)
  3  a closure property that should always hold was refuted (report on stdout)
  4  internal defect: bipower itself failed (traceback on stderr)
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import core
from .errors import BipowerError, InputError, TheoremCounterexample

EXIT_OK = 0
EXIT_PROPERTY_FAILS = 1
EXIT_INPUT = 2
EXIT_COUNTEREXAMPLE = 3
EXIT_INTERNAL = 4

# The values of harness.Theorem, spelled out so that building the parser
# does not import the harness.
_THEOREMS = ["t3", "t4", "t5", "kchordal"]


def _read(path: str) -> str:
    try:
        # Decoded as it is: reading as text would turn a lone CR into a line break.
        return Path(path).read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load_graph(path: str) -> core.BipartiteGraph:
    return core.graph_from_json(_read(path))


def _load_intervals(path: str, g: core.BipartiteGraph):
    """The interval file's representation of ``g``: each interval goes to
    the vertex its label names, in the graph's index order."""
    from . import intervals
    rep, x_labels, y_labels = intervals.parse_intervals_tsv(_read(path))

    def matched(side: str, labels, ivs, graph_labels) -> tuple:
        by_label, known = dict(zip(labels, ivs)), set(graph_labels)
        for label in labels:
            if label not in known:
                raise InputError(f"interval label {label!r} is not one of the graph's {side} labels")
        for label in graph_labels:
            if label not in by_label:
                raise InputError(f"graph vertex {label!r} has no interval")
        return tuple(by_label[label] for label in graph_labels)

    return intervals.IntervalRepresentation(
        matched("X", x_labels, rep.x_intervals, g.x_labels), matched("Y", y_labels, rep.y_intervals, g.y_labels)
    )


# Each payload helper holds its payload's default form, and takes the other
# form only when --format names it; a verb passes args.format as it is.
def _intervals_payload(rep, x_labels, y_labels, fmt: str | None) -> str:
    from . import intervals
    if fmt == "json":
        obj = {
            "x": [{"label": lab, "left": iv.left, "right": iv.right} for lab, iv in zip(x_labels, rep.x_intervals)],
            "y": [{"label": lab, "left": iv.left, "right": iv.right} for lab, iv in zip(y_labels, rep.y_intervals)],
        }
        return json.dumps(obj, indent=2) + "\n"
    return intervals.intervals_tsv(rep, x_labels, y_labels)


def _matrix_payload(mat, fmt: str | None) -> str:
    from . import mca
    if fmt == "json":
        obj = {
            "n": mat.n,
            "m": mat.m,
            "entries": ["".join(str(v) for v in row) for row in mat.entries],
            "rows": list(mat.row_perm),
            "cols": list(mat.col_perm),
        }
        return json.dumps(obj, indent=2) + "\n"
    return mca.matrix_text(mat)


def _verdict_payload(obj: dict, fmt: str | None) -> str:
    if fmt == "text":
        return "".join(f"{key}: {value}\n" for key, value in obj.items())
    return json.dumps(obj, indent=2) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bipower", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(verb: str, help_text: str, run) -> argparse.ArgumentParser:
        """Declare a verb: its parser, the options every verb takes, and the
        function ``dispatch`` runs for it."""
        p = sub.add_parser(verb, help=help_text)
        p.set_defaults(run=run)
        p.add_argument("--output", help="write the payload here instead of stdout")
        p.add_argument("--format", choices=["json", "text"], default=None,
                       help="force JSON everywhere, or plain text where supported")
        return p

    p = add("power", "odd bipartite power of a graph", _cmd_power)
    p.add_argument("-k", type=int, required=True, help="odd power")
    p.add_argument("graph", help="graph JSON file")

    p = add("check-chordal", "is the graph chordal bipartite?", _cmd_check_chordal)
    p.add_argument("--min-length", type=int, default=6,
                   help="report a chordless cycle of at least this even length (default 6)")
    p.add_argument("graph")

    p = add("check-kchordal", "has the graph no chordless cycle with more than K vertices?", _cmd_check_kchordal)
    p.add_argument("--kchordal-k", type=int, required=True, help="cycle-length threshold K >= 4")
    p.add_argument("graph")

    p = add("verify-intervals", "does the interval file represent the graph?", _cmd_verify_intervals)
    p.add_argument("graph")
    p.add_argument("intervals_file", metavar="intervals", help="interval TSV file")

    p = add("power-intervals", "interval representation of the k-th power", _cmd_power_intervals)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("graph")
    p.add_argument("intervals_file", metavar="intervals")

    p = add("mca-verify", "is the displayed arrangement monotone consecutive?", _cmd_mca_verify)
    p.add_argument("matrix", help="matrix text file")

    p = add("mca-find", "search row/column permutations for a monotone consecutive arrangement", _cmd_mca_find)
    p.add_argument("matrix")

    p = add("mca-power", "power the matrix's graph and re-verify the unchanged arrangement", _cmd_mca_power)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("matrix")

    p = add("classify-cycle", "distance-classify the edges of a cycle claimed in the (k+2) power", _cmd_classify_cycle)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("graph")
    p.add_argument("cycle", help="cycle JSON file")

    p = add("lift-cycle", "lift a (k+2)-power chordless cycle down to the k-power", _cmd_lift_cycle)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("graph")
    p.add_argument("cycle")

    p = add("fuzz", "run a counterexample-hunting campaign", _cmd_fuzz)
    p.add_argument("campaign", nargs="?", help="campaign JSON file (flags are ignored when a file is given)")
    p.add_argument("--theorem", choices=_THEOREMS)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    # Named after the fields of harness.Bounds; a flag left out takes its default there.
    p.add_argument("--max-x", type=int)
    p.add_argument("--max-y", type=int)
    p.add_argument("--span", type=int)
    p.add_argument("-k", type=int, action="append", dest="k_set", metavar="K",
                   help="odd power to test; repeat to build a set (default per campaign)")
    p.add_argument("--kchordal-k", type=int, dest="k_chordal_k", metavar="KCHORDAL_K")

    p = add("gen", "emit one deterministic instance of a campaign's input kind", _cmd_gen)
    p.add_argument("--theorem", choices=_THEOREMS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-x", type=int, default=6, help="x side / row count")
    p.add_argument("--max-y", type=int, default=6, help="y side / column count")
    p.add_argument("--span", type=int, default=12, help="endpoint range for interval instances")

    return parser


def _cmd_power(args) -> tuple[int, str]:
    g = _load_graph(args.graph)
    return EXIT_OK, core.graph_to_json(core.bipartite_power(g, args.k))


def _cmd_check_chordal(args) -> tuple[int, str]:
    from . import chordal_power
    g = _load_graph(args.graph)
    cert = core.find_chordless_cycle(g, args.min_length)
    if cert is None:
        return EXIT_OK, _verdict_payload({"chordal_bipartite": True}, args.format)
    return EXIT_PROPERTY_FAILS, chordal_power.cycle_json(g, cert)


def _cmd_check_kchordal(args) -> tuple[int, str]:
    from . import chordal_power
    g = _load_graph(args.graph)
    k = args.kchordal_k
    verdict = chordal_power.is_k_chordal(g, k)
    if verdict.chordal:
        return EXIT_OK, _verdict_payload({"k_chordal": True, "k": k}, args.format)
    return EXIT_PROPERTY_FAILS, chordal_power.cycle_json(g, verdict.certificate)


def _cmd_verify_intervals(args) -> tuple[int, str]:
    from . import intervals
    g = _load_graph(args.graph)
    ok = intervals.verify_representation(g, _load_intervals(args.intervals_file, g))
    return (EXIT_OK if ok else EXIT_PROPERTY_FAILS), _verdict_payload({"valid": ok}, args.format)


def _cmd_power_intervals(args) -> tuple[int, str]:
    from . import intervals
    g = _load_graph(args.graph)
    result = intervals.power_representation(g, _load_intervals(args.intervals_file, g), args.k)
    return EXIT_OK, _intervals_payload(result, g.x_labels, g.y_labels, args.format)


def _cmd_mca_verify(args) -> tuple[int, str]:
    from . import mca
    mat = mca.parse_matrix(_read(args.matrix))
    cert = mca.verify_mca(mat)
    if cert is None:
        return EXIT_PROPERTY_FAILS, _verdict_payload({"mca": False}, args.format)
    return EXIT_OK, mca.certificate_json(cert)


def _cmd_mca_find(args) -> tuple[int, str]:
    from . import mca
    mat = mca.parse_matrix(_read(args.matrix))
    found = mca.find_mca(mat)
    if found is None:
        return EXIT_PROPERTY_FAILS, _verdict_payload({"mca": False}, args.format)
    arranged, cert = found
    obj = {
        "rows": list(arranged.row_perm),
        "cols": list(arranged.col_perm),
        "certificate": mca.certificate_object(cert),
    }
    return EXIT_OK, json.dumps(obj, indent=2) + "\n"


def _cmd_mca_power(args) -> tuple[int, str]:
    from . import mca
    mat = mca.parse_matrix(_read(args.matrix))
    g = mca.matrix_to_graph(mat)
    powered = mca.matrix_power(g, (mat.row_perm, mat.col_perm), args.k)
    return EXIT_OK, _matrix_payload(powered, args.format)


def _load_cycle(args, g: core.BipartiteGraph) -> core.CycleCertificate:
    """The cycle file's certificate, for a verb that reads it as a cycle of
    the (-k + 2)-power: a file that names another power is an input error.
    An even or non-positive -k is left to the verb, whose message names it."""
    from . import chordal_power
    cert = chordal_power.cycle_from_json(g, _read(args.cycle))
    if args.k >= 1 and args.k % 2 and cert.host_power != args.k + 2:
        raise InputError(
            f'cycle JSON "k" is {cert.host_power}, but -k {args.k} reads a cycle of the {args.k + 2}-power'
        )
    return cert


def _cmd_classify_cycle(args) -> tuple[int, str]:
    from . import chordal_power
    g = _load_graph(args.graph)
    cert = _load_cycle(args, g)
    cls = chordal_power.classify_cycle_edges(g, args.k, cert)
    verts = cert.vertices
    obj = {
        "k": args.k,
        "k1": cls.k1,
        "k2": cls.k2,
        "k3": cls.k3,
        "edges": [
            {
                "u": g.label(verts[p]),
                "v": g.label(verts[(p + 1) % len(verts)]),
                "distance": edge.distance,
                "class": edge.cls.value,
            }
            for p, edge in enumerate(cls.edges)
        ],
    }
    return EXIT_OK, json.dumps(obj, indent=2) + "\n"


def _cmd_lift_cycle(args) -> tuple[int, str]:
    from . import chordal_power
    g = _load_graph(args.graph)
    cert = _load_cycle(args, g)
    result = chordal_power.lift_chordless_cycle(g, args.k, cert)
    return EXIT_OK, chordal_power.lift_json(g, result)


def _cmd_fuzz(args) -> tuple[int, str]:
    from dataclasses import fields

    from . import harness
    if args.campaign is not None:
        campaign = harness.campaign_from_json(_read(args.campaign))
    else:
        if args.theorem is None:
            raise InputError("fuzz needs either a campaign JSON file or --theorem")
        given = {f.name: getattr(args, f.name) for f in fields(harness.Bounds)}
        bounds = {name: tuple(v) if name == "k_set" else v for name, v in given.items() if v is not None}
        campaign = harness.Campaign(harness.Theorem(args.theorem), args.trials, args.seed, harness.Bounds(**bounds))
    report = harness.run_campaign(campaign)
    return (EXIT_COUNTEREXAMPLE if report.counterexamples else EXIT_OK), harness.report_json(report)


def _cmd_gen(args) -> tuple[int, str]:
    if args.theorem == "t3":
        from . import intervals
        rep = intervals.random_interval_representation(args.seed, args.max_x, args.max_y, args.span)
        g = intervals.intervals_to_graph(rep)
        return EXIT_OK, _intervals_payload(rep, g.x_labels, g.y_labels, args.format)
    from . import harness
    if args.theorem == "t4":
        return EXIT_OK, _matrix_payload(harness.gen_staircase_matrix(args.seed, args.max_x, args.max_y), args.format)
    return EXIT_OK, core.graph_to_json(harness.gen_random_bipartite(args.seed, args.max_x, args.max_y, 0.5))


def dispatch(argv: list[str]) -> int:
    """Run one verb and write its payload, once, to stdout or ``--output``;
    the only place in the command line that writes a payload."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code else EXIT_OK
    note = None
    try:
        try:
            code, payload = args.run(args)
        except TheoremCounterexample as exc:
            code, payload = EXIT_COUNTEREXAMPLE, json.dumps(exc.report, indent=2) + "\n"
            note = f"counterexample: {exc}"
        if args.output is None:
            sys.stdout.write(payload)
        else:
            try:
                Path(args.output).write_text(payload, encoding="utf-8")
            except OSError as exc:
                raise InputError(f"cannot write {args.output}: {exc}") from exc
    except BipowerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception:
        # Not "property fails": a defect must not read as a verdict.
        import traceback
        traceback.print_exc()
        return EXIT_INTERNAL
    if note is not None:
        # After the write, so that a report that was lost ends in exit 2 alone.
        print(note, file=sys.stderr)
    return code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
