from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import bipower as bp
from bipower import chordal_power, cli, core
from bipower.chordal_power import cycle_json
from bipower.cli import dispatch
from bipower.harness import MAX_PARALLELISM
from bipower.intervals import intervals_tsv, parse_intervals_tsv
from bipower.mca import identity_arrangement, matrix_text, parse_matrix
from conftest import (
    band_with_extra_edges,
    cycle_graph,
    frames_to_spare,
    plant_cycle,
    random_nonzero_matrix,
    random_tree,
    shuffled_staircase,
    stored_under,
)


@pytest.fixture
def files(tmp_path, sample_graph, sample_rep, staircase_matrix):
    paths = {}
    paths["graph"] = tmp_path / "sample.json"
    paths["graph"].write_text(bp.graph_to_json(sample_graph))
    paths["intervals"] = tmp_path / "sample.tsv"
    paths["intervals"].write_text(intervals_tsv(sample_rep, sample_graph.x_labels, sample_graph.y_labels))
    paths["matrix"] = tmp_path / "staircase.mat"
    paths["matrix"].write_text(matrix_text(staircase_matrix))
    paths["c6"] = tmp_path / "c6.json"
    paths["c6"].write_text(bp.graph_to_json(cycle_graph(6)))
    g18, corners = bp.gen_subdivided_cycle([3] * 6)
    paths["c18"] = tmp_path / "c18.json"
    paths["c18"].write_text(bp.graph_to_json(g18))
    paths["corners"] = tmp_path / "corners.json"
    paths["corners"].write_text(cycle_json(g18, corners))
    paths["anti"] = tmp_path / "anti.mat"
    paths["anti"].write_text("2 2\n01\n10\n")
    paths["tmp"] = tmp_path
    return paths


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_power_success(self, files, capsys):
        code, out, _ = run(capsys, "power", "-k", "3", str(files["graph"]))
        assert code == 0
        assert bp.graph_from_json(out).edge_count() == 30

    def test_check_chordal_negative_is_exit_1_with_certificate(self, files, capsys):
        code, out, _ = run(capsys, "check-chordal", str(files["c6"]))
        assert code == 1
        assert len(json.loads(out)["cycle"]) == 6

    def test_check_chordal_positive(self, files, capsys):
        code, out, _ = run(capsys, "check-chordal", str(files["graph"]))
        assert code == 0
        assert json.loads(out) == {"chordal_bipartite": True}

    def test_usage_error_is_exit_2(self, files, capsys):
        code, _, _ = run(capsys, "no-such-verb")
        assert code == 2
        code, _, _ = run(capsys, "power", str(files["graph"]))  # missing -k
        assert code == 2

    def test_even_k_is_exit_2(self, files, capsys):
        code, _, err = run(capsys, "power", "-k", "2", str(files["graph"]))
        assert code == 2
        assert "odd" in err

    def test_missing_file_is_exit_2(self, files, capsys):
        code, _, err = run(capsys, "power", "-k", "3", str(files["tmp"] / "ghost.json"))
        assert code == 2
        assert "cannot read" in err

    def test_diagnostics_go_to_stderr_only(self, files, capsys):
        code, out, err = run(capsys, "power", "-k", "4", str(files["graph"]))
        assert code == 2 and out == "" and err

    def test_non_integer_matrix_trailer_is_exit_2(self, files, capsys):
        bad = files["tmp"] / "bad-trailer.mat"
        bad.write_text("2 2\n11\n11\nrows: x y\n")
        code, out, err = run(capsys, "mca-verify", str(bad))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "trailer" in err

    # Each number has one spelling, the one written: ASCII digits, no
    # leading zero, no sign "+", no "_", no blank, no other script's digits.
    @pytest.mark.parametrize("text", [
        "2 2\n11\n11\nrows: 0_1 +0\n",
        "2 2\n11\n11\nrows: 1 +0\n",
        "2 2\n11\n11\ncols: 01 0\n",
        "2 2\n11\n11\ncols: 1 \u0660\n",
    ])
    def test_other_spelling_of_a_trailer_index_is_exit_2(self, files, capsys, text):
        bad = files["tmp"] / "spelt-trailer.mat"
        bad.write_text(text, encoding="utf-8")
        for verb in (["mca-verify"], ["mca-find"], ["mca-power", "-k", "3"]):
            code, out, err = run(capsys, *verb, str(bad))
            assert code == 2 and out == ""
            assert err == f"error: matrix text: trailer {text.splitlines()[-1]!r} must list integer indices\n"

    @pytest.mark.parametrize("head", ["\uff12 1", "2 1_0", "+2 1", "02 1", "2 \u0661", "-0 1"])
    def test_other_spelling_of_the_matrix_header_is_exit_2(self, files, capsys, head):
        bad = files["tmp"] / "spelt-header.mat"
        bad.write_text(f"{head}\n1\n1\n", encoding="utf-8")
        for verb in (["mca-verify"], ["mca-find"], ["mca-power", "-k", "3"]):
            code, out, err = run(capsys, *verb, str(bad))
            assert code == 2 and out == ""
            assert err == f"error: matrix text line 1: expected 'n m', got {head!r}\n"

    # One ASCII space is the one separator, as matrix_text writes it: a
    # header "n m", and a trailer's key and ":" with " i" per index.
    @pytest.mark.parametrize("text, where", [
        ("2\u30001\n1\n1\nrows:\t1 0\n", " line 1: expected 'n m'"),
        ("  2 1\n1\n1\n", " line 1: expected 'n m'"),
        ("2  1\n1\n1\n", " line 1: expected 'n m'"),
        ("2\t1\n1\n1\n", " line 1: expected 'n m'"),
        ("2 1 \n1\n1\n", " line 1: expected 'n m'"),
        ("2 1\n1\n1\nrows:\t1 0\n", ": trailer"),
        ("2 1\n1\n1\nrows: 1\u00a00\n", ": trailer"),
        ("2 1\n1\n1\nrows:  1 0\n", ": trailer"),
        ("2 1\n1\n1\nrows: 1 0 \n", ": trailer"),
        ("2 1\n1\n1\nrows:1 0\n", ": trailer"),
        ("0 0\ncols: \n", ": trailer"),
    ])
    def test_other_separator_in_a_matrix_text_is_exit_2(self, files, capsys, text, where):
        bad = files["tmp"] / "spaced.mat"
        bad.write_text(text, encoding="utf-8")
        for verb in (["mca-verify"], ["mca-find"], ["mca-power", "-k", "3"]):
            code, out, err = run(capsys, *verb, str(bad))
            assert code == 2 and out == ""
            assert len(err.splitlines()) == 1 and err.startswith(f"error: matrix text{where}")

    @pytest.mark.parametrize("token", ["1_0", " 12", "12 ", "+4", "\u0663", "\uff12", "-0", "07", "--1"])
    def test_other_spelling_of_an_interval_endpoint_is_exit_2(self, files, capsys, token):
        lines = files["intervals"].read_text().splitlines()
        side, label, left, right = lines[0].split("\t")
        for first in ([side, label, token, "99"], [side, label, "-99", token]):
            bad = files["tmp"] / "spelt-endpoint.tsv"
            bad.write_text("\n".join(["\t".join(first), *lines[1:]]) + "\n", encoding="utf-8")
            for verb in (["verify-intervals"], ["power-intervals", "-k", "3"]):
                code, out, err = run(capsys, *verb, str(files["graph"]), str(bad))
                assert code == 2 and out == ""
                assert err == "error: interval TSV line 1: endpoints must be integers\n"

    @pytest.mark.parametrize("key", ["rows", "cols"])
    def test_repeated_matrix_trailer_is_exit_2(self, files, capsys, key):
        # Neither line may win over the other without a word.
        repeated = files["tmp"] / "repeated-trailer.mat"
        repeated.write_text(f"2 2\n10\n01\n{key}: 1 0\n\n{key}: 0 1\n")
        for verb in (["mca-verify"], ["mca-find"], ["mca-power", "-k", "3"]):
            code, out, err = run(capsys, *verb, str(repeated))
            assert code == 2 and out == ""
            assert err == f"error: matrix text line 6: a second '{key}:' trailer; each trailer appears at most once\n"

    @pytest.mark.parametrize("verb", [["mca-verify"], ["mca-find"], ["mca-power", "-k", "3"]])
    def test_matrix_without_rows_is_exit_2(self, files, capsys, verb):
        columns_only = files["tmp"] / "columns-only.mat"
        columns_only.write_text(matrix_text(bp.graph_to_matrix(bp.build_graph(0, 3, []))))
        code, out, err = run(capsys, *verb, str(columns_only))
        assert code == 2 and out == ""
        assert err == "error: matrix must have at least one row and one column\n"

    @pytest.mark.parametrize("verb", [["mca-verify"], ["mca-find"], ["mca-power", "-k", "3"]])
    @pytest.mark.parametrize("m", [3, 10**15])
    def test_columns_missing_without_rows_is_exit_2(self, files, capsys, verb, m):
        header_only = files["tmp"] / "header-only.mat"
        header_only.write_text(f"0 {m}\n")
        code, out, err = run(capsys, *verb, str(header_only))
        assert code == 2 and out == ""
        assert err == "error: matrix text: a matrix with no row must list its columns on a 'cols:' line\n"

    @pytest.mark.parametrize("verb", [["mca-verify"], ["mca-find"], ["mca-power", "-k", "3"]])
    def test_matrix_without_columns_is_exit_2(self, files, capsys, verb):
        rows_only = files["tmp"] / "rows-only.mat"
        rows_only.write_text(matrix_text(bp.graph_to_matrix(bp.build_graph(3, 0, []))))
        code, out, err = run(capsys, *verb, str(rows_only))
        assert code == 2 and out == ""
        assert err == "error: matrix must have at least one row and one column\n"

    @pytest.mark.parametrize("verb", [["mca-verify"], ["mca-find"], ["mca-power", "-k", "3"]])
    def test_rows_missing_without_columns_is_exit_2(self, files, capsys, verb):
        header_only = files["tmp"] / "header-only.mat"
        header_only.write_text(f"{10**12} 0\n")
        code, out, err = run(capsys, *verb, str(header_only))
        assert code == 2 and out == ""
        assert err == f"error: matrix text: expected {10**12} entry rows, found 0\n"

    def test_output_into_missing_directory_is_exit_2(self, files, capsys):
        target = files["tmp"] / "missing" / "out.json"
        code, out, err = run(capsys, "power", "-k", "3", str(files["graph"]), "--output", str(target))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "cannot write" in err
        assert not target.parent.exists()

    @pytest.mark.parametrize("key, value", [("k", "a"), ("k", None), ("cycle", 5), ("k", 3.9), ("k", True)])
    def test_malformed_cycle_json_is_exit_2(self, files, capsys, key, value):
        obj = json.loads(files["corners"].read_text())
        obj[key] = value
        bad = files["tmp"] / "bad-cycle.json"
        bad.write_text(json.dumps(obj))
        code, out, err = run(capsys, "lift-cycle", "-k", "1", str(files["c18"]), str(bad))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and f'"{key}"' in err

    @pytest.mark.parametrize("side", ["x", "y"])
    def test_one_sided_power_intervals_is_exit_2(self, files, capsys, side):
        graph = files["tmp"] / "one-sided.json"
        graph.write_text(json.dumps({"x": [], "y": [], "edges": [], side: [f"{side}1"]}))
        tsv = files["tmp"] / "one-sided.tsv"
        tsv.write_text(f"{side.upper()}\t{side}1\t0\t3\n")
        code, out, err = run(capsys, "power-intervals", "-k", "1", str(graph), str(tsv))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "no opposite-side vertex" in err

    @pytest.mark.parametrize("y", ["cd", ["c", "d"]])
    def test_graph_sides_must_be_arrays(self, files, capsys, y):
        graph = files["tmp"] / "string-side.json"
        graph.write_text(json.dumps({"x": "ab", "y": y, "edges": []}))
        code, out, err = run(capsys, "power", "-k", "1", str(graph))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "arrays" in err

    @pytest.mark.parametrize("edge, side", [([["a"], "b"], "an x"), (["a", {"b": 1}], "a y"), ([1, "b"], "an x")])
    def test_graph_endpoints_must_be_strings(self, files, capsys, edge, side):
        graph = files["tmp"] / "unhashable-endpoint.json"
        graph.write_text(json.dumps({"x": ["a"], "y": ["b"], "edges": [edge]}))
        code, out, err = run(capsys, "power", "-k", "3", str(graph))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and f"is not {side} label" in err

    def test_graph_label_on_both_sides_is_exit_2(self, files, capsys):
        # check-chordal would print a cycle whose labels parse back as X vertices.
        graph = files["tmp"] / "shared-labels.json"
        labels = ["a", "b", "c", "d"]
        edges = [[labels[t % 4], labels[(t + t // 4) % 4]] for t in range(8)]
        graph.write_text(json.dumps({"x": labels, "y": labels, "edges": edges}))
        code, out, err = run(capsys, "check-chordal", str(graph))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "both sides" in err

    def test_interval_label_on_both_sides_is_exit_2(self, files, capsys):
        tsv = files["tmp"] / "shared-labels.tsv"
        tsv.write_text("X\ta\t0\t2\nY\tb\t1\t3\nY\ta\t2\t4\n")
        code, out, err = run(capsys, "verify-intervals", str(files["graph"]), str(tsv))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "both sides" in err

    @pytest.mark.parametrize(
        "text, word",
        [
            ("[1, 2]", "object"),
            ('{"theorem": "t3", "trials": 5, "bounds": {"max_x": 0}}', "max_x"),
            ('{"theorem": "t4", "bounds": {"k_set": 5}}', "k_set"),
            ('{"theorem": "t4", "bounds": {"k_set": ["a"]}}', "k_set"),
            ('{"theorem": "t4", "trials": "a"}', "trials"),
            ('{"theorem": "t4", "bounds": {"k_chordal_k": "x"}}', "k_chordal_k"),
            ('{"theorem": "t4", "seed": 1.7}', "seed"),
            ('{"theorem": "t5", "trails": 10000, "bounds": {"max_x": 12}}', "trails"),
            ('{"theorem": "t5", "trials": 10000, "bounds": {"max-x": 12}}', "max-x"),
            ('{"theorem": "t5", "trials": 10, "bounds": {"k_set": [1, 1, 3]}}', "repeats 1"),
            (["--theorem", "t5", "--trials", "10", "-k", "1", "-k", "1", "-k", "3"], "repeats 1"),
        ],
    )
    def test_malformed_campaign_json_is_exit_2(self, files, capsys, text, word):
        # A list is the same campaign given as fuzz flags in place of a file.
        argv = text
        if isinstance(text, str):
            campaign = files["tmp"] / "bad-campaign.json"
            campaign.write_text(text)
            argv = [str(campaign)]
        code, out, err = run(capsys, "fuzz", *argv)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and word in err

    # What json.loads would keep silently (a repeated key keeps its last
    # value) or crash on (int's digit limit, the parser's recursion).
    @pytest.mark.parametrize("fault", ["repeated", "long", "deep"])
    @pytest.mark.parametrize("kind", ["graph", "cycle", "campaign"])
    def test_unreadable_json_is_exit_2(self, files, capsys, kind, fault):
        valid, key, argv = {
            "graph": ('{"x": ["a"], "y": ["b"], "edges": [["a", "b"]]', "edges", ["power", "-k", "3"]),
            "cycle": (files["corners"].read_text().rstrip()[:-1], "k", ["lift-cycle", "-k", "1", str(files["c18"])]),
            "campaign": ('{"theorem": "t5", "trials": 3', "trials", ["fuzz"]),
        }[kind]
        value, message = {
            "repeated": ("[]" if key == "edges" else "2", f'repeats the key "{key}" in one object'),
            "long": ("1" * (sys.get_int_max_str_digits() + 100), "holds an integer with more digits than can be read"),
            "deep": ("[" * 100_000 + "]" * 100_000, "is nested too deeply to read"),
        }[fault]
        bad = files["tmp"] / f"{fault}-{kind}.json"
        bad.write_text(f'{valid}, "{key if fault == "repeated" else "extra"}": {value}}}')
        code, out, err = run(capsys, *argv, str(bad))
        assert code == 2 and out == ""
        assert err == f"error: {kind} JSON {message}\n"

    def test_repeated_graph_label_is_exit_2(self, files, capsys):
        graph = files["tmp"] / "repeated-label.json"
        graph.write_text(json.dumps({"x": ["a", "a"], "y": ["b"], "edges": [["a", "b"]]}))
        code, out, err = run(capsys, "power", "-k", "3", str(graph))
        assert code == 2 and out == ""
        assert err == "error: labels must be unique per side\n"

    def test_integer_token_past_the_digit_limit_is_exit_2(self, files, capsys):
        # The token is spelt right; int alone refuses it.
        digits = "1" * (sys.get_int_max_str_digits() + 100)
        header = files["tmp"] / "long-header.mat"
        header.write_text(f"{digits} 1\n1\n")
        trailer = files["tmp"] / "long-trailer.mat"
        trailer.write_text(f"2 1\n1\n1\nrows: 0 {digits}\n")
        for path, message in ((header, f" line 1: expected 'n m', got '{digits} 1'"),
                              (trailer, f": trailer 'rows: 0 {digits}' must list integer indices")):
            for verb in (["mca-verify"], ["mca-find"], ["mca-power", "-k", "3"]):
                code, out, err = run(capsys, *verb, str(path))
                assert code == 2 and out == ""
                assert err == f"error: matrix text{message}\n"
        tsv = files["tmp"] / "long-endpoint.tsv"
        lines = files["intervals"].read_text().splitlines()
        side, label, left, _ = lines[0].split("\t")
        tsv.write_text("\n".join([f"{side}\t{label}\t{left}\t{digits}", *lines[1:]]) + "\n")
        for verb in (["verify-intervals"], ["power-intervals", "-k", "3"]):
            code, out, err = run(capsys, *verb, str(files["graph"]), str(tsv))
            assert code == 2 and out == ""
            assert err == "error: interval TSV line 1: endpoints must be integers\n"

    # A line ends at LF or CRLF alone, and a blank line holds ASCII spaces
    # and tabs alone; no other break or blank is read as one.
    @pytest.mark.parametrize("text", [
        "2 1\n\u3000\n1\n1\n",
        "2 1\f1\n1\n",
        "2 1\n1\u20281\n",
        "2 1\r1\r1\r",
        "2 1\n1\n1\n\u00a0\n",
    ])
    def test_other_line_break_or_blank_in_a_matrix_text_is_exit_2(self, files, capsys, text):
        bad = files["tmp"] / "other-line.mat"
        bad.write_bytes(text.encode())
        for verb in (["mca-verify"], ["mca-find"], ["mca-power", "-k", "3"]):
            code, out, err = run(capsys, *verb, str(bad))
            assert code == 2 and out == ""
            assert len(err.splitlines()) == 1 and err.startswith("error: matrix text")

    @pytest.mark.parametrize("extra", ["\u00a0", "\u3000", "\x0b", "\u2028"])
    def test_other_line_break_or_blank_in_an_interval_tsv_is_exit_2(self, files, capsys, extra):
        lines = files["intervals"].read_text().splitlines()
        bad = files["tmp"] / "other-line.tsv"
        bad.write_bytes("\n".join([lines[0], extra, *lines[1:]]).encode() + b"\n")
        for verb in (["verify-intervals"], ["power-intervals", "-k", "3"]):
            code, out, err = run(capsys, *verb, str(files["graph"]), str(bad))
            assert code == 2 and out == ""
            assert err == "error: interval TSV line 2: expected 4 tab-separated fields, got 1\n"

    def test_interval_label_holding_a_lone_cr_is_exit_2(self, files, capsys):
        # The TSV applies the graph label rule itself, so the message names
        # the line and the rule rather than a label missing from the graph.
        lines = files["intervals"].read_text().splitlines()
        side, label, left, right = lines[1].split("\t")
        label += "\r" + label
        bad = files["tmp"] / "cr-label.tsv"
        bad.write_bytes("\n".join([lines[0], f"{side}\t{label}\t{left}\t{right}", *lines[2:]]).encode() + b"\n")
        for verb in (["verify-intervals"], ["power-intervals", "-k", "3"]):
            code, out, err = run(capsys, *verb, str(files["graph"]), str(bad))
            assert code == 2 and out == ""
            assert err == f"error: interval TSV line 2: label {label!r} holds a tab, CR or LF\n"

    # Every format writes a label as it is, so a graph file's label may hold
    # no tab, CR or LF: the interval TSV could not write it back.
    @pytest.mark.parametrize("char", ["\t", "\r", "\n"])
    def test_label_holding_a_tab_cr_or_lf_is_exit_2(self, files, capsys, char):
        bad = files["tmp"] / "bad-label.json"
        bad.write_text(json.dumps({"x": ["x1", f"x{char}2"], "y": ["y1"], "edges": [["x1", "y1"]]}))
        for verb in (["power", "-k", "3"], ["check-chordal"]):
            code, out, err = run(capsys, *verb, str(bad))
            assert code == 2 and out == ""
            assert err == f"error: label {f'x{char}2'!r} holds a tab, CR or LF\n"

    def test_crlf_line_ends_read_as_lf(self, files, capsys):
        for verb, name in ((["mca-verify"], "matrix"), (["verify-intervals", str(files["graph"])], "intervals")):
            expected = run(capsys, *verb, str(files[name]))
            crlf = files["tmp"] / f"crlf-{name}"
            crlf.write_bytes(files[name].read_bytes().replace(b"\n", b"\r\n"))
            assert run(capsys, *verb, str(crlf)) == expected and expected[0] == 0

    def test_internal_defect_is_exit_4(self, files, capsys, monkeypatch):
        # A defect in bipower itself must not read as "property fails" (1).
        def broken(args):
            raise RuntimeError("defect under test")

        monkeypatch.setattr(cli, "_cmd_power", broken)
        code, out, err = run(capsys, "power", "-k", "3", str(files["graph"]))
        assert code == cli.EXIT_INTERNAL == 4 and out == ""
        assert err.startswith("Traceback") and err.rstrip().endswith("RuntimeError: defect under test")


class TestCounterexampleReport:
    """A refuted closure property ends in exit 3 with its report as the
    payload, and a report that cannot be written in exit 2, never in a
    traceback."""

    REPORT = {"kind": "matrix-power", "k": 3, "matrix": "1 1\n1\n"}

    @pytest.fixture
    def refuting(self, monkeypatch):
        def refute(args):
            raise bp.TheoremCounterexample("power broke the arrangement", self.REPORT)

        monkeypatch.setattr(cli, "_cmd_power", refute)

    def test_report_on_stdout(self, files, capsys, refuting):
        code, out, err = run(capsys, "power", "-k", "3", str(files["graph"]))
        assert code == cli.EXIT_COUNTEREXAMPLE == 3
        assert out == json.dumps(self.REPORT, indent=2) + "\n"
        assert err == "counterexample: power broke the arrangement\n"

    def test_report_in_output_file(self, files, capsys, refuting):
        target = files["tmp"] / "report.json"
        code, out, err = run(capsys, "power", "-k", "3", str(files["graph"]), "--output", str(target))
        assert code == 3 and out == ""
        assert err == "counterexample: power broke the arrangement\n"
        assert target.read_text() == json.dumps(self.REPORT, indent=2) + "\n"

    def test_unwritable_report_is_exit_2(self, files, capsys, refuting):
        target = files["tmp"] / "missing" / "report.json"
        code, out, err = run(capsys, "power", "-k", "3", str(files["graph"]), "--output", str(target))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"error: cannot write {target}: ")
        assert not target.parent.exists()


class TestVerbs:
    def test_mca_verify_certificate(self, files, capsys):
        code, out, _ = run(capsys, "mca-verify", str(files["matrix"]))
        assert code == 0
        obj = json.loads(out)
        assert obj["a"] == [1, 1, 2, 3, 4, 5]
        assert obj["d"] == [2, 3, 4, 5, 6, 6, 6]

    def test_mca_verify_failure(self, files, capsys, tmp_path):
        bad = tmp_path / "anti.mat"
        bad.write_text("2 2\n01\n10\n")
        code, out, _ = run(capsys, "mca-verify", str(bad))
        assert code == 1
        assert json.loads(out) == {"mca": False}

    def test_mca_find_recovers_shuffled(self, files, capsys, tmp_path):
        shuffled = tmp_path / "anti.mat"
        shuffled.write_text("2 2\n01\n10\n")
        code, out, _ = run(capsys, "mca-find", str(shuffled))
        assert code == 0
        obj = json.loads(out)
        assert sorted(obj["rows"]) == [0, 1] and obj["certificate"]["a"] == [1, 2]

    def test_mca_find_negative(self, files, capsys, tmp_path):
        c6 = tmp_path / "c6.mat"
        c6.write_text("3 3\n110\n011\n101\n")
        code, out, _ = run(capsys, "mca-find", str(c6))
        assert code == 1

    def test_mca_find_above_12x12(self, capsys, tmp_path):
        ones = tmp_path / "ones.mat"
        ones.write_text("13 13\n" + ("1" * 13 + "\n") * 13)
        code, out, _ = run(capsys, "mca-find", str(ones))
        assert code == 0 and json.loads(out)["certificate"]["a"] == [1] * 13

    def test_mca_power(self, files, capsys):
        code, out, _ = run(capsys, "mca-power", "-k", "3", str(files["matrix"]))
        assert code == 0
        assert out.startswith("6 7\n")

    def test_verify_intervals_both_ways(self, files, capsys, tmp_path):
        code, out, _ = run(capsys, "verify-intervals", str(files["graph"]), str(files["intervals"]))
        assert code == 0 and json.loads(out) == {"valid": True}
        edgeless = tmp_path / "edgeless.json"
        g = bp.build_graph(6, 5, [])
        edgeless.write_text(bp.graph_to_json(g))
        code, out, _ = run(capsys, "verify-intervals", str(edgeless), str(files["intervals"]))
        assert code == 1 and json.loads(out) == {"valid": False}

    @pytest.fixture
    def interval_path(self, tmp_path):
        """The path x1 y1 x2 y2, and a writer of interval files."""
        graph = tmp_path / "path.json"
        graph.write_text(bp.graph_to_json(bp.build_graph(2, 2, [(0, 0), (1, 0), (1, 1)])))

        def tsv(name: str, *lines: str):
            path = tmp_path / name
            path.write_text("".join(f"{line}\n" for line in lines))
            return str(path)

        return str(graph), tsv

    def test_intervals_matched_by_label(self, capsys, interval_path):
        graph, tsv = interval_path
        in_order = tsv("in-order.tsv", "X\tx1\t0\t1", "X\tx2\t3\t5", "Y\ty1\t1\t3", "Y\ty2\t5\t6")
        swapped = tsv("swapped.tsv", "Y\ty2\t5\t6", "X\tx2\t3\t5", "Y\ty1\t1\t3", "X\tx1\t0\t1")
        code, out, _ = run(capsys, "verify-intervals", graph, swapped)
        assert code == 0 and json.loads(out) == {"valid": True}
        for fmt in ((), ("--format", "json")):
            want = run(capsys, "power-intervals", "-k", "3", *fmt, graph, in_order)
            assert want[0] == 0
            assert run(capsys, "power-intervals", "-k", "3", *fmt, graph, swapped) == want

    @pytest.mark.parametrize("lines, word", [
        (("X\tp\t0\t1", "X\tq\t4\t5", "Y\tr\t1\t2", "Y\ts\t5\t6"), "'p'"),
        (("X\tx1\t0\t1", "X\tx2\t4\t5", "Y\ty1\t1\t2"), "'y2'"),
        (("X\tx1\t0\t1", "X\ty1\t4\t5", "Y\tx2\t1\t2", "Y\ty2\t5\t6"), "'y1'"),
    ])
    def test_intervals_not_naming_the_graphs_vertices_are_exit_2(self, capsys, interval_path, lines, word):
        graph, tsv = interval_path
        path = tsv("alien.tsv", *lines)
        for argv in (["verify-intervals", graph, path], ["power-intervals", "-k", "1", graph, path]):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert len(err.splitlines()) == 1 and err.startswith("error:") and word in err

    def test_power_intervals_tsv(self, files, capsys):
        code, out, _ = run(capsys, "power-intervals", "-k", "3", str(files["graph"]), str(files["intervals"]))
        assert code == 0
        assert "X\tx1\t4\t9" in out
        assert "Y\ty3\t8\t8" in out

    def test_power_intervals_json_format(self, files, capsys):
        code, out, _ = run(
            capsys, "power-intervals", "-k", "3", "--format", "json", str(files["graph"]), str(files["intervals"])
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["y"][4] == {"label": "y5", "left": 9, "right": 9}

    def test_check_chordal_above_64_vertices(self, capsys, tmp_path):
        graph = tmp_path / "edgeless.json"
        graph.write_text(bp.graph_to_json(bp.build_graph(33, 32, [])))
        code, out, _ = run(capsys, "check-chordal", str(graph))
        assert code == 0 and json.loads(out)["chordal_bipartite"] is True

    def test_check_chordal_cycle_deeper_than_the_stack(self, capsys, tmp_path):
        # 400 path vertices against 100 spare frames: a search that recursed
        # per path vertex would end in an internal error here.
        graph = tmp_path / "c400.json"
        graph.write_text(bp.graph_to_json(cycle_graph(400)))
        with frames_to_spare(100):
            code, out, _ = run(capsys, "check-chordal", str(graph))
        assert code == 1
        assert json.loads(out)["cycle"] == [f"{'xy'[t % 2]}{t // 2 + 1}" for t in range(400)]

    @pytest.mark.parametrize("theorem", ["t5", "kchordal"])
    def test_fuzz_above_64_vertices(self, capsys, theorem):
        code, out, _ = run(capsys, "fuzz", "--theorem", theorem, "--trials", "20", "--seed", "3", "--max-x", "40", "--max-y", "40")
        report = json.loads(out)
        assert code == 0 and report["executed"] == 20 and report["counterexamples"] == []

    def test_check_kchordal(self, files, capsys, tmp_path):
        c8 = tmp_path / "c8.json"
        c8.write_text(bp.graph_to_json(cycle_graph(8)))
        code, out, _ = run(capsys, "check-kchordal", "--kchordal-k", "8", str(c8))
        assert code == 0 and json.loads(out)["k_chordal"] is True
        code, out, _ = run(capsys, "check-kchordal", "--kchordal-k", "6", str(c8))
        assert code == 1 and len(json.loads(out)["cycle"]) == 8

    @pytest.mark.parametrize("length, k", [(6, "4"), (8, "6")])
    def test_check_kchordal_searches_once(self, capsys, monkeypatch, tmp_path, length, k):
        searches = []
        search = core.find_chordless_cycle

        def counted(g, min_length, **kwargs):
            searches.append(min_length)
            return search(g, min_length, **kwargs)

        monkeypatch.setattr(core, "find_chordless_cycle", counted)
        monkeypatch.setattr(chordal_power, "find_chordless_cycle", counted)
        graph = tmp_path / "cycle.json"
        graph.write_text(bp.graph_to_json(cycle_graph(length)))
        code, out, _ = run(capsys, "check-kchordal", "--kchordal-k", k, str(graph))
        assert code == 1 and len(json.loads(out)["cycle"]) == length
        assert searches == [int(k) + 2]

    def test_classify_cycle(self, files, capsys):
        code, out, _ = run(capsys, "classify-cycle", "-k", "1", str(files["c18"]), str(files["corners"]))
        assert code == 0
        obj = json.loads(out)
        assert obj["k1"] == 6 and obj["k2"] == 0 and obj["k3"] == 0
        assert all(edge["distance"] == 3 for edge in obj["edges"])

    def test_lift_cycle(self, files, capsys):
        code, out, _ = run(capsys, "lift-cycle", "-k", "1", str(files["c18"]), str(files["corners"]))
        assert code == 0
        obj = json.loads(out)
        assert obj["method"] == "Case1Construction" and len(obj["cycle"]) == 18

    @pytest.mark.parametrize("verb", ["classify-cycle", "lift-cycle"])
    @pytest.mark.parametrize("k", ["3", "5"])
    def test_cycle_of_another_power_is_exit_2(self, files, capsys, verb, k):
        # The corners are a chordless cycle of the 3-power, and of the 5- and
        # 7-powers too, so only the file's "k" tells that -k reads it wrongly.
        code, out, err = run(capsys, verb, "-k", k, str(files["c18"]), str(files["corners"]))
        assert code == 2 and out == ""
        assert err == f'error: cycle JSON "k" is 3, but -k {k} reads a cycle of the {int(k) + 2}-power\n'

    @pytest.mark.parametrize("verb", ["classify-cycle", "lift-cycle"])
    @pytest.mark.parametrize("k", ["2", "-1"])
    def test_even_or_negative_k_is_named_before_the_cycle_power(self, files, capsys, verb, k):
        code, out, err = run(capsys, verb, "-k", k, str(files["c18"]), str(files["corners"]))
        assert code == 2 and out == ""
        assert err.startswith("error: bipartite powers are defined only for odd k >= 1") and err.endswith(f"k={k}\n")

    def test_fuzz_flags(self, files, capsys):
        code, out, _ = run(capsys, "fuzz", "--theorem", "t4", "--trials", "25", "--seed", "3", "--max-x", "5", "--max-y", "5")
        assert code == 0
        obj = json.loads(out)
        assert obj["executed"] == 25 and obj["counterexamples"] == []

    def test_fuzz_campaign_file(self, files, capsys, tmp_path):
        campaign = tmp_path / "campaign.json"
        campaign.write_text(json.dumps({"theorem": "t5", "trials": 10, "seed": 1}))
        code, out, _ = run(capsys, "fuzz", str(campaign))
        assert code == 0
        assert json.loads(out)["campaign"]["theorem"] == "t5"

    @pytest.mark.parametrize("theorem", ["t3", "t4", "t5", "kchordal"])
    def test_fuzz_flags_and_file_give_one_report(self, capsys, tmp_path, theorem):
        campaign = tmp_path / "campaign.json"
        campaign.write_text(json.dumps({"theorem": theorem, "trials": 12, "seed": 6}))
        reports = []
        for argv in (["--theorem", theorem, "--trials", "12", "--seed", "6"], [str(campaign)]):
            code, out, err = run(capsys, "fuzz", *argv)
            assert code == 0 and err == ""
            report = json.loads(out)
            del report["wall_time"]
            reports.append(report)
        assert reports[0] == reports[1]

    def test_gen_each_kind(self, files, capsys, tmp_path):
        code, out, _ = run(capsys, "gen", "--theorem", "t3", "--seed", "4", "--max-x", "3", "--max-y", "3")
        assert code == 0 and out.count("X\t") == 3
        code, out, _ = run(capsys, "gen", "--theorem", "t4", "--seed", "4", "--max-x", "3", "--max-y", "4")
        assert code == 0 and out.startswith("3 4\n")
        code, out, _ = run(capsys, "gen", "--theorem", "t5", "--seed", "4")
        assert code == 0 and "edges" in json.loads(out)

    @pytest.mark.parametrize("theorem", ["t3", "t4", "t5"])
    def test_gen_negative_size_is_exit_2(self, files, capsys, theorem):
        code, out, err = run(capsys, "gen", "--theorem", theorem, "--max-x", "-1", "--max-y", "2")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1

    def test_gen_is_deterministic(self, files, capsys):
        _, first, _ = run(capsys, "gen", "--theorem", "t5", "--seed", "8")
        _, second, _ = run(capsys, "gen", "--theorem", "t5", "--seed", "8")
        assert first == second


def loaded(out: str):
    """A JSON payload as an object, a fuzz report's timing left out."""
    obj = json.loads(out)
    obj.pop("wall_time", None)
    return obj


class TestPayloadForms:
    """Every verb prints JSON under --format json. Under --format text it
    prints the text form its payload has, the same payload in other words:
    verdict lines, interval TSV or matrix text. A payload with no text form
    stays JSON. With no --format, a verdict is JSON and the other two text."""

    # Each call on the fixtures ("@name" is a fixture path) and its payload's form.
    CALLS = [
        (["power", "-k", "3", "@graph"], "json"),
        (["check-chordal", "@graph"], "verdict"),
        (["check-chordal", "@c6"], "json"),
        (["check-kchordal", "--kchordal-k", "6", "@graph"], "verdict"),
        (["check-kchordal", "--kchordal-k", "4", "@c6"], "json"),
        (["verify-intervals", "@graph", "@intervals"], "verdict"),
        (["power-intervals", "-k", "3", "@graph", "@intervals"], "tsv"),
        (["mca-verify", "@matrix"], "json"),
        (["mca-verify", "@anti"], "verdict"),
        (["mca-find", "@anti"], "json"),
        (["mca-power", "-k", "3", "@matrix"], "matrix"),
        (["classify-cycle", "-k", "1", "@c18", "@corners"], "json"),
        (["lift-cycle", "-k", "1", "@c18", "@corners"], "json"),
        (["fuzz", "--theorem", "t4", "--trials", "5"], "json"),
        (["gen", "--theorem", "t3", "--seed", "4"], "tsv"),
        (["gen", "--theorem", "t4", "--seed", "4"], "matrix"),
        (["gen", "--theorem", "t5", "--seed", "4"], "json"),
    ]

    @pytest.mark.parametrize("argv, form", CALLS, ids=[" ".join(argv[:3]) for argv, _ in CALLS])
    def test_json_and_text_forms(self, files, capsys, argv, form):
        argv = [str(files[a[1:]]) if a.startswith("@") else a for a in argv]
        code, as_json, _ = run(capsys, *argv, "--format", "json")
        obj = json.loads(as_json)
        text_code, as_text, _ = run(capsys, *argv, "--format", "text")
        default_code, default, _ = run(capsys, *argv)
        assert code == text_code == default_code
        if form == "verdict":
            assert as_text == "".join(f"{key}: {value}\n" for key, value in obj.items())
            assert default == as_json
        elif form == "tsv":
            rep, x_labels, y_labels = parse_intervals_tsv(as_text)
            assert obj == {
                side: [{"label": lab, "left": iv.left, "right": iv.right} for lab, iv in zip(labels, ivs)]
                for side, labels, ivs in (("x", x_labels, rep.x_intervals), ("y", y_labels, rep.y_intervals))
            }
            assert default == as_text
        elif form == "matrix":
            mat = parse_matrix(as_text)
            entries = ["".join(map(str, row)) for row in mat.entries]
            assert obj == {"n": mat.n, "m": mat.m, "entries": entries, "rows": list(mat.row_perm),
                           "cols": list(mat.col_perm)}
            assert default == as_text
        else:
            assert loaded(as_text) == loaded(default) == loaded(as_json)


class TestOutputHandling:
    def test_output_flag_writes_only_there(self, files, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run(capsys, "power", "-k", "3", str(files["graph"]), "--output", str(target))
        assert code == 0 and out == ""
        assert bp.graph_from_json(target.read_text()).edge_count() == 30
        assert {p.name for p in tmp_path.iterdir()} >= {"out.json"}

    def test_round_trip_graph_bytes(self, files, capsys):
        original = files["graph"].read_text()
        assert bp.graph_to_json(bp.graph_from_json(original)) == original

    def test_round_trip_matrix_bytes(self, files):
        from bipower.mca import parse_matrix

        original = files["matrix"].read_text()
        assert matrix_text(parse_matrix(original)) == original


class TestCounterexampleRecheck:
    """A counterexample record embeds file payloads; the matching verb must
    reproduce the verdict.  No genuine records exist (the properties hold),
    so the pipeline is exercised on passing instances."""

    def test_t4_record_shape_rechecks(self, capsys, tmp_path):
        mat = bp.gen_staircase_matrix(6, 5, 6)
        record = {"kind": "matrix-power", "k": 5, "matrix": matrix_text(mat)}
        path = tmp_path / "instance.mat"
        path.write_text(record["matrix"])
        code, _, _ = run(capsys, "mca-power", "-k", str(record["k"]), str(path))
        assert code == 0  # matches the campaign verdict: no counterexample

    def test_t3_record_shape_rechecks(self, capsys, tmp_path):
        rep = bp.random_interval_representation(12, 4, 4, 8)
        g = bp.intervals_to_graph(rep)
        if not bp.is_connected(g):
            pytest.skip("seed gave a disconnected instance")
        record = {
            "kind": "power-representation",
            "k": 3,
            "graph": bp.graph_to_json(g),
            "intervals": intervals_tsv(rep, g.x_labels, g.y_labels),
        }
        gp = tmp_path / "g.json"
        gp.write_text(record["graph"])
        ip = tmp_path / "g.tsv"
        ip.write_text(record["intervals"])
        code, _, _ = run(capsys, "power-intervals", "-k", str(record["k"]), str(gp), str(ip))
        assert code == 0


def seeded_matrix_texts(seed: int, count: int) -> list[str]:
    """Matrix texts of four kinds in turn: random matrices with no zero line
    under random permutations, shuffled staircases shown as stored (some
    with a row repeated), staircase displays stored under random
    permutations, and sparse random matrices that may hold a zero line."""
    rng = random.Random(seed)
    texts = []
    for t in range(count):
        kind = t % 4
        if kind == 0:
            entries = random_nonzero_matrix(rng, 6, 6)
            n, m = len(entries), len(entries[0])
            mat = bp.ArrangedMatrix(entries, tuple(rng.sample(range(n), n)), tuple(rng.sample(range(m), m)))
        elif kind == 1:
            n = rng.randint(1, 8)
            mat = identity_arrangement(shuffled_staircase(rng, n, rng.randint(1, 8), rng.randint(1, min(3, n))))
        elif kind == 2:
            shown = bp.gen_staircase_matrix(rng.getrandbits(63), rng.randint(1, 8), rng.randint(1, 8)).entries
            mat = stored_under(shown, rng)
        else:
            n, m = rng.randint(1, 6), rng.randint(1, 6)
            mat = identity_arrangement(tuple(tuple(int(rng.random() < 0.3) for _ in range(m)) for _ in range(n)))
        texts.append(matrix_text(mat))
    return texts


class TestPinnedMcaVerbOutputs:
    """The exit code and stdout of mca-verify and mca-find, in each payload
    form, over 80 seeded matrix files, pinned by one sha256, so that a
    change to any printed run, zero label, verdict or exit code shows."""

    DIGEST = "7743db5cd2e83e8fc3dae93cc3ce64af343e6da87caf58b2cc3564c23f18da94"

    def test_outputs_are_pinned(self, tmp_path, capsys):
        digest = hashlib.sha256()
        codes = {"mca-verify": [], "mca-find": []}
        for t, text in enumerate(seeded_matrix_texts(2828, 80)):
            path = tmp_path / f"m{t}.mat"
            path.write_text(text)
            for verb in codes:
                for form in ([], ["--format", "text"]):
                    code, out, _ = run(capsys, verb, str(path), *form)
                    codes[verb].append(code)
                    digest.update(f"{t} {verb} {form} {code}\n{out}".encode())
        for verb, seen in codes.items():
            assert all(seen.count(code) > 4 for code in (0, 1, 2)), (verb, seen)
        assert digest.hexdigest() == self.DIGEST


class TestLabelOrderInvariance:
    """A graph file whose "x" and "y" label arrays are permuted names the
    same labelled graph in another index order: check-chordal and
    check-kchordal give the same verdict and exit code on it, a cycle
    printed for either file is a chordless cycle of the graph, and power
    gives the same labelled edge set."""

    # Each verdict verb and the fewest vertices a cycle it prints may have.
    VERBS = [
        (["check-chordal"], 6),
        (["check-chordal", "--min-length", "8"], 8),
        (["check-kchordal", "--kchordal-k", "4"], 5),
        (["check-kchordal", "--kchordal-k", "6"], 7),
    ]

    @staticmethod
    def _graphs(rng: random.Random):
        yield cycle_graph(6)
        yield bp.gen_subdivided_cycle([3] * 6)[0]
        for t in range(45):
            if t % 3 == 0:
                yield bp.gen_random_bipartite(rng.getrandbits(63), rng.randint(2, 8), rng.randint(2, 8), rng.random())
            elif t % 3 == 1:
                yield plant_cycle(random_tree(rng, rng.randint(4, 12)), rng.choice((6, 8, 10)), rng)
            else:
                yield band_with_extra_edges(rng, rng.randint(4, 9), rng.randint(0, 2))

    @staticmethod
    def _relabelled(rng: random.Random, g: bp.BipartiteGraph) -> str:
        obj = json.loads(bp.graph_to_json(g))
        rng.shuffle(obj["x"])
        rng.shuffle(obj["y"])
        return json.dumps(obj, indent=2) + "\n"

    def test_verdicts_and_powers_ignore_label_order(self, tmp_path, capsys):
        rng = random.Random(1010)
        codes = []
        for t, g in enumerate(self._graphs(rng)):
            paths = [tmp_path / f"g{t}.json", tmp_path / f"g{t}p.json"]
            paths[0].write_text(bp.graph_to_json(g))
            paths[1].write_text(self._relabelled(rng, g))
            for argv, shortest in self.VERBS:
                outs = [run(capsys, *argv, str(path)) for path in paths]
                (code, out, _), (permuted_code, permuted_out, _) = outs
                assert code == permuted_code, (argv, bp.graph_to_json(g))
                codes.append(code)
                if code == 0:
                    assert out == permuted_out
                    continue
                assert code == 1, outs
                for printed in (out, permuted_out):
                    cert = chordal_power.cycle_from_json(g, printed)
                    assert core.verify_chordless(g, cert) and len(cert.vertices) >= shortest, printed
            for k in ("1", "3", "5"):
                (code, out, _), (permuted_code, permuted_out, _) = (
                    run(capsys, "power", "-k", k, str(path)) for path in paths)
                assert code == permuted_code == 0
                assert self._labelled(out) == self._labelled(permuted_out)
        assert codes.count(0) > 100 and codes.count(1) > 50, (codes.count(0), codes.count(1))

    @staticmethod
    def _labelled(out: str) -> tuple[set, set, set]:
        obj = json.loads(out)
        return set(obj["x"]), set(obj["y"]), {tuple(edge) for edge in obj["edges"]}


MATRIX_SIDE_MAX = 14  # largest side of a drawn matrix file


@st.composite
def matrix_files(draw) -> bytes:
    """Matrix files, mostly malformed: a header that may lie or not parse
    (digits of any script included), ragged rows, zero rows and columns,
    sizes up to ``MATRIX_SIDE_MAX``, ``rows:`` / ``cols:`` trailers that need
    not be bijections, and bytes that are not UTF-8."""
    n = draw(st.integers(0, MATRIX_SIDE_MAX))
    m = draw(st.integers(0, MATRIX_SIDE_MAX))
    number = st.text(st.characters(categories=("Nd", "No")), min_size=1, max_size=2)
    head = draw(
        st.sampled_from((f"{n} {m}", f"{n + 1} {m}"))
        | st.tuples(number, number).map(" ".join)
        | st.text(max_size=5)
    )
    rows = []
    for _ in range(n):
        width = draw(st.sampled_from((m, m, m, m - 1, m + 1)))
        fill = draw(st.sampled_from(("01", "0", "1")))
        rows.append("".join(draw(st.sampled_from(fill)) for _ in range(max(width, 0))))
    trailers = []
    for key, size in (("rows", n), ("cols", m)):
        if draw(st.booleans()):
            values = draw(st.lists(st.integers(-2, size + 2), min_size=max(size - 1, 0), max_size=size + 1))
            trailers.append(f"{key}: " + " ".join(map(str, values)))
    junk = draw(st.lists(st.text(max_size=8), max_size=2))
    data = ("\n".join([head, *rows, *trailers, *junk]) + "\n").encode()
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


def assert_error_contract(files: dict[str, bytes], *argvs: list[str]) -> None:
    """Write ``files`` to a temporary directory and run each argv there, with
    every file name replaced by its path.  Each call must end in a documented
    exit code, and an input error in one stderr line, never in a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, data in files.items():
            paths[name] = str(Path(tmp) / name)
            Path(paths[name]).write_bytes(data)
        for argv in argvs:
            argv = [paths.get(arg, arg) for arg in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = dispatch(argv)
            assert code in (0, 1, 2, 3), (argv, files)
            if code == 2:
                assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, (argv, files)


class TestMatrixVerbErrorContract:
    """Any matrix file ends the matrix verbs in a documented exit code, and
    an input error in one stderr line, never in a traceback."""

    @settings(max_examples=200, deadline=None)
    @given(data=matrix_files(), k=st.sampled_from((1, 2, 3, -1)))
    def test_malformed_matrix_files(self, data, k):
        assert_error_contract(
            {"m.mat": data}, ["mca-verify", "m.mat"], ["mca-find", "m.mat"], ["mca-power", "-k", str(k), "m.mat"]
        )


# Any JSON value, to stand where a well-formed part of a file is expected.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)


def one_in(n: int) -> st.SearchStrategy:
    """True about once in ``n`` draws (hypothesis biases integer draws
    towards their bounds, so weights are given by repetition)."""
    return st.sampled_from((False,) * (n - 1) + (True,))


def mostly(good: st.SearchStrategy, n: int = 3) -> st.SearchStrategy:
    """Any JSON value about once in ``n`` draws, ``good`` otherwise."""
    return st.sampled_from((good,) * (n - 1) + (json_values,)).flatmap(lambda values: values)


@st.composite
def json_objects(draw, fields: dict[str, st.SearchStrategy]):
    """A JSON object of the given fields, each of which may be missing or
    any JSON value instead; now and then any JSON value, not an object."""
    if draw(one_in(10)):
        return draw(json_values)
    return {key: draw(mostly(value, 6)) for key, value in fields.items() if not draw(one_in(8))}


@st.composite
def json_files(draw, values: st.SearchStrategy) -> bytes:
    """A value as JSON text, now and then cut short or with a byte that is
    not UTF-8."""
    data = json.dumps(draw(values)).encode()
    if draw(one_in(20)):
        data = data[: draw(st.integers(0, len(data)))]
    elif draw(one_in(20)):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@st.composite
def graph_files(draw) -> bytes:
    """Graph JSON with labels that may repeat or sit on both sides, and
    edges that may be short, long, or name labels that do not exist."""
    x = draw(st.lists(st.sampled_from("abcdq"), max_size=4, unique=not draw(one_in(6))))
    y = draw(st.lists(st.sampled_from("pqrsa"), max_size=4, unique=not draw(one_in(6))))
    pair = st.tuples(mostly(st.sampled_from(x or "z")), mostly(st.sampled_from(y or "z"))).map(list)
    edge = pair | st.lists(st.sampled_from("abpq"), max_size=3)
    return draw(json_files(json_objects({"x": st.just(x), "y": st.just(y), "edges": st.lists(edge, max_size=8)})))


def small_graphs() -> st.SearchStrategy:
    """Well-formed 3+3 graphs for the interval verbs to read beside the TSV."""
    return st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=9).map(
        lambda edges: bp.build_graph(3, 3, edges, ("a", "b", "c"), ("p", "q", "r"))
    )


@st.composite
def interval_files(draw) -> bytes:
    """Interval TSV, mostly malformed: unknown sides, repeated or shared
    labels, endpoints that are not integers or are reversed, too few or too
    many fields, comments and junk lines."""
    endpoint = st.integers(-3, 9).map(str) | st.sampled_from(("", "1.5", "x", "²", "٣"))
    lines = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(("comment", "junk", "fields") + ("entry",) * 7))
        if kind == "comment":
            lines.append("#" + draw(st.text(max_size=5)))
        elif kind == "junk":
            lines.append(draw(st.text(max_size=8)))
        else:
            fields = [
                draw(st.sampled_from(("X", "Y", "X", "Y", "Z", ""))),
                draw(st.sampled_from(("a", "b", "c", "p", "q", "r", ""))),
                draw(endpoint),
                draw(endpoint),
            ]
            if kind == "fields":
                fields = fields[: draw(st.integers(0, 3))] if draw(st.booleans()) else [*fields, "1"]
            lines.append("\t".join(fields))
    data = ("\n".join(lines) + "\n").encode()
    if draw(one_in(20)):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


CYCLE_GRAPHS = [bp.gen_subdivided_cycle(lengths) for lengths in ([1] * 6, [3] * 6, [1, 3, 1, 3])]


@st.composite
def cycle_files(draw) -> tuple[bytes, bytes]:
    """A subdivided cycle's graph JSON and a cycle JSON for it: its corners
    (perhaps rotated or cut short), or labels drawn from the graph."""
    g, corners = draw(st.sampled_from(CYCLE_GRAPHS))
    labels = [g.label(v) for v in corners.vertices]
    turn = draw(st.integers(0, len(labels)))
    cycle = st.sampled_from((labels, labels[turn:] + labels[:turn], labels[:turn]))
    cycle |= st.lists(mostly(st.sampled_from(g.x_labels + g.y_labels)), max_size=10)
    doc = draw(json_files(json_objects({"k": st.sampled_from((corners.host_power, 1, 3, 5, -1, 2)), "cycle": cycle})))
    return bp.graph_to_json(g).encode(), doc


def starts_pool(data: bytes) -> bool:
    """Whether the campaign file asks for a valid parallelism above 1."""
    try:
        doc = json.loads(data)
    except ValueError:
        return False
    parallelism = doc.get("parallelism") if isinstance(doc, dict) else None
    return type(parallelism) is int and parallelism > 1


@st.composite
def with_unknown_key(draw, objects: st.SearchStrategy):
    """An object from ``objects`` that now and then holds a key its schema
    does not name."""
    obj = draw(objects)
    if isinstance(obj, dict) and draw(one_in(8)):
        obj[draw(st.sampled_from(("trails", "max-x", "kset", "")))] = draw(json_values)
    return obj


def campaign_files() -> st.SearchStrategy:
    """Campaign JSON with small bounds, any field wrong or missing, and now
    and then an unknown key.  A valid parallelism above 1 would start a
    process pool, so none is drawn."""
    bounds = with_unknown_key(json_objects({
        "max_x": st.integers(-1, 5),
        "max_y": st.integers(-1, 5),
        "span": st.integers(-1, 12),
        "k_set": st.lists(st.integers(-1, 7), max_size=3),
        "k_chordal_k": st.integers(2, 8),
    }))
    campaign = with_unknown_key(json_objects({
        "theorem": st.sampled_from(("t3", "t4", "t5", "kchordal", "t6")),
        "trials": st.integers(-1, 3),
        "seed": st.integers(-5, 5),
        "bounds": bounds,
        "parallelism": st.sampled_from((1, 0, -1, MAX_PARALLELISM + 1, 2.0, "2", True)),
    }))
    return json_files(campaign).filter(lambda data: not starts_pool(data))


class TestFileVerbErrorContract:
    """Any graph, interval, cycle or campaign file ends the verbs that read
    it in a documented exit code, and an input error in one stderr line."""

    @settings(max_examples=200, deadline=None)
    @given(data=graph_files(), k=st.sampled_from((1, 3, 2, -1)))
    def test_malformed_graph_files(self, data, k):
        assert_error_contract(
            {"g.json": data},
            ["power", "-k", str(k), "g.json"],
            ["check-chordal", "g.json"],
            ["check-kchordal", "--kchordal-k", "6", "g.json"],
        )

    @settings(max_examples=200, deadline=None)
    @given(g=small_graphs(), data=interval_files(), k=st.sampled_from((1, 3, 2, -1)))
    def test_malformed_interval_files(self, g, data, k):
        assert_error_contract(
            {"g.json": bp.graph_to_json(g).encode(), "i.tsv": data},
            ["verify-intervals", "g.json", "i.tsv"],
            ["power-intervals", "-k", str(k), "g.json", "i.tsv"],
        )

    @settings(max_examples=200, deadline=None)
    @given(files=cycle_files(), k=st.sampled_from((1, 3, 5, 2, -1)))
    def test_malformed_cycle_files(self, files, k):
        graph, cycle = files
        assert_error_contract(
            {"g.json": graph, "c.json": cycle},
            ["classify-cycle", "-k", str(k), "g.json", "c.json"],
            ["lift-cycle", "-k", str(k), "g.json", "c.json"],
        )

    @settings(max_examples=200, deadline=None)
    @given(data=campaign_files())
    def test_malformed_campaign_files(self, data):
        assert_error_contract({"c.json": data}, ["fuzz", "c.json"])
