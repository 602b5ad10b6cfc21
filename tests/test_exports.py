"""The package's public names, which load their submodules on first use."""

from __future__ import annotations

import argparse
import dataclasses
import importlib
from pathlib import Path

import pytest

import bipower
from bipower import harness
from bipower.cli import build_parser

SUBMODULES = ("core", "errors", "intervals", "mca", "chordal_power", "harness")

# Every name the package exports.  A name that only tests use lives in
# tests/oracles.py instead (test_source_rules checks that each is used).
EXPORTED = {
    "core": (
        "BipartiteGraph", "CycleCertificate", "DistanceTable", "Side", "VertexId", "bfs_distance",
        "bipartite_power", "build_graph", "diameter", "find_chordless_cycle", "graph_from_json",
        "graph_to_json", "is_connected", "verify_chordless", "x_vertex", "y_vertex",
    ),
    "errors": ("BipowerError", "CapacityError", "InputError", "TheoremCounterexample"),
    "intervals": (
        "Interval", "IntervalRepresentation", "RawEndpoint", "intervals_to_graph",
        "power_representation", "random_interval_representation", "raw_right_endpoint", "verify_representation",
    ),
    "mca": (
        "ArrangedMatrix", "McaCertificate", "find_mca", "graph_to_matrix",
        "greedy_distance", "label_zeros", "matrix_power", "matrix_to_graph", "verify_mca",
    ),
    "chordal_power": (
        "CycleClassification", "EdgeClass", "LiftMethod", "LiftResult", "StrongClosureReport",
        "classify_cycle_edges", "is_chordal_bipartite", "is_k_chordal", "lift_chordless_cycle",
        "strongly_closed_check",
    ),
    "harness": (
        "Bounds", "Campaign", "FuzzReport", "Theorem", "enumerate_bipartite", "gen_random_bipartite",
        "gen_staircase_matrix", "gen_subdivided_cycle", "run_campaign",
    ),
}


@pytest.mark.parametrize("module", SUBMODULES)
def test_names_resolve_to_the_submodule_objects(module):
    home = importlib.import_module(f"bipower.{module}")
    assert getattr(bipower, module) is home
    for name in EXPORTED[module]:
        assert getattr(bipower, name) is getattr(home, name), name


def test_dir_and_all_list_every_name():
    names = [*SUBMODULES, *(name for names in EXPORTED.values() for name in names)]
    assert sorted(bipower.__all__) == sorted(names)
    listed = dir(bipower)
    assert [name for name in [*names, "__version__"] if name not in listed] == []
    assert bipower.__version__ == "0.1.0"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'parse_matrix'"):
        getattr(bipower, "parse_matrix")
    assert not hasattr(bipower, "cli_main")
    with pytest.raises(ImportError):
        from bipower import no_such_name  # noqa: F401


def subcommands() -> dict[str, argparse.ArgumentParser]:
    """The command line's verbs and their parsers."""
    parser = build_parser()
    return next(action for action in parser._actions if isinstance(action, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("verb", ["fuzz", "gen"])
def test_theorem_choices_match_the_harness(verb):
    choices = next(action.choices for action in subcommands()[verb]._actions if action.dest == "theorem")
    assert choices == [t.value for t in harness.Theorem]


def test_readme_shows_every_verb():
    # The README's "Command line" block shows each verb the parser has, and no other.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    shown = {line.split()[1] for line in block.splitlines() if line.startswith("bipower ")}
    assert shown == set(subcommands())


def test_fuzz_flags_match_the_bounds():
    # One flag per campaign bound, named after its field and with no default
    # of its own, so that the defaults live in harness.Bounds alone.
    actions = subcommands()["fuzz"]._actions
    for f in dataclasses.fields(harness.Bounds):
        flags = [action for action in actions if action.dest == f.name]
        assert len(flags) == 1 and flags[0].default is None, f.name
