"""bipower: bipartite graph powers and the graph classes closed under them.

Construct odd bipartite powers, carry interval representations and monotone
consecutive arrangements through them, recognize chordal-bipartite and
k-chordal graphs, lift chordless cycles between power levels, and fuzz all
of it with seeded, reproducible campaigns.

The public names below are loaded on first use (PEP 562), so that
``import bipower`` and each command-line verb import only the submodules
they need.
"""

import sys

__version__ = "0.1.0"

_EXPORTS = {
    "core": "BipartiteGraph CycleCertificate DistanceTable Side VertexId bfs_distance bipartite_power build_graph "
            "diameter find_chordless_cycle graph_from_json graph_to_json is_connected verify_chordless x_vertex y_vertex",
    "errors": "BipowerError CapacityError InputError TheoremCounterexample",
    "intervals": "Interval IntervalRepresentation RawEndpoint intervals_to_graph power_representation "
                 "random_interval_representation raw_right_endpoint verify_representation",
    "mca": "ArrangedMatrix McaCertificate find_mca graph_to_matrix greedy_distance label_zeros matrix_power "
           "matrix_to_graph verify_mca",
    "chordal_power": "CycleClassification EdgeClass LiftMethod LiftResult StrongClosureReport classify_cycle_edges "
                     "is_chordal_bipartite is_k_chordal lift_chordless_cycle strongly_closed_check",
    "harness": "Bounds Campaign FuzzReport Theorem enumerate_bipartite gen_random_bipartite gen_staircase_matrix "
               "gen_subdivided_cycle run_campaign",
}
# Public name -> the submodule that defines it; a submodule maps to itself.
_HOME = {name: module for module, names in _EXPORTS.items() for name in [module, *names.split()]}

__all__ = list(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, is timed by python -X importtime.
    __import__(f"{__name__}.{home}")
    module = sys.modules[f"{__name__}.{home}"]
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
