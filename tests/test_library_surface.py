"""Argument checks of the public library entry points."""

import warnings

import numpy as np
import pytest

from covertnet.affiliation import ActorProfile, TieRule, build_from_actors
from covertnet.detection import DetectionParams, ScrutinyPlan, detect_exact, simulate, validate_plan
from covertnet.graph import (
    Graph,
    GraphError,
    build_graph,
    community,
    diameter,
    geodesic_distances,
    is_connected,
    total_distance,
)
from covertnet.measures import (
    SecrecyParams,
    balance,
    exposure_fractions,
    hidden_knowledge,
    information_measure,
    make_hierarchy,
    make_structure,
)
from covertnet.search import enumerate_connected, find_optimal, verify_lemma

PATH3 = build_graph(3, edges=[(0, 1), (1, 2)])
PLAN3 = ScrutinyPlan(alphas=(0.1, 0.1, 0.1), budget=0.3)
PARAMS3 = DetectionParams(gamma=0.5, cost_k=1.0, trials=10)

# bool is an int subtype and 1.5 compares like a number, but neither is an integer; a string
# iterates like a token set, but its characters are not tokens
NOT_INTEGERS = {
    "find_optimal workers=True": ("workers", lambda: find_optimal(4, SecrecyParams(0.3), workers=True)),
    "find_optimal workers=1.5": ("workers", lambda: find_optimal(4, SecrecyParams(0.3), workers=1.5)),
    "simulate periods=True": ("periods", lambda: simulate(PATH3, PLAN3, PARAMS3, periods=True)),
    "simulate workers=2.0": ("workers", lambda: simulate(PATH3, PLAN3, PARAMS3, workers=2.0)),
    "DetectionParams trials=True": ("trial", lambda: DetectionParams(gamma=0.5, cost_k=1.0, trials=True)),
    "DetectionParams seed=True": ("seed", lambda: DetectionParams(gamma=0.5, cost_k=1.0, seed=True)),
    "TieRule threshold=True": ("threshold", lambda: TieRule(threshold=True)),
    "make_hierarchy n_linked=True": ("n_linked", lambda: make_hierarchy([0.1, 0.2, 0.3], n_linked=True)),
    "make_hierarchy n_linked=1.0": ("n_linked", lambda: make_hierarchy([0.1, 0.2, 0.3], n_linked=1.0)),
    "community vertex=True": ("vertex", lambda: community(PATH3, True, 1)),
    "community vertex=1.0": ("vertex", lambda: community(PATH3, 1.0, 1)),
    "ActorProfile generators='abc'": ("generators", lambda: ActorProfile("a", "abc")),
    "make_structure n=2.0": ("order n", lambda: make_structure("complete", 2.0)),
    "make_structure n='3'": ("order n", lambda: make_structure("cycle", "3")),
}


@pytest.mark.parametrize("argument, call", NOT_INTEGERS.values(), ids=NOT_INTEGERS.keys())
def test_non_integer_argument_rejected_by_name(argument, call):
    with pytest.raises(ValueError, match=argument):
        call()


# bool is a real number to ``numbers`` and compares like 0 or 1, and a numeric string
# converts with float(), but neither is a number; None is not a sequence of them
NOT_REAL_NUMBERS = {
    "SecrecyParams p=True": ("probability p", lambda: SecrecyParams(p=True)),
    "SecrecyParams p='0.3'": ("probability p", lambda: SecrecyParams(p="0.3")),
    "SecrecyParams p=None": ("probability p", lambda: SecrecyParams(p=None)),
    "SecrecyParams sharing_weights=(True,)": (
        "sharing_weights", lambda: SecrecyParams(0.3, sharing_weights=(True,))
    ),
    "SecrecyParams sharing_weights=('a',)": (
        "sharing_weights", lambda: SecrecyParams(0.3, sharing_weights=("a",))
    ),
    "verify_lemma p_grid=[True]": ("p_grid", lambda: verify_lemma("star_optimal", 4, [True])),
    "verify_lemma p_grid=['0.7']": ("p_grid", lambda: verify_lemma("star_optimal", 4, ["0.7"])),
    "DetectionParams gamma=True": ("gamma", lambda: DetectionParams(gamma=True, cost_k=1.0)),
    "DetectionParams gamma='0.5'": ("gamma", lambda: DetectionParams(gamma="0.5", cost_k=1.0)),
    "DetectionParams cost_k=True": ("cost_k", lambda: DetectionParams(gamma=0.5, cost_k=True)),
    "ScrutinyPlan budget=True": ("budget", lambda: ScrutinyPlan(alphas=(0.1,), budget=True)),
    "ScrutinyPlan alphas=(True,)": ("alphas", lambda: ScrutinyPlan(alphas=(True,), budget=1.0)),
    "ScrutinyPlan alphas=None": ("alphas", lambda: ScrutinyPlan(alphas=None, budget=1.0)),
    "make_hierarchy alphas=('0.1', '0.2')": ("alphas", lambda: make_hierarchy(("0.1", "0.2"), 1)),
    "find_optimal tolerance=True": ("tolerance", lambda: find_optimal(4, SecrecyParams(0.3), tolerance=True)),
    "find_optimal tolerance='0.1'": ("tolerance", lambda: find_optimal(4, SecrecyParams(0.3), tolerance="0.1")),
    "verify_lemma tolerance=True": ("tolerance", lambda: verify_lemma("star_optimal", 4, [0.7], tolerance=True)),
    "verify_lemma tolerance='0.1'": ("tolerance", lambda: verify_lemma("star_optimal", 4, [0.7], tolerance="0.1")),
}


@pytest.mark.parametrize("argument, call", NOT_REAL_NUMBERS.values(), ids=NOT_REAL_NUMBERS.keys())
def test_non_real_argument_rejected_by_name(argument, call):
    with pytest.raises(ValueError, match=argument):
        call()


# a truthy string or int reads as a switch that is on, but a flag is a bool; a mode
# that is neither would be computed and cached under its own key
NOT_BOOLS = {
    "DetectionParams cascade='x'": ("cascade", lambda: DetectionParams(gamma=0.5, cost_k=1.0, cascade="x")),
    "DetectionParams cascade=1": ("cascade", lambda: DetectionParams(gamma=0.5, cost_k=1.0, cascade=1)),
    "find_optimal allow_large='no'": (
        "allow_large", lambda: find_optimal(4, SecrecyParams(0.3), allow_large="no")
    ),
    "enumerate_connected allow_large='no'": ("allow_large", lambda: enumerate_connected(4, allow_large="no")),
    "geodesic_distances hop_mode='x'": ("hop_mode", lambda: geodesic_distances(PATH3, hop_mode="x")),
    "geodesic_distances hop_mode=0": ("hop_mode", lambda: geodesic_distances(PATH3, hop_mode=0)),
    "build_graph directed=1": ("directed", lambda: build_graph(3, directed=1, edges=[(0, 1)])),
}


@pytest.mark.parametrize("argument, call", NOT_BOOLS.values(), ids=NOT_BOOLS.keys())
def test_non_bool_flag_rejected_by_name(argument, call):
    with pytest.raises(ValueError, match=argument):
        call()


# a string iterates like a roster of its characters, and an int or a None item has no
# id or tokens; a rule that is not a TieRule has no threshold to read; a bare p is not
# a SecrecyParams, a list is not a structure kind, and None or an int holds no edges;
# an edge list is not a Graph, a tuple of alphas not a ScrutinyPlan, and neither a
# SecrecyParams nor a dict of its fields a DetectionParams
WRONG_TYPES = {
    "build_from_actors roster=[1, 2]": ("roster", lambda: build_from_actors([1, 2])),
    "build_from_actors roster='ab'": ("roster", lambda: build_from_actors("ab")),
    "build_from_actors roster=None": ("roster", lambda: build_from_actors(None)),
    "build_from_actors roster=[actor, None]": (
        "roster", lambda: build_from_actors([ActorProfile("a"), None])
    ),
    "build_from_actors rule='x'": ("rule", lambda: build_from_actors([ActorProfile("a")], "x")),
    "find_optimal params=0.3": ("params", lambda: find_optimal(4, 0.3)),
    "balance params=None": ("params", lambda: balance(PATH3, None)),
    "hidden_knowledge params=0.3": ("params", lambda: hidden_knowledge(PATH3, 0.3)),
    "exposure_fractions params=0.3": ("params", lambda: exposure_fractions(PATH3, 0.3)),
    "make_structure kind=[]": ("kind", lambda: make_structure([], 3)),
    "build_graph edges=None": ("edges", lambda: build_graph(3, edges=None)),
    "build_graph edges=5": ("edges", lambda: build_graph(3, edges=5)),
    "geodesic_distances g=edges": ("g must be a Graph", lambda: geodesic_distances([(0, 1)])),
    "total_distance g=None": ("g must be a Graph", lambda: total_distance(None)),
    "diameter g='g'": ("g must be a Graph", lambda: diameter("g")),
    "is_connected g=3": ("g must be a Graph", lambda: is_connected(3)),
    "community g=None": ("g must be a Graph", lambda: community(None, 0, 1)),
    "information_measure g=edges": ("g must be a Graph", lambda: information_measure([(0, 1)])),
    "balance g=None": ("g must be a Graph", lambda: balance(None, SecrecyParams(0.3))),
    "hidden_knowledge g='g'": ("g must be a Graph", lambda: hidden_knowledge("g", SecrecyParams(0.3))),
    "exposure_fractions g=None": ("g must be a Graph", lambda: exposure_fractions(None, SecrecyParams(0.3))),
    "detect_exact g=None": ("g must be a Graph", lambda: detect_exact(None, PLAN3, PARAMS3)),
    "simulate g=edges": ("g must be a Graph", lambda: simulate([(0, 1), (1, 2)], PLAN3, PARAMS3)),
    "validate_plan plan=alphas": ("plan must be a ScrutinyPlan", lambda: validate_plan((0.1, 0.1, 0.1))),
    "detect_exact plan=alphas": (
        "plan must be a ScrutinyPlan", lambda: detect_exact(PATH3, (0.1, 0.1, 0.1), PARAMS3)
    ),
    "simulate plan=None": ("plan must be a ScrutinyPlan", lambda: simulate(PATH3, None, PARAMS3)),
    "detect_exact params=SecrecyParams": (
        "params must be a DetectionParams", lambda: detect_exact(PATH3, PLAN3, SecrecyParams(0.3))
    ),
    "simulate params=dict": (
        "params must be a DetectionParams", lambda: simulate(PATH3, PLAN3, {"gamma": 0.5, "cost_k": 1.0})
    ),
}


@pytest.mark.parametrize("argument, call", WRONG_TYPES.values(), ids=WRONG_TYPES.keys())
def test_wrongly_typed_argument_rejected_by_name(argument, call):
    with pytest.raises(ValueError, match=argument):
        call()


NOT_GRAPHS = {key: call for key, (_, call) in WRONG_TYPES.items() if " g=" in key}


@pytest.mark.parametrize("call", NOT_GRAPHS.values(), ids=NOT_GRAPHS.keys())
def test_non_graph_is_a_graph_error(call):
    with pytest.raises(GraphError, match="g must be a Graph, got "):
        call()


def columns(src, dst, weight):
    return np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64), np.array(weight, dtype=np.float64)


# Graphs built directly, not through build_graph: a negative weight made weighted distances
# loop forever, an endpoint past n gave a wrong distance matrix, a repeated pair counted
# twice in a degree, and a list column or a string n raised a bare AttributeError or TypeError
GRAPH_FAULTS = {
    "negative weight": (
        r"edge \(0, 1, -2.0\) has a negative weight",
        lambda: geodesic_distances(Graph(3, False, *columns([0], [1], [-2.0])), hop_mode=False),
    ),
    "endpoint 5 of 3 vertices": (
        r"edge \(1, 5, 1.0\) has an endpoint out of range \[0, 3\)",
        lambda: geodesic_distances(Graph(3, False, *columns([0, 1], [1, 5], [1.0, 1.0]))),
    ),
    "duplicate pair": (
        r"duplicate edge \(0, 1, 1.0\)",
        lambda: Graph(3, False, *columns([0, 0], [1, 1], [1.0, 1.0])).degree_sequence(),
    ),
    "list column": (
        "edge column src must be a one-dimensional int64 array, got list",
        lambda: Graph(3, False, [0], [1], [-2.0]),
    ),
    "n='3'": (
        "vertex count must be a positive integer, got '3'",
        lambda: Graph("3", False, *columns([0], [1], [1.0])),
    ),
}


@pytest.mark.parametrize("problem, call", GRAPH_FAULTS.values(), ids=GRAPH_FAULTS.keys())
def test_direct_graph_fault_is_a_graph_error(problem, call):
    with pytest.raises(GraphError, match=problem):
        call()


def test_direct_graph_keeps_its_weights_when_the_callers_base_is_written():
    base = np.array([1.0, 2.0])
    g = Graph(3, False, *columns([0], [1], [0.0])[:2], base[:1])
    base[0] = -5.0
    assert g.weight.tolist() == [1.0] and g.edges == ((0, 1, 1.0),)
    assert geodesic_distances(g, hop_mode=False).dist[0, 1] == 1.0


def test_endpoint_past_the_int64_range_is_a_graph_error():
    # in range for a vertex count above 2**63, but an int64 column cannot hold it
    with pytest.raises(GraphError, match=r"edge \(0, 9223372036854775808\) has an endpoint beyond the int64 range"):
        build_graph(2**64, edges=[(0, 2**63)])
    assert build_graph(2**64, edges=[(0, 2**63 - 1)]).edges == ((0, 2**63 - 1, 1.0),)


# a weighted sum past the float maximum is infinite; it must not read as "no path"
# (nor print numpy's overflow warning), nor reach a caller as an infinite total
OVERFLOWS = {
    "geodesic_distances two 1e308 steps": (
        "the weighted distance from 0 to 2 overflows",
        lambda: geodesic_distances(build_graph(3, edges=[(0, 1, 1e308), (1, 2, 1e308)]), hop_mode=False),
    ),
    "geodesic_distances directed, later pair": (
        "the weighted distance from 1 to 3 overflows",
        lambda: geodesic_distances(
            build_graph(4, directed=True, edges=[(1, 2, 1.7e308), (2, 3, 1.7e308)]), hop_mode=False
        ),
    ),
    "total_distance of finite distances": (
        "total distance overflows",
        lambda: total_distance(build_graph(2, edges=[(0, 1, 1.7e308)]), hop_mode=False),
    ),
}


@pytest.mark.parametrize("problem, call", OVERFLOWS.values(), ids=OVERFLOWS.keys())
def test_weighted_sum_beyond_float_range_is_a_graph_error(problem, call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GraphError, match=problem):
            call()


def test_sums_near_the_float_maximum_stay_exact_and_silent():
    # the bucket width and every candidate sum stay below the maximum, or are dropped silently
    big = 1.7e308
    g = build_graph(3, edges=[(0, 1, big), (1, 2, 0.0), (0, 2, big)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dist = geodesic_distances(g, hop_mode=False).dist
        assert dist.tolist() == [[0.0, big, big], [big, 0.0, 0.0], [big, 0.0, 0.0]]
        assert diameter(g, hop_mode=False) == big
