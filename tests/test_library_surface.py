"""Argument checks of the public library entry points."""

import pytest

from covertnet.affiliation import ActorProfile, TieRule
from covertnet.detection import DetectionParams, ScrutinyPlan, simulate
from covertnet.graph import build_graph, community
from covertnet.measures import SecrecyParams, make_hierarchy
from covertnet.search import find_optimal, verify_lemma

PATH3 = build_graph(3, edges=[(0, 1), (1, 2)])
PLAN3 = ScrutinyPlan(alphas=(0.1, 0.1, 0.1), budget=0.3)
PARAMS3 = DetectionParams(gamma=0.5, cost_k=1.0, trials=10)

# bool is an int subtype and 1.5 compares like a number, but neither is an integer; a string
# iterates like a token set, but its characters are not tokens
NOT_INTEGERS = {
    "find_optimal workers=True": ("workers", lambda: find_optimal(4, SecrecyParams(0.3), workers=True)),
    "find_optimal workers=1.5": ("workers", lambda: find_optimal(4, SecrecyParams(0.3), workers=1.5)),
    "verify_lemma workers=True": ("workers", lambda: verify_lemma("star_optimal", 4, [0.7], workers=True)),
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
}


@pytest.mark.parametrize("argument, call", NOT_INTEGERS.values(), ids=NOT_INTEGERS.keys())
def test_non_integer_argument_rejected_by_name(argument, call):
    with pytest.raises(ValueError, match=argument):
        call()
