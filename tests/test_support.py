"""The tests' references report a corrupted state: each corruption of a
small guarded or static state makes ``verify_node_invariants`` or
``verify_dynamic_invariants`` say what is wrong."""

import pytest

from deltaenum.dynamic_engine import dyn_preprocess
from deltaenum.query import parse_query
from deltaenum.static_engine import preprocess

from support import verify_dynamic_invariants, verify_node_invariants
from test_static_engine import NAT, make_db

# node 3 projects R onto (x, y) and keeps member counts; node 4 joins U with
# it, a connex 2-child node under a projection, which keeps no candidate
# set; node 5 projects node 4 onto x, so its candidates are the keys of node
# 4's group; the root, node 6, joins S with node 5 and keeps its candidates;
# a key of one variable is its value
QUERY = "H(x,y) :- R(x,y,z), S(x), U(x,y)."
RELATIONS = {
    "R": (3, {(1, 1, 1): 1, (1, 1, 2): 2, (1, 2, 1): 2, (2, 1, 1): 1, (3, 3, 3): 1}),
    "S": (1, {(1,): 1, (2,): 3}),
    "U": (2, {(1, 1): 1, (1, 2): 1, (2, 1): 2, (2, 2): 5}),
}


def guarded_state():
    state = dyn_preprocess(parse_query(QUERY), make_db(NAT, RELATIONS))
    plan = state.plan
    assert plan.nodes[3].children == [0] and plan.nodes[4].children == [2, 3]
    assert plan.nodes[5].children == [4] and 3 in plan.frontier and 4 not in plan.frontier
    assert set(state.accs) == {3} and set(state.groups) == {4} and set(state.candidates) == {6}
    assert verify_dynamic_invariants(state) == []
    return state


# join_drain's query: the root, node 3, joins R with node 2, which projects
# S onto y, so node 1's group under y (the key of one variable is its
# value) maps each S tuple to its annotation
STATIC_QUERY = "H(x,y,z) :- R(x,y), S(y,z)."
STATIC_RELATIONS = {
    "R": (2, {(1, 1): 2, (2, 1): 3, (3, 2): 1}),
    "S": (2, {(1, 1): 5, (1, 2): 1, (4, 4): 2}),
}


def static_state():
    state = preprocess(parse_query(STATIC_QUERY), make_db(NAT, STATIC_RELATIONS))
    plan = state.plan
    assert plan.nodes[3].children == [0, 2] and plan.nodes[2].children == [1]
    assert state.groups[1][1] == {(1, 1): 5, (1, 2): 1}
    assert state.candidates[3] == {(1, 1): 2, (2, 1): 3}
    assert verify_dynamic_invariants(state) == []
    return state


def _extra_tuple(state):
    state.relations[3][(4, 4)] = 1


def _missing_tuple(state):
    del state.relations[3][(3, 3)]


def _wrong_annotation(state):
    state.relations[3][(1, 1)] = 4


def _stored_zero(state):
    state.relations[3][(3, 3)] = 0


def _member_count(state):
    state.accs[3][(1, 1)] = 3


def _candidate_set(state):
    del state.candidates[6][2]


def _group(state):
    state.groups[4][2][(2, 2)] = True


def _candidate_alias(state):
    state.candidates[5] = state.groups[4]


def _group_value(state):
    state.groups[1][1][(1, 2)] = 4


def _root_candidate_value(state):
    state.candidates[3][(2, 1)] = 1


NODE_CORRUPTIONS = [
    (_extra_tuple, ["node 3: extra tuple (4, 4)"]),
    (_missing_tuple, ["node 3: missing tuple (3, 3)"]),
    (_wrong_annotation, ["node 3: annotation 4 at (1, 1), want 3"]),
    (_stored_zero, ["node 3: stored zero annotation at (3, 3)", "node 3: annotation 0 at (3, 3), want 1"]),
]
CONNEX_CORRUPTIONS = [
    (_member_count, ["node 3: member counts mismatch"]),
    (_candidate_set, ["node 6: candidate set mismatch"]),
    (_group, ["node 4: extension groups mismatch"]),
    (_candidate_alias, ["node 5: candidate set mismatch"]),
]


@pytest.mark.parametrize("corrupt, problems", NODE_CORRUPTIONS, ids=[f.__name__[1:] for f, _ in NODE_CORRUPTIONS])
def test_node_invariants_report_each_corruption_of_a_node_relation(corrupt, problems):
    state = guarded_state()
    corrupt(state)
    assert verify_node_invariants(state) == problems
    assert verify_dynamic_invariants(state) == problems


@pytest.mark.parametrize("corrupt, problems", CONNEX_CORRUPTIONS, ids=[f.__name__[1:] for f, _ in CONNEX_CORRUPTIONS])
def test_dynamic_invariants_report_each_corruption_of_the_connex_structures(corrupt, problems):
    state = guarded_state()
    corrupt(state)
    assert verify_node_invariants(state) == []
    assert verify_dynamic_invariants(state) == problems


# the walk reads each answer's annotation off these values
STATIC_CORRUPTIONS = [
    (_group_value, ["node 1: extension groups mismatch"]),
    (_root_candidate_value, ["node 3: candidate set mismatch"]),
]


@pytest.mark.parametrize("corrupt, problems", STATIC_CORRUPTIONS, ids=[f.__name__[1:] for f, _ in STATIC_CORRUPTIONS])
def test_connex_invariants_report_each_corruption_of_a_static_state(corrupt, problems):
    state = static_state()
    corrupt(state)
    assert verify_node_invariants(state) == []
    assert verify_dynamic_invariants(state) == problems
