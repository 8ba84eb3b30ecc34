import dataclasses
import io
import itertools
import keyword
import random
import re
import tokenize

import pytest

from deltaenum.errors import CapabilityError, ClassificationError, VocabularyError
from deltaenum.kdata import AnnotatedRelation, Database
from deltaenum.oracle import oracle_eval_cq
from deltaenum.planner import build_fc_plan, build_guarded_plan
from deltaenum.query import parse_query
from deltaenum.semiring import BUILTIN_SEMIRING_NAMES, builtin_semiring
from deltaenum.static_engine import (
    build_source,
    enumerate_state,
    eval_materialized,
    leaf_key,
    plan_sources,
    preprocess,
    preprocess_with_plan,
    walk_source,
)

from support import (
    corpus_rng,
    equal_answers,
    node_key,
    random_db_for_query,
    random_free_connex_cq,
    random_q_hierarchical_cq,
    reference_connex,
    reference_relation,
    relational_free,
    verify_node_invariants,
)

NAT = builtin_semiring("natural")
BOOL = builtin_semiring("boolean")
REAL = builtin_semiring("real")


def make_db(semiring, relations, constants=None):
    db = Database(semiring, constants=dict(constants or {}))
    for name, (arity, entries) in relations.items():
        db.relations[name] = AnnotatedRelation(arity, dict(entries))
    return db


@pytest.mark.parametrize(
    "text, keys",
    [
        # distinct variables in sorted order: every tuple is its own key
        ("H(x,y) :- R(x,y).", None),
        ("H(x,y) :- R(y,x).", {(1, 2): (2, 1), (3, 3): (3, 3)}),
        ("H(x) :- R(x,x).", {(1, 2): None, (3, 3): 3}),
        ("H(x,y) :- R(x,y), x <= c.", {(1, 3): (1, 3), (3, 1): None}),
        ("H(x) :- R(x,x), x <= c.", {(1, 1): 1, (1, 2): None, (3, 3): None}),
        # a variable under two constants takes the least, in either order
        ("H(x,y) :- R(x,y), x <= c, x <= d.", {(2, 1): (2, 1), (3, 1): None}),
        ("H(x,y) :- R(x,y), x <= d, x <= c.", {(2, 1): (2, 1), (3, 1): None}),
    ],
)
def test_leaf_key_functions(text, keys):
    # ``keys`` maps each tuple of R to its key, None when it does not match,
    # and a key of one variable is its value; without ``keys``, every tuple
    # is its own key
    q = parse_query(text)
    tuples = keys or {(1, 2): (1, 2), (2, 1): (2, 1)}
    db = make_db(NAT, {"R": (2, {t: n + 1 for n, t in enumerate(tuples)})}, {"c": 2, "d": 3})
    state = preprocess(q, db)
    (leaf,) = [n for n, node in state.plan.nodes.items() if node.is_leaf]
    assert (leaf_key(state.plan, leaf) == (None, "t")) == (keys is None)
    want = {tuples[t]: k for t, k in db.relations["R"].entries.items() if tuples[t] is not None}
    # the scan writes the key inline, and the reference compiles it alone
    assert state.relations[leaf] == reference_relation(state, leaf) == want
    # an answer is a tuple, also of one variable
    assert dict(enumerate_state(state)) == {(t,) if len(q.head_vars) == 1 else t: k for t, k in want.items()}


# ---------------------------------------------------------------------------
# preprocess + enumerate oracle equivalence
# ---------------------------------------------------------------------------

def test_preprocess_projection_aggregates():
    q = parse_query("H(x) :- R(x,y).")
    db = make_db(NAT, {"R": (2, {(1, 2): 2, (1, 3): 1, (4, 4): 5})})
    state = preprocess(q, db)
    root_rel = state.relations[state.plan.root]
    assert root_rel == {1: 3, 4: 5}  # a key of one variable is its value
    assert verify_node_invariants(state) == []


def test_preprocess_empty_db():
    q = parse_query("H(x) :- R(x,y).")
    db = make_db(NAT, {"R": (2, {})})
    state = preprocess(q, db)
    assert list(enumerate_state(state)) == []


def test_preprocess_semijoin_example():
    q = parse_query("H(x,y) :- R(x,y), S(y).")
    db = make_db(NAT, {"R": (2, {(1, 2): 2}), "S": (1, {(2,): 3, (9,): 1})})
    state = preprocess(q, db)
    assert state.relations[state.plan.root] == {(1, 2): 6}
    assert dict(enumerate_state(state)) == {(1, 2): 6}


def test_underflowing_product_drops_the_row():
    # 1e-200 * 1e-200 is 0.0 in floating point: the row is gone, as in the oracle
    q = parse_query("H(x,y) :- R(x,y), S(y).")
    db = make_db(REAL, {"R": (2, {(1, 1): 1e-200, (2, 1): 1.0}), "S": (1, {(1,): 1e-200})})
    state = preprocess(q, db)
    assert dict(enumerate_state(state)) == {(2, 1): 1e-200}
    assert oracle_eval_cq(q, db).entries == {(2, 1): 1e-200}
    assert verify_node_invariants(state) == []


def test_preprocess_rejects_non_free_connex():
    q = parse_query("H(x,y) :- R(x,z), S(z,y).")
    db = make_db(NAT, {"R": (2, {}), "S": (2, {})})
    with pytest.raises(ClassificationError):
        preprocess(q, db)


# atoms that disagree with the database vocabulary: arity too small, arity
# too large, unknown relation symbol
VOCABULARY_MISMATCHES = ["H(x) :- R(x).", "H(x) :- R(x,y,z).", "H(x) :- Q(x)."]


@pytest.mark.parametrize("text", VOCABULARY_MISMATCHES)
def test_preprocess_rejects_vocabulary_mismatch(text):
    db = make_db(NAT, {"R": (2, {(1, 1): 1, (3, 2): 2, (2, 3): 3})})
    with pytest.raises(VocabularyError):
        preprocess(parse_query(text), db)


def test_preprocess_rejects_zero_divisor_semirings():
    from deltaenum.semiring import SemiringDescriptor

    mod6 = SemiringDescriptor(
        name="mod6",
        zero=0,
        one=1,
        add=lambda a, b: (a + b) % 6,
        mul=lambda a, b: (a * b) % 6,
        is_zero=lambda a: a == 0,
        zero_divisor_free=False,
        zero_sum_free=False,
        parse=int,
        format=str,
    )
    q = parse_query("H(x) :- R(x).")
    db = Database(mod6)
    db.relations["R"] = AnnotatedRelation(1, {})
    with pytest.raises(CapabilityError):
        preprocess(q, db)


def test_enumerate_full_join():
    q = parse_query("H(x,y,z) :- R(x,z), S(z,y).")
    db = make_db(NAT, {"R": (2, {(1, 2): 2}), "S": (2, {(2, 4): 3})})
    assert dict(enumerate_state(preprocess(q, db))) == {(1, 4, 2): 6}


def test_enumerate_pure_inequality_query():
    q = parse_query("Q(z) :- z <= d.")
    db = make_db(NAT, {}, {"d": 2})
    assert dict(enumerate_state(preprocess(q, db))) == {(1,): 1, (2,): 1}


def test_enumerate_identity_matrix_query():
    q = parse_query("I(x,x) :- x <= alpha.")
    db = make_db(BOOL, {}, {"alpha": 3})
    assert dict(enumerate_state(preprocess(q, db))) == {
        (1, 1): True,
        (2, 2): True,
        (3, 3): True,
    }


def test_eval_materialized_zero_erasure():
    q = parse_query("H(x) :- R(x,y).")
    db = make_db(REAL, {"R": (2, {(1, 1): 2.0, (1, 2): -2.0})})
    assert eval_materialized(q, db).entries == {}


def test_enumerate_limit_and_no_duplicates():
    q = parse_query("H(x,y) :- R(x,y).")
    entries = {(i, j): 1 for i in range(1, 6) for j in range(1, 6)}
    db = make_db(NAT, {"R": (2, entries)})
    state = preprocess(q, db)
    out = list(enumerate_state(state, limit=7))
    assert len(out) == 7
    full = list(enumerate_state(state))
    assert len(full) == len(set(t for t, _ in full)) == 25


def test_cancelled_projection_does_not_block_connex_navigation():
    # over the reals the root aggregate for x=1 cancels to zero, but both
    # output rows (x,y) survive because y is free
    q = parse_query("H(x,y) :- R(x,y).")
    db = make_db(REAL, {"R": (2, {(1, 1): 2.0, (1, 2): -2.0})})
    got = dict(enumerate_state(preprocess(q, db)))
    assert got == {(1, 1): 2.0, (1, 2): -2.0}


# ---------------------------------------------------------------------------
# Random oracle equivalence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sname", BUILTIN_SEMIRING_NAMES)
def test_random_oracle_equivalence(sname):
    semiring = builtin_semiring(sname)
    rng = random.Random(600 + len(sname))
    streamed = 0
    for _ in range(400):
        q = random_free_connex_cq(rng)
        db = random_db_for_query(rng, q, semiring)
        state = preprocess(q, db)
        got = dict(enumerate_state(state))
        want = oracle_eval_cq(q, db).entries
        assert equal_answers(got, want, semiring), (q.to_text(), db.relations, db.constants)
        assert verify_node_invariants(state) == []
        assert all(not semiring.is_zero(v) for v in got.values())
        # streaming a node through its parent's pass changes no stored value,
        # not even in the last bit of a real, and no insertion order
        assert set(state.relations) == state.plan.stored
        for nid, rel in state.relations.items():
            full = reference_relation(state, nid)
            assert list(rel.items()) == list(full.items()), (q.to_text(), nid)
        streamed += len(state.plan.nodes) - len(state.plan.connex | state.plan.stored)
    assert streamed


def test_streamed_joins_multiply_in_the_reference_order():
    rng = random.Random(611)
    chains = 0
    for _ in range(400):
        q = random_free_connex_cq(rng)
        db = in_tenths(random_db_for_query(rng, q, REAL))
        state = preprocess(q, db)
        for nid, rel in state.relations.items():
            full = reference_relation(state, nid)
            assert list(rel.items()) == list(full.items()), (q.to_text(), nid)
        # stored joins whose guard child is a streamed join: two probes
        plan = state.plan
        guards = [plan.nodes[n].children[0] for n in plan.stored if len(plan.nodes[n].children) == 2]
        chains += sum(len(plan.nodes[g].children) == 2 and g not in plan.stored for g in guards)
    assert chains


def test_node_invariants_recompute_a_streamed_guard_child():
    # the matlang_hadamard shape: the root joins A.*V, which streams, with U
    q = parse_query("H(x,y) :- A(x,y), U(x), V(y).")
    db = make_db(
        NAT,
        {
            "A": (2, {(1, 1): 2, (1, 2): 3, (2, 1): 5}),
            "U": (1, {(1,): 7}),
            "V": (1, {(1,): 11, (2,): 13}),
        },
    )
    state = preprocess(q, db)
    plan = state.plan
    assert plan.nodes[plan.root].children[0] not in state.relations
    root = state.relations[plan.root]
    assert root == {(1, 1): 2 * 11 * 7, (1, 2): 3 * 13 * 7}
    assert verify_node_invariants(state) == []
    root[(1, 2)] += 1
    assert verify_node_invariants(state) == [
        f"node {plan.root}: annotation 274 at (1, 2), want 273"
    ]
    del root[(1, 2)]
    root[(2, 1)] = 55
    assert verify_node_invariants(state) == [
        f"node {plan.root}: missing tuple (1, 2)",
        f"node {plan.root}: extra tuple (2, 1)",
    ]


def test_enumerate_cross_product_multi_node_connex():
    # free variables split across branches force a multi-node connex region
    q = parse_query("H(x,y) :- A(x), B(y).")
    db = make_db(NAT, {"A": (1, {(1,): 2, (3,): 1}), "B": (1, {(2,): 5})})
    state = preprocess(q, db)
    assert len(state.plan.connex) > 1
    assert dict(enumerate_state(state)) == {(1, 2): 10, (3, 2): 5}
    assert dict(enumerate_state(state)) == oracle_eval_cq(q, db).entries


def test_enumerate_self_join_with_covered_inequality():
    # the same stored tuple feeds two atoms with different inequality filters
    q = parse_query("H() :- R(x,y), R(y,x), x <= c.")
    db = make_db(NAT, {"R": (2, {(1, 5): 1, (5, 1): 1})}, {"c": 2})
    got = dict(enumerate_state(preprocess(q, db)))
    assert got == oracle_eval_cq(q, db).entries == {(): 1}


def test_tropical_min_plus_aggregation():
    # min-plus semiring: projection takes the cheapest extension
    TROP = builtin_semiring("tropical-min")
    q = parse_query("H(x) :- R(x,y), S(y).")
    db = make_db(
        TROP,
        {"R": (2, {(1, 2): 3.0, (1, 3): 1.0, (2, 2): 7.0}), "S": (1, {(2,): 10.0, (3,): 100.0})},
    )
    got = dict(enumerate_state(preprocess(q, db)))
    # x=1: min(3+10, 1+100) = 13; x=2: 7+10 = 17
    assert got == {(1,): 13.0, (2,): 17.0}
    assert got == oracle_eval_cq(q, db).entries


def test_two_interleaved_cursors_are_independent():
    q = parse_query("H(x,y) :- R(x,y).")
    entries = {(i, j): 1 for i in range(1, 4) for j in range(1, 4)}
    db = make_db(NAT, {"R": (2, entries)})
    state = preprocess(q, db)
    a, b = enumerate_state(state), enumerate_state(state)
    seen_a, seen_b = [], []
    for _ in range(9):
        seen_a.append(next(a))
        seen_b.append(next(b))
    assert seen_a == seen_b
    assert len(seen_a) == 9


# ---------------------------------------------------------------------------
# The level walk: output order, limits, cursors
# ---------------------------------------------------------------------------

JOIN = "H(x,y,z) :- R(x,y), S(y,z)."
JOIN_DB = {
    "R": (2, {(3, 2): 1, (1, 1): 2, (2, 1): 3, (1, 3): 1, (4, 9): 2}),
    "S": (2, {(1, 6): 1, (3, 5): 2, (1, 5): 3, (2, 7): 1, (3, 4): 1}),
}
# pinned output order: depth-first over the root's candidates, guard first,
# last level fastest
JOIN_ORDER = [
    ((3, 2, 7), 1),
    ((1, 1, 6), 2),
    ((1, 1, 5), 6),
    ((2, 1, 6), 3),
    ((2, 1, 5), 9),
    ((1, 3, 5), 2),
    ((1, 3, 4), 1),
]
RANGE = "H(x,y,w) :- A(x), B(y), w <= c."
RANGE_DB = {"A": (1, {(2,): 1, (1,): 2}), "B": (1, {(5,): 3, (4,): 1})}
RANGE_ORDER = [
    ((x, y, w), a * b) for x, a in ((2, 1), (1, 2)) for y, b in ((5, 3), (4, 1)) for w in (1, 2, 3)
]


def test_walk_output_order_is_pinned():
    state = preprocess(parse_query(JOIN), make_db(NAT, JOIN_DB))
    assert len(state.plan.levels) == 2
    assert list(enumerate_state(state)) == JOIN_ORDER
    state = preprocess(parse_query(RANGE), make_db(NAT, RANGE_DB, {"c": 3}))
    assert len(state.plan.levels) == 2
    assert list(enumerate_state(state)) == RANGE_ORDER


@pytest.mark.parametrize("text, relations", [(JOIN, JOIN_DB), (RANGE, RANGE_DB)])
def test_limit_stops_inside_any_level(text, relations):
    state = preprocess(parse_query(text), make_db(NAT, relations, {"c": 3}))
    full = list(enumerate_state(state))
    for k in range(len(full) + 2):
        assert list(enumerate_state(state, limit=k)) == full[:k]


def test_two_interleaved_cursors_over_a_walk():
    state = preprocess(parse_query(JOIN), make_db(NAT, JOIN_DB))
    a, b = enumerate_state(state), enumerate_state(state)
    seen_a = [next(a) for _ in range(3)]
    seen_b = list(b)
    seen_a += list(a)
    assert seen_a == seen_b == JOIN_ORDER


def test_enumerate_inequality_only_queries():
    db = make_db(NAT, {}, {"c": 3, "d": 2})
    state = preprocess(parse_query("H(w) :- w <= c."), db)
    assert not state.plan.nodes
    assert list(enumerate_state(state)) == [((1,), 1), ((2,), 1), ((3,), 1)]
    assert list(enumerate_state(state, limit=2)) == [((1,), 1), ((2,), 1)]
    state = preprocess(parse_query("H(w,v) :- w <= d, v <= d, u <= c."), db)
    assert list(enumerate_state(state)) == [((w, v), 3) for w in (1, 2) for v in (1, 2)]
    state = preprocess(parse_query("H() :- u <= c."), db)
    assert list(enumerate_state(state)) == [((), 3)]


# ---------------------------------------------------------------------------
# The compiled connex build against the reference build
# ---------------------------------------------------------------------------

def in_order(d):
    """The items of the dict ``d``, and of each dict in it, as nested lists,
    which are equal only when every dict was inserted in the same order."""
    return [(k, in_order(v) if isinstance(v, dict) else v) for k, v in d.items()]


@pytest.mark.parametrize("sname", BUILTIN_SEMIRING_NAMES)
def test_connex_build_equals_the_reference_build(sname):
    semiring = builtin_semiring(sname)
    rng = random.Random(630)
    for i in range(160):
        # free-connex plans, and guarded plans, which also count members
        draw, plan_of = (random_free_connex_cq, build_fc_plan) if i % 2 else (random_q_hierarchical_cq, build_guarded_plan)
        q = draw(rng)
        plan = plan_of(q)
        state = preprocess_with_plan(q, random_db_for_query(rng, q, semiring), plan)
        candidates, groups, accs = reference_connex(state)
        got = (in_order(state.candidates), in_order(state.groups), in_order(state.accs))
        assert got == (in_order(candidates), in_order(groups), in_order(accs)), build_source(plan, semiring)
        # the walk and the update paths read a projection's candidates off
        # its child's group and a frontier node's off its relation, so no
        # candidate set is either of them
        stored = [*state.relations.values(), *state.groups.values()]
        assert not any(c is d for c in state.candidates.values() for d in stored)


# ---------------------------------------------------------------------------
# The compiled walk against a reference walk
# ---------------------------------------------------------------------------

def reference_walk(state):
    """The answers of ``state`` in enumeration order, by a plain recursive
    walk over its plan's levels and then its free ranges.  Level ``j``
    multiplies the product of the levels above it by the product of its
    frontier annotations, taken left to right: p_j = p_(j-1) * ((f1 * f2) * f3)."""
    s = state.semiring
    if s.is_zero(state.factor):
        return []
    plan = state.plan
    levels = plan.levels
    q = plan.query
    # the bounds of the inequality variables, in sorted order
    bound = dict(zip(sorted({ineq.var for ineq in q.inequality_atoms}), state.bounds))
    # the free variables of no atom, in head order without repeats
    free = [v for v in dict.fromkeys(q.head_vars) if v not in relational_free(q)]
    ranges = [range(1, bound[v] + 1) for v in free]
    order = [v for level in levels for v in level.order] + free
    head = [order.index(v) for v in q.head_vars]
    out = []

    def visit(j, tuples, p):
        if j == len(levels):
            for values in itertools.product(*ranges):
                # a level tuple of one variable is its value
                row = [x for level, t in zip(levels, tuples) for x in ((t,) if len(level.order) == 1 else t)]
                row += values
                out.append((tuple(row[i] for i in head), p))
            return
        level = levels[j]
        if j == 0:
            tuples_here = (state.relations if plan.root in plan.frontier else state.candidates)[plan.root]
        else:
            src = tuples[level.source]
            tuples_here = state.groups[level.nodes[0]][node_key(src, level.key, len(levels[level.source].order))]
        for t in tuples_here:
            factors = [state.relations[f][node_key(t, pos, len(level.order))] for f, pos in level.frontier]
            k = p
            if factors:
                f = factors[0]
                for g in factors[1:]:
                    f = s.mul(f, g)
                k = s.mul(p, f)
            visit(j + 1, tuples + [t], k)

    visit(0, [], state.factor)
    return out


def in_tenths(db):
    # a product of tenths can depend on the association of its factors in
    # the last bit, unlike the quarters that the corpora draw
    for rel in db.relations.values():
        rel.entries = {t: k / 10 for t, k in rel.entries.items()}
    return db


def assert_walks_alike(state):
    got = list(enumerate_state(state))
    want = reference_walk(state)
    assert repr(got) == repr(want), state.plan.query.to_text()


@pytest.mark.parametrize("sname", [*BUILTIN_SEMIRING_NAMES, "real-tenths"])
def test_walk_equals_the_reference_walk(sname):
    semiring = builtin_semiring(sname.removesuffix("-tenths"))
    rng = random.Random(620 + len(sname))
    for _ in range(300):
        q = random_free_connex_cq(rng)
        db = random_db_for_query(rng, q, semiring)
        if sname == "real-tenths":
            in_tenths(db)
        assert_walks_alike(preprocess(q, db))


# two frontier annotations on the level under x, p0 = c * U(x) above it,
# a free range w and the bound range u
TWO_FACTORS = "H(x,y,w) :- R(x,y,z), S(x,y), U(x), w <= c, u <= d."


def test_walk_multiplies_each_level_in_the_documented_order():
    q = parse_query(TWO_FACTORS)
    plan = build_guarded_plan(q)
    assert max(len(level.frontier) for level in plan.levels) == 2
    rng = random.Random(623)
    for _ in range(40):
        db = in_tenths(random_db_for_query(rng, q, REAL, max_tuples=60, domain=3))
        db.constants["d"] = 3
        assert_walks_alike(preprocess_with_plan(q, db, plan))
        assert_walks_alike(preprocess_with_plan(q, db, build_fc_plan(q)))


# join_drain's walk: each level reads its tuples' frontier products with them
JOIN_WALK = """\
def walk(state):
    k = state.factor
    mul, is_zero = state.semiring.mul, state.semiring.is_zero
    if (k == 0):
        return
    version = state.version
    c3 = state.candidates[3]
    g1 = state.groups[1]
    for t0, v0 in c3.items():
        p0 = (k * v0)
        for t1, v1 in g1[t0[1]].items():
            yield (t0[0], t0[1], t1[1]), (p0 * v1)
            if state.version != version:
                raise StaleStateError(STALE)
"""


def test_join_walk_is_pinned():
    assert walk_source(build_fc_plan(parse_query(JOIN)), NAT) == JOIN_WALK


def test_no_free_connex_walk_looks_up_a_relation_per_answer():
    # a level of a free-connex plan reads its frontier product off the dict
    # it iterates, so no relation is subscripted inside the loops
    rng = random.Random(625)
    for _ in range(600):
        plan = build_fc_plan(random_free_connex_cq(rng))
        for s in SEMIRINGS:
            walk = walk_source(plan, s)
            loops = walk[walk.find("\n    for ") :]
            assert not re.search(r"\br[0-9]+\[", loops), walk
            assert loops.count(".items():") == sum(1 for level in plan.levels if level.frontier), walk


# a one-component tuple display of a subscript: a key of one variable built
# as a 1-tuple, which the key rule (``codegen.project``) never writes
ONE_TUPLE = re.compile(r"\(\w+\[\d+\],\)")


def unary_nodes(plan):
    """The number of nodes of ``plan`` that have one variable."""
    return sum(len(order) == 1 for order in plan.order.values())


@pytest.mark.parametrize("sname", BUILTIN_SEMIRING_NAMES)
def test_no_walk_or_build_writes_a_key_of_one_variable_as_a_tuple(sname):
    s = builtin_semiring(sname)
    rng = corpus_rng(3400 + BUILTIN_SEMIRING_NAMES.index(sname))
    unary = 0
    for _ in range(1000):
        q = random_free_connex_cq(rng)
        plan = build_fc_plan(q)
        unary += unary_nodes(plan)
        for source in plan_sources(plan, s):
            assert not ONE_TUPLE.search(source), (q.to_text(), source)
    assert unary > 1000  # the corpus keys many nodes by one variable


# the builtin semirings, whose operators generated code writes out through
# their templates, and the naturals without templates, whose operators it
# calls by name
SEMIRINGS = [builtin_semiring(name) for name in BUILTIN_SEMIRING_NAMES]
SEMIRINGS.append(dataclasses.replace(NAT, name="natural-calls", templates={}))
# the names the builtin templates write
TEMPLATE_NAMES = {"min", "inf"}

# every name that ``walk_source`` writes, besides Python keywords, the
# numbered names of its tuples, products, ranges and hoisted dicts, and
# TEMPLATE_NAMES
WALK_NAMES = {
    "walk", "state", "k", "factor", "semiring", "is_zero", "mul", "version",
    "bounds", "range", "relations", "candidates", "groups", "items", "StaleStateError", "STALE",
}
# every name that ``build_source`` writes, besides Python keywords, the
# numbered names of its relations, groups, candidate sets and member counts,
# and TEMPLATE_NAMES
BUILD_NAMES = {
    "build", "state", "entries", "semiring", "add", "mul", "is_zero", "bounds", "relations",
    "candidates", "groups", "accs", "t", "k", "x", "g", "n", "get", "items", "setdefault", "True",
}


def assert_fixed_names(source, allowed, numbered):
    """``source`` holds no string literal, and every name in it is a Python
    keyword, a name matching ``numbered`` or one of ``allowed``."""
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    assert not [t for t in tokens if t.type == tokenize.STRING], source
    names = {t.string for t in tokens if t.type == tokenize.NAME}
    names -= {n for n in names if re.fullmatch(numbered, n)}
    assert names - set(keyword.kwlist) <= allowed, source


def test_no_query_text_reaches_the_compiled_walk():
    # relation, variable and constant names that the generated sources use
    # themselves, a free range and a covered inequality
    text = "H(r, yield, t0) :- state(r, yield), mul(r), import(r, yield, z), bounds(r, bounds), t0 <= k, bounds <= bounds."
    # the same query under names in the same sorted order, so the same plans
    plain = "H(b, d, c) :- A(b, d), B(b), C(b, d, e), D(b, a), c <= f, a <= g."
    q, p = parse_query(text), parse_query(plain)
    rng = random.Random(624)
    db = random_db_for_query(rng, q, NAT, max_tuples=60, domain=3)
    db.constants.update(k=2, bounds=2)
    for plan_of in (build_fc_plan, build_guarded_plan):
        state = preprocess_with_plan(q, db, plan_of(q))
        assert state.plan.levels and set(q.head_vars) - set(relational_free(q))
        got = list(enumerate_state(state))
        assert got and dict(got) == oracle_eval_cq(q, db).entries
        for s in SEMIRINGS:
            walk, build = plan_sources(state.plan, s)
            assert (walk, build) == plan_sources(plan_of(p), s)
            assert walk == walk_source(state.plan, s) and "for t, k in " in build
            assert_fixed_names(walk, WALK_NAMES | TEMPLATE_NAMES, r"[bcgiprtv][0-9]+")
            assert_fixed_names(build, BUILD_NAMES | TEMPLATE_NAMES, r"[acgr][0-9]+")
            # the guarded plan's build counts members and builds a group;
            # the free-connex plan's root is on its frontier
            assert ("state.accs[" in build and "state.groups[" in build) == state.plan.guarded


def test_no_query_text_reaches_the_leaf_keys():
    # relation, variable and constant names that the generated key
    # expressions and scans use themselves; one leaf is out of sorted order,
    # one repeats a variable and one covers two inequalities
    text = "H(t, bounds) :- make(t, bounds), lambda(t, t), bounds(t), bounds <= b, t <= bounds."
    # the same query under names in the same sorted order
    plain = "H(c, a) :- A(c, a), B(c, c), C(c), a <= d, c <= e."
    q, p = parse_query(text), parse_query(plain)
    rng = random.Random(628)
    db = random_db_for_query(rng, q, NAT, max_tuples=60, domain=3)
    db.constants.update(b=2, bounds=2)
    got = list(enumerate_state(preprocess(q, db)))
    assert got and dict(got) == oracle_eval_cq(q, db).entries
    for plan_of in (build_fc_plan, build_guarded_plan):
        plan, plain_plan = plan_of(q), plan_of(p)
        leaves = [n for n in sorted(plan.nodes) if plan.nodes[n].is_leaf]
        keys = {n: leaf_key(plan, n) for n in leaves}
        assert list(keys.values()) == [leaf_key(plain_plan, n) for n in leaves]
        assert (None, "t") not in keys.values()
        for miss, key in keys.values():
            assert_fixed_names(f"{miss} {key}", {"t", "bounds"}, r"$^")
        for s in SEMIRINGS:
            build = plan_sources(plan, s)[1]
            # each leaf is read by one loop, which writes its test, then its key, inline
            assert all(build.count(f"entries[{n}]") == 1 for n in keys)
            for n, (miss, key) in keys.items():
                lines = ([f"if {miss}:", "    continue"] if miss else []) + ([f"t = {key}"] if key != "t" else [])
                assert f"in entries[{n}].items():\n" + "".join(f"        {line}\n" for line in lines) in build
            assert build == plan_sources(plain_plan, s)[1]
            assert_fixed_names(build, BUILD_NAMES | TEMPLATE_NAMES, r"[acgr][0-9]+")
