import dataclasses
import functools
import math
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deltaenum.dynamic_engine import (
    dyn_enumerate,
    dyn_preprocess,
    dyn_update,
    update_sources,
)
from deltaenum.errors import CapabilityError, ClassificationError, EngineError, SchemaError, StaleStateError, VocabularyError
from deltaenum.kdata import SingleTupleUpdate, apply_update
from deltaenum.oracle import oracle_eval_cq
from deltaenum.planner import build_fc_plan, build_guarded_plan
from deltaenum.query import parse_query
from deltaenum.semiring import BUILTIN_SEMIRING_NAMES, SemiringDescriptor, builtin_semiring
from deltaenum.static_engine import enumerate_state, leaf_key, plan_sources, preprocess, preprocess_with_plan

from support import (
    corpus_rng,
    equal_answers,
    node_key,
    random_db_for_query,
    random_q_hierarchical_cq,
    random_update,
    verify_dynamic_invariants,
)
from test_static_engine import (
    JOIN,
    JOIN_DB,
    ONE_TUPLE,
    TWO_FACTORS,
    VOCABULARY_MISMATCHES,
    in_tenths,
    unary_nodes,
    SEMIRINGS,
    TEMPLATE_NAMES,
    assert_fixed_names,
    make_db,
    reference_walk,
)

NAT = builtin_semiring("natural")
BOOL = builtin_semiring("boolean")
REAL = builtin_semiring("real")


def test_dyn_preprocess_filtered_projection():
    q = parse_query("H(x) :- A(x,y), U(x).")
    db = make_db(NAT, {"A": (2, {(1, 2): 2, (1, 3): 1}), "U": (1, {(1,): 4})})
    state = dyn_preprocess(q, db)
    # the projection node above A counts its 2 members and stores their sum
    # 2+1 as its relation, under the key x = 1, the bare value
    (nid, counts), = state.accs.items()
    assert counts == {1: 2}
    assert state.relations[nid] == {1: 3}
    assert dict(dyn_enumerate(state)) == {(1,): 12}
    assert verify_dynamic_invariants(state) == []


def test_dyn_preprocess_empty_db():
    q = parse_query("H(x) :- A(x,y), U(x).")
    db = make_db(NAT, {"A": (2, {}), "U": (1, {})})
    state = dyn_preprocess(q, db)
    assert all(not table for table in state.accs.values())
    assert list(dyn_enumerate(state)) == []


@pytest.mark.parametrize("text", VOCABULARY_MISMATCHES)
def test_dyn_preprocess_rejects_vocabulary_mismatch(text):
    db = make_db(NAT, {"R": (2, {(1, 1): 1, (3, 2): 2, (2, 3): 3})})
    with pytest.raises(VocabularyError):
        dyn_preprocess(parse_query(text), db)


def test_dyn_preprocess_boolean_variant():
    q = parse_query("H(x) :- A(x,y), U(x).")
    db = make_db(BOOL, {"A": (2, {(1, 2): True, (1, 3): True}), "U": (1, {(1,): True})})
    state = dyn_preprocess(q, db)
    assert dict(dyn_enumerate(state)) == {(1,): True}


def test_dyn_preprocess_rejects_non_qh():
    q = parse_query("H(x) :- A(x,y), U(y).")
    db = make_db(NAT, {"A": (2, {}), "U": (1, {})})
    with pytest.raises(ClassificationError):
        dyn_preprocess(q, db)


def test_dyn_preprocess_rejects_tropical():
    q = parse_query("H(x) :- A(x,y), U(x).")
    db = make_db(builtin_semiring("tropical-min"), {"A": (2, {}), "U": (1, {})})
    with pytest.raises(CapabilityError):
        dyn_preprocess(q, db)


@pytest.mark.parametrize("text", ["H(w) :- w <= c.", "H() :- u <= c."])
def test_dyn_answers_inequality_only_queries(text):
    q = parse_query(text)
    db = make_db(NAT, {"R": (1, {(1,): 2})}, {"c": 3})
    state = dyn_preprocess(q, db)
    assert not state.plan.nodes
    want = list(enumerate_state(preprocess(q, db)))
    assert list(dyn_enumerate(state)) == want
    dyn_update(state, SingleTupleUpdate("insert", "R", (2,), 5))
    assert list(dyn_enumerate(state)) == want == list(enumerate_state(preprocess(q, db)))


def test_dyn_update_insert_example():
    q = parse_query("H(x) :- A(x,y), U(x).")
    db = make_db(NAT, {"A": (2, {(1, 2): 2, (1, 3): 1}), "U": (1, {(1,): 4})})
    state = dyn_preprocess(q, db)
    dyn_update(state, SingleTupleUpdate("insert", "A", (1, 5), 1))
    (nid, counts), = state.accs.items()
    assert counts == {1: 3}
    assert state.relations[nid] == {1: 4}
    assert dict(dyn_enumerate(state)) == {(1,): 16}
    assert verify_dynamic_invariants(state) == []


def test_dyn_update_delete_empties_root():
    q = parse_query("H(x) :- A(x,y), U(x).")
    db = make_db(NAT, {"A": (2, {(1, 2): 2, (1, 3): 1}), "U": (1, {(1,): 4})})
    state = dyn_preprocess(q, db)
    dyn_update(state, SingleTupleUpdate("delete", "U", (1,)))
    assert dict(dyn_enumerate(state)) == {}
    assert verify_dynamic_invariants(state) == []


def test_dyn_update_unrelated_relation_only_touches_db():
    q = parse_query("H(x) :- A(x,y), U(x).")
    db = make_db(
        NAT, {"A": (2, {(1, 2): 2}), "U": (1, {(1,): 4}), "Z": (1, {})}
    )
    state = dyn_preprocess(q, db)
    before = dict(dyn_enumerate(state))
    dyn_update(state, SingleTupleUpdate("insert", "Z", (7,), 3))
    assert db.relations["Z"].entries == {(7,): 3}
    assert dict(dyn_enumerate(state)) == before


def test_dyn_boolean_delete_clears_regardless_of_multiplicity():
    q = parse_query("H(x) :- A(x).")
    db = make_db(BOOL, {"A": (1, {})})
    state = dyn_preprocess(q, db)
    for _ in range(3):
        dyn_update(state, SingleTupleUpdate("insert", "A", (1,), True))
    dyn_update(state, SingleTupleUpdate("delete", "A", (1,)))
    assert dict(dyn_enumerate(state)) == {}


def test_dyn_inverse_update_sequence_restores_output():
    q = parse_query("H(x) :- A(x,y), U(x).")
    db = make_db(NAT, {"A": (2, {(1, 2): 2}), "U": (1, {(1,): 4})})
    state = dyn_preprocess(q, db)
    before = dict(dyn_enumerate(state))
    inserted = [((2, 7), 5), ((1, 9), 1), ((3, 3), 2)]
    for t, k in inserted:
        dyn_update(state, SingleTupleUpdate("insert", "A", t, k))
    for t, _ in inserted:
        dyn_update(state, SingleTupleUpdate("delete", "A", t))
    assert dict(dyn_enumerate(state)) == before


def test_dyn_cursor_invalidation():
    q = parse_query("H(x) :- A(x).")
    db = make_db(NAT, {"A": (1, {(1,): 1, (2,): 1, (3,): 1})})
    state = dyn_preprocess(q, db)
    cursors = [dyn_enumerate(state), dyn_enumerate(state, limit=2)]
    for cursor in cursors:
        next(cursor)
    dyn_update(state, SingleTupleUpdate("insert", "A", (9,), 1))
    for cursor in cursors:
        with pytest.raises(StaleStateError):
            list(cursor)


@pytest.mark.parametrize(
    "update",
    [
        SingleTupleUpdate("insert", "A", (2,), 1),  # into a stored tuple
        SingleTupleUpdate("delete", "A", (9,)),  # of an absent tuple
    ],
)
def test_dyn_scan_cursor_invalidation_without_a_size_change(update):
    db = make_db(NAT, {"A": (1, {(1,): 1, (2,): 1, (3,): 1})})
    state = dyn_preprocess(parse_query("H(x) :- A(x)."), db)
    cursor = dyn_enumerate(state)
    next(cursor)
    dyn_update(state, update)
    with pytest.raises(StaleStateError):
        list(cursor)


# the 3-level q-hierarchical query: its guarded plan walks two levels, x and
# then the (x, y) group under it
QH = "H(x,y) :- R(x,y,z), S(x,y), U(x)."
QH_DB = {
    "R": (3, {(2, 1, 1): 1, (1, 2, 3): 2, (1, 1, 1): 1, (2, 3, 1): 1, (1, 2, 4): 1, (3, 1, 1): 5}),
    "S": (2, {(1, 2): 3, (2, 3): 1, (1, 1): 2, (2, 1): 1, (3, 3): 2}),
    "U": (1, {(2,): 2, (1,): 1, (3,): 1}),
}


def test_dyn_walk_output_order_is_pinned():
    # pinned output order, also after updates have reordered the groups
    state = dyn_preprocess(parse_query(QH), make_db(NAT, QH_DB))
    assert len(state.plan.levels) == 2
    assert list(dyn_enumerate(state)) == [((2, 3), 2), ((2, 1), 2), ((1, 2), 9), ((1, 1), 2)]
    for u in [
        SingleTupleUpdate("delete", "S", (2, 3)),
        SingleTupleUpdate("insert", "S", (3, 1), 4),
        SingleTupleUpdate("insert", "R", (1, 3, 2), 2),
        SingleTupleUpdate("insert", "S", (1, 3), 1),
        SingleTupleUpdate("delete", "U", (2,)),
    ]:
        dyn_update(state, u)
    assert list(dyn_enumerate(state)) == [((1, 2), 9), ((1, 1), 2), ((1, 3), 2), ((3, 1), 20)]


@pytest.mark.parametrize(
    "text, relations, update",
    [
        (QH, QH_DB, SingleTupleUpdate("insert", "U", (7,), 1)),  # the walk
        ("H(x,w) :- U(x), w <= c.", QH_DB, SingleTupleUpdate("insert", "U", (7,), 1)),  # a range
        # an update that leaves the answer as it is still invalidates
        (QH, QH_DB, SingleTupleUpdate("insert", "R", (9, 9, 9), 1)),
    ],
)
def test_dyn_cursor_invalidation_inside_levels(text, relations, update):
    db = make_db(NAT, relations, {"c": 3})
    state = dyn_preprocess(parse_query(text), db)
    cursor = dyn_enumerate(state)
    next(cursor)
    next(cursor)  # inside the last level
    dyn_update(state, update)
    with pytest.raises(StaleStateError):
        list(cursor)


def test_dyn_walk_matches_static_and_oracle_over_a_stream():
    q = parse_query(QH)
    rng = random.Random(2024)
    db = make_db(NAT, QH_DB)
    state = dyn_preprocess(q, db)
    for step in range(200):
        dyn_update(state, random_update(rng, q, db, NAT, domain=3))
        got = list(dyn_enumerate(state))
        assert len(got) == len(dict(got)), step
        assert dict(got) == oracle_eval_cq(q, db).entries, step
        assert dict(got) == dict(enumerate_state(preprocess(q, db.copy()))), step
    assert verify_dynamic_invariants(state) == []


@pytest.mark.parametrize("tenths", [False, True])
def test_dyn_walk_equals_the_reference_walk_after_each_update(tenths):
    # the guarded plan of TWO_FACTORS multiplies two frontier annotations on
    # one level; over tenths the association of a product shows in its last bit
    rng = random.Random(930 + tenths)
    queries = [parse_query(TWO_FACTORS)]
    queries += [random_q_hierarchical_cq(rng, max_atoms=3, max_vars=4) for _ in range(19)]
    for q in queries:
        db = random_db_for_query(rng, q, REAL, max_tuples=30, domain=3)
        if tenths:
            in_tenths(db)
        state = dyn_preprocess(q, db)
        for step in range(30):
            u = random_update(rng, q, db, REAL, domain=3)
            if tenths and u.value is not None:
                u = SingleTupleUpdate(u.kind, u.relation, u.tuple, u.value / 10)
            dyn_update(state, u)
            assert repr(list(dyn_enumerate(state))) == repr(reference_walk(state)), (q.to_text(), step)


@pytest.mark.parametrize("sname", ["natural", "boolean", "real"])
def test_dyn_random_streams_match_recompute_and_oracle(sname):
    semiring = builtin_semiring(sname)
    rng = random.Random(910 + len(sname))
    for _ in range(25):
        q = random_q_hierarchical_cq(rng, max_atoms=3, max_vars=4)
        db = random_db_for_query(rng, q, semiring, max_tuples=12)
        state = dyn_preprocess(q, db)
        for step in range(60):
            dyn_update(state, random_update(rng, q, db, semiring))
            got = dict(dyn_enumerate(state))
            want = oracle_eval_cq(q, db).entries
            assert equal_answers(got, want, semiring), (q.to_text(), step)
            static = dict(enumerate_state(preprocess(q, db.copy())))
            assert equal_answers(got, static, semiring), (q.to_text(), step)
            if step % 20 == 0:
                assert verify_dynamic_invariants(state) == [], q.to_text()


@pytest.mark.parametrize("text", ["H(x) :- R(x), T().", "H() :- T().", "H(x,y) :- S(x,y), T(), R(x)."])
@pytest.mark.parametrize("sname", ["natural", "boolean", "real"])
def test_nullary_atoms_match_oracle_under_updates(text, sname):
    # nullary leaves sit in the plans unwrapped; updates to T() switch the
    # whole answer on and off
    semiring = builtin_semiring(sname)
    rng = random.Random(17 + len(text) + len(sname))
    q = parse_query(text)
    db = random_db_for_query(rng, q, semiring, max_tuples=12)
    state = dyn_preprocess(q, db)
    for step in range(60):
        u = random_update(rng, q, db, semiring)
        if rng.random() < 0.5:
            u = SingleTupleUpdate(u.kind, "T", (), u.value)
        dyn_update(state, u)
        want = oracle_eval_cq(q, db).entries
        assert equal_answers(dict(dyn_enumerate(state)), want, semiring), (text, step)
        static = dict(enumerate_state(preprocess(q, db.copy())))
        assert equal_answers(static, want, semiring), (text, step)
        assert verify_dynamic_invariants(state) == [], (text, step)


def test_dyn_update_respects_covered_inequalities():
    q = parse_query("H(x) :- A(x,y), U(x), y <= c.")
    db = make_db(NAT, {"A": (2, {(1, 2): 2}), "U": (1, {(1,): 1})})
    db.constants["c"] = 3
    state = dyn_preprocess(q, db)
    assert dict(dyn_enumerate(state)) == {(1,): 2}
    # beyond the bound: stored in the database, filtered from the leaf
    dyn_update(state, SingleTupleUpdate("insert", "A", (1, 9), 5))
    assert db.relations["A"].entries[(1, 9)] == 5
    assert dict(dyn_enumerate(state)) == {(1,): 2}
    # within the bound: aggregates
    dyn_update(state, SingleTupleUpdate("insert", "A", (1, 3), 4))
    assert dict(dyn_enumerate(state)) == {(1,): 6}
    assert dict(dyn_enumerate(state)) == oracle_eval_cq(q, db).entries


def assert_enumeration_layout(state):
    """Relations exist exactly at the plan's stored nodes, and candidate sets
    exactly at the connex 2-child nodes that are the root or under a 2-child
    node, none of them a relation or a group: a frontier node's candidates
    are read off its relation, a connex projection's off its child's
    group."""
    plan = state.plan
    assert set(state.relations) == plan.stored
    assert set(state.candidates) == {
        n
        for n in plan.connex - plan.frontier
        if len(plan.nodes[n].children) == 2
        and (n == plan.root or len(plan.nodes[plan.nodes[n].parent].children) == 2)
    }
    stored = [*state.relations.values(), *state.groups.values()]
    assert not any(c is d for c in state.candidates.values() for d in stored)


# the queries of the join_drain and update_stream benchmark workloads
@pytest.mark.parametrize("text, relations", [(JOIN, JOIN_DB), (QH, QH_DB)])
def test_state_lives_below_the_connex_region_and_on_its_frontier(text, relations):
    q = parse_query(text)
    assert_enumeration_layout(preprocess(q, make_db(NAT, relations)))
    db = make_db(NAT, relations)
    state = dyn_preprocess(q, db)
    plan = state.plan
    # a guarded plan stores every node below the connex region and on its
    # frontier
    assert plan.stored == (set(plan.nodes) - plan.connex) | plan.frontier
    inner = plan.connex - plan.frontier
    assert inner  # connex nodes that must have no relation
    rng = random.Random(31)
    for step in range(40):
        assert_enumeration_layout(state)
        assert not set(state.accs) & inner, step
        dyn_update(state, random_update(rng, q, db, NAT, domain=3))
    assert verify_dynamic_invariants(state) == []


def test_no_connex_structure_is_write_only():
    # every candidate set that an update step writes is read: by the walk, or
    # by a membership test or lookup of some update step; the update stream's
    # query comes first, whose (x, y) join under the projection onto x is
    # read only by that projection's group loop
    rng = random.Random(634)
    queries = [parse_query(QH)] + [random_q_hierarchical_cq(rng) for _ in range(600)]
    for i, q in enumerate(queries):
        guarded = build_guarded_plan(q)
        for s in (NAT, BOOL, REAL):
            walk = plan_sources(guarded, s)[0]
            updates = "".join(update_sources(guarded, s).values())
            written = {*re.findall(r"^ *(c[0-9]+)\[.*\] = ", updates, re.M), *re.findall(r"\bdel (c[0-9]+)\[", updates)}
            read = {*re.findall(r"\b(c[0-9]+)\b", walk), *re.findall(r"\bin (c[0-9]+)\b", updates)}
            read |= set(re.findall(r"\b(c[0-9]+)\.get\(", updates))
            assert written <= read, (q.to_text(), s.name, written - read)
        # no candidate set is a relation or a group, and none is kept under a
        # projection
        db = random_db_for_query(rng, q, (NAT, BOOL, REAL)[i % 3], max_tuples=12, domain=3)
        for plan in (build_fc_plan(q), guarded):
            state = preprocess_with_plan(q, db, plan)
            stored = [*state.relations.values(), *state.groups.values()]
            assert not any(c is d for c in state.candidates.values() for d in stored), q.to_text()
            parents = [plan.nodes[n].parent for n in state.candidates if n != plan.root]
            assert all(len(plan.nodes[p].children) == 2 for p in parents), q.to_text()


def state_snapshot(state):
    """Copies of everything an update may change."""
    return (
        {name: dict(rel.entries) for name, rel in state.db.relations.items()},
        state.version,
        {nid: dict(rel) for nid, rel in state.relations.items()},
        {nid: dict(c) for nid, c in state.candidates.items()},
        {nid: {k: dict(b) for k, b in grp.items()} for nid, grp in state.groups.items()},
        {nid: dict(counts) for nid, counts in state.accs.items()},
    )


@pytest.mark.parametrize(
    "update, error",
    [
        (SingleTupleUpdate("insert", "S", (1, 2, 3), 1), SchemaError),  # arity
        (SingleTupleUpdate("delete", "R", (1, 2)), SchemaError),  # arity
        (SingleTupleUpdate("insert", "R", (1, 0, 2), 1), SchemaError),  # value < 1
        (SingleTupleUpdate("delete", "U", (0,)), SchemaError),  # value < 1
        (SingleTupleUpdate("insert", "T", (1,), 1), VocabularyError),
        # values outside the semiring; float values run over the reals
        (SingleTupleUpdate("insert", "U", (1,), -1), SchemaError),
        (SingleTupleUpdate("insert", "S", (1, 2), True), SchemaError),
        (SingleTupleUpdate("insert", "U", (1,), math.inf), SchemaError),
        (SingleTupleUpdate("insert", "S", (1, 4), -math.inf), SchemaError),
        (SingleTupleUpdate("insert", "R", (1, 2, 3), math.nan), SchemaError),
        # a tuple of updates: all but the last are accepted; here the second
        # insert's sum overflows, although each value is a real annotation
        (
            (
                SingleTupleUpdate("insert", "R", (3, 1, 1), 1e308),
                SingleTupleUpdate("insert", "R", (3, 1, 1), 1e308),
            ),
            SchemaError,
        ),
    ],
)
def test_rejected_updates_leave_the_state_untouched(update, error):
    *accepted, update = update if isinstance(update, tuple) else (update,)
    if isinstance(update.value, float):
        relations = {n: (a, {t: float(k) for t, k in e.items()}) for n, (a, e) in QH_DB.items()}
        db = make_db(REAL, relations)
    else:
        db = make_db(NAT, QH_DB)
    state = dyn_preprocess(parse_query(QH), db)
    for u in accepted:
        dyn_update(state, u)
    before = state_snapshot(state)
    with pytest.raises(error):
        dyn_update(state, update)
    assert state_snapshot(state) == before


@pytest.mark.parametrize("semiring, value", [(REAL, math.inf), (NAT, -1)])
def test_an_insert_outside_the_semiring_is_rejected(semiring, value):
    # an accepted inf would leave nan in the real sums once deleted again, and
    # an accepted -1 would break the invariants of the natural ones
    q = parse_query("H(x) :- R(x,y).")
    state = dyn_preprocess(q, make_db(semiring, {"R": (2, {(1, 1): semiring.one})}))
    with pytest.raises(SchemaError, match="annotation"):
        dyn_update(state, SingleTupleUpdate("insert", "R", (1, 2), value))
    dyn_update(state, SingleTupleUpdate("delete", "R", (1, 2)))
    assert list(dyn_enumerate(state)) == [((1,), semiring.one)]
    assert verify_dynamic_invariants(state) == []


def test_group_sums_follow_the_update_order_over_tenths():
    # tenths are not dyadic, so a sum kept in another order, such as adding
    # the new member before subtracting the old one, differs in its last bits
    q = parse_query("H(x) :- R(x,y).")
    db = make_db(REAL, {"R": (2, {})})
    state = dyn_preprocess(q, db)
    rng = random.Random(41)
    tenths = [k / 10 for k in range(-9, 10) if k]
    model = {}  # the database's R
    groups = {}  # x -> [member count, sum]
    for step in range(3000):
        t = (rng.randrange(1, 4), rng.randrange(1, 6))
        old = model.get(t)
        if old is not None and rng.random() < 0.4:
            u = SingleTupleUpdate("delete", "R", t)
            new = None
        else:
            u = SingleTupleUpdate("insert", "R", t, rng.choice(tenths))
            new = u.value if old is None else old + u.value
            new = None if new == 0.0 else new
        dyn_update(state, u)
        if new is None:
            model.pop(t, None)
        else:
            model[t] = new
        group = groups.setdefault(t[0], [0, 0.0])
        if old is not None:
            group[0] -= 1
            group[1] = group[1] - old if group[0] else 0.0
        if new is not None:
            group[0] += 1
            group[1] = group[1] + new
        want = {(x,): k for x, (n, k) in groups.items() if n and k != 0.0}
        assert dict(dyn_enumerate(state)) == want, step


@pytest.mark.parametrize(
    "text",
    [
        QH,  # the update_stream query
        "H(x) :- R(x,y), R(x,x), U(x).",  # a self-join
    ],
)
def test_one_pass_dynamic_state_equals_the_static_preprocess(text):
    # non-dyadic reals, so that a sum in another order could differ in its
    # last bit
    q = parse_query(text)
    rng = random.Random(23)
    relations = {}
    for atom in q.relational_atoms:
        arity = len(atom.args)
        entries = {}
        for _ in range(40):
            t = tuple(rng.randrange(1, 4) for _ in range(arity))
            entries[t] = rng.choice([-7, -3, 1, 2, 3, 9, 11]) / 10
        relations[atom.symbol] = (arity, entries)
    db = make_db(REAL, relations)
    state = dyn_preprocess(q, db)
    assert verify_dynamic_invariants(state) == []
    plan = state.plan
    static = preprocess_with_plan(q, db, plan)
    assert state.accs
    assert {n: list(r.items()) for n, r in state.relations.items()} == {
        n: list(r.items()) for n, r in static.relations.items()
    }
    for nid, counts in state.accs.items():
        c = plan.nodes[nid].children[0]
        groups = {}
        for t, k in state.relations[c].items():
            groups.setdefault(node_key(t, plan.positions[c], len(plan.order[c])), []).append(k)
        # one count per group, of its child tuples; the group's sum in child
        # order is the parent's value, or a zero that the parent drops
        assert counts == {key: len(ks) for key, ks in groups.items()}
        sums = {key: functools.reduce(REAL.add, ks) for key, ks in groups.items()}
        assert state.relations[nid] == {key: v for key, v in sums.items() if v != 0.0}


@pytest.mark.parametrize("sname", [name for name in BUILTIN_SEMIRING_NAMES if builtin_semiring(name).sum_maintainable])
def test_the_loop_that_sums_a_projections_groups_counts_their_members(sname):
    # one loop of the guarded build reads each counted projection's child
    # relation, and a group's count is kept under the key object of its sum
    semiring = builtin_semiring(sname)
    rng = random.Random(3303 + len(sname))
    keys = 0
    for _ in range(80):
        q = random_q_hierarchical_cq(rng, max_atoms=4, max_vars=4)
        db = random_db_for_query(rng, q, semiring, max_tuples=30, domain=3)
        state = dyn_preprocess(q, db)
        build = plan_sources(state.plan, semiring)[1]
        for p, counts in state.accs.items():
            (c,) = state.plan.nodes[p].children
            assert len(re.findall(rf"^ *for .* in r{c}\b", build, re.M)) == 1, build
            same = {g: g for g in counts}
            assert all(same[g] is g for g in state.relations[p]), q.to_text()
            keys += len(state.relations[p])
    assert keys


def leaves_by_symbol(plan):
    """The plan leaves of each relation symbol, in postorder."""
    out = {}
    for n in plan.postorder():
        if plan.nodes[n].is_leaf:
            out.setdefault(plan.atoms[plan.nodes[n].atom_index].symbol, []).append(n)
    return out


def closure(f):
    """What the function ``f`` closes over, by name."""
    return {name: cell.cell_contents for name, cell in zip(f.__code__.co_freevars, f.__closure__ or ())}


def leaf_paths(update):
    """The leaf paths that a symbol's compiled update step calls, by leaf."""
    return {int(name[4:]): f for name, f in closure(update).items() if name.startswith("path")}


def assert_paths_hold_the_states_own_dicts(state):
    """One compiled update step per relation symbol of the plan, over the
    symbol's database entries, calling one path per plan leaf of that
    symbol; every dict a path closes over is one of the state's own.  The
    first leaf of a symbol in postorder, when its tuples are their own keys,
    has the database's entries as its relation; any other leaf's path holds
    its relation."""
    plan = state.plan
    own = {
        id(d)
        for store in (state.relations, state.candidates, state.groups, state.accs)
        for d in store.values()
    }
    assert set(state.paths) == {atom.symbol for atom in plan.atoms}
    for symbol, leaves in leaves_by_symbol(plan).items():
        entries = state.db.relations[symbol].entries
        assert closure(state.paths[symbol])["entries"] is entries
        paths = leaf_paths(state.paths[symbol])
        assert sorted(paths) == sorted(leaves)
        for leaf, path in paths.items():
            held = [v for v in closure(path).values() if isinstance(v, dict)]
            assert {id(d) for d in held} <= own
            if leaf == leaves[0] and leaf_key(plan, leaf) == (None, "t"):
                assert state.relations[leaf] is entries
            else:
                assert any(d is state.relations[leaf] for d in held)


@pytest.mark.parametrize(
    "text, relations",
    [
        (JOIN, JOIN_DB),
        (QH, QH_DB),
        # a self-join: two leaves, so two paths, under R
        ("H(x) :- R(x,y), R(x,x), U(x).", {"R": QH_DB["S"], "U": QH_DB["U"]}),
    ],
)
def test_compiled_update_paths_hold_the_states_own_dicts(text, relations):
    q = parse_query(text)
    db = make_db(NAT, relations)
    state = dyn_preprocess(q, db)
    assert len(leaf_paths(state.paths["R"])) == sum(a.symbol == "R" for a in q.relational_atoms)
    assert_paths_hold_the_states_own_dicts(state)
    rng = random.Random(8)
    for _ in range(40):
        dyn_update(state, random_update(rng, q, db, NAT, domain=3))
    assert_paths_hold_the_states_own_dicts(state)
    assert verify_dynamic_invariants(state) == []


# one symbol with two leaves, neither keyed by identity: one by a repeated
# variable, one by a covered inequality
TWO_KEYED_LEAVES = "H(x,y) :- R(x,y), R(x,x), y <= c."
# an upward 2-child step below the connex root
JOIN_BELOW_ROOT = "H(x) :- R(x,y), S(x,y)."


@pytest.mark.parametrize("text", [TWO_KEYED_LEAVES, JOIN_BELOW_ROOT])
@pytest.mark.parametrize("sname", ["boolean", "natural", "real"])
def test_generated_paths_over_a_seeded_stream(text, sname):
    # paths that the update_stream benchmark never drives
    semiring = builtin_semiring(sname)
    q = parse_query(text)
    rng = random.Random(1900 + len(text) + len(sname))
    db = random_db_for_query(rng, q, semiring, max_tuples=12, domain=3)
    db.constants["c"] = 2
    state = dyn_preprocess(q, db)
    plan = state.plan
    if text == TWO_KEYED_LEAVES:
        leaves = leaves_by_symbol(plan)["R"]
        assert len(leaves) == 2 and all(leaf_key(plan, n) != (None, "t") for n in leaves)
    else:
        assert any(len(plan.nodes[n].children) == 2 for n in set(plan.nodes) - plan.connex)

    def answers(pairs):
        return {t: repr(k) for t, k in pairs}

    for step in range(200):
        dyn_update(state, random_update(rng, q, db, semiring, domain=3))
        assert verify_dynamic_invariants(state) == [], step
        got = answers(dyn_enumerate(state))
        # quarters keep every real sum and product exact in any order
        assert got == answers(enumerate_state(preprocess(q, db.copy()))), step
        assert got == answers(oracle_eval_cq(q, db).entries.items()), step


# three leaves of R: R(y,x), keyed by a reorder, then the two R(x,y), whose
# tuples are their own keys
SELF_JOIN_3 = "H(x,y) :- R(y,x), U(x), R(x,y), R(x,y)."


def test_a_later_identity_leaf_writes_a_relation_of_its_own():
    plan = build_guarded_plan(parse_query(SELF_JOIN_3))
    assert leaves_by_symbol(plan)["R"] == [0, 3, 2] and plan.nodes[5].children == [4, 2]
    source = update_sources(plan, NAT)["R"]
    # leaf 3 writes its own relation r3, enters c4 with leaf 0, which its
    # path updated before, and looks the tuple up in r2, leaf 2's own dict,
    # which its path updates after; node 5, under the projection node 6,
    # keeps no candidate set; node 6's key is x, the bare value
    path3 = source[source.index("    def path3("):source.index("    def path2(")]
    assert path3 == """    def path3(t, old, new):
        if new is None:
            del r3[t]
        else:
            r3[t] = new
        if old is None:
            if t not in r0:
                return
            c4[t] = True
            if t not in r2:
                return
            k6 = t[0]
            b = g5.get(k6)
            if b is not None:
                b[t] = True
                return
            g5[k6] = {t: True}
            if k6 not in r1:
                return
            c7[k6] = True
        elif new is None:
            if t not in r0:
                return
            del c4[t]
            if t not in r2:
                return
            k6 = t[0]
            b = g5[k6]
            del b[t]
            if b:
                return
            del g5[k6]
            if k6 not in r1:
                return
            del c7[k6]

"""
    # the update step runs the leaves' paths in postorder
    assert "path0(t, old, None)\n            path3(t, old, None)\n            path2(t, old, None)\n" in source


def test_a_leaf_is_tested_only_when_a_tuple_can_fail_its_atom():
    # R(y,x) only reorders its tuple; R(x,x) repeats x and S(x,y,z) covers z <= c
    q = parse_query("H(x,y) :- R(y,x), R(x,x), S(x,y,z), z <= c.")
    plan = build_guarded_plan(q)
    keys = {n: leaf_key(plan, n) for ns in leaves_by_symbol(plan).values() for n in ns}
    assert set(keys.values()) == {(None, "(t[1], t[0])"), ("t[1] != t[0]", "t[0]"), ("t[2] > bounds[0]", "t")}
    build = plan_sources(plan, NAT)[1]
    updates = "".join(update_sources(plan, NAT).values())
    for n, (miss, key) in keys.items():
        # the scan and the path each test a tuple, then re-key it
        lines = ([f"if {miss}:", "    continue"] if miss else []) + ([f"t = {key}"] if key != "t" else [])
        assert f"in entries[{n}].items():\n" + "".join(f"        {line}\n" for line in lines) in build
        lines = ([f"if {miss}:", "    return"] if miss else []) + ([f"k{n} = {key}"] if key != "t" else [])
        assert f"def path{n}(t, old, new):\n" + "".join(f"        {line}\n" for line in lines) in updates
    rng = random.Random(2411)
    db = random_db_for_query(rng, q, NAT, max_tuples=12, domain=3)
    state = dyn_preprocess(q, db)
    for step in range(100):
        dyn_update(state, random_update(rng, q, db, NAT, domain=3))
        assert dict(dyn_enumerate(state)) == oracle_eval_cq(q, db).entries, step
    assert verify_dynamic_invariants(state) == []


# every name that ``update_source`` writes, besides Python keywords, the
# numbered names of its leaf paths, keys, values and hoisted dicts, and
# TEMPLATE_NAMES; the builtins' ``admits`` templates write the last line
UPDATE_NAMES = {
    "make", "state", "bounds", "s", "semiring", "add", "sub", "mul", "is_zero", "zero",
    "relations", "accs", "candidates", "groups", "update", "t", "old", "new", "n", "x", "b", "get", "True",
    "entries", "reject", "u", "tuple", "len", "kind", "INSERT", "value", "a", "admits",
    "type", "int", "float", "bool", "isfinite",
}


def test_no_query_text_reaches_the_update_paths():
    # relation, variable and constant names that the generated source uses
    # itself; a repeated variable and covered inequalities key three leaves
    text = "H(r, new) :- state(r, new), key(r), state(r, r), import(r, new, z), bounds(r, bounds), z <= k, bounds <= bounds."
    # the same query under names in the same sorted order, so the same plan
    plain = "H(c, b) :- A(c, b), B(c), A(c, c), C(c, b, d), D(c, a), d <= e, a <= f."
    q, p = parse_query(text), parse_query(plain)
    plan, plain_plan = build_guarded_plan(q), build_guarded_plan(p)
    leaves = [n for ns in leaves_by_symbol(plan).values() for n in ns]
    assert leaves == [n for ns in leaves_by_symbol(plain_plan).values() for n in ns]
    rng = random.Random(625)
    db = random_db_for_query(rng, q, NAT, max_tuples=60, domain=3)
    db.constants.update(k=2, bounds=2)
    state = dyn_preprocess(q, db)
    for _ in range(60):
        dyn_update(state, random_update(rng, q, db, NAT, domain=3))
    assert dict(dyn_enumerate(state)) == oracle_eval_cq(q, db).entries
    assert verify_dynamic_invariants(state) == []
    # state(r, new) and bounds(r, bounds) are out of sorted order, state(r, r)
    # repeats r, import(r, new, z) and bounds(r, bounds) cover an inequality,
    # and key(r)'s key is its one value
    assert sum(leaf_key(plan, n) != (None, "t") for n in leaves) == 5
    for s in SEMIRINGS:
        sources = list(update_sources(plan, s).values())
        assert sources == list(update_sources(plain_plan, s).values())
        for source in sources:
            assert_fixed_names(source, UPDATE_NAMES | TEMPLATE_NAMES, r"(path|[acgknorv])[0-9]+")


@pytest.mark.parametrize("sname", [n for n in BUILTIN_SEMIRING_NAMES if builtin_semiring(n).sum_maintainable])
def test_no_update_step_writes_a_key_of_one_variable_as_a_tuple(sname):
    # the guarded walk and build, and every update step, over self-joins too
    s = builtin_semiring(sname)
    rng = corpus_rng(3500 + BUILTIN_SEMIRING_NAMES.index(sname))
    unary = 0
    for _ in range(1000):
        q = random_q_hierarchical_cq(rng, self_join_prob=0.4)
        plan = build_guarded_plan(q)
        unary += unary_nodes(plan)
        for source in [*plan_sources(plan, s), *update_sources(plan, s).values()]:
            assert not ONE_TUPLE.search(source), (q.to_text(), source)
    assert unary > 1000  # the corpus keys many nodes by one variable


# the integers shifted by -1, a ring whose zero is -1 and whose one is 0, so
# that a nonzero value can be falsy; it has no templates
SHIFTED = SemiringDescriptor(
    name="shifted",
    zero=-1,
    one=0,
    add=lambda a, b: a + b + 1,
    mul=lambda a, b: a * b + a + b,
    is_zero=lambda a: a == -1,
    zero_divisor_free=True,
    zero_sum_free=False,
    parse=int,
    format=str,
    sub=lambda a, b: a - b - 1,
)


@pytest.mark.parametrize("text", ["H(x) :- R(x,y).", "H(x) :- R(x,y), S(x,y), U(x)."])
def test_a_falsy_nonzero_sum_is_not_absent(text):
    q = parse_query(text)
    db = make_db(SHIFTED, {"R": (2, {(1, 1): 0, (1, 2): 0}), "S": (2, {(1, 1): 0, (1, 3): 0}), "U": (1, {(1,): 0})})
    for symbol in set(db.relations) - {a.symbol for a in q.relational_atoms}:
        del db.relations[symbol]
    # the group R(1, .) keeps one member of value 0, then gains another
    updates = [SingleTupleUpdate("delete", "R", (1, 2)), SingleTupleUpdate("insert", "R", (1, 3), 0)]
    rng = random.Random(2201)
    for _ in range(60):
        symbol = rng.choice(sorted(db.relations))
        t = tuple(rng.randrange(1, 4) for _ in range(db.relations[symbol].arity))
        if rng.random() < 0.4:
            updates.append(SingleTupleUpdate("delete", symbol, t))
        else:
            updates.append(SingleTupleUpdate("insert", symbol, t, rng.choice([0, 0, 1, 2])))
    state = dyn_preprocess(q, db)
    answered = 0
    for step, u in enumerate(updates):
        dyn_update(state, u)
        want = oracle_eval_cq(q, db).entries
        assert dict(dyn_enumerate(state)) == want, step
        assert dict(enumerate_state(preprocess(q, db.copy()))) == want, step
        assert verify_dynamic_invariants(state) == [], step
        answered += bool(want)
    assert answered > len(updates) // 2


@st.composite
def qh_update_streams(draw):
    """A q-hierarchical query with relational atoms, a small real database
    for it and a stream of updates to its relations; a ``cancel`` inserts k
    and then -k into the same tuple."""
    rng = draw(st.randoms(use_true_random=False))
    q = random_q_hierarchical_cq(rng, max_atoms=4, max_vars=4, self_join_prob=0.4)
    db = random_db_for_query(rng, q, REAL, max_tuples=12, domain=3)
    arity = {a.symbol: len(a.args) for a in q.relational_atoms}
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete", "cancel"]),
                st.sampled_from(sorted(arity)),
                st.tuples(*[st.integers(1, 3)] * max(arity.values())),
                st.integers(-12, 12).filter(bool),
            ),
            max_size=25,
        )
    )
    updates = []
    for kind, symbol, values, k in ops:
        t = values[: arity[symbol]]
        if kind == "delete":
            updates.append(SingleTupleUpdate("delete", symbol, t))
            continue
        updates.append(SingleTupleUpdate("insert", symbol, t, k / 4))
        if kind == "cancel":
            updates.append(SingleTupleUpdate("insert", symbol, t, -k / 4))
    return q, db, updates


@given(qh_update_streams())
@example(
    (
        # a self-join with a covered inequality: R(1,3) lies beyond c, and
        # the sum over y of R(1,y) cancels to zero and comes back
        parse_query("H(x) :- R(x,y), R(x,x), y <= c."),
        make_db(REAL, {"R": (2, {(1, 1): 1.0, (1, 2): 0.5})}, {"c": 2}),
        [
            SingleTupleUpdate("insert", "R", (1, 3), 0.75),
            SingleTupleUpdate("insert", "R", (1, 2), -1.5),
            SingleTupleUpdate("insert", "R", (1, 2), 1.5),
            SingleTupleUpdate("insert", "R", (2, 2), 1.25),
            SingleTupleUpdate("insert", "R", (2, 2), -1.25),
            SingleTupleUpdate("insert", "R", (1, 1), -1.0),
            SingleTupleUpdate("insert", "R", (1, 1), 2.0),
        ],
    )
)
@settings(max_examples=300, deadline=None)
def test_dyn_update_streams_keep_every_invariant_after_every_update(case):
    q, db, updates = case
    state = dyn_preprocess(q, db)
    assert verify_dynamic_invariants(state) == []
    for step, u in enumerate(updates):
        dyn_update(state, u)
        assert verify_dynamic_invariants(state) == [], step
        got = list(dyn_enumerate(state))
        assert len(got) == len(dict(got)), step
        # dyadic annotations keep every sum and product exact in any order
        fresh = dict(enumerate_state(preprocess(q, db.copy())))
        assert dict(got) == fresh == oracle_eval_cq(q, db).entries, step


# the update_stream query over a database that also has a relation outside it
PARITY_DB = {**QH_DB, "Z": (1, {(2,): 1})}
# the shifted integers with an ``admits`` of their own, which generated code
# calls by name
SHIFTED_INTS = dataclasses.replace(SHIFTED, name="shifted-ints", admits=lambda v: type(v) is int)


@pytest.mark.parametrize(
    "semiring, updates",
    [
        (NAT, [SingleTupleUpdate("insert", "S", (1, 2, 3), 1)]),  # arity
        (NAT, [SingleTupleUpdate("delete", "R", (1, 0, 2))]),  # a data value of 0
        (NAT, [SingleTupleUpdate("insert", "U", (1,), -1)]),
        (NAT, [SingleTupleUpdate("insert", "S", (1, 2), True)]),
        (REAL, [SingleTupleUpdate("insert", "S", (1, 2), math.nan)]),
        (REAL, [SingleTupleUpdate("insert", "U", (4,), math.inf)]),
        # each value is a real annotation, but the second insert's sum is not
        (REAL, [SingleTupleUpdate("insert", "R", (3, 1, 1), 1e308)] * 2),
        (NAT, [SingleTupleUpdate("insert", "T", (1,), 1)]),  # an unknown symbol
        (NAT, [SingleTupleUpdate("insert", "Z", (2, 1), 1)]),  # outside the query
        (SHIFTED, [SingleTupleUpdate("insert", "U", (0,), 1)]),  # no templates
        (SHIFTED_INTS, [SingleTupleUpdate("insert", "S", (1, 3), 0.5)]),
    ],
)
def test_a_rejected_update_raises_what_apply_update_raises(semiring, updates):
    # the apply step hands every update it does not take to apply_update,
    # before it writes anything
    *accepted, update = updates
    relations = PARITY_DB
    if semiring is REAL:
        relations = {n: (a, {t: float(k) for t, k in e.items()}) for n, (a, e) in PARITY_DB.items()}
    db = make_db(semiring, relations)
    state = dyn_preprocess(parse_query(QH), db)
    for u in accepted:
        dyn_update(state, u)
    with pytest.raises(EngineError) as want:
        apply_update(db.copy(), update)
    before = state_snapshot(state)
    with pytest.raises(type(want.value)) as got:
        dyn_update(state, update)
    assert str(got.value) == str(want.value)
    assert state_snapshot(state) == before
    assert verify_dynamic_invariants(state) == []


@pytest.mark.parametrize(
    "text",
    [
        QH,
        # self-joins: the later leaf of R has a copy of the database's
        # entries, and the second and third queries read it as the earlier
        # leaf's 2-child sibling, the first below the connex region, the
        # others on it
        "H(x,y) :- R(x,y), S(x,y), R(x,y).",
        "H(x,y) :- R(x,y), U(x), R(x,y).",
        # a keyed first leaf of R, so no leaf of R is its entries
        "H(x,y) :- R(y,x), U(x), R(x,y).",
        # three leaves of R, whose paths run one after the other, each
        # reading the later leaves' copies as before the update
        SELF_JOIN_3,
    ],
)
@pytest.mark.parametrize("sname", ["natural", "real"])
def test_only_the_first_leaf_of_a_symbol_is_its_database_entries(text, sname):
    semiring = builtin_semiring(sname)
    q = parse_query(text)
    rng = random.Random(2401 + len(text) + len(sname))
    db = random_db_for_query(rng, q, semiring, max_tuples=12, domain=3)

    def identity_leaves(plan):
        """The stored leaves whose tuples are their own keys, with their
        symbol's database entries."""
        leaves = [n for n in plan.stored if plan.nodes[n].is_leaf and leaf_key(plan, n) == (None, "t")]
        return {n: db.relations[plan.atoms[plan.nodes[n].atom_index].symbol].entries for n in leaves}

    # a static state reads every such leaf off the database's entries
    static = preprocess(q, db)
    assert identity_leaves(static.plan)
    assert all(static.relations[n] is entries for n, entries in identity_leaves(static.plan).items())
    state = dyn_preprocess(q, db)
    leaves = identity_leaves(state.plan)
    first = {ns[0] for ns in leaves_by_symbol(state.plan).values()}
    if text != QH:
        assert len(leaves_by_symbol(state.plan)["R"]) == sum(a.symbol == "R" for a in q.relational_atoms) > 1
        assert set(leaves) - first

    def check(step):
        # a later leaf's copy equals the entries between updates
        for n, entries in leaves.items():
            assert (state.relations[n] is entries) == (n in first), step
            assert state.relations[n] == entries, step
        assert verify_dynamic_invariants(state) == [], step
        # quarters keep every real sum and product exact in any order
        assert dict(dyn_enumerate(state)) == oracle_eval_cq(q, db).entries, step

    check(None)
    for step in range(200):
        dyn_update(state, random_update(rng, q, db, semiring, domain=3))
        check(step)
    assert list(dyn_enumerate(state))
    assert dict(dyn_enumerate(state)) == dict(enumerate_state(preprocess(q, db.copy())))
