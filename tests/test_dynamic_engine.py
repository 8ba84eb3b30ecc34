import random

import pytest

from deltaenum.dynamic_engine import (
    dyn_enumerate,
    dyn_preprocess,
    dyn_update,
    verify_dynamic_invariants,
)
from deltaenum.errors import CapabilityError, ClassificationError, VocabularyError
from deltaenum.kdata import SingleTupleUpdate
from deltaenum.oracle import oracle_eval_cq
from deltaenum.planner import is_q_hierarchical
from deltaenum.query import parse_query
from deltaenum.semiring import builtin_semiring
from deltaenum.static_engine import enumerate_state, preprocess

from test_query import random_cq
from test_static_engine import VOCABULARY_MISMATCHES, equal_answers, make_db, random_db

NAT = builtin_semiring("natural")
BOOL = builtin_semiring("boolean")


def test_dyn_preprocess_filtered_projection():
    q = parse_query("H(x) :- A(x,y), U(x).")
    db = make_db(NAT, {"A": (2, {(1, 2): 2, (1, 3): 1}), "U": (1, {(1,): 4})})
    state = dyn_preprocess(q, db)
    # the projection node above A stores the aggregate 2+1 in an accumulator
    totals = [
        {k: acc.total() for k, acc in table.items()} for table in state.accs.values()
    ]
    assert {(1,): 3} in totals
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


def test_dyn_update_insert_example():
    q = parse_query("H(x) :- A(x,y), U(x).")
    db = make_db(NAT, {"A": (2, {(1, 2): 2, (1, 3): 1}), "U": (1, {(1,): 4})})
    state = dyn_preprocess(q, db)
    dyn_update(state, SingleTupleUpdate("insert", "A", (1, 5), 1))
    totals = [
        {k: acc.total() for k, acc in table.items()} for table in state.accs.values()
    ]
    assert {(1,): 4} in totals
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
    cursor = dyn_enumerate(state)
    next(cursor)
    dyn_update(state, SingleTupleUpdate("insert", "A", (9,), 1))
    with pytest.raises(RuntimeError):
        list(cursor)


def random_update(rng, q, db, semiring, domain=5):
    symbols = sorted({a.symbol for a in q.relational_atoms})
    symbol = rng.choice(symbols)
    arity = db.relations[symbol].arity
    t = tuple(rng.randrange(1, domain + 1) for _ in range(arity))
    if rng.random() < 0.4:
        return SingleTupleUpdate("delete", symbol, t)
    value = semiring.sample(rng)
    while semiring.is_zero(value):
        value = semiring.sample(rng)
    return SingleTupleUpdate("insert", symbol, t, value)


@pytest.mark.parametrize("sname", ["natural", "boolean", "real"])
def test_dyn_random_streams_match_recompute_and_oracle(sname):
    semiring = builtin_semiring(sname)
    rng = random.Random(910 + len(sname))
    checked_queries = 0
    while checked_queries < 25:
        q = random_cq(rng, max_atoms=3, max_vars=4)
        if not is_q_hierarchical(q) or not q.relational_atoms:
            continue
        checked_queries += 1
        db = random_db(rng, q, semiring, max_tuples=12)
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
