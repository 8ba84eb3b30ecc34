import random

import pytest

from deltaenum.errors import IngestionError, SchemaError, VocabularyError
from deltaenum.kdata import (
    AnnotatedRelation,
    Database,
    SingleTupleUpdate,
    apply_update,
    db_size,
    load_database,
    parse_update_script,
)
from deltaenum.semiring import builtin_semiring

NAT = builtin_semiring("natural")
REAL = builtin_semiring("real")


def make_db(relname="R", arity=2, entries=None, constants=None, semiring=NAT):
    db = Database(semiring, constants=dict(constants or {}))
    db.relations[relname] = AnnotatedRelation(arity, dict(entries or {}))
    return db


def test_db_size_binary_relation():
    db = make_db(entries={(1, 2): 1, (2, 3): 1, (3, 4): 1}, constants={"c": 2})
    # one binary relation with 3 tuples and constants {1, c}
    assert db_size(db) == 3 * 3 + 2


def test_db_size_empty():
    db = Database(NAT)
    assert db_size(db) == 1  # just the constant "1"


def test_db_size_unary():
    db = make_db(arity=1, entries={(i,): 1 for i in range(1, 5)})
    assert db_size(db) == 2 * 4 + 1


def test_apply_update_insert_adds():
    db = make_db(entries={(1, 2): 2})
    apply_update(db, SingleTupleUpdate("insert", "R", (1, 2), 5))
    assert db.relations["R"].entries[(1, 2)] == 7


def test_apply_update_delete_removes():
    db = make_db(entries={(1, 2): 2})
    apply_update(db, SingleTupleUpdate("delete", "R", (1, 2)))
    assert (1, 2) not in db.relations["R"].entries


def test_apply_update_zero_sum_erases():
    db = make_db(entries={(1, 1): 2.0}, semiring=REAL)
    apply_update(db, SingleTupleUpdate("insert", "R", (1, 1), -2.0))
    assert (1, 1) not in db.relations["R"].entries


def test_apply_update_insert_then_delete_equals_delete():
    db1 = make_db(entries={(1, 2): 2})
    apply_update(db1, SingleTupleUpdate("insert", "R", (1, 2), 5))
    apply_update(db1, SingleTupleUpdate("delete", "R", (1, 2)))
    db2 = make_db(entries={(1, 2): 2})
    apply_update(db2, SingleTupleUpdate("delete", "R", (1, 2)))
    assert db1.relations["R"].entries == db2.relations["R"].entries


def test_apply_update_errors():
    db = make_db()
    with pytest.raises(VocabularyError):
        apply_update(db, SingleTupleUpdate("delete", "S", (1, 2)))
    with pytest.raises(SchemaError):
        apply_update(db, SingleTupleUpdate("insert", "R", (1,), 1))


def test_no_zero_annotations_after_update_storm():
    rng = random.Random(99)
    db = make_db(semiring=REAL)
    for _ in range(4000):
        t = (rng.randrange(1, 4), rng.randrange(1, 4))
        if rng.random() < 0.3:
            apply_update(db, SingleTupleUpdate("delete", "R", t))
        else:
            apply_update(db, SingleTupleUpdate("insert", "R", t, REAL.sample(rng)))
        assert all(not REAL.is_zero(v) for v in db.relations["R"].entries.values())


def write_db(tmp_path, vocab, files):
    import json

    (tmp_path / "vocab.json").write_text(json.dumps(vocab))
    for name, text in files.items():
        (tmp_path / f"{name}.csv").write_text(text)
    return tmp_path / "vocab.json", tmp_path


def test_load_database_basic(tmp_path):
    vocab, data = write_db(
        tmp_path,
        {"relations": {"R": 2}, "constants": {"alpha": 3}},
        {"R": "1,2,7\n"},
    )
    db = load_database(vocab, data, NAT)
    assert db.relations["R"].entries == {(1, 2): 7}
    assert db.constants == {"alpha": 3, "1": 1}


def test_load_database_drops_zero_rows(tmp_path):
    vocab, data = write_db(tmp_path, {"relations": {"R": 2}}, {"R": "1,2,0\n2,2,5\n"})
    db = load_database(vocab, data, NAT)
    assert db.relations["R"].entries == {(2, 2): 5}


def test_load_database_rejects_nonpositive_values(tmp_path):
    vocab, data = write_db(tmp_path, {"relations": {"R": 2}}, {"R": "0,2,7\n"})
    with pytest.raises(IngestionError) as exc:
        load_database(vocab, data, NAT)
    assert "R.csv" in str(exc.value)


def test_load_database_rejects_duplicates(tmp_path):
    vocab, data = write_db(tmp_path, {"relations": {"R": 1}}, {"R": "1,1\n1,2\n"})
    with pytest.raises(IngestionError):
        load_database(vocab, data, NAT)


def test_load_database_skips_header(tmp_path):
    vocab, data = write_db(tmp_path, {"relations": {"R": 2}}, {"R": "x,y,k\n1,2,3\n"})
    db = load_database(vocab, data, NAT)
    assert db.relations["R"].entries == {(1, 2): 3}


def test_load_database_boolean_annotations(tmp_path):
    B = builtin_semiring("boolean")
    vocab, data = write_db(tmp_path, {"relations": {"R": 1}}, {"R": "1,t\n2,f\n"})
    db = load_database(vocab, data, B)
    assert db.relations["R"].entries == {(1,): True}


def test_parse_update_script(tmp_path):
    p = tmp_path / "u.ups"
    p.write_text("+ R 1 2 7\n- R 1 2\n# comment\n")
    ups = parse_update_script(p, NAT)
    assert ups == [
        SingleTupleUpdate("insert", "R", (1, 2), 7),
        SingleTupleUpdate("delete", "R", (1, 2)),
    ]


from hypothesis import given, settings
from hypothesis import strategies as st

_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete"]),
        st.tuples(st.integers(1, 3), st.integers(1, 3)),
        st.integers(-3, 3),
    ),
    max_size=60,
)


@given(_ops)
@settings(max_examples=200)
def test_apply_update_matches_model(ops):
    db = make_db(semiring=REAL)
    model = {}
    for kind, t, k in ops:
        if kind == "insert":
            apply_update(db, SingleTupleUpdate("insert", "R", t, float(k)))
            model[t] = model.get(t, 0.0) + k
            if model[t] == 0.0:
                del model[t]
        else:
            apply_update(db, SingleTupleUpdate("delete", "R", t))
            model.pop(t, None)
    assert db.relations["R"].entries == model
