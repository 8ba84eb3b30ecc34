import random

import pytest

from deltaenum.errors import IngestionError, SchemaError, VocabularyError
from deltaenum.kdata import (
    AnnotatedRelation,
    Database,
    SingleTupleUpdate,
    apply_update,
    load_database,
    parse_update_script,
)
from deltaenum.semiring import builtin_semiring

from support import sample

NAT = builtin_semiring("natural")
REAL = builtin_semiring("real")


def make_db(relname="R", arity=2, entries=None, constants=None, semiring=NAT):
    db = Database(semiring, constants=dict(constants or {}))
    db.relations[relname] = AnnotatedRelation(arity, dict(entries or {}))
    return db


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


def test_apply_update_rejects_a_sum_outside_the_semiring():
    # both annotations are finite reals, their sum is not
    db = make_db(entries={(1, 2): 1e308}, semiring=REAL)
    with pytest.raises(SchemaError, match="inf is not a real annotation"):
        apply_update(db, SingleTupleUpdate("insert", "R", (1, 2), 1e308))
    assert db.relations["R"].entries == {(1, 2): 1e308}


def test_no_zero_annotations_after_update_storm():
    rng = random.Random(99)
    db = make_db(semiring=REAL)
    for _ in range(4000):
        t = (rng.randrange(1, 4), rng.randrange(1, 4))
        if rng.random() < 0.3:
            apply_update(db, SingleTupleUpdate("delete", "R", t))
        else:
            apply_update(db, SingleTupleUpdate("insert", "R", t, sample(REAL, rng)))
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
        old = model.get(t)
        if kind == "insert":
            got = apply_update(db, SingleTupleUpdate("insert", "R", t, float(k)))
            model[t] = model.get(t, 0.0) + k
            if model[t] == 0.0:
                del model[t]
        else:
            got = apply_update(db, SingleTupleUpdate("delete", "R", t))
            model.pop(t, None)
        # the stored annotation before and after, None meaning absent
        assert got == (old, model.get(t))
    assert db.relations["R"].entries == model


# ---------------------------------------------------------------------------
# The ingest contract: what each text loader accepts, and where it points
# when it rejects a line
# ---------------------------------------------------------------------------

def write_bytes(path, text):
    # bytes, so that CRLF line endings reach the loader as written
    path.write_bytes(text.encode())
    return path


@pytest.mark.parametrize(
    "arity, text, entries",
    [
        pytest.param(2, "x,y,k\n1,2,3\n", {(1, 2): 3}, id="header"),
        pytest.param(2, "1,2,3\n\n  \n2,2,1\n", {(1, 2): 3, (2, 2): 1}, id="blank-lines"),
        pytest.param(2, "1,2,3\r\n2,2,1\r\n", {(1, 2): 3, (2, 2): 1}, id="crlf"),
        pytest.param(2, '"1",2,"3"\n', {(1, 2): 3}, id="quoted-field"),
        pytest.param(0, " \n4\n", {(): 4}, id="arity-0"),
    ],
)
def test_load_database_accepts(tmp_path, arity, text, entries):
    (tmp_path / "vocab.json").write_text('{"relations": {"R": %d}}' % arity)
    write_bytes(tmp_path / "R.csv", text)
    db = load_database(tmp_path / "vocab.json", tmp_path, NAT)
    assert db.relations["R"].entries == entries


@pytest.mark.parametrize("vocab", ['{"relations": {"R": false}}', '{"relations": {}, "constants": {"c": true}}'])
def test_load_vocabulary_rejects_booleans_as_numbers(tmp_path, vocab):
    (tmp_path / "vocab.json").write_text(vocab)
    with pytest.raises(IngestionError) as exc:
        load_database(tmp_path / "vocab.json", tmp_path, NAT)
    assert exc.value.filename == str(tmp_path / "vocab.json")


@pytest.mark.parametrize("name, value", [("real", "2.5"), ("boolean", "t")])
def test_load_database_reads_a_first_row_that_parses(tmp_path, name, value):
    # the only field of a nullary relation is its annotation: a first row
    # that parses is data, not a header, also when it is no integer
    (tmp_path / "vocab.json").write_text('{"relations": {"Z": 0}}')
    (tmp_path / "Z.csv").write_text(value + "\n")
    s = builtin_semiring(name)
    assert load_database(tmp_path / "vocab.json", tmp_path, s).relations["Z"].entries == {
        (): s.parse(value)
    }


@pytest.mark.parametrize(
    "text, message, line",
    [
        pytest.param("1,2,3\n1,2\n", "expected 3 fields, got 2", 2, id="width"),
        pytest.param("1,2,3\n1,b,3\n", "malformed data value in ['1', 'b']", 2, id="integer"),
        pytest.param("x,y,k\n1,2,3\n0,2,3\n", "data values must be positive integers", 3, id="below-1"),
        pytest.param("1,2,3\n1,3,x\n", "invalid literal for int()", 2, id="annotation"),
        pytest.param("1,2,3\n1,3,-2\n", "must be non-negative", 2, id="negative-annotation"),
        pytest.param("1,2,3\n\n1,2,4\n", "duplicate tuple (1, 2)", 3, id="duplicate"),
        # a quoted field may span lines: the error names the row's first line
        pytest.param('x,"multi\nline header",k\n1,2,2\n3,b,1\n', "malformed data value in ['3', 'b']", 4, id="after-multiline-header"),
        pytest.param('1,2,3\n1,"2\r\n\n",3\n', "duplicate tuple (1, 2)", 2, id="multiline-row"),
    ],
)
def test_load_database_rejects(tmp_path, text, message, line):
    (tmp_path / "vocab.json").write_text('{"relations": {"R": 2}}')
    write_bytes(tmp_path / "R.csv", text)
    with pytest.raises(IngestionError) as exc:
        load_database(tmp_path / "vocab.json", tmp_path, NAT)
    assert message in str(exc.value)
    assert exc.value.filename == str(tmp_path / "R.csv")
    assert exc.value.line == line


@pytest.mark.parametrize(
    "text, updates",
    [
        pytest.param(
            "# a script\n+ R 1 2 7  # inline comment\n\n   \n- R 1 2\n",
            [SingleTupleUpdate("insert", "R", (1, 2), 7), SingleTupleUpdate("delete", "R", (1, 2))],
            id="comments-and-blank-lines",
        ),
        pytest.param(
            "+ R 1 2 7\r\n- R 1 2\r\n",
            [SingleTupleUpdate("insert", "R", (1, 2), 7), SingleTupleUpdate("delete", "R", (1, 2))],
            id="crlf",
        ),
        pytest.param(
            "+ Z 5\n-\tZ\n",
            [SingleTupleUpdate("insert", "Z", (), 5), SingleTupleUpdate("delete", "Z", ())],
            id="arity-0",
        ),
    ],
)
def test_parse_update_script_accepts(tmp_path, text, updates):
    assert parse_update_script(write_bytes(tmp_path / "u.ups", text), NAT) == updates


@pytest.mark.parametrize(
    "text, message, line",
    [
        pytest.param("+ R 1 2 7\n* R 1 2  # star\n", "malformed update line '* R 1 2'", 2, id="operator"),
        pytest.param("\n-\n", "malformed update line '-'", 2, id="no-symbol"),
        pytest.param("- R 1 2\n+ R\n", "insert needs at least an annotation", 2, id="no-annotation"),
        pytest.param("+ R 1 x 7\n", "invalid literal for int()", 1, id="integer"),
        pytest.param("- R 1 2\r\n+ R 1 2 x\r\n", "invalid literal for int()", 2, id="annotation"),
        pytest.param("+ R 1 2 -7\n", "must be non-negative", 1, id="negative-annotation"),
    ],
)
def test_parse_update_script_rejects(tmp_path, text, message, line):
    path = write_bytes(tmp_path / "u.ups", text)
    with pytest.raises(IngestionError) as exc:
        parse_update_script(path, NAT)
    assert message in str(exc.value)
    assert exc.value.filename == str(path)
    assert exc.value.line == line
