import dataclasses
import io
import keyword
import random
import re
import tokenize
from collections import Counter

import pytest

from deltaenum.errors import IngestionError, SchemaError, VocabularyError
from deltaenum.kdata import (
    AnnotatedRelation,
    Database,
    SingleTupleUpdate,
    apply_update,
    load_database,
    parse_update_script,
    reader_source,
    update_reader_source,
)
from deltaenum.semiring import BUILTIN_SEMIRING_NAMES, builtin_semiring

from support import corpus_rng, random_update_text, reference_update_script, sample

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


# every name that ``reader_source`` writes for the builtin semirings,
# besides Python keywords and the numbered names of its data fields; the
# builtins' ``convert``, ``admits`` and ``is_zero`` templates write the last line
READER_NAMES = {
    "read", "rows", "convert", "dims", "entries", "check", "rowno", "row", "a", "t", "int", "ValueError",
    "type", "bool", "float", "isfinite", "inf",
}


def test_no_relation_name_reaches_the_row_readers(tmp_path):
    # relation names that the generated reader uses itself, of arities 0 to 7
    names = ["read", "row", "entries", "t", "convert", "dims", "check", "a"]
    vocab = {"relations": {name: arity for arity, name in enumerate(names)}}
    found = set()
    for s in map(builtin_semiring, BUILTIN_SEMIRING_NAMES):
        rows = {name: ",".join(["1"] * (arity + 1)) + "\n" for arity, name in enumerate(names)}
        db = load_database(*write_db(tmp_path, vocab, rows), s)
        assert {name: rel.entries for name, rel in db.relations.items()} == {
            name: {(1,) * arity: s.parse("1")} for arity, name in enumerate(names)
        }
        for arity in range(13):
            for bounded in (False, True):
                tokens = list(tokenize.generate_tokens(io.StringIO(reader_source(arity, s, bounded)).readline))
                assert not [t for t in tokens if t.type == tokenize.STRING]
                found |= {t.string for t in tokens if t.type == tokenize.NAME}
    numbered = {n for n in found if re.fullmatch(r"x[0-9]+", n)}
    assert found - numbered - set(keyword.kwlist) == READER_NAMES


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
        pytest.param(1, "5,7\n", {(5,): 7}, id="arity-1"),
        pytest.param(12, ",".join(map(str, range(1, 14))) + "\n", {tuple(range(1, 13)): 13}, id="arity-12"),
        # a byte order mark is no part of the first field
        pytest.param(2, "\ufeff1,2,5\n3,4,6\n", {(1, 2): 5, (3, 4): 6}, id="bom"),
        # a zero annotation drops the row before the duplicate test
        pytest.param(2, "1,2,3\n1,2,0\n", {(1, 2): 3}, id="zero-duplicate"),
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
        # the checks of a row run in a fixed order: width, integers,
        # positivity, annotation, zero, duplicate
        pytest.param("0,2,x\n", "data values must be positive integers", 1, id="below-1-before-annotation"),
        pytest.param("1,b,x\n", "malformed data value in ['1', 'b']", 1, id="integer-before-annotation"),
        pytest.param("0,2,0\n", "data values must be positive integers", 1, id="below-1-before-zero"),
        pytest.param("x,y\n1,2\n", "expected 3 fields, got 2", 2, id="short-row-after-header"),
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


# the conversion that the readers write inline keeps the messages and lines
# of ``parse``, also for the only bad row after a header
@pytest.mark.parametrize("head, kept", [("1,1,1\n", {(1, 1)}), ("x,y,k\n", set())], ids=["after-a-row", "after-a-header"])
@pytest.mark.parametrize(
    "semiring, annotation, message",
    [
        ("natural", "-1", "natural annotation must be non-negative: '-1'"),
        ("natural", "3.0", "invalid literal for int() with base 10: '3.0'"),
        ("real", "nan", "real annotation must be finite: 'nan'"),
        ("real", "1e400", "real annotation must be finite: '1e400'"),
        ("real", "-inf", "real annotation must be finite: '-inf'"),
        ("tropical-min", "-inf", "tropical annotation must be a number or inf: '-inf'"),
        ("tropical-min", "inf", None),  # the zero: the row is dropped
        ("boolean", "x", "not a boolean annotation: 'x'"),
    ],
)
def test_load_database_converts_annotations_as_parse_does(tmp_path, head, kept, semiring, annotation, message):
    s = builtin_semiring(semiring)
    vocab, data = write_db(tmp_path, {"relations": {"R": 2}}, {"R": head + "1,3," + annotation + "\n"})
    if message is None:
        assert set(load_database(vocab, data, s).relations["R"].entries) == kept
        return
    with pytest.raises(IngestionError) as exc:
        load_database(vocab, data, s)
    assert str(exc.value) == f"{data / 'R.csv'}:2: {message}"


def test_load_database_without_templates_checks_every_row(tmp_path):
    # a descriptor without templates has no inline conversion or zero test:
    # the full check reads every row, with the same messages
    calls = dataclasses.replace(NAT, templates={})
    vocab, data = write_db(tmp_path, {"relations": {"R": 2}}, {"R": "x,y,k\n1,2,3\n1,3,0\n"})
    assert load_database(vocab, data, calls).relations["R"].entries == {(1, 2): 3}
    write_db(tmp_path, {"relations": {"R": 2}}, {"R": "1,2,3\n1,2,4\n"})
    with pytest.raises(IngestionError, match=r"R\.csv:2: duplicate tuple \(1, 2\)"):
        load_database(vocab, data, calls)


def update_outcome(path, semiring, parse=parse_update_script):
    """The records ``parse`` reads, as their reprs, or the message, file and
    line of its error."""
    try:
        return [repr(u) for u in parse(path, semiring)]
    except IngestionError as exc:
        return str(exc), exc.filename, exc.line


def want_outcome(path, semiring, want):
    """``update_outcome``'s form of ``want``: records as (kind, symbol,
    tuple[, annotation text]), or an error as (message, line)."""
    if isinstance(want, tuple):
        message, line = want
        return f"{path}:{line}: {message}", str(path), line
    records = [SingleTupleUpdate(*u[:3], *map(semiring.parse, u[3:])) for u in want]
    return [repr(u) for u in records]


# lines that every builtin semiring reads alike: "1" is an annotation of each
@pytest.mark.parametrize("semiring", BUILTIN_SEMIRING_NAMES)
@pytest.mark.parametrize(
    "text, want",
    [
        pytest.param(
            "# a script\n+ R 1 2 1  # inline comment\n\n   \n- R 1 2\n",
            [("insert", "R", (1, 2), "1"), ("delete", "R", (1, 2))],
            id="comments-and-blank-lines",
        ),
        pytest.param("+ R 1 2 1\n* R 1 2  # star\n", ("malformed update line '* R 1 2'", 2), id="operator"),
        pytest.param("\n-\n", ("malformed update line '-'", 2), id="no-symbol"),
        pytest.param("+#c\n", ("malformed update line '+'", 1), id="comment-after-operator"),
        pytest.param("+ R 1 x 1\n", ("invalid literal for int() with base 10: 'x'", 1), id="integer"),
        pytest.param(
            "- R 1 2#c\n+ R 3 1#\n", [("delete", "R", (1, 2)), ("insert", "R", (3,), "1")], id="comment-in-a-field"
        ),
        pytest.param(
            "+\tR\t1 \t2\t1\t\n-\tR\t1\n",
            [("insert", "R", (1, 2), "1"), ("delete", "R", (1,))],
            id="tabs",
        ),
        pytest.param(
            "+ R 1 2 1\r\n- R 1 2\r\n", [("insert", "R", (1, 2), "1"), ("delete", "R", (1, 2))], id="crlf"
        ),
        pytest.param("\ufeff- R 1\n+ R 1 1\n", [("delete", "R", (1,)), ("insert", "R", (1,), "1")], id="bom"),
        pytest.param("- R 1\n+ R\n", ("insert needs at least an annotation", 2), id="no-annotation"),
        pytest.param("- Z\n+ Z 1\n", [("delete", "Z", ()), ("insert", "Z", (), "1")], id="arity-0"),
        pytest.param(
            "+ R 1 2 3 4 5 6 7 1\n- R 7 6 5 4 3 2 1\n",
            [("insert", "R", (1, 2, 3, 4, 5, 6, 7), "1"), ("delete", "R", (7, 6, 5, 4, 3, 2, 1))],
            id="more-fields-than-unrolled",
        ),
        pytest.param(
            "- R 1\n- R 1 2 3 4 5 x 7\n", ("invalid literal for int() with base 10: 'x'", 2), id="integer-after-unrolled"
        ),
        pytest.param(
            "+ R 1 1\n+ R 0 2 1\n", ("data values must be positive integers, got (0, 2)", 2), id="below-1"
        ),
        pytest.param(
            "- R 1 2 3 4 5 6 -7\n",
            ("data values must be positive integers, got (1, 2, 3, 4, 5, 6, -7)", 1),
            id="below-1-after-unrolled",
        ),
        pytest.param(
            "+ R 0 2 x\n", ("data values must be positive integers, got (0, 2)", 1), id="below-1-before-annotation"
        ),
    ],
)
def test_parse_update_script_reads_every_builtin_semiring_alike(tmp_path, semiring, text, want):
    s = builtin_semiring(semiring)
    path = write_bytes(tmp_path / "u.ups", text)
    assert update_outcome(path, s) == want_outcome(path, s, want)


# annotation texts that the builtin semirings read differently
@pytest.mark.parametrize(
    "semiring, text, want",
    [
        ("real", "+ R 1 nan\n", ("real annotation must be finite: 'nan'", 1)),
        ("real", "- R 1\n+ R 1 1e400\n", ("real annotation must be finite: '1e400'", 2)),
        ("real", "+ R 1 -inf\n", ("real annotation must be finite: '-inf'", 1)),
        ("tropical-min", "+ R 1 inf\n", [("insert", "R", (1,), "inf")]),
        ("tropical-min", "+ R 1 -inf\n", ("tropical annotation must be a number or inf: '-inf'", 1)),
        ("boolean", "+ R 1 x\n", ("not a boolean annotation: 'x'", 1)),
        ("boolean", "+ Z 5\n", ("not a boolean annotation: '5'", 1)),
        ("natural", "+ R 1 -1\n", ("natural annotation must be non-negative: '-1'", 1)),
        ("natural", "+ R 1 3.0\n", ("invalid literal for int() with base 10: '3.0'", 1)),
        ("natural", "- R 1 2\r\n+ R 1 2 x\r\n", ("invalid literal for int() with base 10: 'x'", 2)),
        ("real", "+ R 1 x\n", ("could not convert string to float: 'x'", 1)),
        ("natural", "+ Z 5\n", [("insert", "Z", (), "5")]),
        ("real", "+ Z 5\n", [("insert", "Z", (), "5")]),
        ("tropical-min", "+ Z 5\n", [("insert", "Z", (), "5")]),
    ],
)
def test_parse_update_script_converts_annotations_as_parse_does(tmp_path, semiring, text, want):
    s = builtin_semiring(semiring)
    path = write_bytes(tmp_path / "u.ups", text)
    assert update_outcome(path, s) == want_outcome(path, s, want)


@pytest.mark.parametrize("args", [("bogus", "R", ()), ("insert", "R", (1,))], ids=["kind", "insert-without-value"])
def test_every_update_record_is_validated(args):
    with pytest.raises(SchemaError):
        SingleTupleUpdate(*args)


def test_parse_update_script_matches_the_interpreted_reference(tmp_path):
    rng = corpus_rng(3200)
    path = tmp_path / "u.ups"
    outcomes = Counter()
    for k in range(2400):
        s = builtin_semiring(BUILTIN_SEMIRING_NAMES[k % 4])
        path.write_bytes(random_update_text(rng, s).encode())
        got = update_outcome(path, s)
        assert got == update_outcome(path, s, reference_update_script), path.read_bytes()
        outcomes[type(got)] += 1
    # both outcomes are common: the corpus is not all errors
    assert min(outcomes.values()) > 600, outcomes


# descriptors whose conversion the reader calls: without templates it calls
# parse and admits; a boolean whose parse takes "#" meets it only in the
# full check, after the comment is stripped
@pytest.mark.parametrize(
    "semiring",
    [
        dataclasses.replace(NAT, templates={}),
        dataclasses.replace(
            builtin_semiring("boolean"), parse=lambda text: text == "#" or builtin_semiring("boolean").parse(text)
        ),
    ],
    ids=["no-templates", "hash-boolean"],
)
def test_parse_update_script_of_other_descriptors_matches_the_reference(tmp_path, semiring):
    rng = corpus_rng(3300)
    path = tmp_path / "u.ups"
    for _ in range(300):
        text = random_update_text(rng, builtin_semiring(semiring.name.removeprefix("hash-")))
        path.write_bytes(text.encode())
        assert update_outcome(path, semiring) == update_outcome(path, semiring, reference_update_script), text


# every name that ``update_reader_source`` writes for the builtin semirings,
# besides Python keywords; the builtins' ``convert`` and ``admits`` templates
# write the last line
UPDATE_READER_NAMES = {
    "read", "lines", "convert", "admits", "Update", "updates", "check", "append", "enumerate", "lineno", "line", "f",
    "split", "n", "len", "a", "t", "low", "int", "tuple", "map", "min", "INSERT", "DELETE", "ValueError",
    "type", "bool", "float", "isfinite", "inf",
}


def test_the_update_reader_writes_no_symbol_or_value_of_a_script():
    found, strings = set(), set()
    for s in map(builtin_semiring, BUILTIN_SEMIRING_NAMES):
        tokens = list(tokenize.generate_tokens(io.StringIO(update_reader_source(s)).readline))
        strings |= {t.string for t in tokens if t.type == tokenize.STRING}
        found |= {t.string for t in tokens if t.type == tokenize.NAME}
    assert strings == {'"#"', '"+"', '"-"'}
    assert found - set(keyword.kwlist) == UPDATE_READER_NAMES
