import dataclasses
import random
from collections import Counter
from itertools import islice

import pytest

from deltaenum.errors import ConsistencyError, IngestionError, QuerySyntaxError, TypeCheckError
from deltaenum.matlang import (
    Add,
    Hadamard,
    IdentityMatrix,
    MatMul,
    MatQuery,
    MatrixInstance,
    MatrixSchema,
    MatrixSymbol,
    OnesVector,
    ScalarMul,
    SumIteration,
    Transpose,
    VectorVariable,
    classify_fragment,
    encode_instance,
    eval_matlang,
    infer_cq_types,
    load_matrix_instance,
    parse_matlang,
    translate_to_cq,
    typecheck,
    with_head,
)
from deltaenum.oracle import oracle_eval_matlang
from deltaenum.query import IneqAtom
from deltaenum.semiring import BUILTIN_SEMIRING_NAMES, builtin_semiring

from support import (
    corpus_rng,
    decode_instance,
    random_coo_text,
    random_conj_expression,
    random_conj_expressions,
    random_matrix_instance,
    random_matrix_schema,
    reference_coo,
)

NAT = builtin_semiring("natural")
BOOL = builtin_semiring("boolean")


def schema_abc():
    return MatrixSchema(
        {"alpha": 3, "beta": 2, "gamma": 4},
        {
            "A": ("alpha", "beta"),
            "B": ("beta", "gamma"),
            "C": ("alpha", "beta"),
            "U": ("alpha", "1"),
            "V": ("beta", "1"),
        },
    )


# ---------------------------------------------------------------------------
# Typing
# ---------------------------------------------------------------------------

def test_typecheck_product():
    s = schema_abc()
    e = MatMul(MatrixSymbol("A"), MatrixSymbol("B"))
    assert typecheck(e, s) == ("alpha", "gamma")


def test_typecheck_shape_mismatch():
    s = schema_abc()
    with pytest.raises(TypeCheckError):
        typecheck(Hadamard(MatrixSymbol("A"), MatrixSymbol("B")), s)


def test_typecheck_sum_iteration():
    s = schema_abc()
    e = SumIteration("v", "beta", MatMul(MatrixSymbol("A"), VectorVariable("v", "beta")))
    assert typecheck(e, s) == ("alpha", "1")


def test_typecheck_scalar_rewrite():
    s = MatrixSchema({"alpha": 3}, {"S": ("1", "1"), "A": ("alpha", "alpha")})
    e = MatMul(MatrixSymbol("S"), MatrixSymbol("A"))
    assert typecheck(e, s) == ("alpha", "alpha")
    assert isinstance(e, ScalarMul)


def test_parse_and_print_query():
    s = schema_abc()
    q = parse_matlang("H := A .* (U * V^T)", s)
    assert q.head == "H"
    assert isinstance(q.expr, Hadamard)
    assert isinstance(q.expr.right, MatMul)
    assert isinstance(q.expr.right.right, Transpose)


def test_parse_sum_and_ones():
    s = schema_abc()
    q = parse_matlang("H := sum(v:beta, A * v)", s)
    assert isinstance(q.expr, SumIteration)
    q2 = parse_matlang("H := ones(alpha)' * ones(alpha)", s)
    assert typecheck(q2.expr, s) == ("1", "1")


# ---------------------------------------------------------------------------
# Fragments
# ---------------------------------------------------------------------------

def test_fragment_fc_masked_outer_product():
    s = schema_abc()
    e = Hadamard(
        MatrixSymbol("A"),
        MatMul(MatrixSymbol("U"), Transpose(MatrixSymbol("V"))),
    )
    # wrong shapes for Hadamard unless U.V^T is alpha x beta: U:(alpha,1), V:(beta,1)
    typecheck(e, s)
    flags = classify_fragment(e)
    assert flags["fc_matlang"] and flags["conj_matlang"] and flags["matlang"]


def test_fragment_matrix_matrix_product_is_not_fc():
    s = schema_abc()
    e = MatMul(MatrixSymbol("A"), MatrixSymbol("B"))
    typecheck(e, s)
    flags = classify_fragment(e)
    assert flags["conj_matlang"] and not flags["fc_matlang"]


def test_fragment_qh_two_layer():
    from deltaenum.planner import classify

    # the three two-layer forms: simple .* row expansion, column expansion .*
    # simple, and column expansion .* row expansion
    s = MatrixSchema({"alpha": 3, "beta": 2}, {"A": ("alpha", "beta"), "U": ("alpha", "1"), "V": ("beta", "1")})
    for text in (
        "H := A .* (U * ones(beta)^T)",
        "H := (ones(alpha) * V^T) .* A",
        "H := (ones(alpha) * V^T) .* (U * ones(beta)^T)",
    ):
        q = parse_matlang(text, s)
        flags = classify_fragment(q.expr)
        assert flags["qh_matlang"] and flags["fc_matlang"], text
        assert not flags["simple_matlang"], text
        assert classify(translate_to_cq(q, with_head(q, s))).q_hierarchical, text


def test_fragment_simple():
    s = schema_abc()
    e = MatMul(MatrixSymbol("A"), OnesVector("beta"))
    typecheck(e, s)
    flags = classify_fragment(e)
    assert flags["simple_matlang"] and flags["qh_matlang"]


def test_fragment_addition_not_conj():
    s = schema_abc()
    e = Add(MatrixSymbol("A"), MatrixSymbol("C"))
    typecheck(e, s)
    flags = classify_fragment(e)
    assert flags["matlang"] and not flags["conj_matlang"]


# ---------------------------------------------------------------------------
# Encodings
# ---------------------------------------------------------------------------

def test_encode_binary_matrix():
    schema = MatrixSchema({"alpha": 3, "beta": 2}, {"A": ("alpha", "beta")})
    inst = MatrixInstance(schema, BOOL, {"A": {(1, 1): True, (3, 2): True}})
    db = encode_instance(inst)
    assert db.relations["A"].entries == {(1, 1): True, (3, 2): True}
    assert db.constants == {"alpha": 3, "beta": 2, "1": 1}
    # the (i, j) cells are shared, not copied
    assert db.relations["A"].entries is inst.entries["A"]


def test_encode_unary_vector():
    schema = MatrixSchema({"alpha": 3}, {"U": ("alpha", "1")}, {"U": "unary"})
    inst = MatrixInstance(schema, NAT, {"U": {(2, 1): 5}})
    db = encode_instance(inst)
    assert db.relations["U"].entries == {(2,): 5}


def test_roundtrip_encode_decode_identity():
    rng = random.Random(5)
    schema = MatrixSchema(
        {"alpha": 3, "beta": 2},
        {"A": ("alpha", "beta"), "U": ("beta", "1"), "S": ("1", "1")},
        {"U": "unary", "S": "nullary"},
    )
    for _ in range(50):
        inst = random_matrix_instance(rng, schema, NAT, density=0.4)
        back = decode_instance(encode_instance(inst), schema)
        assert back.entries == inst.entries
        assert back.schema.sizes == inst.schema.sizes


def test_decode_rejects_out_of_range():
    schema = MatrixSchema({"alpha": 3, "beta": 2}, {"A": ("alpha", "beta")})
    from deltaenum.kdata import AnnotatedRelation, Database

    db = Database(NAT, constants={"alpha": 3, "beta": 2})
    db.relations["A"] = AnnotatedRelation(2, {(4, 1): 2})
    with pytest.raises(ConsistencyError):
        decode_instance(db, schema)


def test_decode_rejects_a_relation_of_the_wrong_arity():
    schema = MatrixSchema({"alpha": 3}, {"A": ("alpha", "alpha"), "U": ("alpha", "1")}, {"U": "unary"})
    from deltaenum.kdata import AnnotatedRelation, Database

    for name, rel in (("A", AnnotatedRelation(1, {(2,): 1})), ("U", AnnotatedRelation(2, {(2, 1): 1}))):
        db = encode_instance(MatrixInstance(schema, NAT))
        db.relations[name] = rel
        with pytest.raises(ConsistencyError):
            decode_instance(db, schema)


def test_decode_empty_relations_are_zero_matrices():
    schema = MatrixSchema({"alpha": 2}, {"A": ("alpha", "alpha")})
    from deltaenum.kdata import AnnotatedRelation, Database

    db = Database(NAT, constants={"alpha": 2})
    db.relations["A"] = AnnotatedRelation(2)
    inst = decode_instance(db, schema)
    assert inst.entries["A"] == {}
    assert inst.dense("A") == [[0, 0], [0, 0]]


# ---------------------------------------------------------------------------
# Translation
# ---------------------------------------------------------------------------

def head_schema(expr_schema, head, typ, encoding="binary"):
    return MatrixSchema(
        dict(expr_schema.sizes),
        {**expr_schema.matrices, head: typ},
        {**expr_schema.encodings, head: encoding},
    )


def test_translate_identity_is_diagonal_comparison():
    schema = MatrixSchema({"alpha": 3}, {})
    q = MatQuery("H", IdentityMatrix("alpha"))
    full = head_schema(schema, "H", ("alpha", "alpha"))
    typecheck(q.expr, full)
    cq = translate_to_cq(q, full)
    assert cq.head_vars[0] == cq.head_vars[1]
    v = cq.head_vars[0]
    assert set(cq.atoms) == {IneqAtom(v, "alpha")}


def test_translate_matrix_product():
    s = schema_abc()
    q = MatQuery("H", MatMul(MatrixSymbol("A"), MatrixSymbol("B")))
    full = head_schema(s, "H", ("alpha", "gamma"))
    typecheck(q.expr, full)
    cq = translate_to_cq(q, full)
    assert len(cq.head_vars) == 2
    hx, hy = cq.head_vars
    rel = cq.relational_atoms
    assert len(rel) == 2
    (a,) = [at for at in rel if at.symbol == "A"]
    (b,) = [at for at in rel if at.symbol == "B"]
    assert a.args[0] == hx and b.args[1] == hy
    assert a.args[1] == b.args[0]  # shared bound variable


def test_translate_transpose():
    s = schema_abc()
    q = MatQuery("H", Transpose(MatrixSymbol("A")))
    full = head_schema(s, "H", ("beta", "alpha"))
    typecheck(q.expr, full)
    cq = translate_to_cq(q, full)
    hx, hy = cq.head_vars
    (a,) = cq.relational_atoms
    assert a.args == (hy, hx)


def test_translate_fc_outer_product_is_free_connex():
    from deltaenum.planner import classify

    s = schema_abc()
    e = Hadamard(MatrixSymbol("A"), MatMul(MatrixSymbol("U"), Transpose(MatrixSymbol("V"))))
    full = head_schema(s, "H", ("alpha", "beta"))
    typecheck(e, full)
    cq = translate_to_cq(MatQuery("H", e), full)
    assert classify(cq).free_connex


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def test_eval_hadamard_outer_product():
    schema = MatrixSchema(
        {"alpha": 2, "beta": 2},
        {"A": ("alpha", "beta"), "U": ("alpha", "1"), "V": ("beta", "1")},
    )
    inst = MatrixInstance(
        schema, NAT, {"A": {(1, 1): 2}, "U": {(1, 1): 3}, "V": {(1, 1): 5}}
    )
    e = Hadamard(MatrixSymbol("A"), MatMul(MatrixSymbol("U"), Transpose(MatrixSymbol("V"))))
    result = eval_matlang(MatQuery("H", e), inst)
    assert result.used_engine
    assert result.instance.entries["H"] == {(1, 1): 30}


def test_eval_splits_a_size_one_index_shared_through_a_hadamard_product():
    # shared, the row index of both copies of B * A would close a 4-cycle
    # through both A atoms; summed out per occurrence, the translation is
    # free-connex
    schema = MatrixSchema(
        {"alpha": 3, "beta": 2},
        {"B": ("1", "alpha"), "A": ("alpha", "beta"), "V": ("1", "alpha")},
    )
    inst = MatrixInstance(
        schema,
        NAT,
        {
            "B": {(1, 1): 1, (1, 2): 1},
            "A": {(1, 1): 2, (2, 2): 3, (3, 1): 1},
            "V": {(1, 1): 1, (1, 3): 1},
        },
    )
    q = parse_matlang("H := ((B * A) .* (B * A))^T * V", schema)
    result = eval_matlang(q, inst)
    cq = result.translation
    tau = infer_cq_types(cq, result.instance.schema)[1]
    atoms_of = Counter(v for atom in cq.atoms for v in atom.vars)
    assert not [v for v, n in atoms_of.items() if n > 1 and tau[v] == "1"], cq.to_text()
    assert result.used_engine and result.warning is None
    assert result.instance.dense("H") == oracle_eval_matlang(q.expr, inst)
    assert result.instance.dense("H") == [[4, 0, 4], [9, 0, 9]]


def test_eval_without_relational_atoms_runs_on_the_engine():
    # the translation has no plan, as it has no relational atoms, and needs none
    schema = MatrixSchema({"n": 2}, {})
    q = parse_matlang("H := ones(n) * ones(n)^T", schema)
    result = eval_matlang(q, MatrixInstance(schema, NAT))
    assert not result.translation.relational_atoms
    assert result.used_engine and result.warning is None
    assert result.instance.dense("H") == [[1, 1], [1, 1]]


def test_eval_ones_vector():
    schema = MatrixSchema({"alpha": 3}, {})
    result = eval_matlang(MatQuery("H", OnesVector("alpha")), MatrixInstance(schema, NAT))
    assert result.instance.entries["H"] == {(1, 1): 1, (2, 1): 1, (3, 1): 1}


def test_eval_double_transpose_is_identity():
    schema = MatrixSchema({"alpha": 2, "beta": 3}, {"A": ("alpha", "beta")})
    inst = MatrixInstance(schema, NAT, {"A": {(1, 2): 4, (2, 3): 1}})
    result = eval_matlang(MatQuery("H", Transpose(Transpose(MatrixSymbol("A")))), inst)
    assert result.instance.entries["H"] == inst.entries["A"]


def test_eval_addition_falls_back_to_reference():
    schema = MatrixSchema({"alpha": 2}, {"A": ("alpha", "alpha"), "B": ("alpha", "alpha")})
    inst = MatrixInstance(schema, NAT, {"A": {(1, 1): 1}, "B": {(1, 1): 2, (2, 2): 3}})
    result = eval_matlang(MatQuery("H", Add(MatrixSymbol("A"), MatrixSymbol("B"))), inst)
    assert not result.used_engine and result.warning
    assert result.instance.entries["H"] == {(1, 1): 3, (2, 2): 3}


def test_oracle_identity_and_schoolbook_product():
    schema = MatrixSchema({"alpha": 2, "beta": 2, "gamma": 2}, {"A": ("alpha", "beta"), "B": ("beta", "gamma")})
    inst = MatrixInstance(
        schema, NAT, {"A": {(1, 1): 1, (1, 2): 2, (2, 2): 3}, "B": {(1, 1): 4, (2, 1): 5}}
    )
    assert oracle_eval_matlang(IdentityMatrix_typed(schema), inst) == [[1, 0], [0, 1]]
    e = MatMul(MatrixSymbol("A"), MatrixSymbol("B"))
    typecheck(e, schema)
    assert oracle_eval_matlang(e, inst) == [[14, 0], [15, 0]]


def IdentityMatrix_typed(schema):
    e = IdentityMatrix("alpha")
    typecheck(e, schema)
    return e


def test_oracle_sum_identity_derivation():
    schema = MatrixSchema({"gamma": 3}, {})
    e = SumIteration("v", "gamma", MatMul(VectorVariable("v", "gamma"), Transpose(VectorVariable("v", "gamma"))))
    typecheck(e, schema)
    inst = MatrixInstance(schema, NAT)
    assert oracle_eval_matlang(e, inst) == [
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
    ]


# ---------------------------------------------------------------------------
# Random simulation properties
# ---------------------------------------------------------------------------

def test_simulation_commutes_on_random_corpus():
    rng = random.Random(20240813)
    semirings = [BOOL, NAT]
    for found, (schema, expr) in enumerate(islice(random_conj_expressions(rng), 200), 1):
        semiring = semirings[found % 2]
        inst = random_matrix_instance(rng, schema, semiring)
        result = eval_matlang(MatQuery("HOUT", expr), inst)
        got = result.instance.dense("HOUT")
        want = oracle_eval_matlang(expr, inst)
        assert got == want, (found, expr)


def test_fc_and_qh_fragments_translate_to_matching_cq_classes():
    from deltaenum.planner import classify

    fc_seen = qh_seen = 0
    # 5,000 draws from each seed, binary heads with indices of size 1 among them
    for seed in (20240814, 5, 6, 7):
        rng = random.Random(seed)
        for _ in range(5000):
            schema = random_matrix_schema(rng)
            expr = random_conj_expression(rng, schema)
            if expr is None:
                continue
            flags = classify_fragment(expr)
            if not flags["fc_matlang"] and not flags["qh_matlang"]:
                continue
            full = head_schema(schema, "HOUT", expr.typ)
            typecheck(expr, full)
            cq = translate_to_cq(MatQuery("HOUT", expr), full)
            qflags = classify(cq)
            if flags["fc_matlang"]:
                fc_seen += 1
                assert qflags.free_connex, (expr, cq.to_text())
            if flags["qh_matlang"]:
                qh_seen += 1
                assert qflags.q_hierarchical, (expr, cq.to_text())
    assert fc_seen >= 60 and qh_seen >= 25, (fc_seen, qh_seen)


def test_translations_sum_out_each_bound_index_of_size_one_on_its_own():
    """An index of size 1 takes only the value 1: bound, it translates to
    one variable at one stored position, with no inequality atom, and in
    the head to one variable that only its one inequality atom holds."""
    rng = random.Random(20240815)
    for schema, expr in islice(random_conj_expressions(rng), 1000):
        q = MatQuery("HOUT", expr)
        full = with_head(q, schema)
        cq = translate_to_cq(q, full)
        tau = infer_cq_types(cq, full)[1]
        args = [v for atom in cq.relational_atoms for v in atom.args]
        for v in sorted({v for atom in cq.atoms for v in atom.vars} - set(cq.head_vars)):
            if tau[v] == "1":
                assert args.count(v) == 1 and IneqAtom(v, "1") not in cq.atoms, cq.to_text()
        # a head index of size 1 is in no relational atom, and one range bounds it
        for v in set(cq.head_vars):
            if tau[v] == "1":
                assert v not in args and cq.atoms.count(IneqAtom(v, "1")) == 1, cq.to_text()


def test_eval_with_unary_encoded_head():
    schema = MatrixSchema(
        {"alpha": 3, "beta": 2},
        {"A": ("alpha", "beta"), "H": ("alpha", "1")},
        {"H": "unary"},
    )
    inst = MatrixInstance(schema, NAT, {"A": {(1, 1): 2, (1, 2): 3, (3, 1): 4}, "H": {}})
    e = MatMul(MatrixSymbol("A"), OnesVector("beta"))  # row sums
    result = eval_matlang(MatQuery("H", e), inst)
    assert result.instance.entries["H"] == {(1, 1): 5, (3, 1): 4}
    assert result.instance.dense("H") == oracle_eval_matlang(e, inst)


@pytest.mark.parametrize(
    "typ, encoding, text",
    [
        (("alpha", "beta"), "binary", "H := A .* A"),
        (("alpha", "1"), "unary", "H := A * ones(beta)"),
        (("1", "beta"), "unary", "H := ones(alpha)' * A"),
        (("1", "1"), "nullary", "H := ones(alpha)' * A * ones(beta)"),
    ],
)
def test_eval_decodes_every_head_layout(typ, encoding, text):
    schema = MatrixSchema({"alpha": 3, "beta": 4}, {"A": ("alpha", "beta"), "H": typ}, {"H": encoding})
    inst = MatrixInstance(schema, NAT, {"A": {(1, 1): 2, (1, 4): 3, (3, 2): 5, (3, 4): 1}})
    q = parse_matlang(text, schema)
    result = eval_matlang(q, inst)
    assert result.used_engine
    assert result.instance.dense("H") == oracle_eval_matlang(q.expr, inst)


def test_eval_shares_the_input_matrices():
    schema = MatrixSchema({"alpha": 2}, {"A": ("alpha", "alpha"), "B": ("alpha", "alpha")})
    inst = MatrixInstance(schema, NAT, {"A": {(1, 2): 4}, "B": {(2, 2): 1}})
    for text in ("H := A .* B", "H := A + B"):
        result = eval_matlang(parse_matlang(text, schema), inst)
        assert all(result.instance.entries[name] is inst.entries[name] for name in ("A", "B"))


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        ("H := A .*\n  $ C", "unexpected character '$'", 2, 3),
        ("H := (A .* C", "unexpected end of input", 1, 1),
        ("H := A C  # comment", "trailing input 'C'", 1, 8),
    ],
)
def test_parse_matlang_syntax_errors_carry_positions(text, message, line, column):
    with pytest.raises(QuerySyntaxError) as exc:
        parse_matlang(text, schema_abc())
    assert message in str(exc.value)
    assert (exc.value.line, exc.value.column) == (line, column)


# ---------------------------------------------------------------------------
# The COO ingest contract
# ---------------------------------------------------------------------------

def write_coo(tmp_path, text):
    # bytes, so that CRLF line endings reach the loader as written
    (tmp_path / "A.coo").write_bytes(text.encode())
    return MatrixSchema({"alpha": 3, "beta": 2}, {"A": ("alpha", "beta")})


@pytest.mark.parametrize(
    "text, cells",
    [
        pytest.param("# i j value\n1 1 2  # inline\n\n  \n3 2 7\n", {(1, 1): 2, (3, 2): 7}, id="comments-and-blank-lines"),
        pytest.param("1 1 2\r\n3 2 7\r\n", {(1, 1): 2, (3, 2): 7}, id="crlf"),
        pytest.param("1 1 0\n2\t1 4\n", {(2, 1): 4}, id="zero-entry"),
    ],
)
def test_load_matrix_instance_accepts(tmp_path, text, cells):
    inst = load_matrix_instance(write_coo(tmp_path, text), tmp_path, NAT)
    assert inst.entries["A"] == cells


@pytest.mark.parametrize(
    "text, message, line",
    [
        pytest.param("1 1 2\n1 2\n", "expected 'i j value'", 2, id="fields"),
        pytest.param("1 1 2 # x\n\n1 1 2 3\n", "expected 'i j value'", 3, id="too-many-fields"),
        pytest.param("1 x 2\n", "invalid literal for int()", 1, id="integer"),
        pytest.param("1 1 2\r\n1 2 x\r\n", "invalid literal for int()", 2, id="annotation"),
        pytest.param("1 1 -2\n", "must be non-negative", 1, id="negative-annotation"),
        pytest.param("1 1 2\n2 2 1\n1 1 3\n", "duplicate entry (1,1)", 3, id="duplicate"),
    ],
)
def test_load_matrix_instance_rejects(tmp_path, text, message, line):
    schema = write_coo(tmp_path, text)
    with pytest.raises(IngestionError) as exc:
        load_matrix_instance(schema, tmp_path, NAT)
    assert message in str(exc.value)
    assert exc.value.filename == str(tmp_path / "A.coo")
    assert exc.value.line == line


def test_load_matrix_instance_rejects_entries_outside_the_dimensions(tmp_path):
    schema = write_coo(tmp_path, "1 1 2\n4 1 1\n")
    with pytest.raises(IngestionError, match=r"A\.coo:2: entry \(4,1\) of 'A' outside its 3x2 dimension"):
        load_matrix_instance(schema, tmp_path, NAT)


def coo_outcome(load, schema, data_dir, semiring):
    """The cells ``load`` reads, or the message, file and line of its error."""
    try:
        return load(schema, data_dir, semiring).entries
    except IngestionError as exc:
        return str(exc), exc.filename, exc.line


def test_load_matrix_instance_matches_the_interpreted_reference(tmp_path):
    rng = corpus_rng(3100)
    outcomes = Counter()
    for k in range(2400):
        s = builtin_semiring(BUILTIN_SEMIRING_NAMES[k % 4])
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        schema = MatrixSchema({"alpha": m, "beta": n}, {"A": ("alpha", "beta")})
        (tmp_path / "A.coo").write_bytes(random_coo_text(rng, s, m, n).encode())
        got = coo_outcome(load_matrix_instance, schema, tmp_path, s)
        assert got == coo_outcome(reference_coo, schema, tmp_path, s), (tmp_path / "A.coo").read_bytes()
        outcomes[type(got)] += 1
    # both outcomes are common: the corpus is not all errors
    assert min(outcomes.values()) > 600, outcomes


# semirings whose conversion takes "#": the call of ``parse`` (a boolean with
# "#" for true), a ``convert`` template (naturals read as the text's length)
# and, without templates, the full check of every line
HASH_SEMIRINGS = [
    dataclasses.replace(BOOL, name="hash-boolean", parse=lambda text: text == "#" or BOOL.parse(text)),
    dataclasses.replace(NAT, name="hash-natural", parse=len, templates={**NAT.templates, "convert": "len({0})"}),
    dataclasses.replace(dataclasses.replace(NAT, parse=len), name="hash-calls", templates={}),
]


@pytest.mark.parametrize("semiring", HASH_SEMIRINGS, ids=lambda s: s.name)
@pytest.mark.parametrize("text", ["1 2 #\n", "# a b\n1 1 1\n", "1 2 1#\n", "2 2 t#x\r\n1 1 ##\r\n"])
def test_a_line_that_holds_a_hash_is_never_stored_by_the_reader(tmp_path, semiring, text):
    schema = write_coo(tmp_path, text)
    got = coo_outcome(load_matrix_instance, schema, tmp_path, semiring)
    assert got == coo_outcome(reference_coo, schema, tmp_path, semiring)
