import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import deltaenum
from deltaenum.cli import main
from deltaenum.planner import build_fc_plan, build_guarded_plan
from deltaenum.query import parse_query
from deltaenum.semiring import BUILTIN_SEMIRING_NAMES, builtin_semiring


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def dbdir(tmp_path):
    d = tmp_path / "db"
    d.mkdir()
    (d / "vocab.json").write_text(
        json.dumps({"relations": {"R": 2, "S": 1}, "constants": {"c": 3}})
    )
    (d / "R.csv").write_text("1,2,2\n3,2,1\n")
    (d / "S.csv").write_text("2,3\n")
    return d


def test_classify_textbook_fixtures(tmp_path, capsys):
    fixtures = [
        ("H(x,y) :- A(x,z), B(z,y).", False, False),
        ("H(x) :- A(x,y), U(x).", True, True),
        ("H(x) :- A(x,y), U(y).", True, False),
        ("H(x,y) :- A(x,y), U(x), V(y).", True, False),
    ]
    for i, (text, fc, qh) in enumerate(fixtures):
        q = write(tmp_path / f"q{i}.cq", text)
        assert main(["classify", q, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["free_connex"] == fc
        assert report["q_hierarchical"] == qh


def test_eval_verify_exits_zero(tmp_path, dbdir, capsys):
    q = write(tmp_path / "q.cq", "H(x) :- R(x,y), S(y).")
    assert main(["eval", "--query", q, "--db", str(dbdir), "--verify"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert sorted(out) == ["1,6", "3,3"]


@pytest.mark.parametrize("command", ["eval", "dyn"])
def test_a_printed_nullary_answer_reads_back_as_a_nullary_relation(tmp_path, dbdir, capsys, command):
    def run(text):
        argv = [command, "--query", write(tmp_path / "q.cq", text), "--db", str(dbdir), "--verify"]
        if command == "dyn":
            argv += ["--updates", write(tmp_path / "u.ups", "")]
        assert main(argv) == 0
        return capsys.readouterr().out

    out = run("H() :- R(x,y).")
    assert out == "3\n"
    (dbdir / "vocab.json").write_text(json.dumps({"relations": {"R": 2, "S": 1, "N": 0}}))
    (dbdir / "N.csv").write_text(out)
    assert run("H() :- N().") == out


def _ranges(n):
    """A query with ``n`` free inequality ranges and no relational atom."""
    xs = [f"x{i}" for i in range(1, n + 1)]
    return f"H({','.join(xs)}) :- {', '.join(f'{x} <= c' for x in xs)}."


def _star(k):
    """The q-hierarchical star over ``k`` atoms, whose guarded walk nests
    k + 1 loops."""
    return f"H(x,{','.join(f'y{i}' for i in range(1, k + 1))}) :- {', '.join(f'R{i}(x,y{i})' for i in range(1, k + 1))}."


@pytest.mark.parametrize(
    "command, text, loops",
    [("eval", _ranges(21), 21), ("dyn", _star(20), 21), ("eval", _ranges(20), 20), ("dyn", _star(19), 20)],
)
def test_a_walk_of_more_than_twenty_loops_exits_one(tmp_path, capsys, command, text, loops):
    # CPython compiles a function with at most 20 statically nested blocks;
    # the walk nests one loop per level and free range of its plan
    plan = (build_guarded_plan if command == "dyn" else build_fc_plan)(parse_query(text))
    assert len(plan.levels) + len(plan.ranges) == loops
    d = tmp_path / "db"
    d.mkdir()
    (d / "vocab.json").write_text(json.dumps({"relations": {f"R{i}": 2 for i in range(1, 21)}, "constants": {"c": 1}}))
    for i in range(1, 21):
        (d / f"R{i}.csv").write_text("1,1,1\n")
    argv = [command, "--query", write(tmp_path / "q.cq", text), "--db", str(d), "--verify"]
    if command == "dyn":
        argv += ["--updates", write(tmp_path / "u.ups", "+ R1 1 2 1\n")]
    code = main(argv)
    captured = capsys.readouterr()
    if loops > 20:
        assert code == 1 and captured.out == ""
        assert captured.err == "error: the generated walk nests more than 20 loops, which CPython does not compile\n"
    else:
        assert code == 0 and captured.err == ""
        assert captured.out.count("\n") == (1 if command == "eval" else 2)


def test_plan_prints_a_walk_of_more_than_twenty_loops(tmp_path, capsys):
    q = write(tmp_path / "q.cq", _ranges(21))
    assert main(["plan", q, "--json"]) == 0
    walk = json.loads(capsys.readouterr().out)["walk"]
    assert walk.count(" for i") == 21 and "    " * 22 + "yield " in walk


def _corrupt_annotation(answers):
    for i, (t, v) in enumerate(answers):
        yield t, (v + 1 if i == 0 else v)


def _repeat_first(answers):
    answers = list(answers)
    yield from answers[:1] + answers


def _drop_first(answers):
    yield from list(answers)[1:]


@pytest.mark.parametrize("corrupt", [_corrupt_annotation, _repeat_first, _drop_first])
def test_eval_verify_with_limit_compares(tmp_path, dbdir, monkeypatch, capsys, corrupt):
    from deltaenum import static_engine

    q = write(tmp_path / "q.cq", "H(x) :- R(x,y), S(y).")
    argv = ["eval", "--query", q, "--db", str(dbdir), "--verify", "--limit", "1"]
    assert main(argv) == 0
    assert main(argv[:-2]) == 0
    enumerate_state = static_engine.enumerate_state
    monkeypatch.setattr(
        static_engine,
        "enumerate_state",
        lambda state, limit=None: corrupt(enumerate_state(state, limit=limit)),
    )
    assert main(argv) == 2
    assert "verification mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["H(x) :- R(x).", "H(x) :- R(x,y,z).", "H(x) :- Q(x)."])
def test_vocabulary_mismatch_exits_one(tmp_path, dbdir, capsys, text):
    q = write(tmp_path / "q.cq", text)
    ups = write(tmp_path / "u.ups", "+ R 1 5 3\n")
    for argv in (
        ["eval", "--query", q, "--db", str(dbdir)],
        ["dyn", "--query", q, "--db", str(dbdir), "--updates", ups],
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err


def test_unknown_flag_exits_one(capsys):
    assert main(["eval", "--nonsense"]) == 1


def test_enumerate_limit(tmp_path, dbdir, capsys):
    q = write(tmp_path / "q.cq", "H(x,y) :- R(x,y).")
    assert main(["enumerate", "--query", q, "--db", str(dbdir), "--limit", "1"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "text",
    [
        "H(x,y) :- R(x,y).",  # engine, scan path
        "H(x) :- R(x,y), S(y).",  # engine, connex walk
        "H(x,y) :- R(x,z), R(z,y).",  # not free-connex: the oracle
        "H(x) :- R(x,x) ; S(x).",  # FO+ disjunction: the oracle
    ],
)
def test_limit_zero_prints_nothing_and_negative_limit_exits_one(tmp_path, dbdir, capsys, text):
    q = write(tmp_path / "q.cq", text)
    for command in ("eval", "enumerate"):
        argv = [command, "--query", q, "--db", str(dbdir), "--limit"]
        assert main(argv + ["0"]) == 0
        assert capsys.readouterr().out == ""
        assert main(argv + ["-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err


def test_eval_verify_on_fo_disjunction_exits_one(tmp_path, dbdir, capsys):
    q = write(tmp_path / "q.cq", "H(x) :- R(x,x) ; S(x,x).")
    (dbdir / "vocab.json").write_text(json.dumps({"relations": {"R": 2, "S": 2}, "constants": {}}))
    (dbdir / "S.csv").write_text("2,2,3\n")
    assert main(["eval", "--query", q, "--db", str(dbdir), "--verify"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "independent evaluator" in captured.err


def test_eval_non_free_connex_warns_and_uses_oracle(tmp_path, dbdir, capsys):
    q = write(tmp_path / "q.cq", "H(x,y) :- R(x,z), R2(z,y).")
    (dbdir / "vocab.json").write_text(
        json.dumps({"relations": {"R": 2, "R2": 2}, "constants": {}})
    )
    (dbdir / "R2.csv").write_text("2,5,1\n")
    assert main(["eval", "--query", q, "--db", str(dbdir)]) == 0
    captured = capsys.readouterr()
    assert "not free-connex" in captured.err
    assert sorted(captured.out.strip().splitlines()) == ["1,5,2", "3,5,1"]


def test_eval_fo_disjunction_routes_to_oracle(tmp_path, dbdir, capsys):
    q = write(tmp_path / "q.cq", "H(x) :- R(x,x) ; S(x).")
    (dbdir / "R.csv").write_text("2,2,4\n")
    assert main(["eval", "--query", q, "--db", str(dbdir)]) == 0
    captured = capsys.readouterr()
    assert "disjunction" in captured.err
    assert sorted(captured.out.strip().splitlines()) == ["2,7"]


def test_eval_unsafe_union_exits_one(tmp_path, dbdir, capsys):
    q = write(tmp_path / "q.cq", "H(x) :- R(x) ; S(y).")
    assert main(["eval", "--query", q, "--db", str(dbdir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "unsafe" in captured.err
    assert "Traceback" not in captured.err


def test_eval_out_jsonl(tmp_path, dbdir, capsys):
    q = write(tmp_path / "q.cq", "H(x) :- R(x,y), S(y).")
    assert main(["eval", "--query", q, "--db", str(dbdir), "--out", "jsonl"]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert sorted(lines, key=lambda d: d["tuple"]) == [
        {"tuple": [1], "annotation": "6"},
        {"tuple": [3], "annotation": "3"},
    ]


def test_eval_json_reports_count_and_preprocess_time(tmp_path, dbdir, capsys):
    q = write(tmp_path / "q.cq", "H(x) :- R(x,y), S(y).")
    assert main(["eval", "--query", q, "--db", str(dbdir), "--json"]) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.err)
    assert report["count"] == len(captured.out.splitlines()) == 2
    assert report["timing"]["preprocess_s"] >= 0


def test_eval_json_on_a_union_reports_the_count(tmp_path, dbdir, monkeypatch, capsys):
    # the oracle path reports like the non-free-connex fallback: a count and
    # an empty timing; the rule's text is tokenized and parsed once
    from deltaenum import query

    parse, calls = query._Parser.parse_rule, []

    def counted(self):
        calls.append(self)
        return parse(self)

    monkeypatch.setattr(query._Parser, "parse_rule", counted)
    q = write(tmp_path / "q.cq", "H(x) :- R(x,x) ; S(x).")
    (dbdir / "R.csv").write_text("2,2,4\n1,1,1\n")
    assert main(["eval", "--query", q, "--db", str(dbdir), "--json"]) == 0
    captured = capsys.readouterr()
    warning, line = captured.err.splitlines()
    assert "disjunction" in warning
    assert json.loads(line) == {"count": len(captured.out.splitlines()), "timing": {}}
    assert sorted(captured.out.splitlines()) == ["1,1", "2,7"]
    assert len(calls) == 1


def test_dyn_enumerate_after_each(tmp_path, dbdir, capsys):
    q = write(tmp_path / "q.cq", "H(x) :- R(x,y).")
    ups = write(tmp_path / "u.ups", "+ R 1 5 3\n- R 3 2\n")
    argv = ["dyn", "--query", q, "--db", str(dbdir), "--updates", ups, "--enumerate-after-each"]
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "# after update 1: 2 answers"
    assert sorted(out[1:3]) == ["1,5", "3,1"]
    assert out[3:] == ["# after update 2: 1 answers", "1,5"]


def test_dyn_rejects_a_data_value_below_1_before_any_update(tmp_path, dbdir, capsys):
    # the script is read in full before preprocessing: no answer is printed
    q = write(tmp_path / "q.cq", "H(x) :- R(x,y).")
    ups = write(tmp_path / "u.ups", "+ R 1 2 3\n+ R 0 2 3\n")
    argv = ["dyn", "--query", q, "--db", str(dbdir), "--updates", ups, "--enumerate-after-each"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {ups}:2: data values must be positive integers, got (0, 2)\n"


@pytest.mark.parametrize(
    "update, message",
    [
        ("+ R 1 2", "tuple (1,) has arity 1, relation 'R' expects 2"),
        ("+ T 1 2 1", "unknown relation symbol 'T'"),
    ],
)
def test_dyn_checks_every_updates_symbol_and_arity_before_any_update(tmp_path, dbdir, capsys, update, message):
    # the first update is valid, yet nothing is printed for it
    q = write(tmp_path / "q.cq", "H(x) :- R(x,y).")
    ups = write(tmp_path / "u.ups", f"+ R 1 5 3\n{update}\n")
    argv = ["dyn", "--query", q, "--db", str(dbdir), "--updates", ups, "--enumerate-after-each"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {ups}: update 2: {message}\n"


def test_classify_plain_text_names_the_witness(tmp_path, capsys):
    q = write(tmp_path / "q.cq", "H(x) :- R(x), x <= 1.")
    assert main(["classify", q]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "query: H(x) :- R(x), x <= 1."
    assert "constant_disjoint: False" in lines
    assert lines[-1] == "constant_disjoint_witness: (IneqAtom(var='x', bound='1'), None)"


def test_plan_outputs_graphviz(tmp_path, capsys):
    q = write(tmp_path / "q.cq", "H(x) :- R(x,y), S(y).")
    assert main(["plan", q]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph plan {")


def test_plan_json_is_stable(tmp_path, capsys):
    q = write(tmp_path / "q.cq", "H(x) :- R(x,y), S(y).")
    assert main(["plan", q, "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["plan", q, "--json"]) == 0
    assert capsys.readouterr().out == first
    json.loads(first)


@pytest.mark.parametrize("guarded", [False, True])
def test_plan_json_reports_the_walk(tmp_path, capsys, guarded):
    from deltaenum.planner import build_plan
    from deltaenum.query import parse_query

    text = "H(x,y,z) :- R(x,y), S(y,z)."
    q = write(tmp_path / "q.cq", text)
    assert main(["plan", q, "--json", *(["--guarded"] if guarded else [])]) == 0
    walk = json.loads(capsys.readouterr().out)["walk"]
    loops = [line for line in walk.splitlines() if line.lstrip().startswith("for ")]
    assert len(loops) == len(build_plan(parse_query(text), guarded).levels) == (3 if guarded else 2)


def test_plan_json_reports_the_leaf_keys(tmp_path, capsys):
    from deltaenum.planner import build_fc_plan
    from deltaenum.query import parse_query
    from deltaenum.static_engine import leaf_key

    # R(x,y) covers y <= c and R(x,x) repeats x; S(x)'s key is its one value
    text = "H(x,y) :- R(x,y), R(x,x), S(x), y <= c."
    q = write(tmp_path / "q.cq", text)
    assert main(["plan", q, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    query = parse_query(text)
    plan = build_fc_plan(query)
    keys = {n: leaf_key(plan, n) for n in plan.nodes if plan.nodes[n].is_leaf}
    labels = {n["id"]: n["label"] for n in report["nodes"]}
    assert sorted(labels[n] for n, key in keys.items() if key != (None, "t")) == ["R(x, x)", "R(x, y)", "S(x)"]
    assert keys[min(keys)] == ("t[1] > bounds[0]", "t")  # R(x,y) is tested, not re-keyed
    assert [key for n, key in keys.items() if labels[n] == "S(x)"] == [(None, "t[0]")]  # re-keyed, not tested
    # the loop that reads a keyed leaf's entries writes its test, then its key
    for n, (miss, key) in keys.items():
        lines = ([f"if {miss}:", "    continue"] if miss else []) + ([f"t = {key}"] if key != "t" else [])
        loop = f"in entries[{n}].items():\n" + "".join(f"        {line}\n" for line in lines)
        assert (loop in report["build"]) == bool(lines)
    assert "keys" not in report


def test_plan_marks_the_stored_nodes(tmp_path, capsys):
    # the project_agg benchmark query: only T, the projection onto y and the
    # root keep a relation; the other nodes stream into their parent's pass
    q = write(tmp_path / "q.cq", "H(x,w) :- R(x,y), S(y,z), T(z), y <= alpha, w <= beta.")
    assert main(["plan", q, "--json"]) == 0
    nodes = json.loads(capsys.readouterr().out)["nodes"]
    stored = sorted(n["label"] if n["kind"] == "leaf" else ",".join(n["label"]) for n in nodes if n["stored"])
    assert stored == ["T(z)", "x", "y"]
    assert main(["plan", q]) == 0
    dot = capsys.readouterr().out.splitlines()
    marked = sorted(line.split('"')[1] for line in dot if "peripheries=2" in line)
    assert marked == ["T(z)", "{x}", "{y}"]


def test_dyn_with_verify(tmp_path, dbdir, capsys):
    q = write(tmp_path / "q.cq", "H(x) :- R(x,y), U(x).")
    (dbdir / "vocab.json").write_text(
        json.dumps({"relations": {"R": 2, "U": 1}, "constants": {}})
    )
    (dbdir / "U.csv").write_text("1,1\n3,2\n")
    ups = write(tmp_path / "u.ups", "+ R 1 5 3\n- R 3 2\n+ U 2 1\n")
    assert main(["dyn", "--query", q, "--db", str(dbdir), "--updates", ups, "--verify"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert sorted(out) == ["1,5"]


@pytest.mark.parametrize("semiring", ["natural", "real"])
def test_dyn_verify_over_a_self_join_with_later_identity_leaves(tmp_path, capsys, semiring):
    from deltaenum.kdata import apply_update, load_database, parse_update_script
    from deltaenum.oracle import oracle_eval_cq
    from deltaenum.query import parse_query
    from deltaenum.semiring import builtin_semiring

    # R(y,x) is R's first leaf in postorder, so each R(x,y) has a copy of
    # R's entries, which its own path writes
    text = "H(x,y) :- R(y,x), U(x), R(x,y), R(x,y)."
    q = write(tmp_path / "q.cq", text)
    data = tmp_path / "db"
    data.mkdir()
    (data / "vocab.json").write_text(json.dumps({"relations": {"R": 2, "U": 1}, "constants": {}}))
    (data / "R.csv").write_text("1,2,1\n2,1,2\n2,2,3\n3,1,1\n")
    (data / "U.csv").write_text("1,1\n2,3\n")
    # quarters keep every real sum and product exact in any order
    values = [1, 2, 3] if semiring == "natural" else [-1.5, -0.25, 0.5, 2.0]
    rng = random.Random(3501)
    lines = []
    for _ in range(48):
        symbol = rng.choice("RRU")
        t = " ".join(str(rng.randint(1, 3)) for _ in range(2 if symbol == "R" else 1))
        lines.append(f"+ {symbol} {t} {rng.choice(values)}" if rng.random() < 0.6 else f"- {symbol} {t}")
    ups = write(tmp_path / "u.ups", "".join(line + "\n" for line in lines))
    argv = ["dyn", "--query", q, "--db", str(data), "--updates", ups, "--semiring", semiring, "--verify"]
    assert main(argv) == 0
    s = builtin_semiring(semiring)
    db = load_database(data / "vocab.json", data, s)
    for u in parse_update_script(ups, s):
        apply_update(db, u)
    want = oracle_eval_cq(parse_query(text), db).entries
    assert want
    assert sorted(capsys.readouterr().out.splitlines()) == sorted(",".join([*map(str, t), s.format(v)]) for t, v in want.items())


def test_dyn_verify_compares_the_preprocessed_state(tmp_path, dbdir, monkeypatch, capsys):
    from deltaenum import dynamic_engine

    q = write(tmp_path / "q.cq", "H(x,y) :- R(x,y), S(y).")
    ups = write(tmp_path / "u.ups", "")
    argv = ["dyn", "--query", q, "--db", str(dbdir), "--updates", ups, "--verify"]
    assert main(argv) == 0
    assert sorted(capsys.readouterr().out.splitlines()) == ["1,2,6", "3,2,3"]
    dyn_enumerate = dynamic_engine.dyn_enumerate
    monkeypatch.setattr(dynamic_engine, "dyn_enumerate", lambda state: _drop_first(dyn_enumerate(state)))
    assert main(argv) == 2
    assert "verification mismatch after preprocessing" in capsys.readouterr().err


def test_matlang_cli_roundtrip(tmp_path, capsys):
    schema = write(
        tmp_path / "s.json",
        json.dumps(
            {
                "sizes": {"alpha": 2, "beta": 2},
                "matrices": {
                    "A": {"type": ["alpha", "beta"]},
                    "U": {"type": ["alpha", "1"]},
                    "V": {"type": ["beta", "1"]},
                },
            }
        ),
    )
    expr = write(tmp_path / "e.ml", "H := A .* (U * V^T)\n")
    data = tmp_path / "data"
    data.mkdir()
    (data / "A.coo").write_text("1 1 2\n2 2 7\n")
    (data / "U.coo").write_text("1 1 3\n")
    (data / "V.coo").write_text("1 1 5\n")

    assert main(["matlang", "classify", "--expr", expr, "--schema", schema, "--json"]) == 0
    flags = json.loads(capsys.readouterr().out)
    assert flags["fc_matlang"]

    assert main(["matlang", "compile", "--expr", expr, "--schema", schema, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert "cq" in report

    assert main(
        ["matlang", "eval", "--expr", expr, "--schema", schema, "--data", str(data), "--verify"]
    ) == 0
    assert capsys.readouterr().out.strip().splitlines() == ["1 1 30"]


def test_eval_tropical_semiring_with_inf_serialization(tmp_path, capsys):
    import json as _json

    d = tmp_path / "tdb"
    d.mkdir()
    (d / "vocab.json").write_text(_json.dumps({"relations": {"R": 2}, "constants": {}}))
    (d / "R.csv").write_text("1,2,3.5\n1,3,1.0\n")
    q = write(tmp_path / "q.cq", "H(x) :- R(x,y).")
    assert main(["eval", "--query", q, "--db", str(d), "--semiring", "tropical-min", "--verify"]) == 0
    assert capsys.readouterr().out.strip().splitlines() == ["1,1.0"]


def test_eval_verify_on_non_free_connex_exits_one(tmp_path, dbdir, capsys):
    q = write(tmp_path / "q.cq", "H(x,y) :- R(x,z), R(z,y).")
    assert main(["eval", "--query", q, "--db", str(dbdir), "--verify"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "independent evaluator" in captured.err


def _matlang_files(tmp_path, matrices, expr_text, sizes=None):
    schema = write(
        tmp_path / "s.json",
        json.dumps({"sizes": sizes or {"a": 2, "b": 3}, "matrices": matrices}),
    )
    expr = write(tmp_path / "e.ml", expr_text)
    data = tmp_path / "data"
    data.mkdir(exist_ok=True)
    (data / "A.coo").write_text("1 1 2\n2 3 7\n")
    return ["--expr", expr, "--schema", schema, "--data", str(data)]


def test_matlang_eval_verify_with_addition_exits_one(tmp_path, capsys):
    files = _matlang_files(tmp_path, {"A": {"type": ["a", "b"]}}, "H := A + A\n")
    assert main(["matlang", "eval", *files]) == 0
    assert capsys.readouterr().out.strip().splitlines() == ["1 1 4", "2 3 14"]
    assert main(["matlang", "eval", *files, "--verify"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "independent evaluator" in captured.err


@pytest.mark.parametrize("action", ["classify", "compile"])
def test_matlang_verify_outside_eval_exits_one(tmp_path, capsys, action):
    files = _matlang_files(tmp_path, {"A": {"type": ["a", "b"]}}, "H := A .* A\n")[:4]
    assert main(["matlang", action, *files]) == 0
    capsys.readouterr()
    assert main(["matlang", action, *files, "--verify"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: --verify applies to matlang eval")


def test_matlang_head_type_mismatch_exits_one(tmp_path, capsys):
    matrices = {"H": {"type": ["a", "a"]}, "A": {"type": ["a", "b"]}}
    files = _matlang_files(tmp_path, matrices, "H := A\n")
    for action in ("compile", "eval"):
        assert main(["matlang", action, *files, "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "declared" in captured.err


@pytest.mark.parametrize(
    "schema_doc",
    [
        ["a", "b"],  # top-level array
        {"sizes": {"a": 2}, "matrices": {"A": ["a", "a"]}},  # declaration not an object
        {"sizes": {"a": "2"}, "matrices": {"A": {"type": ["a", "a"]}}},  # size as a string
    ],
)
def test_malformed_matrix_schema_exits_one(tmp_path, capsys, schema_doc):
    schema = write(tmp_path / "s.json", json.dumps(schema_doc))
    expr = write(tmp_path / "e.ml", "H := A\n")
    assert main(["matlang", "classify", "--expr", expr, "--schema", schema]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_vocabulary_top_level_array_exits_one(tmp_path, dbdir, capsys):
    (dbdir / "vocab.json").write_text(json.dumps([{"relations": {"R": 2}}]))
    q = write(tmp_path / "q.cq", "H(x,y) :- R(x,y).")
    assert main(["eval", "--query", q, "--db", str(dbdir)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("vocab", [{"relations": {"R": False}}, {"relations": {"R": 2}, "constants": {"c": True}}])
def test_vocabulary_boolean_numbers_exit_one(tmp_path, dbdir, capsys, vocab):
    (dbdir / "vocab.json").write_text(json.dumps(vocab))
    q = write(tmp_path / "q.cq", "H(x,y) :- R(x,y).")
    assert main(["eval", "--query", q, "--db", str(dbdir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {dbdir / 'vocab.json'}: ")


def test_matlang_eval_missing_data_directory_exits_one(tmp_path, capsys):
    files = _matlang_files(tmp_path, {"A": {"type": ["a", "b"]}}, "H := A .* A\n")
    missing = str(tmp_path / "nowhere")
    files[files.index("--data") + 1] = missing
    assert main(["matlang", "eval", *files]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and missing in captured.err


def test_matlang_eval_without_data_exits_one(tmp_path, capsys):
    files = _matlang_files(tmp_path, {"A": {"type": ["a", "b"]}}, "H := A .* A\n")
    del files[files.index("--data"):]
    assert main(["matlang", "eval", *files]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "--data" in captured.err


MATRIX_A = {"sizes": {"a": 2}, "matrices": {"A": {"type": ["a", "a"]}}}


@pytest.mark.parametrize(
    "argv, doc, text, message",
    [
        # matrix schemas
        (["matlang", "classify"], {"sizes": {"1": 2}}, "H := A", "the size symbol '1' always denotes 1"),
        (["matlang", "classify"], {"sizes": {"m": 0}}, "H := A", "size symbol 'm' must be positive"),
        (["matlang", "classify"], {"matrices": {"A": {"type": ["a", "1"]}}}, "H := A", "undeclared size symbol 'a'"),
        (["matlang", "classify"], {"matrices": {"A": {"type": ["1", "1"], "encoding": "ternary"}}}, "H := A", "unknown encoding 'ternary'"),
        (["matlang", "classify"], {**MATRIX_A, "matrices": {"A": {"type": ["a", "a"], "encoding": "unary"}}}, "H := A", "unary encoding needs a vector type"),
        (["matlang", "classify"], {**MATRIX_A, "matrices": {"A": {"type": ["a", "1"], "encoding": "nullary"}}}, "H := A", "nullary encoding needs a scalar type"),
        (["matlang", "classify"], {"sizes": [2]}, "H := A", "'sizes' and 'matrices' must be JSON objects"),
        (["matlang", "classify"], {"matrices": {"A": {"type": "a"}}}, "H := A", "needs a [rows, cols] type"),
        # vocabularies
        (["eval"], {"relations": ["R"]}, "H(x,y) :- R(x,y).", "'relations' and 'constants' must be JSON objects"),
        (["eval"], {"relations": {"R": 2}, "constants": {"1": 2}}, "H(x,y) :- R(x,y).", "the constant symbol '1' must be bound to 1"),
        # type checking
        (["matlang", "classify"], MATRIX_A, "H := B", "unknown matrix symbol 'B'"),
        (["matlang", "classify"], MATRIX_A, "H := ones(q)", "ones(q) uses an unknown size symbol"),
        (["matlang", "classify"], MATRIX_A, "H := eye(q)", "eye(q) uses an unknown size symbol"),
        (["matlang", "classify"], MATRIX_A, "H := sum(v:q, A)", "sum variable 'v' uses unknown size 'q'"),
        # query text
        (["classify"], None, "H(1) :- R(1).", "'1' is a reserved constant symbol"),
        (["classify"], None, "H(x) :- R x.", "expected '(' or '<=' after identifier"),
        # translation
        (["matlang", "compile"], MATRIX_A, "H := A + A", "matrix addition has no conjunctive translation"),
    ],
)
def test_reachable_input_errors_exit_one(tmp_path, dbdir, capsys, argv, doc, text, message):
    if argv[0] == "matlang":
        argv = [*argv, "--expr", write(tmp_path / "e.ml", text), "--schema", write(tmp_path / "s.json", json.dumps(doc))]
    elif argv[0] == "eval":
        (dbdir / "vocab.json").write_text(json.dumps(doc))
        argv = [*argv, "--query", write(tmp_path / "q.cq", text), "--db", str(dbdir)]
    else:
        argv = [*argv, write(tmp_path / "q.cq", text)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert captured.out == "" and line.startswith("error: ") and message in line
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "deep, at_cap",
    [
        pytest.param(lambda n: "(" * n + "A" + ")" * n, ["classify", "compile", "eval"], id="parentheses"),
        pytest.param(lambda n: "A" + "^T" * (n - 1), ["classify", "compile", "eval"], id="transposes"),
        # the cap bounds no evaluator's cost: the oracle joins the path a product
        # chain translates to before it projects
        pytest.param(lambda n: " * ".join(["A"] * n), ["classify", "compile"], id="products"),
        pytest.param(lambda n: "sum(v:a, " * (n - 1) + "A" + ")" * (n - 1), ["classify", "compile", "eval"], id="sums"),
    ],
)
def test_matlang_expressions_are_at_most_max_depth_deep(tmp_path, capsys, deep, at_cap):
    from deltaenum.matlang import MAX_DEPTH

    files = _matlang_files(tmp_path, {"A": {"type": ["a", "a"]}}, f"H := {deep(MAX_DEPTH)}\n", sizes={"a": 2})
    (tmp_path / "data" / "A.coo").write_text("1 1 2\n2 1 3\n")
    for action in at_cap:
        assert main(["matlang", action, *files, *(["--verify"] if action == "eval" else [])]) == 0
    capsys.readouterr()
    write(tmp_path / "e.ml", f"H := {deep(10_000)}\n")
    for action in ("classify", "compile", "eval"):
        assert main(["matlang", action, *files]) == 1
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert captured.out == "" and line.startswith("error: the expression ")
        assert "Traceback" not in captured.err


def test_matlang_eval_verify_of_nested_sums_that_ignore_their_variable(tmp_path, capsys):
    # the dense evaluator evaluates a body that does not read its variable
    # once per sum, not once per canonical vector of every enclosing sum
    from deltaenum.matlang import MAX_DEPTH

    nested = "sum(v:a, " * (MAX_DEPTH - 1) + "A" + ")" * (MAX_DEPTH - 1)
    files = _matlang_files(tmp_path, {"A": {"type": ["a", "a"]}}, f"H := {nested}\n", sizes={"a": 2})
    (tmp_path / "data" / "A.coo").write_text("1 1 2\n1 2 5\n2 2 7\n")
    start = time.perf_counter()
    assert main(["matlang", "eval", *files, "--verify"]) == 0
    assert time.perf_counter() - start < 10
    assert capsys.readouterr().out.splitlines() == [f"{i} {j} {v * 2 ** 99}" for i, j, v in [(1, 1, 2), (1, 2, 5), (2, 2, 7)]]


@pytest.mark.parametrize("missing", ["query", "db", "updates", "schema", "expr"])
def test_missing_input_file_exits_one(tmp_path, dbdir, capsys, missing):
    nope = str(tmp_path / "nope")
    q = write(tmp_path / "q.cq", "H(x) :- R(x,y).")
    ups = write(tmp_path / "u.ups", "+ R 1 5 3\n")
    files = _matlang_files(tmp_path, {"A": {"type": ["a", "b"]}}, "H := A\n")
    if missing in ("query", "db"):
        args = ["eval", "--query", q, "--db", str(dbdir)]
    elif missing == "updates":
        args = ["dyn", "--query", q, "--db", str(dbdir), "--updates", ups]
    else:
        args = ["matlang", "classify", *files]
    args[args.index(f"--{missing}") + 1] = nope
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and nope in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("data", ["csv", "coo"])
def test_data_file_that_is_a_directory_exits_one(tmp_path, dbdir, capsys, data):
    if data == "csv":
        q = write(tmp_path / "q.cq", "H(x) :- R(x,y).")
        (dbdir / "R.csv").unlink()
        (dbdir / "R.csv").mkdir()
        args, bad = ["eval", "--query", q, "--db", str(dbdir)], str(dbdir / "R.csv")
    else:
        files = _matlang_files(tmp_path, {"A": {"type": ["a", "b"]}}, "H := A .* A\n")
        data_dir = tmp_path / "data"
        (data_dir / "A.coo").unlink()
        (data_dir / "A.coo").mkdir()
        args, bad = ["matlang", "eval", *files], str(data_dir / "A.coo")
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad}: cannot read: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("text", ["H(w) :- w <= c.", "H() :- u <= c."])
def test_dyn_answers_inequality_only_queries_like_eval(tmp_path, dbdir, capsys, text):
    q = write(tmp_path / "q.cq", text)
    ups = write(tmp_path / "u.ups", "+ R 1 5 3\n- S 2\n")
    assert main(["eval", "--query", q, "--db", str(dbdir)]) == 0
    want = capsys.readouterr().out
    assert want
    assert main(["dyn", "--query", q, "--db", str(dbdir), "--updates", ups, "--verify"]) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("guarded", [False, True])
def test_plan_exits_one_only_when_the_query_has_no_plan(tmp_path, capsys, guarded):
    # an inequality-only query has the plan with no nodes; a query that is
    # not free-connex (not q-hierarchical, when guarded) has none
    message = f"no plan: query is not {'q-hierarchical' if guarded else 'free-connex'}\n"
    cases = [
        ("H(w) :- w <= c.", ""),
        ("H(x) :- A(x,y), U(y).", message if guarded else ""),
        ("H(x,y) :- A(x,z), B(z,y).", message),
    ]
    for i, (text, err) in enumerate(cases):
        q = write(tmp_path / f"q{i}.cq", text)
        assert main(["plan", q, *(["--guarded"] if guarded else [])]) == (1 if err else 0)
        captured = capsys.readouterr()
        assert captured.err == err
        assert (captured.out == "") == bool(err)


@pytest.mark.parametrize(
    "text, bounds",
    [
        ("H(w) :- w <= c.", ["w"]),
        ("H() :- u <= c.", ["u"]),
        ("H(w,v) :- w <= d, v <= d, u <= c.", ["u", "v", "w"]),
        ("H(w,w) :- w <= c, w <= d.", ["w"]),
    ],
)
def test_inequality_only_queries_have_the_plan_with_no_nodes(tmp_path, capsys, monkeypatch, text, bounds):
    from deltaenum import dynamic_engine, static_engine
    from deltaenum.codegen import compile_source
    from deltaenum.kdata import AnnotatedRelation, Database, SingleTupleUpdate
    from deltaenum.oracle import oracle_eval_cq
    from deltaenum.planner import build_fc_plan, build_guarded_plan, classify
    from deltaenum.query import parse_query
    from deltaenum.semiring import builtin_semiring
    from support import relational_free, verify_plan

    q = parse_query(text)
    for plan in (build_fc_plan(q), build_guarded_plan(q)):
        assert not plan.nodes and plan.root is None and not plan.levels and not plan.stored
        assert verify_plan(plan, relational_free(q)) == []
    assert all(classify(q).as_dict().values())

    # static, dynamic and oracle answers agree, also after an insert into a
    # relation the query does not read
    db = Database(builtin_semiring("natural"), {"R": AnnotatedRelation(1, {(1,): 2})}, {"c": 3, "d": 2})
    state = dynamic_engine.dyn_preprocess(q, db)
    for step in range(2):
        if step:
            dynamic_engine.dyn_update(state, SingleTupleUpdate("insert", "R", (2,), 5))
        static = list(static_engine.enumerate_state(static_engine.preprocess(q, db.copy())))
        assert static and list(dynamic_engine.dyn_enumerate(state)) == static
        assert dict(static) == oracle_eval_cq(q, db).entries

    # plan --json prints exactly the walk and the build, which has nothing
    # to build, that preprocessing compiles, and the variable behind each of
    # the walk's bounds
    compiled = []

    def recording(source, name):
        compiled.append(source)
        return compile_source(source, name)

    monkeypatch.setattr(static_engine, "compile_source", recording)
    monkeypatch.setattr(dynamic_engine, "compile_source", recording)
    path = write(tmp_path / "q.cq", text)
    for guarded, prep in ((False, static_engine.preprocess), (True, dynamic_engine.dyn_preprocess)):
        compiled.clear()
        prep(q, db.copy())
        assert main(["plan", path, "--json", *(["--guarded"] if guarded else [])]) == 0
        walk, build = compiled
        assert build == "def build(state, entries):\n    pass\n"
        want = {"query": q.to_text(), "guarded": guarded, "root": None, "nodes": [], "walk": walk, "build": build, "bounds": bounds}
        if guarded:
            want.update(updates={})
        assert json.loads(capsys.readouterr().out) == want


def test_matlang_eval_verify_real_allows_summation_order(tmp_path, capsys):
    # the engine and the dense evaluator add 0.3, 0.2 and 0.1 in different
    # orders, which differ in the last bit
    matrices = {"A": {"type": ["n", "n"]}}
    files = _matlang_files(tmp_path, matrices, "H := A * ones(n)\n", sizes={"n": 3})
    (tmp_path / "data" / "A.coo").write_text("1 3 0.3\n1 2 0.2\n1 1 0.1\n")
    assert main(["matlang", "eval", *files, "--semiring", "real", "--verify"]) == 0
    (line,) = capsys.readouterr().out.strip().splitlines()
    assert line.startswith("1 1 0.6")


def test_eval_verify_real_tolerance_is_relative(tmp_path, capsys):
    # annotations of magnitude 1e6 give answers near 1e12, where one ulp is
    # about 1.2e-4: the engine and the oracle add in different orders and
    # differ in the last digits
    rng = random.Random(1)
    data = tmp_path / "db"
    data.mkdir()
    (data / "vocab.json").write_text(json.dumps({"relations": {"R": 2, "S": 2}}))
    r = {(rng.randrange(1, 4), y): rng.uniform(-1e6, 1e6) for y in range(1, 30)}
    s = {(rng.randrange(1, 30), z): rng.uniform(-1e6, 1e6) for z in range(1, 60)}
    for name, rel in (("R", r), ("S", s)):
        (data / f"{name}.csv").write_text("".join(f"{a},{b},{k!r}\n" for (a, b), k in rel.items()))
    q = write(tmp_path / "q.cq", "H(x) :- R(x,y), S(y,z).")
    assert main(["eval", "--query", q, "--db", str(data), "--semiring", "real", "--verify"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == len({x for x, _ in r})


@pytest.mark.parametrize("where", ["updates", "csv"])
def test_non_finite_real_annotation_exits_one(tmp_path, dbdir, capsys, where):
    # inserting inf and deleting it again left nan in the maintained sums
    q = write(tmp_path / "q.cq", "H(x) :- R(x,y).")
    ups = write(tmp_path / "u.ups", "+ R 1 2 inf\n- R 1 2\n")
    if where == "csv":
        (dbdir / "R.csv").write_text("1,1,1.0\n1,3,inf\n")
        ups = write(tmp_path / "u.ups", "- R 1 3\n")
    args = ["dyn", "--query", q, "--db", str(dbdir), "--updates", ups, "--semiring", "real"]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "finite" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("where", ["csv", "updates", "vocab", "csv-field"])
def test_undecodable_or_oversized_input_exits_one(tmp_path, dbdir, capsys, where):
    q = write(tmp_path / "q.cq", "H(x) :- R(x,y).")
    ups = write(tmp_path / "u.ups", "+ R 1 5 3\n")
    if where == "csv":
        bad, line = dbdir / "R.csv", 2
        bad.write_bytes(b"1,2,2\n3,\xff,1\n")
    elif where == "updates":
        bad, line = tmp_path / "u.ups", 3
        bad.write_bytes(b"+ R 1 5 3\n- R 1 5\n+ R 2 2 \xff\n")
    elif where == "vocab":
        bad, line = dbdir / "vocab.json", 1
        bad.write_bytes(b'{"relations": {"R\xff": 2}}')
    else:
        # a quoted field longer than the csv module's field size limit
        bad, line = dbdir / "R.csv", 2
        bad.write_text('1,2,2\n"' + "1" * 200_000 + '",2,1\n')
    args = ["dyn", "--query", q, "--db", str(dbdir), "--updates", ups]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad}:{line}: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "command, text, warns",
    [
        ("eval", "H(x) :- R(x,y), S(y).", False),
        ("eval", "H(x,y) :- R(x,z), R(y,z).", True),
        ("enumerate", "H(x) :- R(x,y), S(y).", False),
        ("dyn", "H(x) :- R(x,y).", False),
        ("matlang", "H := A .* A\n", False),
        ("matlang", "H := A * A^T\n", True),
    ],
)
def test_each_command_plans_once(tmp_path, dbdir, monkeypatch, capsys, command, text, warns):
    # the engine's preprocess decides between the engine and the oracle; no
    # command classifies the query before it
    from deltaenum import planner

    build_plan, calls = planner.build_plan, []

    def counted(*args, **kwargs):
        calls.append(args)
        return build_plan(*args, **kwargs)

    monkeypatch.setattr(planner, "build_plan", counted)
    if command == "matlang":
        argv = ["matlang", "eval", *_matlang_files(tmp_path, {"A": {"type": ["a", "b"]}}, text)]
    else:
        argv = [command, "--query", write(tmp_path / "q.cq", text), "--db", str(dbdir)]
        if command == "enumerate":
            argv += ["--limit", "1"]
        elif command == "dyn":
            argv += ["--updates", write(tmp_path / "u.ups", "+ R 1 5 3\n")]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out
    assert ("not free-connex" in captured.err) == warns
    assert len(calls) == 1


def test_eval_of_an_inequality_only_query_runs_on_the_engine(tmp_path, dbdir, capsys):
    # it has no plan, as it has no relational atoms, and needs none
    q = write(tmp_path / "q.cq", "H(w) :- w <= c.")
    assert main(["eval", "--query", q, "--db", str(dbdir), "--verify"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["1,1", "2,1", "3,1"]
    assert captured.err == ""


def test_matlang_eval_json_reports_used_engine(tmp_path, capsys):
    files = _matlang_files(tmp_path, {}, "H := ones(n) * ones(n)^T\n", sizes={"n": 2})
    assert main(["matlang", "eval", *files, "--json"]) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert sorted(report) == ["entries", "head", "used_engine"]
    assert report["used_engine"] and len(report["entries"]) == 4
    assert captured.err == ""


def test_matlang_eval_of_a_binary_vector_head_runs_on_the_engine(tmp_path, capsys):
    # U and the head H are (a, 1) vectors stored as binary relations: the
    # head's index of size 1 is summed out in U, so the CQ is free-connex
    matrices = {"B": {"type": ["b", "a"]}, "U": {"type": ["a", "1"]}}
    files = _matlang_files(tmp_path, matrices, "H := B * U\n")
    data = tmp_path / "data"
    (data / "B.coo").write_text("1 1 2\n2 1 3\n2 2 5\n3 2 1\n")
    (data / "U.coo").write_text("1 1 4\n2 1 7\n")
    assert main(["matlang", "eval", *files, "--json", "--verify"]) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["used_engine"] and captured.err == ""
    assert [(e["i"], e["j"], e["value"]) for e in report["entries"]] == [(1, 1, "8"), (2, 1, "47"), (3, 1, "7")]


def test_plan_json_reports_the_update_paths(tmp_path, capsys):
    from deltaenum.dynamic_engine import update_source
    from deltaenum.planner import build_guarded_plan
    from deltaenum.query import parse_query
    from deltaenum.semiring import builtin_semiring
    from deltaenum.static_engine import leaf_key

    text = "H(x) :- R(x,y), R(x,x), S(x)."
    q = write(tmp_path / "q.cq", text)
    assert main(["plan", q, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert "updates" not in report
    assert main(["plan", q, "--json", "--guarded"]) == 0
    report = json.loads(capsys.readouterr().out)
    plan = build_guarded_plan(parse_query(text))
    leaves = {
        symbol: [n for n in plan.postorder() if plan.nodes[n].is_leaf and plan.atoms[plan.nodes[n].atom_index].symbol == symbol]
        for symbol in ("R", "S")
    }
    # R(x,x) is R's one leaf keyed, and its path writes its test and key;
    # S(x)'s key is its one value, which its path writes untested
    keys = {n: leaf_key(plan, n) for ns in leaves.values() for n in ns}
    (keyed,) = [n for n in leaves["R"] if keys[n] != (None, "t")]
    assert plan.atoms[plan.nodes[keyed].atom_index].args == ("x", "x")
    assert [keys[n] for n in leaves["S"]] == [(None, "t[0]")]
    # one update step per symbol, with one path per leaf of the symbol
    natural = builtin_semiring("natural")
    assert report["updates"] == {s: update_source(plan, s, natural) for s in leaves}
    assert report["updates"]["R"].count("def make(") == 1
    assert [report["updates"]["R"].count(f"def path{n}(") for n in leaves["R"]] == [1, 1]
    miss, key = keys[keyed]
    assert report["updates"]["R"].count(f"if {miss}:\n            return\n        k{keyed} = {key}\n") == 1
    assert f"def path{leaves['S'][0]}(t, old, new):\n        k{leaves['S'][0]} = t[0]\n" in report["updates"]["S"]
    # the step checks a tuple of R's arity
    assert "if len(t) != 2 or t[0] < 1 or t[1] < 1:" in report["updates"]["R"]
    assert "if len(t) != 1 or t[0] < 1:" in report["updates"]["S"]


@pytest.mark.parametrize("semiring", ["natural", "tropical-min"])
def test_plan_json_prints_update_paths_only_for_sum_maintainable_semirings(tmp_path, capsys, semiring):
    from deltaenum.semiring import builtin_semiring

    # dyn refuses tropical-min, which has no sub for the projections' sums
    text = "H(x,w) :- R(x,y), S(x,y,z), U(x,x), z <= c, w <= d."
    q = write(tmp_path / "q.cq", text)
    assert main(["plan", q, "--json", "--guarded", "--semiring", semiring]) == 0
    report = json.loads(capsys.readouterr().out)
    maintainable = builtin_semiring(semiring).sum_maintainable
    assert ("updates" in report) == maintainable == (semiring == "natural")
    for source in report.get("updates", {}).values():
        compile(source, "<updates>", "exec")
    assert report["walk"] and "for t, k in " in report["build"]


@pytest.mark.parametrize("guarded", [False, True])
def test_plan_json_prints_what_preprocessing_compiles(tmp_path, capsys, monkeypatch, guarded):
    from deltaenum import dynamic_engine, static_engine
    from deltaenum.codegen import compile_source
    from deltaenum.semiring import BUILTIN_SEMIRING_NAMES, builtin_semiring

    from support import random_db_for_query, random_free_connex_cq, random_q_hierarchical_cq

    compiled = []

    def recording(source, name):
        compiled.append(source)
        return compile_source(source, name)

    monkeypatch.setattr(static_engine, "compile_source", recording)
    monkeypatch.setattr(dynamic_engine, "compile_source", recording)
    draw, prep = (
        (random_q_hierarchical_cq, dynamic_engine.dyn_preprocess)
        if guarded
        else (random_free_connex_cq, static_engine.preprocess)
    )
    names = [name for name in BUILTIN_SEMIRING_NAMES if not guarded or builtin_semiring(name).sum_maintainable]
    rng = random.Random(2101 + guarded)
    keyed = scanned = 0
    for i in range(60):
        q = draw(rng)
        s = builtin_semiring(names[i % len(names)])
        db = random_db_for_query(rng, q, s, max_tuples=12, domain=3)
        compiled.clear()
        state = prep(q, db)
        argv = ["plan", write(tmp_path / "q.cq", q.to_text()), "--json", "--semiring", s.name]
        assert main(argv + ["--guarded"] * guarded) == 0
        report = json.loads(capsys.readouterr().out)
        # preprocessing compiles exactly the printed sources: the walk, the
        # build and then, symbol by symbol, the update step
        assert compiled == [report["walk"], report["build"], *report.get("updates", {}).values()], q.to_text()
        # every test and key is written inline in a compiled source
        plan = state.plan
        keys = [static_engine.leaf_key(plan, n) for n in plan.nodes if plan.nodes[n].is_leaf]
        keys = [key for key in keys if key != (None, "t")]
        lines = [f"if {miss}:\n" for miss, _ in keys if miss] + [f" = {key}\n" for _, key in keys if key != "t"]
        assert all(any(line in source for source in compiled) for line in lines), q.to_text()
        assert compile_source(report["walk"], "walk") is state.walk
        # the build of a guarded plan also counts the members of each stored
        # projection
        assert ("state.accs[" in report["build"]) == bool(state.accs)
        assert guarded or not state.accs
        assert list(report.get("updates", {})) == list(state.paths)
        keyed += len(keys)
        scanned += report["build"].count("for t, k in ")
    assert keyed and scanned  # some drawn leaf is not its own key, some node is scanned


def _closed_early(tmp_path, args):
    """Run the CLI with ``args``, read one line of its output and close the
    pipe; the exit code and the standard error."""
    env = dict(os.environ, PYTHONPATH=str(Path(deltaenum.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "deltaenum.cli", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=tmp_path, env=env,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    return proc.wait(timeout=60), err


def test_a_closed_stdout_ends_eval_cleanly(tmp_path, dbdir):
    # far more output than the pipe and the stream buffers hold
    (dbdir / "R.csv").write_text("".join(f"{x},{y},1\n" for x in range(1, 201) for y in range(1, 201)))
    q = write(tmp_path / "q.cq", "H(x,y) :- R(x,y).")
    code, err = _closed_early(tmp_path, ["eval", "--query", q, "--db", str(dbdir)])
    assert "Traceback" not in err and code == 141, err


def test_a_closed_stdout_ends_plan_cleanly(tmp_path):
    # a star of 40 atoms: the guarded plan's update sources run to ~340 kB
    q = write(tmp_path / "q.cq", "H(x) :- " + ", ".join(f"R{i}(x,y{i})" for i in range(40)) + ".")
    code, err = _closed_early(tmp_path, ["plan", q, "--json", "--guarded"])
    assert "Traceback" not in err and code == 141, err


# every stored node of this query's plans, free-connex or guarded, but
# T(x,y)'s leaf, and their one level have the one variable x, so their keys
# are bare values, and the head is unary
UNARY = "H(x) :- R(x), S(x,x), T(x,y), x <= c."


@pytest.mark.parametrize("semiring", BUILTIN_SEMIRING_NAMES)
def test_a_query_whose_every_key_is_one_value_agrees_with_the_oracle(tmp_path, capsys, semiring):
    from deltaenum.kdata import apply_update, load_database, parse_update_script
    from deltaenum.oracle import oracle_eval_cq
    from deltaenum.planner import build_fc_plan, build_guarded_plan
    from deltaenum.query import parse_query

    from support import sample

    query = parse_query(UNARY)
    plans = [build_fc_plan(query), build_guarded_plan(query)]
    for plan in plans:
        assert [level.order for level in plan.levels] == [("x",)]
        assert all(plan.order[n] == ("x",) for n in plan.stored if plan.nodes[n].atom_index != 2)
    s = builtin_semiring(semiring)
    rng = random.Random(3600 + len(semiring))

    def value():  # a nonzero annotation, exact under every order of sums
        v = sample(s, rng)
        return value() if s.is_zero(v) else s.format(v)

    data = tmp_path / "db"
    data.mkdir()
    (data / "vocab.json").write_text(json.dumps({"relations": {"R": 1, "S": 2, "T": 2}, "constants": {"c": 4}}))
    arities = {"R": 1, "S": 2, "T": 2}
    for symbol, arity in arities.items():
        rows = {tuple(rng.randint(1, 5) for _ in range(arity)) for _ in range(12)}
        rows |= {(a,) * arity for a in range(1, 6)}  # S(a,a) matches its atom
        (data / f"{symbol}.csv").write_text("".join(",".join([*map(str, t), value()]) + "\n" for t in sorted(rows)))
    lines = []
    for _ in range(40):
        symbol = rng.choice(sorted(arities))
        t = " ".join(str(rng.randint(1, 5)) for _ in range(arities[symbol]))
        lines.append(f"+ {symbol} {t} {value()}" if rng.random() < 0.6 else f"- {symbol} {t}")
    for symbol, t in [("R", "1"), ("S", "1 1"), ("T", "1 2")]:  # so that x = 1 is an answer
        lines += [f"- {symbol} {t}", f"+ {symbol} {t} {value()}"]
    ups = write(tmp_path / "u.ups", "".join(line + "\n" for line in lines))
    q = write(tmp_path / "q.cq", UNARY)

    def expected(db):
        want = oracle_eval_cq(query, db).entries
        assert want and all(len(t) == 1 for t in want)
        return sorted(",".join([*map(str, t), s.format(v)]) for t, v in want.items())

    db = load_database(data / "vocab.json", data, s)
    for command, flags in [("eval", ["--verify"]), ("enumerate", [])]:
        assert main([command, "--query", q, "--db", str(data), "--semiring", semiring, *flags]) == 0
        assert sorted(capsys.readouterr().out.splitlines()) == expected(db)
    argv = ["dyn", "--query", q, "--db", str(data), "--updates", ups, "--semiring", semiring, "--verify"]
    if not s.sum_maintainable:
        # dyn refuses the semiring, as it does for every query
        assert main(argv) == 1 and "sum-maintainable" in capsys.readouterr().err
        return
    assert main(argv) == 0
    for u in parse_update_script(ups, s):
        apply_update(db, u)
    assert sorted(capsys.readouterr().out.splitlines()) == expected(db)


def test_the_cli_freezes_what_preprocessing_built(tmp_path, dbdir, monkeypatch, capsys):
    import gc

    from deltaenum import static_engine

    # at the first answer of eval --verify no dict of the state is left to a
    # collection, and main leaves the collector's freeze count as it was
    enumerate_state = static_engine.enumerate_state
    seen = []

    def spy(state, limit=None):
        for answer in enumerate_state(state, limit):
            if not seen:
                tracked = {id(o) for o in gc.get_objects()}
                dicts = [*state.relations.values(), *state.candidates.values(), *state.groups.values()]
                dicts += [g for grp in state.groups.values() for g in grp.values()]
                seen.append(any(map(gc.is_tracked, dicts)) and not any(id(d) in tracked for d in dicts))
            yield answer

    monkeypatch.setattr(static_engine, "enumerate_state", spy)
    q = write(tmp_path / "q.cq", "H(x,y) :- R(x,y), S(y).")
    frozen = gc.get_freeze_count()
    assert main(["eval", "--query", q, "--db", str(dbdir), "--verify"]) == 0
    assert capsys.readouterr().out and seen == [True]
    assert gc.get_freeze_count() == frozen
