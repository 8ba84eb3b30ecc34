import json

import pytest

from deltaenum.cli import main


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


def test_bench_emits_json(capsys):
    assert main(["bench", "--sizes", "200,400", "--mode", "static", "--delay-outputs", "50"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["runs"]) == 2
    assert all("timing" in run for run in report["runs"])


def test_eval_tropical_semiring_with_inf_serialization(tmp_path, capsys):
    import json as _json

    d = tmp_path / "tdb"
    d.mkdir()
    (d / "vocab.json").write_text(_json.dumps({"relations": {"R": 2}, "constants": {}}))
    (d / "R.csv").write_text("1,2,3.5\n1,3,1.0\n")
    q = write(tmp_path / "q.cq", "H(x) :- R(x,y).")
    assert main(["eval", "--query", q, "--db", str(d), "--semiring", "tropical-min", "--verify"]) == 0
    assert capsys.readouterr().out.strip().splitlines() == ["1,1.0"]


def test_bench_dyn_mode(capsys):
    assert main(["bench", "--sizes", "300", "--mode", "dyn", "--updates", "500"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["runs"][0]["updates"] == 500
