"""The benchmark's own tests: its references against the brute-force oracle.

    python3 -m pytest perfbench/test_reference.py -q

Each reference is computed on small instances drawn by the benchmark's own
generators and compared with ``oracle.oracle_eval_cq`` or
``oracle.oracle_eval_matlang``, so that a wrong reference cannot let a wrong
engine pass.  The checker itself must count corrupted answers.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from deltaenum import kdata, matlang, oracle, query, semiring  # noqa: E402

SEEDS = (1, 2, 3)
SMALL = {
    "join_drain": {"n": 60},
    "project_agg": {"n": 300},
    "update_stream": {"n": 800, "updates": 4500},
    "matlang_hadamard": {"nnz": 400},
}


def _inputs(tmp_path: Path, workload: str, seed: int) -> Path:
    out = tmp_path / f"{workload}-{seed}"
    gen.write_inputs(gen.generate(workload, seed, **SMALL[workload]), out)
    return out


def _db(inputs: Path, workload: str):
    sem = semiring.builtin_semiring(gen.SEMIRING[workload])
    return kdata.load_database(inputs / "vocab.json", inputs, sem)


def _assert_same(got: dict, want: dict, real: bool) -> None:
    assert want, "empty instance: the comparison would prove nothing"
    assert set(got) == set(want)
    for t, k in want.items():
        assert ref.values_match(got[t], k, real), (t, got[t], k)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "workload, build",
    [("join_drain", ref.join_drain_reference), ("project_agg", ref.project_agg_reference)],
)
def test_static_reference_matches_oracle(tmp_path, workload, build, seed):
    inputs = _inputs(tmp_path, workload, seed)
    q = query.parse_query((inputs / "query.cq").read_text())
    want = oracle.oracle_eval_cq(q, _db(inputs, workload)).entries
    _assert_same(build(inputs), want, real=workload == "project_agg")


@pytest.mark.parametrize("seed", SEEDS)
def test_update_stream_reference_matches_oracle(tmp_path, seed):
    inputs = _inputs(tmp_path, "update_stream", seed)
    db = _db(inputs, "update_stream")
    q = query.parse_query((inputs / "query.cq").read_text())
    updates = kdata.parse_update_script(inputs / "updates.ups", db.semiring)
    points = [0, 250, 1000, len(updates)]
    got = ref.update_stream_reference(inputs, points)
    applied = 0
    for point in points:
        for u in updates[applied:point]:
            kdata.apply_update(db, u)
        applied = point
        _assert_same(got[point], oracle.oracle_eval_cq(q, db).entries, real=True)


def test_update_stream_mixes_every_kind_of_update():
    instance = gen.generate("update_stream", 1, **SMALL["update_stream"])
    present = {name: set(entries) for name, (_, entries) in instance["relations"].items()}
    kinds = set()
    for op, name, t, _ in instance["updates"]:
        if op == "+":
            kinds.add("combine" if t in present[name] else "insert")
            present[name].add(t)
        else:
            kinds.add("delete" if t in present[name] else "delete-absent")
            present[name].discard(t)
    assert kinds == {"combine", "insert", "delete", "delete-absent"}


@pytest.mark.parametrize("seed", SEEDS)
def test_matlang_reference_matches_oracle(tmp_path, seed):
    inputs = _inputs(tmp_path, "matlang_hadamard", seed)
    sem = semiring.builtin_semiring("natural")
    schema = matlang.load_matrix_schema(inputs / "schema.json")
    instance = matlang.load_matrix_instance(schema, inputs, sem)
    mq = matlang.parse_matlang((inputs / "expr.ml").read_text(), schema)
    dense = oracle.oracle_eval_matlang(mq.expr, instance)
    _assert_same(ref.matlang_reference(inputs), matlang.dense_to_entries(dense, sem), real=False)


def test_generators_are_seeded():
    for workload, sizes in SMALL.items():
        assert gen.generate(workload, 7, **sizes) == gen.generate(workload, 7, **sizes)
        assert gen.generate(workload, 7, **sizes) != gen.generate(workload, 8, **sizes)


def test_mismatches_are_counted():
    want = {(1,): 1.0, (2,): 2.0, (3,): 3.0}
    assert ref.count_mismatches(list(want.items()), want, real=True) == 0
    assert ref.count_mismatches([((1,), 1.0 + 1e-12), ((2,), 2.0), ((3,), 3.0)], want, real=True) == 0
    assert ref.count_mismatches([((1,), 1.5), ((2,), 2.0), ((3,), 3.0)], want, real=True) == 1
    assert ref.count_mismatches([((1,), 1.0), ((2,), 2.0)], want, real=True) == 1
    assert ref.count_mismatches(list(want.items()) + [((4,), 1.0)], want, real=True) == 1
    assert ref.count_mismatches(list(want.items()) + [((1,), 1.0)], want, real=True) == 1
    assert ref.count_prefix_mismatches([((1,), 1.0), ((2,), 2.0)], want, 2, real=True) == 0
    assert ref.count_prefix_mismatches([((1,), 1.0)], want, 2, real=True) == 1
    assert ref.count_prefix_mismatches([((1,), 1.0), ((1,), 1.0)], want, 2, real=True) == 2


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_benchmark_check_passes_the_engine_and_fails_a_corruption(tmp_path, workload):
    inputs = _inputs(tmp_path, workload, 1)
    sem = semiring.builtin_semiring(gen.SEMIRING[workload])
    reps = [worker.REPS[workload](inputs, sem, worker.Phases()) for _ in range(2)]
    outputs = reps[0]["outputs"]
    fps = [[ref.fingerprint(answers) for answers in r["checked"]] for r in reps]
    ops = [r["ops"] for r in reps]
    attempted, failed, _ = run.check(workload, inputs, outputs, fps, ops)
    assert attempted == sum(ops) and failed == 0

    key = "final" if workload == "update_stream" else "answers"
    t, k = outputs[key][0]
    outputs[key][0] = (t, k + 1)
    assert run.check(workload, inputs, outputs, fps, ops)[1] == 1
    assert run.check(workload, inputs, reps[1]["outputs"], fps[:1] + [(0, 0)], ops)[1] == ops[1]


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_runs_report_every_declared_metric(tmp_path, workload):
    inputs = _inputs(tmp_path, workload, 1)
    run_ = worker.repeat(workload, inputs, 0.0)
    assert not run_["errors"]
    assert set(worker.end_to_end(run_, 1.0)) == set(run.declared_units("end_to_end"))

    tracer = worker.Tracer()
    with worker.patched(tracer.wrappers()):
        traced = worker.repeat(workload, inputs, 0.0, tracer=tracer, run_id="t")
    errors: list = []
    layers = {**worker.layer_metrics(tracer, "t:0"), **worker.replay_metrics(workload, inputs, errors)}
    assert not traced["errors"] and not errors
    # added by run.py: the check, the generator and the comparison with the reference
    layers.update(dict.fromkeys(["oracle.check_s", "generators.gen_s", "dynamic_engine.inexact_answers"], 0))
    layers["trace.overhead_s"] = layers["dynamic_engine.update_p99_us"] = 0.0
    assert set(layers) == set(run.declared_units("per_layer"))
