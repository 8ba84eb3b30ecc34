"""``perfbench/run.py --trace 1`` patches module attributes of the package by
name and reads fields of the engine states, and its worker replays single
layers through the package's functions, so a renamed attribute, field or
function would fail only inside the benchmark.  These tests load its tracer
and its worker as they are and check them against the package."""

import importlib.util
import sys
from pathlib import Path

from deltaenum import dynamic_engine
from deltaenum.kdata import SingleTupleUpdate
from deltaenum.query import parse_query

from test_dynamic_engine import NAT, QH, QH_DB
from test_static_engine import make_db

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    """``perfbench/<name>.py`` as a module; the worker puts ``perfbench``
    and ``src`` on ``sys.path`` to import its siblings, which is undone."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    path = list(sys.path)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    return module


def test_every_patched_attribute_resolves():
    tracing = load("tracing")
    missing = [
        f"{mod.__name__}.{attr}"
        for mod, attr, _ in tracing.Tracer().wrappers()
        if not callable(getattr(mod, attr, None))
    ]
    assert missing == []


def test_traced_dynamic_run_reads_the_state_fields():
    tracing = load("tracing")
    tracer = tracing.Tracer()
    with tracing.patched(tracer.wrappers()):
        state = dynamic_engine.dyn_preprocess(parse_query(QH), make_db(NAT, QH_DB))
        dynamic_engine.dyn_update(state, SingleTupleUpdate("insert", "U", (7,), 1))
        answers = list(dynamic_engine.dyn_enumerate(state))
    assert len(answers) == 4
    # relations: the leaves U, S and R (4 + 5 + 6 tuples after the insert,
    # 3 + 5 + 6 before) and the frontier node projecting R onto (x, y) (5
    # tuples); connex entries: the root's 2 candidates, x = 1 and 2, plus the
    # 4 entries of the (x, y) join's groups under x; the frontier nodes'
    # candidates are their relations and the groups' keys the projection's,
    # neither stored as a candidate set, and the insert of U(7) adds no
    # candidate, since the (x, y) join has no tuple with x = 7
    assert tracing._state_info(state) == {"rows_materialized": 20, "connex_entries": 6}
    assert tracing._dyn_info(state) == {"accumulators": 5}
    infos = {span[1]: span[6] for span in tracer.spans}
    assert infos["static_engine.preprocess_with_plan"] == {
        "rows_materialized": 19,
        "connex_entries": 6,
    }
    assert infos["dynamic_engine.dyn_preprocess"] == {"accumulators": 5}
    assert infos["static_engine.enumerate_state"]["answers"] == 4
    assert tracer.updates[""][0] == 1


def test_worker_replays_the_update_stream_layers(tmp_path):
    # the replay calls semiring.acc_new, kdata.apply_update and cli.main,
    # which only a benchmark run would otherwise reach
    worker = load("worker")
    gen = worker.gen
    gen.write_inputs(gen.generate("update_stream", 1, n=400, updates=400), tmp_path)
    errors = []
    metrics = worker.replay_metrics("update_stream", tmp_path, errors)
    assert errors == []
    assert metrics["semiring.acc_op_ns"] > 0
    assert metrics["kdata.apply_update_ns"] > 0
