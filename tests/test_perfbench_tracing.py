"""``perfbench/run.py --trace 1`` patches module attributes of the package by
name and reads fields of the engine states, so a renamed attribute or field
would fail only inside the benchmark.  These tests load its tracer as it is
and check both against the package."""

import importlib.util
from pathlib import Path

from deltaenum import dynamic_engine
from deltaenum.kdata import SingleTupleUpdate
from deltaenum.query import parse_query

from test_dynamic_engine import NAT, QH, QH_DB
from test_static_engine import make_db

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_attribute_resolves():
    tracing = load_tracing()
    missing = [
        f"{mod.__name__}.{attr}"
        for mod, attr, _ in tracing.Tracer().wrappers()
        if not callable(getattr(mod, attr, None))
    ]
    assert missing == []


def test_traced_dynamic_run_reads_the_state_fields():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    with tracing.patched(tracer.wrappers()):
        state = dynamic_engine.dyn_preprocess(parse_query(QH), make_db(NAT, QH_DB))
        dynamic_engine.dyn_update(state, SingleTupleUpdate("insert", "U", (7,), 1))
        answers = list(dynamic_engine.dyn_enumerate(state))
    assert len(answers) == 4
    # relations: the leaves U, S and R (3 + 5 + 6 tuples) and the frontier
    # node projecting R onto (x, y) (5 tuples); candidates: those 3 + 5 + 5,
    # 4 at the (x, y) join, 2 at x and 2 at the root, plus 4 group entries
    assert tracing._state_info(state.enum) == {"rows_materialized": 20, "connex_entries": 26}
    assert tracing._dyn_info(state) == {"accumulators": 5}
    infos = {span[1]: span[6] for span in tracer.spans}
    assert infos["static_engine.preprocess_with_plan"] == {
        "rows_materialized": 19,
        "connex_entries": 25,
    }
    assert infos["dynamic_engine.dyn_preprocess"] == {"accumulators": 5}
    assert infos["static_engine.enumerate_state"]["answers"] == 4
    assert tracer.updates[""][0] == 1
