"""Answer timing, and in-memory spans around calls into the program.

``patched`` swaps module attributes of ``deltaenum`` for wrappers and puts
the originals back on exit; ``timed_answers`` times the answers of one
enumeration.  Both the untraced workload and the tracer use these two, so
that there is one way of timing answers.

``Tracer.wrappers()`` lists the wrappers of a traced run.  Each call of a
public function gets one span: name, start, end, parent span and run id,
plus a few counts read from the call's public result.  Calls of
``dyn_update``, tens of thousands per repetition, are aggregated per run id
instead (count, slowest, no-ops).  Wrappers are installed in every namespace
the program looks the function up in (for example
``dynamic_engine.preprocess_with_plan`` as well as
``static_engine.preprocess_with_plan``).  Spans stay in memory until
``dump`` writes them as gzipped JSON.
"""

from __future__ import annotations

import gzip
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional

from deltaenum import dynamic_engine, kdata, matlang, planner, query, static_engine

perf = time.perf_counter


@contextmanager
def patched(wrappers):
    """Replace ``module.attribute`` by ``wrap(original)`` for each
    ``(module, attribute, wrap)`` for the duration of the block."""
    saved = []
    try:
        for mod, attr, wrap in wrappers:
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, wrap(original))
        yield
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


def timed_answers(answers, block: int, rec: dict):
    """Yield ``answers``.  Sets ``rec["first"]`` to the seconds from the
    first request to the first answer and ``rec["answers"]`` to the count,
    and appends to ``rec["per_answer"]`` the mean seconds per answer of each
    later run of ``block`` consecutive answers.  One clock reading per block
    keeps the cost of timing small next to an answer."""
    per_answer = rec["per_answer"]
    start = perf()
    n = 0
    last = start
    for item in answers:
        n += 1
        if n == 1:
            last = perf()
            rec["first"] = last - start
        elif not (n - 1) % block:
            now = perf()
            per_answer.append((now - last) / block)
            last = now
        yield item
    rec["answers"] = n


def identity_nodes(plan) -> int:
    """Single-child plan nodes whose variables equal their child's."""
    return sum(
        1
        for nid, node in plan.nodes.items()
        if len(node.children) == 1 and plan.vars(nid) == plan.vars(node.children[0])
    )


def _plan_info(plan) -> Optional[dict]:
    if plan is None:
        return None
    return {"nodes": len(plan.nodes), "identity_nodes": identity_nodes(plan)}


def _state_info(state) -> dict:
    groups = sum(len(bucket) for grp in state.groups.values() for bucket in grp.values())
    return {
        "rows_materialized": sum(len(r) for r in state.relations.values()),
        "connex_entries": sum(len(c) for c in state.candidates.values()) + groups,
    }


def _db_info(db) -> dict:
    return {"rows": sum(len(r) for r in db.relations.values())}


def _dyn_info(state) -> dict:
    return {"accumulators": sum(len(table) for table in state.accs.values())}


def _matlang_info(result) -> dict:
    return {"fallback": not result.used_engine}


# (module, attribute, span name, info from the result)
_CALLS = [
    (kdata, "load_database", "kdata.load_database", _db_info),
    (kdata, "parse_update_script", "kdata.parse_update_script", None),
    (query, "parse_query", "query.parse_query", None),
    (planner, "build_fc_plan", "planner.build_fc_plan", _plan_info),
    (static_engine, "build_fc_plan", "planner.build_fc_plan", _plan_info),
    (dynamic_engine, "build_guarded_plan", "planner.build_guarded_plan", _plan_info),
    (static_engine, "preprocess_with_plan", "static_engine.preprocess_with_plan", _state_info),
    (dynamic_engine, "preprocess_with_plan", "static_engine.preprocess_with_plan", _state_info),
    (static_engine, "eval_materialized", "static_engine.eval_materialized", None),
    (dynamic_engine, "dyn_preprocess", "dynamic_engine.dyn_preprocess", _dyn_info),
    (matlang, "load_matrix_schema", "matlang.load_matrix_schema", None),
    (matlang, "load_matrix_instance", "matlang.load_matrix_instance", None),
    (matlang, "parse_matlang", "matlang.parse_matlang", None),
    (matlang, "eval_matlang", "matlang.eval_matlang", _matlang_info),
    (matlang, "translate_to_cq", "matlang.translate_to_cq", None),
    (matlang, "encode_instance", "matlang.encode_instance", None),
]
_ENUMERATIONS = [static_engine, dynamic_engine]


class Tracer:
    """Spans of one process, grouped by run id."""

    def __init__(self) -> None:
        # [id, name, start, end, parent id, run id, info]
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.run_id = ""
        # gaps between the answers of unbounded enumerations, per run id
        self.gaps: Dict[str, List[float]] = {}
        # per run id: [updates, slowest seconds, updates that left the
        # database unchanged]; one span per update would not fit
        self.updates: Dict[str, list] = {}
        self._index: Dict[tuple, List[list]] = {}

    def _open(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else None
        span = [len(self.spans), name, perf(), None, parent, self.run_id, None]
        self.spans.append(span)
        self._index.setdefault((self.run_id, name), []).append(span)
        return span

    @contextmanager
    def span(self, name: str):
        s = self._open(name)
        self.stack.append(s[0])
        try:
            yield s
        finally:
            self.stack.pop()
            s[3] = perf()

    def _wrap_call(self, fn, name, info):
        def wrapper(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if info is not None:
                s[6] = info(result)
            return result

        return wrapper

    def _wrap_update(self, fn):
        def wrapper(state, u):
            entries = state.db.relations[u.relation].entries
            before = entries.get(u.tuple)
            start = perf()
            fn(state, u)
            took = perf() - start
            stats = self.updates.setdefault(self.run_id, [0, 0.0, 0])
            stats[0] += 1
            stats[1] = max(stats[1], took)
            stats[2] += entries.get(u.tuple) == before

        return wrapper

    def _wrap_enumeration(self, fn):
        """Span named ``static_engine.enumerate_state`` with the limit, the
        answer count and the time to the first answer; the gaps of an
        unbounded enumeration go to ``gaps``."""

        def wrapper(state, limit=None):
            s = self._open("static_engine.enumerate_state")
            gaps = self.gaps.setdefault(self.run_id, []) if limit is None else []
            rec = {"first": None, "answers": 0, "per_answer": gaps}
            try:
                yield from timed_answers(fn(state, limit=limit), 1, rec)
            finally:
                s[3] = perf()
                s[6] = {"limit": limit, "answers": rec["answers"], "first": rec["first"]}

        return wrapper

    def wrappers(self) -> list:
        """The ``(module, attribute, wrap)`` triples for ``patched``."""
        out = [(mod, attr, lambda fn, n=name, i=info: self._wrap_call(fn, n, i)) for mod, attr, name, info in _CALLS]
        out += [(mod, "enumerate_state", self._wrap_enumeration) for mod in _ENUMERATIONS]
        out.append((dynamic_engine, "dyn_update", self._wrap_update))
        return out

    def of_run(self, run_id: str, name: str) -> List[list]:
        return self._index.get((run_id, name), [])

    def dump(self, path: Path, meta: dict) -> None:
        keys = ("id", "name", "start", "end", "parent", "run", "info")
        with gzip.open(path, "wt") as fh:
            spans = [dict(zip(keys, s)) for s in self.spans]
            json.dump({"meta": meta, "spans": spans, "dyn_update": self.updates}, fh)
