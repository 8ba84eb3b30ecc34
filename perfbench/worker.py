"""One benchmark workload, run in a fresh single-threaded process.

    python3 perfbench/worker.py WORKLOAD INPUTS SECONDS TRACE RUN_ID OUT_DIR

``run.py`` starts this process after writing the inputs.  It repeats the
workload from reading the input files to the last answer until SECONDS have
passed (at least MIN_REPS times), with the interpreter's default GC.  Every
repetition is fingerprinted; the outputs of the first are pickled to
OUT_DIR/rep0.pkl for ``run.py`` to check against the reference, so that the
reference never counts towards this process's memory.

A fixed calibration loop runs before each repetition and after each of its
phases.  Each phase's times are scaled by CAL_REF_S over the mean of the
loop's times either side of it (see ``calibrate`` and ``Phases``).  The
speed of the shared machine this suite was tuned on switches between states
up to 1.9x apart for tens of seconds at a time; the program and the loop
slow down alike, so the scaled times move far less than the raw ones.

With TRACE=1 the first half of the time runs untraced and the second half
under ``tracing.Tracer``; the per-layer metrics come from the traced half,
followed by replays of single layers (``kdata.apply_update``, sum
accumulators, the CLI path).  The spans are written to OUT_DIR/spans.json.gz.

Prints one JSON object on stdout.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import pickle
import resource
import statistics
import sys
import time
import traceback
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from deltaenum import cli, dynamic_engine, kdata, matlang, planner, query, semiring, static_engine  # noqa: E402

import gen  # noqa: E402
from reference import fingerprint  # noqa: E402
from tracing import Tracer, patched, timed_answers  # noqa: E402

perf = time.perf_counter
# the program's own enumeration, for the bounded reads, whatever is patched
ENUMERATE = static_engine.enumerate_state

MIN_REPS = 3
STATIC_READS = 30  # bounded reads per repetition of a static workload
BLOCK = 16  # a drain's answers are timed in blocks of 16
# operation latencies kept per repetition, so that the samples' memory does
# not grow with the program's speed enough to move peak_rss_mb
POOL_PER_REP = 4096
CAL_ROUNDS = 5  # calibration loop runs per calibration
CAL_REF_S = 0.0021  # the loop's time on the tuning machine in its fast state


def _p(values, q: int) -> float:
    """The q-th percentile (1..99) of ``values``."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# the calibration's table exists once, so that the loop leaves no objects
# behind to change when the program's own garbage collections run
_CAL_TABLE = dict.fromkeys(((i % 997, i & 7) for i in range(10_000)), 0)


def _calibration_loop() -> None:
    d = _CAL_TABLE
    for i in range(10_000):
        k = (i % 997, i & 7)
        d[k] = d[k] ^ i


def calibrate() -> float:
    """Median seconds of CAL_ROUNDS runs of a fixed pure-Python loop of
    tuple-keyed dict reads and writes, the engine's staple operations."""
    times = []
    for _ in range(CAL_ROUNDS):
        t = perf()
        _calibration_loop()
        times.append(perf() - t)
    return statistics.median(times)


def _rec() -> dict:
    return {"first": None, "answers": 0, "per_answer": []}


def _reads(state):
    """STATIC_READS bounded reads of the first READ_K answers of a ready
    state: their times and the last read."""
    times = []
    for _ in range(STATIC_READS):
        t = perf()
        read = list(ENUMERATE(state, limit=gen.READ_K))
        times.append(perf() - t)
    return times, read


class Phases:
    """The timed phases of one repetition and the calibrations around them.

    ``end`` records a phase and runs a calibration, outside every clock, so
    that phase i lies between ``cals[i]`` and ``cals[i + 1]``.  Phases end
    between calls into the program, so no pause lands inside a traced call.  A phase is
    ``setup`` (counts towards setup_s and total_s), ``answers`` (total_s and
    the time ops_per_s divides by), ``drain`` (total_s) or ``reads``
    (neither), with its latency samples of operations and of bounded reads.
    """

    def __init__(self) -> None:
        self.cals = [calibrate()]
        self.phases: list = []

    def end(self, kind: str, seconds: float, op_s=(), read_s=()) -> None:
        self.phases.append((kind, seconds, op_s, read_s))
        self.cals.append(calibrate())

    def summary(self, n_ops: int, scales, op_pool=None, read_pool=None) -> dict:
        """Phase times with each phase's times multiplied by its scale; the
        scaled latency samples are added to the pools, if given, the
        operations' thinned to at most about POOL_PER_REP."""
        time = dict.fromkeys(("setup", "answers", "drain", "reads"), 0.0)
        stride = max(1, sum(len(ops) for _, _, ops, _ in self.phases) // POOL_PER_REP)
        for (kind, seconds, ops, reads), f in zip(self.phases, scales):
            time[kind] += seconds * f
            if op_pool is not None:
                op_pool.extend(x * f for x in ops[::stride])
                read_pool.extend(x * f for x in reads)
        return {
            "setup_s": time["setup"],
            "total_s": time["setup"] + time["answers"] + time["drain"],
            "ops_per_s": n_ops / time["answers"],
        }


def measure(ph: Phases, n_ops: int, op_pool, read_pool) -> dict:
    """One repetition's times, each phase's scaled to the reference speed by
    the calibrations either side of it; ``raw`` keeps them as measured.
    Its scaled latency samples go to the run's pools."""
    scales = [2 * CAL_REF_S / (a + b) for a, b in zip(ph.cals, ph.cals[1:])]
    raw = ph.summary(n_ops, [1.0] * len(ph.phases))
    return {**ph.summary(n_ops, scales, op_pool, read_pool), "cal_s": ph.cals, "raw": raw}


# ---------------------------------------------------------------------------
# One repetition per workload.  Module functions are looked up at call time
# so that the tracer's wrappers apply.  Each records its phases in ``ph``
# and returns the count of operations its answer phases did (for
# ops_per_s), its outputs, the answer lists run.py checks against the
# reference, and the count of operations that check covers.
# ---------------------------------------------------------------------------

def static_rep(inputs: Path, sem, ph: Phases) -> dict:
    t = perf()
    db = kdata.load_database(inputs / "vocab.json", inputs, sem)
    q = query.parse_query((inputs / "query.cq").read_text())
    plan = planner.build_fc_plan(q)
    state = static_engine.preprocess_with_plan(q, db, plan)
    ph.end("setup", perf() - t)
    rec = _rec()
    t = perf()
    answers = list(timed_answers(static_engine.enumerate_state(state), BLOCK, rec))
    ph.end("answers", perf() - t, op_s=rec["per_answer"])
    read_s, read = _reads(state)
    ph.end("reads", sum(read_s), read_s=read_s)
    return {
        "n_ops": len(answers),
        "outputs": {"answers": answers, "read": read},
        "checked": [answers, read],
        "ops": len(answers) + len(read),
    }


def update_rep(inputs: Path, sem, ph: Phases) -> dict:
    t = perf()
    db = kdata.load_database(inputs / "vocab.json", inputs, sem)
    q = query.parse_query((inputs / "query.cq").read_text())
    updates = kdata.parse_update_script(inputs / "updates.ups", sem)
    state = dynamic_engine.dyn_preprocess(q, db)
    ph.end("setup", perf() - t)
    dyn_update = dynamic_engine.dyn_update
    dyn_enumerate = dynamic_engine.dyn_enumerate
    checked_at = gen.checked_reads(len(updates))
    op_s = []
    read_s = []
    reads = {}
    t = perf()
    for i, u in enumerate(updates, start=1):
        a = perf()
        dyn_update(state, u)
        b = perf()
        op_s.append(b - a)
        if i % gen.READ_BATCH == 0:
            read = list(dyn_enumerate(state, limit=gen.READ_K))
            read_s.append(perf() - b)
            if i in checked_at:
                reads[i] = read
    ph.end("answers", perf() - t, op_s=op_s, read_s=read_s)
    t = perf()
    final = list(dyn_enumerate(state))
    ph.end("drain", perf() - t)
    checked = [final, *reads.values()]
    return {
        "n_ops": len(updates),
        "outputs": {"reads": reads, "final": final, "updates": len(updates)},
        "checked": checked,
        "ops": len(updates) + sum(map(len, checked)),
    }


def matlang_rep(inputs: Path, sem, ph: Phases) -> dict:
    t = perf()
    schema = matlang.load_matrix_schema(inputs / "schema.json")
    instance = matlang.load_matrix_instance(schema, inputs, sem)
    mq = matlang.parse_matlang((inputs / "expr.ml").read_text(), schema)
    ph.end("setup", perf() - t)
    rec = _rec()
    states = []

    def timed(enumerate_state):
        def wrapper(state, limit=None):
            states.append(state)
            return timed_answers(enumerate_state(state, limit=limit), BLOCK, rec)

        return wrapper

    t = perf()
    with patched([(static_engine, "enumerate_state", timed)]):
        result = matlang.eval_matlang(mq, instance)
    answers = list(result.instance.entries[result.head].items())
    ph.end("answers", perf() - t, op_s=rec["per_answer"])
    # the engine's state for the translated query, whose head tuple (i, j)
    # is H's entry: exactly one enumeration unless eval_matlang fell back
    (state,) = states
    read_s, read = _reads(state)
    ph.end("reads", sum(read_s), read_s=read_s)
    return {
        "n_ops": len(answers),
        "outputs": {"answers": answers, "read": read},
        "checked": [answers, read],
        "ops": len(answers) + len(read),
    }


REPS = {
    "join_drain": static_rep,
    "project_agg": static_rep,
    "update_stream": update_rep,
    "matlang_hadamard": matlang_rep,
}


def repeat(workload: str, inputs: Path, seconds: float, tracer=None, run_id="") -> dict:
    """Run repetitions for ``seconds`` (at least MIN_REPS, or one when
    traced).  Keeps each repetition's metrics, fingerprint and count of
    checked answers, and the outputs of the first."""
    sem = semiring.builtin_semiring(gen.SEMIRING[workload])
    rep_fn = REPS[workload]
    reps = []
    errors = []
    first_outputs = None
    op_pool, read_pool = array("d"), array("d")
    start = perf()
    while not reps or perf() - start < seconds or len(reps) < (1 if tracer else MIN_REPS):
        ph = Phases()
        try:
            if tracer is not None:
                tracer.run_id = f"{run_id}:{len(reps)}"
                with tracer.span("workload.rep"):
                    rep = rep_fn(inputs, sem, ph)
            else:
                rep = rep_fn(inputs, sem, ph)
        except Exception:
            errors.append(traceback.format_exc())
            break
        if first_outputs is None:
            first_outputs = rep["outputs"]
        reps.append({
            **measure(ph, rep["n_ops"], op_pool, read_pool),
            "fp": [fingerprint(answers) for answers in rep["checked"]],
            "ops": rep["ops"],
        })
        del rep
        gc.collect()
    return {"reps": reps, "errors": errors, "outputs": first_outputs, "op_s": op_pool, "read_s": read_pool}


def end_to_end(run: dict, peak_rss_mb: float) -> dict:
    """Medians over the repetitions, and quantiles of the latency samples
    pooled over them: a repetition of project_agg has only about 600 blocks
    of answers.  The 90th percentile rather than the 99th: the 99th rose by
    half again as much as the median when the machine slowed, more than
    the calibration corrects."""
    reps = run["reps"]
    return {
        **{k: statistics.median(r[k] for r in reps) for k in ("setup_s", "total_s", "ops_per_s")},
        "op_p50_us": statistics.median(run["op_s"]) * 1e6,
        "op_p90_us": _p(run["op_s"], 90) * 1e6,
        "read_p50_us": statistics.median(run["read_s"]) * 1e6,
        "peak_rss_mb": peak_rss_mb,
    }


# ---------------------------------------------------------------------------
# Per-layer metrics (TRACE=1)
# ---------------------------------------------------------------------------

def _dur(spans) -> float:
    return sum(s[3] - s[2] for s in spans)


def _info(spans, key, default=0):
    for s in spans:
        if s[6] is not None and key in s[6]:
            return s[6][key]
    return default


def layer_metrics(tracer: Tracer, run_id: str) -> dict:
    """Per-layer metrics of one traced repetition."""
    of = lambda name: tracer.of_run(run_id, name)  # noqa: E731
    ingest = of("kdata.load_database")
    plans = of("planner.build_fc_plan") + of("planner.build_guarded_plan")
    prep = of("static_engine.preprocess_with_plan")
    enums = of("static_engine.enumerate_state")
    drains = [s for s in enums if s[6]["limit"] is None]
    gaps = tracer.gaps.get(run_id) or [0.0]
    dyn_pre = of("dynamic_engine.dyn_preprocess")
    n_updates, slowest, noops = tracer.updates.get(run_id, [0, 0.0, 0])
    evals = of("matlang.eval_matlang")
    m = {
        "kdata.ingest_s": _dur(ingest),
        "kdata.ingest_rows_per_s": _info(ingest, "rows") / _dur(ingest) if ingest else 0.0,
        "query.parse_us": _dur(of("query.parse_query")) * 1e6,
        "planner.plan_us": _dur(plans) * 1e6,
        "planner.nodes": _info(plans, "nodes"),
        "planner.identity_nodes": _info(plans, "identity_nodes"),
        "static_engine.preprocess_s": _dur(prep),
        "static_engine.rows_materialized": _info(prep, "rows_materialized"),
        "static_engine.connex_entries": _info(prep, "connex_entries"),
        "static_engine.drain_s": _dur(drains),
        "static_engine.first_answer_us": (drains[0][6]["first"] or 0.0) * 1e6 if drains else 0.0,
        "static_engine.gap_p50_ns": statistics.median(gaps) * 1e9,
        "static_engine.gap_p99_ns": _p(gaps, 99) * 1e9 if len(gaps) > 1 else 0.0,
        "static_engine.gap_max_us": max(gaps) * 1e6,
        "dynamic_engine.preprocess_s": _dur(dyn_pre),
        "dynamic_engine.accumulators": _info(dyn_pre, "accumulators"),
        "dynamic_engine.update_max_us": slowest * 1e6,
        "dynamic_engine.noop_frac": noops / n_updates if n_updates else 0.0,
        "dynamic_engine.read_first_us": (
            statistics.median([s[6]["first"] or 0.0 for s in enums if s[6]["limit"] is not None] or [0.0]) * 1e6
            if dyn_pre
            else 0.0
        ),
        "matlang.load_s": _dur(of("matlang.load_matrix_schema")) + _dur(of("matlang.load_matrix_instance")),
        "matlang.translate_us": _dur(of("matlang.translate_to_cq")) * 1e6,
        "matlang.encode_s": _dur(of("matlang.encode_instance")),
        "matlang.engine_s": _dur(of("static_engine.eval_materialized")),
        "matlang.eval_s": _dur(evals),
        "matlang.fallbacks": sum(1 for s in evals if s[6]["fallback"]),
    }
    m["matlang.decode_s"] = (
        m["matlang.eval_s"] - m["matlang.translate_us"] / 1e6 - m["matlang.encode_s"] - m["matlang.engine_s"]
        if evals
        else 0.0
    )
    return m


def _annotations(workload: str, inputs: Path, sem) -> list:
    if workload == "matlang_hadamard":
        schema = matlang.load_matrix_schema(inputs / "schema.json")
        instance = matlang.load_matrix_instance(schema, inputs, sem)
        return [v for cells in instance.entries.values() for v in cells.values()]
    db = kdata.load_database(inputs / "vocab.json", inputs, sem)
    return [v for rel in db.relations.values() for v in rel.entries.values()]


def replay_metrics(workload: str, inputs: Path, errors: list) -> dict:
    """Single layers replayed outside the workload, untraced; a failing CLI
    run is added to ``errors``."""
    sem = semiring.builtin_semiring(gen.SEMIRING[workload])
    values = _annotations(workload, inputs, sem)
    acc = semiring.acc_new(sem)
    t = perf()
    for v in values:
        acc.insert(v)
    for v in values:
        acc.delete(v)
    m = {"semiring.acc_op_ns": (perf() - t) / (2 * len(values)) * 1e9, "kdata.apply_update_ns": 0.0}
    if workload == "update_stream":
        db = kdata.load_database(inputs / "vocab.json", inputs, sem).copy()
        updates = kdata.parse_update_script(inputs / "updates.ups", sem)
        t = perf()
        for u in updates:
            kdata.apply_update(db, u)
        m["kdata.apply_update_ns"] = (perf() - t) / len(updates) * 1e9

    d = str(inputs)
    if workload == "matlang_hadamard":
        argv = ["matlang", "eval", "--expr", f"{d}/expr.ml", "--schema", f"{d}/schema.json", "--data", d]
    elif workload == "update_stream":
        argv = ["dyn", "--query", f"{d}/query.cq", "--db", d, "--updates", f"{d}/updates.ups"]
    else:
        argv = ["eval", "--query", f"{d}/query.cq", "--db", d]
    argv += ["--semiring", sem.name]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        t = perf()
        code = cli.main(argv)
        m["cli.eval_s"] = perf() - t
    if code != 0:
        errors.append(f"deltaenum {' '.join(argv)} exited with {code}\n")
    return m


def main(argv) -> int:
    workload, inputs, seconds, trace, run_id, out_dir = argv
    inputs, seconds, trace, out_dir = Path(inputs), float(seconds), trace == "1", Path(out_dir)
    out = {}
    if not trace:
        run = repeat(workload, inputs, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if run["reps"]:
            out["metrics"] = end_to_end(run, peak_rss_mb)
    else:
        run = repeat(workload, inputs, seconds / 2)
        tracer = Tracer()
        with patched(tracer.wrappers()):
            traced = repeat(workload, inputs, seconds / 2, tracer=tracer, run_id=run_id)
        run["errors"] += traced["errors"]
        if run["reps"] and traced["reps"]:
            per_rep = [layer_metrics(tracer, f"{run_id}:{i}") for i in range(len(traced["reps"]))]
            layers = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
            layers.update(replay_metrics(workload, inputs, run["errors"]))
            # the tail the end-to-end metrics leave out, from the untraced half
            layers["dynamic_engine.update_p99_us"] = (
                _p(run["op_s"], 99) * 1e6 if workload == "update_stream" else 0.0
            )
            layers["trace.overhead_s"] = statistics.median(r["total_s"] for r in traced["reps"]) - statistics.median(
                r["total_s"] for r in run["reps"]
            )
            out["metrics"] = layers
        tracer.dump(out_dir / "spans.json.gz", {"workload": workload, "run_id": run_id})
        run["reps"] += traced["reps"]
    out["per_rep"] = [{k: v for k, v in r.items() if k not in ("fp", "ops")} for r in run["reps"]]
    out["fps"] = [r["fp"] for r in run["reps"]]
    out["ops"] = [r["ops"] for r in run["reps"]]
    out["errors"] = run["errors"]
    if run["outputs"] is not None:
        with (out_dir / "rep0.pkl").open("wb") as fh:
            pickle.dump(run["outputs"], fh, protocol=pickle.HIGHEST_PROTOCOL)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
