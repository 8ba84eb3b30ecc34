"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the scaling criteria build databases up to size 10^6 and take a few
minutes in total.
"""

import gc
import math
import random
import statistics
import sys
import time

import pytest

from deltaenum.dynamic_engine import dyn_enumerate, dyn_preprocess, dyn_update
from deltaenum.generators import (
    corpus_rng,
    random_db_for_query,
    random_free_connex_cq,
    random_q_hierarchical_cq,
    scaling_db,
    scaling_dynamic_query,
    scaling_static_query,
)
from deltaenum.kdata import SingleTupleUpdate
from deltaenum.oracle import oracle_eval_cq
from deltaenum.planner import build_fc_plan, classify, verify_plan
from deltaenum.query import parse_query, split
from deltaenum.semiring import builtin_semiring
from deltaenum.static_engine import enumerate_state, preprocess, preprocess_with_plan


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] {criterion}: {status}"
    if detail:
        line += f" ({detail})"
    print(line, file=sys.stderr)


def answers_match(got, want, semiring) -> bool:
    if semiring.name == "real":
        return set(got) == set(want) and all(abs(got[t] - want[t]) <= 1e-9 for t in got)
    return got == want


def test_criterion_1_static_oracle_equivalence():
    """1,000 random free-connex CQs x random dbs x {boolean, natural, real}."""
    semirings = [builtin_semiring(n) for n in ("boolean", "natural", "real")]
    rng = corpus_rng(1)
    start = time.perf_counter()
    failures = 0
    for _ in range(1000):
        q = random_free_connex_cq(rng, max_atoms=4, max_vars=6)
        for semiring in semirings:
            db = random_db_for_query(rng, q, semiring, max_tuples=30, domain=5)
            got = dict(enumerate_state(preprocess(q, db)))
            want = oracle_eval_cq(q, db).entries
            if not answers_match(got, want, semiring):
                failures += 1
                print(f"  mismatch: {q.to_text()} over {semiring.name}", file=sys.stderr)
    elapsed = time.perf_counter() - start
    report("1 static oracle equivalence", failures == 0, f"{elapsed:.1f}s, 3000 cases")
    assert failures == 0


def test_criterion_2_dynamic_oracle_equivalence():
    """100 random q-hierarchical queries, 200-step update streams, two semirings."""
    rng = corpus_rng(2)
    start = time.perf_counter()
    failures = 0
    for case in range(100):
        semiring = builtin_semiring("natural" if case % 2 else "boolean")
        q = random_q_hierarchical_cq(rng, max_atoms=3, max_vars=4)
        db = random_db_for_query(rng, q, semiring, max_tuples=15, domain=4)
        state = dyn_preprocess(q, db)
        fc_plan = build_fc_plan(q)
        symbols = sorted({a.symbol for a in q.relational_atoms})
        for step in range(200):
            symbol = rng.choice(symbols)
            arity = db.relations[symbol].arity
            t = tuple(rng.randrange(1, 5) for _ in range(arity))
            if rng.random() < 0.4:
                u = SingleTupleUpdate("delete", symbol, t)
            else:
                value = semiring.sample(rng)
                while semiring.is_zero(value):
                    value = semiring.sample(rng)
                u = SingleTupleUpdate("insert", symbol, t, value)
            dyn_update(state, u)
            got = dict(dyn_enumerate(state))
            want = oracle_eval_cq(q, db).entries
            static = dict(enumerate_state(preprocess_with_plan(q, db, fc_plan)))
            if got != want or got != static:
                failures += 1
                print(f"  mismatch at step {step}: {q.to_text()}", file=sys.stderr)
                break
    elapsed = time.perf_counter() - start
    report("2 dynamic oracle equivalence", failures == 0, f"{elapsed:.1f}s, 100 streams x 200 steps")
    assert failures == 0


def test_criterion_3_classification_fixtures():
    fixtures = [
        ("H(x,y) :- A(x,z), B(z,y).", {"free_connex": False}),
        ("H(x) :- A(x,y), U(x).", {"q_hierarchical": True}),
        ("H(x) :- A(x,y), U(y).", {"free_connex": True, "q_hierarchical": False}),
        ("H(x,y) :- A(x,y), U(x), V(y).", {"free_connex": True, "q_hierarchical": False}),
    ]
    ok = True
    for text, expected in fixtures:
        flags = classify(parse_query(text)).as_dict()
        for key, want in expected.items():
            if flags[key] != want:
                ok = False
                print(f"  {text}: {key} = {flags[key]}, expected {want}", file=sys.stderr)
    report("3 classification fixtures", ok)
    assert ok


def test_criterion_4_structural_bounds():
    rng = corpus_rng(4)
    ok = True
    checked = 0
    while checked < 500:
        q = random_free_connex_cq(rng, max_atoms=4, max_vars=6)
        rel = split(q).rel_part
        if not rel.relational_atoms or not rel.head_vars:
            continue
        checked += 1
        plan = build_fc_plan(q)
        if len(plan.levels) > len(rel.head_vars):
            ok = False
            print(f"  levels > |free|: {q.to_text()}", file=sys.stderr)
        if len(plan.nodes) > 3 * len(rel.relational_atoms):
            ok = False
            print(f"  nodes > 3|atoms|: {q.to_text()}", file=sys.stderr)
        problems = verify_plan(plan, rel)
        if problems:
            ok = False
            print(f"  plan invariants: {q.to_text()}: {problems}", file=sys.stderr)
    report("4 structural bounds", ok, "500 queries")
    assert ok


SIZES = (10**3, 10**4, 10**5, 10**6)


@pytest.fixture(scope="module")
def scaling_states():
    # fixed free-connex query; the head domain stays bounded so the output
    # cardinality (and hence the measurement window for the max-gap statistic)
    # is comparable across scales
    semiring = builtin_semiring("natural")
    q = scaling_static_query()
    rng = random.Random(24)
    out = {}
    for size in SIZES:
        db = scaling_db(rng, semiring, size, head_domain=150)
        start = time.perf_counter()
        state = preprocess(q, db)
        out[size] = (db, state, time.perf_counter() - start)
    return out


def _size(db) -> int:
    """(arity + 1) per stored tuple, plus one per constant."""
    return sum((r.arity + 1) * len(r) for r in db.relations.values()) + len(db.constants)


def test_criterion_5_linear_preprocessing(scaling_states):
    points = [(_size(db), seconds) for db, _, seconds in scaling_states.values()]
    xs = [math.log10(n) for n, _ in points]
    ys = [math.log10(max(t, 1e-9)) for _, t in points]
    n = len(xs)
    mean_x, mean_y = sum(xs) / n, sum(ys) / n
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum(
        (x - mean_x) ** 2 for x in xs
    )
    detail = ", ".join(f"{n}: {t * 1000:.1f}ms" for n, t in points) + f"; slope {slope:.2f}"
    ok = 0.8 <= slope <= 1.3
    report("5 linear preprocessing proxy", ok, detail)
    assert ok


def _max_gap_run(state) -> float:
    worst = 0.0
    last = None
    for _ in enumerate_state(state):
        now = time.perf_counter()
        if last is not None and now - last > worst:
            worst = now - last
        last = now
    return worst


def test_criterion_6_constant_delay(scaling_states):
    small_state = scaling_states[10**3][1]
    large_state = scaling_states[10**6][1]
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        # warm-up, then interleave the runs so both sizes see the same
        # ambient scheduler noise
        list(enumerate_state(small_state))
        list(enumerate_state(large_state))
        small_runs = []
        large_runs = []
        for _ in range(5):
            small_runs.append(_max_gap_run(small_state))
            large_runs.append(_max_gap_run(large_state))
    finally:
        if gc_was_enabled:
            gc.enable()
    small = statistics.median(small_runs)
    large = statistics.median(large_runs)
    ok = large <= 5 * max(small, 1e-7)
    report(
        "6 constant-delay proxy",
        ok,
        f"median max gap {small * 1e6:.1f}us at 1e3 vs {large * 1e6:.1f}us at 1e6",
    )
    assert ok


def test_criterion_7_constant_update_time():
    semiring = builtin_semiring("natural")
    q = scaling_dynamic_query()
    rng = random.Random(77)
    means = {}
    for size in (10**3, 10**6):
        db = scaling_db(rng, semiring, size, dynamic=True)
        x_domain = min(1000, max(4, size // 4))
        y_domain = max(4, size // 4)
        state = dyn_preprocess(q, db)
        run_means = []
        for _ in range(5):
            updates = []
            for _ in range(10**5):
                t = (rng.randrange(1, x_domain + 1), rng.randrange(1, y_domain + 1))
                if rng.random() < 0.5:
                    updates.append(SingleTupleUpdate("insert", "A", t, semiring.one))
                else:
                    updates.append(SingleTupleUpdate("delete", "A", t))
            gc.disable()
            start = time.perf_counter()
            for u in updates:
                dyn_update(state, u)
            elapsed = time.perf_counter() - start
            gc.enable()
            run_means.append(elapsed / len(updates))
        means[size] = statistics.median(run_means)
    ratio = means[10**6] / means[10**3]
    ok = ratio <= 3.0
    report(
        "7 constant-update proxy",
        ok,
        f"mean update {means[10**3] * 1e6:.1f}us at 1e3 vs {means[10**6] * 1e6:.1f}us at 1e6 (ratio {ratio:.2f})",
    )
    assert ok


def test_criterion_8_matlang_simulation():
    from deltaenum.generators import (
        random_conj_expression,
        random_matrix_instance,
        random_matrix_schema,
    )
    from deltaenum.matlang import (
        MatQuery,
        decode_instance,
        encode_instance,
        eval_matlang,
    )
    from deltaenum.oracle import oracle_eval_matlang

    rng = corpus_rng(8)
    semirings = [builtin_semiring("boolean"), builtin_semiring("natural")]
    failures = 0
    found = 0
    while found < 200:
        schema = random_matrix_schema(rng, max_dim=6)
        expr = random_conj_expression(rng, schema, max_depth=4)
        if expr is None:
            continue
        found += 1
        semiring = semirings[found % 2]
        instance = random_matrix_instance(rng, schema, semiring, density=0.5)
        # simulation commutes
        result = eval_matlang(MatQuery("HOUT", expr), instance)
        if result.instance.dense("HOUT") != oracle_eval_matlang(expr, instance):
            failures += 1
            print(f"  simulation mismatch: {expr}", file=sys.stderr)
        # round trips
        db = encode_instance(instance)
        back = decode_instance(db, schema)
        if back.entries != instance.entries or back.schema.sizes != instance.schema.sizes:
            failures += 1
            print("  encode/decode round trip failed", file=sys.stderr)
        db2 = encode_instance(back)
        if {r: db2.relations[r].entries for r in db2.relations} != {
            r: db.relations[r].entries for r in db.relations
        } or db2.constants != db.constants:
            failures += 1
            print("  decode/encode round trip failed", file=sys.stderr)
    report("8 matlang simulation", failures == 0, "200 expressions + round trips")
    assert failures == 0


def test_criterion_9_semiring_axioms_and_accumulators():
    from deltaenum.semiring import acc_new, sum_of_ones

    rng = corpus_rng(9)
    ok = True
    for name in ("boolean", "natural", "real", "tropical-min"):
        s = builtin_semiring(name)
        tol = 1e-9 if name == "real" else 0.0

        def close(a, b):
            if tol and isinstance(a, float) and math.isfinite(a) and math.isfinite(b):
                return abs(a - b) <= tol
            return a == b

        for _ in range(10_000):
            a, b, c = s.sample(rng), s.sample(rng), s.sample(rng)
            checks = (
                close(s.add(s.add(a, b), c), s.add(a, s.add(b, c))),
                close(s.add(a, b), s.add(b, a)),
                close(s.add(a, s.zero), a),
                close(s.mul(s.mul(a, b), c), s.mul(a, s.mul(b, c))),
                close(s.mul(a, b), s.mul(b, a)),
                close(s.mul(a, s.one), a),
                close(s.mul(a, s.add(b, c)), s.add(s.mul(a, b), s.mul(a, c))),
                s.is_zero(s.mul(s.zero, a)),
            )
            if not all(checks):
                ok = False
                print(f"  axiom failure in {name}: {(a, b, c)}", file=sys.stderr)
                break
    # accumulator against a list-based reference
    for name in ("boolean", "natural", "real"):
        s = builtin_semiring(name)
        acc = acc_new(s)
        members = []
        for step in range(10_000):
            if members and rng.random() < 0.4:
                v = members.pop(rng.randrange(len(members)))
                acc.delete(v)
            else:
                v = s.sample(rng)
                members.append(v)
                acc.insert(v)
        want = s.zero
        for v in members:
            want = s.add(want, v)
        got = acc.total()
        if name == "real":
            if abs(got - want) > 1e-6 * max(1.0, abs(want)):
                ok = False
        elif got != want:
            ok = False
    for n in range(0, 1001):
        for name in ("boolean", "natural"):
            s = builtin_semiring(name)
            want = s.zero
            for _ in range(n):
                want = s.add(want, s.one)
            if sum_of_ones(s, n) != want:
                ok = False
    report("9 semiring axioms and accumulators", ok)
    assert ok
