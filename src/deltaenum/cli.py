"""Command-line entry point.

Subcommands: classify, plan, eval, enumerate, dyn, matlang {eval, compile,
classify}.  --semiring selects the annotation domain of the commands that
read data (eval, enumerate, dyn, matlang) and of the generated sources that
plan prints; --json asks classify, plan, eval, enumerate and matlang for
machine-readable reports (timing isolated under a "timing" key); --verify
cross-checks eval, enumerate, dyn and matlang eval against the oracle.  Exit
codes: 0 success, 1 user error, 2 verification mismatch, 141 when the reader
closes stdout early.  The benchmark is ``perfbench/run.py``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from .errors import ClassificationError, EngineError, SchemaError, VocabularyError
from .kdata import load_database, parse_update_script, read_input, update_relation
from .semiring import BUILTIN_SEMIRING_NAMES, builtin_semiring


# the status of a process ended by SIGPIPE, as a shell reports it
EXIT_BROKEN_PIPE = 141


def _read_query(path: str):
    from .query import parse_query

    return parse_query(read_input(path))


def _emit(report: Dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True, default=str))
    else:
        for key, value in report.items():
            print(f"{key}: {value}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_classify(args) -> int:
    from .planner import classify
    from .query import is_constant_disjoint

    q = _read_query(args.query)
    flags = classify(q).as_dict()
    report = {"query": q.to_text(), **flags}
    if not flags["constant_disjoint"]:
        _, witness = is_constant_disjoint(q)
        report["constant_disjoint_witness"] = str(witness)
    _emit(report, args.json)
    return 0


def cmd_plan(args) -> int:
    from .dynamic_engine import update_sources
    from .planner import build_fc_plan, build_guarded_plan
    from .static_engine import plan_sources

    q = _read_query(args.query)
    plan = build_guarded_plan(q) if args.guarded else build_fc_plan(q)
    if plan is None:
        print(f"no plan: query is not {'q-hierarchical' if args.guarded else 'free-connex'}", file=sys.stderr)
        return 1
    nodes = []
    for nid in sorted(plan.nodes):
        node = plan.nodes[nid]
        nodes.append(
            {
                "id": nid,
                "label": str(plan.atoms[node.atom_index]) if node.is_leaf else sorted(plan.vars(nid)),
                "kind": "leaf" if node.is_leaf else "interior",
                "children": node.children,
                "connex": nid in plan.connex,
                "stored": nid in plan.stored,
            }
        )
    report = {"query": q.to_text(), "guarded": plan.guarded, "root": plan.root, "nodes": nodes}
    # the sources that preprocessing compiles for this query, plan and semiring
    semiring = builtin_semiring(args.semiring)
    report["walk"], report["build"] = plan_sources(plan, semiring)
    # ``bounds[i]`` in the sources is the least constant bounding the i-th of these
    report["bounds"] = list(plan.bounded)
    # the dynamic engine refuses a semiring that is not sum-maintainable
    if plan.guarded and semiring.sum_maintainable:
        report["updates"] = update_sources(plan, semiring)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(_plan_dot(plan))
    return 0


def _plan_dot(plan) -> str:
    lines = ["digraph plan {"]
    for nid in sorted(plan.nodes):
        node = plan.nodes[nid]
        label = str(plan.atoms[node.atom_index]) if node.is_leaf else "{" + ",".join(sorted(plan.vars(nid))) + "}"
        shape = "box" if node.is_leaf else "ellipse"
        style = ' style=filled fillcolor="lightblue"' if nid in plan.connex else ""
        if nid in plan.stored:
            style += " peripheries=2"
        lines.append(f'  n{nid} [label="{label}" shape={shape}{style}];')
        for c in node.children:
            lines.append(f"  n{nid} -> n{c};")
    lines.append("}")
    return "\n".join(lines)


def _load_db(args):
    semiring = builtin_semiring(args.semiring)
    vocab = Path(args.db) / "vocab.json"
    return load_database(vocab, args.db, semiring), semiring


def cmd_eval(args) -> int:
    from .oracle import oracle_eval_cq, oracle_eval_ucq
    from .query import parse_rule, rule_query, rule_union
    from .static_engine import enumerate_state, preprocess

    db, semiring = _load_db(args)
    rule = parse_rule(read_input(args.query))
    if len(rule[2]) > 1:  # more than one block: a union of CQs
        if args.verify:
            raise ClassificationError(
                "--verify needs an independent evaluator, and FO+ queries with "
                "disjunction have none: the oracle is their only evaluator"
            )
        cqs = rule_union(rule)
        print("warning: FO+ query with disjunction; using the oracle evaluator", file=sys.stderr)
        answers = oracle_eval_ucq(cqs, db)
        return _print_answers(args, semiring, itertools.islice(answers.items(), args.limit), {})
    q = rule_query(rule)

    timing: Dict[str, float] = {}
    start = time.perf_counter()
    try:
        state = preprocess(q, db)
    except ClassificationError:
        if args.verify:
            raise ClassificationError(
                "--verify needs an independent evaluator, and queries that are not "
                "free-connex have none: the oracle is their only evaluator"
            ) from None
        print("warning: query is not free-connex; using the oracle evaluator", file=sys.stderr)
        stream = itertools.islice(oracle_eval_cq(q, db).entries.items(), args.limit)
    else:
        timing["preprocess_s"] = time.perf_counter() - start
        stream = enumerate_state(state, limit=args.limit)

    if args.verify:
        answers = list(stream)
        if not _answers_match(answers, oracle_eval_cq(q, db).entries, semiring, args.limit):
            print("verification mismatch against the oracle", file=sys.stderr)
            return 2
        return _print_answers(args, semiring, answers, timing)
    return _print_answers(args, semiring, stream, timing)


def _answers_match(answers, want, semiring, limit: Optional[int] = None) -> bool:
    """The answers are distinct, each is in ``want`` with its annotation, and
    they number min(limit, |want|), or |want| without a limit."""
    got = dict(answers)
    expected = len(want) if limit is None else min(limit, len(want))
    if len(got) != len(answers) or len(got) != expected:
        return False
    return all(t in want and _values_match(v, want[t], semiring) for t, v in got.items())


def _values_match(got, want, semiring) -> bool:
    """Equal annotations; real ones within a relative 1e-9 (absolute near
    zero), as summation order moves the last bits of a float sum."""
    if semiring.name == "real":
        return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)
    return got == want


def _print_answers(args, semiring, answers, timing) -> int:
    count = 0
    if args.out == "jsonl":
        for t, v in answers:
            print(json.dumps({"tuple": list(t), "annotation": semiring.format(v)}))
            count += 1
    else:
        count = _print_csv(semiring, answers)
    if args.json:
        print(json.dumps({"count": count, "timing": timing}), file=sys.stderr)
    return 0


def _print_csv(semiring, answers) -> int:
    """Print each answer as a CSV line, its values then its annotation, and
    return how many there were."""
    count = 0
    for t, v in answers:
        print(",".join([*map(str, t), semiring.format(v)]))
        count += 1
    return count


def cmd_dyn(args) -> int:
    from .dynamic_engine import dyn_enumerate, dyn_preprocess, dyn_update
    from .oracle import oracle_eval_cq

    db, semiring = _load_db(args)
    q = _read_query(args.query)
    updates = parse_update_script(args.updates, semiring)
    for i, update in enumerate(updates, 1):  # all of them before the first runs
        try:
            update_relation(db, update)
        except (SchemaError, VocabularyError) as exc:
            raise type(exc)(f"{args.updates}: update {i}: {exc}") from None
    state = dyn_preprocess(q, db)
    for i, update in enumerate([None, *updates]):  # i = 0: the preprocessed state
        if update is not None:
            dyn_update(state, update)
            if args.enumerate_after_each:
                answers = list(dyn_enumerate(state))
                print(f"# after update {i}: {len(answers)} answers")
                _print_csv(semiring, answers)
        if args.verify:
            want = oracle_eval_cq(q, state.db).entries
            if not _answers_match(list(dyn_enumerate(state)), want, semiring):
                where = f"update {i}" if i else "preprocessing"
                print(f"verification mismatch after {where}", file=sys.stderr)
                return 2
    if not args.enumerate_after_each:
        _print_csv(semiring, dyn_enumerate(state))
    return 0


def cmd_matlang(args) -> int:
    from .matlang import (
        classify_fragment,
        eval_matlang,
        infer_cq_types,
        load_matrix_instance,
        load_matrix_schema,
        parse_matlang,
        translate_to_cq,
        with_head,
    )

    if args.verify and args.action != "eval":
        print(f"error: --verify applies to matlang eval, not matlang {args.action}", file=sys.stderr)
        return 1
    schema = load_matrix_schema(args.schema)
    query = parse_matlang(read_input(args.expr), schema)

    if args.action == "classify":
        _emit({"head": query.head, **classify_fragment(query.expr)}, args.json)
        return 0

    if args.action == "compile":
        from .planner import classify as classify_cq

        full = with_head(query, schema)
        cq = translate_to_cq(query, full)
        flags = classify_cq(cq)
        report = {
            "head": query.head,
            "cq": cq.to_text(),
            **classify_fragment(query.expr),
            "translation_free_connex": flags.free_connex,
            "translation_q_hierarchical": flags.q_hierarchical,
            "translation_well_typed": infer_cq_types(cq, full)[0],
        }
        _emit(report, args.json)
        return 0

    if not args.data:
        print("error: matlang eval needs --data", file=sys.stderr)
        return 1
    if args.verify and not classify_fragment(query.expr)["conj_matlang"]:
        raise ClassificationError(
            "--verify needs an independent evaluator, and expressions with "
            "addition have none: the dense evaluator is their only evaluator"
        )
    semiring = builtin_semiring(args.semiring)
    instance = load_matrix_instance(schema, args.data, semiring)
    result = eval_matlang(query, instance)
    if result.warning:
        print(f"warning: {result.warning}", file=sys.stderr)
    if args.verify:
        from .oracle import oracle_eval_matlang

        want = oracle_eval_matlang(query.expr, instance)
        cells = zip(itertools.chain(*result.instance.dense(result.head)), itertools.chain(*want))
        if not all(_values_match(g, w, semiring) for g, w in cells):
            print("verification mismatch against the dense evaluator", file=sys.stderr)
            return 2
    entries = result.instance.entries[result.head]
    if args.json:
        report = {
            "head": result.head,
            "entries": [
                {"i": i, "j": j, "value": semiring.format(v)} for (i, j), v in sorted(entries.items())
            ],
            "used_engine": result.used_engine,
        }
        print(json.dumps(report, indent=2))
    else:
        for (i, j), v in sorted(entries.items()):
            print(f"{i} {j} {semiring.format(v)}")
    return 0


def _limit(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, not {value}")
    return value


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltaenum",
        description="Semiring-generic conjunctive query engine with constant-delay enumeration",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "--semiring": dict(choices=BUILTIN_SEMIRING_NAMES, default="natural"),
        "--json": dict(action="store_true", help="machine-readable output"),
        "--verify": dict(action="store_true", help="cross-check against the oracle"),
        "--db": dict(required=True, help="directory with vocab.json and <R>.csv files"),
    }

    def add_flags(p, *names):
        for name in names:
            p.add_argument(name, **flags[name])

    p = sub.add_parser("classify", help="structural classification of a query")
    p.add_argument("query")
    add_flags(p, "--json")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("plan", help="emit the query plan as JSON or Graphviz")
    p.add_argument("query")
    p.add_argument("--guarded", action="store_true", help="build the guarded (dynamic) plan")
    add_flags(p, "--semiring", "--json")
    p.set_defaults(func=cmd_plan)

    for name, help_text in (("eval", "evaluate a query"), ("enumerate", "stream answers")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--query", required=True)
        p.add_argument("--limit", type=_limit, default=None)
        p.add_argument("--out", choices=("csv", "jsonl"), default="csv")
        add_flags(p, "--db", "--semiring", "--json", "--verify")
        p.set_defaults(func=cmd_eval)

    p = sub.add_parser("dyn", help="apply single-tuple updates with maintenance")
    p.add_argument("--query", required=True)
    p.add_argument("--updates", required=True, help="update script, one '+ R 1 2 7' or '- R 1 2' per line")
    p.add_argument("--enumerate-after-each", action="store_true")
    add_flags(p, "--db", "--semiring", "--verify")
    p.set_defaults(func=cmd_dyn)

    p = sub.add_parser("matlang", help="matrix expression frontend")
    p.add_argument("action", choices=("eval", "compile", "classify"))
    p.add_argument("--expr", required=True, help=".ml file with 'H := expression'")
    p.add_argument("--schema", required=True, help="schema JSON")
    p.add_argument("--data", help="directory with <A>.coo files (eval only)")
    add_flags(p, "--semiring", "--json", "--verify")
    p.set_defaults(func=cmd_matlang)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout: send what is left, and the flush at
        # interpreter exit, to the null device (Python's ``signal`` docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
