"""References the benchmark checks the program's answers against.

The static references read the generated files with plain Python and compute
the answer directly: a hash join for join_drain, a grouped aggregation for
project_agg and a sparse entrywise product for matlang_hadamard.  For
update_stream the reference is a fresh static preprocess of the database at
each checkpoint, with the updates applied to plain dicts.  The tests in
``test_reference.py`` cross-check every reference against the brute-force
oracle on small instances from the same generators.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

# Absolute tolerance on real annotations; the same as ``deltaenum eval
# --verify`` (cli._answers_match).
REAL_TOLERANCE = 1e-9

Answers = Dict[tuple, object]


def read_relation(path: Path, parse) -> Dict[tuple, object]:
    if not path.exists():
        return {}
    with path.open(newline="") as fh:
        return {tuple(int(f) for f in row[:-1]): parse(row[-1]) for row in csv.reader(fh) if row}


def read_relational_inputs(inputs: Path, parse) -> Tuple[dict, Dict[str, Dict[tuple, object]]]:
    vocab = json.loads((inputs / "vocab.json").read_text())
    rels = {name: read_relation(inputs / f"{name}.csv", parse) for name in vocab["relations"]}
    return vocab.get("constants", {}), rels


def join_drain_reference(inputs: Path) -> Answers:
    """H(x,y,z) = R(x,y) * S(y,z) by a hash join on y."""
    _, rels = read_relational_inputs(inputs, int)
    by_y: Dict[int, List[Tuple[int, int]]] = {}
    for (y, z), k in rels["S"].items():
        by_y.setdefault(y, []).append((z, k))
    out: Answers = {}
    for (x, y), k in rels["R"].items():
        for z, k2 in by_y.get(y, ()):
            out[(x, y, z)] = k * k2
    return out


def project_agg_reference(inputs: Path) -> Answers:
    """H(x,w) = sum over y <= alpha and z of R(x,y) S(y,z) T(z), w in 1..beta."""
    consts, rels = read_relational_inputs(inputs, float)
    alpha, beta = consts["alpha"], consts["beta"]
    t = rels["T"]
    per_y: Dict[int, List[float]] = {}
    for (y, z), k in rels["S"].items():
        if (z,) in t:
            per_y.setdefault(y, []).append(k * t[(z,)])
    y_sum = {y: math.fsum(terms) for y, terms in per_y.items()}
    per_x: Dict[int, List[float]] = {}
    for (x, y), k in rels["R"].items():
        if y <= alpha and y in y_sum:
            per_x.setdefault(x, []).append(k * y_sum[y])
    out: Answers = {}
    for x, terms in per_x.items():
        total = math.fsum(terms)
        if total != 0.0:
            for w in range(1, beta + 1):
                out[(x, w)] = total
    return out


def matlang_reference(inputs: Path) -> Answers:
    """H(i,j) = A(i,j) * U(i) * V(j), as H's (i, j) -> value entries."""

    def coo(name: str) -> Dict[Tuple[int, int], int]:
        cells = {}
        for line in (inputs / f"{name}.coo").read_text().splitlines():
            i, j, v = line.split()
            cells[(int(i), int(j))] = int(v)
        return cells

    a, u, v = coo("A"), coo("U"), coo("V")
    out: Answers = {}
    for (i, j), k in a.items():
        ku, kv = u.get((i, 1)), v.get((j, 1))
        if ku is not None and kv is not None:
            out[(i, j)] = k * ku * kv
    return out


def replay_updates(rels: Dict[str, Dict[tuple, float]], lines: List[str]) -> None:
    """Apply update-script lines to plain relation dicts: ``+`` adds the
    annotation to the stored one (dropping a zero sum), ``-`` removes."""
    for line in lines:
        op, name, *fields = line.split()
        rel = rels[name]
        if op == "+":
            t = tuple(int(f) for f in fields[:-1])
            total = rel.get(t, 0.0) + float(fields[-1])
            if total == 0.0:
                rel.pop(t, None)
            else:
                rel[t] = total
        else:
            rel.pop(tuple(int(f) for f in fields), None)


def update_stream_reference(inputs: Path, checkpoints: Iterable[int]) -> Dict[int, Answers]:
    """Answers after each checkpoint (a count of applied updates), each from
    a fresh static preprocess of the database mutated by ``replay_updates``."""
    from deltaenum import kdata, query, semiring, static_engine

    vocab = json.loads((inputs / "vocab.json").read_text())
    consts, rels = read_relational_inputs(inputs, float)
    lines = (inputs / "updates.ups").read_text().splitlines()
    q = query.parse_query((inputs / "query.cq").read_text())
    out: Dict[int, Answers] = {}
    applied = 0
    for point in sorted(set(checkpoints)):
        replay_updates(rels, lines[applied:point])
        applied = point
        db = kdata.Database(
            semiring.builtin_semiring("real"),
            {name: kdata.AnnotatedRelation(vocab["relations"][name], dict(rel)) for name, rel in rels.items()},
            dict(consts),
        )
        out[point] = dict(static_engine.enumerate_state(static_engine.preprocess(q, db)))
    return out


def values_match(got, want, real: bool) -> bool:
    return abs(got - want) <= REAL_TOLERANCE if real else got == want


def _wrong(got: Iterable[Tuple[tuple, object]], want: Answers, real: bool) -> Tuple[int, set]:
    """Answers in ``got`` that are duplicated, absent from or unequal to
    ``want``, and the distinct tuples of ``got``."""
    bad = 0
    seen = set()
    for t, k in got:
        if t in seen or t not in want or not values_match(k, want[t], real):
            bad += 1
        seen.add(t)
    return bad, seen


def count_mismatches(got: Iterable[Tuple[tuple, object]], want: Answers, real: bool) -> int:
    """Wrong answers in ``got`` plus answers of ``want`` that it misses."""
    bad, seen = _wrong(got, want, real)
    return bad + sum(1 for t in want if t not in seen)


def count_prefix_mismatches(got: List[Tuple[tuple, object]], want: Answers, limit: int, real: bool) -> int:
    """Mismatches of a bounded read: ``got`` must hold min(limit, |want|)
    distinct answers of ``want`` with matching values."""
    bad, seen = _wrong(got, want, real)
    return bad + max(0, min(limit, len(want)) - len(seen))


def fingerprint(answers: Iterable) -> Tuple[int, int]:
    """Order-independent digest of a collection of hashable answers."""
    count = 0
    total = 0
    for a in answers:
        total += hash(a)
        count += 1
    return count, total & 0xFFFFFFFFFFFFFFFF
