"""Seeded input generators for the benchmark workloads.

Each generator draws one instance from ``random.Random(seed)`` and returns it
as plain data; ``write_inputs`` turns it into the files the program reads:
``vocab.json`` plus one CSV per relation and a ``query.cq`` (relational
workloads), an ``updates.ups`` script (update_stream), or ``schema.json``,
one COO file per matrix and ``expr.ml`` (matlang_hadamard).  The same seed
always gives byte-identical files.

Sizes are parameters so that the tests can build small instances of the very
same shape and check the references against the oracle.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Dict, List, Tuple

# Full benchmark sizes: one repetition takes at most about two seconds on a
# 2-CPU machine, so that a 25 s run holds ten or more (see README.md).
SIZES = {
    "join_drain": {"n": 40_000},
    "project_agg": {"n": 50_000},
    "update_stream": {"n": 40_000, "updates": 40_000},
    "matlang_hadamard": {"nnz": 200_000},
}

# The semiring each workload's annotations live in.
SEMIRING = {
    "join_drain": "natural",
    "project_agg": "real",
    "update_stream": "real",
    "matlang_hadamard": "natural",
}

# A bounded read takes the first READ_K answers; update_stream takes one
# after every READ_BATCH updates, and every CHECK_EVERY-th of those, from the
# first, is checked against a fresh static preprocess, which is too slow to
# run after every read.  Reads of 100 answers differed by 10-15% between
# seeds, with where the first answers fell; 1000 answers average that out.
READ_K = 1000
READ_BATCH = 2000
CHECK_EVERY = 5


def checked_reads(n_updates: int) -> range:
    """Update counts after which update_stream's read is checked."""
    return range(READ_BATCH, n_updates + 1, READ_BATCH * CHECK_EVERY)


def _real(rng: random.Random) -> float:
    # positive and non-dyadic: sums are inexact in binary floating point,
    # but never cancel to zero
    return rng.randint(1, 9) / 10


def _distinct(rng: random.Random, count: int, draw) -> List[tuple]:
    seen: Dict[tuple, None] = {}
    while len(seen) < count:
        seen[draw()] = None
    return list(seen)


def join_drain(rng: random.Random, n: int) -> dict:
    """Full join H(x,y,z) :- R(x,y), S(y,z): n tuples each, about 4n answers."""
    ydom = max(2, n // 4)
    xdom = zdom = max(2, n // 2)
    r = _distinct(rng, n, lambda: (rng.randint(1, xdom), rng.randint(1, ydom)))
    s = _distinct(rng, n, lambda: (rng.randint(1, ydom), rng.randint(1, zdom)))
    return {
        "query": "H(x,y,z) :- R(x,y), S(y,z).",
        "constants": {},
        "relations": {
            "R": (2, {t: rng.randint(1, 3) for t in r}),
            "S": (2, {t: rng.randint(1, 3) for t in s}),
        },
    }


def project_agg(rng: random.Random, n: int) -> dict:
    """H(x,w) :- R(x,y), S(y,z), T(z), y <= alpha, w <= beta over the reals.

    R and S hold n tuples, T n/4; x ranges over about 2k values, alpha keeps
    half of the y values and beta = 5, so the output is about 10k answers.
    """
    xdom = max(2, min(2000, n // 25))
    ydom = max(2, n // 10)
    zdom = max(2, n // 2)
    r = _distinct(rng, n, lambda: (rng.randint(1, xdom), rng.randint(1, ydom)))
    s = _distinct(rng, n, lambda: (rng.randint(1, ydom), rng.randint(1, zdom)))
    t = _distinct(rng, max(1, n // 4), lambda: (rng.randint(1, zdom),))
    return {
        "query": "H(x,w) :- R(x,y), S(y,z), T(z), y <= alpha, w <= beta.",
        "constants": {"alpha": max(1, ydom // 2), "beta": 5},
        "relations": {
            "R": (2, {k: _real(rng) for k in r}),
            "S": (2, {k: _real(rng) for k in s}),
            "T": (1, {k: _real(rng) for k in t}),
        },
    }


class _Present:
    """Set of present tuples with O(1) random choice and removal."""

    def __init__(self, tuples) -> None:
        self.items: List[tuple] = list(tuples)
        self.pos = {t: i for i, t in enumerate(self.items)}

    def __contains__(self, t) -> bool:
        return t in self.pos

    def __len__(self) -> int:
        return len(self.items)

    def add(self, t) -> None:
        self.pos[t] = len(self.items)
        self.items.append(t)

    def remove(self, t) -> None:
        i = self.pos.pop(t)
        last = self.items.pop()
        if i < len(self.items):
            self.items[i] = last
            self.pos[last] = i


def update_stream(rng: random.Random, n: int, updates: int) -> dict:
    """3-level q-hierarchical H(x,y) :- R(x,y,z), S(x,y), U(x) over the reals.

    The initial database holds n tuples in R, n/4 in S and most x values in U.
    The stream draws R, S, U with weights 6:3:1 and mixes 30% inserts that
    combine with a present tuple, 30% inserts of absent tuples, 30% deletes
    of present tuples and 10% deletes of absent tuples, so the database size
    stays about constant.
    """
    xdom = max(2, n // 40)
    ydom, zdom = 20, 10
    draws = {
        "R": lambda: (rng.randint(1, xdom), rng.randint(1, ydom), rng.randint(1, zdom)),
        "S": lambda: (rng.randint(1, xdom), rng.randint(1, ydom)),
        "U": lambda: (rng.randint(1, xdom),),
    }
    counts = {"R": n, "S": max(1, n // 4), "U": max(1, (xdom * 4) // 5)}
    domain = {"R": xdom * ydom * zdom, "S": xdom * ydom, "U": xdom}
    relations = {}
    present = {}
    for name, draw in draws.items():
        tuples = _distinct(rng, counts[name], draw)
        relations[name] = (len(tuples[0]), {t: _real(rng) for t in tuples})
        present[name] = _Present(tuples)
    stream: List[Tuple[str, str, tuple, float]] = []
    names = ["R"] * 6 + ["S"] * 3 + ["U"]
    while len(stream) < updates:
        name = rng.choice(names)
        live = present[name]
        roll = rng.random()
        if roll < 0.3:
            if not len(live):
                continue
            t = rng.choice(live.items)
            stream.append(("+", name, t, _real(rng)))
        elif roll < 0.6:
            # redraw until absent, so that inserts balance the deletes
            if len(live) == domain[name]:
                continue
            t = draws[name]()
            while t in live:
                t = draws[name]()
            live.add(t)
            stream.append(("+", name, t, _real(rng)))
        elif roll < 0.9:
            if not len(live):
                continue
            t = rng.choice(live.items)
            live.remove(t)
            stream.append(("-", name, t, 0.0))
        else:
            t = draws[name]()
            if t in live:
                continue
            stream.append(("-", name, t, 0.0))
    return {
        "query": "H(x,y) :- R(x,y,z), S(x,y), U(x).",
        "constants": {},
        "relations": relations,
        "updates": stream,
    }


def matlang_hadamard(rng: random.Random, nnz: int) -> dict:
    """H := A .* (U * V^T): sparse n x n A with nnz entries, unary U and V.

    n grows with sqrt(nnz) (n = 4000 at 200k non-zeros); U and V hold about
    80% of their n entries, so about 64% of A's entries survive.
    """
    n = max(2, int((nnz * 80) ** 0.5))
    a = _distinct(rng, nnz, lambda: (rng.randint(1, n), rng.randint(1, n)))
    vectors = {}
    for name in ("U", "V"):
        vectors[name] = {(i, 1): rng.randint(1, 3) for i in range(1, n + 1) if rng.random() < 0.8}
    return {
        "expr": "H := A .* (U * V^T)",
        "schema": {
            "sizes": {"n": n},
            "matrices": {
                "A": {"type": ["n", "n"]},
                "U": {"type": ["n", "1"], "encoding": "unary"},
                "V": {"type": ["n", "1"], "encoding": "unary"},
            },
        },
        "matrices": {
            "A": {k: rng.randint(1, 3) for k in a},
            **vectors,
        },
    }


GENERATORS = {
    "join_drain": join_drain,
    "project_agg": project_agg,
    "update_stream": update_stream,
    "matlang_hadamard": matlang_hadamard,
}
WORKLOADS = tuple(GENERATORS)


def generate(workload: str, seed: int, **sizes) -> dict:
    """Instance of ``workload`` for ``seed``; sizes default to SIZES."""
    params = {**SIZES[workload], **sizes}
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"), **params)


def _fmt(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def write_inputs(instance: dict, out: Path) -> None:
    """Write ``instance`` as the program's input files under ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    if "expr" in instance:
        (out / "schema.json").write_text(json.dumps(instance["schema"]))
        (out / "expr.ml").write_text(instance["expr"] + "\n")
        for name, cells in instance["matrices"].items():
            lines = [f"{i} {j} {_fmt(v)}\n" for (i, j), v in cells.items()]
            (out / f"{name}.coo").write_text("".join(lines))
        return
    vocab = {
        "relations": {name: arity for name, (arity, _) in instance["relations"].items()},
        "constants": instance["constants"],
    }
    (out / "vocab.json").write_text(json.dumps(vocab))
    (out / "query.cq").write_text(instance["query"] + "\n")
    for name, (_, entries) in instance["relations"].items():
        lines = [",".join(map(str, t)) + "," + _fmt(v) + "\n" for t, v in entries.items()]
        (out / f"{name}.csv").write_text("".join(lines))
    if "updates" in instance:
        lines = []
        for op, name, t, v in instance["updates"]:
            args = " ".join(map(str, t))
            lines.append(f"+ {name} {args} {_fmt(v)}\n" if op == "+" else f"- {name} {args}\n")
        (out / "updates.ups").write_text("".join(lines))
