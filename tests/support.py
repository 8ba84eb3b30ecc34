"""Seeded random corpora for the tests: annotations, queries, databases,
updates, matrix expressions and instances, and the scaling databases; and
the interpreted connex build, the reference for the generated one.

The seed of ``corpus_rng`` comes from DELTA_ENUM_SEED when set.
``test_corpora`` pins what the draws return.
"""

from __future__ import annotations

import math
import os
import random
from collections import Counter
from typing import Dict, List, Optional, Tuple

from deltaenum.errors import TypeCheckError
from deltaenum.kdata import AnnotatedRelation, Database, SingleTupleUpdate
from deltaenum.matlang import (
    Add,
    Hadamard,
    IdentityMatrix,
    MatLangExpr,
    MatMul,
    MatrixInstance,
    MatrixSchema,
    MatrixSymbol,
    OnesVector,
    ScalarMul,
    SumIteration,
    Transpose,
    VectorVariable,
    free_vector_variables,
    typecheck,
)
from deltaenum.planner import classify
from deltaenum.query import ConjunctiveQuery, IneqAtom, RelAtom, parse_query
from deltaenum.semiring import SemiringDescriptor

DEFAULT_SEED = 987654321


def corpus_rng(offset: int = 0) -> random.Random:
    seed = int(os.environ.get("DELTA_ENUM_SEED", DEFAULT_SEED))
    return random.Random(seed + offset)


# What the corpora draw as annotations of each built-in semiring.  Quarters
# keep real sums exact while still cancelling (k + (-k) == 0.0), and
# integer-valued floats keep min/+ exact.
_SAMPLERS = {
    "boolean": lambda rng: rng.random() < 0.5,
    "natural": lambda rng: rng.randrange(0, 6),
    "real": lambda rng: rng.randrange(-12, 13) / 4.0,
    "tropical-min": lambda rng: math.inf if rng.random() < 0.1 else float(rng.randrange(0, 20)),
}


def sample(semiring: SemiringDescriptor, rng: random.Random):
    """A random value of a built-in semiring, possibly its zero."""
    return _SAMPLERS[semiring.name](rng)


def close(semiring, a, b) -> bool:
    """Equal values; finite reals within an absolute 1e-9."""
    if semiring.name == "real" and isinstance(a, float) and math.isfinite(a) and math.isfinite(b):
        return abs(a - b) <= 1e-9
    return a == b


def equal_answers(got, want, semiring) -> bool:
    if semiring.name == "real":
        return set(got) == set(want) and all(abs(got[t] - want[t]) <= 1e-9 for t in got)
    return got == want


def fold(s, values):
    total = s.zero
    for v in values:
        total = s.add(total, v)
    return total


def axioms_hold(s, a, b, c) -> bool:
    """The commutative-semiring axioms on one triple, up to ``close``."""
    return all((
        close(s, s.add(s.add(a, b), c), s.add(a, s.add(b, c))),
        close(s, s.add(a, b), s.add(b, a)),
        close(s, s.add(a, s.zero), a),
        close(s, s.mul(s.mul(a, b), c), s.mul(a, s.mul(b, c))),
        close(s, s.mul(a, b), s.mul(b, a)),
        close(s, s.mul(a, s.one), a),
        close(s, s.mul(a, s.add(b, c)), s.add(s.mul(a, b), s.mul(a, c))),
        s.is_zero(s.mul(s.zero, a)),
    ))


def interleave_members(rng, semiring, acc, steps):
    """``steps`` random updates of accumulator ``acc``: while it has members,
    delete a random one with probability 0.4, else insert a fresh sample.
    Yields the list of members after each step."""
    members = []
    for _ in range(steps):
        if members and rng.random() < 0.4:
            acc.delete(members.pop(rng.randrange(len(members))))
        else:
            v = sample(semiring, rng)
            members.append(v)
            acc.insert(v)
        yield members


# ---------------------------------------------------------------------------
# Conjunctive queries, databases and updates
# ---------------------------------------------------------------------------

def random_cq(
    rng: random.Random,
    max_atoms: int = 4,
    max_vars: int = 6,
    with_inequalities: bool = True,
    max_arity: int = 3,
    self_join_prob: float = 0.2,
) -> ConjunctiveQuery:
    variables = [f"v{i}" for i in range(rng.randrange(1, max_vars + 1))]
    atoms: List = []
    used: set = set()
    arities: Dict[str, int] = {}
    for i in range(rng.randrange(1, max_atoms + 1)):
        if arities and rng.random() < self_join_prob:
            symbol = rng.choice(sorted(arities))
            arity = arities[symbol]
        else:
            symbol = f"R{i}"
            arity = rng.randrange(1, max_arity + 1)
            arities[symbol] = arity
        args = tuple(rng.choice(variables) for _ in range(arity))
        atoms.append(RelAtom(symbol, args))
        used.update(args)
    if with_inequalities:
        for _ in range(rng.randrange(0, 3)):
            v = rng.choice(variables + ["w0", "w1"])
            atoms.append(IneqAtom(v, rng.choice(["c", "d", "1"])))
            used.add(v)
    head = tuple(v for v in sorted(used) if rng.random() < 0.5)
    return ConjunctiveQuery("H", head, tuple(atoms))


def random_db_for_query(
    rng: random.Random,
    q: ConjunctiveQuery,
    semiring: SemiringDescriptor,
    max_tuples: int = 30,
    domain: int = 5,
) -> Database:
    db = Database(semiring)
    arities = {a.symbol: len(a.args) for a in q.relational_atoms}
    per_relation = max(1, max_tuples // max(1, len(arities)))
    for symbol, arity in arities.items():
        rel = AnnotatedRelation(arity)
        for _ in range(rng.randrange(0, per_relation + 1)):
            t = tuple(rng.randrange(1, domain + 1) for _ in range(arity))
            value = sample(semiring, rng)
            if not semiring.is_zero(value):
                rel.entries[t] = value
        db.relations[symbol] = rel
    for const in ("c", "d"):
        db.constants[const] = rng.randrange(1, domain + 1)
    return db


def random_free_connex_cq(rng: random.Random, **kw) -> ConjunctiveQuery:
    while True:
        q = random_cq(rng, **kw)
        if classify(q).free_connex:
            return q


def random_q_hierarchical_cq(rng: random.Random, **kw) -> ConjunctiveQuery:
    while True:
        q = random_cq(rng, **kw)
        if q.relational_atoms and classify(q).q_hierarchical:
            return q


def random_update(rng, q, db, semiring, domain=5) -> SingleTupleUpdate:
    """A delete (probability 0.4) or an insert of a nonzero value into one of
    the relations of ``q``."""
    symbols = sorted({a.symbol for a in q.relational_atoms})
    symbol = rng.choice(symbols)
    arity = db.relations[symbol].arity
    t = tuple(rng.randrange(1, domain + 1) for _ in range(arity))
    if rng.random() < 0.4:
        return SingleTupleUpdate("delete", symbol, t)
    value = sample(semiring, rng)
    while semiring.is_zero(value):
        value = sample(semiring, rng)
    return SingleTupleUpdate("insert", symbol, t, value)


# ---------------------------------------------------------------------------
# Matrix expressions and instances
# ---------------------------------------------------------------------------

def random_matrix_schema(rng: random.Random, max_dim: int = 6) -> MatrixSchema:
    sizes = {"alpha": rng.randrange(1, max_dim + 1), "beta": rng.randrange(1, max_dim + 1)}
    matrices: Dict[str, Tuple[str, str]] = {}
    names = ["A", "B", "U", "V", "S"]
    type_pool = [
        ("alpha", "beta"),
        ("alpha", "alpha"),
        ("beta", "alpha"),
        ("alpha", "1"),
        ("beta", "1"),
        ("1", "alpha"),
        ("1", "1"),
    ]
    encodings: Dict[str, str] = {}
    for name in names[: rng.randrange(2, len(names) + 1)]:
        typ = rng.choice(type_pool)
        matrices[name] = typ
        shapes = ["binary"]
        if "1" in typ:
            shapes.append("unary")
        if typ == ("1", "1"):
            shapes.append("nullary")
        encodings[name] = rng.choice(shapes)
    return MatrixSchema(sizes, matrices, encodings)


def random_conj_expression(
    rng: random.Random, schema: MatrixSchema, max_depth: int = 4, allow_add: bool = False
) -> Optional[MatLangExpr]:
    """A random well-typed addition-free expression, or None if the draw fails."""

    def grow(depth: int, bound_vars: Dict[str, str]) -> MatLangExpr:
        choices = ["symbol", "ones", "eye"]
        if bound_vars:
            choices.append("var")
        if depth > 0:
            choices += ["transpose", "matmul", "hadamard", "scalar", "sum"] * 2
            if allow_add:
                choices.append("add")
        kind = rng.choice(choices)
        if kind == "symbol" and schema.matrices:
            return MatrixSymbol(rng.choice(sorted(schema.matrices)))
        if kind == "var":
            name = rng.choice(sorted(bound_vars))
            return VectorVariable(name, bound_vars[name])
        if kind == "ones":
            return OnesVector(rng.choice(["alpha", "beta", "1"]))
        if kind == "eye":
            return IdentityMatrix(rng.choice(["alpha", "beta", "1"]))
        if kind == "transpose":
            return Transpose(grow(depth - 1, bound_vars))
        if kind == "sum":
            var = f"vec{len(bound_vars)}"
            size = rng.choice(["alpha", "beta", "1"])
            return SumIteration(var, size, grow(depth - 1, {**bound_vars, var: size}))
        left = grow(depth - 1, bound_vars)
        right = grow(depth - 1, bound_vars)
        if kind == "matmul":
            return MatMul(left, right)
        if kind == "hadamard":
            return Hadamard(left, right)
        if kind == "add":
            return Add(left, right)
        return ScalarMul(left, right)

    expr = grow(max_depth, {})
    try:
        typecheck(expr, schema)
    except TypeCheckError:
        return None
    if free_vector_variables(expr):
        return None
    return expr


def random_conj_expressions(rng: random.Random, max_dim: int = 6, max_depth: int = 4):
    """Endless pairs of a random schema and a random expression over it,
    skipping the failed draws."""
    while True:
        schema = random_matrix_schema(rng, max_dim=max_dim)
        expr = random_conj_expression(rng, schema, max_depth=max_depth)
        if expr is not None:
            yield schema, expr


def random_matrix_instance(
    rng: random.Random,
    schema: MatrixSchema,
    semiring: SemiringDescriptor,
    density: float = 0.5,
) -> MatrixInstance:
    entries: Dict[str, Dict[Tuple[int, int], object]] = {}
    for name in schema.matrices:
        m, n = schema.dims(name)
        cells = {}
        for i in range(1, m + 1):
            for j in range(1, n + 1):
                if rng.random() < density:
                    v = sample(semiring, rng)
                    if not semiring.is_zero(v):
                        cells[(i, j)] = v
        entries[name] = cells
    return MatrixInstance(schema, semiring, entries)


# ---------------------------------------------------------------------------
# Synthetic databases for the scaling benchmarks
# ---------------------------------------------------------------------------

def scaling_static_query() -> ConjunctiveQuery:
    return parse_query("H(x) :- R(x,y), S(y).")


def scaling_dynamic_query() -> ConjunctiveQuery:
    return parse_query("H(x) :- A(x,y), U(x).")


def scaling_db(
    rng: random.Random,
    semiring: SemiringDescriptor,
    size: int,
    dynamic: bool = False,
    head_domain: int = 1000,
) -> Database:
    """Database of total size measure about ``size`` for the scaling queries.

    Size is the standard measure: (arity+1) * tuples summed over relations.
    The head-variable domain stays fixed while the joined side grows, so the
    output cardinality is comparable across scales and per-output delay
    measurements see equally many samples at every size.
    """
    db = Database(semiring)
    x_domain = min(head_domain, max(4, size // 4))
    y_domain = max(4, size // 4)
    unary_domain = x_domain if dynamic else y_domain
    n_unary = max(1, min((size // 3) // 2, (unary_domain * 2) // 3))
    n_binary = max(1, (size - 2 * n_unary) // 3)
    binary = AnnotatedRelation(2)
    while len(binary.entries) < n_binary:
        t = (rng.randrange(1, x_domain + 1), rng.randrange(1, y_domain + 1))
        binary.entries[t] = semiring.one
    unary = AnnotatedRelation(1)
    while len(unary.entries) < n_unary:
        unary.entries[(rng.randrange(1, unary_domain + 1),)] = semiring.one
    if dynamic:
        db.relations["A"] = binary
        db.relations["U"] = unary
    else:
        db.relations["R"] = binary
        db.relations["S"] = unary
    return db


# ---------------------------------------------------------------------------
# The connex build by plain loops
# ---------------------------------------------------------------------------

def reference_connex(state):
    """The candidate sets, extension groups and member counts that
    ``static_engine.connex_source`` builds for ``state``, from its stored
    node relations by one plain loop per node, each dict inserted in the
    same order."""
    plan = state.plan

    def key(c, t):
        return tuple(t[i] for i in plan.positions[c])

    candidates, groups, accs = {}, {}, {}
    for nid in plan.postorder():
        children = plan.nodes[nid].children
        if plan.guarded and nid in plan.stored and len(children) == 1:
            c = children[0]
            accs[nid] = dict(Counter(key(c, t) for t in state.relations[c]))
        if nid not in plan.connex:
            continue
        if nid in plan.frontier:
            candidates[nid] = state.relations[nid]
        elif len(children) == 1:
            c = children[0]
            grp = {}
            for t in candidates[c]:
                grp.setdefault(key(c, t), {})[t] = True
            groups[c] = candidates[nid] = grp
        else:
            c1, c2 = children
            candidates[nid] = {t: True for t in candidates[c1] if key(c2, t) in candidates[c2]}
    return candidates, groups, accs
