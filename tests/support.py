"""Seeded random corpora for the tests: annotations, queries, databases,
updates, matrix expressions and instances, COO texts, update scripts and
the scaling databases; and the tests' references, which no product path
calls: the plan checker, the node relations by their defining equations,
the interpreted connex build (the reference for the generated one), the
dynamic state's checker, the matrix decoding of a whole database, the
interpreted COO loader (the reference for the generated row reader) and
the interpreted update-script parser (the reference for the generated
update-line reader).

The seed of ``corpus_rng`` comes from DELTA_ENUM_SEED when set.
``test_corpora`` pins what the draws return.
"""

from __future__ import annotations

import math
import os
import random
from collections import Counter
from functools import reduce
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from deltaenum.codegen import compile_source
from deltaenum.errors import IngestionError, TypeCheckError
from deltaenum.kdata import AnnotatedRelation, Database, DataTuple, SingleTupleUpdate, read_input
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
    decode_relation,
    free_vector_variables,
    typecheck,
)
from deltaenum.planner import QueryPlan, classify
from deltaenum.query import ConjunctiveQuery, IneqAtom, RelAtom, parse_query
from deltaenum.semiring import SemiringDescriptor, Value
from deltaenum.static_engine import EnumerationState, leaf_key

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


def decode_instance(db: Database, schema: MatrixSchema) -> MatrixInstance:
    """Unique matrix instance of ``schema``'s symbols encoded by a consistent database."""
    decoded = MatrixSchema(
        {size: db.constant(size) for size in schema.sizes}, dict(schema.matrices), dict(schema.encodings)
    )
    entries = {name: decode_relation(db.relation(name), decoded, name) for name in schema.matrices}
    return MatrixInstance(decoded, db.semiring, entries)


def reference_coo(
    schema: MatrixSchema, data_dir: str | Path, semiring: SemiringDescriptor
) -> MatrixInstance:
    """The interpreted COO loader, the reference for
    ``matlang.load_matrix_instance``: one ``i j value`` triple per line,
    ``#`` starting a comment, each line split once and checked in full."""
    data_dir = Path(data_dir)
    if not data_dir.is_dir():
        raise IngestionError("not a directory", str(data_dir))
    parse, is_zero = semiring.parse, semiring.is_zero
    instance = MatrixInstance(schema, semiring)
    for name in schema.matrices:
        cells = instance.entries[name]
        m, n = schema.dims(name)
        path = data_dir / f"{name}.coo"
        if not path.exists():
            continue
        for lineno, line in enumerate(read_input(path).splitlines(), start=1):
            if "#" in line:
                line = line[: line.index("#")]
            fields = line.split()
            if len(fields) != 3:
                if not fields:
                    continue
                raise IngestionError("expected 'i j value'", str(path), lineno)
            try:
                i, j = ij = (int(fields[0]), int(fields[1]))
                v = parse(fields[2])
            except ValueError as exc:
                raise IngestionError(str(exc), str(path), lineno) from None
            if is_zero(v):
                continue
            if not (1 <= i <= m and 1 <= j <= n):
                raise IngestionError(
                    f"entry ({i},{j}) of {name!r} outside its {m}x{n} dimension", str(path), lineno
                )
            if ij in cells:
                raise IngestionError(f"duplicate entry ({i},{j})", str(path), lineno)
            cells[ij] = v
    return instance


# annotation texts of each builtin semiring for the COO and update-script
# corpora: nonzero, zero and not admitted (a text no builtin converts is
# drawn for every semiring)
_COO_ANNOTATIONS = {
    "boolean": (["t", "true", "1", "T", "TRUE"], ["f", "0", "false"], ["2", "yes", "-1"]),
    "natural": (["1", "2", "7", "+3", "12"], ["0", "00", "-0"], ["-1", "3.0", "1e3", "nan"]),
    "real": (["0.5", "-2.25", "3", "1e3", "-0.1"], ["0", "0.0", "-0.0"], ["nan", "1e400", "inf", "-inf"]),
    "tropical-min": (["0.5", "-2.0", "3", "0", "-1e3"], ["inf", "Infinity"], ["-inf", "nan", "-1e400"]),
}


def random_coo_text(rng: random.Random, semiring: SemiringDescriptor, m: int, n: int) -> str:
    """A short COO text for an ``m`` x ``n`` matrix of ``semiring``: valid,
    zero, out-of-range and duplicate entries, blank and whitespace-only
    lines, ``#`` comments (also of three fields, such as ``1 2 #``),
    annotations the semiring does not admit and malformed lines, with tabs
    and runs of blanks between fields and LF or CRLF line endings."""
    nonzero, zero, bad = _COO_ANNOTATIONS[semiring.name]
    end = rng.choice(["\n", "\r\n"])
    seen: List[Tuple[int, int]] = []

    def cell(inside: bool = True) -> Tuple[int, int]:
        if inside:
            return rng.randint(1, m), rng.randint(1, n)
        return rng.choice([(0, 1), (m + 1, 1), (1, n + 1), (1, 0), (-1, 2), (m + 1, n + 1)])

    def entry(ij: Tuple[int, int], value: str) -> str:
        gaps = [rng.choice([" ", "\t", "  ", " \t "]) for _ in range(2)]
        lead, trail = rng.choice(["", "", " ", "\t"]), rng.choice(["", "", " ", "\t"])
        return f"{lead}{ij[0]}{gaps[0]}{ij[1]}{gaps[1]}{value}{trail}"

    lines = []
    for _ in range(rng.randint(0, 8)):
        r = rng.random()
        if r < 0.45:
            ij = cell()
            seen.append(ij)
            line = entry(ij, rng.choice(nonzero))
            if rng.random() < 0.1:
                line += rng.choice([" # note", "# a b", "#", " #1 2 3"])
        elif r < 0.55:
            line = entry(cell(rng.random() < 0.5), rng.choice(zero))
        elif r < 0.63:
            line = rng.choice(["", " ", "\t", "  \t "])
        elif r < 0.73:
            i, j = cell()
            line = rng.choice(["# i j value", "#", f"{i} {j} #", "# a b", f"{i} {j} #{rng.choice(nonzero)}", f"#{i} {j} 1", f"{i} {j}#x 1"])
        elif r < 0.8:
            line = entry(cell(False), rng.choice(nonzero))
        elif r < 0.88 and seen:
            line = entry(rng.choice(seen), rng.choice(nonzero + zero))
        elif r < 0.94:
            line = entry(cell(), rng.choice(bad + ["x"]))
        else:
            i, j = cell()
            line = rng.choice([f"{i} {j}", f"{i} {j} 1 2", f"{i} x 1", f"{i}.0 {j} 1", str(i)])
        lines.append(line)
    return "".join(line + end for line in lines)


def reference_update_script(path: str | Path, semiring: SemiringDescriptor) -> List[SingleTupleUpdate]:
    """The interpreted update-script parser, the reference for
    ``kdata.parse_update_script``: each line split once and checked in full.
    ``+ R 1 2 7`` inserts, ``- R 1 2`` deletes, ``#`` starts a comment."""
    updates: List[SingleTupleUpdate] = []
    append, parse = updates.append, semiring.parse
    for lineno, line in enumerate(read_input(path).splitlines(), start=1):
        if "#" in line:
            line = line[: line.index("#")]
        fields = line.split()
        if not fields:
            continue
        op = fields[0]
        if len(fields) < 2 or op not in ("+", "-"):
            raise IngestionError(f"malformed update line {line.strip()!r}", str(path), lineno)
        try:
            if op == "-":
                append(SingleTupleUpdate("delete", fields[1], _positive(fields[2:])))
            elif len(fields) > 2:
                values = _positive(fields[2:-1])
                append(SingleTupleUpdate("insert", fields[1], values, parse(fields[-1])))
            else:
                raise ValueError("insert needs at least an annotation")
        except ValueError as exc:
            raise IngestionError(str(exc), str(path), lineno) from None
    return updates


def _positive(fields: List[str]) -> DataTuple:
    values = tuple(map(int, fields))
    if values and min(values) < 1:
        raise ValueError(f"data values must be positive integers, got {values}")
    return values


def random_update_text(rng: random.Random, semiring: SemiringDescriptor) -> str:
    """A short update script of ``semiring``: inserts and deletes of 0 to 7
    data values (more than the reader converts one by one), zero
    annotations, blank and whitespace-only lines, ``#`` comments (also
    inside a field), data values below 1 or not integers, annotations the
    semiring does not admit or missing, bad operators and symbols the
    reader names itself, with tabs and runs of blanks between fields, LF or
    CRLF line endings and sometimes a byte order mark."""
    nonzero, zero, bad = _COO_ANNOTATIONS[semiring.name]
    end = rng.choice(["\n", "\r\n"])

    def update(op: str, fields: List[str]) -> str:
        symbol = rng.choice(["R", "S", "Z", "f", "t", "a", "low"])
        gaps = [rng.choice([" ", "\t", "  ", " \t "]) for _ in range(len(fields) + 1)]
        lead, trail = rng.choice(["", "", " ", "\t"]), rng.choice(["", "", " ", "\t"])
        return lead + op + "".join(g + f for g, f in zip(gaps, [symbol, *fields])) + trail

    lines = []
    for _ in range(rng.randint(0, 8)):
        values = [str(rng.randint(1, 9)) for _ in range(rng.choice([0, 1, 1, 2, 2, 3, 3, 4, 5, 7]))]
        r = rng.random()
        if r < 0.04 and values:
            values[rng.randrange(len(values))] = rng.choice(["0", "-1", "x", "1.0", "1e2", "0x1"])
        elif r < 0.08:
            values.append(rng.choice(["#", "#x", "1#"]))
        if rng.random() < 0.5:
            r = rng.random()
            value = rng.choice(nonzero if r < 0.85 else zero if r < 0.93 else bad + ["x", "#"])
            line = update("+", values + [value])
        else:
            line = update("-", values)
        r = rng.random()
        if r < 0.06:
            line += rng.choice([" # note", "#", "# 1 2"])
        elif r < 0.12:
            line = rng.choice(["", " ", "\t", "  \t ", "# comment", "#- R 1"])
        elif r < 0.15:
            line = rng.choice(["+", "-", "+ R", "* R 1 2", "++ R 1 1", "+-", "+#c", "add R 1 1", "R 1 1"])
        lines.append(line)
    bom = "\ufeff" if rng.random() < 0.1 else ""
    return bom + "".join(line + end for line in lines)


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
# Plan validation
# ---------------------------------------------------------------------------

def disconnected_variables(
    bags: Dict[int, FrozenSet[str]], edges: Iterable[Tuple[int, int]]
) -> List[str]:
    """Sorted variables whose holders (the nodes whose bag contains them) do
    not induce a connected subgraph of the undirected ``edges``.

    Empty exactly when the tree has the running-intersection property that
    every plan requires.
    """
    nbr: Dict[int, List[int]] = {n: [] for n in bags}
    for a, b in edges:
        nbr[a].append(b)
        nbr[b].append(a)
    out: List[str] = []
    for v in sorted(set().union(*bags.values())):
        holders = {n for n, bag in bags.items() if v in bag}
        start = next(iter(holders))
        seen = {start}
        stack = [start]
        while stack:
            for nb in nbr[stack.pop()]:
                if nb in holders and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if seen != holders:
            out.append(v)
    return out


def connex_vars(plan: QueryPlan) -> FrozenSet[str]:
    """The variables of the plan's connex nodes."""
    out: Set[str] = set()
    for nid in plan.connex:
        out |= plan.vars(nid)
    return frozenset(out)


def relational_free(q: ConjunctiveQuery) -> Tuple[str, ...]:
    """The head variables of ``q`` that some relational atom holds, in head
    order without repeats: the variables a plan's connex nodes must cover.
    The other head variables are the walk's free ranges."""
    rel_vars = frozenset().union(*(a.vars for a in q.relational_atoms))
    return tuple(dict.fromkeys(v for v in q.head_vars if v in rel_vars))


def verify_plan(plan: QueryPlan, free: Iterable[str]) -> List[str]:
    """Check every structural plan invariant and, on a sound structure, the
    levels of the connex walk, against the relational free variables
    ``free`` (see ``relational_free``); returns a list of violations."""
    free = sorted(set(free))
    problems: List[str] = []
    nodes = plan.nodes

    reachable: Set[int] = set()
    stack = [plan.root] if plan.nodes else []
    while stack:
        nid = stack.pop()
        if nid in reachable:
            problems.append(f"node {nid} reachable twice (not a tree)")
            continue
        reachable.add(nid)
        stack.extend(nodes[nid].children)
    if reachable != set(nodes):
        problems.append("unreachable nodes in plan")

    leaf_atoms: List[int] = []
    for nid, node in nodes.items():
        if node.is_leaf:
            if node.children:
                problems.append(f"leaf {nid} has children")
            leaf_atoms.append(node.atom_index)
            continue
        if len(node.children) > 2:
            problems.append(f"node {nid} has {len(node.children)} children")
        if not node.children:
            problems.append(f"interior node {nid} has no children")
            continue
        if len(node.children) == 1 and plan.vars(node.children[0]) == plan.vars(nid):
            problems.append(f"node {nid} is an identity copy of its child")
        if not any(plan.vars(nid) <= plan.vars(c) for c in node.children):
            problems.append(f"node {nid} has no guard child")
        if plan.guarded and not all(plan.vars(nid) <= plan.vars(c) for c in node.children):
            problems.append(f"guarded plan: child of {nid} is not a guard")
        if len(node.children) == 2:
            c1, c2 = node.children
            if not (plan.vars(c1) <= plan.vars(nid) and plan.vars(c2) <= plan.vars(nid)):
                problems.append(f"2-child node {nid} lacks child containment")
            if plan.vars(c1) != plan.vars(nid):
                problems.append(f"2-child node {nid}: first child lacks the node's variables")
            if plan.guarded and not (
                plan.vars(c1) == plan.vars(nid) == plan.vars(c2)
            ):
                problems.append(f"guarded 2-child node {nid} lacks equal labels")

    if sorted(leaf_atoms) != list(range(len(plan.atoms))):
        problems.append("leaf atoms do not match the atom multiset")

    bags = {nid: plan.vars(nid) for nid in nodes}
    edges = [(nid, c) for nid, node in nodes.items() for c in node.children]
    for v in disconnected_variables(bags, edges):
        problems.append(f"variable {v} is not connected in the plan")

    if plan.nodes and plan.root not in plan.connex:
        problems.append("connex set misses the root")
    for nid in plan.connex:
        node = nodes[nid]
        if node.parent is not None and node.parent not in plan.connex:
            problems.append(f"connex set not connected at {nid}")
        if node.parent is not None:
            for sib in nodes[node.parent].children:
                if sib != nid and sib not in plan.connex:
                    problems.append(f"connex set not sibling-closed at {nid}")
    if sorted(connex_vars(plan)) != free:
        problems.append(f"connex vars {sorted(connex_vars(plan))} != free vars {free}")
    if problems:
        return problems  # the layout is derived from the structure checked above

    walked = sorted(nid for level in plan.levels for nid in level.nodes)
    if walked != sorted(plan.connex):
        problems.append(f"levels walk connex nodes {walked}, not {sorted(plan.connex)}")
    level_vars = sorted({v for level in plan.levels for v in level.order})
    if level_vars != free:
        problems.append(f"level variables {level_vars} != free vars {free}")
    below = {nid for nid in nodes if nid not in plan.connex or nid in plan.frontier}
    if not plan.stored <= below:
        problems.append(f"stored nodes {sorted(plan.stored - below)} lie inside the connex region")
    for nid in sorted(below):
        node = nodes[nid]
        # a free-connex plan streams a node that one scan of its parent reads
        scanned = node.parent is not None and nodes[node.parent].children[0] == nid
        streams = (
            not plan.guarded and nid not in plan.frontier and len(node.children) != 1 and scanned
        )
        if (nid in plan.stored) == streams:
            problems.append(f"node {nid} should be {'streamed' if streams else 'stored'}")
    return problems


# ---------------------------------------------------------------------------
# Node relations by their defining equations
# ---------------------------------------------------------------------------

def reference_relation(
    state: EnumerationState, nid: int, stored: Optional[Dict[int, Dict[DataTuple, Value]]] = None
) -> Dict[DataTuple, Value]:
    """Plan node ``nid``'s relation by its defining equation, with one plain
    loop per node: a child's relation is taken from ``stored`` when there
    and recomputed the same way from the database otherwise.  Keys are
    inserted in the order in which preprocessing inserts them."""
    plan = state.plan
    s = state.semiring
    node = plan.nodes[nid]
    out: Dict[DataTuple, Value] = {}
    if node.is_leaf:
        key = compile_source(f"def key(t, bounds):\n    return {leaf_key(plan, nid) or 't'}\n", "key")
        for t, k in state.db.relation(plan.atoms[node.atom_index].symbol).entries.items():
            kt = key(t, state.bounds)
            if kt is not None:
                out[kt] = k
        return out
    stored = stored or {}
    rels = [stored[c] if c in stored else reference_relation(state, c, stored) for c in node.children]
    positions = plan.positions[node.children[-1]]  # a projection's, or the lookup's
    if len(rels) == 1:
        for t, k in rels[0].items():
            kt = tuple(t[i] for i in positions)
            out[kt] = s.add(out[kt], k) if kt in out else k
        return {t: k for t, k in out.items() if not s.is_zero(k)}
    for t, k in rels[0].items():
        other = rels[1].get(tuple(t[i] for i in positions))
        if other is not None:
            k = s.mul(k, other)
            if not s.is_zero(k):
                out[t] = k
    return out


def verify_node_invariants(state: EnumerationState) -> List[str]:
    """Check each stored node relation against its defining equation over
    its children's relations, recomputing from the database a child that is
    not stored (``reference_relation``)."""
    problems: List[str] = []
    s = state.semiring
    for nid, rel in state.relations.items():
        for t, k in rel.items():
            if s.is_zero(k):
                problems.append(f"node {nid}: stored zero annotation at {t}")
        want = reference_relation(state, nid, state.relations)
        problems += [f"node {nid}: missing tuple {t}" for t in want if t not in rel]
        for t, k in rel.items():
            if t not in want:
                problems.append(f"node {nid}: extra tuple {t}")
            elif want[t] != k:
                problems.append(f"node {nid}: annotation {k!r} at {t}, want {want[t]!r}")
    return problems


# ---------------------------------------------------------------------------
# The connex structures
# ---------------------------------------------------------------------------

def reference_connex(state):
    """The candidate sets, extension groups and member counts that
    ``static_engine.build_source`` builds for ``state``, from its stored
    node relations by one plain loop per node, each dict inserted in the
    same order.  Every connex node's candidates are derived, but only those
    of a 2-child node at the root or under a 2-child node are returned: a
    frontier node's are its relation's keys, a projection's its child's
    group's, and the candidates of a 2-child node under a projection are
    read only by that projection's group loop.

    Over a free-connex plan, each group and the root's candidates map a
    tuple of a level to the product of the level's frontier annotations,
    looked up in the relations and taken left to right (True without any),
    and every other 2-child node's candidates map a tuple to its guard's
    value.  Over a guarded plan they map every tuple to True."""
    plan = state.plan
    s = state.semiring
    tops = {level.nodes[0]: level for level in plan.levels}

    def key(c, t):
        return tuple(t[i] for i in plan.positions[c])

    def product(top, t):
        # over a free-connex plan, the frontier product of the level of ``top``
        if plan.guarded:
            return True
        factors = [state.relations[f][tuple(t[i] for i in pos)] for f, pos in tops[top].frontier]
        return reduce(s.mul, factors) if factors else True

    sets, candidates, groups, accs = {}, {}, {}, {}
    for nid in plan.postorder():
        children = plan.nodes[nid].children
        if plan.guarded and nid in plan.stored and len(children) == 1:
            c = children[0]
            accs[nid] = dict(Counter(key(c, t) for t in state.relations[c]))
        if nid not in plan.connex:
            continue
        if nid in plan.frontier:
            sets[nid] = state.relations[nid]
        elif len(children) == 1:
            c = children[0]
            grp = {}
            for t in sets[c]:
                grp.setdefault(key(c, t), {})[t] = product(c, t)
            groups[c] = sets[nid] = grp
        else:
            c1, c2 = children
            kept = {t: v for t, v in sets[c1].items() if key(c2, t) in sets[c2]}
            if plan.guarded or nid == plan.root:
                kept = {t: product(nid, t) for t in kept}
            sets[nid] = kept
            parent = plan.nodes[nid].parent
            if parent is None or len(plan.nodes[parent].children) == 2:
                candidates[nid] = kept
    return candidates, groups, accs


def verify_dynamic_invariants(state: EnumerationState) -> List[str]:
    """Check the node relations (``verify_node_invariants``; over a guarded
    plan they are the group sums), then the member counts, candidate sets and
    extension groups against ``reference_connex``, values included: a
    candidate set that is not kept there is a mismatch.  A static state
    passes too."""
    problems = verify_node_invariants(state)
    candidates, groups, accs = reference_connex(state)
    for nid in sorted(accs.keys() | state.accs.keys()):
        if state.accs.get(nid) != accs.get(nid):
            problems.append(f"node {nid}: member counts mismatch")
    for nid in sorted(candidates.keys() | state.candidates.keys()):
        if state.candidates.get(nid) != candidates.get(nid):
            problems.append(f"node {nid}: candidate set mismatch")
    for nid in sorted(groups.keys() | state.groups.keys()):
        if state.groups.get(nid, {}) != groups.get(nid, {}):
            problems.append(f"node {nid}: extension groups mismatch")
    return problems
