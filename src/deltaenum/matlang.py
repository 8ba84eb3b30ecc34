"""Matrix expression language: typed AST, fragments, encodings, translation.

Expressions are built from matrix symbols, transpose, matrix product,
addition, scalar and pointwise products, sum-iteration over canonical
vectors, and the derived ones-vector/identity forms (kept as primitive
tokens).  A query ``H := e`` evaluates by translating the addition-free
fragment to a conjunctive query, encoding the matrix instance as a database,
and running the relational engine on the translation; expressions with
addition fall back to the dense reference evaluator.

Concrete syntax (one query per ``.ml`` file)::

    H := A .* (U * V^T)          # .* pointwise, * matrix/scalar product
    H := sum(v:alpha, A * v)     # sum-iteration, v : (alpha, 1)
    H := ones(alpha) * eye(beta)'

Schema files declare size symbols with values and matrix symbols with types
and encoding shapes; matrix data comes as one ``i j value`` COO file per
symbol.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from .codegen import compile_source
from .errors import (
    CapabilityError,
    ClassificationError,
    ConsistencyError,
    FragmentError,
    IngestionError,
    QuerySyntaxError,
    SchemaError,
    TypeCheckError,
)
from .kdata import AnnotatedRelation, Database, read_input, reader_source
from .query import ConjunctiveQuery, IneqAtom, RelAtom, TokenCursor
from .semiring import SemiringDescriptor, Value

MatType = Tuple[str, str]  # (row size symbol, column size symbol)


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass
class MatrixSymbol:
    name: str
    typ: Optional[MatType] = None


@dataclass
class VectorVariable:
    name: str
    size: str  # declared (size, 1) type
    typ: Optional[MatType] = None


@dataclass
class OnesVector:
    size: str
    typ: Optional[MatType] = None


@dataclass
class IdentityMatrix:
    size: str
    typ: Optional[MatType] = None


@dataclass
class Transpose:
    sub: "MatLangExpr"
    typ: Optional[MatType] = None


@dataclass
class MatMul:
    left: "MatLangExpr"
    right: "MatLangExpr"
    typ: Optional[MatType] = None


@dataclass
class Add:
    left: "MatLangExpr"
    right: "MatLangExpr"
    typ: Optional[MatType] = None


@dataclass
class ScalarMul:
    left: "MatLangExpr"  # type (1,1)
    right: "MatLangExpr"
    typ: Optional[MatType] = None


@dataclass
class Hadamard:
    left: "MatLangExpr"
    right: "MatLangExpr"
    typ: Optional[MatType] = None


@dataclass
class SumIteration:
    var: str
    var_size: str
    sub: "MatLangExpr"
    typ: Optional[MatType] = None


MatLangExpr = (
    MatrixSymbol
    | VectorVariable
    | OnesVector
    | IdentityMatrix
    | Transpose
    | MatMul
    | Add
    | ScalarMul
    | Hadamard
    | SumIteration
)


def children(e: MatLangExpr) -> Tuple[MatLangExpr, ...]:
    if isinstance(e, (Transpose, SumIteration)):
        return (e.sub,)
    if isinstance(e, (MatMul, Add, ScalarMul, Hadamard)):
        return (e.left, e.right)
    return ()


# ---------------------------------------------------------------------------
# Schemas, instances
# ---------------------------------------------------------------------------

@dataclass
class MatrixSchema:
    """Size symbols with instance values, plus typed matrix symbols.

    The relational encoding has one relation per matrix and one constant per
    size symbol, each named like its symbol.  ``encodings`` gives a matrix's
    relation shape: ``binary`` (the default), ``unary`` for a vector or
    ``nullary`` for a scalar; ``stored_indices`` is its tuple layout.
    """

    sizes: Dict[str, int]
    matrices: Dict[str, MatType]
    encodings: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.sizes.setdefault("1", 1)
        if self.sizes["1"] != 1:
            raise SchemaError("the size symbol '1' always denotes 1")
        for name, value in self.sizes.items():
            if value < 1:
                raise SchemaError(f"size symbol {name!r} must be positive, got {value}")
        for name, (rows, cols) in self.matrices.items():
            for sym in (rows, cols):
                if sym not in self.sizes:
                    raise SchemaError(f"matrix {name!r} uses undeclared size symbol {sym!r}")
            enc = self.encodings.setdefault(name, "binary")
            if enc not in ("binary", "unary", "nullary"):
                raise SchemaError(f"matrix {name!r} has unknown encoding {enc!r}")
            if enc == "unary" and rows != "1" and cols != "1":
                raise SchemaError(f"unary encoding needs a vector type, {name!r} is {rows}x{cols}")
            if enc == "nullary" and (rows, cols) != ("1", "1"):
                raise SchemaError(f"nullary encoding needs a scalar type, {name!r} is {rows}x{cols}")

    def stored_indices(self, name: str) -> Tuple[int, ...]:
        """The positions in an entry's (row, column) index that the relation
        of matrix ``name`` stores, in order; the others are always 1."""
        enc = self.encodings[name]
        if enc == "binary":
            return (0, 1)
        if enc == "nullary":
            return ()
        return (0,) if self.matrices[name][1] == "1" else (1,)

    def size_of(self, sym: str) -> int:
        try:
            return self.sizes[sym]
        except KeyError:
            raise SchemaError(f"unknown size symbol {sym!r}") from None

    def dims(self, name: str) -> Tuple[int, int]:
        rows, cols = self.matrices[name]
        return self.size_of(rows), self.size_of(cols)


@dataclass
class MatrixInstance:
    """Sparse K-matrices (COO entries) under a size-symbol valuation."""

    schema: MatrixSchema
    semiring: SemiringDescriptor
    entries: Dict[str, Dict[Tuple[int, int], Value]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in self.schema.matrices:
            self.entries.setdefault(name, {})
        self.validate()

    def validate(self) -> None:
        for name, cells in self.entries.items():
            if name not in self.schema.matrices:
                raise SchemaError(f"instance has data for undeclared matrix {name!r}")
            m, n = self.schema.dims(name)
            for (i, j), v in cells.items():
                if not (1 <= i <= m and 1 <= j <= n):
                    raise ConsistencyError(
                        f"entry ({i},{j}) of {name!r} outside its {m}x{n} dimension"
                    )
                if self.semiring.is_zero(v):
                    raise ConsistencyError(f"zero entry stored at ({i},{j}) of {name!r}")

    def size_of(self, sym: str) -> int:
        return self.schema.size_of(sym)

    def dense(self, name: str) -> List[List[Value]]:
        m, n = self.schema.dims(name)
        s = self.semiring
        out = [[s.zero for _ in range(n)] for _ in range(m)]
        for (i, j), v in self.entries[name].items():
            out[i - 1][j - 1] = v
        return out


def dense_to_entries(dense: List[List[Value]], s: SemiringDescriptor) -> Dict[Tuple[int, int], Value]:
    out = {}
    for i, row in enumerate(dense, start=1):
        for j, v in enumerate(row, start=1):
            if not s.is_zero(v):
                out[(i, j)] = v
    return out


def load_matrix_schema(path: str | Path) -> MatrixSchema:
    try:
        doc = json.loads(read_input(path))
    except json.JSONDecodeError as exc:
        raise IngestionError(f"invalid JSON: {exc}", str(path)) from None
    if not isinstance(doc, dict):
        raise IngestionError("a matrix schema must be a JSON object", str(path))
    sizes = doc.get("sizes", {})
    decls = doc.get("matrices", {})
    if not (isinstance(sizes, dict) and isinstance(decls, dict)):
        raise IngestionError("'sizes' and 'matrices' must be JSON objects", str(path))
    for name, value in sizes.items():
        if type(value) is not int:
            raise IngestionError(f"size symbol {name!r} needs an integer value, got {value!r}", str(path))
    matrices = {}
    encodings = {}
    for name, decl in decls.items():
        if not isinstance(decl, dict):
            raise IngestionError(f"matrix {name!r} needs an object declaration", str(path))
        typ = decl.get("type")
        if not (isinstance(typ, list) and len(typ) == 2):
            raise IngestionError(f"matrix {name!r} needs a [rows, cols] type", str(path))
        matrices[name] = (str(typ[0]), str(typ[1]))
        encodings[name] = decl.get("encoding", "binary")
    return MatrixSchema(sizes, matrices, encodings)


def load_matrix_instance(
    schema: MatrixSchema, data_dir: str | Path, semiring: SemiringDescriptor
) -> MatrixInstance:
    """COO text per matrix symbol: one ``i j value`` triple per line, ``#``
    starting a comment; one pass by the bounded row reader of arity 2
    (``kdata.reader_source``), which hands ``check`` each line it cannot
    take as it stands, every line that holds ``#`` among them.  A missing
    ``<A>.coo`` is a zero matrix; a missing ``data_dir`` raises
    ``IngestionError``."""
    data_dir = Path(data_dir)
    if not data_dir.is_dir():
        raise IngestionError("not a directory", str(data_dir))
    parse, is_zero = semiring.parse, semiring.is_zero
    read = compile_source(reader_source(2, semiring, bounded=True), "read")
    instance = MatrixInstance(schema, semiring)
    for name in schema.matrices:
        cells = instance.entries[name]
        m, n = schema.dims(name)
        path = data_dir / f"{name}.coo"
        if not path.exists():
            continue

        def check(fields: List[str], lineno: int) -> None:
            if "#" in fields:
                fields = fields[: fields.index("#")]
            if len(fields) != 3:
                if not fields:
                    return
                raise IngestionError("expected 'i j value'", str(path), lineno)
            try:
                i, j = ij = (int(fields[0]), int(fields[1]))
                v = parse(fields[2])
            except ValueError as exc:
                raise IngestionError(str(exc), str(path), lineno) from None
            if is_zero(v):
                return
            if not (1 <= i <= m and 1 <= j <= n):
                raise IngestionError(
                    f"entry ({i},{j}) of {name!r} outside its {m}x{n} dimension", str(path), lineno
                )
            if ij in cells:
                raise IngestionError(f"duplicate entry ({i},{j})", str(path), lineno)
            cells[ij] = v

        # each "#" becomes four fields: a line holding one never unpacks into three
        lines = read_input(path).replace("#", " # # # # ").splitlines()
        read(enumerate(map(str.split, lines), 1), parse, (m, n), cells, check)
    return instance


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_ML_TOKEN = re.compile(
    r"\s*(?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*|1)"
    r"|(?P<op>\^T|'|:=|\.\*|[+*():,])"
    r"|(?P<bad>\S))"
)


# the deepest nesting of the parser's scopes and of an expression tree: every
# recursion over a tree, two frames a level in ``_in_*``, fits Python's stack
MAX_DEPTH = 100


@dataclass
class MatQuery:
    head: str
    expr: MatLangExpr


class _MlParser(TokenCursor):
    """Recursive-descent parser; '+' binds loosest, then '*' / '.*', then postfix."""

    depth = -1  # the open '(' and 'sum(' scopes; parse_query's own parse_expr makes it 0

    def parse_query(self) -> MatQuery:
        head = "H"
        if (
            len(self.tokens) >= 2
            and self.tokens[0][0] == "ident"
            and self.tokens[1][1] == ":="
        ):
            head = self.next()[1]
            self.next(":=")
        expr = self.parse_expr({})
        tok = self.peek()
        if tok is not None:
            raise QuerySyntaxError(f"trailing input {tok[1]!r}", tok[2], tok[3])
        return MatQuery(head, expr)

    def parse_expr(self, env: Dict[str, str]) -> MatLangExpr:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise CapabilityError(f"the expression nests more than {MAX_DEPTH} parentheses and sums")
        node = self.parse_product(env)
        while self.at("+"):
            self.next("+")
            node = Add(node, self.parse_product(env))
        self.depth -= 1
        return node

    def parse_product(self, env: Dict[str, str]) -> MatLangExpr:
        node = self.parse_postfix(env)
        while self.at("*", ".*"):
            op = self.next()[1]
            rhs = self.parse_postfix(env)
            node = Hadamard(node, rhs) if op == ".*" else MatMul(node, rhs)
        return node

    def parse_postfix(self, env: Dict[str, str]) -> MatLangExpr:
        node = self.parse_primary(env)
        while self.at("^T", "'"):
            self.next()
            node = Transpose(node)
        return node

    def parse_primary(self, env: Dict[str, str]) -> MatLangExpr:
        tok = self.next()
        kind, value = tok[0], tok[1]
        if value == "(":
            node = self.parse_expr(env)
            self.next(")")
            return node
        if kind != "ident":
            raise QuerySyntaxError(f"unexpected token {value!r}", tok[2], tok[3])
        if value in ("ones", "eye") and self.at("("):
            self.next("(")
            size = self.next()[1]
            self.next(")")
            return OnesVector(size) if value == "ones" else IdentityMatrix(size)
        if value == "sum" and self.at("("):
            self.next("(")
            var = self.next()[1]
            self.next(":")
            size = self.next()[1]
            self.next(",")
            sub = self.parse_expr({**env, var: size})
            self.next(")")
            return SumIteration(var, size, sub)
        if value in env:
            return VectorVariable(value, env[value])
        return MatrixSymbol(value)


def parse_matlang(text: str, schema: MatrixSchema) -> MatQuery:
    """The typechecked query of ``text``, whose tree is at most ``MAX_DEPTH``
    high; its height is found level by level, without recursion."""
    q = _MlParser(text, _ML_TOKEN).parse_query()
    level = [q.expr]
    for _ in range(MAX_DEPTH):
        level = [c for e in level for c in children(e)]
    if level:
        raise CapabilityError(f"the expression tree is more than {MAX_DEPTH} levels high")
    typecheck(q.expr, schema)
    return q


# ---------------------------------------------------------------------------
# Type checking
# ---------------------------------------------------------------------------

def typecheck(e: MatLangExpr, schema: MatrixSchema, path: Tuple = ()) -> MatType:
    """Infer and annotate the type of every node; rewrites ``MatMul`` with a
    scalar left operand into ``ScalarMul`` (the semantics coincide)."""
    if isinstance(e, MatrixSymbol):
        if e.name not in schema.matrices:
            raise TypeCheckError(f"unknown matrix symbol {e.name!r}", path)
        e.typ = schema.matrices[e.name]
    elif isinstance(e, VectorVariable):
        if e.size not in schema.sizes:
            raise TypeCheckError(f"vector variable {e.name!r} uses unknown size {e.size!r}", path)
        e.typ = (e.size, "1")
    elif isinstance(e, OnesVector):
        if e.size not in schema.sizes:
            raise TypeCheckError(f"ones({e.size}) uses an unknown size symbol", path)
        e.typ = (e.size, "1")
    elif isinstance(e, IdentityMatrix):
        if e.size not in schema.sizes:
            raise TypeCheckError(f"eye({e.size}) uses an unknown size symbol", path)
        e.typ = (e.size, e.size)
    elif isinstance(e, Transpose):
        rows, cols = typecheck(e.sub, schema, path + ("T",))
        e.typ = (cols, rows)
    elif isinstance(e, MatMul):
        lt = typecheck(e.left, schema, path + ("mul.l",))
        rt = typecheck(e.right, schema, path + ("mul.r",))
        if lt == ("1", "1"):
            # scalar product written with '*'; coincides with the matrix
            # product whenever both are well-typed
            e.__class__ = ScalarMul
            e.typ = rt
        elif lt[1] == rt[0]:
            e.typ = (lt[0], rt[1])
        else:
            raise TypeCheckError(
                f"matrix product needs matching inner sizes, got {lt} x {rt}", path
            )
    elif isinstance(e, ScalarMul):
        lt = typecheck(e.left, schema, path + ("scalar.l",))
        rt = typecheck(e.right, schema, path + ("scalar.r",))
        if lt != ("1", "1"):
            raise TypeCheckError(f"scalar product needs a (1,1) left operand, got {lt}", path)
        e.typ = rt
    elif isinstance(e, (Add, Hadamard)):
        op = "addition" if isinstance(e, Add) else "pointwise product"
        lt = typecheck(e.left, schema, path + (op + ".l",))
        rt = typecheck(e.right, schema, path + (op + ".r",))
        if lt != rt:
            raise TypeCheckError(f"{op} needs equal types, got {lt} and {rt}", path)
        e.typ = lt
    elif isinstance(e, SumIteration):
        if e.var_size not in schema.sizes:
            raise TypeCheckError(f"sum variable {e.var!r} uses unknown size {e.var_size!r}", path)
        e.typ = typecheck(e.sub, schema, path + (f"sum {e.var}",))
    else:
        raise TypeCheckError(f"unknown expression node {e!r}", path)
    return e.typ


def free_vector_variables(e: MatLangExpr) -> Set[str]:
    if isinstance(e, VectorVariable):
        return {e.name}
    if isinstance(e, SumIteration):
        return free_vector_variables(e.sub) - {e.var}
    out: Set[str] = set()
    for c in children(e):
        out |= free_vector_variables(c)
    return out


# ---------------------------------------------------------------------------
# Fragment classification
# ---------------------------------------------------------------------------

def _is_vector_type(t: MatType) -> bool:
    return t[0] == "1" or t[1] == "1"


def _in_matlang(e: MatLangExpr) -> bool:
    if isinstance(e, (VectorVariable, SumIteration)):
        return False
    return all(_in_matlang(c) for c in children(e))


def _in_conj(e: MatLangExpr) -> bool:
    if isinstance(e, Add):
        return False
    return all(_in_conj(c) for c in children(e))


def _in_fc(e: MatLangExpr) -> bool:
    if isinstance(e, (VectorVariable, SumIteration, Add)):
        return False
    if isinstance(e, MatMul):
        if not (_is_vector_type(e.left.typ) or _is_vector_type(e.right.typ)):
            return False
    return all(_in_fc(c) for c in children(e))


def _in_simple(e: MatLangExpr) -> bool:
    if isinstance(e, (VectorVariable, SumIteration, Add)):
        return False
    if isinstance(e, MatMul):
        # only matrix-vector multiplication with the ones vector
        if not isinstance(e.right, OnesVector):
            return False
        return _in_simple(e.left)
    return all(_in_simple(c) for c in children(e))


def _in_qh(e: MatLangExpr) -> bool:
    if _in_simple(e):
        return True
    if not isinstance(e, Hadamard):
        return False
    left, right = e.left, e.right

    def is_row_expansion(x) -> bool:
        # e2 . (ones(a))^T with e2 simple
        return (
            isinstance(x, MatMul)
            and isinstance(x.right, Transpose)
            and isinstance(x.right.sub, OnesVector)
            and _in_simple(x.left)
        )

    def is_col_expansion(x) -> bool:
        # ones(a) . e1 with e1 simple
        return isinstance(x, MatMul) and isinstance(x.left, OnesVector) and _in_simple(x.right)

    if _in_simple(left) and is_row_expansion(right):
        return True
    if is_col_expansion(left) and _in_simple(right):
        return True
    if is_col_expansion(left) and is_row_expansion(right):
        return True
    return False


def classify_fragment(e: MatLangExpr) -> Dict[str, bool]:
    """Syntactic membership in each language fragment (expression pre-typed)."""
    if e.typ is None:
        raise TypeCheckError("classify_fragment needs a typechecked expression")
    return {
        "matlang": _in_matlang(e),
        "conj_matlang": _in_conj(e),
        "fc_matlang": _in_fc(e),
        "simple_matlang": _in_simple(e),
        "qh_matlang": _in_qh(e),
    }


# ---------------------------------------------------------------------------
# Relational encoding
# ---------------------------------------------------------------------------

def encode_instance(instance: MatrixInstance) -> Database:
    """Relational encoding of a matrix instance; linear in its size."""
    schema = instance.schema
    db = Database(instance.semiring, constants=dict(schema.sizes))
    for name in schema.matrices:
        indices = schema.stored_indices(name)
        cells = instance.entries[name]
        if indices == (0, 1):  # the (i, j) keys as they are
            db.relations[name] = AnnotatedRelation(2, dict(cells))
        else:
            db.relations[name] = AnnotatedRelation(len(indices), {tuple(ij[i] for i in indices): v for ij, v in cells.items()})
    return db


def decode_relation(rel: AnnotatedRelation, schema: MatrixSchema, name: str) -> Dict[Tuple[int, int], Value]:
    """The entries of matrix ``name`` that ``rel`` encodes (not range-checked:
    ``MatrixInstance`` does that)."""
    indices = schema.stored_indices(name)
    if rel.arity != len(indices):
        raise ConsistencyError(
            f"matrix {name!r} is stored with arity {len(indices)}, its relation has arity {rel.arity}"
        )
    if indices == (0, 1):  # the tuples are the (i, j) keys
        return dict(rel.entries)
    # padded with a 1, a stored tuple gives the left-out index as that 1
    i, j = (indices.index(p) if p in indices else len(indices) for p in (0, 1))
    return {(u[i], u[j]): v for t, v in rel.entries.items() for u in [t + (1,)]}


# ---------------------------------------------------------------------------
# Translation to conjunctive queries
# ---------------------------------------------------------------------------

class _UnionFind:
    def __init__(self) -> None:
        self.parent: Dict[str, str] = {}

    def find(self, x: str) -> str:
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


@dataclass
class _Translation:
    head: Set[str]  # the head variables
    atoms: List[RelAtom | IneqAtom] = field(default_factory=list)
    equalities: List[Tuple[str, str]] = field(default_factory=list)
    counter: int = 0

    def fresh(self, stem: str) -> str:
        self.counter += 1
        return f"{stem}{self.counter}"

    def kept(self, v: str, size: str) -> bool:
        """Whether index ``v`` of size ``size`` stays a shared variable.

        A bound index of size 1 does not: it takes only the value 1 on a
        consistent database, so each occurrence is summed out on its own, a
        fresh variable at a stored position and nothing elsewhere.  It then
        closes no cycle between the atoms that share it.
        """
        return size != "1" or v in self.head

    def stored(self, v: str, size: str) -> str:
        return v if self.kept(v, size) else self.fresh("u")

    def range(self, v: str, size: str) -> None:
        if self.kept(v, size):
            self.atoms.append(IneqAtom(v, size))

    def equal(self, a: str, b: str, size: str) -> None:
        if self.kept(a, size) and self.kept(b, size):
            self.equalities.append((a, b))


def _translate(e: MatLangExpr, x: str, y: str, wmap: Dict[str, str], out: _Translation, schema: MatrixSchema) -> None:
    if isinstance(e, MatrixSymbol):
        index = tuple(zip((x, y), e.typ))
        indices = schema.stored_indices(e.name)
        out.atoms.append(RelAtom(e.name, tuple(out.stored(*index[p]) for p in indices)))
        # the index the relation leaves out is 1
        for p in (0, 1):
            if p not in indices:
                out.range(*index[p])
    elif isinstance(e, (VectorVariable, OnesVector, IdentityMatrix)):
        out.range(x, e.typ[0])
        out.range(y, e.typ[1])
        if isinstance(e, VectorVariable):
            out.equal(x, wmap[e.name], e.size)
        elif isinstance(e, IdentityMatrix):
            out.equal(x, y, e.size)
    elif isinstance(e, Transpose):
        _translate(e.sub, y, x, wmap, out, schema)
    elif isinstance(e, Hadamard):
        _translate(e.left, x, y, wmap, out, schema)
        _translate(e.right, x, y, wmap, out, schema)
    elif isinstance(e, ScalarMul):
        # the scalar factor lives at entry (1,1), summed out on bound indices
        s = out.fresh("s")
        _translate(e.left, s, s, wmap, out, schema)
        _translate(e.right, x, y, wmap, out, schema)
    elif isinstance(e, MatMul):
        z = out.fresh("z")
        _translate(e.left, x, z, wmap, out, schema)
        _translate(e.right, z, y, wmap, out, schema)
    elif isinstance(e, SumIteration):
        w = out.fresh("w")
        # the explicit range keeps the iteration's multiplicity even when the
        # vector variable does not occur in the body (beta copies of the sum)
        out.range(w, e.var_size)
        _translate(e.sub, x, y, {**wmap, e.var: w}, out, schema)
    elif isinstance(e, Add):
        raise FragmentError("matrix addition has no conjunctive translation")
    else:
        raise TypeCheckError(f"cannot translate node {e!r}")


def infer_cq_types(q: ConjunctiveQuery, schema: MatrixSchema) -> Tuple[bool, Dict[str, str]]:
    """Well-typedness of a CQ read as a query over the encoding of ``schema``.

    Returns (well_typed, variable -> size symbol); on conflict the partial
    assignment is still returned.
    """
    tau: Dict[str, str] = {}
    ok = True

    def assign(v: str, size: str) -> None:
        nonlocal ok
        if tau.setdefault(v, size) != size:
            ok = False

    for atom in q.atoms:
        if isinstance(atom, IneqAtom):
            assign(atom.var, atom.bound)
            continue
        typ = schema.matrices.get(atom.symbol)
        if typ is None:
            ok = False
            continue
        for v, p in zip(atom.args, schema.stored_indices(atom.symbol)):
            assign(v, typ[p])
    return ok, tau


def translate_to_cq(query: MatQuery, schema: MatrixSchema) -> ConjunctiveQuery:
    """Translate an addition-free matrix query into a conjunctive query.

    ``schema`` declares the head (see ``with_head``).  The result simulates
    the matrix query: evaluating it over the relational encoding of any
    instance yields the relational encoding of the matrix result.
    """
    e = query.expr
    if e.typ is None:
        raise TypeCheckError("translate_to_cq needs a typechecked query")
    if schema.matrices.get(query.head) != e.typ:
        raise TypeCheckError(f"translate_to_cq needs the head {query.head!r} declared with type {e.typ}")
    if free_vector_variables(e):
        raise TypeCheckError("query expressions cannot have free vector variables")
    head_vars = tuple(("x", "y")[i] for i in schema.stored_indices(query.head))
    out = _Translation(set(head_vars))
    _translate(e, "x", "y", {}, out, schema)

    # every variable of an equality occurs in an atom: each class is named
    # by its least member
    uf = _UnionFind()
    for a, b in out.equalities:
        uf.union(a, b)
    classes: Dict[str, List[str]] = {}
    for v in uf.parent:
        classes.setdefault(uf.find(v), []).append(v)
    rep = {m: min(members) for members in classes.values() for m in members}

    def r(v: str) -> str:
        return rep.get(v, v)

    atoms: List[RelAtom | IneqAtom] = []
    for atom in out.atoms:
        if isinstance(atom, RelAtom):
            atoms.append(RelAtom(atom.symbol, tuple(r(v) for v in atom.args)))
        else:
            atoms.append(IneqAtom(r(atom.var), atom.bound))
    return ConjunctiveQuery(query.head, tuple(r(v) for v in head_vars), tuple(atoms))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@dataclass
class MatlangResult:
    instance: MatrixInstance  # the input instance plus the head matrix
    head: str
    translation: Optional[ConjunctiveQuery]
    used_engine: bool
    warning: Optional[str] = None


def with_head(query: MatQuery, schema: MatrixSchema) -> MatrixSchema:
    """``schema`` with the query's head declared as its expression's type.

    A head that ``schema`` already declares keeps its encoding and must have
    that type.
    """
    typ = typecheck(query.expr, schema)
    declared = schema.matrices.get(query.head, typ)
    if declared != typ:
        raise TypeCheckError(f"head {query.head!r} is declared {declared}, expression has {typ}")
    return MatrixSchema(dict(schema.sizes), {**schema.matrices, query.head: typ}, dict(schema.encodings))


def eval_matlang(query: MatQuery, instance: MatrixInstance) -> MatlangResult:
    """Evaluate a matrix query, via the relational engine when possible.

    Addition-free queries translate to a CQ, run through the static engine
    (or the oracle, with a warning, if the translation is not free-connex),
    and decode back.  Queries with addition use the dense reference evaluator.
    """
    from .oracle import oracle_eval_cq, oracle_eval_matlang
    from .static_engine import eval_materialized

    schema = with_head(query, instance.schema)
    head = query.head
    if not _in_conj(query.expr):
        cells = dense_to_entries(oracle_eval_matlang(query.expr, instance), instance.semiring)
        cq, used_engine = None, False
        warning = "expression uses addition; evaluated by the dense reference evaluator"
    else:
        cq = translate_to_cq(query, schema)
        db = encode_instance(instance)
        try:
            answer = eval_materialized(cq, db)
            used_engine, warning = True, None
        except ClassificationError:
            answer = oracle_eval_cq(cq, db)
            used_engine = False
            warning = "translated query is not free-connex; evaluated by the oracle"
        cells = decode_relation(answer, schema, head)
    # validates the head matrix; the inputs were validated when ``instance``
    # was built, so the result shares them
    result = MatrixInstance(schema, instance.semiring, {head: cells})
    result.entries = {**instance.entries, head: cells}
    return MatlangResult(result, head, cq, used_engine, warning)
