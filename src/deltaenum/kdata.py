"""K-relations, databases, single-tuple updates, and file ingestion.

Data values are positive integers.  A relation stores only tuples whose
annotation is nonzero; every mutation goes through ``apply_update`` so the
"support = stored tuples" invariant the enumeration algorithms rely on is
never broken (an insert whose sum lands on zero physically removes the
tuple).  The dynamic engine applies an update through a step generated per
relation symbol (``dynamic_engine.update_source``), with the semiring's
operators written inline; it takes the updates ``apply_update`` accepts,
with the same result, and hands every other one to ``apply_update``, the
reference, which raises its error before anything is written.

The text loaders (CSV relations and update scripts here, COO matrices in
``matlang.load_matrix_instance``) each make one pass over their lines,
splitting each line once.  CSV rows and COO lines are read by a loop
generated per arity and semiring (``reader_source``), update-script lines
by one generated per semiring (``update_reader_source``).  Each converts the
data fields with ``int`` and the annotation by the semiring's template and
hands every row it cannot take as it stands to the loader's full check of
one row, which skips a blank line, a header or a comment and names the line
of a rejected row.  Data values are positive integers, in an update script
too.  Input is UTF-8, with or without a byte order mark; every malformed
line, undecodable byte or oversized CSV field is an ``IngestionError``
naming the file and the line.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .codegen import compile_source, display
from .errors import IngestionError, SchemaError, VocabularyError
from .semiring import SemiringDescriptor, Value

DataTuple = Tuple[int, ...]


@dataclass
class AnnotatedRelation:
    """Finite map from positive-integer tuples to nonzero semiring values."""

    arity: int
    entries: Dict[DataTuple, Value] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class Database:
    """Relations plus constant-symbol bindings over a fixed semiring.

    The constant symbol ``1`` is always bound to 1.
    """

    semiring: SemiringDescriptor
    relations: Dict[str, AnnotatedRelation] = field(default_factory=dict)
    constants: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.constants.setdefault("1", 1)
        if self.constants["1"] != 1:
            raise SchemaError("the constant symbol '1' must be bound to 1")

    def relation(self, symbol: str) -> AnnotatedRelation:
        try:
            return self.relations[symbol]
        except KeyError:
            raise VocabularyError(f"unknown relation symbol {symbol!r}") from None

    def constant(self, symbol: str) -> int:
        try:
            return self.constants[symbol]
        except KeyError:
            raise VocabularyError(f"unknown constant symbol {symbol!r}") from None

    def copy(self) -> "Database":
        db = Database(self.semiring, {}, dict(self.constants))
        for name, rel in self.relations.items():
            db.relations[name] = AnnotatedRelation(rel.arity, dict(rel.entries))
        return db


@dataclass(slots=True)
class SingleTupleUpdate:
    """An insert (annotation combined with the old one) or a delete; not
    frozen, since a frozen record takes several times longer to build."""

    kind: str  # "insert" | "delete"
    relation: str
    tuple: DataTuple
    value: Optional[Value] = None  # insert only

    def __post_init__(self) -> None:
        if self.kind not in ("insert", "delete"):
            raise SchemaError(f"unknown update kind {self.kind!r}")
        if self.kind == "insert" and self.value is None:
            raise SchemaError("insert updates carry a value")


def update_relation(db: Database, u: SingleTupleUpdate) -> AnnotatedRelation:
    """The relation of ``db`` that ``u`` updates: a ``VocabularyError`` for
    an unknown symbol, a ``SchemaError`` for a tuple of another arity."""
    rel = db.relation(u.relation)
    if len(u.tuple) != rel.arity:
        raise SchemaError(
            f"tuple {u.tuple} has arity {len(u.tuple)}, relation {u.relation!r} expects {rel.arity}"
        )
    return rel


def apply_update(db: Database, u: SingleTupleUpdate) -> Tuple[Optional[Value], Optional[Value]]:
    """Apply a single-tuple update in place and return the tuple's stored
    annotation before and after it, as ``(old, new)``; None means absent.

    Insert: new annotation = old (+) k, removing the tuple if the sum is zero;
    a k or a sum the semiring does not admit (a real sum that overflows) is
    a ``SchemaError``.
    Delete: the tuple's annotation becomes zero, i.e. it is removed.
    A rejected update leaves the database untouched.  This is the reference
    for the dynamic engine's generated update step
    (``dynamic_engine.update_source``), which hands it every update it does
    not take.
    """
    rel = update_relation(db, u)
    t = u.tuple
    if t and min(t) < 1:
        raise SchemaError(f"data values must be positive integers: {t}")
    entries = rel.entries
    old = entries.get(t)
    new = None
    if u.kind == "insert":
        s = db.semiring
        if not s.admits(u.value):
            raise SchemaError(f"{u.value!r} is not a {s.name} annotation")
        new = s.add(s.zero if old is None else old, u.value)
        if not s.admits(new):
            raise SchemaError(f"{old!r} + {u.value!r} = {new!r} is not a {s.name} annotation")
        if s.is_zero(new):
            new = None
    if new is not None:
        entries[t] = new
    elif old is not None:
        del entries[t]
    return old, new


def read_input(path: str | Path) -> str:
    """The text of an input file; ``IngestionError`` naming the path when it
    cannot be read (missing, a directory, not readable, not UTF-8)."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise IngestionError(f"cannot read: {exc.strerror or exc}", str(path)) from None
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def _not_utf8(path: str | Path) -> IngestionError:
    """The error for a file that is not UTF-8 text, at the line of its first
    undecodable byte."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return IngestionError(f"not UTF-8 text: byte {data[exc.start]:#04x}", str(path), line)
    return IngestionError("not UTF-8 text", str(path))


def load_vocabulary(path: str | Path) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Read a vocabulary file: relation symbols with arities, constants with values."""
    try:
        doc = json.loads(read_input(path))
    except json.JSONDecodeError as exc:
        raise IngestionError(f"invalid JSON: {exc}", str(path)) from None
    if not isinstance(doc, dict):
        raise IngestionError("a vocabulary must be a JSON object", str(path))
    relations = doc.get("relations", {})
    constants = doc.get("constants", {})
    if not (isinstance(relations, dict) and isinstance(constants, dict)):
        raise IngestionError("'relations' and 'constants' must be JSON objects", str(path))
    for name, arity in relations.items():
        if type(arity) is not int or arity < 0:
            raise IngestionError(f"relation {name!r} has invalid arity {arity!r}", str(path))
    constants.setdefault("1", 1)
    if constants["1"] != 1:
        raise IngestionError("the constant symbol '1' must be bound to 1", str(path))
    for name, value in constants.items():
        if type(value) is not int or value < 1:
            raise IngestionError(f"constant {name!r} must be a positive integer", str(path))
    return relations, constants


def load_database(
    vocab_path: str | Path, data_dir: str | Path, semiring: SemiringDescriptor
) -> Database:
    """Build a database from a vocabulary file plus one CSV per relation.

    Each row of ``<data_dir>/<R>.csv`` is ``v1,...,vk,annotation``.  Rows with
    a zero annotation are dropped; blank rows are skipped, and so is a header:
    a first row that does not parse and whose first field is not an integer.
    A missing CSV is an empty relation; a missing ``data_dir`` raises
    ``IngestionError``.
    """
    data_dir = Path(data_dir)
    if not data_dir.is_dir():
        raise IngestionError("not a directory", str(data_dir))
    relations, constants = load_vocabulary(vocab_path)
    db = Database(semiring, {}, constants)
    for name, arity in relations.items():
        rel = AnnotatedRelation(arity)
        db.relations[name] = rel
        path = data_dir / f"{name}.csv"
        try:
            fh = path.open(encoding="utf-8-sig", newline="")
        except FileNotFoundError:
            continue  # declared but empty relation
        except OSError as exc:
            raise IngestionError(f"cannot read: {exc.strerror or exc}", str(path)) from None
        with fh:
            _read_rows(fh, str(path), arity, semiring, rel.entries)
    return db


def reader_source(arity: int, s: SemiringDescriptor, bounded: bool = False) -> str:
    """The source of ``read(rows, convert, dims, entries, check)``, the loop
    over numbered rows of ``arity`` data fields and an annotation: CSV rows,
    or (``bounded``) the split lines of a COO matrix of dimensions ``dims``.

    A row is stored, or dropped when its annotation is zero, when its data
    fields convert with ``int`` to values from 1 (to ``dims``, if
    ``bounded``), its annotation converts by ``s``'s template (without one,
    by ``convert``) to a value that ``s`` admits and its tuple is new.  Any
    other row, and every row when ``s`` has no ``is_zero`` or ``admits``
    template, goes to ``check(row, rowno)``, which skips, stores or raises.
    """
    lines = ["def read(rows, convert, dims, entries, check):", "    for rowno, row in rows:"]
    if not {"is_zero", "admits"} <= s.templates.keys():
        return "\n".join(lines + ["        check(row, rowno)"]) + "\n"
    xs = [f"x{i}" for i in range(arity)]
    reject = [f"t[{i}] < 1" for i in range(arity)] + [f"t[{i}] > dims[{i}]" for i in range(arity) if bounded]
    reject += ["t in entries", f"not {s.expr('admits', 'a')}"]
    lines += [
        "        try:",
        f"            {display(xs + ['a'])} = row",
        f"            t = {display([f'int({x})' for x in xs])}",
        f"            a = {s.expr('convert', 'a')}",
        "        except ValueError:",
        "            check(row, rowno)",
        "            continue",
        f"        if {' or '.join(reject)}:",
        "            check(row, rowno)",
        f"        elif not {s.expr('is_zero', 'a')}:",
        "            entries[t] = a",
    ]
    return "\n".join(lines) + "\n"


def _read_rows(fh, path: str, arity: int, semiring: SemiringDescriptor, entries: Dict) -> None:
    """One pass over the CSV rows of one relation into ``entries``, by the
    reader of ``arity`` and ``semiring`` (``reader_source``).  A row it does
    not take goes to ``check``, which tests the width, the data values, their
    positivity, the annotation, a zero annotation and a duplicate, in that
    order; it looks for a blank row, the header and the line of a row only
    when the row fails."""
    width = arity + 1
    parse, is_zero = semiring.parse, semiring.is_zero
    reader = csv.reader(fh)

    def check(row: List[str], rowno: int) -> None:
        if len(row) != width:
            if _skipped(row, rowno):
                return
            raise IngestionError(
                f"expected {width} fields, got {len(row)}", path, _line(reader, row)
            )
        try:
            values = tuple(map(int, row[:arity]))
        except ValueError:
            if _skipped(row, rowno):
                return
            raise IngestionError(
                f"malformed data value in {row[:arity]}", path, _line(reader, row)
            ) from None
        if arity and min(values) < 1:
            raise IngestionError(
                f"data values must be positive integers, got {values}", path, _line(reader, row)
            )
        try:
            annotation = parse(row[arity])
        except ValueError as exc:
            if _skipped(row, rowno):
                return
            raise IngestionError(str(exc), path, _line(reader, row)) from None
        if is_zero(annotation):
            return
        if values in entries:
            raise IngestionError(f"duplicate tuple {values}", path, _line(reader, row))
        entries[values] = annotation

    read = compile_source(reader_source(arity, semiring), "read")
    try:
        read(enumerate(reader, start=1), parse, None, entries, check)
    except csv.Error as exc:
        raise IngestionError(str(exc), path, reader.line_num) from None
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def _line(reader, row: List[str]) -> int:
    """The physical line ``row`` starts on: ``reader.line_num`` is the line
    it ends on, after the line breaks inside its quoted fields."""
    breaks = sum(f.count("\n") + f.count("\r") - f.count("\r\n") for f in row)
    return reader.line_num - breaks


def _skipped(row: List[str], rowno: int) -> bool:
    """A blank row, or the optional header: a first row whose first field
    is not an integer."""
    if not row or (len(row) == 1 and not row[0].strip()):
        return True
    if rowno != 1:
        return False
    try:
        int(row[0])
        return False
    except ValueError:
        return True


UNROLLED = 4  # the data fields the update-line reader converts one by one


def update_reader_source(s: SemiringDescriptor) -> str:
    """The source of ``read(lines, convert, admits, Update, updates, check)``,
    the loop over an update script's lines.  It appends to ``updates`` the
    ``Update`` of each insert or delete without ``#`` whose data fields
    convert with ``int`` (up to ``UNROLLED`` of them one by one) to values
    from 1 and whose annotation, inserting, converts to a value that ``s``
    admits, by its templates or else by ``convert`` and ``admits``.  Any
    other line goes to ``check(lineno, line)``, which skips, appends or
    raises."""

    def data(first: int, end: str) -> List[str]:
        # the chain over ``n`` that sets ``t``, the data fields from ``f[2]``
        # (none when ``n`` is ``first``), and ``low``, whether one is below 1
        lines = []
        for k in range(UNROLLED + 1):
            low = " or ".join(f"t[{i}] < 1" for i in range(k)) or "False"
            t = display([f"int(f[{i}])" for i in range(2, 2 + k)])
            lines += [f"{'elif' if k else 'if'} n == {first + k}:", f"    t = {t}", f"    low = {low}"]
        return lines + ["else:", f"    t = tuple(map(int, f[2:{end}]))", "    low = min(t) < 1"]

    lines = [
        "def read(lines, convert, admits, Update, updates, check):",
        "    append = updates.append",
        "    for lineno, line in enumerate(lines, 1):",
        "        f = line.split()",
        "        n = len(f)",
        '        if "#" not in line:',
        "            try:",
        '                if n >= 3 and f[0] == "+":',
        f"                    a = {s.expr('convert', 'f[-1]')}",
        *("                    " + line for line in data(3, "-1")),
        f"                    if not (low or not {s.expr('admits', 'a')}):",
        "                        append(Update(INSERT, f[1], t, a))",
        "                        continue",
        '                elif n >= 2 and f[0] == "-":',
        *("                    " + line for line in data(2, "")),
        "                    if not low:",
        "                        append(Update(DELETE, f[1], t))",
        "                        continue",
        "            except ValueError:",
        "                pass",
        "        check(lineno, line)",
    ]
    return "\n".join(lines) + "\n"


def parse_update_script(path: str | Path, semiring: SemiringDescriptor) -> List[SingleTupleUpdate]:
    """Parse an update script: ``+ R 1 2 7`` inserts, ``- R 1 2`` deletes;
    ``#`` starts a comment.  One pass by the reader of ``semiring``
    (``update_reader_source``), splitting each line once; a line it does not
    take goes to ``check``, which names the line of an error.  An update's
    arity and symbol are checked against a database by ``update_relation``,
    when it is applied or, in ``deltaenum dyn``, before the first runs."""
    path, parse = str(path), semiring.parse
    updates: List[SingleTupleUpdate] = []

    def check(lineno: int, line: str) -> None:
        if "#" in line:
            line = line[: line.index("#")]
        fields = line.split()
        if not fields:
            return
        op = fields[0]
        if len(fields) < 2 or op not in ("+", "-"):
            raise IngestionError(f"malformed update line {line.strip()!r}", path, lineno)
        try:
            if op == "+" and len(fields) == 2:
                raise ValueError("insert needs at least an annotation")
            values = tuple(map(int, fields[2:-1] if op == "+" else fields[2:]))
            if values and min(values) < 1:
                raise ValueError(f"data values must be positive integers, got {values}")
            if op == "+":
                updates.append(SingleTupleUpdate("insert", fields[1], values, parse(fields[-1])))
            else:
                updates.append(SingleTupleUpdate("delete", fields[1], values))
        except ValueError as exc:
            raise IngestionError(str(exc), path, lineno) from None

    read = compile_source(update_reader_source(semiring), "read")
    read(read_input(path).splitlines(), parse, semiring.admits, SingleTupleUpdate, updates, check)
    return updates
