"""K-relations, databases, single-tuple updates, and file ingestion.

Data values are positive integers.  A relation stores only tuples whose
annotation is nonzero; every mutation goes through ``apply_update`` so the
"support = stored tuples" invariant the enumeration algorithms rely on is
never broken (an insert whose sum lands on zero physically removes the
tuple).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

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


@dataclass(frozen=True)
class SingleTupleUpdate:
    """An insert (annotation combined with the old one) or a delete."""

    kind: str  # "insert" | "delete"
    relation: str
    tuple: DataTuple
    value: Optional[Value] = None  # insert only

    def __post_init__(self) -> None:
        if self.kind not in ("insert", "delete"):
            raise SchemaError(f"unknown update kind {self.kind!r}")
        if self.kind == "insert" and self.value is None:
            raise SchemaError("insert updates carry a value")


def db_size(db: Database) -> int:
    """Size measure: sum over relations of (arity+1) * #tuples, plus one per constant."""
    total = sum((rel.arity + 1) * len(rel.entries) for rel in db.relations.values())
    return total + len(db.constants)


def apply_update(db: Database, u: SingleTupleUpdate) -> Tuple[Optional[Value], Optional[Value]]:
    """Apply a single-tuple update in place and return the tuple's stored
    annotation before and after it, as ``(old, new)``; None means absent.

    Insert: new annotation = old (+) k, removing the tuple if the sum is zero.
    Delete: the tuple's annotation becomes zero, i.e. it is removed.
    """
    rel = db.relation(u.relation)
    t = u.tuple
    if len(t) != rel.arity:
        raise SchemaError(
            f"tuple {t} has arity {len(t)}, relation {u.relation!r} expects {rel.arity}"
        )
    if t and min(t) < 1:
        raise SchemaError(f"data values must be positive integers: {t}")
    entries = rel.entries
    old = entries.get(t)
    new = None
    if u.kind == "insert":
        s = db.semiring
        new = s.add(s.zero if old is None else old, u.value)
        if s.is_zero(new):
            new = None
    if new is not None:
        entries[t] = new
    elif old is not None:
        del entries[t]
    return old, new


def read_input(path: str | Path) -> str:
    """The text of an input file; ``IngestionError`` naming the path when it
    cannot be read (missing, a directory, not readable)."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise IngestionError(f"cannot read: {exc.strerror or exc}", str(path)) from None


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
        if not isinstance(arity, int) or arity < 0:
            raise IngestionError(f"relation {name!r} has invalid arity {arity!r}", str(path))
    constants.setdefault("1", 1)
    if constants["1"] != 1:
        raise IngestionError("the constant symbol '1' must be bound to 1", str(path))
    for name, value in constants.items():
        if not isinstance(value, int) or value < 1:
            raise IngestionError(f"constant {name!r} must be a positive integer", str(path))
    return relations, constants


def load_database(
    vocab_path: str | Path, data_dir: str | Path, semiring: SemiringDescriptor
) -> Database:
    """Build a database from a vocabulary file plus one CSV per relation.

    Each row of ``<data_dir>/<R>.csv`` is ``v1,...,vk,annotation``.  Rows with
    a zero annotation are dropped; a header row is skipped if its first field
    is not an integer.  A missing CSV is an empty relation; a missing
    ``data_dir`` raises ``IngestionError``.
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
            fh = path.open(newline="")
        except FileNotFoundError:
            continue  # declared but empty relation
        except OSError as exc:
            raise IngestionError(f"cannot read: {exc.strerror or exc}", str(path)) from None
        with fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if lineno == 1 and not _looks_like_int(row[0]):
                    continue  # optional header
                if len(row) != arity + 1:
                    raise IngestionError(
                        f"expected {arity + 1} fields, got {len(row)}", str(path), lineno
                    )
                try:
                    values = tuple(int(f) for f in row[:arity])
                except ValueError:
                    raise IngestionError(f"malformed data value in {row[:arity]}", str(path), lineno)
                if any(v < 1 for v in values):
                    raise IngestionError(
                        f"data values must be positive integers, got {values}", str(path), lineno
                    )
                try:
                    annotation = semiring.parse(row[arity])
                except ValueError as exc:
                    raise IngestionError(str(exc), str(path), lineno)
                if semiring.is_zero(annotation):
                    continue
                if values in rel.entries:
                    raise IngestionError(f"duplicate tuple {values}", str(path), lineno)
                rel.entries[values] = annotation
    return db


def _looks_like_int(s: str) -> bool:
    try:
        int(s)
        return True
    except ValueError:
        return False


def parse_update_script(
    path: str | Path, semiring: SemiringDescriptor
) -> List[SingleTupleUpdate]:
    """Parse an update script: ``+ R 1 2 7`` inserts, ``- R 1 2`` deletes."""
    updates: List[SingleTupleUpdate] = []
    for lineno, line in enumerate(read_input(path).splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        op, symbol, args = fields[0], fields[1] if len(fields) > 1 else None, fields[2:]
        if op not in ("+", "-") or symbol is None:
            raise IngestionError(f"malformed update line {line!r}", str(path), lineno)
        try:
            if op == "+":
                if not args:
                    raise ValueError("insert needs at least an annotation")
                values = tuple(int(f) for f in args[:-1])
                annotation = semiring.parse(args[-1])
                updates.append(SingleTupleUpdate("insert", symbol, values, annotation))
            else:
                values = tuple(int(f) for f in args)
                updates.append(SingleTupleUpdate("delete", symbol, values))
        except ValueError as exc:
            raise IngestionError(str(exc), str(path), lineno)
    return updates
