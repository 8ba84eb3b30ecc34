"""Conjunctive queries and their unions: AST, parser, classifiers.

The concrete grammar is Datalog-style, one query per file::

    H(x,y) :- R(x,z), S(z,y).       # comments start with '#'
    I(x,x) :- x <= alpha.

Variables bound in the body but absent from the head are implicitly
existentially quantified.  ``;`` between body blocks makes the query a union
of CQs, the positive-FO queries this package accepts: :func:`parse_rule`
parses either, :func:`rule_query` rejects a union with
:class:`NotConjunctiveError`, and :func:`rule_union` (the oracle path)
validates one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from .errors import NotConjunctiveError, QuerySyntaxError, UnsafeFormulaError


# ---------------------------------------------------------------------------
# Atoms and conjunctive queries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RelAtom:
    symbol: str
    args: Tuple[str, ...]

    @property
    def vars(self) -> FrozenSet[str]:
        return frozenset(self.args)

    def __str__(self) -> str:
        return f"{self.symbol}({', '.join(self.args)})"


@dataclass(frozen=True)
class IneqAtom:
    var: str
    bound: str  # constant symbol

    @property
    def vars(self) -> FrozenSet[str]:
        return frozenset((self.var,))

    def __str__(self) -> str:
        return f"{self.var} <= {self.bound}"


Atom = Union[RelAtom, IneqAtom]


@dataclass(frozen=True)
class ConjunctiveQuery:
    """Head + prenex conjunctive body over relational and inequality atoms."""

    head_symbol: str
    head_vars: Tuple[str, ...]
    atoms: Tuple[Atom, ...]

    @property
    def relational_atoms(self) -> Tuple[RelAtom, ...]:
        return tuple(a for a in self.atoms if isinstance(a, RelAtom))

    @property
    def inequality_atoms(self) -> Tuple[IneqAtom, ...]:
        return tuple(a for a in self.atoms if isinstance(a, IneqAtom))

    def to_text(self) -> str:
        body = ", ".join(str(a) for a in self.atoms)
        return f"{self.head_symbol}({', '.join(self.head_vars)}) :- {body}."

    def __str__(self) -> str:
        return self.to_text()


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*|1)"
    r"|(?P<op>:-|<=|[(),.;])"
    r"|(?P<bad>\S))"
)


Token = Tuple[str, str, int, int]  # kind ("ident" or "op"), text, line, column
Rule = Tuple[str, Tuple[str, ...], List[List[Atom]]]  # head symbol, head variables, blocks


def tokenize(text: str, pattern: re.Pattern) -> List[Token]:
    """The tokens of ``text``; ``pattern`` matches one token at a time in its
    groups ``ident``, ``op`` or ``bad`` (a character no token starts with).
    ``#`` starts a comment that runs to the end of the line."""
    tokens = []
    for line, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0]
        pos = 0
        while pos < len(stripped):
            m = pattern.match(stripped, pos)
            if m is None:
                break
            if m.group("bad"):
                raise QuerySyntaxError(f"unexpected character {m.group('bad')!r}", line, m.start("bad") + 1)
            kind = "ident" if m.group("ident") else "op"
            tokens.append((kind, m.group(kind), line, m.start(kind) + 1))
            pos = m.end()
    return tokens


class TokenCursor:
    """The recursive-descent parsers' position in the tokens of one text."""

    def __init__(self, text: str, pattern: re.Pattern):
        self.tokens = tokenize(text, pattern)
        self.i = 0

    def peek(self) -> Optional[Token]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def at(self, *values: str) -> bool:
        """The next token is one of ``values``."""
        tok = self.peek()
        return tok is not None and tok[1] in values

    def next(self, expect: Optional[str] = None, kind: Optional[str] = None) -> Token:
        tok = self.peek()
        if tok is None:
            raise QuerySyntaxError("unexpected end of input")
        if kind is not None and tok[0] != kind:
            raise QuerySyntaxError(f"expected {kind}, found {tok[1]!r}", tok[2], tok[3])
        if expect is not None and tok[1] != expect:
            raise QuerySyntaxError(f"expected {expect!r}, found {tok[1]!r}", tok[2], tok[3])
        self.i += 1
        return tok


class _Parser(TokenCursor):
    def parse_var_list(self) -> Tuple[str, ...]:
        self.next("(")
        out: List[str] = []
        if self.at(")"):
            self.next(")")
            return tuple(out)
        while True:
            tok = self.next(kind="ident")
            if tok[1] == "1":
                raise QuerySyntaxError("'1' is a reserved constant symbol, not a variable", tok[2], tok[3])
            out.append(tok[1])
            if self.at(","):
                self.next(",")
            else:
                break
        self.next(")")
        return tuple(out)

    def parse_atom(self) -> Atom:
        name = self.next(kind="ident")
        if self.at("("):
            return RelAtom(name[1], self.parse_var_list())
        if self.at("<="):
            if name[1] == "1":
                raise QuerySyntaxError("'1' is a constant symbol, not a variable", name[2], name[3])
            self.next("<=")
            bound = self.next(kind="ident")
            return IneqAtom(name[1], bound[1])
        where = self.peek() or name
        raise QuerySyntaxError("expected '(' or '<=' after identifier", where[2], where[3])

    def parse_conjunction(self) -> List[Atom]:
        atoms = [self.parse_atom()]
        while self.at(","):
            self.next(",")
            atoms.append(self.parse_atom())
        return atoms

    def parse_rule(self) -> Rule:
        head_name = self.next(kind="ident")
        head_vars = self.parse_var_list()
        self.next(":-")
        blocks = [self.parse_conjunction()]
        while self.at(";"):
            self.next(";")
            blocks.append(self.parse_conjunction())
        self.next(".")
        tok = self.peek()
        if tok is not None:
            raise QuerySyntaxError(f"trailing input after query: {tok[1]!r}", tok[2], tok[3])
        return head_name[1], head_vars, blocks


def _validate_cq(head_symbol: str, head_vars: Tuple[str, ...], atoms: Sequence[Atom]) -> ConjunctiveQuery:
    arities: Dict[str, int] = {}
    body_vars: set = set()
    for a in atoms:
        if isinstance(a, RelAtom):
            if a.symbol == head_symbol:
                raise QuerySyntaxError(f"head symbol {head_symbol!r} occurs in the body")
            if arities.setdefault(a.symbol, len(a.args)) != len(a.args):
                raise QuerySyntaxError(
                    f"relation {a.symbol!r} used with arities {arities[a.symbol]} and {len(a.args)}"
                )
        body_vars |= a.vars
    for v in head_vars:
        if v not in body_vars:
            raise QuerySyntaxError(f"head variable {v!r} is not free in the body")
    return ConjunctiveQuery(head_symbol, head_vars, tuple(atoms))


def parse_rule(text: str) -> Rule:
    """Tokenize and parse one rule, to be validated by ``rule_query`` or
    ``rule_union``."""
    return _Parser(text, _TOKEN_RE).parse_rule()


def parse_query(text: str) -> ConjunctiveQuery:
    """Parse a conjunctive query; disjunction is rejected with a distinct error."""
    return rule_query(parse_rule(text))


def rule_query(rule: Rule) -> ConjunctiveQuery:
    """The parsed rule as a CQ; disjunction is rejected with a distinct error."""
    head_symbol, head_vars, blocks = rule
    if len(blocks) > 1:
        raise NotConjunctiveError("disjunction (';') makes this an FO+ query, not a CQ")
    return _validate_cq(head_symbol, head_vars, blocks[0])


def rule_union(rule: Rule) -> Tuple[ConjunctiveQuery, ...]:
    """The parsed rule as a union of CQs, each binding every head variable."""
    head_symbol, head_vars, blocks = rule
    _validate_cq(head_symbol, (), [a for block in blocks for a in block])
    for atoms in blocks:
        missing = set(head_vars).difference(*(a.vars for a in atoms))
        if missing:
            raise UnsafeFormulaError(
                f"head variables {sorted(missing)} missing from a disjunct (unsafe)"
            )
    return tuple(ConjunctiveQuery(head_symbol, head_vars, tuple(atoms)) for atoms in blocks)


def is_constant_disjoint(q: ConjunctiveQuery) -> Tuple[bool, Optional[Tuple[IneqAtom, Optional[IneqAtom]]]]:
    """Check constant-disjointness; on failure return the violating inequality pair.

    Violations: a covered inequality over the constant symbol ``1``, or a
    constant symbol shared between a covered inequality and an uncovered one
    whose variable is free.
    """
    rel_vars: set = set()
    for a in q.relational_atoms:
        rel_vars |= a.vars
    free = set(q.head_vars)
    covered = [i for i in q.inequality_atoms if i.var in rel_vars]
    uncovered = [i for i in q.inequality_atoms if i.var not in rel_vars]
    for c in covered:
        if c.bound == "1":
            return False, (c, None)
    for c in covered:
        for u in uncovered:
            if c.bound == u.bound and u.var in free:
                return False, (c, u)
    return True, None


def has_self_join(q: ConjunctiveQuery) -> bool:
    """True iff some relation symbol occurs in two relational atoms."""
    seen: set = set()
    for a in q.relational_atoms:
        if a.symbol in seen:
            return True
        seen.add(a.symbol)
    return False
