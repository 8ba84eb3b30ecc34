"""Exception taxonomy shared by all engine layers."""


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(EngineError):
    """Bad engine configuration, e.g. an unknown semiring name."""


class CapabilityError(EngineError):
    """A semiring or the engine lacks a capability the operation needs: an operator, or a depth."""


class VocabularyError(EngineError):
    """Reference to a relation or constant symbol that is not declared."""


class SchemaError(EngineError):
    """Arity or type mismatch against the declared vocabulary."""


class IngestionError(EngineError):
    """Malformed input data; carries file and line context when available."""

    def __init__(self, message: str, filename: str | None = None, line: int | None = None):
        self.filename = filename
        self.line = line
        where = ""
        if filename is not None:
            where = f"{filename}: " if line is None else f"{filename}:{line}: "
        super().__init__(f"{where}{message}")


class QuerySyntaxError(EngineError):
    """Query text does not conform to the grammar; carries a position."""

    def __init__(self, message: str, line: int = 1, column: int = 1):
        self.line = line
        self.column = column
        super().__init__(f"{line}:{column}: {message}")


class NotConjunctiveError(QuerySyntaxError):
    """The text parses as a union of CQs but is not a conjunctive query.

    Raised by ``query.rule_query``.  No caller catches it: ``cli.cmd_eval``
    routes a union by its block count before it asks for a CQ, and every other
    command reports it like any syntax error.
    """


class UnsafeFormulaError(EngineError):
    """A union block that does not bind every head variable."""


class StaleStateError(EngineError):
    """An enumeration cursor resumed after an update to its state."""


class ClassificationError(EngineError):
    """The query lacks the structural property the engine requires."""


class ConsistencyError(EngineError):
    """A relation holds entries outside its declared matrix dimensions."""


class ContractViolationError(EngineError):
    """Caller broke a documented precondition (e.g. delete from empty accumulator)."""


class FragmentError(EngineError):
    """A matrix expression falls outside the fragment an operation accepts."""


class TypeCheckError(EngineError):
    """A matrix expression or formula fails type inference."""

    def __init__(self, message: str, path: tuple = ()):
        self.path = path
        suffix = f" (at node path {'/'.join(map(str, path))})" if path else ""
        super().__init__(message + suffix)
