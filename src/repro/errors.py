"""Exception hierarchy shared across the package."""


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class SchemaError(ReproError):
    """A query, tuple or access rule refers to a relation or attribute that
    does not exist, or uses the wrong arity."""


class UpdateError(ReproError):
    """An update violates the well-formedness conditions of Section 5:
    deletions must be contained in the database and insertions must be
    disjoint from it."""


class CompactedError(ReproError):
    """A change-log span was requested from below the log's floor: pinned
    compaction (:class:`repro.relational.instance.ChangeLog`) has dropped
    those entries, so the slice cannot be answered -- hold a pin to keep
    a watermark sliceable across appends."""


class ParseError(ReproError):
    """The textual form of a query, schema or access schema is malformed.

    Carries the 1-based ``line`` and ``column`` of the offending token when
    they are known; the rendered message always includes them.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None and column is not None:
            message = f"{message} (line {line}, column {column})"
        elif line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)


class IncrementalError(ReproError):
    """Incremental (delta-based) execution was requested for a plan shape
    the delta pipeline does not support -- currently plans that fetch
    through an embedded access rule, whose per-assignment projection
    deduplication has no exact counting semantics."""


class NotControlledError(ReproError):
    """A scale-independent plan was requested for a query that is not
    controlled by the given variables under the given access schema.
    ``coverage`` is the failed walk's :class:`repro.core.controllability.Coverage`
    (its ``explain()`` ends the message); None from the view rewriter."""

    def __init__(self, message: str, coverage: object = None):
        super().__init__(message)
        self.coverage = coverage


class RewritingError(ReproError):
    """No rewriting of the requested form exists (or the bounded search for
    one was exhausted)."""


class CertificationError(ReproError):
    """A compiled plan failed independent certification
    (:mod:`repro.analysis.certify`): re-deriving its binding coverage,
    rule membership, head projection or fanout arithmetic from the query
    and the access schema contradicted what the plan claims.

    Carries the certifier's ``report`` (a :class:`repro.analysis.Report`
    of ``CRT`` errors) when raised by
    :func:`repro.analysis.certify.check_plan`.
    """

    def __init__(self, message: str, report: object = None):
        super().__init__(message)
        self.report = report
