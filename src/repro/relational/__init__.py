"""The relational substrate: schemas, database instances, storage backends.

:mod:`repro.relational.schema` declares relation and database schemas with
arity/attribute validation; :mod:`repro.relational.instance` provides the
:class:`Database` facade -- validation, interning, tuple-access
accounting (the measuring stick for scale independence) and the
mutation :class:`~repro.relational.instance.ChangeLog` -- over a
pluggable storage engine from :mod:`repro.relational.backends`
(in-memory dict indexes by default, or out-of-core SQLite).
"""

from repro.relational.backends import (
    MemoryBackend,
    SqliteBackend,
    StorageBackend,
)
from repro.relational.instance import AccessStats, Database
from repro.relational.schema import DatabaseSchema, RelationSchema, parse_schema

__all__ = [
    "RelationSchema",
    "DatabaseSchema",
    "parse_schema",
    "Database",
    "AccessStats",
    "StorageBackend",
    "MemoryBackend",
    "SqliteBackend",
]
