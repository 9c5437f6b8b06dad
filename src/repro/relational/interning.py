"""Constant interning for the columnar hot path.

Every lookup key the executor builds, every stored row and every seed
parameter funnels through hash-based containers: per-position hash
indexes, distinct-key dedup dicts, answer dedup dicts.  Strings dominate
real workloads (names, cities, urls), and CPython caches a str's hash on
the object -- so making sure one *shared* object represents each
distinct string value means its hash is computed once for the lifetime
of the process, and dict probes hit the identity fast path (``x is y``)
before ever falling back to ``__eq__``.

:func:`intern_value` is that funnel: exact ``str`` values go through
:func:`sys.intern`; everything else (ints, floats, tuples, arbitrary
hashables -- and ``str`` subclasses, which :func:`sys.intern` rejects)
passes through untouched.  It runs where values enter or persist:
:meth:`Database.insert_many <repro.relational.instance.Database.insert_many>`
interns stored rows, a :class:`~repro.views.definition.ViewState` the rows
it materialises, the executor operator constants and parameter values.  A
SQLite read hands back ``sqlite3``'s strings: equal, not the same objects.
"""

from __future__ import annotations

from operator import itemgetter
from sys import intern as _intern
from typing import Collection

__all__ = ["intern_value", "intern_row", "intern_rows"]


def intern_value(value: object) -> object:
    """``value``, interned when it is an exact ``str`` (identity-stable,
    hash cached once process-wide); any other value unchanged."""
    return _intern(value) if type(value) is str else value


def intern_row(row: tuple) -> tuple:
    """``row`` with every exact-``str`` component interned.  Returns the
    original tuple object when nothing needed interning (the common
    all-numeric case allocates nothing)."""
    for v in row:
        if type(v) is str:
            return tuple([_intern(v) if type(v) is str else v for v in row])
    return row


def intern_rows(rows: Collection[tuple]) -> list[tuple]:
    """:func:`intern_row` of every row (all of one width), a column at a
    time: rows with no exact ``str`` come back as they are, and an
    all-``str`` column is interned with no Python call per cell."""
    columns: list = [list(map(itemgetter(i), rows)) for i in range(len(next(iter(rows), ())))]
    kinds = [set(map(type, column)) for column in columns]
    strings = [i for i, kind in enumerate(kinds) if str in kind]
    for i in strings:
        columns[i] = map(_intern if kinds[i] == {str} else intern_value, columns[i])
    return list(zip(*columns)) if strings else list(rows)
