"""An oracle the engine did not write: stdlib ``sqlite3`` evaluates CQs and UCQs.

Every other oracle in ``tests/`` -- ``Query.evaluate`` and the per-tuple
``reference_executor`` -- shares with the engine the ``repro.logic``
terms, equality resolution, substitution and the ``Database`` write path,
so a bug there is a bug in the oracle too.  This one shares only the
query's syntax tree: it loads the *raw* rows into a fresh ``:memory:``
connection (never through ``Database``) and translates the query to SQL,

* a CQ to ``SELECT DISTINCT head FROM r AS a0, ... WHERE ...``, each body
  position, constant, parameter and equality a null-safe ``IS``
  comparison, constants and parameter values bound as ``?NNN``;
* a UCQ to the ``UNION`` of its disjuncts;
* a negated atom (safe negation, ROADMAP item 10) to ``NOT EXISTS``.

Where Python and SQLite value semantics differ, and why the answers still
agree (``tests/test_sql_oracle.py`` holds one test per point):

* ``True`` / ``False`` are stored as the integers 1 / 0 and come back as
  ints.  Python agrees that ``True == 1`` and hashes them alike, so
  answer *sets* compare equal; only the types differ.
* ``1 = 1.0``: SQLite compares integers and reals numerically, as Python
  does.
* ``None`` is ``NULL``, and ``NULL = NULL`` is not true in SQL; Python's
  ``None == None`` is.  Every comparison here is ``IS``, which treats two
  NULLs as equal and is ``=`` otherwise.
* Text vs number: the columns are declared without a type, so no
  affinity converts ``'1'`` to ``1`` on the way in; ``'1' IS 1`` is false,
  as ``'1' == 1`` is in Python.
* Outside the oracle's domain: NaN (SQLite stores it as NULL) and
  integers beyond 64 bits (``sqlite3`` raises ``OverflowError``).
"""

import sqlite3
from typing import Iterable, Mapping

from repro.logic.ast import _as_variable
from repro.logic.terms import Constant, Variable


class SqlOracle:
    """One ``:memory:`` SQLite database holding ``rows`` (relation name ->
    raw tuples) under ``schema``'s relation names and arities."""

    def __init__(self, schema, rows: Mapping[str, Iterable[tuple]]):
        self.connection = sqlite3.connect(":memory:")
        for name in schema.names:
            arity = schema.relation(name).arity
            columns = ", ".join(f"c{i}" for i in range(arity))
            self.connection.execute(f'CREATE TABLE "{name}" ({columns})')
            marks = ", ".join("?" * arity)
            self.connection.executemany(
                f'INSERT INTO "{name}" VALUES ({marks})', rows.get(name, ())
            )

    def answers(
        self, query, parameters: Mapping[object, object] | None = None
    ) -> set[tuple]:
        """The answer set of a CQ or UCQ with ``parameters`` (variables or
        their names -> values) given."""
        given = {_as_variable(k): v for k, v in (parameters or {}).items()}
        args: list[object] = []
        disjuncts = getattr(query, "disjuncts", (query,))
        sql = " UNION ".join(_select(cq, given, args) for cq in disjuncts)
        rows = self.connection.execute(sql, args).fetchall()
        return {row[1:] for row in rows}


def _select(cq, given: Mapping[Variable, object], args: list[object]) -> str:
    """One ``SELECT DISTINCT`` for ``cq``; appends its bound values to
    ``args``.  A leading constant column keeps a zero-arity head legal."""
    # a variable -> the SQL column that holds its value, or the term an
    # equality gave it (bound only where used: an unused one binds nothing)
    column: dict[Variable, object] = {}
    where: list[str] = []

    def bind(value: object) -> str:
        args.append(value)
        return f"?{len(args)}"

    def known(term) -> bool:
        return isinstance(term, Constant) or term in column or term in given

    def sql(term) -> str:
        if isinstance(term, Constant):
            return bind(term.value)
        if term not in column:
            return bind(given[term])
        held = column[term]
        return held if isinstance(held, str) else sql(held)

    for i, atom in enumerate(cq.body):
        for j, term in enumerate(atom.terms):
            at = f"a{i}.c{j}"
            if isinstance(term, Variable) and term not in column:
                if term in given:
                    where.append(f"{at} IS {bind(given[term])}")
                column[term] = at
            else:
                where.append(f"{at} IS {sql(term)}")
    # An equality with one known side gives the other its value; with two,
    # it is a condition; with none (two variables nothing else mentions),
    # some value satisfies it.  Repeat until no equality is decided.
    pending = list(cq.equalities)
    while pending:
        for eq in pending:
            left, right = eq.left, eq.right
            if known(left) and known(right):
                where.append(f"{sql(left)} IS {sql(right)}")
            elif known(left) or known(right):
                source, target = (left, right) if known(left) else (right, left)
                column[target] = source
            else:
                continue
            pending.remove(eq)
            break
        else:
            break
    for atom in getattr(cq, "negated", ()):
        where.append(_not_exists(atom, sql))
    head = "".join(f", {sql(v)}" for v in cq.head)
    tables = ", ".join(f'"{atom.relation}" AS a{i}' for i, atom in enumerate(cq.body))
    return (
        f"SELECT DISTINCT 0{head}"
        + (f" FROM {tables}" if tables else "")
        + (f" WHERE {' AND '.join(where)}" if where else "")
    )


def _not_exists(atom, sql) -> str:
    """Safe negation: no row of ``atom``'s relation equals its terms, every
    one of which the positive body (or a parameter) has bound."""
    match = " AND ".join(f"n.c{j} IS {sql(term)}" for j, term in enumerate(atom.terms))
    return f'NOT EXISTS (SELECT 1 FROM "{atom.relation}" AS n WHERE {match})'
