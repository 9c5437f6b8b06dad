"""The columnar representation the physical executor lowers to.

The executor's unit of work is a batch of partial assignments stored
column-wise: one Python list per *variable slot* -- parallel columns of
one length -- with ``None`` for a slot that is unbound (not yet fetched)
or dead (no later operator reads it).  The variable-to-slot mapping is
compiled once per plan into a :class:`SlotTable` (during pipeline
lowering, see :func:`repro.core.executor.build_pipeline`), so the
compiled closures address columns by integer index and never hash a
variable per row: a fetch builds its key column with one ``zip``, expands
matches into a ``take`` list of source indices plus fresh columns for
newly bound variables, and gathers only live columns.  There is no batch
*class*: the closures thread a bare ``(columns, n)`` pair, and derivation
signs (+1 gained, -1 lost, for :mod:`repro.incremental`) ride as one more
column in the trailing slot.
"""

from __future__ import annotations

from typing import Iterable

from repro.logic.terms import Variable

Row = tuple[object, ...]

__all__ = ["SlotTable"]


class SlotTable:
    """An immutable variable -> column-slot mapping, compiled once per
    plan: the schema every batch of one pipeline shares, so closures
    resolve a variable to a list index instead of hashing it per row."""

    __slots__ = ("variables", "index")

    def __init__(self, variables: Iterable[Variable]):
        self.variables: tuple[Variable, ...] = tuple(dict.fromkeys(variables))
        self.index: dict[Variable, int] = {
            v: i for i, v in enumerate(self.variables)
        }

    def __len__(self) -> int:
        return len(self.variables)

    def __contains__(self, variable: object) -> bool:
        return variable in self.index

    def __iter__(self):
        return iter(self.variables)

    def slot(self, variable: Variable) -> int:
        return self.index[variable]

    def __repr__(self) -> str:
        names = ", ".join(f"?{v}" for v in self.variables)
        return f"SlotTable({names})"


#: Shared empty-key singleton: a keyless fetch broadcasts one () key per
#: source row, so the key column is the same object for every batch.
EMPTY_KEY: Row = ()
