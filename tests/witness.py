"""The paper's definition, checked: an execute's answers come from what it read.

Section 2 calls ``Q`` scale independent in ``D`` (for a bound ``M``) when
some ``D_Q ⊆ D`` with ``|D_Q| <= M`` has ``Q(D_Q) = Q(D)``.  A controlled
execute names its candidate ``D_Q`` without meaning to: the rows its
charged reads returned.  :class:`WitnessBackend` records them, and
:func:`check_witness` holds one execute to the definition --

* ``|D_Q| <= tuples_accessed <= fanout_bound``: the reads charged every
  row they returned, and the plan's a-priori bound covers the charge;
* ``Q(D_Q) == Q(D) == rows``, both sides answered by the SQLite oracle:
  the rows the plan read are enough to answer the query, and the engine
  answered it.
"""

from sql_oracle import SqlOracle
from repro.relational.backends.base import StorageBackend


class WitnessBackend(StorageBackend):
    """A storage backend that delegates every primitive to ``inner`` and
    records each row that ``lookup_keys``, ``contains_rows`` and ``scan``
    return.

    It charges nothing itself: ``attach`` hands the database's cumulative
    stats to ``inner``, which keeps charging them (plus any ``stats``
    argument) exactly as it would unwrapped.
    """

    def __init__(self, inner: StorageBackend):
        super().__init__()
        self.inner = inner
        self.returns_live_groups = inner.returns_live_groups
        self.rows: dict[str, set] = {}

    def take(self) -> dict[str, set]:
        """The rows recorded since the last ``take``, by relation; starts
        the next witness empty."""
        rows, self.rows = self.rows, {}
        return rows

    def _record(self, relation, rows) -> None:
        self.rows.setdefault(relation, set()).update(rows)

    def attach(self, schema, stats) -> None:
        super().attach(schema, stats)
        self.inner.attach(schema, stats)

    def close(self) -> None:
        self.inner.close()

    def lookup_keys(self, relation, positions, keys, stats=None):
        groups = self.inner.lookup_keys(relation, positions, keys, stats)
        for group in groups:
            self._record(relation, group)
        return groups

    def contains_rows(self, relation, rows, stats=None):
        verdicts = self.inner.contains_rows(relation, rows, stats)
        self._record(relation, (row for row, found in zip(rows, verdicts) if found))
        return verdicts

    def scan(self, relation, stats=None):
        rows = self.inner.scan(relation, stats)
        self._record(relation, rows)
        return rows

    def probe_rows(self, relation, rows):
        return self.inner.probe_rows(relation, rows)

    def count(self, relation):
        return self.inner.count(relation)

    def iter_rows(self, relation):
        return self.inner.iter_rows(relation)

    def insert_rows(self, relation, rows):
        return self.inner.insert_rows(relation, rows)

    def delete_rows(self, relation, rows):
        return self.inner.delete_rows(relation, rows)

    def load_rows(self, relation, rows):
        return self.inner.load_rows(relation, rows)


def check_witness(schema, query, parameters, result, witness, answers) -> None:
    """Assert Section 2's definition on one execute: ``result`` of
    ``query`` under ``parameters``, ``witness`` the rows its reads returned
    (:meth:`WitnessBackend.take`), ``answers`` the oracle's ``Q(D)``."""
    size = sum(map(len, witness.values()))
    accessed, bound = result.stats.tuples_accessed, result.fanout_bound
    assert size <= accessed <= bound, f"|D_Q| {size}, tuples {accessed}, bound {bound}"
    assert SqlOracle(schema, witness).answers(query, parameters) == answers == set(result.rows)
