"""A SQLite keyed read returns each key's rows in insertion order, unsorted.

The order contract: every ``lookup_keys`` group lists its rows in the
order they were inserted -- a deleted and re-inserted row goes last --
which is the memory backend's bucket order.  ``SqliteBackend`` gets it
from the table's ``_seq`` column (the rowid's alias, past every stored
row's on insert) and the covering index ``(key columns, _seq, rest)``:
the read's ``ORDER BY <key columns>, _seq`` is the index's own order, and
a batch of keys is that one-key read once per key under ``UNION ALL``,
so ``EXPLAIN QUERY PLAN`` shows covering-index searches only -- for
composite and ``None``-bearing batches too -- and no temp B-tree.  (A
file written before the ``_seq`` layout refuses to open:
``test_store_lifecycle.py``.)
"""

import sqlite3
from tempfile import TemporaryDirectory

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from mutation import mutate
from repro import (
    AccessStats,
    Database,
    DatabaseSchema,
    Engine,
    MemoryBackend,
    RelationSchema,
    SqliteBackend,
)
from repro.relational.backends import sqlite as sqlite_module
from repro.relational.backends.sqlite import _MAX_VARIABLES
from repro.workloads import (
    RUNNING_QUERIES,
    SOCIAL_SCHEMA,
    generate_social_network,
    sample_pids,
    sample_urls,
    social_access_text,
)

SCHEMA = DatabaseSchema([RelationSchema("r", ["a", "b", "c"])])
VALUES = [0, 1, 2, "x", None]
VALUE = st.sampled_from(VALUES)
ROW = st.tuples(VALUE, VALUE, VALUE)

#: Key positions: one column, composite (two of them out of column order),
#: and keys naming every column, which have at most one row.
POSITIONS = [(0,), (1,), (2,), (0, 1), (0, 2), (2, 1), (0, 1, 2), (2, 0, 1)]

#: Keys no row holds, enough to push one read past a statement's variables.
FILLER = list(range(100, 100 + _MAX_VARIABLES + 10))


@st.composite
def streams(draw):
    """``(loaded, batches)``: rows bulk-loaded first, then insert / delete
    batches, ending with the newest row deleted before a new one arrives
    (it takes the freed rowid) and a re-insert (the row goes last)."""
    loaded = draw(st.lists(ROW, max_size=25))
    batches = draw(st.lists(st.tuples(st.sampled_from(["insert", "delete"]), st.lists(ROW, max_size=8)), max_size=6))
    stored = dict.fromkeys(loaded)
    for op, rows in batches:
        for row in rows:
            if op == "insert":
                stored.setdefault(row)
            else:
                stored.pop(row, None)
    if stored:
        oldest, newest = next(iter(stored)), next(reversed(stored))
        fresh = draw(ROW.filter(lambda row: row not in stored))
        batches += [("delete", [newest]), ("insert", [fresh]), ("delete", [oldest]), ("insert", [oldest])]
    return loaded, batches


@st.composite
def reads(draw):
    """``(positions, keys, padded)``: one key or many keys with
    duplicates, ``padded`` past the statement's variable limit with
    :data:`FILLER` keys (added at the read, keeping examples short)."""
    positions = draw(st.sampled_from(POSITIONS))
    key = st.tuples(*[VALUE] * len(positions))
    keys = draw(st.lists(key, min_size=1, max_size=6))
    if draw(st.booleans()):
        keys += keys[: draw(st.integers(1, len(keys)))]  # duplicates
    return positions, keys, draw(st.booleans())


def replay(stream, backend):
    """A database on ``backend`` holding ``stream``: bulk-loaded rows,
    then each batch through ``insert_many`` / ``delete_many``."""
    loaded, batches = stream
    db = Database(SCHEMA, {"r": loaded}, backend=backend)
    for op, rows in batches:
        (db.insert_many if op == "insert" else db.delete_many)("r", rows)
    return db


def check_read_order(stream, lookups):
    """Every group, as a list, on memory and SQLite (a file and
    ``:memory:``)."""
    with TemporaryDirectory() as folder:
        backends = {
            "memory": MemoryBackend(),
            "sqlite file": SqliteBackend(f"{folder}/store.sqlite3"),
            "sqlite": SqliteBackend(),
        }
        try:
            stores = {name: replay(stream, backend) for name, backend in backends.items()}
            expected_rows = list(stores["memory"].backend.iter_rows("r"))
            for name in ("sqlite file", "sqlite"):
                assert list(stores[name].backend.iter_rows("r")) == expected_rows, name
            for positions, keys, padded in lookups:
                keys = keys + [(v,) * len(positions) for v in FILLER] * padded
                answers = {}
                for name, db in stores.items():
                    extra = AccessStats()
                    groups = db.lookup_keys("r", positions, keys, extra)
                    answers[name] = ([list(group) for group in groups], extra)
                expected, charged = answers.pop("memory")
                for name, (groups, stats) in answers.items():
                    assert groups == expected, (name, positions, keys[:6])
                    assert stats == charged, (name, positions)
        finally:
            for backend in backends.values():
                backend.close()


SETTINGS = dict(
    max_examples=40,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
GENERATED = given(stream=streams(), lookups=st.lists(reads(), min_size=1, max_size=4))


@settings(**SETTINGS)
@GENERATED
def test_every_keyed_read_keeps_insertion_order_on_every_backend(stream, lookups):
    check_read_order(stream, lookups)


def test_a_reinserted_row_and_a_reused_rowid_go_last():
    """The two cases the property's streams end with, spelled out: rows
    stored out of column order, a re-inserted row, and the newest row
    deleted before new ones take its rowid; read by one key, many keys
    with a duplicate, ``None``-bearing keys, composite keys and a batch
    past the statement's variable limit."""
    loaded = [(1, 9, 0), (1, 2, 1), (1, 5, None), (2, 0, 0), (None, 4, 1), (None, 1, 1)]
    batches = [
        ("delete", [(1, 9, 0)]),
        ("insert", [(1, 9, 0)]),
        ("insert", [(1, 7, 1)]),
        ("delete", [(1, 7, 1)]),
        ("insert", [(1, 3, 1), (1, 0, 1)]),
    ]
    lookups = [
        ((0,), [(1,)], False),
        ((0,), [(1,), (2,), (1,)], False),
        ((0,), [(None,)], False),
        ((0,), [(1,), (None,)], True),
        ((0, 2), [(1, 1)], False),
        ((0, 2), [(1, 1), (2, 0), (None, 1), (1, None)], True),
    ]
    check_read_order((loaded, batches), lookups)
    db = replay((loaded, batches), SqliteBackend())
    (group,) = db.lookup_keys("r", (0,), [(1,)])
    assert list(group) == [(1, 2, 1), (1, 5, None), (1, 9, 0), (1, 3, 1), (1, 0, 1)]
    db.backend.close()


# -- the plan: a covering-index search, no sort --------------------------------


def plans_of(backend, relation, positions, keys):
    """``EXPLAIN QUERY PLAN``'s detail lines for each statement
    ``lookup_keys`` runs on ``keys``."""
    read, handle = backend._reads[(relation, positions)], backend._handle
    return [
        [row[3] for row in handle.execute("EXPLAIN QUERY PLAN " + sql, params)]
        for sql, params in backend._statements(read, dict.fromkeys(keys))
    ]


#: The lines of a compound statement that are not a table access.
COMPOUND = {"COMPOUND QUERY", "LEFT-MOST SUBQUERY", "UNION ALL"}


def test_the_social_workloads_keyed_reads_never_sort():
    """Each keyed read Q1-Q5 make, with one key and with many: five for a
    single column, two and nine for ``person``'s ``(pid, city)``, and a
    composite batch holding ``None``.  Every table access is a search of
    a covering index -- the key's own, or the unique index for a key
    naming every column -- so nothing sorts, merges an OR or scans."""
    data = generate_social_network(300, seed=1)
    backend = SqliteBackend()
    engine = Engine(SOCIAL_SCHEMA, social_access_text(), data, backend=backend)
    pids, urls = sample_pids(300, 4, seed=1), sample_urls(data, 4, seed=1)
    for bundle in RUNNING_QUERIES:
        prepared, name = bundle.prepare(engine), bundle.parameters[0]
        for value in urls if name == "u" else pids:
            prepared.execute({name: value})
    keyed = {read for read in backend._reads if read[1] is not None}
    assert {("friend", (0,)), ("visits", (0,)), ("person", (0, 2))} <= keyed
    for relation, positions in sorted(keyed):
        stored = dict.fromkeys(tuple(row[p] for p in positions) for row in data[relation])
        keys = list(stored)
        if len(positions) == 1:
            batches = [keys[:1], keys[:5]]
        else:
            nullish = [(keys[0][0], None), (None, keys[1][1]), (None,) * len(positions)]
            batches = [keys[:1], keys[:2], keys[:9], nullish + keys[:2]]
        for batch in batches:
            for plan in plans_of(backend, relation, positions, batch):
                where = f"{relation}{positions} x{len(batch)} on SQLite {sqlite3.sqlite_version}: {plan}"
                accesses = [line for line in plan if line not in COMPOUND]
                assert accesses and all(line.startswith("SEARCH ") and "COVERING INDEX" in line for line in accesses), where
                assert not any(word in line for line in plan for word in ("TEMP B-TREE", "MULTI-INDEX OR", "SCAN")), where
    backend.close()


# -- seeded mutants --------------------------------------------------------------

PROPERTIES = {
    # The order property without shrinking: a mutant's first failure is enough.
    "order": settings(**SETTINGS, phases=[Phase.generate])(GENERATED(check_read_order)),
    "plan": test_the_social_workloads_keyed_reads_never_sort,
}

#: name -> (class or module, attribute, the code to break, what to break it into, the
#: property that must notice)
MUTANTS = {
    "a keyed read that drops its ORDER BY": (
        SqliteBackend,
        "_resolve",
        "order = f\" ORDER BY {', '.join(lead)}, _seq\"",
        "order = \"\"",
        "order",
    ),
    "a covering index without _seq": (
        SqliteBackend,
        "_resolve",
        "[*lead, '_seq', *rest]",
        "[*lead, *rest]",
        "plan",
    ),
    "an arm without its inner ORDER BY": (
        sqlite_module,
        "_read_text",
        'f"SELECT * FROM ({one})"',
        "f\"SELECT * FROM ({one.partition(' ORDER BY')[0]})\"",
        "order",
    ),
    # Past SQLite's 500 compound-SELECT terms: the padded batch's statement fails.
    "arm limit 900 instead of 500": (
        sqlite_module._Read,
        "__init__",
        "_MAX_VARIABLES // len(positions)), 500)",
        "_MAX_VARIABLES // len(positions)), 900)",
        "order",
    ),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_read_order_mutants_are_killed(monkeypatch, name):
    owner, attribute, old, new, killer = MUTANTS[name]
    mutate(monkeypatch, owner, attribute, old, new, name)
    killed_by = []
    for label, check in PROPERTIES.items():
        try:
            check()
        except (AssertionError, sqlite3.OperationalError):
            killed_by.append(label)
    print(f"mutant {name!r} killed by: {', '.join(killed_by) or 'nothing'}")
    assert killed_by == [killer], f"{name!r} killed by {killed_by}"
