"""The lifecycle of an open store: one owner, and what a reopen means.

A file-backed ``SqliteBackend`` takes its file at ``attach`` (``PRAGMA
locking_mode=EXCLUSIVE`` plus one ``BEGIN EXCLUSIVE`` / ``COMMIT``) and
holds it until ``close()``: no other connection reads or writes it in
between, a second opener fails at once with a ``SchemaError`` naming the
path, and ``close()`` is what lets the path be opened again.  The change
log is the facade's, so a reopened store is a *new* ``Database`` with a
fresh log: a maintained result refreshed against it rebases instead of
slicing a log it never read.
"""

import ast
import inspect
import sqlite3
from time import perf_counter

import pytest

from repro import (
    Database,
    DatabaseSchema,
    MemoryBackend,
    RelationSchema,
    SchemaError,
    SqliteBackend,
)
from repro.relational.backends import sqlite as sqlite_module
from repro.workloads import (
    Q1,
    Q2,
    Q4,
    generate_social_network,
    register_workload_views,
    social_engine,
)

SCHEMA = DatabaseSchema([RelationSchema("friend", ["a", "b"])])
ROWS = [(1, 2), (1, 3), (2, 4)]


@pytest.fixture
def path(tmp_path):
    return str(tmp_path / "store.sqlite3")


# -- one owner from attach to close -------------------------------------------


def test_an_open_store_is_locked_before_its_first_write(path):
    """The mechanism: the lock is taken at attach, not by whichever write
    comes first -- another connection cannot even read."""
    Database(SCHEMA, {"friend": ROWS}, backend=SqliteBackend(path)).backend.close()
    backend = SqliteBackend(path)
    db = Database(SCHEMA, backend=backend)  # reopened: attach only, no write
    outsider = sqlite3.connect(path, timeout=0)
    try:
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            outsider.execute('SELECT count(*) FROM "r_friend"')
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            outsider.execute('INSERT INTO "r_friend" (c0, c1) VALUES (8, 9)')
        assert db.lookup_keys("friend", (0,), [(1,)]) == [((1, 2), (1, 3))]
        db.insert_many("friend", [(5, 6)])
        backend.close()
        assert outsider.execute('SELECT count(*) FROM "r_friend"').fetchone() == (4,)
    finally:
        outsider.close()


@pytest.mark.parametrize("written", [False, True], ids=["unwritten", "written"])
def test_a_second_opener_fails_at_once_naming_the_path(path, written):
    first = Database(SCHEMA, backend=SqliteBackend(path))
    if written:
        first.insert_many("friend", ROWS)
    wider = DatabaseSchema([*SCHEMA, RelationSchema("other", ["x"])])
    second = SqliteBackend(path)
    start = perf_counter()
    with pytest.raises(SchemaError, match="open in another backend or process; close it") as info:
        Database(wider, backend=second)
    assert perf_counter() - start < 0.5  # nobody to wait for: no busy timeout
    assert path in str(info.value)
    assert second._handle is None
    # The failed attach created nothing and the owner keeps working.
    tables = first.backend._handle.execute("SELECT name FROM sqlite_master WHERE type = 'table'")
    assert [name for (name,) in tables] == ["r_friend"]
    first.insert_many("friend", [(7, 8)])
    assert first.contains("friend", (7, 8))
    first.backend.close()
    reopened = Database(wider, backend=SqliteBackend(path))  # closed there first: opens
    assert set(reopened.backend.iter_rows("friend")) == {*(ROWS if written else ()), (7, 8)}
    reopened.backend.close()


def test_a_file_in_the_layout_before_seq_refuses_to_open(path):
    """A table without the ``_seq`` column (the layout before keyed reads
    took their order from the index) is refused at attach, naming the
    path, and the file is left as it was; opening it otherwise accepted
    writes and failed the first keyed read with "no such column: _seq"."""
    raw = sqlite3.connect(path)
    raw.execute('CREATE TABLE "r_friend" (c0, c1)')
    raw.execute('CREATE UNIQUE INDEX "ix_friend_0_1" ON "r_friend" (c0, c1)')
    raw.execute('CREATE INDEX "ix_friend_1" ON "r_friend" (c1, c0)')
    raw.executemany('INSERT INTO "r_friend" VALUES (?, ?)', ROWS)
    raw.commit()
    raw.close()
    for _ in range(2):  # the refusal holds nothing: the second one is the same
        backend = SqliteBackend(path)
        with pytest.raises(SchemaError, match="predates the _seq layout") as info:
            Database(SCHEMA, backend=backend)
        assert path in str(info.value)
        assert backend._handle is None
    raw = sqlite3.connect(path, timeout=0)
    try:
        assert raw.execute('SELECT * FROM "r_friend" ORDER BY rowid').fetchall() == ROWS
        assert [c[1] for c in raw.execute('PRAGMA table_info("r_friend")')] == ["c0", "c1"]
        assert raw.execute("SELECT count(*) FROM sqlite_master").fetchone() == (3,)
    finally:
        raw.close()


def test_the_locking_regime_is_set_once_in_attach_and_nothing_selects_it():
    source = inspect.getsource(sqlite_module)
    module = ast.parse(source)
    backend = next(
        node for node in module.body
        if isinstance(node, ast.ClassDef) and node.name == "SqliteBackend"
    )
    methods = {node.name: node for node in backend.body if isinstance(node, ast.FunctionDef)}
    # Every string the code can execute that mentions the pragma (the
    # module docstring is prose, not code): one plain constant, in attach.
    docstring = module.body[0].value
    mentions = [
        node for node in ast.walk(module)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and "locking_mode" in node.value.lower() and node is not docstring
    ]
    assert [node.value for node in mentions] == ["PRAGMA locking_mode=EXCLUSIVE"]
    # ... as a statement of attach's own body: under no condition.
    unconditional = [
        statement for statement in methods["attach"].body
        if isinstance(statement, ast.Expr) and mentions[0] in ast.walk(statement)
    ]
    assert len(unconditional) == 1
    # No constructor argument, environment read or module constant.
    assert [arg.arg for arg in methods["__init__"].args.args] == ["self", "path"]
    assert not methods["__init__"].args.kwonlyargs
    assert "environ" not in source and "getenv" not in source and "uri=" not in source
    constants = {
        target.id for node in module.body if isinstance(node, ast.Assign)
        for target in node.targets
    }
    assert constants == {"_MAX_VARIABLES", "_CACHED_STATEMENTS", "__all__"}


# -- close() on the waist ------------------------------------------------------


def test_close_is_a_no_op_on_a_store_that_holds_nothing_outside_the_process():
    db = Database(SCHEMA, {"friend": ROWS}, backend=MemoryBackend())
    assert db.backend.close() is None
    assert db.contains("friend", (1, 2))


# -- close, reopen, refresh ---------------------------------------------------

PERSONS, SEED = 40, 3


def reopen(engine, path):
    """Replace the engine's database by a new ``Database`` over the same
    rows -- the file reopened by path, or a fresh memory store -- with a
    fresh change log, as any reopen has."""
    old = engine.require_database()
    if path is not None:
        old.backend.close()
        engine.database = Database(old.schema, backend=SqliteBackend(path))
    else:
        engine.database = Database(old.schema)
        for name in old.schema.names:
            engine.database.bulk_load(name, list(old.backend.iter_rows(name)))
    assert engine.database.change_log.watermark == 0
    return engine.database


@pytest.fixture(params=["sqlite", "memory"])
def store_path(request, tmp_path):
    """``None`` for a memory store, a file path for a SQLite one."""
    return str(tmp_path / "social.sqlite3") if request.param == "sqlite" else None


def social(store_path):
    backend = SqliteBackend(store_path) if store_path else MemoryBackend()
    return social_engine(PERSONS, seed=SEED, backend=backend)


def source_with_friends(engine):
    friends = engine.require_database().backend.iter_rows("friend")
    return next(iter(friends))[0]


def check_rebased_then_incremental(engine, prepared, live, key):
    """``live`` has just been refreshed for the first time against a
    replaced database: it rebased, it equals a recompute, and from here on
    it refreshes by delta again."""
    db = engine.require_database()
    assert live.last_mode == "rebase"
    assert set(live.rows) == set(prepared.execute(**key).rows)
    assert live.watermark == db.change_log.watermark
    p = next(iter(key.values()))
    db.insert_many("friend", [(p, 9001), (9001, p)])
    db.insert_many("person", [(9001, "zed", "NYC")])
    assert live.refresh().last_mode == "delta"
    assert set(live.rows) == set(prepared.execute(**key).rows)
    db.backend.close()


def test_refresh_after_reopen_with_a_short_new_log_rebases(store_path):
    """The parent raised ``ValueError: watermark must be within [0, 1]``:
    the result's watermark is past the reopened database's log."""
    engine = social(store_path)
    p = source_with_friends(engine)
    prepared = Q1.prepare(engine)
    live = prepared.execute_incremental(p=p)
    assert live.watermark > 1
    db = reopen(engine, store_path)
    db.delete_many("friend", [(p, live.rows[0][0])])
    gone = live.rows[0]
    assert gone not in live.refresh().rows
    check_rebased_then_incremental(engine, prepared, live, {"p": p})


def test_refresh_after_reopen_with_a_long_new_log_rebases(store_path):
    """The silent case: once the new log has grown past the old watermark
    the parent sliced a *foreign* log and kept a deleted row."""
    engine = social(store_path)
    p = source_with_friends(engine)
    prepared = Q2.prepare(engine)
    live = prepared.execute_incremental(p=p)
    old_mark = live.watermark
    db = reopen(engine, store_path)
    friends = [row for row in db.backend.iter_rows("friend") if row[0] == p]
    db.delete_many("friend", friends[:1])  # below the old watermark in the new log
    filler = [(8000 + n, 8000 + n + 1) for n in range(old_mark + 5)]
    db.insert_many("friend", filler)
    assert db.change_log.watermark > old_mark
    live.refresh()
    assert set(live.rows) == set(prepared.execute(p=p).rows)
    check_rebased_then_incremental(engine, prepared, live, {"p": p})


def test_view_assisted_refresh_after_reopen_rebases(store_path):
    engine = social(store_path)
    register_workload_views(engine)
    followed = next(iter(engine.require_database().backend.iter_rows("friend")))[1]
    prepared = Q4.prepare(engine)
    live = prepared.execute_incremental(p=followed)
    db = reopen(engine, store_path)
    follower = next(row[0] for row in db.backend.iter_rows("friend") if row[1] == followed)
    db.delete_many("friend", [(follower, followed)])
    assert (follower,) not in live.refresh().rows
    check_rebased_then_incremental(engine, prepared, live, {"p": followed})


def test_a_database_replaced_without_any_reopen_rebases_too():
    """The rule is the ``Database`` object's identity, not the backend."""
    engine = social(None)
    p = source_with_friends(engine)
    prepared = Q1.prepare(engine)
    live = prepared.execute_incremental(p=p)
    engine.database = Database(engine.schema, generate_social_network(PERSONS, seed=SEED + 1))
    live.refresh()
    check_rebased_then_incremental(engine, prepared, live, {"p": p})
