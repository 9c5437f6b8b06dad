"""The write path: one transaction per write primitive on the out-of-core
store, and a failed batch that leaves store and change log agreeing.

``SqliteBackend`` runs each of ``load_rows`` / ``insert_rows`` /
``delete_rows`` inside one ``BEGIN`` ... ``COMMIT`` (its ``_batch``
scope, the only way a write statement reaches the connection) and rolls
back when anything inside raises.  On every backend, a write primitive
that raises has applied nothing, and what the facade cannot hand a store
safely (an unhashable value) is a validation error under the prefix
rule -- so after *any* failure the store holds exactly what the change
log says and every maintained result's ``refresh()`` equals a recompute.
"""

import ast
import inspect
import sqlite3
import threading

import pytest

from conftest import BACKEND_KINDS, make_backend
from repro import (
    Database,
    DatabaseSchema,
    Engine,
    RelationSchema,
    SchemaError,
    ShardedBackend,
    SqliteBackend,
)
from repro.relational.backends import sqlite as sqlite_module
from repro.relational.backends.sharded import stable_shard_hash
from repro.workloads import (
    RUNNING_QUERIES,
    generate_churn,
    generate_social_network,
    sample_pids,
    social_engine,
)

SCHEMA = DatabaseSchema([RelationSchema("friend", ["a", "b"])])
ACCESS = "friend(a -> 64)"
ROWS = [(1, 2), (1, 3), (2, 4)]
WRITES = ("load_rows", "insert_rows", "delete_rows")


def traced(rows=()):
    """An attached in-memory store holding ``rows`` and the list its
    connection's trace callback appends every executed statement to."""
    backend = SqliteBackend()
    Database(SCHEMA, {"friend": rows}, backend=backend)
    statements: list[str] = []
    backend._handle.set_trace_callback(statements.append)
    return backend, statements


def is_write(statement: str) -> bool:
    return statement.lstrip().upper().startswith(("INSERT", "DELETE"))


# -- one transaction per primitive -------------------------------------------


@pytest.mark.parametrize("primitive", WRITES)
@pytest.mark.parametrize(
    "batch",
    [
        [(5, 6), (5, 7), (5, 6), (1, 2)],  # plain rows: new, repeated, stored
        [(None, 1), (5, None), (None, 1), (None, None)],  # IS NULL routes
        [(8, 8), (None, 9)],  # with nothing stored a delete changes nothing...
        [(1, 2), (1, 3)],  # ...and with these stored an insert or a load
        [],
    ],
    ids=["plain", "none-bearing", "absent", "stored", "empty"],
)
def test_each_write_primitive_is_one_transaction(primitive, batch):
    backend, statements = traced(ROWS + [(5, None)])
    getattr(backend, primitive)("friend", batch)
    assert statements.count("BEGIN") == 1 and statements.count("COMMIT") == 1
    assert statements[0] == "BEGIN" and statements[-1] == "COMMIT"
    assert "ROLLBACK" not in statements
    assert not backend._handle.in_transaction


def test_reads_open_no_transaction():
    backend, statements = traced(ROWS)
    backend.lookup_keys("friend", (0,), [(1,), (2,)])
    backend.lookup_keys("friend", (1,), [(3,)])  # first sight: builds an index
    backend.contains_rows("friend", [(1, 2), (None, 1)])
    backend.probe_rows("friend", ROWS)
    assert backend.scan("friend") and backend.count("friend") == 3
    assert statements and not {"BEGIN", "COMMIT"} & set(statements)
    assert not any(map(is_write, statements))


def test_every_write_statement_runs_inside_the_batch_scope():
    """Traced, then at source level: no INSERT / DELETE and no
    ``executemany`` reaches the connection outside ``with self._batch()``,
    there is one BEGIN in the module, and nothing selects or sizes the
    scope."""
    backend, statements = traced(ROWS)
    backend.insert_rows("friend", [(7, 7), (None, 7)])
    backend.delete_rows("friend", [(7, 7), (None, 7), (1, 2)])
    backend.load_rows("friend", [(9, 9), (None, 9)])
    depth = 0
    for statement in statements:
        if statement in ("BEGIN", "COMMIT"):
            depth += 1 if statement == "BEGIN" else -1
        assert depth in (0, 1)
        assert depth == 1 or not is_write(statement), statement
    assert sum(map(is_write, statements)) == 7

    source = inspect.getsource(sqlite_module)
    tree = ast.parse(source)
    scoped: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.With) and "_batch()" in ast.unparse(node.items[0]):
            scoped.update(id(inner) for inner in ast.walk(node))
    writes = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and (
            node.func.attr == "executemany"
            or node.func.attr == "execute"
            and any(word in ast.unparse(node) for word in ("INSERT", "DELETE"))
        )
    ]
    assert len(writes) == 5  # insert; delete + its IS NULL form; load + its None form
    assert all(id(node) in scoped for node in writes)
    assert source.count('execute("BEGIN")') == source.count('"BEGIN"') == 1
    assert "_WRITE_CHUNK" not in source and "environ" not in source
    assert "journal_mode=MEMORY" in source and "journal_mode=OFF" not in source
    assert list(inspect.signature(SqliteBackend.__init__).parameters) == ["self", "path"]


def test_a_second_concurrent_writer_fails_loudly():
    backend, _ = traced(ROWS)
    with backend._batch():
        with pytest.raises(sqlite3.OperationalError, match="within a transaction"):
            backend.insert_rows("friend", [(5, 5)])
    # The second writer failed at its own BEGIN, before touching a row, and
    # left the first one's transaction alone: the outer scope commits.
    assert not backend._handle.in_transaction
    assert list(backend.iter_rows("friend")) == ROWS


# -- a failing batch undoes itself -------------------------------------------


def install_trigger(backend, event: str, poisoned: int) -> None:
    backend._handle.execute(
        f'CREATE TRIGGER poison BEFORE {event} ON "r_friend" '
        f"WHEN {'NEW' if event == 'INSERT' else 'OLD'}.c1 = {poisoned} "
        f"BEGIN SELECT RAISE(ABORT, 'injected write fault'); END"
    )


def maintained(engine, pids):
    """Q1-Q3 as maintained results on a few seeds, each with the prepared
    query that recomputes it."""
    results = []
    for bundle in RUNNING_QUERIES:
        prepared = bundle.prepare(engine)
        results += [(prepared, pid, prepared.execute_incremental(p=pid)) for pid in pids]
    return results


def assert_refresh_equals_recompute(results):
    for prepared, pid, live in results:
        assert set(live.refresh().rows) == set(prepared.execute(p=pid).rows)


@pytest.mark.parametrize("op", ["insert", "delete"])
def test_mid_batch_sqlite_fault_leaves_store_and_log_agreeing(op):
    persons, seed = 60, 2
    backend = SqliteBackend()
    engine = social_engine(persons, seed=seed, backend=backend)
    db = engine.require_database()
    results = maintained(engine, sample_pids(persons, 4, seed=seed))
    source = results[0][1]
    if op == "insert":
        batch = [(source, 901), (source, 902), (source, 903), (source, 904)]
        write, event = db.insert_many, "INSERT"
    else:
        db.insert_many("friend", [(source, 901), (source, 902), (source, 903)])
        batch = list(db.lookup("friend", {0: source}))
        write, event = db.delete_many, "DELETE"
    assert_refresh_equals_recompute(results)
    install_trigger(backend, event, 903)  # rows before it in the batch went through
    before = (list(db.backend.iter_rows("friend")), db.backend.count("friend"))
    watermark = db.change_log.watermark
    with pytest.raises(sqlite3.IntegrityError, match="injected write fault"):
        write("friend", batch)
    assert not backend._handle.in_transaction
    assert (list(db.backend.iter_rows("friend")), db.backend.count("friend")) == before
    assert db.change_log.watermark == watermark
    assert_refresh_equals_recompute(results)
    backend._handle.execute("DROP TRIGGER poison")
    assert write("friend", batch) == len(batch)  # the same batch, retried
    assert db.change_log.watermark == watermark + len(batch)
    assert_refresh_equals_recompute(results)


def test_mid_chunk_sqlite_fault_loads_nothing_of_the_chunk():
    backend = SqliteBackend()
    db = Database(SCHEMA, backend=backend)
    assert db.bulk_load("friend", ROWS) == 3
    install_trigger(backend, "INSERT", 903)
    chunk = [(5, 901), (None, 7), (5, 903), (5, 904)]
    with pytest.raises(sqlite3.IntegrityError, match="injected write fault"):
        db.bulk_load("friend", chunk)
    assert not backend._handle.in_transaction
    assert list(backend.iter_rows("friend")) == ROWS and backend.count("friend") == 3
    assert db.change_log.watermark == 0
    backend._handle.execute("DROP TRIGGER poison")
    assert db.bulk_load("friend", chunk) == 4
    assert set(backend.iter_rows("friend")) == set(ROWS + chunk)


def test_committed_batches_are_what_a_reopened_file_holds(tmp_path):
    path = str(tmp_path / "store.sqlite3")
    db = Database(SCHEMA, backend=SqliteBackend(path))
    db.bulk_load("friend", ROWS)
    for n in range(5):
        db.insert_many("friend", [(10 + n, 1), (10 + n, None)])
    db.delete_many("friend", [(1, 2), (12, None), (77, 77)])
    install_trigger(db.backend, "INSERT", 903)
    with pytest.raises(sqlite3.IntegrityError):
        db.insert_many("friend", [(20, 1), (20, 903)])  # rolled back: not on disk
    expected = list(db.backend.iter_rows("friend"))
    assert len(expected) == 3 + 10 - 2 and (20, 1) not in expected
    db.backend.close()
    reopened = Database(SCHEMA, backend=SqliteBackend(path))
    assert list(reopened.backend.iter_rows("friend")) == expected
    reopened.backend.close()


# -- unhashable values are a validation failure, on every backend --------------


@pytest.mark.parametrize("op", ["insert", "delete"])
def test_unhashable_value_applies_and_logs_exactly_the_prefix(backend_factory, op):
    engine = Engine(SCHEMA, ACCESS, {"friend": ROWS + [(1, 4), (1, 6)]}, backend=backend_factory())
    db = engine.require_database()
    prepared = engine.query("Q(y) :- friend(p, y)")
    live = prepared.execute_incremental(p=1)
    write = db.insert_many if op == "insert" else db.delete_many
    batch = [(1, 7), (1, [5]), (1, 8)] if op == "insert" else [(1, 4), (1, [5]), (1, 6)]
    watermark = db.change_log.watermark
    with pytest.raises(SchemaError, match="unhashable"):
        write("friend", batch)
    # Rows 0..k-1 applied *and logged*, the rest untouched.
    assert db.change_log.watermark == watermark + 1
    assert db.contains("friend", (1, 7)) == (op == "insert")
    assert db.contains("friend", (1, 4)) == (op == "insert")
    assert db.contains("friend", (1, 6)) and not db.contains("friend", (1, 8))
    recomputed = set(prepared.execute(p=1).rows)
    assert set(live.refresh().rows) == recomputed
    assert recomputed == {(y,) for x, y in db.backend.iter_rows("friend") if x == 1}


def test_unhashable_value_in_a_bulk_load_is_a_schema_error(backend_factory):
    db = Database(SCHEMA, backend=backend_factory())
    with pytest.raises(SchemaError, match=r"\(1, \[5\]\).*'friend'.*unhashable"):
        db.bulk_load("friend", [(1, 4), (1, [5]), (1, 6)])
    assert db.size("friend") == 0 and db.change_log.watermark == 0


# -- NaN: SQLite binds it as NULL, so a SQLite store refuses it ---------------

NAN_STORES = {
    "sqlite file": lambda folder: SqliteBackend(str(folder / "store.sqlite3")),
    "sqlite": lambda folder: SqliteBackend(),
    "sharded": lambda folder: ShardedBackend(3, factory=SqliteBackend),
}


@pytest.mark.parametrize("store", NAN_STORES)
@pytest.mark.parametrize("write", ["insert_many", "delete_many", "bulk_load"])
def test_a_nan_bearing_write_is_refused_on_sqlite_with_nothing_applied(tmp_path, store, write):
    """Stored, ``(1, nan)`` would read back as ``(1, None)`` and deduplicate
    against it; so each write path refuses the whole batch, naming the
    relation and the row, and every shard applies nothing."""
    nan = float("nan")
    # The NaN row on the last of three shards, clean rows on every shard.
    late = next(k for k in range(100, 200) if stable_shard_hash((k,)) % 3 == 2)
    backend = NAN_STORES[store](tmp_path)
    db = Database(SCHEMA, backend=backend)
    if write != "bulk_load":
        db.insert_many("friend", ROWS)
    before, watermark = sorted(backend.iter_rows("friend"), key=repr), db.change_log.watermark
    batch = [(1, 2), *[(k, 0) for k in range(20, 30)], (late, nan), (1, None), (2, 4)]
    with pytest.raises(SchemaError, match=rf"\({late}, nan\) in 'friend'"):
        getattr(db, write)("friend", batch)
    assert sorted(backend.iter_rows("friend"), key=repr) == before
    assert db.change_log.watermark == watermark
    assert not db.contains("friend", (late, nan)) and not db.contains("friend", (late, None))
    clean = {row for row in batch if row[1] == row[1]}
    stored = set(before)
    applied = {"insert_many": clean - stored, "delete_many": clean & stored, "bulk_load": clean}
    assert getattr(db, write)("friend", list(clean)) == len(applied[write])
    backend.close()


@pytest.mark.parametrize("kind", BACKEND_KINDS)
def test_any_failed_write_leaves_refresh_equal_to_recompute(kind):
    """The defined-failure contract end to end: a churn stream whose
    every third batch fails somewhere (validation, a strict check), on all
    three backends, with Q1-Q3 maintained throughout."""
    persons, seed = 50, 4
    engine = social_engine(persons, seed=seed, backend=make_backend(kind))
    db = engine.require_database()
    results = maintained(engine, sample_pids(persons, 3, seed=seed))
    data = generate_social_network(persons, seed=seed)
    for n, batch in enumerate(generate_churn(data, batches=9, batch_size=8, seed=seed)):
        batch.apply(db, strict=True)
        present = next(iter(db.backend.iter_rows("friend")))
        faults = (
            (db.insert_many, [(900 + n, 1), (900 + n, {2}), (900 + n, 3)], SchemaError, False),
            (db.delete_many, [present, (1, 2, 3)], SchemaError, False),
            (db.insert_many, [(800 + n, 1), present], Exception, True),
        )
        write, rows, error, strict = faults[n % 3]
        watermark = db.change_log.watermark
        with pytest.raises(error):
            write("friend", rows, strict=strict)
        assert db.change_log.watermark == watermark + 1  # the prefix, logged
        assert_refresh_equals_recompute(results)
        if write == db.delete_many:
            db.insert_many("friend", [present])  # keep the stream well-formed
        else:
            db.delete_many("friend", rows[:1])


# -- the sharded bulk load ----------------------------------------------------


@pytest.mark.parametrize("factory", [None, SqliteBackend], ids=["memory", "sqlite"])
def test_sharded_bulk_load_goes_through_each_childs_load_rows(monkeypatch, factory):
    backend = ShardedBackend(3, factory=factory)
    db = Database(SCHEMA, backend=backend)
    calls = {"load_rows": 0, "insert_rows": 0}
    for child in backend._children:
        for name in calls:
            def spy(relation, rows, _inner=getattr(child, name), _name=name):
                calls[_name] += 1
                return _inner(relation, rows)
            monkeypatch.setattr(child, name, spy)
    rows = [(n % 40, n % 7) for n in range(300)] + [(None, 1), (None, 1), (3, None)]
    assert db.bulk_load("friend", rows) == len(set(rows))
    # One load_rows per child; a memory child's load_rows is the base
    # default over its insert_rows, a SQLite child flags and probes nothing.
    assert calls == {"load_rows": 3, "insert_rows": 3 * (factory is None)}
    assert sorted(map(repr, db.backend.iter_rows("friend"))) == sorted(map(repr, set(rows)))
    assert db.bulk_load("friend", rows) == 0 and db.bulk_load("friend", []) == 0
    reference = Database(SCHEMA, {"friend": rows})
    keys = [(n,) for n in range(40)] + [(None,)]
    for ours, theirs in zip(
        db.lookup_keys("friend", (0,), keys), reference.lookup_keys("friend", (0,), keys)
    ):
        assert sorted(map(repr, ours)) == sorted(map(repr, theirs))


# -- readers beside the single writer -----------------------------------------


def test_sqlite_readers_run_beside_a_writer_applying_batches(tmp_path):
    """4 reader threads execute Q1-Q3 while the single writer applies 200
    batches: no call raises, no transaction is left open, and the final
    state equals the oracle's.  (A reader may see either side of a batch
    in flight; nothing more is asserted.)"""
    persons, seed, batches = 60, 6, 200
    backend = SqliteBackend(str(tmp_path / "store.sqlite3"))
    engine = social_engine(persons, seed=seed, backend=backend)
    db = engine.require_database()
    data = generate_social_network(persons, seed=seed)
    prepared = [bundle.prepare(engine) for bundle in RUNNING_QUERIES]
    pids = sample_pids(persons, 8, seed=seed)
    results = maintained(engine, pids[:2])
    errors: list[Exception] = []
    done = threading.Event()
    barrier = threading.Barrier(5)
    reads = [0] * 4

    def reader(worker: int) -> None:
        try:
            barrier.wait()
            while not done.is_set():
                for query in prepared:
                    query.execute(p=pids[(worker + reads[worker]) % len(pids)])
                reads[worker] += 1
        except Exception as exc:  # pragma: no cover - only on regression
            errors.append(exc)

    def writer() -> None:
        try:
            barrier.wait()
            for batch in generate_churn(data, batches=batches, batch_size=8, seed=seed):
                batch.apply(db, strict=True)
        except Exception as exc:  # pragma: no cover - only on regression
            errors.append(exc)
        finally:
            done.set()

    threads = [threading.Thread(target=reader, args=(w,)) for w in range(4)]
    threads.append(threading.Thread(target=writer))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and all(reads)
    assert not backend._handle.in_transaction
    oracle = social_engine(persons, seed=seed).require_database()
    for batch in generate_churn(data, batches=batches, batch_size=8, seed=seed):
        batch.apply(oracle, strict=True)
    for relation in ("person", "friend", "visits"):
        assert set(db.backend.iter_rows(relation)) == set(oracle.backend.iter_rows(relation))
    assert db.change_log.watermark == oracle.change_log.watermark
    assert_refresh_equals_recompute(results)
    backend.close()
