"""The storage-backend conformance suite.

Every :class:`~repro.relational.backends.base.StorageBackend`
implementation must be observationally identical through the narrow
waist: same answers, same *exact* access accounting (each distinct key
of a batch charged once, scans counted once however many groups share
them), same mutation-flag alignment, and indexes that stay current
under churn.  The memory backend additionally promises that the live
index buckets it hands out are never mutated by any caller; the SQLite
backend promises the opposite -- returned groups are owned and never
alias internal storage.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import BACKEND_KINDS, make_backend
from mutation import mutate
from repro import (
    AccessStats,
    Database,
    DatabaseSchema,
    Engine,
    MemoryBackend,
    RelationSchema,
    SchemaError,
    SqliteBackend,
    UpdateError,
    ViewDef,
    ViewState,
)
from repro.logic.parser import parse_query
from repro.relational.backends.base import key_getter
from repro.workloads import (
    Q1,
    RUNNING_QUERIES,
    SOCIAL_SCHEMA,
    VIEW_QUERIES,
    generate_churn,
    generate_social_network,
    register_workload_views,
    sample_pids,
    sample_urls,
    social_access_text,
    social_engine,
    stream_social_network,
)

SCHEMA = DatabaseSchema([RelationSchema("friend", ["a", "b"])])
DATA = {"friend": [(1, 2), (1, 3), (2, 4)]}


# -- exact accounting through the narrow waist ----------------------------


def test_lookup_keys_charges_each_distinct_key_once(backend_factory):
    db = Database(SCHEMA, DATA, backend=backend_factory())
    db.reset_stats()
    extra = AccessStats()
    groups = db.lookup_keys("friend", (0,), [(1,), (1,), (2,), (9,)], extra)
    assert [sorted(g) for g in groups] == [
        [(1, 2), (1, 3)],
        [(1, 2), (1, 3)],
        [(2, 4)],
        [],
    ]
    # 3 distinct keys -> 3 lookups; their groups hold 2 + 1 + 0 tuples.
    assert (
        db.stats.tuples_accessed,
        db.stats.indexed_lookups,
        db.stats.full_scans,
    ) == (3, 3, 0)
    assert extra == db.stats  # the extra stats mirror the cumulative charge
    # An empty batch is answered without touching the store.
    assert len(db.lookup_keys("friend", (0,), [], extra)) == 0
    assert extra == db.stats and db.stats.indexed_lookups == 3


#: Every primitive of the waist, called on a relation the schema lacks.
UNKNOWN = {
    "lookup_keys": lambda backend: backend.lookup_keys("nope", (0,), [(1,)]),
    "lookup_keys, no positions": lambda backend: backend.lookup_keys("nope", (), [()]),
    "contains_rows": lambda backend: backend.contains_rows("nope", [(1, 2)]),
    "scan": lambda backend: backend.scan("nope"),
    "probe_rows": lambda backend: backend.probe_rows("nope", [(1, 2)]),
    "count": lambda backend: backend.count("nope"),
    "iter_rows": lambda backend: backend.iter_rows("nope"),
    "insert_rows": lambda backend: backend.insert_rows("nope", [(1, 2)]),
    "delete_rows": lambda backend: backend.delete_rows("nope", [(1, 2)]),
    "load_rows": lambda backend: backend.load_rows("nope", [(1, 2)]),
}


@pytest.mark.parametrize("primitive", UNKNOWN)
def test_an_unknown_relation_is_a_schema_error_on_every_primitive(backend_factory, primitive):
    backend = backend_factory()
    db = Database(SCHEMA, DATA, backend=backend)
    db.reset_stats()
    with pytest.raises(SchemaError, match="unknown relation 'nope'"):
        UNKNOWN[primitive](backend)
    assert sorted(backend.iter_rows("friend")) == DATA["friend"]
    assert db.stats == AccessStats()


def test_empty_positions_share_one_counted_scan(backend_factory):
    db = Database(SCHEMA, DATA, backend=backend_factory())
    db.reset_stats()
    groups = db.lookup_keys("friend", (), [(), ()])
    assert [set(g) for g in groups] == [set(DATA["friend"])] * 2
    assert (
        db.stats.tuples_accessed,
        db.stats.indexed_lookups,
        db.stats.full_scans,
    ) == (3, 0, 1)


def test_contains_rows_dedups_and_charges_hits_only(backend_factory):
    db = Database(SCHEMA, DATA, backend=backend_factory())
    db.reset_stats()
    verdicts = db.contains_rows("friend", [(1, 2), (1, 2), (9, 9)])
    assert verdicts == (True, True, False)
    assert (
        db.stats.tuples_accessed,
        db.stats.indexed_lookups,
        db.stats.full_scans,
    ) == (1, 2, 0)


def test_invalid_accesses_raise_schema_errors(backend_factory):
    db = Database(SCHEMA, DATA, backend=backend_factory())
    with pytest.raises(SchemaError, match="out of range"):
        db.lookup_keys("friend", (5,), [(1,)])
    with pytest.raises(SchemaError):
        db.lookup_keys("nope", (0,), [(1,)])


def test_mis_sized_keys_and_rows_match_nothing(backend_factory):
    """A key or probe row of the wrong width is answered like an absent
    one -- an empty group / "absent" at one lookup, zero tuples -- on
    every backend, alone or beside well-formed keys; no driver exception
    leaks."""
    db = Database(SCHEMA, DATA, backend=backend_factory())
    db.reset_stats()
    extra = AccessStats()
    assert db.contains_rows("friend", [(1,)], extra) == (False,)
    assert [tuple(g) for g in db.lookup_keys("friend", (0,), [(1, 2)], extra)] == [()]
    assert [tuple(g) for g in db.lookup_keys("friend", (0, 1), [(1,)], extra)] == [()]
    assert (extra.tuples_accessed, extra.indexed_lookups) == (0, 3)
    groups = db.lookup_keys("friend", (0,), [(1, 2), (1,), (2, 4, 6), (1, 2)], extra)
    assert [sorted(g) for g in groups] == [[], [(1, 2), (1, 3)], [], []]
    # Widths 1 + 3 sum to 2 x 2: parameters flattened blindly would line
    # up with the statement and silently lose the well-formed key's row.
    groups = db.lookup_keys("friend", (0, 1), [(1,), (1, 2), (2, 4, 9)], extra)
    assert [sorted(g) for g in groups] == [[], [(1, 2)], []]
    verdicts = db.contains_rows("friend", [(1,), (1, 2), (1, 2, 3), (2, 4)], extra)
    assert verdicts == (False, True, False, True)
    # 3 + (3 distinct) + 3 + 4 lookups; 0 + 2 + 1 + 2 tuples
    assert (extra.tuples_accessed, extra.indexed_lookups, extra.full_scans) == (5, 13, 0)
    assert extra == db.stats


# -- index maintenance under mutation -------------------------------------


def test_indexes_stay_current_after_delete_and_reinsert(backend_factory):
    db = Database(SCHEMA, DATA, backend=backend_factory())
    assert sorted(db.lookup("friend", {0: 1})) == [(1, 2), (1, 3)]
    assert db.delete_many("friend", [(1, 2), (7, 7)]) == 1
    assert sorted(db.lookup("friend", {0: 1})) == [(1, 3)]
    db.add("friend", (1, 5))
    assert sorted(db.lookup("friend", {0: 1})) == [(1, 3), (1, 5)]
    assert db.size("friend") == 3


def test_mutation_flags_align_with_input_order(backend_factory):
    backend = backend_factory()
    Database(SCHEMA, DATA, backend=backend)
    # First occurrence wins within a batch; flags stay input-aligned.
    assert backend.insert_rows("friend", [(8, 9), (1, 2), (8, 9), (9, 9)]) == [
        True,
        False,
        False,
        True,
    ]
    assert backend.delete_rows("friend", [(8, 9), (8, 9), (0, 0), (9, 9)]) == [
        True,
        False,
        False,
        True,
    ]


def test_bulk_load_streams_unlogged_and_is_guarded(backend_factory):
    db = Database(SCHEMA, backend=backend_factory())
    assert db.bulk_load("friend", [(1, 2), (2, 3), (1, 2)]) == 2
    assert db.size() == 2
    assert len(db.change_log) == 0  # loads are not replayable history
    db.add("friend", (5, 6))
    with pytest.raises(UpdateError, match="change log"):
        db.bulk_load("friend", [(7, 8)])


# -- lifecycle ------------------------------------------------------------


def test_attach_is_one_shot(backend_factory):
    backend = backend_factory()
    with pytest.raises(SchemaError, match="not attached"):
        backend.schema
    Database(SCHEMA, DATA, backend=backend)
    with pytest.raises(SchemaError, match="already attached"):
        backend.attach(SCHEMA, AccessStats())
    with pytest.raises(SchemaError, match="already attached"):
        Database(SCHEMA, backend=backend)


# -- the aliasing contract ------------------------------------------------


def test_live_group_flags_match_implementations():
    assert MemoryBackend.returns_live_groups is True
    assert SqliteBackend.returns_live_groups is False


def test_owned_groups_never_alias_storage(backend_factory):
    backend = backend_factory()
    db = Database(SCHEMA, DATA, backend=backend)
    first = db.lookup_keys("friend", (0,), [(1,)])[0]
    second = db.lookup_keys("friend", (0,), [(1,)])[0]
    assert tuple(first) == tuple(second)
    if backend.returns_live_groups:
        # The memory backend returns the live bucket itself, both times.
        assert first is second
    else:
        # Owned groups are immutable or fresh per call -- a caller cannot
        # corrupt storage through them even by trying.
        assert isinstance(first, tuple) or first is not second


def _exercise_workload(engine, persons, seed):
    """Drive everything that reads through the narrow waist: Q1-Q3 over
    every pid, incremental refresh under churn, and view-assisted Q4/Q5."""
    db = engine.require_database()
    data = generate_social_network(persons, seed=seed)
    register_workload_views(engine)
    prepared = {b.name: b.prepare(engine) for b in RUNNING_QUERIES}
    for bundle in RUNNING_QUERIES:
        for pid in range(persons):
            prepared[bundle.name].execute({bundle.parameters[0]: pid})
    live = prepared["Q2"].execute_incremental({"p": 3})
    for batch in generate_churn(data, batches=2, batch_size=8, seed=seed):
        batch.apply(db, strict=True)
        live.refresh()
    url = sample_urls({"visits": data["visits"]}, 1, seed=seed)[0]
    for bundle in VIEW_QUERIES:
        value = 3 if bundle.name == "Q4" else url
        bundle.prepare(engine).execute({bundle.parameters[0]: value})
    return db


def test_memory_live_buckets_survive_full_workload_unmutated():
    """No caller anywhere in the stack may mutate a live index bucket:
    after the whole workload (queries, churn, incremental refresh,
    views) every built index must equal one rebuilt from scratch."""
    persons, seed = 60, 2
    engine = social_engine(persons, seed=seed)  # default MemoryBackend
    db = _exercise_workload(engine, persons, seed)
    backend = db.backend
    assert isinstance(backend, MemoryBackend)
    for relation, by_positions in backend._indexes.items():
        rows = list(backend._rows[relation])
        assert by_positions, relation  # the workload built indexes
        for positions, index in by_positions.items():
            rebuilt: dict = {}
            for row in rows:
                key = tuple(row[p] for p in positions)
                rebuilt.setdefault(key, []).append(row)
            assert index == rebuilt, (relation, positions)


# -- cross-backend conformance --------------------------------------------


def test_workload_answers_and_stats_identical_across_backends():
    for persons, seed in [(30, 0), (75, 5)]:
        reference = None
        for kind in BACKEND_KINDS:
            engine = social_engine(persons, seed=seed, backend=make_backend(kind))
            db = engine.require_database()
            answers = {}
            for bundle in RUNNING_QUERIES:
                prepared = bundle.prepare(engine)
                for pid in range(persons):
                    result = prepared.execute({bundle.parameters[0]: pid})
                    answers[bundle.name, pid] = frozenset(result.rows)
            snapshot = (
                db.stats.tuples_accessed,
                db.stats.indexed_lookups,
                db.stats.full_scans,
            )
            if reference is None:
                reference = (answers, snapshot)
            else:
                assert answers == reference[0], kind
                # Accounting is part of the contract: the *numbers* the
                # paper's claims are stated in must not depend on the
                # storage engine.
                assert snapshot == reference[1], kind


def test_refresh_and_views_stay_correct_under_churn(backend_factory):
    persons, seed = 40, 1
    engine = social_engine(persons, seed=seed, backend=backend_factory())
    db = engine.require_database()
    data = generate_social_network(persons, seed=seed)
    register_workload_views(engine)
    q2 = [b for b in RUNNING_QUERIES if b.name == "Q2"][0]
    prepared = q2.prepare(engine)
    live = prepared.execute_incremental({"p": 3})
    for batch in generate_churn(data, batches=3, batch_size=8, seed=seed):
        batch.apply(db, strict=True)
        live.refresh()
        assert set(live.rows) == set(prepared.execute({"p": 3}).rows)
    url = sample_urls({"visits": data["visits"]}, 1, seed=seed)[0]
    for bundle in VIEW_QUERIES:
        value = 3 if bundle.name == "Q4" else url
        prepared = bundle.prepare(engine)
        result = prepared.execute({bundle.parameters[0]: value})
        assert result.stats.tuples_accessed <= result.fanout_bound
        assert result.stats.full_scans == 0
        naive = parse_query(bundle.query, schema=engine.schema).evaluate(
            db, {bundle.parameters[0]: value}
        )
        assert set(result.rows) == set(naive)


def test_sqlite_reopens_by_path(tmp_path):
    path = str(tmp_path / "store.sqlite3")
    db = Database(SCHEMA, DATA, backend=SqliteBackend(path))
    db.backend.close()
    reopened = Database(SCHEMA, backend=SqliteBackend(path))
    assert set(reopened.backend.iter_rows("friend")) == set(DATA["friend"])
    reopened.backend.close()


def test_closed_or_unattached_sqlite_raises_schema_error_naming_path(tmp_path):
    """A released handle is a defined failure on every primitive -- the
    lifecycle-misuse class ``attach`` raises -- not an ``AttributeError``
    on ``None``."""
    path = str(tmp_path / "store.sqlite3")
    unattached = SqliteBackend(path)
    engine = social_engine(50, seed=1, backend=SqliteBackend(path))
    closed = engine.database.backend
    closed.close()
    closed.close()  # still idempotent
    for backend, state in ((closed, "closed"), (unattached, "not attached")):
        for primitive in (
            lambda: backend.lookup_keys("friend", (0,), [(3,)]),
            lambda: backend.contains_rows("friend", [(3, 4)]),
            lambda: backend.scan("friend"),
            lambda: backend.probe_rows("friend", [(3, 4)]),
            lambda: backend.count("friend"),
            lambda: list(backend.iter_rows("friend")),
            lambda: backend.insert_rows("friend", [(3, 4)]),
            lambda: backend.delete_rows("friend", [(3, 4)]),
            lambda: backend.load_rows("friend", [(3, 4)]),
        ):
            with pytest.raises(SchemaError, match=state) as caught:
                primitive()
            assert path in str(caught.value)
    with pytest.raises(SchemaError, match="closed") as caught:
        engine.execute(Q1.query, {"p": 3})
    assert path in str(caught.value)
    with pytest.raises(SchemaError, match="closed"):
        engine.database.add("friend", (3, 4))


# -- the SQLite statement memo ---------------------------------------------


def _spied(monkeypatch, owner, name):
    """Count the calls of ``owner.name`` (a function on a module or a
    method on a class) without changing what it does."""
    real, calls = getattr(owner, name), []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


def test_sqlite_warm_reads_build_no_text_and_validate_nothing(monkeypatch):
    """Everything about a read that does not depend on the key values is
    resolved on first sight of ``(relation, positions)``: a second pass
    of Q1-Q5 on the same parameters builds no SQL text, validates
    nothing, creates no index and leaves the memo as large as it was."""
    import repro.relational.backends.sqlite as sqlite_module

    data = generate_social_network(120, seed=3)
    engine = Engine(SOCIAL_SCHEMA, social_access_text(), data, backend=SqliteBackend())
    register_workload_views(engine)
    backend = engine.database.backend
    prepared = [bundle.prepare(engine) for bundle in RUNNING_QUERIES]
    pids, urls = sample_pids(120, 12, seed=3), sample_urls(data, 12, seed=3)
    calls = [
        (query, {bundle.parameters[0]: value})
        for query, bundle in zip(prepared, RUNNING_QUERIES)
        for value in (urls if bundle.parameters[0] == "u" else pids)
    ]
    texts = _spied(monkeypatch, sqlite_module, "_read_text")
    first = [query.execute(values) for query, values in calls]
    assert texts and backend._reads  # the warm-up is what pays
    size = (len(backend._reads), sum(len(read._texts) for read in backend._reads.values()))
    built = len(texts)
    resolved = _spied(monkeypatch, SqliteBackend, "_resolve")
    required = _spied(monkeypatch, SqliteBackend, "_require")
    checked = _spied(monkeypatch, sqlite_module, "check_positions")
    second = [query.execute(values) for query, values in calls]
    assert len(texts) == built and not (resolved or required or checked)
    assert size == (
        len(backend._reads),
        sum(len(read._texts) for read in backend._reads.values()),
    )
    assert [r.rows for r in second] == [r.rows for r in first]
    assert [r.stats for r in second] == [r.stats for r in first]
    backend.close()


def test_sqlite_invalid_reads_never_enter_the_memo():
    db = Database(SCHEMA, backend=SqliteBackend())  # nothing loaded: an empty memo
    for _ in range(2):  # the same error on first and on second sight
        with pytest.raises(SchemaError, match="position 5 out of range"):
            db.lookup_keys("friend", (5,), [(1,)])
        with pytest.raises(SchemaError, match="nope"):
            db.lookup_keys("nope", (0,), [(1,)])
        with pytest.raises(SchemaError, match="nope"):
            db.contains_rows("nope", [(1, 2)])
        assert db.backend._reads == {}


def test_sqlite_memoised_reads_still_notice_a_closed_store(tmp_path):
    path = str(tmp_path / "store.sqlite3")
    backend = SqliteBackend(path)
    db = Database(SCHEMA, DATA, backend=backend)
    assert [tuple(g) for g in db.lookup_keys("friend", (0,), [(2,)])] == [((2, 4),)]
    assert db.contains_rows("friend", [(2, 4)]) == (True,)
    assert len(backend._reads) == 2
    backend.close()
    for read in (
        lambda: db.lookup_keys("friend", (0,), [(2,)]),
        lambda: db.lookup_keys("friend", (0,), [(1,), (2,)]),
        lambda: db.contains_rows("friend", [(2, 4)]),
        lambda: db.contains_rows("friend", [(2, 4), (1, 2)]),
    ):
        with pytest.raises(SchemaError, match="is closed") as caught:
            read()
        assert path in str(caught.value)


def test_sqlite_one_key_batch_with_none_takes_the_null_safe_path():
    """``c0 = NULL`` matches nothing, so the one-key path must hand a
    None-bearing key (or row) to the IS NULL statements."""
    db = Database(SCHEMA, backend=SqliteBackend())
    db.insert_many("friend", [(None, 2), (None, 3), (1, None), (1, 2)])
    db.reset_stats()
    assert [list(g) for g in db.lookup_keys("friend", (0,), [(None,)])] == [
        [(None, 2), (None, 3)]
    ]
    assert [list(g) for g in db.lookup_keys("friend", (0, 1), [(1, None)])] == [[(1, None)]]
    assert db.contains_rows("friend", [(None, 3)]) == (True,)
    assert db.contains_rows("friend", [(None, 4)]) == (False,)
    assert (db.stats.tuples_accessed, db.stats.indexed_lookups) == (4, 4)


def test_sqlite_batches_of_every_size_agree_with_memory():
    """One key, many keys, duplicate keys and batches past the
    per-statement variable limit (chunked): the groups, their order and
    the ``AccessStats`` are the memory backend's."""
    from repro.relational.backends.sqlite import _MAX_VARIABLES

    rows = [(i, i + j) for i in range(1200) for j in (1, 2)]
    stores = [
        Database(SCHEMA, {"friend": rows}, backend=backend)
        for backend in (MemoryBackend(), SqliteBackend())
    ]
    many = _MAX_VARIABLES + 100
    lookups = [
        ((0,), [(5,)]),
        ((0,), [(1,), (2,), (9999,)]),
        ((0,), [(1,), (1,), (2,), (1,)]),
        ((0,), [(i % 1100,) for i in range(many)]),
        ((1,), [(7,)]),
        ((0, 1), [(3, 4)]),
        ((0, 1), [(i, i + 1 + i % 3) for i in range(many // 2 + 50)]),
    ]
    probes = [
        [(5, 6)],
        [(5, 6), (5, 6), (5, 9)],
        [(i, i + 1 + i % 3) for i in range(many // 2 + 50)],
    ]
    observed = []
    for db in stores:
        db.reset_stats()
        answers = []
        for positions, keys in lookups:
            extra = AccessStats()
            groups = db.lookup_keys("friend", positions, keys, extra)
            answers.append(([list(group) for group in groups], extra))
        for batch in probes:
            extra = AccessStats()
            answers.append((db.contains_rows("friend", batch, extra), extra))
        observed.append((answers, db.stats))
    assert observed[0] == observed[1]
    assert observed[1][1].indexed_lookups > 2 * _MAX_VARIABLES


def test_sqlite_reads_hand_back_equal_strings_and_views_share_them():
    """``sqlite3`` decodes TEXT itself -- the connection has no per-cell
    text callback -- so every read path returns strings *equal* to the
    stored ones, in tuple groups.  Strings are interned where rows
    persist instead: a ``ViewState`` materialised over SQLite holds one
    object per distinct string."""
    backend = SqliteBackend()
    db = Database(SCHEMA, backend=backend)
    assert backend._handle.text_factory is str
    built = "".join(["ny", "c"])  # a fresh object, not the interned one
    db.insert_many("friend", [(1, built), (2, built), (3, None), (4, b"raw")])
    ((one,),) = db.lookup_keys("friend", (0,), [(1,)])
    groups = db.lookup_keys("friend", (0,), [(2,), (3,), (4,)])
    assert one == (1, "nyc") and groups == [((2, "nyc"),), ((3, None),), ((4, b"raw"),)]
    assert all(type(group) is tuple for group in groups)
    assert db.scan("friend") == ((1, "nyc"), (2, "nyc"), (3, None), (4, b"raw"))
    state = ViewState(ViewDef("V", "V(b, a) :- friend(a, b)"), db)
    assert sorted(state.rows, key=repr) == sorted([("nyc", 1), ("nyc", 2), (None, 3), (b"raw", 4)], key=repr)
    assert len({id(row[0]) for row in state.rows if row[0] == "nyc"}) == 1
    backend.close()


def test_a_view_over_sqlite_holds_one_object_per_distinct_url():
    """V2 (a page's visitors) materialised from a SQLite store: every
    visit row of one url shares that url's one string object, as the
    memory store's interned rows do."""
    data = generate_social_network(200, seed=2)
    engine = Engine(SOCIAL_SCHEMA, social_access_text(), data, backend=SqliteBackend())
    register_workload_views(engine)
    (state,) = engine.views.prepare(engine.database, ["V2"]).values()
    urls = {url for _, url in data["visits"]}
    assert {row[0] for row in state.rows} == urls
    assert len({id(row[0]) for row in state.rows}) == len(urls)
    engine.database.backend.close()


def test_a_view_that_keeps_the_strings_it_read_is_caught(monkeypatch):
    """Seeded mutant: a ``ViewState`` that stores its rows as the read
    built them holds one url object per visit, not per url."""
    mutate(
        monkeypatch,
        ViewState,
        "__init__",
        "intern_rows(counts)",
        "list(counts)",
        "a view that does not intern",
    )
    with pytest.raises(AssertionError):
        test_a_view_over_sqlite_holds_one_object_per_distinct_url()


def test_streamed_sqlite_load_is_flat_across_sizes(tmp_path):
    """The out-of-core path end to end: ``stream_social_network`` chunks
    go through ``Database.bulk_load`` into SQLite files of two sizes;
    block 0 is the same community in both, so Q1-Q5 on block-0
    parameters return equal rows for *equal* tuples accessed -- flat in
    database size, not merely bounded."""
    block, params = 50, 4
    observed = {}
    streams = {}
    for persons in (50, 200):
        engine = Engine(
            SOCIAL_SCHEMA,
            social_access_text(),
            backend=SqliteBackend(str(tmp_path / f"social_{persons}.sqlite3")),
        )
        db = engine.require_database()
        observed[persons] = {}
        streams[persons] = list(stream_social_network(persons, seed=1, block=block))
        loaded = sum(db.bulk_load(rel, rows) for rel, rows in streams[persons])
        assert loaded == db.size() > 0
        assert len(db.change_log) == 0
        register_workload_views(engine)
        block0 = dict(streams[persons][:3])
        values = {
            "p": sample_pids(block, params, seed=1),
            "u": sample_urls(block0, params, seed=1),
        }
        for bundle in RUNNING_QUERIES + VIEW_QUERIES:
            prepared = bundle.prepare(engine)
            name = bundle.parameters[0]
            for value in values[name]:
                result = prepared.execute({name: value})
                assert result.stats.full_scans == 0
                assert result.stats.tuples_accessed <= result.fanout_bound
                observed[persons][bundle.name, value] = (
                    frozenset(result.rows),
                    result.stats.tuples_accessed,
                )
        db.backend.close()
    assert observed[50] == observed[200]
    assert any(rows for rows, _ in observed[50].values())
    # Block 0 of the larger stream is the smaller stream, row for row.
    assert streams[200][:3] == streams[50]
    assert len(streams[200]) == 3 * (200 // block)


# -- None (NULL) rows behave identically everywhere -----------------------


def test_none_rows_conform_across_backends(backend_factory):
    """SQL ``=`` never matches NULL and UNIQUE indexes treat NULLs as
    distinct -- the SQLite backend must paper over both, so every
    backend agrees row-for-row on None-bearing data."""
    db = Database(SCHEMA, backend=backend_factory())
    rows = [(1, None), (1, 2), (None, 2), (None, None)]
    assert db.insert_many("friend", rows) == 4
    # A duplicate None-bearing insert is a no-op, not a second copy.
    assert db.insert_many("friend", [(1, None), (None, None)]) == 0
    assert db.size("friend") == 4

    assert db.contains_rows("friend", [(1, None), (None, 2), (7, 7)]) == (
        True,
        True,
        False,
    )
    # Lookups keyed on a None value find their group.
    groups = db.lookup_keys("friend", (0,), [(1,), (None,), (9,)])
    assert sorted(groups[0], key=repr) == [(1, 2), (1, None)]
    assert sorted(groups[1], key=repr) == [(None, 2), (None, None)]
    assert groups[2] == ()
    # Composite (all-positions) lookups too.
    (exact,) = db.lookup_keys("friend", (0, 1), [(None, 2)])
    assert tuple(exact) == ((None, 2),)

    # Deletes remove exactly the None-bearing row they name.
    assert db.delete_many("friend", [(None, None), (5, 5)]) == 1
    assert set(db.backend.iter_rows("friend")) == {(1, None), (1, 2), (None, 2)}
    assert db.insert_many("friend", [(None, None)]) == 1


def test_bulk_load_dedupes_none_rows(backend_factory):
    db = Database(SCHEMA, backend=backend_factory())
    db.bulk_load("friend", [(1, None), (2, 3)])
    # Reloading the same None-bearing row must not create a second copy
    # (SQLite's INSERT OR IGNORE alone would: NULLs are distinct to the
    # unique index).
    db.bulk_load("friend", [(1, None), (1, None), (4, None)])
    assert db.size("friend") == 3
    assert set(db.backend.iter_rows("friend")) == {(1, None), (2, 3), (4, None)}


@st.composite
def keyed_rows(draw):
    """A row of ``None``, int and str cells and sorted key positions of one
    shape: empty, one position, a contiguous run, or a run with a gap."""
    cells = st.one_of(st.none(), st.integers(), st.text(max_size=3))
    row = tuple(draw(st.lists(cells, min_size=3, max_size=6)))
    shape = draw(st.sampled_from(("empty", "one", "contiguous", "gapped")))
    if shape == "empty":
        return row, (), shape
    if shape == "one":
        return row, (draw(st.integers(0, len(row) - 1)),), shape
    start = draw(st.integers(0, len(row) - 2))
    if shape == "contiguous":
        return row, tuple(range(start, draw(st.integers(start + 1, len(row))))), shape
    rest = draw(st.sets(st.integers(start + 2, len(row) - 1), min_size=1)) if start + 2 < len(row) else ()
    return row, (start, *sorted(rest)), shape


@settings(max_examples=200, derandomize=True, database=None)
@given(case=keyed_rows())
def test_a_key_getter_is_the_tuple_of_its_positions(case):
    """What every memory index, slice index and footprint mark keys on:
    ``key_getter(positions)(row) == tuple(row[p] for p in positions)``,
    a plain tuple, from one memoised getter per position tuple."""
    row, positions, shape = case
    assume(shape != "gapped" or len(positions) > 1)
    key = key_getter(positions)(row)
    assert key == tuple(row[p] for p in positions) and type(key) is tuple
    assert key_getter(positions) is key_getter(positions)
