"""Tests for the relational substrate: schema validation, hash indexes
and access accounting."""

import pytest

from repro import Database, DatabaseSchema, RelationSchema, SchemaError, UpdateError
from repro.logic.ast import Atom


class TestSchemas:
    def test_relation_schema_basics(self, social_schema):
        person = social_schema.relation("person")
        assert person.arity == 3
        assert person.position("city") == 2
        assert person.positions(["city", "pid"]) == (2, 0)

    def test_unknown_relation_raises(self, social_schema):
        with pytest.raises(SchemaError, match="unknown relation"):
            social_schema.relation("enemy")

    def test_unknown_attribute_raises(self, social_schema):
        with pytest.raises(SchemaError, match="no attribute"):
            social_schema.relation("person").position("age")

    def test_duplicate_attributes_raise(self):
        with pytest.raises(SchemaError):
            RelationSchema("r", ["a", "a"])

    def test_duplicate_relations_raise(self):
        r = RelationSchema("r", ["a"])
        with pytest.raises(SchemaError):
            DatabaseSchema([r, r])

    def test_arity_validation(self, social_schema):
        with pytest.raises(SchemaError, match="arity"):
            social_schema.relation("friend").validate_tuple((1, 2, 3))
        with pytest.raises(SchemaError, match="arity"):
            social_schema.validate_atom(Atom("friend", ["?x"]))


class TestDatabase:
    def test_add_validates(self, social_db):
        with pytest.raises(SchemaError):
            social_db.add("friend", (1, 2, 3))
        with pytest.raises(SchemaError):
            social_db.add("enemy", (1, 2))

    def test_set_semantics(self, social_db):
        before = social_db.size("friend")
        assert social_db.add("friend", (1, 2)) is False
        assert social_db.size("friend") == before
        assert social_db.add("friend", (2, 1)) is True

    def test_lookup_uses_index_and_counts(self, social_db):
        social_db.reset_stats()
        rows = social_db.lookup("friend", {0: 1})
        assert set(rows) == {(1, 2), (1, 3)}
        assert social_db.stats.indexed_lookups == 1
        assert social_db.stats.tuples_accessed == 2
        assert social_db.stats.full_scans == 0

    def test_empty_pattern_is_a_scan(self, social_db):
        social_db.reset_stats()
        rows = social_db.lookup("friend", {})
        assert len(rows) == social_db.size("friend")
        assert social_db.stats.full_scans == 1

    def test_index_is_maintained_on_insert(self, social_db):
        assert social_db.lookup("friend", {0: 4}) == ((4, 5),)
        social_db.add("friend", (4, 1))
        assert set(social_db.lookup("friend", {0: 4})) == {(4, 5), (4, 1)}

    def test_out_of_range_position_raises(self, social_db):
        with pytest.raises(SchemaError, match="out of range"):
            social_db.lookup("friend", {5: 1})

    def test_contains_probe(self, social_db):
        social_db.reset_stats()
        assert social_db.contains("friend", (1, 2))
        assert not social_db.contains("friend", (2, 1))
        assert social_db.stats.tuples_accessed == 1
        assert social_db.stats.full_scans == 0

    def test_active_domain(self, social_schema):
        db = Database(social_schema, {"friend": [(1, 2), (2, 3)]})
        assert db.active_domain() == (1, 2, 3)

    def test_stats_snapshot_delta(self, social_db):
        before = social_db.stats.snapshot()
        social_db.lookup("friend", {0: 1})
        delta = social_db.stats.since(before)
        assert delta.indexed_lookups == 1
        assert delta.tuples_accessed == 2


class TestHashEqContract:
    def test_schema_hash_is_order_insensitive_like_eq(self):
        a = RelationSchema("a", ["x"])
        b = RelationSchema("b", ["y"])
        s1, s2 = DatabaseSchema([a, b]), DatabaseSchema([b, a])
        assert s1 == s2
        assert hash(s1) == hash(s2)
        assert len({s1, s2}) == 1


class TestValidateQueryShapes:
    def test_bare_quantified_formula(self, social_schema):
        from repro import Atom, Exists

        social_schema.validate_query(Exists("x", Atom("friend", ["?x", "?y"])))
        with pytest.raises(SchemaError):
            social_schema.validate_query(Exists("x", Atom("friend", ["?x"])))


class TestMutations:
    """insert_many / delete_many: index maintenance, set semantics, strict
    Section 5 well-formedness, and the change log they feed."""

    def test_insert_many_skips_duplicates_and_counts_effective(self, social_db):
        inserted = social_db.insert_many("friend", [(1, 2), (9, 9), (9, 9)])
        assert inserted == 1
        assert social_db.contains("friend", (9, 9))

    def test_delete_many_skips_absent_and_counts_effective(self, social_db):
        deleted = social_db.delete_many("friend", [(1, 2), (7, 7)])
        assert deleted == 1
        assert not social_db.contains("friend", (1, 2))

    def test_strict_insert_of_present_tuple_raises(self, social_db):
        from repro import UpdateError

        with pytest.raises(UpdateError, match="already present"):
            social_db.insert_many("friend", [(1, 2)], strict=True)

    def test_strict_delete_of_absent_tuple_raises(self, social_db):
        from repro import UpdateError

        with pytest.raises(UpdateError, match="not present"):
            social_db.delete_many("friend", [(7, 7)], strict=True)

    def test_mutations_validate_against_schema(self, social_db):
        with pytest.raises(SchemaError):
            social_db.insert_many("friend", [(1, 2, 3)])
        with pytest.raises(SchemaError):
            social_db.delete_many("nope", [(1,)])

    def test_lazy_indexes_are_maintained_across_mutations(self, social_db):
        """Regression: query (building the index), mutate, re-query -- the
        lazily built per-position index must see the mutation."""
        assert social_db.lookup("friend", {0: 1}) == ((1, 2), (1, 3))
        social_db.insert_many("friend", [(1, 4)])
        social_db.delete_many("friend", [(1, 2)])
        assert social_db.lookup("friend", {0: 1}) == ((1, 3), (1, 4))
        # A second index on another position set, built after the fact,
        # agrees too.
        assert social_db.lookup("friend", {1: 4}) == ((2, 4), (3, 4), (1, 4))
        social_db.delete_many("friend", [(3, 4)])
        assert social_db.lookup("friend", {1: 4}) == ((2, 4), (1, 4))

    def test_delete_drops_empty_index_groups(self, social_db):
        social_db.lookup("friend", {0: 5})  # build the index
        social_db.delete_many("friend", [(5, 1)])
        assert social_db.lookup("friend", {0: 5}) == ()

    def test_delete_single_convenience(self, social_db):
        assert social_db.delete("friend", (1, 2)) is True
        assert social_db.delete("friend", (1, 2)) is False

    def test_constants_are_unwrapped_like_add(self, social_db):
        from repro import Constant

        social_db.insert_many("friend", [(Constant(8), Constant(9))])
        assert social_db.contains("friend", (8, 9))
        social_db.delete_many("friend", [(Constant(8), Constant(9))])
        assert not social_db.contains("friend", (8, 9))


class TestChangeLog:
    def test_every_effective_mutation_is_logged_in_order(self, social_schema):
        db = Database(social_schema)
        base = db.change_log.watermark
        db.insert_many("friend", [(1, 2), (1, 2), (3, 4)])
        db.delete_many("friend", [(3, 4), (9, 9)])
        entries = db.change_log.entries_since(base)
        assert [(e.op, e.relation, e.row) for e in entries] == [
            ("+", "friend", (1, 2)),
            ("+", "friend", (3, 4)),
            ("-", "friend", (3, 4)),
        ]
        assert [e.tid for e in entries] == [base, base + 1, base + 2]

    def test_initial_load_is_logged(self, social_db):
        assert social_db.size() == social_db.change_log.watermark

    def test_net_since_cancels_out(self, social_schema):
        db = Database(social_schema)
        mark = db.change_log.watermark
        db.insert_many("friend", [(1, 2), (3, 4)])
        db.delete_many("friend", [(1, 2)])
        db.insert_many("friend", [(5, 6)])
        db.delete_many("friend", [(5, 6)])
        net = db.change_log.net_since(mark)
        assert net == {"friend": {(3, 4): 1}}

    def test_net_since_delete_then_reinsert_cancels(self, social_db):
        mark = social_db.change_log.watermark
        social_db.delete_many("friend", [(1, 2)])
        social_db.insert_many("friend", [(1, 2)])
        assert social_db.change_log.net_since(mark) == {}

    def test_net_since_signs(self, social_db):
        mark = social_db.change_log.watermark
        social_db.insert_many("friend", [(7, 8)])
        social_db.delete_many("friend", [(1, 2)])
        net = social_db.change_log.net_since(mark)
        assert net == {"friend": {(7, 8): 1, (1, 2): -1}}

    def test_watermark_and_sequence_protocol(self, social_schema):
        db = Database(social_schema)
        assert db.change_log.watermark == len(db.change_log) == 0
        db.add("friend", (1, 2))
        assert db.change_log.watermark == 1
        assert db.change_log[0].op == "+"
        assert list(db.change_log)[0].relation == "friend"
        assert "1 entries" in repr(db.change_log)

    def test_bad_watermark_and_op_rejected(self, social_schema):
        db = Database(social_schema)
        with pytest.raises(ValueError):
            db.change_log.net_since(-1)
        with pytest.raises(ValueError):
            db.change_log.entries_since(-1)
        with pytest.raises(ValueError):
            db.change_log.append("x", "friend", (1, 2))

    def test_a_watermark_past_the_log_is_rejected_and_never_memoised(self, social_schema):
        """Slicing from beyond the log used to hand out -- and memoise -- an
        inverted span, so a consumer adopting ``slice.stop`` silently moved
        its watermark backwards."""
        db = Database(social_schema, {"friend": [(1, 2)]})
        log = db.change_log
        assert log.watermark == 1
        for read in (log.slice_since, log.net_since, log.entries_since):
            with pytest.raises(ValueError, match=r"\[0, 1\].*got 5"):
                read(5)
        assert not log._slices  # nothing was stored on the way to the error
        # The watermark itself is the empty span, and stays legal.
        assert (log.slice_since(1).start, log.slice_since(1).stop) == (1, 1)
        assert log.net_since(1) == {} and log.entries_since(1) == ()
        db.add("friend", (3, 4))
        with pytest.raises(ValueError, match=r"\[0, 2\].*got 3"):
            log.slice_since(3)

    def test_net_since_evicts_lru_not_wholesale(self, social_schema):
        # A hot slice (re-read between cold probes) must survive however
        # many cold watermarks other readers touch: eviction is LRU, not
        # a wholesale clear() of every shared memo.
        from repro.relational.instance import SLICE_CACHE_SIZE

        db = Database(social_schema)
        for i in range(SLICE_CACHE_SIZE * 3):
            db.add("friend", (i, i + 1))
        log = db.change_log
        hot = log.net_since(0)
        for cold in range(1, 2 * SLICE_CACHE_SIZE):
            log.net_since(cold)  # cold watermarks, each a distinct slice
            assert log.net_since(0) is hot  # the hot memo survived

    def test_one_bounded_slice_memo_serves_net_and_indexes(self, social_schema):
        from repro.relational.instance import SLICE_CACHE_SIZE

        db = Database(social_schema)
        for i in range(SLICE_CACHE_SIZE * 3):
            db.add("friend", (i, i + 1))
        log = db.change_log
        hot = log.slice_since(0)
        assert log.net_since(0) is hot.net
        assert (hot.start, hot.stop) == (0, log.watermark)
        assert hot.sizes == {"friend": SLICE_CACHE_SIZE * 3}
        for cold in range(1, 2 * SLICE_CACHE_SIZE):
            log.slice_since(cold)
            assert log.slice_since(0) is hot
        assert len(log._slices) == SLICE_CACHE_SIZE

    def test_entries_have_no_instance_dict(self, social_schema):
        db = Database(social_schema, {"friend": [(1, 2)]})
        entry = db.change_log[0]
        assert not hasattr(entry, "__dict__")
        with pytest.raises(AttributeError):
            entry.tid = 7  # still frozen

    def test_sequence_protocol_under_a_raised_floor(self, social_schema, monkeypatch):
        """After compaction: tids stay absolute, ``len`` counts what is
        retained, and everything below the floor is a defined error."""
        from repro import CompactedError
        from repro.relational import instance

        monkeypatch.setattr(instance, "COMPACT_MIN_DEAD", 4)
        db = Database(social_schema)
        log = db.change_log

        class Pin:
            watermark = 0

        pin = Pin()
        log.pin(pin)
        for i in range(20):
            db.add("friend", (i, i + 1))
        assert (log.floor, len(log), log.watermark) == (0, 20, 20)  # held at 0
        pin.watermark = 13
        assert log.floor == 0  # moving a pin compacts nothing ...
        for i in range(20, 25):
            db.add("friend", (i, i + 1))
        assert log.floor == 13  # ... the next look, on append, does
        assert (len(log), log.watermark) == (12, 25)
        assert [entry.tid for entry in log] == list(range(13, 25))
        assert log[13].row == (13, 14) and log[-1].tid == 24
        assert "12 entries from tid 13" in repr(log)
        assert [e.tid for e in log.entries_since(23)] == [23, 24]
        assert log.net_since(13) == {"friend": {(i, i + 1): 1 for i in range(13, 25)}}
        assert log.entries_since(25) == () and log.net_since(25) == {}
        for below in (lambda: log[12], lambda: log.entries_since(12),
                      lambda: log.net_since(0), lambda: log.slice_since(12)):
            with pytest.raises(CompactedError, match="compacted up to tid 13"):
                below()
        with pytest.raises(IndexError):
            log[25]
        with pytest.raises(IndexError):
            log[-26]
        # Nobody pins any more: the log drops everything it holds.
        del pin
        for i in range(30, 40):
            db.add("friend", (i, i + 1))
        assert len(log) < 10 and log.watermark == 35
        with pytest.raises(UpdateError, match="change log"):
            db.bulk_load("friend", [(50, 51)])
