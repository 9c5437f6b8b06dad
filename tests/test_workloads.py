"""Tests for the synthetic social-network workload generator and the
ready-made Q1/Q2/Q3 query bundles."""

import pytest

from repro.workloads import (
    CITIES,
    Q1,
    Q2,
    Q3,
    RUNNING_QUERIES,
    QueryBundle,
    generate_social_network,
    sample_pids,
    social_access_text,
    social_engine,
)


class TestGenerator:
    def test_deterministic_for_same_seed(self):
        assert generate_social_network(40, seed=5) == generate_social_network(
            40, seed=5
        )

    def test_different_seeds_differ(self):
        assert generate_social_network(40, seed=5) != generate_social_network(
            40, seed=6
        )

    def test_size_scales_person_count(self):
        for persons in (1, 10, 250):
            data = generate_social_network(persons, seed=0)
            assert len(data["person"]) == persons

    def test_caps_are_enforced(self):
        data = generate_social_network(200, seed=2, max_friends=3, max_visits=2)
        degrees: dict[object, int] = {}
        for pid1, _ in data["friend"]:
            degrees[pid1] = degrees.get(pid1, 0) + 1
        assert max(degrees.values()) <= 3
        visits: dict[object, int] = {}
        for pid, _ in data["visits"]:
            visits[pid] = visits.get(pid, 0) + 1
        assert max(visits.values()) <= 2

    def test_skew_produces_hubs_and_leaves(self):
        data = generate_social_network(500, seed=0, skew=1.1)
        degrees: dict[object, int] = {}
        for pid1, _ in data["friend"]:
            degrees[pid1] = degrees.get(pid1, 0) + 1
        assert max(degrees.values()) > min(degrees.values())

    def test_cities_come_from_the_pool(self):
        data = generate_social_network(50, seed=0)
        assert {row[2] for row in data["person"]} <= set(CITIES)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            generate_social_network(0)
        with pytest.raises(ValueError):
            generate_social_network(10, max_friends=0)
        with pytest.raises(ValueError):
            generate_social_network(10, skew=0)

    def test_single_person_has_no_friends(self):
        data = generate_social_network(1, seed=0)
        assert data["friend"] == []


class TestBundles:
    def test_all_bundles_are_controlled_by_their_parameters(self):
        engine = social_engine(30, seed=0)
        for bundle in RUNNING_QUERIES:
            prepared = bundle.prepare(engine)
            assert prepared.is_controlled(bundle.parameters), bundle.name

    def test_bundle_engine_is_self_contained(self):
        engine = Q1.engine(generate_social_network(30, seed=0))
        result = engine.query(Q1.query).execute(p=0)
        assert result.stats.full_scans == 0

    def test_bundles_render(self):
        for bundle in RUNNING_QUERIES:
            assert bundle.name in str(bundle)

    def test_bundles_are_distinct_named_queries(self):
        assert {Q1.name, Q2.name, Q3.name} == {"Q1", "Q2", "Q3"}
        assert isinstance(Q1, QueryBundle)

    def test_access_text_embeds_caps(self):
        text = social_access_text(max_friends=7, max_visits=3)
        assert "friend(pid1 -> 7)" in text
        assert "visits(pid -> 3)" in text


def test_sample_pids_in_range_and_deterministic():
    pids = sample_pids(50, 10, seed=1)
    assert pids == sample_pids(50, 10, seed=1)
    assert len(pids) == 10
    assert all(0 <= pid < 50 for pid in pids)


class TestChurn:
    """The seeded churn stream: deterministic, cap-honoring, cleanly
    applicable in bulk."""

    def _stream(self, persons=60, seed=3, **kwargs):
        from repro.workloads import generate_churn, generate_social_network

        data = generate_social_network(persons, seed=seed)
        return data, generate_churn(data, batches=5, batch_size=12, seed=seed, **kwargs)

    def test_deterministic_for_same_seed(self):
        _, first = self._stream()
        _, second = self._stream()
        assert first == second

    def test_different_seeds_differ(self):
        from repro.workloads import generate_churn, generate_social_network

        data = generate_social_network(60, seed=3)
        a = generate_churn(data, batches=5, batch_size=12, seed=1)
        b = generate_churn(data, batches=5, batch_size=12, seed=2)
        assert a != b

    def test_batches_have_the_requested_size(self):
        _, stream = self._stream()
        assert len(stream) == 5
        assert all(batch.size == 12 for batch in stream)

    def test_strict_apply_passes_and_degree_caps_hold(self):
        from repro.workloads import (
            DEFAULT_MAX_FRIENDS,
            DEFAULT_MAX_VISITS,
            social_engine,
        )

        engine = social_engine(60, seed=3)
        db = engine.require_database()
        _, stream = self._stream()
        for batch in stream:
            deleted, inserted = batch.apply(db, strict=True)
            assert deleted + inserted == batch.size
            for relation, cap in (
                ("friend", DEFAULT_MAX_FRIENDS),
                ("visits", DEFAULT_MAX_VISITS),
            ):
                degrees: dict[object, int] = {}
                for source, _target in db.scan(relation):
                    degrees[source] = degrees.get(source, 0) + 1
                assert all(n <= cap for n in degrees.values()), relation

    def test_no_tuple_both_inserted_and_deleted_in_one_batch(self):
        _, stream = self._stream()
        for batch in stream:
            for relation, deleted in batch.deletes.items():
                inserted = set(batch.inserts.get(relation, ()))
                assert not inserted & set(deleted)

    def test_delete_only_stream(self):
        _, stream = self._stream(delete_fraction=1.0)
        assert all(not batch.inserts for batch in stream)
        assert any(batch.deletes for batch in stream)

    def test_insert_only_stream(self):
        _, stream = self._stream(delete_fraction=0.0)
        assert all(not batch.deletes for batch in stream)

    def test_churn_only_touches_edge_relations(self):
        from repro.workloads import CHURN_RELATIONS

        _, stream = self._stream()
        for batch in stream:
            touched = set(batch.deletes) | set(batch.inserts)
            assert touched <= set(CHURN_RELATIONS)

    def test_rejects_bad_arguments(self):
        import pytest
        from repro.workloads import generate_churn, generate_social_network

        data = generate_social_network(10, seed=0)
        with pytest.raises(ValueError):
            generate_churn(data, batches=-1, batch_size=5)
        with pytest.raises(ValueError):
            generate_churn(data, batches=1, batch_size=0)
        with pytest.raises(ValueError):
            generate_churn(data, batches=1, batch_size=5, delete_fraction=1.5)
        with pytest.raises(ValueError):
            generate_churn({"person": []}, batches=1, batch_size=5)

    def test_batch_renders(self):
        _, stream = self._stream()
        assert str(stream[0]).startswith("churn(")


def test_churn_streams_are_pinned():
    """The generator's output is part of every churn measurement: a fixed
    stream (and a delete-heavy one) must stay bit-identical, however the
    generator is implemented -- SHA-256 of the stream's repr."""
    import hashlib

    from repro.workloads import generate_churn, generate_social_network

    data = generate_social_network(400, seed=5)
    pinned = {
        0.5: "ab8077927162bc2f91417a143668e42162949932c548d6b1e2e02ac0418ed60a",
        0.9: "da189ef7837fc09e2d5a73dd9de3f401c5c056a5d6beb07657b034d43b651d0e",
    }
    for fraction, digest in pinned.items():
        stream = generate_churn(data, batches=40, batch_size=16, seed=7, delete_fraction=fraction)
        assert hashlib.sha256(repr(stream).encode()).hexdigest() == digest, fraction


def test_churn_disjointness_holds_across_many_seeds():
    """The documented invariant -- a batch never both deletes and inserts
    one tuple -- must hold for arbitrary seeds, not just the fixture's."""
    from repro.workloads import generate_churn, generate_social_network

    for seed in range(30):
        data = generate_social_network(40, seed=seed)
        for batch in generate_churn(data, batches=4, batch_size=14, seed=seed):
            for relation, deleted in batch.deletes.items():
                assert not set(deleted) & set(batch.inserts.get(relation, ()))
