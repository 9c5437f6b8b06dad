"""Shared fixtures: the paper's running social-network example.

A ``person(pid, name, city)`` / ``friend(pid1, pid2)`` schema with a small
instance, and an access schema declaring the indexes a production
deployment would have: friends are fetchable by follower id with bounded
fan-out, and people are keyed by id.
"""

import pytest

from repro import (
    AccessRule,
    AccessSchema,
    Database,
    DatabaseSchema,
    MemoryBackend,
    RelationSchema,
    SqliteBackend,
)

# The storage-backend axis for conformance testing: every parametrized
# test runs on the in-memory hash-index store and the out-of-core SQLite
# store (kept in-memory here -- same code path, no tmp files).
BACKEND_KINDS = ("memory", "sqlite")


def make_backend(kind: str):
    """A fresh, unattached backend of the requested kind."""
    if kind == "memory":
        return MemoryBackend()
    if kind == "sqlite":
        return SqliteBackend()
    raise ValueError(f"unknown backend kind {kind!r}")


@pytest.fixture(params=BACKEND_KINDS)
def backend_factory(request):
    """A zero-argument factory of fresh backends; parametrizes the test
    over both storage implementations."""
    kind = request.param
    return lambda: make_backend(kind)


@pytest.fixture(autouse=True)
def _certify_all_plans(monkeypatch):
    """Certification is always-on in the test suite: every Engine built
    by any test follows REPRO_CERTIFY and gates each compiled plan --
    base, view-augmented and incremental-rebase alike -- on the
    independent certifier (repro.analysis.certify).  A planner bug that
    produces an unsound plan fails the suite even if no assertion would
    have caught the wrong answer."""
    monkeypatch.setenv("REPRO_CERTIFY", "1")


@pytest.fixture
def social_schema():
    return DatabaseSchema(
        [
            RelationSchema("person", ["pid", "name", "city"]),
            RelationSchema("friend", ["pid1", "pid2"]),
        ]
    )


@pytest.fixture
def social_db(social_schema):
    return Database(
        social_schema,
        {
            "person": [
                (1, "ann", "NYC"),
                (2, "bob", "NYC"),
                (3, "cat", "SF"),
                (4, "dan", "NYC"),
                (5, "eve", "SF"),
            ],
            "friend": [
                (1, 2),
                (1, 3),
                (2, 4),
                (3, 4),
                (4, 5),
                (5, 1),
            ],
        },
    )


@pytest.fixture
def social_access(social_schema):
    return AccessSchema(
        social_schema,
        [
            AccessRule("friend", ["pid1"], bound=5000),
            AccessRule("person", ["pid"], bound=1),
        ],
    )
