"""Synthetic workloads for exercising scale independence empirically.

The paper's running example is a social network; :mod:`repro.workloads.social`
provides a seeded generator for it (``person``/``friend``/``visits``
relations with configurable size and degree skew, degrees capped so the
declared access rules stay truthful) and the running queries Q1/Q2/Q3 as
ready-made :class:`QueryBundle` objects -- each a ``(schema, access,
query)`` triple that builds a ready-to-run
:class:`~repro.api.engine.Engine` in one call.

:mod:`repro.workloads.churn` adds the *change* dimension: seeded streams
of mixed edge inserts/deletes (:class:`ChurnBatch`) that keep the degree
caps honored, the traffic :mod:`repro.incremental` refreshes against.

The repository benchmark (``benchmarks/``) drives these workloads at
increasing database sizes to demonstrate the paper's central claim: tuples
accessed stay flat while the database grows -- and, under churn, that
refreshing beats recomputing.
"""

from repro.workloads.churn import CHURN_RELATIONS, ChurnBatch, generate_churn
from repro.workloads.social import (
    CITIES,
    DEFAULT_BLOCK,
    DEFAULT_MAX_FRIENDS,
    DEFAULT_MAX_VISITS,
    DEFAULT_VIEW_BOUND,
    Q1,
    Q2,
    Q3,
    Q4,
    Q5,
    RUNNING_QUERIES,
    SOCIAL_ACCESS,
    SOCIAL_SCHEMA,
    VIEW_QUERIES,
    QueryBundle,
    audience_view,
    follower_view,
    generate_social_network,
    max_in_degree,
    register_workload_views,
    sample_pids,
    sample_urls,
    social_access_text,
    social_engine,
    stream_social_network,
    workload_views,
)

__all__ = [
    "QueryBundle",
    "Q1",
    "Q2",
    "Q3",
    "Q4",
    "Q5",
    "RUNNING_QUERIES",
    "VIEW_QUERIES",
    "SOCIAL_SCHEMA",
    "SOCIAL_ACCESS",
    "CITIES",
    "DEFAULT_MAX_FRIENDS",
    "DEFAULT_MAX_VISITS",
    "DEFAULT_VIEW_BOUND",
    "social_access_text",
    "generate_social_network",
    "stream_social_network",
    "DEFAULT_BLOCK",
    "social_engine",
    "sample_pids",
    "sample_urls",
    "max_in_degree",
    "follower_view",
    "audience_view",
    "workload_views",
    "register_workload_views",
    "ChurnBatch",
    "CHURN_RELATIONS",
    "generate_churn",
]
