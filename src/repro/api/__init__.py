"""The high-level facade over the paper's workflow.

:class:`Engine` binds a database schema, an access schema and a database
and turns each step of the scale-independence pipeline -- parse, check
controllability, compile a bounded plan, execute with access accounting --
into a method call on a :class:`PreparedQuery`.  Compiled plans are
memoized in an LRU :class:`~repro.api.cache.PlanCache` keyed by
``(shape key, parameter set)``: one entry per query shape.

This is the documented front door; the constructors and free functions in
:mod:`repro.logic`, :mod:`repro.relational` and :mod:`repro.core` remain
the low-level API underneath.
"""

from repro.api.cache import CacheStats, PlanCache
from repro.api.engine import Engine, ExplainAnalyze, PreparedQuery, ResultSet

__all__ = [
    "Engine",
    "ExplainAnalyze",
    "PreparedQuery",
    "ResultSet",
    "CacheStats",
    "PlanCache",
]
