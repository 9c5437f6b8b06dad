"""The Engine facade: the paper's workflow as one object.

An :class:`Engine` binds the three ingredients of scale independence --
a :class:`~repro.relational.schema.DatabaseSchema`, an
:class:`~repro.core.access_schema.AccessSchema` and a
:class:`~repro.relational.instance.Database` -- and exposes each step of
Fan, Geerts & Libkin's pipeline (parse, controllability check, plan
compilation, bounded execution) as a method call::

    engine = Engine(
        "Person(pid, name, city); Friend(pid1, pid2)",
        "Friend(pid1 -> 5000); Person(pid -> 1)",
        data={"Person": [...], "Friend": [...]},
    )
    q = engine.query("Q(y) :- Friend(p, y), Person(y, n, 'NYC')")
    q.is_controlled(["p"])        # fixpoint propagation
    print(q.explain(["p"]))       # the bounded fetch/join plan
    result = q.execute(p=42)      # ResultSet: rows + access statistics

A request passes two LRU caches in order (:mod:`repro.api.cache`), both
bounded by ``plan_cache_size``.  The *source memo* maps a query text or
query object to its :class:`PreparedQuery`, so ``engine.query(q)`` parses
and schema-validates a source once and may hand back the same
``PreparedQuery`` afterwards; a source that fails is never stored.  The
*plan cache* maps ``(generation, shape key, parameter set)`` to what an
execution needs: access schema, view catalog and cost statistics share one
slot, which every writer replaces whole under the next *generation*, so a
compile that raced a writer lands under a key never probed again.  The
shape key (:func:`repro.logic.canonical.canonical_key`) is the query's
canonical form -- non-parameter variables numbered by first occurrence,
body atoms sorted -- a flat tuple of strings, ints and types: every writing
of one query *shape* compiles once and executes one shared plan (the
canonical query itself is built only by a compile and by ``plan()`` /
``explain()`` / ``diagnostics()``, which rename the shared plan back), and
ties between equally selective fetches break by canonical atom order,
not written order.  A :class:`PreparedQuery` *holds* the entry it was
given, with its generation, and probes again only once a writer moved it
(``cache_stats()`` counts probes; a held entry outlives its eviction).
Its executes *bind* it: per tuple of parameter keys as given, the entry
and where each value seeds its pipes, so a bound execute is values ->
seed columns -> pipeline until the generation moves.
Only the plan cache is ever invalidated: the schema is immutable, so a
source means the same query forever, while every writer strands stale
*plans* however the query was obtained.

Every execution runs in its own
:class:`~repro.core.executor.ExecutionContext`: the ``ResultSet.stats``
it returns are that execution's private counters, exact even when many
threads execute against one engine concurrently (the database's own
:attr:`~repro.relational.instance.Database.stats` stay the cumulative
engine-wide view).  For data that changes, ``execute_incremental``
returns an :class:`~repro.incremental.IncrementalResult` whose
``refresh()`` re-answers the query from the database's change log with
delta-bounded access instead of recomputing::

    live = q.execute_incremental(p=42)
    engine.database.insert_many("Friend", new_edges)
    live.refresh()                # touches O(|delta|) tuples, not O(answer)

Queries that no base access plan controls can still become executable
through materialized views (:mod:`repro.views`, Section 6)::

    engine.views.register("V1", "V1(pid, follower) :- Friend(follower, pid)",
                          "V1(pid -> 64)")
    engine.execute("Q(x) :- Friend(x, p)", p=42)   # bounded, via V1

Registering or dropping a view advances the generation, and views are
materialized lazily and refreshed incrementally from the change log
before each view-assisted execution.
"""

from __future__ import annotations

import os
import threading
from functools import lru_cache
from itertools import chain
from sys import intern as _intern
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from repro.api.cache import CacheStats, PlanCache
from repro.core.access_schema import AccessSchema
from repro.core.executor import (
    ExecutionContext,
    PlanProfile,
    merge_parameter_values,
    pipeline_for,
)
from repro.core.plans import Plan, compile_plan
from repro.core.qdsi import QDSIResult, decide_qdsi
from repro.core.qsi import QSIResult, decide_qsi
from repro.errors import NotControlledError, SchemaError
from repro.logic.ast import _as_variable
from repro.logic.canonical import Query, canonical_form, canonical_key
from repro.logic.cq import ConjunctiveQuery
from repro.logic.parser import TokenStream, _plain_rule, _QueryParser
from repro.logic.terms import Constant, Variable
from repro.logic.ucq import UnionOfConjunctiveQueries, disjuncts_of
from repro.relational.backends.base import StorageBackend
from repro.relational.instance import AccessStats, Database
from repro.relational.schema import DatabaseSchema
from repro.views import ViewSet, compile_with_views

if TYPE_CHECKING:
    from repro.incremental import IncrementalResult

Row = tuple[object, ...]
_KEEP = object()  # Engine._advance: this component of the state stays


class ResultSet:
    """The rows of one execution together with its access accounting.

    Behaves like a read-only sequence of answer tuples; ``stats`` is this
    execution's private :class:`~repro.relational.instance.AccessStats`
    (charged through the execution's own
    :class:`~repro.core.executor.ExecutionContext`, so concurrent
    executions against one engine never contaminate each other's
    counters) and ``fanout_bound`` the plans' a-priori bound on tuples
    accessed (None when no plan was used).
    """

    __slots__ = ("rows", "columns", "stats", "fanout_bound")

    def __init__(
        self,
        rows: Iterable[Row],
        columns: tuple[str, ...],
        stats: AccessStats,
        fanout_bound: int | None = None,
    ):
        self.rows = tuple(rows)
        self.columns = columns
        self.stats = stats
        self.fanout_bound = fanout_bound

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        return self.rows[index]

    def __contains__(self, row: object) -> bool:
        # Only list/tuple coerce: str is a Sequence but tuple("NYC") is
        # a character tuple, not a row.
        return tuple(row) in self.rows if isinstance(row, (list, tuple)) else False

    def __bool__(self) -> bool:
        return bool(self.rows)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ResultSet):
            return self.rows == other.rows
        if isinstance(other, (list, tuple, set, frozenset)):
            try:
                coerced = [tuple(row) for row in other]
            except TypeError:
                return NotImplemented
            if isinstance(other, (set, frozenset)):
                return set(self.rows) == set(coerced)
            return self.rows == tuple(coerced)
        return NotImplemented

    # Equality against a set is order-insensitive, so hashing the ordered
    # rows would break the eq/hash contract; like a list, a ResultSet is
    # simply unhashable (use ``result.rows`` as a key instead).
    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"ResultSet({len(self.rows)} rows, "
            f"{self.stats.tuples_accessed} tuples accessed)"
        )

    def to_dicts(self) -> list[dict[str, object]]:
        """The rows as dictionaries keyed by the head variable names."""
        return [dict(zip(self.columns, row)) for row in self.rows]


class ExplainAnalyze:
    """The payload of ``explain_analyze``: the :class:`ResultSet` of the
    run plus one :class:`~repro.core.executor.PlanProfile` per disjunct --
    measured row counts, access accounting and wall time of each operator
    of the plan's counting pass, which reads what an execute reads and
    derives the same rows in the same order (the per-operator accounting
    sums to ``result.stats``).

    Also the payload of
    :meth:`~repro.incremental.IncrementalResult.explain_analyze`, where
    the measured steps are the faces the refresh applied (``Δ[level]``
    slice joins, ``new[level]`` prefix fetches, ``old[level]`` snapshot
    fetches)."""

    __slots__ = ("result", "profiles")

    def __init__(self, result: ResultSet, profiles: tuple[PlanProfile, ...]):
        self.result = result
        self.profiles = profiles

    def __repr__(self) -> str:
        return (
            f"ExplainAnalyze({len(self.result)} rows, "
            f"{len(self.profiles)} plan(s), "
            f"{self.result.stats.tuples_accessed} tuples accessed)"
        )

    def __str__(self) -> str:
        if len(self.profiles) == 1:
            sections = [str(self.profiles[0])]
        else:
            sections = [
                f"disjunct {i}: {profile.plan.query}\n{profile}"
                for i, profile in enumerate(self.profiles, 1)
            ]
        sections.append(
            f"total: {len(self.result)} rows, "
            f"{self.result.stats.tuples_accessed} tuples accessed "
            f"(bound {self.result.fanout_bound})"
        )
        return "\n\n".join(sections)


class _Compiled:
    """A plan-cache entry: what executing one query shape needs, built
    once inside the single-flight compute.  ``key`` is the shape key it is
    filed under (a prober with an equal one adopts it: identity from then
    on), ``plans`` one plan per disjunct, ``pipes`` their lowered pipelines,
    ``view_names`` the views they read, ``fanout_bound`` their summed bound,
    and ``seeds``: per tuple of parameter keys any query sharing the entry
    executed with, each pipe paired with its binding of their order."""

    __slots__ = ("key", "plans", "pipes", "view_names", "fanout_bound", "seeds")

    def __init__(self, key: tuple, plans: tuple[Plan, ...]):
        self.key, self.plans = key, plans
        self.pipes = tuple([pipeline_for(plan) for plan in plans])
        self.view_names = frozenset().union(*[plan.view_relations for plan in plans])
        self.fanout_bound = sum(plan.fanout_bound for plan in plans)
        self.seeds: dict[tuple, tuple] = {}


class _Shape:
    """What a :class:`PreparedQuery` remembers per parameter-name set that
    compiled: its shape ``key`` (swapped for the plan cache's own equal
    object on the first hit, so later probes compare by identity), the
    entry it ``held`` last with its generation, and ``named``: the last
    shared plans it put into its own names, paired with the result."""

    __slots__ = ("key", "held", "named")

    def __init__(self, key: tuple):
        self.key, self.held, self.named = key, (None, None), (None, ())


class PreparedQuery:
    """A parsed, schema-validated query bound to an :class:`Engine`.

    All plan-producing methods go through the engine's plan cache, which
    holds one entry per query *shape* (module docstring); :meth:`plan`,
    :meth:`explain` and :meth:`diagnostics` show the shared plans in this
    query's own variables and atoms.  The parameter argument is an
    iterable of variable names (``"p"`` or ``"?p"``) or
    :class:`~repro.logic.terms.Variable` objects.
    """

    __slots__ = ("query", "text", "columns", "_engine", "_shapes", "_binds", "_read_keys")

    def __init__(self, engine: "Engine", query: Query, text: str | None = None, read_keys=None):
        self._engine = engine
        self.query = query
        self.text = text if text is not None else str(query)
        self._shapes: dict[frozenset[Variable], _Shape] = {}
        self._read_keys = read_keys or {}  # parameters -> the shape key the reader made under them
        self._binds: dict[tuple, tuple] = {}
        if isinstance(query, UnionOfConjunctiveQueries):
            # The answer columns are named after the head variables, so a
            # union whose disjunct heads disagree on names would silently
            # mislabel to_dicts(); reject it at prepare time.
            heads = {tuple(v.name for v in d.head) for d in query.disjuncts}
            if len(heads) > 1:
                written = " vs ".join("(" + ", ".join(h) + ")" for h in sorted(heads))
                raise ValueError(f"union disjuncts disagree on head variable names: {written}; "
                                 "rename the heads consistently so answer columns are well-defined")
            query = query.disjuncts[0]
        # The answer columns: the head variables (a union's disjunct heads
        # agree on them -- enforced above).
        self.columns = tuple([v.name for v in query.head])

    def __str__(self) -> str:
        return str(self.query)

    def __repr__(self) -> str:
        return f"PreparedQuery({str(self.query)!r})"

    @property
    def arity(self) -> int:
        return self.query.arity

    def is_controlled(self, parameters: Iterable[object] = ()) -> bool:
        """Whether fixing ``parameters`` bounds every variable through the
        engine's access rules (every disjunct, for a union).

        Like every other plan-facing method, ``parameters`` must occur in
        the query (in every disjunct, for a union) -- otherwise ValueError,
        so the verdict can never disagree with :meth:`plan`/:meth:`execute`.
        """
        return bool(self.decide_qsi(parameters))

    def decide_qsi(self, parameters: Iterable[object] = ()) -> QSIResult:
        """The QSI verdict for this query under the engine's access schema."""
        return decide_qsi(self.query, self._engine.access, _parameter_names(parameters))

    def decide_qdsi(self, budget: int) -> QDSIResult:
        """The QDSI verdict on the engine's database within ``budget``
        tuple accesses."""
        return decide_qdsi(
            self.query, self._engine.require_database(), self._engine.access, budget
        )

    def plan(self, parameters: Iterable[object] = ()) -> Plan | tuple[Plan, ...]:
        """The compiled scale-independent plan (one per disjunct for a
        union), via the engine's plan cache.

        It is the shared plan of this query's shape in this query's own
        variables and atoms: same steps, same order, so ``execute_plan`` on
        it returns :meth:`execute`'s rows in :meth:`execute`'s order.

        Raises :class:`repro.errors.NotControlledError` if the query is
        not controlled by ``parameters``.
        """
        params = _parameter_names(parameters)
        plans = self._named(params, self._engine._compiled_for(self, params).plans)
        return plans[0] if isinstance(self.query, ConjunctiveQuery) else plans

    def _named(self, parameters: frozenset[Variable], shared: tuple[Plan, ...]) -> tuple[Plan, ...]:
        """``shared`` (this query's plans from ``Engine._compiled_for``) in
        this query's own names -- renamed once per shared tuple."""
        shape = self._shapes[parameters]
        source, named = shape.named
        if source is not shared:
            _, ways_back = canonical_form(self.query, parameters)
            ways = zip(shared, disjuncts_of(self.query), ways_back)
            named = tuple([plan.renamed(own, *back) for plan, own, back in ways])
            shape.named = (shared, named)
        return named

    def explain(self, parameters: Iterable[object] = ()) -> str:
        """A human-readable rendering of the plan(s) for ``parameters``."""
        params = _parameter_names(parameters)
        plans = self._named(params, self._engine._compiled_for(self, params).plans)
        if len(plans) == 1:
            return plans[0].explain()
        sections = [
            f"disjunct {i}: {plan.query}\n{plan.explain()}"
            for i, plan in enumerate(plans, 1)
        ]
        total = sum(plan.fanout_bound for plan in plans)
        return "\n\n".join(sections) + f"\n\ntotal access bound: {total} tuples"

    def execute(
        self,
        parameters: Mapping[object, object] | None = None,
        **kwargs: object,
    ) -> ResultSet:
        """Compile (or fetch from cache) the plan for the given parameter
        names, run it on the engine's database, and return a
        :class:`ResultSet` with the rows and the access-statistics delta.

        Parameter values may be passed as a mapping and/or as keyword
        arguments: ``q.execute(p=42)`` (one ``dict``, keywords winning).
        The names decide everything but the values, so the query keeps
        one *bind* per tuple of keys as given (:meth:`_bind`); while no
        writer moved the engine's generation, an execute is the values
        unwrapped and interned, the seed columns they fill, the pipeline
        -- and the views it reads brought up to date.
        """
        if kwargs or type(parameters) is not dict:
            parameters = {**parameters, **kwargs} if parameters else kwargs
        engine = self._engine
        database = engine._database or engine.require_database()
        bind = self._binds.get(tuple(parameters))
        if bind is None or bind[0] != engine._state[0]:
            bind = self._bind(tuple(parameters))
        _, compiled, seeds = bind
        values = []
        for value in parameters.values():
            if isinstance(value, Constant):
                value = value.value
            values.append(_intern(value) if type(value) is str else value)
        names = compiled.view_names
        ctx = ExecutionContext(database, views=engine._views.prepare(database, names) if names else None)
        if len(seeds) == 1:
            pipe, binding = seeds[0]
            rows = pipe.run(ctx, pipe.seed(values, binding))
        else:  # each disjunct's rows are distinct; a union's appear once, where first derived
            runs = [pipe.run(ctx, pipe.seed(values, binding)) for pipe, binding in seeds]
            rows = dict.fromkeys(chain(*runs))
        return ResultSet(rows, self.columns, ctx.stats, compiled.fanout_bound)

    def _bind(self, keys: tuple) -> tuple:
        """``(generation, entry, ((pipe, binding), ...))``: what executing
        under the parameter ``keys`` needs, the entry's pipes each with the
        :meth:`~repro.core.executor.Pipeline.binding` of the keys' order
        (worked out once per entry, for every query sharing it).  Kept per
        key tuple unless the plan cache is disabled; nothing that raises is
        kept.  The generation is read before the entry, so a writer in
        between only costs the next execute a rebind."""
        engine = self._engine
        generation = engine._state[0]
        parameters, names = _parameter_order(keys)
        compiled = engine._compiled_for(self, names)
        seeds = compiled.seeds.get(keys)
        if seeds is None:
            seeds = tuple([(pipe, pipe.binding(parameters)) for pipe in compiled.pipes])
            compiled.seeds[keys] = seeds
        bind = (generation, compiled, seeds)
        if engine._cache.maxsize != 0:
            self._binds[keys] = bind
        return bind

    def execute_incremental(
        self,
        parameters: Mapping[object, object] | None = None,
        **kwargs: object,
    ) -> "IncrementalResult":
        """Execute like :meth:`execute`, but materialize the answers as an
        :class:`~repro.incremental.IncrementalResult`: after database
        mutations, ``result.refresh()`` re-answers the query from the
        change log with delta-bounded access instead of recomputing.

        Plans are compiled (or fetched) like :meth:`execute`'s; a refresh
        that finds the access schema or the views replaced rebases onto
        freshly compiled plans.
        Raises :class:`~repro.errors.IncrementalError` for plans that
        fetch through embedded access rules.
        """
        from repro.incremental import IncrementalResult

        values = merge_parameter_values(parameters, kwargs)
        return IncrementalResult(self._engine, self, values, self.columns)

    def explain_analyze(
        self,
        parameters: Mapping[object, object] | None = None,
        **kwargs: object,
    ) -> ExplainAnalyze:
        """Execute like :meth:`execute`, as the counting pass of the same
        plan -- same reads, same rows, same order -- while recording each
        operator's row counts, access accounting and wall time
        (:func:`repro.core.executor.profile_plan`).
        Returns an :class:`ExplainAnalyze` whose ``result`` is that run's
        :class:`ResultSet` and whose ``profiles`` hold one
        :class:`~repro.core.executor.PlanProfile` per disjunct -- of the
        shared plan that ran, so operator labels name its canonical
        variables (``?v0``, ...); :meth:`explain` has the caller's."""
        values = merge_parameter_values(parameters, kwargs)
        engine = self._engine
        database = engine.require_database()
        compiled = engine._compiled_for(self, frozenset(values))
        names = compiled.view_names
        ctx = ExecutionContext(database, views=engine._views.prepare(database, names) if names else None)
        profiles = []
        for pipe in compiled.pipes:  # profile_plan's pass on the entry's pipes: no memo probe
            program = pipe.program()
            ctx.profile = profile = PlanProfile(pipe.plan)
            profile.rows = tuple(program.count(ctx, program.seed(values)))
            profiles.append(profile)
        rows = dict.fromkeys(chain(*[profile.rows for profile in profiles]))
        result = ResultSet(rows, self.columns, ctx.stats, compiled.fanout_bound)
        return ExplainAnalyze(result, tuple(profiles))

    def diagnostics(self, parameters: Iterable[object] = ()):
        """Statically analyze this query under the engine's access schema
        (:mod:`repro.analysis`): the QRY007 / ACC005 controllability
        trace under the base access rules, and the INC / CST passes when
        the query compiles (views included).  Returns a
        :class:`repro.analysis.Report`; nothing executes."""
        from repro.analysis import analyze_prepared

        return analyze_prepared(self, parameters)


class Engine:
    """The front door: a schema, an access schema and a database, with
    textual queries, plan caching and bounded execution on top.

    ``schema`` and ``access`` may be given as objects or as DSL text
    (parsed with :meth:`DatabaseSchema.parse` / :meth:`AccessSchema.parse`);
    ``data`` may be a :class:`Database` or a ``{relation: rows}`` mapping.
    Omitting ``access`` means "no access rules" (nothing is controlled);
    omitting ``data`` leaves the engine planning-only until one is bound.

    ``backend`` selects the storage engine
    (:mod:`repro.relational.backends`) for the database the engine
    constructs -- from a ``{relation: rows}`` mapping, from ``data=None``
    (the empty database created on first :meth:`load` / :meth:`add`), or
    empty at construction when only ``backend`` is given.  It cannot be
    combined with a ready-made :class:`Database`, which already owns its
    backend.

    ``certify=True`` runs the independent plan certifier
    (:mod:`repro.analysis.certify`) over every plan this engine compiles
    -- base, view-augmented and incremental-rebase plans alike -- inside
    the plan cache's single-flight compute, so each cached plan is
    certified exactly once; one that fails raises
    :class:`~repro.errors.CertificationError` instead of entering the
    cache.  The default (``certify=None``) follows ``REPRO_CERTIFY`` (any
    value other than empty or ``0``; the test suite sets it suite-wide)."""

    __slots__ = (
        "_schema",
        "_state",
        "_access_lock",
        "_database",
        "_cache",
        "_texts",
        "_views",
        "_certify",
    )

    def __init__(
        self,
        schema: DatabaseSchema | str,
        access: AccessSchema | str | None = None,
        data: Database | Mapping[str, Iterable[Sequence[object]]] | None = None,
        *,
        backend: "StorageBackend | None" = None,
        plan_cache_size: int | None = 128,
        certify: bool | None = None,
    ):
        if isinstance(schema, str):
            schema = DatabaseSchema.parse(schema)
        elif not isinstance(schema, DatabaseSchema):
            raise SchemaError(f"{schema!r} is not a DatabaseSchema or schema text")
        self._schema = schema
        self._cache = PlanCache(plan_cache_size)
        self._texts = PlanCache(plan_cache_size)  # text or query -> PreparedQuery
        self._views = ViewSet(schema)
        self._views._owner = self  # register/drop call _advance()
        # (generation, (access schema, view catalog), CostStats | None): one
        # slot, so a reader gets a generation and the state it names in one
        # load.  The middle pair is a plan's *basis* (what its validity
        # depends on); writers serialize on _access_lock (_advance).
        self._access_lock = threading.Lock()
        self._state = (0, (self._coerce_access(access), self._views.snapshot()), None)
        if certify is None:
            certify = os.environ.get("REPRO_CERTIFY", "") not in ("", "0")
        self._certify = bool(certify)
        self._database: Database | None = None
        if isinstance(data, Database):
            if backend is not None:
                raise SchemaError(
                    "backend= cannot be combined with a ready-made Database: "
                    "the database already owns its storage backend"
                )
            self.database = data
        elif data is not None or backend is not None:
            self.database = Database(schema, data, backend=backend)

    # -- bound components ------------------------------------------------

    @property
    def schema(self) -> DatabaseSchema:
        return self._schema

    @property
    def access(self) -> AccessSchema:
        return self._state[1][0]

    @access.setter
    def access(self, access: AccessSchema | str | None) -> None:
        """Replace the access schema.  Every cached plan embeds access
        rules, so the plan cache is invalidated; advancing the generation
        also strands any compilation already in flight under the old
        schema on a cache key that can never be served again."""
        self._advance(self._coerce_access(access))
        self._cache.invalidate()

    @property
    def certify(self) -> bool:
        """Whether this engine certifies every plan it compiles
        (:mod:`repro.analysis.certify`)."""
        return self._certify

    @property
    def views(self) -> ViewSet:
        """The engine's materialized-view registry (:mod:`repro.views`):
        ``engine.views.register(name, query, access)`` /
        ``engine.views.drop(name)``.  Registering or dropping a view
        advances the engine's generation -- a plan compiled against a
        different view population can never be served.  Queries that are
        not controlled over the base
        access schema are automatically rewritten over the registered
        views at compile time; views are materialized lazily and kept
        fresh from the change log before every view-assisted execution.
        """
        return self._views

    @property
    def database(self) -> Database | None:
        return self._database

    @database.setter
    def database(self, database: Database | None) -> None:
        if database is not None:
            if not isinstance(database, Database):
                raise SchemaError(f"{database!r} is not a Database")
            if database.schema != self._schema:
                raise SchemaError(
                    "database schema does not match the engine's schema"
                )
        self._database = database

    def _coerce_access(self, access: AccessSchema | str | None) -> AccessSchema:
        if access is None:
            return AccessSchema(self._schema, ())
        if isinstance(access, str):
            return AccessSchema.parse(self._schema, access)
        if not isinstance(access, AccessSchema):
            raise SchemaError(f"{access!r} is not an AccessSchema or access-rule text")
        if access.schema != self._schema:
            raise SchemaError("access schema is over a different database schema")
        return access

    def require_database(self) -> Database:
        """The bound database, or a SchemaError telling the caller to bind
        one."""
        if self._database is None:
            raise SchemaError(
                "no database is bound to the engine; pass data= or set "
                "engine.database before executing"
            )
        return self._database

    # -- data loading ----------------------------------------------------

    def load(self, data: Mapping[str, Iterable[Sequence[object]]]) -> "Engine":
        """Insert ``{relation: rows}`` into the bound database (creating an
        empty one first if none is bound).  Returns the engine, so loading
        chains off the constructor."""
        if self._database is None:
            self._database = Database(self._schema)
        for relation, rows in data.items():
            self._database.insert_many(relation, rows)
        return self

    def add(self, relation: str, row: Sequence[object]) -> bool:
        """Insert one tuple (creating an empty database if none is bound)."""
        if self._database is None:
            self._database = Database(self._schema)
        return self._database.add(relation, row)

    # -- the workflow ----------------------------------------------------

    def query(self, query: str | Query) -> PreparedQuery:
        """Parse (if textual) and schema-validate ``query``, returning a
        :class:`PreparedQuery` bound to this engine.

        Text and query objects alike go through the engine's memo: each
        distinct source is parsed or validated once (single-flight under
        concurrency) and later calls may return the same object; a source
        that raises is not remembered, so it raises identically every time."""
        if not isinstance(query, (str, ConjunctiveQuery, UnionOfConjunctiveQueries)):
            expected = "query text, a ConjunctiveQuery or a UnionOfConjunctiveQueries"
            raise TypeError(f"expected {expected}, got {type(query).__name__}")
        return self._texts.get_or_compute(query, lambda: self._prepare(query))

    def execute(
        self,
        query: str | Query,
        parameters: Mapping[object, object] | None = None,
        **kwargs: object,
    ) -> ResultSet:
        """One-shot convenience: ``engine.query(q).execute(...)``.  A text the
        memo has not seen is read under these parameter names, so a plain rule
        (:mod:`repro.logic.parser`) comes with its shape key: its first execute
        skips the canonical walk."""
        if not isinstance(query, str):
            return self.query(query).execute(parameters, **kwargs)
        keys = (*(parameters or ()), *kwargs)  # the names a never-seen text is read under
        prepared = self._texts.get_or_compute(query, lambda: self._prepare(query, keys))
        return prepared.execute(parameters, **kwargs)

    def _prepare(self, source: str | Query, keys: tuple | None = None) -> PreparedQuery:
        """A memo miss, prepared: a text matched as a plain rule once, else read by
        the token parser (a plain rule read under an execute's parameter
        ``keys`` brings its shape key); a query object schema-validated."""
        if not isinstance(source, str):
            self._schema.validate_query(source)
            return PreparedQuery(self, source)
        names = None if keys is None else _parameter_order(keys)[1]
        plain = _plain_rule(source, self._schema, None if names is None else {v.name for v in names})
        if plain is None:
            return PreparedQuery(self, _QueryParser(TokenStream(source), self._schema).parse(), source)
        return PreparedQuery(self, plain[0], source, None if names is None else {names: plain[1]})

    def analyze(self, queries: Iterable[object] = (), *, source: str | None = None):
        """Statically analyze the engine (:mod:`repro.analysis`):
        :meth:`PreparedQuery.diagnostics` per entry of ``queries`` (query
        text, query objects, ``PreparedQuery`` objects, ``(query,
        parameters)`` pairs or ``(query, parameters, source)`` triples).
        Returns a :class:`repro.analysis.Report`; nothing executes."""
        from repro.analysis import analyze_engine

        return analyze_engine(self, queries, source=source)

    # -- cost statistics -------------------------------------------------

    @property
    def cost_stats(self):
        """The observed :class:`~repro.analysis.cost.CostStats` refining
        cost-based plan selection, or None (purely static costs)."""
        return self._state[2]

    def refresh_cost_stats(self, stats=None):
        """Collect observed statistics from the bound database (or
        install a ready-made :class:`~repro.analysis.cost.CostStats`) for
        profile-guided plan selection, and return them.

        Collection reads only unaccounted backend primitives -- no query
        executes and no access is charged.  Installing them advances the
        generation, so plan choices made under the previous statistics
        are stranded, never served."""
        from repro.analysis.cost import CostStats

        if stats is None:
            stats = CostStats.from_database(self.require_database())
        elif not isinstance(stats, CostStats):
            raise SchemaError(f"{stats!r} is not a CostStats")
        self._advance(cost_stats=stats)
        return stats

    def clear_cost_stats(self) -> None:
        """Drop observed statistics: selection reverts to the purely
        static (declared-bound) cost model."""
        self._advance(cost_stats=None)

    # -- caches ----------------------------------------------------------

    def cache_stats(self) -> CacheStats:
        """Hit/miss/eviction counters of plan-cache *probes* (an execute
        its query's held entry serves makes none) and the cache's size."""
        return self._cache.stats()

    def text_cache_stats(self) -> CacheStats:
        """The same counters for the memo of query sources, text and query
        objects alike (a miss is a parse or a validation; the memo is
        never invalidated)."""
        return self._texts.stats()

    def clear_plan_cache(self) -> None:
        """Drop every compiled plan, held ones included.  The text memo is
        left alone: parsed queries do not depend on anything that can change."""
        self._advance()
        self._cache.invalidate()

    def _advance(self, access: AccessSchema | None = None, cost_stats=_KEEP) -> None:
        """Replace the state slot whole under the next generation -- the
        one write every writer makes (``ViewSet.register`` / ``drop``
        through ``_owner``).  The basis is a new pair when ``access`` is
        given or the view catalog changed, the same object otherwise: a
        maintained result rebases exactly when its basis is replaced."""
        with self._access_lock:  # no lost generations between writers
            generation, basis, stats = self._state
            catalog = self._views.snapshot()
            if access is not None or catalog is not basis[1]:
                basis = (basis[0] if access is None else access, catalog)
            self._state = (generation + 1, basis, stats if cost_stats is _KEEP else cost_stats)

    def _compiled_for(self, prepared: PreparedQuery, parameters: frozenset[Variable]) -> _Compiled:
        """What executes ``prepared`` under ``parameters``: the plan-cache
        entry of its shape, shared with every renaming and atom reordering
        of it (``PreparedQuery._named`` leads back), which ``prepared`` holds
        and probes for again only once a writer moved the generation."""
        generation, basis, cost_stats = self._state  # one load: a key never served again if stale
        shape = prepared._shapes.get(parameters)
        if shape is None:  # ... and not remembered yet: a parameter set that fails never is
            shape = _Shape(prepared._read_keys.get(parameters) or canonical_key(prepared.query, parameters))
        else:
            held, compiled = shape.held
            if held == generation:
                return compiled
        shape_key = shape.key

        def compile_shape() -> _Compiled:
            canonical, _ = canonical_form(prepared.query, parameters)
            return _Compiled(shape_key, self._compile(canonical, parameters, *basis, cost_stats))

        try:  # single-flight: N concurrent cold starts of one shape compile once
            compiled = self._cache.get_or_compute((generation, shape_key, parameters), compile_shape)
        except NotControlledError:
            compiled = None  # never cached: the query as written fails the same way, in its own words
        if compiled is None:
            compiled = _Compiled(shape_key, self._compile(prepared.query, parameters, *basis, cost_stats))
        elif compiled.key is not shape_key:
            shape.key = compiled.key  # an equal key's entry: probe by identity next
        if self._cache.maxsize != 0:  # a disabled cache holds nothing either
            shape.held = (generation, compiled)
        prepared._shapes[parameters] = shape
        return compiled

    def _compile(
        self, query: Query, parameters: frozenset[Variable], access, catalog, cost_stats
    ) -> tuple[Plan, ...]:
        """Compile, price and (when certifying) certify ``query``: one
        plan per disjunct."""

        def compile_one(disjunct: ConjunctiveQuery) -> Plan:
            try:
                base = compile_plan(disjunct, access, params)
            except NotControlledError as exc:
                if not len(catalog):
                    raise
                # Not controlled over base data alone: try rewriting
                # over the registered views (Section 6).  Raises a
                # combined NotControlledError -- carrying the base
                # failure's diagnostic -- if the views do not help
                # either.
                return compile_with_views(
                    disjunct, access, catalog, params, base_error=exc
                )
            if not len(catalog):
                return base
            # Controlled over base data: selection is cost-based, not
            # augmentation-only.  Price the view-augmented candidate
            # too and keep the cheaper plan (ties keep the base plan:
            # it needs no view freshness pass before executing).
            try:
                augmented = compile_with_views(disjunct, access, catalog, params)
            except NotControlledError:
                return base
            from repro.analysis.cost import check_selection, estimate_plan

            estimates = [
                estimate_plan(candidate, cost_stats)
                for candidate in (base, augmented)
            ]
            chosen, rejected = (
                (0, 1) if estimates[0].total <= estimates[1].total else (1, 0)
            )
            # The optimizer's own must-fail check (CST001): the
            # chosen estimate can never exceed the rejected one.
            check_selection(estimates[chosen], (estimates[rejected],))
            return (base, augmented)[chosen]

        # Compile with a deterministic parameter order; values are
        # matched by name at execution time, so order is cosmetic.
        params = tuple(sorted(parameters, key=lambda v: v.name))
        plans = tuple(compile_one(disjunct) for disjunct in disjuncts_of(query))
        if self._certify:
            # Inside the single-flight compute: each cached plan is
            # certified exactly once, and a failing plan never enters
            # the cache (the CertificationError propagates to every
            # waiter and the key is cleared).
            from repro.analysis.certify import check_plan

            for plan in plans:
                check_plan(plan, access, catalog.definitions())
        return plans


def _parameter_names(parameters: Iterable[object]) -> frozenset[Variable]:
    return frozenset(_as_variable(p) for p in parameters)


@lru_cache(maxsize=4096)
def _parameter_order(keys: tuple) -> tuple[tuple[Variable, ...], frozenset[Variable]]:
    """The variables a tuple of parameter keys names, in order and as a
    set -- memoised: the same keys recur on every fresh query."""
    parameters = tuple(map(_as_variable, keys))
    return parameters, frozenset(parameters)
