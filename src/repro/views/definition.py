"""View definitions, materialized view states and the view registry.

A :class:`ViewDef` is a named conjunctive query over the base schema --
``V1(pid, follower) :- friend(follower, pid)`` -- together with the
access rules the *view* offers once materialized (``V1(pid -> 64)``:
given a pid, at most 64 follower rows).  A :class:`ViewSet` registers
definitions against one base :class:`~repro.relational.schema.DatabaseSchema`,
versioned so plan caches never mix view populations, and owns
the per-database :class:`ViewState` materializations.

Materialization and maintenance reuse the batched operator pipeline
end to end:

* the *maintenance plan* is the view's query compiled under a permissive
  access schema (one full-relation rule per base table), so the initial
  fill is one :meth:`~repro.core.executor.DeltaProgram.count` pass --
  per-answer derivation multiplicities, the state signed deltas compose
  against;
* a *refresh* takes the database's change-log slice past the view's
  watermark -- the one shared :class:`~repro.relational.instance.LogSlice`
  of that span, the same object every incremental result refreshing over
  it joins -- and runs the maintenance plan's
  :class:`~repro.core.executor.DeltaProgram` (compiled once, when the
  state is built): the standard telescoping delta rule, folding the
  signed changes into the counts instead of recomputing the join.  A
  one-atom view over distinct variables, all in its head (an inverted
  edge index, say), needs no rule: its answer change is its relation's
  slice with the columns permuted -- no join, no stored tuple read.

Every refresh that changes the answer hands its set-level net (rows
entering/leaving the view) to the state's :attr:`ViewState.readers`, the
incremental results whose plans read the view: it is folded into their
pending changes and marks them, so a reader joins a view's answer change
exactly like a base relation's -- it rides in the reader's change slice
under the view's name -- and a reader no write or view change concerns
joins nothing.  A state pins its watermark in the database's
:class:`~repro.relational.instance.ChangeLog`.
"""

from __future__ import annotations

import threading
from typing import Iterable, Iterator
from weakref import WeakSet

from repro.core.access_schema import (
    AccessRule,
    AccessSchema,
    EmbeddedAccessRule,
    FullAccessRule,
    parse_access_schema,
)
from repro.core.executor import ExecutionContext, delta_program, fold
from repro.core.plans import Plan, compile_plan
from repro.errors import RewritingError, SchemaError
from repro.logic.ast import Atom
from repro.logic.cq import ConjunctiveQuery
from repro.logic.parser import parse_query
from repro.logic.terms import Term, Variable
from repro.relational.backends.base import key_getter
from repro.relational.backends.memory import MemoryBackend
from repro.relational.instance import AccessStats, Database
from repro.relational.interning import intern_rows
from repro.relational.schema import DatabaseSchema, RelationSchema

Row = tuple[object, ...]

#: The per-fetch bound of the permissive access schema maintenance plans
#: compile against.  Materializing a view is an offline, O(database) job
#: by design, so the bound only has to be "effectively unbounded".
MAINTENANCE_SCAN_BOUND = 1 << 30


def maintenance_access(schema: DatabaseSchema) -> AccessSchema:
    """A permissive access schema over ``schema``: every relation readable
    in full.  Under it every (safe, satisfiable) conjunctive query is
    controlled, so view definitions compile to ordinary fetch/probe plans
    -- full scan at the root, indexed joins below -- and inherit the
    executor's batched and delta faces for free."""
    return AccessSchema(
        schema,
        tuple(FullAccessRule(name, MAINTENANCE_SCAN_BOUND) for name in schema.names),
    )


class ViewDef:
    """A named conjunctive query over the base schema, plus the access
    rules its materialization offers.

    ``query`` may be a :class:`~repro.logic.cq.ConjunctiveQuery` or query
    text (the head name in the text is cosmetic; the view's name is
    ``name``).  The head variables become the view relation's attributes,
    so they must be distinct -- a repeated head variable has no
    well-defined column and raises :class:`~repro.errors.RewritingError`
    here, at definition time, never at first execute.

    ``access`` declares the bounded access paths of the materialized
    view, as rule objects or DSL text parsed against the view's relation
    schema (e.g. ``"V1(pid -> 64)"``).  Only plain and full rules are
    allowed; an embedded rule on a view has no meaning (the view stores
    full answer rows).  A view with no rules can still be materialized
    and probed, but offers the planner no way to *bind* new variables.
    """

    __slots__ = ("name", "query", "relation", "rules")

    def __init__(
        self,
        name: str,
        query: ConjunctiveQuery | str,
        access: str | Iterable[AccessRule] | None = None,
    ):
        if not name or not name.isidentifier():
            raise SchemaError(
                f"view name must be a non-empty identifier, got {name!r}"
            )
        self.name = name
        if isinstance(query, str):
            query = parse_query(query)
        if not isinstance(query, ConjunctiveQuery):
            raise RewritingError(
                f"a view is defined by a single conjunctive query, "
                f"got {type(query).__name__}"
            )
        if not query.body:
            raise RewritingError(
                f"view {name!r} needs at least one body atom; an empty "
                f"body defines no relation over the base schema"
            )
        seen = set()
        for variable in query.head:
            if variable in seen:
                raise RewritingError(
                    f"view {name!r} repeats head variable ?{variable}: view "
                    f"columns are named by the head, so every head variable "
                    f"must be distinct (add an explicit equality instead)"
                )
            seen.add(variable)
        self.query = query
        self.relation = RelationSchema(name, tuple(v.name for v in query.head))
        self.rules = self._coerce_rules(access)

    def _coerce_rules(
        self, access: str | Iterable[AccessRule] | None
    ) -> tuple[AccessRule, ...]:
        if access is None:
            return ()
        if isinstance(access, str):
            parsed = parse_access_schema(DatabaseSchema([self.relation]), access)
            rules = tuple(parsed)
        else:
            rules = tuple(access)
        for rule in rules:
            if not isinstance(rule, AccessRule):
                raise SchemaError(f"{rule!r} is not an AccessRule")
            if isinstance(rule, EmbeddedAccessRule):
                raise SchemaError(
                    f"view {self.name!r}: embedded access rules are not "
                    f"supported on views (a materialized view stores full "
                    f"answer rows; declare a plain rule instead)"
                )
            if rule.relation != self.name:
                raise SchemaError(
                    f"view {self.name!r}: access rule {rule} is declared on "
                    f"relation {rule.relation!r}, not on the view"
                )
            rule.validate(DatabaseSchema([self.relation]))
        return rules

    def validate(self, schema: DatabaseSchema) -> None:
        """Check the defining query against the *base* ``schema``: every
        body relation must exist there with the right arity.  (Views over
        views are intentionally unsupported: a view is defined over base
        tables only, so its maintenance plan reads the change log
        directly.)"""
        try:
            schema.validate_query(self.query)
        except SchemaError as exc:
            raise SchemaError(
                f"view {self.name!r} is not definable over the base "
                f"schema: {exc}"
            ) from exc
        if self.name in schema:
            raise SchemaError(
                f"view name {self.name!r} collides with a base relation"
            )

    def stands_for(self, atom: Atom) -> tuple[Atom, ...]:
        """The base atoms ``atom`` -- one over this view -- stands for: the
        equality-normalised body with the head replaced by ``atom``'s
        terms, which is in the database exactly when ``atom`` is in a
        current materialization.  Nothing for a *projecting* view, whose
        normalised body mentions a variable its head does not (``V(pid)
        :- friend(pid, y)`` proves that *some* friend exists, not the one
        a query names), nor for terms the head cannot produce."""
        subst = self.query.equality_substitution()
        if subst is None:
            return ()
        to: dict[Term, Term] = {}
        for column, term in zip(self.query.head, atom.terms):
            column = subst.get(column, column)
            fits = to.setdefault(column, term) if isinstance(column, Variable) else column
            if fits != term:
                return ()
        body = [a.substitute(subst) for a in self.query.body]
        if any(isinstance(t, Variable) and t not in to for a in body for t in a.terms):
            return ()
        return tuple(a.substitute(to) for a in body)

    def maintenance_plan(self, schema: DatabaseSchema) -> Plan:
        """The view's query compiled under the permissive access schema:
        the plan materialization and every refresh execute through."""
        return compile_plan(self.query, maintenance_access(schema), ())

    def __repr__(self) -> str:
        return f"ViewDef({self.name!r}, {str(self.query)!r})"

    def __str__(self) -> str:
        head = ", ".join(v.name for v in self.query.head)
        body = str(self.query).split(" <- ", 1)
        definition = body[1] if len(body) == 2 else ""
        return f"{self.name}({head}) <- {definition}"


class ViewState:
    """One view's materialization against one database: the answer rows,
    their derivation :attr:`counts`, the watermark the answers are valid
    at, and the :attr:`readers` its answer changes go to.

    The rows live in :attr:`store`, a private
    :class:`~repro.relational.backends.memory.MemoryBackend` over the
    view's one-relation schema -- so a view is read exactly like a base
    relation, through ``store.lookup_keys(name, positions, keys, stats)``
    / ``store.contains_rows(name, rows, stats)``, with the backend's lazily
    built, in-place maintained indexes.  The store's cumulative counters
    are its own: a view read is charged to the stats object the caller
    passes and never to the database's -- it is not a base-table access.
    A :attr:`flat` view (non-projecting, as :meth:`ViewDef.stands_for`
    reads it) has one derivation per row, so it keeps no counts and its
    delta join's changes *are* its answer net; a projecting view keeps one
    count per row and folds its changes like a maintained result
    (:func:`~repro.core.executor.fold`).  A :attr:`one_atom`
    view -- one atom over distinct variables, all in the head -- needs no
    join either: its answer net is its relation's slice, permuted.
    """

    __slots__ = (
        "view", "db", "program", "watermark", "_counts", "seeded", "store", "flat", "one_atom", "readers",
        "__weakref__",  # the change log pins its consumers weakly
    )

    def __init__(self, view: ViewDef, db: Database):
        self.view = view
        self.db = db
        self.program = delta_program(view.maintenance_plan(db.schema))
        # Snapshot the watermark before executing: mutations are
        # single-writer by contract, so the counting pass sees exactly
        # the state at this watermark.
        self.watermark = db.change_log.watermark
        self.seeded = self.program.seed({})  # a maintenance plan has no parameters
        counts = self.program.count(ExecutionContext(db), self.seeded)
        rows = intern_rows(counts)  # a backend's reads need not share strings
        self.store = MemoryBackend()
        self.store.attach(DatabaseSchema([view.relation]), AccessStats())
        self.store.insert_rows(view.name, rows)
        self.flat = bool(view.stands_for(Atom(view.name, view.query.head)))
        self._counts = None if self.flat else dict(zip(rows, counts.values()))
        query, terms = view.query, view.query.body[0].terms
        permutes = len(query.body) == 1 and not query.equalities
        permutes = permutes and len(set(terms)) == len(terms) == len(query.head)
        self.one_atom = (query.body[0].relation, tuple(map(terms.index, query.head))) if permutes else None
        self.readers: WeakSet = WeakSet()  # the IncrementalResults reading the view
        db.change_log.pin(self)  # hold the log at our watermark while we live

    def __repr__(self) -> str:
        return f"ViewState({self.view.name!r}, {len(self)} rows, watermark={self.watermark})"

    def __len__(self) -> int:
        return self.store.count(self.view.name)

    @property
    def counts(self) -> dict[Row, int]:
        """Every answer row's derivation count (a copy)."""
        return dict.fromkeys(self.rows, 1) if self.flat else dict(self._counts)

    @property
    def rows(self) -> tuple[Row, ...]:
        """The current answer rows, in first-derivation order (a row that
        left and re-entered the view comes last)."""
        return tuple(self.store.iter_rows(self.view.name))

    # -- maintenance -----------------------------------------------------

    def refresh(self) -> dict[Row, int]:
        """Bring the materialization up to date with the change log past the
        view's watermark and return the set-level net (``row -> +1``
        entered, ``-1`` left; empty when the slice changed nothing).  A
        one-atom view permutes its relation's slice; any other view runs
        its delta program -- never a recompute, but under full-relation
        rules, so a change below level 0 may read a whole relation."""
        log = self.db.change_log
        slice = log.latest  # cut by the maintained results refreshing first
        if slice is None or slice.start != self.watermark:
            if log.watermark == self.watermark:
                return {}
            slice = log.slice_since(self.watermark)
        net: dict[Row, int] = {}
        if slice.net:
            # Nothing below moves before the delta ran to completion: a
            # failed refresh leaves counts, store, readers and watermark
            # as they were, so a retry starts from consistent state.
            if self.one_atom is None:
                changes = self.program.join(ExecutionContext(self.db, delta=slice), self.seeded)
            else:  # the answer change is the relation's net change, permuted
                relation, columns = self.one_atom
                rows = slice.net.get(relation, {})
                changes = dict(zip(map(key_getter(columns), rows), rows.values()))
            # A flat view's every count is 0 or 1: a change is an answer change.
            net = changes if self.flat else fold(self._counts, (changes,))
            if net:
                # The backend maintains every index it has built, in place.
                name = self.view.name
                self.store.delete_rows(name, [r for r, sign in net.items() if sign < 0])
                self.store.insert_rows(name, [r for r, sign in net.items() if sign > 0])
                # Each reader joins the net on its next refresh: before the
                # watermark moves, so a state ``prepare`` serves as fresh
                # has handed its change to every reader.
                for reader in self.readers:
                    pending = reader._pending.setdefault(name, {})
                    for row, sign in net.items():
                        if pending.pop(row, 0) + sign:  # a row back where it was drops out
                            pending[row] = sign
                    if not pending:
                        del reader._pending[name]
                    reader._mark.marked = True
        self.watermark = slice.stop
        return net


class ViewCatalog:
    """An immutable snapshot of a :class:`ViewSet` at one version: the
    registered definitions plus the extended schema/access they induce.

    Compilation must see one consistent view population end to end --
    the same reason the Engine reads its ``(generation, state)`` slot in
    one load -- so :meth:`ViewSet.snapshot` hands the planner a catalog
    instead of live registry reads: a concurrent register/drop can move
    the generation (stranding the resulting cache key) but can never
    make the rewrite see views the extended schema lacks.
    """

    __slots__ = ("schema", "version", "_defs", "_ext_schema")

    def __init__(
        self, schema: DatabaseSchema, version: int, defs: tuple[ViewDef, ...]
    ):
        self.schema = schema
        self.version = version
        self._defs = defs
        self._ext_schema: DatabaseSchema | None = None

    def __len__(self) -> int:
        return len(self._defs)

    def definitions(self) -> tuple[ViewDef, ...]:
        return self._defs

    def names(self) -> tuple[str, ...]:
        return tuple(view.name for view in self._defs)

    def extended_schema(self) -> DatabaseSchema:
        """The base schema plus one relation per view (memoized; the
        catalog is immutable, so it can never go stale)."""
        extended = self._ext_schema
        if extended is None:
            extended = DatabaseSchema(
                tuple(self.schema) + tuple(view.relation for view in self._defs)
            )
            self._ext_schema = extended
        return extended

    def extended_access(self, access: AccessSchema) -> AccessSchema:
        """``access``'s rules plus every view's rules, over the extended
        schema."""
        return AccessSchema(
            self.extended_schema(),
            tuple(access) + tuple(r for view in self._defs for r in view.rules),
        )


class ViewSet:
    """The registry of view definitions over one base schema, plus their
    per-database materializations.

    Registration and drops bump :attr:`version` and advance the owning
    Engine's generation, so registering or dropping a view can never
    serve a plan compiled against a different view population.
    Registry mutation and bookkeeping go through an internal lock;
    materialization and refreshes serialize *per view* (two different
    views prepare in parallel, and preparing one never blocks registry
    reads).  Database mutations stay single-writer by the same contract
    as everywhere else.
    """

    __slots__ = ("schema", "_lock", "_defs", "_states", "_state_locks", "_version", "_catalog", "_owner")

    def __init__(self, schema: DatabaseSchema):
        if not isinstance(schema, DatabaseSchema):
            raise SchemaError(f"{schema!r} is not a DatabaseSchema")
        self.schema = schema
        self._lock = threading.Lock()
        self._defs: dict[str, ViewDef] = {}
        self._states: dict[str, ViewState] = {}
        self._state_locks: dict[str, threading.Lock] = {}
        self._version = 0
        self._catalog: ViewCatalog | None = None
        # Back-reference set by the owning Engine: register/drop advance
        # its generation.
        self._owner = None

    @property
    def version(self) -> int:
        """Bumped on every register/drop (the catalog's version)."""
        return self._version

    def __len__(self) -> int:
        return len(self._defs)

    def __contains__(self, name: object) -> bool:
        return name in self._defs

    def __iter__(self) -> Iterator[ViewDef]:
        return iter(tuple(self._defs.values()))

    def __repr__(self) -> str:
        return f"ViewSet({list(self._defs)!r})"

    def names(self) -> tuple[str, ...]:
        return tuple(self._defs)

    def definitions(self) -> tuple[ViewDef, ...]:
        return tuple(self._defs.values())

    def get(self, name: str) -> ViewDef:
        try:
            return self._defs[name]
        except KeyError:
            raise SchemaError(
                f"unknown view {name!r} "
                f"(registered: {', '.join(self._defs) or 'none'})"
            ) from None

    def state(self, name: str) -> ViewState | None:
        """The current materialization of ``name`` (None before the first
        execution/refresh touches it)."""
        self.get(name)
        return self._states.get(name)

    # -- registration ----------------------------------------------------

    def register(
        self,
        view: ViewDef | str,
        query: ConjunctiveQuery | str | None = None,
        access: str | Iterable[AccessRule] | None = None,
    ) -> ViewDef:
        """Register a view -- either a prebuilt :class:`ViewDef` or
        ``register(name, query, access)`` pieces.

        Everything that can go wrong fails *here*, not at first execute:
        unknown body relations and name collisions raise
        :class:`~repro.errors.SchemaError`; a repeated head variable or an
        empty body raises :class:`~repro.errors.RewritingError`; the
        maintenance plan is compiled eagerly so a malformed definition
        can never be registered at all.
        """
        if not isinstance(view, ViewDef):
            if query is None:
                raise SchemaError(
                    "register() needs a ViewDef or (name, query[, access])"
                )
            view = ViewDef(view, query, access)
        elif query is not None or access is not None:
            raise SchemaError(
                "register() takes either a ViewDef or (name, query[, "
                "access]) pieces, not both"
            )
        view.validate(self.schema)
        with self._lock:
            if view.name in self._defs:
                raise SchemaError(f"view {view.name!r} is already registered")
            view.maintenance_plan(self.schema)  # compiled here, so it can fail here
            self._defs[view.name] = view
            self._version += 1
            self._catalog = None
        if self._owner is not None:
            self._owner._advance()
        return view

    def drop(self, name: str) -> ViewDef:
        """Unregister ``name`` and discard its materialization.  Plans
        compiled against it become unreachable (the owner's generation
        moves past them)."""
        with self._lock:
            view = self.get(name)
            del self._defs[name]
            self._states.pop(name, None)
            self._state_locks.pop(name, None)
            self._version += 1
            self._catalog = None
        if self._owner is not None:
            self._owner._advance()
        return view

    # -- schema extension (what the view-aware planner compiles against) --

    def snapshot(self) -> ViewCatalog:
        """An immutable ``(version, definitions)`` catalog read in one
        locked step -- what the Engine compiles against (its state slot
        keeps the one it read at its last write), so a concurrent
        register/drop can never mismatch the rewrite and the extended
        schema (memoized per version: the same object until one).

        The memoized read is lock-free: the attribute is replaced
        atomically (reset to None under the registry lock by
        register/drop, rebuilt here), and a reader that observes a
        just-replaced catalog still gets a *consistent* (version,
        definitions) pair."""
        catalog = self._catalog
        if catalog is not None:
            return catalog
        with self._lock:
            catalog = self._catalog
            if catalog is None:
                catalog = ViewCatalog(
                    self.schema, self._version, tuple(self._defs.values())
                )
                self._catalog = catalog
            return catalog

    # -- materialization -------------------------------------------------

    def prepare(
        self, db: Database, names: Iterable[str] | None = None
    ) -> dict[str, ViewState]:
        """Materialized-and-fresh states for ``names`` (default: every
        registered view) against ``db``: views never touched before are
        materialized now; existing states are refreshed from the change
        log past their watermark -- on the lock-free fast path, under their
        own view's lock; states bound to a *different* database are rebuilt.

        Materialization is O(database) work, so it runs under a *per-view*
        lock, never the registry lock: preparing V1 does not block an
        execute that only reads V2, nor registry reads/compiles.
        """
        if names is not None:
            # Fast path for the per-execute call: every requested view is
            # already materialized against ``db`` and still registered --
            # serve the states without the registry lock, a stale one
            # refreshed under its view's lock (a no-op once another caller
            # brought it up to date).  Each dict read is atomic, and a
            # racing drop can only fail a check: the locked slow path.
            watermark = db.change_log.watermark
            fresh: dict[str, ViewState] | None = {}
            for name in names:
                state, lock = self._states.get(name), self._state_locks.get(name)
                if state is None or lock is None or state.db is not db or name not in self._defs:
                    fresh = None
                    break
                if state.watermark != watermark:
                    with lock:
                        state.refresh()
                fresh[name] = state
            if fresh is not None:
                return fresh
        with self._lock:
            if names is None:
                names = tuple(self._defs)
            wanted: dict[str, tuple[ViewDef, threading.Lock]] = {}
            for name in names:
                view = self.get(name)
                lock = self._state_locks.get(name)
                if lock is None:
                    lock = self._state_locks[name] = threading.Lock()
                wanted[name] = (view, lock)
        states: dict[str, ViewState] = {}
        for name, (view, lock) in wanted.items():
            with lock:
                with self._lock:
                    state = self._states.get(name)
                if state is None or state.db is not db:
                    state = ViewState(view, db)
                    with self._lock:
                        # A drop that raced the materialization wins: do
                        # not resurrect the state it already discarded.
                        if name in self._defs:
                            self._states[name] = state
                else:
                    state.refresh()
            states[name] = state
        return states

    def refresh(self, db: Database) -> dict[str, ViewState]:
        """Materialize/refresh every registered view against ``db`` --
        the explicit "bring my views up to date" entry point."""
        return self.prepare(db)
