"""The planner for scale-independent queries (Fan, Geerts & Libkin 2014,
Section 4).

:func:`compile_plan` turns a controlled conjunctive query into a
left-deep fetch/join plan: an ordered sequence of

* :class:`FetchStep` -- pull the (boundedly many) tuples of an atom's
  relation matching the currently bound positions, through a declared
  access rule, binding the atom's remaining variables; and
* :class:`ProbeStep` -- verify a fully-bound atom with a single indexed
  membership probe.

Each step joins with the bindings accumulated so far, so executing the
plan never scans a relation that is not covered by a
:class:`FullAccessRule`: every access is either an indexed lookup keyed on
an access rule's input attributes or a one-tuple membership probe.  The
number of tuples a plan touches is bounded by the product of its rules'
cardinality bounds -- independent of the database size, which is the whole
point.

This module only *plans*.  Physical execution lives in
:mod:`repro.core.executor`, which lowers the steps once into slot
closures -- the single form every entry point (execute, counting, delta,
profile) runs -- and keeps the lowering on the plan (``Plan._pipeline``).

The planner's loop, :func:`walk`, *is* Section 4's controllability
fixpoint, and the only copy of it: :func:`compile_plan` validates, walks
once and builds the plan, or raises
:class:`repro.errors.NotControlledError` naming the variables and atoms
the walk could not reach and carrying that walk's
:class:`~repro.core.controllability.Coverage`, whose trace it quotes;
:func:`repro.core.controllability.coverage` (and so ``is_controlled``,
``controlling_sets``, QSI and the QRY007/ACC005 analysis) reads it too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NoReturn

from repro.core.access_schema import AccessRule, AccessSchema
from repro.errors import NotControlledError
from repro.logic.ast import Atom, _as_variable
from repro.logic.cq import ConjunctiveQuery, Substitution
from repro.logic.terms import Constant, Term, Variable


@dataclass(frozen=True)
class FetchStep:
    """Fetch the tuples of ``atom``'s relation through ``rule``, keyed on
    the positions bound so far, and bind ``binds``."""

    atom: Atom
    rule: AccessRule
    input_positions: tuple[int, ...]
    output_positions: tuple[int, ...]
    binds: tuple[Variable, ...]

    @property
    def verifies_atom(self) -> bool:
        return self.rule.verifies_atom

    def __str__(self) -> str:
        binds = ", ".join(f"?{v}" for v in self.binds) or "no new variables"
        return f"fetch {self.atom} via {self.rule}, binding {binds}"


@dataclass(frozen=True)
class ProbeStep:
    """Verify the fully-bound ``atom`` with one indexed membership probe."""

    atom: Atom

    def __str__(self) -> str:
        return f"probe {self.atom}"


Step = FetchStep | ProbeStep


@dataclass(frozen=True)
class StepCost:
    """The static worst-case cost estimate of one plan step.

    ``branches_in`` is the number of candidate bindings entering the step
    (the product of the bounds of the fetches above it), ``accesses`` the
    tuples the step may touch (``branches_in`` for a probe,
    ``branches_in * bound`` for a fetch) and ``branches_out`` the bindings
    leaving it.  Summing ``accesses`` over :meth:`Plan.step_costs` gives
    exactly :attr:`Plan.fanout_bound` -- the per-level multiplicative
    breakdown ``explain`` prints and the certifier re-derives (CRT006).
    """

    step: Step
    branches_in: int
    accesses: int
    branches_out: int


class Plan:
    """A compiled scale-independent plan for a conjunctive query.

    ``view_relations`` names the *materialized views* (:mod:`repro.views`)
    a step reads: such a step lowers to the same fetch/probe closure as
    any other but reads the view's store instead of the database, so
    executing the plan requires an execution context that carries those
    views' states -- and no other's.  ``query`` is the query the steps
    were planned from; for a view-assisted plan that is the *augmented*
    one, whose body may hold atoms no step reads (see :func:`compile_plan`).
    """

    __slots__ = (
        "query",
        "parameters",
        "steps",
        "head_terms",
        "satisfiable",
        "view_relations",
        "_fanout_bound",
        "_cost_estimate",
        "_pipeline",
    )

    def __init__(
        self,
        query: ConjunctiveQuery,
        parameters: tuple[Variable, ...],
        steps: tuple[Step, ...],
        head_terms: tuple[Term, ...],
        satisfiable: bool = True,
        view_relations: frozenset[str] = frozenset(),
    ):
        self.query = query
        self.parameters = parameters
        self.steps = steps
        self.head_terms = head_terms
        self.satisfiable = satisfiable
        self.view_relations = frozenset(view_relations)
        self._fanout_bound: int | None = None
        self._cost_estimate: float | None = None
        self._pipeline = None  # repro.core.executor.pipeline_for's memo

    def __repr__(self) -> str:
        return (
            f"Plan(parameters={self.parameters!r}, steps={len(self.steps)}, "
            f"satisfiable={self.satisfiable})"
        )

    @property
    def fanout_bound(self) -> int:
        """An upper bound on the number of tuples the plan can access per
        execution -- a function of the access-rule bounds only, never of
        the database size.

        The bound is the sum over fetch steps of the product of the bounds
        of the fetches above them (each branch of the left-deep join can
        fan out by at most the rule's bound), plus one probe per branch.
        """
        bound = self._fanout_bound
        if bound is None:
            if not self.satisfiable:
                bound = 0
            else:
                bound = sum(cost.accesses for cost in self.step_costs())
            self._fanout_bound = bound
        return bound

    @property
    def cost_estimate(self) -> float:
        """The plan's static weighted cost: each fetch charges its
        worst-case accesses times its rule's per-lookup ``cost``, each
        probe one unit per open branch.

        With all rule costs at the default 1.0 this equals
        :attr:`fanout_bound`; non-uniform costs let the optimizer prefer
        cheap-access relations (e.g. a memory-resident view over a remote
        base table) at equal fanout.  The certifier re-derives this figure
        independently (CST002), and :func:`repro.analysis.cost.estimate_plan`
        refines it with observed statistics without executing anything.
        """
        cost = self._cost_estimate
        if cost is None:
            cost = 0.0
            for step_cost in self.step_costs():
                step = step_cost.step
                unit = step.rule.cost if isinstance(step, FetchStep) else 1.0
                cost += step_cost.accesses * unit
            self._cost_estimate = cost
        return cost

    def step_costs(self) -> tuple[StepCost, ...]:
        """Per-step worst-case cost estimates (see :class:`StepCost`).

        Every fetch multiplies the open branches by its rule's bound and
        may touch that many tuples; every probe touches one tuple per
        open branch.  ``sum(c.accesses) == fanout_bound`` by
        construction.
        """
        if not self.satisfiable:
            return ()
        costs: list[StepCost] = []
        branches = 1
        for step in self.steps:
            if isinstance(step, ProbeStep):
                costs.append(StepCost(step, branches, branches, branches))
                continue
            fanned = branches * step.rule.bound
            costs.append(StepCost(step, branches, fanned, fanned))
            branches = fanned
        return tuple(costs)

    def renamed(
        self, query: ConjunctiveQuery, renaming: Mapping[str, Variable], atoms
    ) -> "Plan":
        """This plan written for ``query``, of which ``self.query`` is a
        renaming and reordering: ``renaming`` maps the names of this plan's
        variables to ``query``'s, ``atoms`` are ``query``'s body atoms in
        the order of ``self.query``'s.  Steps keep their order and shape,
        so the result executes exactly like this plan; it reads in
        ``query``'s own atoms, source spans included."""

        def term(t: Term) -> Term:
            return renaming.get(t.name, t) if type(t) is Variable else t

        def atom(a: Atom) -> Atom:
            return own.get(a) or Atom._trusted(a.relation, tuple(map(term, a.terms)))

        if self.steps and query.equalities:
            subst = query.equality_substitution()
            atoms = [a.substitute(subst) for a in atoms]
        # zip stops at query's atoms: a view-assisted plan's query carries
        # the implied view atoms after the body it was rewritten from.
        own = dict(zip(self.query.normalized_body() or (), atoms))
        implied = tuple(map(atom, self.query.body[len(query.body) :]))
        if implied:
            query = ConjunctiveQuery._trusted(
                query.head, query.body + implied, query.equalities
            )
        steps = [
            ProbeStep(atom(s.atom))
            if type(s) is ProbeStep
            else FetchStep(
                atom(s.atom),
                s.rule,
                s.input_positions,
                s.output_positions,
                tuple(map(term, s.binds)),
            )
            for s in self.steps
        ]
        head = tuple(map(term, self.head_terms))
        views = self.view_relations
        return Plan(query, self.parameters, tuple(steps), head, self.satisfiable, views)

    def entailed(self) -> tuple[Atom, ...]:
        """The body atoms no step reads: a view-assisted plan leaves an
        atom out where the atoms it witnesses entail it."""
        read = {step.atom for step in self.steps}
        body = self.query.normalized_body() if self.satisfiable else None
        return tuple(a for a in body or () if a not in read)

    def explain(self) -> str:
        """A human-readable rendering of the plan, with each step's static
        worst-case access estimate (see :meth:`step_costs`)."""
        lines = []
        params = ", ".join(f"?{v}" for v in self.parameters) or "none"
        lines.append(f"parameters: {params}")
        if not self.satisfiable:
            lines.append("unsatisfiable equalities: the answer is empty")
        for i, cost in enumerate(self.step_costs(), 1):
            lines.append(f"{i}. {cost.step}  [<= {cost.accesses} tuples]")
        lines.extend(f"entailed, not read: {atom}" for atom in self.entailed())
        head = ", ".join(
            str(t) if isinstance(t, Constant) else f"?{t}" for t in self.head_terms
        )
        lines.append(f"project: ({head})")
        lines.append(f"access bound: {self.fanout_bound} tuples")
        lines.append(f"cost estimate: {self.cost_estimate:g}")
        return "\n".join(lines)


def compile_plan(
    query: ConjunctiveQuery,
    access: AccessSchema,
    parameters: Iterable[object] = (),
    *,
    implied: Mapping[Atom, tuple[Atom, ...]] | None = None,
) -> Plan:
    """Compile a scale-independent plan for ``query`` under ``access``,
    with the variables in ``parameters`` supplied at execution time.

    ``implied`` holds the body atoms over *materialized views* -- their
    steps execute against view stores instead of the database (used by
    :mod:`repro.views`, which compiles rewritten queries against a schema
    extended with one relation per view) -- each with the body atoms it
    *stands for*: those that hold on exactly the bindings it holds on
    (none when the view proves less).  An atom the plan has already
    entailed costs no step: witnessing a view atom witnesses what it
    stands for, and a view atom is never read once everything it stands
    for is witnessed.

    Raises :class:`NotControlledError` if the query is not controlled by
    ``parameters`` under ``access``.
    """
    params = query_parameters(query, access, parameters)
    subst, bound, steps, remaining = walk(query, access, params, implied)
    if subst is None:
        return Plan(query, params, (), query.head, satisfiable=False)
    head_terms = tuple(subst.get(v, v) for v in query.head)
    if remaining or any(isinstance(t, Variable) and t not in bound for t in head_terms):
        _raise_not_controlled(query, access, params, subst, bound, steps, remaining)
    views = frozenset(s.atom.relation for s in steps if s.atom in (implied or {}))
    return Plan(query, params, tuple(steps), head_terms, view_relations=views)


def query_parameters(
    query: ConjunctiveQuery, access: AccessSchema, parameters: Iterable[object]
) -> tuple[Variable, ...]:
    """``parameters`` as distinct variables, once ``query`` is checked
    against ``access``'s schema -- the validation in front of every
    :func:`walk`.  Raises ValueError for a parameter not in ``query``."""
    access.schema.validate_query(query)
    params = tuple(dict.fromkeys(_as_variable(v) for v in parameters))
    unknown = [v for v in params if v not in set(query.variables())]
    if unknown:
        raise ValueError(
            "parameters not occurring in the query: "
            + ", ".join(f"?{v}" for v in unknown)
        )
    return params


def walk(
    query: ConjunctiveQuery,
    access: AccessSchema,
    params: tuple[Variable, ...],
    implied: Mapping[Atom, tuple[Atom, ...]] | None = None,
) -> tuple[Substitution | None, set[Variable], list[Step], list[Atom]]:
    """The controllability fixpoint (Section 4), run as the planner runs
    it: from the ``params``' equality classes, probe every fully-bound
    atom, else take the most selective fetch that makes progress, until
    no atom is left or none can be read.

    Returns ``(subst, bound, steps, remaining)``: the query's equality
    substitution (None, and nothing else, when it is unsatisfiable), the
    bound class representatives, the plan steps, and the atoms no step
    could reach -- the query is controlled iff none remain.  See
    :func:`compile_plan` for ``implied``.
    """
    subst = query.equality_substitution()
    if subst is None:
        return None, set(), [], []

    atoms = [a.substitute(subst) for a in query.body]
    bound: set[Variable] = set()
    for v in params:
        rep = subst.get(v, v)
        if isinstance(rep, Variable):
            bound.add(rep)

    # An atom leaves `remaining` once it holds on every open branch:
    # witnessed by a full fetch or a probe, or entailed by what was.
    implied = implied or {}
    remaining: list[Atom] = list(atoms)
    held: set[Atom] = set()
    steps: list[Step] = []

    def witness(atom: Atom) -> None:
        remaining.remove(atom)
        stood = implied.get(atom, ())
        held.update(stood, (atom,))
        remaining[:] = [
            a
            for a in remaining
            if a not in stood and not (implied.get(a) and held.issuperset(implied[a]))
        ]

    while remaining:
        # 1. Probe any atom that is already fully bound: one tuple access.
        probed = [a for a in remaining if all(_is_bound(t, bound) for t in a.terms)]
        if probed:
            # A view atom first: its one probe answers for all it stands for.
            for atom in sorted(probed, key=lambda a: not implied.get(a)):
                if atom in remaining:  # not entailed by a probe of this round
                    steps.append(ProbeStep(atom))
                    witness(atom)
            continue

        # 2. Otherwise find the most selective applicable (atom, rule)
        # fetch: rule inputs bound, and it must make progress (bind a new
        # variable, or verify the atom outright).
        best: tuple[tuple, FetchStep] | None = None
        for atom in remaining:
            rel = access.schema.relation(atom.relation)
            for rule in access.rules_for(atom.relation):
                in_pos = rel.positions(rule.inputs)
                if not all(_is_bound(atom.terms[p], bound) for p in in_pos):
                    continue
                out_pos = rel.positions(rule.bound_attributes(rel))
                newly = tuple(
                    dict.fromkeys(
                        atom.terms[p]
                        for p in out_pos
                        if isinstance(atom.terms[p], Variable)
                        and atom.terms[p] not in bound
                    )
                )
                if not newly and not rule.verifies_atom:
                    continue  # an embedded fetch that binds nothing is useless
                score = (rule.bound, -len(in_pos))
                if best is None or score < best[0]:
                    best = (score, FetchStep(atom, rule, in_pos, out_pos, newly))
        if best is None:
            break
        step = best[1]
        steps.append(step)
        bound.update(step.binds)
        if step.rule.verifies_atom:
            witness(step.atom)
        # An embedded fetch leaves the atom in `remaining`; once all its
        # positions are bound, branch 1 turns it into a probe.
    return subst, bound, steps, remaining


def _is_bound(term, bound: set[Variable]) -> bool:
    return isinstance(term, Constant) or term in bound


def _raise_not_controlled(
    query: ConjunctiveQuery,
    access: AccessSchema,
    params: tuple[Variable, ...],
    subst: Substitution,
    bound: set[Variable],
    steps: list[Step],
    remaining: list[Atom],
) -> NoReturn:
    # The failed walk's own Coverage names and explains the unreachable
    # variables.  Imported lazily: controllability reads this module.
    from repro.core.controllability import _coverage

    cover = _coverage(query, access, params, subst, bound, steps)
    details = []
    if cover.uncovered:
        details.append("unreachable variables: " + ", ".join(f"?{v}" for v in cover.uncovered))
    if remaining:
        details.append("uncovered atoms: " + ", ".join(str(a) for a in remaining))
    given = ", ".join(f"?{v}" for v in params) or "no parameters"
    message = (
        f"query {query} is not controlled by {given} under {access}"
        + (" (" + "; ".join(details) + ")" if details else "")
    )
    trace = cover.explain()
    raise NotControlledError(message + "\n" + trace if trace else message, cover)
