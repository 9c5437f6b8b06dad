"""The per-tuple reference executor the differential and property tests
compare the batched pipeline against.

A recursive generator over a plan's steps that issues the executor's two
charged reads (``lookup_keys`` / ``contains_rows``) with one single-key
(single-row) batch per partial assignment.  It is a *row* oracle: it
returns what :func:`repro.core.executor.execute_plan` returns, but it
does not batch equal keys, so its ``tuples_accessed`` can exceed the
pipeline's on the same plan -- accounting is compared pipeline to
pipeline.  It lived in ``repro.core.executor`` until PR 25; nothing in
``src/`` or ``benchmarks/`` ever ran it.
"""

from typing import Iterator, Mapping

from repro.core.access_schema import EmbeddedAccessRule
from repro.core.executor import (
    Assignment,
    ExecutionContext,
    Row,
    _as_context,
    _parameter_constraints,
    merge_parameter_values,
    pipeline_for,
)
from repro.core.plans import Plan, ProbeStep
from repro.logic.evaluation import _bound_pattern, _extend, _term_value, row_matches
from repro.logic.terms import Constant


def execute_per_tuple(
    plan: Plan,
    db,
    parameters: Mapping[object, object] | None = None,
    **kwargs: object,
) -> tuple[Row, ...]:
    """``plan``'s answers on ``db`` (a ``Database`` or an open context),
    one read per partial assignment: semantically identical to
    :func:`repro.core.executor.execute_plan`."""
    seed = merge_parameter_values(parameters, kwargs)
    pipeline_for(plan).binding(tuple(seed))  # the executor's parameter check
    if not plan.satisfiable:
        return ()
    ctx = _as_context(db)
    conditions, binds, _ = _parameter_constraints(plan)
    for a, b in conditions:
        if _term_value(a, seed) != _term_value(b, seed):
            return ()
    for source, target in binds:
        seed[target] = seed[source]
    answers: dict[Row, None] = {}
    for final in _run_per_tuple(plan, ctx, 0, seed):
        answers.setdefault(
            tuple(_term_value(t, final) for t in plan.head_terms), None
        )
    return tuple(answers)


def _run_per_tuple(
    plan: Plan, ctx: ExecutionContext, i: int, assignment: Assignment
) -> Iterator[Assignment]:
    if i == len(plan.steps):
        yield assignment
        return
    step = plan.steps[i]
    atom = step.atom
    relation = atom.relation
    source = ctx.store(relation) if relation in plan.view_relations else ctx.db
    if isinstance(step, ProbeStep):
        row = tuple(_term_value(t, assignment) for t in atom.terms)
        if source.contains_rows(relation, (row,), ctx.stats)[0]:
            yield from _run_per_tuple(plan, ctx, i + 1, assignment)
        return
    # A plain (or full, or view) rule keys the lookup on every position
    # that is already bound -- a superset of the rule's inputs, so the
    # declared bound still applies.  An embedded rule's access path is
    # keyed on the rule's inputs only; other bound positions are filtered
    # after the fetch, and only the rule's outputs become bound
    # (deduplicated projections).
    embedded = isinstance(step.rule, EmbeddedAccessRule)
    if embedded:
        pattern = {
            p: _term_value(atom.terms[p], assignment) for p in step.input_positions
        }
    else:
        pattern = _bound_pattern(atom, assignment)
    positions = tuple(sorted(pattern))
    key = tuple(pattern[p] for p in positions)
    seen: set[Row] = set()
    for row in source.lookup_keys(relation, positions, (key,), ctx.stats)[0]:
        if not embedded:
            extended = _extend(atom, row, assignment)
        elif row_matches(atom, row, assignment):
            projection = tuple(row[p] for p in step.output_positions)
            if projection in seen:
                continue
            seen.add(projection)
            extended = dict(assignment)
            for p in step.output_positions:
                term = atom.terms[p]
                if isinstance(term, Constant):
                    continue
                if extended.setdefault(term, row[p]) != row[p]:
                    extended = None
                    break
        else:
            continue
        if extended is not None:
            yield from _run_per_tuple(plan, ctx, i + 1, extended)
