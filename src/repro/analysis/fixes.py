"""Certified lint autofixes: the ``--fix`` rewrites.

Two of the QRY findings have rewrites that provably preserve the query's
meaning, and :func:`fix_query` applies them:

* **QRY004** (duplicate body atom) -- drop every repeated copy, keeping
  the first occurrence;
* **QRY003** (parameter equated to a constant) -- inline the constant
  into the body and drop the now-trivial equality, so the phantom
  parameter disappears (skipped when the parameter is a head variable,
  since heads must stay variables).

Every rewrite is *certified* before anything is written: the fixed query
is rendered, re-parsed (:func:`repro.logic.parser.parse_query`) and
checked homomorphically equivalent to the original, disjunct by disjunct
(:func:`repro.logic.homomorphism.are_equivalent`, Chandra--Merlin).  A
rewrite that fails any of those checks is discarded --
``FixResult.verified`` stays False and the CLI leaves the file alone.

``python -m repro.analysis FILE --fix`` applies verified rewrites in
place, printing a unified diff; ``--fix --dry-run`` prints the diff
only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import ReproError
from repro.logic.ast import Atom, Equality, _as_variable
from repro.logic.cq import ConjunctiveQuery
from repro.logic.homomorphism import are_equivalent
from repro.logic.parser import parse_query
from repro.logic.terms import Constant, Variable
from repro.logic.ucq import UnionOfConjunctiveQueries, disjuncts_of
from repro.relational.schema import DatabaseSchema

Query = ConjunctiveQuery | UnionOfConjunctiveQueries


@dataclass(frozen=True)
class AppliedFix:
    """One applied rewrite: the diagnostic code it fixes and what it did."""

    code: str
    description: str

    def __str__(self) -> str:
        return f"{self.code}: {self.description}"


@dataclass(frozen=True)
class FixResult:
    """The outcome of :func:`fix_query`.

    ``fixed`` is the rewritten query (identical to ``original`` when no
    fix applied); ``verified`` is True iff the rewrite re-parsed and
    checked homomorphically equivalent to the original.  ``changed`` --
    the CLI's write condition -- requires both.
    """

    original: Query
    fixed: Query
    fixes: tuple[AppliedFix, ...]
    verified: bool

    @property
    def changed(self) -> bool:
        return bool(self.fixes) and self.verified


def _fix_disjunct(
    cq: ConjunctiveQuery, params: tuple[Variable, ...]
) -> tuple[ConjunctiveQuery, tuple[AppliedFix, ...]]:
    fixes: list[AppliedFix] = []

    # QRY004: drop duplicate body atoms (the first copy stays, so head
    # safety cannot regress).
    body: list[Atom] = []
    seen: set[Atom] = set()
    for atom in cq.body:
        if atom in seen:
            fixes.append(
                AppliedFix("QRY004", f"dropped duplicate body atom {atom}")
            )
            continue
        seen.add(atom)
        body.append(atom)

    # QRY003: inline parameters the equalities pin to a constant.  Head
    # parameters are skipped: a constant cannot appear in a CQ head.
    equalities: list[Equality] = list(cq.equalities)
    subst = cq.equality_substitution()
    mapping: dict[Variable, Constant] = {}
    if subst:
        head = set(cq.head)
        for param in params:
            rep = subst.get(param)
            if isinstance(rep, Constant) and param not in head:
                mapping[param] = rep
                fixes.append(
                    AppliedFix(
                        "QRY003",
                        f"inlined parameter ?{param} as the constant {rep} "
                        f"its equalities pin it to",
                    )
                )
    if mapping:
        body = [a.substitute(mapping) for a in body]
        kept: list[Equality] = []
        for eq in equalities:
            eq = eq.substitute(mapping)
            if (
                isinstance(eq.left, Constant)
                and isinstance(eq.right, Constant)
                and eq.left == eq.right
            ):
                continue  # `7 = 7` after inlining: trivially true
            kept.append(eq)
        equalities = kept

    if not fixes:
        return cq, ()
    return ConjunctiveQuery(cq.head, body, equalities), tuple(fixes)


def verify_fix(
    original: Query,
    fixed: Query,
    *,
    schema: DatabaseSchema | None = None,
) -> bool:
    """Certify a rewrite: render ``fixed``, re-parse it (validating
    against ``schema`` when given), and check disjunct-wise homomorphic
    equivalence with ``original``."""
    try:
        reparsed = parse_query(str(fixed), schema=schema)
    except ReproError:
        return False
    first = disjuncts_of(original)
    second = disjuncts_of(reparsed)
    if len(first) != len(second):
        return False
    return all(are_equivalent(a, b) for a, b in zip(first, second))


def fix_query(
    query: Query,
    parameters: Iterable[object] = (),
    *,
    schema: DatabaseSchema | None = None,
) -> FixResult:
    """Apply the safe QRY003/QRY004 rewrites to ``query`` and certify the
    result (see the module docstring).  ``parameters`` are the declared
    execution-time parameters (QRY003 only fires for those)."""
    params = tuple(dict.fromkeys(_as_variable(p) for p in parameters))
    fixed_disjuncts: list[ConjunctiveQuery] = []
    fixes: list[AppliedFix] = []
    for disjunct in disjuncts_of(query):
        usable = tuple(p for p in params if p in set(disjunct.variables()))
        fixed, applied = _fix_disjunct(disjunct, usable)
        fixed_disjuncts.append(fixed)
        fixes.extend(applied)
    if not fixes:
        return FixResult(query, query, (), True)
    if isinstance(query, ConjunctiveQuery):
        fixed_query: Query = fixed_disjuncts[0]
    else:
        fixed_query = UnionOfConjunctiveQueries(fixed_disjuncts)
    verified = verify_fix(query, fixed_query, schema=schema)
    return FixResult(query, fixed_query, tuple(fixes), verified)
