"""Section 5's counting rule, :func:`repro.core.executor.fold`: the one fold a
maintained result and a projecting view share.

A property over generated per-disjunct derivation counts, each row's 0..2
before and after, so the totals cross 0 <-> 1 <-> 2 and a row can move
between disjuncts (one loses a derivation as another gains one).  Folding
each disjunct's change into the counts must give

* the counts of a recount, holding only the positive ones;
* the answer's net: ``+1`` per row whose support appeared, ``-1`` per row
  whose support vanished, nothing else;
* the order of the rows: every row that stays keeps its place (a row
  whose changes sum to 0 included), and the rows that enter follow, in
  the order the changes first name them.

Three seeded mutants -- each disjunct folded without summing first, a
zero count kept, the net's sign inverted -- are each killed by it.
"""

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from mutation import mutate
from repro.core import executor

ROWS = [(i,) for i in range(6)]


@st.composite
def scenarios(draw):
    """Per-disjunct derivation counts before and after, the order the
    answer held its rows in before, and the order each disjunct's change
    names its rows in."""
    disjuncts = draw(st.integers(1, 3))
    support = st.fixed_dictionaries({row: st.integers(0, 2) for row in ROWS})
    before = [draw(support) for _ in range(disjuncts)]
    after = [draw(support) for _ in range(disjuncts)]
    orders = [draw(st.permutations(ROWS)) for _ in range(disjuncts + 1)]
    return before, after, orders


def totals(per_disjunct, order):
    """Each row's count summed over the disjuncts, in ``order``, the
    positive ones only."""
    summed = {row: sum(counts[row] for counts in per_disjunct) for row in order}
    return {row: n for row, n in summed.items() if n > 0}


def check(scenario):
    """One scenario's fold against its recount: the counts, the net and
    the order of the rows."""
    before, after, (order, *change_orders) = scenario
    counts = totals(before, order)
    old = dict(counts)
    changes = [
        {row: a[row] - b[row] for row in rows if a[row] != b[row]}
        for b, a, rows in zip(before, after, change_orders)
    ]
    net = executor.fold(counts, changes)
    recount = totals(after, ROWS)
    assert counts == recount
    assert net == {row: 1 if row in recount else -1 for row in old.keys() ^ recount.keys()}
    entering = [row for row in dict.fromkeys(r for c in changes for r in c) if row in net and net[row] > 0]
    assert list(counts) == [row for row in old if row in recount] + entering
    still = [row for row in old if row in recount and sum(c.get(row, 0) for c in changes) == 0]
    assert [row for row in counts if row in still] == still and all(counts[r] == old[r] for r in still)


SETTINGS = settings(max_examples=200, derandomize=True, deadline=None, database=None)


@SETTINGS
@given(scenario=scenarios())
def test_fold_matches_a_recount(scenario):
    check(scenario)


#: name -> (the code to break, what to break it into)
MUTANTS = {
    "each disjunct folded without summing first": (
        "if len(changes) == 1:",
        "if len(changes) > 1:\n"
        "        return {r: s for changed in changes for r, s in fold(counts, [changed]).items()}\n"
        "    if len(changes) == 1:",
    ),
    "a zero count kept": ("if new > 0:", "if new >= 0:"),
    "the net's sign inverted": ("net[row] = 1", "net[row] = -1"),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_fold_mutants_are_killed(monkeypatch, name):
    old, new = MUTANTS[name]
    mutate(monkeypatch, executor, "fold", old, new, name)
    first_failure = settings(SETTINGS, phases=[Phase.generate])  # a kill needs no shrunk example
    with pytest.raises(AssertionError):
        first_failure(given(scenario=scenarios())(check))()
