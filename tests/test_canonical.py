"""The canonical form of a query (:mod:`repro.logic.canonical`): sound
always, invariant under renaming and atom reordering whenever its
signatures separate the atoms, typed about constants, its flat key equal
exactly when the canonical queries are -- and each of those properties
able to kill a seeded mutant of the canonicaliser."""

import inspect
import random
from collections import Counter

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from test_parser import PROPERTY, queries

from repro import Atom, ConjunctiveQuery, Constant, Equality, UnionOfConjunctiveQueries, Variable
from repro.logic import canonical
from repro.logic.canonical import atom_signatures, canonical_form, canonical_key
from repro.logic.homomorphism import are_equivalent
from repro.logic.parser import parse_query

V = Variable


def cq(text: str) -> ConjunctiveQuery:
    return parse_query(text)


def disjuncts_of(query):
    return query.disjuncts if isinstance(query, UnionOfConjunctiveQueries) else (query,)


def rebuild(query, per_disjunct):
    """``query`` with ``per_disjunct`` applied to each disjunct."""
    if isinstance(query, ConjunctiveQuery):
        return per_disjunct(query)
    return UnionOfConjunctiveQueries([per_disjunct(d) for d in query.disjuncts])


def substitute(query: ConjunctiveQuery, mapping, body_order=None) -> ConjunctiveQuery:
    """``query`` under a variable-to-term mapping, its body optionally
    permuted; built without the safety check, like any renaming."""

    def term(t):
        return mapping.get(t, t)

    body = [Atom(a.relation, map(term, a.terms)) for a in query.body]
    if body_order is not None:
        body = [body[i] for i in body_order]
    return ConjunctiveQuery._trusted(
        tuple(map(term, query.head)),
        tuple(body),
        tuple(Equality(term(e.left), term(e.right)) for e in query.equalities),
    )


def separated(query, parameters) -> bool:
    """Whether the real form's signatures tell every disjunct's atoms apart."""
    names = {v.name for v in parameters}
    return all(
        len(set(signatures)) == len(signatures)
        for signatures in (atom_signatures(d, names) for d in disjuncts_of(query))
    )


def scenario(query, seed: int, parameters=None):
    """From one seed: a parameter set (unless given), an injective
    renaming of the other variables (onto names that include would-be
    canonical ones), one body permutation per disjunct, and the generator
    to draw a perturbation of the query from."""
    rng = random.Random(seed)
    variables = sorted(query.variables())
    if parameters is None:
        parameters = frozenset(v for v in variables if rng.random() < 0.3)
    plain = [v for v in variables if v not in parameters]
    pool = [V(n) for n in ("a", "b", "c", "v0", "v1", "v2", "x", "y", "z", "p", "q", "r")]
    pool = [v for v in pool if v not in parameters]
    renaming = dict(zip(plain, rng.sample(pool, len(plain)))) if len(plain) <= len(pool) else {}
    orders = [rng.sample(range(len(d.body)), len(d.body)) for d in disjuncts_of(query)]
    return parameters, renaming, orders, rng


def twin(query, renaming, orders):
    order = iter(orders)
    return rebuild(query, lambda d: substitute(d, renaming, next(order)))


def perturbed(query, parameters, rng):
    """A query one small step away from ``query`` -- the near misses a
    canonical form must keep apart (or, for a renaming, may identify)."""
    kind = rng.choice(("merge", "retype", "rehead", "reparam", "rename"))

    def step(d: ConjunctiveQuery) -> ConjunctiveQuery:
        variables = sorted(d.variables())
        if kind == "merge" and len(variables) > 1:
            source, target = rng.sample(variables, 2)
            return substitute(d, {source: target})
        if kind == "retype":
            retyped = {1: 1.0, 1.0: True, True: "1", "1": 1, 0: False, False: 0.0}
            return ConjunctiveQuery._trusted(
                d.head,
                tuple(
                    Atom(
                        a.relation,
                        [
                            Constant(retyped[t.value])
                            if isinstance(t, Constant) and t.value in retyped
                            else t
                            for t in a.terms
                        ],
                    )
                    for a in d.body
                ),
                d.equalities,
            )
        if kind == "rehead" and d.head and variables:
            head = list(d.head)
            head[rng.randrange(len(head))] = rng.choice(variables)
            return ConjunctiveQuery._trusted(tuple(head), d.body, d.equalities)
        if kind == "reparam" and parameters and len(variables) > 1:
            # Swap a parameter with another variable: same shape, but the
            # parameter now sits elsewhere.
            a = rng.choice(sorted(parameters))
            b = rng.choice(variables)
            return substitute(d, {a: b, b: a})
        fresh = dict(zip(variables, (V(f"w{i}") for i in range(len(variables)))))
        return substitute(d, {v: w for v, w in fresh.items() if v not in parameters})

    return rebuild(query, step)


def assert_differ_by_renaming_and_order(first, second, parameters, form):
    """The soundness conclusion, checked from scratch: compose the two
    ways back into a variable map, and require it to be a bijection that
    fixes parameters, carries head to head position by position, the body
    onto the body as a multiset and the equalities in order -- and the
    homomorphism machinery to agree the queries are equivalent."""
    _, first_back = form(first, parameters)
    _, second_back = form(second, parameters)
    for d1, d2, (inv1, _), (inv2, _) in zip(
        disjuncts_of(first), disjuncts_of(second), first_back, second_back
    ):
        assert inv1.keys() == inv2.keys()
        sigma = {inv1[name]: inv2[name] for name in inv1}
        assert len(set(sigma.values())) == len(sigma)  # injective
        assert not parameters & (sigma.keys() | set(sigma.values()))
        image = substitute(d1, sigma)
        assert image.head == d2.head
        assert Counter(image.body) == Counter(d2.body)
        assert image.equalities == d2.equalities
        # Parameters are free variables of the plan: carry them in the
        # head so the homomorphisms must fix them too.
        fixed = tuple(sorted(parameters & set(d1.variables())))
        try:
            e1 = ConjunctiveQuery(d1.head + fixed, d1.body, d1.equalities)
            e2 = ConjunctiveQuery(d2.head + fixed, d2.body, d2.equalities)
        except ValueError:  # a parameter only an equality mentions
            continue
        if any(c.value != c.value for d in (e1, e2) for a in d.body for c in a.constants()):
            continue  # value-based homomorphisms cannot match a NaN
        assert are_equivalent(e1, e2)


P = frozenset({V("p")})
#: (query, seed, parameters) the generators are unlikely to hit by chance.
PINNED_SOUND = [
    # a near miss (seeds differ in which) has a plain variable for ?p
    (cq("Q(y) :- R(p, y)"), seed, P)
    for seed in range(4)
]
PINNED_INVARIANT = [
    (cq("Q() :- R(x, 1), R(y, 1.0)"), 0, frozenset()),  # apart by a constant's type
    (cq("Q(x) :- R(x), R(y)"), 0, frozenset()),  # ... by a head position
    (cq("Q() :- R(x, y), R(y, z)"), 0, frozenset()),  # ... only by refinement
    (cq("Q() :- R(p, x), R(y, z)"), 0, P),  # ... by a parameter
]


def properties(form, tally=None, budget=PROPERTY):
    """The three properties as runnable checks of one ``canonical_form``
    implementation (the real one, or a mutant)."""

    def pinned(examples):
        def decorate(check):
            for args in examples:
                check = example(*args)(check)
            return check

        return decorate

    @budget
    @pinned(PINNED_SOUND)
    @given(queries(), st.integers(0, 2**32), st.none())
    def sound(query, seed, parameters):
        parameters, renaming, orders, rng = scenario(query, seed, parameters)
        key = form(query, parameters)[0]
        for other in (twin(query, renaming, orders), perturbed(query, parameters, rng)):
            if form(other, parameters)[0] == key:
                assert_differ_by_renaming_and_order(query, other, parameters, form)

    @budget
    @pinned(PINNED_INVARIANT)
    @given(queries(), st.integers(0, 2**32), st.none())
    def invariant(query, seed, parameters):
        parameters, renaming, orders, _ = scenario(query, seed, parameters)
        key = form(query, parameters)[0]
        # A renaming alone never changes the key ...
        identity = [range(len(d.body)) for d in disjuncts_of(query)]
        assert form(twin(query, renaming, identity), parameters)[0] == key
        # ... and neither does reordering, once the atoms are told apart.
        apart = separated(query, parameters)
        if tally is not None:
            tally["queries"] += 1
            tally["separated"] += apart
        if apart:
            backwards = [range(len(d.body))[::-1] for d in disjuncts_of(query)]
            for order in (orders, backwards):
                assert form(twin(query, renaming, order), parameters)[0] == key

    def typed():
        keys = [form(cq(f"Q(x) :- R(x, {c})"))[0] for c in ("1", "1.0", "True", "'1'")]
        assert len(set(keys)) == 4 and len({hash(k) for k in keys}) == 4
        nan, negative = (form(cq(f"Q(x) :- R(x, {c})"))[0] for c in ("nan", "-nan"))
        assert nan == negative == form(cq("Q(y) :- R(y, nan)"))[0]
        assert hash(nan) == hash(negative)

    return {"sound": sound, "invariant": invariant, "typed": typed}


def test_equal_keys_mean_a_renaming_and_a_reordering():
    properties(canonical_form)["sound"]()


def test_renaming_and_reordering_keep_the_key_when_atoms_are_separated():
    tally = Counter()
    properties(canonical_form, tally)["invariant"]()
    share = tally["separated"] / tally["queries"]
    print(
        f"canonical form separates the atoms of {tally['separated']} of "
        f"{tally['queries']} generated queries ({share:.0%})"
    )
    assert share > 0.5  # else the property above says little


def test_constants_keep_their_type_and_nan_is_one_constant():
    properties(canonical_form)["typed"]()


# -- the flat key is the canonical query ------------------------------------

P0 = frozenset({V("v0")})
ONE = cq("Q(x) :- R(x, y)")
#: (first, second, parameters, whether their canonical queries are equal):
#: the places where a flat encoding could run two of them together.
PINNED_FLAT = [
    (cq("Q(x) :- R(x, 1)"), cq("Q(x) :- R(x, 1.0)"), frozenset(), False),
    (cq("Q(x) :- R(x, 1)"), cq("Q(x) :- R(x, True)"), frozenset(), False),
    (cq("Q(x) :- R(x, 1.0)"), cq("Q(x) :- R(x, True)"), frozenset(), False),
    (cq("Q(x) :- R(x, 1)"), cq("Q(x) :- R(x, '1')"), frozenset(), False),
    (cq("Q(x) :- R(x, 0.0)"), cq("Q(y) :- R(y, -0.0)"), frozenset(), True),
    (cq("Q(x) :- R(x, nan)"), cq("Q(y) :- R(y, -nan)"), frozenset(), True),  # the shared NaN
    (
        cq("Q(x) :- R(x, nan)"),
        ConjunctiveQuery(["x"], [Atom("R", ["?x", Constant(float("nan"))])]),
        frozenset(),
        False,  # a NaN built elsewhere equals nothing, in either representation
    ),
    (cq("Q(x) :- R(x, None)"), cq("Q(y) :- R(y, None)"), frozenset(), True),
    (cq("Q(x) :- R(x, None)"), cq("Q(x) :- R(x, 'None')"), frozenset(), False),
    (cq("Q(v0) :- R(v0, x)"), cq("Q(v0) :- R(v0, y)"), P0, True),
    (cq("Q(v0) :- R(v0, x)"), cq("Q(a) :- R(a, x)"), P0, False),  # a parameter is no v0
    (cq("Q() :- R(v0, x)"), cq("Q() :- R(x, v0)"), P0, False),
    (cq("Q(v0) :- R(v0, x)"), cq("Q(a) :- R(a, b)"), frozenset(), True),
    (cq("Q() :- R(x, x)"), cq("Q() :- R(z, z)"), frozenset(), True),
    (cq("Q() :- R(x, x)"), cq("Q() :- R(x, y)"), frozenset(), False),
    (cq("Q() :- R(x), R(x, y)"), cq("Q() :- R(a, b), R(a)"), frozenset(), True),  # one
    (cq("Q() :- R(x, y)"), cq("Q() :- R(x), R(y)"), frozenset(), False),  # name, two arities
    (cq("Q()"), ConjunctiveQuery((), ()), frozenset(), True),  # an empty body
    (cq("Q()"), cq("Q() :- R(x)"), frozenset(), False),
    (cq("Q()"), cq("Q() ; Q()"), frozenset(), False),
    # equalities | head: two terms of an equality are not two head terms
    (cq("Q(x) :- R(x, y), x = y"), cq("Q(x, y, x) :- R(x, y)"), frozenset(), False),
    # a query is not the union of itself alone, and where one disjunct
    # ends and the next begins is part of a union
    (ONE, UnionOfConjunctiveQueries([ONE]), frozenset(), False),
    (cq("Q() :- R(x), S(x) ; Q() :- T(y)"), cq("Q() :- R(x) ; Q() :- S(x), T(y)"), frozenset(), False),
    (cq("Q() :- R(x) ; Q() :- S(y)"), cq("Q() :- R(a) UNION Q() :- S(a)"), frozenset(), True),
]


def flat_property(key, form, budget=PROPERTY):
    """``key`` agrees with ``form``: two queries get equal keys (and then
    equal hashes) exactly when they get equal canonical queries."""

    def agree(first, second, parameters):
        keys = key(first, parameters), key(second, parameters)
        same = keys[0] == keys[1]
        assert same == (form(first, parameters)[0] == form(second, parameters)[0])
        assert not same or hash(keys[0]) == hash(keys[1])
        return same

    @budget
    @given(queries(), queries(), st.integers(0, 2**32))
    def generated(query, other, seed):
        parameters, renaming, orders, rng = scenario(query, seed)
        agree(query, query, parameters)
        for second in (twin(query, renaming, orders), perturbed(query, parameters, rng), other):
            agree(query, second, parameters)
            agree(second, query, frozenset())

    def flat():
        for first, second, parameters, same in PINNED_FLAT:
            assert agree(first, second, parameters) is same, (str(first), str(second))
        generated()

    return flat


def key_properties(key, form, budget=PROPERTY):
    """The flat-key property, and the three properties of the canonical
    form asked of the key (the ways back still come from ``form``)."""

    def keyed(query, parameters=frozenset()):
        return key(query, parameters), form(query, parameters)[1]

    checks = {f"key {label}": check for label, check in properties(keyed, budget=budget).items()}
    return {"flat": flat_property(key, form, budget), **checks}


def test_equal_keys_are_equal_canonical_queries():
    flat_property(canonical_key, canonical_form)()


@pytest.mark.parametrize("label", ["key sound", "key invariant", "key typed"])
def test_the_key_has_the_properties_of_the_form(label):
    key_properties(canonical_key, canonical_form)[label]()


# -- the corners ------------------------------------------------------------


def key(text: str, *parameters: str):
    return canonical_form(cq(text), frozenset(map(V, parameters)))[0]


def test_wildcards_are_plain_variables():
    assert key("Q(x) :- R(x, _), S(_, x)") == key("Q(y) :- S(_, y), R(y, _)")
    assert key("Q(x) :- R(x, _, _)") == key("Q(x) :- R(x, a, b)")
    assert key("Q(x) :- R(x, _, _)") != key("Q(x) :- R(x, a, a)")


def test_repeated_variables_are_kept():
    assert key("Q() :- R(x, x)") == key("Q() :- R(z, z)")
    assert key("Q() :- R(x, x)") != key("Q() :- R(x, y)")
    assert key("Q() :- R(x, y), R(y, x)") == key("Q() :- R(b, a), R(a, b)")
    assert key("Q() :- R(x, y), R(y, x)") != key("Q() :- R(x, y), R(x, y)")


def test_equalities_are_renamed_in_written_order():
    assert key("Q(x) :- R(x, y), y = 'a'") == key("Q(u) :- R(u, w), w = 'a'")
    assert key("Q(x) :- R(x, y), y = 'a'") != key("Q(x) :- R(x, y), y = 'b'")
    assert key("Q(x) :- R(x, y), y = 'a'") != key("Q(x) :- R(x, y), x = 'a'")
    assert key("Q(x) :- R(x, y), S(z), y = z") == key("Q(a) :- S(c), R(a, b), b = c")
    # a variable only an equality mentions still gets a canonical name
    form, ((inverse, _),) = canonical_form(cq("Q(x) :- R(x), x = y"))
    assert str(form) == "Q(?v0) <- R(?v0), ?v0 = ?v1" and inverse["v1"] == V("y")


def test_a_parameter_may_be_a_head_variable():
    assert key("Q(p, y) :- R(p, y)", "p") == key("Q(p, z) :- R(p, z)", "p")
    assert key("Q(p, y) :- R(p, y)", "p") != key("Q(y, p) :- R(p, y)", "p")
    assert key("Q(p, y) :- R(p, y)", "p") != key("Q(p, y) :- R(p, y)")
    assert str(key("Q(p, y) :- R(p, y)", "p")) == "Q(?p, ?v0) <- R(?p, ?v0)"
    # which variable is the parameter is part of the shape
    assert key("Q() :- R(p, y), R(y, z)", "p") != key("Q() :- R(y, p), R(z, y)", "p")


def test_canonical_names_never_capture_a_parameter():
    assert str(key("Q(v0) :- R(v0, x)", "v0")) == "Q(?v0) <- R(?v0, ?v1)"
    assert str(key("Q(x) :- R(v1, x, y)", "v1")) == "Q(?v0) <- R(?v1, ?v0, ?v2)"
    assert key("Q() :- R(v0, x)", "v0") != key("Q() :- R(x, v0)", "v0")
    # the name is only reserved while it *is* a parameter
    assert key("Q(v1) :- R(v1, x)") == key("Q(a) :- R(a, b)")


def test_a_union_is_the_tuple_of_its_disjuncts_forms():
    first = key("Q(x) :- R(x, y), S(y) ; Q(x) :- T(x)")
    assert first == key("Q(a) :- S(b), R(a, b) ; Q(c) :- T(c)")
    assert first != key("Q(x) :- T(x) ; Q(x) :- R(x, y), S(y)")  # written order
    _, back = canonical_form(cq("Q(x) :- R(x, y), S(y) ; Q(x) :- T(x)"))
    assert [inverse["v0"] for inverse, _ in back] == [V("x"), V("x")]


def test_the_way_back_leads_to_the_callers_variables_and_atoms():
    query = cq("Q(z) :- person(z, n, 'NYC'),\n friend(p, y), friend(y, z)")
    form, ((inverse, atoms),) = canonical_form(query, frozenset({V("p")}))
    assert str(form) == "Q(?v1) <- friend(?p, ?v0), friend(?v0, ?v1), person(?v1, ?v2, 'NYC')"
    assert inverse == {"v0": V("y"), "v1": V("z"), "v2": V("n")}
    assert [a.span.line for a in atoms] == [2, 2, 1]  # the caller's own atoms
    assert atoms == (query.body[1], query.body[2], query.body[0])


# -- seeded mutants ---------------------------------------------------------

SOURCE = inspect.getsource(canonical)

#: name -> (the line of the canonicaliser to break, what to break it into,
#: the property that must notice)
MUTANTS = {
    "constant type ignored": (
        "signature += (0, term)",
        "signature += (0, hash(term.value))",
        "invariant",
    ),
    "parameter treated as a plain variable": (
        "names = {v.name for v in parameters}",
        "names = set()",
        "sound",
    ),
    "head position ignored": (
        "heads[variable.name] = heads.get(variable.name, ()) + (position,)",
        "pass",
        "invariant",
    ),
    "refinement skipped": (
        "if len(set(signatures)) == len(signatures):",
        "if True:",
        "invariant",
    ),
    # ... and of the flat encoding of the key
    "constant type dropped from the key": (
        "flat += (0, type(value), value)",
        "flat += (0, None, value)",
        "flat",
    ),
    "equalities and head run together in the key": (
        "        items.append(None)\n        items += disjunct.head",
        "        items += disjunct.head",
        "flat",
    ),
    "disjuncts run together in the key": (
        "        if union:\n            items.append(None)\n",
        "",
        "flat",
    ),
    "parameter numbered like a plain variable in the key": (
        "if name in names:\n                flat += (1, name)",
        "if False:\n                flat += (1, name)",
        "key sound",
    ),
    "variable index taken from written order": (
        "        index: dict[str, int] = {}\n",
        "        index = {}\n"
        "        for term in [t for a in disjunct.body for t in a.terms]:\n"
        "            if type(term) is Variable and term.name not in names:\n"
        "                index.setdefault(term.name, len(index))\n",
        "key invariant",
    ),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_seeded_mutants_are_killed(name):
    old, new, killer = MUTANTS[name]
    assert SOURCE.count(old) == 1, f"mutation site of {name!r} moved"
    namespace = {"__name__": "canonical_mutant"}
    exec(compile(SOURCE.replace(old, new), f"<{name}>", "exec"), namespace)
    quick = settings(
        PROPERTY,
        max_examples=25,
        phases=(Phase.explicit, Phase.generate),
        report_multiple_bugs=False,
    )
    checks = properties(namespace["canonical_form"], budget=quick)
    checks.update(key_properties(namespace["canonical_key"], namespace["canonical_form"], quick))
    killed_by = []
    for label, check in checks.items():
        try:
            check()
        except AssertionError:
            killed_by.append(label)
    print(f"mutant {name!r} killed by: {', '.join(killed_by) or 'nothing'}")
    assert killer in killed_by, f"{name!r} survived {killer}: killed by {killed_by}"
