from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semorient.catalog import CATALOG_FAMILIES, make_family
from semorient.core import (
    adjoin_identity,
    commutative_congruence,
    eval_word,
    is_commutative,
    make_semigroup,
)
from semorient.equations import (
    OneVarWitness,
    TwoVarWitness,
    one_var_to_json,
    one_var_to_text,
    two_var_to_json,
    two_var_to_text,
    validate_one_var,
    validate_two_var,
    witness_from_json,
)
from semorient.groups import NotAGroupError, commutator_subgroup, group_structure
from semorient.search import (
    orientable_set,
    search_one_var,
    search_two_var,
    sigma_report,
    unfiltered_one_var_search,
    unfiltered_two_var_search,
)
from semorient.search import (  # private: the search data and the filter are checked directly
    _Multiset,
    _one_var_candidates,
    _orderings,
    _two_var_candidates,
)
from semorient.theorems import exact_sigma_report

from oracles import all_associative_tables, naive_search_one_var, naive_search_two_var


def monoid(spec):
    return adjoin_identity(make_family(spec))


# ---------------------------------------------------------------- validators


def test_one_var_identity_witness_any_group(group_family):
    spec, s = group_family
    g = group_structure(s)
    m = adjoin_identity(s)
    for x in range(s.order):
        w = OneVarWitness((x, g.inverse[x]), (x,), (g.inverse[x],))
        assert validate_one_var(m, g.identity, w) is None


def test_one_var_s3_single_commutator_shape(s3):
    # x y = t y x with t the commutator of the transpositions x = (12), y = (13)
    from semorient.groups import commutator

    g = group_structure(s3)
    m = adjoin_identity(s3)
    x, y = s3.index_of("102"), s3.index_of("210")
    t = commutator(g, x, y)
    w = OneVarWitness((x, y), (), (y, x))
    assert validate_one_var(m, t, w) is None
    # and it fails for any other element
    for other in range(6):
        if other != t:
            assert validate_one_var(m, other, w) is not None


def test_one_var_z2_substitution_failure():
    m = monoid("cyclic:2")
    w = OneVarWitness((1, 1), (1,), (1,))
    reason = validate_one_var(m, 1, w)
    assert reason is not None and "substitution" in reason


@pytest.mark.parametrize(
    "witness, fragment",
    [
        (OneVarWitness((), (0,), ()), "a_word must be non-empty"),
        (OneVarWitness((0,), (), ()), "may not both be empty"),
        (OneVarWitness((0, 0), (0,), ()), "unbalanced lengths"),
        (OneVarWitness((0,), (1,), ()), "multisets differ"),
    ],
)
def test_one_var_structural_reasons(witness, fragment):
    m = monoid("cyclic:2")
    reason = validate_one_var(m, 0, witness)
    assert reason is not None and fragment in reason


def test_one_var_rejects_adjoined_identity_as_factor():
    m = monoid("cyclic:2")
    e = m.identity_index
    reason = validate_one_var(m, 0, OneVarWitness((e,), (e,), ()))
    assert reason is not None and "adjoined identity" in reason


def test_one_var_out_of_range_raises():
    m = monoid("cyclic:2")
    with pytest.raises(ValueError):
        validate_one_var(m, 99, OneVarWitness((0,), (0,), ()))
    with pytest.raises(ValueError):
        validate_one_var(m, 0, OneVarWitness((9,), (0,), ()))


def test_two_var_reflexivity_padding(catalog_family):
    spec, s = catalog_family
    m = adjoin_identity(s)
    w = TwoVarWitness((0,), (), (0,), ())
    for u in range(s.order):
        assert validate_two_var(m, u, u, w) is None


def test_two_var_commutation_witness(catalog_family):
    spec, s = catalog_family
    m = adjoin_identity(s)
    for u in range(s.order):
        for v in range(s.order):
            w = TwoVarWitness((v,), (), (), (v,))
            assert validate_two_var(m, s.table[u][v], s.table[v][u], w) is None


def test_two_var_leftzero_pair():
    s = make_family("leftzero:2")
    m = adjoin_identity(s)
    w = TwoVarWitness((0,), (), (0,), ())
    assert validate_two_var(m, 0, 1, w) is None  # x0*x0 = x0 = x0*x1


def test_two_var_structural_reasons():
    m = monoid("cyclic:2")
    assert "at least one factor" in validate_two_var(
        m, 0, 0, TwoVarWitness((), (), (), ())
    )
    assert "unbalanced lengths" in validate_two_var(
        m, 0, 0, TwoVarWitness((0,), (), (), ())
    )
    assert "multisets differ" in validate_two_var(
        m, 0, 0, TwoVarWitness((0,), (), (1,), ())
    )


# ------------------------------------------------------------------ searches


def test_search_identity_witness_minimal(z4):
    m = adjoin_identity(z4)
    w = search_one_var(m, 0, 1)
    # canonical minimal witness at n = 1: [0] = [] * t * [0]
    assert w == OneVarWitness((0,), (), (0,))


def test_search_one_var_s3_transposition_none(s3):
    m = adjoin_identity(s3)
    for name in ("021", "102", "210"):
        assert search_one_var(m, s3.index_of(name), 3) is None


def test_search_one_var_null3():
    m = monoid("null:3")
    for g in range(3):
        w = search_one_var(m, g, 2)
        assert w is not None
        assert validate_one_var(m, g, w) is None


def test_orientable_set_z4(z4):
    m = adjoin_identity(z4)
    found = orientable_set(m, 3)
    assert {g for g, w in found.items() if w is not None} == {0}


def test_orientable_set_s3_is_a3(s3):
    m = adjoin_identity(s3)
    found = orientable_set(m, 3)
    got = {s3.names[g] for g, w in found.items() if w is not None}
    assert got == {"012", "120", "201"}


def test_orientable_set_leftzero_all():
    m = monoid("leftzero:3")
    found = orientable_set(m, 2)
    assert all(w is not None for w in found.values())


def test_search_two_var_reflexive_canonical():
    m = monoid("cyclic:3")
    w = search_two_var(m, 1, 1, 1)
    # canonical at n = 1 prefers the empty a_word: t1 * [0] = t2 * [0]
    assert w == TwoVarWitness((), (0,), (), (0,))
    assert validate_two_var(m, 1, 1, w) is None


def test_search_two_var_z4_cross_class_none(z4):
    m = adjoin_identity(z4)
    assert search_two_var(m, 1, 3, 2) is None


def test_search_two_var_s3_same_coset_found(s3):
    m = adjoin_identity(s3)
    r, r2 = s3.index_of("120"), s3.index_of("201")
    w = search_two_var(m, r, r2, 2)
    assert w is not None
    assert validate_two_var(m, r, r2, w) is None


def test_search_bounds_validated():
    m = monoid("cyclic:2")
    with pytest.raises(ValueError):
        search_one_var(m, 0, 0)
    with pytest.raises(ValueError):
        search_two_var(m, 0, 0, 0)
    with pytest.raises(ValueError):
        search_one_var(m, 77, 2)


@pytest.mark.parametrize(
    "spec", ["cyclic:3", "leftzero:3", "rightzero:3", "null:3", "fulltransformation:2"]
)
def test_search_one_var_agrees_with_naive_oracle(spec):
    m = monoid(spec)
    for g in range(m.base.order):
        for bound in (1, 2, 3, 4):
            got = search_one_var(m, g, bound)
            expected = naive_search_one_var(m, g, bound)
            if expected is None:
                assert got is None
            else:
                assert got == OneVarWitness(*expected)


@pytest.mark.parametrize("spec", ["cyclic:3", "leftzero:2", "rightzero:3", "null:3"])
def test_search_two_var_agrees_with_naive_oracle(spec):
    m = monoid(spec)
    for u in range(m.base.order):
        for v in range(m.base.order):
            for bound in (1, 2):
                got = search_two_var(m, u, v, bound)
                expected = naive_search_two_var(m, u, v, bound)
                if expected is None:
                    assert got is None
                else:
                    assert got == TwoVarWitness(*expected)


@pytest.mark.parametrize("raw", list(all_associative_tables(2)))
def test_search_one_var_agrees_with_naive_oracle_on_order_2_at_bound_5(raw):
    # two elements give many orderings with equal products, so split keys collide
    m = adjoin_identity(make_semigroup(("a", "b"), raw))
    for g in range(2):
        expected = naive_search_one_var(m, g, 5)
        assert search_one_var(m, g, 5) == (None if expected is None else OneVarWitness(*expected))


def test_batched_searches_match_single_searches(catalog_family):
    spec, s = catalog_family
    m = adjoin_identity(s)
    found = orientable_set(m, 3)
    assert list(found) == list(range(s.order))
    for g in range(s.order):
        assert found[g] == search_one_var(m, g, 3)
    pairs = sigma_report(m, 2).pairs
    assert list(pairs) == sorted(pairs)
    for u in range(s.order):
        for v in range(s.order):
            assert pairs.get((u, v)) == search_two_var(m, u, v, 2)


@pytest.mark.parametrize(
    "multiset", [(0,), (1, 1), (0, 0, 1), (0, 1, 1, 2), (0, 0, 1, 1, 1), (2, 0, 3, 1)]
)
def test_orderings_are_lexicographic_with_first_changed_position(multiset):
    got = [(tuple(word), j) for word, j in _orderings(multiset)]
    words = sorted(set(permutations(multiset)))
    assert [w for w, _ in got] == words
    assert got[0][1] == 0
    for (prev, _), (word, j) in zip(got, got[1:]):
        assert prev[:j] == word[:j] and prev[j] != word[j]


@pytest.mark.parametrize("spec", ["null:3", "leftzero:2", "symmetric:3", "fulltransformation:2"])
def test_multiset_splits_are_smallest_and_sorted(spec):
    m = monoid(spec)
    t, e = m.table, m.identity_index
    for multiset in [(0, 0, 1, 1), (0, 1, 1, 2), (0, 1, 2, 2, 2)]:
        if max(multiset) >= m.base.order:
            continue
        data = _Multiset(t, e, multiset)
        smallest = {}
        for word in sorted(set(permutations(multiset))):
            for k in range(len(word) + 1):
                key = (eval_word(m, word[:k]), eval_word(m, word[k:]))
                smallest[key] = min(smallest.get(key, (word[:k], word[k:])), (word[:k], word[k:]))
        assert data.splits == sorted(smallest, key=smallest.__getitem__)
        assert [data.split(pos) for pos in range(len(data.splits))] == sorted(smallest.values())
        for value, index in data.first.items():
            word = data.words[index]
            assert eval_word(m, word) == value
            assert all(eval_word(m, w) != value for w in data.words[:index])


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_search_monotone_in_bound(data):
    spec = data.draw(st.sampled_from(CATALOG_FAMILIES))
    s = make_family(spec)
    m = adjoin_identity(s)
    g = data.draw(st.integers(min_value=0, max_value=s.order - 1))
    bound = data.draw(st.integers(min_value=1, max_value=3))
    w1 = search_one_var(m, g, bound)
    if w1 is not None:
        assert search_one_var(m, g, bound + 1) == w1


def test_found_witnesses_stay_in_commutator_subgroup(group_family):
    # balance forces the substituted element into the trivial class upstairs
    spec, s = group_family
    g = group_structure(s)
    derived = set(commutator_subgroup(g))
    m = adjoin_identity(s)
    for x, w in orientable_set(m, 3).items():
        if w is not None:
            assert x in derived


def test_idempotent_canonical_witness(catalog_family):
    spec, s = catalog_family
    m = adjoin_identity(s)
    for e in range(s.order):
        if s.table[e][e] == e:
            assert validate_one_var(m, e, OneVarWitness((e, e), (e,), (e,))) is None


# ------------------------------------------------------- commutative image


SMALL_TABLES = [
    make_semigroup([f"x{i}" for i in range(n)], raw)
    for n in (1, 2, 3)
    for raw in all_associative_tables(n)
]


def _assert_filter_keeps_search_results(s):
    """The filtered entry points equal the unfiltered search; rejects have no witness."""
    m = adjoin_identity(s)
    n, e = s.order, m.identity_index
    elements = range(n)
    one = unfiltered_one_var_search(m, elements, 4)
    assert orientable_set(m, 4) == one
    for g in elements:
        assert search_one_var(m, g, 4) == one[g]
    kept = _one_var_candidates(m, elements)
    assert kept == sorted(kept)
    assert all(one[g] is None for g in elements if g not in kept)

    pairs = [(u, v) for u in elements for v in elements]
    two = unfiltered_two_var_search(m, pairs, 3)
    assert sigma_report(m, 3).pairs == {pair: w for pair, w in two.items() if w is not None}
    for u, v in pairs:
        assert search_two_var(m, u, v, 3) == two[(u, v)]
    kept_pairs = set(_two_var_candidates(m, pairs))
    assert all(two[pair] is None for pair in pairs if pair not in kept_pairs)

    # the adjoined identity is outside S/κ: it always reaches the search
    assert _one_var_candidates(m, [e]) == [e]
    assert _two_var_candidates(m, [(e, 0), (0, e)]) == [(e, 0), (0, e)]
    assert search_one_var(m, e, 2) == unfiltered_one_var_search(m, [e], 2)[e]
    assert search_two_var(m, e, 0, 2) == unfiltered_two_var_search(m, [(e, 0)], 2)[(e, 0)]


def test_filter_keeps_search_results_on_every_small_table():
    assert len(SMALL_TABLES) == 1 + 8 + 113
    for s in SMALL_TABLES:
        _assert_filter_keeps_search_results(s)


def test_filter_keeps_search_results_on_catalog(catalog_family):
    spec, s = catalog_family
    _assert_filter_keeps_search_results(s)


def test_filtered_searches_still_reject_bad_input():
    m = monoid("cyclic:3")
    with pytest.raises(ValueError):
        search_one_var(m, 9, 2)
    with pytest.raises(ValueError):
        search_two_var(m, 0, 9, 2)
    with pytest.raises(ValueError):
        search_one_var(m, 1, 0)  # rejected by the filter, but the bound is still checked


COMMUTATIVE_FAMILIES = [spec for spec in CATALOG_FAMILIES if is_commutative(make_family(spec))]


@pytest.mark.parametrize("spec", ["small tables", *COMMUTATIVE_FAMILIES])
def test_bound_one_decides_on_commutative_tables(spec):
    # κ is trivial, and g*w = w gives the size-1 witness ([w], [w], []),
    # u*w = v*w the size-1 witness ([], [w], [], [w])
    if spec == "small tables":
        tables = [s for s in SMALL_TABLES if is_commutative(s)]
        assert len(tables) == 1 + 6 + 63
    else:
        tables = [make_family(spec)]
    for s in tables:
        assert commutative_congruence(s).num_classes == s.order
        m = adjoin_identity(s)
        elements = range(s.order)
        found = {g for g, w in orientable_set(m, 1).items() if w is not None}
        assert found == set(_one_var_candidates(m, elements))
        pairs = [(u, v) for u in elements for v in elements]
        assert set(sigma_report(m, 1).pairs) == set(_two_var_candidates(m, pairs))


# -------------------------------------------------------------- sigma report


def test_sigma_report_leftzero_total_at_one():
    m = monoid("leftzero:3")
    rep = sigma_report(m, 1)
    assert rep.exactness == "lower-bound"
    assert rep.congruence.num_classes == 1
    assert len(rep.pairs) == 9
    for (u, v), w in rep.pairs.items():
        assert validate_two_var(m, u, v, w) is None


def test_sigma_report_exact_cyclic5():
    rep = exact_sigma_report(group_structure(make_family("cyclic:5")))
    assert rep.exactness == "exact-group"
    assert rep.congruence.num_classes == 5
    assert set(rep.pairs) == {(u, u) for u in range(5)}


def test_sigma_report_exact_s3(s3):
    m = adjoin_identity(s3)
    rep = exact_sigma_report(group_structure(s3))
    assert rep.congruence.num_classes == 2
    sizes = sorted(len(c) for c in rep.congruence.classes())
    assert sizes == [3, 3]
    for (u, v), w in rep.pairs.items():
        assert validate_two_var(m, u, v, w) is None


def test_sigma_report_exact_requires_group():
    with pytest.raises(NotAGroupError):
        group_structure(make_family("leftzero:3"))


def test_sigma_pairs_within_congruence(catalog_family):
    spec, s = catalog_family
    m = adjoin_identity(s)
    rep = sigma_report(m, 2)
    for u, v in rep.pairs:
        assert rep.congruence.relates(u, v)


# ------------------------------------------------------------- serialization


def test_one_var_text_rendering(s3):
    w = OneVarWitness((2, 5), (), (5, 2))
    assert one_var_to_text(s3.names, w) == "[102 210] = [] * t * [210 102]"


def test_two_var_text_rendering(s3):
    w = TwoVarWitness((3,), (), (), (3,))
    assert two_var_to_text(s3.names, w) == "[120] * t1 * [] = [] * t2 * [120]"


def test_witness_json_round_trip(s3):
    m = adjoin_identity(s3)
    w = search_one_var(m, s3.index_of("120"), 3)
    obj = one_var_to_json(s3.names, w, s3.index_of("120"), True)
    assert obj["kind"] == "one-var"
    element, back = witness_from_json(s3.names, obj)
    assert element == s3.index_of("120")
    assert back == w
    assert validate_one_var(m, element, back) is None

    w2 = search_two_var(m, s3.index_of("120"), s3.index_of("201"), 2)
    obj2 = two_var_to_json(s3.names, w2, (s3.index_of("120"), s3.index_of("201")), True)
    pair, back2 = witness_from_json(s3.names, obj2)
    assert pair == (s3.index_of("120"), s3.index_of("201"))
    assert back2 == w2
    assert validate_two_var(m, pair[0], pair[1], back2) is None


def test_witness_from_json_rejects_unknown(s3):
    with pytest.raises(ValueError):
        witness_from_json(s3.names, {"kind": "one-var", "a": ["zz"], "b": [], "c": ["zz"], "element": "012"})
    with pytest.raises(ValueError):
        witness_from_json(s3.names, {"kind": "mystery"})
