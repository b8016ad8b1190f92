import tracemalloc
from collections import Counter
from itertools import combinations_with_replacement, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semorient import search
from semorient.catalog import CATALOG_FAMILIES, make_family
from semorient.core import _abelian_keys  # private: the key the filter compares
from semorient.core import (
    Congruence,
    Semigroup,
    adjoin_identity,
    commutative_congruence,
    eval_word,
    generated_congruence,
    is_commutative,
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
)
from semorient.groups import NotAGroupError, commutator_subgroup, group_structure
from semorient.search import orientable_set, search_one_var, search_two_var, sigma_report
# private: the search data, the unfiltered searches and the key the entry points
# compare are checked directly
from semorient.search import _keys, _one_var_search, _pair_search, _splits
from semorient.theorems import exact_sigma_report

from oracles import (
    all_associative_tables,
    class_scan_candidates,
    fixed_size_search_one_var,
    labelled_semigroups,
    mul_word,
    naive_search_one_var,
    naive_search_two_var,
    rees_matrix_table,
    rees_tables,
    witness_problem,
    with_identity,
)


# ---------------------------------------------------------------- validators


def test_one_var_identity_witness_any_group(group_family):
    spec, s = group_family
    g = group_structure(s)
    for x in range(s.order):
        w = OneVarWitness((x, g.inverse[x]), (x,), (g.inverse[x],))
        assert validate_one_var(s, g.identity, w) is None


def test_one_var_s3_single_commutator_shape(s3):
    # x y = t y x with t the commutator of the transpositions x = (12), y = (13)
    from semorient.groups import commutator

    x, y = s3.index_of("102"), s3.index_of("210")
    t = commutator(s3, x, y)
    w = OneVarWitness((x, y), (), (y, x))
    assert validate_one_var(s3, t, w) is None
    # and it fails for any other element
    for other in range(6):
        if other != t:
            assert validate_one_var(s3, other, w) is not None


def test_one_var_z2_substitution_failure():
    w = OneVarWitness((1, 1), (1,), (1,))
    reason = validate_one_var(make_family("cyclic:2"), 1, w)
    assert reason is not None and "substitution" in reason


@pytest.mark.parametrize(
    "witness, fragment",
    [
        (OneVarWitness((), (0,), ()), "unbalanced lengths"),
        (OneVarWitness((0,), (), ()), "unbalanced lengths"),
        (OneVarWitness((0, 0), (0,), ()), "unbalanced lengths"),
        (OneVarWitness((0,), (1,), ()), "multisets differ"),
    ],
)
def test_one_var_structural_reasons(witness, fragment):
    reason = validate_one_var(make_family("cyclic:2"), 0, witness)
    assert reason is not None and fragment in reason


def test_one_var_validator_agrees_with_the_definition_on_small_witnesses():
    # every g in S¹ and every (a, b, c) of words of length <= 2 over S¹, on every
    # table of order <= 2: the pair check on (1, g) accepts exactly these
    checked = accepted = 0
    for s in labelled_semigroups(1, 2):
        m = with_identity(s.table)
        e = m.identity_index
        letters = range(e + 1)
        words = [w for k in range(3) for w in product(letters, repeat=k)]
        for g in letters:
            for a, b, c in product(words, repeat=3):
                valid = (
                    len(a) >= 1
                    and len(a) == len(b) + len(c)
                    and e not in a + b + c
                    and sorted(a) == sorted(b + c)
                    and mul_word(m, a) == mul_word(m, b + (g,) + c)
                )
                reason = validate_one_var(s, g, OneVarWitness(a, b, c))
                assert (reason is None) == valid, (s.table, g, a, b, c, reason)
                checked += 1
                accepted += valid
    assert checked == 53_414 and 0 < accepted < checked


def test_one_var_rejects_adjoined_identity_as_factor():
    s = make_family("cyclic:2")
    e = s.order  # the adjoined 1 of S¹
    reason = validate_one_var(s, 0, OneVarWitness((e,), (e,), ()))
    assert reason is not None and "adjoined identity" in reason


def test_one_var_out_of_range_raises():
    s = make_family("cyclic:2")
    with pytest.raises(ValueError):
        validate_one_var(s, 99, OneVarWitness((0,), (0,), ()))
    with pytest.raises(ValueError):
        validate_one_var(s, 0, OneVarWitness((9,), (0,), ()))


@pytest.mark.parametrize("earlier", ["adjoined identity", "unbalanced lengths"])
def test_two_var_letter_outside_s1_raises_before_any_reason(earlier):
    # each witness also fails the clause it is named for, but 9 is no element of S¹:
    # an error in the input, not a reason
    s = make_family("cyclic:3")
    witness = {
        "adjoined identity": TwoVarWitness((s.order,), (), (9,), ()),
        "unbalanced lengths": TwoVarWitness((9,), (), (), ()),
    }[earlier]
    with pytest.raises(ValueError, match="^word entry 9 out of range$"):
        validate_two_var(s, 0, 0, witness)


def test_two_var_reflexivity_padding(catalog_family):
    spec, s = catalog_family
    w = TwoVarWitness((0,), (), (0,), ())
    for u in range(s.order):
        assert validate_two_var(s, u, u, w) is None


def test_two_var_commutation_witness(catalog_family):
    spec, s = catalog_family
    for u in range(s.order):
        for v in range(s.order):
            w = TwoVarWitness((v,), (), (), (v,))
            assert validate_two_var(s, s.table[u][v], s.table[v][u], w) is None


def test_two_var_leftzero_pair():
    s = make_family("leftzero:2")
    w = TwoVarWitness((0,), (), (0,), ())
    assert validate_two_var(s, 0, 1, w) is None  # x0*x0 = x0 = x0*x1


def test_two_var_structural_reasons():
    s = make_family("cyclic:2")
    assert "at least one factor" in validate_two_var(
        s, 0, 0, TwoVarWitness((), (), (), ())
    )
    assert "unbalanced lengths" in validate_two_var(
        s, 0, 0, TwoVarWitness((0,), (), (), ())
    )
    assert "multisets differ" in validate_two_var(
        s, 0, 0, TwoVarWitness((0,), (), (1,), ())
    )
    e = s.order
    assert "adjoined identity" in validate_two_var(s, 0, 0, TwoVarWitness((e,), (), (e,), ()))
    # in Z2, 1*0 = 1 but 1*1 = 0
    reason = validate_two_var(s, 0, 1, TwoVarWitness((1,), (), (1,), ()))
    assert reason == (
        "substitution fails: the left side evaluates to 1 but the right side evaluates to 0"
    )
    assert TwoVarWitness((1,), (0, 1), (), (1, 0, 1)).size == 3


def test_substitution_reason_names_base_elements_at_the_adjoined_identity(s3):
    # u = v = 1 of S¹: each side still holds a base letter, so its value is a base element
    e, t = s3.order, s3.table
    x, y = next((x, y) for x in range(s3.order) for y in range(s3.order) if t[x][y] != t[y][x])
    reason = validate_two_var(s3, e, e, TwoVarWitness((x, y), (), (y, x), ()))
    assert reason == (
        f"substitution fails: the left side evaluates to {s3.names[t[x][y]]}"
        f" but the right side evaluates to {s3.names[t[y][x]]}"
    )


# ------------------------------------------------------------------ searches


def test_search_identity_witness_minimal(z4):
    w = search_one_var(z4, 0, 1)
    # canonical minimal witness at n = 1: [0] = [] * t * [0]
    assert w == OneVarWitness((0,), (), (0,))


def test_search_one_var_s3_transposition_none(s3):
    for name in ("021", "102", "210"):
        assert search_one_var(s3, s3.index_of(name), 3) is None


def test_search_one_var_null3():
    s = make_family("null:3")
    for g in range(3):
        w = search_one_var(s, g, 2)
        assert w is not None
        assert validate_one_var(s, g, w) is None


def test_orientable_set_z4(z4):
    found = orientable_set(z4, 3)
    assert {g for g, w in found.items() if w is not None} == {0}


def test_orientable_set_s3_is_a3(s3):
    found = orientable_set(s3, 3)
    got = {s3.names[g] for g, w in found.items() if w is not None}
    assert got == {"012", "120", "201"}


def test_orientable_set_leftzero_all():
    found = orientable_set(make_family("leftzero:3"), 2)
    assert all(w is not None for w in found.values())


def test_search_two_var_reflexive_canonical():
    s = make_family("cyclic:3")
    w = search_two_var(s, 1, 1, 1)
    # canonical at n = 1 prefers the empty a_word: t1 * [0] = t2 * [0]
    assert w == TwoVarWitness((), (0,), (), (0,))
    assert validate_two_var(s, 1, 1, w) is None


def test_search_two_var_z4_cross_class_none(z4):
    assert search_two_var(z4, 1, 3, 2) is None


def test_search_two_var_s3_same_coset_found(s3):
    r, r2 = s3.index_of("120"), s3.index_of("201")
    w = search_two_var(s3, r, r2, 2)
    assert w is not None
    assert validate_two_var(s3, r, r2, w) is None


def test_search_bounds_validated():
    s = make_family("cyclic:2")
    with pytest.raises(ValueError):
        search_one_var(s, 0, 0)
    with pytest.raises(ValueError):
        search_two_var(s, 0, 0, 0)
    with pytest.raises(ValueError):
        search_one_var(s, 77, 2)


_CALLS_BEYOND_THE_TABLE = [
    (orientable_set, (3,)),
    (search_one_var, (0, 3)),
    (search_two_var, (0, 0, 3)),
    (sigma_report, (3,)),
    (validate_one_var, (0, OneVarWitness((0,), (0,), ()))),
    (validate_two_var, (0, 0, TwoVarWitness((), (0,), (), (0,)))),
]


@pytest.mark.parametrize(
    "entry, args", _CALLS_BEYOND_THE_TABLE, ids=[f.__name__ for f, _ in _CALLS_BEYOND_THE_TABLE]
)
def test_entry_points_refuse_the_rows_of_s1(entry, args):
    # read as a table, S¹ of Z4 would get a second 1 adjoined, and its orientable
    # set would be {0, 4} where Z4's is {0}: the rows carry no order to be read so
    s = make_family("cyclic:4")
    assert [g for g, w in orientable_set(s, 3).items() if w is not None] == [0]
    with pytest.raises(AttributeError):
        entry(adjoin_identity(s), *args)


@pytest.mark.parametrize(
    "spec", ["cyclic:3", "leftzero:3", "rightzero:3", "null:3", "fulltransformation:2"]
)
def test_search_one_var_agrees_with_naive_oracle(spec):
    s = make_family(spec)
    m = with_identity(s.table)
    for g in range(s.order):
        for bound in (1, 2, 3, 4):
            got = search_one_var(s, g, bound)
            expected = naive_search_one_var(m, g, bound)
            if expected is None:
                assert got is None
            else:
                assert got == OneVarWitness(*expected)


@pytest.mark.parametrize("spec", ["cyclic:3", "leftzero:2", "rightzero:3", "null:3"])
def test_search_two_var_agrees_with_naive_oracle(spec):
    s = make_family(spec)
    m = with_identity(s.table)
    for u in range(s.order):
        for v in range(s.order):
            for bound in (1, 2):
                got = search_two_var(s, u, v, bound)
                expected = naive_search_two_var(m, u, v, bound)
                if expected is None:
                    assert got is None
                else:
                    assert got == TwoVarWitness(*expected)


@pytest.mark.parametrize("raw", list(all_associative_tables(2)))
def test_search_one_var_agrees_with_naive_oracle_on_order_2_at_bound_5(raw):
    # two elements give many orderings with equal products, so split keys collide
    s = Semigroup(("a", "b"), raw)
    m = with_identity(s.table)
    for g in range(2):
        expected = naive_search_one_var(m, g, 5)
        assert search_one_var(s, g, 5) == (None if expected is None else OneVarWitness(*expected))


def test_rees_matrix_semigroup_needs_witnesses_of_size_3():
    # M[Z3; 2, 2; P] with P = ((e, e), (e, g)) for the generator g: a non-group of order 12
    z3 = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    table = rees_matrix_table(z3, 2, 2, ((0, 0), (0, 1)))
    s = Semigroup([f"r{k}" for k in range(12)], table)
    m = with_identity(s.table)
    found = orientable_set(s, 3)
    assert Counter(len(w.a) for w in found.values()) == {1: 4, 2: 4, 3: 4}
    for g, w in found.items():
        assert validate_one_var(s, g, w) is None
        small = naive_search_one_var(m, g, 2)
        if len(w.a) <= 2:
            assert w == small
        else:
            # the naive search takes seconds per element at size 3
            assert small is None and w == fixed_size_search_one_var(m, g, 3)
    pairs = sigma_report(s, 2)
    sample = [(0, 3), (0, 8), (2, 9), (3, 8), (5, 10), (11, 4)]
    assert {pair in pairs for pair in sample} == {True, False}
    for u, v in sample:
        assert pairs.get((u, v)) == naive_search_two_var(m, u, v, 2)


def test_batched_searches_match_single_searches(catalog_family):
    spec, s = catalog_family
    found = orientable_set(s, 3)
    assert list(found) == list(range(s.order))
    for g in range(s.order):
        assert found[g] == search_one_var(s, g, 3)
    pairs = sigma_report(s, 2)
    assert list(pairs) == sorted(pairs)
    for u in range(s.order):
        for v in range(s.order):
            assert pairs.get((u, v)) == search_two_var(s, u, v, 2)


@pytest.mark.parametrize("spec", ["null:3", "leftzero:2", "symmetric:3", "fulltransformation:2"])
def test_level_data_is_smallest_and_sorted(spec):
    s = make_family(spec)
    t, e = adjoin_identity(s), s.order
    below = {(): {(e, e): ((), ())}}
    for n in range(1, 6):
        level = {m: _splits(t, m, below) for m in combinations_with_replacement(range(e), n)}
        for multiset, splits in level.items():
            words = sorted(set(permutations(multiset)))
            smallest_a = {}
            smallest_bc = {}
            for word in words:
                smallest_a.setdefault(eval_word(s, word), word)
                for k in range(n + 1):
                    key = (eval_word(s, word[:k]), eval_word(s, word[k:]))
                    bc = (word[:k], word[k:])
                    smallest_bc[key] = min(smallest_bc.get(key, bc), bc)
            # the orderings come first, keyed (1, v), in ascending words
            items = list(splits.items())
            orderings = sorted(smallest_a.items(), key=lambda kv: kv[1])
            assert items[: len(orderings)] == [((e, v), ((), a)) for v, a in orderings]
            assert all(p != e for p, _ in list(splits)[len(orderings) :])
            # the entries and their order: ascending words
            assert items == sorted(smallest_bc.items(), key=lambda kv: kv[1])
        below = level


def _built_splits(monkeypatch):
    """Spy on ``search._splits``: the list of multisets it builds, in order."""
    splits, built = search._splits, []

    def spy(t, multiset, below):
        built.append(multiset)
        return splits(t, multiset, below)

    monkeypatch.setattr(search, "_splits", spy)
    return built


def test_pair_search_stops_at_the_floor(monkeypatch):
    # every pair of null:30 has the witness ((), (x0), (), (x0)), found at the first
    # multiset; each split of the second, (x1), is at least ((), (x1)), so no pair is
    # live there and it is never built
    built = _built_splits(monkeypatch)
    pairs = sigma_report(make_family("null:30"), 1)
    assert len(pairs) == 900 and set(pairs.values()) == {TwoVarWitness((), (0,), (), (0,))}
    assert built == [(0,)]
    # equal witnesses are one object: one for the null semigroup, and on the left-zero
    # band one for the diagonal and one ((), (u,), (u,), ()) per u for the other (u, v)
    assert len({id(w) for w in pairs.values()}) == 1
    band = sigma_report(make_family("leftzero:30"), 1)
    assert len(band) == 900 and len({id(w) for w in band.values()}) == 31


def test_pair_search_maps_only_the_witnessed_pairs_once_in_the_order_given():
    # all 49 pairs over S¹ of S3 in reverse order, (1, 1) given again at the end: the
    # result holds each pair the naive oracle witnesses once, where it first came
    s = make_family("symmetric:3")
    m = with_identity(s.table)
    pairs = list(product(range(s.order + 1), repeat=2))[::-1]
    pairs.append(pairs[0])
    expected = {}
    for u, v in pairs:
        w = naive_search_two_var(m, u, v, 2)
        if w is not None:
            expected.setdefault((u, v), TwoVarWitness(*w))
    found = _pair_search(s, pairs, 2)
    assert len(found) == 25 and (s.order, s.order) in found
    assert list(found.items()) == list(expected.items())
    # sigma_report keeps Congruence.pairs order, which the propositions output follows
    related = sigma_report(s, 2)
    assert list(related) == [pair for pair in _abelian_keys(s)[1].pairs() if pair in related]


def test_inputs_the_filter_drops_build_no_splits(monkeypatch):
    # 1 of Z12 is keyed apart from the identity, and (0, 1) lie in two classes of ker φ
    built = _built_splits(monkeypatch)
    s = make_family("cyclic:12")
    assert search_one_var(s, 1, 7) is None and search_two_var(s, 0, 1, 7) is None
    assert built == []
    # φ⁻¹(1) of Z1000 is {0}, witnessed [0] = [] * t * [0] by the first multiset, (0,);
    # the floor of the second is above that witness, so the search builds no other
    found = orientable_set(make_family("cyclic:1000"))
    assert [g for g, w in found.items() if w is not None] == [0]
    assert built == [(0,)]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_search_monotone_in_bound(data):
    spec = data.draw(st.sampled_from(CATALOG_FAMILIES))
    s = make_family(spec)
    g = data.draw(st.integers(min_value=0, max_value=s.order - 1))
    bound = data.draw(st.integers(min_value=1, max_value=3))
    w1 = search_one_var(s, g, bound)
    if w1 is not None:
        assert search_one_var(s, g, bound + 1) == w1


def test_found_witnesses_stay_in_commutator_subgroup(group_family):
    # balance forces the substituted element into the trivial class upstairs
    spec, s = group_family
    derived = set(commutator_subgroup(s))
    for x, w in orientable_set(s, 3).items():
        if w is not None:
            assert x in derived


def test_idempotent_canonical_witness(catalog_family):
    spec, s = catalog_family
    for e in range(s.order):
        if s.table[e][e] == e:
            assert validate_one_var(s, e, OneVarWitness((e, e), (e,), (e,))) is None


# ------------------------------------------------------- commutative image


SMALL_TABLES = labelled_semigroups(1, 2, 3)
REES_TABLES = rees_tables()
KEY_CORPUS = [*SMALL_TABLES, *map(make_family, CATALOG_FAMILIES), *REES_TABLES]


def _assert_filter_keeps_search_results(s):
    """The filtered entry points equal the unfiltered search; rejects have no witness."""
    n = e = s.order
    elements = range(n)
    one = _one_var_search(s, elements, 4)
    assert orientable_set(s, 4) == {g: one.get(g) for g in elements}
    for g in elements:
        assert search_one_var(s, g, 4) == one.get(g)
    key = _keys(s)
    assert all(key[g] == key[e] for g in one)

    pairs = [(u, v) for u in elements for v in elements]
    two = _pair_search(s, pairs, 3)
    assert sigma_report(s, 3) == two
    for u, v in pairs:
        assert search_two_var(s, u, v, 3) == two.get((u, v))
    assert all(key[u] == key[v] for u, v in two)

    # the adjoined identity is searched as an element and in a pair
    assert search_one_var(s, e, 2) == _one_var_search(s, [e], 2).get(e)
    assert search_two_var(s, e, 0, 2) == _pair_search(s, [(e, 0)], 2).get((e, 0))


def test_filter_keeps_search_results_on_every_small_table():
    assert len(SMALL_TABLES) == 1 + 8 + 113
    for s in [*SMALL_TABLES, *(s for s in REES_TABLES if s.order <= 12)]:
        _assert_filter_keeps_search_results(s)


def test_filter_keeps_search_results_on_catalog(catalog_family):
    spec, s = catalog_family
    _assert_filter_keeps_search_results(s)


def _assert_filter_is_the_class_scan(s):
    """The pairs keyed alike are those the oracle's κ-class scan keeps, on every pair over S¹.

    The pairs (1, g) among them are the elements the one-variable entry points search.
    """
    elements = range(s.order + 1)
    pairs = [(u, v) for u in elements for v in elements]
    key = _keys(s)
    kept = [(u, v) for u, v in pairs if key[u] == key[v]]
    assert kept == class_scan_candidates(with_identity(s.table), pairs), s.table


def test_pair_filter_is_the_class_scan_on_every_pair_over_s1():
    assert len(REES_TABLES) == 18 and max(s.order for s in REES_TABLES) == 54
    for s in KEY_CORPUS:
        _assert_filter_is_the_class_scan(s)


def test_key_from_an_idempotent_outside_the_minimal_ideal_is_not_the_class_scan(monkeypatch):
    # the identity of T2 is idempotent, but the minimal ideal holds only the two
    # constants: keyed by it, φ is κ itself, which splits the identity from the swap
    s = make_family("fulltransformation:2")
    eps = s.names.index("01")
    cls = commutative_congruence(s).class_of
    kernel = Congruence(cls[row[eps]] for row in s.table)
    monkeypatch.setattr(search, "_abelian_keys", lambda _: (eps, kernel))
    with pytest.raises(AssertionError):
        _assert_filter_is_the_class_scan(s)


def test_sigma_classes_are_the_kernel_of_the_abelian_image():
    # σ_orient = ker φ: the pairs the search witnesses generate ker φ from bound 1 on,
    # and a larger bound adds witnessed pairs only; ε is an idempotent in every principal ideal
    for s in KEY_CORPUS:
        eps, kernel = _abelian_keys(s)
        t = adjoin_identity(s)
        letters = range(len(t))
        assert t[eps][eps] == eps
        for x in range(s.order):
            assert eps in {t[t[a][x]][b] for a in letters for b in letters}
        for bound in (1, 3) if s.order <= 27 else (1,):
            pairs = sigma_report(s, bound)
            assert generated_congruence(s, pairs) == kernel, (s.table, bound)


def test_sigma_report_searches_only_the_pairs_inside_kernel_classes():
    # cyclic:300 has 300 such pairs: a list of all 90 000 pairs peaked at 7 MB
    s = make_family("cyclic:300")
    sigma_report(s, 1)  # warms the caches of ker φ
    tracemalloc.start()
    try:
        pairs = sigma_report(s, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pairs) == 300 and peak < 2_000_000, peak


@pytest.mark.parametrize("spec", ["cyclic:12", "symmetric:3", "leftzero:3", "fulltransformation:2"])
def test_entry_points_hand_the_pair_search_only_pairs_keyed_alike(monkeypatch, spec):
    # the pairs that reach the level search, against the oracle's κ-class scan
    s = make_family(spec)
    m = with_identity(s.table)
    e, elements = s.order, range(s.order)
    pairs = [(u, v) for u in elements for v in elements]
    kept = class_scan_candidates(m, pairs)
    members = [g for _, g in class_scan_candidates(m, [(e, g) for g in elements])]
    calls = []
    pair_search = search._pair_search

    def spy(s, pairs, bound):
        calls.append(list(pairs))
        return pair_search(s, pairs, bound)

    monkeypatch.setattr(search, "_pair_search", spy)
    orientable_set(s, 2)
    assert calls == [[(e, g) for g in members]]
    calls.clear()
    for g in elements:
        if g not in members:
            assert search_one_var(s, g, 2) is None
    for u, v in pairs:
        if (u, v) not in kept:
            assert search_two_var(s, u, v, 2) is None
    assert calls == [[]] * (len(elements) - len(members) + len(pairs) - len(kept))
    if spec in ("cyclic:12", "symmetric:3"):
        assert len(members) < s.order and len(kept) < len(pairs)


def test_filtered_searches_still_reject_bad_input():
    s = make_family("cyclic:3")
    with pytest.raises(ValueError):
        search_one_var(s, 9, 2)
    with pytest.raises(ValueError):
        search_two_var(s, 0, 9, 2)
    with pytest.raises(ValueError):
        search_one_var(s, 1, 0)  # rejected by the filter, but the bound is still checked
    # a negative index would read key[-1], the adjoined identity's key, if it were not checked
    with pytest.raises(ValueError):
        search_one_var(s, -1, 2)
    with pytest.raises(ValueError):
        search_two_var(s, -1, 3, 2)


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
        elements = range(s.order)
        key = _keys(s)
        found = {g for g, w in orientable_set(s, 1).items() if w is not None}
        assert found == {g for g in elements if key[g] == key[s.order]}
        pairs = {(u, v) for u in elements for v in elements if key[u] == key[v]}
        assert set(sigma_report(s, 1)) == pairs


# -------------------------------------------------------------- sigma report


def test_sigma_report_leftzero_total_at_one():
    s = make_family("leftzero:3")
    pairs = sigma_report(s, 1)
    assert _abelian_keys(s)[1].num_classes == 1
    assert len(pairs) == 9
    for (u, v), w in pairs.items():
        assert validate_two_var(s, u, v, w) is None


def test_sigma_report_exact_cyclic5():
    s = make_family("cyclic:5")
    pairs = exact_sigma_report(s)
    assert _abelian_keys(s)[1].num_classes == 5
    assert set(pairs) == {(u, u) for u in range(5)}


def test_sigma_report_exact_s3(s3):
    pairs = exact_sigma_report(s3)
    kernel = _abelian_keys(s3)[1]
    assert kernel.num_classes == 2
    sizes = sorted(len(c) for c in kernel.classes())
    assert sizes == [3, 3]
    assert set(pairs) == set(kernel.pairs())
    for (u, v), w in pairs.items():
        assert validate_two_var(s3, u, v, w) is None


def test_sigma_report_exact_requires_group():
    with pytest.raises(NotAGroupError):
        group_structure(make_family("leftzero:3"))


def test_sigma_pairs_within_congruence(catalog_family):
    spec, s = catalog_family
    kernel = _abelian_keys(s)[1]
    for u, v in sigma_report(s, 2):
        assert kernel.class_of[u] == kernel.class_of[v]


# ------------------------------------------------------------- serialization


def test_one_var_text_rendering(s3):
    w = OneVarWitness((2, 5), (), (5, 2))
    assert one_var_to_text(s3.names, w) == "[102 210] = [] * t * [210 102]"


def test_two_var_text_rendering(s3):
    w = TwoVarWitness((3,), (), (), (3,))
    assert two_var_to_text(s3.names, w) == "[120] * t1 * [] = [] * t2 * [120]"


def test_witness_json_round_trip(s3):
    # the names map back to the searched words, and the JSON re-checks apart from validate_*
    g, pair = s3.index_of("120"), (s3.index_of("120"), s3.index_of("201"))
    w = search_one_var(s3, g, 3)
    obj = one_var_to_json(s3.names, w, g)
    assert (obj["kind"], obj["element"]) == ("one-var", "120")
    assert tuple(tuple(map(s3.index_of, obj[k])) for k in "abc") == w
    assert witness_problem(s3.names, s3.table, obj) is None

    w2 = search_two_var(s3, *pair, 2)
    obj2 = two_var_to_json(s3.names, w2, pair)
    assert (obj2["kind"], obj2["pair"]) == ("two-var", ["120", "201"])
    assert tuple(tuple(map(s3.index_of, obj2[k])) for k in "abcd") == w2
    assert witness_problem(s3.names, s3.table, obj2) is None
