"""Every semigroup of order at most 4, up to isomorphism, against the naive oracles.

``oracles.semigroup_classes`` gives the 218 classes of orders 1-4. On each,
κ must be ``all_pairs_kappa``, both searches at bound 1 must give the naive
enumerators' witnesses, and every element of φ⁻¹(1) and every pair of ker φ
(``core._abelian_keys``) must have a witness of size 1. The searches at bound 1
also meet the naive enumerators on the 60 random transformation semigroups of
``oracles.random_transformation_semigroups``, of orders 1-15.
"""

import pytest

from semorient.core import _abelian_keys, commutative_congruence
from semorient.equations import OneVarWitness, TwoVarWitness
from semorient.search import orientable_set, sigma_report

from oracles import (
    all_associative_tables,
    all_pairs_kappa,
    class_semigroups,
    first_assoc_violation,
    naive_search_one_var,
    naive_search_two_var,
    random_transformation_semigroups,
    with_identity,
)

ORDERS = (1, 2, 3, 4)


def test_associative_tables_are_counted_by_oeis_a023814():
    tables = {n: list(all_associative_tables(n)) for n in ORDERS}
    assert [len(tables[n]) for n in ORDERS] == [1, 8, 113, 3492]
    assert all(first_assoc_violation(t) is None for n in ORDERS for t in tables[n])


def test_isomorphism_classes_are_counted_by_oeis_a027851():
    assert [len(class_semigroups(n)) for n in ORDERS] == [1, 5, 24, 188]


@pytest.mark.parametrize("n", ORDERS)
def test_kappa_is_the_all_pairs_kappa(n):
    for s in class_semigroups(n):
        assert commutative_congruence(s).class_of == all_pairs_kappa(s.table), s.table


@pytest.mark.parametrize("n", [*ORDERS, "random"])
def test_searches_at_bound_one_are_the_naive_enumerators(n):
    for s in random_transformation_semigroups(60) if n == "random" else class_semigroups(n):
        m = with_identity(s.table)
        elements = range(s.order)
        expected = {}
        for g in elements:
            w = naive_search_one_var(m, g, 1)
            expected[g] = w and OneVarWitness(*w)
        assert orientable_set(s, 1) == expected, s.table
        expected = {}
        for u in elements:
            for v in elements:
                w = naive_search_two_var(m, u, v, 1)
                if w is not None:
                    expected[(u, v)] = TwoVarWitness(*w)
        assert sigma_report(s, 1) == expected, s.table


@pytest.mark.parametrize("n", ORDERS)
def test_every_kernel_element_and_pair_has_a_witness_of_size_one(n):
    counted = [0, 0]
    for s in class_semigroups(n):
        eps, kernel = _abelian_keys(s)
        key = kernel.class_of
        ones = {g for g in range(n) if key[g] == key[eps]}
        assert {g for g, w in orientable_set(s, 1).items() if w is not None} == ones, s.table
        related = {(u, v) for u in range(n) for v in range(n) if key[u] == key[v]}
        assert sigma_report(s, 1).keys() == related, s.table
        counted[0] += len(ones)
        counted[1] += len(related)
    if n == 4:
        assert counted == [706, 2804]
