"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; each test also asserts, so the suite is red if any criterion fails.
"""

import time

from semorient.catalog import CATALOG_FAMILIES, GROUP_FAMILIES, make_family
from semorient.core import _abelian_keys  # private: ker φ, the σ classes
from semorient.core import (
    generated_congruence,
    is_cancellative,
    is_commutative,
    parse_table,
    quotient,
    serialize_table,
)
from semorient.equations import (
    OneVarWitness,
    TwoVarWitness,
    validate_one_var,
    validate_two_var,
)
from semorient.groups import (
    abelianization,
    commutator_subgroup,
    coset_congruence,
)
from semorient.search import orientable_set, search_one_var, search_two_var, sigma_report
from semorient.theorems import (
    build_orientable_witness,
    build_two_var_witness,
    commutator_decomposition,
    exact_sigma_report,
)

from conftest import FIXTURES
from oracles import (
    labelled_semigroups,
    naive_search_one_var,
    naive_search_two_var,
    with_identity,
)

EXPECTED_DERIVED_ORDER = {
    **{f"cyclic:{n}": 1 for n in range(1, 9)},
    "klein4": 1,
    "symmetric:3": 3,
    "dihedral:4": 2,
    "quaternion8": 2,
    "alternating:4": 4,
}


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_orientable_equals_commutator_subgroup():
    started = time.perf_counter()
    for spec in GROUP_FAMILIES:
        s = make_family(spec)
        derived = commutator_subgroup(s)
        assert len(derived) == EXPECTED_DERIVED_ORDER[spec], spec
        k_max = max(
            (len(commutator_decomposition(s, x)) for x in derived), default=0
        )
        bound = max(4, 2 * max(k_max, 1))
        found = orientable_set(s, bound)
        got = {x for x, w in found.items() if w is not None}
        assert got == set(derived), f"{spec}: {got} != {set(derived)}"
        for x in got:
            assert validate_one_var(s, x, found[x]) is None
    elapsed = time.perf_counter() - started
    report(
        "criterion 1: orientable set equals commutator subgroup on the group catalog",
        elapsed < 60.0,
        f"{elapsed:.1f}s for {len(GROUP_FAMILIES)} groups",
    )


def test_criterion_2_sigma_classes_equal_cosets():
    expected_quotient_order = {
        "symmetric:3": 2,
        "dihedral:4": 4,
        "quaternion8": 4,
        "alternating:4": 3,
    }
    ok = True
    for spec in GROUP_FAMILIES:
        s = make_family(spec)
        pairs = exact_sigma_report(s)
        kernel = _abelian_keys(s)[1]
        cosets = coset_congruence(s)
        ok = ok and kernel == cosets and set(pairs) == set(cosets.pairs())
        q = quotient(s, kernel)
        ok = ok and is_commutative(q) and is_cancellative(q)
        ok = ok and q.order == s.order // len(commutator_subgroup(s))
        if spec in expected_quotient_order:
            ok = ok and q.order == expected_quotient_order[spec]
        # up to class relabeling: map sigma class -> coset class through elements
        phi = {}
        consistent = True
        for x in range(s.order):
            a, b = kernel.class_of[x], cosets.class_of[x]
            consistent = consistent and phi.setdefault(a, b) == b
        ab = abelianization(s)
        same_table = all(
            phi[q.table[i][j]] == ab.table[phi[i]][phi[j]]
            for i in range(q.order)
            for j in range(q.order)
        )
        ok = ok and consistent and len(set(phi.values())) == len(phi) and same_table
        assert ok, spec
    report("criterion 2: exact sigma classes equal cosets and quotient is the abelianization", ok)


def test_criterion_3_forward_direction_searches_find_nothing():
    for spec in ("symmetric:3", "dihedral:4", "quaternion8"):
        s = make_family(spec)
        derived = set(commutator_subgroup(s))
        for x in range(s.order):
            if x not in derived:
                assert search_one_var(s, x, 3) is None, (spec, s.names[x])
    s3 = make_family("symmetric:3")
    cosets = coset_congruence(s3)
    for u in range(6):
        for v in range(6):
            if cosets.class_of[u] != cosets.class_of[v]:
                assert search_two_var(s3, u, v, 2) is None, (u, v)
    report("criterion 3: no witnesses outside the subgroup (N=3) or across cosets (N=2)", True)


def test_criterion_4_constructed_witnesses():
    for spec in GROUP_FAMILIES:
        s = make_family(spec)
        for x in commutator_subgroup(s):
            k = len(commutator_decomposition(s, x))
            assert k <= 3, (spec, k)
            w = build_orientable_witness(s, x)
            assert w.size == 2 * max(k, 1), (spec, s.names[x])
            assert validate_one_var(s, x, w) is None, (spec, s.names[x])
        cosets = coset_congruence(s)
        for u in range(s.order):
            for v in range(s.order):
                if cosets.class_of[u] == cosets.class_of[v]:
                    w2 = build_two_var_witness(s, u, v)
                    assert validate_two_var(s, u, v, w2) is None, (spec, u, v)
    report("criterion 4: constructed witnesses obey the size law and validate", True)


def test_criterion_5_nongroup_fixtures():
    for spec in ("leftzero:3", "null:3"):
        s = make_family(spec)
        found = orientable_set(s, 2)
        assert all(w is not None for w in found.values()), spec
        assert _abelian_keys(s)[1].num_classes == 1, spec
        assert len(sigma_report(s, 2)) == s.order**2, spec

    ft2 = make_family("fulltransformation:2")
    idem = [e for e in range(4) if ft2.table[e][e] == e]
    assert len(idem) == 3
    for e in idem:
        assert validate_one_var(ft2, e, OneVarWitness((e, e), (e,), (e,))) is None

    for spec in CATALOG_FAMILIES:
        s = make_family(spec)
        assert s.order <= 12, spec
        pad = TwoVarWitness((0,), (), (0,), ())
        for u in range(s.order):
            assert validate_two_var(s, u, u, pad) is None
            for v in range(s.order):
                w = TwoVarWitness((v,), (), (), (v,))
                assert validate_two_var(s, s.table[u][v], s.table[v][u], w) is None
    report("criterion 5: non-group fixtures behave as computed by direct arithmetic", True)


def test_criterion_6_oracle_equivalence_small_semigroups():
    # known counts of associative binary operations on labeled 1/2/3-sets
    assert [len(labelled_semigroups(n)) for n in (1, 2, 3)] == [1, 8, 113]

    checked_one = checked_two = 0
    for s in labelled_semigroups(1, 2, 3):
        n = s.order
        m = with_identity(s.table)
        for bound in (1, 2, 3):
            for g in range(n):
                got = search_one_var(s, g, bound)
                expected = naive_search_one_var(m, g, bound)
                if expected is None:
                    assert got is None, (s.table, g, bound)
                else:
                    assert got == OneVarWitness(*expected), (s.table, g, bound)
                checked_one += 1
        for bound in (1, 2, 3):
            for u in range(n):
                for v in range(n):
                    got = search_two_var(s, u, v, bound)
                    expected = naive_search_two_var(m, u, v, bound)
                    if expected is None:
                        assert got is None, (s.table, u, v, bound)
                    else:
                        assert got == TwoVarWitness(*expected), (s.table, u, v, bound)
                    checked_two += 1
    report(
        "criterion 6: bounded searches agree exactly with the naive enumerator",
        True,
        f"{checked_one} one-var and {checked_two} two-var comparisons over 122 semigroups",
    )


def test_criterion_7_infrastructure():
    for name in ("z2.tbl", "s3.tbl"):
        s = parse_table((FIXTURES / name).read_text())
        canonical = serialize_table(s)
        assert parse_table(canonical) == s
        assert serialize_table(parse_table(canonical)) == canonical

    for spec in CATALOG_FAMILIES:
        s = make_family(spec)
        canonical = serialize_table(s)
        assert parse_table(canonical) == s
        assert serialize_table(parse_table(canonical)) == canonical

    for spec in GROUP_FAMILIES:
        s = make_family(spec)
        pairs = [
            (s.table[x][y], s.table[y][x])
            for x in range(s.order)
            for y in range(s.order)
        ]
        assert generated_congruence(s, pairs) == coset_congruence(s), spec

    report(
        "criterion 7: table round-trips, smallest commutative congruence",
        True,
        f"{2 + len(CATALOG_FAMILIES)} tables round-trip; on {len(GROUP_FAMILIES)} groups "
        "the pairs (xy, yx) generate the cosets of [G, G]",
    )
