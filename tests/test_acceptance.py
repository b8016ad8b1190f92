"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; each test also asserts, so the suite is red if any criterion fails.
"""

import subprocess
import sys
import time
from pathlib import Path

from semorient.catalog import CATALOG_FAMILIES, GROUP_FAMILIES, make_family
from semorient.core import (
    adjoin_identity,
    generated_congruence,
    is_cancellative,
    is_commutative,
    make_semigroup,
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
    group_structure,
)
from semorient.search import orientable_set, search_one_var, search_two_var, sigma_report
from semorient.theorems import (
    build_orientable_witness,
    build_two_var_witness,
    commutator_decomposition,
    exact_sigma_report,
)

from conftest import FIXTURES
from oracles import all_associative_tables, naive_search_one_var, naive_search_two_var

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
        g = group_structure(s)
        derived = commutator_subgroup(g)
        assert len(derived) == EXPECTED_DERIVED_ORDER[spec], spec
        k_max = max(
            (len(commutator_decomposition(g, x).pairs) for x in derived), default=0
        )
        bound = max(4, 2 + 4 * (max(k_max, 1) - 1))
        found = orientable_set(adjoin_identity(s), bound)
        got = {x for x, w in found.items() if w is not None}
        assert got == set(derived), f"{spec}: {got} != {set(derived)}"
        for x in got:
            assert validate_one_var(adjoin_identity(s), x, found[x]) is None
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
        g = group_structure(s)
        rep = exact_sigma_report(g)
        cosets = coset_congruence(g)
        ok = ok and rep.congruence == cosets
        q = quotient(s, rep.congruence)
        ok = ok and is_commutative(q) and is_cancellative(q)
        ok = ok and q.order == s.order // len(commutator_subgroup(g))
        if spec in expected_quotient_order:
            ok = ok and q.order == expected_quotient_order[spec]
        # up to class relabeling: map sigma class -> coset class through elements
        phi = {}
        consistent = True
        for x in range(s.order):
            a, b = rep.congruence.class_of[x], cosets.class_of[x]
            consistent = consistent and phi.setdefault(a, b) == b
        ab = abelianization(g)
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
        g = group_structure(s)
        derived = set(commutator_subgroup(g))
        m = adjoin_identity(s)
        for x in range(s.order):
            if x not in derived:
                assert search_one_var(m, x, 3) is None, (spec, s.names[x])
    s3 = make_family("symmetric:3")
    m3 = adjoin_identity(s3)
    cosets = coset_congruence(group_structure(s3))
    for u in range(6):
        for v in range(6):
            if cosets.class_of[u] != cosets.class_of[v]:
                assert search_two_var(m3, u, v, 2) is None, (u, v)
    report("criterion 3: no witnesses outside the subgroup (N=3) or across cosets (N=2)", True)


def test_criterion_4_constructed_witnesses():
    for spec in GROUP_FAMILIES:
        s = make_family(spec)
        g = group_structure(s)
        m = adjoin_identity(s)
        for x in commutator_subgroup(g):
            d = commutator_decomposition(g, x)
            k = len(d.pairs)
            assert k <= 3, (spec, k)
            w = build_orientable_witness(g, d)
            assert w.size == 2 + 4 * (max(k, 1) - 1), (spec, s.names[x])
            assert validate_one_var(m, x, w) is None, (spec, s.names[x])
        cosets = coset_congruence(g)
        for u in range(s.order):
            for v in range(s.order):
                if cosets.class_of[u] == cosets.class_of[v]:
                    w2 = build_two_var_witness(g, v, u)
                    assert validate_two_var(m, u, v, w2) is None, (spec, u, v)
    report("criterion 4: constructed witnesses obey the size law and validate", True)


def test_criterion_5_nongroup_fixtures():
    for spec in ("leftzero:3", "null:3"):
        s = make_family(spec)
        m = adjoin_identity(s)
        found = orientable_set(m, 2)
        assert all(w is not None for w in found.values()), spec
        rep = sigma_report(m, 2)
        assert rep.congruence.num_classes == 1, spec

    ft2 = make_family("fulltransformation:2")
    m = adjoin_identity(ft2)
    idem = [e for e in range(4) if ft2.table[e][e] == e]
    assert len(idem) == 3
    for e in idem:
        assert validate_one_var(m, e, OneVarWitness((e, e), (e,), (e,))) is None

    for spec in CATALOG_FAMILIES:
        s = make_family(spec)
        assert s.order <= 12, spec
        m = adjoin_identity(s)
        pad = TwoVarWitness((0,), (), (0,), ())
        for u in range(s.order):
            assert validate_two_var(m, u, u, pad) is None
            for v in range(s.order):
                w = TwoVarWitness((v,), (), (), (v,))
                assert validate_two_var(m, s.table[u][v], s.table[v][u], w) is None
    report("criterion 5: non-group fixtures behave as computed by direct arithmetic", True)


def test_criterion_6_oracle_equivalence_small_semigroups():
    tables = {1: [], 2: [], 3: []}
    for n in (1, 2, 3):
        tables[n] = list(all_associative_tables(n))
    # known counts of associative binary operations on labeled 1/2/3-sets
    assert [len(tables[n]) for n in (1, 2, 3)] == [1, 8, 113]

    checked_one = checked_two = 0
    for n, tbls in tables.items():
        names = tuple("abc"[:n])
        for raw in tbls:
            s = make_semigroup(names, raw)
            m = adjoin_identity(s)
            for bound in (1, 2, 3):
                for g in range(n):
                    got = search_one_var(m, g, bound)
                    expected = naive_search_one_var(m, g, bound)
                    if expected is None:
                        assert got is None, (raw, g, bound)
                    else:
                        assert got == OneVarWitness(*expected), (raw, g, bound)
                    checked_one += 1
            for bound in (1, 2, 3):
                for u in range(n):
                    for v in range(n):
                        got = search_two_var(m, u, v, bound)
                        expected = naive_search_two_var(m, u, v, bound)
                        if expected is None:
                            assert got is None, (raw, u, v, bound)
                        else:
                            assert got == TwoVarWitness(*expected), (raw, u, v, bound)
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
        g = group_structure(s)
        pairs = [
            (s.table[x][y], s.table[y][x])
            for x in range(s.order)
            for y in range(s.order)
        ]
        assert generated_congruence(s, pairs) == coset_congruence(g), spec

    script = Path(__file__).resolve().parent.parent / "scripts" / "check_cli_exit_codes.py"
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report(
        "criterion 7: round-trips, smallest commutative congruence, CLI exit codes",
        True,
        "exit-code script all green",
    )
