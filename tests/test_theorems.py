import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semorient.catalog import (
    CATALOG_FAMILIES,
    GROUP_FAMILIES,
    NONGROUP_FAMILIES,
    make_family,
)
from semorient.core import adjoin_identity, commutative_congruence, make_semigroup
from semorient.equations import validate_one_var, validate_two_var
from semorient.groups import commutator_subgroup, coset_congruence, group_structure
from semorient.search import _one_var_candidates, _two_var_candidates  # private: the filter
from semorient.theorems import (
    CommutatorDecomposition,
    InvalidDecompositionError,
    NotInDerivedSubgroupError,
    NotRelatedError,
    build_orientable_witness,
    build_two_var_witness,
    commutator_decomposition,
    decomposition_product,
)
from semorient.verify import (
    verify_orientable_is_commutator_subgroup,
    verify_semigroup_properties,
    verify_sigma_is_abelianization,
)

from oracles import (
    bfs_commutator_decomposition,
    compose,
    min_commutator_product_length,
    transformation_table,
)

SRC = Path(__file__).resolve().parent.parent / "src"


# ------------------------------------------------------------ decompositions


def test_identity_decomposition_is_empty(group_family):
    spec, s = group_family
    g = group_structure(s)
    d = commutator_decomposition(g, g.identity)
    assert d.pairs == ()


def test_s3_three_cycle_single_commutator(s3):
    g = group_structure(s3)
    d = commutator_decomposition(g, s3.index_of("120"))
    assert len(d.pairs) == 1
    assert decomposition_product(g, d.pairs) == s3.index_of("120")


def test_outside_subgroup_raises(z4):
    g = group_structure(z4)
    with pytest.raises(NotInDerivedSubgroupError):
        commutator_decomposition(g, 1)


def test_decomposition_out_of_range(z4):
    g = group_structure(z4)
    with pytest.raises(ValueError):
        commutator_decomposition(g, 17)


@pytest.mark.parametrize("spec", GROUP_FAMILIES)
def test_bfs_length_is_minimal(spec):
    # oracle: exhaustive products of up to 3 commutators
    s = make_family(spec)
    g = group_structure(s)
    for x in commutator_subgroup(g):
        d = commutator_decomposition(g, x)
        assert decomposition_product(g, d.pairs) == x
        expected = min_commutator_product_length(s.table, g.identity, x, 3)
        assert expected is not None and len(d.pairs) == expected


def test_decomposition_is_deterministic(s3):
    g = group_structure(s3)
    a = commutator_decomposition(g, s3.index_of("201"))
    b = commutator_decomposition(g, s3.index_of("201"))
    assert a == b


# --------------------------------------------------------- witness builders


def test_single_commutator_witness_shape(s3):
    g = group_structure(s3)
    d = commutator_decomposition(g, s3.index_of("120"))
    w = build_orientable_witness(g, d)
    assert w.size == 2
    x, y = d.pairs[0]
    assert w == type(w)((x, y), (), (y, x))


def test_identity_witness_shape(group_family):
    spec, s = group_family
    g = group_structure(s)
    w = build_orientable_witness(g, CommutatorDecomposition(g.identity, ()))
    assert w.size == 2
    assert w.b == (0,) and w.c == (g.inverse[0],)


def test_forced_two_pair_witness_in_q8():
    # -1 = [i, j]; pad with the trivial pair (1, 1) to force k = 2
    q8 = make_family("quaternion8")
    g = group_structure(q8)
    minus, i, j = q8.index_of("-1"), q8.index_of("i"), q8.index_of("j")
    d = CommutatorDecomposition(minus, ((i, j), (0, 0)))
    assert decomposition_product(g, d.pairs) == minus
    w = build_orientable_witness(g, d)
    assert w.size == 6
    assert validate_one_var(adjoin_identity(q8), minus, w) is None


def test_three_pair_witness_size_law(s3):
    g = group_structure(s3)
    r = s3.index_of("120")
    base = commutator_decomposition(g, r)
    padded = CommutatorDecomposition(r, base.pairs + ((0, 0), (1, 1)))
    w = build_orientable_witness(g, padded)
    assert w.size == 2 + 4 * 2
    assert validate_one_var(adjoin_identity(s3), r, w) is None


WIDTH_TWO = "width-two-96"


def width_two_group():
    """Order-96 permutation group of 12 points with commutator width 2.

    Its [G, G] has order 32 but only 29 of its elements are commutators, so
    three decompositions need two pairs. Composition is (p*q)(x) = p(q(x)).
    """
    gens = [(3, 0, 10, 1, 8, 7, 2, 11, 9, 4, 6, 5), (11, 10, 6, 2, 0, 1, 3, 9, 7, 8, 5, 4)]
    maps = [tuple(range(12))]
    seen = set(maps)
    for f in maps:
        for h in gens:
            fh = compose(f, h)
            if fh not in seen:
                seen.add(fh)
                maps.append(fh)
    maps.sort()
    return make_semigroup([f"g{i}" for i in range(len(maps))], transformation_table(maps))


@pytest.mark.parametrize("spec", [*GROUP_FAMILIES, "dihedral:36", WIDTH_TWO])
def test_tree_matches_per_call_bfs(spec):
    s = width_two_group() if spec == WIDTH_TWO else make_family(spec)
    g = group_structure(s)
    lengths = []
    for x in range(s.order):
        expected = bfs_commutator_decomposition(g, x)
        if expected is None:
            with pytest.raises(NotInDerivedSubgroupError):
                commutator_decomposition(g, x)
        else:
            assert commutator_decomposition(g, x).pairs == expected
            lengths.append(len(expected))
    if spec == WIDTH_TWO:
        # the identity, 28 other commutators, and 3 products of two commutators
        assert s.order == 96
        assert sorted(lengths) == [0] + [1] * 28 + [2] * 3


@pytest.mark.parametrize("spec", [*GROUP_FAMILIES, "dihedral:36", WIDTH_TWO])
def test_kappa_candidates_are_the_commutator_subgroup_and_its_cosets(spec):
    # congruence closure on one side, the derived-subgroup tree on the other
    s = width_two_group() if spec == WIDTH_TWO else make_family(spec)
    g = group_structure(s)
    m = adjoin_identity(s)
    elements = range(s.order)
    assert commutative_congruence(s) == coset_congruence(g)
    assert tuple(_one_var_candidates(m, elements)) == commutator_subgroup(g)
    cosets = coset_congruence(g).class_of
    pairs = [(u, v) for u in elements for v in elements]
    assert _two_var_candidates(m, pairs) == [(u, v) for u, v in pairs if cosets[u] == cosets[v]]


def test_builder_failure_raises_under_optimize():
    script = (
        "import sys\n"
        "import semorient.theorems as th\n"
        "from semorient import group_structure, make_family\n"
        "print(sys.flags.optimize)\n"
        "th.validate_one_var = lambda *args: 'forced failure'\n"
        "g = group_structure(make_family('symmetric:3'))\n"
        "try:\n"
        "    th.build_orientable_witness(g, th.commutator_decomposition(g, g.identity))\n"
        "except th.WitnessConstructionError as exc:\n"
        "    print(exc)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1\nconstructed one-variable witness: forced failure\n"


def test_congruence_check_raises_under_optimize():
    script = (
        "import sys\n"
        "import semorient.core as core\n"
        "from semorient import make_family\n"
        "print(sys.flags.optimize)\n"
        "core.compatibility_violation = lambda s, c: (0, 1, 2, 3)\n"
        "try:\n"
        "    core.generated_congruence(make_family('symmetric:3'), [(0, 1)])\n"
        "except core.CompatibilityError as exc:\n"
        "    print(exc.quadruple)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1\n(0, 1, 2, 3)\n"


def test_invalid_decomposition_rejected(s3):
    g = group_structure(s3)
    with pytest.raises(InvalidDecompositionError):
        build_orientable_witness(
            g, CommutatorDecomposition(s3.index_of("021"), ((0, 1),))
        )
    with pytest.raises(InvalidDecompositionError):
        build_orientable_witness(g, CommutatorDecomposition(s3.index_of("120"), ()))


@pytest.mark.parametrize("spec", GROUP_FAMILIES)
def test_constructed_witness_size_law_and_validity(spec):
    s = make_family(spec)
    g = group_structure(s)
    m = adjoin_identity(s)
    for x in commutator_subgroup(g):
        d = commutator_decomposition(g, x)
        w = build_orientable_witness(g, d)
        k = len(d.pairs)
        assert w.size == 2 + 4 * (max(k, 1) - 1)
        assert validate_one_var(m, x, w) is None


def test_two_var_witness_same_element(group_family):
    spec, s = group_family
    g = group_structure(s)
    m = adjoin_identity(s)
    for h in range(s.order):
        w = build_two_var_witness(g, h, h)
        assert validate_two_var(m, h, h, w) is None


def test_two_var_witness_s3(s3):
    g = group_structure(s3)
    m = adjoin_identity(s3)
    r, r2 = s3.index_of("120"), s3.index_of("201")
    w = build_two_var_witness(g, r, r2)
    # build(group, g, h) certifies the ordered pair (h, g)
    assert validate_two_var(m, r2, r, w) is None


def test_two_var_witness_unrelated(z4):
    g = group_structure(z4)
    with pytest.raises(NotRelatedError):
        build_two_var_witness(g, 1, 3)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_two_var_witness_all_same_coset_pairs(data):
    spec = data.draw(st.sampled_from(GROUP_FAMILIES))
    s = make_family(spec)
    g = group_structure(s)
    cosets = coset_congruence(g)
    classes = cosets.classes()
    members = data.draw(st.sampled_from(classes))
    u = data.draw(st.sampled_from(members))
    v = data.draw(st.sampled_from(members))
    w = build_two_var_witness(g, v, u)
    assert validate_two_var(adjoin_identity(s), u, v, w) is None


# -------------------------------------------------------------------- suites


@pytest.mark.parametrize("spec", GROUP_FAMILIES)
def test_orientable_suite_passes_on_groups(spec):
    g = group_structure(make_family(spec))
    report = verify_orientable_is_commutator_subgroup(g, 4, subject=spec)
    assert report.passed, report.to_text()
    assert {c.check_id for c in report.checks} == {
        "constructed-witnesses",
        "bounded-search-sound",
        "orientable-set-equals-commutator-subgroup",
    }


@pytest.mark.parametrize("spec", GROUP_FAMILIES)
def test_sigma_suite_passes_on_groups(spec):
    g = group_structure(make_family(spec))
    report = verify_sigma_is_abelianization(g, 3, subject=spec)
    assert report.passed, report.to_text()
    assert {c.check_id for c in report.checks} == {
        "constructed-pair-witnesses",
        "bounded-pair-search-sound",
        "sigma-classes-equal-cosets",
        "sigma-quotient-is-abelianization",
    }


@pytest.mark.parametrize("spec", CATALOG_FAMILIES)
def test_properties_suite_passes_everywhere(spec):
    s = make_family(spec)
    report = verify_semigroup_properties(s, 3, 2, subject=spec)
    assert report.passed, report.to_text()


@pytest.mark.parametrize("spec", NONGROUP_FAMILIES)
def test_properties_suite_soft_reports_on_nongroups(spec):
    s = make_family(spec)
    report = verify_semigroup_properties(s, 2, 2, subject=spec)
    statuses = {c.check_id: c.status for c in report.checks}
    assert statuses["orientable-product-closure"] == "soft-report"
    assert statuses["sigma-relation-symmetry"] == "soft-report"
    assert "orientable-product-closure-exact" not in statuses


def test_properties_suite_exact_checks_on_groups(s3):
    report = verify_semigroup_properties(s3, 3, 2, subject="symmetric:3")
    statuses = {c.check_id: c.status for c in report.checks}
    assert statuses["orientable-product-closure-exact"] == "pass"
    assert statuses["orientable-identity-class-exact"] == "pass"
    assert statuses["sigma-congruence-exact"] == "pass"


def test_report_serialization(s3):
    report = verify_orientable_is_commutator_subgroup(
        group_structure(s3), 3, subject="symmetric:3"
    )
    obj = report.to_json()
    assert obj["subject"] == "symmetric:3"
    assert obj["bound"] == {"one-var": 3}
    assert obj["passed"] is True
    assert all(c["status"] == "pass" for c in obj["checks"])
    text = report.to_text()
    assert "result: pass" in text
    assert "[pass] constructed-witnesses" in text


def test_report_records_failures():
    from semorient.verify import VerificationReport

    report = VerificationReport("toy", {"one-var": 2})
    report._add("some-check", "details", ["element x broke it"])
    assert not report.passed
    assert report.checks[0].counterexample == "element x broke it"
    assert "FAIL" in report.to_text()
