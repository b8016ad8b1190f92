import io
import os
import subprocess
import sys
from collections import Counter
from importlib import import_module
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
from semorient.cli import run
from semorient.core import _abelian_keys  # private: ker φ, the σ classes
from semorient.core import (
    Congruence,
    NotAGroupError,
    commutative_congruence,
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
    commutator,
    commutator_subgroup,
    coset_congruence,
    derived_subgroup_tree,
    group_structure,
)
# private: the key the entry points compare, and the unfiltered searches ``verify`` runs
from semorient.search import _keys, _one_var_search, _pair_search
from semorient.theorems import (
    WitnessConstructionError,
    build_orientable_witness,
    build_two_var_witness,
    commutator_decomposition,
    exact_sigma_report,
)
from semorient.theorems import _orientable_witnesses  # private: the exact witness map
from semorient.verify import (
    verify_orientable_is_commutator_subgroup,
    verify_semigroup_properties,
    verify_sigma_is_abelianization,
)

from oracles import (
    bfs_commutator_decomposition,
    commutator_product,
    min_commutator_product_length,
    width_two_group,
)

SRC = Path(__file__).resolve().parent.parent / "src"


# ------------------------------------------------------------ decompositions


def test_identity_decomposition_is_empty(group_family):
    spec, s = group_family
    g = group_structure(s)
    assert commutator_decomposition(s, g.identity) == ()


def test_s3_three_cycle_single_commutator(s3):
    g = group_structure(s3)
    pairs = commutator_decomposition(s3, s3.index_of("120"))
    assert len(pairs) == 1
    assert commutator_product(s3.table, g.identity, g.inverse, pairs) == s3.index_of("120")


def test_outside_subgroup_has_no_decomposition(z4):
    assert commutator_decomposition(z4, 1) is None


def test_decomposition_out_of_range(z4):
    with pytest.raises(ValueError):
        commutator_decomposition(z4, 17)


@pytest.mark.parametrize("spec", [*GROUP_FAMILIES, "dihedral:36"])
def test_decomposition_is_the_tree_entry(spec):
    # a decomposition is read off the tree, not rebuilt: None outside [G, G]
    s = make_family(spec)
    tree = derived_subgroup_tree(s)
    for x in range(s.order):
        assert commutator_decomposition(s, x) is tree.get(x)


@pytest.mark.parametrize("spec", GROUP_FAMILIES)
def test_bfs_length_is_minimal(spec):
    # oracle: exhaustive products of up to 3 commutators
    s = make_family(spec)
    g = group_structure(s)
    for x in commutator_subgroup(s):
        pairs = commutator_decomposition(s, x)
        assert commutator_product(s.table, g.identity, g.inverse, pairs) == x
        expected = min_commutator_product_length(s.table, g.identity, x, 3)
        assert expected is not None and len(pairs) == expected


def test_decomposition_is_deterministic(s3):
    a = commutator_decomposition(s3, s3.index_of("201"))
    b = commutator_decomposition(s3, s3.index_of("201"))
    assert a == b


# --------------------------------------------------------- witness builders


def test_single_commutator_witness_shape(s3):
    r = s3.index_of("120")
    w = build_orientable_witness(s3, r)
    assert w.size == 2
    ((x, y),) = commutator_decomposition(s3, r)
    assert w == type(w)((x, y), (), (y, x))


def test_identity_witness_shape(group_family):
    spec, s = group_family
    g = group_structure(s)
    w = build_orientable_witness(s, g.identity)
    assert w.size == 2
    assert w.b == (0,) and w.c == (g.inverse[0],)


@pytest.mark.parametrize("u_index, v_index", [(-1, 0), (6, 0), (0, -1), (0, 6)])
def test_two_var_witness_rejects_indices_outside_the_group(s3, u_index, v_index):
    # -1 is not read as the last element, nor 6 as a bare IndexError
    bad = u_index if v_index == 0 else v_index
    with pytest.raises(ValueError, match=f"^element {bad} out of range$"):
        build_two_var_witness(s3, u_index, v_index)


@pytest.mark.parametrize("bad", [-1, 6])
def test_orientable_witness_rejects_indices_outside_the_group(s3, bad):
    # -1 would read "210"; 6 is the adjoined 1 of S¹, which validate_one_var accepts
    # and ker φ has no class for
    assert s3.order == 6
    with pytest.raises(ValueError, match=f"^element {bad} out of range$"):
        build_orientable_witness(s3, bad)


@pytest.mark.parametrize("bad", [-1, 6])
@pytest.mark.parametrize("side", ["x", "y"])
def test_orientable_witness_rejects_pair_entries_outside_the_group(monkeypatch, s3, bad, side):
    # a pair's witness is built from the orientable witness of v * u^-1; with "021",
    # -1 would read "210" and give an index in range, so the pair's entries are
    # rejected before that witness is asked for
    import semorient.theorems as th

    calls = []
    monkeypatch.setattr(th, "build_orientable_witness", lambda s, g: calls.append(g))
    other = s3.index_of("021")
    u, v = (bad, other) if side == "x" else (other, bad)
    with pytest.raises(ValueError, match=f"^element {bad} out of range$"):
        build_two_var_witness(s3, u, v)
    assert calls == []


@pytest.mark.parametrize("spec", ["leftzero:3", "fulltransformation:2"])
@pytest.mark.parametrize(
    "function, args",
    [
        (commutator_decomposition, (0,)),
        (build_orientable_witness, (0,)),
        (_orientable_witnesses, ()),
        (build_two_var_witness, (0, 1)),
        (exact_sigma_report, ()),
        (verify_orientable_is_commutator_subgroup, (8,)),
        (verify_sigma_is_abelianization, (8,)),
        (commutator, (0, 1)),
        (derived_subgroup_tree, ()),
        (commutator_subgroup, ()),
        (coset_congruence, ()),
        (abelianization, ()),
    ],
    ids=lambda value: getattr(value, "__name__", ""),
)
def test_exact_layer_raises_off_a_group(monkeypatch, spec, function, args):
    # each, the functions of groups too, takes the table and detects the group first,
    # with group_structure's reason; the suites run no search, even at the bound cap
    import semorient.verify as vf

    s = make_family(spec)
    with pytest.raises(NotAGroupError) as expected:
        group_structure(s)
    searches = []
    monkeypatch.setattr(vf, "_one_var_search", lambda *args: searches.append(args))
    monkeypatch.setattr(vf, "_pair_search", lambda *args: searches.append(args))
    with pytest.raises(NotAGroupError) as exc:
        function(s, *args)
    assert exc.value.reason == expected.value.reason
    assert searches == []


WIDTH_TWO = "width-two-96"


@pytest.mark.parametrize("spec", [*GROUP_FAMILIES, "dihedral:36", WIDTH_TWO])
def test_tree_matches_per_call_bfs(spec):
    s = width_two_group() if spec == WIDTH_TWO else make_family(spec)
    lengths = []
    for x in range(s.order):
        expected = bfs_commutator_decomposition(s.table, x)
        assert commutator_decomposition(s, x) == expected
        if expected is not None:
            lengths.append(len(expected))
    if spec == WIDTH_TWO:
        # the identity, 28 other commutators, and 3 products of two commutators
        assert s.order == 96
        assert sorted(lengths) == [0] + [1] * 28 + [2] * 3


@pytest.mark.parametrize("spec", [*GROUP_FAMILIES, "dihedral:36", WIDTH_TWO])
def test_kappa_candidates_are_the_commutator_subgroup_and_its_cosets(spec):
    # congruence closure on one side, the derived-subgroup tree on the other
    s = width_two_group() if spec == WIDTH_TWO else make_family(spec)
    elements = range(s.order)
    assert commutative_congruence(s) == coset_congruence(s)
    key = _keys(s)
    assert tuple(x for x in elements if key[x] == key[s.order]) == commutator_subgroup(s)
    cosets = coset_congruence(s).class_of
    pairs = [(u, v) for u in elements for v in elements]
    kept = [(u, v) for u, v in pairs if key[u] == key[v]]
    assert kept == [(u, v) for u, v in pairs if cosets[u] == cosets[v]]
    # the exact map holds a witness exactly on the tree's nodes, read as ker φ
    witnessed = tuple(x for x, w in _orientable_witnesses(s).items() if w is not None)
    assert witnessed == commutator_subgroup(s)


@pytest.mark.parametrize(
    "spec",
    [
        *GROUP_FAMILIES,
        "dihedral:36",
        WIDTH_TWO,
        "directproduct:alternating:4,alternating:4",
        "directproduct:quaternion8,symmetric:3",
        "directproduct:symmetric:3,cyclic:8",
    ],
)
def test_quotients_are_the_quotient_by_the_derived_subgroup_cosets(spec, tmp_path):
    # the quotients read ker φ; the reference is the definition, G mod [G, G]
    s = width_two_group() if spec == WIDTH_TWO else make_family(spec)
    expected = quotient(s, coset_congruence(s))
    assert abelianization(s) == expected
    path = tmp_path / "group.tbl"
    path.write_text(serialize_table(s))
    for argv, head in (
        (["quotient"], f"# sigma-quotient of {path} (lower-bound)\n"),
        (["quotient", "--exact"], f"# sigma-quotient of {path} (exact-group)\n"),
        (["abelianization"], f"# abelianization of {path}\n"),
    ):
        out, err = io.StringIO(), io.StringIO()
        assert run([*argv, "--table", str(path)], out=out, err=err) == 0
        assert (out.getvalue(), err.getvalue()) == (head + serialize_table(expected), ""), argv


def test_width_two_group_on_the_exact_path(tmp_path):
    s = width_two_group()
    two_pairs = {
        x: build_orientable_witness(s, x)
        for x in commutator_subgroup(s)
        if len(commutator_decomposition(s, x)) == 2
    }
    assert len(two_pairs) == 3
    # the least size, 2k: bounded orientable at bound 3 finds none (a CI step, 3-4 s)
    for x, w in two_pairs.items():
        assert w.size == 4 and validate_one_var(s, x, w) is None
    # every same-coset ordered pair: 96 elements times |[G, G]| = 32
    pairs = exact_sigma_report(s)
    assert len(pairs) == 3072
    assert all(validate_two_var(s, u, v, w) is None for (u, v), w in pairs.items())
    # the CLI prints the same witnesses for the table file
    path = tmp_path / "width-two.tbl"
    path.write_text(serialize_table(s))
    out, err = io.StringIO(), io.StringIO()
    assert run(["orientable", "--table", str(path), "--exact"], out=out, err=err) == 0
    lines = out.getvalue().splitlines()
    assert lines[:3] == [f"subject: {path}", "mode: exact", "orientable elements: 32 of 96"]
    for x, w in two_pairs.items():
        assert f"{s.names[x]}: {w.to_text(s.names)}" in lines


@pytest.mark.parametrize("spec", [*GROUP_FAMILIES, "dihedral:36", WIDTH_TWO])
def test_sigma_report_pairs_are_the_per_pair_witnesses(spec):
    # the report builds each one-variable witness once; the pairs stay those
    # build_two_var_witness gives for each ordered pair, in the same order
    s = width_two_group() if spec == WIDTH_TWO else make_family(spec)
    cosets = coset_congruence(s).class_of
    expected = [
        ((u, v), build_two_var_witness(s, u, v))
        for u in range(s.order)
        for v in range(s.order)
        if cosets[u] == cosets[v]
    ]
    assert list(exact_sigma_report(s).items()) == expected
    # read as ker φ, the classes are the cosets built from [G, G]
    assert _abelian_keys(s)[1] == coset_congruence(s)


def test_sigma_report_raises_on_a_pair_outside_the_witness_map(monkeypatch, fresh_caches, s3):
    # two cosets of A3 merged into one class: (012, 021) shares it, but 021 is not in [G, G].
    # The map of witnesses reads the same ker φ, so building it stops at 021
    import semorient.theorems as th

    g = group_structure(s3)
    monkeypatch.setattr(th, "_abelian_keys", lambda s: (g.identity, Congruence((0,) * 6)))
    text = r"^element '021' is not in the commutator subgroup, yet it lies in the class of ε$"
    with pytest.raises(WitnessConstructionError, match=text):
        exact_sigma_report(s3)


def test_sigma_report_validates_each_witness_once(monkeypatch):
    import semorient.theorems as th

    s = make_family("symmetric:4")
    ones, twos = [], []
    one, two = th.validate_one_var, th.validate_two_var

    def count_one(s, x, w):
        ones.append(x)
        return one(s, x, w)

    def count_two(s, u, v, w):
        twos.append((u, v))
        return two(s, u, v, w)

    monkeypatch.setattr(th, "validate_one_var", count_one)
    monkeypatch.setattr(th, "validate_two_var", count_two)
    pairs = exact_sigma_report(s)
    # one one-variable witness per element of [G, G], every pair validated
    assert sorted(ones) == sorted(commutator_subgroup(s))
    assert twos == list(pairs)
    # a failing pair still raises, also one whose one-variable witness an
    # earlier pair built
    last = twos[-1]
    monkeypatch.setattr(th, "validate_two_var", lambda s, u, v, w: "no" if (u, v) == last else None)
    with pytest.raises(th.WitnessConstructionError, match="two-variable witness: no"):
        exact_sigma_report(s)


def test_one_var_builder_failure_raises(monkeypatch, s3):
    import semorient.theorems as th

    g = group_structure(s3)
    monkeypatch.setattr(th, "validate_one_var", lambda *args: "forced failure")
    with pytest.raises(WitnessConstructionError, match="one-variable witness: forced failure"):
        build_orientable_witness(s3, g.identity)


def test_builder_failure_raises_under_optimize():
    script = (
        "import sys\n"
        "import semorient.theorems as th\n"
        "from semorient import group_structure, make_family\n"
        "print(sys.flags.optimize)\n"
        "th.validate_one_var = lambda *args: 'forced failure'\n"
        "s = make_family('symmetric:3')\n"
        "try:\n"
        "    th.build_orientable_witness(s, group_structure(s).identity)\n"
        "except th.WitnessConstructionError as exc:\n"
        "    print(exc)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1\nconstructed one-variable witness: forced failure\n"


@pytest.mark.parametrize("spec", [*GROUP_FAMILIES, "dihedral:36", WIDTH_TWO])
def test_constructed_witness_size_law_and_validity(spec):
    s = width_two_group() if spec == WIDTH_TWO else make_family(spec)
    for x in commutator_subgroup(s):
        w = build_orientable_witness(s, x)
        k = len(commutator_decomposition(s, x))
        assert w.size == 2 * max(k, 1)
        assert validate_one_var(s, x, w) is None


def test_two_var_witness_same_element(group_family):
    spec, s = group_family
    for h in range(s.order):
        w = build_two_var_witness(s, h, h)
        assert validate_two_var(s, h, h, w) is None


def test_two_var_witness_s3(s3):
    r, r2 = s3.index_of("120"), s3.index_of("201")
    for u, v in ((r, r2), (r2, r)):
        assert validate_two_var(s3, u, v, build_two_var_witness(s3, u, v)) is None


def test_two_var_witness_unrelated(z4):
    assert build_two_var_witness(z4, 1, 3) is None


@pytest.mark.parametrize("spec", [*GROUP_FAMILIES, "dihedral:36"])
def test_two_var_witness_answers_every_ordered_pair(spec):
    # a validated witness inside one coset of [G, G], None across two
    s = make_family(spec)
    cosets = coset_congruence(s).class_of
    for u in range(s.order):
        for v in range(s.order):
            w = build_two_var_witness(s, u, v)
            if cosets[u] == cosets[v]:
                assert validate_two_var(s, u, v, w) is None, (spec, u, v)
            else:
                assert w is None, (spec, u, v)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_two_var_witness_all_same_coset_pairs(data):
    spec = data.draw(st.sampled_from(GROUP_FAMILIES))
    s = make_family(spec)
    cosets = coset_congruence(s)
    classes = cosets.classes()
    members = data.draw(st.sampled_from(classes))
    u = data.draw(st.sampled_from(members))
    v = data.draw(st.sampled_from(members))
    w = build_two_var_witness(s, u, v)
    assert validate_two_var(s, u, v, w) is None


# -------------------------------------------------------------------- suites


@pytest.mark.parametrize("spec", GROUP_FAMILIES)
def test_orientable_suite_passes_on_groups(spec):
    report = verify_orientable_is_commutator_subgroup(make_family(spec), 4, subject=spec)
    assert report.passed, report.to_text()
    assert {c.check_id for c in report.checks} == {
        "constructed-witnesses",
        "bounded-search-sound",
        "orientable-set-equals-commutator-subgroup",
    }


@pytest.mark.parametrize("spec", GROUP_FAMILIES)
def test_sigma_suite_passes_on_groups(spec):
    report = verify_sigma_is_abelianization(make_family(spec), 3, subject=spec)
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


def test_properties_suite_runs_the_same_checks_on_groups(s3):
    # the σ suite tests a group's exact classes; the propositions have no group branch
    def ids(s):
        return [c.check_id for c in verify_semigroup_properties(s, 3, 2).checks]

    assert ids(s3) == ids(make_family("leftzero:3"))


@pytest.fixture
def fresh_caches():
    """The suites' shared caches, empty before and after the test.

    They are the one-variable searches, the map of constructed witnesses and
    the cosets of [G, G].
    A test that patches or counts a search or a builder must not read a
    result cached before it, nor leave a patched one behind.
    """
    import semorient.groups as groups
    import semorient.theorems as th
    import semorient.verify as vf

    caches = (vf._one_var_witnesses, th._orientable_witnesses, groups.coset_congruence)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def _spy_on_one_var_search(monkeypatch):
    """Record (elements, bound) of each unfiltered one-variable search ``verify`` runs."""
    import semorient.verify as vf

    calls = []
    search = vf._one_var_search

    def spy(s, elements, bound):
        calls.append((len(elements), bound))
        return search(s, elements, bound)

    monkeypatch.setattr(vf, "_one_var_search", spy)
    return calls


def test_verify_searches_every_element_once_per_call(monkeypatch, fresh_caches):
    # the orientable suite and the propositions share the bound-4 search of all 24 elements;
    # search-monotonicity then searches the 12 elements found there at bound 5
    calls = _spy_on_one_var_search(monkeypatch)
    out, err = io.StringIO(), io.StringIO()
    assert run(["verify", "--family", "symmetric:4"], out=out, err=err) == 0
    assert calls == [(24, 4), (12, 5)]


def test_orientable_suite_searches_once_at_the_declared_bound(monkeypatch, fresh_caches):
    # S3's constructions have size 2, yet --bound 1 searches at bound 1 and no further
    calls = _spy_on_one_var_search(monkeypatch)
    out, err = io.StringIO(), io.StringIO()
    argv = ["verify", "--family", "symmetric:3", "--suite", "theorems", "--bound", "1"]
    assert run(argv, out=out, err=err) == 0
    assert calls == [(6, 1)]
    assert "searched set at bound 1 has 1 elements, subgroup has 3" in out.getvalue()


def test_theorems_suites_stop_at_the_declared_bound_on_a_width_two_group(
    monkeypatch, fresh_caches, tmp_path
):
    # three constructions there have size 4; bounded orientable at size 4 over all 96
    # elements ran over 5 minutes, so the suites must not search past --bound
    calls = _spy_on_one_var_search(monkeypatch)
    path = tmp_path / "width-two.txt"
    path.write_text(serialize_table(width_two_group()), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    argv = ["verify", "--table", str(path), "--suite", "theorems", "--bound", "1"]
    assert run(argv, out=out, err=err) == 0, out.getvalue()
    assert calls == [(96, 1)]


@pytest.mark.parametrize("spec", GROUP_FAMILIES)
def test_search_read_at_a_smaller_bound_is_the_search_at_that_bound(spec):
    # the canonical witness is the least by size first: one of size <= b is the same at
    # both bounds, and a larger one is none at b. So a search at --bound misses only the
    # constructions too large for it, which the set check allows
    s = make_family(spec)
    full = _one_var_search(s, range(s.order), 4)
    for b in (1, 2, 3):
        within = [(g, w) for g, w in full.items() if w.size <= b]
        assert within == list(_one_var_search(s, range(s.order), b).items())


def _count_calls(monkeypatch, name, modules):
    """Patch validator ``name`` in each of ``modules`` to count its calls by argument."""
    calls = Counter()
    validator = getattr(modules[0], name)

    def counting(s, *args):
        calls[args] += 1
        return validator(s, *args)

    for module in modules:
        monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("spec", ["symmetric:3", "quaternion8", "dihedral:6"])
def test_suites_validate_each_constructed_witness_once(monkeypatch, fresh_caches, spec):
    import semorient.theorems as th
    import semorient.verify as vf

    s = make_family(spec)
    everything = range(s.order)
    # the builders validate what they build; the suites validate what the searches find.
    # Building here leaves the map of constructed witnesses empty: the suite fills it
    derived = commutator_subgroup(s)
    built = Counter((x, build_orientable_witness(s, x)) for x in derived)
    found = _one_var_search(s, everything, 2)
    searched = Counter(found.items())
    calls = _count_calls(monkeypatch, "validate_one_var", (th, vf))
    assert verify_orientable_is_commutator_subgroup(s, 2).passed
    assert calls == built + searched

    built = Counter((u, v, w) for (u, v), w in exact_sigma_report(s).items())
    pairs = [(u, v) for u in everything for v in everything]
    found = _pair_search(s, pairs, 2)
    searched = Counter((u, v, w) for (u, v), w in found.items())
    calls = _count_calls(monkeypatch, "validate_two_var", (th, vf))
    assert verify_sigma_is_abelianization(s, 2).passed
    assert calls == built + searched


@pytest.mark.parametrize("spec, size", [("symmetric:4", 12), ("dihedral:6", 3)])
def test_verify_validates_each_constructed_witness_once(monkeypatch, fresh_caches, spec, size):
    # both theorem suites read one map of constructed witnesses, built once per group
    import semorient.theorems as th

    calls = _count_calls(monkeypatch, "validate_one_var", (th,))
    out, err = io.StringIO(), io.StringIO()
    argv = ["verify", "--family", spec, "--suite", "theorems"]
    assert run(argv, out=out, err=err) == 0
    s = make_family(spec)
    assert len(commutator_subgroup(s)) == size
    assert calls == Counter((x, w) for x, w in th._orientable_witnesses(s).items() if w is not None)


def test_report_serialization(s3):
    report = verify_orientable_is_commutator_subgroup(s3, 3, subject="symmetric:3")
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


# ------------------------------------------------------------ planted defects
#
# Each case replaces one name in ``semorient.verify``, or a dotted ``layer.name``
# in another layer, by a broken version and runs one suite on S3: a theorem
# suite at bound 3, which every construction fits (size 2 for elements, 3 for
# pairs), the propositions at bound 2. The identity is element 0, A3 is
# {0, 3, 4} and element 1 is a transposition. The named check must report the
# defect: a hard check fails with a counterexample and fails the report; a
# soft report records possible violations and leaves the report passing.


def _singletons(s):
    return Congruence(range(s.order))


def _shrunk(commutator_subgroup):
    # [G, G] without its last element: no longer the set the search finds, nor closed
    return lambda s: commutator_subgroup(s)[:-1]


def _finest(coset_congruence):
    # every element its own class: the search relates elements of different classes
    return _singletons


def _trivial_subgroup(commutator_subgroup):
    # [G, G] read as the identity alone: coset_congruence, its reader in groups, is the finest
    return lambda s: (group_structure(s).identity,)


def _coarsest(coset_congruence):
    # one class: every pair the search relates still lies in it
    return lambda s: Congruence((0,) * s.order)


def _non_compatible(coset_congruence):
    # the identity and one transposition, a subgroup that is not normal, as one class
    return lambda s: Congruence((0, 0, 1, 2, 3, 4))


def _bogus_one_var(search):
    def bogus(s, elements, bound):
        found = search(s, elements, bound)
        return {g: OneVarWitness((g,), (), ()) for g in found}

    return bogus


def _bogus_two_var(search):
    def bogus(s, pairs, bound):
        found = search(s, pairs, bound)
        return dict.fromkeys(found, TwoVarWitness((0,), (), (), ()))

    return bogus


def _lost_at_next_bound(search):
    def lost(s, elements, bound):
        return {} if bound > 2 else search(s, elements, bound)

    return lost


def _grown_at_next_bound(search):
    def grown(s, elements, bound):
        found = search(s, elements, bound)
        if bound > 2:
            found = {g: OneVarWitness(w.a + (0,), w.b + (0,), w.c) for g, w in found.items()}
        return found

    return grown


def _padded_below_bound(search):
    # each witness below the bound gets the identity, element 0, on each side: still valid
    def padded(s, elements, bound):
        found = search(s, elements, bound)
        return {
            g: OneVarWitness(w.a + (0,), w.b, w.c + (0,)) if w.size < bound else w
            for g, w in found.items()
        }

    return padded


def _pair_unfound(search):
    # the same-coset pair (identity, 3-cycle) is not found, though its construction fits
    def unfound(s, pairs, bound):
        return {p: w for p, w in search(s, pairs, bound).items() if p != (0, 3)}

    return unfound


def _identity_unwitnessed(search):
    # the identity's witness dropped: the product of a 3-cycle and its inverse has none
    def dropped(s, elements, bound):
        return {g: w for g, w in search(s, elements, bound).items() if g != 0}

    return dropped


def _relation(label, keep):
    """A ``sigma_report`` whose relation keeps only the pairs ``keep`` accepts."""

    def patch(sigma_report):
        def report(s, bound):
            return {p: w for p, w in sigma_report(s, bound).items() if keep(*p)}

        return report

    patch.__name__ = label
    return patch


def _padded(build):
    def padded(s, g):
        w = build(s, g)
        return w and OneVarWitness(w.a + (0,), w.b + (0,), w.c)

    return padded


def _always_fails(validate):
    return lambda *args: "planted failure"


def _wrong_quotient_classes(abelian_keys):
    # ker φ read as singletons: the quotient by it is S3 itself
    return lambda s: (abelian_keys(s)[0], _singletons(s))


def _without_120(abelian_keys):
    # ε keeps its class with 201 only: 120, an element of [G, G], leaves φ⁻¹(1)
    return lambda s: (abelian_keys(s)[0], Congruence((0, 1, 1, 2, 0, 1)))


def _pair_dropped(exact_sigma_report):
    # the first same-coset pair, (identity, identity), loses its witness
    def dropped(s):
        return dict(list(exact_sigma_report(s).items())[1:])

    return dropped


PLANTED = [
    # (suite, name in semorient.verify or layer.name, defect, check id, text it reports, soft)
    # the builder of the map of constructed witnesses, which the suite reads
    ("orientable", "theorems.build_orientable_witness", _padded, "constructed-witnesses",
     "witness size 3, expected 2", False),
    # the partition the map reads: an element of [G, G] outside ε's class gets no witness
    ("orientable", "theorems._abelian_keys", _without_120, "constructed-witnesses",
     "120: no constructed witness", False),
    ("orientable", "_one_var_search", _bogus_one_var, "bounded-search-sound",
     "unbalanced lengths", False),
    ("orientable", "commutator_subgroup", _shrunk, "bounded-search-sound",
     "outside the commutator subgroup", False),
    ("orientable", "commutator_subgroup", _shrunk, "orientable-set-equals-commutator-subgroup",
     "201: found, but outside the subgroup", False),
    ("orientable", "_one_var_search", _padded_below_bound,
     "orientable-set-equals-commutator-subgroup",
     "120: construction of size 2 fits bound 3, search found size 3", False),
    ("sigma", "_pair_search", _bogus_two_var, "bounded-pair-search-sound",
     "unbalanced lengths", False),
    ("sigma", "coset_congruence", _finest, "bounded-pair-search-sound",
     "related by search but in different cosets", False),
    ("sigma", "_abelian_keys", _wrong_quotient_classes, "sigma-quotient-is-abelianization",
     "quotient is not commutative", False),
    ("sigma", "exact_sigma_report", _pair_dropped, "constructed-pair-witnesses",
     "(012, 012): no witness built in one coset", False),
    ("sigma", "_pair_search", _pair_unfound, "constructed-pair-witnesses",
     "(012, 120): construction of size 3 fits bound 3, none found", False),
    ("sigma", "commutative_congruence", _finest, "sigma-classes-equal-cosets",
     "(012, 120): one coset, two kappa-classes", False),
    ("sigma", "coset_congruence", _finest, "sigma-classes-equal-cosets",
     "(012, 120): one kappa-class, two cosets", False),
    # every reader of groups.coset_congruence sees it; the exact report reads ker φ
    ("sigma", "groups.commutator_subgroup", _trivial_subgroup, "constructed-pair-witnesses",
     "(012, 120): witness built across cosets", False),
    ("sigma", "coset_congruence", _coarsest, "sigma-classes-equal-cosets",
     "(012, 021): one coset, two kappa-classes", False),
    ("sigma", "coset_congruence", _non_compatible, "sigma-classes-equal-cosets",
     "(012, 021): one coset, two kappa-classes", False),
    ("properties", "validate_two_var", _always_fails, "reflexivity-witnesses",
     "(012, 012)", False),
    ("properties", "validate_two_var", _always_fails, "commutation-witnesses",
     "(012, 012): planted failure", False),
    ("properties", "validate_one_var", _always_fails, "idempotent-witnesses", "012", False),
    ("properties", "_one_var_search", _lost_at_next_bound, "search-monotonicity",
     "witness lost at bound 3", False),
    ("properties", "_one_var_search", _grown_at_next_bound, "search-monotonicity",
     "canonical witness grew at a larger bound", False),
    ("properties", "_one_var_search", _identity_unwitnessed,
     "orientable-product-closure", "has no witness at bound 2", True),
    ("properties", "sigma_report", _relation("asymmetric", lambda u, v: u <= v),
     "sigma-relation-symmetry", "possible violation(s)", True),
    ("properties", "sigma_report", _relation("no-diagonal", lambda u, v: u != v),
     "sigma-relation-transitivity", "possible violation(s)", True),
    ("properties", "sigma_report", _relation("one-coset", lambda u, v: {u, v} <= {0, 3, 4}),
     "sigma-relation-compatibility", "translate of", True),
    ("properties", "sigma_report", _relation("empty", lambda u, v: False),
     "orientable-identity-class", "possible violation(s)", True),
]


def _suite(name, s3):
    if name == "orientable":
        return verify_orientable_is_commutator_subgroup(s3, 3)
    if name == "sigma":
        return verify_sigma_is_abelianization(s3, 3)
    return verify_semigroup_properties(s3, 2, 2)


@pytest.mark.parametrize(
    "suite, name, defect, check_id, text, soft",
    PLANTED,
    ids=[
        f"{check_id}-{name.rpartition('.')[2]}-{defect.__name__}"
        for _, name, defect, check_id, *_ in PLANTED
    ],
)
def test_planted_defect_is_reported(
    monkeypatch, fresh_caches, s3, suite, name, defect, check_id, text, soft
):
    layer, _, name = name.rpartition(".")
    module = import_module(f"semorient.{layer or 'verify'}")

    assert s3.names[:5] == ("012", "021", "102", "120", "201")
    monkeypatch.setattr(module, name, defect(getattr(module, name)))
    report = _suite(suite, s3)
    check = next(c for c in report.checks if c.check_id == check_id)
    if soft:
        assert check.status == "soft-report" and "possible violation(s)" in check.details
        assert text in check.details, check.details
        assert report.passed, report.to_text()
    else:
        assert check.status == "fail" and text in check.counterexample, report.to_text()
        assert not report.passed
        assert "result: FAIL" in report.to_text()


@pytest.mark.parametrize("planted, count", [(False, "all"), (True, "2 of")])
def test_constructed_witnesses_counts_the_witnesses_it_built(
    monkeypatch, fresh_caches, s3, planted, count
):
    # under _without_120 the map holds None for 120, so two of the three are built
    if planted:
        import semorient.theorems as th

        monkeypatch.setattr(th, "_abelian_keys", _without_120(th._abelian_keys))
    report = _suite("orientable", s3)
    check = next(c for c in report.checks if c.check_id == "constructed-witnesses")
    assert check.details == (
        f"built witnesses for {count} 3 commutator-subgroup elements (max decomposition length 1)"
    )


def test_every_theorem_check_has_a_planted_defect(s3):
    planted = {(suite, check_id) for suite, _, _, check_id, *_ in PLANTED}
    for suite in ("orientable", "sigma"):
        assert {(suite, c.check_id) for c in _suite(suite, s3).checks} <= planted


def test_planted_defect_fails_the_verify_verb(monkeypatch, fresh_caches):
    import semorient.verify as vf

    search = vf._one_var_search
    monkeypatch.setattr(vf, "_one_var_search", _bogus_one_var(search))
    out, err = io.StringIO(), io.StringIO()
    argv = ["verify", "--family", "symmetric:3", "--suite", "theorems", "--bound", "2"]
    assert run(argv, out=out, err=err) == 1
    assert "[fail] bounded-search-sound" in out.getvalue()
    assert out.getvalue().endswith("\nsuite theorems: FAILURES\n") and err.getvalue() == ""
