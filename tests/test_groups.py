import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collections import deque

from semorient.catalog import GROUP_FAMILIES, NONGROUP_FAMILIES, make_family
from semorient.core import generated_congruence, is_cancellative, is_commutative, make_semigroup
from semorient.groups import (
    NotAGroupError,
    abelianization,
    commutator,
    commutator_subgroup,
    coset_congruence,
    derived_subgroup_tree,
    group_structure,
)

from oracles import all_associative_tables, brute_commutators, coset_partition, subgroup_closure


def test_group_structure_z6():
    g = group_structure(make_family("cyclic:6"))
    assert g.identity == 0
    assert g.inverse == (0, 5, 4, 3, 2, 1)


def test_not_a_group_reasons():
    with pytest.raises(NotAGroupError) as exc:
        group_structure(make_family("leftzero:2"))
    assert "no identity" in exc.value.reason
    # full transformation monoid has an identity but constants are not invertible
    with pytest.raises(NotAGroupError) as exc:
        group_structure(make_family("fulltransformation:2"))
    assert "Latin" in exc.value.reason


@pytest.mark.parametrize("spec", GROUP_FAMILIES)
def test_group_detection_on_groups(spec):
    g = group_structure(make_family(spec))
    assert g.order == make_family(spec).order


@pytest.mark.parametrize("spec", NONGROUP_FAMILIES)
def test_group_detection_rejects_nongroups(spec):
    with pytest.raises(NotAGroupError):
        group_structure(make_family(spec))


def test_commutator_basics(s3):
    g = group_structure(s3)
    for x in range(6):
        assert commutator(g, x, x) == g.identity
    # (12) and (13) in image notation: "102" and "210"; their commutator is a 3-cycle
    x, y = s3.index_of("102"), s3.index_of("210")
    c = commutator(g, x, y)
    assert s3.names[c] in {"120", "201"}


def test_commutator_abelian_groups_trivial():
    for spec in ("cyclic:6", "klein4"):
        s = make_family(spec)
        g = group_structure(s)
        assert all(
            commutator(g, x, y) == g.identity
            for x in range(s.order)
            for y in range(s.order)
        )


@settings(max_examples=60)
@given(st.data())
def test_commutators_xy_yx_mutual_inverses(data):
    spec = data.draw(st.sampled_from(GROUP_FAMILIES))
    s = make_family(spec)
    g = group_structure(s)
    x = data.draw(st.integers(min_value=0, max_value=s.order - 1))
    y = data.draw(st.integers(min_value=0, max_value=s.order - 1))
    assert s.table[commutator(g, x, y)][commutator(g, y, x)] == g.identity


@pytest.mark.parametrize(
    "spec, expected_order",
    [
        ("cyclic:8", 1),
        ("klein4", 1),
        ("symmetric:3", 3),
        ("dihedral:4", 2),
        ("quaternion8", 2),
        ("alternating:4", 4),
    ],
)
def test_commutator_subgroup_orders(spec, expected_order):
    s = make_family(spec)
    assert len(commutator_subgroup(group_structure(s))) == expected_order


@pytest.mark.parametrize("spec", [*GROUP_FAMILIES, "dihedral:36"])
def test_commutator_subgroup_matches_closure_oracle(spec):
    s = make_family(spec)
    g = group_structure(s)
    values, _ = brute_commutators(s.table, g.identity)
    assert set(commutator_subgroup(g)) == subgroup_closure(s.table, values)


def test_commutator_subgroup_named_elements(s3):
    g = group_structure(s3)
    assert [s3.names[x] for x in commutator_subgroup(g)] == ["012", "120", "201"]
    q8 = make_family("quaternion8")
    gq = group_structure(q8)
    assert [q8.names[x] for x in commutator_subgroup(gq)] == ["1", "-1"]


@pytest.mark.parametrize("spec", GROUP_FAMILIES)
def test_commutator_subgroup_is_normal(spec):
    s = make_family(spec)
    g = group_structure(s)
    k = set(commutator_subgroup(g))
    t = s.table
    for a in k:
        for x in range(s.order):
            assert t[x][t[a][g.inverse[x]]] in k


@pytest.mark.parametrize("spec", GROUP_FAMILIES)
def test_coset_congruence_matches_oracle(spec):
    s = make_family(spec)
    g = group_structure(s)
    c = coset_congruence(g)
    values, inv = brute_commutators(s.table, g.identity)
    expected = coset_partition(s.table, subgroup_closure(s.table, values), inv)
    got = {frozenset(members) for members in c.classes()}
    assert got == expected


def test_coset_congruence_shapes(s3):
    c = coset_congruence(group_structure(s3))
    assert c.num_classes == 2
    assert sorted(len(m) for m in c.classes()) == [3, 3]
    d4 = make_family("dihedral:4")
    c4 = coset_congruence(group_structure(d4))
    assert c4.num_classes == 4
    assert all(len(m) == 2 for m in c4.classes())
    z5 = make_family("cyclic:5")
    assert coset_congruence(group_structure(z5)).num_classes == 5


def test_abelianization_examples(s3):
    ab = abelianization(group_structure(s3))
    assert ab.order == 2

    q8 = make_family("quaternion8")
    ab8 = abelianization(group_structure(q8))
    assert ab8.order == 4
    e = group_structure(ab8).identity
    assert all(ab8.table[x][x] == e for x in range(4))  # Klein four shape

    a4 = make_family("alternating:4")
    ab4 = abelianization(group_structure(a4))
    assert ab4.order == 3
    assert any(ab4.table[x][x] != group_structure(ab4).identity for x in range(3))


@pytest.mark.parametrize("spec", GROUP_FAMILIES)
def test_abelianization_properties(spec):
    s = make_family(spec)
    g = group_structure(s)
    ab = abelianization(g)
    assert is_commutative(ab) and is_cancellative(ab)
    assert ab.order * len(commutator_subgroup(g)) == s.order  # Lagrange consistency


@pytest.mark.parametrize("spec", GROUP_FAMILIES)
def test_smallest_commutative_congruence_is_coset_partition(spec):
    s = make_family(spec)
    g = group_structure(s)
    pairs = [
        (s.table[x][y], s.table[y][x]) for x in range(s.order) for y in range(s.order)
    ]
    assert generated_congruence(s, pairs) == coset_congruence(g)


def _group_structure_by_loops(s):
    """(identity, inverse) or the NotAGroupError reason, by per-element loops."""
    n, t = s.order, s.table
    identity = next(
        (e for e in range(n) if all(t[e][x] == x and t[x][e] == x for x in range(n))), None
    )
    if identity is None:
        return "no identity element"
    for i in range(n):
        if set(t[i]) != set(range(n)) or {t[j][i] for j in range(n)} != set(range(n)):
            return f"element {s.names[i]!r} has no inverse (table is not a Latin square)"
    return identity, tuple(next(h for h in range(n) if t[g][h] == identity) for g in range(n))


def _monoid_with_zero(group):
    """The group with a zero adjoined last: an identity, but not a Latin square."""
    n = group.order
    rows = [list(row) + [n] for row in group.table] + [[n] * (n + 1)]
    return make_semigroup([f"g{i}" for i in range(n)] + ["z"], rows)


def _group_structure_cases():
    cases = [
        make_semigroup([f"x{i}" for i in range(n)], raw)
        for n in (1, 2, 3)
        for raw in all_associative_tables(n)
    ]
    specs = GROUP_FAMILIES + NONGROUP_FAMILIES + ("dihedral:9", "directproduct:klein4,symmetric:3")
    cases += [make_family(spec) for spec in specs]
    cases += [_monoid_with_zero(make_family(spec)) for spec in ("cyclic:1", "symmetric:3")]
    return cases


def test_group_structure_matches_the_per_element_loops():
    for s in _group_structure_cases():
        expected = _group_structure_by_loops(s)
        try:
            g = group_structure(s)
        except NotAGroupError as exc:
            assert exc.reason == expected, s.table
        else:
            assert (g.identity, g.inverse) == expected, s.table


def _derived_tree_by_loops(g):
    """The BFS tree with each commutator value labelled by a double loop over (x, y)."""
    preimage = {}
    for x in range(g.order):
        for y in range(g.order):
            preimage.setdefault(commutator(g, x, y), (x, y))
    edges = sorted(preimage.items())
    parent = {g.identity: None}
    queue = deque([g.identity])
    while queue:
        h = queue.popleft()
        for c, pair in edges:
            nxt = g.base.table[h][c]
            if nxt not in parent:
                parent[nxt] = (h, pair)
                queue.append(nxt)
    return parent


@pytest.mark.parametrize(
    "spec",
    GROUP_FAMILIES + ("dihedral:9", "symmetric:4", "directproduct:quaternion8,symmetric:3"),
)
def test_derived_tree_matches_the_double_loop(spec):
    g = group_structure(make_family(spec))
    tree = derived_subgroup_tree(g)
    expected = _derived_tree_by_loops(g)
    assert dict(tree) == expected
    assert list(tree) == list(expected)  # the same BFS order
