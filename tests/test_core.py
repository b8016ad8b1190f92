import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semorient.catalog import CATALOG_FAMILIES, make_family
from semorient.core import (
    MAX_ORDER,
    AssociativityError,
    CompatibilityError,
    Congruence,
    SemigroupError,
    TableFormatError,
    adjoin_identity,
    check_associativity,
    commutative_congruence,
    compatibility_violation,
    eval_word,
    generated_congruence,
    idempotents,
    is_cancellative,
    is_commutative,
    make_semigroup,
    parse_table,
    quotient,
    serialize_table,
)
from semorient.core import _magma_generators  # private: the greedy set is checked directly
from semorient.groups import commutator_subgroup, group_structure

from conftest import FIXTURES
from kappa_probe import random_transformation_semigroup
from oracles import (
    all_associative_tables,
    all_pairs_kappa,
    commutative_congruences,
    first_assoc_violation,
    least_congruence,
    magma_closure,
    transformation_table,
)

BROKEN_2X2 = [[1, 1], [1, 0]]  # xor-with-1 magma


def test_parse_z2_fixture():
    s = parse_table((FIXTURES / "z2.tbl").read_text())
    assert s.order == 2
    assert s.names == ("0", "1")
    assert s.table == ((0, 1), (1, 0))


def test_parse_s3_fixture_matches_permutation_oracle(s3):
    from itertools import permutations

    s = parse_table((FIXTURES / "s3.tbl").read_text())
    assert s.order == 6
    perms = sorted(permutations(range(3)))
    expected = transformation_table(perms)
    assert [list(row) for row in s.table] == expected
    assert s == s3


def test_parse_broken_magma_reports_first_triple():
    # oracle: enumerate all 8 triples by hand machinery
    expected = first_assoc_violation(BROKEN_2X2)
    assert expected is not None
    with pytest.raises(AssociativityError) as exc:
        parse_table((FIXTURES / "bad_assoc.tbl").read_text())
    assert exc.value.triple == expected


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "elements:"),
        ("# just a comment\n", "elements:"),
        ("elements:\ntable:\n", "no element names"),
        ("elements: a a\ntable:\na a\na a", "duplicate"),
        ("elements: a b\nrows:\n", "table:"),
        ("elements: a b\ntable:\na b\n", "expected 2 table rows"),
        ("elements: a b\ntable:\na b\nb a\nextra line", "after table rows"),
        ("elements: a b\ntable:\na b b\nb a\n", "3 entries"),
        ("elements: a b\ntable:\na q\nb a\n", "unknown element name 'q'"),
        ("elements: a b\ntable:\na\tb\tb\nb a\n", "3 entries"),
        ("elements: a b\ntable:\na b\nb\xa0a\xa0a\n", "3 entries"),
        ("elements: a b\ntable:\na\t\xa0q\nb a\n", "unknown element name 'q'"),
        ("elements: a b\ntable:\na b\nb\xa0a\tq\n", "table row 1 has 3 entries"),
        ("elements: a b#c\ntable:\na a\na a\n", "reserved character"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(TableFormatError) as exc:
        parse_table(text)
    assert fragment in str(exc.value)


def test_parse_error_reports_position():
    with pytest.raises(TableFormatError) as exc:
        parse_table("elements: a b\ntable:\na b\nb q\n")
    assert exc.value.line == 4
    assert exc.value.column == 3


@pytest.mark.parametrize(
    "row, message",
    [
        ("b\tq", "line 4, column 3: unknown element name 'q'"),
        ("\xa0b\t\xa0q", "line 4, column 5: unknown element name 'q'"),
        ("  q\u3000b", "line 4, column 3: unknown element name 'q'"),
        ("b\x1fqq\t", "line 4, column 3: unknown element name 'qq'"),
        ("\tb\xa0a\tb", "line 4: table row 1 has 3 entries, expected 2"),
    ],
)
def test_parse_error_text_with_tabs_and_no_break_spaces(row, message):
    # a row splits at every character with isspace(); columns count characters from 1
    with pytest.raises(TableFormatError) as exc:
        parse_table(f"elements: a b\ntable:\na b\n{row}\n")
    assert str(exc.value) == message


def test_rows_split_at_any_whitespace():
    s = parse_table("elements: a b\ntable:\n\ta\xa0b \nb\u3000\x1fa\t\n")
    assert s.table == ((0, 1), (1, 0))


def test_parse_skips_comments_and_blank_lines():
    text = "# header\n\nelements: a b\n# mid\ntable:\n\na b\n# another\nb a\n"
    s = parse_table(text)
    assert s.names == ("a", "b")


@pytest.mark.parametrize("spec", CATALOG_FAMILIES)
def test_serialize_parse_round_trip(spec):
    s = make_family(spec)
    text = serialize_table(s)
    assert parse_table(text) == s
    assert serialize_table(parse_table(text)) == text


def test_round_trip_fixture_files():
    for name in ("z2.tbl", "s3.tbl"):
        s = parse_table((FIXTURES / name).read_text())
        assert parse_table(serialize_table(s)) == s


def test_check_associativity_ok_tables(z4):
    assert check_associativity(z4.table) is None
    leftzero = make_family("leftzero:3")
    assert check_associativity(leftzero.table) is None  # (xy)z = x = x(yz)


def test_check_associativity_broken():
    assert check_associativity(BROKEN_2X2) == first_assoc_violation(BROKEN_2X2)
    assert check_associativity(BROKEN_2X2) == (0, 0, 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_check_associativity_matches_oracle_on_every_small_magma(n):
    # all n^(n*n) tables: 1, 16 and 19683
    for flat in product(range(n), repeat=n * n):
        table = [flat[i * n : (i + 1) * n] for i in range(n)]
        assert check_associativity(table) == first_assoc_violation(table), table


def _left_zeros_then(group, zeros):
    """``zeros`` left zeros first, then the group; g*l = l for every g."""
    n = zeros + group.order
    rows = [[i] * n for i in range(zeros)]
    rows += [list(range(zeros)) + [zeros + x for x in row] for row in group.table]
    return rows


def _rectangular_band(p, q):
    # (a, b)(c, d) = (a, d), element (a, b) at index a*q + b
    return [[(x // q) * q + y % q for y in range(p * q)] for x in range(p * q)]


_NEAR_ASSOCIATIVE = [
    make_family(spec).table
    for spec in CATALOG_FAMILIES + ("dihedral:12", "directproduct:symmetric:3,cyclic:4")
] + [
    _left_zeros_then(make_family("symmetric:3"), 4),
    _left_zeros_then(make_family("quaternion8"), 6),
    _rectangular_band(2, 3),
]


def test_near_associative_bases_are_associative():
    for table in _NEAR_ASSOCIATIVE:
        assert len(table) <= 24
        assert check_associativity(table) is None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_check_associativity_matches_oracle_after_one_cell_change(data):
    # tables one cell away from associative are where a wrong generating set would show
    table = [list(row) for row in data.draw(st.sampled_from(_NEAR_ASSOCIATIVE))]
    n = len(table)
    i, j, v = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    table[i][j] = v
    assert check_associativity(table) == first_assoc_violation(table)


@pytest.mark.parametrize(
    "table, expected",
    [
        (make_family("leftzero:5").table, [0, 1, 2, 3, 4]),
        (make_family("null:5").table, [0, 1, 2, 3, 4]),
        (_rectangular_band(2, 3), [0, 1, 2, 3]),
        (make_family("dihedral:12").table, [0, 1, 12]),  # e, r, s
        # z, a, b, ab with every other product z: ab is an earlier member times a later one
        ([[0, 0, 0, 0], [0, 0, 3, 0], [0, 0, 0, 0], [0, 0, 0, 0]], [0, 1, 2]),
    ],
)
def test_magma_generators_are_greedy_and_generate_everything(table, expected):
    generators = _magma_generators(table)
    assert generators == expected
    assert magma_closure(table, generators) == set(range(len(table)))
    for k, a in enumerate(generators):
        # each generator is the smallest element the earlier ones do not generate
        missing = set(range(len(table))) - magma_closure(table, generators[:k])
        assert a == min(missing)


def test_check_associativity_at_the_order_cap():
    s = make_family("dihedral:500")
    assert s.order == MAX_ORDER
    assert check_associativity(s.table) is None


def test_semigroup_constructor_rejects_bad_tables():
    with pytest.raises(TableFormatError):
        make_semigroup(["a", "b"], [[0, 1]])
    with pytest.raises(TableFormatError):
        make_semigroup(["a", "b"], [[0, 2], [1, 0]])
    with pytest.raises(AssociativityError):
        make_semigroup(["a", "b"], BROKEN_2X2)


def test_eval_word_z4(z4):
    m = adjoin_identity(z4)
    assert eval_word(m, (1, 1, 1)) == 3
    assert eval_word(m, ()) == m.identity_index
    with pytest.raises(ValueError):
        eval_word(m, (9,))


def test_eval_word_s3_conjugation(s3):
    # s r s = r^2 for a transposition s and 3-cycle r, per the permutation oracle
    from oracles import compose

    m = adjoin_identity(s3)
    r = s3.index_of("120")
    s = s3.index_of("102")
    got = eval_word(m, (s, r, s))
    expected = compose(compose((1, 0, 2), (1, 2, 0)), (1, 0, 2))
    assert s3.names[got] == "".join(map(str, expected))
    assert got == s3.table[r][r]


@settings(max_examples=60)
@given(st.data())
def test_eval_word_is_concatenation_homomorphism(data):
    spec = data.draw(st.sampled_from(CATALOG_FAMILIES))
    s = make_family(spec)
    m = adjoin_identity(s)
    elems = st.integers(min_value=0, max_value=s.order - 1)
    w1 = tuple(data.draw(st.lists(elems, max_size=6)))
    w2 = tuple(data.draw(st.lists(elems, max_size=6)))
    assert eval_word(m, w1 + w2) == m.table[eval_word(m, w1)][eval_word(m, w2)]


def test_adjoin_identity_marker_freshness():
    z2 = make_family("cyclic:2")  # already has an element named "1"
    m = adjoin_identity(z2)
    assert m.order == 3
    assert m.names == ("0", "1", "1'")
    lz = make_family("leftzero:2")
    assert adjoin_identity(lz).names[-1] == "1"


def test_adjoin_identity_preserves_base_products():
    lz = make_family("leftzero:2")
    m = adjoin_identity(lz)
    assert m.order == 3
    for i in range(2):
        for j in range(2):
            assert m.table[i][j] == lz.table[i][j]  # still xy = x
    e = m.identity_index
    assert all(m.table[e][x] == x == m.table[x][e] for x in range(3))


def test_adjoin_identity_even_if_identity_exists(z4):
    m = adjoin_identity(z4)
    assert m.order == 5
    assert m.identity_index == 4


def test_adjoin_identity_null3():
    m = adjoin_identity(make_family("null:3"))
    assert m.order == 4


def test_idempotents():
    for spec in ("cyclic:5", "symmetric:3", "quaternion8"):
        s = make_family(spec)
        e = group_structure(s).identity
        assert idempotents(s) == (e,)
    assert idempotents(make_family("leftzero:3")) == (0, 1, 2)
    # oracle: the three idempotent self-maps of a 2-set are the identity and both constants
    ft2 = make_family("fulltransformation:2")
    names = {ft2.names[e] for e in idempotents(ft2)}
    assert names == {"00", "01", "11"}


def test_generated_congruence_empty_pairs(s3):
    c = generated_congruence(s3, [])
    assert c.num_classes == s3.order
    assert c.class_of == tuple(range(s3.order))


def test_generated_congruence_two_element_collapse():
    lz = make_family("leftzero:2")
    c = generated_congruence(lz, [(0, 1)])
    assert c.num_classes == 1


def test_generated_congruence_commutation_pairs_equal_cosets(group_family):
    spec, s = group_family
    pairs = [
        (s.table[x][y], s.table[y][x]) for x in range(s.order) for y in range(s.order)
    ]
    c = generated_congruence(s, pairs)
    g = group_structure(s)
    derived = commutator_subgroup(g)
    assert c.num_classes == s.order // len(derived)
    from semorient.groups import coset_congruence

    assert c == coset_congruence(g)


def test_commutative_congruence_is_the_least_one():
    # brute force over every partition: κ is a commutative congruence and refines all others
    tables = [raw for n in (1, 2, 3) for raw in all_associative_tables(n)]
    specs = ("fulltransformation:2", "klein4", "dihedral:3")
    tables += [make_family(spec).table for spec in specs]
    for raw in tables:
        s = make_semigroup([f"x{i}" for i in range(len(raw))], raw)
        kappa = commutative_congruence(s).class_of
        found = list(commutative_congruences(s.table))
        assert kappa in found
        for other in found:
            merged = [(x, y) for x in range(s.order) for y in range(x) if kappa[x] == kappa[y]]
            assert all(other[x] == other[y] for x, y in merged)


def test_generated_congruence_rejects_bad_pairs(z4):
    with pytest.raises(ValueError):
        generated_congruence(z4, [(0, 7)])


def test_quotient_z4_mod_two(z4):
    c = Congruence((0, 1, 0, 1), 2)
    q = quotient(z4, c)
    assert q.names == ("[0]", "[1]")
    assert q.table == ((0, 1), (1, 0))  # hand quotient: Z2


def test_quotient_by_identity_congruence(s3):
    c = Congruence(tuple(range(6)), 6)
    q = quotient(s3, c)
    assert q.table == s3.table
    assert q.names == tuple(f"[{n}]" for n in s3.names)


def test_quotient_s3_by_coset_congruence(s3):
    from semorient.groups import coset_congruence

    q = quotient(s3, coset_congruence(group_structure(s3)))
    assert q.order == 2
    assert q.table == ((0, 1), (1, 0))


def test_quotient_rejects_incompatible_partition(z4):
    bad = Congruence((0, 0, 1, 2), 3)
    violation = compatibility_violation(z4, bad)
    assert violation is not None
    with pytest.raises(CompatibilityError) as exc:
        quotient(z4, bad)
    u, u2, v, v2 = exc.value.quadruple
    cls = bad.class_of
    assert cls[u] == cls[u2] and cls[v] == cls[v2]
    assert cls[z4.table[u][v]] != cls[z4.table[u2][v2]]


def test_congruence_constructor_validation():
    with pytest.raises(SemigroupError):
        Congruence((0, 2, 1), 3)  # ids out of first-appearance order
    with pytest.raises(SemigroupError):
        Congruence((0, 0), 2)  # class id 1 unused
    with pytest.raises(SemigroupError):
        Congruence((0, 5), 2)


def test_commutative_and_cancellative():
    z6 = make_family("cyclic:6")
    assert is_commutative(z6) and is_cancellative(z6)
    s3 = make_family("symmetric:3")
    assert not is_commutative(s3) and is_cancellative(s3)
    lz = make_family("leftzero:3")
    assert not is_commutative(lz) and not is_cancellative(lz)


@settings(max_examples=40)
@given(st.data())
def test_generated_congruence_always_quotientable(data):
    spec = data.draw(st.sampled_from(CATALOG_FAMILIES))
    s = make_family(spec)
    elems = st.integers(min_value=0, max_value=s.order - 1)
    pairs = data.draw(st.lists(st.tuples(elems, elems), max_size=5))
    c = generated_congruence(s, pairs)
    q = quotient(s, c)  # closure correctness: never raises
    assert q.order == c.num_classes


def _chain_semilattice(n):
    # x*y = max(x, y): every row has its own fiber partition
    return [[max(x, y) for y in range(n)] for x in range(n)]


# tables whose rows repeat or are constant on large fibers: the per-fiber path
_FIBERED = {
    "leftzero": make_family("leftzero:9").table,
    "rightzero": make_family("rightzero:9").table,
    "null": make_family("null:9").table,
    "rectangular-band": _rectangular_band(3, 4),
    "chain-semilattice": _chain_semilattice(10),
    "left-zeros-then-group": _left_zeros_then(make_family("symmetric:3"), 5),
}


@pytest.mark.parametrize("label", _FIBERED)
def test_per_fiber_check_matches_oracle_on_perturbed_tables(label):
    base = _FIBERED[label]
    assert check_associativity(base) is None
    n = len(base)
    names = [f"x{i}" for i in range(n)]
    rng = random.Random(label)
    for _ in range(150):
        table = [list(row) for row in base]
        for _ in range(rng.randint(1, 3)):
            table[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
        expected = first_assoc_violation(table)
        assert check_associativity(table) == expected, table
        # on a non-associative table the greedy set may grow, but it still generates
        assert magma_closure(table, _magma_generators(table)) == set(range(n))
        if expected is None:
            make_semigroup(names, table)
            continue
        with pytest.raises(AssociativityError) as exc:
            make_semigroup(names, table)
        i, j, k = expected
        assert str(exc.value) == (
            f"not associative at triple ({i}, {j}, {k}): (e{i} e{j}) e{k} != e{i} (e{j} e{k})"
        )


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[0, 1], [1, 2]], "table entry 2 out of range in row 1"),
        ([[0, -1], [1, 0]], "table entry -1 out of range in row 0"),
        ([[0, 9, -3], [0, 1, 2], [0, 1, 2]], "table entry 9 out of range in row 0"),
        ([[0, 1], [1, 0, 1]], "table row 1 has 3 entries, expected 2"),
        # row order decides: a bad entry in row 0 before a short row 1
        ([[5, 1], [1]], "table entry 5 out of range in row 0"),
        ([[0, 1, 2], [0], [7, 7, 7]], "table row 1 has 1 entries, expected 3"),
    ],
)
def test_entry_range_errors_name_the_first_bad_entry(rows, message):
    with pytest.raises(TableFormatError) as exc:
        make_semigroup([f"x{i}" for i in range(len(rows))], rows)
    assert str(exc.value) == message


def test_commutative_and_cancellative_match_naive_loops():
    for n in (1, 2, 3):
        for raw in all_associative_tables(n):
            s = make_semigroup([f"x{i}" for i in range(n)], raw)
            t = s.table
            assert is_commutative(s) == all(t[i][j] == t[j][i] for i in range(n) for j in range(n))
            rows_injective = all(len({t[i][j] for j in range(n)}) == n for i in range(n))
            columns_injective = all(len({t[i][j] for i in range(n)}) == n for j in range(n))
            assert is_cancellative(s) == (rows_injective and columns_injective)


def _random_semigroups(count, seed=1, max_order=16):
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        s = random_transformation_semigroup(rng, max_order)
        if s is not None:
            found.append(s)
    return found


_KAPPA_SPECS = CATALOG_FAMILIES + (
    "dihedral:6", "leftzero:7", "rightzero:5", "null:6", "directproduct:symmetric:3,cyclic:2",
    "directproduct:leftzero:2,cyclic:3",
)


@pytest.mark.parametrize("spec", _KAPPA_SPECS)
def test_kappa_from_generators_equals_all_pairs_kappa_on_the_catalog(spec):
    s = make_family(spec)
    assert commutative_congruence(s).class_of == all_pairs_kappa(s.table)


def test_kappa_from_generators_equals_all_pairs_kappa_on_small_and_random_tables():
    semigroups = [
        make_semigroup([f"x{i}" for i in range(n)], raw)
        for n in (1, 2, 3)
        for raw in all_associative_tables(n)
    ] + _random_semigroups(60)
    for s in semigroups:
        assert commutative_congruence(s).class_of == all_pairs_kappa(s.table), s.table


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_generated_congruence_matches_naive_closure(data):
    spec = data.draw(st.sampled_from(_KAPPA_SPECS))
    s = make_family(spec)
    elems = st.integers(min_value=0, max_value=s.order - 1)
    pairs = data.draw(st.lists(st.tuples(elems, elems), max_size=4))
    assert generated_congruence(s, pairs).class_of == least_congruence(s.table, pairs)


def test_generated_congruence_reports_the_first_bad_pair(z4):
    with pytest.raises(ValueError, match=r"^pair \(5, 0\) out of range$"):
        generated_congruence(z4, [(0, 1), (5, 0), (-1, 2)])
    with pytest.raises(ValueError, match=r"^pair \(1, -1\) out of range$"):
        generated_congruence(z4, iter([(1, 2), (1, -1)]))


def _first_incompatibility(s, c):
    """The quadruple the per-element loop finds: classes in order, then t, left before right."""
    table, cls = s.table, c.class_of
    for members in c.classes():
        for u in members[1:]:
            for t in range(s.order):
                if cls[table[members[0]][t]] != cls[table[u][t]]:
                    return (members[0], u, t, t)
                if cls[table[t][members[0]]] != cls[table[t][u]]:
                    return (t, t, members[0], u)
    return None


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_compatibility_violation_matches_the_per_element_loop(data):
    s = make_family(data.draw(st.sampled_from(_KAPPA_SPECS)))
    raw = data.draw(st.lists(st.integers(0, 3), min_size=s.order, max_size=s.order))
    ids = {}
    c = Congruence(tuple(ids.setdefault(x, len(ids)) for x in raw), len(ids))
    assert compatibility_violation(s, c) == _first_incompatibility(s, c)


def _one_sided_cosets(s, subgroup, left):
    """The left cosets g*H (compatible with left translation only) or the right cosets H*g."""
    t = s.table
    h = [s.index_of(name) for name in subgroup]
    coset = [frozenset(t[g][x] if left else t[x][g] for x in h) for g in range(s.order)]
    ids = {}
    return Congruence(tuple(ids.setdefault(c, len(ids)) for c in coset), len(ids))


@pytest.mark.parametrize(
    "spec, subgroup",
    [("symmetric:3", ("012", "021")), ("dihedral:4", ("e", "s")), ("symmetric:4", ("0123", "1032"))],
)
def test_compatibility_violation_matches_the_loop_on_one_sided_cosets(spec, subgroup):
    # cosets of a non-normal subgroup pass one translation check and fail the other
    s = make_family(spec)
    for left in (True, False):
        c = _one_sided_cosets(s, subgroup, left)
        found = compatibility_violation(s, c)
        assert found is not None
        assert found == _first_incompatibility(s, c)
        u, u2, v, v2 = found
        # left cosets fail only under right translation, (u, u', t, t); right ones only under left
        assert (u != u2, v != v2) == (left, not left)
