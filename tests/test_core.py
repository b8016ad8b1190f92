import copy
import pickle
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semorient.catalog import CATALOG_FAMILIES, make_family
from semorient.core import (
    CACHE_SIZE,
    MAX_ORDER,
    AssociativityError,
    CompatibilityError,
    Congruence,
    Semigroup,
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
    parse_table,
    quotient,
    serialize_table,
)
from semorient.core import _abelian_keys  # private: ker φ's pairs are checked directly
from semorient.core import _magma_generators  # private: the greedy set is checked directly
from semorient.core import _tokenize  # private: columns are checked against str.split
from semorient.groups import commutator_subgroup, coset_congruence, group_structure

from conftest import FIXTURES
from oracles import (
    all_pairs_kappa,
    class_semigroups,
    commutative_congruences,
    first_assoc_violation,
    labelled_semigroups,
    least_congruence,
    magma_closure,
    random_transformation_semigroups,
    rees_tables,
    transformation_table,
    with_identity,
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


@pytest.mark.parametrize("sep", list("\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"))
def test_only_newlines_end_lines(sep):
    # str.splitlines breaks lines at these too; in a table they are whitespace in a row
    assert parse_table(f"elements: e a\ntable:\ne{sep}a\na e\n").table == ((0, 1), (1, 0))


@pytest.mark.parametrize(
    "text, culprit, message",
    [
        ("elements: e a\ntable:\ne a\u2028a\na e\n", "e a\u2028a",
         "line 3: table row 0 has 3 entries, expected 2"),
        ("elements: e a\ntable:\ne a\na e\n\x0c\nzz\u2028yy\n", "zz",
         "line 6: unexpected content after table rows"),
        ("elements: e a\x85b\x85a\ntable:\n", "elements",
         "line 1, column 17: duplicate element name 'a'"),
        # only one leading byte-order mark is dropped; any other is part of its line
        ("elements: a\n\ufefftable:\na\n", "\ufefftable", "line 2, column 1: expected 'table:' line"),
        ("\ufeff\ufeffelements: a\ntable:\na\n", "elements",
         "line 1, column 1: expected 'elements:' line"),
    ],
)
def test_error_line_numbers_count_newlines(text, culprit, message):
    with pytest.raises(TableFormatError) as exc:
        parse_table(text)
    assert str(exc.value) == message
    # the line an editor, wc -l and grep -n give: one more than the newlines before it
    assert exc.value.line == text[: text.index(culprit)].count("\n") + 1


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_crlf_and_lone_cr_end_lines(end):
    good = end.join(["elements: a b", "table:", "a b", "b a", ""])
    assert parse_table(good).table == ((0, 1), (1, 0))
    bad = end.join(["# comment", "elements: a b", "table:", "", "a b", "b q", ""])
    with pytest.raises(TableFormatError) as exc:
        parse_table(bad)
    assert (exc.value.line, exc.value.column) == (6, 3)


def test_mixed_line_ends_each_end_one_line():
    with pytest.raises(TableFormatError) as exc:
        parse_table("elements: a b\r\ntable:\ra b\n\r\nb q\n")
    assert (exc.value.line, exc.value.column) == (5, 3)


@settings(max_examples=300)
@given(st.text(st.sampled_from("ab#:\t \x0b\x1c\x1f\x85\xa0\u2028\u3000\ufeff"), max_size=30))
def test_tokenize_columns_point_at_the_tokens_of_split(line):
    tokens = _tokenize(line)
    assert [tok for tok, _ in tokens] == line.split()
    columns = [col for _, col in tokens]
    assert columns == sorted(set(columns))
    for tok, col in tokens:
        assert line[col - 1 : col - 1 + len(tok)] == tok
        assert col == 1 or line[col - 2].isspace()


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
    # a leading byte-order mark, as some editors write, is not part of the first line
    assert parse_table("\ufeff" + text) == s


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
        Semigroup(["a", "b"], [[0, 1]])
    with pytest.raises(TableFormatError):
        Semigroup(["a", "b"], [[0, 2], [1, 0]])
    with pytest.raises(AssociativityError):
        Semigroup(["a", "b"], BROKEN_2X2)


def test_eval_word_z4(z4):
    assert eval_word(z4, (1, 1, 1)) == 3 == z4.table[1][2]
    with pytest.raises(ValueError):
        eval_word(z4, (9,))


def test_eval_word_letters_range_over_s1():
    # index s.order is the adjoined 1: the empty word's value and a legal letter
    s = make_family("leftzero:3")
    assert eval_word(s, ()) == 3
    assert eval_word(s, (3,)) == 3
    assert eval_word(s, (3, 2, 3, 0)) == 2
    for letter in (4, -1):
        with pytest.raises(ValueError, match=f"word entry {letter} out of range"):
            eval_word(s, (0, letter))


def test_pairs_are_the_same_class_pairs_ascending():
    for s in (*labelled_semigroups(1, 2, 3), *map(make_family, CATALOG_FAMILIES)):
        for c in (commutative_congruence(s), _abelian_keys(s)[1]):
            n, cls = s.order, c.class_of
            same = [(u, v) for u in range(n) for v in range(n) if cls[u] == cls[v]]
            assert list(c.pairs()) == same, s.table


def test_eval_word_s3_conjugation(s3):
    # s r s = r^2 for a transposition s and 3-cycle r, per the permutation oracle
    from oracles import compose

    r = s3.index_of("120")
    s = s3.index_of("102")
    got = eval_word(s3, (s, r, s))
    expected = compose(compose((1, 0, 2), (1, 2, 0)), (1, 0, 2))
    assert s3.names[got] == "".join(map(str, expected))
    assert got == s3.table[r][r]


@settings(max_examples=60)
@given(st.data())
def test_eval_word_is_concatenation_homomorphism(data):
    spec = data.draw(st.sampled_from(CATALOG_FAMILIES))
    s = make_family(spec)
    elems = st.integers(min_value=0, max_value=s.order)  # letters of S¹, the 1 among them
    w1 = tuple(data.draw(st.lists(elems, max_size=6)))
    w2 = tuple(data.draw(st.lists(elems, max_size=6)))
    assert eval_word(s, w1 + w2) == adjoin_identity(s)[eval_word(s, w1)][eval_word(s, w2)]


def test_adjoin_identity_preserves_base_products():
    lz = make_family("leftzero:2")
    rows = adjoin_identity(lz)
    assert len(rows) == 3
    for i in range(2):
        for j in range(2):
            assert rows[i][j] == lz.table[i][j]  # still xy = x
    assert all(rows[2][x] == x == rows[x][2] for x in range(3))


def test_adjoin_identity_even_if_identity_exists(z4):
    rows = adjoin_identity(z4)
    assert len(rows) == 5
    assert rows[4] == (0, 1, 2, 3, 4) and [row[4] for row in rows] == [0, 1, 2, 3, 4]


def test_adjoin_identity_null3():
    assert len(adjoin_identity(make_family("null:3"))) == 4


def test_adjoin_identity_is_the_oracles_s1():
    # S¹ built apart from the package, on every table the oracle comparisons share
    corpus = (
        *labelled_semigroups(1, 2, 3), *class_semigroups(4),
        *random_transformation_semigroups(60), *rees_tables(),
        *map(make_family, CATALOG_FAMILIES),
    )
    for s in corpus:
        assert adjoin_identity(s) == with_identity(s.table).table, s.table


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
    derived = commutator_subgroup(s)
    assert c.num_classes == s.order // len(derived)
    from semorient.groups import coset_congruence

    assert c == coset_congruence(s)


def test_commutative_congruence_is_the_least_one():
    # brute force over every partition: κ is a commutative congruence and refines all others
    specs = ("fulltransformation:2", "klein4", "dihedral:3")
    for s in (*labelled_semigroups(1, 2, 3), *map(make_family, specs)):
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
    c = Congruence((0, 1, 0, 1))
    q = quotient(z4, c)
    assert q.names == ("[0]", "[1]")
    assert q.table == ((0, 1), (1, 0))  # hand quotient: Z2


def test_quotient_by_identity_congruence(s3):
    c = Congruence(range(6))
    q = quotient(s3, c)
    assert q.table == s3.table
    assert q.names == tuple(f"[{n}]" for n in s3.names)


def test_quotient_s3_by_coset_congruence(s3):
    from semorient.groups import coset_congruence

    q = quotient(s3, coset_congruence(s3))
    assert q.order == 2
    assert q.table == ((0, 1), (1, 0))


def test_quotient_rejects_incompatible_partition(z4):
    bad = Congruence((0, 0, 1, 2))
    violation = compatibility_violation(z4, bad)
    assert violation is not None
    with pytest.raises(CompatibilityError) as exc:
        quotient(z4, bad)
    u, u2, v, v2 = exc.value.quadruple
    cls = bad.class_of
    assert cls[u] == cls[u2] and cls[v] == cls[v2]
    assert cls[z4.table[u][v]] != cls[z4.table[u2][v2]]


def test_congruence_numbers_its_labels_by_first_appearance():
    assert Congruence((0, 2, 1)).class_of == (0, 1, 2)
    assert Congruence("bab") == Congruence((0, 1, 0))
    assert Congruence(()).num_classes == 0


@settings(max_examples=200)
@given(
    st.one_of(
        st.lists(st.integers(-3, 5), max_size=12),
        st.lists(st.text("ab", max_size=2), max_size=12),
    ),
    st.randoms(use_true_random=False),
)
def test_congruence_is_the_partition_by_label(labels, rng):
    c = Congruence(labels)
    n = len(labels)
    assert len(c.class_of) == n
    for x in range(n):
        for y in range(n):
            assert (c.class_of[x] == c.class_of[y]) == (labels[x] == labels[y])
    assert c.num_classes == len(set(labels))
    assert set(c.class_of) == set(range(c.num_classes))
    # class k first appears after classes 0..k-1 have
    firsts = [c.class_of.index(k) for k in range(c.num_classes)]
    assert firsts == sorted(firsts)
    # relabel each class by a fresh label: the same partition
    fresh = dict(zip(dict.fromkeys(labels), rng.sample(range(100, 200), c.num_classes)))
    other = Congruence(fresh[label] for label in labels)
    assert other == c and hash(other) == hash(c)
    assert pickle.loads(pickle.dumps(c)) == c
    assert copy.copy(c) == c
    assert eval(repr(c), {"Congruence": Congruence}) == c


def test_congruence_from_a_list_is_an_immutable_value():
    class_of = [0, 1, 0]
    c = Congruence(class_of)
    assert c == Congruence((0, 1, 0))
    assert hash(c) == hash(Congruence((0, 1, 0)))
    class_of[1] = 0  # the labels were read from the list; a later change must not reach the value
    assert c.class_of == (0, 1, 0)
    with pytest.raises(TypeError):
        c.class_of[1] = 1


@pytest.mark.parametrize("build", [Semigroup])
def test_semigroup_from_lists_is_an_immutable_value(build):
    names, rows = ["a", "b"], [[0, 1], [1, 0]]
    s = build(names, rows)
    expected = Semigroup(("a", "b"), ((0, 1), (1, 0)))
    assert s == expected
    assert hash(s) == hash(expected)
    # the checks ran on the lists; a later change must not reach the value
    names[0] = "c"
    rows[0][0] = 1
    rows.append([0, 0])
    assert s.names == ("a", "b")
    assert s.table == ((0, 1), (1, 0))
    assert s == expected


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
            Semigroup(names, table)
            continue
        with pytest.raises(AssociativityError) as exc:
            Semigroup(names, table)
        i, j, k = expected
        assert str(exc.value) == (
            f"not associative at triple ({i}, {j}, {k}): (x{i} x{j}) x{k} != x{i} (x{j} x{k})"
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
        Semigroup([f"x{i}" for i in range(len(rows))], rows)
    assert str(exc.value) == message


# parse_table rejects these names first, so only a direct construction reaches them
@pytest.mark.parametrize(
    "names, message",
    [
        ((), "a semigroup needs at least one element"),
        (("",), "empty element name"),
        (("a b",), "element name 'a b' contains whitespace"),
        (("a\x85",), "element name 'a\\x85' contains whitespace"),
        (("x#",), "element name 'x#' contains reserved character '#'"),
        (("x,y",), "element name 'x,y' contains reserved character ','"),
        (("a:",), "element name 'a:' contains reserved character ':'"),
        (("a", "b", "a"), "duplicate element name 'a'"),
    ],
)
def test_constructor_validates_names(names, message):
    with pytest.raises(TableFormatError) as exc:
        Semigroup(names, [[0] * len(names)] * len(names))
    assert str(exc.value) == message


# the cases a split line can carry, never an empty name or one with whitespace; the last
# name is the offending one in each
@pytest.mark.parametrize("names", [("x#",), ("x,y",), ("a:",), ("a", "b", "a")])
def test_parse_and_constructor_share_one_name_rule(names):
    with pytest.raises(TableFormatError) as built:
        Semigroup(names, [[0] * len(names)] * len(names))
    line = "elements:  " + "\t".join(names)
    rows = [" ".join(names[:1] * len(names))] * len(names)
    with pytest.raises(TableFormatError) as parsed:
        parse_table("\n".join([line, "table:", *rows]))
    column = len(line) - len(names[-1]) + 1
    assert str(parsed.value) == f"line 1, column {column}: {built.value}"


def test_index_of_unknown_name(z4):
    assert z4.index_of("3") == 3
    with pytest.raises(KeyError) as exc:
        z4.index_of("4")
    assert exc.value.args == ("unknown element name '4'",)


def test_quotient_rejects_a_congruence_of_another_order(z4):
    with pytest.raises(ValueError) as exc:
        quotient(z4, Congruence((0, 1, 0)))
    assert str(exc.value) == "congruence does not match the semigroup's order"


@pytest.mark.parametrize("labels", [(0, 1, 0), (0, 1, 0, 1, 2, 3)])
def test_compatibility_violation_rejects_a_congruence_of_another_order(z4, labels):
    with pytest.raises(ValueError) as exc:
        compatibility_violation(z4, Congruence(labels))
    assert str(exc.value) == "congruence does not match the semigroup's order"


def test_commutative_and_cancellative_match_naive_loops():
    for s in labelled_semigroups(1, 2, 3):
        n, t = s.order, s.table
        assert is_commutative(s) == all(t[i][j] == t[j][i] for i in range(n) for j in range(n))
        rows_injective = all(len({t[i][j] for j in range(n)}) == n for i in range(n))
        columns_injective = all(len({t[i][j] for i in range(n)}) == n for j in range(n))
        assert is_cancellative(s) == (rows_injective and columns_injective)


_KAPPA_SPECS = CATALOG_FAMILIES + (
    "dihedral:6", "leftzero:7", "rightzero:5", "null:6", "directproduct:symmetric:3,cyclic:2",
    "directproduct:leftzero:2,cyclic:3",
)


@pytest.mark.parametrize("spec", _KAPPA_SPECS)
def test_kappa_from_generators_equals_all_pairs_kappa_on_the_catalog(spec):
    s = make_family(spec)
    assert commutative_congruence(s).class_of == all_pairs_kappa(s.table)


def test_kappa_from_generators_equals_all_pairs_kappa_on_small_and_random_tables():
    for s in (*labelled_semigroups(1, 2, 3), *random_transformation_semigroups(60)):
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
    c = Congruence(data.draw(st.lists(st.integers(0, 3), min_size=s.order, max_size=s.order)))
    assert compatibility_violation(s, c) == _first_incompatibility(s, c)


def _one_sided_cosets(s, subgroup, left):
    """The left cosets g*H (compatible with left translation only) or the right cosets H*g."""
    t = s.table
    h = [s.index_of(name) for name in subgroup]
    return Congruence(frozenset(t[g][x] if left else t[x][g] for x in h) for g in range(s.order))


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


def test_module_caches_stay_bounded():
    from semorient.core import _abelian_keys, _generators
    from semorient.groups import derived_subgroup_tree
    from semorient.theorems import _orientable_witnesses

    caches = (
        adjoin_identity, _generators, commutative_congruence, _abelian_keys,
        group_structure, derived_subgroup_tree, commutator_subgroup, coset_congruence,
        _orientable_witnesses, make_family,
    )
    for k in range(CACHE_SIZE + 5):
        # a new Z3 table each time: the same group under fresh names
        s = Semigroup([f"e{k}", f"a{k}", f"b{k}"], [[0, 1, 2], [1, 2, 0], [2, 0, 1]])
        adjoin_identity(s)
        _abelian_keys(s)  # and commutative_congruence, _generators
        coset_congruence(s)  # and commutator_subgroup, derived_subgroup_tree
        _orientable_witnesses(s)
        make_family(f"cyclic:{k + 1}")
        assert all(f.cache_info().currsize <= CACHE_SIZE for f in caches)
    assert all(f.cache_info().currsize == CACHE_SIZE for f in caches)
