from itertools import permutations, product

import pytest

from semorient import catalog
from semorient.catalog import CATALOG_FAMILIES, FamilyError, make_family
from semorient.core import check_associativity, is_commutative

from oracles import perm_name, transformation_table


@pytest.mark.parametrize("spec", CATALOG_FAMILIES)
def test_catalog_tables_are_associative(spec):
    s = make_family(spec)
    assert check_associativity(s.table) is None


@pytest.mark.parametrize(
    "spec, order",
    [
        ("cyclic:1", 1),
        ("cyclic:8", 8),
        ("klein4", 4),
        ("symmetric:3", 6),
        ("symmetric:4", 24),
        ("alternating:4", 12),
        ("dihedral:4", 8),
        ("quaternion8", 8),
        ("leftzero:3", 3),
        ("rightzero:3", 3),
        ("null:3", 3),
        ("fulltransformation:2", 4),
        ("fulltransformation:3", 27),
        ("directproduct:cyclic:2,cyclic:3", 6),
    ],
)
def test_catalog_orders(spec, order):
    assert make_family(spec).order == order


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_symmetric_matches_permutation_oracle(n):
    s = make_family(f"symmetric:{n}")
    perms = sorted(permutations(range(n)))
    assert s.names == tuple(perm_name(p) for p in perms)
    assert [list(row) for row in s.table] == transformation_table(perms)


def test_alternating4_matches_oracle():
    s = make_family("alternating:4")

    def parity(p):
        return sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2

    evens = [p for p in sorted(permutations(range(4))) if parity(p) == 0]
    assert s.names == tuple(perm_name(p) for p in evens)
    assert [list(row) for row in s.table] == transformation_table(evens)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fulltransformation_matches_composition_oracle(n):
    s = make_family(f"fulltransformation:{n}")
    maps = sorted(product(range(n), repeat=n))
    assert s.names == tuple(perm_name(f) for f in maps)
    assert [list(row) for row in s.table] == transformation_table(maps)


def test_cyclic_is_addition_mod_n():
    s = make_family("cyclic:5")
    for i in range(5):
        for j in range(5):
            assert s.table[i][j] == (i + j) % 5


def test_klein4_laws():
    s = make_family("klein4")
    assert s.names == ("e", "a", "b", "ab")
    assert is_commutative(s)
    for x in range(4):
        assert s.table[x][x] == 0  # every element self-inverse
    a, b, ab = s.index_of("a"), s.index_of("b"), s.index_of("ab")
    assert s.table[a][b] == ab


def test_dihedral4_relations():
    s = make_family("dihedral:4")
    e, r, s_, rs = (s.index_of(n) for n in ("e", "r", "s", "rs"))
    r2 = s.table[r][r]
    assert s.names[r2] == "r2"
    assert s.table[r2][r2] == e  # r^4 = e
    assert s.table[s_][s_] == e
    assert s.table[r][s_] == rs
    # s r s = r^-1
    assert s.table[s.table[s_][r]][s_] == s.index_of("r3")
    assert not is_commutative(s)


def test_dihedral_small_cases():
    assert make_family("dihedral:1").order == 2
    d2 = make_family("dihedral:2")
    assert d2.order == 4 and is_commutative(d2)


def test_quaternion8_laws():
    s = make_family("quaternion8")
    one, minus, i, j, k = (s.index_of(n) for n in ("1", "-1", "i", "j", "k"))
    assert s.table[i][i] == minus
    assert s.table[j][j] == minus
    assert s.table[k][k] == minus
    assert s.table[i][j] == k
    assert s.table[j][i] == s.index_of("-k")
    assert s.table[minus][minus] == one
    assert all(s.table[one][x] == x for x in range(8))


def test_leftzero_rightzero_null_laws():
    lz = make_family("leftzero:3")
    rz = make_family("rightzero:3")
    nz = make_family("null:3")
    for i in range(3):
        for j in range(3):
            assert lz.table[i][j] == i
            assert rz.table[i][j] == j
            assert nz.table[i][j] == 0
    assert nz.names[0] == "z"


def test_directproduct_componentwise():
    s = make_family("directproduct:cyclic:2,cyclic:3")
    assert s.names[0] == "0|0"
    a = make_family("cyclic:2")
    b = make_family("cyclic:3")
    for i1 in range(2):
        for j1 in range(3):
            for i2 in range(2):
                for j2 in range(3):
                    x = s.index_of(f"{i1}|{j1}")
                    y = s.index_of(f"{i2}|{j2}")
                    expected = f"{a.table[i1][i2]}|{b.table[j1][j2]}"
                    assert s.names[s.table[x][y]] == expected


def test_directproduct_nests():
    s = make_family("directproduct:directproduct:cyclic:2,cyclic:2,cyclic:2")
    assert s.order == 8


@pytest.mark.parametrize(
    "spec",
    [
        "nosuch:3",
        "cyclic",
        "cyclic:",
        "cyclic:0",
        "cyclic:x",
        "symmetric:5",
        "alternating:5",
        "dihedral:0",
        "fulltransformation:4",
        "klein4:2",
        "quaternion8:1",
        "directproduct",
        "directproduct:cyclic:2",
        "leftzero:0",
        "rightzero:0",
        "null:0",
    ],
)
def test_family_errors(spec):
    with pytest.raises(FamilyError):
        make_family(spec)


@pytest.mark.parametrize(
    "spec, message",
    [
        # an operand that parses but names no table ends the search for a split
        ("directproduct:directproduct:cyclic:40,cyclic:40,cyclic:2",
         "directproduct:cyclic:40,cyclic:40 has order 1600, above the maximum 1000"),
        ("directproduct:cyclic:2,directproduct:cyclic:3,cyclic:1001",
         "cyclic:1001 has order above the maximum 1000"),
        ("directproduct:symmetric:5,cyclic:2", "symmetric:n supports 1 <= n <= 4"),
        # an operand that does not parse sends it on to the next comma, and past the last
        ("directproduct:nosuch:3,cyclic:2",
         "cannot parse directproduct operands 'nosuch:3,cyclic:2'"),
        # a comma with an empty side is no split point
        ("directproduct:,cyclic:2", "cannot parse directproduct operands ',cyclic:2'"),
    ],
)
def test_directproduct_operand_errors(spec, message):
    with pytest.raises(FamilyError) as exc:
        make_family(spec)
    assert str(exc.value) == message


def test_make_family_is_deterministic():
    assert make_family("dihedral:4") == make_family("dihedral:4")
    assert make_family("symmetric:3") is make_family("symmetric:3")  # cached


# Reference tables made one cell at a time, as the catalog made them before it
# built rows by rotation, repetition and slicing: one op call and one dict lookup per cell.
def _per_cell(elements, op, name_of):
    index = {e: i for i, e in enumerate(elements)}
    names = tuple(name_of(e) for e in elements)
    return names, tuple(tuple(index[op(a, b)] for b in elements) for a in elements)


def _cyclic_per_cell(n):
    return _per_cell(range(n), lambda i, j: (i + j) % n, str)


def _dihedral_per_cell(n):
    def op(x, y):
        (i, e), (j, f) = x, y
        return ((i + j) % n, f) if e == 0 else ((i - j) % n, 1 - f)

    def name(x):
        i, e = x
        rot = "e" if i == 0 else ("r" if i == 1 else f"r{i}")
        if e == 0:
            return rot
        return "s" if i == 0 else ("rs" if i == 1 else f"r{i}s")

    return _per_cell([(i, 0) for i in range(n)] + [(i, 1) for i in range(n)], op, name)


def _band_per_cell(n, op, names):
    return names, tuple(tuple(op(i, j) for j in range(n)) for i in range(n))


def _product_per_cell(left, right):
    a, b = make_family(left), make_family(right)
    elements = [(i, j) for i in range(a.order) for j in range(b.order)]
    return _per_cell(
        elements,
        lambda x, y: (a.table[x[0]][y[0]], b.table[x[1]][y[1]]),
        lambda x: f"{a.names[x[0]]}|{b.names[x[1]]}",
    )


_X = [f"x{i}" for i in range(40)]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 40])
def test_family_rows_match_the_per_cell_tables(n):
    expected = {
        f"cyclic:{n}": _cyclic_per_cell(n),
        f"dihedral:{n}": _dihedral_per_cell(n),
        f"leftzero:{n}": _band_per_cell(n, lambda i, j: i, tuple(_X[:n])),
        f"rightzero:{n}": _band_per_cell(n, lambda i, j: j, tuple(_X[:n])),
        f"null:{n}": _band_per_cell(n, lambda i, j: 0, ("z",) + tuple(_X[1:n])),
    }
    for spec, (names, table) in expected.items():
        s = make_family(spec)
        assert (s.names, s.table) == (names, table), spec


@pytest.mark.parametrize(
    "left, right",
    [
        ("cyclic:1", "cyclic:1"),
        ("cyclic:2", "cyclic:3"),
        ("symmetric:3", "dihedral:4"),
        ("leftzero:3", "null:2"),
        ("quaternion8", "rightzero:2"),
        ("directproduct:cyclic:2,cyclic:2", "fulltransformation:2"),
    ],
)
def test_product_rows_match_the_per_cell_table(left, right):
    s = make_family(f"directproduct:{left},{right}")
    assert (s.names, s.table) == _product_per_cell(left, right)


def test_product_limit_follows_the_order_cap():
    # nine operands of order 2 fit under the cap, ten do not
    k = catalog.MAX_PRODUCTS
    assert (k, 2 ** (k + 1) <= catalog.MAX_ORDER < 2 ** (k + 2)) == (8, True)
    assert make_family("directproduct:" * k + "cyclic:2" + ",cyclic:2" * k).order == 2 ** (k + 1)


def test_too_many_products_rejected_before_any_builder_runs(monkeypatch):
    def refuse(*args):
        raise AssertionError("parsed or built an operand of a spec over the product limit")

    for builders in (catalog._INT_PARAM, catalog._NO_PARAM):
        for name in builders:
            monkeypatch.setitem(builders, name, refuse)
    monkeypatch.setattr(catalog, "_split_product_spec", refuse)
    monkeypatch.setattr(catalog, "_product", refuse)
    products = catalog.MAX_PRODUCTS + 1
    spec = "directproduct:" * products + "cyclic:1" + ",cyclic:1" * products
    with pytest.raises(FamilyError) as exc:
        make_family(spec)
    assert str(exc.value) == "9 directproduct operations, above the maximum 8"


def test_product_order_cap_rejects_before_building(monkeypatch):
    def refuse(*args):
        raise AssertionError("built a product above the order cap")

    monkeypatch.setattr(catalog, "_product", refuse)
    with pytest.raises(FamilyError, match="has order 1600, above the maximum 1000"):
        make_family("directproduct:cyclic:40,cyclic:40")
