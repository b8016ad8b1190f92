"""Catalog of standard finite semigroups and groups with stable element naming."""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, permutations, product

from .core import CACHE_SIZE, MAX_ORDER, FamilyError, Semigroup


class _SpecSyntaxError(FamilyError):
    """A spec that does not parse, as opposed to one that parses but names no table.

    Only this kind sends ``_split_product_spec`` on to the next comma: a range
    or order-cap error comes from an operand that parsed, so it is final.
    """


# k products of operands of order >= 2 reach order 2**(k + 1), over MAX_ORDER past this k
MAX_PRODUCTS = MAX_ORDER.bit_length() - 2

# groups small enough for the exhaustive verification suites
GROUP_FAMILIES = tuple(f"cyclic:{n}" for n in range(1, 9)) + (
    "klein4",
    "symmetric:3",
    "dihedral:4",
    "quaternion8",
    "alternating:4",
)
NONGROUP_FAMILIES = ("leftzero:3", "rightzero:3", "null:3", "fulltransformation:2")
CATALOG_FAMILIES = GROUP_FAMILIES + NONGROUP_FAMILIES


def _table_from_op(elements, op, name_of) -> Semigroup:
    index = {e: i for i, e in enumerate(elements)}
    names = tuple(name_of(e) for e in elements)
    table = tuple(tuple(index[op(a, b)] for b in elements) for a in elements)
    return Semigroup(names, table)


def _compose(f, g):
    # (f*g)(x) = f(g(x))
    return tuple(f[g[x]] for x in range(len(f)))


def _parity(p) -> int:
    inversions = sum(
        1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j]
    )
    return inversions % 2


def _cyclic(n: int) -> Semigroup:
    if n < 1:
        raise FamilyError("cyclic:n requires n >= 1")
    line = tuple(range(n))
    # row i is (i + j) % n for every j: the line rotated by i
    return Semigroup(tuple(map(str, line)), tuple(line[i:] + line[:i] for i in range(n)))


def _klein4() -> Semigroup:
    elems = [(0, 0), (1, 0), (0, 1), (1, 1)]
    names = {(0, 0): "e", (1, 0): "a", (0, 1): "b", (1, 1): "ab"}
    return _table_from_op(
        elems, lambda x, y: (x[0] ^ y[0], x[1] ^ y[1]), names.__getitem__
    )


def _symmetric(n: int) -> Semigroup:
    if not 1 <= n <= 4:
        raise FamilyError("symmetric:n supports 1 <= n <= 4")
    elems = sorted(permutations(range(n)))
    return _table_from_op(elems, _compose, lambda p: "".join(map(str, p)))


def _alternating(n: int) -> Semigroup:
    if n != 4:
        raise FamilyError("alternating:n supports only n = 4")
    elems = [p for p in sorted(permutations(range(n))) if _parity(p) == 0]
    return _table_from_op(elems, _compose, lambda p: "".join(map(str, p)))


def _dihedral(n: int) -> Semigroup:
    """Rotations r^i then reflections r^i s, with s r = r^-1 s."""
    if n < 1:
        raise FamilyError("dihedral:n requires n >= 1")
    rotations = ("e", "r", *(f"r{i}" for i in range(2, n)))[:n]
    reflections = ("s", "rs", *(f"r{i}s" for i in range(2, n)))[:n]
    # r^i r^j = r^(i+j) and r^i (r^j s) = r^(i+j) s; reflection r^j s sits at n + j
    low, high = tuple(range(n)), tuple(range(n, 2 * n))
    table = [low[i:] + low[:i] + high[i:] + high[:i] for i in range(n)]
    # (r^i s) r^j = r^(i-j) s and (r^i s)(r^j s) = r^(i-j): i, i - 1, ... in both halves
    low, high = low[::-1], high[::-1]
    for i in range(n):
        cut = n - 1 - i  # low[cut] == i
        table.append(high[cut:] + high[:cut] + low[cut:] + low[:cut])
    return Semigroup(rotations + reflections, tuple(table))


# axis products for 1, i, j, k as (sign, axis)
_QMUL = (
    ((1, 0), (1, 1), (1, 2), (1, 3)),
    ((1, 1), (-1, 0), (1, 3), (-1, 2)),
    ((1, 2), (-1, 3), (-1, 0), (1, 1)),
    ((1, 3), (1, 2), (-1, 1), (-1, 0)),
)


def _quaternion8() -> Semigroup:
    elems = [(sign, axis) for axis in range(4) for sign in (1, -1)]

    def op(x, y):
        sm, am = _QMUL[x[1]][y[1]]
        return (x[0] * y[0] * sm, am)

    def name(x):
        base = "1ijk"[x[1]]
        return base if x[0] == 1 else "-" + base

    return _table_from_op(elems, op, name)


def _leftzero(n: int) -> Semigroup:
    if n < 1:
        raise FamilyError("leftzero:n requires n >= 1")
    names = tuple(f"x{i}" for i in range(n))
    return Semigroup(names, tuple((i,) * n for i in range(n)))


def _rightzero(n: int) -> Semigroup:
    if n < 1:
        raise FamilyError("rightzero:n requires n >= 1")
    names = tuple(f"x{i}" for i in range(n))
    return Semigroup(names, (tuple(range(n)),) * n)


def _null(n: int) -> Semigroup:
    """Every product is the zero, which sits at index 0."""
    if n < 1:
        raise FamilyError("null:n requires n >= 1")
    names = ("z",) + tuple(f"x{i}" for i in range(1, n))
    return Semigroup(names, ((0,) * n,) * n)


def _fulltransformation(n: int) -> Semigroup:
    if not 1 <= n <= 3:
        raise FamilyError("fulltransformation:n supports 1 <= n <= 3")
    elems = sorted(product(range(n), repeat=n))
    return _table_from_op(elems, _compose, lambda f: "".join(map(str, f)))


def _split_product_spec(spec: str) -> tuple[Semigroup, Semigroup]:
    # nested products contain commas themselves, so try each split point
    positions = [i for i, ch in enumerate(spec) if ch == ","]
    if not positions:
        raise _SpecSyntaxError("directproduct takes two comma-separated family specs")
    for pos in positions:
        left, right = spec[:pos], spec[pos + 1 :]
        if not left or not right:
            continue
        try:
            return make_family(left), make_family(right)
        except _SpecSyntaxError:
            continue
    raise _SpecSyntaxError(f"cannot parse directproduct operands {spec!r}")


def _directproduct(spec: str) -> Semigroup:
    a, b = _split_product_spec(spec)
    if a.order * b.order > MAX_ORDER:
        raise FamilyError(
            f"directproduct:{spec} has order {a.order * b.order}, above the maximum {MAX_ORDER}"
        )
    return _product(a, b)


def _product(a: Semigroup, b: Semigroup) -> Semigroup:
    """(i, j) at index i * |b| + j, with (i, j)(k, l) = (ik, jl)."""
    nb = b.order
    names = tuple(f"{x}|{y}" for x in a.names for y in b.names)
    # blocks[v][j] is row j of b shifted into the block of a-element v
    blocks = [[tuple(map((v * nb).__add__, row)) for row in b.table] for v in range(a.order)]
    table = tuple(
        tuple(chain.from_iterable(blocks[v][j] for v in row_a))
        for row_a in a.table
        for j in range(nb)
    )
    return Semigroup(names, table)


_NO_PARAM = {"klein4": _klein4, "quaternion8": _quaternion8}
_INT_PARAM = {
    "cyclic": _cyclic,
    "symmetric": _symmetric,
    "alternating": _alternating,
    "dihedral": _dihedral,
    "leftzero": _leftzero,
    "rightzero": _rightzero,
    "null": _null,
    "fulltransformation": _fulltransformation,
}


@lru_cache(maxsize=CACHE_SIZE)
def make_family(spec: str) -> Semigroup:
    """Build a catalog semigroup from a spec string.

    Examples: ``cyclic:6``, ``klein4``, ``symmetric:3``, ``dihedral:4``,
    ``quaternion8``, ``leftzero:3``, ``null:3``, ``fulltransformation:2``,
    ``directproduct:cyclic:2,cyclic:3``.
    """
    if (products := spec.count("directproduct:")) > MAX_PRODUCTS:  # refused before parsing
        raise FamilyError(f"{products} directproduct operations, above the maximum {MAX_PRODUCTS}")
    name, sep, rest = spec.partition(":")
    if name == "directproduct":
        if not sep:
            raise _SpecSyntaxError("directproduct needs two family specs")
        return _directproduct(rest)
    if name in _NO_PARAM:
        if sep:
            raise _SpecSyntaxError(f"{name} takes no parameter")
        return _NO_PARAM[name]()
    if name not in _INT_PARAM:
        raise _SpecSyntaxError(f"unknown family {name!r}")
    if not sep or not rest:
        raise _SpecSyntaxError(f"{name} needs an integer parameter, e.g. {name}:3")
    try:
        n = int(rest)
    except ValueError:
        raise _SpecSyntaxError(f"{name} parameter must be an integer, got {rest!r}") from None
    # every integer family has order at least n (dihedral: exactly 2n)
    if (2 * n if name == "dihedral" else n) > MAX_ORDER:
        raise FamilyError(f"{spec} has order above the maximum {MAX_ORDER}")
    return _INT_PARAM[name](n)
