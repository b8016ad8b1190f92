"""Group structure on a Cayley table: identity, inverses, commutators, abelianization."""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from operator import getitem, itemgetter
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .core import (
    CACHE_SIZE,
    Congruence,
    NotAGroupError,
    Semigroup,
    _abelian_keys,
    _check_elements,
    quotient,
)


class GroupStructure(NamedTuple):
    """Identity and inverse map of a table that is a group.

    Built only by ``group_structure``, which finds both, cached per table. The
    other functions here take the table and read it from there, so off a group
    each raises the NotAGroupError that ``group_structure`` raises.
    """

    identity: int
    inverse: tuple[int, ...]


@lru_cache(maxsize=CACHE_SIZE)
def group_structure(s: Semigroup) -> GroupStructure:
    """Detect group structure, or raise NotAGroupError with the reason.

    A finite associative table is a group iff it has a two-sided identity and
    is a Latin square; each element's inverse is where its row holds the
    identity. With an identity e the rows alone decide the Latin square:
    x*y = e gives y*x = e, because x*(y*x) = (x*y)*x = x*e and a bijective
    row cancels x; likewise y*x = e with a bijective column gives x*y = e.
    So row x is bijective iff x is a unit iff column x is. Cached per table.
    """
    n = s.order
    t = s.table
    everything = tuple(range(n))
    identity = next(
        (e for e in everything if t[e] == everything and tuple(map(itemgetter(e), t)) == everything),
        None,
    )
    if identity is None:
        raise NotAGroupError("no identity element")
    for i, row in enumerate(t):
        if len(set(row)) != n:
            raise NotAGroupError(
                f"element {s.names[i]!r} has no inverse (table is not a Latin square)"
            )
    inverse = tuple(row.index(identity) for row in t)
    return GroupStructure(identity, inverse)


def commutator(s: Semigroup, x: int, y: int) -> int:
    """x * y * x^-1 * y^-1."""
    _check_elements(s.order, x, y)
    t, inv = s.table, group_structure(s).inverse
    return t[t[t[x][y]][inv[x]]][inv[y]]


@lru_cache(maxsize=CACHE_SIZE)
def derived_subgroup_tree(s: Semigroup) -> Mapping[int, tuple[tuple[int, int], ...]]:
    """Breadth-first tree of [G, G] from the identity; each node maps to its path's labels.

    Edges multiply on the right by one commutator value, tried in ascending
    value order; each value is labelled with its first (x, y) preimage in
    lexicographic index order. A node maps to the (x, y) labels on its path,
    the identity to (). The commutator set is closed under inversion, so the
    nodes reached are exactly the subgroup the commutators generate. The
    cached mapping is shared by every caller, so it is read-only.
    """
    identity, inv = group_structure(s)
    n, t = s.order, s.table
    columns = tuple(zip(*t))
    backwards = range(n - 1, -1, -1)
    preimage: dict[int, tuple[int, int]] = {}
    for x in range(n):
        xyx = map(columns[inv[x]].__getitem__, t[x])  # (x*y*x^-1 for every y)
        row = map(getitem, map(t.__getitem__, xyx), inv)  # (x*y*x^-1*y^-1 for every y)
        first = dict(zip(reversed(tuple(row)), backwards))  # value -> its smallest y
        for c in first.keys() - preimage.keys():
            preimage[c] = (x, first[c])
    edges = sorted(preimage.items())
    path: dict[int, tuple[tuple[int, int], ...]] = {identity: ()}
    queue = deque([identity])
    while queue:
        h = queue.popleft()
        for c, pair in edges:
            nxt = t[h][c]
            if nxt not in path:
                path[nxt] = path[h] + (pair,)
                queue.append(nxt)
    return MappingProxyType(path)


@lru_cache(maxsize=CACHE_SIZE)
def commutator_subgroup(s: Semigroup) -> tuple[int, ...]:
    """The nodes of the derived-subgroup tree, as an ascending index tuple.

    The nodes are the closure of the commutator set under products, which in
    a finite group is a subgroup, and it is normal because a conjugate of a
    commutator is a commutator.
    """
    return tuple(sorted(derived_subgroup_tree(s)))


@lru_cache(maxsize=CACHE_SIZE)
def coset_congruence(s: Semigroup) -> Congruence:
    """Partition into cosets of the commutator subgroup: u ~ v iff u * v^-1 is in it.

    It equals ker φ of ``core._abelian_keys``, which the quotients and σ functions
    read. Its one reader is the ``verify`` σ suite: it compares this partition,
    built from [G, G], with ker φ and with κ, which are made without [G, G].
    """
    t = s.table
    derived = commutator_subgroup(s)
    first = [-1] * s.order  # the smallest member of each element's coset
    for x in range(s.order):
        if first[x] == -1:
            for k in derived:
                first[t[k][x]] = x
    return Congruence(first)


def abelianization(s: Semigroup) -> Semigroup:
    """G/[G, G]: the quotient by ker φ of ``core._abelian_keys``, the largest abelian image.

    On a group ε is the identity, so ker φ is κ, whose classes are the cosets
    of [G, G], and the quotient needs no derived-subgroup tree.
    """
    group_structure(s)  # raises NotAGroupError off a group
    return quotient(s, _abelian_keys(s)[1])
