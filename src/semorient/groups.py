"""Group structure on a Cayley table: identity, inverses, commutators, abelianization."""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

from .core import (
    Congruence,
    NotAGroupError,
    Semigroup,
    SemigroupError,
    is_cancellative,
    is_commutative,
    quotient,
)


class GroupStructure(NamedTuple):
    """Identity and inverse map over a semigroup whose table is a Latin square.

    Built only by ``group_structure``, which finds both.
    """

    base: Semigroup
    identity: int
    inverse: tuple[int, ...]

    @property
    def order(self) -> int:
        return self.base.order


def group_structure(s: Semigroup) -> GroupStructure:
    """Detect group structure, or raise NotAGroupError with the reason.

    A finite associative table is a group iff it has a two-sided identity and
    is a Latin square; inverses are then read off the identity's column.
    """
    n = s.order
    identity = None
    for e in range(n):
        if all(s.table[e][x] == x and s.table[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        raise NotAGroupError("no identity element")
    full = frozenset(range(n))
    for i in range(n):
        if frozenset(s.table[i]) != full or {s.table[j][i] for j in range(n)} != full:
            raise NotAGroupError(
                f"element {s.names[i]!r} has no inverse (table is not a Latin square)"
            )
    inverse = tuple(
        next(h for h in range(n) if s.table[g][h] == identity) for g in range(n)
    )
    return GroupStructure(s, identity, inverse)


def commutator(g: GroupStructure, x: int, y: int) -> int:
    """x * y * x^-1 * y^-1."""
    t = g.base.table
    return t[t[t[x][y]][g.inverse[x]]][g.inverse[y]]


@lru_cache(maxsize=None)
def derived_subgroup_tree(
    g: GroupStructure,
) -> Mapping[int, Optional[tuple[int, tuple[int, int]]]]:
    """Breadth-first tree of [G, G] from the identity; each node maps to its parent step.

    Edges multiply on the right by one commutator value, tried in ascending
    value order; each value is labelled with its first (x, y) preimage in
    lexicographic index order. A node maps to (parent, (x, y)) and the
    identity to None. The commutator set is closed under inversion, so the
    nodes reached are exactly the subgroup the commutators generate. The
    cached mapping is shared by every caller, so it is read-only.
    """
    n = g.order
    t = g.base.table
    preimage: dict[int, tuple[int, int]] = {}
    for x in range(n):
        for y in range(n):
            preimage.setdefault(commutator(g, x, y), (x, y))
    edges = sorted(preimage.items())
    parent: dict[int, Optional[tuple[int, tuple[int, int]]]] = {g.identity: None}
    queue = deque([g.identity])
    while queue:
        h = queue.popleft()
        for c, pair in edges:
            nxt = t[h][c]
            if nxt not in parent:
                parent[nxt] = (h, pair)
                queue.append(nxt)
    return MappingProxyType(parent)


@lru_cache(maxsize=None)
def commutator_subgroup(g: GroupStructure) -> tuple[int, ...]:
    """The nodes of the derived-subgroup tree, as an ascending index tuple.

    Inverse closure and normality are re-verified on the finished set.
    """
    members = derived_subgroup_tree(g)
    result = tuple(sorted(members))
    t = g.base.table
    if any(g.inverse[a] not in members for a in result):
        raise SemigroupError("commutator subgroup is not closed under inverses")
    if any(t[x][t[a][g.inverse[x]]] not in members for a in result for x in range(g.order)):
        raise SemigroupError("commutator subgroup is not normal")
    return result


@lru_cache(maxsize=None)
def coset_congruence(g: GroupStructure) -> Congruence:
    """Partition into cosets of the commutator subgroup: u ~ v iff u * v^-1 is in it."""
    n = g.order
    t = g.base.table
    derived = commutator_subgroup(g)
    class_of = [-1] * n
    next_id = 0
    for x in range(n):
        if class_of[x] != -1:
            continue
        for k in derived:
            class_of[t[k][x]] = next_id
        next_id += 1
    return Congruence(tuple(class_of), next_id)


def abelianization(g: GroupStructure) -> Semigroup:
    """The commutative quotient group by the coset congruence."""
    q = quotient(g.base, coset_congruence(g))
    if not (is_commutative(q) and is_cancellative(q)):
        raise SemigroupError("abelianization is not a commutative group")
    if q.order * len(commutator_subgroup(g)) != g.order:
        raise SemigroupError("abelianization order differs from the index of [G, G]")
    return q
