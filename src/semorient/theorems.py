"""Commutator decompositions and constructive equation witnesses on groups.

The two central facts of the exact path, on concrete group tables:

* the elements satisfying a balanced one-variable equation are precisely the
  commutator subgroup, and
* relating pairs by balanced two-variable equations partitions a group into
  exactly the commutator-subgroup cosets, so the quotient is the
  abelianization.

Which elements and pairs carry a witness is read off one partition, ker φ
(``core._abelian_keys``): an element of ε's class and a pair inside one
class. The witnesses are built constructively from commutator decompositions
in the derived-subgroup tree, and every one is re-checked by the independent
validators in ``equations``. The suites that test these facts against the
bounded search live in ``verify``.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import import_module
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

from . import _HOMES
from .core import (
    CACHE_SIZE,
    Monoid1,
    SemigroupError,
    _abelian_keys,
    _check_elements,
    adjoin_identity,
)
from .equations import (
    OneVarWitness,
    SigmaReport,
    TwoVarWitness,
    validate_one_var,
    validate_two_var,
)
from .groups import GroupStructure, commutator, derived_subgroup_tree


# the names of ``verify`` stay readable here (perfbench/tracer.py reads them), loaded on demand
def __getattr__(name: str):
    if name in _HOMES["verify"]:
        return getattr(import_module(".verify", __package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class NotInDerivedSubgroupError(SemigroupError):
    """The element is outside the commutator subgroup, so it has no decomposition."""


class InvalidDecompositionError(SemigroupError):
    """The decomposition's pairs do not multiply to its element."""


class NotRelatedError(SemigroupError):
    """The two elements lie in different commutator-subgroup cosets."""


class WitnessConstructionError(SemigroupError):
    """A constructed witness failed its independent validation."""


class CommutatorDecomposition(NamedTuple):
    """An element written as a left-to-right product of commutators x_i y_i x_i^-1 y_i^-1."""

    element: int
    pairs: tuple[tuple[int, int], ...]


def decomposition_product(group: GroupStructure, pairs) -> int:
    pairs = tuple(pairs)
    _check_elements(group.order, *(x for pair in pairs for x in pair))
    t = group.base.table
    acc = group.identity
    for x, y in pairs:
        acc = t[acc][commutator(group, x, y)]
    return acc


def commutator_decomposition(group: GroupStructure, g: int) -> CommutatorDecomposition:
    """Shortest commutator decomposition of g, read off the derived-subgroup tree.

    The path from the identity to g in ``derived_subgroup_tree`` is a
    breadth-first shortest path with reproducible edge choices; the identity
    gets the empty decomposition.
    """
    _check_elements(group.order, g)
    tree = derived_subgroup_tree(group)
    if g not in tree:
        raise NotInDerivedSubgroupError(
            f"element {group.base.names[g]!r} is not in the commutator subgroup"
        )
    pairs = []
    step = tree[g]
    while step is not None:
        back, pair = step
        pairs.append(pair)
        step = tree[back]
    pairs.reverse()
    return CommutatorDecomposition(g, tuple(pairs))


def build_orientable_witness(
    group: GroupStructure, d: CommutatorDecomposition
) -> OneVarWitness:
    """Realize a commutator decomposition as a validated one-variable witness.

    For a single commutator g = x y x^-1 y^-1 the equation x y = t y x works,
    since x y = g y x. Each further pair (x, y) appends the trivial product
    x x^-1 y y^-1 on the left and wraps the right side in y x y^-1 x^-1,
    which keeps the factor multisets balanced and the equality intact. The
    result has |a| = 2 + 4(k - 1) for k pairs; the identity (k = 0) gets the
    canonical witness x x^-1 = x * t * x^-1 over the smallest element.
    """
    if decomposition_product(group, d.pairs) != d.element:
        raise InvalidDecompositionError("pairs do not multiply to the element")
    inv = group.inverse
    if not d.pairs:  # an empty product is the identity, so d.element is too
        x = 0
        witness = OneVarWitness((x, inv[x]), (x,), (inv[x],))
    else:
        x, y = d.pairs[0]
        a: tuple[int, ...] = (x, y)
        b: tuple[int, ...] = ()
        c: tuple[int, ...] = (y, x)
        for x, y in d.pairs[1:]:
            a = a + (x, inv[x], y, inv[y])
            c = (y, x, inv[y], inv[x]) + c
        witness = OneVarWitness(a, b, c)
    problem = validate_one_var(adjoin_identity(group.base), d.element, witness)
    if problem is not None:
        raise WitnessConstructionError(f"constructed one-variable witness: {problem}")
    return witness


@lru_cache(maxsize=CACHE_SIZE)
def _orientable_witnesses(group: GroupStructure) -> Mapping[int, Optional[OneVarWitness]]:
    """Every element, ascending, mapped to its constructed witness, or None outside φ⁻¹(1).

    φ⁻¹(1) is ε's class of ker φ (``core._abelian_keys``), which on a group
    is [G, G]; each member's witness is built from its decomposition in the
    derived-subgroup tree, and a member the tree does not reach raises
    WitnessConstructionError. The only place a decomposition meets the
    builder: the exact verbs, the two-variable builders and the ``verify``
    suites index this map, so each witness is built and validated once per
    group. The cached mapping is shared by every caller, so it is read-only.
    """
    eps, kernel = _abelian_keys(group.base)
    witnesses: dict[int, Optional[OneVarWitness]] = dict.fromkeys(range(group.order))
    for g in kernel.classes()[kernel.class_of[eps]]:
        try:
            d = commutator_decomposition(group, g)
        except NotInDerivedSubgroupError as err:
            raise WitnessConstructionError(f"{err}, yet it lies in the class of ε") from None
        witnesses[g] = build_orientable_witness(group, d)
    return MappingProxyType(witnesses)


def build_two_var_witness(group: GroupStructure, g: int, h: int) -> TwoVarWitness:
    """Construct a witness for the ordered pair (h, g) from one for g * h^-1.

    If g * h^-1 has one-variable witness (a, b, c), then a * t1 * h^-1 and
    b * t2 * h^-1 c agree under t1 = h, t2 = g and stay balanced. Raises
    ValueError when g or h is not an element index, and NotRelatedError when
    the map of constructed witnesses holds None for g * h^-1.
    """
    _check_elements(group.order, g, h)
    inv = group.inverse
    one = _orientable_witnesses(group)[group.base.table[g][inv[h]]]
    if one is None:
        names = group.base.names
        raise NotRelatedError(f"{names[g]!r} and {names[h]!r} lie in different cosets")
    return _two_var_witness(adjoin_identity(group.base), inv, one, h, g)


def _two_var_witness(
    m: Monoid1, inv: tuple[int, ...], one: OneVarWitness, h: int, g: int
) -> TwoVarWitness:
    """The witness for (h, g) from ``one``, a witness for g * h^-1, validated on ``m``."""
    witness = TwoVarWitness(one.a, (inv[h],), one.b, (inv[h],) + one.c)
    problem = validate_two_var(m, h, g, witness)
    if problem is not None:
        raise WitnessConstructionError(f"constructed two-variable witness: {problem}")
    return witness


def exact_sigma_report(group: GroupStructure) -> SigmaReport:
    """Relate all ordered pairs exactly: the classes are the commutator-subgroup cosets.

    They are read as ker φ (``core._abelian_keys``) and walked by ``Congruence.pairs``.
    Each pair (u, v) carries the witness ``build_two_var_witness(group, v, u)``
    gives, from the one-variable witness of v * u^-1 in ``_orientable_witnesses``,
    and every one is validated. That map is keyed by the same ker φ, and u ~ v
    in a congruence puts v * u^-1 in ε's class, so every lookup finds a witness.
    The classes are complete rather than bounded, so the report's ``bound`` is None.
    """
    kernel = _abelian_keys(group.base)[1]
    ones = _orientable_witnesses(group)
    m = adjoin_identity(group.base)
    t, inv = group.base.table, group.inverse
    pairs = {
        (u, v): _two_var_witness(m, inv, ones[t[v][inv[u]]], u, v) for u, v in kernel.pairs()
    }
    return SigmaReport(None, pairs, kernel, "exact-group")
