"""Commutator decompositions and constructive equation witnesses on groups.

The two central facts of the exact path, on concrete group tables:

* the elements satisfying a balanced one-variable equation are precisely the
  commutator subgroup, and
* relating pairs by balanced two-variable equations partitions a group into
  exactly the commutator-subgroup cosets, so the quotient is the
  abelianization.

Witnesses are built constructively from commutator decompositions, and every
one is re-checked by the independent validators in ``equations``. The suites
that test these facts against the bounded search live in ``verify``.
"""

from __future__ import annotations

from importlib import import_module
from typing import NamedTuple

from . import _HOMES
from .core import Monoid1, SemigroupError, adjoin_identity
from .equations import (
    OneVarWitness,
    SigmaReport,
    TwoVarWitness,
    validate_one_var,
    validate_two_var,
)
from .groups import (
    GroupStructure,
    commutator,
    coset_congruence,
    derived_subgroup_tree,
)


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
    if not 0 <= g < group.order:
        raise ValueError(f"element {g} out of range")
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
    return _orientable_witness(group, adjoin_identity(group.base), d)


def _orientable_witness(
    group: GroupStructure, m: Monoid1, d: CommutatorDecomposition
) -> OneVarWitness:
    """``build_orientable_witness``, validated on ``m``, the group's ``adjoin_identity``."""
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
    problem = validate_one_var(m, d.element, witness)
    if problem is not None:
        raise WitnessConstructionError(f"constructed one-variable witness: {problem}")
    return witness


def build_two_var_witness(group: GroupStructure, g: int, h: int) -> TwoVarWitness:
    """Construct a witness for the ordered pair (h, g) from one for g * h^-1.

    If g * h^-1 has one-variable witness (a, b, c), then a * t1 * h^-1 and
    b * t2 * h^-1 c agree under t1 = h, t2 = g and stay balanced. Raises
    NotRelatedError when g * h^-1 is outside the commutator subgroup.
    """
    t = group.base.table
    inv = group.inverse
    gh = t[g][inv[h]]
    try:
        d = commutator_decomposition(group, gh)
    except NotInDerivedSubgroupError:
        names = group.base.names
        raise NotRelatedError(
            f"{names[g]!r} and {names[h]!r} lie in different cosets"
        ) from None
    m = adjoin_identity(group.base)
    return _two_var_witness(m, inv, _orientable_witness(group, m, d), h, g)


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

    Every related pair carries the witness ``build_two_var_witness(group, v, u)``
    gives. It depends on (u, v) only through v * u^-1 in [G, G], so each of
    those |[G, G]| one-variable witnesses is built and validated once; every
    two-variable witness is still validated. The classes are complete rather
    than bounded, so the report's ``bound`` is None.
    """
    cong = coset_congruence(group)
    m = adjoin_identity(group.base)
    t = group.base.table
    inv = group.inverse
    ones: dict[int, OneVarWitness] = {}  # v * u^-1 -> its one-variable witness
    pairs: dict[tuple[int, int], TwoVarWitness] = {}
    for u in range(group.order):
        for v in range(group.order):
            if cong.class_of[u] == cong.class_of[v]:
                gh = t[v][inv[u]]
                one = ones.get(gh)
                if one is None:
                    d = commutator_decomposition(group, gh)
                    one = ones[gh] = _orientable_witness(group, m, d)
                pairs[(u, v)] = _two_var_witness(m, inv, one, u, v)
    return SigmaReport(None, pairs, cong, "exact-group")
