"""Commutator decompositions and constructive equation witnesses on groups.

The two central facts of the exact path, on concrete group tables:

* the elements satisfying a balanced one-variable equation are precisely the
  commutator subgroup, and
* relating pairs by balanced two-variable equations partitions a group into
  exactly the commutator-subgroup cosets, so the quotient is the
  abelianization.

Each function takes the table and reads ``groups.group_structure``, cached
per table, so off a group it raises NotAGroupError. Which elements and pairs
carry a witness is read off ker φ (``core._abelian_keys``): an element of ε's
class and a pair inside one class. The witnesses are built from
decompositions in the derived-subgroup tree, and every one is re-checked on
the same table by the validators in ``equations``. The suites that test these
facts against the bounded search live in ``verify``.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import import_module
from types import MappingProxyType
from typing import Mapping, Optional

from . import _HOMES
from .core import (
    CACHE_SIZE,
    Semigroup,
    SemigroupError,
    _abelian_keys,
    _check_elements,
)
from .equations import OneVarWitness, TwoVarWitness, validate_one_var, validate_two_var
from .groups import derived_subgroup_tree, group_structure


# the names of ``verify`` stay readable here (perfbench/tracer.py reads them), loaded on demand
def __getattr__(name: str):
    if name in _HOMES["verify"]:
        return getattr(import_module(".verify", __package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class WitnessConstructionError(SemigroupError):
    """A constructed witness failed its independent validation."""


def commutator_decomposition(s: Semigroup, g: int) -> Optional[tuple[tuple[int, int], ...]]:
    """Shortest commutator decomposition of g, or None when g lies outside [G, G].

    The pairs (x_i, y_i) multiply left to right, as commutators
    x_i y_i x_i^-1 y_i^-1, to g. They label the path from the identity to g
    in ``derived_subgroup_tree``, a breadth-first shortest path with
    reproducible edge choices; the identity gets no pairs.
    """
    _check_elements(s.order, g)
    return derived_subgroup_tree(s).get(g)


def build_orientable_witness(s: Semigroup, g: int) -> Optional[OneVarWitness]:
    """g's validated least witness, or None when g lies outside φ⁻¹(1).

    φ⁻¹(1) is ε's class of ker φ (``core._abelian_keys``), which on a group
    is [G, G]. A member is built from its decomposition in the
    derived-subgroup tree; one the tree does not reach raises
    WitnessConstructionError. Raises ValueError when g is not an element
    index: the adjoined 1 of S¹ is not one here.

    Theorem: if g ≠ 1 lies in [G, G] and k = cl(g), the number of pairs in its
    decomposition (a BFS, so least), then the least witness of g has size 2k.
    ≥: name the n letters of b·c of a witness (a, b, c) z_1…z_n; a holds them
    in another order. Then g = W(z) for W = b⁻¹·a·c⁻¹, in which each z_i occurs
    once with each sign. Glued by W, a 2n-gon is an orientable surface with one
    face, n edges and V ≥ 1 vertices, so of genus (n + 1 − V)/2 ≤ n/2, and W is
    a product of that many commutators (Culler, Topology 20, 1981). So k ≤ n/2.
    ≤: one step per pair (u, v), with b empty. With A and C the values of a
    and c so far, A·C⁻¹ = h, the product of the earlier pairs. Append
    x = C⁻¹uC and y = C⁻¹vC as a += (x, y), c += (y, x); then A·xy·(C·yx)⁻¹
    = A·[x, y]·C⁻¹ = h·C[x, y]C⁻¹ = h·[u, v]. So |a| = 2k. The identity
    (k = 0) gets x x^-1 = x * t * x^-1 over element 0, of size 2. With b
    empty, the validation accepts the witness exactly when the pairs
    multiply to g.
    """
    _check_elements(s.order, g)
    group = group_structure(s)
    eps, kernel = _abelian_keys(s)
    if kernel.class_of[g] != kernel.class_of[eps]:
        return None
    pairs = commutator_decomposition(s, g)
    if pairs is None:
        raise WitnessConstructionError(
            f"element {s.names[g]!r} is not in the commutator subgroup,"
            " yet it lies in the class of ε"
        )
    t, inv = s.table, group.inverse
    a: tuple[int, ...] = ()
    c: tuple[int, ...] = ()
    value_c = group.identity
    for u, v in pairs:
        x, y = t[t[inv[value_c]][u]][value_c], t[t[inv[value_c]][v]][value_c]
        a, c, value_c = a + (x, y), c + (y, x), t[t[value_c][y]][x]
    witness = OneVarWitness(a, (), c) if pairs else OneVarWitness((0, inv[0]), (0,), (inv[0],))
    problem = validate_one_var(s, g, witness)
    if problem is not None:
        raise WitnessConstructionError(f"constructed one-variable witness: {problem}")
    return witness


@lru_cache(maxsize=CACHE_SIZE)
def _orientable_witnesses(s: Semigroup) -> Mapping[int, Optional[OneVarWitness]]:
    """Every element, ascending, mapped to ``build_orientable_witness`` of it.

    The exact verbs that answer for every element or pair, and the ``verify``
    suites, index this map, so each witness is built and validated once per
    table. The cached mapping is shared by every caller, so it is read-only.
    """
    return MappingProxyType({g: build_orientable_witness(s, g) for g in range(s.order)})


def build_two_var_witness(s: Semigroup, u: int, v: int) -> Optional[TwoVarWitness]:
    """A validated witness for the ordered pair (u, v), or None in different cosets.

    If v * u^-1 has one-variable witness (a, b, c), then a * t1 * u^-1 and
    b * t2 * u^-1 c agree under t1 = u, t2 = v and stay balanced. Raises
    ValueError when u or v is not an element index; only the witness of
    v * u^-1 is built, and it is None exactly when u and v lie in different cosets.
    """
    _check_elements(s.order, u, v)
    inv = group_structure(s).inverse
    return _two_var_witness(s, build_orientable_witness(s, s.table[v][inv[u]]), u, v)


def _two_var_witness(
    s: Semigroup, one: Optional[OneVarWitness], u: int, v: int
) -> Optional[TwoVarWitness]:
    """The witness for (u, v) from ``one``, a witness for v * u^-1 or None, validated on S¹."""
    if one is None:
        return None
    inv_u = group_structure(s).inverse[u]
    witness = TwoVarWitness(one.a, (inv_u,), one.b, (inv_u,) + one.c)
    problem = validate_two_var(s, u, v, witness)
    if problem is not None:
        raise WitnessConstructionError(f"constructed two-variable witness: {problem}")
    return witness


def exact_sigma_report(s: Semigroup) -> dict[tuple[int, int], TwoVarWitness]:
    """Every ordered pair inside one coset of [G, G], mapped to its validated witness.

    The cosets are read as ker φ (``core._abelian_keys``) and walked by
    ``Congruence.pairs``. Each pair (u, v) carries the witness
    ``build_two_var_witness(s, u, v)`` gives, from the one-variable witness
    of v * u^-1 in ``_orientable_witnesses``. That map is keyed by the same
    ker φ, and u ~ v in a congruence puts v * u^-1 in ε's class, so every
    lookup finds a witness.
    """
    inv = group_structure(s).inverse
    ones, t = _orientable_witnesses(s), s.table
    return {
        (u, v): _two_var_witness(s, ones[t[v][inv[u]]], u, v)
        for u, v in _abelian_keys(s)[1].pairs()
    }
