"""Laws that carry ker φ and the canonical witness sizes from one table to another.

Every other corpus is read in the labelling it was built in, so a defect that
happens to be right on those labels passes it. A relabelling and the transposed
table give the same semigroup again, up to isomorphism and anti-isomorphism,
and ker φ (``core._abelian_keys``) and the least witness sizes must follow.
Sizes are compared at bound 2, on members of order at most ``SIZE_ORDER``.
The exact witnesses of a group follow both maps too. A direct product is a
new table whose ker φ is read off its factors'.
"""

import random

import pytest

from semorient import core
from semorient.catalog import CATALOG_FAMILIES, GROUP_FAMILIES, make_family
from semorient.core import Semigroup
from semorient.equations import OneVarWitness, TwoVarWitness, validate_one_var, validate_two_var
from semorient.search import orientable_set, sigma_report
from semorient.theorems import _orientable_witnesses  # private: the exact witness map
from semorient.theorems import exact_sigma_report

from oracles import (
    class_semigroups,
    labelled_semigroups,
    random_transformation_semigroups,
    rees_tables,
    width_two_group,
)

BOUND = 2
SIZE_ORDER = 24
PRODUCT_ORDER = 150

CORPORA = {
    "labelled": lambda: labelled_semigroups(1, 2, 3),
    "classes-4": lambda: class_semigroups(4),
    "rees": rees_tables,
    "catalog": lambda: tuple(make_family(spec) for spec in CATALOG_FAMILIES),
    "random": lambda: random_transformation_semigroups(30, seed=5),
}


def relabelled(s, p):
    """S with element x listed at p[x], name and all: T'[p(x)][p(y)] = p(T[x][y])."""
    inv = sorted(range(s.order), key=p.__getitem__)
    return Semigroup(
        [s.names[x] for x in inv], [[p[s.table[x][y]] for y in inv] for x in inv]
    )


def opposite(s):
    """S^op, the transposed table: x·y in S^op is y·x in S."""
    return Semigroup(s.names, zip(*s.table))


def product(s, t):
    """S × T, with (x, y) at x·|T| + y and (x, y)(u, v) = (xu, yv)."""
    n = t.order
    return Semigroup(
        [f"{a}|{b}" for a in s.names for b in t.names],
        [
            [s.table[x][u] * n + t.table[y][v] for u in range(s.order) for v in range(n)]
            for x in range(s.order)
            for y in range(n)
        ],
    )


def kernel_classes(s):
    return {frozenset(members) for members in core._abelian_keys(s)[1].classes()}


def witnesses(s):
    """The canonical witnesses at ``BOUND`` of each element and of each pair of ker φ."""
    return orientable_set(s, BOUND), sigma_report(s, BOUND)


def sizes(one, two):
    return {g: w and w.size for g, w in one.items()}, {p: w.size for p, w in two.items()}


def relabelling_holds(s, p):
    return kernel_classes(relabelled(s, p)) == {
        frozenset(p[x] for x in members) for members in kernel_classes(s)
    }


@pytest.mark.parametrize("corpus", CORPORA)
def test_a_relabelling_moves_the_kernel_and_the_sizes(corpus):
    """ker φ of the relabelled table is p(ker φ), and each least size moves with p.

    p is an isomorphism from S onto the relabelled S'. ker φ is the kernel of
    the largest abelian-group image of S, which names no label, so p carries
    it to that of S'. A witness (a, b, c) of g becomes (p(a), p(b), p(c)), one
    of p(g) of the same size, and p⁻¹ maps back; pairs likewise. So the least
    size at a bound moves with p. The words need not: the canonical order
    reads the labels.
    """
    rng = random.Random(corpus)
    for s in CORPORA[corpus]():
        p = rng.sample(range(s.order), s.order)
        assert relabelling_holds(s, p), (s.table, p)
        if s.order <= SIZE_ORDER:
            one, two = sizes(*witnesses(s))
            moved_one, moved_two = sizes(*witnesses(relabelled(s, p)))
            assert moved_one == {p[g]: k for g, k in one.items()}, (s.table, p)
            assert moved_two == {(p[u], p[v]): k for (u, v), k in two.items()}, (s.table, p)


@pytest.mark.parametrize("corpus", CORPORA)
def test_the_opposite_keeps_the_kernel_and_the_sizes(corpus):
    """S^op has the same ker φ, and each witness reversed is one of the same size.

    A map ψ into an abelian group is a homomorphism of S exactly when it is
    one of S^op, since ψ(x)ψ(y) = ψ(y)ψ(x); so the largest such image, and
    ker φ, are the same. The product of a word w in S^op is that of rev w in
    S. So if a = b·g·c in S, then rev a = (rev c)·g·(rev b) in S^op: (a, b, c)
    becomes (rev a, rev c, rev b). If a·u·b = c·v·d in S, then (rev b)·u·(rev a)
    = (rev d)·v·(rev c) in S^op: (a, b, c, d) becomes (rev b, rev a, rev d,
    rev c). Reversal keeps each side's letters and the size, and is its own
    inverse, so the least sizes are equal.
    """
    for s in CORPORA[corpus]():
        op = opposite(s)
        assert core._abelian_keys(op)[1] == core._abelian_keys(s)[1], s.table
        if s.order <= SIZE_ORDER:
            one, two = witnesses(s)
            assert sizes(*witnesses(op)) == sizes(one, two), s.table
            for g, w in one.items():
                if w is not None:
                    back = OneVarWitness(w.a[::-1], w.c[::-1], w.b[::-1])
                    assert validate_one_var(op, g, back) is None, (s.table, g, w)
            for (u, v), w in two.items():
                back = TwoVarWitness(w.b[::-1], w.a[::-1], w.d[::-1], w.c[::-1])
                assert validate_two_var(op, u, v, back) is None, (s.table, u, v, w)


def exact_witnesses(s):
    """The exact witness of each element and of each pair of ker φ of the group S."""
    return _orientable_witnesses(s), exact_sigma_report(s)


@pytest.mark.parametrize("spec", [*GROUP_FAMILIES, "dihedral:36", "width-two-96"])
def test_the_exact_witnesses_follow_a_relabelling_and_the_opposite(spec):
    """Each exact witness moved by p, or reversed in G^op, validates, and its size is kept.

    The size of g's exact witness is 2·max(cl(g), 1), where cl(g) is the least
    number of commutators whose product is g (``build_orientable_witness``), and
    a pair (u, v) reads that of v·u⁻¹. A relabelling p is an isomorphism onto
    G', so it carries commutators to commutators: cl(p(g)) = cl(g), and
    (p(a), p(b), p(c)) is a witness of p(g). In G^op, where x∘y = yx, the
    commutator [x, y] is y⁻¹x⁻¹yx = [y⁻¹, x⁻¹] of G, so both groups have the
    same commutators, and a product of k of them in G^op is their product in
    reverse order in G: cl(g) is the same in each. For a pair, v∘u⁻¹ = u⁻¹v is
    a conjugate of v·u⁻¹, which has the same cl. Reversal turns the witnesses
    of S into those of S^op, as in the opposite law above.
    """
    s = width_two_group() if spec == "width-two-96" else make_family(spec)
    one, two = exact_witnesses(s)
    p = random.Random(spec).sample(range(s.order), s.order)

    def moved(word):
        return tuple(p[x] for x in word)

    one_sizes, two_sizes = sizes(one, two)
    assert sizes(*exact_witnesses(relabelled(s, p))) == (
        {p[g]: k for g, k in one_sizes.items()},
        {(p[u], p[v]): k for (u, v), k in two_sizes.items()},
    ), spec
    t = relabelled(s, p)
    for g, w in one.items():
        if w is not None:
            assert validate_one_var(t, p[g], OneVarWitness(*map(moved, w))) is None, (spec, g)
    for (u, v), w in two.items():
        assert validate_two_var(t, p[u], p[v], TwoVarWitness(*map(moved, w))) is None, (spec, u, v)

    op = opposite(s)
    assert sizes(*exact_witnesses(op)) == (one_sizes, two_sizes), spec
    for g, w in one.items():
        if w is not None:
            back = OneVarWitness(w.a[::-1], w.c[::-1], w.b[::-1])
            assert validate_one_var(op, g, back) is None, (spec, g)
    for (u, v), w in two.items():
        back = TwoVarWitness(w.b[::-1], w.a[::-1], w.d[::-1], w.c[::-1])
        assert validate_two_var(op, u, v, back) is None, (spec, u, v)


def _first_idempotent_keys(s):
    # ε should be an idempotent of the minimal ideal; the first idempotent may lie above it
    t = s.table
    eps = next(x for x in range(s.order) if t[x][x] == x)
    cls = core.commutative_congruence(s).class_of
    return eps, core.Congruence(cls[row[eps]] for row in t)


def test_a_relabelling_exposes_epsilon_taken_as_the_first_idempotent(monkeypatch):
    # on the catalog labels the planted keys are right; 5 of these 20 relabellings expose them
    s = make_family("fulltransformation:2")
    rng = random.Random(1)
    perms = [rng.sample(range(s.order), s.order) for _ in range(20)]
    assert all(relabelling_holds(s, p) for p in perms)
    assert _first_idempotent_keys(s) == core._abelian_keys(s)
    monkeypatch.setattr(core, "_abelian_keys", _first_idempotent_keys)
    assert not all(relabelling_holds(s, p) for p in perms)


@pytest.mark.parametrize("corpus", CORPORA)
def test_the_kernel_of_a_product_is_the_product_of_the_kernels(corpus):
    """ker φ of S × T is ker φ_S × ker φ_T.

    ⊆: φ_S × φ_T maps S × T onto an abelian group, so it factors through φ,
    and a pair that φ joins has both coordinates joined. ⊇: let ψ be any
    homomorphism of S × T into an abelian group, and e = (ε_S, ε_T), an
    idempotent, so ψ(e) = 1. Then ψ_S(s) = ψ(s, ε_T) and ψ_T(t) = ψ(ε_S, t)
    are homomorphisms, and ψ(s, t) = ψ(e)ψ(s, t)ψ(e) = ψ(ε_S s ε_S, ε_T t ε_T)
    = ψ(e)ψ_S(s)ψ_T(t)ψ(e) = ψ_S(s)ψ_T(t). Each factor is constant on the
    classes of ker φ_S and ker φ_T, so ψ is constant on their product; take
    ψ = φ. Each member is paired with a seeded partner from every corpus, up
    to order ``PRODUCT_ORDER``.
    """
    rng = random.Random(corpus)
    pool = [t for make in CORPORA.values() for t in make()]
    for s in CORPORA[corpus]():
        t = rng.choice([t for t in pool if s.order * t.order <= PRODUCT_ORDER])
        n = t.order
        expected = {
            frozenset(x * n + y for x in left for y in right)
            for left in kernel_classes(s)
            for right in kernel_classes(t)
        }
        assert kernel_classes(product(s, t)) == expected, (s.table, t.table)
