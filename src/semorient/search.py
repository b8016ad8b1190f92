"""Bounded exhaustive search for one- and two-variable equation witnesses.

Searches are exhaustive up to a factor-count bound and return the canonical
minimal witness: smallest factor count first, then the lexicographically
smallest word tuple (a, b, c[, d]). Each function takes the table and reads
its S¹ rows (``core.adjoin_identity``), where index ``s.order`` is the
adjoined 1. One level search, ``_pair_search``, serves both kinds: an
element g is searched as the pair (1, g). Its helper ``_splits`` takes the
rows the loop holds: an ``adjoin_identity(s)`` read per multiset would be a
cache hit that perfbench's tracer counts as a call. The public entry points
test one key first, ker φ's class (``core._abelian_keys``, read by
``_keys``): they search an element only when it is keyed like 1 and a pair
only when both are keyed alike. The others have no witness at any bound and
get None without a search. The ``verify`` suites call the private searches
``_one_var_search`` and ``_pair_search`` unfiltered, so their checks can
fail. The exact group path never loads this module.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Iterable, Optional

from .core import (
    ONE_VAR_DEFAULT_BOUND,
    TWO_VAR_DEFAULT_BOUND,
    Semigroup,
    Word,
    _abelian_keys,
    _check_elements,
    adjoin_identity,
)
from .equations import OneVarWitness, TwoVarWitness


def _splits(t: tuple[tuple[int, ...], ...], multiset: Word, below: dict) -> dict:
    """The smallest split (b, c) of an ordering of the multiset M, per key.

    ``t`` is S¹'s rows, ``e = len(t) - 1`` its adjoined 1, and ``below`` maps
    each multiset one letter smaller to its own splits dict. The dict maps
    each (prefix product, suffix product) key to the smallest split (b, c) of
    an ordering of M reaching it, in ascending order of the words. A base
    element times anything is never the adjoined 1, so the keys (1, v) are
    exactly the splits ((), c): c is the smallest ordering of M with product
    v. They come first, so the orderings of M are a prefix of the dict.

    An ordering of M is a letter y of M followed by an ordering of M - y, and
    a split is ((), c) for an ordering c of M, or ((y,) + b, c) for a split
    (b, c) of M - y. Trying y in ascending order and reading each smaller dict
    in its own ascending order meets the candidates in ascending word order,
    so the first entry kept per key (``setdefault``) is the smallest, and dict
    order is ascending again. The orderings are built first, from the (1, v)
    prefix of each smaller dict, which ends at its first other key.
    """
    e = len(t) - 1
    parts = [
        (y, below[multiset[:i] + multiset[i + 1 :]])
        for i, y in enumerate(multiset)
        if not i or y != multiset[i - 1]
    ]
    splits: dict[tuple[int, int], tuple[Word, Word]] = {}
    for y, sub in parts:
        row = t[y]
        for (p, q), (_, c) in sub.items():
            if p != e:
                break
            splits.setdefault((e, row[q]), ((), (y, *c)))
    for y, sub in parts:
        row = t[y]
        for (p, q), (b, c) in sub.items():
            splits.setdefault((row[p], q), ((y, *b), c))
    return splits


def _pair_search(
    s: Semigroup, pairs: Iterable[tuple[int, int]], bound: int
) -> dict[tuple[int, int], Optional[TwoVarWitness]]:
    """Canonical minimal witness (or None) for each ordered pair, sharing all per-multiset work.

    No index is checked: the entry points check each index a caller passes
    once, and they and ``verify`` build the others in range. Each size n =
    1..bound walks its multisets in ``combinations_with_replacement`` order.
    For each multiset each element x gives each split (b, c) the value b*x*c.
    A left element u maps each value to the position of the smallest split
    reaching it; a right element v needs only the set of its values. The
    shared value of (u, v) whose left position is lowest carries the smallest
    (a, b), and the first split where v reaches it the smallest (c, d). The
    orderings of two different multisets never coincide, so across multisets
    (a, b) alone decides. Every split key of an ordering of M is at least
    ((), sorted(M)), and the multisets ascend, so a pair whose best is below
    that floor is settled. Pairs found at one size drop out before the next.

    Only the size the next one reads is kept, and the last is never stored:
    on k base elements size n - 1 holds C(n + k - 2, k - 1) multisets, each
    with at most (k + 1)**2 keys (17 550 multisets on ``symmetric:4`` at
    bound 5). A size is left early only when no pair is live: then every pair
    is settled and ``todo`` empties, so the partly kept size is never read.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    t, e = adjoin_identity(s), s.order
    todo = list(pairs)
    found: dict[tuple[int, int], Optional[TwoVarWitness]] = dict.fromkeys(todo)
    below: dict[Word, dict] = {(): {(e, e): ((), ())}}
    for n in range(1, bound + 1):
        if not todo:
            break
        lefts = {u for u, _ in todo}
        cols = [(x, x in lefts, [row[x] for row in t]) for x in {x for pair in todo for x in pair}]
        best: dict[tuple[int, int], tuple[tuple[Word, Word], tuple[Word, Word]]] = {}
        live, kept = todo, {}
        for multiset in combinations_with_replacement(range(e), n):
            floor = ((), multiset)
            live = [pair for pair in live if pair not in best or not best[pair][0] < floor]
            if not live:
                break
            splits = _splits(t, multiset, below)
            if n < bound:
                kept[multiset] = splits
            bcs = list(splits.values())
            down = range(len(bcs) - 1, -1, -1)
            values, seen = {}, {}
            for x, is_left, col in cols:
                vals = values[x] = [t[col[p]][q] for p, q in splits]
                # reversed, so that each value keeps its first position
                seen[x] = dict(zip(reversed(vals), down)) if is_left else set(vals)
            for pair in live:
                left = seen[pair[0]]
                shared = left.keys() & seen[pair[1]]
                if not shared:
                    continue
                value = min(shared, key=left.__getitem__)
                ab = bcs[left[value]]
                cur = best.get(pair)
                if cur is None or ab < cur[0]:
                    best[pair] = (ab, bcs[values[pair[1]].index(value)])
        for pair, (ab, cd) in best.items():
            found[pair] = TwoVarWitness(*ab, *cd)
        todo = [pair for pair in todo if pair not in best]
        below = kept
    return found


def _one_var_search(
    s: Semigroup, elements: Iterable[int], bound: int
) -> dict[int, Optional[OneVarWitness]]:
    """Canonical minimal witness (or None) for each element: the pair search on (1, g).

    In S¹, a = b*g*c is ()*1*a = b*g*c, so a witness (a, b, c) of g is the
    witness ((), a, b, c) of (1, g). A witness (a', b', c, d) of (1, g) gives
    the witness ((), a' + b', c, d) of the same size, no larger in word order
    since () comes first. So the canonical witness of (1, g) starts with (),
    and the rest is the canonical (a, b, c). The indices are not checked.
    """
    found = _pair_search(s, [(s.order, g) for g in elements], bound)
    return {g: None if w is None else OneVarWitness(*w[1:]) for (_, g), w in found.items()}


def _keys(s: Semigroup) -> tuple[int, ...]:
    """The class id in ker φ (``core._abelian_keys``) of each element of S¹, 1 keyed [ε].

    A pair (u, v) with key[u] != key[v], or an element g with key[g] !=
    key[1], has no witness at any bound. The indices are not checked.
    """
    eps, kernel = _abelian_keys(s)
    return kernel.class_of + (kernel.class_of[eps],)


def search_one_var(
    s: Semigroup, g: int, bound: int = ONE_VAR_DEFAULT_BOUND
) -> Optional[OneVarWitness]:
    """Canonical minimal witness with |a| <= bound: the level search on (1, g).

    An element keyed apart from 1 gets None without a search. Otherwise None
    means no witness of that size exists, which is not a proof that g
    satisfies no equation at all.
    """
    _check_elements(s.order + 1, g)
    key = _keys(s)
    return _one_var_search(s, [g] if key[g] == key[s.order] else [], bound).get(g)


def orientable_set(
    s: Semigroup, bound: int = ONE_VAR_DEFAULT_BOUND
) -> dict[int, Optional[OneVarWitness]]:
    """Canonical witness (or None) for every base element, searched on those keyed like 1."""
    key = _keys(s)
    elements = range(s.order)
    found = _one_var_search(s, [g for g in elements if key[g] == key[s.order]], bound)
    return {g: found.get(g) for g in elements}


def search_two_var(
    s: Semigroup, u: int, v: int, bound: int = TWO_VAR_DEFAULT_BOUND
) -> Optional[TwoVarWitness]:
    """Canonical minimal witness with |a| + |b| <= bound: the level search on (u, v).

    A pair with two keys gets None without a search. Otherwise None means no
    witness that small, not unrelatedness.
    """
    _check_elements(s.order + 1, u, v)
    key = _keys(s)
    return _pair_search(s, [(u, v)] if key[u] == key[v] else [], bound).get((u, v))


def sigma_report(
    s: Semigroup, bound: int = TWO_VAR_DEFAULT_BOUND
) -> dict[tuple[int, int], TwoVarWitness]:
    """Each pair inside ker φ's classes with a witness of size <= bound, mapped to that witness.

    The pairs come in ``Congruence.pairs`` order. More may have larger witnesses.
    """
    found = _pair_search(s, _abelian_keys(s)[1].pairs(), bound)
    return {pair: w for pair, w in found.items() if w is not None}


