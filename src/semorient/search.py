"""Bounded exhaustive search for one- and two-variable equation witnesses.

Searches are exhaustive up to a factor-count bound and return the canonical
minimal witness: smallest factor count first, then the lexicographically
smallest word tuple (a, b, c[, d]). The public entry points search only the
elements and pairs that pass the commutative-image test of
``core.commutative_congruence``; the others have no witness at any bound and
get None without a search. The exact group path never loads this module.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import factorial
from typing import Iterator, Optional, Sequence

from .core import (
    ONE_VAR_DEFAULT_BOUND,
    TWO_VAR_DEFAULT_BOUND,
    Monoid1,
    Word,
    commutative_congruence,
    generated_congruence,
)
from .equations import OneVarWitness, SigmaReport, TwoVarWitness, _check_index


def _check_bound(bound: int) -> None:
    if bound < 1:
        raise ValueError("bound must be >= 1")


def _orderings(multiset: Word) -> Iterator[tuple[list[int], int]]:
    """Distinct orderings of a multiset in ascending lexicographic order.

    Knuth's Algorithm L (TAOCP 7.2.1.2). Yields the working list, which the
    next step mutates, with the first position j changed since the previous
    ordering (0 for the first).
    """
    word = sorted(multiset)
    n = len(word)
    j = 0
    while True:
        yield word, j
        j = n - 2
        while j >= 0 and word[j] >= word[j + 1]:
            j -= 1
        if j < 0:
            return
        last = n - 1
        while word[j] >= word[last]:
            last -= 1
        word[j], word[last] = word[last], word[j]
        word[j + 1 :] = word[:j:-1]


class _Multiset:
    """Element-independent search data of one multiset of n base elements.

    ``words`` are its distinct orderings in ascending order; ``first`` maps each
    product value to the index of the first ordering with that value.
    ``splits`` lists each reachable (prefix product, suffix product) key once,
    sorted by the smallest split (b, c) = (word[:k], word[k:]) reaching it.

    Splits are ranked without slicing. Let f be the index of the first
    ordering that starts with word[:k]; orderings sharing a prefix are
    consecutive, so (f, k) orders the prefixes b (a proper prefix sorts
    first) and the ordering's index then orders c. The code
    (f * (n + 1) + k) * W + index, with W = n! above every index, compares as
    (b, c) does, and a key keeps its smallest code. That is the rule for a
    split (word2, k2) met after the held (word1, k1): with d the first
    position where the words differ (n if they are equal), the later split
    wins iff k2 < k1 and k2 <= d.

    * k2 <= d and k2 < k1: b2 = word1[:k2] is a proper prefix of b1, so b2 < b1.
    * d < k2 < k1: both b reach position d, where word1 is smaller, so b1 < b2.
    * k2 >= k1 and k1 <= d: b1 = word2[:k1] is a prefix of b2, a proper one
      unless k1 = k2, and then b1 = b2 and c1 < c2 since word1 < word2.
    * k2 >= k1 > d: both b reach position d, so b1 < b2.

    The empty prefix and the empty suffix are the only factors with product
    e, the adjoined identity, so the keys (e, v) and (v, e) come from
    ``first`` directly.
    """

    __slots__ = ("words", "first", "splits", "_codes", "_width")

    def __init__(self, t: Sequence[Sequence[int]], e: int, multiset: Word):
        n = len(multiset)
        width = factorial(n)
        pre = [e] * (n + 1)
        suf = [e] * (n + 1)
        # code[k] is the code of split k of the current ordering, less its index
        code = [k * width for k in range(n + 1)]
        inner = range(1, n)
        words: list[Word] = []
        first: dict[int, int] = {}
        held: dict[tuple[int, int], int] = {}
        for index, (word, j) in enumerate(_orderings(multiset)):
            p = pre[j]
            for i in range(j, n):
                p = t[p][word[i]]
                pre[i + 1] = p
                code[i + 1] = (index * (n + 1) + i + 1) * width
            s = e
            for i in range(n - 1, 0, -1):
                s = t[word[i]][s]
                suf[i] = s
            words.append(tuple(word))
            first.setdefault(p, index)
            for k in inner:
                key = (pre[k], suf[k])
                c = code[k] + index
                old = held.get(key)
                if old is None or c < old:
                    held[key] = c
        for value, index in first.items():
            held[(e, value)] = index
            held[(value, e)] = (index * (n + 1) + n) * width + index
        self.words = words
        self.first = first
        self.splits = sorted(held, key=held.__getitem__)
        self._codes = held
        self._width = width

    def split(self, pos: int) -> tuple[Word, Word]:
        """The smallest (b, c) reaching ``splits[pos]``."""
        fk, index = divmod(self._codes[self.splits[pos]], self._width)
        word = self.words[index]
        k = fk % (len(word) + 1)
        return word[:k], word[k:]


def _multisets(m: Monoid1, n: int) -> Iterator[_Multiset]:
    """The search data of every size-n multiset of base elements, in turn."""
    for multiset in combinations_with_replacement(range(m.base.order), n):
        yield _Multiset(m.table, m.identity_index, multiset)


def unfiltered_one_var_search(
    m: Monoid1, elements: Sequence[int], bound: int
) -> dict[int, Optional[OneVarWitness]]:
    """Canonical minimal witness (or None) for each element, sharing all per-multiset work.

    Every element given is searched, with no commutative-image filter, so a
    check that must not hold by construction can call it. Element g reads
    first[t[t[p][g]][s]] for each split key (p, s) in ascending (b, c) order;
    the smallest ordering index, at its first position, gives the multiset's
    smallest (a, b, c). The orderings of two different multisets never
    coincide, so across multisets a alone decides. Elements found at one size
    drop out before the next.
    """
    _check_bound(bound)
    for g in elements:
        _check_index(m, g)
    t = m.table
    found: dict[int, OneVarWitness] = {}
    todo = list(elements)
    for n in range(1, bound + 1):
        if not todo:
            break
        cols = [(g, [row[g] for row in t]) for g in todo]
        best: dict[int, tuple[Word, Word, Word]] = {}
        for data in _multisets(m, n):
            first = data.first
            missing = len(data.words)
            for g, col in cols:
                ranks = [first.get(t[col[p]][s], missing) for p, s in data.splits]
                r = min(ranks)
                if r == missing:
                    continue
                a = data.words[r]
                cur = best.get(g)
                if cur is None or a < cur[0]:
                    best[g] = (a, *data.split(ranks.index(r)))
        for g, abc in best.items():
            found[g] = OneVarWitness(*abc)
        todo = [g for g in todo if g not in best]
    return {g: found.get(g) for g in elements}


def unfiltered_two_var_search(
    m: Monoid1, pairs: Sequence[tuple[int, int]], bound: int
) -> dict[tuple[int, int], Optional[TwoVarWitness]]:
    """Canonical minimal witness (or None) for each ordered pair, sharing all per-multiset work.

    Every pair given is searched, with no commutative-image filter. For each
    multiset every element x gets one map: value of b*x*c -> position of the
    smallest split (b, c) with that value. Each split gives u one value, so
    the shared value of (u, v) whose left position is lowest carries the
    smallest (a, b), and the right map its smallest (c, d). Across multisets
    (a, b) alone decides, as in the one-variable case.
    """
    _check_bound(bound)
    for u, v in pairs:
        _check_index(m, u)
        _check_index(m, v)
    t = m.table
    found: dict[tuple[int, int], TwoVarWitness] = {}
    todo = list(pairs)
    for n in range(1, bound + 1):
        if not todo:
            break
        cols = [(x, [row[x] for row in t]) for x in {x for pair in todo for x in pair}]
        best: dict[tuple[int, int], tuple[tuple[Word, Word], tuple[Word, Word]]] = {}
        for data in _multisets(m, n):
            positions = {}
            for x, col in cols:
                values = [t[col[p]][s] for p, s in data.splits]
                # reversed, so that each value keeps its first position
                positions[x] = dict(zip(reversed(values), range(len(values) - 1, -1, -1)))
            for pair in todo:
                left = positions[pair[0]]
                right = positions[pair[1]]
                shared = left.keys() & right.keys()
                if not shared:
                    continue
                value = min(shared, key=left.__getitem__)
                ab = data.split(left[value])
                cur = best.get(pair)
                if cur is None or ab < cur[0]:
                    best[pair] = (ab, data.split(right[value]))
        for pair, (ab, cd) in best.items():
            found[pair] = TwoVarWitness(*ab, *cd)
        todo = [pair for pair in todo if pair not in best]
    return {pair: found.get(pair) for pair in pairs}


def _kappa(m: Monoid1) -> tuple[tuple[int, ...], list[int]]:
    """The κ-class of each base element and the smallest member of each class, by class id."""
    kappa = commutative_congruence(m.base)
    return kappa.class_of, [members[0] for members in kappa.classes()]


def _one_var_candidates(m: Monoid1, elements: Sequence[int]) -> list[int]:
    """The elements whose κ-class fixes some class, in input order; the rest have no witness.

    The adjoined identity is not in S/κ; it is always kept.
    """
    cls, reps = _kappa(m)
    t, e = m.table, m.identity_index
    keep = []
    for g in elements:
        _check_index(m, g)
        if g == e or any(cls[t[g][r]] == w for w, r in enumerate(reps)):
            keep.append(g)
    return keep


def _two_var_candidates(
    m: Monoid1, pairs: Sequence[tuple[int, int]]
) -> list[tuple[int, int]]:
    """The pairs (u, v) with [u]w = [v]w for some κ-class w, in input order.

    The rest have no witness. A pair holding the adjoined identity, which is
    not in S/κ, is always kept.
    """
    cls, reps = _kappa(m)
    t, e = m.table, m.identity_index
    keep = []
    for u, v in pairs:
        _check_index(m, u)
        _check_index(m, v)
        if e in (u, v) or any(cls[t[u][r]] == cls[t[v][r]] for r in reps):
            keep.append((u, v))
    return keep


def search_one_var(
    m: Monoid1, g: int, bound: int = ONE_VAR_DEFAULT_BOUND
) -> Optional[OneVarWitness]:
    """Exhaustive search for the canonical minimal witness with |a| <= bound.

    The balance condition forces both sides of a witness onto the same factor
    multiset, so for each multiset of size n we take any ordering as a and any
    ordering with a split point as (b, c); b and c are contiguous products, so
    this covers every factorization. An element that fails the
    commutative-image test gets None without a search. Otherwise None means
    no witness of that size exists, which is not a proof that g satisfies no
    equation at all.
    """
    return unfiltered_one_var_search(m, _one_var_candidates(m, [g]), bound).get(g)


def orientable_set(
    m: Monoid1, bound: int = ONE_VAR_DEFAULT_BOUND
) -> dict[int, Optional[OneVarWitness]]:
    """Canonical witness (or None) for every base element, in index order."""
    everything = range(m.base.order)
    found = unfiltered_one_var_search(m, _one_var_candidates(m, everything), bound)
    return {g: found.get(g) for g in everything}


def search_two_var(
    m: Monoid1, u: int, v: int, bound: int = TWO_VAR_DEFAULT_BOUND
) -> Optional[TwoVarWitness]:
    """Exhaustive search for the canonical minimal witness with |a| + |b| <= bound.

    Each side of a valid witness carries the same size-n factor multiset, so
    both sides range over orderings of one multiset with independent split
    points. A pair that fails the commutative-image test gets None without a
    search. Otherwise None means no witness that small, not unrelatedness.
    """
    return unfiltered_two_var_search(m, _two_var_candidates(m, [(u, v)]), bound).get((u, v))


def sigma_report(m: Monoid1, bound: int = TWO_VAR_DEFAULT_BOUND) -> SigmaReport:
    """Relate all ordered pairs that have a witness of size <= bound, by bounded search."""
    everything = [(u, v) for u in range(m.base.order) for v in range(m.base.order)]
    found = unfiltered_two_var_search(m, _two_var_candidates(m, everything), bound)
    # candidates keep their ascending (u, v) order
    pairs = {pair: w for pair, w in found.items() if w is not None}
    cong = generated_congruence(m.base, list(pairs))
    return SigmaReport(bound, pairs, cong, "lower-bound")


