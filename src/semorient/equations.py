"""Equation witnesses in one and two variables: validation and bounded exhaustive search.

A witness splits both sides of a candidate equation into factor words over
base elements. Validity needs the factor multisets of the two sides to agree
(the balance condition that lets factors be paired across the equals sign)
and the substituted products to be equal. Searches are exhaustive up to a
factor-count bound and return the canonical minimal witness: smallest factor
count first, then the lexicographically smallest word tuple (a, b, c[, d]).
The public entry points search only the elements and pairs that pass the
commutative-image test of ``core.commutative_congruence``; the others have no
witness at any bound and get None without a search.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import factorial
from typing import Iterator, NamedTuple, Optional, Sequence

from .core import (
    ONE_VAR_DEFAULT_BOUND,
    TWO_VAR_DEFAULT_BOUND,
    Congruence,
    Monoid1,
    Word,
    commutative_congruence,
    eval_word,
    generated_congruence,
)


class OneVarWitness(NamedTuple):
    """Factor words (a, b, c) certifying that an element g solves a = b*t*c."""

    a: Word
    b: Word
    c: Word

    @property
    def size(self) -> int:
        return len(self.a)


class TwoVarWitness(NamedTuple):
    """Factor words (a, b, c, d) certifying that a pair (u, v) solves a*t1*b = c*t2*d."""

    a: Word
    b: Word
    c: Word
    d: Word

    @property
    def size(self) -> int:
        return len(self.a) + len(self.b)


def _check_index(m: Monoid1, x: int) -> None:
    if not 0 <= x <= m.identity_index:
        raise ValueError(f"element {x} out of range")


def _factor_problem(m: Monoid1, *words: Word) -> Optional[str]:
    for w in words:
        for x in w:
            _check_index(m, x)
            if x == m.identity_index:
                return "the adjoined identity may not appear as a factor"
    return None


def validate_one_var(m: Monoid1, g: int, w: OneVarWitness) -> Optional[str]:
    """Return None if the witness is valid for g, else the first failed clause."""
    _check_index(m, g)
    if len(w.a) < 1:
        return "a_word must be non-empty"
    if len(w.b) + len(w.c) < 1:
        return "b_word and c_word may not both be empty"
    if len(w.a) != len(w.b) + len(w.c):
        return f"unbalanced lengths: |a| = {len(w.a)} but |b| + |c| = {len(w.b) + len(w.c)}"
    problem = _factor_problem(m, w.a, w.b, w.c)
    if problem:
        return problem
    if sorted(w.a) != sorted(w.b + w.c):
        return "factor multisets differ between the two sides"
    t = m.table
    left = eval_word(m, w.a)
    right = t[t[eval_word(m, w.b)][g]][eval_word(m, w.c)]
    if left != right:
        return (
            f"substitution fails: a evaluates to {m.names[left]} "
            f"but b*g*c evaluates to {m.names[right]}"
        )
    return None


def validate_two_var(m: Monoid1, u: int, v: int, w: TwoVarWitness) -> Optional[str]:
    """Return None if the witness is valid for the ordered pair (u, v), else a reason."""
    _check_index(m, u)
    _check_index(m, v)
    left_len = len(w.a) + len(w.b)
    right_len = len(w.c) + len(w.d)
    if left_len == 0 and right_len == 0:
        return "at least one factor is required"
    if left_len != right_len:
        return f"unbalanced lengths: |a| + |b| = {left_len} but |c| + |d| = {right_len}"
    problem = _factor_problem(m, w.a, w.b, w.c, w.d)
    if problem:
        return problem
    if sorted(w.a + w.b) != sorted(w.c + w.d):
        return "factor multisets differ between the two sides"
    t = m.table
    left = t[t[eval_word(m, w.a)][u]][eval_word(m, w.b)]
    right = t[t[eval_word(m, w.c)][v]][eval_word(m, w.d)]
    if left != right:
        return (
            f"substitution fails: a*u*b evaluates to {m.names[left]} "
            f"but c*v*d evaluates to {m.names[right]}"
        )
    return None


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


class SigmaReport(NamedTuple):
    """Result of relating element pairs through two-variable equations.

    exactness "exact-group" means the classes are complete (group path) and
    bound is None; "lower-bound" means only pairs with witnesses of size <=
    bound were related, so classes may merge further at larger bounds.
    """

    bound: Optional[int]
    pairs: dict[tuple[int, int], TwoVarWitness]
    congruence: Congruence
    exactness: str


def sigma_report(m: Monoid1, bound: int = TWO_VAR_DEFAULT_BOUND) -> SigmaReport:
    """Relate all ordered pairs that have a witness of size <= bound, by bounded search."""
    everything = [(u, v) for u in range(m.base.order) for v in range(m.base.order)]
    found = unfiltered_two_var_search(m, _two_var_candidates(m, everything), bound)
    # candidates keep their ascending (u, v) order
    pairs = {pair: w for pair, w in found.items() if w is not None}
    cong = generated_congruence(m.base, list(pairs))
    return SigmaReport(bound, pairs, cong, "lower-bound")


def word_to_text(names: Sequence[str], word: Word) -> str:
    return "[" + " ".join(names[x] for x in word) + "]"


def one_var_to_text(names: Sequence[str], w: OneVarWitness) -> str:
    return (
        f"{word_to_text(names, w.a)} = "
        f"{word_to_text(names, w.b)} * t * {word_to_text(names, w.c)}"
    )


def two_var_to_text(names: Sequence[str], w: TwoVarWitness) -> str:
    return (
        f"{word_to_text(names, w.a)} * t1 * {word_to_text(names, w.b)} = "
        f"{word_to_text(names, w.c)} * t2 * {word_to_text(names, w.d)}"
    )


def one_var_to_json(
    names: Sequence[str], w: OneVarWitness, element: int, valid: bool
) -> dict:
    return {
        "kind": "one-var",
        "a": [names[x] for x in w.a],
        "b": [names[x] for x in w.b],
        "c": [names[x] for x in w.c],
        "element": names[element],
        "valid": valid,
    }


def two_var_to_json(
    names: Sequence[str], w: TwoVarWitness, pair: tuple[int, int], valid: bool
) -> dict:
    return {
        "kind": "two-var",
        "a": [names[x] for x in w.a],
        "b": [names[x] for x in w.b],
        "c": [names[x] for x in w.c],
        "d": [names[x] for x in w.d],
        "pair": [names[pair[0]], names[pair[1]]],
        "valid": valid,
    }


def witness_from_json(names: Sequence[str], obj: dict):
    """Rebuild (element, OneVarWitness) or ((u, v), TwoVarWitness) from the JSON form."""
    lookup = {name: i for i, name in enumerate(names)}

    def word(key: str) -> Word:
        try:
            return tuple(lookup[x] for x in obj[key])
        except KeyError as exc:
            raise ValueError(f"unknown element name {exc.args[0]!r}") from None

    kind = obj.get("kind")
    if kind == "one-var":
        if obj["element"] not in lookup:
            raise ValueError(f"unknown element name {obj['element']!r}")
        return lookup[obj["element"]], OneVarWitness(word("a"), word("b"), word("c"))
    if kind == "two-var":
        u, v = obj["pair"]
        if u not in lookup or v not in lookup:
            raise ValueError(f"unknown element name in pair {obj['pair']!r}")
        return (lookup[u], lookup[v]), TwoVarWitness(
            word("a"), word("b"), word("c"), word("d")
        )
    raise ValueError(f"unknown witness kind {kind!r}")
