"""Equation witnesses in one and two variables: validation and bounded exhaustive search.

A witness splits both sides of a candidate equation into factor words over
base elements. Validity needs the factor multisets of the two sides to agree
(the balance condition that lets factors be paired across the equals sign)
and the substituted products to be equal. Searches are exhaustive up to a
factor-count bound and return the canonical minimal witness: smallest factor
count first, then the lexicographically smallest word tuple (a, b, c[, d]).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations
from typing import Optional, Sequence

from .core import Congruence, Monoid1, Word, eval_word, generated_congruence

ONE_VAR_DEFAULT_BOUND = 4
TWO_VAR_DEFAULT_BOUND = 3


@dataclass(frozen=True)
class OneVarWitness:
    """Factor words (a, b, c) certifying that an element g solves a = b*t*c."""

    a: Word
    b: Word
    c: Word

    @property
    def size(self) -> int:
        return len(self.a)


@dataclass(frozen=True)
class TwoVarWitness:
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


def _orderings(multiset) -> list[Word]:
    """Distinct orderings of a multiset, lexicographically ascending."""
    return sorted(set(permutations(multiset)))


def _prefix_suffix(m: Monoid1, word: Word) -> tuple[list[int], list[int]]:
    """prefix[i] = product of word[:i], suffix[i] = product of word[i:]."""
    n = len(word)
    e = m.identity_index
    t = m.table
    pre = [e] * (n + 1)
    for i, x in enumerate(word):
        pre[i + 1] = t[pre[i]][x]
    suf = [e] * (n + 1)
    for i in range(n - 1, -1, -1):
        suf[i] = t[word[i]][suf[i + 1]]
    return pre, suf


def search_one_var(
    m: Monoid1, g: int, bound: int = ONE_VAR_DEFAULT_BOUND
) -> Optional[OneVarWitness]:
    """Exhaustive search for the canonical minimal witness with |a| <= bound.

    The balance condition forces both sides of a witness onto the same factor
    multiset, so for each multiset of size n we take any ordering as a and any
    ordering with a split point as (b, c); b and c are contiguous products, so
    this covers every factorization. None means no witness of that size
    exists, which is not a proof that g satisfies no equation at all.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    _check_index(m, g)
    t = m.table
    base = range(m.base.order)
    for n in range(1, bound + 1):
        best: Optional[tuple[Word, Word, Word]] = None
        for multiset in combinations_with_replacement(base, n):
            words = _orderings(multiset)
            value_to_word: dict[int, Word] = {}
            split_data = []
            for w in words:
                pre, suf = _prefix_suffix(m, w)
                if pre[n] not in value_to_word:
                    value_to_word[pre[n]] = w
                split_data.append((w, pre, suf))
            for w, pre, suf in split_data:
                for k in range(n + 1):
                    value = t[t[pre[k]][g]][suf[k]]
                    a = value_to_word.get(value)
                    if a is None:
                        continue
                    candidate = (a, w[:k], w[k:])
                    if best is None or candidate < best:
                        best = candidate
        if best is not None:
            return OneVarWitness(*best)
    return None


def orientable_set(
    m: Monoid1, bound: int = ONE_VAR_DEFAULT_BOUND
) -> dict[int, Optional[OneVarWitness]]:
    """Canonical witness (or None) for every base element, in index order."""
    return {g: search_one_var(m, g, bound) for g in range(m.base.order)}


def search_two_var(
    m: Monoid1, u: int, v: int, bound: int = TWO_VAR_DEFAULT_BOUND
) -> Optional[TwoVarWitness]:
    """Exhaustive search for the canonical minimal witness with |a| + |b| <= bound.

    Each side of a valid witness carries the same size-n factor multiset, so
    both sides range over orderings of one multiset with independent split
    points. None means no witness that small, not unrelatedness.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    _check_index(m, u)
    _check_index(m, v)
    t = m.table
    base = range(m.base.order)
    for n in range(1, bound + 1):
        best: Optional[tuple[Word, Word, Word, Word]] = None
        for multiset in combinations_with_replacement(base, n):
            split_data = [(w, *_prefix_suffix(m, w)) for w in _orderings(multiset)]
            left_best: dict[int, tuple[Word, Word]] = {}
            for w, pre, suf in split_data:
                for k in range(n + 1):
                    value = t[t[pre[k]][u]][suf[k]]
                    ab = (w[:k], w[k:])
                    cur = left_best.get(value)
                    if cur is None or ab < cur:
                        left_best[value] = ab
            for w, pre, suf in split_data:
                for k in range(n + 1):
                    value = t[t[pre[k]][v]][suf[k]]
                    ab = left_best.get(value)
                    if ab is None:
                        continue
                    candidate = (ab[0], ab[1], w[:k], w[k:])
                    if best is None or candidate < best:
                        best = candidate
        if best is not None:
            return TwoVarWitness(*best)
    return None


@dataclass
class SigmaReport:
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
    pairs = {}
    for u in range(m.base.order):
        for v in range(m.base.order):
            w = search_two_var(m, u, v, bound)
            if w is not None:
                pairs[(u, v)] = w
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
