"""Equation witnesses in one and two variables: types, validation and rendering.

A witness splits both sides of a candidate equation into factor words over
base elements. Validity needs the factor multisets of the two sides to agree
(the balance condition that lets factors be paired across the equals sign)
and the substituted products to be equal. The bounded search that finds
witnesses lives in ``search``; the exact group path builds them in
``theorems``. Both check them here.
"""

from __future__ import annotations

from importlib import import_module
from typing import NamedTuple, Optional, Sequence

from . import _HOMES
from .core import (  # the bounds stay importable from here, where they first lived
    ONE_VAR_DEFAULT_BOUND,
    TWO_VAR_DEFAULT_BOUND,
    Congruence,
    Monoid1,
    Word,
    eval_word,
)


# the names of ``search`` stay readable here (perfbench/tracer.py reads them), loaded on demand
def __getattr__(name: str):
    if name in _HOMES["search"]:
        return getattr(import_module(".search", __package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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

