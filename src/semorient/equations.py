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
from .core import Semigroup, Word, _check_elements, adjoin_identity, eval_word


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


def validate_one_var(s: Semigroup, g: int, w: OneVarWitness) -> Optional[str]:
    """Return None if the witness is valid for g, else the first failed clause.

    In S¹ the equation a = b*t*c is ()*t1*a = b*t2*c at (t1, t2) = (1, g):
    ()*1*a = a, and the two sides carry the factors of a and of b, c. So the
    pair check accepts exactly the witnesses with |a| = |b| + |c| >= 1, no
    adjoined identity among the factors, the same factor multiset on both
    sides, and a = b*g*c. "a non-empty" and "b, c not both empty" are cases
    of its balance clause.
    """
    return validate_two_var(s, s.order, g, TwoVarWitness((), w.a, w.b, w.c))


def validate_two_var(s: Semigroup, u: int, v: int, w: TwoVarWitness) -> Optional[str]:
    """Return None if the witness is valid for the ordered pair (u, v), else a reason.

    The words are read in the rows of the table's S¹ (``core.adjoin_identity``),
    whose adjoined 1 is index ``s.order``. Raises ValueError, before any
    reason, when u, v or a letter of the four words is outside S¹;
    ``eval_word`` is the one check of each letter.
    Past the balance clauses each side holds at least one base letter, and a
    base element times anything in S¹ is a base element, so both sides of a
    failed substitution are named from the base.
    """
    _check_elements(s.order + 1, u, v)
    a, b, c, d = (eval_word(s, word) for word in w)
    left, right = w.a + w.b, w.c + w.d
    if not left and not right:
        return "at least one factor is required"
    if len(left) != len(right):
        return (
            f"unbalanced lengths: the left side has {len(left)} factors "
            f"but the right side has {len(right)}"
        )
    if s.order in left + right:
        return "the adjoined identity may not appear as a factor"
    if sorted(left) != sorted(right):
        return "factor multisets differ between the two sides"
    t = adjoin_identity(s)
    lhs, rhs = t[t[a][u]][b], t[t[c][v]][d]
    if lhs != rhs:
        return (
            f"substitution fails: the left side evaluates to {s.names[lhs]} "
            f"but the right side evaluates to {s.names[rhs]}"
        )
    return None


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


# "valid" is always true: the search returns only witnesses whose products it
# compared, and the exact builders validate theirs and raise on a failure
def one_var_to_json(names: Sequence[str], w: OneVarWitness, element: int) -> dict:
    return {
        "kind": "one-var",
        "a": [names[x] for x in w.a],
        "b": [names[x] for x in w.b],
        "c": [names[x] for x in w.c],
        "element": names[element],
        "valid": True,
    }


def two_var_to_json(names: Sequence[str], w: TwoVarWitness, pair: tuple[int, int]) -> dict:
    return {
        "kind": "two-var",
        "a": [names[x] for x in w.a],
        "b": [names[x] for x in w.b],
        "c": [names[x] for x in w.c],
        "d": [names[x] for x in w.d],
        "pair": [names[pair[0]], names[pair[1]]],
        "valid": True,
    }

