"""Equation witnesses in one and two variables: types, validation and rendering.

A witness splits both sides of a candidate equation into factor words over
base elements. Validity needs the factor multisets of the two sides to agree
(the balance condition that lets factors be paired across the equals sign)
and the substituted products to be equal. The bounded search that finds
witnesses lives in ``search``; the exact group path builds them in
``theorems``. Both check them here. Each witness renders itself by the
table's names: ``w.to_text(names)`` and ``w.to_json(names, g)`` or
``w.to_json(names, u, v)``.
"""

from __future__ import annotations

from importlib import import_module
from typing import NamedTuple, Optional, Sequence

from . import _HOMES
from .core import Semigroup, Word, _check_elements, eval_word


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

    def to_text(self, names: Sequence[str]) -> str:
        a, b, c = (" ".join(names[x] for x in word) for word in self)
        return f"[{a}] = [{b}] * t * [{c}]"

    def to_json(self, names: Sequence[str], g: int) -> dict:
        return _to_json(self, names, "one-var", element=names[g])


class TwoVarWitness(NamedTuple):
    """Factor words (a, b, c, d) certifying that a pair (u, v) solves a*t1*b = c*t2*d."""

    a: Word
    b: Word
    c: Word
    d: Word

    @property
    def size(self) -> int:
        return len(self.a) + len(self.b)

    def to_text(self, names: Sequence[str]) -> str:
        a, b, c, d = (" ".join(names[x] for x in word) for word in self)
        return f"[{a}] * t1 * [{b}] = [{c}] * t2 * [{d}]"

    def to_json(self, names: Sequence[str], u: int, v: int) -> dict:
        return _to_json(self, names, "two-var", pair=[names[u], names[v]])


# "valid" is always true: the search returns only witnesses whose products it
# compared, and the exact builders validate theirs and raise on a failure
def _to_json(w: OneVarWitness | TwoVarWitness, names: Sequence[str], kind: str, **target) -> dict:
    words = {field: [names[x] for x in word] for field, word in zip(w._fields, w)}
    return {"kind": kind, **words, **target, "valid": True}


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

    Each side is one word in S¹ (``core.eval_word``), whose adjoined 1 is
    index ``s.order``: a*u*b and c*v*d. Raises ValueError, before any reason,
    when u, v or a letter of a, b, c or d (in that order) is outside S¹;
    ``eval_word`` is the one check of each letter. Past the balance clauses
    each side holds at least one base letter, and a base element times
    anything in S¹ is a base element, so both sides of a failed substitution
    are named from the base.
    """
    _check_elements(s.order + 1, u, v)
    lhs, rhs = eval_word(s, (*w.a, u, *w.b)), eval_word(s, (*w.c, v, *w.d))
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
    if lhs != rhs:
        return (
            f"substitution fails: the left side evaluates to {s.names[lhs]} "
            f"but the right side evaluates to {s.names[rhs]}"
        )
    return None
