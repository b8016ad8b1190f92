"""``quotient``: the quotient table by the sigma classes.

The classes are ker φ (``core._abelian_keys``) in both modes: σ_orient = ker φ
on every finite semigroup, and on a group ker φ is the coset partition of
[G, G]. ``--exact`` only requires a group and labels the table ``exact-group``.
"""

from . import Result, _bounds, _load, _table_result
from ..core import _abelian_keys, quotient


def run(args) -> Result:
    s, subject = _load(args)
    _bounds(args)  # checked, though σ_orient = ker φ at every bound: no search needed
    exactness = "lower-bound"
    if args.exact:
        from ..groups import group_structure

        group_structure(s)  # raises NotAGroupError off a group
        exactness = "exact-group"
    return _table_result(
        quotient(s, _abelian_keys(s)[1]),
        {"subject": subject, "exactness": exactness},
        f"# sigma-quotient of {subject} ({exactness})\n",
    )
