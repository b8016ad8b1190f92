"""``quotient``: the quotient table by the sigma classes."""

from . import Result, _bounds, _load, _table_result
from ..core import _abelian_keys, quotient


def run(args) -> Result:
    s, subject = _load(args)
    _bounds(args)  # checked, though σ_orient = ker φ at every bound: no search needed
    if args.exact:
        # the exact classes are the cosets of [G, G]; the quotient needs no pair witness
        from ..groups import coset_congruence, group_structure

        cong, exactness = coset_congruence(group_structure(s)), "exact-group"
    else:
        cong, exactness = _abelian_keys(s)[1], "lower-bound"
    return _table_result(
        quotient(s, cong),
        {"subject": subject, "exactness": exactness},
        f"# sigma-quotient of {subject} ({exactness})\n",
    )
