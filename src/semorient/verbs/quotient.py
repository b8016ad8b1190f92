"""``quotient``: the quotient table by the sigma classes."""

from ..cli import Result, _bounds, _load, _table_result
from ..core import adjoin_identity, quotient


def run(args) -> Result:
    s, subject = _load(args)
    _, two_var_bound = _bounds(args)
    if args.exact:
        # the exact classes are the cosets of [G, G]; the quotient needs no pair witness
        from ..groups import coset_congruence, group_structure

        cong, exactness = coset_congruence(group_structure(s)), "exact-group"
    else:
        from ..search import sigma_report

        rep = sigma_report(adjoin_identity(s), two_var_bound)
        cong, exactness = rep.congruence, rep.exactness
    return _table_result(
        quotient(s, cong),
        {"subject": subject, "exactness": exactness},
        f"# sigma-quotient of {subject} ({exactness})\n",
    )
