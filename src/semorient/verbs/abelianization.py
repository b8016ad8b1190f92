"""``abelianization``: the quotient by the commutator subgroup (groups only)."""

from ..cli import Result, _load, _table_result


def run(args) -> Result:
    from ..groups import abelianization, group_structure

    s, subject = _load(args)
    return _table_result(
        abelianization(group_structure(s)),
        {"subject": subject},
        f"# abelianization of {subject}\n",
    )
