"""``abelianization``: the quotient by the commutator subgroup (groups only)."""

from . import Result, _load, _table_result


def run(args) -> Result:
    from ..groups import abelianization

    s, subject = _load(args)
    return _table_result(
        abelianization(s),
        {"subject": subject},
        f"# abelianization of {subject}\n",
    )
