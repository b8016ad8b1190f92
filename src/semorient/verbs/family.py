"""``family``: the canonical table file of a family spec."""

from ..cli import Result, UsageError, _table_result


def run(args) -> Result:
    if args.table or not args.family:
        raise UsageError("family requires --family and takes no --table")
    from ..catalog import make_family

    return _table_result(make_family(args.family), {"spec": args.family})
