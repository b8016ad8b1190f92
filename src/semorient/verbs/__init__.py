"""One module per CLI verb, each with ``run(args) -> Result``, and the toolkit they share.

``cli.run`` imports only the module of the verb it runs, so a call compiles
one handler, not ten. The verbs import the toolkit from here, never from ``cli``.
"""

from typing import Callable, Optional

from ..core import (
    MAX_BOUND,
    MAX_TABLE_BYTES,
    ONE_VAR_DEFAULT_BOUND,
    TWO_VAR_DEFAULT_BOUND,
    Semigroup,
    TableFormatError,
    parse_table,
    serialize_table,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_NOT_GROUP = 3
EXIT_EXACT_OUTSIDE_GROUP = 4
EXIT_OUTPUT = 120

# (exit code, JSON renderer, text renderer)
Result = tuple[int, Callable[[], object], Callable[[], str]]


class UsageError(Exception):
    pass


def _load(args) -> tuple[Semigroup, str]:
    if bool(args.table) == bool(args.family):
        raise UsageError("exactly one of --table or --family is required")
    if args.table:
        try:
            with open(args.table, "rb") as f:
                data = f.read(MAX_TABLE_BYTES + 1)
        except OSError as exc:
            raise UsageError(f"cannot read table file: {exc}") from None
        if len(data) > MAX_TABLE_BYTES:
            raise TableFormatError(f"table file exceeds the maximum of {MAX_TABLE_BYTES} bytes")
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TableFormatError(f"not valid UTF-8 at byte offset {exc.start}") from None
        return parse_table(text), args.table
    from ..catalog import make_family

    return make_family(args.family), args.family


def _bounds(args) -> tuple[int, int]:
    bound = getattr(args, "bound", None)
    if bound is None:
        return ONE_VAR_DEFAULT_BOUND, TWO_VAR_DEFAULT_BOUND
    if bound < 1:
        raise UsageError("--bound must be a positive integer")
    if bound > MAX_BOUND:
        raise UsageError(f"--bound must be at most {MAX_BOUND}")
    return bound, bound


def _element(s: Semigroup, name: str) -> int:
    try:
        return s.index_of(name)
    except KeyError:
        raise UsageError(f"unknown element name {name!r}") from None


def _pair(s: Semigroup, spec: str) -> tuple[int, int]:
    left, sep, right = spec.partition(",")
    if not sep or not left or not right or "," in right:
        raise UsageError("--pair needs two comma-separated element names")
    return _element(s, left), _element(s, right)


def _no_witness(bound: Optional[int], exact_note: str) -> str:
    return exact_note if bound is None else f"no witness with n <= {bound}"


def _table_result(t: Semigroup, head: dict, comment: str = "") -> Result:
    """A table as JSON ``head`` plus order, elements and rows, or as a table file."""
    return (
        EXIT_OK,
        lambda: {
            **head,
            "order": t.order,
            "elements": list(t.names),
            "rows": [[t.names[e] for e in row] for row in t.table],
        },
        lambda: comment + serialize_table(t),
    )
