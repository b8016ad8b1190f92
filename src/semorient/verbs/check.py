"""``check``: parse and validate a table."""

from . import EXIT_OK, Result, _load


def run(args) -> Result:
    s, subject = _load(args)
    return (
        EXIT_OK,
        lambda: {"subject": subject, "ok": True, "order": s.order, "elements": list(s.names)},
        lambda: f"ok: associative table of order {s.order}\n",
    )
