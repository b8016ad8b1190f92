"""Command-line interface: table checking, witness search, quotients, verification.

Exit codes: 0 success, 1 table validation or verification failure, 2 usage
error, 3 group-only verb on a non-group, 4 --exact requested outside the
group path, 120 stdout closed, failing or unable to encode the output (the
status CPython gives a failed final flush of stdout). Every error also emits
one line on stderr, when stderr is open: ``error: <category>: <detail>``.

This module is the process edge, imported by ``__main__`` alone. Each verb's
module in ``semorient.verbs`` computes the result once in ``run(args)`` and
returns ``(exit code, to_json, to_text)``, two lazy renderers over the same
values; ``run`` here alone reads ``--format`` and calls one of them, and
``_write`` alone decides exit 120.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, NoReturn, Optional, TextIO

# only core and the verb toolkit at module level: each verb imports the layers it
# runs, so a call loads no more code than it uses (``check --table`` loads core alone)
from .core import (
    ONE_VAR_DEFAULT_BOUND,
    TWO_VAR_DEFAULT_BOUND,
    AssociativityError,
    FamilyError,
    NotAGroupError,
    TableFormatError,
)
from .verbs import (
    EXIT_EXACT_OUTSIDE_GROUP,
    EXIT_INVALID,
    EXIT_NOT_GROUP,
    EXIT_OUTPUT,
    EXIT_USAGE,
    UsageError,
)

if TYPE_CHECKING:  # argparse loads only in build_parser
    import argparse

_BOUND = ("--bound", {"type": int, "help": "search bound"})
_EXACT = ("--exact", {"action": "store_true", "help": "exact group path"})

# the arguments every verb takes
_COMMON = (
    ("--table", {"metavar": "PATH", "help": "path to a table file"}),
    ("--family", {"metavar": "SPEC", "help": "family spec, e.g. symmetric:3"}),
    ("--format", {"choices": ("text", "json"), "default": "text", "help": "output format"}),
)

# each verb's help line and the arguments it takes beyond _COMMON
_VERBS = {
    "check": ("parse and validate a table", ()),
    "info": ("structural summary: commutativity, idempotents, group detection", ()),
    "family": ("print the canonical table file of a family", ()),
    "orientable": (
        "witnesses for every element, by bounded search or --exact",
        (("--bound", {"type": int, "help": f"search bound (default {ONE_VAR_DEFAULT_BOUND})"}),
         _EXACT),
    ),
    "witness": (
        "witness for one element or one ordered pair",
        (("--element", {"metavar": "NAME", "help": "element to search"}),
         ("--pair", {"metavar": "X,Y", "help": "ordered pair to relate"}),
         _BOUND, _EXACT),
    ),
    "sigma": (
        "class partition from pair-relating equations",
        (("--bound", {"type": int, "help": f"search bound (default {TWO_VAR_DEFAULT_BOUND})"}),
         _EXACT),
    ),
    "quotient": ("quotient table by the sigma classes", (_BOUND, _EXACT)),
    "commutator": (
        "commutator of a pair, or the whole commutator subgroup",
        (("--pair", {"metavar": "X,Y", "help": "pair to commutate"}),),
    ),
    "abelianization": ("quotient by the commutator subgroup (groups only)", ()),
    "verify": (
        "run verification suites",
        (("--suite", {"choices": ("theorems", "propositions", "all"), "default": "all",
                      "help": "which suite to run (default all)"}),
         ("--bound", {"type": int, "help": "override both search bounds"})),
    ),
}


def build_parser(verb: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every verb, or with ``verb`` given, of that verb alone.

    A call naming a verb never reaches another verb's subparser, and the
    verb list appears only in the top-level help and in the errors for a
    missing or unknown verb, which are parsed with every verb.
    """
    import argparse

    class Parser(argparse.ArgumentParser):
        """Reports argument errors as UsageError, so they print one ``error: usage:`` line."""

        def error(self, message):
            raise UsageError(message)

    parser = Parser(
        prog="semorient",
        description="Finite semigroup tables, equation witnesses, and "
        "commutator-subgroup correspondence checks.",
    )
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")
    for name, (help_, extra) in _VERBS.items():
        if verb is not None and name != verb:
            continue
        p = sub.add_parser(name, help=help_)
        for flag, options in _COMMON + extra:
            p.add_argument(flag, **options)
    return parser


def _plain_args(argv) -> Optional[SimpleNamespace]:
    """The namespace argparse builds from ``argv``, if argv is plain; else None.

    Plain means a verb followed only by full option names from its table,
    each at most once, whose values do not start with ``-`` and pass the
    option's ``type`` and ``choices``. On such argv argparse would print
    nothing and build the same namespace, so a plain call never imports it.
    Anything else (help, abbreviations, ``--opt=value``, repeats, a bad
    value) returns None and goes to argparse, which alone prints help and
    usage errors.
    """
    if not argv or argv[0] not in _VERBS:
        return None
    options = dict(_COMMON + _VERBS[argv[0]][1])
    values = {
        flag[2:]: False if o.get("action") == "store_true" else o.get("default")
        for flag, o in options.items()
    }
    tokens = iter(argv[1:])
    for flag in tokens:
        o = options.pop(flag, None)  # popped, so a repeated option is not found
        if o is None:
            return None
        if o.get("action") == "store_true":
            values[flag[2:]] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        if "type" in o:
            try:
                value = o["type"](value)
            except ValueError:
                return None
        if value not in o.get("choices", (value,)):
            return None
        values[flag[2:]] = value
    return SimpleNamespace(verb=argv[0], **values)


def _fail(err: Optional[TextIO], code: int, category: str, detail) -> int:
    """Write the one ``error: <category>: <detail>`` line, if stderr is open; return code."""
    if err is not None:
        with contextlib.suppress(OSError):
            err.write(f"error: {category}: {detail}\n")
    return code


def _write(out: Optional[TextIO], err: Optional[TextIO], text: str, code: int) -> int:
    """Write and flush the output; return ``code``, or EXIT_OUTPUT if stdout cannot take it."""
    if out is None:  # the process started with fd 1 closed
        return _fail(err, EXIT_OUTPUT, "output", "stdout is closed")
    try:
        out.write(text)
        out.flush()
    except (OSError, UnicodeEncodeError) as exc:  # or its encoding lacks a character
        return _fail(err, EXIT_OUTPUT, "output", exc)
    return code


def run(argv, out: Optional[TextIO] = None, err: Optional[TextIO] = None) -> int:
    """Parse argv, dispatch, and return the exit code; output goes to out/err."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        args = _plain_args(argv)
        if args is None:
            verb = argv[0] if argv and argv[0] in _VERBS else None
            # --help prints its text here, to be written as any other output
            with contextlib.redirect_stdout(io.StringIO()) as help_text:
                try:
                    args = build_parser(verb).parse_args(argv)
                except SystemExit as exc:
                    return _write(out, err, help_text.getvalue(), exc.code)
        # __import__, unlike importlib.import_module, shows under ``-X importtime``
        module = __import__(f"{__package__}.verbs.{args.verb}", fromlist=("run",))
        code, to_json, to_text = module.run(args)
        if args.format == "json":
            import json

            text = json.dumps(to_json(), indent=2) + "\n"
        else:
            text = to_text()
    except (UsageError, FamilyError) as exc:
        return _fail(err, EXIT_USAGE, "usage", exc)
    except (TableFormatError, AssociativityError) as exc:
        return _fail(err, EXIT_INVALID, "invalid-table", exc)
    except NotAGroupError as exc:
        # under --exact only the exact branch of orientable, witness, sigma or
        # quotient asks for a group; verbs without --exact are group-only verbs
        if getattr(args, "exact", False):
            return _fail(err, EXIT_EXACT_OUTSIDE_GROUP, "exact-requires-group", exc.reason)
        return _fail(err, EXIT_NOT_GROUP, "not-a-group", exc.reason)
    return _write(out, err, text, code)


def main() -> NoReturn:
    """The process entry: run the CLI on sys.argv, flush stderr, and end without teardown.

    Once ``run`` returns, stdout is flushed and semorient holds no open file, no
    thread and no ``atexit`` handler, so interpreter teardown (module cleanup,
    the final GC passes, deallocation) would only cost time: ``os._exit`` ends
    the process at the status ``sys.exit`` would give. In-process callers use ``run``.
    """
    code = run(sys.argv[1:])
    if sys.stderr is not None:
        with contextlib.suppress(OSError):
            sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
