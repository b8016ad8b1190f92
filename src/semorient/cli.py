"""Command-line interface: table checking, witness search, quotients, verification.

Exit codes: 0 success, 1 table validation or verification failure, 2 usage
error, 3 group-only verb on a non-group, 4 --exact requested outside the
group path. Every error also emits one machine-readable line on stderr of
the form ``error: <category>: <detail>``.

Each verb computes its result once and returns ``(exit code, to_json,
to_text)``, two lazy renderers over the same values; ``run`` alone reads
``--format`` and calls exactly one of them.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Callable, Optional, TextIO

# only core at module level: each verb imports the layers it runs, so a call
# loads no more code than it uses (``check --table`` loads core alone)
from .core import (
    ONE_VAR_DEFAULT_BOUND,
    TWO_VAR_DEFAULT_BOUND,
    AssociativityError,
    FamilyError,
    NotAGroupError,
    Semigroup,
    TableFormatError,
    adjoin_identity,
    idempotents,
    is_cancellative,
    is_commutative,
    parse_table,
    quotient,
    serialize_table,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_NOT_GROUP = 3
EXIT_EXACT_OUTSIDE_GROUP = 4

# (exit code, JSON renderer, text renderer)
Result = tuple[int, Callable[[], object], Callable[[], str]]


class UsageError(Exception):
    pass


class ExactOutsideGroupError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports argument errors as UsageError, so they print one ``error: usage:`` line."""

    def error(self, message):
        raise UsageError(message)


_BOUND = ("--bound", {"type": int, "help": "search bound"})
_EXACT = ("--exact", {"action": "store_true", "help": "exact group path"})

# each verb's help line and the arguments it takes beyond --table, --family and --format
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
    parser = _Parser(
        prog="semorient",
        description="Finite semigroup tables, equation witnesses, and "
        "commutator-subgroup correspondence checks.",
    )
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")
    for name, (help_, extra) in _VERBS.items():
        if verb is not None and name != verb:
            continue
        p = sub.add_parser(name, help=help_)
        p.add_argument("--table", metavar="PATH", help="path to a table file")
        p.add_argument("--family", metavar="SPEC", help="family spec, e.g. symmetric:3")
        p.add_argument(
            "--format", choices=("text", "json"), default="text", help="output format"
        )
        for flag, options in extra:
            p.add_argument(flag, **options)
    return parser


def _load(args) -> tuple[Semigroup, str]:
    if bool(args.table) == bool(args.family):
        raise UsageError("exactly one of --table or --family is required")
    if args.table:
        try:
            with open(args.table, encoding="utf-8") as f:
                text = f.read()
        except OSError as exc:
            raise UsageError(f"cannot read table file: {exc}") from None
        except UnicodeDecodeError as exc:
            raise TableFormatError(f"not valid UTF-8 at byte offset {exc.start}") from None
        return parse_table(text), args.table
    from .catalog import make_family

    return make_family(args.family), args.family


def _bounds(args) -> tuple[int, int]:
    bound = getattr(args, "bound", None)
    if bound is not None and bound < 1:
        raise UsageError("--bound must be a positive integer")
    one = bound if bound is not None else ONE_VAR_DEFAULT_BOUND
    two = bound if bound is not None else TWO_VAR_DEFAULT_BOUND
    return one, two


def _element(s: Semigroup, name: str) -> int:
    try:
        return s.index_of(name)
    except KeyError:
        raise UsageError(f"unknown element name {name!r}") from None


def _pair(s: Semigroup, spec: str) -> tuple[int, int]:
    left, sep, right = spec.partition(",")
    if not sep or not left or not right:
        raise UsageError("--pair needs two comma-separated element names")
    return _element(s, left), _element(s, right)


def _group_for_exact(s: Semigroup):
    from .groups import group_structure

    try:
        return group_structure(s)
    except NotAGroupError as exc:
        raise ExactOutsideGroupError(exc.reason) from None


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


def _cmd_check(args) -> Result:
    s, subject = _load(args)
    return (
        EXIT_OK,
        lambda: {"subject": subject, "ok": True, "order": s.order, "elements": list(s.names)},
        lambda: f"ok: associative table of order {s.order}\n",
    )


def _cmd_info(args) -> Result:
    from .groups import commutator_subgroup, group_structure

    s, subject = _load(args)
    try:
        group = group_structure(s)
    except NotAGroupError as exc:
        group, group_reason = None, exc.reason
    obj = {
        "subject": subject,
        "order": s.order,
        "elements": list(s.names),
        "commutative": is_commutative(s),
        "cancellative": is_cancellative(s),
        "idempotents": [s.names[e] for e in idempotents(s)],
        "group": group is not None,
    }
    if group is not None:
        derived = commutator_subgroup(group)
        obj["identity"] = s.names[group.identity]
        obj["commutator_subgroup"] = [s.names[g] for g in derived]
        obj["abelianization_order"] = s.order // len(derived)
    else:
        obj["not_a_group_reason"] = group_reason

    def to_text() -> str:
        lines = [f"subject: {subject}", f"order: {s.order}"]
        lines.append("elements: " + " ".join(s.names))
        lines.append(f"commutative: {str(obj['commutative']).lower()}")
        lines.append(f"cancellative: {str(obj['cancellative']).lower()}")
        lines.append("idempotents: " + (" ".join(obj["idempotents"]) or "(none)"))
        if group is not None:
            lines.append(f"group: yes (identity {obj['identity']})")
            lines.append(
                f"commutator subgroup (order {len(obj['commutator_subgroup'])}): "
                + " ".join(obj["commutator_subgroup"])
            )
            lines.append(f"abelianization order: {obj['abelianization_order']}")
        else:
            lines.append(f"group: no ({group_reason})")
        return "\n".join(lines) + "\n"

    return EXIT_OK, lambda: obj, to_text


def _cmd_family(args) -> Result:
    if args.table or not args.family:
        raise UsageError("family requires --family and takes no --table")
    from .catalog import make_family

    return _table_result(make_family(args.family), {"spec": args.family})


def _cmd_orientable(args) -> Result:
    from .equations import one_var_to_json, one_var_to_text

    s, subject = _load(args)
    one_var_bound, _ = _bounds(args)
    if args.exact:
        from .groups import commutator_subgroup
        from .theorems import build_orientable_witness, commutator_decomposition

        group = _group_for_exact(s)
        found = dict.fromkeys(range(s.order))
        for g in commutator_subgroup(group):
            found[g] = build_orientable_witness(group, commutator_decomposition(group, g))
        bound = None
    else:
        from .search import orientable_set

        found = orientable_set(adjoin_identity(s), one_var_bound)
        bound = one_var_bound
    count = sum(1 for w in found.values() if w is not None)

    def to_json() -> dict:
        return {
            "subject": subject,
            "mode": "exact" if args.exact else "bounded",
            "bound": bound,
            "orientable_count": count,
            "elements": [
                {
                    "element": s.names[g],
                    "orientable": w is not None,
                    "witness": None if w is None else one_var_to_json(s.names, w, g, True),
                }
                for g, w in found.items()
            ],
        }

    def to_text() -> str:
        none = _no_witness(bound, "not orientable (exact)")
        lines = [f"subject: {subject}"]
        lines.append("mode: exact" if args.exact else f"bound: {bound}")
        lines.append(f"orientable elements: {count} of {s.order}")
        for g, w in found.items():
            lines.append(f"{s.names[g]}: {none if w is None else one_var_to_text(s.names, w)}")
        return "\n".join(lines) + "\n"

    return EXIT_OK, to_json, to_text


def _cmd_witness(args) -> Result:
    from .equations import (
        one_var_to_json,
        one_var_to_text,
        two_var_to_json,
        two_var_to_text,
        validate_one_var,
        validate_two_var,
    )

    s, _ = _load(args)
    m = adjoin_identity(s)
    one_var_bound, two_var_bound = _bounds(args)
    if bool(args.element) == bool(args.pair):
        raise UsageError("exactly one of --element or --pair is required")
    # one path for both kinds: an element is the target (g,), a pair (u, v)
    target = (_element(s, args.element),) if args.element else _pair(s, args.pair)
    one = len(target) == 1
    validate, show, as_json = (
        (validate_one_var, one_var_to_text, one_var_to_json)
        if one
        else (validate_two_var, two_var_to_text, two_var_to_json)
    )
    names = [s.names[x] for x in target]
    if not args.exact:
        from .search import search_one_var, search_two_var

        bound = one_var_bound if one else two_var_bound
        w = (search_one_var if one else search_two_var)(m, *target, bound)
    else:
        from .theorems import (
            NotInDerivedSubgroupError,
            NotRelatedError,
            build_orientable_witness,
            build_two_var_witness,
            commutator_decomposition,
        )

        bound, group = None, _group_for_exact(s)
        try:
            if one:
                w = build_orientable_witness(group, commutator_decomposition(group, target[0]))
            else:
                # build_two_var_witness(group, g, h) validates for (h, g)
                w = build_two_var_witness(group, target[1], target[0])
        except (NotInDerivedSubgroupError, NotRelatedError):
            w = None
    note = _no_witness(bound, "not orientable (exact)" if one else "not related (exact)")

    def to_json() -> dict:
        if w is None:
            head = {"element": names[0]} if one else {"pair": names}
            return {**head, "witness": None, "bound": bound, "note": note}
        valid = validate(m, *target, w) is None
        return as_json(s.names, w, target[0] if one else target, valid)

    def to_text() -> str:
        head = f"element: {names[0]}" if one else f"pair: ({names[0]}, {names[1]})"
        if w is None:
            return f"{head}\n{note}\n"
        valid = validate(m, *target, w) is None
        return f"{head}\nwitness: {show(s.names, w)}\nvalid: {str(valid).lower()}\n"

    return EXIT_OK, to_json, to_text


def _cmd_sigma(args) -> Result:
    from .equations import two_var_to_json

    s, subject = _load(args)
    _, two_var_bound = _bounds(args)
    if args.exact:
        from .theorems import exact_sigma_report

        rep = exact_sigma_report(_group_for_exact(s))
    else:
        from .search import sigma_report

        rep = sigma_report(adjoin_identity(s), two_var_bound)
    classes = [[s.names[x] for x in members] for members in rep.congruence.classes()]

    def to_json() -> dict:
        return {
            "subject": subject,
            "exactness": rep.exactness,
            "bound": rep.bound,
            "num_classes": rep.congruence.num_classes,
            "classes": classes,
            "pairs": [
                two_var_to_json(s.names, w, pair, True)
                for pair, w in sorted(rep.pairs.items())
            ],
        }

    def to_text() -> str:
        lines = [f"subject: {subject}"]
        bound = "" if rep.bound is None else f" (bound {rep.bound})"
        lines.append(f"exactness: {rep.exactness}{bound}")
        lines.append(f"classes: {rep.congruence.num_classes}")
        for i, members in enumerate(classes):
            lines.append(f"  class {i}: " + " ".join(members))
        lines.append(f"related pairs with witnesses: {len(rep.pairs)}")
        return "\n".join(lines) + "\n"

    return EXIT_OK, to_json, to_text


def _cmd_quotient(args) -> Result:
    s, subject = _load(args)
    _, two_var_bound = _bounds(args)
    if args.exact:
        # the exact classes are the cosets of [G, G]; the quotient needs no pair witness
        from .groups import coset_congruence

        cong, exactness = coset_congruence(_group_for_exact(s)), "exact-group"
    else:
        from .search import sigma_report

        rep = sigma_report(adjoin_identity(s), two_var_bound)
        cong, exactness = rep.congruence, rep.exactness
    return _table_result(
        quotient(s, cong),
        {"subject": subject, "exactness": exactness},
        f"# sigma-quotient of {subject} ({exactness})\n",
    )


def _cmd_commutator(args) -> Result:
    from .groups import commutator, commutator_subgroup, group_structure

    s, subject = _load(args)
    group = group_structure(s)
    if args.pair:
        x, y = _pair(s, args.pair)
        nx, ny, nc = s.names[x], s.names[y], s.names[commutator(group, x, y)]
        return (
            EXIT_OK,
            lambda: {"subject": subject, "pair": [nx, ny], "commutator": nc},
            lambda: f"commutator({nx}, {ny}) = {nc}\n",
        )
    derived = [s.names[g] for g in commutator_subgroup(group)]
    return (
        EXIT_OK,
        lambda: {"subject": subject, "order": len(derived), "elements": derived},
        lambda: f"commutator subgroup (order {len(derived)}): " + " ".join(derived) + "\n",
    )


def _cmd_abelianization(args) -> Result:
    from .groups import abelianization, group_structure

    s, subject = _load(args)
    return _table_result(
        abelianization(group_structure(s)),
        {"subject": subject},
        f"# abelianization of {subject}\n",
    )


def _cmd_verify(args) -> Result:
    from .groups import group_structure
    from .verify import (
        verify_orientable_is_commutator_subgroup,
        verify_semigroup_properties,
        verify_sigma_is_abelianization,
    )

    s, subject = _load(args)
    one_var_bound, two_var_bound = _bounds(args)
    reports = []
    if args.suite in ("theorems", "all"):
        group = group_structure(s)  # non-groups exit 3, even for --suite all
        reports += [
            verify_orientable_is_commutator_subgroup(group, one_var_bound, subject=subject),
            verify_sigma_is_abelianization(group, two_var_bound, subject=subject),
        ]
    if args.suite in ("propositions", "all"):
        reports.append(
            verify_semigroup_properties(s, one_var_bound, two_var_bound, subject=subject)
        )
    ok = all(r.passed for r in reports)
    return (
        EXIT_OK if ok else EXIT_INVALID,
        lambda: {"subject": subject, "suite": args.suite, "passed": ok,
                 "reports": [r.to_json() for r in reports]},
        lambda: "\n\n".join(r.to_text() for r in reports)
        + f"\n\nsuite {args.suite}: {'all checks passed' if ok else 'FAILURES'}\n",
    )


_COMMANDS = {
    "check": _cmd_check,
    "info": _cmd_info,
    "family": _cmd_family,
    "orientable": _cmd_orientable,
    "witness": _cmd_witness,
    "sigma": _cmd_sigma,
    "quotient": _cmd_quotient,
    "commutator": _cmd_commutator,
    "abelianization": _cmd_abelianization,
    "verify": _cmd_verify,
}


def run(argv, out: Optional[TextIO] = None, err: Optional[TextIO] = None) -> int:
    """Parse argv, dispatch, and return the exit code; output goes to out/err."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        with contextlib.redirect_stdout(out):  # --help writes to stdout
            verb = argv[0] if argv and argv[0] in _VERBS else None
            args = build_parser(verb).parse_args(argv)
        code, to_json, to_text = _COMMANDS[args.verb](args)
        if args.format == "json":
            import json

            text = json.dumps(to_json(), indent=2) + "\n"
        else:
            text = to_text()
    except SystemExit as exc:  # --help has printed its text
        return exc.code
    except (UsageError, FamilyError) as exc:
        print(f"error: usage: {exc}", file=err)
        return EXIT_USAGE
    except (TableFormatError, AssociativityError) as exc:
        print(f"error: invalid-table: {exc}", file=err)
        return EXIT_INVALID
    except ExactOutsideGroupError as exc:
        print(f"error: exact-requires-group: {exc}", file=err)
        return EXIT_EXACT_OUTSIDE_GROUP
    except NotAGroupError as exc:
        print(f"error: not-a-group: {exc.reason}", file=err)
        return EXIT_NOT_GROUP
    out.write(text)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
