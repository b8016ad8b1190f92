"""Command-line interface: table checking, witness search, quotients, verification.

Exit codes: 0 success, 1 table validation or verification failure, 2 usage
error, 3 group-only verb on a non-group, 4 --exact requested outside the
group path. Every error also emits one machine-readable line on stderr of
the form ``error: <category>: <detail>``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, TextIO

from .catalog import FamilyError, make_family
from .core import (
    AssociativityError,
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
from .equations import (
    ONE_VAR_DEFAULT_BOUND,
    TWO_VAR_DEFAULT_BOUND,
    one_var_to_json,
    one_var_to_text,
    orientable_set,
    search_one_var,
    search_two_var,
    sigma_report,
    two_var_to_json,
    two_var_to_text,
    validate_one_var,
    validate_two_var,
)
from .groups import (
    NotAGroupError,
    abelianization,
    commutator,
    commutator_subgroup,
    group_structure,
)
from .theorems import (
    NotInDerivedSubgroupError,
    NotRelatedError,
    build_orientable_witness,
    build_two_var_witness,
    commutator_decomposition,
    exact_sigma_report,
    verify_orientable_is_commutator_subgroup,
    verify_semigroup_properties,
    verify_sigma_is_abelianization,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_NOT_GROUP = 3
EXIT_EXACT_OUTSIDE_GROUP = 4


class UsageError(Exception):
    pass


class ExactOutsideGroupError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semorient",
        description="Finite semigroup tables, equation witnesses, and "
        "commutator-subgroup correspondence checks.",
    )
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")

    def add(name: str, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--table", metavar="PATH", help="path to a table file")
        p.add_argument("--family", metavar="SPEC", help="family spec, e.g. symmetric:3")
        p.add_argument(
            "--format", choices=("text", "json"), default="text", help="output format"
        )
        return p

    add("check", "parse and validate a table")
    add("info", "structural summary: commutativity, idempotents, group detection")
    add("family", "print the canonical table file of a family")

    p = add("orientable", "witnesses for every element, by bounded search or --exact")
    p.add_argument("--bound", type=int, help=f"search bound (default {ONE_VAR_DEFAULT_BOUND})")
    p.add_argument("--exact", action="store_true", help="exact group path")

    p = add("witness", "witness for one element or one ordered pair")
    p.add_argument("--element", metavar="NAME", help="element to search")
    p.add_argument("--pair", metavar="X,Y", help="ordered pair to relate")
    p.add_argument("--bound", type=int, help="search bound")
    p.add_argument("--exact", action="store_true", help="exact group path")

    p = add("sigma", "class partition from pair-relating equations")
    p.add_argument("--bound", type=int, help=f"search bound (default {TWO_VAR_DEFAULT_BOUND})")
    p.add_argument("--exact", action="store_true", help="exact group path")

    p = add("quotient", "quotient table by the sigma classes")
    p.add_argument("--bound", type=int, help="search bound")
    p.add_argument("--exact", action="store_true", help="exact group path")

    p = add("commutator", "commutator of a pair, or the whole commutator subgroup")
    p.add_argument("--pair", metavar="X,Y", help="pair to commutate")

    add("abelianization", "quotient by the commutator subgroup (groups only)")

    p = add("verify", "run verification suites")
    p.add_argument(
        "--suite",
        choices=("theorems", "propositions", "all"),
        default="all",
        help="which suite to run (default all)",
    )
    p.add_argument("--bound", type=int, help="override both search bounds")
    return parser


def _load(args) -> tuple[Semigroup, str]:
    if bool(args.table) == bool(args.family):
        raise UsageError("exactly one of --table or --family is required")
    if args.table:
        try:
            text = Path(args.table).read_text(encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"cannot read table file: {exc}") from None
        except UnicodeDecodeError as exc:
            raise TableFormatError(f"not valid UTF-8 at byte offset {exc.start}") from None
        return parse_table(text), args.table
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
    try:
        return group_structure(s)
    except NotAGroupError as exc:
        raise ExactOutsideGroupError(exc.reason) from None


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _cmd_check(args) -> tuple[str, int]:
    s, subject = _load(args)
    if args.format == "json":
        return _json_text(
            {"subject": subject, "ok": True, "order": s.order, "elements": list(s.names)}
        ), EXIT_OK
    return f"ok: associative table of order {s.order}\n", EXIT_OK


def _cmd_info(args) -> tuple[str, int]:
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
    if args.format == "json":
        return _json_text(obj), EXIT_OK
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
    return "\n".join(lines) + "\n", EXIT_OK


def _cmd_family(args) -> tuple[str, int]:
    if args.table or not args.family:
        raise UsageError("family requires --family and takes no --table")
    s = make_family(args.family)
    if args.format == "json":
        return _json_text(
            {
                "spec": args.family,
                "order": s.order,
                "elements": list(s.names),
                "rows": [[s.names[e] for e in row] for row in s.table],
            }
        ), EXIT_OK
    return serialize_table(s), EXIT_OK


def _cmd_orientable(args) -> tuple[str, int]:
    s, subject = _load(args)
    m = adjoin_identity(s)
    one_var_bound, _ = _bounds(args)
    entries = []
    if args.exact:
        group = _group_for_exact(s)
        derived = set(commutator_subgroup(group))
        for g in range(s.order):
            if g in derived:
                w = build_orientable_witness(group, commutator_decomposition(group, g))
                entries.append((g, w))
            else:
                entries.append((g, None))
    else:
        found = orientable_set(m, one_var_bound)
        entries = [(g, found[g]) for g in range(s.order)]
    count = sum(1 for _, w in entries if w is not None)
    if args.format == "json":
        obj = {
            "subject": subject,
            "mode": "exact" if args.exact else "bounded",
            "bound": None if args.exact else one_var_bound,
            "orientable_count": count,
            "elements": [
                {
                    "element": s.names[g],
                    "orientable": w is not None,
                    "witness": None if w is None else one_var_to_json(s.names, w, g, True),
                }
                for g, w in entries
            ],
        }
        return _json_text(obj), EXIT_OK
    lines = [f"subject: {subject}"]
    lines.append("mode: exact" if args.exact else f"bound: {one_var_bound}")
    lines.append(f"orientable elements: {count} of {s.order}")
    for g, w in entries:
        if w is not None:
            lines.append(f"{s.names[g]}: {one_var_to_text(s.names, w)}")
        elif args.exact:
            lines.append(f"{s.names[g]}: not orientable (exact)")
        else:
            lines.append(f"{s.names[g]}: no witness with n <= {one_var_bound}")
    return "\n".join(lines) + "\n", EXIT_OK


def _cmd_witness(args) -> tuple[str, int]:
    s, subject = _load(args)
    m = adjoin_identity(s)
    one_var_bound, two_var_bound = _bounds(args)
    if bool(args.element) == bool(args.pair):
        raise UsageError("exactly one of --element or --pair is required")

    if args.element:
        g = _element(s, args.element)
        if args.exact:
            group = _group_for_exact(s)
            try:
                w = build_orientable_witness(group, commutator_decomposition(group, g))
            except NotInDerivedSubgroupError:
                w = None
            note = "not orientable (exact)"
        else:
            w = search_one_var(m, g, one_var_bound)
            note = f"no witness with n <= {one_var_bound}"
        if args.format == "json":
            if w is None:
                return _json_text(
                    {
                        "element": s.names[g],
                        "witness": None,
                        "bound": None if args.exact else one_var_bound,
                        "note": note,
                    }
                ), EXIT_OK
            valid = validate_one_var(m, g, w) is None
            return _json_text(one_var_to_json(s.names, w, g, valid)), EXIT_OK
        if w is None:
            return f"element: {s.names[g]}\n{note}\n", EXIT_OK
        valid = validate_one_var(m, g, w) is None
        return (
            f"element: {s.names[g]}\n"
            f"witness: {one_var_to_text(s.names, w)}\n"
            f"valid: {str(valid).lower()}\n"
        ), EXIT_OK

    u, v = _pair(s, args.pair)
    if args.exact:
        group = _group_for_exact(s)
        try:
            # build_two_var_witness(group, g, h) validates for (h, g)
            w = build_two_var_witness(group, v, u)
        except NotRelatedError:
            w = None
        note = "not related (exact)"
    else:
        w = search_two_var(m, u, v, two_var_bound)
        note = f"no witness with n <= {two_var_bound}"
    if args.format == "json":
        if w is None:
            return _json_text(
                {
                    "pair": [s.names[u], s.names[v]],
                    "witness": None,
                    "bound": None if args.exact else two_var_bound,
                    "note": note,
                }
            ), EXIT_OK
        valid = validate_two_var(m, u, v, w) is None
        return _json_text(two_var_to_json(s.names, w, (u, v), valid)), EXIT_OK
    if w is None:
        return f"pair: ({s.names[u]}, {s.names[v]})\n{note}\n", EXIT_OK
    valid = validate_two_var(m, u, v, w) is None
    return (
        f"pair: ({s.names[u]}, {s.names[v]})\n"
        f"witness: {two_var_to_text(s.names, w)}\n"
        f"valid: {str(valid).lower()}\n"
    ), EXIT_OK


def _sigma(args, s: Semigroup):
    _, two_var_bound = _bounds(args)
    if args.exact:
        return exact_sigma_report(_group_for_exact(s))
    return sigma_report(adjoin_identity(s), two_var_bound)


def _cmd_sigma(args) -> tuple[str, int]:
    s, subject = _load(args)
    rep = _sigma(args, s)
    classes = [[s.names[x] for x in members] for members in rep.congruence.classes()]
    if args.format == "json":
        obj = {
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
        return _json_text(obj), EXIT_OK
    lines = [f"subject: {subject}"]
    bound = "" if rep.bound is None else f" (bound {rep.bound})"
    lines.append(f"exactness: {rep.exactness}{bound}")
    lines.append(f"classes: {rep.congruence.num_classes}")
    for i, members in enumerate(classes):
        lines.append(f"  class {i}: " + " ".join(members))
    lines.append(f"related pairs with witnesses: {len(rep.pairs)}")
    return "\n".join(lines) + "\n", EXIT_OK


def _cmd_quotient(args) -> tuple[str, int]:
    s, subject = _load(args)
    rep = _sigma(args, s)
    q = quotient(s, rep.congruence)
    if args.format == "json":
        return _json_text(
            {
                "subject": subject,
                "exactness": rep.exactness,
                "order": q.order,
                "elements": list(q.names),
                "rows": [[q.names[e] for e in row] for row in q.table],
            }
        ), EXIT_OK
    header = f"# sigma-quotient of {subject} ({rep.exactness})\n"
    return header + serialize_table(q), EXIT_OK


def _cmd_commutator(args) -> tuple[str, int]:
    s, subject = _load(args)
    group = group_structure(s)
    if args.pair:
        x, y = _pair(s, args.pair)
        c = commutator(group, x, y)
        if args.format == "json":
            return _json_text(
                {"subject": subject, "pair": [s.names[x], s.names[y]], "commutator": s.names[c]}
            ), EXIT_OK
        return f"commutator({s.names[x]}, {s.names[y]}) = {s.names[c]}\n", EXIT_OK
    derived = commutator_subgroup(group)
    if args.format == "json":
        return _json_text(
            {
                "subject": subject,
                "order": len(derived),
                "elements": [s.names[g] for g in derived],
            }
        ), EXIT_OK
    return (
        f"commutator subgroup (order {len(derived)}): "
        + " ".join(s.names[g] for g in derived)
        + "\n"
    ), EXIT_OK


def _cmd_abelianization(args) -> tuple[str, int]:
    s, subject = _load(args)
    group = group_structure(s)
    ab = abelianization(group)
    if args.format == "json":
        return _json_text(
            {
                "subject": subject,
                "order": ab.order,
                "elements": list(ab.names),
                "rows": [[ab.names[e] for e in row] for row in ab.table],
            }
        ), EXIT_OK
    header = f"# abelianization of {subject}\n"
    return header + serialize_table(ab), EXIT_OK


def _cmd_verify(args) -> tuple[str, int]:
    s, subject = _load(args)
    one_var_bound, two_var_bound = _bounds(args)
    reports = []
    if args.suite in ("theorems", "all"):
        group = group_structure(s)  # non-groups exit 3, even for --suite all
        reports.append(
            verify_orientable_is_commutator_subgroup(group, one_var_bound, subject=subject)
        )
        reports.append(
            verify_sigma_is_abelianization(group, two_var_bound, subject=subject)
        )
    if args.suite in ("propositions", "all"):
        reports.append(
            verify_semigroup_properties(s, one_var_bound, two_var_bound, subject=subject)
        )
    ok = all(r.passed for r in reports)
    code = EXIT_OK if ok else EXIT_INVALID
    if args.format == "json":
        return _json_text(
            {"subject": subject, "suite": args.suite, "passed": ok,
             "reports": [r.to_json() for r in reports]}
        ), code
    text = "\n\n".join(r.to_text() for r in reports)
    text += f"\n\nsuite {args.suite}: {'all checks passed' if ok else 'FAILURES'}\n"
    return text, code


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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        return code
    try:
        text, code = _COMMANDS[args.verb](args)
    except UsageError as exc:
        print(f"error: usage: {exc}", file=err)
        return EXIT_USAGE
    except FamilyError as exc:
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
