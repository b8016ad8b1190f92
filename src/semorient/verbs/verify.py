"""``verify``: the verification suites."""

from . import EXIT_INVALID, EXIT_OK, Result, _bounds, _load


def run(args) -> Result:
    from ..verify import (
        verify_orientable_is_commutator_subgroup,
        verify_semigroup_properties,
        verify_sigma_is_abelianization,
    )

    s, subject = _load(args)
    one_var_bound, two_var_bound = _bounds(args)
    reports = []
    if args.suite in ("theorems", "all"):  # a non-group exits 3 here, even for --suite all
        reports += [
            verify_orientable_is_commutator_subgroup(s, one_var_bound, subject=subject),
            verify_sigma_is_abelianization(s, two_var_bound, subject=subject),
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
