#!/usr/bin/env python3
"""Run every verification suite over the built-in catalog and print reports.

Exits nonzero if any hard check fails anywhere.
"""

from __future__ import annotations

import argparse
import json
import sys

from semorient.catalog import CATALOG_FAMILIES, make_family
from semorient.groups import NotAGroupError, group_structure
from semorient.verify import (
    verify_orientable_is_commutator_subgroup,
    verify_semigroup_properties,
    verify_sigma_is_abelianization,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--one-var-bound", type=int, default=4)
    parser.add_argument("--two-var-bound", type=int, default=3)
    args = parser.parse_args()

    reports = []
    for spec in CATALOG_FAMILIES:
        s = make_family(spec)
        try:
            group = group_structure(s)
        except NotAGroupError:
            group = None
        if group is not None:
            reports.append(
                verify_orientable_is_commutator_subgroup(
                    group, args.one_var_bound, subject=spec
                )
            )
            reports.append(
                verify_sigma_is_abelianization(group, args.two_var_bound, subject=spec)
            )
        reports.append(
            verify_semigroup_properties(
                s, args.one_var_bound, args.two_var_bound, subject=spec
            )
        )

    ok = all(r.passed for r in reports)
    if args.format == "json":
        print(json.dumps({"passed": ok, "reports": [r.to_json() for r in reports]}, indent=2))
    else:
        for r in reports:
            print(r.to_text())
            print()
        print(f"catalog verification: {'all suites passed' if ok else 'FAILURES'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
