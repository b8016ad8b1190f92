#!/usr/bin/env python3
"""End-to-end check of the CLI exit-code contract.

Spawns the CLI as a real subprocess for each case and compares exit codes:
0 success, 1 invalid table, 2 usage error, 3 group-only verb on a non-group,
4 --exact outside the group path. Every nonzero exit must print exactly one
``error: <category>: <detail>`` line on stderr.
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
from pathlib import Path

BROKEN_TABLE = """\
elements: 0 1
table:
1 1
1 0
"""

GOOD_TABLE = """\
elements: e a
table:
e a
a e
"""


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="semorient-exit-"))
    broken = tmp / "broken.tbl"
    broken.write_text(BROKEN_TABLE)
    good = tmp / "good.tbl"
    good.write_text(GOOD_TABLE)
    latin1 = tmp / "latin1.tbl"
    latin1.write_bytes(b"# r\xe9sum\xe9\n" + GOOD_TABLE.encode())

    cases = [
        (["check", "--family", "cyclic:4"], 0),
        (["check", "--table", str(good)], 0),
        (["check", "--table", str(broken)], 1),
        (["orientable", "--table", str(broken)], 1),
        (["check", "--table", str(latin1)], 1),  # not UTF-8
        (["check"], 2),  # no input source
        (["check", "--table", str(good), "--family", "cyclic:2"], 2),
        (["check", "--family", "nosuch:9"], 2),
        (["orientable", "--family", "cyclic:3", "--bound", "0"], 2),
        (["witness", "--family", "cyclic:3", "--element", "zz"], 2),
        (["nosuchverb"], 2),
        (["orientable", "--family", "cyclic:3", "--bound", "x"], 2),
        (["check", "--family", "cyclic:1001"], 2),  # over the order cap
        # a nested operand over the order cap
        (["check", "--family", "directproduct:directproduct:cyclic:40,cyclic:40,cyclic:2"], 2),
        (["commutator", "--family", "leftzero:3"], 3),
        (["abelianization", "--family", "null:3"], 3),
        (["verify", "--family", "leftzero:3", "--suite", "theorems"], 3),
        (["sigma", "--family", "leftzero:3", "--exact"], 4),
        (["orientable", "--family", "fulltransformation:2", "--exact"], 4),
        (["quotient", "--family", "null:3", "--exact"], 4),
        # the bound is checked before the exact path reads the cosets
        (["quotient", "--family", "symmetric:3", "--exact", "--bound", "0"], 2),
        (["witness", "--family", "cyclic:4", "--element", "1", "--exact"], 0),
        # outside [G, G]: answered by the commutative-image filter, not a bound-7 search
        (["witness", "--family", "cyclic:12", "--element", "1", "--bound", "7"], 0),
        (["verify", "--family", "quaternion8", "--suite", "all"], 0),
        (["orientable", "--family", "symmetric:3", "--bound", "3", "--format", "json"], 0),
        (["quotient", "--family", "symmetric:3", "--exact"], 0),
        # --table, so each verb's deferred imports run in a process that never loads catalog
        (["info", "--table", str(good)], 0),
        (["commutator", "--table", str(good), "--pair", "e,a"], 0),
        (["abelianization", "--table", str(good)], 0),
        (["sigma", "--table", str(good), "--exact"], 0),
        (["witness", "--table", str(good), "--pair", "e,a", "--exact"], 0),
        (["verify", "--table", str(good), "--suite", "all"], 0),
    ]

    failures = 0
    for argv, expected in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "semorient", *argv],
            capture_output=True,
            text=True,
        )
        ok = proc.returncode == expected
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] exit {proc.returncode} (expected {expected}): semorient {' '.join(argv)}")
        if not ok:
            failures += 1
            sys.stderr.write(proc.stderr)
        elif proc.returncode != 0 and (
            not proc.stderr.startswith("error:") or proc.stderr.count("\n") != 1
        ):
            # every error, argparse ones included, is one machine-readable line
            failures += 1
            print(f"       stderr is not one 'error:' line: {proc.stderr!r}")

    print(f"{len(cases) - failures} of {len(cases)} exit-code cases passed")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
