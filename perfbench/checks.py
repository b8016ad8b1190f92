"""Output checks that do not trust the program under test.

Witnesses in JSON output are re-evaluated here on the table the benchmark
generated, with none of ``semorient.equations``. Every nonzero exit must keep
the documented stderr contract. Labelling-invariant facts about each job's
output (exit code, output shape) are compared with the record in
``expected.json`` for every seed, and the stdout digest for the default seed.
The small bounded jobs are also re-run through the naive searches of
``tests/oracles.py``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import re
from types import SimpleNamespace

ERROR_LINE = re.compile(r"error: [a-z][a-z-]*: \S.*")
ONE_VAR_TEXT = re.compile(r"\[([^\]]*)\] = \[([^\]]*)\] \* t \* \[([^\]]*)\]")
TWO_VAR_TEXT = re.compile(
    r"\[([^\]]*)\] \* t1 \* \[([^\]]*)\] = \[([^\]]*)\] \* t2 \* \[([^\]]*)\]"
)


def _product(rows, word):
    """Left-to-right product of a non-empty word of element indices."""
    acc = word[0]
    for x in word[1:]:
        acc = rows[acc][x]
    return acc


def witness_problem(table, w):
    """Why the JSON witness ``w`` is invalid on ``table = (names, rows)``, or None."""
    names, rows = table
    index = {name: i for i, name in enumerate(names)}
    try:
        words = [tuple(index[x] for x in w[k]) for k in ("a", "b", "c", "d") if k in w]
    except KeyError as exc:
        return f"unknown element {exc.args[0]!r}"
    if w.get("valid") is not True:
        return "witness not reported valid"
    if w["kind"] == "one-var":
        a, b, c = words
        if w["element"] not in index:
            return "unknown element"
        if not a or not b + c:
            return "empty side"
        if sorted(a) != sorted(b + c):
            return "factor multisets differ"
        if _product(rows, a) != _product(rows, b + (index[w["element"]],) + c):
            return "equation does not hold"
        return None
    a, b, c, d = words
    u, v = w["pair"]
    if u not in index or v not in index:
        return "unknown pair element"
    if not a + b or sorted(a + b) != sorted(c + d):
        return "factor multisets differ"
    if _product(rows, a + (index[u],) + b) != _product(rows, c + (index[v],) + d):
        return "equation does not hold"
    return None


def _witnesses(obj):
    if isinstance(obj, dict):
        if obj.get("kind") in ("one-var", "two-var"):
            yield obj
        for value in obj.values():
            yield from _witnesses(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _witnesses(value)


def _shape(obj):
    """``obj`` with names blanked, witnesses reduced to their size, lists unordered."""
    if isinstance(obj, dict):
        if obj.get("kind") in ("one-var", "two-var"):
            size = len(obj["a"]) + (len(obj["b"]) if obj["kind"] == "two-var" else 0)
            return f"{obj['kind']}:{size}"
        return {key: _shape(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return sorted((_shape(value) for value in obj), key=json.dumps)
    return "s" if isinstance(obj, str) else obj


def summary(code, out):
    """A digest of what every relabelling of the job's input leaves unchanged in its output.

    For JSON that is the shape of the document (see ``_shape``); for text,
    the line count and the sizes of the witnesses it prints.
    """
    text = out.decode("utf-8", "replace")
    if code == 0 and text.startswith("{"):
        shape = _shape(json.loads(text))
    else:
        sizes = [f"one-var:{len(a.split())}" for a, _, _ in ONE_VAR_TEXT.findall(text)]
        sizes += [
            f"two-var:{len(a.split()) + len(b.split())}" for a, b, _, _ in TWO_VAR_TEXT.findall(text)
        ]
        shape = {"lines": text.count("\n"), "sizes": sorted(sizes)}
    return {"code": code, "shape": digest(json.dumps(shape, sort_keys=True).encode())[:16]}


def digest(out):
    return hashlib.sha256(out).hexdigest()


def job_problems(job, code, out, err, expected, exact_bytes):
    """Every way one job's result breaks the contract, as a list of strings.

    ``expected`` is the job's record from ``expected.json`` (or None);
    ``exact_bytes`` also compares the stdout digest, valid only for the seed
    the record was made with.
    """
    problems = []
    err_text = err.decode("utf-8", "replace")
    if code != 0:
        lines = err_text.splitlines()
        if not 1 <= code <= 4:
            problems.append(f"exit code {code} is not a documented error code")
        if "Traceback" in err_text:
            problems.append("traceback on stderr")
        if len(lines) != 1 or not ERROR_LINE.fullmatch(lines[0]):
            problems.append("stderr is not exactly one 'error: <category>: <detail>' line")
    elif err:
        problems.append("stderr not empty on success")
    if job["known_defect"]:
        return problems
    if code != job["code"]:
        problems.append(f"exit code {code}, expected {job['code']}")
    if code == 0 and "json" in job["argv"]:
        try:
            obj = json.loads(out)
        except ValueError:
            return problems + ["stdout is not JSON"]
        for w in _witnesses(obj):
            bad = witness_problem(job["table"], w)
            if bad:
                problems.append(f"witness {w}: {bad}")
    if expected is not None:
        got = summary(code, out)
        if got["code"] != expected["code"]:
            problems.append(f"exit code {code} differs from the recorded {expected['code']}")
        elif got["shape"] != expected["shape"]:
            problems.append("output shape differs from the recorded one")
        if exact_bytes and digest(out) != expected["sha256"]:
            problems.append("stdout differs from the recorded bytes")
    return problems


def load_oracles(path):
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _option(argv, name):
    return argv[argv.index(name) + 1]


def oracle_problems(oracles, job, out):
    """Compare a small bounded job's JSON witnesses with the naive oracle searches."""
    names, rows = job["table"]
    n = len(names)
    index = {name: i for i, name in enumerate(names)}
    monoid = SimpleNamespace(
        base=SimpleNamespace(order=n),
        table=[list(r) + [i] for i, r in enumerate(rows)] + [list(range(n + 1))],
        identity_index=n,
    )
    argv = job["argv"]
    bound = int(_option(argv, "--bound"))
    obj = json.loads(out)

    def words(w, keys):
        return None if w is None else tuple(tuple(index[x] for x in w[k]) for k in keys)

    if argv[0] == "orientable":
        cases = [(index[e["element"]], e["witness"]) for e in obj["elements"]]
    elif "--element" in argv:
        cases = [(index[_option(argv, "--element")], obj if obj.get("kind") else None)]
    else:
        u, v = (index[x] for x in _option(argv, "--pair").split(","))
        want = oracles.naive_search_two_var(monoid, u, v, bound)
        got = words(obj if obj.get("kind") else None, "abcd")
        return [] if got == want else [f"pair ({u}, {v}): got {got}, oracle {want}"]
    problems = []
    for g, w in cases:
        want = oracles.naive_search_one_var(monoid, g, bound)
        got = words(w, "abc")
        if got != want:
            problems.append(f"element {g}: got {got}, oracle {want}")
    return problems
