"""Seeded job lists for the benchmark workloads.

Every Cayley table is built here from plain Python, never from
``semorient.catalog``, and written as a ``--table`` file with a seeded
relabelling: fresh fixed-width element names and a shuffled element order.
Bounded search, commutator closure and decomposition cost do not depend on
the labelling, so every seed does the same work on different bytes. The only
``--family`` jobs are the ``family`` verb jobs, which time the program's own
write path.

A job is a dict:

* ``id``: stable across seeds, keys the recorded expectations;
* ``argv``: the CLI arguments, with table files named relative to the
  working directory;
* ``table``: ``(names, rows)`` of the table the job reads, or ``None``;
* ``code``: the exit code the contract requires;
* ``oracle``: the job is small enough to re-run through ``tests/oracles.py``;
* ``known_defect``: the job hits a defect of the program that is recorded
  in ``perfbench/baseline.json``; it counts as failed while the defect lasts.
"""

from __future__ import annotations

import random
import string
from itertools import permutations, product

WORKLOADS = ("bounded-search", "exact-and-ingest")

NAME_CHARS = string.ascii_lowercase + string.digits


# ---------------------------------------------------------------- tables

def _from_op(elements, op):
    index = {x: i for i, x in enumerate(elements)}
    return tuple(tuple(index[op(x, y)] for y in elements) for x in elements)


def _compose(f, g):
    # (f*g)(x) = f(g(x))
    return tuple(f[x] for x in g)


def _closure(identity, gens, op):
    """Elements generated by ``gens``, identity first, in breadth-first order."""
    elements = [identity]
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = op(x, g)
                if y not in seen:
                    seen.add(y)
                    elements.append(y)
                    nxt.append(y)
        frontier = nxt
    return elements


def cyclic(n):
    return tuple(tuple((i + j) % n for j in range(n)) for i in range(n))


def dihedral(n):
    """Symmetries of the n-gon as permutations, order 2n, identity first."""
    r = tuple((i + 1) % n for i in range(n))
    s = tuple((-i) % n for i in range(n))
    return _from_op(_closure(tuple(range(n)), (r, s), _compose), _compose)


def symmetric(n):
    return _from_op(list(permutations(range(n))), _compose)


def alternating4():
    def even(p):
        return sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2 == 0

    return _from_op([p for p in permutations(range(4)) if even(p)], _compose)


def _qmul(p, q):
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


def quaternion8():
    return _from_op(_closure((1, 0, 0, 0), ((0, 1, 0, 0), (0, 0, 1, 0)), _qmul), _qmul)


def full_transformation(n):
    return _from_op(list(product(range(n), repeat=n)), _compose)


def left_zero(n):
    return tuple(tuple(i for _ in range(n)) for i in range(n))


def null(n):
    """Element 0 is the zero; every product is 0."""
    return tuple(tuple(0 for _ in range(n)) for _ in range(n))


def rectangular_band(p, q):
    elements = [(a, b) for a in range(p) for b in range(q)]
    return _from_op(elements, lambda x, y: (x[0], y[1]))


def semilattice(k):
    """Subsets of a k-set under union: a commutative idempotent monoid, not a group."""
    return tuple(tuple(i | j for j in range(1 << k)) for i in range(1 << k))


def direct_product(a, b):
    nb = len(b)
    return tuple(
        tuple(a[i // nb][j // nb] * nb + b[i % nb][j % nb] for j in range(len(a) * nb))
        for i in range(len(a) * nb)
    )


def group_with_left_zeros(group, zeros):
    """``zeros`` left-zero elements first, then the group; g*l = l for every g.

    Every triple starting with a left zero associates, so a defect planted in
    the group block is found only after the scan has passed all of them.
    """
    n = zeros + len(group)
    rows = [tuple(i for _ in range(n)) for i in range(zeros)]
    for row in group:
        rows.append(tuple(range(zeros)) + tuple(zeros + x for x in row))
    return tuple(rows)


# ---------------------------------------------------------------- relabelling

def _fresh_names(rng, n):
    names = set()
    while len(names) < n:
        names.add("".join(rng.choice(NAME_CHARS) for _ in range(3)))
    names = sorted(names)
    rng.shuffle(names)
    return tuple(names)


def relabel(rows, rng, fixed=0):
    """Shuffle element order (keeping the first ``fixed`` in place) and rename.

    Returns ``(names, rows, position)``, where ``position[i]`` is the new
    index of the element that had index ``i``.
    """
    n = len(rows)
    tail = list(range(fixed, n))
    rng.shuffle(tail)
    position = list(range(fixed)) + tail
    new = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            new[position[i]][position[j]] = position[rows[i][j]]
    return _fresh_names(rng, n), tuple(map(tuple, new)), position


def table_text(names, rows):
    lines = ["elements: " + " ".join(names), "table:"]
    lines.extend(" ".join(names[x] for x in row) for row in rows)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- jobs

class _Builder:
    """Collects the tables and jobs of one workload for one seed."""

    def __init__(self, workload, seed):
        self.rng = random.Random(f"{workload}/{seed}")
        self.files = {}
        self.jobs = []
        self.prefix = ""

    def table(self, label, rows, fixed=0):
        """Relabel ``rows`` and register it as file ``<label>.tbl``.

        Returns ``(file, names, rows, name_of)``; ``name_of(i)`` is the new
        name of the element with original index ``i``.
        """
        names, new_rows, position = relabel(rows, self.rng, fixed)
        path = f"{self.prefix}{label}.tbl"
        self.files[path] = table_text(names, new_rows).encode()
        return path, names, new_rows, lambda i: names[position[i]]

    def job(self, jid, argv, table=None, code=0, oracle=False, known_defect=False):
        self.jobs.append(
            {
                "id": jid,
                "argv": list(argv),
                "table": table,
                "code": code,
                "oracle": oracle,
                "known_defect": known_defect,
            }
        )


def _orientable_bounded(b):
    """One-variable search: ``orientable`` and ``witness --element``."""
    tables = {
        "s3": symmetric(3),
        "d4": dihedral(4),
        "q8": quaternion8(),
        "c6": cyclic(6),
        "d6": dihedral(6),
        "a4": alternating4(),
        "d8": dihedral(8),
        "s4": symmetric(4),
        "t2": full_transformation(2),
        "null5": null(5),
        "lz6": left_zero(6),
        "rb23": rectangular_band(2, 3),
        "sl3": semilattice(3),
        "c2xt2": direct_product(cyclic(2), full_transformation(2)),
    }
    t = {label: b.table(label, rows) for label, rows in tables.items()}

    def orient(jid, label, bound, fmt, oracle=False):
        path, names, rows, _ = t[label]
        b.job(jid, ["orientable", "--table", path, "--bound", str(bound), "--format", fmt],
              (names, rows), oracle=oracle)

    def element(jid, label, i, bound, fmt, oracle=False):
        path, names, rows, name_of = t[label]
        b.job(jid, ["witness", "--table", path, "--element", name_of(i),
                    "--bound", str(bound), "--format", fmt], (names, rows), oracle=oracle)

    orient("o-s3-3", "s3", 3, "json")
    orient("o-s3-4", "s3", 4, "text")
    orient("o-d4-3", "d4", 3, "json")
    orient("o-d4-5", "d4", 5, "text")
    orient("o-q8-4", "q8", 4, "json")
    orient("o-c6-4", "c6", 4, "text")
    orient("o-d6-4", "d6", 4, "json")
    orient("o-a4-4", "a4", 4, "text")
    orient("o-d8-3", "d8", 3, "json")
    orient("o-t2-4", "t2", 4, "json", oracle=True)
    orient("o-null5-3", "null5", 3, "json", oracle=True)
    orient("o-lz6-5", "lz6", 5, "text")
    orient("o-rb23-4", "rb23", 4, "json")
    orient("o-sl3-4", "sl3", 4, "text")
    orient("o-c2xt2-3", "c2xt2", 3, "json")
    # elements outside [G, G] run the search to its bound; bound 5 reaches
    # the 5! orderings step
    for i in (1, 2, 3, 5):
        element(f"w-s3-{i}-5", "s3", i, 5, "json" if i % 2 else "text")
    for i in (1, 4, 5):
        element(f"w-d4-{i}-5", "d4", i, 5, "text" if i % 2 else "json")
    for i in (1, 2):
        element(f"w-q8-{i}-5", "q8", i, 5, "json" if i % 2 else "text")
    for i in (1, 2, 7):
        element(f"w-d6-{i}-4", "d6", i, 4, "text" if i % 2 else "json")
    element("w-a4-1-4", "a4", 1, 4, "json")
    element("w-d8-1-4", "d8", 1, 4, "text")
    element("w-s4-1-4", "s4", 1, 4, "json")
    for i in (3, 6):
        element(f"w-s4-{i}-3", "s4", i, 3, "text" if i % 2 else "json")
    element("w-c6-1-3", "c6", 1, 3, "json", oracle=True)
    element("w-c6-3-3", "c6", 3, 3, "text")
    element("w-t2-1-3", "t2", 1, 3, "json", oracle=True)
    element("w-t2-2-3", "t2", 2, 3, "json", oracle=True)
    element("w-null5-2-3", "null5", 2, 3, "json", oracle=True)
    element("w-lz6-2-3", "lz6", 2, 3, "text")
    element("w-sl3-5-4", "sl3", 5, 4, "json")
    element("w-rb23-4-3", "rb23", 4, 3, "json", oracle=True)


def _sigma_bounded(b):
    """Two-variable search: bounded ``sigma``, ``quotient``, ``witness --pair`` and ``verify``."""
    tables = {
        "s3": symmetric(3),
        "c4": cyclic(4),
        "d4": dihedral(4),
        "q8": quaternion8(),
        "d6": dihedral(6),
        "a4": alternating4(),
        "s4": symmetric(4),
        "d8": dihedral(8),
        "c2xd4": direct_product(cyclic(2), dihedral(4)),
        "c3xs3": direct_product(cyclic(3), symmetric(3)),
        "t2": full_transformation(2),
        "c3xt2": direct_product(cyclic(3), full_transformation(2)),
        "null4": null(4),
        "rb22": rectangular_band(2, 2),
        "sl3": semilattice(3),
        "lz5": left_zero(5),
    }
    t = {label: b.table(label, rows) for label, rows in tables.items()}

    def verb(jid, name, label, bound, fmt, oracle=False):
        path, names, rows, _ = t[label]
        b.job(jid, [name, "--table", path, "--bound", str(bound), "--format", fmt],
              (names, rows), oracle=oracle)

    def pair(jid, label, i, j, bound, fmt, oracle=False):
        path, names, rows, name_of = t[label]
        b.job(jid, ["witness", "--table", path, "--pair", f"{name_of(i)},{name_of(j)}",
                    "--bound", str(bound), "--format", fmt], (names, rows), oracle=oracle)

    verb("s-s3-3", "sigma", "s3", 3, "json")
    verb("s-s3-2", "sigma", "s3", 2, "text")
    verb("s-c4-3", "sigma", "c4", 3, "text")
    verb("s-d4-3", "sigma", "d4", 3, "json")
    verb("s-q8-3", "sigma", "q8", 3, "text")
    verb("s-d6-3", "sigma", "d6", 3, "json")
    verb("s-a4-2", "sigma", "a4", 2, "text")
    verb("s-s4-2", "sigma", "s4", 2, "json")
    verb("s-d8-2", "sigma", "d8", 2, "text")
    verb("s-c2xd4-2", "sigma", "c2xd4", 2, "json")
    verb("s-c3xs3-2", "sigma", "c3xs3", 2, "text")
    verb("s-t2-3", "sigma", "t2", 3, "json")
    verb("s-c3xt2-2", "sigma", "c3xt2", 2, "text")
    verb("s-null4-3", "sigma", "null4", 3, "text")
    verb("s-rb22-3", "sigma", "rb22", 3, "json")
    verb("s-sl3-2", "sigma", "sl3", 2, "text")
    verb("s-lz5-3", "sigma", "lz5", 3, "json")
    verb("q-s3-3", "quotient", "s3", 3, "text")
    verb("q-d4-2", "quotient", "d4", 2, "json")
    verb("q-q8-2", "quotient", "q8", 2, "text")
    verb("q-d6-2", "quotient", "d6", 2, "text")
    verb("q-a4-2", "quotient", "a4", 2, "json")
    verb("q-t2-3", "quotient", "t2", 3, "json")
    verb("q-sl3-3", "quotient", "sl3", 3, "text")
    # pairs in different cosets run the search to its bound
    for i, j in ((0, 1), (3, 4), (2, 5)):
        pair(f"p-s3-{i}{j}-3", "s3", i, j, 3, "json" if i % 2 else "text")
    for i, j in ((0, 1), (2, 7)):
        pair(f"p-d4-{i}{j}-3", "d4", i, j, 3, "text" if j % 2 else "json")
    for i, j in ((0, 1), (2, 5)):
        pair(f"p-q8-{i}{j}-3", "q8", i, j, 3, "json")
    for i, j in ((0, 1), (3, 8)):
        pair(f"p-d6-{i}{j}-3", "d6", i, j, 3, "text" if i % 2 else "json")
    for i, j in ((0, 1), (4, 9)):
        pair(f"p-a4-{i}{j}-3", "a4", i, j, 3, "json" if i % 2 else "text")
    pair("p-s4-01-2", "s4", 0, 1, 2, "text")
    pair("p-c4-13-2", "c4", 1, 3, 2, "json", oracle=True)
    pair("p-t2-01-2", "t2", 0, 1, 2, "json", oracle=True)
    pair("p-t2-23-2", "t2", 2, 3, 2, "json", oracle=True)
    pair("p-null4-12-2", "null4", 1, 2, 2, "json", oracle=True)
    pair("p-rb22-03-2", "rb22", 0, 3, 2, "json", oracle=True)
    pair("p-lz5-14-3", "lz5", 1, 4, 3, "text")
    # the propositions suite runs both searches on non-groups
    for label, fmt in (("rb22", "json"), ("sl3", "text")):
        path, names, rows, _ = t[label]
        b.job(f"v-{label}-3", ["verify", "--suite", "propositions", "--table", path,
                               "--bound", "3", "--format", fmt], (names, rows))


def _exact_group(b):
    """The decision-procedure path on groups of order 24-144, plus small ``verify``."""
    tables = {
        "s4": symmetric(4),
        "d12": dihedral(12),
        "a4xc3": direct_product(alternating4(), cyclic(3)),
        "s3xc8": direct_product(symmetric(3), cyclic(8)),
        "s4xc2": direct_product(symmetric(4), cyclic(2)),
        "d24": dihedral(24),
        "s3xs3": direct_product(symmetric(3), symmetric(3)),
        "d36": dihedral(36),
        "q8xs3": direct_product(quaternion8(), symmetric(3)),
        "a4xa4": direct_product(alternating4(), alternating4()),
        "s3xs4": direct_product(symmetric(3), symmetric(4)),
        "s3": symmetric(3),
        "d4": dihedral(4),
        "q8": quaternion8(),
    }
    t = {label: b.table(label, rows) for label, rows in tables.items()}

    def verb(jid, argv0, label, fmt, *extra, code=0):
        path, names, rows, _ = t[label]
        b.job(jid, [*argv0, "--table", path, *extra, "--format", fmt], (names, rows), code=code)

    def named(label, *idx):
        return ",".join(t[label][3](i) for i in idx)

    for label, fmt in (("s4", "json"), ("d12", "text"), ("a4xc3", "json"), ("s3xc8", "text"),
                       ("s3xs3", "json"), ("s4xc2", "text"), ("d24", "json"), ("q8xs3", "text"),
                       ("d36", "json")):
        verb(f"s-{label}", ["sigma", "--exact"], label, fmt)
    for label, fmt in (("s4", "text"), ("d12", "json"), ("s3xs3", "text"), ("s4xc2", "json"),
                       ("d24", "text")):
        verb(f"q-{label}", ["quotient", "--exact"], label, fmt)
    for label, fmt in (("s4", "json"), ("d12", "text"), ("a4xc3", "text"), ("s3xc8", "json"),
                       ("s4xc2", "json"), ("d24", "text"), ("s3xs3", "json"), ("d36", "text"),
                       ("q8xs3", "json"), ("a4xa4", "text"), ("s3xs4", "json")):
        verb(f"o-{label}", ["orientable", "--exact"], label, fmt)
    for label, i, fmt in (("s4", 3, "json"), ("d24", 2, "text"), ("d36", 4, "json"),
                          ("q8xs3", 1, "text"), ("s3xs4", 7, "json")):
        verb(f"we-{label}-{i}", ["witness", "--exact"], label, fmt, "--element", named(label, i))
    for label, i, j, fmt in (("s4", 1, 2, "text"), ("d12", 0, 4, "json"), ("d36", 2, 6, "text"),
                             ("q8xs3", 0, 12, "json"), ("a4xa4", 3, 9, "json")):
        verb(f"wp-{label}-{i}-{j}", ["witness", "--exact"], label, fmt, "--pair",
             named(label, i, j))
    for label, fmt in (("s4", "text"), ("d12", "json"), ("s3xc8", "text"), ("d24", "json"),
                       ("d36", "text"), ("q8xs3", "json"), ("a4xa4", "text")):
        verb(f"ab-{label}", ["abelianization"], label, fmt)
    for label, fmt in (("s3", "text"), ("d4", "json"), ("q8", "text")):
        verb(f"v-{label}", ["verify", "--suite", "theorems"], label, fmt)


def _table_ingest(b):
    """Parse, associativity check and serialization on tables of order 150-300."""
    valid = {
        "c150": cyclic(150),
        "c300": cyclic(300),
        "d75": dihedral(75),
        "s3xc25": direct_product(symmetric(3), cyclic(25)),
        "a4xc16": direct_product(alternating4(), cyclic(16)),
        "rb10x15": rectangular_band(10, 15),
        "lz150": left_zero(150),
        "null150": null(150),
        "t3xc6": direct_product(full_transformation(3), cyclic(6)),
    }
    t = {label: b.table(label, rows) for label, rows in valid.items()}

    def verb(name, label, fmt, code=0):
        path, names, rows, _ = t[label]
        b.job(f"{name}-{label}", [name, "--table", path, "--format", fmt], (names, rows), code=code)

    for label, fmt in (("c150", "text"), ("d75", "json"), ("s3xc25", "text"),
                       ("rb10x15", "json"), ("lz150", "text"),
                       ("null150", "json"), ("t3xc6", "text"), ("c300", "json")):
        verb("check", label, fmt)
    for label, fmt in (("c150", "json"), ("d75", "text"), ("s3xc25", "json"), ("a4xc16", "text"),
                       ("rb10x15", "text"), ("lz150", "json"), ("null150", "text"),
                       ("t3xc6", "json")):
        verb("info", label, fmt)
    for label, fmt in (("c150", "text"), ("d75", "json"), ("s3xc25", "text"),
                       ("a4xc16", "json")):
        verb("commutator", label, fmt)
    for label, fmt in (("rb10x15", "json"), ("null150", "text"), ("t3xc6", "text")):
        verb("commutator", label, fmt, code=3)
    for spec, fmt in (("cyclic:150", "text"), ("dihedral:75", "json"),
                      ("leftzero:150", "text"), ("directproduct:symmetric:3,cyclic:25", "text"),
                      # a repeated operand: one make_family cache hit
                      ("directproduct:cyclic:13,cyclic:13", "json")):
        b.job(f"family-{spec}", ["family", "--family", spec, "--format", fmt])

    # non-associative tables: exit 1 with one error line
    for label, group, zeros, fmt in (("na150", dihedral(6), 138, "text"),
                                     ("na160", quaternion8(), 152, "json"),
                                     ("na200", symmetric(3), 194, "text")):
        rows = [list(r) for r in group_with_left_zeros(group, zeros)]
        # plant e*e = g1: the first failing triple is (e, e, g2) at index
        # ``zeros``, past nine tenths of the scan for every seed
        rows[zeros][zeros] = zeros + 1
        path, _, _, _ = b.table(label, rows, fixed=zeros + 1)
        b.job(f"check-{label}", ["check", "--table", path, "--format", fmt], code=1)

    # malformed tables, each broken near its end: exit 1 with one error line
    malformed = {
        "short-row": lambda lines: lines[:-1] + [lines[-1].rsplit(" ", 1)[0]],
        "unknown-name": lambda lines: lines[:-1] + [lines[-1][:-3] + "###"],
        "extra-row": lambda lines: lines + [lines[-1]],
        "missing-row": lambda lines: lines[:-1],
        "no-table-line": lambda lines: lines[:1] + lines[2:],
        "duplicate-name": lambda lines: [lines[0].rsplit(" ", 1)[0] + lines[0][9:13]] + lines[1:],
    }
    for source in ("c150", "d75"):
        lines = b.files[t[source][0]].decode().splitlines()
        for kind, mutate in malformed.items():
            if source == "d75" and kind in ("no-table-line", "duplicate-name", "missing-row"):
                continue
            path = f"{b.prefix}bad-{kind}-{source}.tbl"
            b.files[path] = ("\n".join(mutate(lines)) + "\n").encode()
            b.job(f"check-bad-{kind}-{source}", ["check", "--table", path, "--format", "text"],
                  code=1)
    # a Latin-1 byte in a comment: exits 1 with a traceback and no error line
    path = f"{b.prefix}bad-latin1.tbl"
    lines = b.files[t["c150"][0]].split(b"\n")
    b.files[path] = b"\n".join(lines[:-20] + [b"# r\xe9sum\xe9"] + lines[-20:])
    b.job("check-bad-latin1", ["check", "--table", path, "--format", "text"], code=1,
          known_defect=True)


# Each workload joins two job lists, one prefix each for their table files.
_BUILDERS = {
    "bounded-search": (("one-", _orientable_bounded), ("two-", _sigma_bounded)),
    "exact-and-ingest": (("exact-", _exact_group), ("ingest-", _table_ingest)),
}


def build(workload, seed):
    """Return ``(files, jobs)``: table file bytes by relative name, and the job list."""
    b = _Builder(workload, seed)
    for prefix, add_jobs in _BUILDERS[workload]:
        b.prefix = prefix
        add_jobs(b)
    return b.files, b.jobs
