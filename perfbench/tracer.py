"""Outside-in span tracer for one CLI job, and the per-layer aggregation of its spans.

Run as a script, it runs one traced job::

    python tracer.py SPANS.json JOB_ID -- <semorient argv>

It imports ``semorient``, replaces each function named in ``LAYERS`` by a
wrapper in every ``semorient.*`` module namespace that binds it, and calls
``semorient.cli.run(argv)``. Each wrapped call appends a span
``(name, start, end, parent, job)`` to an in-memory list; the list is written
to ``SPANS.json`` when the job ends, also when it ends in an exception, which
then propagates exactly as it would untraced. The per-element helpers
``commutator``, ``eval_word`` and ``Semigroup.mul`` are deliberately not
wrapped: their cost stays in their callers' self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = {
    "core": (
        "parse_table",
        "check_associativity",
        "serialize_table",
        "adjoin_identity",
        "generated_congruence",
        "compatibility_violation",
        "quotient",
        "is_commutative",
        "is_cancellative",
        "idempotents",
    ),
    "catalog": ("make_family",),
    "equations": (
        "search_one_var",
        "orientable_set",
        "search_two_var",
        "sigma_report",
        "validate_one_var",
        "validate_two_var",
    ),
    "groups": ("group_structure", "commutator_subgroup", "coset_congruence", "abelianization"),
    "theorems": (
        "commutator_decomposition",
        "build_orientable_witness",
        "build_two_var_witness",
        "verify_orientable_is_commutator_subgroup",
        "verify_sigma_is_abelianization",
        "verify_semigroup_properties",
    ),
    "cli": ("run",),
}
CACHED = ("core.adjoin_identity", "groups.commutator_subgroup", "groups.coset_congruence",
          "catalog.make_family")
SEARCHES = ("equations.search_one_var", "equations.search_two_var")
TRACED = tuple(f"{layer}.{name}" for layer, names in LAYERS.items() for name in names)


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for key in TRACED:
        units.update({f"{key}.calls": "count", f"{key}.self_s": "s", f"{key}.total_s": "s"})
    for key in SEARCHES:
        units.update({f"{key}.found": "count", f"{key}.found_ratio": "1"})
    for key in CACHED:
        units[f"{key}.hits"] = "count"
    units["cli.startup_s"] = "s"
    units["trace.overhead_ratio"] = "1"
    return units


def _install(job, spans, found):
    homes = {layer: importlib.import_module(f"semorient.{layer}") for layer in LAYERS}
    modules = [m for k, m in sys.modules.items() if k == "semorient" or k.startswith("semorient.")]
    stack = []
    originals = {}
    for key in TRACED:
        layer, name = key.split(".")
        original = getattr(homes[layer], name)
        originals[key] = original
        wrapper = _wrap(key, original, job, spans, stack, found)
        for module in modules:
            if module.__dict__.get(name) is original:
                setattr(module, name, wrapper)
    return originals


def _wrap(key, fn, job, spans, stack, found):
    counts_found = key in SEARCHES
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = len(spans)
        span = [key, clock(), None, stack[-1] if stack else -1, job]
        spans.append(span)
        stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = clock()
            stack.pop()
        if counts_found and result is not None:
            found[key] += 1
        return result

    return wrapper


def main(argv):
    out_path, job, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.json JOB_ID -- <semorient argv>")
    spans, found = [], Counter()
    originals = _install(job, spans, found)
    import semorient.cli

    code = 1
    try:
        code = semorient.cli.run(cli_argv)
    finally:
        record = {
            "job": job,
            "spans": spans,
            "found": dict(found),
            "hits": {key: originals[key].cache_info().hits for key in CACHED},
        }
        with open(out_path, "w") as f:
            json.dump(record, f)
    sys.exit(code)


def aggregate(records):
    """Sum spans and counters of traced jobs into per-layer metric values.

    ``records`` is a list of ``(job_wall_seconds, record)``. Self time is a
    span's duration minus the durations of its direct children; the calls
    never overlap, so children lie inside their parent.
    """
    calls, self_s, total_s = Counter(), defaultdict(float), defaultdict(float)
    found, hits = Counter(), Counter()
    startup = 0.0
    for wall, record in records:
        spans = record["spans"]
        child = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        run_s = 0.0
        for i, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            total_s[name] += end - start
            self_s[name] += end - start - child[i]
            if name == "cli.run":
                run_s += end - start
        startup += wall - run_s
        found.update(record["found"])
        hits.update(record["hits"])
    values = {}
    for key in TRACED:
        values[f"{key}.calls"] = calls[key]
        values[f"{key}.self_s"] = self_s[key]
        values[f"{key}.total_s"] = total_s[key]
    for key in SEARCHES:
        values[f"{key}.found"] = found[key]
        values[f"{key}.found_ratio"] = found[key] / calls[key] if calls[key] else 0.0
    for key in CACHED:
        values[f"{key}.hits"] = hits[key]
    values["cli.startup_s"] = startup
    return values


if __name__ == "__main__":
    main(sys.argv[1:])
