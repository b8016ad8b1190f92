"""Probe: do κ-candidates without a bounded witness occur on random transformation semigroups?

    PYTHONPATH=src python tests/kappa_probe.py [--count 60] [--seed 1] [--max-order 16]
        [--bound 4] [--pair-bound 3]

On groups and commutative tables every element or pair that passes the
abelian-image key test of ``core._abelian_keys`` has a witness. On other
semigroups a passing pair lies in σ_orient, but whether it has a witness of
its own, and whether a passing element does, is an open question. This draws random sets of maps on
3 or 4 points, closes each under composition, and counts the candidates that
have no witness at the bound. A nonzero count is not a counterexample: the
witness may need a larger bound. The probe measures and asserts nothing.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from semorient.core import adjoin_identity, is_commutative, make_semigroup  # noqa: E402
from semorient.groups import NotAGroupError, group_structure  # noqa: E402
from semorient.search import _one_var_candidates, _two_var_candidates  # noqa: E402
from semorient.search import orientable_set, sigma_report  # noqa: E402

from oracles import compose, transformation_table  # noqa: E402


def random_transformation_semigroup(rng, max_order):
    """The closure of 1-3 random maps on 3 or 4 points, or None if it exceeds max_order."""
    points = rng.choice((3, 4))
    gens = rng.randint(1, 3)
    maps = list({tuple(rng.randrange(points) for _ in range(points)) for _ in range(gens)})
    seen = set(maps)
    for f in maps:
        for g in list(maps):
            for h in (compose(f, g), compose(g, f)):
                if h not in seen:
                    if len(seen) == max_order:
                        return None
                    seen.add(h)
                    maps.append(h)
    maps.sort()
    return make_semigroup([f"m{i}" for i in range(len(maps))], transformation_table(maps))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--count", type=int, default=60)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--max-order", type=int, default=16)
    p.add_argument("--bound", type=int, default=4)
    p.add_argument("--pair-bound", type=int, default=3)
    args = p.parse_args()
    rng = random.Random(args.seed)
    tables = {}
    while len(tables) < args.count:
        s = random_transformation_semigroup(rng, args.max_order)
        if s is None or is_commutative(s):
            continue
        try:
            group_structure(s)
            continue
        except NotAGroupError:
            tables.setdefault(s.table, s)
    totals = [0, 0, 0, 0]
    for s in tables.values():
        m = adjoin_identity(s)
        elements = range(s.order)
        candidates = _one_var_candidates(m, elements)
        found = orientable_set(m, args.bound)
        missed = [g for g in candidates if found[g] is None]
        pairs = _two_var_candidates(m, [(u, v) for u in elements for v in elements])
        related = sigma_report(m, args.pair_bound).pairs
        missed_pairs = [pair for pair in pairs if pair not in related]
        totals[0] += len(candidates)
        totals[1] += len(missed)
        totals[2] += len(pairs)
        totals[3] += len(missed_pairs)
        if missed or missed_pairs:
            print(f"order {s.order}: {len(missed)} of {len(candidates)} candidate elements and "
                  f"{len(missed_pairs)} of {len(pairs)} candidate pairs have no witness")
    orders = sorted(s.order for s in tables.values())
    print(f"{len(tables)} semigroups, orders {orders[0]}-{orders[-1]}: "
          f"{totals[1]} of {totals[0]} candidate elements without a witness at bound {args.bound}, "
          f"{totals[3]} of {totals[2]} candidate pairs without one at bound {args.pair_bound}")


if __name__ == "__main__":
    main()
