"""``commutator``: the commutator of a pair, or the whole commutator subgroup."""

from . import EXIT_OK, Result, _load, _pair


def run(args) -> Result:
    from ..groups import commutator, commutator_subgroup, group_structure

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
