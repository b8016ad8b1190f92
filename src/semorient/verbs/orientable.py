"""``orientable``: a witness for every element, by bounded search or ``--exact``."""

from . import EXIT_OK, Result, _bounds, _load, _no_witness
from ..core import adjoin_identity


def run(args) -> Result:
    from ..equations import one_var_to_json, one_var_to_text

    s, subject = _load(args)
    one_var_bound, _ = _bounds(args)
    if args.exact:
        from ..groups import commutator_subgroup, group_structure
        from ..theorems import build_orientable_witness, commutator_decomposition

        group = group_structure(s)
        found = dict.fromkeys(range(s.order))
        for g in commutator_subgroup(group):
            found[g] = build_orientable_witness(group, commutator_decomposition(group, g))
        bound = None
    else:
        from ..search import orientable_set

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
