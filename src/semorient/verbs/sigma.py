"""``sigma``: the class partition from pair-relating equations."""

from ..cli import EXIT_OK, Result, _bounds, _load
from ..core import adjoin_identity


def run(args) -> Result:
    from ..equations import two_var_to_json

    s, subject = _load(args)
    _, two_var_bound = _bounds(args)
    if args.exact:
        from ..groups import group_structure
        from ..theorems import exact_sigma_report

        rep = exact_sigma_report(group_structure(s))
    else:
        from ..search import sigma_report

        rep = sigma_report(adjoin_identity(s), two_var_bound)
    classes = [[s.names[x] for x in members] for members in rep.congruence.classes()]

    def to_json() -> dict:
        return {
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

    def to_text() -> str:
        lines = [f"subject: {subject}"]
        bound = "" if rep.bound is None else f" (bound {rep.bound})"
        lines.append(f"exactness: {rep.exactness}{bound}")
        lines.append(f"classes: {rep.congruence.num_classes}")
        for i, members in enumerate(classes):
            lines.append(f"  class {i}: " + " ".join(members))
        lines.append(f"related pairs with witnesses: {len(rep.pairs)}")
        return "\n".join(lines) + "\n"

    return EXIT_OK, to_json, to_text
