"""``sigma``: the class partition from pair-relating equations.

The classes are ker φ (``core._abelian_keys``) in both modes, as in
``quotient``; the search or the exact construction gives the pairs.
"""

from . import EXIT_OK, Result, _bounds, _load
from ..core import _abelian_keys


def run(args) -> Result:
    from ..equations import two_var_to_json

    s, subject = _load(args)
    _, two_var_bound = _bounds(args)
    if args.exact:
        from ..theorems import exact_sigma_report

        pairs = exact_sigma_report(s)
        bound, exactness = None, "exact-group"
    else:
        from ..search import sigma_report

        pairs = sigma_report(s, two_var_bound)
        bound, exactness = two_var_bound, "lower-bound"
    kernel = _abelian_keys(s)[1]
    classes = [[s.names[x] for x in members] for members in kernel.classes()]

    def to_json() -> dict:
        return {
            "subject": subject,
            "exactness": exactness,
            "bound": bound,
            "num_classes": kernel.num_classes,
            "classes": classes,
            "pairs": [two_var_to_json(s.names, w, pair) for pair, w in pairs.items()],
        }

    def to_text() -> str:
        lines = [f"subject: {subject}"]
        lines.append(f"exactness: {exactness}" + ("" if bound is None else f" (bound {bound})"))
        lines.append(f"classes: {kernel.num_classes}")
        for i, members in enumerate(classes):
            lines.append(f"  class {i}: " + " ".join(members))
        lines.append(f"related pairs with witnesses: {len(pairs)}")
        return "\n".join(lines) + "\n"

    return EXIT_OK, to_json, to_text
