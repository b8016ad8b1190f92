"""``witness``: a witness for one element or one ordered pair."""

from . import (
    EXIT_OK,
    Result,
    UsageError,
    _bounds,
    _element,
    _load,
    _no_witness,
    _pair,
)


def run(args) -> Result:
    from ..equations import one_var_to_json, one_var_to_text, two_var_to_json, two_var_to_text

    s, _ = _load(args)
    one_var_bound, two_var_bound = _bounds(args)
    if bool(args.element) == bool(args.pair):
        raise UsageError("exactly one of --element or --pair is required")
    # one path for both kinds: an element is the target (g,), a pair (u, v)
    target = (_element(s, args.element),) if args.element else _pair(s, args.pair)
    one = len(target) == 1
    show, as_json = (
        (one_var_to_text, one_var_to_json) if one else (two_var_to_text, two_var_to_json)
    )
    names = [s.names[x] for x in target]
    if not args.exact:
        from ..search import search_one_var, search_two_var

        bound = one_var_bound if one else two_var_bound
        w = (search_one_var if one else search_two_var)(s, *target, bound)
    else:
        from ..theorems import build_orientable_witness, build_two_var_witness

        bound = None
        w = (build_orientable_witness if one else build_two_var_witness)(s, *target)
    note = _no_witness(bound, "not orientable (exact)" if one else "not related (exact)")

    def to_json() -> dict:
        if w is None:
            head = {"element": names[0]} if one else {"pair": names}
            return {**head, "witness": None, "bound": bound, "note": note}
        return as_json(s.names, w, target[0] if one else target)

    def to_text() -> str:
        head = f"element: {names[0]}" if one else f"pair: ({names[0]}, {names[1]})"
        if w is None:
            return f"{head}\n{note}\n"
        # not re-checked, as in ``equations.two_var_to_json``
        return f"{head}\nwitness: {show(s.names, w)}\nvalid: true\n"

    return EXIT_OK, to_json, to_text
