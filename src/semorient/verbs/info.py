"""``info``: commutativity, cancellativity, idempotents and group detection."""

from . import EXIT_OK, Result, _load
from ..core import NotAGroupError, idempotents, is_cancellative, is_commutative


def run(args) -> Result:
    from ..groups import commutator_subgroup, group_structure

    s, subject = _load(args)
    try:
        group = group_structure(s)
    except NotAGroupError as exc:
        group, group_reason = None, exc.reason
    obj = {
        "subject": subject,
        "order": s.order,
        "elements": list(s.names),
        "commutative": is_commutative(s),
        "cancellative": is_cancellative(s),
        "idempotents": [s.names[e] for e in idempotents(s)],
        "group": group is not None,
    }
    if group is not None:
        derived = commutator_subgroup(s)
        obj["identity"] = s.names[group.identity]
        obj["commutator_subgroup"] = [s.names[g] for g in derived]
        obj["abelianization_order"] = s.order // len(derived)
    else:
        obj["not_a_group_reason"] = group_reason

    def to_text() -> str:
        lines = [f"subject: {subject}", f"order: {s.order}"]
        lines.append("elements: " + " ".join(s.names))
        lines.append(f"commutative: {str(obj['commutative']).lower()}")
        lines.append(f"cancellative: {str(obj['cancellative']).lower()}")
        lines.append("idempotents: " + (" ".join(obj["idempotents"]) or "(none)"))
        if group is not None:
            lines.append(f"group: yes (identity {obj['identity']})")
            lines.append(
                f"commutator subgroup (order {len(obj['commutator_subgroup'])}): "
                + " ".join(obj["commutator_subgroup"])
            )
            lines.append(f"abelianization order: {obj['abelianization_order']}")
        else:
            lines.append(f"group: no ({group_reason})")
        return "\n".join(lines) + "\n"

    return EXIT_OK, lambda: obj, to_text
