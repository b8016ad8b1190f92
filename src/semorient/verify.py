"""Verification suites: the exact constructions checked against the bounded search.

Each suite returns a ``VerificationReport`` of named checks. Hard checks
fail the report; soft reports record what a bounded search cannot refute.
The bounded searches are called unfiltered, so a soundness check tests the
search itself rather than the commutative-image filter in front of it.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .core import (
    ONE_VAR_DEFAULT_BOUND,
    TWO_VAR_DEFAULT_BOUND,
    Congruence,
    Semigroup,
    adjoin_identity,
    compatibility_violation,
    idempotents,
    is_cancellative,
    is_commutative,
    quotient,
)
from .equations import OneVarWitness, TwoVarWitness, validate_one_var, validate_two_var
from .groups import (
    GroupStructure,
    NotAGroupError,
    abelianization,
    commutator_subgroup,
    coset_congruence,
    group_structure,
)
from .search import sigma_report, unfiltered_one_var_search, unfiltered_two_var_search
from .theorems import (
    build_orientable_witness,
    commutator_decomposition,
    exact_sigma_report,
)


class CheckResult(NamedTuple):
    check_id: str
    status: str  # pass | fail | soft-report
    details: str
    counterexample: Optional[str] = None


class VerificationReport:
    """The checks run on one subject, in order; the suites append to ``checks``."""

    def __init__(
        self,
        subject: str,
        bounds: dict[str, int],
        checks: Optional[list[CheckResult]] = None,
    ):
        self.subject = subject
        self.bounds = bounds
        self.checks = [] if checks is None else checks

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def _add(self, check_id: str, details: str, failures: list[str]) -> None:
        if failures:
            self.checks.append(
                CheckResult(check_id, "fail", details, failures[0])
            )
        else:
            self.checks.append(CheckResult(check_id, "pass", details))

    def _soft(self, check_id: str, details: str, observations: list[str]) -> None:
        if observations:
            details += (
                f"; {len(observations)} possible violation(s) within bound"
                f" (first: {observations[0]})"
            )
        else:
            details += "; no violations observed"
        self.checks.append(CheckResult(check_id, "soft-report", details))

    def to_json(self) -> dict:
        return {
            "subject": self.subject,
            "bound": dict(self.bounds),
            "checks": [
                {
                    "id": c.check_id,
                    "status": c.status,
                    "details": c.details,
                    **({"counterexample": c.counterexample} if c.counterexample else {}),
                }
                for c in self.checks
            ],
            "passed": self.passed,
        }

    def to_text(self) -> str:
        lines = [
            f"subject: {self.subject}",
            "bounds: " + ", ".join(f"{k} {v}" for k, v in self.bounds.items()),
        ]
        for c in self.checks:
            line = f"  [{c.status}] {c.check_id}: {c.details}"
            if c.counterexample:
                line += f" (counterexample: {c.counterexample})"
            lines.append(line)
        lines.append(f"result: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _one_var_key(w: OneVarWitness):
    return (len(w.a), w.a, w.b, w.c)


def verify_orientable_is_commutator_subgroup(
    group: GroupStructure,
    bound: int = ONE_VAR_DEFAULT_BOUND,
    subject: str = "",
) -> VerificationReport:
    """Check that one-variable witnesses characterize exactly the commutator subgroup.

    Hard checks: (i) a constructed witness of the lawful size validates for
    every commutator-subgroup element; (ii) every witness found by bounded
    search validates and its element is in the subgroup; (iii) at a bound
    covering the largest construction, the searched set equals the subgroup.
    """
    s = group.base
    m = adjoin_identity(s)
    names = s.names
    report = VerificationReport(
        subject or f"group of order {s.order}", {"one-var": bound}
    )
    derived = commutator_subgroup(group)
    derived_set = set(derived)

    failures = []
    k_max = 0
    for g in derived:
        d = commutator_decomposition(group, g)
        k = len(d.pairs)
        k_max = max(k_max, k)
        w = build_orientable_witness(group, d)
        expected_size = 2 + 4 * (max(k, 1) - 1)
        problem = validate_one_var(m, g, w)
        if problem is not None:
            failures.append(f"{names[g]}: {problem}")
        elif w.size != expected_size:
            failures.append(
                f"{names[g]}: witness size {w.size}, expected {expected_size} for k = {k}"
            )
    report._add(
        "constructed-witnesses",
        f"built witnesses for all {len(derived)} commutator-subgroup elements"
        f" (max decomposition length {k_max})",
        failures,
    )

    failures = []
    # unfiltered: the commutative-image filter would make soundness hold by construction
    everything = range(s.order)
    found = unfiltered_one_var_search(m, everything, bound)
    for g, w in found.items():
        if w is None:
            continue
        problem = validate_one_var(m, g, w)
        if problem is not None:
            failures.append(f"{names[g]}: {problem}")
        elif g not in derived_set:
            failures.append(
                f"{names[g]}: search found a witness but the element is "
                "outside the commutator subgroup"
            )
    report._add(
        "bounded-search-sound",
        f"witnesses found at bound {bound} validate and stay in the subgroup",
        failures,
    )

    big = max(bound, 2 + 4 * (max(k_max, 1) - 1))
    full = found if big == bound else unfiltered_one_var_search(m, everything, big)
    got = {g for g, w in full.items() if w is not None}
    failures = (
        []
        if got == derived_set
        else [f"sets differ on elements {sorted(names[x] for x in got ^ derived_set)}"]
    )
    report._add(
        "orientable-set-equals-commutator-subgroup",
        f"searched set at bound {big} has {len(got)} elements, subgroup has {len(derived)}",
        failures,
    )
    return report


def _tables_match_up_to_relabeling(
    c1: Congruence, c2: Congruence, q1: Semigroup, q2: Semigroup
) -> bool:
    if c1.num_classes != c2.num_classes:
        return False
    phi: dict[int, int] = {}
    for x in range(len(c1.class_of)):
        a, b = c1.class_of[x], c2.class_of[x]
        if phi.setdefault(a, b) != b:
            return False
    if len(set(phi.values())) != len(phi):
        return False
    k = c1.num_classes
    return all(
        phi[q1.table[i][j]] == q2.table[phi[i]][phi[j]]
        for i in range(k)
        for j in range(k)
    )


def verify_sigma_is_abelianization(
    group: GroupStructure,
    bound: int = TWO_VAR_DEFAULT_BOUND,
    subject: str = "",
) -> VerificationReport:
    """Check that pair-relating equations reproduce the abelianization of a group.

    Hard checks: (i) a constructed witness validates for every same-coset
    ordered pair; (ii) every pair found by bounded search lives in one coset;
    (iii) the exact classes equal the cosets; (iv) the quotient by the exact
    classes is the abelianization up to class relabeling, commutative and
    cancellative.
    """
    s = group.base
    m = adjoin_identity(s)
    names = s.names
    report = VerificationReport(
        subject or f"group of order {s.order}", {"two-var": bound}
    )
    cosets = coset_congruence(group)
    exact = exact_sigma_report(group)

    # pairs are in ascending (u, v) order, so the first failure is the smallest pair
    witness_failures = []
    for (u, v), w in exact.pairs.items():
        problem = validate_two_var(m, u, v, w)
        if problem is not None:
            witness_failures.append(f"({names[u]}, {names[v]}): {problem}")
    report._add(
        "constructed-pair-witnesses",
        f"built witnesses for all {len(exact.pairs)} same-coset ordered pairs",
        witness_failures,
    )

    failures = []
    # unfiltered, as in bounded-search-sound
    everything = [(u, v) for u in range(s.order) for v in range(s.order)]
    found = {
        pair: w
        for pair, w in unfiltered_two_var_search(m, everything, bound).items()
        if w is not None
    }
    for (u, v), w in found.items():
        problem = validate_two_var(m, u, v, w)
        if problem is not None:
            failures.append(f"({names[u]}, {names[v]}): {problem}")
        elif cosets.class_of[u] != cosets.class_of[v]:
            failures.append(
                f"({names[u]}, {names[v]}): related by search but in different cosets"
            )
    report._add(
        "bounded-pair-search-sound",
        f"{len(found)} ordered pairs found at bound {bound}, all within cosets",
        failures,
    )

    failures = []
    # class ids are canonical (first appearance), so equal partitions compare equal
    if exact.congruence != cosets:
        failures.append("exact classes differ from the coset partition")
    failures += witness_failures[:1]
    report._add(
        "sigma-classes-equal-cosets",
        f"{exact.congruence.num_classes} exact classes, all attached witnesses validate",
        failures,
    )

    q_sigma = quotient(s, exact.congruence)
    ab = abelianization(group)
    failures = []
    if not is_commutative(q_sigma):
        failures.append("quotient is not commutative")
    if not is_cancellative(q_sigma):
        failures.append("quotient is not cancellative")
    if q_sigma.order != ab.order:
        failures.append(f"quotient order {q_sigma.order} != abelianization order {ab.order}")
    elif not _tables_match_up_to_relabeling(exact.congruence, cosets, q_sigma, ab):
        failures.append("quotient table does not match the abelianization")
    report._add(
        "sigma-quotient-is-abelianization",
        f"quotient of order {q_sigma.order} matches the abelianization",
        failures,
    )
    return report


def verify_semigroup_properties(
    s: Semigroup,
    one_var_bound: int = ONE_VAR_DEFAULT_BOUND,
    two_var_bound: int = TWO_VAR_DEFAULT_BOUND,
    subject: str = "",
) -> VerificationReport:
    """Witness families that must exist on any semigroup, plus bounded soft reports.

    Hard checks cover reflexivity, commutation, idempotent witnesses, and
    search monotonicity. Claims a bounded search cannot refute (closure of
    the searched orientable set, relation laws for found pairs, identity-like
    behavior) are soft reports; on groups they are re-run through the exact
    coset path and become hard.
    """
    m = adjoin_identity(s)
    names = s.names
    n = s.order
    report = VerificationReport(
        subject or f"semigroup of order {n}",
        {"one-var": one_var_bound, "two-var": two_var_bound},
    )

    pad = TwoVarWitness((0,), (), (0,), ())
    failures = [
        f"({names[u]}, {names[u]})"
        for u in range(n)
        if validate_two_var(m, u, u, pad) is not None
    ]
    report._add(
        "reflexivity-witnesses",
        f"padding witness validates for all {n} diagonal pairs",
        failures,
    )

    failures = []
    for u in range(n):
        for v in range(n):
            w = TwoVarWitness((v,), (), (), (v,))
            problem = validate_two_var(m, s.table[u][v], s.table[v][u], w)
            if problem is not None:
                failures.append(f"({names[u]}, {names[v]}): {problem}")
    report._add(
        "commutation-witnesses",
        f"(uv, vu) witness validates for all {n * n} ordered pairs",
        failures,
    )

    idems = idempotents(s)
    failures = [
        names[e]
        for e in idems
        if validate_one_var(m, e, OneVarWitness((e, e), (e,), (e,))) is not None
    ]
    report._add(
        "idempotent-witnesses",
        f"canonical witness validates for all {len(idems)} idempotents",
        failures,
    )

    failures = []
    # unfiltered at both bounds: the check tests the search itself
    at_bound = unfiltered_one_var_search(m, range(n), one_var_bound)
    found = [g for g, w in at_bound.items() if w is not None]
    # only elements found at the bound: the others would need the whole next size
    at_next = unfiltered_one_var_search(m, found, one_var_bound + 1)
    for g in found:
        w1, w2 = at_bound[g], at_next[g]
        if w2 is None:
            failures.append(f"{names[g]}: witness lost at bound {one_var_bound + 1}")
        elif _one_var_key(w2) > _one_var_key(w1):
            failures.append(f"{names[g]}: canonical witness grew at a larger bound")
    report._add(
        "search-monotonicity",
        f"witnesses found at bound {one_var_bound} persist at bound {one_var_bound + 1}",
        failures,
    )

    bounded = sigma_report(m, two_var_bound)
    relation = set(bounded.pairs)

    observations = [
        f"{names[u]}*{names[v]} has no witness at bound {one_var_bound}"
        for u in found
        for v in found
        if at_bound[s.table[u][v]] is None
    ]
    report._soft(
        "orientable-product-closure",
        f"{len(found)} elements have witnesses at bound {one_var_bound}",
        observations,
    )

    observations = [
        f"({names[u]}, {names[v]})" for (u, v) in sorted(relation) if (v, u) not in relation
    ]
    report._soft(
        "sigma-relation-symmetry",
        f"{len(relation)} related pairs at bound {two_var_bound}",
        observations,
    )

    observations = []
    by_first: dict[int, list[int]] = {}
    for u, v in relation:
        by_first.setdefault(u, []).append(v)
    for u, v in sorted(relation):
        for w2 in sorted(by_first.get(v, ())):
            if (u, w2) not in relation:
                observations.append(f"({names[u]}, {names[v]}, {names[w2]})")
    report._soft(
        "sigma-relation-transitivity",
        f"composites of {len(relation)} related pairs",
        observations,
    )

    observations = []
    for u, v in sorted(relation):
        for t in range(n):
            if (s.table[t][u], s.table[t][v]) not in relation:
                observations.append(f"left translate of ({names[u]}, {names[v]}) by {names[t]}")
            if (s.table[u][t], s.table[v][t]) not in relation:
                observations.append(f"right translate of ({names[u]}, {names[v]}) by {names[t]}")
    report._soft(
        "sigma-relation-compatibility",
        f"translates of {len(relation)} related pairs",
        observations,
    )

    observations = []
    for u in sorted(found):
        for t in range(n):
            if (s.table[u][t], t) not in relation:
                observations.append(f"({names[u]}*{names[t]}, {names[t]})")
    report._soft(
        "orientable-identity-class",
        f"products of {len(found)} witnessed elements against all elements",
        observations,
    )

    try:
        group = group_structure(s)
    except NotAGroupError:
        group = None
    if group is not None:
        derived = commutator_subgroup(group)
        derived_set = set(derived)
        cosets = coset_congruence(group)
        t = s.table

        failures = [
            f"{names[u]}*{names[v]}"
            for u in derived
            for v in derived
            if t[u][v] not in derived_set
        ]
        report._add(
            "orientable-product-closure-exact",
            "the commutator subgroup is product-closed",
            failures,
        )

        failures = []
        for u in derived:
            for x in range(n):
                if cosets.class_of[t[u][x]] != cosets.class_of[x]:
                    failures.append(f"({names[u]}, {names[x]})")
        report._add(
            "orientable-identity-class-exact",
            "commutator-subgroup elements act as the identity on cosets",
            failures,
        )

        bad = compatibility_violation(s, cosets)
        report._add(
            "sigma-congruence-exact",
            "the exact class partition is compatible with multiplication",
            [] if bad is None else [str(bad)],
        )
    return report
