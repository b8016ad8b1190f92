"""Verification suites: the exact constructions checked against the bounded search.

Each suite takes the table and returns a ``VerificationReport`` of named
checks; off a group the theorems suites raise NotAGroupError before any.
Hard checks fail the report; soft reports record what a bounded search
cannot refute. The private searches ``search._one_var_search`` and
``search._pair_search`` are called unfiltered, on indices built in range, so
a soundness check tests the search itself rather than the commutative-image
filter in front of it. The σ suite checks the cosets of [G, G] against ker φ,
which the exact pairs and the quotient read, and κ, built from the pairs
(xy, yx). No suite searches past its bound: a construction that fits it is a
witness, so the search, least by size first, finds one no larger. The suites
share the one-variable search of each table and bound (``_one_var_witnesses``).
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

from .core import (
    CACHE_SIZE,
    ONE_VAR_DEFAULT_BOUND,
    TWO_VAR_DEFAULT_BOUND,
    Semigroup,
    _abelian_keys,
    commutative_congruence,
    idempotents,
    is_commutative,
    quotient,
)
from .equations import OneVarWitness, TwoVarWitness, validate_one_var, validate_two_var
from .groups import commutator_subgroup, coset_congruence
from .search import _one_var_search, _pair_search, sigma_report
from .theorems import _orientable_witnesses, commutator_decomposition, exact_sigma_report


class CheckResult(NamedTuple):
    check_id: str
    status: str  # pass | fail | soft-report
    details: str
    counterexample: Optional[str] = None


class VerificationReport:
    """The checks run on one subject, in order; the suites append to ``checks``."""

    def __init__(self, subject: str, bounds: dict[str, int]):
        self.subject = subject
        self.bounds = bounds
        self.checks: list[CheckResult] = []

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


@lru_cache(maxsize=CACHE_SIZE)
def _one_var_witnesses(s: Semigroup, bound: int) -> Mapping[int, OneVarWitness]:
    """Each element witnessed at ``bound``, unfiltered, mapped to its canonical witness.

    The suites share it, so a ``verify`` call searches each bound once. The
    cached mapping is shared by every caller, so it is read-only.
    """
    found = _one_var_search(s, range(s.order), bound)
    return MappingProxyType(found)


def _missed(built, found, bound: int) -> Optional[str]:
    """Why the search result ``found`` misses the construction ``built`` (if any), or None."""
    if built is None or built.size > bound or (found is not None and found.size <= built.size):
        return None
    got = "none found" if found is None else f"search found size {found.size}"
    return f"construction of size {built.size} fits bound {bound}, {got}"


def verify_orientable_is_commutator_subgroup(
    s: Semigroup,
    bound: int = ONE_VAR_DEFAULT_BOUND,
    subject: str = "",
) -> VerificationReport:
    """Check that one-variable witnesses characterize exactly the commutator subgroup.

    Hard checks: (i) every commutator-subgroup element gets a constructed
    witness of the lawful size, which the map's builder has validated; the
    map holds None for an element outside ε's class of ker φ, which fails
    with "no constructed witness";
    (ii) every witness found by bounded search validates and its element is
    in the subgroup; (iii) the searched set lies in the subgroup and holds
    every element whose construction fits ``bound``, with a witness no
    larger. The search runs once, at ``bound``, and (ii) and (iii) read it.
    At a bound that covers every construction, (iii) is set equality.
    """
    derived = commutator_subgroup(s)
    derived_set = set(derived)
    names = s.names
    report = VerificationReport(
        subject or f"group of order {s.order}", {"one-var": bound}
    )

    # the map's builder validated each witness it built, and raises on a failure
    witnesses = _orientable_witnesses(s)
    failures = []
    k_max = 0
    for g in derived:
        k = len(commutator_decomposition(s, g))
        k_max = max(k_max, k)
        w = witnesses[g]
        if w is None:
            failures.append(f"{names[g]}: no constructed witness")
            continue
        expected_size = 2 * max(k, 1)
        if w.size != expected_size:
            failures.append(
                f"{names[g]}: witness size {w.size}, expected {expected_size} for k = {k}"
            )
    built = sum(witnesses[g] is not None for g in derived)
    count = "all" if built == len(derived) else f"{built} of"
    report._add(
        "constructed-witnesses",
        f"built witnesses for {count} {len(derived)} commutator-subgroup elements"
        f" (max decomposition length {k_max})",
        failures,
    )

    failures = []
    # unfiltered: the commutative-image filter would make soundness hold by construction
    found = _one_var_witnesses(s, bound)
    for g, w in found.items():
        problem = validate_one_var(s, g, w)
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

    outside = sorted(found.keys() - derived_set)
    failures = [f"{names[g]}: found, but outside the subgroup" for g in outside]
    failures += [
        f"{names[g]}: {why}" for g in derived if (why := _missed(witnesses[g], found.get(g), bound))
    ]
    report._add(
        "orientable-set-equals-commutator-subgroup",
        f"searched set at bound {bound} has {len(found)} elements, subgroup has {len(derived)}",
        failures,
    )
    return report


def verify_sigma_is_abelianization(
    s: Semigroup,
    bound: int = TWO_VAR_DEFAULT_BOUND,
    subject: str = "",
) -> VerificationReport:
    """Check that pair-relating equations reproduce the abelianization of a group.

    Hard checks: (i) the pairs with a constructed witness, which
    ``exact_sigma_report`` has validated, are exactly the same-coset pairs,
    and the search finds every pair whose construction fits ``bound``, with
    a witness no larger; (ii) every pair found by bounded search lives in
    one coset; (iii) the κ-classes are the cosets; (iv) the quotient by
    ker φ, which is the abelianization, is commutative. The search runs
    once, at ``bound``, and (i) and (ii) read it. The exact pairs are read
    from ker φ and κ is built from the pairs (xy, yx), so (i) and (iii) test
    ``coset_congruence``, the partition built from [G, G], against two made
    without it. The quotient of a group is a group, so only commutativity is
    left to check in (iv).
    """
    cosets = coset_congruence(s)
    names = s.names
    report = VerificationReport(
        subject or f"group of order {s.order}", {"two-var": bound}
    )
    exact = exact_sigma_report(s)
    same_coset = set(cosets.pairs())
    # unfiltered, as in bounded-search-sound
    everything = [(u, v) for u in range(s.order) for v in range(s.order)]
    found = _pair_search(s, everything, bound)

    # exact_sigma_report validated every pair's witness, and raises on a failure
    failures = [
        f"({names[u]}, {names[v]}): "
        + ("no witness built in one coset" if (u, v) in same_coset
           else "witness built across cosets")
        for u, v in sorted(same_coset ^ exact.keys())
    ]
    failures += [
        f"({names[u]}, {names[v]}): {why}"
        for (u, v), w in exact.items()
        if (why := _missed(w, found.get((u, v)), bound))
    ]
    report._add(
        "constructed-pair-witnesses",
        f"built witnesses for all {len(exact)} same-coset ordered pairs",
        failures,
    )

    failures = []
    for (u, v), w in found.items():
        problem = validate_two_var(s, u, v, w)
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

    kernel = _abelian_keys(s)[1]
    same_kappa = set(commutative_congruence(s).pairs())
    report._add(
        "sigma-classes-equal-cosets",
        f"{kernel.num_classes} exact classes, all attached witnesses validate",
        [
            f"({names[u]}, {names[v]}): "
            + ("one kappa-class, two cosets" if (u, v) in same_kappa
               else "one coset, two kappa-classes")
            for u, v in sorted(same_kappa ^ same_coset)
        ],
    )

    q_sigma = quotient(s, kernel)
    report._add(
        "sigma-quotient-is-abelianization",
        f"quotient of order {q_sigma.order} matches the abelianization",
        [] if is_commutative(q_sigma) else ["quotient is not commutative"],
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
    behavior) are soft reports. Groups get the same checks: the σ suite
    tests their exact classes.
    """
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
        if validate_two_var(s, u, u, pad) is not None
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
            problem = validate_two_var(s, s.table[u][v], s.table[v][u], w)
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
        if validate_one_var(s, e, OneVarWitness((e, e), (e,), (e,))) is not None
    ]
    report._add(
        "idempotent-witnesses",
        f"canonical witness validates for all {len(idems)} idempotents",
        failures,
    )

    failures = []
    # unfiltered at both bounds: the check tests the search itself
    found = _one_var_witnesses(s, one_var_bound)
    # only elements found at the bound: the others would need the whole next size
    at_next = _one_var_search(s, found, one_var_bound + 1)
    for g, w1 in found.items():
        w2 = at_next.get(g)
        if w2 is None:
            failures.append(f"{names[g]}: witness lost at bound {one_var_bound + 1}")
        elif (w2.size, *w2) > (w1.size, *w1):  # size first, then (a, b, c)
            failures.append(f"{names[g]}: canonical witness grew at a larger bound")
    report._add(
        "search-monotonicity",
        f"witnesses found at bound {one_var_bound} persist at bound {one_var_bound + 1}",
        failures,
    )

    relation = set(sigma_report(s, two_var_bound))

    observations = [
        f"{names[u]}*{names[v]} has no witness at bound {one_var_bound}"
        for u in found
        for v in found
        if s.table[u][v] not in found
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
    return report
