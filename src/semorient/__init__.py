"""Finite semigroup tables, equation witnesses, and commutator-subgroup checks.

The public names are loaded lazily (PEP 562): ``import semorient`` loads no
layer, and the first access to a name imports only the module that defines
it. ``python -m semorient`` runs this file first, so a CLI call then loads
only the layers its verb uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# each layer with the public names it defines
_HOMES = {
    "catalog": (
        "CATALOG_FAMILIES",
        "GROUP_FAMILIES",
        "NONGROUP_FAMILIES",
        "make_family",
    ),
    "core": (
        "ONE_VAR_DEFAULT_BOUND",
        "TWO_VAR_DEFAULT_BOUND",
        "AssociativityError",
        "CompatibilityError",
        "Congruence",
        "FamilyError",
        "NotAGroupError",
        "Semigroup",
        "SemigroupError",
        "TableFormatError",
        "Word",
        "adjoin_identity",
        "check_associativity",
        "commutative_congruence",
        "compatibility_violation",
        "eval_word",
        "generated_congruence",
        "idempotents",
        "is_cancellative",
        "is_commutative",
        "parse_table",
        "quotient",
        "serialize_table",
    ),
    "equations": (
        "OneVarWitness",
        "TwoVarWitness",
        "one_var_to_json",
        "one_var_to_text",
        "two_var_to_json",
        "two_var_to_text",
        "validate_one_var",
        "validate_two_var",
    ),
    "groups": (
        "GroupStructure",
        "abelianization",
        "commutator",
        "commutator_subgroup",
        "coset_congruence",
        "group_structure",
    ),
    "search": (
        "orientable_set",
        "search_one_var",
        "search_two_var",
        "sigma_report",
    ),
    "theorems": (
        "WitnessConstructionError",
        "build_orientable_witness",
        "build_two_var_witness",
        "commutator_decomposition",
        "exact_sigma_report",
    ),
    "verify": (
        "CheckResult",
        "VerificationReport",
        "verify_orientable_is_commutator_subgroup",
        "verify_semigroup_properties",
        "verify_sigma_is_abelianization",
    ),
}
_HOME_OF = {name: layer for layer, names in _HOMES.items() for name in names}

__all__ = list(_HOME_OF)


def __getattr__(name: str):
    if name in _HOMES:  # a layer itself, as ``semorient.core``
        return import_module(f"{__name__}.{name}")
    if name not in _HOME_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME_OF[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value
