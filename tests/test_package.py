"""The package surface: lazy exports, the modules each CLI verb loads, and the value types."""

import copy
import os
import pickle
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import semorient
from semorient.catalog import make_family
from semorient.core import (
    Congruence,
    Monoid1,
    adjoin_identity,
    make_semigroup,
)
from semorient.equations import OneVarWitness, SigmaReport, TwoVarWitness
from semorient.groups import group_structure
from semorient.search import sigma_report
from semorient.theorems import CommutatorDecomposition, commutator_decomposition
from semorient.verify import CheckResult, VerificationReport

from conftest import FIXTURES

SRC = Path(__file__).resolve().parent.parent / "src"

# the names ``semorient`` exported when it imported every layer eagerly, by the
# module they were imported from
EXPORTS = {
    "catalog": (
        "CATALOG_FAMILIES", "GROUP_FAMILIES", "NONGROUP_FAMILIES", "FamilyError", "make_family",
    ),
    "core": (
        "AssociativityError", "CompatibilityError", "Congruence", "Monoid1", "Semigroup",
        "SemigroupError", "TableFormatError", "Word", "adjoin_identity", "check_associativity",
        "commutative_congruence", "compatibility_violation", "eval_word",
        "generated_congruence", "idempotents", "is_cancellative", "is_commutative",
        "make_semigroup", "parse_table", "quotient", "serialize_table",
    ),
    "equations": (
        "ONE_VAR_DEFAULT_BOUND", "TWO_VAR_DEFAULT_BOUND", "OneVarWitness", "SigmaReport",
        "TwoVarWitness", "one_var_to_json", "one_var_to_text", "orientable_set",
        "search_one_var", "search_two_var", "sigma_report", "two_var_to_json",
        "two_var_to_text", "unfiltered_one_var_search", "unfiltered_two_var_search",
        "validate_one_var", "validate_two_var", "witness_from_json",
    ),
    "groups": (
        "GroupStructure", "NotAGroupError", "abelianization", "commutator",
        "commutator_subgroup", "coset_congruence", "group_structure",
    ),
    "theorems": (
        "CheckResult", "CommutatorDecomposition", "InvalidDecompositionError",
        "NotInDerivedSubgroupError", "NotRelatedError", "VerificationReport",
        "WitnessConstructionError", "build_orientable_witness", "build_two_var_witness",
        "commutator_decomposition", "decomposition_product", "exact_sigma_report",
        "verify_orientable_is_commutator_subgroup", "verify_semigroup_properties",
        "verify_sigma_is_abelianization",
    ),
}


def test_all_lists_the_exported_names():
    names = [name for group in EXPORTS.values() for name in group]
    assert sorted(semorient.__all__) == sorted(names)
    assert len(set(semorient.__all__)) == len(semorient.__all__)


@pytest.mark.parametrize("layer", EXPORTS)
def test_each_name_is_its_home_modules_object(layer):
    home = import_module(f"semorient.{layer}")
    for name in EXPORTS[layer]:
        assert getattr(semorient, name) is getattr(home, name), name


def test_moved_names_are_one_object():
    core = import_module("semorient.core")
    assert semorient.catalog.FamilyError is core.FamilyError
    assert semorient.groups.NotAGroupError is core.NotAGroupError
    assert semorient.equations.ONE_VAR_DEFAULT_BOUND == core.ONE_VAR_DEFAULT_BOUND == 4
    assert semorient.equations.TWO_VAR_DEFAULT_BOUND == core.TWO_VAR_DEFAULT_BOUND == 3


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        semorient.no_such_name
    with pytest.raises(AttributeError):
        getattr(semorient, "_private")


def test_star_import_binds_every_name():
    namespace = {}
    exec("from semorient import *", namespace)
    for name in semorient.__all__:
        assert namespace[name] is getattr(semorient, name), name


def _loaded(*argv):
    """The modules a fresh interpreter imports running ``python -X importtime *argv``."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *argv], capture_output=True, text=True, env=env
    )
    lines = proc.stderr.splitlines()
    modules = {
        line.rsplit("|", 1)[1].strip() for line in lines if line.startswith("import time:")
    }
    return proc.returncode, modules


BASE = {"semorient", "semorient.cli", "semorient.core"}


@pytest.fixture(scope="module")
def bare():
    """The modules a bare interpreter imports."""
    return _loaded("-c", "pass")[1]


@pytest.mark.parametrize(
    "argv, code, layers",
    [
        ("check --table z2.tbl", 0, set()),
        ("check --table z2.tbl --format json", 0, set()),
        ("check --table bad_assoc.tbl", 1, set()),
        ("check --family cyclic:3", 0, {"catalog"}),
        ("family --family cyclic:3", 0, {"catalog"}),
        ("orientable --table z2.tbl", 0, {"equations", "search"}),
        ("witness --table z2.tbl --element 0", 0, {"equations", "search"}),
        ("witness --table z2.tbl --pair 0,1", 0, {"equations", "search"}),
        ("sigma --table z2.tbl", 0, {"equations", "search"}),
        ("quotient --table z2.tbl", 0, {"equations", "search"}),
        ("info --table s3.tbl", 0, {"groups"}),
        ("commutator --table s3.tbl --pair 021,102", 0, {"groups"}),
        ("abelianization --table s3.tbl", 0, {"groups"}),
        ("sigma --table s3.tbl --exact", 0, {"equations", "groups", "theorems"}),
        ("witness --table s3.tbl --element 120 --exact", 0, {"equations", "groups", "theorems"}),
        ("verify --table s3.tbl", 0, {"equations", "groups", "search", "theorems", "verify"}),
        # the exact quotient reads the coset congruence and builds no witness
        ("quotient --table s3.tbl --exact", 0, {"groups"}),
        ("orientable --table s3.tbl --exact", 0, {"equations", "groups", "theorems"}),
        ("witness --table s3.tbl --pair 120,201 --exact", 0, {"equations", "groups", "theorems"}),
        ("quotient --table s3.tbl --exact --bound 0", 2, set()),
    ],
)
def test_each_verb_loads_only_its_layers(bare, argv, code, layers):
    argv = [str(FIXTURES / a) if a.endswith(".tbl") else a for a in argv.split()]
    got_code, modules = _loaded("-m", "semorient", *argv)
    assert got_code == code
    ours = {m for m in modules if m == "semorient" or m.startswith("semorient.")}
    assert ours == BASE | {f"semorient.{layer}" for layer in layers}
    assert "dataclasses" not in modules - bare


def test_old_modules_resolve_moved_names_only_on_demand():
    # code written against the old homes (the benchmark tracer reads
    # ``semorient.equations.search_one_var``) still finds the moved names
    script = (
        "import sys\n"
        "import semorient.equations as e, semorient.theorems as t\n"
        "assert 'semorient.search' not in sys.modules, 'search loaded'\n"
        "assert 'semorient.verify' not in sys.modules, 'verify loaded'\n"
        "assert e.search_one_var is sys.modules['semorient.search'].search_one_var\n"
        "assert t.VerificationReport is sys.modules['semorient.verify'].VerificationReport\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    for module in (semorient.equations, semorient.theorems):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            module.no_such_name


def test_import_semorient_loads_no_layer():
    code, modules = _loaded("-c", "import semorient")
    assert code == 0
    assert {m for m in modules if m.startswith("semorient")} == {"semorient"}


def _two_of_each():
    """Pairs of equal values of every value type, built independently."""
    names, rows = ["e", "a"], [[0, 1], [1, 0]]
    s1, s2 = make_semigroup(names, rows), make_semigroup(names, rows)
    m2 = adjoin_identity(s2)
    s3 = make_family("symmetric:3")
    g = group_structure(s3)
    return [
        (s1, s2),
        (Congruence((0, 1, 0), 2), Congruence((0, 1, 0), 2)),
        (adjoin_identity(s1), Monoid1(s2, m2.names, m2.table, m2.identity_index)),
        (group_structure(s1), group_structure(s2)),
        (OneVarWitness((0, 1), (1,), (0,)), OneVarWitness((0, 1), (1,), (0,))),
        (TwoVarWitness((0,), (), (0,), ()), TwoVarWitness((0,), (), (0,), ())),
        (commutator_decomposition(g, 3), CommutatorDecomposition(3, ((1, 2),))),
        (CheckResult("c", "pass", "d"), CheckResult("c", "pass", "d", None)),
    ]


@pytest.mark.parametrize("index", range(8))
def test_equal_values_are_equal_and_hash_equal(index):
    a, b = _two_of_each()[index]
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert {a: 1}[b] == 1


def test_unequal_values_differ():
    s = make_semigroup(["e", "a"], [[0, 1], [1, 0]])
    assert s != make_semigroup(["e", "b"], [[0, 1], [1, 0]])
    assert s != (s.names, s.table)
    assert Congruence((0, 1), 2) != Congruence((0, 0), 1)
    assert Congruence((0, 1), 2) != ((0, 1), 2)
    assert OneVarWitness((0, 1), (1,), (0,)) != OneVarWitness((0, 1), (0,), (1,))


@pytest.mark.parametrize("index", range(8))
def test_attribute_assignment_raises(index):
    value, _ = _two_of_each()[index]
    fields = getattr(value, "_fields", None) or type(value).__slots__
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1


def test_records_keep_their_defaults():
    assert CheckResult("c", "pass", "d").counterexample is None
    first, second = VerificationReport("x", {}), VerificationReport("y", {})
    first._add("check", "details", [])
    assert len(first.checks) == 1 and second.checks == []
    rep = sigma_report(adjoin_identity(make_family("cyclic:2")), 1)
    assert rep == SigmaReport(rep.bound, rep.pairs, rep.congruence, rep.exactness)


def test_values_survive_pickle_and_copy():
    s = make_family("symmetric:3")
    for value in (s, adjoin_identity(s), group_structure(s), Congruence((0, 1, 0), 2)):
        for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert twin == value and hash(twin) == hash(value)
    # the caches keyed by semigroups find an unpickled twin
    assert adjoin_identity(pickle.loads(pickle.dumps(s))) is adjoin_identity(s)


def test_unpickled_semigroup_rehashes_in_another_process():
    data = pickle.dumps(make_family("symmetric:3"))
    script = (
        "import pickle, sys\n"
        "from semorient.catalog import make_family\n"
        "s = pickle.loads(sys.stdin.buffer.read())\n"
        "assert hash(s) == hash((s.names, s.table))\n"
        "assert {make_family('symmetric:3'): 'found'}[s] == 'found'\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "1"}
    proc = subprocess.run([sys.executable, "-c", script], input=data, capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr.decode()


def test_semigroup_repr_names_its_fields():
    s = make_semigroup(["e"], [[0]])
    assert repr(s) == "Semigroup(names=('e',), table=((0,),))"
    assert repr(Congruence((0,), 1)) == "Congruence(class_of=(0,), num_classes=1)"
