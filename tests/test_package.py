"""The package surface: lazy exports, the modules each CLI verb loads, and the value types."""

import ast
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


def test_a_layer_reads_as_a_package_attribute(monkeypatch):
    core = import_module("semorient.core")
    # after ``import semorient`` alone the layer is no attribute yet; __getattr__ imports it
    monkeypatch.delattr(semorient, "core")
    assert semorient.core is core


def test_no_assert_statements_in_the_package():
    # a check that carries correctness must still run under python -O, which drops asserts
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted((SRC / "semorient").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _imported_modules(path: Path):
    """The absolute names of the modules a source file imports, relative imports resolved."""
    package = list(path.relative_to(SRC).parent.parts)
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(package[: len(package) - node.level + 1] if node.level else [])
            module = ".".join(filter(None, (base, node.module)))
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def test_only_main_imports_the_cli():
    # cli is the process edge: a module that imports it brings back the cli <-> verbs
    # cycle, and ``python -m semorient.cli`` would then hold two copies of cli
    main = SRC / "semorient" / "__main__.py"
    found = [
        f"{path.relative_to(SRC)}: {name}"
        for path in sorted((SRC / "semorient").rglob("*.py"))
        if path != main
        for name in _imported_modules(path)
        if name == "semorient.cli" or name.startswith("semorient.cli.")
    ]
    assert found == []
    assert "semorient.cli.main" in set(_imported_modules(main))


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


# Prepended to the code a fresh interpreter runs: when the process ends through
# ``os._exit``, as ``cli.main`` ends it, stderr's last line lists ``sys.modules``.
_REPORT = (
    "import os, sys\n"
    "def _report(code, _exit=os._exit):\n"
    "    sys.stderr.write(' '.join(sorted(sys.modules)) + '\\n')\n"
    "    sys.stderr.flush()\n"
    "    _exit(code)\n"
    "os._exit = _report\n"
)
# ``python -m semorient``, run from the -c prelude
CLI = "import runpy\nrunpy.run_module('semorient', run_name='__main__', alter_sys=True)"


def _loaded(code, *argv):
    """The exit code and the modules a fresh interpreter holds when ``code`` ends it.

    ``code`` runs with ``sys.argv[1:] == argv``. The modules are read from
    ``sys.modules`` at the end, so imports through ``importlib.import_module``
    count too.
    """
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", f"{_REPORT}{code}\nos._exit(0)\n", *argv],
        capture_output=True, text=True, env=env,
    )
    return proc.returncode, set(proc.stderr.splitlines()[-1].split())


BASE = {"semorient", "semorient.cli", "semorient.core", "semorient.verbs"}


@pytest.fixture(scope="module")
def bare():
    """The modules a bare interpreter imports."""
    return _loaded("pass")[1]


def _cli_loads(argv, code, layers):
    """Run the CLI on ``argv``; check its exit code and ``semorient`` modules, return all modules.

    ``layers`` names the modules beyond BASE; a verb's module brings its package.
    """
    argv = [str(FIXTURES / a) if a.endswith(".tbl") else a for a in argv.split()]
    got_code, modules = _loaded(CLI, *argv)
    assert got_code == code
    ours = {m for m in modules if m == "semorient" or m.startswith("semorient.")}
    expected = {f"semorient.{layer}" for layer in layers}
    assert ours == BASE | expected | {m.rpartition(".")[0] for m in expected}
    return modules


@pytest.mark.parametrize(
    "argv, code, layers",
    [
        ("check --table z2.tbl", 0, {"verbs.check"}),
        ("check --table z2.tbl --format json", 0, {"verbs.check"}),
        ("check --table bad_assoc.tbl", 1, {"verbs.check"}),
        ("check --family cyclic:3", 0, {"catalog", "verbs.check"}),
        ("family --family cyclic:3", 0, {"catalog", "verbs.family"}),
        ("orientable --table z2.tbl", 0, {"equations", "search", "verbs.orientable"}),
        ("witness --table z2.tbl --element 0", 0, {"equations", "search", "verbs.witness"}),
        ("witness --table z2.tbl --pair 0,1", 0, {"equations", "search", "verbs.witness"}),
        ("sigma --table z2.tbl", 0, {"equations", "search", "verbs.sigma"}),
        ("quotient --table z2.tbl", 0, {"equations", "search", "verbs.quotient"}),
        ("info --table s3.tbl", 0, {"groups", "verbs.info"}),
        ("commutator --table s3.tbl --pair 021,102", 0, {"groups", "verbs.commutator"}),
        ("abelianization --table s3.tbl", 0, {"groups", "verbs.abelianization"}),
        ("sigma --table s3.tbl --exact", 0, {"equations", "groups", "theorems", "verbs.sigma"}),
        ("witness --table s3.tbl --element 120 --exact", 0,
         {"equations", "groups", "theorems", "verbs.witness"}),
        ("verify --table s3.tbl", 0,
         {"equations", "groups", "search", "theorems", "verify", "verbs.verify"}),
        # the exact quotient reads the coset congruence and builds no witness
        ("quotient --table s3.tbl --exact", 0, {"groups", "verbs.quotient"}),
        ("orientable --table s3.tbl --exact", 0,
         {"equations", "groups", "theorems", "verbs.orientable"}),
        ("witness --table s3.tbl --pair 120,201 --exact", 0,
         {"equations", "groups", "theorems", "verbs.witness"}),
        ("quotient --table s3.tbl --exact --bound 0", 2, {"verbs.quotient"}),
    ],
)
def test_each_verb_loads_only_its_layers(bare, argv, code, layers):
    modules = _cli_loads(argv, code, layers)
    assert not {"argparse", "gettext", "dataclasses"} & (modules - bare)


@pytest.mark.parametrize(
    "argv, code, layers",
    [
        ("check --help", 0, set()),
        ("check --nosuch", 2, set()),
        # an abbreviation, ``--opt=value`` and a value starting with ``-`` are
        # left to argparse, which accepts them as before
        ("check --tab z2.tbl", 0, {"verbs.check"}),
        ("orientable --table z2.tbl --bound=2", 0,
         {"equations", "search", "verbs.orientable"}),
        ("witness --table s3.tbl --element=120 --exact", 0,
         {"equations", "groups", "theorems", "verbs.witness"}),
        ("orientable --table z2.tbl --bound -1", 2, {"equations", "verbs.orientable"}),
    ],
)
def test_argv_the_plain_path_declines_loads_argparse(bare, argv, code, layers):
    modules = _cli_loads(argv, code, layers)
    assert "argparse" in modules - bare


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
    code, modules = _loaded("import semorient")
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
