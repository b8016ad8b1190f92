import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semorient import catalog, cli, groups, verbs
from semorient.cli import run
from semorient.core import (
    MAX_BOUND,
    generated_congruence,
    parse_table,
    quotient,
    serialize_table,
)
from semorient.catalog import make_family
from semorient.search import sigma_report

from conftest import FIXTURES
from oracles import width_two_group, witness_problem

SRC = Path(__file__).resolve().parent.parent / "src"


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_check_family_ok():
    code, out, err = invoke("check", "--family", "cyclic:4")
    assert code == 0
    assert "order 4" in out


def test_check_table_fixture():
    code, out, _ = invoke("check", "--table", str(FIXTURES / "z2.tbl"))
    assert code == 0


def test_check_invalid_table_exit_1():
    for verb in ("check", "orientable"):
        code, out, err = invoke(verb, "--table", str(FIXTURES / "bad_assoc.tbl"))
        assert (code, out) == (1, ""), verb
        assert err.startswith("error: invalid-table:"), verb
        assert err.count("\n") == 1 and err.endswith("\n"), verb
        assert "triple" in err, verb


def test_non_utf8_table_exit_1(tmp_path):
    path = tmp_path / "latin1.tbl"
    path.write_bytes(b"# r\xe9sum\xe9\nelements: e\ntable:\ne\n")
    code, out, err = invoke("check", "--table", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: invalid-table: not valid UTF-8 at byte offset 3\n"


def test_usage_errors_exit_2():
    for argv in (
        ("check",),
        ("check", "--family", "cyclic:2", "--table", "x"),
        ("check", "--family", "nosuch:1"),
        ("witness", "--family", "cyclic:2"),
        ("witness", "--family", "cyclic:2", "--element", "0", "--pair", "0,1"),
        ("witness", "--family", "cyclic:2", "--pair", "0"),
        ("orientable", "--family", "cyclic:2", "--bound", "-1"),
        ("nosuchverb",),
        ("check", "--family", "cyclic:2", "--bound", "2"),
        ("orientable", "--family", "cyclic:2", "--bound", "x"),
        ("witness", "--family", "quaternion8", "--pair", "-1,i"),
        ("witness", "--family", "cyclic:2", "--element", "zz"),
        # a bound below 1 is refused by the verb, not by argparse, before the exact path runs
        ("orientable", "--family", "cyclic:3", "--bound", "0"),
        ("quotient", "--family", "symmetric:3", "--exact", "--bound", "0"),
    ):
        code, out, err = invoke(*argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: usage:"), argv
        assert err.count("\n") == 1 and err.endswith("\n"), argv
    # on a group the pair is parsed, and an unknown name is a usage error
    assert invoke("commutator", "--family", "cyclic:3", "--pair", "0,zz") == (
        2, "", "error: usage: unknown element name 'zz'\n"
    )


@pytest.mark.parametrize("verb", ["witness", "commutator"])
@pytest.mark.parametrize("spec", ["0,0,1", "0,,1", "0,1,"])
def test_pair_with_more_than_one_comma_is_a_malformed_pair(verb, spec):
    code, out, err = invoke(verb, "--family", "cyclic:3", "--pair", spec)
    assert (code, out) == (2, "")
    assert err == "error: usage: --pair needs two comma-separated element names\n"


def test_help_exits_0(capsys):
    code, out, err = invoke("--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: semorient")
    assert capsys.readouterr() == ("", "")


def test_dash_names_pass_with_equals_sign():
    code, out, _ = invoke("witness", "--family", "quaternion8", "--element=-1", "--exact")
    assert code == 0
    assert out.startswith("element: -1\nwitness: ")
    code, out, _ = invoke("witness", "--family", "quaternion8", "--pair=-1,i", "--exact")
    assert code == 0
    assert out == "pair: (-1, i)\nnot related (exact)\n"


def _refuse(*args):
    raise AssertionError("must not be called")


@pytest.mark.parametrize(
    "fmt, renderers",
    [
        ("text", ("semorient.equations.one_var_to_json", "semorient.equations.two_var_to_json")),
        (
            "json",
            (
                "semorient.equations.one_var_to_text",
                "semorient.equations.two_var_to_text",
                "semorient.verbs.serialize_table",
            ),
        ),
    ],
)
def test_each_format_renders_only_itself(monkeypatch, fmt, renderers):
    # each verb imports the witness renderers from equations when it runs;
    # the verbs package binds serialize_table from core at import
    for target in renderers:
        monkeypatch.setattr(target, _refuse)
    for argv in (
        "orientable", "orientable --exact", "witness --element 120",
        "witness --pair 120,201", "sigma", "sigma --exact", "quotient --exact",
        "abelianization", "family",
    ):
        code, _, err = invoke(*argv.split(), "--family", "symmetric:3", "--format", fmt)
        assert (code, err) == (0, ""), argv


def test_family_order_cap_rejects_before_building(monkeypatch):
    monkeypatch.setitem(catalog._INT_PARAM, "cyclic", _refuse)
    code, out, err = invoke("check", "--family", "cyclic:100000000000")
    assert (code, out) == (2, "")
    assert err == "error: usage: cyclic:100000000000 has order above the maximum 1000\n"

    monkeypatch.undo()
    monkeypatch.setattr(catalog, "_table_from_op", _refuse)
    code, out, err = invoke("check", "--family", "directproduct:cyclic:40,cyclic:40")
    assert (code, out) == (2, "")
    assert err == (
        "error: usage: directproduct:cyclic:40,cyclic:40 has order 1600, "
        "above the maximum 1000\n"
    )


@pytest.mark.parametrize(
    "spec",
    [
        # left-nested over order-1 operands: 7.9 s with 20 products before the limit
        "directproduct:" * 25 + "cyclic:1" + ",cyclic:1" * 25,
        # right-nested around an order-1000 operand: one order-1000 product per level
        "directproduct:cyclic:1," * 16 + "cyclic:1000",
    ],
    ids=["left-nested", "right-nested"],
)
def test_too_many_products_exit_2_before_parsing(monkeypatch, spec):
    monkeypatch.setattr(catalog, "_split_product_spec", _refuse)
    code, out, err = invoke("check", "--family", spec)
    assert (code, out) == (2, "")
    products = spec.count("directproduct:")
    assert err == (
        f"error: usage: {products} directproduct operations, above the maximum 8\n"
    )


def test_nested_product_over_the_cap_reports_the_cap():
    code, out, err = invoke(
        "check", "--family", "directproduct:directproduct:cyclic:40,cyclic:40,cyclic:2"
    )
    assert (code, out) == (2, "")
    assert err == (
        "error: usage: directproduct:cyclic:40,cyclic:40 has order 1600, "
        "above the maximum 1000\n"
    )


def test_table_order_cap_rejects_elements_line(tmp_path):
    path = tmp_path / "big.tbl"
    path.write_text("elements: " + " ".join(f"e{i}" for i in range(1001)) + "\ntable:\n")
    code, out, err = invoke("check", "--table", str(path))
    assert (code, out) == (1, "")
    assert err == (
        "error: invalid-table: line 1: 1001 element names exceed the maximum order 1000\n"
    )


def test_table_byte_cap_admits_a_file_at_the_cap_and_refuses_one_byte_more(monkeypatch, tmp_path):
    text = serialize_table(make_family("cyclic:2"))
    monkeypatch.setattr(verbs, "MAX_TABLE_BYTES", len(text))
    path = tmp_path / "z2.tbl"
    path.write_text(text)
    assert invoke("check", "--table", str(path)) == (0, "ok: associative table of order 2\n", "")
    path.write_text(text + "\n")
    assert invoke("check", "--table", str(path)) == (
        1, "", f"error: invalid-table: table file exceeds the maximum of {len(text)} bytes\n"
    )


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_endless_table_file_is_an_invalid_table_under_a_memory_limit():
    # an unbounded read fills the 1 GiB address space and ends in a MemoryError traceback
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    proc = _semorient(
        ["check", "--table", "/dev/zero"], True, capture_output=True, text=True,
        preexec_fn=limit, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        f"error: invalid-table: table file exceeds the maximum of {verbs.MAX_TABLE_BYTES} bytes\n"
    )


# the longest catalog table within the order cap: leftzero:83 times alternating:4,
# order 996, each name padded by seven products with leftzero:1
LONGEST_SPEC = "directproduct:leftzero:83," + "directproduct:leftzero:1," * 7 + "alternating:4"


def test_longest_catalog_table_round_trips_under_the_byte_cap(tmp_path):
    path = tmp_path / "longest.tbl"
    with open(path, "wb") as f:
        _semorient(["family", "--family", LONGEST_SPEC], True, stdout=f, check=True)
    assert path.stat().st_size == 29_670_737 < verbs.MAX_TABLE_BYTES
    assert invoke("check", "--table", str(path)) == (0, "ok: associative table of order 996\n", "")


_BOUNDED_VERBS = (
    "orientable", "witness --element i", "witness --pair i,j", "sigma", "quotient",
    "verify --suite theorems", "verify --suite propositions", "verify",
)


@pytest.mark.parametrize("flag", ["--bound 9", "--bound=9", "--bound 1000000000000"])
@pytest.mark.parametrize("verb", _BOUNDED_VERBS)
def test_bound_cap_rejects_before_any_search(monkeypatch, verb, flag):
    from semorient import search, verify

    searches = (
        "orientable_set", "search_one_var", "search_two_var", "sigma_report",
        "_one_var_search", "_pair_search",
    )
    for name in (*searches, "_splits"):
        monkeypatch.setattr(search, name, _refuse)
    # verify binds three searches at import; the verb reads the suites when it runs
    for name in (
        *searches[-3:], "verify_orientable_is_commutator_subgroup",
        "verify_sigma_is_abelianization", "verify_semigroup_properties",
    ):
        monkeypatch.setattr(verify, name, _refuse)
    for extra in [()] if verb.startswith("verify") else [(), ("--exact",)]:
        code, out, err = invoke(*verb.split(), "--family", "quaternion8", *flag.split(), *extra)
        assert (code, out) == (2, ""), extra
        assert err == f"error: usage: --bound must be at most {MAX_BOUND}\n", extra


def test_bound_cap_accepts_the_cap():
    code, out, err = invoke("witness", "--family", "cyclic:3", "--element", "0", "--bound", "8")
    assert (code, err) == (0, "")
    assert out == "element: 0\nwitness: [0] = [] * t * [0]\nvalid: true\n"
    code, out, err = invoke("orientable", "--family", "cyclic:3", "--bound", "8")
    assert (code, err) == (0, "")
    assert out.endswith("1: no witness with n <= 8\n2: no witness with n <= 8\n")
    # the cap is the smallest value above every bound the docs, CI and benchmark use
    assert MAX_BOUND == 8


def test_group_only_verbs_exit_3():
    for argv in (
        ("commutator", "--family", "leftzero:3"),
        ("abelianization", "--family", "leftzero:3"),
        ("verify", "--family", "leftzero:3", "--suite", "theorems"),
        ("verify", "--family", "leftzero:3", "--suite", "all"),
        ("abelianization", "--family", "null:3"),
    ):
        code, out, err = invoke(*argv)
        assert (code, out) == (3, ""), argv
        assert err.startswith("error: not-a-group:"), argv
        assert err.count("\n") == 1 and err.endswith("\n"), argv
    # the group is detected before --pair is parsed, so an unknown name exits 3 here
    assert invoke("commutator", "--family", "leftzero:3", "--pair", "x0,zz") == (
        3, "", "error: not-a-group: no identity element\n"
    )


def test_exact_outside_group_exit_4():
    for argv in (
        ("orientable", "--family", "leftzero:3", "--exact"),
        ("sigma", "--family", "null:3", "--exact"),
        ("quotient", "--family", "fulltransformation:2", "--exact"),
        ("witness", "--family", "leftzero:3", "--element", "x0", "--exact"),
        ("sigma", "--family", "leftzero:3", "--exact"),
        ("orientable", "--family", "fulltransformation:2", "--exact"),
        ("quotient", "--family", "null:3", "--exact"),
    ):
        code, out, err = invoke(*argv)
        assert (code, out) == (4, ""), argv
        assert err.startswith("error: exact-requires-group:"), argv
        assert err.count("\n") == 1 and err.endswith("\n"), argv
    # the bounds are read before the table is asked to be a group
    code, _, err = invoke("sigma", "--family", "null:3", "--exact", "--bound", "9")
    assert (code, err) == (2, f"error: usage: --bound must be at most {MAX_BOUND}\n")


def test_orientable_s3_json_lists_three_elements():
    code, out, _ = invoke(
        "orientable", "--family", "symmetric:3", "--bound", "3", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["orientable_count"] == 3
    found = {e["element"] for e in obj["elements"] if e["orientable"]}
    assert found == {"012", "120", "201"}
    # every reported witness re-checks
    s3 = make_family("symmetric:3")
    for entry in obj["elements"]:
        if entry["witness"] is not None:
            assert witness_problem(s3.names, s3.table, entry["witness"]) is None


def test_orientable_bounded_text_states_bound():
    code, out, _ = invoke("orientable", "--family", "cyclic:4", "--bound", "2")
    assert code == 0
    assert "no witness with n <= 2" in out
    assert "not orientable" not in out


def test_orientable_exact_text():
    code, out, _ = invoke("orientable", "--family", "symmetric:3", "--exact")
    assert code == 0
    assert "mode: exact" in out
    assert "not orientable (exact)" in out


def test_witness_element_json_round_trip():
    code, out, _ = invoke(
        "witness", "--family", "symmetric:3", "--element", "120", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "one-var" and obj["valid"] is True
    s3 = make_family("symmetric:3")
    assert obj["element"] == "120"
    assert witness_problem(s3.names, s3.table, obj) is None


def test_witness_pair_json_round_trip():
    code, out, _ = invoke(
        "witness", "--family", "symmetric:3", "--pair", "120,201", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "two-var" and obj["valid"] is True
    s3 = make_family("symmetric:3")
    assert obj["pair"] == ["120", "201"]
    assert witness_problem(s3.names, s3.table, obj) is None


def test_witness_none_states_bound():
    code, out, _ = invoke(
        "witness", "--family", "cyclic:4", "--pair", "1,3", "--bound", "2"
    )
    assert code == 0
    assert "no witness with n <= 2" in out
    # outside [G, G]: answered by the commutative-image filter, not a bound-7 search
    code, out, _ = invoke("witness", "--family", "cyclic:12", "--element", "1", "--bound", "7")
    assert code == 0
    assert "no witness with n <= 7" in out


def test_witness_exact_not_related():
    code, out, _ = invoke(
        "witness", "--family", "cyclic:4", "--pair", "1,3", "--exact"
    )
    assert code == 0
    assert "not related (exact)" in out
    code, out, _ = invoke("witness", "--family", "cyclic:4", "--element", "1", "--exact")
    assert code == 0
    assert "not orientable (exact)" in out


def test_witness_exact_constructed_validates():
    code, out, _ = invoke(
        "witness", "--family", "quaternion8", "--pair", "i,-i", "--exact",
        "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    q8 = make_family("quaternion8")
    assert obj["pair"] == ["i", "-i"]
    assert witness_problem(q8.names, q8.table, obj) is None


def _printed_witnesses(spec, *mode):
    """Every JSON witness that orientable, witness and sigma print on ``spec`` in ``mode``."""

    def printed(*argv):
        code, out, err = invoke(*argv, "--family", spec, *mode, "--format", "json")
        assert (code, err) == (0, ""), argv
        return json.loads(out)

    names = make_family(spec).names
    found = [entry["witness"] for entry in printed("orientable")["elements"]]
    found += [printed("witness", f"--element={x}") for x in names]
    found += [printed("witness", f"--pair={u},{v}") for u in names for v in names]
    found += printed("sigma")["pairs"]
    return [w for w in found if w is not None and "kind" in w]


_PRINTING = [
    ("symmetric:3", ("--bound", "2")),
    ("quaternion8", ("--bound", "2")),
    ("fulltransformation:2", ("--bound", "2")),
    ("symmetric:3", ("--exact",)),
    ("quaternion8", ("--exact",)),
    ("directproduct:cyclic:2,fulltransformation:2", ("--bound", "3")),
    ("rightzero:3", ()),
]


@pytest.mark.parametrize(
    "spec, mode", _PRINTING, ids=[spec + "".join(mode) for spec, mode in _PRINTING]
)
def test_printed_witnesses_check_out_in_the_raw_table(spec, mode):
    s = make_family(spec)
    printed = _printed_witnesses(spec, *mode)
    assert {w["kind"] for w in printed} == {"one-var", "two-var"}
    for w in printed:
        assert w["valid"] is True
        assert witness_problem(s.names, s.table, w) is None, w


def test_two_step_exact_witnesses_check_out_in_the_raw_table(tmp_path):
    # the width-two group's 3 elements with k = 2 are the only witnesses built from
    # two conjugated commutator steps: 32 orientable witnesses and 96 * 32 pair witnesses
    s = width_two_group()
    path = tmp_path / "width-two.tbl"
    path.write_text(serialize_table(s), encoding="utf-8")

    def printed(verb):
        code, out, err = invoke(verb, "--exact", "--table", str(path), "--format", "json")
        assert (code, err) == (0, ""), verb
        return json.loads(out)

    found = [e["witness"] for e in printed("orientable")["elements"] if e["witness"]]
    found += printed("sigma")["pairs"]
    assert len(found) == 3104
    assert sum(w["kind"] == "one-var" and len(w["a"]) == 4 for w in found) == 3
    for w in found:
        assert w["valid"] is True
        assert witness_problem(s.names, s.table, w) is None, w


def _mutants(w):
    """An S3 witness with one letter changed, one dropped, one unknown, no letters, and moved.

    Moved puts 021, outside [G, G], in the place of the first element witnessed:
    the letters still agree, but no witness relates what φ keeps apart.
    """
    key = next(k for k in "abcd" if w.get(k))
    first, *rest = w[key]
    changed = "021" if first != "021" else "012"
    moved = {"element": "021"} if w["kind"] == "one-var" else {"pair": ["021", w["pair"][1]]}
    return {
        "changed": {**w, key: [changed, *rest]},
        "dropped": {**w, key: rest},
        "unknown": {**w, key: ["zz", *rest]},
        "empty": {**w, **{k: [] for k in "abcd" if k in w}},
        "moved": {**w, **moved},
    }


def test_witness_problem_rejects_mutants(s3):
    reasons = {
        "changed": "the sides carry the letters",
        "dropped": "the sides carry the letters",
        "unknown": "unknown name 'zz'",
        "empty": "no letters",
        "moved": "the sides multiply to",
    }
    for argv in (("--element", "120"), ("--pair", "120,201")):
        _, out, _ = invoke("witness", "--family", "symmetric:3", *argv, "--format", "json")
        w = json.loads(out)
        assert witness_problem(s3.names, s3.table, w) is None
        for label, mutant in _mutants(w).items():
            problem = witness_problem(s3.names, s3.table, mutant)
            assert problem is not None and problem.startswith(reasons[label]), (label, problem)


def test_sigma_text_and_json():
    code, out, _ = invoke("sigma", "--family", "leftzero:3", "--bound", "1")
    assert code == 0
    assert "exactness: lower-bound (bound 1)" in out
    assert "classes: 1" in out

    code, out, _ = invoke("sigma", "--family", "symmetric:3", "--exact", "--format", "json")
    obj = json.loads(out)
    assert obj["exactness"] == "exact-group"
    assert obj["num_classes"] == 2
    assert len(obj["pairs"]) == 18


def test_quotient_text_reparses():
    code, out, _ = invoke("quotient", "--family", "symmetric:3", "--exact")
    assert code == 0
    q = parse_table(out)
    assert q.order == 2


def test_bounded_quotient_is_the_quotient_by_the_witnessed_pairs(catalog_family):
    # the verb reads ker φ with no search; the pairs a search witnesses generate the same classes
    spec, s = catalog_family
    for bound in (1, 3):
        pairs = sigma_report(s, bound)
        table = serialize_table(quotient(s, generated_congruence(s, pairs)))
        got = invoke("quotient", "--family", spec, "--bound", str(bound))
        assert got == (0, f"# sigma-quotient of {spec} (lower-bound)\n" + table, ""), bound


def test_exact_quotients_build_no_derived_subgroup(monkeypatch):
    # both read ker φ; [G, G] is built only for the exact σ report and the verify σ suite
    calls = []
    for name in ("derived_subgroup_tree", "coset_congruence"):
        real = getattr(groups, name)
        monkeypatch.setattr(
            groups, name, lambda g, name=name, real=real: calls.append(name) or real(g)
        )
    for verb in (("quotient", "--exact"), ("abelianization",)):
        code, out, err = invoke(*verb, "--family", "symmetric:4")
        assert (code, err) == (0, ""), verb
        assert out.count("\n") == 5, verb  # a comment, two header lines, two rows: S4/A4
    assert calls == []


def test_exact_sigma_report_builds_no_coset_congruence():
    # the report reads ker φ; the derived-subgroup tree is still built, for the witnesses
    from semorient import theorems

    caches = (groups.coset_congruence, groups.derived_subgroup_tree, theorems._orientable_witnesses)
    for cache in caches:
        cache.cache_clear()
    code, out, err = invoke("sigma", "--exact", "--family", "symmetric:4")
    assert (code, err) == (0, "")
    assert "classes: 2\n" in out and "related pairs with witnesses: 288\n" in out
    assert [cache.cache_info().misses for cache in caches] == [0, 1, 1]


@pytest.mark.parametrize(
    "target, tree_builds, printed",
    [
        (("--element", "012|0231"), 1, "valid: true"),
        (("--pair", "012|0132,012|0213"), 1, "valid: true"),
        (("--element", "012|0132"), 0, "not orientable (exact)"),
        (("--pair", "012|0123,021|0123"), 0, "not related (exact)"),
    ],
)
def test_exact_witness_builds_only_the_witness_it_prints(monkeypatch, target, tree_builds, printed):
    # S3 × S4 has 36 elements in [G, G]; one witness is built, and the derived-subgroup
    # tree only for a member of ε's class of ker φ
    from semorient import theorems

    caches = (groups.derived_subgroup_tree, theorems._orientable_witnesses)
    for cache in caches:
        cache.cache_clear()
    calls = []
    build = theorems.build_orientable_witness

    def spy(s, g):
        calls.append(g)
        return build(s, g)

    monkeypatch.setattr(theorems, "build_orientable_witness", spy)
    code, out, err = invoke(
        "witness", "--exact", "--family", "directproduct:symmetric:3,symmetric:4", *target
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == printed
    assert len(calls) == 1
    assert groups.derived_subgroup_tree.cache_info().misses == tree_builds
    for cache in caches:
        cache.cache_clear()


def test_commutator_verbs():
    code, out, _ = invoke("commutator", "--family", "symmetric:3")
    assert code == 0
    assert "order 3" in out

    code, out, _ = invoke(
        "commutator", "--family", "symmetric:3", "--pair", "102,210", "--format", "json"
    )
    obj = json.loads(out)
    assert obj["commutator"] in {"120", "201"}


def test_abelianization_text_reparses():
    code, out, _ = invoke("abelianization", "--family", "quaternion8")
    assert code == 0
    q = parse_table(out)
    assert q.order == 4


def test_info_group_and_nongroup():
    code, out, _ = invoke("info", "--family", "quaternion8", "--format", "json")
    obj = json.loads(out)
    assert obj["group"] is True
    assert obj["commutator_subgroup"] == ["1", "-1"]
    assert obj["abelianization_order"] == 4

    code, out, _ = invoke("info", "--family", "fulltransformation:2", "--format", "json")
    obj = json.loads(out)
    assert obj["group"] is False
    assert obj["idempotents"] == ["00", "01", "11"]


def test_family_prints_canonical_table():
    code, out, _ = invoke("family", "--family", "cyclic:3")
    assert code == 0
    assert out == "elements: 0 1 2\ntable:\n0 1 2\n1 2 0\n2 0 1\n"


def test_verify_quaternion8_theorems_pass():
    for suite in ("theorems", "all"):
        code, out, _ = invoke("verify", "--family", "quaternion8", "--suite", suite)
        assert code == 0, suite
        assert "all checks passed" in out, suite


def test_verify_propositions_on_nongroup():
    code, out, _ = invoke("verify", "--family", "leftzero:3", "--suite", "propositions")
    assert code == 0
    assert "soft-report" in out


def test_verify_json_structure():
    code, out, _ = invoke(
        "verify", "--family", "cyclic:3", "--suite", "all", "--format", "json"
    )
    obj = json.loads(out)
    assert obj["passed"] is True
    assert len(obj["reports"]) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ("orientable", "--family", "symmetric:3", "--bound", "3", "--format", "json"),
        ("sigma", "--family", "dihedral:4", "--exact", "--format", "json"),
        ("verify", "--family", "cyclic:4", "--suite", "all"),
        ("info", "--family", "fulltransformation:2"),
    ],
)
def test_outputs_are_deterministic(argv):
    first = invoke(*argv)
    second = invoke(*argv)
    assert first == second


def test_bound_increase_only_adds():
    _, out1, _ = invoke("orientable", "--family", "dihedral:4", "--bound", "1", "--format", "json")
    _, out2, _ = invoke("orientable", "--family", "dihedral:4", "--bound", "2", "--format", "json")
    one = {e["element"]: e for e in json.loads(out1)["elements"]}
    two = {e["element"]: e for e in json.loads(out2)["elements"]}
    for name, entry in one.items():
        if entry["orientable"]:
            assert two[name]["orientable"]
            assert two[name]["witness"] == entry["witness"]
    assert sum(e["orientable"] for e in two.values()) >= sum(
        e["orientable"] for e in one.values()
    )


# sha256 of "<exit code>\n<stdout>" for every verb, both formats, on a group and
# a non-group; a change to any CLI output byte must change these deliberately
GOLDEN = {
    "check --family symmetric:3 --format text":
        "817aca94e76bfd2edf1f090db55d32f01788e61733409dfdc8d650341a989868",
    "check --family symmetric:3 --format json":
        "04dc1d1e35fcfbbdd9ea825d268e110e7eca964de0968afb2081b80aad87d448",
    "info --family symmetric:3 --format text":
        "4db5e6dcccd8a1c4c08d7dce7c9f07d4a79278632809a09d512f6160d12bed03",
    "info --family symmetric:3 --format json":
        "9ea0cd118313e4f4678479ebaa5c69b2318d8e7a365078f643d311bcebf0640b",
    "family --family symmetric:3 --format text":
        "f7a93a12f6e3323374e59abc7744a12a5116dae11851949754179abf247ae6b0",
    "family --family symmetric:3 --format json":
        "52d56084e5acba8aba73892fdc170cd6c7f45a31748f149c419c806a513f5139",
    "orientable --family symmetric:3 --format text":
        "896cc5fb7e8460f2291f64543075bb2a764a7ab616834383e9bf4b0d09ecb12a",
    "orientable --family symmetric:3 --format json":
        "e5cfac4d95e4567e14f4d95e75e26c935a4c6ea3bd497c9620b26ced965f2c04",
    "orientable --family symmetric:3 --exact --format text":
        "2b0c3d525dc8bbd03fb2d4d1ae5339bf7c96ee07807ee222542c04e20219375e",
    "orientable --family symmetric:3 --exact --format json":
        "23c589ad9f350b6d76358573456ce9652532a7d299d39d32ab885d548083c09d",
    "witness --family symmetric:3 --element 120 --format text":
        "a00b0aa6076c5c797f9fa7c879c64a8921e1944985c7ade82c83c2130f3117a4",
    "witness --family symmetric:3 --element 120 --format json":
        "bf19567f95e2813354daa788caf66cf02ea0ca0bb0f2d17523e3e4cc803ba7be",
    "witness --family symmetric:3 --element 120 --exact --format text":
        "a00b0aa6076c5c797f9fa7c879c64a8921e1944985c7ade82c83c2130f3117a4",
    "witness --family symmetric:3 --element 120 --exact --format json":
        "bf19567f95e2813354daa788caf66cf02ea0ca0bb0f2d17523e3e4cc803ba7be",
    "witness --family symmetric:3 --pair 120,201 --format text":
        "4a9845addfc5cf7685cfc26c7634baf894535448edafa91dd596dbd36b88e1b1",
    "witness --family symmetric:3 --pair 120,201 --format json":
        "4471dbd7787886b68ff4b9fc4bed010ff3cbf5683493c4a19f2c82ae4bb70441",
    "witness --family symmetric:3 --pair 120,201 --exact --format text":
        "6de8ef9e951d6dc67092b5224fbb3929278332e492d346e8532c6dd7bae717df",
    "witness --family symmetric:3 --pair 120,201 --exact --format json":
        "9f25edb5516f045da5de0cc217f366383b8495b75dcb0825b5fedb95f2c0cc7a",
    "sigma --family symmetric:3 --format text":
        "4e039c63bd7b62aba404b5f8d13e58a1c8da22db38071614db2e67b14474a0c4",
    "sigma --family symmetric:3 --format json":
        "003743fb43a347259871872570093649cc1273211ac4d61f34bba732b761b785",
    "sigma --family symmetric:3 --exact --format text":
        "8a07878ae4e06e84f68259ce9da34a3c450755563ecb3ef0f37fda86addb2298",
    "sigma --family symmetric:3 --exact --format json":
        "cd1b1ec53a73b58d3db57bd4b90920eb32744c4dac6ba175cbd611481745ef76",
    "quotient --family symmetric:3 --format text":
        "e3021630f8967e2c69368ff942c18fd0f6db6005da75e111804101325047a1ff",
    "quotient --family symmetric:3 --format json":
        "f17dc872d70ef22bf08bc47bea1485bd5a77843ff9e94874a6a5a536fda60ebc",
    "quotient --family symmetric:3 --exact --format text":
        "c6ea19a2e87df02e358cfb773461830f335ccc7c3ae5833e9b083784aab0efd0",
    "quotient --family symmetric:3 --exact --format json":
        "8f3bf4e40927b3a5c484eb1a455be1891836eb9c18918b9019d51d1da42e8308",
    "commutator --family symmetric:3 --format text":
        "43065e7e6c2881e8e040bef1b2fb359293b7e7f92833b01fccbe046788b4f10e",
    "commutator --family symmetric:3 --format json":
        "f9cd17699fb684a0c4a83ec84217831cc4696028fc6da8c876bbfe048df6e059",
    "commutator --family symmetric:3 --pair 102,210 --format text":
        "fe3a8dbaf2f6b5a82f470342b25c3f56b48662483ac64f8717feb6f118119f34",
    "commutator --family symmetric:3 --pair 102,210 --format json":
        "8e36418cd9c81e92e797166dc9e6c1746daa2ec66186f02feccf89d0a1a00a55",
    "abelianization --family symmetric:3 --format text":
        "f46ed3b2b09c81f37a06ee72a087546273bad5a500e9f1b0642b83b7b0dd1c59",
    "abelianization --family symmetric:3 --format json":
        "d5ebfe22d882913160710bc556c4baa5f4c35e65aae63d9485ecd15c050206cd",
    "verify --family symmetric:3 --format text":
        "03fc3c71526fe5185d4ca0d667329fe43f9eecc12c6b97e83b21685685188833",
    "verify --family symmetric:3 --format json":
        "d759287de31e40456e07eb702b3dbc716905c2ce41a4f8795e849ddb765f5e88",
    "witness --family symmetric:3 --element 102 --format text":
        "dba7e628a1b96cd8a1b93ad7e71bdeb55548060b2ed9b8bfa7d07e7f56dfe239",
    "witness --family symmetric:3 --element 102 --format json":
        "8e636c192c129e9c5a26a4e24e3fdd1885ca2eda566814b098385d63a2c23722",
    "witness --family symmetric:3 --element 102 --exact --format text":
        "e16a1d80b1dfc23d7e8da11525ac8451561a9ca78f34344469f41d99ddb84c6d",
    "witness --family symmetric:3 --element 102 --exact --format json":
        "9d6ff63911c8529e54623a5ea3eb202cb23467a57bde0be220f388831a62aa68",
    "witness --family symmetric:3 --pair 120,102 --format text":
        "6b0a53e65280d000b48a2e54ff54c1bd3cef243374ee80cec08f9a51434dfd34",
    "witness --family symmetric:3 --pair 120,102 --format json":
        "61b361156ded83c14efb6d63ccf25918bfd7482d6d99779a7279bb6e7ad6be56",
    "witness --family symmetric:3 --pair 120,102 --exact --format text":
        "6c1ab009f5c9c8f5f16f8d5c8116c5405814b006a1d63cc5d924a4d8c32c5f63",
    "witness --family symmetric:3 --pair 120,102 --exact --format json":
        "97b1318608607845979a5b73fd3d8ac43ea4428db5c43ff41b792d7badd096de",
    "check --family leftzero:3 --format text":
        "566a02cf1bc6e19c64c59b689d754b679e0d5a2b2eb239ef0287b6842405bac0",
    "check --family leftzero:3 --format json":
        "67cd82e94775119b9f9648037e5b52bfb21202e30221666172511300ce0409ea",
    "info --family leftzero:3 --format text":
        "e6350a8b9b9de51afd1d4ea420981d7c180e26f0118cd7f27d66e57839c754a7",
    "info --family leftzero:3 --format json":
        "d40e39caa7d3227da98e32766b12a07cebebe00ee86d6257751a73a4cea267d0",
    "family --family leftzero:3 --format text":
        "3824af03d2efceb8df8e4be0536e0934245784807db016321470c2ae627e65ae",
    "family --family leftzero:3 --format json":
        "65247e4810f2e4a5725928465456948b41d0bd5cba18063e759f72609407bcbc",
    "orientable --family leftzero:3 --format text":
        "aa2214854b68b473ad0f7c172706ad7df5623a08154435a92ea5e6b3e3c02ca9",
    "orientable --family leftzero:3 --format json":
        "c002a9cf53f53d5115aee807edadc1deb2d79302b9e21e4d661e5bc8d5570147",
    "orientable --family leftzero:3 --exact --format text":
        "7de1555df0c2700329e815b93b32c571c3ea54dc967b89e81ab73b9972b72d1d",
    "orientable --family leftzero:3 --exact --format json":
        "7de1555df0c2700329e815b93b32c571c3ea54dc967b89e81ab73b9972b72d1d",
    "witness --family leftzero:3 --element x0 --format text":
        "9bd198e071c9e6befac473b85261b8832eec430e23ac8aa94ab448aa9a86ccff",
    "witness --family leftzero:3 --element x0 --format json":
        "ddede20fe515ca9f5aa4a24aae0be3a2fde2bf6bcb04a5547610bddc833474b9",
    "witness --family leftzero:3 --element x0 --exact --format text":
        "7de1555df0c2700329e815b93b32c571c3ea54dc967b89e81ab73b9972b72d1d",
    "witness --family leftzero:3 --element x0 --exact --format json":
        "7de1555df0c2700329e815b93b32c571c3ea54dc967b89e81ab73b9972b72d1d",
    "witness --family leftzero:3 --pair x0,x1 --format text":
        "6243bd1670bdeeaf19705c386375b5b7c7b8eedd81e17a364e01709f29ab6a9d",
    "witness --family leftzero:3 --pair x0,x1 --format json":
        "ea8c897809cd790bc6d7d56fee5ca00870b188b7735458e4a44054999d43d00a",
    "witness --family leftzero:3 --pair x0,x1 --exact --format text":
        "7de1555df0c2700329e815b93b32c571c3ea54dc967b89e81ab73b9972b72d1d",
    "witness --family leftzero:3 --pair x0,x1 --exact --format json":
        "7de1555df0c2700329e815b93b32c571c3ea54dc967b89e81ab73b9972b72d1d",
    "sigma --family leftzero:3 --format text":
        "e0caac06a9419cd03e78b5fa881164c6de72ea50fac52ecaca643b64f03b4cfe",
    "sigma --family leftzero:3 --format json":
        "f3c4fd0067b5d6c671990f302ddbb881be838e56ca5c2a4ac465641125696943",
    "sigma --family leftzero:3 --exact --format text":
        "7de1555df0c2700329e815b93b32c571c3ea54dc967b89e81ab73b9972b72d1d",
    "sigma --family leftzero:3 --exact --format json":
        "7de1555df0c2700329e815b93b32c571c3ea54dc967b89e81ab73b9972b72d1d",
    "quotient --family leftzero:3 --format text":
        "e80acfe0d3ba1638488d2cb9c319fda325cd06d58b713b5eae252e3b4f0dbbb5",
    "quotient --family leftzero:3 --format json":
        "df8d48251714461c7012db8df567c3d07b1f932b960a9241163597f81a5cbe9e",
    "quotient --family leftzero:3 --exact --format text":
        "7de1555df0c2700329e815b93b32c571c3ea54dc967b89e81ab73b9972b72d1d",
    "quotient --family leftzero:3 --exact --format json":
        "7de1555df0c2700329e815b93b32c571c3ea54dc967b89e81ab73b9972b72d1d",
    "commutator --family leftzero:3 --format text":
        "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
    "commutator --family leftzero:3 --format json":
        "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
    "commutator --family leftzero:3 --pair x0,x1 --format text":
        "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
    "commutator --family leftzero:3 --pair x0,x1 --format json":
        "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
    "abelianization --family leftzero:3 --format text":
        "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
    "abelianization --family leftzero:3 --format json":
        "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
    "verify --family leftzero:3 --format text":
        "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
    "verify --family leftzero:3 --format json":
        "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
    "verify --family leftzero:3 --suite propositions --format text":
        "b8b03d2c24f7a9c6792b83acb6f77d5046345523f0e00b79da0a725b0f2357dc",
    "verify --family leftzero:3 --suite propositions --format json":
        "61dc355cb010645736ae85afd32fb89ac14a6f2cd58c743ac5d9f09982e38e70",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_cli_output_bytes_are_pinned(argv):
    code, out, _ = invoke(*argv.split())
    assert hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() == GOLDEN[argv]


def _parse(parser, argv):
    """What parsing ``argv`` prints on stdout and the usage error it raises, if any."""
    out = io.StringIO()
    error = None
    with contextlib.redirect_stdout(out):
        try:
            parser.parse_args(argv)
        except cli.UsageError as exc:
            error = str(exc)
        except SystemExit:  # --help
            pass
    return out.getvalue(), error


_BAD_ARGUMENTS = (
    ["--nosuch"],
    ["--format", "xml"],
    ["--table"],
    ["--bound", "x"],
    ["--element"],
    ["--suite", "nope"],
    ["--pair"],
    ["--exact", "yes"],
    ["extra"],
)


@pytest.mark.parametrize("verb", cli._VERBS)
def test_a_verbs_own_parser_matches_the_full_parser(verb):
    # the verb's own subparser is the one in the full parser: its help and its usage
    # errors are what run() prints
    parser = cli.build_parser()
    help_text, error = _parse(parser, [verb, "--help"])
    assert help_text.startswith(f"usage: semorient {verb} ") and error is None
    assert invoke(verb, "--help") == (0, help_text, "")
    for bad in _BAD_ARGUMENTS:
        argv = [verb, *bad]
        out, error = _parse(parser, argv)
        assert out == "" and error is not None, argv
        assert invoke(*argv) == (2, "", f"error: usage: {error}\n"), argv


def test_top_level_help_and_errors_use_every_verb():
    full = cli.build_parser()
    code, out, err = invoke("--help")
    assert (code, out, err) == (0, _parse(full, ["--help"])[0], "")
    for verb in cli._VERBS:
        assert verb in out
    for argv in ([], ["nosuchverb"], ["--format", "json", "check"]):
        code, out, err = invoke(*argv)
        assert (code, out) == (2, ""), argv
        assert err == f"error: usage: {_parse(full, argv)[1]}\n", argv


_OPTIONS = sorted({flag for flag, _ in cli._COMMON}
                  | {flag for _, extra in cli._VERBS.values() for flag, _ in extra})
# argv that argparse reads but the plain path must decline
_ODD_OPTIONS = ("--tab", "--b", "--bound=2", "-h", "--help", "--")
# "\u0663" is the Arabic-Indic digit three, which int() reads as 3
_ODD_VALUES = ("-1", "", " 4", "1_0", "\u0663", "xml", "nope")
_VALUES = (
    "text", "json", "theorems", "propositions", "all", "0", "1", "2", "3",
    "z2.tbl", "s3.tbl", "bad_assoc.tbl", "missing.tbl",
    "cyclic:3", "symmetric:3", "leftzero:3", "fulltransformation:2", "nosuch:1",
    "120", "x0", "120,201", "0,1", "x0,x1", "stray",
)


# values each option takes, drawn more often after it
_GOOD = {"--format": ("text", "json"), "--suite": ("theorems", "propositions", "all"),
         "--bound": ("1", "2", "3")}


@st.composite
def _argv(draw, values):
    """A verb (or none), then options with or without a value, and stray values."""
    verb = draw(st.sampled_from((*cli._VERBS, "nosuchverb", "--help", "-h", "--format", None)))
    own = [flag for flag, _ in cli._COMMON + cli._VERBS.get(verb, ("", ()))[1]]
    argv = [] if verb is None else [verb]
    for _ in range(draw(st.integers(0, 5))):
        # mostly the verb's own options with a value, so that much of argv is plain
        flag = draw(st.sampled_from(own * 6 + _OPTIONS + list(_ODD_OPTIONS)))
        value = draw(st.sampled_from(_GOOD.get(flag, ()) * 4 + values))
        argv += draw(st.sampled_from([(flag, value)] * 3 + [(flag,), (value,)]))
    return argv


@st.composite
def _near_plain_argv(draw, values):
    """Plain argv, with one more option and value at times, odd or repeated."""
    verb = draw(st.sampled_from(list(cli._VERBS)))
    options = draw(st.permutations(cli._COMMON + cli._VERBS[verb][1]))
    chunks = [
        (flag,) if o.get("action") == "store_true"
        else (flag, draw(st.sampled_from(_GOOD.get(flag, ()) * 4 + _VALUES)))
        for flag, o in options[:draw(st.integers(0, len(options)))]
    ]
    if draw(st.booleans()):
        flag = draw(st.sampled_from(_OPTIONS + list(_ODD_OPTIONS)))
        value = draw(st.sampled_from(values))
        chunks.insert(draw(st.integers(0, len(chunks))), (flag, value))
    return [verb] + [token for chunk in chunks for token in chunk]


@settings(max_examples=500, deadline=None)
@given(_argv(_VALUES + _ODD_VALUES) | _near_plain_argv(_VALUES + _ODD_VALUES))
@example(["check", "--tab", "z2.tbl"])
@example(["orientable", "--family", "cyclic:3", "--bound=2"])
@example(["check", "--family", "cyclic:3", "--format", "text", "--format", "json"])
@example(["check", "--family", "cyclic:3", "--format", "xml"])
@example(["orientable", "--family", "cyclic:3", "--bound", "-1"])
@example(["check", "-h"])
@example(["check", "--", "--family", "cyclic:3"])
def test_plain_argv_gives_argparses_namespace(argv):
    plain = cli._plain_args(argv)
    dashed = [token for token in argv[1:] if token.startswith("-")]
    if set(argv) & set(_ODD_OPTIONS) or len(dashed) != len(set(dashed)):
        # abbreviations, ``--opt=value``, help and repeated options go to argparse
        assert plain is None, argv
    if plain is not None:
        assert vars(plain) == vars(cli.build_parser().parse_args(argv))


# bounds stay at most 3: " 3" and "0_3" stand in for " 4" and "1_0"
_SMALL_ODD_VALUES = ("-1", "", " 3", "0_3", "\u0663", "xml", "nope")


@settings(max_examples=150, deadline=None)
@given(_argv(_VALUES + _SMALL_ODD_VALUES) | _near_plain_argv(_VALUES + _SMALL_ODD_VALUES))
def test_any_argv_exits_0_to_4_with_one_error_line(argv):
    argv = [str(FIXTURES / a) if a.endswith(".tbl") else a for a in argv]
    code, out, err = invoke(*argv)
    assert code in range(5), argv
    assert "Traceback" not in out + err, argv
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), argv
    else:
        assert err == "", argv


_FUZZ_SPECS = (
    "cyclic:1", "cyclic:4", "klein4", "symmetric:3", "leftzero:2", "rightzero:3", "null:3",
    "fulltransformation:2", "directproduct:cyclic:2,cyclic:3",
)
# characters str.split, str.isspace or str.splitlines treat specially, a BOM, and
# bytes that are not UTF-8
_FUZZ_INSERTS = tuple(c.encode() for c in "\x0b\x1c\x85\u2028\ufeff") + (b"\xff", b"\xe9", b"\x80")


@st.composite
def _table_bytes(draw):
    """A valid table of order <= 6, then up to three byte-level edits."""
    data = serialize_table(make_family(draw(st.sampled_from(_FUZZ_SPECS)))).encode()
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(("truncate", "flip", "insert", "duplicate", "drop")))
        if edit in ("duplicate", "drop"):
            lines = data.splitlines(keepends=True)
            if lines:
                i = draw(st.integers(0, len(lines) - 1))
                lines[i : i + 1] = [lines[i]] * (2 if edit == "duplicate" else 0)
            data = b"".join(lines)
            continue
        at = draw(st.integers(0, len(data)))
        if edit == "truncate":
            data = data[:at]
        elif edit == "insert":
            data = data[:at] + draw(st.sampled_from(_FUZZ_INSERTS)) + data[at:]
        elif at < len(data):
            data = data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1 :]
    return data


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "table.tbl"


@settings(max_examples=300, deadline=None)
@given(_table_bytes())
@example("elements: a\x1cb\ntable:\na b\nb a\n".encode())
@example("\ufeffelements: e\ntable:\ne\n".encode())
@example(b"elements: e\ntable:\n\xff\n")
def test_any_table_bytes_exit_0_to_4_with_one_error_line(fuzz_path, data):
    fuzz_path.write_bytes(data)
    for verb in ("check", "info", "orientable --bound 2", "sigma --bound 2"):
        code, out, err = invoke(*verb.split(), "--table", str(fuzz_path))
        assert code in range(5), (verb, data)
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), (
                verb, data, err
            )
        else:
            assert err == "", (verb, data)


# The process entry ``main`` flushes stdout and ends with ``os._exit``. With
# PYTHONUNBUFFERED unset the output sits in stdout's buffer until that flush;
# with it set each write goes straight to the file descriptor.
def _env(buffered):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def _semorient(argv, buffered, module="semorient", env=None, **kwargs):
    """Run ``python -m module`` on argv, with the variables of ``env`` added to the environment."""
    return subprocess.run(
        [sys.executable, "-m", module, *argv], env={**_env(buffered), **(env or {})}, **kwargs
    )


@pytest.mark.parametrize(
    "encoding, name",
    [("ascii", "t.tbl"), ("utf-8", os.fsdecode(b"r\xe9sum\xe9.tbl"))],
    ids=["element-name", "non-utf8-path"],
)
def test_output_stdout_cannot_encode_exits_120(tmp_path, encoding, name):
    # info prints the element names and the table path, which the encoding cannot hold
    path = tmp_path / name
    path.write_text("elements: e \u00e9\ntable:\ne \u00e9\n\u00e9 e\n", encoding="utf-8")
    raw, err = io.BytesIO(), io.StringIO()
    out = io.TextIOWrapper(raw, encoding=encoding)
    assert run(["info", "--table", str(path)], out=out, err=err) == 120
    assert err.getvalue().startswith(f"error: output: '{encoding}' codec can't encode")
    assert err.getvalue().count("\n") == 1
    assert raw.getvalue() == b""
    # a fresh process whose stdout has that encoding
    proc = _semorient(
        ["info", "--table", str(path)], True, env={"PYTHONIOENCODING": encoding},
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout) == (120, "")
    assert proc.stderr.startswith(f"error: output: '{encoding}' codec can't encode")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv, large",
    [
        ("family --family cyclic:300", True),
        ("family --family cyclic:300 --format json", True),
        ("sigma --exact --family dihedral:36 --format json", True),
        # small enough to stay in stdout's buffer until main flushes it
        ("check --family cyclic:2", False),
    ],
)
def test_output_is_written_whole(tmp_path, argv, large, buffered):
    code, out, err = invoke(*argv.split())
    expected = out.encode()
    assert (code, err) == (0, "")
    assert (len(expected) > 64 * 1024) == large  # more than a pipe holds
    piped = _semorient(argv.split(), buffered, capture_output=True)
    assert (piped.returncode, piped.stdout, piped.stderr) == (0, expected, b"")
    path = tmp_path / "out"
    with open(path, "wb") as f:
        filed = _semorient(argv.split(), buffered, stdout=f, stderr=subprocess.PIPE)
    assert (filed.returncode, path.read_bytes(), filed.stderr) == (0, expected, b"")


def test_run_returns_for_every_exit_code():
    # only main ends the process; run returns each code and the interpreter
    # then tears down as usual, running atexit handlers
    script = (
        "import atexit, io\n"
        "from semorient.cli import run\n"
        "atexit.register(print, 'teardown')\n"
        "for argv in (\n"
        "    'check --family cyclic:2',\n"
        f"    'check --table {FIXTURES / 'bad_assoc.tbl'}',\n"
        "    'nosuchverb',\n"
        "    'commutator --family leftzero:3',\n"
        "    'sigma --family leftzero:3 --exact',\n"
        "):\n"
        "    print(run(argv.split(), out=io.StringIO(), err=io.StringIO()))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_env(True)
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "0\n1\n2\n3\n4\nteardown\n"


class _BrokenPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [("check", "--family", "cyclic:2"), ("check", "--help")])
def test_unwritable_output_exits_120(argv):
    err = io.StringIO()
    assert run(list(argv), out=_BrokenPipe(), err=err) == 120
    assert err.getvalue() == "error: output: [Errno 32] Broken pipe\n"
    # an error writes no output, so it keeps its own exit code
    err = io.StringIO()
    assert run(["check"], out=_BrokenPipe(), err=err) == 2
    assert err.getvalue().startswith("error: usage:")


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_stdout_that_fails_in_a_fresh_process_exits_120(buffered):
    argv = ["check", "--table", str(FIXTURES / "z2.tbl")]
    read, write = os.pipe()
    os.close(read)  # no reader: every write to the pipe fails with EPIPE
    try:
        proc = _semorient(argv, buffered, stdout=write, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (120, "error: output: [Errno 32] Broken pipe\n")
    proc = _semorient(
        argv, buffered, stderr=subprocess.PIPE, text=True, preexec_fn=lambda: os.close(1)
    )
    assert (proc.returncode, proc.stderr) == (120, "error: output: stdout is closed\n")
    # help is output like any other; an error writes no output, so it keeps its own code
    for other, code, category in (
        (["check", "--help"], 120, "output"),
        (["check", "--table", str(FIXTURES / "bad_assoc.tbl")], 1, "invalid-table"),
    ):
        proc = _semorient(
            other, buffered, stderr=subprocess.PIPE, text=True, preexec_fn=lambda: os.close(1)
        )
        assert proc.returncode == code, other
        assert proc.stderr.startswith(f"error: {category}: "), other
        assert proc.stderr.count("\n") == 1, other
    if os.path.exists("/dev/full"):  # a failed final flush, or a failed write when unbuffered
        with open("/dev/full", "w") as full:
            proc = _semorient(argv, buffered, stdout=full, stderr=subprocess.PIPE, text=True)
        assert proc.returncode == 120
        assert proc.stderr == "error: output: [Errno 28] No space left on device\n"


@pytest.mark.parametrize(
    "argv, code",
    [
        ("check --family cyclic:3", 0),
        ("witness --family cyclic:3 --element zz", 2),
        ("nosuchverb", 2),
    ],
    ids=["success", "verb-usage-error", "unknown-verb"],
)
def test_cli_module_runs_as_the_package(argv, code):
    # run as __main__, cli must still catch the one UsageError class the verbs raise
    package, module = (
        _semorient(argv.split(), True, module=name, capture_output=True, text=True)
        for name in ("semorient", "semorient.cli")
    )
    assert (module.returncode, module.stdout, module.stderr) == (
        package.returncode, package.stdout, package.stderr
    )
    assert package.returncode == code
    if code:
        assert package.stdout == ""
        assert package.stderr.startswith("error: usage: ") and package.stderr.count("\n") == 1
