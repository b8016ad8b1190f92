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

from semorient import catalog, cli, equations, verbs
from semorient.cli import run
from semorient.core import MAX_BOUND, adjoin_identity, parse_table, serialize_table
from semorient.equations import validate_one_var, validate_two_var, witness_from_json
from semorient.catalog import make_family

from conftest import FIXTURES

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
    code, out, err = invoke("check", "--table", str(FIXTURES / "bad_assoc.tbl"))
    assert code == 1
    assert err.startswith("error: invalid-table:")
    assert "triple" in err


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
    ):
        code, _, err = invoke(*argv)
        assert code == 2, argv
        assert err.startswith("error: usage:"), argv
        assert err.count("\n") == 1 and err.endswith("\n"), argv


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
        ("text", ((equations, "one_var_to_json"), (equations, "two_var_to_json"))),
        (
            "json",
            (
                (equations, "one_var_to_text"),
                (equations, "two_var_to_text"),
                (verbs, "serialize_table"),
            ),
        ),
    ],
)
def test_each_format_renders_only_itself(monkeypatch, fmt, renderers):
    # each verb imports the witness renderers from equations when it runs;
    # the verbs package binds serialize_table from core at import
    for module, name in renderers:
        monkeypatch.setattr(module, name, _refuse)
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


_BOUNDED_VERBS = (
    "orientable", "witness --element i", "witness --pair i,j", "sigma", "quotient",
    "verify --suite theorems", "verify --suite propositions",
)


@pytest.mark.parametrize("flag", ["--bound 9", "--bound=9", "--bound 1000000000000"])
@pytest.mark.parametrize("verb", _BOUNDED_VERBS)
def test_bound_cap_rejects_before_any_search(monkeypatch, verb, flag):
    from semorient import search, verify

    searches = (
        "orientable_set", "search_one_var", "search_two_var", "sigma_report",
        "unfiltered_one_var_search", "unfiltered_two_var_search",
    )
    for name in (*searches, "_Multiset"):
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
    # the cap is the smallest value above every bound the docs, CI and benchmark use
    assert MAX_BOUND == 8


def test_group_only_verbs_exit_3():
    for argv in (
        ("commutator", "--family", "leftzero:3"),
        ("abelianization", "--family", "leftzero:3"),
        ("verify", "--family", "leftzero:3", "--suite", "theorems"),
        ("verify", "--family", "leftzero:3", "--suite", "all"),
    ):
        code, _, err = invoke(*argv)
        assert code == 3, argv
        assert err.startswith("error: not-a-group:"), argv


def test_exact_outside_group_exit_4():
    for argv in (
        ("orientable", "--family", "leftzero:3", "--exact"),
        ("sigma", "--family", "null:3", "--exact"),
        ("quotient", "--family", "fulltransformation:2", "--exact"),
        ("witness", "--family", "leftzero:3", "--element", "x0", "--exact"),
    ):
        code, _, err = invoke(*argv)
        assert code == 4, argv
        assert err.startswith("error: exact-requires-group:"), argv
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
    # every reported witness re-validates
    s3 = make_family("symmetric:3")
    m = adjoin_identity(s3)
    for entry in obj["elements"]:
        if entry["witness"] is not None:
            element, w = witness_from_json(s3.names, entry["witness"])
            assert validate_one_var(m, element, w) is None


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
    element, w = witness_from_json(s3.names, obj)
    assert validate_one_var(adjoin_identity(s3), element, w) is None


def test_witness_pair_json_round_trip():
    code, out, _ = invoke(
        "witness", "--family", "symmetric:3", "--pair", "120,201", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "two-var" and obj["valid"] is True
    s3 = make_family("symmetric:3")
    pair, w = witness_from_json(s3.names, obj)
    assert validate_two_var(adjoin_identity(s3), pair[0], pair[1], w) is None


def test_witness_none_states_bound():
    code, out, _ = invoke(
        "witness", "--family", "cyclic:4", "--pair", "1,3", "--bound", "2"
    )
    assert code == 0
    assert "no witness with n <= 2" in out


def test_witness_exact_not_related():
    code, out, _ = invoke(
        "witness", "--family", "cyclic:4", "--pair", "1,3", "--exact"
    )
    assert code == 0
    assert "not related (exact)" in out


def test_witness_exact_constructed_validates():
    code, out, _ = invoke(
        "witness", "--family", "quaternion8", "--pair", "i,-i", "--exact",
        "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    q8 = make_family("quaternion8")
    pair, w = witness_from_json(q8.names, obj)
    assert pair == (q8.index_of("i"), q8.index_of("-i"))
    assert validate_two_var(adjoin_identity(q8), pair[0], pair[1], w) is None


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
    code, out, _ = invoke("verify", "--family", "quaternion8", "--suite", "theorems")
    assert code == 0
    assert "all checks passed" in out


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
        "0f953913a39713de741af3bfba4ea48241142d00d96e2519472faaaa5edf436d",
    "verify --family symmetric:3 --format json":
        "a960c8b97939286a0823e12d7a4e6b9227b16ef0c4dd701a7c82badda9a2ccaf",
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
    full, own = cli.build_parser(), cli.build_parser(verb)
    assert _parse(own, [verb, "--help"]) == _parse(full, [verb, "--help"])
    assert _parse(own, [verb, "--help"])[0].startswith(f"usage: semorient {verb} ")
    for bad in _BAD_ARGUMENTS:
        argv = [verb, *bad]
        got, expected = _parse(own, argv), _parse(full, argv)
        assert got == expected, argv
        if expected[1] is not None:
            # run() builds the verb's own parser and prints the full parser's error
            assert invoke(*argv) == (2, "", f"error: usage: {expected[1]}\n"), argv


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


def _semorient(argv, buffered, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "semorient", *argv], env=_env(buffered), **kwargs
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
    if os.path.exists("/dev/full"):  # a failed final flush, or a failed write when unbuffered
        with open("/dev/full", "w") as full:
            proc = _semorient(argv, buffered, stdout=full, stderr=subprocess.PIPE, text=True)
        assert proc.returncode == 120
        assert proc.stderr == "error: output: [Errno 28] No space left on device\n"
